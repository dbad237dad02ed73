//! Simulator-backed training timelines for the zoo models.
//!
//! [`crate::ablations::overlap_study`] prices every bucket with the
//! *analytic* Wrht cost model; this module instead drives the same
//! bucket-overlap iteration through an actual
//! [`wrht_core::substrate::Substrate`]: each bucket's all-reduce is lowered
//! to the substrate IR and executed on the optical ring or the electrical
//! cluster, producing an [`IterationTimeline`] with per-bucket
//! ready/start/finish instants and the substrate's own step timings. The
//! differential suite (`tests/timeline_differential.rs`) pins the two
//! models against each other wherever their cost models coincide.

use crate::ablations::BACKWARD_S_PER_PARAM;
use crate::campaign::Algorithm;
use crate::config::{ExperimentConfig, SubstrateKind};
use collectives::Collective;
use dnn_models::bucket::bucketize;
use dnn_models::training::{bucket_ready_times, IterationModel};
use dnn_models::Model;
use optical_sim::sim::StepSchedule;
use optical_sim::{OpticalConfig, Strategy};
use serde::{Deserialize, Serialize};
use wrht_core::dag::ExecMode;
use wrht_core::lower::to_optical_schedule;
use wrht_core::timeline::{
    execute_timeline, execute_timeline_pipelined, IterationTimeline, TimelineBucket,
};
use wrht_core::{GroupSearch, WrhtParams};

/// Compute-side model for one zoo model: backward time proportional to the
/// parameter count ([`BACKWARD_S_PER_PARAM`]), forward at half backward.
#[must_use]
pub fn iteration_model(model: &Model) -> IterationModel {
    let params = model.params() as f64;
    IterationModel {
        backward_s: params * BACKWARD_S_PER_PARAM,
        forward_s: params * BACKWARD_S_PER_PARAM * 0.5,
    }
}

/// All-reduces over `n` nodes lowered to the substrate IR, for any
/// payload.
///
/// Wrht plans with the optimizer (auto group size) against the optical
/// cost model at the given wavelength budget — also when the schedule will
/// execute electrically, mirroring the campaign's Wrht cells. Its
/// [`GroupSearch`] walks when the lowering is made and prices each payload
/// from that walk, so a cell that lowers many buckets walks once. A
/// classic collective collects its step source
/// ([`ExperimentConfig::collective`]).
pub struct AllReduceLowering<'a> {
    cfg: &'a ExperimentConfig,
    n: usize,
    lowering: Lowering,
}

/// How an [`AllReduceLowering`] builds its schedules.
enum Lowering {
    Wrht {
        search: GroupSearch,
        optical: OpticalConfig,
    },
    Collective(Collective),
}

impl<'a> AllReduceLowering<'a> {
    /// The lowering of `algorithm`'s all-reduces over `n` nodes.
    #[must_use]
    pub fn new(cfg: &'a ExperimentConfig, algorithm: Algorithm, n: usize) -> Self {
        let lowering = match algorithm.collective() {
            None => Lowering::Wrht {
                search: GroupSearch::new(&WrhtParams::auto(n, cfg.wavelengths)),
                optical: cfg.optical(n),
            },
            Some(collective) => Lowering::Collective(collective),
        };
        Self { cfg, n, lowering }
    }

    /// Lower one all-reduce of `bytes`. Returns the schedule plus the
    /// chosen group size (0 for the classic algorithms).
    ///
    /// # Errors
    /// The group-size search's, for Wrht.
    pub fn lower(&self, bytes: u64) -> wrht_core::error::Result<(StepSchedule, usize)> {
        match &self.lowering {
            Lowering::Wrht { search, optical } => {
                let (m, plan, _) = search.choose(optical, bytes)?;
                Ok((to_optical_schedule(&plan, bytes), m))
            }
            &Lowering::Collective(collective) => {
                Ok((self.cfg.collective(collective, self.n, bytes).collect(), 0))
            }
        }
    }
}

/// Buckets of a model as timeline inputs: payloads from
/// [`bucketize`], ready times from [`bucket_ready_times`], labelled with
/// the earliest fused layer.
#[must_use]
pub fn timeline_buckets(model: &Model, bucket_bytes: u64) -> Vec<TimelineBucket> {
    let buckets = bucketize(&model.layers, bucket_bytes);
    let ready = bucket_ready_times(&model.layers, &buckets, iteration_model(model));
    buckets
        .iter()
        .zip(&ready)
        .map(|(b, &ready_s)| {
            TimelineBucket::new(b.bytes, ready_s)
                .with_label(b.layers.last().cloned().unwrap_or_default())
        })
        .collect()
}

/// Execute one data-parallel training iteration of `model` on the given
/// substrate: the first workload where the optimizer, bucketing and the
/// simulators compose end to end.
///
/// `mode` selects the executor: [`ExecMode::Barrier`] serializes bucket
/// all-reduces on the network (one collective at a time), while
/// [`ExecMode::Pipelined`] chains the bucket schedules into one
/// dependency-aware DAG so consecutive buckets overlap on the wire.
#[allow(clippy::too_many_arguments)] // one axis per campaign dimension
pub fn model_timeline(
    cfg: &ExperimentConfig,
    model: &Model,
    n: usize,
    bucket_bytes: u64,
    algorithm: Algorithm,
    kind: SubstrateKind,
    strategy: Strategy,
    mode: ExecMode,
) -> wrht_core::error::Result<IterationTimeline> {
    let buckets = timeline_buckets(model, bucket_bytes);
    let im = iteration_model(model);
    let mut substrate = cfg.try_substrate(kind, n, strategy)?;
    let compute_s = im.forward_s + im.backward_s;
    let lowering = AllReduceLowering::new(cfg, algorithm, n);
    let lower = |bytes: u64| lowering.lower(bytes).map(|(schedule, _)| schedule);
    match mode {
        ExecMode::Barrier => execute_timeline(substrate.as_mut(), &buckets, compute_s, lower),
        ExecMode::Pipelined => {
            execute_timeline_pipelined(substrate.as_mut(), &buckets, compute_s, lower)
        }
    }
}

/// One row of the `repro-figures train` table, read off a train-campaign
/// row (`From<&TimelineCellResult>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineRow {
    /// Model name.
    pub model: String,
    /// Substrate label.
    pub substrate: String,
    /// Number of gradient buckets.
    pub buckets: usize,
    /// End of compute (forward + backward), seconds.
    pub compute_s: f64,
    /// Overlapped iteration time, seconds.
    pub overlapped_s: f64,
    /// Sequential (fused post-backward all-reduce) iteration time, seconds.
    pub sequential_s: f64,
    /// Total communication time over all buckets, seconds.
    pub total_comm_s: f64,
    /// Communication exposed past the end of backward, seconds.
    pub exposed_comm_s: f64,
    /// Fraction of communication hidden behind compute.
    pub hidden_fraction: f64,
    /// Total substrate steps over all buckets.
    pub steps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scales: vec![16],
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn wrht_timeline_runs_on_both_substrates() {
        let cfg = tiny_cfg();
        let model = dnn_models::googlenet();
        for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
            let t = model_timeline(
                &cfg,
                &model,
                16,
                4 << 20,
                Algorithm::Wrht,
                kind,
                Strategy::FirstFit,
                ExecMode::Barrier,
            )
            .unwrap();
            assert!(t.bucket_count() > 1);
            assert!(t.overlapped_s >= t.compute_s);
            assert!(t.total_comm_s > 0.0);
            assert!((0.0..=1.0).contains(&t.hidden_fraction));
            // Buckets serialize on the network.
            for w in t.buckets.windows(2) {
                assert!(w[1].start_s >= w[0].finish_s - 1e-15);
            }
            // Every bucket carries real substrate step timings.
            for b in &t.buckets {
                assert!(b.report.step_count() >= 1);
                assert!((b.comm_s() - b.report.total_time_s).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn pipelined_timeline_is_never_slower_on_either_substrate() {
        let cfg = tiny_cfg();
        let model = dnn_models::googlenet();
        for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
            let run = |mode| {
                model_timeline(
                    &cfg,
                    &model,
                    16,
                    4 << 20,
                    Algorithm::Wrht,
                    kind,
                    Strategy::FirstFit,
                    mode,
                )
                .unwrap()
            };
            let barrier = run(ExecMode::Barrier);
            let pipelined = run(ExecMode::Pipelined);
            assert_eq!(barrier.bucket_count(), pipelined.bucket_count());
            assert!(
                pipelined.overlapped_s <= barrier.overlapped_s + 1e-12,
                "{kind:?}: pipelined {} vs barrier {}",
                pipelined.overlapped_s,
                barrier.overlapped_s
            );
            // Same fused-all-reduce sequential baseline.
            assert!((pipelined.sequential_s - barrier.sequential_s).abs() < 1e-15);
            // Pipelined buckets may overlap: start before the predecessor
            // finishes, never before their own gradient is ready.
            for b in &pipelined.buckets {
                assert!(b.start_s >= b.ready_s - 1e-15);
            }
        }
    }

    #[test]
    fn timeline_buckets_cover_the_gradient_in_ready_order() {
        let model = dnn_models::resnet50();
        let buckets = timeline_buckets(&model, 4 << 20);
        let total: u64 = buckets.iter().map(|b| b.bytes).sum();
        assert_eq!(total, model.gradient_bytes());
        for w in buckets.windows(2) {
            assert!(w[1].ready_s >= w[0].ready_s);
        }
        assert!(!buckets[0].label.is_empty());
    }

    #[test]
    fn classic_algorithms_lower_without_wrht_planning() {
        let cfg = tiny_cfg();
        for alg in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::HalvingDoubling,
            Algorithm::Tree,
        ] {
            let (schedule, m) = AllReduceLowering::new(&cfg, alg, 16)
                .lower(1 << 20)
                .unwrap();
            assert_eq!(m, 0);
            assert!(!schedule.is_empty());
        }
        let (_, m) = AllReduceLowering::new(&cfg, Algorithm::Wrht, 16)
            .lower(1 << 20)
            .unwrap();
        assert!(m >= 2);
    }

    #[test]
    fn timeline_table_covers_every_model_on_both_substrates() {
        let cfg = tiny_cfg();
        let models = [dnn_models::googlenet(), dnn_models::alexnet()];
        let spec = crate::campaign::train_spec(&cfg, &models, 16, 0, &[ExecMode::Barrier]);
        let report = crate::campaign::run_campaign(&spec, 1, None);
        let rows: Vec<TimelineRow> = report.results.iter().map(TimelineRow::from).collect();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.overlapped_s > 0.0);
            assert!(row.overlapped_s >= row.compute_s);
            assert!(row.steps > 0);
        }
        assert!(rows.iter().any(|r| r.substrate == "optical"));
        assert!(rows.iter().any(|r| r.substrate == "electrical"));
    }
}
