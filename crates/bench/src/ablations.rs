//! Ablation and extension studies beyond Figure 2.
//!
//! * [`group_size_sweep`] — sensitivity of Wrht to the group size `m`
//!   (the design choice its optimizer automates);
//! * [`wavelength_sweep`] — how the win over O-Ring scales with the
//!   wavelength budget `w`;
//! * [`rwa_strategy_compare`] — First Fit vs Best Fit wavelength footprint;
//! * [`overlap_study`] — the layer-wise bucketed all-reduce extension with
//!   compute/communication overlap.

use crate::config::{ExperimentConfig, SubstrateKind};
use collectives::Collective;
use dnn_models::bucket::bucketize;
use dnn_models::training::{simulate_iteration, IterationModel};
use dnn_models::Model;
use optical_sim::Strategy;
use serde::{Deserialize, Serialize};
use wrht_core::cost::predict_time_s;
use wrht_core::lower::{to_optical_schedule, to_optical_schedule_with, BroadcastMode};
use wrht_core::pipeline::optimal_segments;
use wrht_core::plan::{build_plan, StopPolicy};
use wrht_core::{choose_group_size, plan_and_simulate, WrhtParams};

/// One point of the group-size ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSizePoint {
    /// Group size.
    pub m: usize,
    /// Predicted time, seconds.
    pub predicted_s: f64,
    /// Simulated time, seconds.
    pub simulated_s: f64,
    /// Steps of the plan.
    pub steps: usize,
    /// Tree depth.
    pub depth: usize,
}

/// Sweep fixed group sizes for `n` nodes moving `bytes`.
pub fn group_size_sweep(
    cfg: &ExperimentConfig,
    n: usize,
    bytes: u64,
    group_sizes: &[usize],
) -> Vec<GroupSizePoint> {
    let optical = cfg.optical(n);
    let mut substrate = cfg.substrate(SubstrateKind::Optical, n, Strategy::FirstFit);
    group_sizes
        .iter()
        .filter_map(|&m| {
            let plan = build_plan(n, m, cfg.wavelengths).ok()?;
            let predicted = predict_time_s(&plan, &optical, bytes);
            let sched = to_optical_schedule(&plan, bytes);
            let report = substrate.execute(&sched).ok()?;
            Some(GroupSizePoint {
                m,
                predicted_s: predicted.total_s(),
                simulated_s: report.total_time_s,
                steps: plan.step_count(),
                depth: plan.depth(),
            })
        })
        .collect()
}

/// One point of the wavelength ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WavelengthPoint {
    /// Wavelengths per waveguide.
    pub w: usize,
    /// Wrht time with the optimizer's `m`, seconds.
    pub wrht_s: f64,
    /// The chosen group size.
    pub chosen_m: usize,
    /// O-Ring time (independent of `w` by construction), seconds.
    pub o_ring_s: f64,
}

/// Sweep the wavelength budget for `n` nodes moving `bytes`.
pub fn wavelength_sweep(
    cfg: &ExperimentConfig,
    n: usize,
    bytes: u64,
    wavelengths: &[usize],
) -> Vec<WavelengthPoint> {
    // O-Ring, written step by step as the runner reaches it.
    let o_ring_steps = cfg.collective(Collective::Ring, n, bytes);
    wavelengths
        .iter()
        .filter_map(|&w| {
            let mut local = cfg.clone();
            local.wavelengths = w;
            let optical = local.optical(n);
            let wrht = plan_and_simulate(&WrhtParams::auto(n, w), &optical, bytes).ok()?;
            let mut substrate = local.substrate(SubstrateKind::Optical, n, Strategy::FirstFit);
            let o_ring = substrate.execute(&o_ring_steps).ok()?;
            Some(WavelengthPoint {
                w,
                wrht_s: wrht.simulated_time_s,
                chosen_m: wrht.m,
                o_ring_s: o_ring.total_time_s,
            })
        })
        .collect()
}

/// First-Fit vs Best-Fit comparison on one Wrht schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitCompare {
    /// Step-schedule time under First Fit, seconds.
    pub first_fit_s: f64,
    /// Step-schedule time under Best Fit, seconds.
    pub best_fit_s: f64,
    /// Peak wavelength index + 1 used by First Fit.
    pub first_fit_peak: usize,
    /// Peak wavelength index + 1 used by Best Fit.
    pub best_fit_peak: usize,
    /// Group size used.
    pub m: usize,
}

/// Compare the two RWA heuristics of the paper on the Wrht schedule for
/// `n` nodes and `bytes` per message.
pub fn rwa_strategy_compare(cfg: &ExperimentConfig, n: usize, bytes: u64) -> FitCompare {
    let optical = cfg.optical(n);
    let (m, plan, _) = choose_group_size(&WrhtParams::auto(n, cfg.wavelengths), &optical, bytes)
        .expect("feasible plan");
    let sched = to_optical_schedule(&plan, bytes);
    let ff = cfg
        .substrate(SubstrateKind::Optical, n, Strategy::FirstFit)
        .execute(&sched)
        .expect("first-fit run");
    let bf = cfg
        .substrate(SubstrateKind::Optical, n, Strategy::BestFit)
        .execute(&sched)
        .expect("best-fit run");
    FitCompare {
        first_fit_s: ff.total_time_s,
        best_fit_s: bf.total_time_s,
        first_fit_peak: ff.peak_wavelengths(),
        best_fit_peak: bf.peak_wavelengths(),
        m,
    }
}

/// One point of the overlap extension study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlapPoint {
    /// Model name.
    pub model: String,
    /// Number of gradient buckets.
    pub buckets: usize,
    /// Iteration time with layer-wise overlapped Wrht all-reduces, seconds.
    pub overlapped_s: f64,
    /// Iteration time with one fused post-backward all-reduce, seconds.
    pub sequential_s: f64,
    /// Fraction of communication hidden behind backward compute.
    pub hidden_fraction: f64,
}

/// Per-parameter backward compute cost used by the overlap model
/// (a fitted constant standing in for the paper's unspecified GPUs).
pub const BACKWARD_S_PER_PARAM: f64 = 6e-10;

/// Simulate one data-parallel iteration with bucketed Wrht all-reduces.
pub fn overlap_study(
    cfg: &ExperimentConfig,
    model: &Model,
    n: usize,
    bucket_bytes: u64,
) -> OverlapPoint {
    let optical = cfg.optical(n);
    let buckets = bucketize(&model.layers, bucket_bytes);
    let params = model.params() as f64;
    let iteration = IterationModel {
        backward_s: params * BACKWARD_S_PER_PARAM,
        forward_s: params * BACKWARD_S_PER_PARAM * 0.5,
    };
    let allreduce = |bytes: u64| -> f64 {
        choose_group_size(&WrhtParams::auto(n, cfg.wavelengths), &optical, bytes)
            .map(|(_, _, cost)| cost.total_s())
            .unwrap_or(f64::INFINITY)
    };
    let report = simulate_iteration(&model.layers, &buckets, iteration, allreduce);
    OverlapPoint {
        model: model.name.clone(),
        buckets: buckets.len(),
        overlapped_s: report.overlapped_s,
        sequential_s: report.sequential_s,
        hidden_fraction: report.hidden_fraction,
    }
}

/// Comparison of the paper's stop rule against the Wrht⁺ extensions
/// (depth-optimal stop, multicast broadcast, segmentation) for one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantPoint {
    /// Model name.
    pub model: String,
    /// Paper Wrht (earliest-feasible stop, unicast broadcast), seconds.
    pub paper_s: f64,
    /// Depth-optimal stop level, seconds.
    pub best_depth_s: f64,
    /// Depth-optimal + multicast broadcast, seconds.
    pub multicast_s: f64,
    /// Depth-optimal + segmentation (modelled), seconds.
    pub segmented_s: f64,
    /// Segment count the segmentation solver picked.
    pub segments: usize,
}

/// Evaluate the Wrht⁺ variants on one model at `n` nodes.
pub fn variant_study(cfg: &ExperimentConfig, model: &Model, n: usize) -> VariantPoint {
    let optical = cfg.optical(n);
    let bytes = model.gradient_bytes();
    let w = cfg.wavelengths;

    let paper = plan_and_simulate(&WrhtParams::auto(n, w), &optical, bytes).expect("paper plan");

    let plus_params = WrhtParams::auto(n, w).with_stop_policy(StopPolicy::BestDepth);
    let plus = plan_and_simulate(&plus_params, &optical, bytes).expect("best-depth plan");

    let mc = cfg
        .substrate(SubstrateKind::Optical, n, Strategy::FirstFit)
        .execute(&to_optical_schedule_with(
            &plus.plan,
            bytes,
            BroadcastMode::Multicast,
        ))
        .expect("multicast lowering fits");

    let seg = optimal_segments(&plus.plan, &optical, bytes, 32);

    VariantPoint {
        model: model.name.clone(),
        paper_s: paper.simulated_time_s,
        best_depth_s: plus.simulated_time_s,
        multicast_s: mc.total_time_s,
        segmented_s: seg.time_s,
        segments: seg.segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_sweep_prediction_matches_simulation() {
        let cfg = ExperimentConfig::small();
        let points = group_size_sweep(&cfg, 64, 4 << 20, &[2, 4, 8, 16]);
        assert_eq!(points.len(), 4);
        for p in &points {
            let rel = (p.predicted_s - p.simulated_s).abs() / p.simulated_s;
            assert!(rel < 1e-9, "m={}", p.m);
        }
    }

    #[test]
    fn wavelength_sweep_is_monotone_for_wrht() {
        let cfg = ExperimentConfig::small();
        let points = wavelength_sweep(&cfg, 64, 16 << 20, &[2, 8, 32, 64]);
        for w in points.windows(2) {
            assert!(
                w[1].wrht_s <= w[0].wrht_s * 1.001,
                "more wavelengths should not hurt: w={} {} vs w={} {}",
                w[0].w,
                w[0].wrht_s,
                w[1].w,
                w[1].wrht_s
            );
        }
        // O-Ring never benefits from extra wavelengths.
        let o: Vec<f64> = points.iter().map(|p| p.o_ring_s).collect();
        for v in &o {
            assert!((v - o[0]).abs() / o[0] < 1e-9);
        }
    }

    #[test]
    fn rwa_strategies_agree_on_time_fit_within_budget() {
        let cfg = ExperimentConfig::small();
        let c = rwa_strategy_compare(&cfg, 64, 1 << 20);
        assert!((c.first_fit_s - c.best_fit_s).abs() < 1e-12);
        assert!(c.first_fit_peak <= cfg.wavelengths);
        assert!(c.best_fit_peak <= cfg.wavelengths);
    }

    #[test]
    fn variants_never_lose_to_the_paper_plan() {
        let cfg = ExperimentConfig::small();
        let model = dnn_models::googlenet();
        let p = variant_study(&cfg, &model, 64);
        assert!(p.best_depth_s <= p.paper_s * (1.0 + 1e-9));
        assert!(p.multicast_s <= p.best_depth_s * (1.0 + 1e-9));
        assert!(p.segments >= 1);
        assert!(p.segmented_s.is_finite());
    }

    #[test]
    fn overlap_hides_some_communication() {
        let cfg = ExperimentConfig::small();
        let model = dnn_models::googlenet();
        let p = overlap_study(&cfg, &model, 32, 4 << 20);
        assert!(p.buckets > 1);
        assert!(p.overlapped_s <= p.sequential_s * 1.05);
        assert!(p.hidden_fraction >= 0.0 && p.hidden_fraction <= 1.0);
    }
}
