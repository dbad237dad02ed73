//! Differential oracle for the lazily lowered mixed-parallelism DAG.
//!
//! [`ParallelismSource`] writes one phase of a TP × PP × DP × MoE
//! iteration per read and keeps the per-host frontier as its state;
//! [`lower_parallelism`] is its collected form. These suites pin, over
//! random degrees and microbatch counts:
//!
//! * that the source's reads concatenate to the collected lowering
//!   (transfers, dependencies, stage labels), one stage per read, that its
//!   horizon never falls and no unread dependency lies below it, and that
//!   its length and intra/inter split match the lowering's domains;
//! * that a multi-group composed run streamed phase by phase through the
//!   closed driver equals the run of the collected DAG injected whole, bit
//!   for bit (makespan, every `DagTiming`, events, peak wavelength, solver
//!   counters, per-job service bytes), on both fabric orders, unarbitrated
//!   and under job arbitration (drawn ranks, with and without fair share).

use electrical_sim::topology::{ring, star_cluster};
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use wrht_core::dag::DepSource;
use wrht_core::hierarchy::{compose, Domain, HierSpec};
use wrht_core::parallelism::{lower_parallelism, ParallelismSource, ParallelismSpec, StageModel};
use wrht_core::substrate::{DagTiming, ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{JobArbitration, TenantDagRun};

/// SplitMix64 draws for the case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.below(values.len())]
    }
}

/// A random job: `tp` 2..=5, `pp` and `dp` 1..=3 (at least `min_groups`
/// groups), MoE off or over 2..=`dp * tp` experts, 1..=3 microbatches,
/// and byte counts from one byte up.
fn job(rng: &mut Rng, min_groups: usize) -> (ParallelismSpec, StageModel) {
    let tp = 2 + rng.below(4);
    let pp = 1 + rng.below(3);
    let mut dp = 1 + rng.below(3);
    if pp * dp < min_groups {
        dp = min_groups.div_ceil(pp);
    }
    let moe = match rng.below(3) {
        0 => 0,
        _ => 2 + rng.below(dp * tp - 1),
    };
    let spec = ParallelismSpec::new(tp, pp, dp, moe, 1 + rng.below(3)).expect("valid degrees");
    let gradient = rng.pick(&[1, 1_000, 1 << 20, 3 << 22]) * pp as u64;
    let model = StageModel::split(gradient, pp, rng.pick(&[1, 4_096, 1 << 18]));
    (spec, model)
}

/// The source read stage by stage against its collected form.
fn reads_match_the_collected_lowering(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let (spec, model) = job(&mut rng, 1);
    let source = ParallelismSource::new(&spec, &model).map_err(|e| e.to_string())?;
    let whole = lower_parallelism(&spec, &model).map_err(|e| e.to_string())?;
    if source.len() != whole.len() {
        return Err(format!("{spec:?}: len {} vs {}", source.len(), whole.len()));
    }
    let mut stages = source.stages();
    let (mut read, mut horizon) = (0, stages.horizon());
    if horizon.is_some() {
        return Err(format!("{spec:?}: a horizon before the first read"));
    }
    while let Some(stage) = stages.next_stage() {
        if stage.is_empty() || stage.iter().any(|t| t.stage != stage[0].stage) {
            return Err(format!(
                "{spec:?}: read at {read} is not one non-empty stage"
            ));
        }
        // What the horizon promised about every transfer not read yet.
        if let Some(h) = horizon {
            if let Some(t) = stage.iter().find(|t| t.deps.is_empty() || t.deps[0] < h) {
                return Err(format!("{spec:?}: {:?} below horizon {h}", t.deps));
            }
        }
        let expected = whole.transfers().get(read..read + stage.len());
        if expected != Some(stage) {
            return Err(format!("{spec:?}: read at {read} differs"));
        }
        read += stage.len();
        let next = stages.horizon();
        if horizon.is_some_and(|h| next.is_none_or(|n| n < h)) {
            return Err(format!("{spec:?}: horizon fell {horizon:?} -> {next:?}"));
        }
        horizon = next;
    }
    if read != whole.len() {
        return Err(format!("{spec:?}: read {read} of {}", whole.len()));
    }
    let hier = spec.hier().map_err(|e| e.to_string())?;
    let domains = hier.domains(&whole).map_err(|e| e.to_string())?;
    let (mut intra, mut inter) = ((0, 0), (0, 0));
    for (t, d) in whole.transfers().iter().zip(&domains) {
        let side = if *d == Domain::Inter {
            &mut inter
        } else {
            &mut intra
        };
        side.0 += 1;
        side.1 += t.transfer.bytes;
    }
    let split = |t: wrht_core::parallelism::DomainTraffic| (t.transfers, t.bytes);
    if (split(source.intra()), split(source.inter())) != (intra, inter) {
        return Err(format!("{spec:?}: domain split differs"));
    }
    Ok(())
}

/// The composed substrate of `spec`: optical rings inside the groups and
/// an electrical star or ring between them, or the reverse.
fn composed(rng: &mut Rng, spec: HierSpec, electrical_intra: bool) -> Box<dyn Substrate> {
    let bandwidth = rng.pick(&[1e9, 2.5e9, 12.5e9]);
    let overhead = rng.pick(&[0.0, 1e-6, 5e-6]);
    let wavelengths = rng.pick(&[1, 2, 4]);
    let electrical_ring = rng.below(2) == 0;
    let optical = |n| -> Box<dyn Substrate> {
        let config = OpticalConfig::new(n, wavelengths)
            .with_lambda_bandwidth(bandwidth)
            .with_message_overhead(overhead)
            .with_hop_propagation(5e-9);
        Box::new(OpticalSubstrate::new(config).expect("valid optical config"))
    };
    let electrical = |n| -> Box<dyn Substrate> {
        let net = if electrical_ring {
            ring(n, bandwidth, 5e-7)
        } else {
            star_cluster(n, bandwidth, 5e-7)
        };
        Box::new(ElectricalSubstrate::new(net, overhead))
    };
    let (intra, inter) = if electrical_intra {
        (electrical(spec.group_size), optical(spec.nodes()))
    } else {
        (optical(spec.group_size), electrical(spec.nodes()))
    };
    compose(spec, intra, inter).expect("valid composed substrate")
}

/// Jobs of one to three tenants with drawn ranks; fair share or not.
fn arbitration(rng: &mut Rng, len: usize) -> JobArbitration {
    let jobs = 1 + rng.below(3);
    JobArbitration {
        job_of: (0..len).map(|_| rng.below(jobs)).collect(),
        rank: (0..jobs).map(|_| rng.below(3) as u64).collect(),
        fair_share: rng.below(2) == 0,
    }
}

/// The closed run of `dag` on `sub`, with its windows collected in DAG
/// order.
fn closed(
    sub: &mut dyn Substrate,
    dag: &dyn DepSource,
    arb: Option<&JobArbitration>,
) -> wrht_core::error::Result<TenantDagRun> {
    let mut windows = vec![DagTiming::default(); dag.len()];
    let mut run = sub.execute_closed(dag, arb, &mut |key, t| windows[key] = t)?;
    run.dag.transfers = windows;
    Ok(run)
}

/// Every pinned field of a run, floats as bits.
fn fields(run: &TenantDagRun) -> Vec<u64> {
    let r = &run.dag;
    let mut out = vec![
        r.makespan_s.to_bits(),
        r.events,
        r.peak_wavelength as u64,
        r.rate_recomputations as u64,
        r.solver_work as u64,
    ];
    out.extend(
        r.transfers
            .iter()
            .flat_map(|t| [t.start_s.to_bits(), t.finish_s.to_bits()]),
    );
    for per_job in [
        &run.job_active_s,
        &run.job_service_bytes,
        &run.job_peak_rate_bps,
    ] {
        out.extend(per_job.iter().map(|v| v.to_bits()));
    }
    out
}

/// A multi-group job streamed and injected whole, on both fabric orders,
/// unarbitrated and arbitrated.
fn streamed_runs_match_the_whole_dag(seed: u64) -> Result<(), String> {
    let mut rng = Rng(seed);
    let (spec, model) = job(&mut rng, 2);
    let hier = spec.hier().map_err(|e| e.to_string())?;
    let source = ParallelismSource::new(&spec, &model).map_err(|e| e.to_string())?;
    let whole = lower_parallelism(&spec, &model).map_err(|e| e.to_string())?;
    for electrical_intra in [false, true] {
        let mut sub = composed(&mut rng, hier, electrical_intra);
        let arb = arbitration(&mut rng, whole.len());
        for arb in [None, Some(&arb)] {
            let streamed = closed(&mut *sub, &source, arb);
            let materialized = closed(&mut *sub, &whole, arb);
            let same = match (&streamed, &materialized) {
                (Ok(s), Ok(w)) => fields(s) == fields(w),
                (Err(s), Err(w)) => s == w,
                _ => false,
            };
            if !same {
                let brief = |r: &wrht_core::error::Result<TenantDagRun>| {
                    r.as_ref()
                        .map(|r| (r.dag.makespan_s, r.dag.events))
                        .map_err(ToString::to_string)
                };
                return Err(format!(
                    "{spec:?} {}, arbitrated {}: streamed {:?} vs whole {:?}",
                    sub.name(),
                    arb.is_some(),
                    brief(&streamed),
                    brief(&materialized)
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The source's reads are the collected lowering, phase by phase.
    #[test]
    fn source_stages_concatenate_to_the_lowering(seed in 0u64..u64::MAX) {
        let checked = reads_match_the_collected_lowering(seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Streamed multi-group runs equal the whole DAG's bit for bit.
    #[test]
    fn streamed_multi_group_runs_equal_materialized(seed in 0u64..u64::MAX) {
        let checked = streamed_runs_match_the_whole_dag(seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

/// The generator reaches the shapes the oracle is meant to cover: MoE and
/// not, pipelines and not, several microbatches, and runs that stream
/// (more than one read).
#[test]
fn generator_covers_the_shapes() {
    let (mut moe, mut pipelined, mut microbatched, mut streamed) = (0, 0, 0, 0);
    for seed in 0..100u64 {
        let (spec, model) = job(&mut Rng(seed), 2);
        assert!(spec.groups() >= 2, "{spec:?}");
        moe += usize::from(spec.moe_experts > 0);
        pipelined += usize::from(spec.pp > 1);
        microbatched += usize::from(spec.microbatches > 1);
        let source = ParallelismSource::new(&spec, &model).expect("valid job");
        let mut stages = source.stages();
        let mut reads = 0;
        while stages.next_stage().is_some() {
            reads += 1;
        }
        streamed += usize::from(reads > 1);
    }
    assert!(
        moe > 30 && moe < 90 && pipelined > 30 && microbatched > 30 && streamed == 100,
        "{moe} MoE, {pipelined} pipelined, {microbatched} microbatched, {streamed} streamed"
    );
}
