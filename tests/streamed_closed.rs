//! Differential oracle for the streamed closed driver.
//!
//! `engine::run_closed` reads a lazily lowered DAG ([`PipelinedSource`])
//! one stage at a time and injects a stage only when the engine could need
//! it. These suites pin that the streamed run equals the materialized one,
//! `execute_dag(&DepSchedule::pipelined_from_steps(..))` injected whole, in
//! every `DagTiming` bit, in `events`, `rate_recomputations`,
//! `solver_work` and `peak_wavelength`, and in the error value, on both
//! fabrics:
//!
//! * over random stage-structured step schedules (`tests/support/stage_cases.rs`)
//!   whose generator makes nodes sit idle for several stages (the horizon stays pinned), mixes in
//!   zero-byte transfers (the fluid engine settles a chain of them inside
//!   one promotion pass) and equal payloads (simultaneous completions),
//!   uses non-zero latencies (stale kernel events name flows the fluid
//!   engine has dropped), draws `n = 2` (a barrier-shaped pipelined DAG,
//!   which the electrical fast path runs) and puts an out-of-range
//!   endpoint into a late stage (the run returns the materialized run's
//!   validation error);
//! * over the real pipelined lowerings of all five algorithms.
//!
//! The last test bounds the window: the streamed n = 512 pipelined ring
//! holds a few stages of transfers in either engine, where the
//! materialized run holds all of them.

#[path = "support/stage_cases.rs"]
mod stage_cases;

use collectives::Collective;
use electrical_sim::FluidEngine;
use optical_sim::{GrantEngine, StepSchedule, Strategy};
use proptest::prelude::*;
use stage_cases::case;
use wrht_bench::campaign::Algorithm;
use wrht_bench::config::{ExperimentConfig, SubstrateKind};
use wrht_bench::timeline::AllReduceLowering;
use wrht_core::baselines::CollectiveSource;
use wrht_core::dag::{DepSchedule, DepSource, PipelinedSource};
use wrht_core::engine::{run_closed, FabricEngine};
use wrht_core::error::Result;
use wrht_core::substrate::{DagRunReport, Substrate};

/// Do two runs agree bit for bit (or fail with the same error)?
fn same(
    streamed: Result<DagRunReport>,
    whole: Result<DagRunReport>,
) -> std::result::Result<(), String> {
    let (s, w) = match (streamed, whole) {
        (Ok(s), Ok(w)) => (s, w),
        (Err(s), Err(w)) if s == w => return Ok(()),
        (s, w) => return Err(format!("streamed {s:?} vs materialized {w:?}")),
    };
    let bits = |r: &DagRunReport| -> Vec<(u64, u64)> {
        r.transfers
            .iter()
            .map(|t| (t.start_s.to_bits(), t.finish_s.to_bits()))
            .collect()
    };
    let counters = |r: &DagRunReport| {
        (
            r.makespan_s.to_bits(),
            r.events,
            r.rate_recomputations,
            r.solver_work,
            r.peak_wavelength,
        )
    };
    if bits(&s) != bits(&w) || counters(&s) != counters(&w) {
        return Err(format!(
            "{}: streamed {:?} vs materialized {:?}",
            s.substrate,
            counters(&s),
            counters(&w)
        ));
    }
    Ok(())
}

/// The streamed and the materialized pipelined run of `steps` on `sub`.
fn differential(sub: &mut dyn Substrate, steps: &StepSchedule) -> std::result::Result<(), String> {
    let streamed = sub.execute_dag(&PipelinedSource::new(steps));
    let whole = sub.execute_dag(&DepSchedule::pipelined_from_steps(steps));
    same(streamed, whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random stage-structured schedules stream bit-identically on both
    /// fabrics, errors included.
    #[test]
    fn streamed_run_equals_materialized(seed in 0u64..u64::MAX) {
        let case = case(seed);
        let optical = differential(&mut case.optical(), &case.steps);
        prop_assert!(optical.is_ok(), "{:?}", optical);
        let electrical = differential(&mut case.electrical(), &case.steps);
        prop_assert!(electrical.is_ok(), "{:?}", electrical);
    }
}

/// The generator reaches every shape the oracle is meant to cover, and the
/// driver streams: runs in which an engine held fewer transfers than the
/// schedule has, zero-byte gates included.
#[test]
fn generator_covers_the_edge_cases() {
    let (mut barrier, mut errors, mut chains) = (0, 0, 0);
    let (mut optical_streamed, mut fluid_streamed) = (0, 0);
    for seed in 0..300u64 {
        let case = case(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let source = PipelinedSource::new(&case.steps);
        barrier += usize::from(source.is_barrier_shaped() && source.len() > 2);
        if case.electrical().execute_dag(&source).is_err() {
            errors += 1;
            continue;
        }
        let mut grant = GrantEngine::new(&case.optical, Strategy::FirstFit, false, false)
            .expect("valid optical config");
        run_closed(&mut grant, &source, None, |_| {}).expect("optical run");
        optical_streamed += usize::from(grant.peak_slots() < source.len());
        let mut fluid = FluidEngine::new(&case.net).with_launch_delay(case.overhead_s);
        run_closed(&mut fluid, &source, None, |_| {}).expect("fluid run");
        let streamed = fluid.peak_held() < source.len();
        fluid_streamed += usize::from(streamed);
        let gates = case.steps.steps().iter().flatten().any(|t| t.bytes == 0);
        chains += usize::from(streamed && gates && case.overhead_s == 0.0);
    }
    assert!(
        barrier > 10 && errors > 10,
        "{barrier} barrier, {errors} errors"
    );
    assert!(
        optical_streamed > 50 && fluid_streamed > 25 && chains > 10,
        "streamed {optical_streamed} optically, {fluid_streamed} electrically, {chains} with gates"
    );
}

/// The real pipelined lowerings of all five algorithms stream
/// bit-identically at n ∈ {8, 64} on both fabrics, and so does the lazy
/// source of each classic collective, which the campaign's pipelined cells
/// run.
#[test]
fn real_lowerings_stream_bit_identically() {
    let cfg = ExperimentConfig::default();
    let bytes = 3 << 20;
    for n in [8, 64] {
        for algorithm in [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::HalvingDoubling,
            Algorithm::Tree,
            Algorithm::Wrht,
        ] {
            let (steps, _) = AllReduceLowering::new(&cfg, algorithm, n)
                .lower(bytes)
                .expect("lowering");
            for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
                let mut sub = cfg
                    .try_substrate(kind, n, Strategy::FirstFit)
                    .expect("substrate");
                if let Err(e) = differential(&mut *sub, &steps) {
                    panic!("{algorithm:?} n={n}: {e}");
                }
                if let Some(collective) = algorithm.collective() {
                    let source = cfg.collective(collective, n, bytes);
                    let lazy = sub.execute_dag(&PipelinedSource::new(&source));
                    let whole = sub.execute_dag(&DepSchedule::pipelined_from_steps(&steps));
                    if let Err(e) = same(lazy, whole) {
                        panic!("lazy {algorithm:?} n={n}: {e}");
                    }
                }
            }
        }
    }
}

/// The engines of the n = 512 pipelined ring of AlexNet's gradient, as
/// the campaign's execution-mode ablation builds them.
fn alexnet_ring() -> (ExperimentConfig, CollectiveSource) {
    let cfg = ExperimentConfig::default();
    let alexnet = dnn_models::paper_models()
        .into_iter()
        .find(|m| m.name == "AlexNet")
        .expect("AlexNet in the zoo");
    let ring = cfg.collective(Collective::Ring, 512, alexnet.gradient_bytes());
    (cfg, ring)
}

/// At most this many transfers — eight stages of the n = 512 ring — in
/// either engine at any step of the streamed run.
const WINDOW: usize = 8 * 512;

/// Streamed, the n = 512 pipelined ring never holds more than eight stages
/// of transfers in either engine (slots the grant engine allocated, flows
/// the fluid engine retained); injected whole, it holds all 523,264.
#[test]
fn pipelined_ring_streams_in_a_few_stages() {
    let (cfg, ring) = alexnet_ring();
    let source = PipelinedSource::new(&ring);
    assert_eq!(source.len(), 1022 * 512);
    let whole = DepSchedule::pipelined_from_steps(&ring);

    let mut grant =
        GrantEngine::new(&cfg.optical(512), Strategy::FirstFit, false, false).expect("valid ring");
    let mut optical = 0;
    run_closed(&mut grant, &source, None, |_| optical += 1).expect("optical run");
    assert!(
        grant.peak_slots() <= WINDOW,
        "grant slots {}",
        grant.peak_slots()
    );
    assert_eq!(optical, source.len());

    let net = cfg.electrical(512);
    let mut fluid = FluidEngine::new(&net).with_launch_delay(cfg.electrical_step_overhead_s);
    let mut electrical = 0;
    run_closed(&mut fluid, &source, None, |_| electrical += 1).expect("fluid run");
    assert!(
        fluid.peak_held() <= WINDOW,
        "fluid flows {}",
        fluid.peak_held()
    );
    assert_eq!(electrical, source.len());

    // Injected whole, both engines hold every transfer at once.
    let mut grant =
        GrantEngine::new(&cfg.optical(512), Strategy::FirstFit, false, false).expect("valid ring");
    FabricEngine::inject(&mut grant, whole.transfers(), 0, 0.0, &|_| 0).expect("inject");
    assert_eq!(grant.peak_slots(), whole.len());
    let mut fluid = FluidEngine::new(&net).with_launch_delay(cfg.electrical_step_overhead_s);
    FabricEngine::inject(&mut fluid, whole.transfers(), 0, 0.0, &|_| 0).expect("inject");
    assert_eq!(fluid.peak_held(), whole.len());
}
