//! Differential tests: the simulator-backed training timeline
//! (`wrht_core::timeline` driven through `wrht_bench::timeline`) against
//! the analytic bucket-overlap model
//! (`dnn_models::training::simulate_iteration`).
//!
//! When `simulate_iteration`'s cost callback *is* the substrate (lower the
//! bucket, execute it, return the simulated duration), the two models share
//! every float operation and must agree **bit-exactly**. When the callback
//! is the analytic Wrht cost model, they must agree to simulator precision
//! (the cost model mirrors the stepped simulator to ~1e-9 relative).

use dnn_models::bucket::bucketize;
use dnn_models::training::simulate_iteration;
use dnn_models::{Layer, Model};
use optical_sim::Strategy;
use proptest::prelude::*;
use wrht_bench::campaign::Algorithm;
use wrht_bench::timeline::{iteration_model, model_timeline, AllReduceLowering};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::dag::ExecMode;
use wrht_core::substrate::OpticalSubstrate;
use wrht_core::timeline::{execute_timeline, TimelineBucket};
use wrht_core::{choose_group_size, WrhtParams};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scales: vec![16],
        ..ExperimentConfig::default()
    }
}

/// The analytic iteration priced by *executing* each bucket on a fresh
/// substrate — the matched cost model for exact agreement.
fn analytic_with_executed_callback(
    cfg: &ExperimentConfig,
    model: &Model,
    n: usize,
    bucket_bytes: u64,
    algorithm: Algorithm,
    kind: SubstrateKind,
) -> dnn_models::training::OverlapReport {
    let buckets = bucketize(&model.layers, bucket_bytes);
    let im = iteration_model(model);
    let lowering = AllReduceLowering::new(cfg, algorithm, n);
    simulate_iteration(&model.layers, &buckets, im, |bytes| {
        let (schedule, _) = lowering.lower(bytes).expect("lowering");
        let mut substrate = cfg
            .try_substrate(kind, n, Strategy::FirstFit)
            .expect("substrate");
        substrate
            .execute(&schedule)
            .expect("execution")
            .total_time_s
    })
}

#[test]
fn timeline_is_bit_identical_to_analytic_with_executed_callback() {
    let cfg = tiny_cfg();
    let model = dnn_models::googlenet();
    for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
        for algorithm in [Algorithm::Wrht, Algorithm::Ring] {
            let timeline = model_timeline(
                &cfg,
                &model,
                16,
                4 << 20,
                algorithm,
                kind,
                Strategy::FirstFit,
                ExecMode::Barrier,
            )
            .expect("timeline");
            let analytic =
                analytic_with_executed_callback(&cfg, &model, 16, 4 << 20, algorithm, kind);
            assert_eq!(timeline.bucket_count(), analytic.bucket_times.len());
            for (b, &(ready, start, finish)) in timeline.buckets.iter().zip(&analytic.bucket_times)
            {
                assert_eq!(b.ready_s, ready, "{kind:?}/{algorithm:?} ready");
                assert_eq!(b.start_s, start, "{kind:?}/{algorithm:?} start");
                assert_eq!(b.finish_s, finish, "{kind:?}/{algorithm:?} finish");
            }
            assert_eq!(timeline.overlapped_s, analytic.overlapped_s);
            assert_eq!(timeline.sequential_s, analytic.sequential_s);
            assert_eq!(timeline.hidden_fraction, analytic.hidden_fraction);
        }
    }
}

#[test]
fn wrht_timeline_agrees_with_the_analytic_cost_model() {
    // The acceptance differential: per-bucket agreement between the
    // simulator-backed timeline and `simulate_iteration` priced by the
    // *closed-form* Wrht cost model (which mirrors the stepped simulator).
    let cfg = tiny_cfg();
    let n = 16;
    let model = dnn_models::googlenet();
    let optical = cfg.optical(n);
    let buckets = bucketize(&model.layers, 4 << 20);
    let im = iteration_model(&model);
    let analytic = simulate_iteration(&model.layers, &buckets, im, |bytes| {
        choose_group_size(&WrhtParams::auto(n, cfg.wavelengths), &optical, bytes)
            .map(|(_, _, cost)| cost.total_s())
            .expect("feasible plan")
    });
    let timeline = model_timeline(
        &cfg,
        &model,
        n,
        4 << 20,
        Algorithm::Wrht,
        SubstrateKind::Optical,
        Strategy::FirstFit,
        ExecMode::Barrier,
    )
    .expect("timeline");

    assert_eq!(timeline.bucket_count(), analytic.bucket_times.len());
    for (b, &(ready, start, finish)) in timeline.buckets.iter().zip(&analytic.bucket_times) {
        assert_eq!(b.ready_s, ready);
        let rel = |a: f64, e: f64| (a - e).abs() / e.max(1e-30);
        assert!(rel(b.start_s, start) < 1e-9, "{} vs {start}", b.start_s);
        assert!(rel(b.finish_s, finish) < 1e-9, "{} vs {finish}", b.finish_s);
    }
    let rel = (timeline.overlapped_s - analytic.overlapped_s).abs() / analytic.overlapped_s;
    assert!(rel < 1e-9, "overlapped drifted by {rel}");
    let rel = (timeline.sequential_s - analytic.sequential_s).abs() / analytic.sequential_s;
    assert!(rel < 1e-9, "sequential drifted by {rel}");
    assert!((timeline.hidden_fraction - analytic.hidden_fraction).abs() < 1e-6);
}

#[test]
fn hidden_fraction_helpers_agree_across_crates() {
    // `wrht_core::timeline` keeps a dependency-free copy of the formula in
    // `dnn_models::training`; pin them equal over the degenerate matrix.
    let inputs = [
        (0.0, 0.0),
        (0.0, 1.0),
        (1.0, 0.0),
        (2.0, 1.0),
        (1.0, 2.0),
        (1e-300, 5.0),
        (3.0, -1.0),
        (f64::INFINITY, f64::INFINITY),
        (f64::INFINITY, 0.0),
        (f64::NAN, 0.0),
        (1.0, f64::INFINITY),
    ];
    for &(total, exposed) in &inputs {
        let a = wrht_core::timeline::hidden_comm_fraction(total, exposed);
        let b = dnn_models::training::hidden_comm_fraction(total, exposed);
        assert_eq!(a, b, "diverged on ({total}, {exposed})");
        assert!((0.0..=1.0).contains(&a));
    }
}

#[test]
fn more_bandwidth_never_increases_iteration_time() {
    let model = dnn_models::googlenet();
    for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
        let mut last = f64::INFINITY;
        for scale in [1.0, 2.0, 4.0, 8.0] {
            let mut cfg = tiny_cfg();
            cfg.lambda_bandwidth_bps *= scale;
            cfg.electrical_port_bps *= scale;
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
            .expect("timeline");
            assert!(
                t.overlapped_s <= last * (1.0 + 1e-9),
                "{kind:?}: bandwidth x{scale} slowed the iteration: {} > {last}",
                t.overlapped_s
            );
            assert!(t.overlapped_s >= t.compute_s);
            last = t.overlapped_s;
        }
    }
}

#[test]
fn overlap_never_loses_to_sequential_for_linear_costs() {
    // Engine-level property: with a cost linear in bytes (zero overheads,
    // one transfer per bucket), the per-bucket durations sum exactly to
    // the fused cost, so overlapping can never lose to the sequential
    // baseline regardless of ready times or compute length.
    let mut substrate = OpticalSubstrate::new(
        optical_sim::OpticalConfig::new(8, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0),
    )
    .unwrap();
    let lower = |bytes: u64| {
        Ok(optical_sim::sim::StepSchedule::from_steps(vec![vec![
            optical_sim::request::Transfer::shortest(
                optical_sim::NodeId(0),
                optical_sim::NodeId(1),
                bytes,
            ),
        ]]))
    };
    for compute_ms in [0.0, 1.0, 5.0, 50.0] {
        let buckets: Vec<TimelineBucket> = (0..6)
            .map(|i| TimelineBucket::new(500_000 + 700_000 * i, compute_ms * 1e-3 * i as f64 / 6.0))
            .collect();
        let t = execute_timeline(&mut substrate, &buckets, compute_ms * 1e-3, lower).unwrap();
        assert!(
            t.overlapped_s <= t.sequential_s + 1e-12,
            "compute={compute_ms}ms: overlapped {} > sequential {}",
            t.overlapped_s,
            t.sequential_s
        );
        assert!(t.overlapped_s >= t.compute_s);
        assert!((0.0..=1.0).contains(&t.hidden_fraction));
    }
}

#[test]
fn zero_parameter_models_yield_compute_only_timelines() {
    // End-to-end version of the training.rs bugfix: a model with no
    // trainable parameters produces no buckets and a compute-only
    // timeline on an actual substrate — no panic, no NaN.
    let model = Model {
        name: "Frozen".into(),
        layers: vec![Layer::batch_norm("bn0", 0), Layer::batch_norm("bn1", 0)],
        paper_reported_params: 1,
    };
    let cfg = tiny_cfg();
    for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
        let t = model_timeline(
            &cfg,
            &model,
            16,
            1 << 20,
            Algorithm::Wrht,
            kind,
            Strategy::FirstFit,
            ExecMode::Barrier,
        )
        .expect("compute-only timeline");
        assert_eq!(t.bucket_count(), 0);
        assert_eq!(t.overlapped_s, t.compute_s);
        assert_eq!(t.sequential_s, t.compute_s);
        assert_eq!(t.hidden_fraction, 1.0);
        assert_eq!(t.total_comm_s, 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random layer stacks and bucket budgets: the engine and the analytic
    /// iteration agree bit-exactly when the callback executes the same
    /// lowered schedule (ring all-reduce on the electrical cluster — the
    /// cheapest executable cost model).
    #[test]
    fn random_models_agree_with_executed_callback(
        params in proptest::collection::vec(1usize..200_000, 1..10),
        bucket_kb in 16u64..2048,
    ) {
        let layers: Vec<Layer> = params
            .iter()
            .enumerate()
            .map(|(i, &p)| Layer::linear(&format!("l{i}"), p, 1))
            .collect();
        let model = Model {
            name: "Rand".into(),
            layers,
            paper_reported_params: 1,
        };
        let cfg = ExperimentConfig { scales: vec![8], ..ExperimentConfig::default() };
        let n = 8;
        let bucket_bytes = bucket_kb << 10;
        let timeline = model_timeline(
            &cfg, &model, n, bucket_bytes,
            Algorithm::Ring, SubstrateKind::Electrical, Strategy::FirstFit,
            ExecMode::Barrier,
        ).expect("timeline");
        let analytic = analytic_with_executed_callback(
            &cfg, &model, n, bucket_bytes, Algorithm::Ring, SubstrateKind::Electrical,
        );
        prop_assert_eq!(timeline.bucket_count(), analytic.bucket_times.len());
        for (b, &(ready, start, finish)) in timeline.buckets.iter().zip(&analytic.bucket_times) {
            prop_assert_eq!(b.ready_s, ready);
            prop_assert_eq!(b.start_s, start);
            prop_assert_eq!(b.finish_s, finish);
        }
        prop_assert_eq!(timeline.overlapped_s, analytic.overlapped_s);
        prop_assert_eq!(timeline.sequential_s, analytic.sequential_s);
        prop_assert_eq!(timeline.hidden_fraction, analytic.hidden_fraction);
        prop_assert!((0.0..=1.0).contains(&timeline.hidden_fraction));
    }

    /// Monotonicity under bandwidth for arbitrary bucket budgets.
    #[test]
    fn bandwidth_monotonicity_holds_for_random_budgets(bucket_kb in 64u64..8192) {
        let model = dnn_models::googlenet();
        let mut last = f64::INFINITY;
        for scale in [1.0, 4.0] {
            let mut cfg = ExperimentConfig { scales: vec![8], ..ExperimentConfig::default() };
            cfg.lambda_bandwidth_bps *= scale;
            let t = model_timeline(
                &cfg, &model, 8, bucket_kb << 10,
                Algorithm::Wrht, SubstrateKind::Optical, Strategy::FirstFit,
            ExecMode::Barrier,
        ).expect("timeline");
            prop_assert!(t.overlapped_s <= last * (1.0 + 1e-9));
            last = t.overlapped_s;
        }
    }
}
