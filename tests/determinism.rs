//! Determinism: identical inputs must produce bit-identical results across
//! repeated runs — a prerequisite for reproducible experiment tables.

use optical_sim::{OpticalConfig, RingSimulator, Strategy};
use wrht_bench::report::to_json;
use wrht_bench::{run_fig2, ExperimentConfig};
use wrht_core::lower::to_optical_schedule;
use wrht_core::plan::build_plan;
use wrht_core::{plan_and_simulate, WrhtParams};

#[test]
fn plans_are_deterministic() {
    let a = build_plan(100, 7, 16).unwrap();
    let b = build_plan(100, 7, 16).unwrap();
    assert_eq!(a, b);
    assert_eq!(to_json(&a), to_json(&b));
}

#[test]
fn simulations_are_deterministic() {
    let cfg = OpticalConfig::new(64, 8);
    let plan = build_plan(64, 4, 8).unwrap();
    let sched = to_optical_schedule(&plan, 1 << 20);
    let mut sim = RingSimulator::new(cfg);
    let r1 = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
    let r2 = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r1.total_time_s.to_bits(), r2.total_time_s.to_bits());
}

#[test]
fn end_to_end_outcomes_are_deterministic() {
    let cfg = OpticalConfig::paper_defaults(64);
    let params = WrhtParams::auto(64, 64);
    let a = plan_and_simulate(&params, &cfg, 10 << 20).unwrap();
    let b = plan_and_simulate(&params, &cfg, 10 << 20).unwrap();
    assert_eq!(a, b);
}

#[test]
fn fig2_cells_are_deterministic() {
    let cfg = ExperimentConfig {
        scales: vec![32],
        ..ExperimentConfig::small()
    };
    let models = [dnn_models::googlenet()];
    let (a, b) = (run_fig2(&cfg, &models, 1), run_fig2(&cfg, &models, 2));
    assert_eq!(a, b);
    let (a, b) = (&a[0].rows[0], &b[0].rows[0]);
    assert_eq!(a.e_ring_s.to_bits(), b.e_ring_s.to_bits());
    assert_eq!(a.wrht_s.to_bits(), b.wrht_s.to_bits());
}

#[test]
fn event_driven_runs_are_deterministic() {
    use optical_sim::NodeId;
    use optical_sim::Transfer;
    let cfg = OpticalConfig::new(16, 2);
    let mut sim = RingSimulator::new(cfg);
    let released: Vec<(f64, Transfer)> = (0..16)
        .map(|i| {
            (
                (i % 3) as f64 * 1e-6,
                Transfer::shortest(NodeId(i), NodeId((i + 5) % 16), 1 << 16),
            )
        })
        .collect();
    let a = sim.run_event_driven(&released).unwrap();
    let b = sim.run_event_driven(&released).unwrap();
    assert_eq!(a, b);
}
