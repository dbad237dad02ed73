//! Cross-simulator sanity: closed-form timing laws must agree with the
//! discrete simulators, and the two substrates must agree with each other
//! where their models coincide.

use electrical_sim::topology::star_cluster;
use optical_sim::{OpticalConfig, RingSimulator, Strategy};
use wrht_core::baselines::oring_schedule;
use wrht_core::cost::predict_time_s;
use wrht_core::lower::to_optical_schedule;
use wrht_core::plan::build_plan;
use wrht_core::substrate::{ElectricalSubstrate, Substrate};

/// O-Ring in the optical simulator equals the Patarasuk–Yuan closed form
/// `2(n-1) (alpha + (S/n)/B + P)` when chunks divide evenly.
#[test]
fn oring_matches_closed_form_across_scales() {
    for n in [4usize, 16, 64] {
        let elems = n * 1000;
        let bpe = 4;
        let alpha = 2e-7;
        let prop = 3e-9;
        let bw = 2.5e9;
        let cfg = OpticalConfig::new(n, 8)
            .with_lambda_bandwidth(bw)
            .with_message_overhead(alpha)
            .with_hop_propagation(prop);
        let mut sim = RingSimulator::new(cfg);
        let t = sim
            .run_stepped(&oring_schedule(n, elems, bpe), Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        let chunk_bytes = (elems / n * bpe) as f64;
        let expected = (2 * (n - 1)) as f64 * (alpha + chunk_bytes / bw + prop);
        assert!(
            (t - expected).abs() / expected < 1e-9,
            "n={n}: {t} vs {expected}"
        );
    }
}

/// The electrical ring all-reduce over a star cluster equals
/// `2(n-1) (overhead + 2 latency + (S/n)/B)` — every step is a clean
/// neighbour shift with no port contention.
#[test]
fn electrical_ring_matches_closed_form() {
    let n = 16;
    let elems = 16_000;
    let bpe = 4;
    let bw = 12.5e9;
    let lat = 5e-7;
    let overhead = 5e-6;
    let t = ElectricalSubstrate::new(star_cluster(n, bw, lat), overhead)
        .execute(&oring_schedule(n, elems, bpe))
        .unwrap()
        .total_time_s;
    let chunk = (elems / n * bpe) as f64;
    let expected = (2 * (n - 1)) as f64 * (overhead + 2.0 * lat + chunk / bw);
    assert!((t - expected).abs() / expected < 1e-9, "{t} vs {expected}");
}

/// Wrht's analytic cost model agrees with the stepped optical simulator to
/// machine precision over a parameter sweep.
#[test]
fn wrht_prediction_equals_simulation_over_sweep() {
    for (n, m, w, bytes) in [
        (32usize, 2usize, 4usize, 1u64 << 20),
        (64, 4, 8, 3 << 20),
        (128, 6, 16, 10 << 20),
        (256, 9, 64, 25 << 20),
        (200, 5, 32, 7 << 20),
    ] {
        let plan = build_plan(n, m, w).unwrap();
        let cfg = OpticalConfig::new(n, w);
        let predicted = predict_time_s(&plan, &cfg, bytes).total_s();
        let mut sim = RingSimulator::new(cfg);
        let simulated = sim
            .run_stepped(&to_optical_schedule(&plan, bytes), Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        assert!(
            (predicted - simulated).abs() / simulated < 1e-9,
            "n={n} m={m} w={w}: {predicted} vs {simulated}"
        );
    }
}

/// With identical bandwidth, zero latencies and a single wavelength, the
/// optical ring and the electrical ring time the same ring all-reduce
/// identically — the substrates' bandwidth models coincide.
#[test]
fn substrates_agree_on_identical_physics() {
    let n = 8;
    let elems = 8_000;
    let bpe = 4;
    let bw = 1e9;

    let ocfg = OpticalConfig::new(n, 1)
        .with_lambda_bandwidth(bw)
        .with_message_overhead(0.0)
        .with_hop_propagation(0.0);
    let mut osim = RingSimulator::new(ocfg);
    let optical_t = osim
        .run_stepped(&oring_schedule(n, elems, bpe), Strategy::FirstFit)
        .unwrap()
        .total_time_s;

    let electrical_t = ElectricalSubstrate::new(electrical_sim::topology::ring(n, bw, 0.0), 0.0)
        .execute(&oring_schedule(n, elems, bpe))
        .unwrap()
        .total_time_s;

    assert!(
        (optical_t - electrical_t).abs() / electrical_t < 1e-9,
        "optical {optical_t} vs electrical {electrical_t}"
    );
}

/// Event-driven and stepped optical execution agree when a schedule's steps
/// are released sequentially.
#[test]
fn event_driven_agrees_with_stepped_for_sequential_release() {
    let n = 16;
    let w = 8;
    let bytes = 1u64 << 20;
    let plan = build_plan(n, 4, w).unwrap();
    let sched = to_optical_schedule(&plan, bytes);
    let cfg = OpticalConfig::new(n, w);
    let mut sim = RingSimulator::new(cfg);
    let stepped = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();

    // Release each step exactly when the stepped run says it starts: the
    // event-driven makespan must match the stepped total.
    let mut released = Vec::new();
    let mut t = 0.0;
    for (i, step) in sched.steps().iter().enumerate() {
        for tr in step {
            released.push((t, tr.clone()));
        }
        t += stepped.steps[i].duration_s;
    }
    let event = sim.run_event_driven(&released).unwrap();
    assert!(
        (event.makespan_s - stepped.total_time_s).abs() / stepped.total_time_s < 1e-9,
        "event {} vs stepped {}",
        event.makespan_s,
        stepped.total_time_s
    );
}
