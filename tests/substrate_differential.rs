//! Differential testing of the two execution substrates.
//!
//! Where the optical and electrical models coincide — lanes = 1 (a single
//! wavelength per transmission, no reuse pressure), matched link bandwidth,
//! zero propagation/latency — the stepped optical simulator and the
//! barrier-stepped fluid model must time the *same* schedule identically,
//! per step and in total, and both must match the closed-form step law
//! `overhead + max_transfer_bytes / B`.
//!
//! Configurations are randomized from fixed seeds so failures reproduce.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use optical_sim::OpticalConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wrht_core::baselines::run_collective;
use wrht_core::cost::predict_time_s;
use wrht_core::lower::to_optical_schedule;
use wrht_core::plan::build_plan;
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, RunReport, Substrate};

const BYTES_PER_ELEM: usize = 4;

/// One randomized coinciding-physics configuration.
struct Config {
    n: usize,
    elems: usize,
    bandwidth_bps: f64,
    overhead_s: f64,
}

fn random_config(rng: &mut StdRng) -> Config {
    Config {
        n: rng.random_range(2..24),
        elems: rng.random_range(1..5_000),
        bandwidth_bps: [1e9, 2.5e9, 12.5e9][rng.random_range(0..3)],
        overhead_s: [0.0, 1e-6, 5e-6][rng.random_range(0..3)],
    }
}

/// The coinciding-physics substrate pair: same bandwidth, zero
/// latency/propagation, same per-step overhead, one wavelength per
/// transfer (the schedule's transfers all use `lanes = 1`).
fn substrate_pair(cfg: &Config) -> (OpticalSubstrate, ElectricalSubstrate) {
    let optical = OpticalSubstrate::new(
        OpticalConfig::new(cfg.n, cfg.n.max(2))
            .with_lambda_bandwidth(cfg.bandwidth_bps)
            .with_message_overhead(cfg.overhead_s)
            .with_hop_propagation(0.0),
    )
    .expect("valid optical config");
    let electrical = ElectricalSubstrate::new(
        electrical_sim::topology::star_cluster(cfg.n, cfg.bandwidth_bps, 0.0),
        cfg.overhead_s,
    );
    (optical, electrical)
}

/// Closed-form per-step times: `overhead + max_transfer_bytes / B` for
/// non-empty steps, 0 for empty ones (both runners skip them entirely).
fn closed_form_steps(schedule: &Schedule, cfg: &Config) -> Vec<f64> {
    schedule
        .steps
        .iter()
        .map(|step| {
            let max_bytes = step
                .transfers
                .iter()
                .map(|t| (t.elems() * BYTES_PER_ELEM) as u64)
                .filter(|&b| b > 0)
                .max()
                .unwrap_or(0);
            if max_bytes == 0 {
                0.0
            } else {
                cfg.overhead_s + max_bytes as f64 / cfg.bandwidth_bps
            }
        })
        .collect()
}

fn assert_steps_agree(tag: &str, a: &RunReport, b: &RunReport, expected: &[f64]) {
    assert_eq!(a.step_count(), b.step_count(), "{tag}: step counts differ");
    assert_eq!(a.step_count(), expected.len(), "{tag}: closed-form shape");
    for (i, ((sa, sb), want)) in a.steps.iter().zip(&b.steps).zip(expected).enumerate() {
        let scale = want.max(1e-30);
        assert!(
            (sa.duration_s - sb.duration_s).abs() / scale < 1e-9,
            "{tag} step {i}: optical {} vs electrical {}",
            sa.duration_s,
            sb.duration_s
        );
        assert!(
            (sa.duration_s - want).abs() / scale < 1e-9,
            "{tag} step {i}: optical {} vs closed form {want}",
            sa.duration_s
        );
    }
    let total: f64 = expected.iter().sum();
    assert!(
        (a.total_time_s - b.total_time_s).abs() / total.max(1e-30) < 1e-9,
        "{tag}: totals {} vs {}",
        a.total_time_s,
        b.total_time_s
    );
}

fn check_algorithm(tag: &str, schedule: &Schedule, cfg: &Config) {
    let (mut optical, mut electrical) = substrate_pair(cfg);
    let o = run_collective(&mut optical, schedule, BYTES_PER_ELEM, 1).expect("optical run");
    let e = run_collective(&mut electrical, schedule, BYTES_PER_ELEM, 1).expect("electrical run");
    let expected = closed_form_steps(schedule, cfg);
    assert_steps_agree(tag, &o, &e, &expected);
}

#[test]
fn ring_schedules_agree_across_substrates_and_with_closed_forms() {
    let mut rng = StdRng::seed_from_u64(2023);
    for case in 0..12 {
        let cfg = random_config(&mut rng);
        let sched = ring_allreduce(cfg.n, cfg.elems);
        check_algorithm(&format!("ring case {case} (n={})", cfg.n), &sched, &cfg);
    }
}

#[test]
fn halving_doubling_schedules_agree_across_substrates() {
    let mut rng = StdRng::seed_from_u64(31);
    for case in 0..12 {
        let cfg = random_config(&mut rng);
        let sched = halving_doubling(cfg.n, cfg.elems);
        check_algorithm(&format!("hd case {case} (n={})", cfg.n), &sched, &cfg);
    }
}

#[test]
fn recursive_doubling_schedules_agree_across_substrates() {
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..12 {
        let cfg = random_config(&mut rng);
        let sched = recursive_doubling(cfg.n, cfg.elems);
        check_algorithm(&format!("rd case {case} (n={})", cfg.n), &sched, &cfg);
    }
}

/// The divisible-payload ring all-reduce additionally matches the
/// Patarasuk–Yuan closed form `2(n-1)(overhead + (S/n)/B)` on BOTH fabrics.
#[test]
fn ring_total_matches_patarasuk_yuan_formula_on_both_substrates() {
    let mut rng = StdRng::seed_from_u64(404);
    for _ in 0..8 {
        let mut cfg = random_config(&mut rng);
        cfg.elems = cfg.n * rng.random_range(1..2_000); // divisible payload
        let sched = ring_allreduce(cfg.n, cfg.elems);
        let (mut optical, mut electrical) = substrate_pair(&cfg);
        let chunk = (cfg.elems / cfg.n * BYTES_PER_ELEM) as f64;
        let expected = (2 * (cfg.n - 1)) as f64 * (cfg.overhead_s + chunk / cfg.bandwidth_bps);
        for report in [
            run_collective(&mut optical, &sched, BYTES_PER_ELEM, 1).unwrap(),
            run_collective(&mut electrical, &sched, BYTES_PER_ELEM, 1).unwrap(),
        ] {
            assert!(
                (report.total_time_s - expected).abs() / expected < 1e-9,
                "{}: {} vs closed form {expected}",
                report.substrate,
                report.total_time_s
            );
        }
    }
}

/// Wrht plans on the optical substrate match the analytic `predict_time_s`
/// model per step and in total, over randomized feasible configurations.
#[test]
fn wrht_optical_runs_match_predict_time_closed_form() {
    let mut rng = StdRng::seed_from_u64(9);
    for case in 0..12 {
        let n = rng.random_range(2..120);
        let m = rng.random_range(2..10usize);
        let w = (m / 2).max(1) + rng.random_range(0..8);
        let bytes = rng.random_range(1u64..4096) * 1024;
        let Ok(plan) = build_plan(n, m, w) else {
            continue;
        };
        let config = OpticalConfig::new(n.max(2), w);
        let predicted = predict_time_s(&plan, &config, bytes);
        let mut optical = OpticalSubstrate::new(config).unwrap();
        let report = optical
            .execute(&to_optical_schedule(&plan, bytes))
            .expect("feasible plan executes");
        assert_eq!(report.step_count(), predicted.per_step_s.len());
        for (i, (step, want)) in report.steps.iter().zip(&predicted.per_step_s).enumerate() {
            assert!(
                (step.duration_s - want).abs() / want.max(1e-30) < 1e-9,
                "case {case} (n={n} m={m} w={w}) step {i}: {} vs {}",
                step.duration_s,
                want
            );
        }
        assert!(
            (report.total_time_s - predicted.total_s()).abs() / predicted.total_s().max(1e-30)
                < 1e-9,
            "case {case}: total {} vs predicted {}",
            report.total_time_s,
            predicted.total_s()
        );
    }
}
