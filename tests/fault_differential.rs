//! Differential testing of the fault pipeline.
//!
//! Pins the tentpole contracts of `Substrate::execute_dag_faulted`:
//!
//! * **zero-fault bit-exactness** — an empty [`FaultScript`] reproduces the
//!   clean `execute_dag` run **bit-exactly** on BOTH substrates, for random
//!   collective schedules and every recovery policy (the faulted entry
//!   points delegate to the untouched clean code paths);
//! * **vacuous faults are no-ops** — a fault scheduled after the last
//!   completion, a wavelength `Down`/`Up` pair resolved before any affected
//!   transfer starts, and a capacity "degrade" to factor 1.0 all leave the
//!   per-transfer timings bit-identical to the clean run;
//! * **monotonicity** — adding a real fault never *decreases* the effective
//!   makespan (infinite when any transfer failed) under `FailJob` /
//!   `RetryAfter`, scoped to ample wavelengths where capacity loss cannot
//!   reshuffle grants into a faster schedule;
//! * **campaign determinism** — the fault campaign axis serializes
//!   byte-identically across worker thread counts and resumes from its
//!   sink.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use electrical_sim::topology::star_cluster;
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use wrht_bench::campaign::{faults_spec, run_campaign};
use wrht_bench::report::to_json;
use wrht_bench::ExperimentConfig;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::fault::{FaultKind, FaultPolicy, FaultRunReport, FaultScript};
use wrht_core::substrate::{DagRunReport, ElectricalSubstrate, OpticalSubstrate, Substrate};

const BYTES_PER_ELEM: usize = 4;

type Builder = fn(usize, usize) -> Schedule;

const ALGORITHMS: [(&str, Builder); 3] = [
    ("ring", ring_allreduce as Builder),
    ("hd", halving_doubling as Builder),
    ("rd", recursive_doubling as Builder),
];

const POLICIES: [FaultPolicy; 3] = [
    FaultPolicy::FailJob,
    FaultPolicy::RetryAfter(0.25),
    FaultPolicy::Replan,
];

fn substrate_pair(
    n: usize,
    wavelengths: usize,
    bandwidth_bps: f64,
    overhead_s: f64,
) -> (OpticalSubstrate, ElectricalSubstrate) {
    let optical = OpticalSubstrate::new(
        OpticalConfig::new(n, wavelengths)
            .with_lambda_bandwidth(bandwidth_bps)
            .with_message_overhead(overhead_s)
            .with_hop_propagation(0.0),
    )
    .expect("valid optical config");
    let electrical = ElectricalSubstrate::new(star_cluster(n, bandwidth_bps, 0.0), overhead_s);
    (optical, electrical)
}

/// Assert a faulted run is the clean run, bit for bit, with no casualties.
fn assert_noop(clean: &DagRunReport, faulted: &FaultRunReport, context: &str) {
    assert_eq!(
        faulted.makespan_s.to_bits(),
        clean.makespan_s.to_bits(),
        "{context}: faulted makespan {} vs clean {}",
        faulted.makespan_s,
        clean.makespan_s
    );
    assert_eq!(faulted.transfers.len(), clean.transfers.len(), "{context}");
    for (i, (f, c)) in faulted.transfers.iter().zip(&clean.transfers).enumerate() {
        assert!(f.completed, "{context}: transfer {i} not completed");
        assert_eq!(f.aborts, 0, "{context}: transfer {i} aborted");
        assert_eq!(
            f.start_s.to_bits(),
            c.start_s.to_bits(),
            "{context}: transfer {i} start {} vs {}",
            f.start_s,
            c.start_s
        );
        assert_eq!(
            f.finish_s.to_bits(),
            c.finish_s.to_bits(),
            "{context}: transfer {i} finish {} vs {}",
            f.finish_s,
            c.finish_s
        );
    }
    assert_eq!(faulted.first_impact_s, None, "{context}");
    assert_eq!(faulted.total_aborts(), 0, "{context}");
    assert_eq!(faulted.failed_transfers(), 0, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An empty fault script is bit-exact with the clean entry point on
    /// both substrates, for every classic collective and recovery policy.
    #[test]
    fn empty_script_is_bit_exact_with_the_clean_run(
        n in 2usize..12,
        elems in 1usize..20_000,
        bw_idx in 0usize..3,
        ov_idx in 0usize..3,
    ) {
        let bandwidth = [1e9, 2.5e9, 12.5e9][bw_idx];
        let overhead = [0.0, 1e-6, 5e-6][ov_idx];
        for (name, build) in ALGORITHMS {
            let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
            let dag = DepSchedule::from_steps(&sched);
            for policy in POLICIES {
                let (mut optical, mut electrical) =
                    substrate_pair(n, n.max(2), bandwidth, overhead);
                for substrate in [&mut optical as &mut dyn Substrate, &mut electrical] {
                    let clean = substrate.execute_dag(&dag).expect("clean dag");
                    let faulted = substrate
                        .execute_dag_faulted(&dag, &FaultScript::new(), policy)
                        .expect("faulted dag");
                    assert_noop(&clean, &faulted, &format!("{}/{name}", clean.substrate));
                }
            }
        }
    }

    /// A fault scheduled strictly after the last completion changes
    /// nothing: the event drains against an empty fabric. Chained buckets
    /// with a positive gradient-ready offset keep the electrical run on
    /// the event engine (the barrier fast path is a different composition).
    #[test]
    fn post_completion_fault_changes_nothing(
        n in 2usize..10,
        elems in 1usize..10_000,
        ready_ms in 1u32..5,
        pol_idx in 0usize..3,
    ) {
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let buckets = vec![(0.0, sched.clone()), (f64::from(ready_ms) * 1e-3, sched)];
        let (dag, _) = DepSchedule::chain(&buckets);
        let policy = POLICIES[pol_idx];
        let (mut optical, mut electrical) = substrate_pair(n, n.max(2), 1e9, 1e-6);

        let clean = optical.execute_dag(&dag).expect("optical clean");
        let late = clean.makespan_s * 2.0 + 1.0;
        let script = FaultScript::new().with(late, FaultKind::WavelengthDown { lane: 0 });
        let faulted = optical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("optical late fault");
        assert_noop(&clean, &faulted, "optical/late");

        let clean = electrical.execute_dag(&dag).expect("electrical clean");
        let late = clean.makespan_s * 2.0 + 1.0;
        let script = FaultScript::new().with(
            late,
            FaultKind::LinkDegrade { link: 0, factor: 0.25 },
        );
        let faulted = electrical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("electrical late fault");
        assert_noop(&clean, &faulted, "electrical/late");
    }

    /// A wavelength `Down` repaired by `Up` before any affected transfer
    /// starts is a no-op, and so is the electrical analogue (a degrade
    /// fully restored before the first release).
    #[test]
    fn down_then_up_before_any_start_is_a_noop(
        n in 2usize..10,
        elems in 1usize..10_000,
        pol_idx in 0usize..3,
    ) {
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        // Every transfer releases at 1.0 s; the fault window closes at 0.5 s.
        let (dag, _) = DepSchedule::chain(&[(1.0, sched)]);
        let policy = POLICIES[pol_idx];
        let (mut optical, mut electrical) = substrate_pair(n, n.max(2), 1e9, 1e-6);

        let clean = optical.execute_dag(&dag).expect("optical clean");
        let script = FaultScript::new()
            .with(0.2, FaultKind::WavelengthDown { lane: 0 })
            .with(0.5, FaultKind::WavelengthUp { lane: 0 });
        let faulted = optical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("optical down/up");
        assert_noop(&clean, &faulted, "optical/down-up");

        let clean = electrical.execute_dag(&dag).expect("electrical clean");
        let script = FaultScript::new()
            .with(0.2, FaultKind::LinkDegrade { link: 0, factor: 0.25 })
            .with(0.5, FaultKind::LinkDegrade { link: 0, factor: 1.0 });
        let faulted = electrical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("electrical degrade/restore");
        assert_noop(&clean, &faulted, "electrical/degrade-restore");
    }

    /// Degrading a link to capacity factor 1.0 is bit-exact with no fault
    /// at all: the runner drops the no-op instead of letting an extra
    /// kernel instant split fluid intervals.
    #[test]
    fn unit_degrade_factor_is_bit_exact_with_no_fault(
        n in 2usize..10,
        elems in 1usize..10_000,
        ready_ms in 1u32..5,
        frac_pct in 10u32..90,
        pol_idx in 0usize..3,
    ) {
        let frac = f64::from(frac_pct) / 100.0;
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let buckets = vec![(0.0, sched.clone()), (f64::from(ready_ms) * 1e-3, sched)];
        let (dag, _) = DepSchedule::chain(&buckets);
        let policy = POLICIES[pol_idx];
        let (mut optical, mut electrical) = substrate_pair(n, n.max(2), 1e9, 1e-6);

        let clean = electrical.execute_dag(&dag).expect("electrical clean");
        let script = FaultScript::new().with(
            frac * clean.makespan_s,
            FaultKind::LinkDegrade { link: 0, factor: 1.0 },
        );
        let faulted = electrical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("electrical unit degrade");
        assert_noop(&clean, &faulted, "electrical/unit-degrade");

        // Link events have no optical meaning at any factor.
        let clean = optical.execute_dag(&dag).expect("optical clean");
        let script = FaultScript::new().with(
            frac * clean.makespan_s,
            FaultKind::LinkDegrade { link: 0, factor: 0.25 },
        );
        let faulted = optical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("optical link degrade");
        assert_noop(&clean, &faulted, "optical/link-degrade");
    }

    /// Adding a fault never *decreases* the effective makespan (infinite
    /// when any transfer failed) under `FailJob` / `RetryAfter`. Scoped to
    /// ample wavelengths (2n): with spare lanes a wavelength loss can only
    /// abort in-flight transfers — it cannot reshuffle waiting grants into
    /// a faster schedule.
    #[test]
    fn faults_never_decrease_effective_makespan(
        n in 2usize..10,
        elems in 100usize..20_000,
        frac_pct in 5u32..95,
        backoff_ms in 0u32..10,
        fail_job in proptest::bool::ANY,
    ) {
        let frac = f64::from(frac_pct) / 100.0;
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let (dag, _) = DepSchedule::chain(&[(0.0, sched)]);
        let policy = if fail_job {
            FaultPolicy::FailJob
        } else {
            FaultPolicy::RetryAfter(f64::from(backoff_ms) * 1e-3)
        };
        let (mut optical, mut electrical) = substrate_pair(n, 2 * n, 1e9, 1e-6);

        let clean = optical.execute_dag(&dag).expect("optical clean");
        let script = FaultScript::new().with(
            frac * clean.makespan_s,
            FaultKind::WavelengthDown { lane: 0 },
        );
        let faulted = optical
            .execute_dag_faulted(&dag, &script, policy)
            .expect("optical mid-run fault");
        prop_assert!(
            faulted.effective_makespan_s() >= clean.makespan_s * (1.0 - 1e-12),
            "optical: effective {} < clean {}",
            faulted.effective_makespan_s(),
            clean.makespan_s
        );

        // Electrically a node loss either fails transfers (infinite
        // effective makespan) or — landing after every completion — is a
        // no-op; either way the effective makespan cannot shrink.
        let clean = electrical.execute_dag(&dag).expect("electrical clean");
        let script = FaultScript::new().with(
            frac * clean.makespan_s,
            FaultKind::NodeDown { node: n / 2 },
        );
        let faulted = electrical
            .execute_dag_faulted(&dag, &script, FaultPolicy::FailJob)
            .expect("electrical mid-run fault");
        prop_assert!(
            faulted.effective_makespan_s() >= clean.makespan_s * (1.0 - 1e-12),
            "electrical: effective {} < clean {}",
            faulted.effective_makespan_s(),
            clean.makespan_s
        );
    }
}

/// The fault campaign axis is deterministic across worker thread counts
/// and resumes byte-identically from its sink.
#[test]
fn fault_campaign_is_thread_count_invariant_and_resumable() {
    let cfg = ExperimentConfig {
        scales: vec![8],
        ..ExperimentConfig::default()
    };
    let spec = faults_spec(&cfg, &dnn_models::paper_models(), 8, 41);
    let serial = run_campaign(&spec, 1, None);
    let parallel = run_campaign(&spec, 8, None);
    assert_eq!(to_json(&serial), to_json(&parallel));

    let dir = std::env::temp_dir().join(format!("wrht-fault-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = run_campaign(&spec, 4, Some(&dir));
    let resumed = run_campaign(&spec, 2, Some(&dir));
    assert_eq!(to_json(&first), to_json(&resumed));
    assert_eq!(to_json(&first), to_json(&serial));
    let _ = std::fs::remove_dir_all(&dir);
}
