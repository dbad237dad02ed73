//! Fault-tolerance extension: re-planning the all-reduce over survivors
//! after node failures, end to end.

use collectives::execute;
use collectives::ring::ring_allreduce;
use optical_sim::{OpticalConfig, RingSimulator, Strategy};
use proptest::prelude::*;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::fault::{FaultKind, FaultPolicy, FaultScript};
use wrht_core::lower::{to_logical_schedule, to_optical_schedule};
use wrht_core::plan::build_plan_over;
use wrht_core::substrate::{OpticalSubstrate, Substrate};

/// Execute a survivor plan logically and check every survivor ends with
/// the sum over survivors only (failed nodes neither contribute nor
/// receive).
fn check_survivor_allreduce(ring_n: usize, survivors: &[usize], m: usize, w: usize) {
    let plan = build_plan_over(ring_n, survivors, m, w).unwrap();
    let elems = 5;
    let sched = to_logical_schedule(&plan, elems);
    // Unique contributions per (node, elem).
    let inputs: Vec<Vec<f64>> = (0..ring_n)
        .map(|node| (0..elems).map(|i| (node * elems + i + 1) as f64).collect())
        .collect();
    let outputs = execute(&sched, &inputs);
    for &s in survivors {
        assert_eq!(
            outputs[s].len(),
            elems,
            "survivor {s} buffer truncated (ring {ring_n}, m {m}, w {w})"
        );
        for (i, &got) in outputs[s].iter().enumerate() {
            let want: f64 = survivors
                .iter()
                .map(|&node| (node * elems + i + 1) as f64)
                .sum();
            assert_eq!(
                got, want,
                "survivor {s} elem {i} (ring {ring_n}, m {m}, w {w})"
            );
        }
    }
    // Failed nodes keep their original buffers (nothing writes to them).
    for node in 0..ring_n {
        if !survivors.contains(&node) {
            assert_eq!(
                outputs[node], inputs[node],
                "failed node {node} was touched"
            );
        }
    }
}

#[test]
fn survivor_allreduce_after_specific_failures() {
    let survivors: Vec<usize> = (0..32).filter(|p| ![0, 7, 8, 30].contains(p)).collect();
    check_survivor_allreduce(32, &survivors, 4, 8);
}

#[test]
fn survivor_plans_simulate_within_budget() {
    let survivors: Vec<usize> = (0..64).filter(|p| p % 5 != 0).collect();
    let w = 8;
    let plan = build_plan_over(64, &survivors, 4, w).unwrap();
    let sched = to_optical_schedule(&plan, 1 << 20);
    let mut sim = RingSimulator::new(OpticalConfig::new(64, w));
    let report = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
    assert!(report.peak_wavelengths() <= w);
    assert!(report.total_time_s > 0.0);
}

/// End-to-end survivor re-planning through `execute_dag_faulted`: a node
/// dies mid-run under `Replan`, every transfer touching it is failed with
/// its dependents released (the drain still terminates and survivors'
/// transfers complete), and the survivor set then re-plans via
/// `build_plan_over` into a clean run on the same substrate.
#[test]
fn mid_run_node_loss_replans_over_survivors() {
    let n = 16;
    let victim = 5;
    let dag = DepSchedule::from_steps(&lower_collective_to_optical(&ring_allreduce(n, 4096), 4, 1));
    let mut substrate = OpticalSubstrate::new(
        OpticalConfig::new(n, n)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(1e-6)
            .with_hop_propagation(0.0),
    )
    .expect("valid optical config");

    let clean = substrate.execute_dag(&dag).expect("clean run");
    let script =
        FaultScript::new().with(0.4 * clean.makespan_s, FaultKind::NodeDown { node: victim });
    let faulted = substrate
        .execute_dag_faulted(&dag, &script, FaultPolicy::Replan)
        .expect("faulted run terminates");

    // The node loss lands mid-run, so at least one transfer on the victim
    // must fail — and ONLY transfers with a victim endpoint may fail:
    // Replan releases their dependents so the rest of the ring drains.
    assert!(faulted.failed_transfers() > 0, "fault landed in a gap");
    for (i, (timing, dep)) in faulted.transfers.iter().zip(dag.transfers()).enumerate() {
        let touches_victim = dep.transfer.src.0 == victim || dep.transfer.dst.0 == victim;
        if !touches_victim {
            assert!(timing.completed, "survivor transfer {i} did not complete");
        }
        if !timing.completed {
            assert!(
                touches_victim,
                "transfer {i} failed without a victim endpoint"
            );
        }
    }
    assert!(faulted.first_impact_s.is_some());

    // Re-plan over the survivors and run the new plan cleanly end to end.
    let survivors: Vec<usize> = (0..n).filter(|&p| p != victim).collect();
    let plan = build_plan_over(n, &survivors, 4, 8).expect("survivor plan");
    let replanned = DepSchedule::from_steps(&to_optical_schedule(&plan, 4096));
    let report = substrate.execute_dag(&replanned).expect("replanned run");
    assert!(report.makespan_s.is_finite() && report.makespan_s > 0.0);
    // And the survivor plan is numerically a survivor-only all-reduce.
    check_survivor_allreduce(n, &survivors, 4, 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any survivor subset yields a correct survivor-only all-reduce.
    #[test]
    fn random_failure_sets_still_allreduce(
        ring_n in 4usize..48,
        failures in proptest::collection::hash_set(0usize..48, 0..6),
        m in 2usize..6,
        w in 1usize..16,
    ) {
        prop_assume!(m / 2 <= w);
        let survivors: Vec<usize> = (0..ring_n)
            .filter(|p| !failures.contains(p))
            .collect();
        prop_assume!(!survivors.is_empty());
        check_survivor_allreduce(ring_n, &survivors, m, w);
    }
}
