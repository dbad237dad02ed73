//! Differential testing of dependency-aware (DAG) execution.
//!
//! Pins the tentpole contracts of `Substrate::execute_dag`:
//!
//! * a DAG with **barrier-shaped** dependency edges
//!   ([`DepSchedule::from_steps`]) agrees **bit-exactly** with the stepped
//!   [`Substrate::execute`] on BOTH substrates, for random ring /
//!   halving-doubling / recursive-doubling schedules and random physics;
//! * the **pipelined** lowering ([`DepSchedule::pipelined_from_steps`])
//!   is never slower than the barrier execution for linear costs
//!   (zero per-message overheads);
//! * the electrical **event-driven** engine agrees with the barrier fast
//!   path on barrier DAGs (its incremental max-min solver is checked
//!   against the full-resolve reference in electrical-sim's own
//!   `full_resolve` suite);
//! * DAG execution is deterministic: same schedule, bit-identical reports.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use electrical_sim::topology::star_cluster;
use electrical_sim::FluidEngine;
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::engine::run_closed;
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};

const BYTES_PER_ELEM: usize = 4;

type Builder = fn(usize, usize) -> Schedule;

const ALGORITHMS: [(&str, Builder); 3] = [
    ("ring", ring_allreduce as Builder),
    ("hd", halving_doubling as Builder),
    ("rd", recursive_doubling as Builder),
];

fn substrate_pair(
    n: usize,
    bandwidth_bps: f64,
    overhead_s: f64,
) -> (OpticalSubstrate, ElectricalSubstrate) {
    let optical = OpticalSubstrate::new(
        OpticalConfig::new(n, n.max(2))
            .with_lambda_bandwidth(bandwidth_bps)
            .with_message_overhead(overhead_s)
            .with_hop_propagation(0.0),
    )
    .expect("valid optical config");
    let electrical = ElectricalSubstrate::new(star_cluster(n, bandwidth_bps, 0.0), overhead_s);
    (optical, electrical)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Barrier-shaped DAGs reproduce the stepped totals bit-exactly on
    /// BOTH substrates for every classic collective, including ragged
    /// element counts and non-power-of-two node counts.
    #[test]
    fn barrier_dag_is_bit_exact_on_both_substrates(
        n in 2usize..20,
        elems in 1usize..40_000,
        bw_idx in 0usize..3,
        ov_idx in 0usize..3,
    ) {
        let bandwidth = [1e9, 2.5e9, 12.5e9][bw_idx];
        let overhead = [0.0, 1e-6, 5e-6][ov_idx];
        for (name, build) in ALGORITHMS {
            let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
            let dag = DepSchedule::from_steps(&sched);
            prop_assert!(dag.is_barrier_shaped());
            let (mut optical, mut electrical) = substrate_pair(n, bandwidth, overhead);

            let stepped = optical.execute(&sched).expect("optical stepped");
            let event = optical.execute_dag(&dag).expect("optical dag");
            prop_assert_eq!(
                event.makespan_s.to_bits(), stepped.total_time_s.to_bits(),
                "optical {}: dag {} vs stepped {}", name, event.makespan_s, stepped.total_time_s
            );

            let stepped = electrical.execute(&sched).expect("electrical stepped");
            let event = electrical.execute_dag(&dag).expect("electrical dag");
            prop_assert_eq!(
                event.makespan_s.to_bits(), stepped.total_time_s.to_bits(),
                "electrical {}: dag {} vs stepped {}", name, event.makespan_s, stepped.total_time_s
            );
        }
    }

    /// With linear costs (no per-message overhead), pipelining can only
    /// remove barrier wait wherever transfers run at a schedule-independent
    /// rate: on the optical substrate every transfer always serializes at
    /// full lane bandwidth, so the pipelined makespan never exceeds the
    /// barrier total for any of the classic collectives. On the electrical
    /// fluid substrate the same holds for the ring (a node's pipelined
    /// sends stay serialized by their own dependencies, so no extra
    /// sharing arises); for halving/recursive doubling with remainder
    /// nodes, max-min fair sharing can throttle the critical chain when
    /// unequal steps overlap, so the barrier total is *not* a per-flow
    /// upper bound there — that case is intentionally not asserted.
    #[test]
    fn pipelined_is_never_slower_for_linear_costs(
        n in 2usize..20,
        elems in 1usize..40_000,
    ) {
        for (name, build) in ALGORITHMS {
            let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
            let dag = DepSchedule::pipelined_from_steps(&sched);
            let (mut optical, mut electrical) = substrate_pair(n, 2.5e9, 0.0);

            let barrier = optical.execute(&sched).expect("optical stepped").total_time_s;
            let pipelined = optical.execute_dag(&dag).expect("optical dag").makespan_s;
            prop_assert!(
                pipelined <= barrier * (1.0 + 1e-12) + 1e-15,
                "optical {}: pipelined {} > barrier {}", name, pipelined, barrier
            );

            if name == "ring" {
                let barrier = electrical.execute(&sched).expect("electrical stepped").total_time_s;
                let pipelined = electrical.execute_dag(&dag).expect("electrical dag").makespan_s;
                prop_assert!(
                    pipelined <= barrier * (1.0 + 1e-12) + 1e-15,
                    "electrical {}: pipelined {} > barrier {}", name, pipelined, barrier
                );
            }
        }
    }

    /// The electrical event-driven engine agrees with the barrier fast
    /// path (which composes per-stage fluid runs) to FP noise when forced
    /// onto barrier-shaped DAGs.
    #[test]
    fn event_engine_agrees_with_barrier_fast_path(
        n in 2usize..16,
        elems in 1usize..20_000,
    ) {
        let net = star_cluster(n, 1e9, 0.0);
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let dag = DepSchedule::from_steps(&sched);
        prop_assert!(dag.is_barrier_shaped());
        let fast = ElectricalSubstrate::new(net.clone(), 1e-6)
            .execute_dag(&dag)
            .expect("fast path");
        let mut eng = FluidEngine::new(&net).with_launch_delay(1e-6);
        let mut event = 0.0f64;
        run_closed(&mut eng, &dag, None, |c| event = event.max(c.finish_s))
            .expect("event engine");
        let scale = fast.makespan_s.max(1e-30);
        prop_assert!(
            (fast.makespan_s - event).abs() / scale < 1e-9,
            "fast {} vs event {}", fast.makespan_s, event
        );
    }

    /// DAG execution is deterministic: running the same schedule twice
    /// yields bit-identical reports on both substrates.
    #[test]
    fn dag_execution_is_deterministic(n in 2usize..16, elems in 1usize..20_000) {
        let sched = lower_collective_to_optical(&halving_doubling(n, elems), BYTES_PER_ELEM, 1);
        let dag = DepSchedule::pipelined_from_steps(&sched);
        let (mut optical, mut electrical) = substrate_pair(n, 1e9, 1e-6);
        let a = optical.execute_dag(&dag).expect("optical a");
        let b = optical.execute_dag(&dag).expect("optical b");
        prop_assert_eq!(&a, &b);
        let a = electrical.execute_dag(&dag).expect("electrical a");
        let b = electrical.execute_dag(&dag).expect("electrical b");
        prop_assert_eq!(&a, &b);
    }
}

/// Chained bucket DAGs: two disjoint buckets pipeline concurrently and the
/// second bucket's transfers never start before their release.
#[test]
fn chained_buckets_overlap_on_the_wire() {
    use optical_sim::sim::StepSchedule;
    use optical_sim::{NodeId, Transfer};
    let bucket_a = StepSchedule::from_steps(vec![vec![Transfer::shortest(
        NodeId(0),
        NodeId(1),
        1_000_000,
    )]]);
    let bucket_b = StepSchedule::from_steps(vec![vec![Transfer::shortest(
        NodeId(4),
        NodeId(5),
        1_000_000,
    )]]);
    let (dag, ranges) = DepSchedule::chain(&[(0.0, bucket_a), (2e-4, bucket_b)]);
    assert_eq!(ranges.len(), 2);
    let (mut optical, mut electrical) = substrate_pair(8, 1e9, 0.0);
    for report in [
        optical.execute_dag(&dag).unwrap(),
        electrical.execute_dag(&dag).unwrap(),
    ] {
        // Bucket B starts at its release (2e-4) and runs concurrently
        // with A: makespan ≈ 2e-4 + 1 ms, far below the serialized 2 ms.
        assert!(
            (report.transfers[1].start_s - 2e-4).abs() < 1e-12,
            "{}: start {}",
            report.substrate,
            report.transfers[1].start_s
        );
        assert!(
            (report.makespan_s - 1.2e-3).abs() < 1e-9,
            "{}: makespan {}",
            report.substrate,
            report.makespan_s
        );
    }
}
