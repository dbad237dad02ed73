//! Differential testing of the multi-job tenancy engine.
//!
//! Pins the tentpole contracts of `Substrate::execute_jobs`:
//!
//! * **serial equivalence** — a cluster of ONE job, under every
//!   [`SchedPolicy`], reproduces a direct `execute_dag` of the job's own
//!   schedule **bit-exactly** on BOTH substrates, for random collective
//!   schedules, random physics and every workload shape (steps, chained
//!   buckets, raw DAGs);
//! * **determinism** — the tenancy campaign axis serializes byte-identically
//!   across worker thread counts and resumes from its sink;
//! * **fairness sanity** — two identical jobs arriving together finish
//!   within epsilon of each other under `FairShare`, and the Jain index of
//!   a symmetric cluster is ~1;
//! * **count contracts** — `generate_traffic` returns exactly the requested
//!   transfer count for all three patterns (the fixed generator bugs).

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use electrical_sim::topology::star_cluster;
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use wrht_bench::campaign::{run_campaign, tenants_spec};
use wrht_bench::contention::{generate_traffic, Pattern};
use wrht_bench::report::to_json;
use wrht_bench::ExperimentConfig;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{Job, SchedPolicy, TenancySpec};

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial equivalence: one tenant under every policy is bit-exact with
    /// a direct `execute_dag` on both substrates, for step-synchronous
    /// workloads of every classic collective.
    #[test]
    fn single_tenant_steps_match_execute_dag_bit_exactly(
        n in 2usize..16,
        elems in 1usize..20_000,
        bw_idx in 0usize..3,
        ov_idx in 0usize..3,
    ) {
        let bandwidth = [1e9, 2.5e9, 12.5e9][bw_idx];
        let overhead = [0.0, 1e-6, 5e-6][ov_idx];
        for (name, build) in ALGORITHMS {
            let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
            let dag = DepSchedule::from_steps(&sched);
            for policy in SchedPolicy::ALL {
                let spec = TenancySpec::new(policy)
                    .with_job(Job::steps("solo", 0.0, sched.clone()));
                let (mut optical, mut electrical) = substrate_pair(n, bandwidth, overhead);

                let direct = optical.execute_dag(&dag).expect("optical dag");
                let cluster = optical.execute_jobs(&spec).expect("optical cluster");
                prop_assert_eq!(
                    cluster.makespan_s.to_bits(), direct.makespan_s.to_bits(),
                    "optical {}/{}: cluster {} vs direct {}",
                    name, policy, cluster.makespan_s, direct.makespan_s
                );
                prop_assert_eq!(cluster.jobs[0].slowdown.to_bits(), 1.0f64.to_bits());

                let direct = electrical.execute_dag(&dag).expect("electrical dag");
                let cluster = electrical.execute_jobs(&spec).expect("electrical cluster");
                prop_assert_eq!(
                    cluster.makespan_s.to_bits(), direct.makespan_s.to_bits(),
                    "electrical {}/{}: cluster {} vs direct {}",
                    name, policy, cluster.makespan_s, direct.makespan_s
                );
            }
        }
    }

    /// Serial equivalence for bucketed training workloads: the chained
    /// bucket DAG (gradient-ready releases, no cross-bucket edges) must
    /// also be reproduced bit-exactly by a single-tenant cluster.
    #[test]
    fn single_tenant_buckets_match_execute_dag_bit_exactly(
        n in 2usize..12,
        elems in 1usize..10_000,
        ready_ms in 0u32..5,
    ) {
        let sched = lower_collective_to_optical(
            &ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let buckets = vec![
            (0.0, sched.clone()),
            (f64::from(ready_ms) * 1e-3, sched.clone()),
        ];
        let (dag, _) = DepSchedule::chain(&buckets);
        for policy in SchedPolicy::ALL {
            let spec = TenancySpec::new(policy)
                .with_job(Job::training("train", 0.0, buckets.clone()));
            let (mut optical, mut electrical) = substrate_pair(n, 1e9, 1e-6);
            for substrate in [&mut optical as &mut dyn Substrate, &mut electrical] {
                let direct = substrate.execute_dag(&dag).expect("direct chain");
                let cluster = substrate.execute_jobs(&spec).expect("cluster chain");
                prop_assert_eq!(
                    cluster.makespan_s.to_bits(), direct.makespan_s.to_bits(),
                    "{}/{}: cluster {} vs direct {}",
                    cluster.substrate, policy, cluster.makespan_s, direct.makespan_s
                );
                prop_assert_eq!(cluster.jobs[0].transfers, direct.transfers.len());
                prop_assert_eq!(
                    cluster.jobs[0].finish_s.to_bits(),
                    direct.makespan_s.to_bits()
                );
            }
        }
    }

    /// Two identical jobs arriving together under FairShare finish within
    /// epsilon of each other, on both substrates, for random payloads.
    #[test]
    fn identical_fair_share_tenants_finish_together(
        n in 4usize..12,
        elems in 1usize..20_000,
    ) {
        let sched = lower_collective_to_optical(
            &ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let spec = TenancySpec::new(SchedPolicy::FairShare)
            .with_job(Job::steps("a", 0.0, sched.clone()))
            .with_job(Job::steps("b", 0.0, sched));
        // Wavelengths cover both tenants (2 rings of lane 1 per segment).
        let mut optical = OpticalSubstrate::new(
            OpticalConfig::new(n, 2 * n)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        ).expect("valid optical config");
        let mut electrical = ElectricalSubstrate::new(star_cluster(n, 1e9, 0.0), 0.0);
        for substrate in [&mut optical as &mut dyn Substrate, &mut electrical] {
            let report = substrate.execute_jobs(&spec).expect("cluster run");
            let (f0, f1) = (report.jobs[0].finish_s, report.jobs[1].finish_s);
            prop_assert!(
                (f0 - f1).abs() <= 1e-9 * f0.max(f1).max(1e-30),
                "{}: {} vs {}", report.substrate, f0, f1
            );
            prop_assert!(report.fairness_index > 0.999,
                "{}: fairness {}", report.substrate, report.fairness_index);
        }
    }
}

/// The tenancy campaign axis is deterministic across worker thread counts
/// and resumes byte-identically from its sink.
#[test]
fn tenancy_campaign_is_thread_count_invariant_and_resumable() {
    let cfg = ExperimentConfig {
        scales: vec![8],
        ..ExperimentConfig::default()
    };
    let mut spec = tenants_spec(&cfg, &dnn_models::paper_models(), 8, 41);
    // Trim to a fast but representative subset: every policy, both
    // substrates, 1 and 2 jobs.
    spec.cells.retain(|c| c.jobs <= 2);
    let serial = run_campaign(&spec, 1, None);
    let parallel = run_campaign(&spec, 8, None);
    assert_eq!(to_json(&serial), to_json(&parallel));

    let dir = std::env::temp_dir().join(format!("wrht-tenancy-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = run_campaign(&spec, 4, Some(&dir));
    let resumed = run_campaign(&spec, 2, Some(&dir));
    assert_eq!(to_json(&first), to_json(&resumed));
    assert_eq!(to_json(&first), to_json(&serial));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixed traffic generator honours the requested transfer count for
/// all three patterns (acceptance criterion of the contention satellites).
#[test]
fn traffic_generator_honours_requested_counts() {
    for n in [2usize, 4, 16, 64] {
        for count in [1usize, n - 1, n, 2 * n, 4 * n] {
            for seed in [0u64, 7, 2023] {
                let p = generate_traffic(Pattern::Permutation, n, count, 64, seed);
                assert_eq!(p.len(), count.min(n), "permutation n={n} count={count}");
                assert!(p.iter().all(|(_, t)| t.src != t.dst));
                let u = generate_traffic(Pattern::UniformRandom, n, count, 64, seed);
                assert_eq!(u.len(), count, "uniform n={n} count={count}");
                let i = generate_traffic(Pattern::Incast, n, count, 64, seed);
                assert_eq!(i.len(), count, "incast n={n} count={count}");
                assert!(i.iter().all(|(_, t)| t.dst.0 == 0 && t.src.0 != 0));
            }
        }
    }
}
