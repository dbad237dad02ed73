//! Multi-job tenancy: concurrent jobs sharing one substrate.
//!
//! Three tenants contend on one 32-node fabric — two bucketed GoogLeNet
//! training iterations arriving 2 ms apart, plus a background incast flood
//! aimed at node 0 — executed as **one** composed DAG run per substrate and
//! scheduling policy. The per-job table shows what tenancy costs each job
//! (slowdown vs running alone) and how the policy splits the pain (Jain
//! fairness index).
//!
//! The example also checks the serial-equivalence anchor on both
//! substrates: a cluster of ONE job, under every policy, reproduces a
//! direct `execute_dag` of that job's schedule bit-exactly.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use wrht_bench::campaign::Algorithm;
use wrht_bench::contention::{generate_traffic, Pattern};
use wrht_bench::timeline::{iteration_model, lower_allreduce, timeline_buckets};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::dag::DepSchedule;
use wrht_core::tenancy::{Job, SchedPolicy, TenancySpec};

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 32;
    cfg.scales = vec![n];
    cfg.wavelengths = 8; // a narrow budget makes the contention visible
    let model = dnn_models::googlenet();

    // One training iteration: gradient buckets lowered to Wrht schedules.
    let im = iteration_model(&model);
    let compute_s = im.forward_s + im.backward_s;
    let buckets: Vec<_> = timeline_buckets(&model, 25 << 20)
        .iter()
        .map(|b| {
            let (schedule, _) =
                lower_allreduce(&cfg, Algorithm::Wrht, n, b.bytes).expect("lowerable bucket");
            (b.ready_s, schedule)
        })
        .collect();

    // Background traffic: a 64-transfer incast flood at node 0, arriving
    // midway through the first training job.
    let incast = generate_traffic(Pattern::Incast, n, 64, 4 << 20, 2023);
    assert_eq!(incast.len(), 64, "incast honours the requested count");

    let spec = |policy| {
        TenancySpec::new(policy)
            .with_job(
                Job::training("train-a", 0.0, buckets.clone())
                    .with_compute(compute_s)
                    .with_priority(2),
            )
            .with_job(
                Job::training("train-b", 2e-3, buckets.clone())
                    .with_compute(compute_s)
                    .with_priority(1),
            )
            .with_job(Job::dag(
                "incast-bg",
                1e-3,
                DepSchedule::from_released(&incast).expect("incast releases are finite and >= 0"),
            ))
    };

    for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
        // Serial-equivalence anchor: one job under every policy is
        // bit-exact with a direct execute_dag of its schedule.
        for policy in SchedPolicy::ALL {
            let solo = TenancySpec::new(policy)
                .with_job(Job::training("solo", 0.0, buckets.clone()).with_compute(compute_s));
            let mut substrate = cfg.substrate(kind, n, optical_sim::Strategy::FirstFit);
            let direct = substrate
                .execute_dag(&solo.jobs[0].workload.lower())
                .expect("direct run");
            let cluster = substrate.execute_jobs(&solo).expect("cluster run");
            assert_eq!(
                cluster.makespan_s.to_bits(),
                direct.makespan_s.to_bits(),
                "{kind:?}/{policy}: single tenant must equal execute_dag bit-exactly"
            );
        }

        for policy in SchedPolicy::ALL {
            let mut substrate = cfg.substrate(kind, n, optical_sim::Strategy::FirstFit);
            let report = substrate.execute_jobs(&spec(policy)).expect("cluster run");
            println!(
                "== {} / {} — makespan {:.3} ms, fairness {:.3} ==",
                report.substrate,
                report.policy,
                report.makespan_s * 1e3,
                report.fairness_index
            );
            println!(
                "{:>10} {:>10} {:>10} {:>10} {:>9} {:>8} {:>8}",
                "job", "arrive ms", "finish ms", "alone ms", "slowdown", "hidden", "share"
            );
            for j in &report.jobs {
                println!(
                    "{:>10} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x {:>7.1}% {:>7.1}%",
                    j.name,
                    j.arrival_s * 1e3,
                    j.finish_s * 1e3,
                    j.isolated_s * 1e3,
                    j.slowdown,
                    j.hidden_fraction * 100.0,
                    j.bandwidth_share * 100.0
                );
            }
            println!();
        }
    }
}
