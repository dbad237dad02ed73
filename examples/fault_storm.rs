//! Fault storm: a multi-tenant cluster rides out a link-flap storm.
//!
//! Two bucketed GoogLeNet training tenants share one 32-node fabric while a
//! storm of link flaps (and, optically, a wavelength loss) marches across
//! the run. Each substrate executes the SAME composed DAG clean and
//! faulted; the diff is the blast radius — per-job aborts, delays,
//! failures — plus the recovery time and degraded-vs-clean makespan ratio.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```

use wrht_bench::campaign::Algorithm;
use wrht_bench::timeline::{iteration_model, timeline_buckets, AllReduceLowering};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::fault::{FaultKind, FaultPolicy, FaultScript};
use wrht_core::tenancy::{Job, SchedPolicy, TenancySpec};

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 32;
    cfg.scales = vec![n];
    cfg.wavelengths = 8;
    let model = dnn_models::googlenet();

    let im = iteration_model(&model);
    let compute_s = im.forward_s + im.backward_s;
    let lowering = AllReduceLowering::new(&cfg, Algorithm::Wrht, n);
    let buckets: Vec<_> = timeline_buckets(&model, 25 << 20)
        .iter()
        .map(|b| {
            let (schedule, _) = lowering.lower(b.bytes).expect("lowerable bucket");
            (b.ready_s, schedule)
        })
        .collect();

    let spec = TenancySpec::new(SchedPolicy::Fifo)
        .with_job(
            Job::training("train-a", 0.0, buckets.clone())
                .with_compute(compute_s)
                .with_priority(2),
        )
        .with_job(
            Job::training("train-b", 2e-3, buckets.clone())
                .with_compute(compute_s)
                .with_priority(1),
        );

    for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
        // Size the storm against the clean run: flaps at 20/40/60 % of the
        // clean makespan, each lasting 5 % of it, walking across three
        // links; optically a wavelength drops at 30 % and is repaired at
        // 70 %. (Wavelength events are electrically meaningless and link
        // events optically meaningless — one script serves both.)
        let mut substrate = cfg.substrate(kind, n, optical_sim::Strategy::FirstFit);
        let clean = substrate.execute_jobs(&spec).expect("clean cluster run");
        let t = clean.makespan_s;
        let mut script = FaultScript::new()
            .with(0.3 * t, FaultKind::WavelengthDown { lane: 0 })
            .with(0.7 * t, FaultKind::WavelengthUp { lane: 0 });
        for (i, frac) in [0.2, 0.4, 0.6].iter().enumerate() {
            script = script.with(
                frac * t,
                FaultKind::LinkFlap {
                    link: i,
                    down_s: 0.05 * t,
                },
            );
        }

        for policy in [FaultPolicy::Replan, FaultPolicy::RetryAfter(0.02 * t)] {
            let mut substrate = cfg.substrate(kind, n, optical_sim::Strategy::FirstFit);
            let report = substrate
                .execute_jobs_faulted(&spec, &script, policy)
                .expect("faulted cluster run");

            println!(
                "== {} / {} — clean {:.3} ms, faulted {:.3} ms ({:.2}x), recovery {:.3} ms ==",
                report.substrate,
                report.fault_policy,
                report.clean_makespan_s * 1e3,
                report.makespan_s * 1e3,
                report.degraded_ratio,
                report.recovery_s * 1e3,
            );
            println!(
                "{:>10} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10}",
                "job", "transfers", "aborted", "delayed", "failed", "clean ms", "finish ms"
            );
            for j in &report.jobs {
                println!(
                    "{:>10} {:>10} {:>8} {:>8} {:>8} {:>10.3} {:>10.3}",
                    j.name,
                    j.transfers,
                    j.aborted,
                    j.delayed,
                    j.failed,
                    j.clean_finish_s * 1e3,
                    j.finish_s * 1e3,
                );
            }
            println!();

            // The storm lands mid-run, so the report must carry a real
            // recovery trajectory: an impact instant inside the run and a
            // recovery window that ends at an impacted transfer's finish.
            let impact = report
                .first_impact_s
                .expect("a mid-run storm must impact at least one transfer");
            assert!(impact >= 0.0 && impact <= report.makespan_s.max(report.clean_makespan_s));
            assert!(
                report.transfers_delayed > 0
                    || report.transfers_aborted > 0
                    || report.transfers_failed > 0,
                "storm had zero blast radius"
            );
            assert!(report.recovery_s > 0.0, "impact without a recovery window");
            assert!(
                impact + report.recovery_s <= report.makespan_s + 1e-9,
                "recovery window must close inside the faulted run"
            );
            // Nobody died: flaps degrade and abort but both tenants finish.
            assert_eq!(report.failed_jobs(), 0, "a flap storm must not kill jobs");
        }
    }
    println!("fault storm absorbed: both tenants recovered on both substrates");
}
