//! Open-loop cluster service: online arrivals through the running kernel.
//!
//! A Poisson stream of GoogLeNet training jobs (a high- and a low-priority
//! template) arrives at a shared 32-node fabric faster than it drains, so
//! admission control matters: `Immediate` lets the backlog grow,
//! `QueueDepth` bounds the waiting line, `Reject` sheds load outright. The
//! example serves the same stream on both substrates under each rule and
//! prints the per-run summary plus the windowed utilization/latency
//! trajectory of one configuration.
//!
//! It also exercises the checkpoint contract: the stream is paused halfway
//! through its arrivals, the snapshot is round-tripped through JSON, and
//! the resumed run must reproduce the uninterrupted report byte-for-byte.
//!
//! ```text
//! cargo run --release --example open_loop_service
//! ```

use wrht_bench::campaign::Algorithm;
use wrht_bench::report::to_json;
use wrht_bench::timeline::{timeline_buckets, AllReduceLowering};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::stream::{Admission, ArrivalProcess, StreamSpec, StreamTemplate};
use wrht_core::tenancy::JobWorkload;

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 32;
    cfg.scales = vec![n];
    cfg.wavelengths = 8; // a narrow budget makes the queueing visible
    let model = dnn_models::googlenet();

    // One training iteration as chained gradient buckets, reused by both
    // templates; only the scheduling priority differs.
    let lowering = AllReduceLowering::new(&cfg, Algorithm::Wrht, n);
    let buckets: Vec<_> = timeline_buckets(&model, 25 << 20)
        .iter()
        .map(|b| {
            let (schedule, _) = lowering.lower(b.bytes).expect("lowerable bucket");
            (b.ready_s, schedule)
        })
        .collect();

    let spec = |admission| {
        StreamSpec::new(
            ArrivalProcess::Poisson {
                rate_hz: 400.0,
                count: 24,
                seed: 2023,
            },
            wrht_core::tenancy::SchedPolicy::Priority,
        )
        .with_template(
            StreamTemplate::new("train-hi", JobWorkload::Buckets(buckets.clone())).with_priority(2),
        )
        .with_template(
            StreamTemplate::new("train-lo", JobWorkload::Buckets(buckets.clone())).with_priority(1),
        )
        .with_admission(admission)
        .with_window(10e-3)
        .with_reference_bps(cfg.lambda_bandwidth_bps * cfg.wavelengths as f64 * n as f64)
    };

    let admissions = [
        Admission::Immediate,
        Admission::QueueDepth { limit: 2 },
        Admission::Reject { limit: 4 },
    ];

    println!(
        "{:>10} {:>11} {:>6} {:>7} {:>12} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "substrate",
        "admission",
        "admit",
        "reject",
        "makespan ms",
        "slow p50",
        "slow p99",
        "p999",
        "peak q",
        "fair"
    );
    for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
        for admission in admissions {
            let report = cfg
                .substrate(kind, n, optical_sim::Strategy::FirstFit)
                .execute_stream(&spec(admission))
                .expect("stream run");
            println!(
                "{:>10} {:>11} {:>6} {:>7} {:>12.3} {:>8.2}x {:>8.2}x {:>8.2}x {:>7} {:>6.3}",
                report.substrate,
                admission.label(),
                report.admitted,
                report.rejected,
                report.makespan_s * 1e3,
                report.slowdown.p50,
                report.slowdown.p99,
                report.slowdown.p999,
                report.peak_queue_depth,
                report.fairness_index
            );
        }
    }

    // Windowed trajectory of the optical Immediate run: utilization climbs
    // while the backlog builds, then drains.
    let report = cfg
        .substrate(SubstrateKind::Optical, n, optical_sim::Strategy::FirstFit)
        .execute_stream(&spec(Admission::Immediate))
        .expect("stream run");
    println!("\nWindows of optical/immediate ({} ms each):", 10.0);
    println!(
        "{:>9} {:>8} {:>8} {:>6} {:>8} {:>7} {:>8}",
        "start ms", "arrive", "finish", "util", "slow p99", "queue", "running"
    );
    for w in &report.windows {
        println!(
            "{:>9.1} {:>8} {:>8} {:>5.1}% {:>7.2}x {:>7} {:>8}",
            w.start_s * 1e3,
            w.arrivals,
            w.completed,
            w.utilization * 100.0,
            w.slowdown.p99,
            w.queue_depth,
            w.in_service
        );
    }

    // Checkpoint contract: pause at arrival 12, JSON round-trip, resume —
    // byte-identical to the uninterrupted run.
    let full = cfg
        .substrate(SubstrateKind::Optical, n, optical_sim::Strategy::FirstFit)
        .execute_stream(&spec(Admission::QueueDepth { limit: 2 }))
        .expect("uninterrupted run");
    let ck = cfg
        .substrate(SubstrateKind::Optical, n, optical_sim::Strategy::FirstFit)
        .execute_stream_until(&spec(Admission::QueueDepth { limit: 2 }), Some(12))
        .expect("paused run")
        .checkpoint()
        .expect("paused before the last arrival");
    let json = serde_json::to_string(&ck).expect("checkpoint serializes");
    let back = serde_json::from_str(&json).expect("checkpoint deserializes");
    let resumed = cfg
        .substrate(SubstrateKind::Optical, n, optical_sim::Strategy::FirstFit)
        .resume_stream(&spec(Admission::QueueDepth { limit: 2 }), &back, None)
        .expect("resumed run")
        .report()
        .expect("resume to completion");
    assert_eq!(
        to_json(&resumed),
        to_json(&full),
        "resume must be byte-identical to the uninterrupted run"
    );
    println!(
        "\nCheckpoint at arrival 12: {} bytes of JSON; resumed run is byte-identical.",
        json.len()
    );
}
