//! Simulator-backed training timeline: one data-parallel iteration of each
//! paper model with bucketed Wrht all-reduces executed on the optical ring
//! AND the electrical cluster — per-bucket ready/start/finish instants and
//! exposed-vs-hidden communication, straight from the simulators.
//!
//! ```text
//! cargo run --release --example training_timeline
//! ```

use wrht_bench::campaign::{run_campaign, train_spec, Algorithm};
use wrht_bench::timeline::{model_timeline, TimelineRow};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::dag::ExecMode;

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 64;
    cfg.scales = vec![n];
    let bucket_bytes = 25u64 << 20; // PyTorch DDP default

    println!("Wrht-backed training iteration on {n} nodes, 25 MB buckets");
    println!(
        "{:>10} {:>11} {:>8} {:>14} {:>14} {:>8}",
        "model", "substrate", "buckets", "overlapped ms", "sequential ms", "hidden"
    );
    // The `repro-figures train` table: the train campaign's rows.
    let spec = train_spec(
        &cfg,
        &dnn_models::paper_models(),
        n,
        0,
        &[ExecMode::Barrier],
    );
    let report = run_campaign(&spec, 1, None);
    let rows = report.results.iter().filter(|r| r.error.is_none());
    for r in rows.map(TimelineRow::from) {
        println!(
            "{:>10} {:>11} {:>8} {:>14.3} {:>14.3} {:>7.1}%",
            r.model,
            r.substrate,
            r.buckets,
            r.overlapped_s * 1e3,
            r.sequential_s * 1e3,
            r.hidden_fraction * 100.0
        );
    }

    // Bucket-level view of one model: when does each all-reduce launch,
    // how long did it wait for the network, how many substrate steps?
    let model = dnn_models::resnet50();
    let t = model_timeline(
        &cfg,
        &model,
        n,
        bucket_bytes,
        Algorithm::Wrht,
        SubstrateKind::Optical,
        optical_sim::Strategy::FirstFit,
        ExecMode::Barrier,
    )
    .expect("feasible timeline");
    println!();
    println!(
        "{} on the optical ring: compute ends at {:.3} ms, iteration at {:.3} ms",
        model.name,
        t.compute_s * 1e3,
        t.overlapped_s * 1e3
    );
    println!(
        "{:>4} {:>12} {:>10} {:>10} {:>10} {:>10} {:>6}",
        "#", "layer", "MB", "ready ms", "start ms", "finish ms", "steps"
    );
    for (i, b) in t.buckets.iter().enumerate() {
        println!(
            "{:>4} {:>12} {:>10.1} {:>10.3} {:>10.3} {:>10.3} {:>6}",
            i,
            b.label,
            b.bytes as f64 / 1e6,
            b.ready_s * 1e3,
            b.start_s * 1e3,
            b.finish_s * 1e3,
            b.report.step_count()
        );
    }
}
