//! Data-parallel DNN training communication: per-iteration all-reduce time
//! of the paper's four models on 256 GPUs, under all four algorithms, plus
//! the layer-wise bucketed overlap extension.
//!
//! ```text
//! cargo run --release --example train_dnn
//! ```

use wrht_bench::ablations::overlap_study;
use wrht_bench::{run_fig2, ExperimentConfig};

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 256;
    cfg.scales = vec![n];

    println!("Per-iteration gradient all-reduce on {n} GPUs");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>4}",
        "model", "grad MB", "E-Ring ms", "RD ms", "O-Ring ms", "WRHT ms", "m"
    );
    for series in run_fig2(&cfg, &dnn_models::paper_models(), 1) {
        let row = &series.rows[0];
        println!(
            "{:>10} {:>10.1} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>4}",
            series.model,
            series.gradient_bytes as f64 / 1e6,
            row.e_ring_s * 1e3,
            row.rd_s * 1e3,
            row.o_ring_s * 1e3,
            row.wrht_s * 1e3,
            row.wrht_m
        );
    }

    println!();
    println!("Layer-wise bucketed Wrht all-reduce (25 MB buckets) with overlap:");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>8}",
        "model", "buckets", "overlapped ms", "sequential ms", "hidden"
    );
    for model in dnn_models::paper_models() {
        let p = overlap_study(&cfg, &model, n, 25 << 20);
        println!(
            "{:>10} {:>8} {:>14.3} {:>14.3} {:>7.1}%",
            p.model,
            p.buckets,
            p.overlapped_s * 1e3,
            p.sequential_s * 1e3,
            p.hidden_fraction * 100.0
        );
    }
}
