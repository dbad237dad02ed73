//! Transformer gradients over the optical ring: how Wrht scales to
//! GPT-2/BERT-class models (an extension workload beyond the paper's CNNs).
//!
//! ```text
//! cargo run --release --example transformer_scaling
//! ```

use dnn_models::transformer::{bert_large, gpt2_small};
use wrht_bench::{run_fig2, ExperimentConfig};

fn main() {
    let cfg = ExperimentConfig {
        scales: vec![128, 512],
        ..ExperimentConfig::default()
    };
    for model in [gpt2_small(), bert_large()] {
        println!(
            "{} — {:.1} M params, {:.0} MB gradient",
            model.name,
            model.params() as f64 / 1e6,
            model.gradient_bytes() as f64 / 1e6
        );
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>4}",
            "nodes", "E-Ring ms", "RD ms", "O-Ring ms", "WRHT ms", "m"
        );
        let series = run_fig2(&cfg, std::slice::from_ref(&model), 1);
        for r in series.iter().flat_map(|s| &s.rows) {
            println!(
                "{:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>4}",
                r.n,
                r.e_ring_s * 1e3,
                r.rd_s * 1e3,
                r.o_ring_s * 1e3,
                r.wrht_s * 1e3,
                r.wrht_m
            );
        }
        println!();
    }
}
