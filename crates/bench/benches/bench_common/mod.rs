//! Shared helpers for the Figure 2 Criterion benches.
//!
//! Each `fig2_*` bench regenerates one sub-figure of the paper: it times the
//! four Figure-2 campaign cells of one scale (all four algorithms) and, as
//! a side effect of the first iteration, prints the simulated
//! communication times so running `cargo bench` reproduces the figure's
//! numbers.

use criterion::Criterion;
use std::sync::Once;
use wrht_bench::report::render_fig2;
use wrht_bench::{fig2_spec, run_campaign, run_fig2, ExperimentConfig};

/// Scales benched per model: the paper's two smallest keep Criterion
/// iterations affordable; the full grid is produced by `repro-figures`.
pub const BENCH_SCALES: [usize; 2] = [128, 256];

/// Run the Figure 2 benchmark for one model.
pub fn bench_fig2_model(c: &mut Criterion, print_once: &'static Once, model: dnn_models::Model) {
    let cfg = ExperimentConfig {
        scales: BENCH_SCALES.to_vec(),
        ..ExperimentConfig::default()
    };

    // Print the actual figure series once, so bench output contains the
    // reproduced numbers alongside the harness timings.
    let models = [model];
    print_once.call_once(|| {
        for series in run_fig2(&cfg, &models, 1) {
            println!("\n{}", render_fig2(&series));
        }
    });

    let mut group = c.benchmark_group(format!("fig2/{}", models[0].name));
    group.sample_size(10);
    for &n in &BENCH_SCALES {
        let one_scale = ExperimentConfig {
            scales: vec![n],
            ..cfg.clone()
        };
        let spec = fig2_spec(&one_scale, &models);
        group.bench_function(format!("cell/n{n}"), |b| {
            b.iter(|| std::hint::black_box(run_campaign(&spec, 1, None)));
        });
    }
    group.finish();
}
