//! Full-resolve vs incremental max-min fluid engine on a 128-host incast.
//!
//! The incremental engine ([`run_flows`]) re-solves progressive filling
//! only over the contention component whose active-flow set changed and
//! never re-clones routes; the reference ([`run_flows_full_resolve`], the
//! test oracle included from electrical-sim's test support) re-runs the
//! full links × flows solve at every event. Both produce bit-identical
//! schedules (pinned by electrical-sim's `tests/full_resolve.rs`); this
//! bench measures the wall-clock and solver-work gap.

#[path = "../../electrical-sim/tests/support/full_resolve.rs"]
mod full_resolve;

use criterion::{criterion_group, criterion_main, Criterion};
use electrical_sim::flow::FlowSpec;
use electrical_sim::sim::run_flows;
use electrical_sim::topology::star_cluster;
use full_resolve::run_flows_full_resolve;

/// 127 flows into host 0 with staggered sizes: one completion event per
/// flow, each re-solving the shared-downlink component.
fn incast_flows(n: usize) -> Vec<FlowSpec> {
    (1..n)
        .map(|i| FlowSpec::new(i, 0, (1 << 16) + (i as u64) * 4096))
        .collect()
}

fn bench_incast_128(c: &mut Criterion) {
    let n = 128;
    let net = star_cluster(n, 12.5e9, 500e-9);
    let flows = incast_flows(n);
    let mut group = c.benchmark_group("maxmin/incast_n128");
    group.sample_size(20);
    group.bench_function("full_resolve", |b| {
        b.iter(|| std::hint::black_box(run_flows_full_resolve(&net, &flows).unwrap()))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| std::hint::black_box(run_flows(&net, &flows).unwrap()))
    });
    group.finish();

    let full = run_flows_full_resolve(&net, &flows).unwrap();
    let incremental = run_flows(&net, &flows).unwrap();
    assert_eq!(full.makespan_s.to_bits(), incremental.makespan_s.to_bits());
    println!(
        "solver work: full={} incremental={} ({:.1}% of full)",
        full.solver_work,
        incremental.solver_work,
        100.0 * incremental.solver_work as f64 / full.solver_work as f64
    );
}

/// Mixed workload: the incast plus disjoint neighbour pairs — the case
/// where component-restricted solves shine (disjoint completions skip the
/// big component entirely).
fn bench_incast_with_background(c: &mut Criterion) {
    let n = 128;
    let net = star_cluster(n, 12.5e9, 500e-9);
    let mut flows = incast_flows(64);
    for i in (64..n - 1).step_by(2) {
        flows.push(FlowSpec::new(i, i + 1, (1 << 14) + (i as u64) * 1024));
    }
    let mut group = c.benchmark_group("maxmin/incast_plus_pairs_n128");
    group.sample_size(20);
    group.bench_function("full_resolve", |b| {
        b.iter(|| std::hint::black_box(run_flows_full_resolve(&net, &flows).unwrap()))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| std::hint::black_box(run_flows(&net, &flows).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_incast_128, bench_incast_with_background);
criterion_main!(benches);
