//! Harness micro-benchmarks: schedule construction cost for every
//! algorithm, Wrht plan construction across scales, and the group-size
//! search at the largest scales the campaigns run.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use criterion::{criterion_group, criterion_main, Criterion};
use optical_sim::OpticalConfig;
use wrht_core::plan::build_plan;
use wrht_core::{choose_group_size, StopPolicy, WrhtParams};

fn bench_baselines(c: &mut Criterion) {
    let n = 256;
    let elems = 1 << 20;
    let mut group = c.benchmark_group("schedule_generation/baselines");
    group.sample_size(20);
    group.bench_function("ring", |b| {
        b.iter(|| std::hint::black_box(ring_allreduce(n, elems)))
    });
    group.bench_function("recursive_doubling", |b| {
        b.iter(|| std::hint::black_box(recursive_doubling(n, elems)))
    });
    group.bench_function("halving_doubling", |b| {
        b.iter(|| std::hint::black_box(halving_doubling(n, elems)))
    });
    group.bench_function("binomial_tree", |b| {
        b.iter(|| std::hint::black_box(binomial_tree(n, elems)))
    });
    group.finish();
}

fn bench_wrht_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_generation/wrht_plan");
    group.sample_size(20);
    for n in [128usize, 512, 1024, 4096] {
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| std::hint::black_box(build_plan(n, 8, 64).unwrap()))
        });
    }
    group.finish();
}

/// One `choose_group_size` call, cold: the search walks every group size
/// `2..=2w+1` (and, under `BestDepth`, every stop level) for one 25 MiB
/// payload.
fn bench_group_search(c: &mut Criterion) {
    let w = 64;
    let mut group = c.benchmark_group("schedule_generation/group_search");
    group.sample_size(20);
    for n in [1024usize, 4096] {
        let config = OpticalConfig::new(n, w);
        for policy in [StopPolicy::EarliestFeasible, StopPolicy::BestDepth] {
            let params = WrhtParams::auto(n, w).with_stop_policy(policy);
            group.bench_function(format!("n{n}_w{w}_{policy:?}"), |b| {
                b.iter(|| {
                    std::hint::black_box(
                        choose_group_size(&params, &config, std::hint::black_box(25 << 20))
                            .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_baselines,
    bench_wrht_plans,
    bench_group_search
);
criterion_main!(benches);
