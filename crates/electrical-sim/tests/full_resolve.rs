//! The incremental fluid engine against the full-resolve reference.
//!
//! [`run_flows`] re-solves only the contention component an event changed;
//! the reference ([`full_resolve::run_flows_full_resolve`]) re-solves every
//! flow at every event. Both must report the same makespan and per-flow
//! finishes bit for bit and the same errors, and the incremental engine
//! must do no more solver work.

#[path = "support/full_resolve.rs"]
mod full_resolve;

use electrical_sim::flow::FlowSpec;
use electrical_sim::sim::run_flows;
use electrical_sim::topology::star_cluster;
use electrical_sim::NetError;
use full_resolve::run_flows_full_resolve;
use proptest::prelude::*;

/// A flow frozen at rate zero is a typed stall in the reference too.
#[test]
fn a_zero_capacity_link_stalls_the_full_resolve_reference() {
    let net = star_cluster(4, 0.0, 0.0);
    let err = run_flows_full_resolve(&net, &[FlowSpec::new(0, 1, 1_000)]).unwrap_err();
    assert_eq!(err, NetError::StalledFlow { src: 0, dst: 1 });
}

/// The incremental engine must agree bit-exactly with the full-resolve
/// reference — same makespan, same per-flow finishes — while doing no
/// more solver work.
#[test]
fn incremental_matches_full_resolve_bit_exactly() {
    let net = star_cluster(8, 1e9, 500e-9);
    let specs: Vec<FlowSpec> = vec![
        FlowSpec::new(0, 1, 1_000_000),
        FlowSpec::new(0, 2, 700_000),
        FlowSpec::new(3, 4, 900_000),
        FlowSpec::released_at(5, 1, 400_000, 3e-4),
        FlowSpec::new(6, 7, 123_456),
    ];
    let a = run_flows(&net, &specs).unwrap();
    let b = run_flows_full_resolve(&net, &specs).unwrap();
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    for (x, y) in a.flows.iter().zip(&b.flows) {
        assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
    }
    assert!(
        a.solver_work <= b.solver_work,
        "incremental {} vs full {}",
        a.solver_work,
        b.solver_work
    );
}

/// Disjoint components must not be re-solved when an unrelated flow
/// completes.
#[test]
fn disjoint_completions_skip_unaffected_components() {
    let net = star_cluster(8, 1e9, 0.0);
    // Three disjoint pairs with different sizes: three completion
    // events, each only dirtying its own pair of links.
    let specs = vec![
        FlowSpec::new(0, 1, 1_000_000),
        FlowSpec::new(2, 3, 2_000_000),
        FlowSpec::new(4, 5, 3_000_000),
    ];
    let a = run_flows(&net, &specs).unwrap();
    let b = run_flows_full_resolve(&net, &specs).unwrap();
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    // Full resolve solves 3 flows, then 2, then 1; incremental solves
    // each pair exactly once (at activation) and never again.
    assert!(
        a.solver_work < b.solver_work,
        "incremental {} vs full {}",
        a.solver_work,
        b.solver_work
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental engine matches the full-resolve reference
    /// bit-exactly on random released flow sets while doing no more
    /// solver work.
    #[test]
    fn incremental_fluid_engine_matches_full_resolve(
        n in 2usize..16,
        pairs in proptest::collection::vec((0usize..16, 0usize..16, 1u64..1_000_000), 1..24),
    ) {
        let net = star_cluster(n, 1e9, 500e-9);
        let specs: Vec<FlowSpec> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(s, d, _))| s % n != d % n)
            .map(|(i, &(s, d, bytes))| {
                FlowSpec::released_at(s % n, d % n, bytes, (i % 5) as f64 * 1e-4)
            })
            .collect();
        prop_assume!(!specs.is_empty());
        let incremental = run_flows(&net, &specs).expect("incremental");
        let full = run_flows_full_resolve(&net, &specs).expect("full resolve");
        prop_assert_eq!(incremental.makespan_s.to_bits(), full.makespan_s.to_bits());
        for (a, b) in incremental.flows.iter().zip(&full.flows) {
            prop_assert_eq!(a.finish_s.to_bits(), b.finish_s.to_bits());
        }
        prop_assert!(incremental.solver_work <= full.solver_work);
    }
}

/// The acceptance-criterion measurement: on a 128-host incast with
/// staggered flow sizes (127 completion events), the incremental engine
/// does measurably less progressive-filling work than the full-resolve
/// reference — while agreeing bit-exactly.
#[test]
fn incremental_solver_reduces_work_on_128_host_incast() {
    let n = 128;
    let net = star_cluster(n, 12.5e9, 500e-9);
    let specs: Vec<FlowSpec> = (1..n)
        .map(|i| FlowSpec::new(i, 0, (1 << 16) + (i as u64) * 4096))
        .collect();
    let incremental = run_flows(&net, &specs).expect("incremental");
    let full = run_flows_full_resolve(&net, &specs).expect("full resolve");
    assert_eq!(incremental.makespan_s.to_bits(), full.makespan_s.to_bits());
    for (a, b) in incremental.flows.iter().zip(&full.flows) {
        assert_eq!(a.finish_s.to_bits(), b.finish_s.to_bits());
    }
    assert!(
        incremental.solver_work < full.solver_work,
        "incremental {} must beat full {}",
        incremental.solver_work,
        full.solver_work
    );
    println!(
        "128-host incast solver work: full={} incremental={} ({:.1}% of full)",
        full.solver_work,
        incremental.solver_work,
        100.0 * incremental.solver_work as f64 / full.solver_work as f64
    );
}
