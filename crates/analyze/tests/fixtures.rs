//! Fixture suite: every rule has at least one firing and one silent
//! fixture, and the tricky scanner cases (strings, comments, `#[cfg(test)]`
//! regions, malformed pragmas) are pinned down as data, not prose.
//!
//! Fixture files live in `tests/fixtures/` (not direct children of
//! `tests/`), so cargo never compiles them — they only exist as analyzer
//! input. Each is analyzed under a *virtual* workspace path to exercise the
//! path-scoped rules (R5 kernel/core/fabric engines, f32 in sim crates).

use wrht_analyze::analyze_source;

/// Analyze `source` as if it lived at `path`; return `(rule id, line)`
/// pairs in report order.
fn findings(path: &str, source: &str) -> Vec<(String, usize)> {
    let (found, _) = analyze_source(path, source);
    found
        .into_iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect()
}

fn expect(path: &str, source: &str, expected: &[(&str, usize)]) {
    let got = findings(path, source);
    let want: Vec<(String, usize)> = expected
        .iter()
        .map(|(r, l)| ((*r).to_string(), *l))
        .collect();
    assert_eq!(got, want, "findings mismatch for {path}");
}

#[test]
fn r1_hash_collections_fire_in_live_code_only() {
    expect(
        "crates/collectives/src/fixture.rs",
        include_str!("fixtures/r1_fail.rs"),
        &[("R1", 2), ("R1", 3), ("R1", 6)],
    );
    expect(
        "crates/collectives/src/fixture.rs",
        include_str!("fixtures/r1_pass.rs"),
        &[],
    );
}

#[test]
fn r2_ambient_time_fires_in_live_code_only() {
    expect(
        "src/fixture.rs",
        include_str!("fixtures/r2_fail.rs"),
        &[("R2", 2), ("R2", 5), ("R2", 6), ("R2", 8)],
    );
    expect("src/fixture.rs", include_str!("fixtures/r2_pass.rs"), &[]);
}

#[test]
fn r3_raw_spawn_fires_but_scoped_threads_pass() {
    expect(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/r3_fail.rs"),
        &[("R3", 5)],
    );
    expect(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/r3_pass.rs"),
        &[],
    );
}

#[test]
fn r4_float_order_fires_on_calls_and_f32_state() {
    // The optical crate is in R5's scope too, so the `expect` that ends
    // the partial_cmp chain is also a no-panic finding.
    expect(
        "crates/optical-sim/src/fixture.rs",
        include_str!("fixtures/r4_fail.rs"),
        &[("R4", 6), ("R5", 6), ("R4", 11)],
    );
    expect(
        "crates/optical-sim/src/fixture.rs",
        include_str!("fixtures/r4_pass.rs"),
        &[],
    );
}

#[test]
fn r5_no_panic_applies_only_under_kernel_and_core() {
    let src = include_str!("fixtures/r5_scoped.rs");
    // The same source under a kernel path: every panic path is a finding.
    expect(
        "crates/kernel/src/fixture.rs",
        src,
        &[("R5", 6), ("R5", 7), ("R5", 9), ("R5", 12)],
    );
    expect(
        "crates/core/src/fixture.rs",
        src,
        &[("R5", 6), ("R5", 7), ("R5", 9), ("R5", 12)],
    );
    // Outside the typed-error crates the same code is allowed.
    expect("crates/bench/src/fixture.rs", src, &[]);
}

#[test]
fn r5_no_panic_covers_the_whole_optical_crate() {
    let src = include_str!("fixtures/r5_scoped.rs");
    for path in [
        "crates/optical-sim/src/engine.rs",
        "crates/optical-sim/src/sim.rs",
        "crates/optical-sim/src/topology.rs",
        "crates/optical-sim/src/rwa.rs",
    ] {
        expect(path, src, &[("R5", 6), ("R5", 7), ("R5", 9), ("R5", 12)]);
    }
    // Its tests are outside the scope.
    expect("crates/optical-sim/tests/proptests.rs", src, &[]);
}

#[test]
fn r5_no_panic_covers_the_whole_electrical_crate() {
    let src = include_str!("fixtures/r5_scoped.rs");
    for path in [
        "crates/electrical-sim/src/engine.rs",
        "crates/electrical-sim/src/runner.rs",
        "crates/electrical-sim/src/maxmin.rs",
        "crates/electrical-sim/src/graph.rs",
    ] {
        expect(path, src, &[("R5", 6), ("R5", 7), ("R5", 9), ("R5", 12)]);
    }
    // Its tests and benches are outside the scope.
    expect("crates/electrical-sim/tests/full_resolve.rs", src, &[]);
}

#[test]
fn r6_float_eq_fires_on_bare_equality_only() {
    expect(
        "crates/electrical-sim/src/fixture.rs",
        include_str!("fixtures/r6_fail.rs"),
        &[("R6", 4), ("R6", 8), ("R6", 12)],
    );
    expect(
        "crates/electrical-sim/src/fixture.rs",
        include_str!("fixtures/r6_pass.rs"),
        &[],
    );
}

#[test]
fn reasoned_pragmas_suppress_and_count() {
    let (found, suppressed) = analyze_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/pragma_pass.rs"),
    );
    assert!(found.is_empty(), "unexpected findings: {found:?}");
    assert_eq!(suppressed, 2, "both pragma forms must count as audited");
}

#[test]
fn malformed_pragmas_are_findings_and_suppress_nothing() {
    expect(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/pragma_fail.rs"),
        &[
            ("P0", 5),
            ("R6", 6),
            ("P0", 10),
            ("R6", 11),
            ("P0", 15),
            ("R6", 16),
        ],
    );
}
