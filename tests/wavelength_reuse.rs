//! The paper's core thesis, observed in the stepped model's wavelength
//! assignment: Wrht *reuses* wavelengths across link-disjoint groups, which
//! is exactly what lets a step finish with `⌊m/2⌋` channels regardless of
//! how many groups transmit.

// Test-only code: assertions compare sets, never iterate them into results,
// so hash ordering cannot leak. wrht-analyze exempts test code for the same
// reason.
#![allow(clippy::disallowed_types)]

use optical_sim::{Direction, Occupancy, RingTopology, StepSchedule, Strategy};
use std::collections::HashSet;
use wrht_core::lower::to_optical_schedule;
use wrht_core::plan::build_plan;

/// One transfer of a placed step: its endpoints, resolved direction and
/// assigned wavelengths.
struct Placed {
    src: usize,
    dst: usize,
    direction: Direction,
    lambdas: Vec<usize>,
}

/// Step `k` of `sched` placed as the stepped model places it on an
/// `n`-node ring of `w` wavelengths: each transfer resolved to its
/// lightpath and First-Fit-assigned its lanes on the step's fresh
/// occupancy, in step order.
fn placed_step(sched: &StepSchedule, k: usize, n: usize, w: usize) -> Vec<Placed> {
    let topo = RingTopology::new(n);
    let mut occ = Occupancy::new(n, w);
    sched.steps()[k]
        .iter()
        .map(|t| {
            let path = t.resolve(&topo).unwrap();
            let lambdas = occ.assign(&path, t.lanes, Strategy::FirstFit).unwrap();
            Placed {
                src: t.src.0,
                dst: t.dst.0,
                direction: path.direction,
                lambdas: lambdas.iter().map(|l| l.0).collect(),
            }
        })
        .collect()
}

#[test]
fn first_level_reuses_wavelengths_across_groups() {
    let n = 64;
    let m = 8;
    let w = 16;
    let plan = build_plan(n, m, w).unwrap();
    let sched = to_optical_schedule(&plan, 1 << 20);
    let level0 = placed_step(&sched, 0, n, w);
    // 64/8 = 8 groups, 7 senders each.
    assert_eq!(level0.len(), 8 * 7);

    // Distinct wavelengths used across the WHOLE step never exceed the
    // per-group requirement * lanes — the groups all reuse the same set.
    let all_lambdas: HashSet<usize> = level0
        .iter()
        .flat_map(|e| e.lambdas.iter().copied())
        .collect();
    let per_group_budget = plan.levels[0].lambda_requirement * plan.levels[0].lanes;
    assert!(
        all_lambdas.len() <= per_group_budget,
        "step uses {} distinct lambdas, budget {per_group_budget}",
        all_lambdas.len()
    );

    // At least two different groups use the same wavelength (the reuse).
    let mut groups_per_lambda: std::collections::HashMap<usize, HashSet<usize>> =
        std::collections::HashMap::new();
    for e in &level0 {
        // Group index = receiver's group = dst / m at level 0.
        let group = e.dst / m;
        for &l in &e.lambdas {
            groups_per_lambda.entry(l).or_default().insert(group);
        }
    }
    assert!(
        groups_per_lambda.values().any(|gs| gs.len() >= 2),
        "no wavelength was reused across groups"
    );
}

#[test]
fn oring_trace_shows_single_wavelength() {
    use wrht_core::baselines::oring_schedule;
    let n = 16;
    let sched = oring_schedule(n, 1600, 4);
    let lambdas: HashSet<usize> = (0..sched.len())
        .flat_map(|k| placed_step(&sched, k, n, 8))
        .flat_map(|e| e.lambdas)
        .collect();
    // The paper's complaint about Ring on optical: one wavelength, ever.
    assert_eq!(lambdas, HashSet::from([0]));
}

#[test]
fn group_sides_travel_in_opposite_directions() {
    let plan = build_plan(32, 5, 8).unwrap();
    let sched = to_optical_schedule(&plan, 1 << 16);
    for e in placed_step(&sched, 0, 32, 8) {
        // Left-side members sit below their representative and transmit
        // clockwise; right-side members above it transmit counter-clockwise.
        if e.src < e.dst {
            assert_eq!(e.direction, Direction::Clockwise);
        } else {
            assert_eq!(e.direction, Direction::CounterClockwise);
        }
    }
}
