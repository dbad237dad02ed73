//! Construction of the Wrht hierarchical-tree plan.
//!
//! A plan records, for each reduce-stage level, the contiguous groups and
//! their representative (middle) nodes, and the final all-to-all among the
//! surviving representatives. The broadcast stage is the mirror image and
//! is derived from the same levels by [`crate::lower`].

use crate::alltoall::{alltoall_pairs, measured_alltoall_wavelengths};
use crate::error::{Result, WrhtError};
use crate::steps::{alltoall_wavelength_requirement, tree_wavelength_requirement};
use optical_sim::topology::{NodeId, RingTopology};
use optical_sim::OpticalError;
use serde::{Deserialize, Serialize};

/// One contiguous group at some tree level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Ring positions of the members, ascending.
    pub members: Vec<usize>,
    /// The representative (middle member).
    pub rep: usize,
}

impl Group {
    /// Build a group over `members` (ascending ring positions), selecting
    /// the middle node as representative.
    #[must_use]
    pub fn new(members: Vec<usize>) -> Self {
        debug_assert!(!members.is_empty());
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let rep = members[members.len() / 2];
        Self { members, rep }
    }

    /// Members below the representative (they transmit clockwise).
    #[must_use]
    pub fn left_side(&self) -> Vec<usize> {
        self.members
            .iter()
            .copied()
            .filter(|&p| p < self.rep)
            .collect()
    }

    /// Members above the representative (they transmit counter-clockwise).
    #[must_use]
    pub fn right_side(&self) -> Vec<usize> {
        self.members
            .iter()
            .copied()
            .filter(|&p| p > self.rep)
            .collect()
    }

    /// Size of the larger side = wavelength groups this group needs.
    #[must_use]
    pub fn wavelength_requirement(&self) -> usize {
        let below = self.members.iter().filter(|&&p| p < self.rep).count();
        let above = self.members.iter().filter(|&&p| p > self.rep).count();
        below.max(above)
    }

    /// Longest member→representative hop distance in this group.
    ///
    /// The lowering sends members below the representative clockwise and
    /// members above it counter-clockwise, so each member pays exactly
    /// `|member − rep|` ring hops. Computed with `abs_diff` so unsorted or
    /// wrapped member lists (e.g. hand-built or deserialized groups whose
    /// representative is not between `first` and `last`) measure correctly
    /// instead of underflowing.
    #[must_use]
    pub fn hop_span(&self) -> usize {
        self.members
            .iter()
            .map(|&m| m.abs_diff(self.rep))
            .max()
            .unwrap_or(0)
    }
}

/// One reduce-stage level: a partition of the currently active nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Level {
    /// The level's groups, in ring order.
    pub groups: Vec<Group>,
    /// Wavelength groups required: the largest group side at this level
    /// (`⌊m/2⌋` when every group is full).
    pub lambda_requirement: usize,
    /// Striping lanes per transfer: `max(1, ⌊w / lambda_requirement⌋)`.
    pub lanes: usize,
}

impl Level {
    /// Longest member→representative hop distance over the level's groups
    /// (the step duration is set by the farthest transmitter).
    #[must_use]
    pub fn max_hop_span(&self) -> usize {
        self.groups.iter().map(Group::hop_span).max().unwrap_or(0)
    }
}

/// The final all-to-all step among surviving representatives.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllToAll {
    /// Ring positions of the participants.
    pub reps: Vec<usize>,
    /// Wavelengths a unit-lane assignment actually needs (measured by a
    /// trial First-Fit RWA; upper-bounded by `⌈m*²/8⌉` in theory).
    pub lambda_requirement: usize,
    /// Striping lanes per transfer.
    pub lanes: usize,
}

/// A complete Wrht plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrhtPlan {
    /// Ring size.
    pub n: usize,
    /// Group size the tree was built with.
    pub m: usize,
    /// Wavelengths per waveguide.
    pub wavelengths: usize,
    /// Reduce-stage levels, root-most last.
    pub levels: Vec<Level>,
    /// The fused all-to-all step (absent only when `n == 1`, or when the
    /// recursion collapses to a single representative first).
    pub alltoall: Option<AllToAll>,
    /// The surviving representatives after the reduce stage.
    pub final_reps: Vec<usize>,
}

impl WrhtPlan {
    /// Total communication steps: reduce levels + optional all-to-all +
    /// mirrored broadcast levels.
    #[must_use]
    pub fn step_count(&self) -> usize {
        2 * self.levels.len() + usize::from(self.alltoall.is_some())
    }

    /// Tree depth (number of reduce levels).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Longest shortest-path hop distance between any two all-to-all
    /// participants (0 when the plan has no all-to-all step).
    #[must_use]
    pub fn alltoall_hop_span(&self) -> usize {
        let Some(ata) = &self.alltoall else { return 0 };
        let n = self.n.max(2);
        ata.reps
            .iter()
            .flat_map(|&a| ata.reps.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| {
                let cw = (b + n - a) % n;
                cw.min(n - cw)
            })
            .max()
            .unwrap_or(0)
    }

    /// Peak wavelength-group requirement over all steps.
    #[must_use]
    pub fn peak_lambda_requirement(&self) -> usize {
        let tree = self
            .levels
            .iter()
            .map(|l| l.lambda_requirement)
            .max()
            .unwrap_or(0);
        let ata = self.alltoall.as_ref().map_or(0, |a| a.lambda_requirement);
        tree.max(ata)
    }
}

/// When does the recursion stop and hand over to the all-to-all step?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StopPolicy {
    /// The paper's rule: stop at the **first** level whose survivors fit an
    /// all-to-all within the wavelength budget.
    #[default]
    EarliestFeasible,
    /// Extension (Wrht⁺): consider **every** feasible stop level (and the
    /// run-to-root plan) and let the cost model pick; implemented by
    /// [`candidate_plans`] + the optimizer.
    BestDepth,
}

/// Build the Wrht plan for `n` nodes, group size `m`, `w` wavelengths,
/// with the paper's earliest-feasible stop rule.
///
/// Follows the paper: partition into contiguous groups of `m`, pick middle
/// representatives, recurse **until the wavelengths suffice for an
/// all-to-all among the survivors** (checked both against the `⌈m*²/8⌉`
/// bound and an actual trial wavelength assignment). Levels past that stop
/// are never built.
///
/// ```
/// use wrht_core::plan::build_plan;
///
/// let plan = build_plan(64, 8, 64).unwrap();
/// assert_eq!(plan.m, 8);
/// assert_eq!(plan.levels[0].groups.len(), 64 / 8);
/// assert!(plan.step_count() >= 1);
/// ```
pub fn build_plan(n: usize, m: usize, w: usize) -> Result<WrhtPlan> {
    let everyone: Vec<usize> = (0..n).collect();
    build_plan_over(n, &everyone, m, w)
}

/// Enumerate every structurally distinct Wrht plan for `(n, m, w)`:
/// one per feasible all-to-all stop level (earliest first), plus the
/// run-to-single-root plan (always last). The first element is exactly the
/// paper's plan ([`StopPolicy::EarliestFeasible`]).
pub fn candidate_plans(n: usize, m: usize, w: usize) -> Result<Vec<WrhtPlan>> {
    let everyone: Vec<usize> = (0..n).collect();
    candidate_plans_over(n, &everyone, m, w)
}

/// Build the paper's plan over a *subset* of ring nodes — the
/// fault-tolerance extension: when nodes fail, the all-reduce re-plans over
/// the survivors (failed nodes' micro-rings keep bypassing light, so paths
/// may pass through them).
///
/// # Errors
/// As [`candidate_plans_over`].
pub fn build_plan_over(
    ring_n: usize,
    participants: &[usize],
    m: usize,
    w: usize,
) -> Result<WrhtPlan> {
    let mut plans = walk_levels(ring_n, participants, m, w, true)?;
    // The walk always ends in at least the run-to-root plan.
    Ok(plans.swap_remove(0))
}

/// [`candidate_plans`] over an explicit participant set.
///
/// # Errors
/// - [`WrhtError::NoNodes`] for an empty participant set;
/// - [`WrhtError::ParticipantsNotAscending`] unless the participants are
///   strictly ascending (sorted, no duplicates);
/// - [`optical_sim::OpticalError::NodeOutOfRange`] (wrapped in
///   [`WrhtError::Optical`]) for a participant `>= ring_n`;
/// - [`WrhtError::GroupSizeTooSmall`] and
///   [`WrhtError::GroupSizeNeedsMoreWavelengths`] for an unusable `m`.
pub fn candidate_plans_over(
    ring_n: usize,
    participants: &[usize],
    m: usize,
    w: usize,
) -> Result<Vec<WrhtPlan>> {
    walk_levels(ring_n, participants, m, w, false)
}

/// Walk the reduce levels over `participants`, collecting a plan for every
/// feasible all-to-all stop (earliest first) and the run-to-root plan
/// (last). With `stop_at_first` the walk returns the first of these alone.
fn walk_levels(
    ring_n: usize,
    participants: &[usize],
    m: usize,
    w: usize,
    stop_at_first: bool,
) -> Result<Vec<WrhtPlan>> {
    let Some(&last) = participants.last() else {
        return Err(WrhtError::NoNodes);
    };
    if let Some(pair) = participants.windows(2).find(|p| p[0] >= p[1]) {
        return Err(WrhtError::ParticipantsNotAscending {
            previous: pair[0],
            node: pair[1],
        });
    }
    // `RingTopology::check_node`'s test, spelled out: a one-node ring is a
    // valid planning input, but a `RingTopology` needs two nodes.
    if last >= ring_n {
        return Err(OpticalError::NodeOutOfRange {
            node: NodeId(last),
            n: ring_n,
        }
        .into());
    }
    if m < 2 {
        return Err(WrhtError::GroupSizeTooSmall(m));
    }
    if tree_wavelength_requirement(m) > w {
        return Err(WrhtError::GroupSizeNeedsMoreWavelengths { m, wavelengths: w });
    }

    let plan = |levels, final_reps, alltoall| WrhtPlan {
        n: ring_n,
        m,
        wavelengths: w,
        levels,
        alltoall,
        final_reps,
    };
    if participants.len() == 1 {
        return Ok(vec![plan(Vec::new(), vec![last], None)]);
    }

    // Two distinct participants below `ring_n`: the ring has two nodes at
    // least.
    let topo = RingTopology::try_new(ring_n)?;
    let mut active: Vec<usize> = participants.to_vec();
    let mut levels: Vec<Level> = Vec::new();
    let mut candidates: Vec<WrhtPlan> = Vec::new();

    loop {
        if active.len() == 1 {
            // Run-to-root plan: reduce to one node, broadcast back.
            candidates.push(plan(levels, active, None));
            return Ok(candidates);
        }
        // Would stopping here (all-to-all among `active`) be feasible?
        if alltoall_wavelength_requirement(active.len()) <= w {
            let pairs = alltoall_pairs(&active);
            let measured = measured_alltoall_wavelengths(&topo, &pairs, w)?;
            if measured <= w {
                let alltoall = Some(AllToAll {
                    reps: active.clone(),
                    lambda_requirement: measured,
                    lanes: (w / measured).max(1),
                });
                if stop_at_first {
                    return Ok(vec![plan(levels, active, alltoall)]);
                }
                candidates.push(plan(levels.clone(), active.clone(), alltoall));
            }
        }
        // Partition into contiguous groups of m and recurse on the middles.
        let groups: Vec<Group> = active.chunks(m).map(|c| Group::new(c.to_vec())).collect();
        let lambda_requirement = groups
            .iter()
            .map(Group::wavelength_requirement)
            .max()
            .unwrap_or(0)
            .max(1);
        let lanes = (w / lambda_requirement).max(1);
        active = groups.iter().map(|g| g.rep).collect();
        levels.push(Level {
            groups,
            lambda_requirement,
            lanes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sides_and_requirement() {
        let g = Group::new(vec![0, 1, 2, 3, 4]);
        assert_eq!(g.rep, 2);
        assert_eq!(g.left_side(), vec![0, 1]);
        assert_eq!(g.right_side(), vec![3, 4]);
        assert_eq!(g.wavelength_requirement(), 2); // floor(5/2)

        let g = Group::new(vec![10, 11, 12, 13]);
        assert_eq!(g.rep, 12);
        assert_eq!(g.wavelength_requirement(), 2); // floor(4/2)

        let g = Group::new(vec![7]);
        assert_eq!(g.rep, 7);
        assert_eq!(g.wavelength_requirement(), 0);
    }

    #[test]
    fn hop_span_matches_first_last_for_sorted_groups() {
        let g = Group::new(vec![4, 5, 6, 7, 8]);
        assert_eq!(g.hop_span(), (g.rep - 4).max(8 - g.rep));
        let g = Group::new(vec![3]);
        assert_eq!(g.hop_span(), 0);
    }

    #[test]
    fn hop_span_is_defensive_for_wrapped_and_unsorted_groups() {
        // A wrapped ring group whose representative is numerically the
        // smallest member: (rep - first) would underflow.
        let wrapped = Group {
            members: vec![30, 31, 0, 1],
            rep: 0,
        };
        assert_eq!(wrapped.hop_span(), 31);
        // Unsorted members with the representative not between the list's
        // first and last elements.
        let unsorted = Group {
            members: vec![5, 3, 8],
            rep: 3,
        };
        assert_eq!(unsorted.hop_span(), 5);
    }

    #[test]
    fn level_and_alltoall_spans_aggregate_groups() {
        let p = build_plan(64, 4, 16).unwrap();
        for level in &p.levels {
            assert_eq!(
                level.max_hop_span(),
                level.groups.iter().map(Group::hop_span).max().unwrap()
            );
        }
        let ata = p.alltoall.as_ref().unwrap();
        assert!(p.alltoall_hop_span() <= p.n / 2);
        assert!(ata.reps.len() >= 2);
        // A plan without an all-to-all reports a zero span.
        let root = candidate_plans(64, 4, 16).unwrap().pop().unwrap();
        assert!(root.alltoall.is_none());
        assert_eq!(root.alltoall_hop_span(), 0);
    }

    #[test]
    fn plan_rejects_bad_params() {
        assert!(matches!(build_plan(0, 2, 4), Err(WrhtError::NoNodes)));
        assert!(matches!(
            build_plan(8, 1, 4),
            Err(WrhtError::GroupSizeTooSmall(1))
        ));
        assert!(matches!(
            build_plan(64, 20, 4),
            Err(WrhtError::GroupSizeNeedsMoreWavelengths { .. })
        ));
    }

    #[test]
    fn single_node_plan_is_empty() {
        let p = build_plan(1, 2, 4).unwrap();
        assert_eq!(p.step_count(), 0);
        assert!(p.alltoall.is_none());
    }

    #[test]
    fn two_nodes_is_one_alltoall_step() {
        let p = build_plan(2, 2, 1).unwrap();
        assert_eq!(p.depth(), 0);
        assert_eq!(p.step_count(), 1);
        let ata = p.alltoall.unwrap();
        assert_eq!(ata.reps, vec![0, 1]);
        assert_eq!(ata.lambda_requirement, 1);
    }

    #[test]
    fn ample_wavelengths_short_circuit_to_single_step() {
        // ceil(16^2/8) = 32 <= 64: all 16 nodes all-to-all at once.
        let p = build_plan(16, 4, 64).unwrap();
        assert_eq!(p.depth(), 0);
        assert_eq!(p.step_count(), 1);
    }

    #[test]
    fn scarce_wavelengths_build_a_deep_tree() {
        // w = 1: groups of 2 (m=2 needs floor(2/2)=1 lambda); all-to-all
        // feasible only among 2 reps (ceil(4/8)=1).
        let p = build_plan(64, 2, 1).unwrap();
        assert_eq!(p.final_reps.len(), 2);
        // 64 -> 32 -> 16 -> 8 -> 4 -> 2: five levels, then all-to-all.
        assert_eq!(p.depth(), 5);
        assert_eq!(p.step_count(), 11);
        for level in &p.levels {
            assert_eq!(level.lambda_requirement, 1);
            assert_eq!(level.lanes, 1);
        }
    }

    #[test]
    fn levels_shrink_by_factor_m() {
        let p = build_plan(1024, 4, 8).unwrap();
        let mut expected = 1024usize;
        for level in &p.levels {
            assert_eq!(
                level.groups.iter().map(|g| g.members.len()).sum::<usize>(),
                expected
            );
            expected = expected.div_ceil(4);
        }
    }

    #[test]
    fn groups_are_contiguous_and_disjoint() {
        let p = build_plan(100, 7, 16).unwrap();
        let level = &p.levels[0];
        let mut seen = Vec::new();
        for g in &level.groups {
            assert!(g.members.len() <= 7);
            assert!(g.members.windows(2).all(|w| w[1] == w[0] + 1));
            seen.extend_from_slice(&g.members);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_scale_with_spare_wavelengths() {
        let p = build_plan(1024, 8, 64).unwrap();
        // floor(8/2) = 4 lambda groups; 64/4 = 16 lanes.
        assert_eq!(p.levels[0].lambda_requirement, 4);
        assert_eq!(p.levels[0].lanes, 16);
    }

    #[test]
    fn final_reps_match_alltoall() {
        let p = build_plan(256, 4, 16).unwrap();
        let ata = p.alltoall.as_ref().unwrap();
        assert_eq!(ata.reps, p.final_reps);
        assert!(ata.lambda_requirement <= 16);
        assert!(p.peak_lambda_requirement() <= 16);
    }

    #[test]
    fn candidate_plans_enumerate_stop_levels() {
        // n=1024, m=2, w=64: feasible stops at 16, 8, 4, 2 survivors plus
        // the run-to-root plan.
        let candidates = candidate_plans(1024, 2, 64).unwrap();
        assert!(candidates.len() >= 3);
        // First candidate is the paper's earliest-feasible plan.
        assert_eq!(candidates[0], build_plan(1024, 2, 64).unwrap());
        // Depths strictly increase; the last has a single root and no
        // all-to-all.
        for w in candidates.windows(2) {
            assert!(w[0].depth() < w[1].depth());
        }
        let root = candidates.last().unwrap();
        assert!(root.alltoall.is_none());
        assert_eq!(root.final_reps.len(), 1);
        // All intermediate candidates end in an all-to-all.
        for c in &candidates[..candidates.len() - 1] {
            assert!(c.alltoall.is_some());
        }
    }

    #[test]
    fn subset_planning_skips_failed_nodes() {
        // Nodes 3, 10 and 11 failed on a 16-ring.
        let survivors: Vec<usize> = (0..16).filter(|p| ![3, 10, 11].contains(p)).collect();
        let plan = build_plan_over(16, &survivors, 4, 2).unwrap();
        assert_eq!(plan.n, 16); // physical ring unchanged
        let mut seen: Vec<usize> = plan.levels[0]
            .groups
            .iter()
            .flat_map(|g| g.members.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, survivors);
        for g in &plan.levels[0].groups {
            assert!(!g.members.contains(&3));
        }
    }

    #[test]
    fn subset_of_one_is_trivial() {
        let plan = build_plan_over(8, &[5], 2, 1).unwrap();
        assert_eq!(plan.step_count(), 0);
        assert_eq!(plan.final_reps, vec![5]);
    }

    #[test]
    fn empty_subset_errors() {
        assert!(matches!(
            build_plan_over(8, &[], 2, 1),
            Err(WrhtError::NoNodes)
        ));
    }

    #[test]
    fn subset_with_out_of_range_node_errors() {
        assert_eq!(
            build_plan_over(8, &[3, 9], 2, 4),
            Err(WrhtError::Optical(OpticalError::NodeOutOfRange {
                node: NodeId(9),
                n: 8
            }))
        );
    }

    #[test]
    fn unsorted_subset_errors() {
        assert_eq!(
            build_plan_over(16, &[9, 3, 5], 2, 4),
            Err(WrhtError::ParticipantsNotAscending {
                previous: 9,
                node: 3
            })
        );
    }

    #[test]
    fn duplicate_participant_errors() {
        assert_eq!(
            build_plan_over(16, &[3, 3, 5], 2, 4),
            Err(WrhtError::ParticipantsNotAscending {
                previous: 3,
                node: 3
            })
        );
    }

    #[test]
    fn build_plan_is_the_first_candidate() {
        // Stopping the walk at the first feasible level builds the same
        // plan the full enumeration lists first, on full rings and subsets.
        for (n, m, w) in [
            (64usize, 4usize, 4usize),
            (100, 7, 16),
            (256, 3, 8),
            (1024, 2, 1),
        ] {
            assert_eq!(
                build_plan(n, m, w).unwrap(),
                candidate_plans(n, m, w).unwrap().swap_remove(0)
            );
            let odd: Vec<usize> = (1..n).step_by(2).collect();
            assert_eq!(
                build_plan_over(n, &odd, m, w).unwrap(),
                candidate_plans_over(n, &odd, m, w).unwrap().swap_remove(0)
            );
        }
    }

    #[test]
    fn candidate_plans_single_node() {
        let candidates = candidate_plans(1, 4, 8).unwrap();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].step_count(), 0);
    }

    #[test]
    fn stop_policy_default_is_paper_rule() {
        assert_eq!(StopPolicy::default(), StopPolicy::EarliestFeasible);
    }

    #[test]
    fn step_count_parity() {
        // With an all-to-all the step count is odd; the paper's
        // "2*ceil(log_m N) - 1" case.
        for (n, m, w) in [(64usize, 4usize, 4usize), (128, 2, 2), (1024, 8, 16)] {
            let p = build_plan(n, m, w).unwrap();
            assert_eq!(p.step_count() % 2, 1, "n={n} m={m} w={w}");
        }
    }
}
