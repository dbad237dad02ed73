//! Construction of the Wrht hierarchical-tree plan.
//!
//! A plan records, for each reduce-stage level, the contiguous groups and
//! their representative (middle) nodes, and the final all-to-all among the
//! surviving representatives. The broadcast stage is the mirror image and
//! is derived from the same levels by [`crate::lower`].

use crate::alltoall::reps_alltoall_wavelengths;
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
        let rep = middle(&members);
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
        self.alltoall
            .as_ref()
            .map_or(0, |ata| reps_hop_span(self.n, &ata.reps))
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
    let mut plans = walk_plans(ring_n, participants, m, w, 1)?;
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
    walk_plans(ring_n, participants, m, w, usize::MAX)
}

/// Walk the reduce levels over `participants`, collecting a plan for every
/// feasible all-to-all stop (earliest first) and the run-to-root plan
/// (last), up to `limit` plans.
fn walk_plans(
    ring_n: usize,
    participants: &[usize],
    m: usize,
    w: usize,
    limit: usize,
) -> Result<Vec<WrhtPlan>> {
    let mut walk = LevelWalk::default();
    walk.start(ring_n, participants, m, w)?;
    let mut levels: Vec<Level> = Vec::new();
    let mut plans: Vec<WrhtPlan> = Vec::new();
    loop {
        if walk.active().len() == 1 {
            // Run-to-root plan: reduce to one node, broadcast back.
            plans.push(walk.plan(levels, None));
            return Ok(plans);
        }
        if let Some(alltoall) = walk.alltoall()? {
            plans.push(walk.plan(levels.clone(), Some(alltoall)));
            if plans.len() == limit {
                return Ok(plans);
            }
        }
        levels.push(walk.level());
    }
}

/// Build the plan the group-size search kept: group size `m`, `depth`
/// reduce levels, then `alltoall` (a stop [`LevelWalk::alltoall`]
/// reported at that depth), or no all-to-all when `depth` reaches the
/// single root. No trial runs again.
pub(crate) fn build_candidate(
    n: usize,
    m: usize,
    w: usize,
    depth: usize,
    alltoall: Option<StepShape>,
) -> Result<WrhtPlan> {
    let everyone: Vec<usize> = (0..n).collect();
    let mut walk = LevelWalk::default();
    walk.start(n, &everyone, m, w)?;
    let levels = (0..depth).map(|_| walk.level()).collect();
    Ok(walk.plan(levels, alltoall))
}

/// One step of a plan as the cost model prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepShape {
    /// Wavelength groups the step needs.
    pub(crate) lambda_requirement: usize,
    /// Striping lanes per transfer.
    pub(crate) lanes: usize,
    /// Longest hop distance of one transfer.
    pub(crate) hop_span: usize,
}

/// The representative of a group of ascending positions: its middle
/// member.
fn middle(members: &[usize]) -> usize {
    members[members.len() / 2]
}

/// Longest shortest-path hop distance between two of `reps` on a ring of
/// `ring_n` nodes (0 for fewer than two). Two nodes `d` positions apart
/// are `d` hops apart one way and `n - d` the other.
fn reps_hop_span(ring_n: usize, reps: &[usize]) -> usize {
    let n = ring_n.max(2);
    reps.iter()
        .enumerate()
        .flat_map(|(i, &a)| reps[i + 1..].iter().map(move |&b| a.abs_diff(b)))
        .map(|d| d.min(n.saturating_sub(d)))
        .max()
        .unwrap_or(0)
}

/// The reduce levels of a Wrht tree, one at a time. Each level partitions
/// the active positions into contiguous groups of `m` and keeps their
/// middle members as the next level's active positions. The first level
/// reads the participants in place; two position buffers hold the later
/// levels' active positions and the next ones. They swap at every level,
/// and a new [`LevelWalk::start`] reuses them.
#[derive(Debug, Default)]
pub(crate) struct LevelWalk<'a> {
    ring_n: usize,
    m: usize,
    w: usize,
    /// The participants: the active positions until the first descent.
    participants: &'a [usize],
    /// Whether the walk has descended, so that `active` holds the active
    /// positions.
    descended: bool,
    /// The current level's active positions once descended, strictly
    /// ascending.
    active: Vec<usize>,
    /// Scratch for the next level's representatives.
    next: Vec<usize>,
}

impl<'a> LevelWalk<'a> {
    /// Start a walk over `participants` of a ring of `ring_n` nodes with
    /// group size `m` and `w` wavelengths.
    ///
    /// # Errors
    /// As [`candidate_plans_over`].
    pub(crate) fn start(
        &mut self,
        ring_n: usize,
        participants: &'a [usize],
        m: usize,
        w: usize,
    ) -> Result<()> {
        let Some(&last) = participants.last() else {
            return Err(WrhtError::NoNodes);
        };
        if let Some(pair) = participants.windows(2).find(|p| p[0] >= p[1]) {
            return Err(WrhtError::ParticipantsNotAscending {
                previous: pair[0],
                node: pair[1],
            });
        }
        // `RingTopology::check_node`'s test, spelled out: a one-node ring is
        // a valid planning input, but a `RingTopology` needs two nodes.
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
        (self.ring_n, self.m, self.w) = (ring_n, m, w);
        self.participants = participants;
        self.descended = false;
        Ok(())
    }

    /// The current level's active positions.
    pub(crate) fn active(&self) -> &[usize] {
        if self.descended {
            &self.active
        } else {
            self.participants
        }
    }

    /// The all-to-all among the active positions, when the wavelength
    /// budget fits it: within the `⌈k²/8⌉` bound and within a trial
    /// First-Fit assignment, whose peak becomes its requirement.
    ///
    /// # Errors
    /// The trial's, which a validated walk never meets.
    pub(crate) fn alltoall(&self) -> Result<Option<StepShape>> {
        let active = self.active();
        let k = active.len();
        if k < 2 || alltoall_wavelength_requirement(k) > self.w {
            return Ok(None);
        }
        // Two distinct positions below `ring_n`: the ring has two nodes at
        // least.
        let topo = RingTopology::try_new(self.ring_n)?;
        let measured = reps_alltoall_wavelengths(&topo, active)?;
        Ok((measured <= self.w).then(|| StepShape {
            lambda_requirement: measured,
            lanes: (self.w / measured).max(1),
            hop_span: reps_hop_span(self.ring_n, active),
        }))
    }

    /// The current level's groups: runs of `m` consecutive active
    /// positions (the last may be shorter).
    fn groups(&self) -> std::slice::Chunks<'_, usize> {
        self.active().chunks(self.m)
    }

    /// Partition the active positions into groups, move to their
    /// representatives and return the level's shape: the groups' largest
    /// side (at least 1), the lanes that leaves each transfer, and the
    /// farthest member's hops to its representative.
    pub(crate) fn descend(&mut self) -> StepShape {
        let mut next = std::mem::take(&mut self.next);
        next.clear();
        let mut side = 1;
        let mut hop_span = 0;
        for group in self.groups() {
            let rep = middle(group);
            // Ascending members: the lower side is the larger one, and an
            // end member is the farthest.
            side = side.max(group.len() / 2);
            hop_span = hop_span.max((rep - group[0]).max(group[group.len() - 1] - rep));
            next.push(rep);
        }
        self.next = std::mem::replace(&mut self.active, next);
        self.descended = true;
        StepShape {
            lambda_requirement: side,
            lanes: (self.w / side).max(1),
            hop_span,
        }
    }

    /// [`LevelWalk::descend`], building the level's groups on the way.
    fn level(&mut self) -> Level {
        let groups = self.groups().map(|c| Group::new(c.to_vec())).collect();
        let shape = self.descend();
        Level {
            groups,
            lambda_requirement: shape.lambda_requirement,
            lanes: shape.lanes,
        }
    }

    /// The plan of `levels` stopped here, with `alltoall` among the active
    /// positions or none (at the single root).
    fn plan(&self, levels: Vec<Level>, alltoall: Option<StepShape>) -> WrhtPlan {
        WrhtPlan {
            n: self.ring_n,
            m: self.m,
            wavelengths: self.w,
            levels,
            alltoall: alltoall.map(|a| AllToAll {
                reps: self.active().to_vec(),
                lambda_requirement: a.lambda_requirement,
                lanes: a.lanes,
            }),
            final_reps: self.active().to_vec(),
        }
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
