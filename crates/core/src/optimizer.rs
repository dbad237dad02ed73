//! Group-size / stop-level selection and the end-to-end plan→simulate
//! pipeline.
//!
//! The search space is small (`m ∈ 2..=2w+1`, a handful of stop levels per
//! `m`), and the search prices each candidate without building it. One
//! level walk per `m` summarizes every level it passes by its lanes and
//! hop span, over two position buffers the walks of all `m` share, and
//! runs each stop's trial First-Fit RWA on the ring compressed to the
//! all-to-all's endpoints. The cost model prices a candidate from those
//! summaries through the body [`crate::cost::predict_time_s`] uses, and
//! only the winner's [`WrhtPlan`] is built. The summaries depend on the
//! ring size and the wavelength budget alone, so one [`GroupSearch`]
//! prices any number of payloads. The search runs on the caller's thread
//! and starts none of its own.

use crate::cost::{price, CostBreakdown};
use crate::error::{Result, WrhtError};
use crate::lower::to_optical_schedule;
use crate::params::{GroupSize, WrhtParams};
use crate::plan::{build_candidate, build_plan, LevelWalk, StepShape, StopPolicy, WrhtPlan};
use crate::substrate::{OpticalSubstrate, RunReport, Substrate};
use optical_sim::timing::TimingModel;
use optical_sim::OpticalConfig;
use serde::{Deserialize, Serialize};
use std::ops::RangeInclusive;

/// Result of planning (and optionally simulating) a Wrht all-reduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// Group size used.
    pub m: usize,
    /// The constructed plan.
    pub plan: WrhtPlan,
    /// Analytic prediction.
    pub predicted: CostBreakdown,
    /// Simulated communication time (stepped optical substrate), seconds.
    pub simulated_time_s: f64,
    /// Substrate execution report.
    pub report: RunReport,
}

/// One candidate plan: group size `m`, stopped after `depth` reduce
/// levels (shapes `GroupSearch::levels[first..first + depth]`), then the
/// all-to-all `alltoall`, or none for the run-to-root plan.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    m: usize,
    first: usize,
    depth: usize,
    alltoall: Option<StepShape>,
}

/// The group-size search for one ring size, wavelength budget and stop
/// policy: the shape of every candidate plan, walked once, so that it
/// prices any payload without building a plan.
///
/// Build one per cell (or per call) and drop it with the cell: it holds
/// no payload and shares nothing with other searches.
///
/// ```
/// use optical_sim::OpticalConfig;
/// use wrht_core::optimizer::{choose_group_size, GroupSearch};
/// use wrht_core::WrhtParams;
///
/// let params = WrhtParams::auto(128, 16);
/// let config = OpticalConfig::new(128, 16);
/// let search = GroupSearch::new(&params);
/// for bytes in [1u64 << 20, 25 << 20] {
///     let (m, plan, cost) = search.choose(&config, bytes).unwrap();
///     assert_eq!((m, plan, cost), choose_group_size(&params, &config, bytes).unwrap());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GroupSearch {
    n: usize,
    wavelengths: usize,
    /// Each candidate's reduce levels, one run per group size.
    levels: Vec<StepShape>,
    /// In search order: ascending `m`, earliest stop first.
    candidates: Vec<Candidate>,
}

impl GroupSearch {
    /// Walk every group size `2..=params.max_group_size()` and every stop
    /// level `params.stop_policy` allows. A group size whose walk fails
    /// adds no candidate.
    #[must_use]
    pub fn new(params: &WrhtParams) -> Self {
        Self::over(params, 2..=params.max_group_size())
    }

    /// [`GroupSearch::new`] over the group sizes `sizes`.
    fn over(params: &WrhtParams, sizes: RangeInclusive<usize>) -> Self {
        let mut search = Self {
            n: params.n,
            wavelengths: params.wavelengths,
            levels: Vec::new(),
            candidates: Vec::new(),
        };
        let everyone: Vec<usize> = (0..params.n).collect();
        let mut walk = LevelWalk::default();
        for m in sizes {
            let kept = (search.levels.len(), search.candidates.len());
            let walked = walk
                .start(params.n, &everyone, m, params.wavelengths)
                .and_then(|()| search.record(&mut walk, m, params.stop_policy));
            if walked.is_err() {
                search.levels.truncate(kept.0);
                search.candidates.truncate(kept.1);
            }
        }
        search
    }

    /// Record the candidates of group size `m` from its started `walk`:
    /// each feasible all-to-all stop (the first alone under
    /// [`StopPolicy::EarliestFeasible`]) and, unless a stop ended the walk,
    /// the run-to-root plan.
    fn record(&mut self, walk: &mut LevelWalk<'_>, m: usize, policy: StopPolicy) -> Result<()> {
        let first = self.levels.len();
        loop {
            let candidate = |alltoall| Candidate {
                m,
                first,
                depth: self.levels.len() - first,
                alltoall,
            };
            if walk.active().len() == 1 {
                self.candidates.push(candidate(None));
                return Ok(());
            }
            if let Some(alltoall) = walk.alltoall()? {
                self.candidates.push(candidate(Some(alltoall)));
                if policy == StopPolicy::EarliestFeasible {
                    return Ok(());
                }
            }
            self.levels.push(walk.descend());
        }
    }

    /// Price `candidate` for `bytes` per message, into `per_step_s`'s
    /// allocation.
    fn price(
        &self,
        timing: &TimingModel,
        bytes: u64,
        candidate: &Candidate,
        per_step_s: Vec<f64>,
    ) -> CostBreakdown {
        let levels = &self.levels[candidate.first..candidate.first + candidate.depth];
        price(
            timing,
            bytes,
            levels.iter().copied().map(Some),
            candidate.alltoall,
            per_step_s,
        )
    }

    /// The candidate minimizing predicted communication time for `bytes`
    /// per message on `config`, its plan and its prediction.
    ///
    /// The scan runs in ascending `m`, earliest stop first, and keeps a
    /// candidate only when its total is strictly lower, so ties go to the
    /// smallest `m` and then the shallowest plan. Only the winner's plan is
    /// built.
    ///
    /// # Errors
    /// [`WrhtError::NoFeasiblePlan`] when no group size has a plan.
    pub fn choose(
        &self,
        config: &OpticalConfig,
        bytes: u64,
    ) -> Result<(usize, WrhtPlan, CostBreakdown)> {
        let timing = config.timing();
        let mut per_step_s = Vec::new();
        let mut best: Option<(&Candidate, f64)> = None;
        for candidate in &self.candidates {
            let cost = self.price(&timing, bytes, candidate, per_step_s);
            let total = cost.total_s();
            if best.is_none_or(|(_, incumbent)| total < incumbent) {
                best = Some((candidate, total));
            }
            per_step_s = cost.per_step_s;
        }
        let Some((winner, _)) = best else {
            return Err(WrhtError::NoFeasiblePlan {
                n: self.n,
                wavelengths: self.wavelengths,
            });
        };
        let plan = build_candidate(
            self.n,
            winner.m,
            self.wavelengths,
            winner.depth,
            winner.alltoall,
        )?;
        let cost = self.price(&timing, bytes, winner, per_step_s);
        Ok((winner.m, plan, cost))
    }
}

/// Search group sizes `2..=max_group_size` (and, under
/// [`StopPolicy::BestDepth`], every stop level) for the plan minimizing
/// predicted communication time for `bytes` per message: a
/// [`GroupSearch`] priced once.
///
/// The scan runs in ascending `m`, earliest stop first, and keeps a
/// candidate only when its total is strictly lower, so ties go to the
/// smallest `m` and then the shallowest plan.
pub fn choose_group_size(
    params: &WrhtParams,
    config: &OpticalConfig,
    bytes: u64,
) -> Result<(usize, WrhtPlan, CostBreakdown)> {
    GroupSearch::new(params).choose(config, bytes)
}

/// Build a plan per `params` (fixed or optimizer-chosen `m`), lower it and
/// execute it on the stepped optical [`Substrate`] with First-Fit RWA.
///
/// # Errors
/// [`WrhtError::NodeCountMismatch`] when `params` and `config` describe
/// rings of different sizes; otherwise the planner's and the substrate's
/// errors.
pub fn plan_and_simulate(
    params: &WrhtParams,
    config: &OpticalConfig,
    bytes: u64,
) -> Result<PlanOutcome> {
    if params.n != config.nodes {
        return Err(WrhtError::NodeCountMismatch {
            params: params.n,
            config: config.nodes,
        });
    }
    let search = match params.group_size {
        GroupSize::Fixed(m) => {
            let search = GroupSearch::over(params, m..=m);
            if search.candidates.is_empty() {
                // Surface the underlying construction error.
                build_plan(params.n, m, params.wavelengths)?;
            }
            search
        }
        GroupSize::Auto => GroupSearch::new(params),
    };
    let (m, plan, predicted) = search.choose(config, bytes)?;
    let sched = to_optical_schedule(&plan, bytes);
    let mut substrate = OpticalSubstrate::new(config.clone())?;
    let report = substrate.execute(&sched)?;
    Ok(PlanOutcome {
        m,
        plan,
        predicted,
        simulated_time_s: report.total_time_s,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::predict_time_s;

    #[test]
    fn auto_is_at_least_as_good_as_any_fixed_m() {
        let n = 256;
        let w = 16;
        let bytes = 100 << 20;
        let config = OpticalConfig::new(n, w);
        let auto = choose_group_size(&WrhtParams::auto(n, w), &config, bytes).unwrap();
        for m in 2..=WrhtParams::auto(n, w).max_group_size() {
            if let Ok(plan) = build_plan(n, m, w) {
                let cost = predict_time_s(&plan, &config, bytes);
                assert!(
                    auto.2.total_s() <= cost.total_s() + 1e-15,
                    "m={m} beats auto"
                );
            }
        }
    }

    #[test]
    fn best_depth_never_loses_to_earliest_feasible() {
        for (n, w, mb) in [(64usize, 64usize, 25u64), (128, 32, 100), (512, 64, 500)] {
            let config = OpticalConfig::new(n, w);
            let bytes = mb << 20;
            let paper = choose_group_size(&WrhtParams::auto(n, w), &config, bytes).unwrap();
            let plus = choose_group_size(
                &WrhtParams::auto(n, w).with_stop_policy(StopPolicy::BestDepth),
                &config,
                bytes,
            )
            .unwrap();
            assert!(
                plus.2.total_s() <= paper.2.total_s() + 1e-15,
                "n={n}: best-depth {} vs paper {}",
                plus.2.total_s(),
                paper.2.total_s()
            );
        }
    }

    #[test]
    fn best_depth_fixes_the_small_n_pathology() {
        // At n=16, w=64 the paper rule stops immediately with a slow
        // full-buffer all-to-all; BestDepth should find a faster tree.
        let n = 16;
        let w = 64;
        let config = OpticalConfig::paper_defaults(n);
        let bytes = 100u64 << 20;
        let paper = choose_group_size(&WrhtParams::auto(n, w), &config, bytes).unwrap();
        let plus = choose_group_size(
            &WrhtParams::auto(n, w).with_stop_policy(StopPolicy::BestDepth),
            &config,
            bytes,
        )
        .unwrap();
        assert!(
            plus.2.total_s() < paper.2.total_s() * 0.8,
            "expected a clear improvement: {} vs {}",
            plus.2.total_s(),
            paper.2.total_s()
        );
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        // The optimizer's scan at a ring size that once fanned out over
        // threads, against a manual serial scan.
        let n = 512;
        let w = 16;
        let bytes = 10 << 20;
        let config = OpticalConfig::new(n, w);
        let params = WrhtParams::auto(n, w);
        let parallel = choose_group_size(&params, &config, bytes).unwrap();
        let mut serial_best = f64::INFINITY;
        for m in 2..=params.max_group_size() {
            if let Ok(plan) = build_plan(n, m, w) {
                serial_best = serial_best.min(predict_time_s(&plan, &config, bytes).total_s());
            }
        }
        assert!((parallel.2.total_s() - serial_best).abs() < 1e-15);
    }

    #[test]
    fn simulate_agrees_with_prediction() {
        let n = 128;
        let w = 16;
        let config = OpticalConfig::new(n, w);
        let outcome = plan_and_simulate(&WrhtParams::auto(n, w), &config, 25 << 20).unwrap();
        let rel = (outcome.predicted.total_s() - outcome.simulated_time_s).abs()
            / outcome.simulated_time_s;
        assert!(rel < 1e-9, "rel={rel}");
    }

    #[test]
    fn fixed_group_size_is_respected() {
        let n = 64;
        let w = 8;
        let config = OpticalConfig::new(n, w);
        let outcome = plan_and_simulate(&WrhtParams::fixed(n, w, 4), &config, 1 << 20).unwrap();
        assert_eq!(outcome.m, 4);
        assert_eq!(outcome.plan.m, 4);
    }

    #[test]
    fn ties_go_to_the_smallest_group_size() {
        // With ample wavelengths every m stops at once with the same
        // all-to-all among all 16 nodes, so every candidate costs the same.
        let config = OpticalConfig::new(16, 64);
        let (m, plan, _) = choose_group_size(&WrhtParams::auto(16, 64), &config, 1 << 20).unwrap();
        assert_eq!((m, plan.depth()), (2, 0));
    }

    #[test]
    fn a_budget_past_half_the_address_space_still_plans() {
        // `2w + 1` overflows here, and the all-to-all trial must size its
        // lanes by the pairs, not by the budget.
        let w = usize::MAX / 2 + 1;
        let config = OpticalConfig::new(8, 64);
        let (m, plan, _) = choose_group_size(&WrhtParams::auto(8, w), &config, 1 << 20).unwrap();
        assert_eq!((m, plan.depth()), (2, 0));
    }

    #[test]
    fn node_count_mismatch_is_a_typed_error() {
        for (params_n, config_n) in [(64usize, 128usize), (128, 64)] {
            let config = OpticalConfig::new(config_n, 16);
            let err =
                plan_and_simulate(&WrhtParams::auto(params_n, 16), &config, 1 << 20).unwrap_err();
            assert_eq!(
                err,
                WrhtError::NodeCountMismatch {
                    params: params_n,
                    config: config_n
                }
            );
        }
    }

    #[test]
    fn infeasible_fixed_m_errors() {
        let config = OpticalConfig::new(64, 2);
        let err = plan_and_simulate(&WrhtParams::fixed(64, 2, 63), &config, 1 << 20).unwrap_err();
        assert!(matches!(
            err,
            WrhtError::GroupSizeNeedsMoreWavelengths { .. }
        ));
    }

    #[test]
    fn wrht_beats_oring_at_scale() {
        // The headline qualitative claim at reduced scale: Wrht's simulated
        // time is well below O-Ring's for a realistic payload.
        use crate::baselines::oring_schedule;
        let n = 256;
        let w = 64;
        let elems = 1 << 20; // 4 MiB gradient
        let config = OpticalConfig::paper_defaults(n);
        let wrht = plan_and_simulate(&WrhtParams::auto(n, w), &config, (elems * 4) as u64).unwrap();
        let mut substrate = OpticalSubstrate::new(config).unwrap();
        let oring = substrate.execute(&oring_schedule(n, elems, 4)).unwrap();
        assert!(
            wrht.simulated_time_s < oring.total_time_s / 2.0,
            "wrht {} vs oring {}",
            wrht.simulated_time_s,
            oring.total_time_s
        );
    }
}
