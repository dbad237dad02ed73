//! Analytic communication-time model for Wrht plans.
//!
//! Mirrors the stepped optical simulator exactly: a step lasts
//! `α + S/(lanes·B) + P·hops_max`, the reduce and broadcast stages are
//! symmetric, and the all-to-all step (if any) is paid once. The optimizer
//! uses this model to search group sizes without running the simulator.

use crate::plan::{StepShape, WrhtPlan};
use optical_sim::timing::TimingModel;
use optical_sim::OpticalConfig;
use serde::{Deserialize, Serialize};

/// Per-stage breakdown of predicted communication time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Reduce-stage time, seconds.
    pub reduce_s: f64,
    /// All-to-all step time, seconds (0 when the plan has none).
    pub alltoall_s: f64,
    /// Broadcast-stage time, seconds.
    pub broadcast_s: f64,
    /// Per-step durations in execution order, seconds.
    pub per_step_s: Vec<f64>,
}

impl CostBreakdown {
    /// Total predicted time, seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.reduce_s + self.alltoall_s + self.broadcast_s
    }
}

/// Predict the communication time of `plan` moving `bytes` per message on
/// the ring described by `config`.
#[must_use]
pub fn predict_time_s(plan: &WrhtPlan, config: &OpticalConfig, bytes: u64) -> CostBreakdown {
    let levels = plan.levels.iter().map(|level| {
        // A level of single-member groups has nothing to send.
        let sends = level.groups.iter().any(|g| g.members.len() != 1);
        sends.then(|| StepShape {
            lambda_requirement: level.lambda_requirement,
            lanes: level.lanes,
            hop_span: level.max_hop_span(),
        })
    });
    let alltoall = plan.alltoall.as_ref().map(|ata| StepShape {
        lambda_requirement: ata.lambda_requirement,
        lanes: ata.lanes,
        hop_span: plan.alltoall_hop_span(),
    });
    let per_step_s = Vec::with_capacity(plan.step_count());
    price(&config.timing(), bytes, levels, alltoall, per_step_s)
}

/// Price a plan from its steps' shapes: the reduce `levels` in order
/// (`None` for a level with nothing to send), then the optional
/// all-to-all, then the broadcast, which mirrors the reduce stage
/// root-most level first. Each step lasts
/// [`TimingModel::transfer_time`] of its lanes and hop span. The step
/// durations go to `per_step_s`, cleared first, whose allocation a caller
/// pricing many plans reuses.
pub(crate) fn price(
    timing: &TimingModel,
    bytes: u64,
    levels: impl IntoIterator<Item = Option<StepShape>>,
    alltoall: Option<StepShape>,
    mut per_step_s: Vec<f64>,
) -> CostBreakdown {
    let time = |step: StepShape| timing.transfer_time(bytes, step.lanes, step.hop_span);
    per_step_s.clear();
    let mut reduce_s = 0.0;
    for level in levels {
        let t = level.map_or(0.0, time);
        reduce_s += t;
        per_step_s.push(t);
    }
    let depth = per_step_s.len();

    let mut alltoall_s = 0.0;
    if let Some(ata) = alltoall {
        alltoall_s = time(ata);
        per_step_s.push(alltoall_s);
    }

    // Broadcast mirrors the reduce stage, root-most level first.
    let broadcast_s = reduce_s;
    for i in (0..depth).rev() {
        per_step_s.push(per_step_s[i]);
    }

    CostBreakdown {
        reduce_s,
        alltoall_s,
        broadcast_s,
        per_step_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::to_optical_schedule;
    use crate::plan::build_plan;
    use optical_sim::{RingSimulator, Strategy};

    fn check_prediction_matches_simulation(n: usize, m: usize, w: usize, bytes: u64) {
        let plan = build_plan(n, m, w).unwrap();
        let cfg = OpticalConfig::new(n, w);
        let predicted = predict_time_s(&plan, &cfg, bytes);
        let sched = to_optical_schedule(&plan, bytes);
        let mut sim = RingSimulator::new(cfg);
        let report = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        let rel =
            (predicted.total_s() - report.total_time_s).abs() / report.total_time_s.max(1e-30);
        assert!(
            rel < 1e-9,
            "n={n} m={m} w={w}: predicted {} vs simulated {}",
            predicted.total_s(),
            report.total_time_s
        );
    }

    #[test]
    fn prediction_matches_simulation() {
        check_prediction_matches_simulation(16, 4, 4, 1 << 20);
        check_prediction_matches_simulation(64, 2, 2, 1 << 16);
        check_prediction_matches_simulation(100, 7, 16, 123_456);
        check_prediction_matches_simulation(128, 8, 64, 1 << 22);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let plan = build_plan(64, 4, 8).unwrap();
        let cfg = OpticalConfig::new(64, 8);
        let c = predict_time_s(&plan, &cfg, 1 << 20);
        let sum: f64 = c.per_step_s.iter().sum();
        assert!((sum - c.total_s()).abs() < 1e-15);
        assert_eq!(c.per_step_s.len(), plan.step_count());
        // Mirror symmetry.
        assert!((c.reduce_s - c.broadcast_s).abs() < 1e-15);
    }

    #[test]
    fn more_lanes_cost_less() {
        let bytes = 1 << 24;
        let plan_narrow = build_plan(1024, 8, 4).unwrap();
        let plan_wide = build_plan(1024, 8, 64).unwrap();
        let cfg_narrow = OpticalConfig::new(1024, 4);
        let cfg_wide = OpticalConfig::new(1024, 64);
        let narrow = predict_time_s(&plan_narrow, &cfg_narrow, bytes).total_s();
        let wide = predict_time_s(&plan_wide, &cfg_wide, bytes).total_s();
        assert!(wide < narrow, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn single_node_costs_nothing() {
        let plan = build_plan(1, 2, 4).unwrap();
        let cfg = OpticalConfig::new(2, 4);
        assert_eq!(predict_time_s(&plan, &cfg, 100).total_s(), 0.0);
    }
}
