//! Property tests for Wrht planning, lowering and cost prediction.

use optical_sim::{OpticalConfig, RingSimulator, Strategy};
use proptest::prelude::*;
use wrht_core::cost::predict_time_s;
use wrht_core::lower::{
    to_logical_schedule, to_optical_schedule, to_optical_schedule_with, BroadcastMode,
};
use wrht_core::pipeline::{optimal_segments, segmented_time};
use wrht_core::plan::{build_plan, candidate_plans};
use wrht_core::steps::{ceil_log, paper_step_count};
use wrht_core::{choose_group_size, WrhtParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structure: levels shrink geometrically, groups partition the active
    /// set, representatives are members of their groups.
    #[test]
    fn plan_structure_invariants(n in 1usize..600, m in 2usize..16, w in 1usize..64) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let mut active: Vec<usize> = (0..n).collect();
        for level in &plan.levels {
            let members: Vec<usize> = level
                .groups
                .iter()
                .flat_map(|g| g.members.iter().copied())
                .collect();
            prop_assert_eq!(&members, &active, "groups must partition the active set");
            for g in &level.groups {
                prop_assert!(g.members.contains(&g.rep));
                prop_assert!(g.members.len() <= m);
            }
            active = level.groups.iter().map(|g| g.rep).collect();
        }
        prop_assert_eq!(&active, &plan.final_reps);
        if n >= 2 {
            prop_assert!(plan.alltoall.is_some() || plan.final_reps.len() == 1);
        }
    }

    /// The paper's law: step count never exceeds 2*ceil(log_m N), and the
    /// tree depth never exceeds ceil(log_m N).
    #[test]
    fn step_count_never_exceeds_paper_upper_bound(
        n in 2usize..3000,
        m in 2usize..16,
        w in 1usize..64,
    ) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        prop_assert!(plan.step_count() <= paper_step_count(n, m, false).max(1));
        prop_assert!(plan.depth() <= ceil_log(n, m) as usize);
    }

    /// Cost prediction equals stepped simulation for arbitrary parameters.
    #[test]
    fn prediction_matches_simulation(
        n in 2usize..200,
        m in 2usize..12,
        w in 1usize..48,
        kb in 1u64..4096,
    ) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let bytes = kb * 1024;
        let cfg = OpticalConfig::new(n.max(2), w);
        let predicted = predict_time_s(&plan, &cfg, bytes).total_s();
        let mut sim = RingSimulator::new(cfg);
        let simulated = sim
            .run_stepped(&to_optical_schedule(&plan, bytes), Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        if simulated > 0.0 {
            prop_assert!(((predicted - simulated) / simulated).abs() < 1e-9);
        } else {
            prop_assert!(predicted == 0.0);
        }
    }

    /// The optical lowering always fits the configured wavelength budget.
    #[test]
    fn lowered_schedules_fit_their_budget(
        n in 2usize..300,
        m in 2usize..16,
        w in 1usize..64,
    ) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let sched = to_optical_schedule(&plan, 1 << 16);
        let mut sim = RingSimulator::new(OpticalConfig::new(n.max(2), w));
        let report = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        prop_assert!(report.peak_wavelengths() <= w);
    }

    /// Logical and optical lowerings always agree on step structure.
    #[test]
    fn lowerings_agree_on_shape(n in 1usize..300, m in 2usize..12, w in 1usize..32) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let optical = to_optical_schedule(&plan, 64);
        let logical = to_logical_schedule(&plan, 8);
        prop_assert_eq!(optical.len(), logical.step_count());
        for (o, l) in optical.steps().iter().zip(&logical.steps) {
            prop_assert_eq!(o.len(), l.transfers.len());
        }
    }

    /// Every candidate plan is itself a correct all-reduce, and candidates
    /// are ordered by strictly increasing depth with the paper's plan first.
    #[test]
    fn all_candidate_plans_are_correct(n in 2usize..150, m in 2usize..10, w in 1usize..32) {
        prop_assume!(m / 2 <= w);
        let candidates = candidate_plans(n, m, w).unwrap();
        prop_assert!(!candidates.is_empty());
        prop_assert_eq!(&candidates[0], &build_plan(n, m, w).unwrap());
        let mut last_depth = None;
        for c in &candidates {
            if let Some(d) = last_depth {
                prop_assert!(c.depth() > d);
            }
            last_depth = Some(c.depth());
            let sched = to_logical_schedule(c, 6);
            collectives::verify_allreduce(&sched).unwrap();
        }
        // The run-to-root candidate is last and unique.
        prop_assert!(candidates.last().unwrap().alltoall.is_none());
        prop_assert_eq!(
            candidates.iter().filter(|c| c.alltoall.is_none()).count(),
            1
        );
    }

    /// Multicast broadcast lowering stays within the wavelength budget and
    /// never exceeds the unicast time.
    #[test]
    fn multicast_fits_and_does_not_hurt(
        n in 4usize..150,
        m in 2usize..10,
        w in 1usize..32,
        kb in 1u64..2048,
    ) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let bytes = kb * 1024;
        let cfg = OpticalConfig::new(n, w);
        let mut sim = RingSimulator::new(cfg);
        let uni = sim
            .run_stepped(
                &to_optical_schedule_with(&plan, bytes, BroadcastMode::Unicast),
                Strategy::FirstFit,
            )
            .unwrap();
        let mc = sim
            .run_stepped(
                &to_optical_schedule_with(&plan, bytes, BroadcastMode::Multicast),
                Strategy::FirstFit,
            )
            .unwrap();
        prop_assert!(mc.peak_wavelengths() <= w);
        prop_assert!(mc.total_time_s <= uni.total_time_s * (1.0 + 1e-9));
    }

    /// Segmentation: k = 1 is always feasible, the optimum never loses to
    /// k = 1, and modelled times are monotone in payload size.
    #[test]
    fn segmentation_solver_invariants(
        n in 2usize..120,
        m in 2usize..10,
        w in 1usize..32,
        kb in 1u64..4096,
    ) {
        prop_assume!(m / 2 <= w);
        let plan = build_plan(n, m, w).unwrap();
        let cfg = OpticalConfig::new(n.max(2), w);
        let bytes = kb * 1024;
        let k1 = segmented_time(&plan, &cfg, bytes, 1);
        prop_assert!(k1.feasible);
        let best = optimal_segments(&plan, &cfg, bytes, 16);
        prop_assert!(best.time_s <= k1.time_s + 1e-15);
        let smaller = segmented_time(&plan, &cfg, bytes / 2 + 1, 1);
        prop_assert!(smaller.time_s <= k1.time_s + 1e-15);
    }

    /// The optimizer's choice is optimal within its search space.
    #[test]
    fn optimizer_is_argmin(n in 2usize..150, w in 1usize..32, mb in 1u64..64) {
        let params = WrhtParams::auto(n, w);
        let cfg = OpticalConfig::new(n.max(2), w);
        let bytes = mb << 20;
        let (_, _, best) = choose_group_size(&params, &cfg, bytes).unwrap();
        for m in 2..=params.max_group_size() {
            if let Ok(plan) = build_plan(n, m, w) {
                let cost = predict_time_s(&plan, &cfg, bytes);
                prop_assert!(best.total_s() <= cost.total_s() + 1e-15);
            }
        }
    }
}
