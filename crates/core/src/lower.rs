//! Lowering Wrht plans to executable schedules.
//!
//! * [`to_optical_schedule`] — concrete optical transfers (directions,
//!   striping lanes, payload bytes) for [`optical_sim::RingSimulator`];
//! * [`to_logical_schedule`] — a [`collectives::Schedule`] over element
//!   ranges, executable by the logical executor to *prove* the plan
//!   computes an all-reduce.

use crate::plan::WrhtPlan;
use collectives::{Op, Schedule, Step, TransferSpec};
use optical_sim::request::Transfer;
use optical_sim::sim::StepSchedule;
use optical_sim::topology::Direction;
use serde::{Deserialize, Serialize};

/// How the broadcast stage is realized on the optical ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BroadcastMode {
    /// The paper's model: the representative unicasts a copy to every
    /// member, mirroring the reduce stage (`⌊m/2⌋` wavelength groups).
    #[default]
    Unicast,
    /// Extension: optical *drop-and-continue* multicast — one transmission
    /// per group side; intermediate members tap the passing wavelengths, so
    /// each side needs a single wavelength group and can stripe across the
    /// whole budget. Physically this is what micro-ring drop filters allow.
    Multicast,
}

/// Lower a plan to optical transfers moving `bytes` per message.
///
/// Reduce stage: group sides transmit toward the middle representative in
/// opposite directions. All-to-all: shortest paths. Broadcast stage: the
/// mirror image of the reduce stage.
#[must_use]
pub fn to_optical_schedule(plan: &WrhtPlan, bytes: u64) -> StepSchedule {
    to_optical_schedule_with(plan, bytes, BroadcastMode::Unicast)
}

/// [`to_optical_schedule`] with an explicit broadcast realization.
#[must_use]
pub fn to_optical_schedule_with(
    plan: &WrhtPlan,
    bytes: u64,
    broadcast: BroadcastMode,
) -> StepSchedule {
    let mut sched = StepSchedule::default();

    // Reduce stage.
    for (li, level) in plan.levels.iter().enumerate() {
        let mut step = Vec::new();
        for group in &level.groups {
            for &member in &group.left_side() {
                step.push(
                    Transfer::directed(
                        optical_sim::NodeId(member),
                        optical_sim::NodeId(group.rep),
                        bytes,
                        Direction::Clockwise,
                    )
                    .with_lanes(level.lanes)
                    .with_tag(li as u32),
                );
            }
            for &member in &group.right_side() {
                step.push(
                    Transfer::directed(
                        optical_sim::NodeId(member),
                        optical_sim::NodeId(group.rep),
                        bytes,
                        Direction::CounterClockwise,
                    )
                    .with_lanes(level.lanes)
                    .with_tag(li as u32),
                );
            }
        }
        sched.push_step(step);
    }

    // Fused all-to-all among the survivors.
    if let Some(ata) = &plan.alltoall {
        let mut step = Vec::new();
        for &src in &ata.reps {
            for &dst in &ata.reps {
                if src != dst {
                    step.push(
                        Transfer::shortest(
                            optical_sim::NodeId(src),
                            optical_sim::NodeId(dst),
                            bytes,
                        )
                        .with_lanes(ata.lanes)
                        .with_tag(u32::MAX),
                    );
                }
            }
        }
        sched.push_step(step);
    }

    // Broadcast stage: mirror.
    for (li, level) in plan.levels.iter().enumerate().rev() {
        let mut step = Vec::new();
        for group in &level.groups {
            match broadcast {
                BroadcastMode::Unicast => {
                    for &member in &group.left_side() {
                        step.push(
                            Transfer::directed(
                                optical_sim::NodeId(group.rep),
                                optical_sim::NodeId(member),
                                bytes,
                                Direction::CounterClockwise,
                            )
                            .with_lanes(level.lanes)
                            .with_tag(li as u32),
                        );
                    }
                    for &member in &group.right_side() {
                        step.push(
                            Transfer::directed(
                                optical_sim::NodeId(group.rep),
                                optical_sim::NodeId(member),
                                bytes,
                                Direction::Clockwise,
                            )
                            .with_lanes(level.lanes)
                            .with_tag(li as u32),
                        );
                    }
                }
                BroadcastMode::Multicast => {
                    // One drop-and-continue transmission per side, spanning
                    // to the farthest member; intermediate members tap the
                    // passing signal at no extra wavelength cost. Each side
                    // is the only occupant of its direction within the
                    // group's arc, so it can stripe across the full budget.
                    let lanes = plan.wavelengths.max(1);
                    if let Some(&farthest) = group.left_side().first() {
                        step.push(
                            Transfer::directed(
                                optical_sim::NodeId(group.rep),
                                optical_sim::NodeId(farthest),
                                bytes,
                                Direction::CounterClockwise,
                            )
                            .with_lanes(lanes)
                            .with_tag(li as u32),
                        );
                    }
                    if let Some(&farthest) = group.right_side().last() {
                        step.push(
                            Transfer::directed(
                                optical_sim::NodeId(group.rep),
                                optical_sim::NodeId(farthest),
                                bytes,
                                Direction::Clockwise,
                            )
                            .with_lanes(lanes)
                            .with_tag(li as u32),
                        );
                    }
                }
            }
        }
        sched.push_step(step);
    }

    sched
}

/// Lower a plan to a logical schedule over `elems` elements.
#[must_use]
pub fn to_logical_schedule(plan: &WrhtPlan, elems: usize) -> Schedule {
    let mut sched = Schedule::new(plan.n.max(1), elems, format!("wrht(m={})", plan.m));

    for level in &plan.levels {
        let mut step = Step::default();
        for group in &level.groups {
            for &member in group.members.iter().filter(|&&p| p != group.rep) {
                step.transfers.push(TransferSpec::new(
                    member,
                    group.rep,
                    0..elems,
                    Op::ReduceInto,
                ));
            }
        }
        sched.push_step(step);
    }

    if let Some(ata) = &plan.alltoall {
        let mut step = Step::default();
        for &src in &ata.reps {
            for &dst in &ata.reps {
                if src != dst {
                    step.transfers
                        .push(TransferSpec::new(src, dst, 0..elems, Op::ReduceInto));
                }
            }
        }
        sched.push_step(step);
    }

    for level in plan.levels.iter().rev() {
        let mut step = Step::default();
        for group in &level.groups {
            for &member in group.members.iter().filter(|&&p| p != group.rep) {
                step.transfers
                    .push(TransferSpec::new(group.rep, member, 0..elems, Op::Copy));
            }
        }
        sched.push_step(step);
    }

    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use collectives::verify_allreduce;
    use optical_sim::{OpticalConfig, RingSimulator, Strategy};

    #[test]
    fn logical_schedule_is_a_correct_allreduce() {
        for (n, m, w) in [
            (2usize, 2usize, 1usize),
            (7, 2, 1),
            (16, 4, 4),
            (33, 3, 8),
            (64, 8, 16),
            (100, 7, 64),
            (128, 2, 64),
        ] {
            let plan = build_plan(n, m, w).unwrap();
            let sched = to_logical_schedule(&plan, 12);
            verify_allreduce(&sched).unwrap_or_else(|e| panic!("n={n} m={m} w={w}: {e}"));
        }
    }

    #[test]
    fn optical_schedule_fits_wavelength_budget() {
        for (n, m, w) in [(64usize, 4usize, 8usize), (128, 8, 16), (256, 2, 4)] {
            let plan = build_plan(n, m, w).unwrap();
            let sched = to_optical_schedule(&plan, 1 << 20);
            let cfg = OpticalConfig::new(n, w);
            let mut sim = RingSimulator::new(cfg);
            let report = sim
                .run_stepped(&sched, Strategy::FirstFit)
                .unwrap_or_else(|e| panic!("n={n} m={m} w={w}: {e}"));
            assert!(report.peak_wavelengths() <= w);
        }
    }

    #[test]
    fn step_counts_agree_between_lowerings() {
        let plan = build_plan(81, 3, 4).unwrap();
        let optical = to_optical_schedule(&plan, 100);
        let logical = to_logical_schedule(&plan, 10);
        assert_eq!(optical.len(), plan.step_count());
        assert_eq!(logical.step_count(), plan.step_count());
    }

    #[test]
    fn reduce_and_broadcast_mirror_transfer_counts() {
        let plan = build_plan(60, 5, 8).unwrap();
        let sched = to_optical_schedule(&plan, 10);
        let steps = sched.steps();
        let depth = plan.depth();
        for l in 0..depth {
            let reduce = &steps[l];
            let bcast = &steps[steps.len() - 1 - l];
            assert_eq!(reduce.len(), bcast.len(), "level {l}");
        }
    }

    #[test]
    fn single_node_lowering_is_empty() {
        let plan = build_plan(1, 2, 4).unwrap();
        assert!(to_optical_schedule(&plan, 10).is_empty());
        assert_eq!(to_logical_schedule(&plan, 4).step_count(), 0);
    }

    #[test]
    fn transfers_carry_level_lanes() {
        let plan = build_plan(1024, 8, 64).unwrap();
        let sched = to_optical_schedule(&plan, 100);
        for t in &sched.steps()[0] {
            assert_eq!(t.lanes, plan.levels[0].lanes);
        }
    }

    #[test]
    fn multicast_broadcast_has_at_most_two_transfers_per_group() {
        let plan = build_plan(100, 7, 16).unwrap();
        let uni = to_optical_schedule_with(&plan, 100, BroadcastMode::Unicast);
        let mc = to_optical_schedule_with(&plan, 100, BroadcastMode::Multicast);
        assert_eq!(uni.len(), mc.len());
        for (li, level) in plan.levels.iter().enumerate() {
            // Level li's broadcast step is li steps before the end.
            let bcast_idx = uni.len() - 1 - li;
            let uni_step = &uni.steps()[bcast_idx];
            let mc_step = &mc.steps()[bcast_idx];
            assert!(mc_step.len() <= 2 * level.groups.len());
            assert!(mc_step.len() <= uni_step.len());
        }
    }

    #[test]
    fn multicast_broadcast_fits_budget_and_is_faster() {
        use optical_sim::{OpticalConfig, RingSimulator, Strategy};
        let n = 256;
        let w = 16;
        let bytes = 64 << 20;
        let plan = build_plan(n, 8, w).unwrap();
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
        assert!(mc.peak_wavelengths() <= w);
        assert!(
            mc.total_time_s < uni.total_time_s,
            "multicast {} vs unicast {}",
            mc.total_time_s,
            uni.total_time_s
        );
    }

    #[test]
    fn multicast_reduce_stage_is_unchanged() {
        let plan = build_plan(64, 4, 8).unwrap();
        let uni = to_optical_schedule_with(&plan, 10, BroadcastMode::Unicast);
        let mc = to_optical_schedule_with(&plan, 10, BroadcastMode::Multicast);
        for li in 0..=plan.depth() {
            if li < uni.steps().len() {
                // Reduce levels + all-to-all are byte-identical.
                let is_reduce_or_ata = li <= plan.depth();
                if is_reduce_or_ata {
                    assert_eq!(uni.steps()[li], mc.steps()[li], "step {li}");
                }
            }
        }
    }
}
