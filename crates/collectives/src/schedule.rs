//! The schedule intermediate representation shared by all algorithms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// What the receiver does with an arriving chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Element-wise add into the destination range (reduction).
    ReduceInto,
    /// Overwrite the destination range (gather/broadcast).
    Copy,
}

/// One point-to-point transfer: `src` sends its elements `range` to `dst`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Element range (same indices on both sides).
    pub range: Range<usize>,
    /// Receiver-side operation.
    pub op: Op,
}

impl TransferSpec {
    /// Convenience constructor.
    #[must_use]
    pub fn new(src: usize, dst: usize, range: Range<usize>, op: Op) -> Self {
        Self {
            src,
            dst,
            range,
            op,
        }
    }

    /// Number of elements moved.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.range.len()
    }
}

/// A step: transfers that start together; the step ends when all complete.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Step {
    /// The step's transfers.
    pub transfers: Vec<TransferSpec>,
}

impl Step {
    /// Step from a transfer list.
    #[must_use]
    pub fn new(transfers: Vec<TransferSpec>) -> Self {
        Self { transfers }
    }
}

/// Validation failures for schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A transfer referenced a node `>= n`.
    NodeOutOfRange {
        /// Step index.
        step: usize,
        /// Offending node.
        node: usize,
    },
    /// A transfer sends a node to itself.
    SelfTransfer {
        /// Step index.
        step: usize,
        /// The node.
        node: usize,
    },
    /// A chunk range exceeds the buffer length.
    RangeOutOfBounds {
        /// Step index.
        step: usize,
        /// Offending range end.
        end: usize,
        /// Buffer length.
        elems: usize,
    },
    /// Two transfers in one step write overlapping ranges at one node.
    WriteConflict {
        /// Step index.
        step: usize,
        /// Destination node with conflicting writes.
        node: usize,
    },
    /// The schedule needs at least one node.
    NoNodes,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NodeOutOfRange { step, node } => {
                write!(f, "step {step}: node {node} out of range")
            }
            ScheduleError::SelfTransfer { step, node } => {
                write!(f, "step {step}: node {node} sends to itself")
            }
            ScheduleError::RangeOutOfBounds { step, end, elems } => {
                write!(f, "step {step}: range end {end} beyond buffer of {elems}")
            }
            ScheduleError::WriteConflict { step, node } => {
                write!(f, "step {step}: conflicting writes at node {node}")
            }
            ScheduleError::NoNodes => write!(f, "schedule must involve at least one node"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete collective schedule over `n` nodes holding `elems` elements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Number of participating nodes.
    pub n: usize,
    /// Elements per node buffer.
    pub elems: usize,
    /// The steps, in execution order.
    pub steps: Vec<Step>,
    /// Human-readable algorithm name (for reports).
    pub name: String,
}

impl Schedule {
    /// New empty schedule.
    #[must_use]
    pub fn new(n: usize, elems: usize, name: impl Into<String>) -> Self {
        Self {
            n,
            elems,
            steps: Vec::new(),
            name: name.into(),
        }
    }

    /// Append a step.
    pub fn push_step(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Number of steps.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total elements transferred over the whole schedule.
    #[must_use]
    pub fn total_elems_moved(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.transfers)
            .map(TransferSpec::elems)
            .sum()
    }

    /// Largest number of elements any single node sends in one step
    /// (the serialization bottleneck of that step).
    #[must_use]
    pub fn max_send_per_node_per_step(&self) -> usize {
        let mut worst = 0;
        for step in &self.steps {
            let mut sent = vec![0usize; self.n];
            for t in &step.transfers {
                sent[t.src] += t.elems();
            }
            worst = worst.max(sent.iter().copied().max().unwrap_or(0));
        }
        worst
    }

    /// The same schedule re-addressed onto `members`: rank `r` of this
    /// schedule becomes node `members[r]`. Used to embed a collective over
    /// a subgroup (a tensor-parallel group, a data-parallel slice) into a
    /// larger deployment's node space. `members.len()` must equal
    /// [`Schedule::n`]; member ids need not be contiguous but must be
    /// distinct for the result to validate against the wider node count.
    ///
    /// # Panics
    /// Panics if `members.len() != self.n`.
    #[must_use]
    pub fn over_members(&self, members: &[usize]) -> Schedule {
        assert_eq!(
            members.len(),
            self.n,
            "member table must cover every rank of the schedule"
        );
        let max = members.iter().copied().max().map_or(0, |m| m + 1);
        Schedule {
            n: max,
            elems: self.elems,
            steps: self
                .steps
                .iter()
                .map(|s| {
                    Step::new(
                        s.transfers
                            .iter()
                            .map(|t| {
                                TransferSpec::new(
                                    members[t.src],
                                    members[t.dst],
                                    t.range.clone(),
                                    t.op,
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
            name: self.name.clone(),
        }
    }

    /// Structural validation: node indices, ranges, self-sends and
    /// intra-step write conflicts.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.n == 0 {
            return Err(ScheduleError::NoNodes);
        }
        for (si, step) in self.steps.iter().enumerate() {
            // Writes per destination node for conflict detection.
            let mut writes: Vec<(usize, &Range<usize>)> = Vec::new();
            for t in &step.transfers {
                for node in [t.src, t.dst] {
                    if node >= self.n {
                        return Err(ScheduleError::NodeOutOfRange { step: si, node });
                    }
                }
                if t.src == t.dst {
                    return Err(ScheduleError::SelfTransfer {
                        step: si,
                        node: t.src,
                    });
                }
                if t.range.end > self.elems {
                    return Err(ScheduleError::RangeOutOfBounds {
                        step: si,
                        end: t.range.end,
                        elems: self.elems,
                    });
                }
                writes.push((t.dst, &t.range));
            }
            // Copy-writes must not overlap with any other write to the same
            // node; overlapping ReduceInto is fine (addition commutes).
            for (i, t1) in step.transfers.iter().enumerate() {
                if t1.op != Op::Copy {
                    continue;
                }
                for (j, t2) in step.transfers.iter().enumerate() {
                    if i != j
                        && t1.dst == t2.dst
                        && t1.range.start < t2.range.end
                        && t2.range.start < t1.range.end
                    {
                        return Err(ScheduleError::WriteConflict {
                            step: si,
                            node: t1.dst,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Schedule {
        let mut s = Schedule::new(2, 4, "test");
        s.push_step(Step::new(vec![TransferSpec::new(
            0,
            1,
            0..4,
            Op::ReduceInto,
        )]));
        s.push_step(Step::new(vec![TransferSpec::new(1, 0, 0..4, Op::Copy)]));
        s
    }

    #[test]
    fn valid_schedule_passes() {
        tiny().validate().unwrap();
        assert_eq!(tiny().step_count(), 2);
        assert_eq!(tiny().total_elems_moved(), 8);
    }

    #[test]
    fn detects_node_out_of_range() {
        let mut s = Schedule::new(2, 4, "bad");
        s.push_step(Step::new(vec![TransferSpec::new(0, 5, 0..1, Op::Copy)]));
        assert_eq!(
            s.validate(),
            Err(ScheduleError::NodeOutOfRange { step: 0, node: 5 })
        );
    }

    #[test]
    fn detects_self_transfer() {
        let mut s = Schedule::new(2, 4, "bad");
        s.push_step(Step::new(vec![TransferSpec::new(1, 1, 0..1, Op::Copy)]));
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::SelfTransfer { .. })
        ));
    }

    #[test]
    fn detects_range_overflow() {
        let mut s = Schedule::new(2, 4, "bad");
        s.push_step(Step::new(vec![TransferSpec::new(0, 1, 2..9, Op::Copy)]));
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn detects_copy_write_conflicts() {
        let mut s = Schedule::new(3, 4, "bad");
        s.push_step(Step::new(vec![
            TransferSpec::new(0, 2, 0..3, Op::Copy),
            TransferSpec::new(1, 2, 2..4, Op::Copy),
        ]));
        assert!(matches!(
            s.validate(),
            Err(ScheduleError::WriteConflict { step: 0, node: 2 })
        ));
    }

    #[test]
    fn overlapping_reduces_are_allowed() {
        let mut s = Schedule::new(3, 4, "ok");
        s.push_step(Step::new(vec![
            TransferSpec::new(0, 2, 0..4, Op::ReduceInto),
            TransferSpec::new(1, 2, 0..4, Op::ReduceInto),
        ]));
        s.validate().unwrap();
    }

    #[test]
    fn max_send_accounts_per_step() {
        let mut s = Schedule::new(3, 10, "ok");
        s.push_step(Step::new(vec![
            TransferSpec::new(0, 1, 0..4, Op::Copy),
            TransferSpec::new(0, 2, 4..10, Op::Copy),
        ]));
        assert_eq!(s.max_send_per_node_per_step(), 10);
    }

    #[test]
    fn over_members_remaps_every_endpoint() {
        let remapped = tiny().over_members(&[7, 3]);
        assert_eq!(remapped.n, 8);
        assert_eq!(remapped.elems, 4);
        assert_eq!(remapped.steps[0].transfers[0].src, 7);
        assert_eq!(remapped.steps[0].transfers[0].dst, 3);
        assert_eq!(remapped.steps[1].transfers[0].src, 3);
        assert_eq!(remapped.steps[1].transfers[0].dst, 7);
        assert_eq!(remapped.steps[0].transfers[0].range, 0..4);
        remapped.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "member table must cover every rank")]
    fn over_members_rejects_short_tables() {
        let _ = tiny().over_members(&[0]);
    }

    #[test]
    fn zero_node_schedule_invalid() {
        let s = Schedule::new(0, 4, "bad");
        assert_eq!(s.validate(), Err(ScheduleError::NoNodes));
    }
}
