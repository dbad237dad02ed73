//! Simulator-backed training timelines.
//!
//! [`crate::substrate::Substrate`] times a *single* communication schedule;
//! a data-parallel training iteration interleaves many of them: each
//! gradient bucket becomes ready part-way through backward and its
//! all-reduce serializes on the network behind earlier buckets. This module
//! executes that interleaving **on an actual substrate** — every bucket is
//! lowered to a [`StepSchedule`], executed on the optical or electrical
//! fabric, and the resulting [`RunReport`]s are merged with the
//! gradient-ready times into an [`IterationTimeline`]: per-bucket
//! ready/start/finish instants, exposed vs hidden communication, and the
//! substrate's own per-step timings for every bucket.
//!
//! The analytic counterpart is `dnn_models::training::simulate_iteration`,
//! which prices buckets with a closed-form callback; differential tests
//! assert the two agree whenever the callback matches the substrate.
//!
//! ```
//! use wrht_core::substrate::{OpticalSubstrate, Substrate};
//! use wrht_core::timeline::{execute_timeline, TimelineBucket};
//! use wrht_core::baselines::oring_schedule;
//! use optical_sim::OpticalConfig;
//!
//! let mut substrate = OpticalSubstrate::new(OpticalConfig::new(8, 4)).unwrap();
//! let buckets = [
//!     TimelineBucket::new(8_000, 2e-3),
//!     TimelineBucket::new(8_000, 1e-3),
//! ];
//! let t = execute_timeline(&mut substrate, &buckets, 4e-3, |bytes| {
//!     Ok(oring_schedule(8, bytes as usize / 4, 4))
//! })
//! .unwrap();
//! assert_eq!(t.buckets.len(), 2);
//! assert!(t.overlapped_s >= 4e-3);
//! assert!(t.hidden_fraction >= 0.0 && t.hidden_fraction <= 1.0);
//! ```

use crate::dag::DepSchedule;
use crate::error::Result;
use crate::substrate::{RunReport, StepTiming, Substrate};
use optical_sim::sim::StepSchedule;
use serde::{Deserialize, Serialize};

/// One gradient bucket to execute: payload plus the instant its gradient
/// is ready (typically from `dnn_models::training::bucket_ready_times`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineBucket {
    /// Payload bytes of the fused bucket.
    pub bytes: u64,
    /// Gradient-ready time, seconds from iteration start.
    pub ready_s: f64,
    /// Display label (e.g. the earliest fused layer's name).
    pub label: String,
}

impl TimelineBucket {
    /// Unlabelled bucket.
    #[must_use]
    pub fn new(bytes: u64, ready_s: f64) -> Self {
        Self {
            bytes,
            ready_s,
            label: String::new(),
        }
    }

    /// Attach a display label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// One executed bucket of an [`IterationTimeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketTimeline {
    /// Display label carried over from the input bucket.
    pub label: String,
    /// Payload bytes.
    pub bytes: u64,
    /// Gradient-ready instant, seconds.
    pub ready_s: f64,
    /// All-reduce launch instant (ready, or later if the network was
    /// busy with an earlier bucket), seconds.
    pub start_s: f64,
    /// All-reduce completion instant, seconds.
    pub finish_s: f64,
    /// The substrate's execution report for this bucket's schedule.
    pub report: RunReport,
}

impl BucketTimeline {
    /// Communication duration of the bucket, seconds.
    #[must_use]
    pub fn comm_s(&self) -> f64 {
        self.finish_s - self.start_s
    }

    /// Time the ready bucket waited for the network, seconds.
    #[must_use]
    pub fn wait_s(&self) -> f64 {
        self.start_s - self.ready_s
    }

    /// Absolute finish instant of every substrate step of this bucket,
    /// assuming the steps run back-to-back from `start_s`.
    ///
    /// Exact for [`execute_timeline`] buckets (steps are contiguous by
    /// construction). For [`execute_timeline_pipelined`] buckets the
    /// report stores per-step *spans* only, and a step may additionally
    /// wait on wavelengths or links held by an overlapping bucket, so the
    /// cumulative sum can under-report the true absolute instants — use
    /// the [`crate::substrate::DagRunReport`] transfer windows when exact
    /// cross-bucket timing matters.
    #[must_use]
    pub fn step_finish_times_s(&self) -> Vec<f64> {
        let mut at = self.start_s;
        self.report
            .steps
            .iter()
            .map(|s| {
                at += s.duration_s;
                at
            })
            .collect()
    }
}

/// A full simulator-backed training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationTimeline {
    /// Name of the substrate that executed the buckets.
    pub substrate: String,
    /// End of compute (forward + backward), seconds.
    pub compute_s: f64,
    /// Iteration time with bucket-wise overlap, seconds.
    pub overlapped_s: f64,
    /// Iteration time with one fused post-backward all-reduce, seconds.
    pub sequential_s: f64,
    /// Sum of per-bucket communication durations, seconds.
    pub total_comm_s: f64,
    /// Communication sticking out past the end of backward, seconds.
    pub exposed_comm_s: f64,
    /// Fraction of communication hidden behind compute, in `[0, 1]`.
    pub hidden_fraction: f64,
    /// Per-bucket timelines in launch order.
    pub buckets: Vec<BucketTimeline>,
}

impl IterationTimeline {
    /// Number of executed buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total substrate steps over all buckets.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.buckets.iter().map(|b| b.report.step_count()).sum()
    }

    /// Speedup of the overlapped iteration over the sequential one
    /// (1.0 for empty/zero-time iterations).
    #[must_use]
    pub fn overlap_speedup(&self) -> f64 {
        if self.overlapped_s > 0.0 {
            self.sequential_s / self.overlapped_s
        } else {
            1.0
        }
    }
}

/// Fraction of communication hidden behind compute (mirrors
/// `dnn_models::training::hidden_comm_fraction`; kept dependency-free here
/// and pinned equal by the differential suite). `NaN`-free and in `[0, 1]`
/// for every input.
#[must_use]
pub fn hidden_comm_fraction(total_comm_s: f64, exposed_s: f64) -> f64 {
    if total_comm_s.is_finite() && total_comm_s > 0.0 {
        ((total_comm_s - exposed_s.min(total_comm_s)) / total_comm_s).clamp(0.0, 1.0)
    } else if exposed_s > 0.0 {
        0.0
    } else {
        1.0
    }
}

/// Execute one data-parallel iteration on `substrate`.
///
/// Buckets launch in list order and serialize on the network (one
/// collective at a time, as NCCL/Horovod do): bucket `i` starts at
/// `max(ready_s, finish of bucket i-1)` and runs for the simulated
/// duration of `lower(bytes)` on the substrate. `compute_s` is the end of
/// the backward pass; `lower` maps a payload to the substrate IR (e.g. a
/// Wrht plan lowering or a ring all-reduce).
///
/// The sequential baseline executes one fused `lower(total_bytes)`
/// schedule after compute; an empty bucket list (or all-zero payloads)
/// yields a compute-only timeline.
pub fn execute_timeline(
    substrate: &mut dyn Substrate,
    buckets: &[TimelineBucket],
    compute_s: f64,
    mut lower: impl FnMut(u64) -> Result<StepSchedule>,
) -> Result<IterationTimeline> {
    let mut network_free = 0.0f64;
    let mut executed = Vec::with_capacity(buckets.len());
    let mut total_comm = 0.0f64;
    for b in buckets {
        let schedule = lower(b.bytes)?;
        let report = substrate.execute(&schedule)?;
        let start = b.ready_s.max(network_free);
        let finish = start + report.total_time_s;
        total_comm += report.total_time_s;
        network_free = finish;
        executed.push(BucketTimeline {
            label: b.label.clone(),
            bytes: b.bytes,
            ready_s: b.ready_s,
            start_s: start,
            finish_s: finish,
            report,
        });
    }

    iteration(substrate, compute_s, lower, executed, total_comm)
}

/// The iteration around its executed buckets, as both executors finish
/// it: the overlapped time (the last bucket finish, or compute if later),
/// the sequential baseline (one fused `lower(total_bytes)` run after
/// compute), the exposed communication and the hidden fraction.
fn iteration(
    substrate: &mut dyn Substrate,
    compute_s: f64,
    mut lower: impl FnMut(u64) -> Result<StepSchedule>,
    executed: Vec<BucketTimeline>,
    total_comm: f64,
) -> Result<IterationTimeline> {
    // Bucket finishes are never negative; serialized ones never decrease.
    let overlapped_s = if executed.is_empty() {
        compute_s
    } else {
        let last_finish = executed.iter().map(|b| b.finish_s).fold(0.0f64, f64::max);
        last_finish.max(compute_s)
    };

    let total_bytes: u64 = executed.iter().map(|b| b.bytes).sum();
    let sequential_comm_s = if total_bytes > 0 {
        substrate.execute(&lower(total_bytes)?)?.total_time_s
    } else {
        0.0
    };

    let exposed_comm_s = (overlapped_s - compute_s).max(0.0);
    Ok(IterationTimeline {
        substrate: substrate.name().to_string(),
        compute_s,
        overlapped_s,
        sequential_s: compute_s + sequential_comm_s,
        total_comm_s: total_comm,
        exposed_comm_s,
        hidden_fraction: hidden_comm_fraction(total_comm, exposed_comm_s),
        buckets: executed,
    })
}

/// Execute one data-parallel iteration with **pipelined** bucket
/// all-reduces: the lowered bucket schedules are chained into one
/// [`DepSchedule`] (internal barrier edges per bucket, release at each
/// bucket's gradient-ready time, no cross-bucket edges) and executed
/// event-driven in a single [`Substrate::execute_dag`] run. Consecutive
/// buckets overlap on the wire wherever links and wavelengths allow,
/// instead of serializing behind a global network lock as
/// [`execute_timeline`] (and NCCL-style runtimes) do.
///
/// The sequential baseline and all derived fractions are computed exactly
/// as in [`execute_timeline`]. Per-bucket `report`s are reconstructed from
/// the transfer windows: step durations are each stage's first-start to
/// last-finish span (stages of different buckets may overlap in time), and
/// per-step wavelength footprints are not tracked in this mode (the DAG
/// report only carries the run-wide peak).
pub fn execute_timeline_pipelined(
    substrate: &mut dyn Substrate,
    buckets: &[TimelineBucket],
    compute_s: f64,
    mut lower: impl FnMut(u64) -> Result<StepSchedule>,
) -> Result<IterationTimeline> {
    let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
    for b in buckets {
        lowered.push((b.ready_s, lower(b.bytes)?));
    }
    let (dag, ranges) = DepSchedule::chain(&lowered);
    let report = substrate.execute_dag(&dag)?;
    let substrate_name = report.substrate.clone();

    let mut executed = Vec::with_capacity(buckets.len());
    let mut total_comm = 0.0f64;
    for ((b, range), (_, schedule)) in buckets.iter().zip(&ranges).zip(&lowered) {
        let windows = &report.transfers[range.clone()];
        let start = windows
            .iter()
            .map(|w| w.start_s)
            .fold(f64::INFINITY, f64::min);
        let finish = windows.iter().map(|w| w.finish_s).fold(0.0f64, f64::max);
        let (start, finish) = if windows.is_empty() {
            (b.ready_s, b.ready_s)
        } else {
            (start, finish.max(start))
        };
        // Reconstruct per-step timings from the windows: transfers of the
        // bucket appear in schedule order, so chunk them by step.
        let mut steps = Vec::with_capacity(schedule.len());
        let mut offset = 0usize;
        for step in schedule.steps() {
            let step_windows = &windows[offset..offset + step.len()];
            offset += step.len();
            let s0 = step_windows
                .iter()
                .map(|w| w.start_s)
                .fold(f64::INFINITY, f64::min);
            let s1 = step_windows
                .iter()
                .map(|w| w.finish_s)
                .fold(0.0f64, f64::max);
            steps.push(StepTiming {
                duration_s: if step_windows.is_empty() {
                    0.0
                } else {
                    (s1 - s0).max(0.0)
                },
                transfers: step.len(),
                bytes: step.iter().map(|t| t.bytes).sum(),
                peak_wavelength: 0,
            });
        }
        total_comm += finish - start;
        executed.push(BucketTimeline {
            label: b.label.clone(),
            bytes: b.bytes,
            ready_s: b.ready_s,
            start_s: start,
            finish_s: finish,
            report: RunReport {
                substrate: substrate_name.clone(),
                total_time_s: finish - start,
                steps,
            },
        });
    }
    iteration(substrate, compute_s, lower, executed, total_comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{ElectricalSubstrate, OpticalSubstrate};
    use optical_sim::request::Transfer;
    use optical_sim::{NodeId, OpticalConfig};

    /// 1 GB/s per lambda, no overheads: a one-transfer schedule of `bytes`
    /// lasts exactly `bytes / 1e9` seconds.
    fn optical() -> OpticalSubstrate {
        OpticalSubstrate::new(
            OpticalConfig::new(8, 4)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
        .unwrap()
    }

    fn one_transfer(bytes: u64) -> Result<StepSchedule> {
        Ok(StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            bytes,
        )]]))
    }

    #[test]
    fn buckets_serialize_on_the_network() {
        let mut sub = optical();
        let buckets = [
            TimelineBucket::new(2_000_000, 1e-3), // 2 ms transfer, ready at 1 ms
            TimelineBucket::new(1_000_000, 2e-3), // ready before net is free
        ];
        let t = execute_timeline(&mut sub, &buckets, 10e-3, one_transfer).unwrap();
        assert_eq!(t.buckets[0].start_s, 1e-3);
        assert!((t.buckets[0].finish_s - 3e-3).abs() < 1e-12);
        // Second bucket was ready at 2 ms but waits for the network.
        assert!((t.buckets[1].start_s - 3e-3).abs() < 1e-12);
        assert!((t.buckets[1].wait_s() - 1e-3).abs() < 1e-12);
        assert!((t.buckets[1].finish_s - 4e-3).abs() < 1e-12);
        // Fully hidden behind the 10 ms compute.
        assert_eq!(t.overlapped_s, 10e-3);
        assert_eq!(t.hidden_fraction, 1.0);
        assert_eq!(t.exposed_comm_s, 0.0);
        assert!((t.total_comm_s - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn exposed_communication_extends_the_iteration() {
        let mut sub = optical();
        let buckets = [TimelineBucket::new(5_000_000, 1e-3)]; // 5 ms transfer
        let t = execute_timeline(&mut sub, &buckets, 2e-3, one_transfer).unwrap();
        assert!((t.overlapped_s - 6e-3).abs() < 1e-12);
        assert!((t.exposed_comm_s - 4e-3).abs() < 1e-12);
        // 1 of 5 ms hidden.
        assert!((t.hidden_fraction - 0.2).abs() < 1e-9);
        // Sequential: compute + fused 5 MB transfer.
        assert!((t.sequential_s - 7e-3).abs() < 1e-12);
        assert!(t.overlap_speedup() > 1.0);
    }

    #[test]
    fn empty_bucket_list_is_compute_only() {
        let mut sub = optical();
        let t = execute_timeline(&mut sub, &[], 3e-3, one_transfer).unwrap();
        assert_eq!(t.overlapped_s, 3e-3);
        assert_eq!(t.sequential_s, 3e-3);
        assert_eq!(t.total_comm_s, 0.0);
        assert_eq!(t.hidden_fraction, 1.0);
        assert_eq!(t.bucket_count(), 0);
        assert_eq!(t.overlap_speedup(), 1.0);
    }

    #[test]
    fn reports_carry_substrate_step_timings() {
        let mut sub = optical();
        let two_steps = |bytes: u64| -> Result<StepSchedule> {
            let half = bytes / 2;
            Ok(StepSchedule::from_steps(vec![
                vec![Transfer::shortest(NodeId(0), NodeId(1), half)],
                vec![Transfer::shortest(NodeId(1), NodeId(2), bytes - half)],
            ]))
        };
        let buckets = [TimelineBucket::new(2_000_000, 0.0).with_label("fc")];
        let t = execute_timeline(&mut sub, &buckets, 0.0, two_steps).unwrap();
        assert_eq!(t.total_steps(), 2);
        assert_eq!(t.buckets[0].label, "fc");
        assert_eq!(t.substrate, "optical");
        let finishes = t.buckets[0].step_finish_times_s();
        assert_eq!(finishes.len(), 2);
        assert!((finishes[0] - 1e-3).abs() < 1e-12);
        assert!((finishes[1] - 2e-3).abs() < 1e-12);
        assert_eq!(finishes[1], t.buckets[0].finish_s);
    }

    #[test]
    fn lowering_errors_propagate() {
        let mut sub = optical();
        let buckets = [TimelineBucket::new(100, 0.0)];
        let r = execute_timeline(&mut sub, &buckets, 0.0, |_| {
            Err(crate::error::WrhtError::NoNodes)
        });
        assert!(r.is_err());
    }

    #[test]
    fn pipelined_overlaps_disjoint_buckets() {
        // Two buckets on disjoint node pairs, both ready at t=0. Barrier
        // mode serializes them behind the network lock (2 ms); pipelined
        // mode runs them concurrently (1 ms).
        let schedules = [
            |bytes| -> Result<StepSchedule> {
                Ok(StepSchedule::from_steps(vec![vec![Transfer::shortest(
                    NodeId(0),
                    NodeId(1),
                    bytes,
                )]]))
            },
            |bytes| -> Result<StepSchedule> {
                Ok(StepSchedule::from_steps(vec![vec![Transfer::shortest(
                    NodeId(4),
                    NodeId(5),
                    bytes,
                )]]))
            },
        ];
        let buckets = [
            TimelineBucket::new(1_000_000, 0.0),
            TimelineBucket::new(1_000_000, 0.0),
        ];
        let mut calls = 0usize;
        let lower = |bytes: u64| {
            let f = schedules[calls.min(1)];
            calls += 1;
            f(bytes)
        };
        let mut sub = optical();
        let t = execute_timeline_pipelined(&mut sub, &buckets, 0.0, lower).unwrap();
        assert!((t.overlapped_s - 1e-3).abs() < 1e-12, "{}", t.overlapped_s);
        assert_eq!(t.bucket_count(), 2);
        assert!((t.buckets[1].finish_s - 1e-3).abs() < 1e-12);
        // Both bucket windows start at 0: truly overlapped.
        assert_eq!(t.buckets[0].start_s, 0.0);
        assert_eq!(t.buckets[1].start_s, 0.0);
    }

    #[test]
    fn pipelined_is_never_slower_than_barrier_on_shared_links() {
        for electrical in [false, true] {
            let buckets = [
                TimelineBucket::new(2_000_000, 1e-3),
                TimelineBucket::new(1_000_000, 2e-3),
            ];
            let run = |pipelined: bool| {
                let mut optical_sub;
                let mut electrical_sub;
                let sub: &mut dyn Substrate = if electrical {
                    electrical_sub = ElectricalSubstrate::new(
                        electrical_sim::topology::star_cluster(8, 1e9, 0.0),
                        0.0,
                    );
                    &mut electrical_sub
                } else {
                    optical_sub = optical();
                    &mut optical_sub
                };
                if pipelined {
                    execute_timeline_pipelined(sub, &buckets, 10e-3, one_transfer).unwrap()
                } else {
                    execute_timeline(sub, &buckets, 10e-3, one_transfer).unwrap()
                }
            };
            let barrier = run(false);
            let pipelined = run(true);
            assert!(
                pipelined.buckets[1].finish_s <= barrier.buckets[1].finish_s + 1e-12,
                "electrical={electrical}: pipelined {} vs barrier {}",
                pipelined.buckets[1].finish_s,
                barrier.buckets[1].finish_s
            );
            assert!(pipelined.overlapped_s <= barrier.overlapped_s + 1e-12);
            // Same fused sequential baseline in both modes.
            assert_eq!(
                pipelined.sequential_s.to_bits(),
                barrier.sequential_s.to_bits()
            );
        }
    }

    #[test]
    fn pipelined_empty_bucket_list_is_compute_only() {
        let mut sub = optical();
        let t = execute_timeline_pipelined(&mut sub, &[], 3e-3, one_transfer).unwrap();
        assert_eq!(t.overlapped_s, 3e-3);
        assert_eq!(t.sequential_s, 3e-3);
        assert_eq!(t.total_comm_s, 0.0);
        assert_eq!(t.hidden_fraction, 1.0);
    }

    #[test]
    fn pipelined_reconstructs_per_step_timings() {
        let two_steps = |bytes: u64| -> Result<StepSchedule> {
            let half = bytes / 2;
            Ok(StepSchedule::from_steps(vec![
                vec![Transfer::shortest(NodeId(0), NodeId(1), half)],
                vec![Transfer::shortest(NodeId(1), NodeId(2), bytes - half)],
            ]))
        };
        let buckets = [TimelineBucket::new(2_000_000, 0.0).with_label("fc")];
        let mut sub = optical();
        let t = execute_timeline_pipelined(&mut sub, &buckets, 0.0, two_steps).unwrap();
        assert_eq!(t.total_steps(), 2);
        let b = &t.buckets[0];
        assert!((b.report.steps[0].duration_s - 1e-3).abs() < 1e-12);
        assert!((b.report.steps[1].duration_s - 1e-3).abs() < 1e-12);
        assert!((b.comm_s() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn works_on_the_electrical_substrate_too() {
        let mut sub =
            ElectricalSubstrate::new(electrical_sim::topology::star_cluster(8, 1e9, 0.0), 0.0);
        let buckets = [
            TimelineBucket::new(1_000_000, 0.0),
            TimelineBucket::new(1_000_000, 0.0),
        ];
        let t = execute_timeline(&mut sub, &buckets, 1e-3, one_transfer).unwrap();
        assert_eq!(t.substrate, "electrical");
        // Two serialized 1 ms transfers, 1 ms of compute.
        assert!((t.overlapped_s - 2e-3).abs() < 1e-12);
        assert!((t.sequential_s - 3e-3).abs() < 1e-12);
    }
}
