//! Fault and degradation dynamics as first-class events.
//!
//! Both substrate simulators accept a [`FaultScript`] — typed, timestamped
//! fault events scheduled through the same
//! [`wrht_kernel::EventKernel`] as ordinary transfer events — plus a
//! [`FaultPolicy`] deciding how affected work recovers. This module is the
//! substrate-independent surface: the script/policy types re-exported from
//! the kernel crate, the per-run [`FaultRunReport`], and the cluster-level
//! [`FaultClusterReport`] with per-job **blast radius** (transfers aborted,
//! delayed or failed), recovery time and the degraded-vs-clean makespan
//! ratio.
//!
//! Substrate semantics (each fabric reacts only to the event kinds that
//! exist on it; the rest are no-ops):
//!
//! | Event | Optical ring | Electrical cluster |
//! |---|---|---|
//! | `WavelengthDown`/`Up` | masks the lane; in-flight holders abort and re-enter the grant loop | ignored |
//! | `LinkDegrade { factor }` | ignored | scales link capacity; incremental re-solve at the fault instant |
//! | `LinkFlap { down_s }` | ignored | capacity-zero interval; crossing flows suspend, resume on restore |
//! | `NodeStraggle { slowdown }` | grant durations stretched | flows touching the node capped at `1/slowdown` share |
//! | `NodeDown` | permanently fails unfinished endpoint transfers | permanently fails unfinished endpoint flows |
//!
//! Same-instant ordering is pinned by the kernel batching contract: a
//! completion at a bit-identical instant applies **before** the fault, so a
//! transfer finishing at exactly `t` is finished, not aborted, by a fault
//! at `t` (see [`wrht_kernel::fault`] module docs).
//!
//! With an empty (or substrate-irrelevant) script, the faulted entry points
//! delegate to the clean ones and are **bit-exact** with
//! [`crate::substrate::Substrate::execute_dag`] /
//! [`crate::substrate::Substrate::execute_dag_jobs`] — the fault
//! differential suite pins this on both substrates.

use crate::substrate::DagRunReport;
use crate::tenancy::{ComposedTenancy, JobId, SchedPolicy, TenancySpec};
use serde::{Deserialize, Serialize};

pub use wrht_kernel::{FaultError, FaultEvent, FaultKind, FaultLimits, FaultPolicy, FaultScript};

/// Per-transfer outcome of a faulted run, common to every substrate (on the
/// optical ring, the start is the last wavelength grant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTiming {
    /// Instant of the (last) start, seconds; 0 if never started.
    pub start_s: f64,
    /// Completion instant, seconds; 0 if the transfer never completed.
    pub finish_s: f64,
    /// Times the transfer was aborted mid-flight by a fault.
    pub aborts: u32,
    /// Did the transfer complete?
    pub completed: bool,
}

/// Substrate-independent result of executing a [`crate::dag::DepSchedule`]
/// under a [`FaultScript`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRunReport {
    /// Name of the substrate that produced the report.
    pub substrate: String,
    /// Completion time of the last **completed** transfer, seconds.
    /// Failed transfers are excluded — see
    /// [`FaultRunReport::effective_makespan_s`] for the pessimistic view.
    pub makespan_s: f64,
    /// Per-transfer outcomes in [`crate::dag::DepSchedule`] order.
    pub transfers: Vec<FaultTiming>,
    /// Highest wavelength index in use at any instant + 1 (0 without WDM).
    pub peak_wavelength: usize,
    /// Discrete events processed by the shared event kernel.
    pub events: u64,
    /// Instant the first transfer was aborted or failed by a fault, if any.
    pub first_impact_s: Option<f64>,
}

impl FaultRunReport {
    /// Number of transfers that never completed.
    #[must_use]
    pub fn failed_transfers(&self) -> usize {
        self.transfers.iter().filter(|t| !t.completed).count()
    }

    /// Total mid-flight aborts across all transfers.
    #[must_use]
    pub fn total_aborts(&self) -> u64 {
        self.transfers.iter().map(|t| u64::from(t.aborts)).sum()
    }

    /// The makespan treating any permanent failure as unbounded:
    /// [`f64::INFINITY`] when at least one transfer never completed, the
    /// completed-transfer makespan otherwise. Kept as an accessor (not a
    /// serialized field) because JSON cannot round-trip infinities.
    #[must_use]
    pub fn effective_makespan_s(&self) -> f64 {
        if self.failed_transfers() > 0 {
            f64::INFINITY
        } else {
            self.makespan_s
        }
    }
}

/// Per-job blast radius inside a [`FaultClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobBlastRadius {
    /// The job's identifier (index into the spec's job list).
    pub job: JobId,
    /// Display name copied from the spec.
    pub name: String,
    /// Number of transfers the job contributed to the composed run.
    pub transfers: usize,
    /// Mid-flight aborts suffered by the job's transfers.
    pub aborted: u64,
    /// Transfers that completed later than in the clean run.
    pub delayed: usize,
    /// Transfers that never completed.
    pub failed: usize,
    /// Last completed-transfer finish in the **clean** run, seconds
    /// (the job's arrival for empty jobs).
    pub clean_finish_s: f64,
    /// Last completed-transfer finish in the **faulted** run, seconds
    /// (the job's arrival when nothing completed).
    pub finish_s: f64,
    /// Did every transfer of the job complete?
    pub completed: bool,
}

/// Cluster-level outcome of a faulted multi-job run: the clean run's
/// makespan against the faulted one, the fault's blast radius per job, and
/// how long the fabric took to absorb it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultClusterReport {
    /// Name of the substrate that executed the cluster.
    pub substrate: String,
    /// The cross-job scheduling policy in force.
    pub sched_policy: SchedPolicy,
    /// Stable label of the recovery [`FaultPolicy`]
    /// (`"fail-job"`, `"retry-after:<backoff>"`, `"replan"`).
    pub fault_policy: String,
    /// Makespan of the same composed run with **no** faults, seconds.
    pub clean_makespan_s: f64,
    /// Completion of the last **completed** transfer under faults, seconds.
    pub makespan_s: f64,
    /// `makespan_s / clean_makespan_s` over completed transfers (1.0 for
    /// empty runs). Failures are reported via `transfers_failed`, not
    /// folded into this ratio, so it stays finite and JSON-serializable.
    pub degraded_ratio: f64,
    /// Recovery time: last *impacted* completed-transfer finish minus the
    /// first fault impact, seconds; 0 when no transfer was impacted (a
    /// transfer is impacted when it was aborted, delayed past its clean
    /// finish, or failed).
    pub recovery_s: f64,
    /// Instant the first transfer was aborted or failed, if any.
    pub first_impact_s: Option<f64>,
    /// Transfers delayed past their clean finish, cluster-wide.
    pub transfers_delayed: usize,
    /// Mid-flight aborts, cluster-wide.
    pub transfers_aborted: u64,
    /// Transfers that never completed, cluster-wide.
    pub transfers_failed: usize,
    /// Per-job blast radius, indexed by [`JobId`].
    pub jobs: Vec<JobBlastRadius>,
    /// Peak wavelength footprint of the faulted run (0 electrically).
    pub peak_wavelength: usize,
    /// Discrete events processed by the faulted run's event kernel.
    pub events: u64,
}

impl FaultClusterReport {
    /// Jobs that lost at least one transfer permanently.
    #[must_use]
    pub fn failed_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| !j.completed).count()
    }
}

/// Assemble the [`FaultClusterReport`] from a composed clean run and its
/// faulted counterpart. Shared by both substrates (called from the provided
/// [`crate::substrate::Substrate::execute_jobs_faulted`]).
#[must_use]
pub fn fault_cluster_report(
    spec: &TenancySpec,
    composed: &ComposedTenancy,
    clean: &DagRunReport,
    faulted: &FaultRunReport,
    policy: FaultPolicy,
) -> FaultClusterReport {
    debug_assert_eq!(clean.transfers.len(), faulted.transfers.len());
    let mut jobs = Vec::with_capacity(spec.jobs.len());
    let mut last_impacted_finish = f64::NEG_INFINITY;
    for (j, job) in spec.jobs.iter().enumerate() {
        let range = composed.ranges[j].clone();
        let mut aborted = 0u64;
        let mut delayed = 0usize;
        let mut failed = 0usize;
        let mut clean_finish = f64::NEG_INFINITY;
        let mut finish = f64::NEG_INFINITY;
        for i in range.clone() {
            let (c, f) = (&clean.transfers[i], &faulted.transfers[i]);
            aborted += u64::from(f.aborts);
            clean_finish = clean_finish.max(c.finish_s);
            let is_delayed = f.completed && f.finish_s > c.finish_s;
            if is_delayed {
                delayed += 1;
            }
            if f.completed {
                finish = finish.max(f.finish_s);
                if is_delayed || f.aborts > 0 {
                    last_impacted_finish = last_impacted_finish.max(f.finish_s);
                }
            } else {
                failed += 1;
            }
        }
        jobs.push(JobBlastRadius {
            job: JobId(j),
            name: job.name.clone(),
            transfers: range.len(),
            aborted,
            delayed,
            failed,
            clean_finish_s: if clean_finish.is_finite() {
                clean_finish
            } else {
                job.arrival_s
            },
            finish_s: if finish.is_finite() {
                finish
            } else {
                job.arrival_s
            },
            completed: failed == 0,
        });
    }
    let recovery_s = match faulted.first_impact_s {
        Some(t0) if last_impacted_finish.is_finite() => (last_impacted_finish - t0).max(0.0),
        _ => 0.0,
    };
    FaultClusterReport {
        substrate: faulted.substrate.clone(),
        sched_policy: spec.policy,
        fault_policy: policy.label(),
        clean_makespan_s: clean.makespan_s,
        makespan_s: faulted.makespan_s,
        degraded_ratio: if clean.makespan_s > 0.0 {
            faulted.makespan_s / clean.makespan_s
        } else {
            1.0
        },
        recovery_s,
        first_impact_s: faulted.first_impact_s,
        transfers_delayed: jobs.iter().map(|j| j.delayed).sum(),
        transfers_aborted: jobs.iter().map(|j| j.aborted).sum(),
        transfers_failed: jobs.iter().map(|j| j.failed).sum(),
        jobs,
        peak_wavelength: faulted.peak_wavelength,
        events: faulted.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::DagTiming;

    fn clean_of(finishes: &[f64]) -> DagRunReport {
        DagRunReport {
            substrate: "optical".into(),
            makespan_s: finishes.iter().copied().fold(0.0, f64::max),
            transfers: finishes
                .iter()
                .map(|&f| DagTiming {
                    start_s: 0.0,
                    finish_s: f,
                })
                .collect(),
            peak_wavelength: 1,
            rate_recomputations: 0,
            solver_work: 0,
            events: 1,
        }
    }

    #[test]
    fn effective_makespan_is_infinite_on_any_failure() {
        let mut r = FaultRunReport {
            substrate: "optical".into(),
            makespan_s: 2.0,
            transfers: vec![FaultTiming {
                start_s: 0.0,
                finish_s: 2.0,
                aborts: 1,
                completed: true,
            }],
            peak_wavelength: 1,
            events: 3,
            first_impact_s: Some(1.0),
        };
        assert_eq!(r.effective_makespan_s(), 2.0);
        assert_eq!(r.total_aborts(), 1);
        r.transfers.push(FaultTiming {
            start_s: 0.0,
            finish_s: 0.0,
            aborts: 0,
            completed: false,
        });
        assert_eq!(r.failed_transfers(), 1);
        assert!(r.effective_makespan_s().is_infinite());
    }

    #[test]
    fn blast_radius_counts_delays_aborts_failures_and_recovery() {
        use crate::tenancy::Job;
        use optical_sim::sim::StepSchedule;
        use optical_sim::{NodeId, Transfer};

        // Two single-transfer jobs composed; job 0 is delayed by an abort,
        // job 1 fails outright.
        let step = |src: usize| {
            StepSchedule::from_steps(vec![vec![Transfer::shortest(
                NodeId(src),
                NodeId(src + 1),
                1_000,
            )]])
        };
        let spec = TenancySpec::new(SchedPolicy::Fifo)
            .with_job(Job::steps("a", 0.0, step(0)))
            .with_job(Job::steps("b", 0.0, step(2)));
        let composed = spec.compose().unwrap();
        let clean = clean_of(&[1.0, 1.0]);
        let faulted = FaultRunReport {
            substrate: "optical".into(),
            makespan_s: 3.0,
            transfers: vec![
                FaultTiming {
                    start_s: 0.5,
                    finish_s: 3.0,
                    aborts: 1,
                    completed: true,
                },
                FaultTiming {
                    start_s: 0.0,
                    finish_s: 0.0,
                    aborts: 0,
                    completed: false,
                },
            ],
            peak_wavelength: 1,
            events: 7,
            first_impact_s: Some(0.5),
        };
        let report = fault_cluster_report(
            &spec,
            &composed,
            &clean,
            &faulted,
            FaultPolicy::RetryAfter(0.25),
        );
        assert_eq!(report.fault_policy, "retry-after:0.25");
        assert_eq!(report.transfers_delayed, 1);
        assert_eq!(report.transfers_aborted, 1);
        assert_eq!(report.transfers_failed, 1);
        assert_eq!(report.failed_jobs(), 1);
        assert!((report.degraded_ratio - 3.0).abs() < 1e-12);
        assert!((report.recovery_s - 2.5).abs() < 1e-12);
        let (a, b) = (&report.jobs[0], &report.jobs[1]);
        assert!(a.completed && a.delayed == 1 && a.aborted == 1);
        assert!(!b.completed && b.failed == 1);
        // Job b completed nothing: its faulted finish anchors at arrival.
        assert_eq!(b.finish_s, 0.0);
        assert_eq!(b.clean_finish_s, 1.0);
    }

    #[test]
    fn clean_faulted_pair_reports_zero_blast_radius() {
        use crate::tenancy::Job;
        use optical_sim::sim::StepSchedule;
        use optical_sim::{NodeId, Transfer};

        let sched =
            StepSchedule::from_steps(vec![vec![Transfer::shortest(NodeId(0), NodeId(1), 1_000)]]);
        let spec =
            TenancySpec::new(SchedPolicy::FairShare).with_job(Job::steps("solo", 0.0, sched));
        let composed = spec.compose().unwrap();
        let clean = clean_of(&[1.0]);
        let faulted = FaultRunReport {
            substrate: "optical".into(),
            makespan_s: 1.0,
            transfers: vec![FaultTiming {
                start_s: 0.0,
                finish_s: 1.0,
                aborts: 0,
                completed: true,
            }],
            peak_wavelength: 1,
            events: 1,
            first_impact_s: None,
        };
        let report = fault_cluster_report(&spec, &composed, &clean, &faulted, FaultPolicy::FailJob);
        assert_eq!(report.degraded_ratio, 1.0);
        assert_eq!(report.recovery_s, 0.0);
        assert_eq!(report.transfers_delayed, 0);
        assert_eq!(report.transfers_failed, 0);
        assert_eq!(report.first_impact_s, None);
        assert!(report.jobs[0].completed);
    }
}
