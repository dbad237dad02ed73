//! Multi-job tenancy: concurrent jobs sharing one substrate.
//!
//! Every other entry point in this workspace times a **single** workload on
//! an otherwise-idle fabric. A production cluster is never idle: training
//! jobs, inference bursts and background traffic arrive independently and
//! contend for the same wavelengths or links. This module models that as a
//! first-class object:
//!
//! * a [`Job`] is an arrival time plus a workload — a raw [`DepSchedule`],
//!   a step-synchronous [`StepSchedule`], or a bucketed training iteration
//!   (gradient-ready releases per bucket);
//! * a [`TenancySpec`] is a job set plus a [`SchedPolicy`] deciding how
//!   jobs are ordered when they compete for the fabric;
//! * [`crate::substrate::Substrate::execute_jobs`] composes all jobs'
//!   transfers into **one shared DAG run** — each transfer tagged with its
//!   [`JobId`], releases offset by arrival — and returns a
//!   [`ClusterReport`] with per-job makespans, exposed-vs-hidden
//!   communication, slowdown against an isolated run, per-tenant bandwidth
//!   attribution (electrical) and a Jain fairness index.
//!
//! The two fabrics honour the policy differently. The **optical** grant
//! loop arbitrates contended wavelengths across jobs: FIFO and priority
//! order jobs statically, fair share serves the least-served job first
//! (see [`JobArbitration`]). Waiters from different jobs are
//! only ranked in the *same* arbitration scan when their release instants
//! are **bit-identical** `f64`s — the event kernel coalesces same-instant
//! events by bit equality, not by epsilon — so policies tie-break across
//! jobs exactly when releases are derived through identical float
//! expressions (e.g. the same arrival offset); instants one ulp apart are
//! served strictly in time order. The **electrical** fluid model is
//! inherently fair-shared — max-min rates are policy-independent — but the
//! incremental solver attributes its rate solution to tenants so the report
//! can price each job's bandwidth share.
//!
//! A single job is the degenerate cluster: under **every** policy,
//! `execute_jobs` reproduces a direct
//! [`crate::substrate::Substrate::execute_dag`] of the job's own schedule
//! **bit-exactly** on both substrates — the tenancy differential suite
//! pins it.
//!
//! ```
//! use wrht_core::substrate::{OpticalSubstrate, Substrate};
//! use wrht_core::tenancy::{Job, SchedPolicy, TenancySpec};
//! use wrht_core::baselines::oring_schedule;
//! use optical_sim::OpticalConfig;
//!
//! let sched = oring_schedule(8, 8_000, 4);
//! let spec = TenancySpec::new(SchedPolicy::FairShare)
//!     .with_job(Job::steps("a", 0.0, sched.clone()))
//!     .with_job(Job::steps("b", 1e-4, sched));
//! let mut substrate = OpticalSubstrate::new(OpticalConfig::new(8, 4)).unwrap();
//! let report = substrate.execute_jobs(&spec).unwrap();
//! assert_eq!(report.jobs.len(), 2);
//! assert!(report.fairness_index > 0.0 && report.fairness_index <= 1.0);
//! ```

use crate::dag::{DepSchedule, DepSource, DepTransfer};
use crate::error::Result;
use crate::substrate::DagRunReport;
use crate::timeline::hidden_comm_fraction;
use optical_sim::sim::StepSchedule;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Identifier of a job inside a [`TenancySpec`]: its index in the job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub usize);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// How concurrent jobs are ordered when they compete for the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// First come, first served: jobs ranked by arrival time (ties by job
    /// index); an earlier job's waiters always win contended wavelengths.
    Fifo,
    /// Deterministic fair share: the job with the least accumulated service
    /// (granted lane-seconds) is served first; arrival breaks ties.
    FairShare,
    /// Strict priority: higher [`Job::priority`] wins; arrival, then job
    /// index, break ties.
    Priority,
}

impl SchedPolicy {
    /// Every policy, in stable order (campaign axes iterate this).
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::Fifo,
        SchedPolicy::FairShare,
        SchedPolicy::Priority,
    ];

    /// Stable lowercase label used in reports, hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::FairShare => "fair",
            SchedPolicy::Priority => "priority",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a [`Job`] executes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobWorkload {
    /// An explicit dependency-aware schedule (e.g. background traffic from
    /// [`DepSchedule::from_released`], or a pipelined lowering).
    Dag(DepSchedule),
    /// A step-synchronous schedule, lowered with full barrier edges.
    Steps(StepSchedule),
    /// A bucketed training iteration: per-bucket `(gradient_ready_s,
    /// schedule)` pairs, chained like
    /// [`crate::timeline::execute_timeline_pipelined`] — each bucket keeps
    /// internal barriers, buckets share no edges and release at their
    /// ready instants (relative to the job's arrival).
    Buckets(Vec<(f64, StepSchedule)>),
}

impl JobWorkload {
    /// Lower to the dependency-aware IR (releases relative to the job's
    /// arrival instant).
    #[must_use]
    pub fn lower(&self) -> DepSchedule {
        match self {
            JobWorkload::Dag(dag) => dag.clone(),
            JobWorkload::Steps(schedule) => DepSchedule::from_steps(schedule),
            JobWorkload::Buckets(buckets) => DepSchedule::chain(buckets).0,
        }
    }
}

/// One tenant: an arrival instant plus a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Display name (carried into [`JobReport`]).
    pub name: String,
    /// Cluster-clock arrival instant, seconds. Every release inside the
    /// workload is offset by this when the job is composed into the shared
    /// run.
    pub arrival_s: f64,
    /// End of the job's own compute relative to arrival, seconds (e.g.
    /// forward + backward of a training iteration); communication past
    /// `arrival_s + compute_s` counts as exposed. 0 for pure-communication
    /// jobs, for which all communication is exposed.
    pub compute_s: f64,
    /// Scheduling priority under [`SchedPolicy::Priority`] — higher wins.
    pub priority: u32,
    /// The communication workload.
    pub workload: JobWorkload,
}

impl Job {
    /// A job executing an explicit dependency-aware schedule.
    #[must_use]
    pub fn dag(name: impl Into<String>, arrival_s: f64, dag: DepSchedule) -> Self {
        Self {
            name: name.into(),
            arrival_s,
            compute_s: 0.0,
            priority: 0,
            workload: JobWorkload::Dag(dag),
        }
    }

    /// A job executing a step-synchronous schedule.
    #[must_use]
    pub fn steps(name: impl Into<String>, arrival_s: f64, schedule: StepSchedule) -> Self {
        Self {
            name: name.into(),
            arrival_s,
            compute_s: 0.0,
            priority: 0,
            workload: JobWorkload::Steps(schedule),
        }
    }

    /// A bucketed training iteration: `(gradient_ready_s, schedule)` per
    /// bucket, ready times relative to the job's arrival.
    #[must_use]
    pub fn training(
        name: impl Into<String>,
        arrival_s: f64,
        buckets: Vec<(f64, StepSchedule)>,
    ) -> Self {
        Self {
            name: name.into(),
            arrival_s,
            compute_s: 0.0,
            priority: 0,
            workload: JobWorkload::Buckets(buckets),
        }
    }

    /// Set the scheduling priority ([`SchedPolicy::Priority`]).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Set the end of the job's own compute (relative to arrival).
    #[must_use]
    pub fn with_compute(mut self, compute_s: f64) -> Self {
        self.compute_s = compute_s;
        self
    }
}

/// A set of concurrent jobs plus the policy arbitrating their contention.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancySpec {
    /// The tenants, indexed by [`JobId`].
    pub jobs: Vec<Job>,
    /// Cross-job scheduling policy.
    pub policy: SchedPolicy,
}

/// The shared multi-job DAG produced by [`TenancySpec::compose`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedTenancy {
    /// All jobs' transfers in one schedule: deps re-indexed, stages
    /// offset per job, releases offset by each job's arrival.
    pub dag: DepSchedule,
    /// Owning job of every transfer, parallel to the schedule.
    pub job_of: Vec<JobId>,
    /// Transfer range of each job inside the composed schedule.
    pub ranges: Vec<Range<usize>>,
    /// Each job's own lowered schedule (releases relative to its arrival)
    /// — the isolation-run input, kept so callers do not lower twice.
    pub lowered: Vec<DepSchedule>,
}

/// Cross-job arbitration handed to
/// [`crate::substrate::Substrate::execute_dag_jobs`].
///
/// A multi-tenant DAG is a concatenation of per-job transfer lists; serving
/// waiters in plain DAG order would hand every contended wavelength to the
/// job that happens to come first in the list. This struct tells the
/// optical grant order which job each transfer belongs to and how jobs are
/// ordered when they compete for lanes; the electrical substrate reads the
/// job tags and job count for rate attribution (max-min rates are
/// policy-free).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobArbitration {
    /// Job index of every transfer, parallel to the transfer list. Every
    /// entry must be `< rank.len()`.
    pub job_of: Vec<usize>,
    /// Static grant rank per job — when two jobs' waiters compete for the
    /// same lanes, the lower-ranked job is served first (e.g. FIFO by
    /// arrival, or by priority).
    pub rank: Vec<u64>,
    /// When set, the job with the least accumulated service (granted
    /// lane-seconds) is served first and `rank` only breaks ties —
    /// a deterministic fair-share discipline.
    pub fair_share: bool,
}

/// Result of a raw multi-job DAG run: per-transfer windows plus per-job
/// bandwidth attribution (all zeros on fabrics without rate attribution —
/// the optical ring, and the electrical barrier fast path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDagRun {
    /// The composed run's transfer windows and solver metrics.
    pub dag: DagRunReport,
    /// Per job: time with at least one transmitting flow, seconds.
    pub job_active_s: Vec<f64>,
    /// Per job: bytes delivered over the fabric.
    pub job_service_bytes: Vec<f64>,
    /// Per job: peak aggregate allocated bandwidth, bytes/s.
    pub job_peak_rate_bps: Vec<f64>,
}

impl TenantDagRun {
    /// A run on a fabric without fractional rate attribution: delivered
    /// bytes are the exact per-job payload sums (as on the electrical
    /// barrier fast path), active time and peak rate are zeros. A run
    /// without `arb` has no per-job vectors.
    #[must_use]
    pub fn unattributed(
        dag: DagRunReport,
        sched: &dyn DepSource,
        arb: Option<&JobArbitration>,
    ) -> Self {
        let jobs = arb.map_or(0, |a| a.rank.len());
        let mut service = vec![0.0f64; jobs];
        if let Some(arb) = arb {
            let mut job_of = arb.job_of.iter();
            let mut stages = sched.stages();
            while let Some(stage) = stages.next_stage() {
                for (t, &j) in stage.iter().zip(&mut job_of) {
                    service[j] += t.transfer.bytes as f64;
                }
            }
        }
        Self {
            dag,
            job_active_s: vec![0.0; jobs],
            job_service_bytes: service,
            job_peak_rate_bps: vec![0.0; jobs],
        }
    }
}

impl TenancySpec {
    /// Empty spec under `policy`.
    #[must_use]
    pub fn new(policy: SchedPolicy) -> Self {
        Self {
            jobs: Vec::new(),
            policy,
        }
    }

    /// Append a job (builder style).
    #[must_use]
    pub fn with_job(mut self, job: Job) -> Self {
        self.jobs.push(job);
        self
    }

    /// Compose all jobs into one shared [`DepSchedule`]: each job's
    /// transfers keep their internal edges (re-indexed), stages are offset
    /// per job so the combined list stays stage-monotone, and every release
    /// is offset by the job's arrival. Jobs share **no** edges — only the
    /// fabric couples them.
    pub fn compose(&self) -> Result<ComposedTenancy> {
        for job in &self.jobs {
            if !job.arrival_s.is_finite() || job.arrival_s < 0.0 {
                return Err(optical_sim::OpticalError::BadConfig(
                    "job arrival must be finite and >= 0",
                )
                .into());
            }
        }
        let mut transfers: Vec<DepTransfer> = Vec::new();
        let mut job_of: Vec<JobId> = Vec::new();
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(self.jobs.len());
        let mut lowered_jobs: Vec<DepSchedule> = Vec::with_capacity(self.jobs.len());
        let mut stage_base = 0usize;
        for (j, job) in self.jobs.iter().enumerate() {
            let lowered = job.workload.lower();
            let index_base = transfers.len();
            for t in lowered.transfers() {
                transfers.push(DepTransfer {
                    transfer: t.transfer.clone(),
                    deps: t.deps.iter().map(|&d| d + index_base).collect(),
                    release_s: job.arrival_s + t.release_s,
                    stage: stage_base + t.stage,
                });
                job_of.push(JobId(j));
            }
            stage_base += lowered.stage_count();
            ranges.push(index_base..transfers.len());
            lowered_jobs.push(lowered);
        }
        Ok(ComposedTenancy {
            dag: DepSchedule::from_transfers(transfers)?,
            job_of,
            ranges,
            lowered: lowered_jobs,
        })
    }

    /// The policy's arbitration inputs for a composed run: per-job grant
    /// ranks (FIFO: by arrival; priority: by descending priority) and the
    /// fair-share flag, plus the per-transfer job tags.
    #[must_use]
    pub fn arbitration(&self, job_of: &[JobId]) -> JobArbitration {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        let by_arrival = |a: usize, b: usize| {
            self.jobs[a]
                .arrival_s
                .total_cmp(&self.jobs[b].arrival_s)
                .then(a.cmp(&b))
        };
        match self.policy {
            SchedPolicy::Fifo | SchedPolicy::FairShare => order.sort_by(|&a, &b| by_arrival(a, b)),
            SchedPolicy::Priority => order.sort_by(|&a, &b| {
                self.jobs[b]
                    .priority
                    .cmp(&self.jobs[a].priority)
                    .then(by_arrival(a, b))
            }),
        }
        let mut rank = vec![0u64; self.jobs.len()];
        for (r, &j) in order.iter().enumerate() {
            rank[j] = r as u64;
        }
        JobArbitration {
            job_of: job_of.iter().map(|id| id.0).collect(),
            rank,
            fair_share: self.policy == SchedPolicy::FairShare,
        }
    }
}

/// Per-job outcome inside a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// The job's identifier (index into the spec's job list).
    pub job: JobId,
    /// Display name copied from the spec.
    pub name: String,
    /// Arrival instant, seconds (cluster clock).
    pub arrival_s: f64,
    /// First transfer start (arrival for empty jobs), seconds.
    pub start_s: f64,
    /// Last transfer finish (arrival for empty jobs), seconds.
    pub finish_s: f64,
    /// Job makespan: `finish_s - arrival_s`.
    pub makespan_s: f64,
    /// Makespan of the job run **alone** on an idle substrate.
    pub isolated_s: f64,
    /// `makespan_s / isolated_s` (1.0 for empty jobs) — how much the other
    /// tenants cost this one.
    pub slowdown: f64,
    /// Sum of the job's per-transfer wire durations, seconds.
    pub total_comm_s: f64,
    /// Communication past the job's own compute
    /// (`finish - arrival - compute`), clamped at 0, seconds.
    pub exposed_comm_s: f64,
    /// Fraction of communication hidden behind the job's compute, `[0, 1]`.
    pub hidden_fraction: f64,
    /// Number of transfers.
    pub transfers: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Mean allocated bandwidth while transmitting, bytes/s (electrical
    /// event engine only; 0 elsewhere).
    pub mean_rate_bps: f64,
    /// Peak aggregate allocated bandwidth, bytes/s (electrical event
    /// engine only; 0 elsewhere).
    pub peak_rate_bps: f64,
    /// The job's fraction of all bytes the fabric delivered (its bandwidth
    /// bill under proportional pricing); 0 when nothing moved.
    pub bandwidth_share: f64,
}

/// Result of a multi-job run on one substrate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Name of the substrate that executed the cluster.
    pub substrate: String,
    /// The scheduling policy in force.
    pub policy: SchedPolicy,
    /// Completion of the last transfer of any job, seconds.
    pub makespan_s: f64,
    /// Per-job outcomes, indexed by [`JobId`].
    pub jobs: Vec<JobReport>,
    /// Jain fairness index over per-job slowdowns, `(0, 1]`: 1 when every
    /// tenant is slowed equally, `1/n` when one tenant absorbs all of it.
    pub fairness_index: f64,
    /// Per-job slowdown percentiles (streaming P², exact for <= 5 jobs),
    /// computed by the same [`crate::quantile::PercentileSet`] the
    /// open-loop stream reports use.
    pub slowdown: crate::quantile::Percentiles,
    /// Per-job makespan percentiles, seconds (same estimator).
    pub job_makespan: crate::quantile::Percentiles,
    /// Highest wavelength index in use at any instant + 1 (0 without WDM).
    pub peak_wavelength: usize,
    /// Fluid-solver invocations (0 on the optical substrate).
    pub rate_recomputations: usize,
    /// Progressive-filling work units (0 on the optical substrate).
    pub solver_work: usize,
    /// Discrete events processed by the shared event kernel.
    pub events: u64,
}

impl ClusterReport {
    /// Mean per-job slowdown (1.0 for an empty cluster).
    #[must_use]
    pub fn mean_slowdown(&self) -> f64 {
        if self.jobs.is_empty() {
            1.0
        } else {
            self.jobs.iter().map(|j| j.slowdown).sum::<f64>() / self.jobs.len() as f64
        }
    }

    /// Worst per-job slowdown (1.0 for an empty cluster).
    #[must_use]
    pub fn max_slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.slowdown).fold(1.0f64, f64::max)
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative values; 1.0
/// for empty or all-zero inputs.
#[must_use]
pub fn jain_index(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    jain_from_sums(values.len() as u64, sum, sq)
}

/// [`jain_index`] of `n` values from their sum and sum of squares, so a
/// stream can keep running sums instead of the values.
pub(crate) fn jain_from_sums(n: u64, sum: f64, sq: f64) -> f64 {
    if n == 0 || sq <= 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sq)
    }
}

/// Assemble the [`ClusterReport`] from a composed run plus per-job
/// isolation makespans. Shared by both substrates (called from the
/// provided [`crate::substrate::Substrate::execute_jobs`]).
#[must_use]
pub fn cluster_report(
    spec: &TenancySpec,
    composed: &ComposedTenancy,
    run: &TenantDagRun,
    isolated_s: &[f64],
) -> ClusterReport {
    let total_service: f64 = run.job_service_bytes.iter().sum();
    let mut jobs = Vec::with_capacity(spec.jobs.len());
    for (j, job) in spec.jobs.iter().enumerate() {
        let range = composed.ranges[j].clone();
        let windows = &run.dag.transfers[range.clone()];
        let bytes: u64 = composed.dag.transfers()[range]
            .iter()
            .map(|t| t.transfer.bytes)
            .sum();
        let (start_s, finish_s) = if windows.is_empty() {
            (job.arrival_s, job.arrival_s)
        } else {
            let start = windows
                .iter()
                .map(|w| w.start_s)
                .fold(f64::INFINITY, f64::min);
            let finish = windows.iter().map(|w| w.finish_s).fold(0.0f64, f64::max);
            (start, finish.max(start))
        };
        let makespan_s = (finish_s - job.arrival_s).max(0.0);
        let isolated = isolated_s[j];
        let slowdown = if isolated > 0.0 {
            makespan_s / isolated
        } else {
            1.0
        };
        let total_comm_s = windows
            .iter()
            .fold(0.0, |total, w| total + (w.finish_s - w.start_s));
        let exposed_comm_s = (finish_s - job.arrival_s - job.compute_s).max(0.0);
        let active = run.job_active_s.get(j).copied().unwrap_or(0.0);
        let service = run.job_service_bytes.get(j).copied().unwrap_or(0.0);
        jobs.push(JobReport {
            job: JobId(j),
            name: job.name.clone(),
            arrival_s: job.arrival_s,
            start_s,
            finish_s,
            makespan_s,
            isolated_s: isolated,
            slowdown,
            total_comm_s,
            exposed_comm_s,
            hidden_fraction: hidden_comm_fraction(total_comm_s, exposed_comm_s),
            transfers: windows.len(),
            bytes,
            mean_rate_bps: if active > 0.0 { service / active } else { 0.0 },
            peak_rate_bps: run.job_peak_rate_bps.get(j).copied().unwrap_or(0.0),
            bandwidth_share: if total_service > 0.0 {
                service / total_service
            } else {
                0.0
            },
        });
    }
    let slowdowns: Vec<f64> = jobs.iter().map(|j| j.slowdown).collect();
    // Percentiles via the same streaming estimator the open-loop stream
    // reports use (crate::quantile), fed in job-index order so closed
    // reports are deterministic. Exact for up to five tenants.
    let mut slow_pcts = crate::quantile::PercentileSet::new();
    let mut make_pcts = crate::quantile::PercentileSet::new();
    for j in &jobs {
        slow_pcts.observe(j.slowdown);
        make_pcts.observe(j.makespan_s);
    }
    ClusterReport {
        substrate: run.dag.substrate.clone(),
        policy: spec.policy,
        makespan_s: run.dag.makespan_s,
        jobs,
        fairness_index: jain_index(&slowdowns),
        slowdown: slow_pcts.summary(),
        job_makespan: make_pcts.summary(),
        peak_wavelength: run.dag.peak_wavelength,
        rate_recomputations: run.dag.rate_recomputations,
        solver_work: run.dag.solver_work,
        events: run.dag.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::oring_schedule;
    use crate::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
    use optical_sim::{NodeId, OpticalConfig, Transfer};

    fn optical(n: usize, w: usize) -> OpticalSubstrate {
        OpticalSubstrate::new(
            OpticalConfig::new(n, w)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
        .unwrap()
    }

    fn electrical(n: usize) -> ElectricalSubstrate {
        ElectricalSubstrate::new(electrical_sim::topology::star_cluster(n, 1e9, 0.0), 0.0)
    }

    #[test]
    fn compose_offsets_releases_stages_and_deps() {
        let sched = StepSchedule::from_steps(vec![
            vec![Transfer::shortest(NodeId(0), NodeId(1), 10)],
            vec![Transfer::shortest(NodeId(1), NodeId(2), 20)],
        ]);
        let spec = TenancySpec::new(SchedPolicy::Fifo)
            .with_job(Job::steps("a", 0.0, sched.clone()))
            .with_job(Job::steps("b", 2e-3, sched));
        let c = spec.compose().unwrap();
        assert_eq!(c.dag.len(), 4);
        assert_eq!(c.ranges, vec![0..2, 2..4]);
        assert_eq!(c.job_of, vec![JobId(0), JobId(0), JobId(1), JobId(1)]);
        // Job b's root is released at its arrival; its internal edge is
        // re-indexed, and its stages are offset past job a's.
        assert_eq!(c.dag.transfers()[2].release_s, 2e-3);
        assert_eq!(c.dag.transfers()[2].deps, Vec::<usize>::new());
        assert_eq!(c.dag.transfers()[3].deps, vec![2]);
        assert_eq!(c.dag.transfers()[3].stage, 3);
        // Jobs share no edges.
        assert!(c.dag.transfers()[2..]
            .iter()
            .all(|t| t.deps.iter().all(|&d| d >= 2)));
    }

    #[test]
    fn compose_rejects_bad_arrivals() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let spec = TenancySpec::new(SchedPolicy::Fifo).with_job(Job::dag(
                "x",
                bad,
                DepSchedule::default(),
            ));
            assert!(spec.compose().is_err(), "arrival {bad} must be rejected");
        }
    }

    #[test]
    fn arbitration_ranks_follow_the_policy() {
        let mk = |policy| {
            TenancySpec::new(policy)
                .with_job(Job::dag("late", 2.0, DepSchedule::default()).with_priority(5))
                .with_job(Job::dag("early", 1.0, DepSchedule::default()).with_priority(1))
        };
        let fifo = mk(SchedPolicy::Fifo);
        let arb = fifo.arbitration(&[]);
        assert_eq!(arb.rank, vec![1, 0]); // early job ranked first
        assert!(!arb.fair_share);
        let prio = mk(SchedPolicy::Priority);
        let arb = prio.arbitration(&[]);
        assert_eq!(arb.rank, vec![0, 1]); // high priority ranked first
        let fair = mk(SchedPolicy::FairShare);
        assert!(fair.arbitration(&[]).fair_share);
    }

    #[test]
    fn cluster_percentiles_match_the_exact_reference() {
        let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            1 << 20,
        )]]);
        let mut spec = TenancySpec::new(SchedPolicy::Fifo);
        for j in 0..4 {
            spec = spec.with_job(Job::steps(format!("j{j}"), j as f64 * 1e-4, sched.clone()));
        }
        for report in [
            optical(8, 4).execute_jobs(&spec).unwrap(),
            electrical(8).execute_jobs(&spec).unwrap(),
        ] {
            let slowdowns: Vec<f64> = report.jobs.iter().map(|j| j.slowdown).collect();
            let makespans: Vec<f64> = report.jobs.iter().map(|j| j.makespan_s).collect();
            // Four tenants: the streaming estimator is still in its exact
            // phase, so the percentiles equal the nearest-rank reference.
            assert_eq!(
                report.slowdown,
                crate::quantile::exact_percentiles(&slowdowns),
                "{}",
                report.substrate
            );
            assert_eq!(
                report.job_makespan,
                crate::quantile::exact_percentiles(&makespans)
            );
        }
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One tenant absorbing everything: 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_job_cluster_matches_execute_dag_bit_exactly_on_both() {
        let sched = oring_schedule(8, 8_000, 4);
        for policy in SchedPolicy::ALL {
            let spec = TenancySpec::new(policy).with_job(Job::steps("solo", 0.0, sched.clone()));
            let dag = DepSchedule::from_steps(&sched);

            let mut o = optical(8, 4);
            let direct = o.execute_dag(&dag).unwrap();
            let cluster = o.execute_jobs(&spec).unwrap();
            assert_eq!(cluster.makespan_s.to_bits(), direct.makespan_s.to_bits());
            assert_eq!(cluster.jobs[0].slowdown, 1.0);

            let mut e = electrical(8);
            let direct = e.execute_dag(&dag).unwrap();
            let cluster = e.execute_jobs(&spec).unwrap();
            assert_eq!(cluster.makespan_s.to_bits(), direct.makespan_s.to_bits());
            assert_eq!(cluster.jobs[0].slowdown, 1.0);
            assert_eq!(cluster.fairness_index, 1.0);
        }
    }

    #[test]
    fn two_disjoint_jobs_run_unslowed() {
        // Jobs on disjoint node pairs with ample wavelengths: no mutual
        // slowdown, perfect fairness, on both substrates.
        let a = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            1_000_000,
        )]]);
        let b = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(4),
            NodeId(5),
            1_000_000,
        )]]);
        let spec = TenancySpec::new(SchedPolicy::Fifo)
            .with_job(Job::steps("a", 0.0, a))
            .with_job(Job::steps("b", 0.0, b));
        for report in [
            optical(8, 4).execute_jobs(&spec).unwrap(),
            electrical(8).execute_jobs(&spec).unwrap(),
        ] {
            assert!((report.makespan_s - 1e-3).abs() < 1e-12, "{report:?}");
            for j in &report.jobs {
                assert!((j.slowdown - 1.0).abs() < 1e-9);
            }
            assert!((report.fairness_index - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn priority_beats_fifo_order_for_the_favoured_job_under_scarcity() {
        // One wavelength, two jobs on the same arc: under FIFO job 0 goes
        // first; under Priority (job 1 favoured) job 1 goes first.
        let t = |_| {
            StepSchedule::from_steps(vec![vec![Transfer::directed(
                NodeId(0),
                NodeId(2),
                1_000_000,
                optical_sim::Direction::Clockwise,
            )]])
        };
        let spec = |policy| {
            TenancySpec::new(policy)
                .with_job(Job::steps("a", 0.0, t(0)))
                .with_job(Job::steps("b", 0.0, t(1)).with_priority(9))
        };
        let mut sub = optical(8, 1);
        let fifo = sub.execute_jobs(&spec(SchedPolicy::Fifo)).unwrap();
        assert!(fifo.jobs[0].finish_s < fifo.jobs[1].finish_s);
        let prio = sub.execute_jobs(&spec(SchedPolicy::Priority)).unwrap();
        assert!(prio.jobs[1].finish_s < prio.jobs[0].finish_s);
        // The fabric does the same total work either way.
        assert_eq!(fifo.makespan_s.to_bits(), prio.makespan_s.to_bits());
    }

    #[test]
    fn identical_fair_share_jobs_finish_together() {
        let sched = oring_schedule(8, 8_000, 4);
        let spec = TenancySpec::new(SchedPolicy::FairShare)
            .with_job(Job::steps("a", 0.0, sched.clone()))
            .with_job(Job::steps("b", 0.0, sched));
        for report in [
            optical(8, 8).execute_jobs(&spec).unwrap(),
            electrical(8).execute_jobs(&spec).unwrap(),
        ] {
            let (f0, f1) = (report.jobs[0].finish_s, report.jobs[1].finish_s);
            assert!(
                (f0 - f1).abs() <= 1e-9 * f0.max(f1),
                "{}: {f0} vs {f1}",
                report.substrate
            );
            assert!(report.fairness_index > 0.999);
        }
    }

    #[test]
    fn electrical_cluster_attributes_bandwidth_shares() {
        // Two jobs share one uplink: max-min halves the rate, each gets
        // half the delivered bytes and a positive mean rate.
        let s = |dst| {
            StepSchedule::from_steps(vec![vec![Transfer::shortest(NodeId(0), dst, 1_000_000)]])
        };
        let spec = TenancySpec::new(SchedPolicy::FairShare)
            .with_job(Job::steps("a", 0.0, s(NodeId(1))))
            .with_job(Job::steps("b", 0.0, s(NodeId(2))));
        let report = electrical(4).execute_jobs(&spec).unwrap();
        for j in &report.jobs {
            assert!((j.bandwidth_share - 0.5).abs() < 1e-9, "{j:?}");
            assert!(j.mean_rate_bps > 0.0);
            assert!(j.peak_rate_bps >= j.mean_rate_bps - 1e-6);
        }
        assert!(report.rate_recomputations > 0);
    }

    #[test]
    fn empty_cluster_and_empty_jobs_are_total() {
        let spec = TenancySpec::new(SchedPolicy::Fifo);
        let report = optical(8, 4).execute_jobs(&spec).unwrap();
        assert_eq!(report.makespan_s, 0.0);
        assert!(report.jobs.is_empty());
        assert_eq!(report.fairness_index, 1.0);
        assert_eq!(report.mean_slowdown(), 1.0);
        assert_eq!(report.max_slowdown(), 1.0);

        let spec = TenancySpec::new(SchedPolicy::Fifo).with_job(Job::dag(
            "idle",
            5e-3,
            DepSchedule::default(),
        ));
        let report = electrical(4).execute_jobs(&spec).unwrap();
        assert_eq!(report.jobs[0].start_s, 5e-3);
        assert_eq!(report.jobs[0].makespan_s, 0.0);
        assert_eq!(report.jobs[0].slowdown, 1.0);
        assert_eq!(report.jobs[0].hidden_fraction, 1.0);
        // +0.0, not the -0.0 an empty `f64` sum starts from.
        assert_eq!(report.jobs[0].total_comm_s.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn training_jobs_expose_comm_past_their_compute() {
        let bucket = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            2_000_000,
        )]]);
        // Bucket ready at 1 ms, compute ends at 1.5 ms, transfer lasts 2 ms
        // → 1.5 ms exposed of 2 ms total.
        let job = Job::training("t", 0.0, vec![(1e-3, bucket.clone())]).with_compute(1.5e-3);
        let spec = TenancySpec::new(SchedPolicy::Fifo).with_job(job);
        let report = optical(8, 4).execute_jobs(&spec).unwrap();
        let j = &report.jobs[0];
        assert!((j.finish_s - 3e-3).abs() < 1e-12);
        assert!((j.exposed_comm_s - 1.5e-3).abs() < 1e-12);
        assert!((j.hidden_fraction - 0.25).abs() < 1e-9);
        assert!((j.total_comm_s - 2e-3).abs() < 1e-12);
    }
}
