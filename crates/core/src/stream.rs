//! Open-loop cluster service: arrival streams, windowed metrics and
//! checkpoint/resume.
//!
//! The closed-set tenancy path ([`crate::substrate::Substrate::execute_jobs`])
//! answers "what happens when these K jobs share the fabric" — every job is
//! known up front. A production cluster instead faces an **open-loop arrival
//! stream**: jobs arrive over time (Poisson, traced, bursty), an admission
//! policy decides whether each runs now, queues or is turned away, and
//! operators read *windowed* service metrics rather than one end-of-run
//! report. This module provides that service loop on both substrates:
//!
//! * [`ArrivalProcess`] — deterministic arrival-time generators (Poisson
//!   via an inverse-CDF over a splitmix64 stream, explicit traces, bursts);
//! * [`Admission`] — immediate admission, bounded-concurrency queueing, or
//!   load shedding, layered on the existing [`SchedPolicy`] arbitration;
//! * [`StreamSpec`] → [`Substrate::execute_stream`] — arriving jobs'
//!   transfers are injected into the **running** engines
//!   ([`optical_sim::GrantEngine`], [`electrical_sim::FluidEngine`]) — the
//!   same engines the closed path drives, so a stream whose arrivals are
//!   all known up front is bit-exact with [`Substrate::execute_jobs`];
//! * [`WindowedReport`] — per-window arrival/completion counts,
//!   utilization, slowdown percentiles (streaming P², see
//!   [`crate::quantile`]) and Jain fairness, computed online with bounded
//!   memory: a million-arrival run never materializes per-job reports
//!   unless [`StreamSpec::retain_jobs`] asks for them;
//! * [`StreamCheckpoint`] — a versioned snapshot of the engine (kernel
//!   events, clock, slots) plus the service state (generator, queue,
//!   aggregates). Resuming is **byte-identical** to the uninterrupted run.
//!
//! # Determinism contract
//!
//! The driver injects every arrival whose instant is at or before the
//! engine's next event time (plus the substrate's coincidence tolerance)
//! *before* stepping, and arrivals are nondecreasing, so an un-injected
//! arrival can never fall inside a batch the engine is about to process.
//! Promotion instants, grant decisions and event counts therefore match the
//! closed path exactly — pinned by the differential tests below and in
//! `tests/stream_differential.rs`.
//!
//! ```
//! use wrht_core::stream::{ArrivalProcess, StreamSpec, StreamTemplate};
//! use wrht_core::substrate::{OpticalSubstrate, Substrate};
//! use wrht_core::tenancy::{JobWorkload, SchedPolicy};
//! use optical_sim::sim::StepSchedule;
//! use optical_sim::{NodeId, OpticalConfig, Transfer};
//!
//! let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
//!     NodeId(0), NodeId(1), 1 << 20,
//! )]]);
//! let spec = StreamSpec::new(
//!     ArrivalProcess::Poisson { rate_hz: 2e3, count: 32, seed: 7 },
//!     SchedPolicy::Fifo,
//! )
//! .with_template(StreamTemplate::new("job", JobWorkload::Steps(sched)));
//! let mut sub = OpticalSubstrate::new(OpticalConfig::new(8, 4)).unwrap();
//! let report = sub.execute_stream(&spec).unwrap();
//! assert_eq!(report.completed, 32);
//! ```

use serde::{Deserialize, Serialize, Value};
use std::rc::Rc;

use crate::dag::DepSchedule;
use crate::engine::{Completion, FabricEngine};
use crate::error::Result;
use crate::quantile::{PercentileSet, Percentiles};
use crate::substrate::Substrate;
use crate::tenancy::{JobWorkload, SchedPolicy};
use optical_sim::OpticalError;

/// Version tag of [`StreamCheckpoint`]; bump on any layout change.
pub const STREAM_CHECKPOINT_VERSION: u32 = 2;

fn cfg_err(msg: &'static str) -> crate::error::WrhtError {
    OpticalError::BadConfig(msg).into()
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

/// A deterministic generator of nondecreasing job-arrival instants.
///
/// Every process produces a **finite** stream (campaigns and tests need
/// closed runs); arrivals are generated lazily one at a time, so the
/// generator state is a few words regardless of the stream length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times at `rate_hz` jobs/second, drawn by
    /// inverse-CDF from a splitmix64 stream seeded with `seed`. Exactly
    /// `count` arrivals.
    Poisson {
        /// Mean arrival rate, jobs per second (finite, > 0).
        rate_hz: f64,
        /// Number of arrivals to generate.
        count: u64,
        /// RNG seed; equal seeds replay the identical stream.
        seed: u64,
    },
    /// An explicit, nondecreasing list of arrival instants (seconds).
    Trace {
        /// The arrival instants; must be finite, >= 0 and nondecreasing.
        arrivals_s: Vec<f64>,
    },
    /// `bursts` bursts of `size` simultaneous arrivals, `period_s` apart
    /// (burst `k` arrives at `k * period_s`).
    Burst {
        /// Number of bursts.
        bursts: u64,
        /// Arrivals per burst (>= 1).
        size: u64,
        /// Inter-burst period, seconds (finite, >= 0).
        period_s: f64,
    },
}

impl ArrivalProcess {
    /// Total number of arrivals the process will generate.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            ArrivalProcess::Poisson { count, .. } => *count,
            ArrivalProcess::Trace { arrivals_s } => arrivals_s.len() as u64,
            ArrivalProcess::Burst { bursts, size, .. } => bursts.saturating_mul(*size),
        }
    }

    /// Stable lowercase kind label used in campaign rows.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Trace { .. } => "trace",
            ArrivalProcess::Burst { .. } => "burst",
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            ArrivalProcess::Poisson { rate_hz, .. } => {
                if !rate_hz.is_finite() || *rate_hz <= 0.0 {
                    return Err(cfg_err("arrival rate must be finite and > 0"));
                }
            }
            ArrivalProcess::Trace { arrivals_s } => {
                let mut prev = 0.0f64;
                for &a in arrivals_s {
                    if !a.is_finite() || a < 0.0 {
                        return Err(cfg_err("trace arrivals must be finite and >= 0"));
                    }
                    if a < prev {
                        return Err(cfg_err("trace arrivals must be nondecreasing"));
                    }
                    prev = a;
                }
            }
            ArrivalProcess::Burst { size, period_s, .. } => {
                if *size == 0 {
                    return Err(cfg_err("burst size must be >= 1"));
                }
                if !period_s.is_finite() || *period_s < 0.0 {
                    return Err(cfg_err("burst period must be finite and >= 0"));
                }
            }
        }
        Ok(())
    }

    /// Generate the next arrival instant, advancing `gen`. `None` when the
    /// stream is exhausted.
    fn next(&self, gen: &mut GenState) -> Option<f64> {
        match self {
            ArrivalProcess::Poisson { rate_hz, count, .. } => {
                if gen.idx >= *count {
                    return None;
                }
                let z = splitmix64(&mut gen.rng);
                // u in (0, 1]; -ln(u) is the exponential inverse-CDF.
                let u = ((z >> 11) + 1) as f64 / (1u64 << 53) as f64;
                gen.clock_s += -u.ln() / rate_hz;
                gen.idx += 1;
                Some(gen.clock_s)
            }
            ArrivalProcess::Trace { arrivals_s } => {
                let t = *arrivals_s.get(usize::try_from(gen.idx).ok()?)?;
                gen.idx += 1;
                Some(t)
            }
            ArrivalProcess::Burst {
                bursts,
                size,
                period_s,
            } => {
                if gen.idx >= bursts.saturating_mul(*size) {
                    return None;
                }
                let t = (gen.idx / size) as f64 * period_s;
                gen.idx += 1;
                Some(t)
            }
        }
    }

    fn fresh_gen(&self) -> GenState {
        GenState {
            idx: 0,
            clock_s: 0.0,
            rng: match self {
                ArrivalProcess::Poisson { seed, .. } => *seed,
                _ => 0,
            },
        }
    }
}

/// Arrival-generator cursor; part of the checkpointed service state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GenState {
    /// Arrivals generated so far.
    idx: u64,
    /// Running clock of the Poisson process, seconds.
    clock_s: f64,
    /// splitmix64 state (the seed before the first draw).
    rng: u64,
}

/// One step of the splitmix64 generator (Steele et al.) — a full-period
/// 64-bit mixer, the standard seeding primitive.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// What happens to a job the instant it arrives.
///
/// Admission is orthogonal to [`SchedPolicy`]: the policy arbitrates jobs
/// *inside* the fabric, admission decides how many get in at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// Every arrival enters the fabric immediately (the closed-set
    /// semantics — [`Substrate::execute_jobs`] with pre-known arrivals is
    /// bit-exact with a stream under this mode).
    Immediate,
    /// At most `limit` jobs run concurrently; excess arrivals wait in a
    /// FIFO queue and are admitted as completions free capacity.
    QueueDepth {
        /// Maximum concurrently running jobs (>= 1).
        limit: usize,
    },
    /// At most `limit` jobs run concurrently; excess arrivals are dropped
    /// (counted as rejected, never executed).
    Reject {
        /// Maximum concurrently running jobs (>= 1).
        limit: usize,
    },
}

impl Admission {
    /// Stable label used in reports, hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Admission::Immediate => "immediate".into(),
            Admission::QueueDepth { limit } => format!("queue:{limit}"),
            Admission::Reject { limit } => format!("reject:{limit}"),
        }
    }

    fn validate(self) -> Result<()> {
        match self {
            Admission::Immediate => Ok(()),
            Admission::QueueDepth { limit } | Admission::Reject { limit } => {
                if limit == 0 {
                    Err(cfg_err("admission limit must be >= 1"))
                } else {
                    Ok(())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stream specification
// ---------------------------------------------------------------------------

/// A job template instantiated by arrivals (round-robin over the spec's
/// template list: arrival `i` runs template `i % templates.len()`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTemplate {
    /// Display name (carried into retained job reports via the template
    /// index).
    pub name: String,
    /// Scheduling priority under [`SchedPolicy::Priority`] — higher wins.
    pub priority: u32,
    /// The communication workload each instance executes (releases
    /// relative to the job's admission instant, exactly like
    /// [`crate::tenancy::Job::arrival_s`] offsets in the closed path).
    pub workload: JobWorkload,
}

impl StreamTemplate {
    /// A template with default (0) priority.
    #[must_use]
    pub fn new(name: impl Into<String>, workload: JobWorkload) -> Self {
        Self {
            name: name.into(),
            priority: 0,
            workload,
        }
    }

    /// Set the scheduling priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// An open-loop service workload: an arrival process over job templates,
/// an admission policy, and the windowed-metrics configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The arrival-time generator.
    pub arrivals: ArrivalProcess,
    /// Job templates, assigned round-robin by arrival index (>= 1).
    pub templates: Vec<StreamTemplate>,
    /// Cross-job scheduling policy inside the fabric.
    pub policy: SchedPolicy,
    /// Admission control at the service edge.
    pub admission: Admission,
    /// Metric window length, seconds (finite, > 0). Windows with no
    /// activity are elided from the report (their indices simply skip).
    pub window_s: f64,
    /// Reference capacity for utilization, bytes/second (finite, >= 0;
    /// 0 disables utilization). E.g. `wavelengths * lambda_bps` for the
    /// optical ring.
    pub reference_bps: f64,
    /// Keep a per-job [`StreamJobReport`] for every completion. Off by
    /// default — the memory-bounded mode for million-arrival runs.
    pub retain_jobs: bool,
}

impl StreamSpec {
    /// A spec with immediate admission, 1 ms windows and no retained jobs.
    #[must_use]
    pub fn new(arrivals: ArrivalProcess, policy: SchedPolicy) -> Self {
        Self {
            arrivals,
            templates: Vec::new(),
            policy,
            admission: Admission::Immediate,
            window_s: 1e-3,
            reference_bps: 0.0,
            retain_jobs: false,
        }
    }

    /// Append a job template (builder style).
    #[must_use]
    pub fn with_template(mut self, template: StreamTemplate) -> Self {
        self.templates.push(template);
        self
    }

    /// Set the admission policy (builder style).
    #[must_use]
    pub fn with_admission(mut self, admission: Admission) -> Self {
        self.admission = admission;
        self
    }

    /// Set the metric window length (builder style).
    #[must_use]
    pub fn with_window(mut self, window_s: f64) -> Self {
        self.window_s = window_s;
        self
    }

    /// Set the utilization reference capacity (builder style).
    #[must_use]
    pub fn with_reference_bps(mut self, reference_bps: f64) -> Self {
        self.reference_bps = reference_bps;
        self
    }

    /// Retain per-job reports (builder style).
    #[must_use]
    pub fn with_retained_jobs(mut self, retain: bool) -> Self {
        self.retain_jobs = retain;
        self
    }

    fn validate(&self) -> Result<()> {
        self.arrivals.validate()?;
        self.admission.validate()?;
        if self.templates.is_empty() {
            return Err(cfg_err("stream spec needs at least one job template"));
        }
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(cfg_err("metric window must be finite and > 0"));
        }
        if !self.reference_bps.is_finite() || self.reference_bps < 0.0 {
            return Err(cfg_err("reference capacity must be finite and >= 0"));
        }
        Ok(())
    }

    fn template_of(&self, arrival_idx: u64) -> usize {
        (arrival_idx % self.templates.len() as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Service metrics over one time window. Only windows with activity are
/// reported; `index` identifies the absolute window so gaps are explicit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedReport {
    /// Absolute window index (`floor(t / window_s)`).
    pub index: u64,
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// Jobs that arrived in the window.
    pub arrivals: u64,
    /// Jobs admitted into the fabric in the window (includes jobs admitted
    /// from the queue).
    pub admitted: u64,
    /// Jobs rejected in the window.
    pub rejected: u64,
    /// Jobs that completed in the window.
    pub completed: u64,
    /// Payload bytes of jobs completed in the window (credited at
    /// completion).
    pub bytes: f64,
    /// `bytes / (reference_bps * window_s)`; 0 when no reference is set.
    pub utilization: f64,
    /// Slowdown percentiles over the window's completions (streaming P²).
    pub slowdown: Percentiles,
    /// Jain fairness index over the window's completion slowdowns.
    pub fairness_index: f64,
    /// Admission-queue depth at the instant the window closed.
    pub queue_depth: usize,
    /// Concurrently running jobs at the instant the window closed.
    pub in_service: usize,
}

/// Per-job outcome retained when [`StreamSpec::retain_jobs`] is set,
/// in completion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamJobReport {
    /// The job's arrival index (0-based, stream order).
    pub job: u64,
    /// Template index the job instantiated.
    pub template: usize,
    /// Arrival instant, seconds.
    pub arrival_s: f64,
    /// Admission instant (equals `arrival_s` unless the job queued).
    pub admit_s: f64,
    /// First transfer grant instant (admission instant for empty jobs).
    pub start_s: f64,
    /// Last transfer completion instant.
    pub finish_s: f64,
    /// `finish_s - arrival_s` (queueing delay included).
    pub makespan_s: f64,
    /// Makespan over the template's isolated makespan (1.0 when the
    /// template is empty).
    pub slowdown: f64,
}

/// End-of-run report of an open-loop stream execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Name of the substrate that executed the stream.
    pub substrate: String,
    /// The scheduling policy in force.
    pub policy: SchedPolicy,
    /// The admission policy in force.
    pub admission: Admission,
    /// Jobs that arrived.
    pub arrivals: u64,
    /// Jobs admitted into the fabric.
    pub admitted: u64,
    /// Jobs rejected at the edge.
    pub rejected: u64,
    /// Jobs that ran to completion (`admitted` for closed runs).
    pub completed: u64,
    /// Completion instant of the last job, seconds (0 when nothing ran).
    pub makespan_s: f64,
    /// Discrete events processed by the shared event kernel.
    pub events: u64,
    /// `total bytes / (reference_bps * makespan_s)`; 0 without a reference.
    pub mean_utilization: f64,
    /// Slowdown percentiles over all completions (streaming P²).
    pub slowdown: Percentiles,
    /// Mean slowdown over all completions (1.0 when none completed).
    pub mean_slowdown: f64,
    /// Jain fairness index over all completion slowdowns.
    pub fairness_index: f64,
    /// Deepest the admission queue ever got.
    pub peak_queue_depth: usize,
    /// Most jobs ever running concurrently.
    pub peak_in_service: usize,
    /// Per-window metrics (windows without activity elided).
    pub windows: Vec<WindowedReport>,
    /// Per-job reports in completion order (empty unless
    /// [`StreamSpec::retain_jobs`]).
    pub jobs: Vec<StreamJobReport>,
}

/// Result of [`Substrate::execute_stream_until`]: the run either finished
/// or paused at the requested arrival count.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOutcome {
    /// The stream ran to completion.
    Done(StreamReport),
    /// The stream paused; resume with [`Substrate::resume_stream`].
    Paused(Box<StreamCheckpoint>),
}

impl StreamOutcome {
    /// The finished report, if the stream completed.
    #[must_use]
    pub fn report(self) -> Option<StreamReport> {
        match self {
            StreamOutcome::Done(r) => Some(r),
            StreamOutcome::Paused(_) => None,
        }
    }

    /// The checkpoint, if the stream paused.
    #[must_use]
    pub fn checkpoint(self) -> Option<StreamCheckpoint> {
        match self {
            StreamOutcome::Done(_) => None,
            StreamOutcome::Paused(c) => Some(*c),
        }
    }
}

/// A versioned, serializable snapshot of a paused stream: the engine image
/// (kernel events, clock, transfer slots) plus the service state
/// (generator cursor, admission queue, live jobs, metric aggregates).
///
/// Resuming on an identically configured substrate with the identical spec
/// is **byte-identical** to the uninterrupted run. The snapshot layout is
/// pinned by [`STREAM_CHECKPOINT_VERSION`]; unknown versions are rejected
/// on resume rather than misread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Layout version ([`STREAM_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Substrate the snapshot was taken on; resume rejects mismatches.
    pub substrate: String,
    /// Arrivals generated before the pause (resume continues from here).
    pub arrivals_seen: u64,
    /// Template count of the originating spec (spec-mismatch guard).
    templates: usize,
    /// Scheduling policy of the originating spec (spec-mismatch guard).
    policy: SchedPolicy,
    /// Substrate-specific engine snapshot (opaque, versioned internally).
    engine: Value,
    /// The driver's service state.
    state: ServiceState,
}

// ---------------------------------------------------------------------------
// Service state (checkpointed)
// ---------------------------------------------------------------------------

/// A queued arrival awaiting admission ([`Admission::QueueDepth`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QueuedJob {
    idx: u64,
    template: usize,
    arrival_s: f64,
}

/// A job currently inside the fabric, indexed by engine job slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LiveJob {
    idx: u64,
    template: usize,
    arrival_s: f64,
    admit_s: f64,
    /// Transfers still outstanding.
    remaining: usize,
    /// Earliest transfer grant seen so far (`None` before any completion —
    /// an `Option`, not NaN, so snapshots survive JSON round-trips).
    first_start: Option<f64>,
    /// Latest transfer completion seen so far.
    last_finish: f64,
}

/// Accumulator for the currently open metric window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct WindowAcc {
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    bytes: f64,
    slow: PercentileSet,
    slow_sum: f64,
    slow_sq: f64,
}

/// Everything the driver tracks outside the engine. Serializable so
/// checkpoints capture the loop mid-flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ServiceState {
    gen: GenState,
    /// Pre-fetched next arrival `(index, instant)` not yet dispatched.
    next_arrival: Option<(u64, f64)>,
    /// FIFO admission queue with a compacting head cursor (popping is O(1)
    /// without shifting; the backlog is compacted once the dead prefix
    /// dominates).
    queue: Vec<QueuedJob>,
    queue_head: usize,
    /// Live jobs by engine job slot (slots are reused, so this stays as
    /// small as the peak concurrency).
    live: Vec<Option<LiveJob>>,
    in_service: usize,
    arrivals: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    total_bytes: f64,
    last_finish_s: f64,
    peak_queue_depth: usize,
    peak_in_service: usize,
    run_slow: PercentileSet,
    slow_sum: f64,
    slow_sq: f64,
    /// Index of the currently open window.
    window_index: u64,
    window: WindowAcc,
    windows: Vec<WindowedReport>,
    jobs: Vec<StreamJobReport>,
}

impl ServiceState {
    fn fresh(spec: &StreamSpec) -> Self {
        Self {
            gen: spec.arrivals.fresh_gen(),
            next_arrival: None,
            queue: Vec::new(),
            queue_head: 0,
            live: Vec::new(),
            in_service: 0,
            arrivals: 0,
            admitted: 0,
            rejected: 0,
            completed: 0,
            total_bytes: 0.0,
            last_finish_s: 0.0,
            peak_queue_depth: 0,
            peak_in_service: 0,
            run_slow: PercentileSet::new(),
            slow_sum: 0.0,
            slow_sq: 0.0,
            window_index: 0,
            window: WindowAcc::default(),
            windows: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn queue_depth(&self) -> usize {
        self.queue.len() - self.queue_head
    }

    /// Advance the open window to the one containing `t`, finalizing the
    /// previous one. Empty windows in between are elided, so sparse
    /// streams (a completion at `t = 10^9` with millisecond windows) cost
    /// one report, not a billion.
    fn roll(&mut self, t: f64, spec: &StreamSpec) {
        let target = if t <= 0.0 {
            0
        } else {
            (t / spec.window_s).floor() as u64
        };
        if target > self.window_index {
            self.flush_window(spec);
            self.window_index = target;
        }
    }

    /// Finalize the open window into a [`WindowedReport`] (skipped when
    /// nothing happened in it).
    fn flush_window(&mut self, spec: &StreamSpec) {
        let acc = std::mem::take(&mut self.window);
        if acc.arrivals + acc.admitted + acc.rejected + acc.completed == 0 {
            return;
        }
        let start_s = self.window_index as f64 * spec.window_s;
        self.windows.push(WindowedReport {
            index: self.window_index,
            start_s,
            end_s: start_s + spec.window_s,
            arrivals: acc.arrivals,
            admitted: acc.admitted,
            rejected: acc.rejected,
            completed: acc.completed,
            bytes: acc.bytes,
            utilization: if spec.reference_bps > 0.0 {
                acc.bytes / (spec.reference_bps * spec.window_s)
            } else {
                0.0
            },
            slowdown: acc.slow.summary(),
            fairness_index: jain_from_sums(acc.completed, acc.slow_sum, acc.slow_sq),
            queue_depth: self.queue_depth(),
            in_service: self.in_service,
        });
    }

    /// Account one finished job into the run and window aggregates.
    fn record_finish(
        &mut self,
        spec: &StreamSpec,
        lowered: &[Rc<LoweredTemplate>],
        job: FinishedJob,
    ) {
        self.roll(job.finish_s, spec);
        let template = &lowered[job.template];
        let makespan_s = (job.finish_s - job.arrival_s).max(0.0);
        let slowdown = if template.isolated_s > 0.0 {
            makespan_s / template.isolated_s
        } else {
            1.0
        };
        self.completed += 1;
        self.total_bytes += template.bytes;
        if job.finish_s > self.last_finish_s {
            self.last_finish_s = job.finish_s;
        }
        self.run_slow.observe(slowdown);
        self.slow_sum += slowdown;
        self.slow_sq += slowdown * slowdown;
        self.window.completed += 1;
        self.window.bytes += template.bytes;
        self.window.slow.observe(slowdown);
        self.window.slow_sum += slowdown;
        self.window.slow_sq += slowdown * slowdown;
        if spec.retain_jobs {
            self.jobs.push(StreamJobReport {
                job: job.idx,
                template: job.template,
                arrival_s: job.arrival_s,
                admit_s: job.admit_s,
                start_s: job.start_s,
                finish_s: job.finish_s,
                makespan_s,
                slowdown,
            });
        }
    }
}

/// Arguments of [`ServiceState::record_finish`], bundled.
struct FinishedJob {
    idx: u64,
    template: usize,
    arrival_s: f64,
    admit_s: f64,
    start_s: f64,
    finish_s: f64,
}

/// Jain's index from running sums — the bounded-memory counterpart of
/// [`crate::tenancy::jain_index`], with the same conventions (1.0 for
/// empty or all-zero inputs).
fn jain_from_sums(n: u64, sum: f64, sq: f64) -> f64 {
    if n == 0 || sq <= 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sq)
    }
}

/// The grant rank a streamed job registers with the engine. Only the
/// *relative* order of ranks matters to arbitration, and stream arrivals
/// are nondecreasing, so these reproduce the closed path's sorted-position
/// ranks exactly:
///
/// * FIFO / fair-share rank by arrival index (the closed path sorts by
///   arrival then index — the identity permutation here);
/// * priority packs descending priority above the arrival index, matching
///   the closed `(priority desc, arrival, index)` sort. Arrival indices
///   beyond 2^32 reuse low bits; the tie-break then falls back to engine
///   order keys, which preserve FIFO among equal ranks.
fn job_rank(policy: SchedPolicy, priority: u32, arrival_idx: u64) -> u64 {
    match policy {
        SchedPolicy::Fifo | SchedPolicy::FairShare => arrival_idx,
        SchedPolicy::Priority => {
            (u64::from(u32::MAX - priority) << 32) | (arrival_idx & 0xFFFF_FFFF)
        }
    }
}

/// A template lowered once per run: the DAG instances inject, its payload
/// and its isolated makespan (the slowdown denominator, computed on the
/// idle substrate exactly as the closed path does).
struct LoweredTemplate {
    dag: DepSchedule,
    bytes: f64,
    isolated_s: f64,
}

/// Each template's lowering, by template index. Templates with equal
/// workloads (a high- and a low-priority copy of one job, say) share one
/// lowering and one isolated run.
fn lower_templates<S: Substrate + ?Sized>(
    sub: &mut S,
    spec: &StreamSpec,
) -> Result<Vec<Rc<LoweredTemplate>>> {
    let mut out: Vec<Rc<LoweredTemplate>> = Vec::with_capacity(spec.templates.len());
    for (k, template) in spec.templates.iter().enumerate() {
        let earlier = &spec.templates[..k];
        if let Some(j) = earlier.iter().position(|t| t.workload == template.workload) {
            out.push(Rc::clone(&out[j]));
            continue;
        }
        let dag = template.workload.lower();
        let isolated_s = if dag.is_empty() {
            0.0
        } else {
            // Only the makespan is read: no per-transfer window is kept.
            sub.execute_closed(&dag, None, &mut |_, _| {})?
                .dag
                .makespan_s
        };
        let bytes = dag
            .transfers()
            .iter()
            .map(|t| t.transfer.bytes as f64)
            .sum();
        out.push(Rc::new(LoweredTemplate {
            dag,
            bytes,
            isolated_s,
        }));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The service driver
// ---------------------------------------------------------------------------

struct Driver<'a, E: FabricEngine + ?Sized> {
    eng: &'a mut E,
    spec: &'a StreamSpec,
    lowered: &'a [Rc<LoweredTemplate>],
    st: &'a mut ServiceState,
}

impl<E: FabricEngine + ?Sized> Driver<'_, E> {
    /// Pump the service loop. Returns `true` when paused at the requested
    /// arrival count, `false` when the stream ran dry and drained.
    fn run(&mut self, pause_after_arrivals: Option<u64>) -> Result<bool> {
        let mut done: Vec<Completion> = Vec::new();
        loop {
            if let Some(limit) = pause_after_arrivals {
                if self.st.arrivals >= limit {
                    return Ok(true);
                }
            }
            if self.st.next_arrival.is_none() {
                if let Some(t) = self.spec.arrivals.next(&mut self.st.gen) {
                    self.st.next_arrival = Some((self.st.gen.idx - 1, t));
                }
            }
            let peek = self.eng.peek_time();
            if let Some((idx, a)) = self.st.next_arrival {
                // Inject every arrival at or before the next event horizon
                // so the engine never processes a batch an un-injected
                // arrival should have joined. With an idle engine the
                // horizon is the arrival itself.
                let horizon = peek.map_or(a, |p| p + self.eng.admit_slack());
                if a <= horizon {
                    self.st.next_arrival = None;
                    self.dispatch_arrival(idx, a)?;
                    continue;
                }
            }
            if peek.is_none() && self.st.in_service == 0 {
                break;
            }
            // The fluid engine promotes lazily inside `step`: a completion
            // can leave the kernel momentarily empty with dependents
            // unblocked but not yet scheduled. Step anyway — the promote
            // pass schedules them — and treat a step from an empty kernel
            // that makes no progress as a stuck stream.
            let before = self.eng.events();
            self.eng.step()?;
            done.clear();
            self.eng.drain(&mut done);
            for d in &done {
                self.complete_one(d)?;
            }
            if peek.is_none() && self.eng.events() == before && done.is_empty() {
                self.eng.stall_diagnostic()?;
                return Err(cfg_err("stream drained with unfinished jobs"));
            }
        }
        Ok(false)
    }

    fn dispatch_arrival(&mut self, idx: u64, arrival_s: f64) -> Result<()> {
        self.st.roll(arrival_s, self.spec);
        self.st.arrivals += 1;
        self.st.window.arrivals += 1;
        match self.spec.admission {
            Admission::Immediate => self.admit(idx, arrival_s, arrival_s),
            Admission::QueueDepth { limit } => {
                if self.st.in_service < limit {
                    self.admit(idx, arrival_s, arrival_s)
                } else {
                    self.st.queue.push(QueuedJob {
                        idx,
                        template: self.spec.template_of(idx),
                        arrival_s,
                    });
                    let depth = self.st.queue_depth();
                    if depth > self.st.peak_queue_depth {
                        self.st.peak_queue_depth = depth;
                    }
                    Ok(())
                }
            }
            Admission::Reject { limit } => {
                if self.st.in_service < limit {
                    self.admit(idx, arrival_s, arrival_s)
                } else {
                    self.st.rejected += 1;
                    self.st.window.rejected += 1;
                    Ok(())
                }
            }
        }
    }

    fn admit(&mut self, idx: u64, arrival_s: f64, admit_s: f64) -> Result<()> {
        self.st.roll(admit_s, self.spec);
        self.st.admitted += 1;
        self.st.window.admitted += 1;
        let template = self.spec.template_of(idx);
        let lowered = &self.lowered[template];
        if lowered.dag.is_empty() {
            // Nothing to run: the job completes the instant it is admitted.
            self.st.record_finish(
                self.spec,
                self.lowered,
                FinishedJob {
                    idx,
                    template,
                    arrival_s,
                    admit_s,
                    start_s: admit_s,
                    finish_s: admit_s,
                },
            );
            return Ok(());
        }
        let rank = job_rank(
            self.spec.policy,
            self.spec.templates[template].priority,
            idx,
        );
        let slot = self.eng.add_job(rank);
        // Tags are dense: a retired slot, or the next one. A resumed
        // engine whose job counter disagrees must not size the table.
        if slot > self.st.live.len() || self.st.live.get(slot).is_some_and(Option::is_some) {
            return Err(cfg_err("engine job tag is not a free slot"));
        }
        self.eng
            .inject(lowered.dag.transfers(), 0, admit_s, &|_| slot)?;
        if slot >= self.st.live.len() {
            self.st.live.resize(slot + 1, None);
        }
        self.st.live[slot] = Some(LiveJob {
            idx,
            template,
            arrival_s,
            admit_s,
            remaining: lowered.dag.len(),
            first_start: None,
            last_finish: 0.0,
        });
        self.st.in_service += 1;
        if self.st.in_service > self.st.peak_in_service {
            self.st.peak_in_service = self.st.in_service;
        }
        Ok(())
    }

    fn complete_one(&mut self, d: &Completion) -> Result<()> {
        let finished = {
            let Some(job) = self.st.live.get_mut(d.job).and_then(Option::as_mut) else {
                return Err(cfg_err("completion for an unknown job slot"));
            };
            job.remaining -= 1;
            job.first_start = Some(match job.first_start {
                Some(s) => s.min(d.start_s),
                None => d.start_s,
            });
            if d.finish_s > job.last_finish {
                job.last_finish = d.finish_s;
            }
            job.remaining == 0
        };
        if !finished {
            return Ok(());
        }
        let Some(job) = self.st.live[d.job].take() else {
            return Err(cfg_err("completion for an unknown job slot"));
        };
        self.eng.retire_job(d.job);
        self.st.in_service -= 1;
        self.st.record_finish(
            self.spec,
            self.lowered,
            FinishedJob {
                idx: job.idx,
                template: job.template,
                arrival_s: job.arrival_s,
                admit_s: job.admit_s,
                start_s: job.first_start.unwrap_or(job.admit_s),
                finish_s: job.last_finish,
            },
        );
        // Completions free capacity: backfill from the admission queue at
        // the completion instant.
        if let Admission::QueueDepth { limit } = self.spec.admission {
            while self.st.in_service < limit && self.st.queue_head < self.st.queue.len() {
                let q = self.st.queue[self.st.queue_head].clone();
                self.st.queue_head += 1;
                if self.st.queue_head > 64 && self.st.queue_head * 2 > self.st.queue.len() {
                    self.st.queue.drain(..self.st.queue_head);
                    self.st.queue_head = 0;
                }
                self.admit(q.idx, q.arrival_s, d.finish_s)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Substrate glue
// ---------------------------------------------------------------------------

/// Fold `U64` values that fit `i64` into `I64` throughout a [`Value`] tree.
/// The JSON parser yields `I64` for any integer fitting it, so without this
/// a checkpoint's opaque engine image would compare unequal to itself after
/// a JSON round-trip (unsigned fields serialize as `U64`).
fn canonical_value(v: Value) -> Value {
    match v {
        Value::U64(n) => match i64::try_from(n) {
            Ok(i) => Value::I64(i),
            Err(_) => Value::U64(n),
        },
        Value::Seq(items) => Value::Seq(items.into_iter().map(canonical_value).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k, canonical_value(v)))
                .collect(),
        ),
        other => other,
    }
}

fn check_checkpoint(ck: &StreamCheckpoint, substrate: &str, spec: &StreamSpec) -> Result<()> {
    if ck.version != STREAM_CHECKPOINT_VERSION {
        return Err(cfg_err("unsupported stream checkpoint version"));
    }
    if ck.substrate != substrate {
        return Err(cfg_err(
            "stream checkpoint was taken on a different substrate",
        ));
    }
    if ck.templates != spec.templates.len() || ck.policy != spec.policy {
        return Err(cfg_err("stream checkpoint does not match the spec"));
    }
    Ok(())
}

fn finish_report(
    spec: &StreamSpec,
    mut st: ServiceState,
    substrate: &str,
    events: u64,
) -> StreamReport {
    st.flush_window(spec);
    StreamReport {
        substrate: substrate.into(),
        policy: spec.policy,
        admission: spec.admission,
        arrivals: st.arrivals,
        admitted: st.admitted,
        rejected: st.rejected,
        completed: st.completed,
        makespan_s: st.last_finish_s,
        events,
        mean_utilization: if spec.reference_bps > 0.0 && st.last_finish_s > 0.0 {
            st.total_bytes / (spec.reference_bps * st.last_finish_s)
        } else {
            0.0
        },
        slowdown: st.run_slow.summary(),
        mean_slowdown: if st.completed > 0 {
            st.slow_sum / st.completed as f64
        } else {
            1.0
        },
        fairness_index: jain_from_sums(st.completed, st.slow_sum, st.slow_sq),
        peak_queue_depth: st.peak_queue_depth,
        peak_in_service: st.peak_in_service,
        windows: st.windows,
        jobs: st.jobs,
    }
}

/// Run or resume a stream on `sub`: lower the templates, restore the
/// service state, pump the service loop over the substrate's engine
/// (fresh, or restored from the checkpoint's engine image), and wrap the
/// result — the final report, or a checkpoint of the engine and service
/// state when paused.
pub(crate) fn run_stream<S: Substrate + ?Sized>(
    sub: &mut S,
    spec: &StreamSpec,
    resume: Option<&StreamCheckpoint>,
    pause_after_arrivals: Option<u64>,
) -> Result<StreamOutcome> {
    spec.validate()?;
    let lowered = lower_templates(sub, spec)?;
    let substrate = sub.name().to_string();
    let mut st = match resume {
        None => ServiceState::fresh(spec),
        Some(ck) => {
            check_checkpoint(ck, &substrate, spec)?;
            ck.state.clone()
        }
    };
    let fair_share = spec.policy == SchedPolicy::FairShare;
    let mut eng = sub.engine(true, fair_share, resume.map(|ck| &ck.engine))?;
    let paused = Driver {
        eng: &mut *eng,
        spec,
        lowered: &lowered,
        st: &mut st,
    }
    .run(pause_after_arrivals)?;
    Ok(if paused {
        StreamOutcome::Paused(Box::new(StreamCheckpoint {
            version: STREAM_CHECKPOINT_VERSION,
            substrate,
            arrivals_seen: st.arrivals,
            templates: spec.templates.len(),
            policy: spec.policy,
            engine: canonical_value(eng.snapshot()),
            state: st,
        }))
    } else {
        StreamOutcome::Done(finish_report(spec, st, &substrate, eng.events()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::{ElectricalSubstrate, OpticalSubstrate};
    use crate::tenancy::{Job, TenancySpec};
    use optical_sim::sim::StepSchedule;
    use optical_sim::{NodeId, OpticalConfig, Transfer};

    fn optical() -> OpticalSubstrate {
        OpticalSubstrate::new(
            OpticalConfig::new(8, 4)
                .with_lambda_bandwidth(1e9)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
        .unwrap()
    }

    fn electrical() -> ElectricalSubstrate {
        ElectricalSubstrate::new(electrical_sim::topology::star_cluster(8, 1e9, 0.0), 1e-6)
    }

    fn sched(transfers: Vec<Vec<(usize, usize, u64)>>) -> StepSchedule {
        StepSchedule::from_steps(
            transfers
                .into_iter()
                .map(|step| {
                    step.into_iter()
                        .map(|(s, d, b)| Transfer::shortest(NodeId(s), NodeId(d), b))
                        .collect()
                })
                .collect(),
        )
    }

    /// The electrical substrate, counting the closed DAG runs it is asked
    /// for.
    struct CountingDags {
        inner: ElectricalSubstrate,
        dag_runs: usize,
    }

    impl Substrate for CountingDags {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn nodes(&self) -> usize {
            self.inner.nodes()
        }

        fn execute(
            &mut self,
            schedule: &dyn optical_sim::sim::StepSource,
        ) -> Result<crate::substrate::RunReport> {
            self.inner.execute(schedule)
        }

        fn engine(
            &self,
            arbitrated: bool,
            fair_share: bool,
            image: Option<&Value>,
        ) -> Result<Box<dyn FabricEngine + '_>> {
            self.inner.engine(arbitrated, fair_share, image)
        }

        fn execute_closed(
            &mut self,
            dag: &dyn crate::dag::DepSource,
            arb: Option<&crate::tenancy::JobArbitration>,
            sink: &mut dyn FnMut(usize, crate::substrate::DagTiming),
        ) -> Result<crate::tenancy::TenantDagRun> {
            self.dag_runs += 1;
            self.inner.execute_closed(dag, arb, sink)
        }
    }

    /// Templates with equal workloads share one isolated run, and the
    /// report is the one the substrate gives on its own.
    #[test]
    fn templates_sharing_a_workload_are_measured_once() {
        let shared = sched(vec![
            vec![(0, 1, 400_000), (2, 3, 300_000)],
            vec![(1, 2, 200_000)],
        ]);
        let spec = StreamSpec::new(
            ArrivalProcess::Poisson {
                rate_hz: 3_000.0,
                count: 9,
                seed: 11,
            },
            SchedPolicy::Priority,
        )
        .with_template(
            StreamTemplate::new("hi", JobWorkload::Steps(shared.clone())).with_priority(2),
        )
        .with_template(StreamTemplate::new("lo", JobWorkload::Steps(shared)).with_priority(1))
        .with_template(StreamTemplate::new(
            "other",
            JobWorkload::Steps(sched(vec![vec![(4, 5, 600_000)]])),
        ))
        .with_retained_jobs(true);
        let mut counting = CountingDags {
            inner: electrical(),
            dag_runs: 0,
        };
        let report = counting.execute_stream(&spec).unwrap();
        assert_eq!(counting.dag_runs, 2);
        assert_eq!(report, electrical().execute_stream(&spec).unwrap());
        assert_eq!(report.completed, 9);
    }

    fn templates() -> Vec<StreamTemplate> {
        vec![
            StreamTemplate::new(
                "a",
                JobWorkload::Steps(sched(vec![vec![(0, 1, 1_000_000)], vec![(1, 2, 500_000)]])),
            )
            .with_priority(2),
            StreamTemplate::new(
                "b",
                JobWorkload::Steps(sched(vec![vec![(2, 3, 2_000_000), (4, 5, 1_000_000)]])),
            )
            .with_priority(7),
            StreamTemplate::new(
                "c",
                JobWorkload::Steps(sched(vec![vec![(5, 6, 750_000)], vec![(6, 7, 250_000)]])),
            )
            .with_priority(1),
        ]
    }

    const ARRIVALS: [f64; 3] = [0.0, 1.3e-4, 2.9e-4];

    fn stream_spec(policy: SchedPolicy) -> StreamSpec {
        let mut spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: ARRIVALS.to_vec(),
            },
            policy,
        )
        .with_retained_jobs(true);
        for t in templates() {
            spec = spec.with_template(t);
        }
        spec
    }

    fn closed_spec(policy: SchedPolicy) -> TenancySpec {
        let mut spec = TenancySpec::new(policy);
        for (i, (t, &a)) in templates().iter().zip(ARRIVALS.iter()).enumerate() {
            spec = spec.with_job(Job {
                name: format!("job{i}"),
                arrival_s: a,
                compute_s: 0.0,
                priority: t.priority,
                workload: t.workload.clone(),
            });
        }
        spec
    }

    #[test]
    fn pre_known_arrivals_match_closed_execute_jobs_bit_exactly() {
        for policy in SchedPolicy::ALL {
            for (closed, streamed) in [
                (
                    optical().execute_jobs(&closed_spec(policy)).unwrap(),
                    optical().execute_stream(&stream_spec(policy)).unwrap(),
                ),
                (
                    electrical().execute_jobs(&closed_spec(policy)).unwrap(),
                    electrical().execute_stream(&stream_spec(policy)).unwrap(),
                ),
            ] {
                let tag = format!("{policy:?} on {}", closed.substrate);
                assert_eq!(streamed.events, closed.events, "{tag}: events");
                assert_eq!(
                    streamed.makespan_s.to_bits(),
                    closed.makespan_s.to_bits(),
                    "{tag}: makespan"
                );
                assert_eq!(streamed.completed, closed.jobs.len() as u64, "{tag}");
                let mut jobs = streamed.jobs.clone();
                jobs.sort_by_key(|j| j.job);
                for (s, c) in jobs.iter().zip(&closed.jobs) {
                    assert_eq!(s.finish_s.to_bits(), c.finish_s.to_bits(), "{tag}: finish");
                    assert_eq!(s.start_s.to_bits(), c.start_s.to_bits(), "{tag}: start");
                    assert_eq!(
                        s.makespan_s.to_bits(),
                        c.makespan_s.to_bits(),
                        "{tag}: makespan"
                    );
                    assert_eq!(
                        s.slowdown.to_bits(),
                        c.slowdown.to_bits(),
                        "{tag}: slowdown"
                    );
                }
                // Fairness accumulates in completion order vs job order.
                assert!(
                    (streamed.fairness_index - closed.fairness_index).abs() < 1e-12,
                    "{tag}: fairness {} vs {}",
                    streamed.fairness_index,
                    closed.fairness_index
                );
            }
        }
    }

    #[test]
    fn poisson_stream_is_deterministic_and_monotone() {
        let p = ArrivalProcess::Poisson {
            rate_hz: 1e4,
            count: 100,
            seed: 42,
        };
        let mut g1 = p.fresh_gen();
        let mut g2 = p.fresh_gen();
        let mut prev = 0.0;
        for _ in 0..100 {
            let a = p.next(&mut g1).unwrap();
            assert_eq!(a.to_bits(), p.next(&mut g2).unwrap().to_bits());
            assert!(a >= prev);
            prev = a;
        }
        assert!(p.next(&mut g1).is_none());
        // Mean inter-arrival should be in the right ballpark for 1/rate.
        assert!(prev > 100.0 * 0.2e-4 && prev < 100.0 * 5e-4, "total {prev}");
    }

    #[test]
    fn burst_process_generates_simultaneous_groups() {
        let p = ArrivalProcess::Burst {
            bursts: 3,
            size: 2,
            period_s: 1e-3,
        };
        let mut g = p.fresh_gen();
        let times: Vec<f64> = std::iter::from_fn(|| p.next(&mut g)).collect();
        assert_eq!(times, vec![0.0, 0.0, 1e-3, 1e-3, 2e-3, 2e-3]);
        assert_eq!(p.count(), 6);
    }

    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let mut spec = StreamSpec::new(
            ArrivalProcess::Poisson {
                rate_hz: 5e3,
                count: 6,
                seed: 7,
            },
            SchedPolicy::Fifo,
        )
        .with_retained_jobs(true)
        .with_reference_bps(4e9);
        for t in templates() {
            spec = spec.with_template(t);
        }
        let run =
            |sub: &mut dyn Substrate| serde_json::to_string(&sub.execute_stream(&spec).unwrap());
        let paused_run = |sub: &mut dyn Substrate| {
            let ck = sub
                .execute_stream_until(&spec, Some(3))
                .unwrap()
                .checkpoint()
                .expect("should pause at 3 arrivals");
            assert_eq!(ck.arrivals_seen, 3);
            // Round-trip the checkpoint through JSON like a file would.
            let json = serde_json::to_string(&ck).unwrap();
            let back: StreamCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ck);
            let report = sub
                .resume_stream(&spec, &back, None)
                .unwrap()
                .report()
                .expect("resume should run to completion");
            serde_json::to_string(&report)
        };
        assert_eq!(run(&mut optical()), paused_run(&mut optical()));
        assert_eq!(run(&mut electrical()), paused_run(&mut electrical()));
    }

    /// Insert `999` as the first entry of the JSON list that follows `key`.
    fn corrupt_first_index(json: &str, key: &str) -> String {
        let at = json.find(key).expect("engine image carries the list") + key.len();
        let sep = if json[at..].starts_with(']') { "" } else { "," };
        format!("{}999{sep}{}", &json[..at], &json[at..])
    }

    #[test]
    fn corrupted_checkpoint_indices_are_typed_errors() {
        // One out-of-range index in a paused stream's engine image — a
        // waiting slot optically, a completed flow electrically — must be
        // rejected on resume, not accepted and panic the next step.
        let spec = stream_spec(SchedPolicy::Fifo);
        for (mut sub, key) in [
            (Box::new(optical()) as Box<dyn Substrate>, "\"waiting\":["),
            (Box::new(electrical()), "\"completed\":["),
        ] {
            let ck = sub
                .execute_stream_until(&spec, Some(2))
                .unwrap()
                .checkpoint()
                .expect("should pause at 2 arrivals");
            let json = serde_json::to_string(&ck).unwrap();
            let bad: StreamCheckpoint =
                serde_json::from_str(&corrupt_first_index(&json, key)).unwrap();
            assert_ne!(bad, ck, "{key}: corruption must change the image");
            assert!(
                sub.resume_stream(&spec, &bad, None).is_err(),
                "{key}: a corrupt index must be a typed error"
            );
            // The intact checkpoint still resumes.
            assert!(sub.resume_stream(&spec, &ck, None).is_ok());
        }
    }

    #[test]
    fn checkpoint_mismatches_are_rejected() {
        let spec = stream_spec(SchedPolicy::Fifo);
        let ck = optical()
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        assert!(electrical().resume_stream(&spec, &ck, None).is_err());
        let mut stale = ck.clone();
        stale.version += 1;
        assert!(optical().resume_stream(&spec, &stale, None).is_err());
        let other_policy = stream_spec(SchedPolicy::Priority);
        assert!(optical().resume_stream(&other_policy, &ck, None).is_err());
    }

    #[test]
    fn a_fluid_job_counter_beyond_the_checkpoint_is_a_typed_error() {
        let spec = stream_spec(SchedPolicy::Fifo);
        let ck = electrical()
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        let json = serde_json::to_string(&ck).unwrap();
        let bad = json.replace("\"next_job\":1", "\"next_job\":1000000000000000000");
        assert_ne!(bad, json);
        let bad = serde_json::from_str(&bad).unwrap();
        assert_eq!(
            electrical().resume_stream(&spec, &bad, None).unwrap_err(),
            cfg_err("engine job tag is not a free slot")
        );
    }

    #[test]
    fn queue_depth_admission_bounds_concurrency() {
        let spec =
            stream_spec(SchedPolicy::Fifo).with_admission(Admission::QueueDepth { limit: 1 });
        for report in [
            optical().execute_stream(&spec).unwrap(),
            electrical().execute_stream(&spec).unwrap(),
        ] {
            assert_eq!(report.peak_in_service, 1, "{}", report.substrate);
            assert_eq!(report.completed, 3);
            assert_eq!(report.rejected, 0);
            assert!(report.peak_queue_depth >= 1);
            // Serialized jobs: each admits only after the previous one
            // finished, so makespans include queueing delay.
            let immediate = stream_spec(SchedPolicy::Fifo);
            let mut sub = optical();
            let base = sub.execute_stream(&immediate).unwrap();
            assert!(report.makespan_s >= base.makespan_s);
        }
    }

    #[test]
    fn reject_admission_sheds_load() {
        let mut spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 0.0, 0.0],
            },
            SchedPolicy::Fifo,
        )
        .with_admission(Admission::Reject { limit: 1 });
        for t in templates() {
            spec = spec.with_template(t);
        }
        for report in [
            optical().execute_stream(&spec).unwrap(),
            electrical().execute_stream(&spec).unwrap(),
        ] {
            assert_eq!(report.arrivals, 3, "{}", report.substrate);
            assert_eq!(report.completed, 1);
            assert_eq!(report.rejected, 2);
            assert_eq!(report.peak_in_service, 1);
        }
    }

    #[test]
    fn windows_partition_the_run() {
        let spec = stream_spec(SchedPolicy::Fifo)
            .with_window(1e-4)
            .with_reference_bps(4e9);
        let report = optical().execute_stream(&spec).unwrap();
        assert!(!report.windows.is_empty());
        let arrivals: u64 = report.windows.iter().map(|w| w.arrivals).sum();
        let completed: u64 = report.windows.iter().map(|w| w.completed).sum();
        assert_eq!(arrivals, report.arrivals);
        assert_eq!(completed, report.completed);
        let mut prev = None;
        for w in &report.windows {
            assert!((w.end_s - w.start_s - 1e-4).abs() < 1e-15);
            assert!(w.utilization >= 0.0);
            if let Some(p) = prev {
                assert!(w.index > p, "window indices must increase");
            }
            prev = Some(w.index);
        }
    }

    #[test]
    fn empty_stream_reports_idle_service() {
        let mut spec = StreamSpec::new(
            ArrivalProcess::Trace { arrivals_s: vec![] },
            SchedPolicy::Fifo,
        );
        for t in templates() {
            spec = spec.with_template(t);
        }
        let report = optical().execute_stream(&spec).unwrap();
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.mean_slowdown, 1.0);
        assert_eq!(report.fairness_index, 1.0);
        assert!(report.windows.is_empty());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let base = stream_spec(SchedPolicy::Fifo);
        let bad_rate = StreamSpec {
            arrivals: ArrivalProcess::Poisson {
                rate_hz: 0.0,
                count: 1,
                seed: 0,
            },
            ..base.clone()
        };
        assert!(optical().execute_stream(&bad_rate).is_err());
        let bad_trace = StreamSpec {
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![1.0, 0.5],
            },
            ..base.clone()
        };
        assert!(optical().execute_stream(&bad_trace).is_err());
        let no_templates = StreamSpec {
            templates: vec![],
            ..base.clone()
        };
        assert!(optical().execute_stream(&no_templates).is_err());
        let bad_window = StreamSpec {
            window_s: 0.0,
            ..base.clone()
        };
        assert!(optical().execute_stream(&bad_window).is_err());
        let bad_limit = base.with_admission(Admission::QueueDepth { limit: 0 });
        assert!(optical().execute_stream(&bad_limit).is_err());
    }
}
