//! The unified execution substrate abstraction.
//!
//! Every experiment in this workspace ultimately times a step-synchronous
//! communication schedule on one of two simulated fabrics: the WDM optical
//! ring ([`optical_sim::RingSimulator`]) or the electrical switched cluster
//! ([`electrical_sim`]'s fluid model). Historically each caller hand-wired
//! one of the two incompatible runner APIs; the [`Substrate`] trait gives
//! them a single entry point.
//!
//! The workload IR is the optical [`StepSchedule`](optical_sim::StepSchedule)
//! — the richest of the two step formats (it carries payload bytes, ring
//! direction and wavelength striping lanes). The electrical substrate simply
//! ignores the optical-only fields: its fluid model has no wavelengths, and
//! routing is decided by the [`electrical_sim::Network`] topology.
//! [`Substrate::execute`] reads it one step at a time through
//! [`StepSource`], which the materialized schedule implements and so does
//! every classic collective written step by step
//! ([`crate::baselines::CollectiveSource`]): a stepped run of one then
//! never holds more than one step.
//!
//! Everything event-driven is written once, on top of each substrate's
//! event engine ([`Substrate::engine`]), and every substrate is one engine:
//! the DAG, tenancy and fault methods run the closed driver
//! ([`crate::engine::run_closed`]) through [`Substrate::execute_closed`],
//! and the stream methods run the stream driver ([`crate::stream`]). A
//! substrate implements only its name, its size, the stepped
//! [`Substrate::execute`] and its engine; only the electrical substrate
//! also overrides [`Substrate::execute_closed`], with its barrier fast
//! path.
//!
//! Both flat fabrics also compose: [`crate::hierarchy::compose`] builds a
//! third [`Substrate`] from two of them, whose engine composes per-group
//! intra engines with an inter-group engine, each taken from the member's
//! [`Substrate::engine`]; with `groups == 1` it is the intra substrate
//! itself.
//!
//! Every stepped run reports in one shape, [`RunReport`] of per-step
//! [`StepTiming`]s, defined beside the step IR in [`optical_sim::sim`]
//! and re-exported here: the optical ring's [`RingSimulator::run_stepped`]
//! returns it directly.
//!
//! ```
//! use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
//! use wrht_core::baselines::oring_schedule;
//! use optical_sim::OpticalConfig;
//!
//! let sched = oring_schedule(8, 8_000, 4);
//! let mut optical = OpticalSubstrate::new(OpticalConfig::new(8, 4)).unwrap();
//! let mut electrical = ElectricalSubstrate::new(
//!     electrical_sim::topology::star_cluster(8, 12.5e9, 500e-9),
//!     5e-6,
//! );
//! let o = optical.execute(&sched).unwrap();
//! let e = electrical.execute(&sched).unwrap();
//! assert_eq!(o.step_count(), e.step_count());
//! ```

use crate::dag::{DepSchedule, DepSource};
use crate::engine::{
    check_jobs, makespan_s, overlong_source, run_closed, Completion, FabricEngine,
};
use crate::error::Result;
use crate::fault::{
    fault_cluster_report, FaultClusterReport, FaultPolicy, FaultRunReport, FaultScript, FaultTiming,
};
use crate::stream::{StreamCheckpoint, StreamOutcome, StreamReport, StreamSpec};
use crate::tenancy::{ClusterReport, JobArbitration, TenancySpec, TenantDagRun};
use electrical_sim::runner::{StepRunner, StepTransfer};
use electrical_sim::{FluidEngine, FluidEngineSnapshot, NetError, Network};
use optical_sim::sim::StepSource;
use optical_sim::{GrantEngine, GrantEngineSnapshot, OpticalConfig, RingSimulator, Strategy};
use serde::{Deserialize, Serialize, Value};

/// The stepped report every substrate's [`Substrate::execute`] returns,
/// and its per-step entry; defined beside the step IR in
/// [`optical_sim::sim`].
pub use optical_sim::sim::{RunReport, StepTiming};

/// Per-transfer timing of a dependency-aware run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DagTiming {
    /// Instant the transfer's gates opened (dependencies, release time
    /// and — optically — wavelengths satisfied), seconds.
    pub start_s: f64,
    /// Completion instant, seconds.
    pub finish_s: f64,
}

/// Substrate-independent result of executing a [`DepSchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagRunReport {
    /// Name of the substrate that produced the report.
    pub substrate: String,
    /// Completion time of the last transfer, seconds.
    pub makespan_s: f64,
    /// Per-transfer windows in [`DepSchedule`] order; empty in the report
    /// of [`Substrate::execute_closed`], which hands them to its sink.
    pub transfers: Vec<DagTiming>,
    /// Highest wavelength index in use at any instant + 1 (0 without WDM).
    pub peak_wavelength: usize,
    /// Fluid-solver invocations (0 on the optical substrate). With the
    /// incremental engine each invocation covers only the contention
    /// component whose active-flow set changed.
    pub rate_recomputations: usize,
    /// Progressive-filling work units (0 on the optical substrate) — the
    /// solve-complexity metric the incremental engine reduces.
    pub solver_work: usize,
    /// Discrete events processed by the shared event kernel
    /// ([`wrht_kernel::EventKernel`]) — grants/releases/completions on the
    /// optical ring, wake-ups and completions in the electrical fluid
    /// model. The denominator of the events/sec benchmark.
    pub events: u64,
}

/// A fabric that can execute step-synchronous communication schedules.
///
/// An implementation supplies its name and size, the stepped
/// [`Substrate::execute`], and its event engine
/// ([`Substrate::engine`]). Every dependency-aware method — DAG, tenancy,
/// fault and stream — is provided: it drives that engine through the
/// closed driver ([`crate::engine::run_closed`]) or the stream driver
/// ([`crate::stream`]).
///
/// Implementations must be deterministic: executing the same schedule twice
/// yields bit-identical reports.
pub trait Substrate {
    /// Human-readable substrate name (used in reports and campaign rows).
    fn name(&self) -> &str;

    /// Number of attached compute nodes.
    fn nodes(&self) -> usize;

    /// Execute a stepped schedule and report per-step timing. The source
    /// is read one step at a time: a materialized
    /// [`optical_sim::StepSchedule`], or a generator such as
    /// [`crate::baselines::CollectiveSource`] that writes each step on
    /// demand.
    fn execute(&mut self, schedule: &dyn StepSource) -> Result<RunReport>;

    /// A fresh event engine for this fabric, or — given a stream
    /// checkpoint's engine `image` — the engine restored from it.
    /// `arbitrated` and `fair_share` select the grant order as in
    /// [`optical_sim::GrantEngine::new`] (fabrics without a grant order
    /// ignore them).
    ///
    /// # Errors
    /// Invalid configurations and malformed images.
    fn engine(
        &self,
        arbitrated: bool,
        fair_share: bool,
        image: Option<&Value>,
    ) -> Result<Box<dyn FabricEngine + '_>>;

    /// The closed dependency-aware run every DAG and tenancy method goes
    /// through: `dag` on this substrate's engine, its transfers tagged with
    /// `arb`'s jobs and arbitrated across them, or without `arb` as one
    /// unarbitrated job (and no per-job vectors in the report). A
    /// materialized [`DepSchedule`] is injected whole; a lazy source such
    /// as [`crate::dag::PipelinedSource`] streams into the engine stage by
    /// stage, bit-identical to its materialized form.
    ///
    /// Each transfer's window goes to `sink` with its DAG index as the run
    /// settles it, and the run keeps none: the report's
    /// [`DagRunReport::transfers`] is empty. [`Substrate::execute_dag`] and
    /// [`Substrate::execute_dag_jobs`] build the per-transfer table from
    /// the sink; a caller that reads only the summary passes a sink that
    /// ignores the windows, and the run then holds nothing per transfer.
    fn execute_closed(
        &mut self,
        dag: &dyn DepSource,
        arb: Option<&JobArbitration>,
        sink: &mut dyn FnMut(usize, DagTiming),
    ) -> Result<TenantDagRun> {
        closed_run(self, dag, arb, sink)
    }

    /// Execute a dependency-aware schedule event-driven: each transfer
    /// starts the instant its predecessors complete (and its release time
    /// has passed). On a barrier-shaped DAG
    /// ([`DepSchedule::is_barrier_shaped`]) the makespan equals the
    /// stepped [`Substrate::execute`] total bit-exactly on both
    /// substrates; on general DAGs consecutive steps and buckets overlap
    /// on the wire.
    fn execute_dag(&mut self, dag: &dyn DepSource) -> Result<DagRunReport> {
        Ok(with_windows(self, dag, None)?.dag)
    }

    /// Execute a **multi-job** composed DAG (see
    /// [`crate::tenancy::TenancySpec::compose`]): transfers carry job tags
    /// and contended resources are arbitrated across jobs per `arb`. The
    /// optical grant loop orders waiters by job rank / accumulated service;
    /// the electrical fluid model keeps max-min rates (inherently
    /// fair-shared) but attributes the rate solution to jobs. With a single
    /// job this is bit-exact with [`Substrate::execute_dag`].
    fn execute_dag_jobs(
        &mut self,
        dag: &DepSchedule,
        arb: &JobArbitration,
    ) -> Result<TenantDagRun> {
        with_windows(self, dag, Some(arb))
    }

    /// Execute a set of concurrent jobs sharing this substrate under the
    /// spec's scheduling policy, and price the outcome per tenant: the
    /// jobs' schedules are composed into one shared DAG run
    /// ([`Substrate::execute_dag_jobs`]), then every job is additionally
    /// run **alone** on the idle substrate to anchor its
    /// slowdown-vs-isolation, and the per-job makespans, exposed
    /// communication, bandwidth shares and the Jain fairness index are
    /// assembled into a [`ClusterReport`].
    fn execute_jobs(&mut self, spec: &TenancySpec) -> Result<ClusterReport> {
        let composed = spec.compose()?;
        let arb = spec.arbitration(&composed.job_of);
        let run = self.execute_dag_jobs(&composed.dag, &arb)?;
        let mut isolated = Vec::with_capacity(spec.jobs.len());
        for lowered in &composed.lowered {
            // Only the makespan anchors the slowdown: no windows are kept.
            let alone = self.execute_closed(lowered, None, &mut |_, _| {})?;
            isolated.push(alone.dag.makespan_s);
        }
        Ok(crate::tenancy::cluster_report(
            spec, &composed, &run, &isolated,
        ))
    }

    /// Execute a dependency-aware schedule under a [`FaultScript`] with the
    /// given recovery [`FaultPolicy`]. Each substrate reacts only to the
    /// event kinds that exist on it (see [`crate::fault`]); with no
    /// relevant events the run is **bit-exact** with
    /// [`Substrate::execute_dag`]. This is
    /// [`Substrate::execute_dag_jobs_faulted`] with every transfer in one
    /// job, which is bit-exact with the unarbitrated run on every fabric.
    fn execute_dag_faulted(
        &mut self,
        dag: &DepSchedule,
        script: &FaultScript,
        policy: FaultPolicy,
    ) -> Result<FaultRunReport> {
        let arb = JobArbitration {
            job_of: vec![0; dag.len()],
            rank: vec![0],
            fair_share: false,
        };
        self.execute_dag_jobs_faulted(dag, &arb, script, policy)
    }

    /// The multi-job counterpart of [`Substrate::execute_dag_faulted`]:
    /// transfers carry job tags, contended resources are arbitrated across
    /// jobs per `arb`, and [`crate::fault::FaultPolicy::FailJob`] fails
    /// whole jobs rather than single transfers. With no relevant events the
    /// run delegates to [`Substrate::execute_dag_jobs`] bit-exactly.
    fn execute_dag_jobs_faulted(
        &mut self,
        dag: &DepSchedule,
        arb: &JobArbitration,
        script: &FaultScript,
        policy: FaultPolicy,
    ) -> Result<FaultRunReport> {
        let mut eng = self.engine(true, arb.fair_share, None)?;
        let mut transfers = vec![FaultTiming::default(); dag.len()];
        if !eng.set_faults(script, policy)? {
            // Nothing concerns this fabric: the clean closed run, which
            // may be a substrate's own (the electrical fast path).
            drop(eng);
            let clean = self
                .execute_closed(dag, Some(arb), &mut |key, t| {
                    let timing = FaultTiming {
                        start_s: t.start_s,
                        finish_s: t.finish_s,
                        aborts: 0,
                        completed: true,
                    };
                    keep(&mut transfers, key, timing);
                })?
                .dag;
            return Ok(FaultRunReport {
                substrate: clean.substrate,
                makespan_s: clean.makespan_s,
                transfers,
                peak_wavelength: clean.peak_wavelength,
                events: clean.events,
                first_impact_s: None,
            });
        }
        run_closed(&mut *eng, dag, Some(arb), |c| {
            keep(&mut transfers, c.key, c.into())
        })?;
        Ok(FaultRunReport {
            substrate: self.name().into(),
            makespan_s: makespan_s(&transfers),
            transfers,
            peak_wavelength: eng.peak_wavelength(),
            events: eng.events(),
            first_impact_s: eng.first_impact_s(),
        })
    }

    /// Execute a set of concurrent jobs under a fault script and measure
    /// the blast radius: the composed DAG is run **clean**
    /// ([`Substrate::execute_dag_jobs`]) and **faulted**
    /// ([`Substrate::execute_dag_jobs_faulted`]), and the two runs are
    /// diffed into a [`FaultClusterReport`] — per-job transfers aborted /
    /// delayed / failed, recovery time and the degraded-vs-clean makespan
    /// ratio.
    fn execute_jobs_faulted(
        &mut self,
        spec: &TenancySpec,
        script: &FaultScript,
        policy: FaultPolicy,
    ) -> Result<FaultClusterReport> {
        let composed = spec.compose()?;
        let arb = spec.arbitration(&composed.job_of);
        let clean = self.execute_dag_jobs(&composed.dag, &arb)?;
        let faulted = self.execute_dag_jobs_faulted(&composed.dag, &arb, script, policy)?;
        Ok(fault_cluster_report(
            spec, &composed, &clean.dag, &faulted, policy,
        ))
    }

    /// Execute an **open-loop arrival stream** ([`crate::stream`]): jobs
    /// arrive over time per the spec's [`crate::stream::ArrivalProcess`],
    /// pass admission control, and their transfers are injected into the
    /// *running* engine — the same event-driven engine the closed
    /// [`Substrate::execute_jobs`] path drives, so a stream whose arrivals
    /// are all pre-known is bit-exact with the closed run. Metrics are
    /// aggregated per window with bounded memory.
    fn execute_stream(&mut self, spec: &StreamSpec) -> Result<StreamReport> {
        match self.execute_stream_until(spec, None)? {
            StreamOutcome::Done(report) => Ok(report),
            StreamOutcome::Paused(_) => Err(optical_sim::OpticalError::BadConfig(
                "stream paused without a pause request",
            )
            .into()),
        }
    }

    /// Like [`Substrate::execute_stream`], but optionally pause once
    /// `pause_after_arrivals` arrivals have been generated, returning a
    /// [`StreamCheckpoint`] that [`Substrate::resume_stream`] continues
    /// byte-identically.
    fn execute_stream_until(
        &mut self,
        spec: &StreamSpec,
        pause_after_arrivals: Option<u64>,
    ) -> Result<StreamOutcome> {
        crate::stream::run_stream(self, spec, None, pause_after_arrivals)
    }

    /// Resume a paused stream from a [`StreamCheckpoint`] taken on an
    /// identically configured substrate with the identical spec. The
    /// resumed run's report is byte-identical to the uninterrupted run's.
    fn resume_stream(
        &mut self,
        spec: &StreamSpec,
        checkpoint: &StreamCheckpoint,
        pause_after_arrivals: Option<u64>,
    ) -> Result<StreamOutcome> {
        crate::stream::run_stream(self, spec, Some(checkpoint), pause_after_arrivals)
    }
}

/// The provided [`Substrate::execute_closed`]: the closed driver on a fresh
/// engine of `sub`, each window handed to `sink`, and the run's report.
fn closed_run<S: Substrate + ?Sized>(
    sub: &S,
    dag: &dyn DepSource,
    arb: Option<&JobArbitration>,
    sink: &mut dyn FnMut(usize, DagTiming),
) -> Result<TenantDagRun> {
    let mut eng = sub.engine(arb.is_some(), arb.is_some_and(|a| a.fair_share), None)?;
    let mut makespan_s = 0.0f64;
    run_closed(&mut *eng, dag, arb, |c| {
        makespan_s = makespan_s.max(c.finish_s);
        sink(c.key, c.into());
    })?;
    let (rate_recomputations, solver_work) = eng.solver_stats();
    let report = DagRunReport {
        substrate: sub.name().into(),
        makespan_s,
        transfers: Vec::new(),
        peak_wavelength: eng.peak_wavelength(),
        rate_recomputations,
        solver_work,
        events: eng.events(),
    };
    Ok(match (arb, eng.job_rates()) {
        (Some(arb), Some(rates)) => {
            let [active, service, peak] = rates.map(|v| {
                let mut v = v.to_vec();
                v.resize(arb.rank.len(), 0.0);
                v
            });
            TenantDagRun {
                dag: report,
                job_active_s: active,
                job_service_bytes: service,
                job_peak_rate_bps: peak,
            }
        }
        _ => TenantDagRun::unattributed(report, dag, arb),
    })
}

/// [`Substrate::execute_closed`] with every transfer's window kept in the
/// report, in DAG order.
fn with_windows<S: Substrate + ?Sized>(
    sub: &mut S,
    dag: &dyn DepSource,
    arb: Option<&JobArbitration>,
) -> Result<TenantDagRun> {
    let mut windows = vec![DagTiming::default(); dag.len()];
    let mut run = sub.execute_closed(dag, arb, &mut |key, t| keep(&mut windows, key, t))?;
    run.dag.transfers = windows;
    Ok(run)
}

/// Write a transfer's outcome into a per-transfer table at its key (the
/// closed runs hand only keys below the schedule's length).
fn keep<T>(table: &mut [T], key: usize, outcome: T) {
    if let Some(slot) = table.get_mut(key) {
        *slot = outcome;
    }
}

impl From<Completion> for DagTiming {
    fn from(c: Completion) -> Self {
        Self {
            start_s: c.start_s,
            finish_s: c.finish_s,
        }
    }
}

/// The WDM optical ring as an execution substrate.
#[derive(Debug, Clone)]
pub struct OpticalSubstrate {
    sim: RingSimulator,
    strategy: Strategy,
}

impl OpticalSubstrate {
    /// Build from an optical configuration with First-Fit RWA.
    pub fn new(config: OpticalConfig) -> Result<Self> {
        Self::with_strategy(config, Strategy::FirstFit)
    }

    /// Build with an explicit RWA strategy.
    pub fn with_strategy(config: OpticalConfig, strategy: Strategy) -> Result<Self> {
        Ok(Self {
            sim: RingSimulator::try_new(config)?,
            strategy,
        })
    }

    /// The underlying optical configuration.
    #[must_use]
    pub fn config(&self) -> &OpticalConfig {
        self.sim.config()
    }
}

impl Substrate for OpticalSubstrate {
    fn name(&self) -> &str {
        "optical"
    }

    fn nodes(&self) -> usize {
        self.config().nodes
    }

    fn execute(&mut self, schedule: &dyn StepSource) -> Result<RunReport> {
        Ok(self.sim.run_stepped(schedule, self.strategy)?)
    }

    fn engine(
        &self,
        arbitrated: bool,
        fair_share: bool,
        image: Option<&Value>,
    ) -> Result<Box<dyn FabricEngine + '_>> {
        let (config, strategy) = (self.config(), self.strategy);
        Ok(Box::new(match image {
            None => GrantEngine::new(config, strategy, arbitrated, fair_share)?,
            Some(v) => {
                let snap = GrantEngineSnapshot::from_value(v).map_err(|_| malformed())?;
                GrantEngine::restore(config, strategy, arbitrated, fair_share, &snap)?
            }
        }))
    }
}

/// The error of a checkpoint engine image that does not parse.
pub(crate) fn malformed() -> crate::error::WrhtError {
    optical_sim::OpticalError::BadConfig("malformed stream checkpoint").into()
}

/// The electrical switched cluster (fluid model) as an execution substrate.
///
/// Direction and lane fields of the optical IR are ignored. Zero-byte
/// transfers are passed through and counted — the runner skips them when
/// solving the fluid model but still charges the per-step launch overhead
/// and validates their endpoints — so `transfers`/`bytes` accounting
/// matches the optical substrate for the same schedule. Stepped runs go
/// through [`StepRunner`], one step at a time.
#[derive(Debug, Clone)]
pub struct ElectricalSubstrate {
    net: Network,
    step_overhead_s: f64,
}

impl ElectricalSubstrate {
    /// Build from a network and the per-step protocol overhead.
    #[must_use]
    pub fn new(net: Network, step_overhead_s: f64) -> Self {
        Self {
            net,
            step_overhead_s,
        }
    }
}

impl Substrate for ElectricalSubstrate {
    fn name(&self) -> &str {
        "electrical"
    }

    fn nodes(&self) -> usize {
        self.net.hosts()
    }

    /// One [`StepRunner`] step per schedule step. A step the source
    /// promises only permutes its predecessor's payloads
    /// ([`StepSource::permutes_previous`]) is not written when the runner
    /// can repeat the last step ([`StepRunner::repeat`]): it has the
    /// predecessor's timing. Fails when the payload bytes of a step, or of
    /// the run, overflow `u64`.
    fn execute(&mut self, schedule: &dyn StepSource) -> Result<RunReport> {
        let mut runner = StepRunner::new(&self.net, self.step_overhead_s);
        let mut buf = Vec::new();
        let mut steps: Vec<StepTiming> = Vec::with_capacity(schedule.step_count());
        let mut total_bytes = 0u64;
        let overflow = || NetError::BadConfig("stepped payload bytes overflow u64");
        for index in 0..schedule.step_count() {
            let timing = match steps.last() {
                Some(last) if schedule.permutes_previous(index) && runner.repeat().is_some() => {
                    last.clone()
                }
                _ => {
                    let step = schedule.step(index, &mut buf);
                    let duration_s = runner.step(step.iter().map(step_transfer))?;
                    let bytes = step
                        .iter()
                        .try_fold(0u64, |sum, t| sum.checked_add(t.bytes))
                        .ok_or_else(overflow)?;
                    StepTiming {
                        duration_s,
                        transfers: step.len(),
                        bytes,
                        peak_wavelength: 0,
                    }
                }
            };
            total_bytes = total_bytes.checked_add(timing.bytes).ok_or_else(overflow)?;
            steps.push(timing);
        }
        Ok(RunReport {
            substrate: "electrical".into(),
            total_time_s: steps.iter().fold(0.0, |total, s| total + s.duration_s),
            steps,
        })
    }

    fn engine(
        &self,
        _arbitrated: bool,
        _fair_share: bool,
        image: Option<&Value>,
    ) -> Result<Box<dyn FabricEngine + '_>> {
        let eng = match image {
            None => FluidEngine::new(&self.net),
            Some(v) => {
                let snap = FluidEngineSnapshot::from_value(v).map_err(|_| malformed())?;
                FluidEngine::restore(&self.net, &snap)?
            }
        };
        Ok(Box::new(eng.with_launch_delay(self.step_overhead_s)))
    }

    /// A barrier-shaped DAG takes the fast path: one [`StepRunner`] step
    /// per stage, composed like [`Substrate::execute`], so the makespan is
    /// the stepped total bit-exactly. A payload transfer finishes at its
    /// stage's start plus the overhead plus its finish in the step, a
    /// zero-byte one after the overhead alone; each window goes to `sink`
    /// as its stage is composed. Delivered bytes per job are the payload
    /// sums; the stage composition has no per-interval rate solution to
    /// attribute. Every other DAG runs on the engine.
    fn execute_closed(
        &mut self,
        dag: &dyn DepSource,
        arb: Option<&JobArbitration>,
        sink: &mut dyn FnMut(usize, DagTiming),
    ) -> Result<TenantDagRun> {
        if !dag.is_barrier_shaped() {
            return closed_run(self, dag, arb, sink);
        }
        check_jobs(dag.len(), arb)?;
        let mut runner = StepRunner::new(&self.net, self.step_overhead_s).recording();
        let (mut makespan_s, mut key) = (0.0, 0);
        let mut stages = dag.stages();
        while let Some(read) = stages.next_stage() {
            if read.len() > dag.len() - key {
                return Err(overlong_source());
            }
            for stage in read.chunk_by(|a, b| a.stage == b.stage) {
                let start_s = makespan_s;
                makespan_s += runner.step(stage.iter().map(|t| step_transfer(&t.transfer)))?;
                let launched_s = start_s + self.step_overhead_s;
                let mut finishes = runner.finishes().iter();
                for t in stage {
                    let finish_s = match t.transfer.bytes {
                        0 => launched_s,
                        _ => finishes.next().map_or(launched_s, |f| launched_s + f),
                    };
                    sink(key, DagTiming { start_s, finish_s });
                    key += 1;
                }
            }
        }
        let (rate_recomputations, solver_work, events) = runner.counters();
        let report = DagRunReport {
            substrate: "electrical".into(),
            makespan_s,
            transfers: Vec::new(),
            peak_wavelength: 0,
            rate_recomputations,
            solver_work,
            events,
        };
        Ok(TenantDagRun::unattributed(report, dag, arb))
    }
}

/// The electrical view of a transfer (direction and lanes are optical).
fn step_transfer(t: &optical_sim::Transfer) -> StepTransfer {
    StepTransfer {
        src: t.src.0,
        dst: t.dst.0,
        bytes: t.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::oring_schedule;
    use optical_sim::{NodeId, StepSchedule, Transfer};

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
    fn empty_schedule_is_zero_on_both_substrates() {
        let sched = StepSchedule::default();
        for report in [
            optical(8, 4).execute(&sched).unwrap(),
            electrical(8).execute(&sched).unwrap(),
        ] {
            // +0.0, not the -0.0 an empty `f64` sum starts from.
            assert_eq!(report.total_time_s.to_bits(), 0.0f64.to_bits());
            assert_eq!(report.step_count(), 0);
            assert_eq!(report.total_bytes(), 0);
            assert_eq!(report.mean_goodput_bps(), 0.0);
            assert_eq!(report.peak_wavelengths(), 0);
        }
    }

    /// The barrier contract holds on the empty schedule too, sign bit
    /// included.
    #[test]
    fn empty_execute_and_execute_dag_agree_bit_for_bit() {
        let sched = StepSchedule::default();
        let dag = crate::dag::DepSchedule::from_steps(&sched);
        assert!(dag.is_barrier_shaped());
        let mut o = optical(8, 4);
        let mut e = electrical(8);
        for sub in [&mut o as &mut dyn Substrate, &mut e] {
            let stepped = sub.execute(&sched).unwrap();
            let event = sub.execute_dag(&dag).unwrap();
            assert_eq!(event.makespan_s.to_bits(), stepped.total_time_s.to_bits());
        }
    }

    #[test]
    fn empty_step_inside_a_schedule_costs_nothing_on_both() {
        let sched = StepSchedule::from_steps(vec![
            vec![Transfer::shortest(NodeId(0), NodeId(1), 1_000_000)],
            vec![],
            vec![Transfer::shortest(NodeId(2), NodeId(3), 1_000_000)],
        ]);
        for report in [
            optical(8, 4).execute(&sched).unwrap(),
            electrical(8).execute(&sched).unwrap(),
        ] {
            assert_eq!(report.step_count(), 3);
            assert_eq!(report.steps[1].duration_s, 0.0);
            assert_eq!(report.steps[1].transfers, 0);
            assert!((report.total_time_s - 2e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn one_step_schedule_matches_closed_form_on_both() {
        let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            2_000_000,
        )]]);
        let o = optical(8, 4).execute(&sched).unwrap();
        let e = electrical(8).execute(&sched).unwrap();
        assert!((o.total_time_s - 2e-3).abs() < 1e-12);
        assert!((e.total_time_s - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn substrates_agree_on_a_ring_allreduce_with_matched_physics() {
        let n = 8;
        let sched = oring_schedule(n, 8_000, 4);
        let o = optical(n, 1).execute(&sched).unwrap();
        let mut ring = ElectricalSubstrate::new(electrical_sim::topology::ring(n, 1e9, 0.0), 0.0);
        let e = ring.execute(&sched).unwrap();
        assert_eq!(o.step_count(), e.step_count());
        for (os, es) in o.steps.iter().zip(&e.steps) {
            assert!(
                (os.duration_s - es.duration_s).abs() < 1e-15,
                "optical {} vs electrical {}",
                os.duration_s,
                es.duration_s
            );
            assert_eq!(os.bytes, es.bytes);
        }
    }

    #[test]
    fn optical_report_carries_wavelength_footprint() {
        let n = 8;
        let sched = oring_schedule(n, 8_000, 4);
        let report = optical(n, 4).execute(&sched).unwrap();
        assert_eq!(report.peak_wavelengths(), 1);
        assert_eq!(report.substrate, "optical");
        assert_eq!(report.transfer_count(), 2 * (n - 1) * n);
    }

    #[test]
    fn utilization_is_goodput_over_reference() {
        let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            1_000_000,
        )]]);
        let report = optical(8, 4).execute(&sched).unwrap();
        let util = report.utilization(4.0 * 1e9);
        assert!((util - 0.25).abs() < 1e-12, "util={util}");
        assert_eq!(report.utilization(0.0), 0.0);
    }

    #[test]
    fn barrier_dag_matches_execute_bit_exactly_on_both_substrates() {
        let n = 8;
        let sched = oring_schedule(n, 8_000, 4);
        let dag = crate::dag::DepSchedule::from_steps(&sched);
        assert!(dag.is_barrier_shaped());

        let mut o = optical(n, 4);
        let stepped = o.execute(&sched).unwrap();
        let event = o.execute_dag(&dag).unwrap();
        assert_eq!(event.makespan_s.to_bits(), stepped.total_time_s.to_bits());

        let mut e = electrical(n);
        let stepped = e.execute(&sched).unwrap();
        let event = e.execute_dag(&dag).unwrap();
        assert_eq!(event.makespan_s.to_bits(), stepped.total_time_s.to_bits());
        assert_eq!(event.transfers.len(), sched.transfer_count());
    }

    #[test]
    fn pipelined_dag_is_never_slower_than_barrier() {
        let n = 8;
        let sched = oring_schedule(n, 8_000, 4);
        let pipelined = crate::dag::DepSchedule::pipelined_from_steps(&sched);
        assert!(!pipelined.is_barrier_shaped());
        for (barrier_s, report) in [
            {
                let mut o = optical(n, 4);
                (
                    o.execute(&sched).unwrap().total_time_s,
                    o.execute_dag(&pipelined).unwrap(),
                )
            },
            {
                let mut e = electrical(n);
                (
                    e.execute(&sched).unwrap().total_time_s,
                    e.execute_dag(&pipelined).unwrap(),
                )
            },
        ] {
            assert!(
                report.makespan_s <= barrier_s + 1e-12,
                "{}: pipelined {} vs barrier {barrier_s}",
                report.substrate,
                report.makespan_s
            );
            assert!(report.makespan_s > 0.0);
        }
    }

    #[test]
    fn electrical_dag_reports_incremental_solver_metrics() {
        let sched = StepSchedule::from_steps(vec![
            vec![
                Transfer::shortest(NodeId(0), NodeId(1), 1_000_000),
                Transfer::shortest(NodeId(2), NodeId(3), 2_000_000),
            ],
            vec![Transfer::shortest(NodeId(1), NodeId(2), 1_000_000)],
        ]);
        let mut e = electrical(8);
        let report = e
            .execute_dag(&crate::dag::DepSchedule::pipelined_from_steps(&sched))
            .unwrap();
        assert!(report.rate_recomputations > 0);
        assert!(report.solver_work > 0);
        assert_eq!(report.peak_wavelength, 0);
        // Optical reports carry no fluid-solver metrics.
        let mut o = optical(8, 4);
        let report = o
            .execute_dag(&crate::dag::DepSchedule::from_steps(&sched))
            .unwrap();
        assert_eq!(report.solver_work, 0);
        assert!(report.peak_wavelength >= 1);
    }

    #[test]
    fn malformed_zero_byte_transfers_fail_alike_stepped_and_as_a_dag() {
        use crate::error::WrhtError;
        use electrical_sim::NetError;
        // A zero-byte self-transfer and a zero-byte transfer to a host the
        // 4-host star does not have: alone in a step, and beside a payload
        // flow whose routing repeats the step before.
        let payload = || Transfer::shortest(NodeId(0), NodeId(1), 1_000);
        for (bad, want) in [
            (
                Transfer::shortest(NodeId(2), NodeId(2), 0),
                NetError::SelfFlow(2),
            ),
            (
                Transfer::shortest(NodeId(1), NodeId(9), 0),
                NetError::HostOutOfRange { host: 9, hosts: 4 },
            ),
        ] {
            for sched in [
                StepSchedule::from_steps(vec![vec![bad.clone()]]),
                StepSchedule::from_steps(vec![vec![payload()], vec![payload(), bad.clone()]]),
            ] {
                let mut e = electrical(4);
                let stepped = e.execute(&sched).unwrap_err();
                assert_eq!(stepped, WrhtError::Electrical(want.clone()));
                let dag = e
                    .execute_dag(&crate::dag::DepSchedule::from_steps(&sched))
                    .unwrap_err();
                assert_eq!(dag, stepped);
                assert!(optical(4, 4).execute(&sched).is_err());
            }
        }
    }

    #[test]
    fn an_unschedulable_optical_transfer_fails_stepped_and_as_a_dag_alike() {
        // 1e-300 B/s lanes pass validation; a `u64::MAX`-byte transfer on
        // them takes longer than any finite time.
        let mut o = OpticalSubstrate::new(
            OpticalConfig::new(8, 4)
                .with_lambda_bandwidth(1e-300)
                .with_message_overhead(0.0)
                .with_hop_propagation(0.0),
        )
        .unwrap();
        let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            u64::MAX,
        )]]);
        let stepped = o.execute(&sched).unwrap_err();
        let dag = o
            .execute_dag(&crate::dag::DepSchedule::from_steps(&sched))
            .unwrap_err();
        assert_eq!(stepped, dag);
        assert_eq!(
            stepped,
            optical_sim::OpticalError::BadConfig("transfer duration must be finite and >= 0")
                .into()
        );
    }

    #[test]
    fn zero_byte_transfers_are_counted_on_both_substrates() {
        let sched = StepSchedule::from_steps(vec![vec![
            Transfer::shortest(NodeId(0), NodeId(1), 0),
            Transfer::shortest(NodeId(2), NodeId(3), 1_000_000),
        ]]);
        // Both substrates report the schedule's own transfer/byte counts;
        // the zero-byte transfer adds no serialization time on either
        // (these configs have zero overheads).
        for report in [
            optical(8, 4).execute(&sched).unwrap(),
            electrical(8).execute(&sched).unwrap(),
        ] {
            assert_eq!(report.steps[0].transfers, 2, "{}", report.substrate);
            assert_eq!(report.total_bytes(), 1_000_000);
            assert!((report.total_time_s - 1e-3).abs() < 1e-12);
        }
    }
}
