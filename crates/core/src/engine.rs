//! One streaming-engine interface over every fabric, and the closed driver.
//!
//! Each fabric has exactly one event engine: [`GrantEngine`] for the WDM
//! optical ring, [`FluidEngine`] for the electrical cluster, and for a
//! multi-group hierarchy the composed engine over one engine per member
//! fabric ([`crate::hierarchy`]). A substrate supplies its engine
//! ([`crate::substrate::Substrate::engine`]), and every dependency-aware
//! run drives it through [`FabricEngine`] with one of two drivers: the
//! closed driver [`run_closed`] behind every DAG, tenancy and fault run,
//! and the open-loop service loop ([`crate::stream`]). [`FabricEngine`] is
//! the surface they share: peek at the next instant, inject transfers,
//! step one instant, drain completions.
//!
//! Completion keys are sequential per engine — the grant engine's order
//! keys and the fluid engine's flow indices both count injected transfers
//! from zero — so a caller that needs to map completions back to its own
//! transfers keeps a plain vector indexed by key. The closed driver keeps
//! none: it hands each outcome to its caller, and only callers that read
//! per-transfer windows build that vector.
//!
//! The closed driver streams: it reads its [`DepSource`] one stage at a
//! time and injects a stage only when the engine could need it, so a
//! lazily lowered DAG runs in a few stages of engine state — the pipelined
//! lowering ([`crate::dag::PipelinedSource`]) on either flat engine, and
//! the mixed-parallelism lowering
//! ([`crate::parallelism::ParallelismSource`]) on the composed engine,
//! which forgets settled keys as the fluid engine does. A transfer
//! injected before any of its dependencies settles behaves exactly as if
//! it had been injected at time zero, so the streamed run is bit-identical
//! to the materialized one.

use serde::{Deserialize, Serialize, Value};

use crate::dag::{DepSource, DepTransfer};
use crate::error::{Result, WrhtError};
use crate::fault::{FaultPolicy, FaultScript, FaultTiming};
use crate::tenancy::JobArbitration;
use electrical_sim::{EngineFlow, FluidEngine};
use optical_sim::{GrantEngine, OpticalError};

/// One transfer outcome drained from a [`FabricEngine`]: a completion, or
/// under faults a failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Sequential engine key: the `k`-th transfer injected has key `k`.
    pub key: usize,
    /// The job tag the transfer was injected with.
    pub job: usize,
    /// Start instant (last grant optically, gates open electrically),
    /// seconds. A failed optical transfer reports 0.
    pub start_s: f64,
    /// Completion instant, seconds (0 for a failed transfer).
    pub finish_s: f64,
    /// Times a fault aborted the transfer mid-flight.
    pub aborts: u32,
    /// A fault failed the transfer, or stranded it behind a failed one.
    pub failed: bool,
}

/// A fabric's streaming engine as the drivers see it.
pub trait FabricEngine {
    /// Coincidence tolerance of the engine's batches: an arrival within
    /// this distance after the next event belongs to that event's batch
    /// (0 for kernels that batch bit-identical instants only;
    /// [`electrical_sim::sim::EPS`] for the fluid engine, which promotes
    /// anything within it).
    fn admit_slack(&self) -> f64 {
        0.0
    }

    /// Instant of the next pending event, including releases of
    /// transfers injected since the last step.
    fn peek_time(&self) -> Option<f64>;

    /// Register a job with a grant rank (only the optical grant order uses
    /// ranks) and return its tag; tags of retired jobs are reused.
    fn add_job(&mut self, rank: u64) -> usize;

    /// Release a finished job's tag for reuse.
    fn retire_job(&mut self, job: usize);

    /// Install a fault script and the policy affected work recovers under,
    /// before the first injection. Returns whether any event concerns this
    /// fabric; without one the engine stays on its clean path.
    ///
    /// # Errors
    /// Scripts and policies that fail validation against the fabric, and
    /// installation after the first injection.
    fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool>;

    /// Inject transfers with every release offset by `offset_s`;
    /// transfer `i` of the batch belongs to job `job(i)`. The batch
    /// continues a DAG: `transfers[i]` is the DAG's transfer `first + i`,
    /// the DAG's transfers `0..first` are the engine's last `first` keys,
    /// and dependencies are DAG indices, each naming an earlier transfer
    /// of the batch or one of the DAG's earlier transfers that has not
    /// settled. A whole DAG is one batch with `first` 0. The electrical
    /// engine charges its launch overhead on top.
    ///
    /// # Errors
    /// The engine's own validation errors (forward dependencies,
    /// dependencies on settled transfers, bad releases, unroutable
    /// transfers), and a `first` beyond the engine's keys.
    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()>;

    /// One past the highest key the next [`FabricEngine::step`] could
    /// settle: a key whose dependencies are all met, or that can settle
    /// in the step that meets them. A driver that injects a DAG stage by
    /// stage has injected a transfer in time as long as this has not
    /// passed all its dependencies.
    fn frontier(&self) -> usize;

    /// Let the engine drop the state of settled transfers whose outcomes
    /// were drained: the closed driver calls this after every drain, since
    /// it has handed each drained outcome to its caller (the fluid and the
    /// composed engine drop their settled prefix). Afterwards the engine
    /// has no [`FabricEngine::snapshot`].
    fn forget_settled(&mut self) {}

    /// Process the next event instant; `None` when idle.
    ///
    /// # Errors
    /// The engine's run-time errors (stalled or unreachable flows).
    fn step(&mut self) -> Result<Option<f64>>;

    /// Append the outcomes recorded by previous steps.
    fn drain(&mut self, out: &mut Vec<Completion>);

    /// Events processed so far.
    fn events(&self) -> u64;

    /// The engine's own diagnostic for a run that stalled with unfinished
    /// transfers (stuck optical lanes, unreachable electrical flows).
    ///
    /// # Errors
    /// That diagnostic, when the engine has one.
    fn stall_diagnostic(&mut self) -> Result<()>;

    /// Highest wavelength index ever in use + 1 (0 without WDM).
    fn peak_wavelength(&self) -> usize {
        0
    }

    /// `(rate recomputations, solver work)` of the max-min solver (zeros
    /// without one).
    fn solver_stats(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Instant a fault first aborted, failed or slowed a transfer, if any.
    fn first_impact_s(&self) -> Option<f64>;

    /// The rate solution attributed to jobs, indexed by job tag: active
    /// seconds, delivered bytes and peak aggregate rate. `None` on fabrics
    /// that grant whole resources and have no fractional rates.
    fn job_rates(&self) -> Option<[&[f64]; 3]> {
        None
    }

    /// Serialized engine image for a stream checkpoint.
    fn snapshot(&self) -> Value;
}

/// Check `arb`'s job tags against a schedule of `len` transfers: one tag
/// per transfer, each naming a job of the rank table.
///
/// # Errors
/// [`OpticalError::BadConfig`] for a tag list of another length or a tag
/// out of range.
pub(crate) fn check_jobs(len: usize, arb: Option<&JobArbitration>) -> Result<()> {
    let Some(a) = arb else {
        return Ok(());
    };
    if a.job_of.len() != len {
        return Err(OpticalError::BadConfig("job tag list must match the transfer list").into());
    }
    if a.job_of.iter().any(|&j| j >= a.rank.len()) {
        return Err(OpticalError::BadConfig("job tag out of range of the rank table").into());
    }
    Ok(())
}

/// The closed driver: register `arb`'s jobs, run `dag` on `eng` until it
/// is idle, and hand every drained outcome to `sink` as it is drained
/// (completion keys are DAG indices, so `eng` must be fresh). The driver
/// keeps no outcome: a caller that wants per-transfer windows builds its
/// own table in `sink`, and one that wants a summary folds it there.
/// Without `arb` the run is one job, tag 0. Faults, if any, are installed
/// beforehand ([`FabricEngine::set_faults`]); the engine's statistics stay
/// readable on `eng`.
///
/// The DAG is read one stage at a time. Before each step the driver
/// injects stages until the source's horizon — the lowest index a
/// transfer not yet read can depend on — lies at or above the engine's
/// [`FabricEngine::frontier`]: every dependency of an unread transfer is
/// then a key the step cannot settle, so each transfer is injected before
/// any of its dependencies settles and the run is bit-identical to
/// injecting the whole DAG at time zero. A materialized
/// [`crate::dag::DepSchedule`] is one stage and is injected whole.
///
/// Every key `sink` sees lies below the number of transfers injected so
/// far, so below `dag.len()`.
///
/// # Errors
/// Job tags that do not fit the schedule, a source that reads more
/// transfers than its length, a completion key outside the injected
/// transfers, the engine's validation and run-time errors, and its stall
/// diagnostic when it went idle with a transfer unfinished.
pub fn run_closed<E>(
    eng: &mut E,
    dag: &dyn DepSource,
    arb: Option<&JobArbitration>,
    mut sink: impl FnMut(Completion),
) -> Result<()>
where
    E: FabricEngine + ?Sized,
{
    check_jobs(dag.len(), arb)?;
    let tags: Vec<usize> = arb.map_or_else(Vec::new, |a| {
        a.rank.iter().map(|&rank| eng.add_job(rank)).collect()
    });
    let mut stages = dag.stages();
    let (mut written, mut reading, mut idle) = (0, true, false);
    let mut done = Vec::new();
    loop {
        // An idle engine needs the next stage whatever the horizon says.
        while reading && (idle || stages.horizon().is_none_or(|h| h < eng.frontier())) {
            match stages.next_stage() {
                Some(stage) => {
                    if stage.len() > dag.len() - written {
                        return Err(overlong_source());
                    }
                    eng.inject(stage, written, 0.0, &|i| {
                        arb.map_or(0, |a| tags[a.job_of[written + i]])
                    })?;
                    written += stage.len();
                    idle = false;
                }
                None => reading = false,
            }
        }
        if idle {
            break;
        }
        idle = eng.step()?.is_none();
        done.clear();
        eng.drain(&mut done);
        for &c in &done {
            if c.key >= written {
                return Err(OpticalError::BadConfig("completion key outside the schedule").into());
            }
            sink(c);
        }
        eng.forget_settled();
    }
    eng.stall_diagnostic()?;
    Ok(())
}

/// The error of a source whose stages read more transfers than its
/// length.
pub(crate) fn overlong_source() -> WrhtError {
    OpticalError::BadConfig("source reads more transfers than its length").into()
}

impl From<Completion> for FaultTiming {
    fn from(c: Completion) -> Self {
        Self {
            start_s: c.start_s,
            finish_s: c.finish_s,
            aborts: c.aborts,
            completed: !c.failed,
        }
    }
}

/// The engine key of a DAG's transfer 0, for a batch that continues the
/// DAG at its transfer `first` on an engine whose next key is `next`.
pub(crate) fn dag_base(next: usize, first: usize) -> Result<usize> {
    next.checked_sub(first).ok_or_else(|| {
        OpticalError::BadConfig("batch continues more transfers than the engine holds").into()
    })
}

/// Completion instant of the last completed transfer (failed transfers
/// report a zero finish).
pub(crate) fn makespan_s(outcomes: &[FaultTiming]) -> f64 {
    outcomes.iter().fold(0.0f64, |m, o| m.max(o.finish_s))
}

impl FabricEngine for GrantEngine {
    fn peek_time(&self) -> Option<f64> {
        GrantEngine::peek_time(self)
    }

    fn add_job(&mut self, rank: u64) -> usize {
        GrantEngine::add_job(self, rank)
    }

    fn retire_job(&mut self, job: usize) {
        GrantEngine::retire_job(self, job);
    }

    fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool> {
        Ok(GrantEngine::set_faults(self, script, policy)?)
    }

    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let base = dag_base(self.next_key() as usize, first)?;
        // The engine reads the batch in place: no list is built per
        // transfer.
        self.inject_from(transfers.iter().enumerate().map(|(i, t)| {
            (
                &t.transfer,
                offset_s + t.release_s,
                job(i),
                t.deps.iter().map(move |&d| base.saturating_add(d)),
            )
        }))?;
        Ok(())
    }

    fn frontier(&self) -> usize {
        usize::try_from(GrantEngine::frontier(self)).unwrap_or(usize::MAX)
    }

    fn step(&mut self) -> Result<Option<f64>> {
        Ok(GrantEngine::step(self)?)
    }

    fn drain(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.drain_completions().map(|c| Completion {
            key: c.order as usize,
            job: c.job,
            start_s: c.start_s,
            finish_s: c.finish_s,
            aborts: c.aborts,
            failed: c.failed,
        }));
    }

    fn events(&self) -> u64 {
        GrantEngine::events(self)
    }

    fn stall_diagnostic(&mut self) -> Result<()> {
        Ok(self.check_stuck()?)
    }

    fn peak_wavelength(&self) -> usize {
        GrantEngine::peak_wavelength(self)
    }

    fn first_impact_s(&self) -> Option<f64> {
        GrantEngine::first_impact_s(self)
    }

    fn snapshot(&self) -> Value {
        GrantEngine::snapshot(self).to_value()
    }
}

impl FabricEngine for FluidEngine<'_> {
    fn admit_slack(&self) -> f64 {
        electrical_sim::sim::EPS
    }

    fn peek_time(&self) -> Option<f64> {
        FluidEngine::peek_time(self)
    }

    fn add_job(&mut self, _rank: u64) -> usize {
        // Max-min rates are policy-free: ranks only matter optically.
        FluidEngine::add_job(self)
    }

    fn retire_job(&mut self, job: usize) {
        FluidEngine::retire_job(self, job);
    }

    fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool> {
        Ok(FluidEngine::set_faults(self, script, policy)?)
    }

    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let delay_s = self.launch_delay_s();
        let base = dag_base(self.next_key(), first)?;
        // The engine reads the batch in place: no list is built per flow.
        self.inject_from(transfers.iter().enumerate().map(|(i, t)| {
            let flow = EngineFlow {
                src: t.transfer.src.0,
                dst: t.transfer.dst.0,
                bytes: t.transfer.bytes,
                release_s: offset_s + t.release_s,
                delay_s,
                deps: Vec::new(),
                job: job(i),
            };
            (flow, t.deps.iter().map(move |&d| base.saturating_add(d)))
        }))?;
        Ok(())
    }

    fn frontier(&self) -> usize {
        FluidEngine::frontier(self)
    }

    fn forget_settled(&mut self) {
        FluidEngine::forget_settled(self);
    }

    fn step(&mut self) -> Result<Option<f64>> {
        Ok(FluidEngine::step(self)?)
    }

    fn drain(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.drain_completions().map(|c| Completion {
            key: c.index,
            job: c.job,
            start_s: c.start_s,
            finish_s: c.finish_s,
            aborts: c.aborts,
            failed: c.failed,
        }));
    }

    fn events(&self) -> u64 {
        FluidEngine::events(self)
    }

    fn stall_diagnostic(&mut self) -> Result<()> {
        // The "unreachable flows" error surfaces from a step on the
        // drained engine.
        FluidEngine::step(self)?;
        Ok(())
    }

    fn solver_stats(&self) -> (usize, usize) {
        (self.rate_recomputations(), self.solver_work())
    }

    fn first_impact_s(&self) -> Option<f64> {
        FluidEngine::first_impact_s(self)
    }

    fn job_rates(&self) -> Option<[&[f64]; 3]> {
        Some(FluidEngine::job_rates(self))
    }

    fn snapshot(&self) -> Value {
        FluidEngine::snapshot(self).to_value()
    }
}
