//! One streaming-engine interface over both fabrics, and the closed driver.
//!
//! Each fabric has exactly one event engine: [`GrantEngine`] for the WDM
//! optical ring and [`FluidEngine`] for the electrical cluster. A substrate
//! supplies its engine ([`crate::substrate::Substrate::engine`]), and every
//! dependency-aware run drives it through [`FabricEngine`]: the closed
//! driver [`run_closed`] behind every DAG, tenancy and fault run, the
//! open-loop service loop ([`crate::stream`]) and the composed
//! co-simulation loop ([`crate::hierarchy`]). [`FabricEngine`] is the
//! surface they share: peek at the next instant, inject transfers, step one
//! instant, drain completions.
//!
//! Completion keys are sequential per engine — the grant engine's order
//! keys and the fluid engine's flow indices both count injected transfers
//! from zero — so a driver that needs to map completions back to its own
//! transfers keeps a plain vector indexed by key.

use serde::{Serialize, Value};

use crate::dag::{DepSchedule, DepTransfer};
use crate::error::Result;
use crate::fault::{FaultPolicy, FaultScript, FaultTiming};
use crate::tenancy::JobArbitration;
use electrical_sim::{EngineFlow, FluidEngine};
use optical_sim::{GrantEngine, GrantTransfer, OpticalError};

/// One transfer outcome drained from a [`FabricEngine`]: a completion, or
/// under faults a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    fn peek_time(&mut self) -> Option<f64>;

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

    /// Inject transfers (dependencies batch-local) with every release
    /// offset by `offset_s`; transfer `i` of the batch belongs to job
    /// `job(i)`. The electrical engine charges its launch overhead on top.
    ///
    /// # Errors
    /// The engine's own validation errors (forward dependencies, bad
    /// releases, unroutable transfers).
    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()>;

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

/// The closed driver: register `arb`'s jobs, inject the whole `dag` as one
/// batch at time zero (so completion keys are DAG indices and arbitration
/// ties break in DAG order), step `eng` until it is idle, and return every
/// transfer's outcome in DAG order. Without `arb` the run is one job, tag
/// 0. Faults, if any, are installed beforehand
/// ([`FabricEngine::set_faults`]); the engine's statistics stay readable
/// on `eng`.
///
/// # Errors
/// Job tags that do not fit the schedule, the engine's validation and
/// run-time errors, and its stall diagnostic when it went idle with a
/// transfer unfinished.
pub fn run_closed<E: FabricEngine + ?Sized>(
    eng: &mut E,
    dag: &DepSchedule,
    arb: Option<&JobArbitration>,
) -> Result<Vec<FaultTiming>> {
    check_jobs(dag.len(), arb)?;
    let tags: Vec<usize> = arb.map_or_else(Vec::new, |a| {
        a.rank.iter().map(|&rank| eng.add_job(rank)).collect()
    });
    eng.inject(dag.transfers(), 0.0, &|i| {
        arb.map_or(0, |a| tags[a.job_of[i]])
    })?;
    let mut outcomes = vec![FaultTiming::default(); dag.len()];
    let mut done = Vec::new();
    loop {
        let more = eng.step()?.is_some();
        done.clear();
        eng.drain(&mut done);
        for c in &done {
            let Some(slot) = outcomes.get_mut(c.key) else {
                return Err(OpticalError::BadConfig("completion key outside the schedule").into());
            };
            *slot = FaultTiming {
                start_s: c.start_s,
                finish_s: c.finish_s,
                aborts: c.aborts,
                completed: !c.failed,
            };
        }
        if !more {
            break;
        }
    }
    eng.stall_diagnostic()?;
    Ok(outcomes)
}

/// Completion instant of the last completed transfer (failed transfers
/// report a zero finish).
pub(crate) fn makespan_s(outcomes: &[FaultTiming]) -> f64 {
    outcomes.iter().fold(0.0f64, |m, o| m.max(o.finish_s))
}

impl FabricEngine for GrantEngine {
    fn peek_time(&mut self) -> Option<f64> {
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
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let item = |i: usize, t: &DepTransfer| GrantTransfer {
            transfer: t.transfer.clone(),
            release_s: offset_s + t.release_s,
            deps: t.deps.clone(),
            job: job(i),
        };
        // The composed loop injects one transfer at a time; that case goes
        // through the stack, because a heap temporary per injection
        // fragments a campaign worker's heap enough to raise its peak
        // resident memory measurably.
        match transfers {
            [t] => GrantEngine::inject(self, &[item(0, t)]),
            _ => {
                let batch: Vec<GrantTransfer> = transfers
                    .iter()
                    .enumerate()
                    .map(|(i, t)| item(i, t))
                    .collect();
                GrantEngine::inject(self, &batch)
            }
        }?;
        Ok(())
    }

    fn step(&mut self) -> Result<Option<f64>> {
        Ok(GrantEngine::step(self))
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

    fn peek_time(&mut self) -> Option<f64> {
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
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let delay_s = self.launch_delay_s();
        let item = |i: usize, t: &DepTransfer| EngineFlow {
            src: t.transfer.src.0,
            dst: t.transfer.dst.0,
            bytes: t.transfer.bytes,
            release_s: offset_s + t.release_s,
            delay_s,
            deps: t.deps.clone(),
            job: job(i),
        };
        // The converted batch moves into the engine; one transfer stays on
        // the stack (see the grant engine's inject).
        match transfers {
            [t] => self.inject_owned([item(0, t)]),
            _ => self.inject_owned(
                transfers
                    .iter()
                    .enumerate()
                    .map(|(i, t)| item(i, t))
                    .collect::<Vec<_>>(),
            ),
        }?;
        Ok(())
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
