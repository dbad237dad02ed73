//! One streaming-engine interface over both fabrics.
//!
//! Each fabric has exactly one event engine: [`GrantEngine`] for the WDM
//! optical ring and [`FluidEngine`] for the electrical cluster. Every
//! entry point drives that engine — the closed DAG, tenancy and fault
//! runs inside the simulator crates, and the two drivers here in
//! `wrht-core`: the open-loop service loop ([`crate::stream`]) and the
//! composed co-simulation loop ([`crate::hierarchy`]). [`FabricEngine`] is
//! the surface those two drivers share: peek at the next instant, inject a
//! job's transfers, step one instant, drain completions.
//!
//! Completion keys are sequential per engine — the grant engine's order
//! keys and the fluid engine's flow indices both count injected transfers
//! from zero — so a driver that needs to map completions back to its own
//! transfers keeps a plain vector indexed by key.

use serde::{Serialize, Value};

use crate::dag::DepTransfer;
use crate::error::Result;
use electrical_sim::{EngineFlow, FluidEngine};
use optical_sim::{GrantEngine, GrantTransfer};

/// One transfer completion drained from a [`FabricEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Sequential engine key: the `k`-th transfer injected has key `k`.
    pub key: usize,
    /// The job tag the transfer was injected with.
    pub job: usize,
    /// Start instant (grant optically, gates open electrically), seconds.
    pub start_s: f64,
    /// Completion instant, seconds.
    pub finish_s: f64,
}

/// A fabric's streaming engine as the stream and composed drivers see it.
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

    /// Inject one job's transfers (dependencies batch-local) with every
    /// release offset by `offset_s`. `delay_s` is the launch overhead the
    /// electrical substrate charges per flow once its gates open; the
    /// optical timing model charges its own per-message overhead and
    /// ignores it.
    ///
    /// # Errors
    /// The engine's own validation errors (forward dependencies, bad
    /// releases, unroutable transfers).
    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        offset_s: f64,
        delay_s: f64,
        job: usize,
    ) -> Result<()>;

    /// Process the next event instant; `None` when idle.
    ///
    /// # Errors
    /// The engine's run-time errors (stalled or unreachable flows).
    fn step(&mut self) -> Result<Option<f64>>;

    /// Append the completions recorded by previous steps.
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

    /// Serialized engine image for a stream checkpoint.
    fn snapshot(&self) -> Value;
}

/// Hand `transfers`, converted by `item`, to an engine's `inject`. The
/// composed loop injects one transfer at a time; that case goes through
/// the stack, because a heap temporary per injection fragments a campaign
/// worker's heap enough to raise its peak resident memory measurably.
fn with_batch<T, R>(
    transfers: &[DepTransfer],
    item: impl Fn(&DepTransfer) -> T,
    inject: impl FnOnce(&[T]) -> R,
) -> R {
    match transfers {
        [t] => inject(&[item(t)]),
        _ => inject(&transfers.iter().map(item).collect::<Vec<_>>()),
    }
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

    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        offset_s: f64,
        _delay_s: f64,
        job: usize,
    ) -> Result<()> {
        let item = |t: &DepTransfer| GrantTransfer {
            transfer: t.transfer.clone(),
            // The identical float expression the closed compose() uses
            // (`arrival + release`), so grant instants match bit-exactly.
            release_s: offset_s + t.release_s,
            deps: t.deps.clone(),
            job,
        };
        with_batch(transfers, item, |b| GrantEngine::inject(self, b))?;
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

    fn inject(
        &mut self,
        transfers: &[DepTransfer],
        offset_s: f64,
        delay_s: f64,
        job: usize,
    ) -> Result<()> {
        let item = |t: &DepTransfer| EngineFlow {
            src: t.transfer.src.0,
            dst: t.transfer.dst.0,
            bytes: t.transfer.bytes,
            // Identical float expression to the closed compose().
            release_s: offset_s + t.release_s,
            delay_s,
            deps: t.deps.clone(),
            job,
        };
        with_batch(transfers, item, |b| FluidEngine::inject(self, b))?;
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
        }));
    }

    fn events(&self) -> u64 {
        FluidEngine::events(self)
    }

    fn stall_diagnostic(&mut self) -> Result<()> {
        // The closed path's "unreachable flows" error surfaces from a step
        // on the drained engine.
        FluidEngine::step(self)?;
        Ok(())
    }

    fn solver_stats(&self) -> (usize, usize) {
        (self.rate_recomputations(), self.solver_work())
    }

    fn snapshot(&self) -> Value {
        FluidEngine::snapshot(self).to_value()
    }
}
