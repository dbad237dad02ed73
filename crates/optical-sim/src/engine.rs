//! The streaming wavelength-grant engine.
//!
//! [`GrantEngine`] is the single execution engine behind every dependency-
//! aware optical run. A closed run (the closed driver in `wrht-core`)
//! injects a materialized transfer DAG at time zero, or a lazily lowered
//! one stage at a time, and pumps the engine to idle. Open-loop cluster
//! services instead [`GrantEngine::inject`] each arriving job's transfers
//! into the *running* engine — the grant loop, arbitration and event
//! kernel are shared, so a stream whose arrivals are all known up front is
//! bit-exact with the closed path.
//!
//! Dependencies name order keys, so a batch may depend on live transfers
//! of earlier batches. A transfer injected before any of its dependencies
//! completes behaves exactly as if it had been injected at time zero: it
//! is gated when its last dependency completes, whenever it arrived.
//! [`GrantEngine::frontier`] tells a streaming driver how far ahead it
//! must have injected: no transfer at or above it can complete in the next
//! step.
//!
//! # Determinism across injection times
//!
//! Two rules make "inject later" indistinguishable from "inject at zero":
//!
//! 1. **Order keys, not slot indices.** Completed transfers release their
//!    slots for reuse (bounded memory on million-arrival streams), so slot
//!    indices are not stable identifiers. Every tie-break that the closed
//!    path resolved by transfer index — the waiting-list sort and the
//!    arbitration scan — uses a monotonically increasing per-transfer
//!    `order` key instead. When everything is injected at once, `order`
//!    *is* the transfer index, so the closed path is unchanged.
//! 2. **Set-based batches.** The kernel coalesces every event at a bit-
//!    identical instant into one batch and the engine processes the batch
//!    as a set (sorted waiting-list inserts, commutative lane releases)
//!    before a single grant scan. Relative sequence order between events
//!    scheduled before vs. after an injection therefore cannot change the
//!    outcome — only the *set* of simultaneous events matters.
//!
//! # The grant scan
//!
//! Each batch ends with one scan of the waiting list. A waiter is granted
//! if its lanes are free and no earlier *blocked* waiter in the scan claimed
//! a same-direction segment of its arc; a waiter that is not granted claims
//! its arc in turn. The scan order is order-key order, or under
//! arbitration least-served job first (with fair share), then lowest rank,
//! then order key.
//!
//! The waiting list is kept in scan order rather than sorted per batch.
//! Each waiter is inserted at its position by a key that never changes
//! while it waits: its order key, or under arbitration `(rank, order)` — a
//! job slot's rank is fixed from [`GrantEngine::add_job`] until the job
//! retires, and a retired job has no waiters. FIFO, priority and closed
//! runs therefore scan the list as it is. Fair share adds the one key that
//! moves, the job's accumulated service: the scan sorts only the distinct
//! service values of the jobs present and places the waiters into one
//! bucket per value with a stable counting sort. Within a bucket the
//! list's `(rank, order)` order survives, so the result is exactly the
//! `(service, rank, order)` order — also when several jobs share a rank or
//! a service value.
//!
//! Every entry carries its arc (direction, first clockwise segment, hops),
//! and the claimed segments are one bitset per direction, so skipping a
//! blocked waiter is a few word operations and never reads its slot. Lanes
//! come from [`Occupancy::assign`], which ORs the path's per-segment lane
//! masks once. A grant's highest lane only ever raises the peak, so the
//! engine's peak wavelength is the running maximum of granted lane + 1.
//!
//! # Faults
//!
//! [`GrantEngine::set_faults`] schedules a [`FaultScript`]'s optically
//! relevant events on the engine's own kernel, beside gates and
//! completions. A batch applies its completions first and its faults
//! second, so a transfer finishing at exactly the fault instant is
//! finished, not aborted. `WavelengthDown` masks a lane and **aborts** its
//! in-flight holders, which recover per [`FaultPolicy`]: re-granted over
//! the surviving lanes under the same arbitration, at once (`Replan`) or
//! after the backoff (`RetryAfter`), or failing the owning job wholly
//! (`FailJob`). `WavelengthUp` repairs the lane. `NodeDown` permanently
//! fails every unfinished transfer with an endpoint on the node; under
//! `RetryAfter`/`Replan` their dependents are released so survivors
//! re-plan, under `FailJob` the owning job fails. `NodeStraggle`
//! multiplies the duration of grants made at or after the instant. Link
//! events have no optical meaning. Failed transfers — and, once the engine
//! goes idle, every transfer stranded behind them — are reported as
//! [`GrantCompletion`]s with `failed` set. Without a relevant fault the
//! engine allocates no fault state and runs the clean arithmetic.
//!
//! The engine also supports [`GrantEngine::snapshot`] /
//! [`GrantEngine::restore`]: a versioned, serializable image of the slots,
//! pending kernel events and clock, pinned byte-identical by the stream
//! checkpoint tests in `wrht-core`. The image lists the waiters in
//! order-key order; restore puts them back into scan order. Restore
//! validates the image's indices, times, routes and lane holdings, rejects
//! corrupt ones with [`OpticalError::BadConfig`], and rebuilds the lane
//! occupancy from the in-flight slots.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use wrht_kernel::{EventId, EventKernel, FaultKind, FaultLimits, FaultPolicy, FaultScript};

use crate::config::OpticalConfig;
use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::request::Transfer;
use crate::rwa::{arc_runs, arc_start, Occupancy, Strategy};
use crate::timing::TimingModel;
use crate::topology::{Direction, RingTopology};
use crate::wavelength::Wavelength;

/// Version tag of [`GrantEngineSnapshot`]; bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Entry of [`GrantEngine`]'s key table for a key whose transfer settled.
const SETTLED: usize = usize::MAX;

/// One transfer submitted to [`GrantEngine::inject`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrantTransfer {
    /// The transfer itself (route, payload, striping lanes).
    pub transfer: Transfer,
    /// Earliest start instant, **absolute** simulated seconds. A transfer
    /// without dependencies must not be released before the engine clock
    /// at injection time.
    pub release_s: f64,
    /// Dependencies as order keys (the `k`-th transfer ever injected has
    /// key `k`): each names an earlier transfer of the same batch, or a
    /// transfer of an earlier batch that has not completed yet.
    pub deps: Vec<usize>,
    /// Owning job slot (from [`GrantEngine::add_job`]); ignored (use 0)
    /// when the engine is not arbitrated.
    pub job: usize,
}

/// Outcome record drained via [`GrantEngine::drain_completions`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrantCompletion {
    /// The transfer's order key — for a single batch injected at time zero
    /// this equals the submission index.
    pub order: u64,
    /// Owning job slot.
    pub job: usize,
    /// Grant instant, seconds (0 for failed transfers).
    pub start_s: f64,
    /// Completion instant, seconds (0 for failed transfers).
    pub finish_s: f64,
    /// Times a fault aborted the transfer mid-flight.
    pub aborts: u32,
    /// A fault failed the transfer, or it was stranded when the engine
    /// went idle; it never completed.
    pub failed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    Gate(usize),
    Complete(usize),
    Fault(usize),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Slot {
    transfer: Transfer,
    path: LightPath,
    release_s: f64,
    missing: usize,
    dependents: Vec<usize>,
    job: usize,
    order: u64,
    assigned: Vec<Wavelength>,
    /// Grant instant; `None` until the transfer's lanes are granted.
    /// (An `Option`, not NaN, so snapshots survive JSON round-trips.)
    started: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct JobSlot {
    rank: u64,
    service: f64,
}

/// One entry of the waiting list: what the grant scan needs to order a
/// waiter, to skip it and to try its lanes without reading its slot.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    /// The order key: with the owning job's rank under arbitration, the
    /// waiter's static scan key.
    order: u64,
    id: usize,
    job: usize,
    lanes: usize,
    /// The arc: the segments `first..first + hops` (mod `n`), counted
    /// clockwise, on the `direction` waveguide.
    first: usize,
    hops: usize,
    direction: Direction,
    /// Granted by the current scan; removed when it ends.
    granted: bool,
}

impl Waiter {
    fn new(id: usize, slot: &Slot) -> Self {
        Self {
            order: slot.order,
            id,
            job: slot.job,
            lanes: slot.transfer.lanes,
            first: arc_start(&slot.path),
            hops: slot.path.hops(),
            direction: slot.path.direction,
            granted: false,
        }
    }
}

/// A set of ring segments, one bit each.
#[derive(Debug)]
struct SegmentSet(Vec<u64>);

impl SegmentSet {
    fn new(segments: usize) -> Self {
        Self(vec![0; segments.div_ceil(64)])
    }

    /// Does the arc `first..first + hops` (mod `n`) share a segment with
    /// the set?
    fn meets(&self, first: usize, hops: usize, n: usize) -> bool {
        arc_runs(first, hops, n).any(|run| self.meets_run(run))
    }

    /// Add the arc's segments.
    fn insert(&mut self, first: usize, hops: usize, n: usize) {
        for run in arc_runs(first, hops, n) {
            self.insert_run(run);
        }
    }

    fn meets_run(&self, Range { start, end }: Range<usize>) -> bool {
        if start == end {
            return false;
        }
        let ((a, head), (b, tail)) = range_ends(start, end);
        if a == b {
            return self.0[a] & head & tail != 0;
        }
        self.0[a] & head != 0 || self.0[a + 1..b].iter().any(|&w| w != 0) || self.0[b] & tail != 0
    }

    fn insert_run(&mut self, Range { start, end }: Range<usize>) {
        if start == end {
            return;
        }
        let ((a, head), (b, tail)) = range_ends(start, end);
        if a == b {
            self.0[a] |= head & tail;
        } else {
            self.0[a] |= head;
            self.0[a + 1..b].fill(!0);
            self.0[b] |= tail;
        }
    }
}

/// The first and last word of the non-empty bit range `lo..hi`, each with
/// the bits from `lo` up, and up to `hi`, in it.
fn range_ends(lo: usize, hi: usize) -> ((usize, u64), (usize, u64)) {
    let last = hi - 1;
    (
        (lo / 64, !0 << (lo % 64)),
        (last / 64, !0 >> (63 - last % 64)),
    )
}

/// Scratch of the fair-share scan order, allocated once.
#[derive(Debug, Default)]
struct FairOrder {
    /// Waiting-list positions in scan order.
    perm: Vec<usize>,
    /// The jobs with waiters, sorted by service.
    present: Vec<usize>,
    /// Each job's bucket; `usize::MAX` for a job without waiters.
    bucket: Vec<usize>,
    /// Per bucket, the next place in `perm`.
    start: Vec<usize>,
}

impl FairOrder {
    /// Fill `perm` with the positions of `waiting` (which is in
    /// `(rank, order)` order) in `(service, rank, order)` order: sort the
    /// distinct service values of the jobs present, then place the waiters
    /// into one bucket per value with a stable counting sort, which keeps
    /// the list's `(rank, order)` order within a bucket. Returns false,
    /// leaving `perm` alone, when one value covers every waiter and
    /// `waiting` already is in scan order.
    fn order(&mut self, waiting: &[Waiter], jobs: &[JobSlot]) -> bool {
        const ABSENT: usize = usize::MAX;
        let Self {
            perm,
            present,
            bucket,
            start,
        } = self;
        bucket.resize(jobs.len(), ABSENT);
        present.clear();
        for w in waiting {
            if bucket[w.job] == ABSENT {
                bucket[w.job] = 0;
                present.push(w.job);
            }
        }
        let cmp = |a: usize, b: usize| jobs[a].service.total_cmp(&jobs[b].service);
        present.sort_unstable_by(|&a, &b| cmp(a, b));
        let mut buckets = 0;
        for i in 0..present.len() {
            if i == 0 || cmp(present[i - 1], present[i]).is_ne() {
                buckets += 1;
            }
            bucket[present[i]] = buckets - 1;
        }
        if buckets > 1 {
            start.clear();
            start.resize(buckets, 0);
            for w in waiting {
                start[bucket[w.job]] += 1;
            }
            let mut sum = 0;
            for place in start.iter_mut() {
                sum += std::mem::replace(place, sum);
            }
            perm.resize(waiting.len(), 0);
            for (pos, w) in waiting.iter().enumerate() {
                let next = &mut start[bucket[w.job]];
                perm[*next] = pos;
                *next += 1;
            }
        }
        for &j in present.iter() {
            bucket[j] = ABSENT;
        }
        buckets > 1
    }
}

/// Fault state, allocated only when [`GrantEngine::set_faults`] installs
/// at least one relevant event.
#[derive(Debug)]
struct Faults {
    /// The relevant events, indexed by their [`Ev::Fault`] payload.
    script: Vec<FaultKind>,
    policy: FaultPolicy,
    /// Grant-duration multiplier per node (1.0 while healthy).
    straggle: Vec<f64>,
    /// Pending completion event of every in-flight slot.
    in_flight: Vec<Option<EventId>>,
    /// Mid-flight aborts per slot.
    aborts: Vec<u32>,
    first_impact_s: Option<f64>,
}

/// Versioned, serializable image of a [`GrantEngine`] mid-run.
///
/// Contains the full mutable state: transfer slots and free list, job
/// table, waiting list, pending kernel events in pop order, the clock and
/// counters. Restoring re-schedules the pending events in order into a
/// fresh kernel — relative insertion order is all tie-breaking observes, so
/// the resumed run is byte-identical to an uninterrupted one — and rebuilds
/// the lane occupancy from the in-flight slots' lanes. Fault state is not
/// captured: faulted runs are closed runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrantEngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    now: f64,
    events: u64,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    jobs: Vec<JobSlot>,
    job_free: Vec<usize>,
    next_order: u64,
    waiting: Vec<usize>,
    pending: Vec<(f64, Ev)>,
    completions: Vec<GrantCompletion>,
    peak: usize,
    peak_wavelength: usize,
    makespan: f64,
}

/// The dependency-aware wavelength-grant engine (see module docs).
#[derive(Debug)]
pub struct GrantEngine {
    topo: RingTopology,
    timing: TimingModel,
    wavelengths: usize,
    strategy: Strategy,
    arbitrated: bool,
    fair_share: bool,
    occ: Occupancy,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Slot of every order key from the lowest unsettled one on
    /// ([`SETTLED`] once its transfer completed or failed), so a batch can
    /// depend on live transfers of earlier batches. Built from the live
    /// slots when the first such batch arrives; runs that inject whole
    /// DAGs never build it.
    keys: Option<VecDeque<usize>>,
    /// One past the highest order key whose dependencies are all met.
    gated: u64,
    jobs: Vec<JobSlot>,
    job_free: Vec<usize>,
    next_order: u64,
    queue: EventKernel<Ev>,
    /// Gated transfers not yet granted, in scan order (see module docs).
    waiting: Vec<Waiter>,
    completions: Vec<GrantCompletion>,
    events_base: u64,
    active: usize,
    peak: usize,
    peak_wavelength: usize,
    makespan: f64,
    faults: Option<Box<Faults>>,
    // Per-step scratch, allocated once.
    batch: Vec<Ev>,
    /// Segments claimed by blocked waiters, per direction.
    claimed: [SegmentSet; 2],
    fair: FairOrder,
}

impl GrantEngine {
    /// Fresh engine over the given optical deployment.
    ///
    /// `arbitrated` enables the cross-job grant order (per-job rank, and
    /// least-service-first when `fair_share` is also set); without it,
    /// waiters are served purely in order-key (DAG) order.
    ///
    /// # Errors
    /// Invalid configurations are rejected exactly as by
    /// [`crate::sim::RingSimulator::try_new`].
    pub fn new(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
    ) -> Result<Self> {
        config.validate()?;
        let topo = RingTopology::try_new(config.nodes)?;
        let nodes = topo.nodes();
        Ok(Self {
            timing: config.timing(),
            wavelengths: config.wavelengths,
            strategy,
            arbitrated,
            fair_share,
            occ: Occupancy::new(nodes, config.wavelengths),
            slots: Vec::new(),
            free: Vec::new(),
            keys: None,
            gated: 0,
            jobs: Vec::new(),
            job_free: Vec::new(),
            next_order: 0,
            queue: EventKernel::new(),
            waiting: Vec::new(),
            completions: Vec::new(),
            events_base: 0,
            active: 0,
            peak: 0,
            peak_wavelength: 0,
            makespan: 0.0,
            faults: None,
            batch: Vec::new(),
            claimed: [SegmentSet::new(nodes), SegmentSet::new(nodes)],
            fair: FairOrder::default(),
            topo,
        })
    }

    /// Install a fault script and the policy aborted or failed work
    /// recovers under (see the module docs). Returns whether any event was
    /// optically relevant — without one the engine stays on the clean path.
    ///
    /// # Errors
    /// Scripts and policies that fail validation against this ring
    /// ([`OpticalError::Fault`]), and installation after the first
    /// injection ([`OpticalError::BadConfig`]).
    pub fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool> {
        script.validate(&FaultLimits {
            nodes: self.topo.nodes(),
            wavelengths: Some(self.wavelengths),
            links: None,
        })?;
        policy.validate()?;
        if self.next_order > 0 || self.faults.is_some() {
            return Err(OpticalError::BadConfig(
                "faults must be installed once, before the first injection",
            ));
        }
        let relevant: Vec<FaultKind> = script
            .events()
            .iter()
            .filter(|ev| {
                !matches!(
                    ev.kind,
                    FaultKind::LinkDegrade { .. } | FaultKind::LinkFlap { .. }
                )
            })
            .enumerate()
            .map(|(k, ev)| {
                self.queue
                    .schedule_at(ev.at_s, Ev::Fault(k))
                    .map(|_| ev.kind)
                    .map_err(|_| OpticalError::BadConfig("fault instant precedes the engine clock"))
            })
            .collect::<Result<_>>()?;
        if relevant.is_empty() {
            return Ok(false);
        }
        self.faults = Some(Box::new(Faults {
            script: relevant,
            policy,
            straggle: vec![1.0; self.topo.nodes()],
            in_flight: Vec::new(),
            aborts: Vec::new(),
            first_impact_s: None,
        }));
        Ok(true)
    }

    /// Register a job with the given static grant rank, returning its slot.
    /// Slots of [`GrantEngine::retire_job`]d jobs are reused.
    pub fn add_job(&mut self, rank: u64) -> usize {
        let slot = JobSlot { rank, service: 0.0 };
        if let Some(j) = self.job_free.pop() {
            self.jobs[j] = slot;
            j
        } else {
            self.jobs.push(slot);
            self.jobs.len() - 1
        }
    }

    /// Release a job slot for reuse. The caller must ensure every transfer
    /// of the job has completed (a finished job has no waiters, so its
    /// accumulated fair-share service can no longer influence any grant).
    pub fn retire_job(&mut self, job: usize) {
        debug_assert!(job < self.jobs.len());
        self.job_free.push(job);
    }

    /// Inject a transfer batch (one job's DAG, or the next stages of a
    /// closed DAG) into the running engine.
    ///
    /// Dependencies are order keys: the batch's transfers get the keys
    /// from [`GrantEngine::next_key`] on, and each dependency names an
    /// earlier transfer of the batch or a live transfer of an earlier
    /// batch. Release times are absolute; a transfer without dependencies
    /// must not be released before the engine clock. Returns nothing —
    /// completions surface through [`GrantEngine::drain_completions`],
    /// identified by order key and job.
    ///
    /// # Errors
    /// Same validation (and error values) as the closed DAG path: forward
    /// deps, non-finite/negative releases, unroutable transfers and lane
    /// demands exceeding the channel count are rejected before any state
    /// changes, and so are dependencies on transfers that already
    /// completed or failed ([`OpticalError::BadConfig`]).
    pub fn inject(&mut self, transfers: &[GrantTransfer]) -> Result<()> {
        let now = self.queue.now();
        let first = self.next_order;
        let earlier = |t: &GrantTransfer| t.deps.iter().any(|&d| (d as u64) < first);
        if self.keys.is_none() && transfers.iter().any(earlier) {
            self.keys = Some(self.key_table());
        }
        let mut paths: Vec<LightPath> = Vec::with_capacity(transfers.len());
        for (i, t) in transfers.iter().enumerate() {
            let key = first + i as u64;
            for &d in &t.deps {
                if d as u64 >= key {
                    return Err(OpticalError::BadConfig(
                        "dependency must precede its transfer",
                    ));
                }
                if (d as u64) < first && self.slot_of(d as u64).is_none() {
                    return Err(OpticalError::BadConfig(
                        "dependency names a transfer that already settled",
                    ));
                }
            }
            if !t.release_s.is_finite() || t.release_s < 0.0 {
                return Err(OpticalError::BadConfig(
                    "release time must be finite and >= 0",
                ));
            }
            if t.deps.is_empty() && t.release_s < now {
                return Err(OpticalError::BadConfig(
                    "release time must not precede the engine clock",
                ));
            }
            if self.arbitrated && t.job >= self.jobs.len() {
                return Err(OpticalError::BadConfig(
                    "job tag out of range of the rank table",
                ));
            }
            let path = t.transfer.resolve(&self.topo)?;
            if t.transfer.lanes > self.wavelengths {
                return Err(OpticalError::WavelengthsExhausted {
                    available: self.wavelengths,
                    requested: t.transfer.lanes,
                    step: 0,
                });
            }
            paths.push(path);
        }

        let mut ids: Vec<usize> = Vec::with_capacity(transfers.len());
        for (t, path) in transfers.iter().zip(paths) {
            let order = self.next_order;
            self.next_order += 1;
            let slot = Slot {
                transfer: t.transfer.clone(),
                path,
                release_s: t.release_s,
                missing: t.deps.len(),
                dependents: Vec::new(),
                job: t.job,
                order,
                assigned: Vec::new(),
                started: None,
            };
            let id = if let Some(id) = self.free.pop() {
                self.slots[id] = Some(slot);
                id
            } else {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            };
            ids.push(id);
        }
        if let Some(keys) = self.keys.as_mut() {
            keys.extend(&ids);
        }
        if let Some(f) = self.faults.as_deref_mut() {
            f.in_flight.resize(self.slots.len(), None);
            f.aborts.resize(self.slots.len(), 0);
        }
        for (bi, t) in transfers.iter().enumerate() {
            let id = ids[bi];
            for &d in &t.deps {
                // Validated above: an earlier transfer of the batch, or a
                // live one of an earlier batch.
                let dep = match (d as u64).checked_sub(first) {
                    Some(k) => Some(ids[k as usize]),
                    None => self.slot_of(d as u64),
                };
                if let Some(slot) = dep.and_then(|dep| self.slots[dep].as_mut()) {
                    slot.dependents.push(id);
                }
            }
            if t.deps.is_empty() {
                self.gated = self.gated.max(first + bi as u64 + 1);
                self.queue
                    .schedule_at(t.release_s, Ev::Gate(id))
                    .map_err(|_| bad("release time must be finite and >= 0"))?;
            }
        }
        Ok(())
    }

    /// Order key the next injected transfer gets.
    #[must_use]
    pub fn next_key(&self) -> u64 {
        self.next_order
    }

    /// One past the highest order key whose dependencies are all met, so
    /// no transfer at or above it can complete in the next
    /// [`GrantEngine::step`] (a grant's completion is always a later
    /// batch). A driver that injects a DAG stage by stage only needs to
    /// have injected a transfer before this passes all its dependencies.
    /// Under faults, which can fail waiting transfers, every key counts.
    #[must_use]
    pub fn frontier(&self) -> u64 {
        if self.faults.is_some() {
            u64::MAX
        } else {
            self.gated
        }
    }

    /// Transfer slots allocated so far: the most transfers the engine
    /// ever held at once, since completed slots are reused first.
    #[must_use]
    pub fn peak_slots(&self) -> usize {
        self.slots.len()
    }

    /// The key table of the live slots.
    fn key_table(&self) -> VecDeque<usize> {
        let live = || self.slots.iter().flatten();
        let front = live().map(|s| s.order).min().unwrap_or(self.next_order);
        let mut keys = VecDeque::from(vec![SETTLED; (self.next_order - front) as usize]);
        for (id, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                keys[(s.order - front) as usize] = id;
            }
        }
        keys
    }

    /// Slot of an injected key whose transfer has not settled, once the
    /// key table exists.
    fn slot_of(&self, key: u64) -> Option<usize> {
        let keys = self.keys.as_ref()?;
        let k = key.checked_sub(self.next_order - keys.len() as u64)?;
        keys.get(usize::try_from(k).ok()?)
            .copied()
            .filter(|&id| id != SETTLED)
    }

    /// Mark `key`'s transfer settled in the key table, if there is one,
    /// and trim the table's settled front.
    fn settle_key(&mut self, key: u64) {
        let Some(keys) = self.keys.as_mut() else {
            return;
        };
        let front = self.next_order - keys.len() as u64;
        if let Some(entry) = key
            .checked_sub(front)
            .and_then(|k| keys.get_mut(usize::try_from(k).ok()?))
        {
            *entry = SETTLED;
        }
        while keys.front() == Some(&SETTLED) {
            keys.pop_front();
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Process the next event batch (every event at the next bit-identical
    /// instant) and run one grant scan. Returns the batch instant, or
    /// `None` when the engine is idle. Under faults, going idle fails every
    /// transfer still unfinished.
    ///
    /// # Errors
    /// [`OpticalError::BadConfig`] when an event names a retired transfer
    /// or a grant or gate cannot be scheduled (a non-finite duration or
    /// release); the engine is then unusable.
    pub fn step(&mut self) -> Result<Option<f64>> {
        self.batch.clear();
        let Some(now) = self.queue.pop_batch(&mut self.batch) else {
            // Under faults, an idle engine can still hold unfinished
            // transfers — stuck waiters and dependents of failed ones.
            // They are casualties.
            if self.faults.is_some() {
                for id in 0..self.slots.len() {
                    self.fail(id, None);
                }
                self.waiting.clear();
            }
            return Ok(None);
        };
        // The kernel coalesces every event at this exact instant before
        // granting: cross-job arbitration must see all simultaneous waiters
        // (and all simultaneously freed wavelengths) together. Completes
        // scheduled *by* the grant scan below land in a later batch at the
        // same clock, which is fine.
        for k in 0..self.batch.len() {
            match self.batch[k] {
                // A failed transfer's slot is retired; its gate is stale.
                Ev::Gate(id) => {
                    if self.slots[id].is_some() {
                        self.enqueue_waiting(id)?;
                    }
                }
                Ev::Complete(id) => self.complete(id, now)?,
                Ev::Fault(_) => {}
            }
        }
        if self.faults.is_some() {
            self.apply_faults(now)?;
        }
        self.grant_scan()?;
        Ok(Some(now))
    }

    /// Insert `id` into the waiting list at its scan position.
    fn enqueue_waiting(&mut self, id: usize) -> Result<()> {
        let slot = self.slots[id].as_ref();
        let w = Waiter::new(id, slot.ok_or(bad("gated transfer has no live slot"))?);
        let pos = if self.arbitrated {
            let jobs = &self.jobs;
            let key = (jobs[w.job].rank, w.order);
            self.waiting
                .partition_point(|x| (jobs[x.job].rank, x.order) < key)
        } else {
            self.waiting.partition_point(|x| x.order < w.order)
        };
        self.waiting.insert(pos, w);
        Ok(())
    }

    fn complete(&mut self, id: usize, now: f64) -> Result<()> {
        // The slot is retired here — its only two events (one gate, one
        // completion) have both fired, and dependents hold no references
        // past the `missing` decrement below — so the slot count tracks
        // *live* transfers, not total transfers ever injected.
        let slot = self.slots[id]
            .take()
            .ok_or(bad("completed transfer has no live slot"))?;
        self.free.push(id);
        self.settle_key(slot.order);
        for &lambda in &slot.assigned {
            self.occ.release(&slot.path, lambda);
        }
        self.makespan = self.makespan.max(now);
        self.active -= 1;
        self.release_dependents(&slot.dependents, now)?;
        let aborts = self.faults.as_deref_mut().map_or(0, |f| {
            f.in_flight[id] = None;
            std::mem::take(&mut f.aborts[id])
        });
        self.completions.push(GrantCompletion {
            order: slot.order,
            job: slot.job,
            start_s: slot.started.unwrap_or(0.0),
            finish_s: now,
            aborts,
            failed: false,
        });
        Ok(())
    }

    /// Retire one dependency edge of each of `dependents`, gating those
    /// whose last predecessor this was (failed dependents are skipped).
    fn release_dependents(&mut self, dependents: &[usize], now: f64) -> Result<()> {
        for &dep in dependents {
            let Some(d) = self.slots[dep].as_mut() else {
                continue;
            };
            d.missing -= 1;
            if d.missing == 0 {
                self.gated = self.gated.max(d.order + 1);
                let rel = d.release_s;
                if rel <= now {
                    self.enqueue_waiting(dep)?;
                } else {
                    self.queue
                        .schedule_at(rel, Ev::Gate(dep))
                        .map_err(|_| bad("release time must be finite and >= 0"))?;
                }
            }
        }
        Ok(())
    }

    /// Apply the faults of the current batch, after its completions.
    fn apply_faults(&mut self, now: f64) -> Result<()> {
        let Some(policy) = self.faults.as_deref().map(|f| f.policy) else {
            return Ok(());
        };
        let mut any = false;
        let mut fail_jobs: Vec<usize> = Vec::new();
        for k in 0..self.batch.len() {
            let (Ev::Fault(i), Some(f)) = (self.batch[k], self.faults.as_deref_mut()) else {
                continue;
            };
            any = true;
            match f.script[i] {
                FaultKind::WavelengthDown { lane } => {
                    self.occ.set_lane_down(Wavelength(lane));
                    for id in 0..self.slots.len() {
                        let holder = self.slots[id]
                            .as_ref()
                            .filter(|s| s.assigned.contains(&Wavelength(lane)));
                        let Some(job) = holder.map(|s| s.job) else {
                            continue;
                        };
                        if !self.abort(id, Some(now)) {
                            continue;
                        }
                        match policy {
                            FaultPolicy::FailJob => fail_jobs.push(job),
                            FaultPolicy::RetryAfter(backoff) => {
                                self.queue
                                    .schedule_at(now + backoff, Ev::Gate(id))
                                    .map_err(|_| bad("retry backoff must be finite and >= 0"))?;
                            }
                            FaultPolicy::Replan => self.enqueue_waiting(id)?,
                        }
                    }
                }
                FaultKind::WavelengthUp { lane } => self.occ.set_lane_up(Wavelength(lane)),
                FaultKind::NodeDown { node } => {
                    // Every unfinished transfer touching the node fails
                    // permanently (retrying a dead endpoint is futile).
                    // Ascending slot order lets failure cascade to
                    // dependents that also touch the node in one sweep.
                    for id in 0..self.slots.len() {
                        let touches = self.slots[id]
                            .as_ref()
                            .is_some_and(|s| s.transfer.src.0 == node || s.transfer.dst.0 == node);
                        if !touches {
                            continue;
                        }
                        self.abort(id, Some(now));
                        let Some(slot) = self.fail(id, Some(now)) else {
                            continue;
                        };
                        if policy == FaultPolicy::FailJob {
                            fail_jobs.push(slot.job);
                        } else {
                            self.release_dependents(&slot.dependents, now)?;
                        }
                    }
                }
                FaultKind::NodeStraggle { node, slowdown } => {
                    f.straggle[node] = f.straggle[node].max(slowdown);
                }
                FaultKind::LinkDegrade { .. } | FaultKind::LinkFlap { .. } => {}
            }
        }
        if !any {
            return Ok(());
        }
        if !fail_jobs.is_empty() {
            for id in 0..self.slots.len() {
                if self.slots[id]
                    .as_ref()
                    .is_some_and(|s| fail_jobs.contains(&s.job))
                {
                    self.abort(id, None);
                    self.fail(id, None);
                }
            }
        }
        let slots = &self.slots;
        self.waiting.retain(|w| slots[w.id].is_some());
        Ok(())
    }

    /// Tear down `id`'s grant if it is in flight: cancel its completion
    /// and free its lanes; `impact` counts it as an abort at that instant.
    /// Returns whether it was in flight.
    fn abort(&mut self, id: usize, impact: Option<f64>) -> bool {
        let Some(f) = self.faults.as_deref_mut() else {
            return false;
        };
        let Some(ev) = f.in_flight[id].take() else {
            return false;
        };
        if let Some(now) = impact {
            f.aborts[id] += 1;
            f.first_impact_s.get_or_insert(now);
        }
        self.queue.cancel(ev);
        if let Some(slot) = self.slots[id].as_mut() {
            for &lambda in &slot.assigned {
                self.occ.release(&slot.path, lambda);
            }
            slot.assigned.clear();
            slot.started = None;
        }
        self.active -= 1;
        true
    }

    /// Report `id` as failed (at the `impact` instant, if the fault hit it
    /// directly) and retire its slot. The slot index is never recycled: a
    /// gate already scheduled for it must find it empty.
    fn fail(&mut self, id: usize, impact: Option<f64>) -> Option<Slot> {
        let f = self.faults.as_deref_mut()?;
        let slot = self.slots[id].take()?;
        if let Some(now) = impact {
            f.first_impact_s.get_or_insert(now);
        }
        let aborts = std::mem::take(&mut f.aborts[id]);
        self.settle_key(slot.order);
        self.completions.push(GrantCompletion {
            order: slot.order,
            job: slot.job,
            start_s: 0.0,
            finish_s: 0.0,
            aborts,
            failed: true,
        });
        Some(slot)
    }

    /// Start every waiter that now fits, in scan order (see module docs).
    /// Segments of waiters that do NOT fit are claimed so later waiters
    /// cannot overtake them on a shared span.
    fn grant_scan(&mut self) -> Result<()> {
        if self.waiting.is_empty() {
            return Ok(());
        }
        let fair = self.arbitrated && self.fair_share && self.fair.order(&self.waiting, &self.jobs);
        let n = self.topo.nodes();
        let Self {
            slots,
            jobs,
            occ,
            queue,
            waiting,
            claimed,
            fair: FairOrder { perm, .. },
            active,
            peak,
            peak_wavelength,
            timing,
            strategy,
            arbitrated,
            faults,
            ..
        } = self;
        let mut any_granted = false;
        for k in 0..waiting.len() {
            let w = &mut waiting[if fair { perm[k] } else { k }];
            let d = usize::from(w.direction == Direction::CounterClockwise);
            if !claimed[d].meets(w.first, w.hops, n) {
                let lanes = occ.assign_arc(w.direction, w.first, w.hops, w.lanes, *strategy);
                if let Ok(lanes) = lanes {
                    let slot = slots[w.id]
                        .as_mut()
                        .ok_or(bad("waiting transfer has no live slot"))?;
                    let top = lanes.iter().fold(0, |top, l| top.max(l.0 + 1));
                    *peak_wavelength = (*peak_wavelength).max(top);
                    slot.assigned = lanes;
                    let mut dur =
                        timing.transfer_time(slot.transfer.bytes, slot.transfer.lanes, w.hops);
                    if let Some(f) = faults.as_deref() {
                        let slow =
                            f.straggle[slot.transfer.src.0].max(f.straggle[slot.transfer.dst.0]);
                        if slow > 1.0 {
                            dur *= slow;
                        }
                    }
                    slot.started = Some(queue.now());
                    let ev = queue
                        .schedule_in(dur, Ev::Complete(w.id))
                        .map_err(|_| bad("transfer duration must be finite and >= 0"))?;
                    if let Some(f) = faults.as_deref_mut() {
                        f.in_flight[w.id] = Some(ev);
                    }
                    *active += 1;
                    *peak = (*peak).max(*active);
                    if *arbitrated {
                        jobs[slot.job].service += dur * slot.transfer.lanes as f64;
                    }
                    w.granted = true;
                    any_granted = true;
                    continue;
                }
            }
            claimed[d].insert(w.first, w.hops, n);
        }
        if any_granted {
            waiting.retain(|w| !w.granted);
        }
        for set in claimed {
            set.0.fill(0);
        }
        Ok(())
    }

    /// Drain the accumulated outcome records, oldest first.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, GrantCompletion> {
        self.completions.drain(..)
    }

    /// Events processed so far, including any before a snapshot/restore.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events_base + self.queue.events_processed()
    }

    /// Completion time of the last completed transfer, seconds.
    #[must_use]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Peak number of concurrently active transfers.
    #[must_use]
    pub fn peak_concurrency(&self) -> usize {
        self.peak
    }

    /// Highest wavelength index in use at any instant, plus one.
    #[must_use]
    pub fn peak_wavelength(&self) -> usize {
        self.peak_wavelength
    }

    /// Instant a fault first aborted or failed a transfer, if any.
    #[must_use]
    pub fn first_impact_s(&self) -> Option<f64> {
        self.faults.as_ref().and_then(|f| f.first_impact_s)
    }

    /// # Errors
    /// [`OpticalError::WavelengthsExhausted`] (the stepped path's error
    /// value, naming the lowest-order-key waiter) when the engine went idle
    /// with a waiter whose lane demand can never be granted.
    pub fn check_stuck(&self) -> Result<()> {
        let first = self.waiting.iter().min_by_key(|w| w.order);
        match first.and_then(|w| self.slots[w.id].as_ref()) {
            Some(s) => Err(OpticalError::WavelengthsExhausted {
                available: self.wavelengths,
                requested: s.transfer.lanes,
                step: 0,
            }),
            None => Ok(()),
        }
    }

    /// Capture the full mutable state as a versioned snapshot.
    ///
    /// Drained completions are the caller's responsibility; records still
    /// buffered in the engine are included and survive the round-trip.
    #[must_use]
    pub fn snapshot(&self) -> GrantEngineSnapshot {
        GrantEngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: self.queue.now(),
            events: self.events(),
            slots: self.slots.clone(),
            free: self.free.clone(),
            jobs: self.jobs.clone(),
            job_free: self.job_free.clone(),
            next_order: self.next_order,
            waiting: self.waiting_by_order(),
            pending: self
                .queue
                .pending()
                .into_iter()
                .map(|(t, ev)| (t, *ev))
                .collect(),
            completions: self.completions.clone(),
            peak: self.peak,
            peak_wavelength: self.peak_wavelength,
            makespan: self.makespan,
        }
    }

    /// The waiters' slots in order-key order, as snapshots list them.
    fn waiting_by_order(&self) -> Vec<usize> {
        let mut by_order: Vec<(u64, usize)> =
            self.waiting.iter().map(|w| (w.order, w.id)).collect();
        by_order.sort_unstable();
        by_order.into_iter().map(|(_, id)| id).collect()
    }

    /// Rebuild an engine from a snapshot taken on an identically configured
    /// engine. The resumed run is byte-identical to the uninterrupted one.
    ///
    /// # Errors
    /// Rejects unknown snapshot versions, invalid configurations and
    /// images that do not fit the engine: out-of-range or dead slot, job
    /// and lane references, free and waiting lists that disagree with the
    /// live slots, paths that are not their transfer's route, lane holdings
    /// other than exactly `lanes` distinct lanes per in-flight transfer and
    /// none otherwise, and in-flight transfers sharing a lane.
    pub fn restore(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
        snap: &GrantEngineSnapshot,
    ) -> Result<Self> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(OpticalError::BadConfig(
                "unsupported grant-engine snapshot version",
            ));
        }
        let mut eng = Self::new(config, strategy, arbitrated, fair_share)?;
        check_snapshot(&eng, snap).map_err(OpticalError::BadConfig)?;
        eng.queue
            .fast_forward(snap.now)
            .map_err(|_| OpticalError::BadConfig("snapshot clock must be finite and >= 0"))?;
        for (t, ev) in &snap.pending {
            eng.queue
                .schedule_at(*t, *ev)
                .map_err(|_| OpticalError::BadConfig("snapshot event precedes its clock"))?;
        }
        for s in snap.slots.iter().flatten() {
            for &lambda in &s.assigned {
                if !eng.occ.is_free(&s.path, lambda) {
                    return Err(OpticalError::BadConfig("snapshot lanes overlap"));
                }
                eng.occ.occupy(&s.path, lambda);
            }
        }
        eng.active = snap
            .pending
            .iter()
            .filter(|(_, ev)| matches!(ev, Ev::Complete(_)))
            .count();
        eng.slots = snap.slots.clone();
        eng.free = snap.free.clone();
        eng.jobs = snap.jobs.clone();
        eng.job_free = snap.job_free.clone();
        eng.next_order = snap.next_order;
        // Streams never ask for the frontier: every key counts.
        eng.gated = snap.next_order;
        for &id in &snap.waiting {
            eng.enqueue_waiting(id)?;
        }
        eng.completions = snap.completions.clone();
        eng.events_base = snap.events;
        eng.peak = snap.peak;
        eng.peak_wavelength = snap.peak_wavelength;
        eng.makespan = snap.makespan;
        Ok(eng)
    }
}

/// Structural check of a snapshot against a fresh engine of the target
/// configuration: every index the engine dereferences must name a live
/// slot, job, wavelength or segment, so a corrupt image is rejected here
/// rather than panicking mid-run.
fn check_snapshot(
    eng: &GrantEngine,
    snap: &GrantEngineSnapshot,
) -> std::result::Result<(), &'static str> {
    let n = snap.slots.len();
    let live = |id: usize| snap.slots.get(id).is_some_and(Option::is_some);
    let dead = (0..n).filter(|&id| !live(id)).count();
    if !distinct(&snap.free, n, |id| !live(id)) || snap.free.len() != dead {
        return Err("snapshot free list disagrees with the dead slots");
    }
    // A live slot has at most one pending event: its gate, or its
    // completion while it is in flight. A waiter has none.
    let mut scheduled: Vec<Option<Ev>> = vec![None; n];
    for &(_, ev) in &snap.pending {
        let (Ev::Gate(id) | Ev::Complete(id)) = ev else {
            return Err("snapshot event is a fault");
        };
        if !live(id) || scheduled[id].replace(ev).is_some() {
            return Err("snapshot event names a dead slot, or a slot twice");
        }
    }
    let idle = |id: usize| live(id) && scheduled[id].is_none();
    if !distinct(&snap.waiting, n, idle) || !distinct(&snap.job_free, snap.jobs.len(), |_| true) {
        return Err("snapshot waiting or job free list names a dead, scheduled or repeated entry");
    }
    let mut refs = vec![0usize; n];
    for (id, s) in snap.slots.iter().enumerate() {
        let Some(s) = s else { continue };
        if s.order >= snap.next_order
            || !(s.release_s.is_finite() && s.release_s >= 0.0)
            || (eng.arbitrated && s.job >= snap.jobs.len())
            || s.transfer.lanes == 0
            || s.transfer.lanes > eng.wavelengths
            || !s.dependents.iter().all(|&d| live(d))
        {
            return Err(
                "snapshot slot has a bad release or names an unknown order key, job or slot",
            );
        }
        if s.transfer.resolve(&eng.topo).ok().as_ref() != Some(&s.path) {
            return Err("snapshot slot's path is not its transfer's route");
        }
        let lanes: Vec<usize> = s.assigned.iter().map(|l| l.0).collect();
        let held = if matches!(scheduled[id], Some(Ev::Complete(_))) {
            s.transfer.lanes
        } else {
            0
        };
        if lanes.len() != held || !distinct(&lanes, eng.wavelengths, |_| true) {
            return Err("snapshot slot holds other than its transfer's lanes while in flight, or lanes while not");
        }
        s.dependents.iter().for_each(|&d| refs[d] += 1);
    }
    let over = |(slot, &r): (&Option<Slot>, &usize)| slot.as_ref().is_some_and(|s| r > s.missing);
    if snap.slots.iter().zip(&refs).any(over) {
        return Err("snapshot slot has more live predecessors than missing edges");
    }
    Ok(())
}

/// The error of a broken engine invariant or an unschedulable instant.
fn bad(what: &'static str) -> OpticalError {
    OpticalError::BadConfig(what)
}

/// Are `list`'s entries distinct, below `bound` and accepted by `ok`?
fn distinct(list: &[usize], bound: usize, ok: impl Fn(usize) -> bool) -> bool {
    let mut seen = vec![false; bound];
    list.iter()
        .all(|&i| i < bound && ok(i) && !std::mem::replace(&mut seen[i], true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn cfg() -> OpticalConfig {
        OpticalConfig::new(8, 2)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0)
    }

    fn item(src: usize, dst: usize, bytes: u64, release_s: f64, deps: Vec<usize>) -> GrantTransfer {
        GrantTransfer {
            transfer: Transfer::directed(NodeId(src), NodeId(dst), bytes, Direction::Clockwise),
            release_s,
            deps,
            job: 0,
        }
    }

    #[test]
    fn incremental_injection_matches_upfront_injection() {
        // Same workload, two drivers: everything injected at time zero vs.
        // the second job's transfers injected only once the clock reaches
        // their arrival. Makespans and event counts must agree bit-exactly.
        let run_upfront = || {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            eng.inject(&[
                item(0, 2, 1_000_000, 0.0, vec![]),
                item(0, 2, 1_000_000, 0.0, vec![0]),
                item(1, 3, 2_000_000, 5e-4, vec![]),
            ])
            .unwrap();
            while eng.step().unwrap().is_some() {}
            (eng.makespan(), eng.events())
        };
        let run_incremental = || {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            eng.inject(&[
                item(0, 2, 1_000_000, 0.0, vec![]),
                item(0, 2, 1_000_000, 0.0, vec![0]),
            ])
            .unwrap();
            let arrival = 5e-4;
            let mut injected = false;
            loop {
                if !injected && self::peek_at_least(&mut eng, arrival) {
                    eng.inject(&[item(1, 3, 2_000_000, arrival, vec![])])
                        .unwrap();
                    injected = true;
                }
                if eng.step().unwrap().is_none() {
                    if injected {
                        break;
                    }
                    eng.inject(&[item(1, 3, 2_000_000, arrival, vec![])])
                        .unwrap();
                    injected = true;
                }
            }
            (eng.makespan(), eng.events())
        };
        let (m1, e1) = run_upfront();
        let (m2, e2) = run_incremental();
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert_eq!(e1, e2);
    }

    fn peek_at_least(eng: &mut GrantEngine, t: f64) -> bool {
        eng.peek_time().is_none_or(|p| p >= t)
    }

    #[test]
    fn cross_batch_dependencies_match_one_batch() {
        // The dependent of a live transfer injected a step later gates at
        // the same instant as when the whole DAG is one batch.
        let dag = [
            item(0, 2, 1_000_000, 0.0, vec![]),
            item(4, 6, 3_000_000, 0.0, vec![]),
            item(2, 4, 1_000_000, 0.0, vec![0]),
            item(6, 0, 1_000_000, 0.0, vec![1, 2]),
        ];
        let run = |split: usize| {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            eng.inject(&dag[..split]).unwrap();
            eng.step().unwrap();
            eng.inject(&dag[split..]).unwrap();
            while eng.step().unwrap().is_some() {}
            let mut out: Vec<GrantCompletion> = eng.drain_completions().collect();
            out.sort_by_key(|c| c.order);
            (out, eng.events())
        };
        assert_eq!(run(2), run(4));
    }

    #[test]
    fn bad_dependencies_are_typed_errors_before_any_state_change() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        eng.inject(&[
            item(0, 1, 1_000, 0.0, vec![]),
            item(4, 6, 9_000_000, 0.0, vec![]),
        ])
        .unwrap();
        while eng.frontier() <= 1 || eng.drain_completions().next().is_none() {
            eng.step().unwrap();
        }
        // Key 0 has completed; key 1 is still in flight.
        let events = eng.events();
        for deps in [vec![7], vec![2], vec![0]] {
            // Out of range, not yet injected (the transfer itself), settled.
            assert!(matches!(
                eng.inject(&[item(1, 2, 1_000, 0.0, deps)]),
                Err(OpticalError::BadConfig(_))
            ));
            assert_eq!((eng.next_key(), eng.peak_slots()), (2, 2));
        }
        eng.inject(&[item(1, 2, 1_000, 0.0, vec![1])]).unwrap();
        while eng.step().unwrap().is_some() {}
        assert_eq!(eng.events(), events + 2);
        assert_eq!(eng.drain_completions().count(), 2);
    }

    #[test]
    fn slots_are_reused_after_completion() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        for round in 0..100 {
            let t = f64::from(round) * 1.0;
            // Drain to the arrival instant, then inject one transfer.
            while eng.peek_time().is_some_and(|p| p < t) {
                eng.step().unwrap();
            }
            eng.inject(&[item(0, 1, 1_000_000, t, vec![])]).unwrap();
            while eng.step().unwrap().is_some() {}
        }
        assert!(
            eng.slots.len() <= 2,
            "completed slots must be recycled, got {}",
            eng.slots.len()
        );
        assert!(eng.slots.iter().all(Option::is_none));
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let cfgv = cfg();
        let items = vec![
            item(0, 2, 1_000_000, 0.0, vec![]),
            item(0, 2, 3_000_000, 0.0, vec![0]),
            item(1, 3, 2_000_000, 2e-4, vec![]),
            item(4, 6, 1_500_000, 0.0, vec![]),
        ];
        // Uninterrupted reference.
        let mut full = GrantEngine::new(&cfgv, Strategy::FirstFit, false, false).unwrap();
        full.inject(&items).unwrap();
        while full.step().unwrap().is_some() {}
        // Interrupted at the second batch: snapshot, serialize, restore.
        let mut eng = GrantEngine::new(&cfgv, Strategy::FirstFit, false, false).unwrap();
        eng.inject(&items).unwrap();
        eng.step().unwrap();
        eng.step().unwrap();
        let json = serde_json::to_string(&eng.snapshot()).unwrap();
        let snap: GrantEngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed =
            GrantEngine::restore(&cfgv, Strategy::FirstFit, false, false, &snap).unwrap();
        while resumed.step().unwrap().is_some() {}
        assert_eq!(full.makespan().to_bits(), resumed.makespan().to_bits());
        assert_eq!(full.events(), resumed.events());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        a.extend(full.drain_completions());
        b.extend(resumed.drain_completions());
        let tail = &a[a.len() - b.len()..];
        assert_eq!(tail, &b[..], "post-restore completions must match");
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        eng.inject(&[
            item(0, 2, 1_000_000, 0.0, vec![]),
            item(0, 2, 1_000_000, 0.0, vec![0]),
        ])
        .unwrap();
        eng.step().unwrap();
        // Slot 0 (0 -> 2 clockwise, one lane) is in flight; slot 1 waits
        // for it.
        let good = eng.snapshot();
        fn slot(s: &mut GrantEngineSnapshot, id: usize) -> &mut Slot {
            s.slots[id].as_mut().unwrap()
        }
        let corruptions: [fn(&mut GrantEngineSnapshot); 16] = [
            |s| s.waiting.push(999),
            |s| s.free.push(0),
            |s| s.pending.push((1.0, Ev::Complete(7))),
            |s| slot(s, 0).assigned.push(Wavelength(9)),
            |s| slot(s, 1).dependents.push(0),
            // Paths that are not the transfer's route.
            |s| slot(s, 0).path.segments = vec![0, 2],
            |s| slot(s, 0).path.segments = vec![1, 2],
            |s| slot(s, 0).path.segments.clear(),
            |s| slot(s, 0).path.direction = Direction::CounterClockwise,
            // In flight without exactly `lanes` distinct lanes.
            |s| slot(s, 0).assigned.clear(),
            |s| slot(s, 0).assigned.push(Wavelength(1)),
            |s| {
                slot(s, 0).transfer.lanes = 2;
                slot(s, 0).assigned.push(Wavelength(0));
            },
            // Lanes held while not in flight.
            |s| slot(s, 1).assigned.push(Wavelength(1)),
            // A waiter or a slot with a second pending event.
            |s| s.waiting.push(0),
            |s| s.pending.push((1.0, Ev::Gate(0))),
            |s| s.pending.push((1.0, Ev::Fault(0))),
        ];
        for corrupt in corruptions {
            let mut snap = good.clone();
            corrupt(&mut snap);
            assert!(matches!(
                GrantEngine::restore(&cfg(), Strategy::FirstFit, false, false, &snap),
                Err(OpticalError::BadConfig(_))
            ));
        }
        assert!(GrantEngine::restore(&cfg(), Strategy::FirstFit, false, false, &good).is_ok());
    }

    /// A grant whose duration overflows to infinity (a valid but tiny
    /// bandwidth and the largest payload) cannot be scheduled: the step
    /// fails with a typed error instead of panicking.
    #[test]
    fn an_unschedulable_grant_fails_the_step() {
        let tiny = cfg().with_lambda_bandwidth(1e-300);
        let mut eng = GrantEngine::new(&tiny, Strategy::FirstFit, false, false).unwrap();
        eng.inject(&[item(0, 1, u64::MAX, 0.0, vec![])]).unwrap();
        assert_eq!(
            eng.step(),
            Err(OpticalError::BadConfig(
                "transfer duration must be finite and >= 0"
            ))
        );
    }

    #[test]
    fn unknown_snapshot_version_is_rejected() {
        let eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        let mut snap = eng.snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            GrantEngine::restore(&cfg(), Strategy::FirstFit, false, false, &snap),
            Err(OpticalError::BadConfig(_))
        ));
    }
}
