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
//! come from [`Occupancy::assign`]'s arc form, which ORs the arc's
//! per-segment lane masks once and writes the granted lanes straight into
//! the transfer's place in the lane store. A grant's highest lane only ever
//! raises the peak, so the engine's peak wavelength is the running maximum
//! of granted lane + 1.
//!
//! # Bookkeeping
//!
//! A live transfer is one fixed-size `Copy` record of 32-bit fields (and
//! its 64-bit order key, payload and instants), with no heap block of its
//! own. It keeps its route as an arc — direction and hops, computed at
//! injection from [`RingTopology::hops`] with the checks of
//! [`Transfer::resolve`] — rather than a segment list, and its lists live
//! in flat 32-bit stores:
//!
//! * **Dependents.** Each injected batch with dependencies inside it gets
//!   one block holding, as compressed rows, the slots of the batch's
//!   transfers that depend on each of its transfers. A dependent injected
//!   in a later batch (a closed DAG streamed stage by stage) goes into a
//!   pool of 32-bit edges, one list per dependency in injection order,
//!   whose settled lists a free list recycles. The batch's last transfer
//!   to settle frees its block, so a stream holds lists only for unsettled
//!   jobs, and a batch without inner dependencies allocates none.
//! * **Lanes.** Each transfer owns `lanes` entries of one lane store from
//!   injection until it settles, holding its granted lanes while in
//!   flight; freed ranges are reused by transfers of the same width.
//!
//! A dependent's list entry is its slot, which stays its own until it
//! settles, and no transfer settles before its dependencies. Runs under
//! faults keep every list. An index that would not fit in 32 bits (a job
//! tag, a slot, a list or lane-store position, a ring of more nodes or
//! wavelengths) is an [`OpticalError::BadConfig`] before any state
//! changes.
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
//! (`FailJob`). An abort leaves the grant's completion queued (the kernel
//! has no cancellation): the engine records each in-flight transfer's
//! completion instant, and a completion that pops at another instant, or
//! after the transfer's live completion at the same one, is stale. Stale
//! completions change nothing, a batch of nothing else is passed over, and
//! [`GrantEngine::events`] does not count them, so the run is the one in
//! which the aborted grant's completion was never scheduled. `WavelengthUp`
//! repairs the lane. `NodeDown` permanently fails every unfinished transfer
//! with an endpoint on the node; under `RetryAfter`/`Replan` their
//! dependents are released so survivors re-plan, under `FailJob` the owning
//! job fails. `NodeStraggle` multiplies the duration of grants made at or
//! after the instant. Link events have no optical meaning. Failed transfers
//! — and, once the engine goes idle, every transfer stranded behind them —
//! are reported as [`GrantCompletion`]s with `failed` set. Without a
//! relevant fault the engine allocates no fault state and runs the clean
//! arithmetic.
//!
//! # Snapshots
//!
//! The engine also supports [`GrantEngine::snapshot`] /
//! [`GrantEngine::restore`]: a versioned, serializable image of the slots,
//! pending kernel events and clock, pinned byte-identical by the stream
//! checkpoint tests in `wrht-core` and by `tests/grant_checkpoints.rs`.
//! The image lists every live slot as a per-slot layout would: its
//! transfer, routed path (segments and all), dependents in the order they
//! are released, and granted lanes, each rebuilt from the records and flat
//! stores. It lists the waiters in order-key order; restore puts them back
//! into scan order. Restore validates the image's indices, times, routes
//! and lane holdings, rejects corrupt ones with
//! [`OpticalError::BadConfig`], flattens each slot into its record (its
//! dependents into edge lists, its lanes into the lane store), and
//! rebuilds the lane occupancy from the in-flight slots.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use wrht_kernel::{EventKernel, FaultKind, FaultLimits, FaultPolicy, FaultScript};

use crate::config::OpticalConfig;
use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::request::{DirectionChoice, Transfer};
use crate::rwa::{arc_first, arc_runs, Occupancy, Strategy};
use crate::timing::TimingModel;
use crate::topology::{Direction, NodeId, RingTopology};
use crate::wavelength::Wavelength;

/// Version tag of [`GrantEngineSnapshot`]; bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A slot without a block, the end of an edge or lane-range list, and a
/// settled key's entry in the key table; also one past the most slots,
/// edges and list entries the engine holds.
const NIL: u32 = u32::MAX;

/// Error for an index the engine keeps in 32 bits that would not fit.
const WIDE: OpticalError =
    OpticalError::BadConfig("index overflows the grant engine's 32-bit tables");

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

/// A live transfer (see the module docs' bookkeeping).
#[derive(Debug, Clone, Copy)]
struct Slot {
    order: u64,
    bytes: u64,
    release_s: f64,
    /// Grant instant; NaN until the transfer's lanes are first granted.
    started: f64,
    src: u32,
    dst: u32,
    lanes: u32,
    tag: u32,
    /// Ring hops of the route: the arc is the `hops` segments clockwise
    /// from [`Slot::first`] on the `direction` waveguide.
    hops: u32,
    /// Dependencies not completed yet.
    missing: u32,
    job: u32,
    /// The batch's block of dependents inside the batch, or [`NIL`].
    block: u32,
    /// First and last edge of the dependents injected in later batches,
    /// or [`NIL`].
    later: u32,
    later_end: u32,
    /// Where the slot's `lanes` entries of the lane store start.
    lane_at: u32,
    direction: Direction,
    /// The routing policy the transfer was submitted with.
    route: DirectionChoice,
    /// In flight: the lane store holds its granted lanes.
    held: bool,
}

impl Slot {
    /// The first segment, counted clockwise, of the arc.
    fn first(&self) -> usize {
        arc_first(self.src as usize, self.dst as usize, self.direction)
    }

    /// The slot's entries of the lane store.
    fn lane_range(&self) -> Range<usize> {
        let at = self.lane_at as usize;
        at..at + self.lanes as usize
    }
}

/// A slot as a snapshot lists it, with its route, dependents and lanes as
/// lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SlotImage {
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

/// The dependents inside one injected batch, as compressed rows: the
/// slots of the batch's transfers that depend on its transfer `k` are
/// `data[data[k]..data[k + 1]]`, in injection order.
#[derive(Debug)]
struct Block {
    /// Order key of the batch's first transfer.
    first: u64,
    /// Transfers of the batch not settled yet; the last to settle frees
    /// `data`.
    unsettled: u32,
    data: Vec<u32>,
}

/// One edge of [`GrantEngine::pool`]: the slot of a dependent injected in
/// a later batch than its dependency, and the next edge of the
/// dependency's list.
#[derive(Debug, Clone, Copy)]
struct Edge {
    slot: u32,
    next: u32,
}

/// What a validated batch needs: its transfers, their dependencies on
/// transfers of the batch and on earlier batches' transfers, and their
/// lanes.
#[derive(Debug, Default)]
struct BatchSize {
    transfers: usize,
    inner: usize,
    edges: usize,
    lanes: usize,
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
    id: u32,
    job: u32,
    lanes: u32,
    /// Where the slot's lanes go in the lane store.
    lane_at: u32,
    /// The arc: the segments `first..first + hops` (mod `n`), counted
    /// clockwise, on the `direction` waveguide.
    first: u32,
    hops: u32,
    direction: Direction,
    /// Granted by the current scan; removed when it ends.
    granted: bool,
}

impl Waiter {
    fn new(id: u32, slot: &Slot) -> Self {
        Self {
            order: slot.order,
            id,
            job: slot.job,
            lanes: slot.lanes,
            lane_at: slot.lane_at,
            // In range: the ring's size fits in 32 bits.
            first: slot.first() as u32,
            hops: slot.hops,
            direction: slot.direction,
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
            let job = w.job as usize;
            if bucket[job] == ABSENT {
                bucket[job] = 0;
                present.push(job);
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
                start[bucket[w.job as usize]] += 1;
            }
            let mut sum = 0;
            for place in start.iter_mut() {
                sum += std::mem::replace(place, sum);
            }
            perm.resize(waiting.len(), 0);
            for (pos, w) in waiting.iter().enumerate() {
                let next = &mut start[bucket[w.job as usize]];
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
    /// Completion instant of every in-flight slot. An aborted grant's
    /// completion stays queued; it is stale when it pops at another
    /// instant, or after the slot's live completion at the same one.
    in_flight: Vec<Option<f64>>,
    /// Stale completions popped, which [`GrantEngine::events`] leaves out.
    stale: u64,
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
    slots: Vec<Option<SlotImage>>,
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
    free: Vec<u32>,
    /// Slot of every order key from the lowest unsettled one on ([`NIL`]
    /// once its transfer completed or failed), so a batch can depend on
    /// live transfers of earlier batches. Built from the live slots when
    /// the first such batch arrives; runs that inject whole DAGs never
    /// build it.
    keys: Option<VecDeque<u32>>,
    /// One past the highest order key whose dependencies are all met.
    gated: u64,
    /// Each batch's dependents inside it, in slots a freed block returns
    /// to `free_blocks`.
    blocks: Vec<Block>,
    free_blocks: Vec<u32>,
    /// Edges of the slots' later-batch dependent lists; released lists
    /// return to the free list at `free_edge`.
    pool: Vec<Edge>,
    free_edge: u32,
    /// Every live slot's lanes ([`Slot::lane_range`]). A freed range of
    /// `k` lanes waits on the list at `lane_free[k]`, chained through its
    /// first entry.
    lanes: Vec<u32>,
    lane_free: Vec<u32>,
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
    /// [`crate::sim::RingSimulator::try_new`], and rings of more nodes or
    /// wavelengths than 32-bit indices reach with
    /// [`OpticalError::BadConfig`].
    pub fn new(
        config: &OpticalConfig,
        strategy: Strategy,
        arbitrated: bool,
        fair_share: bool,
    ) -> Result<Self> {
        config.validate()?;
        let topo = RingTopology::try_new(config.nodes)?;
        let nodes = topo.nodes();
        if u32::try_from(nodes).is_err() || u32::try_from(config.wavelengths).is_err() {
            return Err(WIDE);
        }
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
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            pool: Vec::new(),
            free_edge: NIL,
            lanes: Vec::new(),
            lane_free: Vec::new(),
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
                    .map(|()| ev.kind)
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
            stale: 0,
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
    /// completed or failed ([`OpticalError::BadConfig`]), and job tags,
    /// slots and list positions that overflow the engine's 32-bit tables.
    pub fn inject(&mut self, transfers: &[GrantTransfer]) -> Result<()> {
        self.inject_from(
            transfers
                .iter()
                .map(|t| (&t.transfer, t.release_s, t.job, t.deps.iter().copied())),
        )
    }

    /// [`GrantEngine::inject`] reading the batch in place: each item is a
    /// transfer, its absolute release, its job slot and its dependencies
    /// as order keys. The batch is read more than once, so the caller
    /// builds no list per transfer.
    ///
    /// # Errors
    /// As [`GrantEngine::inject`].
    pub fn inject_from<'t, I, D>(&mut self, batch: I) -> Result<()>
    where
        I: Iterator<Item = (&'t Transfer, f64, usize, D)> + Clone,
        D: Iterator<Item = usize>,
    {
        let size = self.check_batch(batch.clone())?;
        self.admit(batch, &size)
    }

    /// Validate a batch and size its lists. Nothing changes but the key
    /// table, built from the live slots when a dependency first names an
    /// earlier batch.
    fn check_batch<'t, I, D>(&mut self, batch: I) -> Result<BatchSize>
    where
        I: Iterator<Item = (&'t Transfer, f64, usize, D)>,
        D: Iterator<Item = usize>,
    {
        let now = self.queue.now();
        let first = self.next_order;
        let mut size = BatchSize::default();
        for (i, (t, release_s, job, deps)) in batch.enumerate() {
            let key = first + i as u64;
            let mut n = 0usize;
            for d in deps {
                let d = d as u64;
                if d >= key {
                    return Err(bad("dependency must precede its transfer"));
                }
                if d < first {
                    if self.keys.is_none() {
                        self.keys = Some(self.key_table());
                    }
                    if self.slot_of(d).is_none() {
                        return Err(bad("dependency names a transfer that already settled"));
                    }
                    size.edges += 1;
                } else {
                    size.inner += 1;
                }
                n += 1;
            }
            if !release_s.is_finite() || release_s < 0.0 {
                return Err(bad("release time must be finite and >= 0"));
            }
            if n == 0 && release_s < now {
                return Err(bad("release time must not precede the engine clock"));
            }
            if self.arbitrated && job >= self.jobs.len() {
                return Err(bad("job tag out of range of the rank table"));
            }
            t.route(&self.topo)?;
            if t.lanes > self.wavelengths {
                return Err(OpticalError::WavelengthsExhausted {
                    available: self.wavelengths,
                    requested: t.lanes,
                    step: 0,
                });
            }
            if u32::try_from(job).is_err() || u32::try_from(n).is_err() {
                return Err(WIDE);
            }
            size.transfers += 1;
            size.lanes += t.lanes;
        }
        // Freed slots are taken first; every slot, edge, block row and lane
        // position must stay below `NIL`.
        let slots = self.slots.len() + size.transfers.saturating_sub(self.free.len());
        let block = size.transfers + 1 + size.inner;
        let limit = NIL as usize;
        if slots > limit
            || (size.inner > 0 && (block >= limit || self.blocks.len() >= limit))
            || self.pool.len() + size.edges >= limit
            || self.lanes.len() + size.lanes >= limit
        {
            return Err(WIDE);
        }
        Ok(size)
    }

    /// Admit a batch [`GrantEngine::check_batch`] validated: a record per
    /// transfer, its block of dependents inside the batch, and its
    /// dependents' edges for dependencies on earlier batches.
    fn admit<'t, I, D>(&mut self, batch: I, size: &BatchSize) -> Result<()>
    where
        I: Iterator<Item = (&'t Transfer, f64, usize, D)> + Clone,
        D: Iterator<Item = usize>,
    {
        let first = self.next_order;
        let len = size.transfers;
        // In range: `check_batch` bounded every index.
        let block = if size.inner == 0 {
            NIL
        } else {
            let new = Block {
                first,
                unsettled: len as u32,
                data: vec![0; len + 1 + size.inner],
            };
            match self.free_blocks.pop() {
                Some(b) => {
                    self.blocks[b as usize] = new;
                    b
                }
                None => {
                    self.blocks.push(new);
                    (self.blocks.len() - 1) as u32
                }
            }
        };
        // The batch's slots, kept while its rows are filled.
        let mut ids: Vec<u32> = Vec::with_capacity(if block == NIL { 0 } else { len });
        for (bi, (t, release_s, job, deps)) in batch.clone().enumerate() {
            let order = first + bi as u64;
            let (direction, hops) = t.route(&self.topo)?;
            let lane_at = self.take_lanes(t.lanes);
            let id = self.free.pop().unwrap_or(self.slots.len() as u32);
            let mut slot = Slot {
                order,
                bytes: t.bytes,
                release_s,
                started: f64::NAN,
                src: t.src.0 as u32,
                dst: t.dst.0 as u32,
                lanes: t.lanes as u32,
                tag: t.tag,
                hops: hops as u32,
                missing: 0,
                job: job as u32,
                block,
                later: NIL,
                later_end: NIL,
                lane_at,
                direction,
                route: t.direction,
                held: false,
            };
            for d in deps {
                slot.missing += 1;
                match d.checked_sub(first as usize) {
                    // Count the dependent two rows on, so that the sums
                    // below leave each row's start one row on. In range:
                    // `k` precedes `bi`, so `k + 2 <= len`.
                    Some(k) => self.blocks[block as usize].data[k + 2] += 1,
                    // Validated: a live transfer of an earlier batch.
                    None => {
                        if let Some(dep) = self.slot_of(d as u64) {
                            self.add_later(dep, id);
                        }
                    }
                }
            }
            match self.slots.get_mut(id as usize) {
                Some(place) => *place = Some(slot),
                None => self.slots.push(Some(slot)),
            }
            if block != NIL {
                ids.push(id);
            }
            // The key table and the next key move together, so `slot_of`
            // stays right for the batch's later transfers.
            self.next_order = order + 1;
            if let Some(keys) = self.keys.as_mut() {
                keys.push_back(id);
            }
            if slot.missing == 0 {
                self.gated = self.gated.max(order + 1);
                self.queue
                    .schedule_at(release_s, Ev::Gate(id as usize))
                    .map_err(|_| bad("release time must be finite and >= 0"))?;
            }
        }
        if let Some(f) = self.faults.as_deref_mut() {
            f.in_flight.resize(self.slots.len(), None);
            f.aborts.resize(self.slots.len(), 0);
        }
        if let Some(b) = self.blocks.get_mut(block as usize) {
            let data = &mut b.data;
            // With the counts summed, row `k` starts at `data[k + 1]`,
            // which each entry filled moves on: the rows end up in place,
            // each in injection order.
            data[0] = (len + 1) as u32;
            data[1] = (len + 1) as u32;
            for k in 2..=len {
                data[k] += data[k - 1];
            }
            for (bi, (_, _, _, deps)) in batch.enumerate() {
                for k in deps.filter_map(|d| d.checked_sub(first as usize)) {
                    let e = data[k + 1] as usize;
                    data[e] = ids[bi];
                    data[k + 1] += 1;
                }
            }
        }
        Ok(())
    }

    /// Append `dependent` to the later-batch dependents of slot `dep`.
    fn add_later(&mut self, dep: u32, dependent: u32) {
        let edge = Edge {
            slot: dependent,
            next: NIL,
        };
        let e = match self.pool.get_mut(self.free_edge as usize) {
            Some(place) => {
                let e = self.free_edge;
                self.free_edge = place.next;
                *place = edge;
                e
            }
            // In range: `check_batch` bounds the pool.
            None => {
                self.pool.push(edge);
                (self.pool.len() - 1) as u32
            }
        };
        if let Some(s) = self.slots[dep as usize].as_mut() {
            match self.pool.get_mut(s.later_end as usize) {
                Some(tail) => tail.next = e,
                None => s.later = e,
            }
            s.later_end = e;
        }
    }

    /// A range of `len` lane-store entries: a freed one of that length, or
    /// new ones at the end.
    fn take_lanes(&mut self, len: usize) -> u32 {
        match self.lane_free.get(len).copied().filter(|&at| at != NIL) {
            Some(at) => {
                self.lane_free[len] = self.lanes[at as usize];
                at
            }
            // In range: `check_batch` bounds the store.
            None => {
                let at = self.lanes.len();
                self.lanes.resize(at + len, 0);
                at as u32
            }
        }
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
    fn key_table(&self) -> VecDeque<u32> {
        let live = || self.slots.iter().flatten();
        let front = live().map(|s| s.order).min().unwrap_or(self.next_order);
        let mut keys = VecDeque::from(vec![NIL; (self.next_order - front) as usize]);
        for (id, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                // In range: slots are 32-bit indices.
                keys[(s.order - front) as usize] = id as u32;
            }
        }
        keys
    }

    /// Slot of an injected key whose transfer has not settled, once the
    /// key table exists.
    fn slot_of(&self, key: u64) -> Option<u32> {
        let keys = self.keys.as_ref()?;
        let k = key.checked_sub(self.next_order - keys.len() as u64)?;
        keys.get(usize::try_from(k).ok()?)
            .copied()
            .filter(|&id| id != NIL)
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
            *entry = NIL;
        }
        while keys.front() == Some(&NIL) {
            keys.pop_front();
        }
    }

    /// Timestamp of the next pending event, if any (under faults, possibly
    /// a stale completion's).
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Process the next event batch (every event at the next bit-identical
    /// instant) and run one grant scan. Returns the batch instant, or
    /// `None` when the engine is idle. Under faults, a batch of nothing but
    /// stale completions is passed over, and going idle fails every
    /// transfer still unfinished.
    ///
    /// # Errors
    /// [`OpticalError::BadConfig`] when an event names a retired transfer
    /// or a grant or gate cannot be scheduled (a non-finite duration or
    /// release); the engine is then unusable.
    pub fn step(&mut self) -> Result<Option<f64>> {
        loop {
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
            let stale = self.faults.as_deref().map_or(0, |f| f.stale);
            // The kernel coalesces every event at this exact instant before
            // granting: cross-job arbitration must see all simultaneous
            // waiters (and all simultaneously freed wavelengths) together.
            // Completes scheduled *by* the grant scan below land in a later
            // batch at the same clock, which is fine.
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
            if let Some(f) = self.faults.as_deref() {
                // Stale completions alone are no event of the run.
                if f.stale - stale == self.batch.len() as u64 {
                    continue;
                }
                self.apply_faults(now)?;
            }
            self.grant_scan()?;
            return Ok(Some(now));
        }
    }

    /// Insert `id` into the waiting list at its scan position.
    fn enqueue_waiting(&mut self, id: usize) -> Result<()> {
        let slot = self.slots[id].as_ref();
        // In range: slots are 32-bit indices.
        let w = Waiter::new(
            id as u32,
            slot.ok_or(bad("gated transfer has no live slot"))?,
        );
        let pos = if self.arbitrated {
            let jobs = &self.jobs;
            let key = (jobs[w.job as usize].rank, w.order);
            self.waiting
                .partition_point(|x| (jobs[x.job as usize].rank, x.order) < key)
        } else {
            self.waiting.partition_point(|x| x.order < w.order)
        };
        self.waiting.insert(pos, w);
        Ok(())
    }

    fn complete(&mut self, id: usize, now: f64) -> Result<()> {
        let aborts = match self.faults.as_deref_mut() {
            None => 0,
            // An aborted grant's completion, or the second of two at one
            // instant: the slot is not in flight to complete now.
            Some(f) if f.in_flight[id].map(f64::to_bits) != Some(now.to_bits()) => {
                f.stale += 1;
                return Ok(());
            }
            Some(f) => {
                f.in_flight[id] = None;
                std::mem::take(&mut f.aborts[id])
            }
        };
        // The slot is retired here — its gate and its live completion have
        // both fired, and dependents hold no references past the `missing`
        // decrement below — so the slot count tracks *live* transfers, not
        // total transfers ever injected.
        let slot = self.slots[id]
            .take()
            .ok_or(bad("completed transfer has no live slot"))?;
        // In range: slots are 32-bit indices.
        self.free.push(id as u32);
        self.settle_key(slot.order);
        if slot.held {
            self.release_lanes(&slot);
        }
        self.makespan = self.makespan.max(now);
        self.active -= 1;
        self.release_dependents(&slot, now)?;
        self.settle_lists(&slot);
        self.completions.push(GrantCompletion {
            order: slot.order,
            job: slot.job as usize,
            start_s: if slot.started.is_nan() {
                0.0
            } else {
                slot.started
            },
            finish_s: now,
            aborts,
            failed: false,
        });
        Ok(())
    }

    /// Free the lanes `slot` holds on its arc.
    fn release_lanes(&mut self, slot: &Slot) {
        let (first, hops) = (slot.first(), slot.hops as usize);
        for &lambda in &self.lanes[slot.lane_range()] {
            self.occ
                .release_arc(slot.direction, first, hops, Wavelength(lambda as usize));
        }
    }

    /// Retire one dependency edge of each dependent of `slot` — those of
    /// its batch, then those of later batches, in injection order — gating
    /// those whose last predecessor this was (failed dependents are
    /// skipped).
    fn release_dependents(&mut self, slot: &Slot, now: f64) -> Result<()> {
        let b = slot.block as usize;
        if let Some(block) = self.blocks.get(b) {
            let k = (slot.order - block.first) as usize;
            for e in block.data[k] as usize..block.data[k + 1] as usize {
                let dep = self.blocks[b].data[e];
                self.release_one(dep as usize, now)?;
            }
        }
        let mut e = slot.later;
        while let Some(&Edge { slot: dep, next }) = self.pool.get(e as usize) {
            self.release_one(dep as usize, now)?;
            e = next;
        }
        Ok(())
    }

    /// Retire one dependency edge of slot `dep`, gating it if that was its
    /// last (a failed dependent is skipped).
    fn release_one(&mut self, dep: usize, now: f64) -> Result<()> {
        let Some(d) = self.slots[dep].as_mut() else {
            return Ok(());
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
        Ok(())
    }

    /// Return settled `slot`'s lists: its lanes, its later-batch edges, and
    /// its count on its batch's block, which the batch's last transfer to
    /// settle frees. Runs under faults keep every list.
    fn settle_lists(&mut self, slot: &Slot) {
        if self.faults.is_some() {
            return;
        }
        let len = slot.lanes as usize;
        if self.lane_free.len() <= len {
            self.lane_free.resize(len + 1, NIL);
        }
        self.lanes[slot.lane_at as usize] =
            std::mem::replace(&mut self.lane_free[len], slot.lane_at);
        if let Some(tail) = self.pool.get_mut(slot.later_end as usize) {
            tail.next = std::mem::replace(&mut self.free_edge, slot.later);
        }
        if let Some(block) = self.blocks.get_mut(slot.block as usize) {
            block.unsettled -= 1;
            if block.unsettled == 0 {
                block.data = Vec::new();
                self.free_blocks.push(slot.block);
            }
        }
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
                        // In range: the lane is below the channel count.
                        let holds = |s: &Slot| {
                            s.held && self.lanes[s.lane_range()].contains(&(lane as u32))
                        };
                        let Some(job) = self.slots[id].filter(holds).map(|s| s.job as usize) else {
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
                            .is_some_and(|s| s.src as usize == node || s.dst as usize == node);
                        if !touches {
                            continue;
                        }
                        self.abort(id, Some(now));
                        let Some(slot) = self.fail(id, Some(now)) else {
                            continue;
                        };
                        if policy == FaultPolicy::FailJob {
                            fail_jobs.push(slot.job as usize);
                        } else {
                            self.release_dependents(&slot, now)?;
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
                if self.slots[id].is_some_and(|s| fail_jobs.contains(&(s.job as usize))) {
                    self.abort(id, None);
                    self.fail(id, None);
                }
            }
        }
        let slots = &self.slots;
        self.waiting.retain(|w| slots[w.id as usize].is_some());
        Ok(())
    }

    /// Tear down `id`'s grant if it is in flight: its queued completion
    /// goes stale and its lanes are freed; `impact` counts it as an abort at
    /// that instant. Returns whether it was in flight.
    fn abort(&mut self, id: usize, impact: Option<f64>) -> bool {
        let Some(f) = self.faults.as_deref_mut() else {
            return false;
        };
        if f.in_flight[id].take().is_none() {
            return false;
        }
        if let Some(now) = impact {
            f.aborts[id] += 1;
            f.first_impact_s.get_or_insert(now);
        }
        if let Some(slot) = self.slots[id] {
            if slot.held {
                self.release_lanes(&slot);
            }
            self.slots[id] = Some(Slot {
                held: false,
                started: f64::NAN,
                ..slot
            });
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
            job: slot.job as usize,
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
            lanes,
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
            let (first, hops) = (w.first as usize, w.hops as usize);
            if !claimed[d].meets(first, hops, n) {
                let granted = &mut lanes[w.lane_at as usize..][..w.lanes as usize];
                if occ
                    .assign_arc(w.direction, first, hops, *strategy, granted)
                    .is_ok()
                {
                    let slot = slots[w.id as usize]
                        .as_mut()
                        .ok_or(bad("waiting transfer has no live slot"))?;
                    let top = granted.iter().fold(0, |top, &l| top.max(l as usize + 1));
                    *peak_wavelength = (*peak_wavelength).max(top);
                    slot.held = true;
                    let mut dur = timing.transfer_time(slot.bytes, slot.lanes as usize, hops);
                    if let Some(f) = faults.as_deref() {
                        let slow = f.straggle[slot.src as usize].max(f.straggle[slot.dst as usize]);
                        if slow > 1.0 {
                            dur *= slow;
                        }
                    }
                    slot.started = queue.now();
                    let finish = slot.started + dur;
                    queue
                        .schedule_at(finish, Ev::Complete(w.id as usize))
                        .map_err(|_| bad("transfer duration must be finite and >= 0"))?;
                    if let Some(f) = faults.as_deref_mut() {
                        f.in_flight[w.id as usize] = Some(finish);
                    }
                    *active += 1;
                    *peak = (*peak).max(*active);
                    if *arbitrated {
                        jobs[slot.job as usize].service += dur * f64::from(slot.lanes);
                    }
                    w.granted = true;
                    any_granted = true;
                    continue;
                }
            }
            claimed[d].insert(first, hops, n);
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

    /// Events processed so far, including any before a snapshot/restore;
    /// stale completions do not count.
    #[must_use]
    pub fn events(&self) -> u64 {
        let stale = self.faults.as_deref().map_or(0, |f| f.stale);
        self.events_base + self.queue.events_processed() - stale
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
        match first.and_then(|w| self.slots[w.id as usize].as_ref()) {
            Some(s) => Err(OpticalError::WavelengthsExhausted {
                available: self.wavelengths,
                requested: s.lanes as usize,
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
            slots: self
                .slots
                .iter()
                .map(|s| s.as_ref().map(|s| self.image(s)))
                .collect(),
            free: self.free.iter().map(|&id| id as usize).collect(),
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

    /// A live slot as the snapshot lists it, rebuilt from its record and
    /// the flat stores.
    fn image(&self, s: &Slot) -> SlotImage {
        let (src, dst) = (NodeId(s.src as usize), NodeId(s.dst as usize));
        let mut dependents: Vec<usize> = Vec::new();
        if let Some(block) = self.blocks.get(s.block as usize) {
            let k = (s.order - block.first) as usize;
            let row = &block.data[block.data[k] as usize..block.data[k + 1] as usize];
            dependents.extend(row.iter().map(|&d| d as usize));
        }
        let mut e = s.later;
        while let Some(edge) = self.pool.get(e as usize) {
            dependents.push(edge.slot as usize);
            e = edge.next;
        }
        let held = if s.held { s.lane_range() } else { 0..0 };
        SlotImage {
            transfer: Transfer {
                src,
                dst,
                bytes: s.bytes,
                direction: s.route,
                lanes: s.lanes as usize,
                tag: s.tag,
            },
            path: LightPath::routed(&self.topo, src, dst, s.direction),
            release_s: s.release_s,
            missing: s.missing as usize,
            dependents,
            job: s.job as usize,
            order: s.order,
            assigned: self.lanes[held]
                .iter()
                .map(|&l| Wavelength(l as usize))
                .collect(),
            started: (!s.started.is_nan()).then_some(s.started),
        }
    }

    /// The waiters' slots in order-key order, as snapshots list them.
    fn waiting_by_order(&self) -> Vec<usize> {
        let mut by_order: Vec<(u64, usize)> = self
            .waiting
            .iter()
            .map(|w| (w.order, w.id as usize))
            .collect();
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
    /// none otherwise, in-flight transfers sharing a lane, and counts,
    /// tags or indices that overflow the engine's 32-bit tables.
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
        check_width(snap)?;
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
        for image in &snap.slots {
            let slot = image.as_ref().map(|s| eng.flatten(s));
            eng.slots.push(slot);
        }
        // In range: `check_width` bounded the slots and the edges.
        for (id, image) in snap.slots.iter().enumerate() {
            for &d in image.iter().flat_map(|s| &s.dependents) {
                eng.add_later(id as u32, d as u32);
            }
        }
        eng.free = snap.free.iter().map(|&id| id as u32).collect();
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

    /// The record of a checked snapshot slot, with its lanes in the lane
    /// store; its dependents go into edge lists once every slot exists.
    fn flatten(&mut self, s: &SlotImage) -> Slot {
        let lane_at = self.take_lanes(s.transfer.lanes);
        let at = lane_at as usize;
        for (place, lambda) in self.lanes[at..].iter_mut().zip(&s.assigned) {
            *place = lambda.0 as u32;
        }
        // In range: the ring's nodes and wavelengths fit in 32 bits, the
        // check matched the route and lanes to them, and `check_width`
        // bounded the rest.
        Slot {
            order: s.order,
            bytes: s.transfer.bytes,
            release_s: s.release_s,
            started: s.started.unwrap_or(f64::NAN),
            src: s.transfer.src.0 as u32,
            dst: s.transfer.dst.0 as u32,
            lanes: s.transfer.lanes as u32,
            tag: s.transfer.tag,
            hops: s.path.hops() as u32,
            missing: s.missing as u32,
            job: s.job as u32,
            block: NIL,
            later: NIL,
            later_end: NIL,
            lane_at,
            direction: s.path.direction,
            route: s.transfer.direction,
            held: !s.assigned.is_empty(),
        }
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
    let over =
        |(slot, &r): (&Option<SlotImage>, &usize)| slot.as_ref().is_some_and(|s| r > s.missing);
    if snap.slots.iter().zip(&refs).any(over) {
        return Err("snapshot slot has more live predecessors than missing edges");
    }
    Ok(())
}

/// Does a checked snapshot fit the engine's 32-bit tables: its slots, each
/// slot's missing count and job tag, its dependents' edges and its lanes?
fn check_width(snap: &GrantEngineSnapshot) -> Result<()> {
    let limit = NIL as usize;
    let live = || snap.slots.iter().flatten();
    let narrow = |s: &SlotImage| u32::try_from(s.missing).is_ok() && u32::try_from(s.job).is_ok();
    let edges: usize = live().map(|s| s.dependents.len()).sum();
    let lanes: usize = live().map(|s| s.transfer.lanes).sum();
    if snap.slots.len() > limit || !live().all(narrow) || edges >= limit || lanes >= limit {
        return Err(WIDE);
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
                if !injected && self::peek_at_least(&eng, arrival) {
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

    fn peek_at_least(eng: &GrantEngine, t: f64) -> bool {
        eng.peek_time().is_none_or(|p| p >= t)
    }

    #[test]
    fn an_aborted_grant_completes_once_at_its_re_grant() {
        // A lane loss aborts transfer 0 mid-flight, and its first
        // completion stays queued. Whether that stale completion pops
        // before the re-grant's or at the same instant, transfer 0
        // completes once, at the re-grant's finish, its dependent is gated
        // once, and the stale pop is no event or step of the run.
        let tiny = f64::from_bits(1);
        for (policy, abort_s, events) in [
            (FaultPolicy::Replan, 4e-4, 4),
            (FaultPolicy::Replan, tiny, 4),
            (FaultPolicy::RetryAfter(1e-4), 4e-4, 5),
            (FaultPolicy::RetryAfter(tiny), tiny, 5),
        ] {
            let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
            let script = FaultScript::new().with(abort_s, FaultKind::WavelengthDown { lane: 0 });
            assert!(eng.set_faults(&script, policy).unwrap());
            eng.inject(&[
                item(0, 2, 1_000_000, 0.0, vec![]),
                item(2, 4, 1_000_000, 0.0, vec![0]),
            ])
            .unwrap();
            let mut instants = Vec::new();
            while let Some(t) = eng.step().unwrap() {
                instants.push(t.to_bits());
            }
            let dur = eng.timing.transfer_time(1_000_000, 1, 2);
            let regrant_s = match policy {
                FaultPolicy::RetryAfter(backoff) => abort_s + backoff,
                _ => abort_s,
            };
            let finish = regrant_s + dur;
            // A tiny abort instant rounds both completions to `dur`; a
            // stale completion alone is no step of the run.
            assert_eq!(finish.to_bits() == dur.to_bits(), abort_s == tiny);
            assert_eq!(instants.contains(&dur.to_bits()), abort_s == tiny);
            let done: Vec<GrantCompletion> = eng.drain_completions().collect();
            let view: Vec<_> = done
                .iter()
                .map(|c| (c.order, c.start_s, c.finish_s, c.aborts, c.failed))
                .collect();
            assert_eq!(
                view,
                [
                    (0, regrant_s, finish, 1, false),
                    (1, finish, finish + dur, 0, false)
                ],
                "{policy} at {abort_s}"
            );
            assert_eq!(eng.events(), events, "{policy} at {abort_s}");
            assert_eq!(eng.queue.events_processed(), events + 1);
        }
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

    /// Dependent blocks holding entries, pool edges not on the free list,
    /// and lane-store entries not on a free list.
    fn lists_held(eng: &GrantEngine) -> (usize, usize, usize) {
        let blocks = eng.blocks.iter().filter(|b| b.data.capacity() > 0).count();
        let (mut free_edges, mut e) = (0, eng.free_edge);
        while let Some(edge) = eng.pool.get(e as usize) {
            free_edges += 1;
            e = edge.next;
        }
        let mut free_lanes = 0;
        for (len, &head) in eng.lane_free.iter().enumerate() {
            let mut at = head;
            while at != NIL {
                free_lanes += len;
                at = eng.lanes[at as usize];
            }
        }
        (
            blocks,
            eng.pool.len() - free_edges,
            eng.lanes.len() - free_lanes,
        )
    }

    /// A stream of rounds holds lists only for its unsettled transfers, and
    /// reuses what settled ones freed: each round injects a batch whose
    /// second transfer (two lanes) waits on its first, then a batch whose
    /// transfer waits on that first one too, and runs to idle.
    #[test]
    fn a_stream_holds_lists_only_for_unsettled_transfers() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        for round in 0..100u32 {
            let t = f64::from(round);
            while eng.peek_time().is_some_and(|p| p < t) {
                eng.step().unwrap();
            }
            let key = eng.next_key() as usize;
            let mut striped = item(4, 6, 1_000_000, t, vec![key]);
            striped.transfer.lanes = 2;
            eng.inject(&[item(0, 4, 1_000_000, t, vec![]), striped])
                .unwrap();
            eng.inject(&[item(6, 0, 1_000_000, t, vec![key])]).unwrap();
            assert_eq!(lists_held(&eng), (1, 1, 4), "round {round}");
            if round == 0 {
                // The image lists the dependents in the order they are
                // released: the batch's own, then the later batch's.
                let snap = eng.snapshot();
                assert_eq!(snap.slots[0].as_ref().unwrap().dependents, vec![1, 2]);
            }
            while eng.step().unwrap().is_some() {}
            assert_eq!(lists_held(&eng), (0, 0, 0), "round {round}");
        }
        assert_eq!(eng.drain_completions().count(), 300);
        assert!(eng.slots.len() <= 3 && eng.slots.iter().all(Option::is_none));
        assert_eq!(
            (eng.blocks.len(), eng.pool.len(), eng.lanes.len()),
            (1, 1, 4)
        );
    }

    #[test]
    fn indices_too_wide_for_the_tables_are_typed_errors_before_any_state_change() {
        let mut eng = GrantEngine::new(&cfg(), Strategy::FirstFit, false, false).unwrap();
        let mut wide = item(0, 2, 1_000, 0.0, vec![0]);
        wide.job = 1 << 40;
        assert_eq!(
            eng.inject(&[item(1, 2, 1_000, 0.0, vec![]), wide]),
            Err(WIDE)
        );
        assert_eq!((eng.next_key(), eng.peak_slots()), (0, 0));
        assert_eq!((eng.blocks.len(), eng.lanes.len()), (0, 0));
        // Rings of more nodes or wavelengths than 32-bit indices reach are
        // refused before anything is allocated for them.
        for (nodes, wavelengths) in [(1 << 33, 2), (8, 1 << 33)] {
            let config = OpticalConfig::new(nodes, wavelengths);
            assert_eq!(
                GrantEngine::new(&config, Strategy::FirstFit, false, false).err(),
                Some(WIDE)
            );
        }
        // So are images whose counts or tags do not fit.
        eng.inject(&[
            item(0, 2, 1_000_000, 0.0, vec![]),
            item(0, 2, 1_000_000, 0.0, vec![0]),
        ])
        .unwrap();
        eng.step().unwrap();
        let good = eng.snapshot();
        for corrupt in [
            |s: &mut SlotImage| s.missing = 1 << 40,
            |s: &mut SlotImage| s.job = 1 << 40,
        ] {
            let mut snap = good.clone();
            corrupt(snap.slots[1].as_mut().unwrap());
            assert_eq!(
                GrantEngine::restore(&cfg(), Strategy::FirstFit, false, false, &snap).err(),
                Some(WIDE)
            );
        }
        while eng.step().unwrap().is_some() {}
        assert_eq!(eng.drain_completions().count(), 2);
    }

    /// The slot record stays one fixed-size block of at most 80 bytes,
    /// live or not.
    #[test]
    fn the_slot_record_is_small() {
        assert!(std::mem::size_of::<Slot>() <= 80);
        assert!(std::mem::size_of::<Option<Slot>>() <= 80);
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
        fn slot(s: &mut GrantEngineSnapshot, id: usize) -> &mut SlotImage {
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
