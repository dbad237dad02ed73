//! The streaming fluid engine.
//!
//! [`FluidEngine`] is the single execution engine behind every dependency-
//! aware electrical run. A closed run injects the whole flow list at time
//! zero, or a lazily lowered DAG stage by stage, and pumps the engine to
//! idle (the closed driver in `wrht-core`, and [`crate::sim::run_flows`]
//! for plain flow sets), while open-loop cluster services
//! [`FluidEngine::inject`] each arriving job's flows into the *running*
//! engine. The incremental per-component max-min re-solve,
//! the lazy `remaining` bookkeeping and the
//! one-completion-event-per-component discipline are shared, so a stream
//! whose arrivals are all known up front is bit-exact with the closed path.
//!
//! # Determinism across injection times
//!
//! Flow indices are assigned sequentially at injection and never reused,
//! so injecting jobs in arrival order reproduces exactly the indices a
//! closed composition would assign — and every index-ordered scan
//! (promotion, job rate attribution, completion-by-candidate) visits flows
//! in the same order with the same floating-point state. Event *sequence*
//! order within a batch can differ between the two drivers, but batches
//! are processed as sets: liveness is an `|=` accumulation and completions
//! are found by candidate bits in index order, not in pop order.
//!
//! Dependencies name flow indices, so a batch may depend on live flows of
//! earlier batches; a flow injected before any of its dependencies settles
//! behaves exactly as if it had been injected at time zero.
//! [`FluidEngine::frontier`] tells a streaming driver how far ahead it must
//! have injected.
//!
//! # Bookkeeping
//!
//! Per-flow lists live in flat 32-bit blocks, not in a `Vec` per flow.
//! Routes are one arena of link indices with per-flow offsets, routed
//! straight into it at injection. Each injected batch with dependencies
//! gets one block holding its flows' dependency lists and their dependents
//! inside the batch, as compressed rows; a dependent injected in a later
//! batch (a closed DAG streamed stage by stage) goes into a pool of 32-bit
//! edges whose settled edges a free list recycles. List entries are
//! distances between flow indices. The batch's last flow to settle frees
//! its block, so a stream holds lists only for unsettled jobs, and a batch
//! without dependencies (a single launched transfer, say) allocates none.
//! Runs under faults keep every list. The per-flow scalars and routes are
//! `O(total flows injected)` for streams, whose snapshots list every flow.
//! A closed driver that hands each drained outcome on (the core crate's
//! `run_closed` passes it to its caller, and keeps none) lets the engine
//! drop the per-flow state of its settled, drained prefix
//! ([`FluidEngine::forget_settled`]), so a DAG streamed stage by stage runs
//! in memory proportional to the flows between the lowest unsettled one
//! and the last injected. The per-flow tables and index lists hold
//! positions from the first flow kept (the distances in the blocks need no
//! update); kernel events, completions and the injection interface name
//! flow indices, and a stale kernel event that names a dropped flow is
//! dead, like one that names a settled flow. An index that would not fit
//! in 32 bits is a [`NetError::BadConfig`] at injection.
//!
//! An event costs work proportional to the flows in flight
//! (transmitting, or waiting on a release or a latency timer), the flows
//! it made ready, and the affected contention component — not to the
//! number of flows ever injected or still blocked. A blocked flow is
//! reached through its last settling dependency's dependent list and put
//! on a ready list; the promotion pass merges that list into its ascending
//! scan, so it visits the same flows in the same order as a scan of every
//! unsettled flow, without visiting the blocked ones. The re-solve lists a
//! component's flows and links in ascending order: a component that is a
//! large share of the transmitting flows (or of the links) is read off the
//! sorted active list (or the link flags) instead of being sorted.
//!
//! # Faults
//!
//! [`FluidEngine::set_faults`] lowers a [`FaultScript`]'s electrically
//! relevant events onto the engine's own kernel. `LinkDegrade` scales a
//! link's capacity and re-solves the affected component at the fault
//! instant; `LinkFlap` darkens a link for its outage (crossing flows are
//! suspended at rate zero, not aborted, and resume on restore);
//! `NodeStraggle` caps flows touching the node at `1/slowdown` of their
//! max-min share (the freed share is *not* redistributed); `NodeDown`
//! permanently fails every unfinished flow touching the node. Under
//! [`FaultPolicy::FailJob`] a failed flow fails its whole job; under
//! `RetryAfter`/`Replan` its dependents are released so survivors re-plan
//! (retrying a dead endpoint is futile, and suspension already preserves
//! progress, so the two coincide here). Wavelength events have no
//! electrical meaning. A batch applies its completions before its faults,
//! so a flow finishing at exactly the fault instant is finished, not
//! failed. Failed flows are drained like completions, with `failed` set;
//! and once no flow is live the engine is idle, whatever fault events
//! remain. Without a relevant fault the engine allocates no fault state
//! and runs the clean arithmetic.
//!
//! The engine supports [`FluidEngine::snapshot`] /
//! [`FluidEngine::restore`]: a versioned, serializable image of the flow
//! table, pending kernel events and clock. Per-flow times are stored as
//! IEEE-754 bit patterns so `INFINITY` sentinels and exact candidates
//! survive JSON round-trips byte-identically. The image lists every flow
//! with its dependencies, route and dependents (empty once it completed),
//! whatever the engine's own layout. Restore validates the image's indices
//! and table shapes and rejects corrupt ones with [`NetError::BadConfig`].

use crate::error::{NetError, Result};
use crate::graph::{LinkId, Network};
use crate::maxmin::{progressive_fill, Fill};
use crate::sim::{EngineFlow, Phase, EPS};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use wrht_kernel::{EventKernel, FaultKind, FaultLimits, FaultPolicy, FaultScript};

/// Version tag of [`FluidEngineSnapshot`]; bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The block of a batch without dependencies, and the end of an edge
/// list; also the most blocks, edges and list entries the engine holds.
const NIL: u32 = u32::MAX;

/// A contention component with at least `1 / SCAN_SHARE` of the
/// transmitting flows (or of the links) is listed in ascending order by a
/// scan of the sorted active list (or of the link flags) instead of by a
/// sort.
const SCAN_SHARE: usize = 8;

/// Error for an index the engine keeps in 32 bits that would not fit.
const WIDE: NetError = NetError::BadConfig("index overflows the fluid engine's 32-bit tables");

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    Release(usize),
    Timer(usize),
    Complete(usize),
    Fault(usize),
}

/// One flow outcome drained via [`FluidEngine::drain_completions`]: a
/// completion, or under faults a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCompletion {
    /// Engine flow index (sequential in injection order).
    pub index: usize,
    /// Owning job ([`EngineFlow::job`]).
    pub job: usize,
    /// Instant the flow's gates opened, seconds (0 if they never did).
    pub start_s: f64,
    /// Completion instant, seconds (0 for a failed flow).
    pub finish_s: f64,
    /// Times a fault killed the flow while it was transmitting.
    pub aborts: u32,
    /// A fault failed the flow, or stranded it behind a failed one.
    pub failed: bool,
}

/// Fault state, allocated only when [`FluidEngine::set_faults`] installs
/// at least one relevant event.
#[derive(Debug)]
struct Faults {
    /// The lowered relevant events, indexed by their [`Ev::Fault`]
    /// payload. Flaps are lowered to link-factor changes, and a factor of
    /// 0.0 darkens the link: crossing flows are suspended, not aborted.
    script: Vec<FaultKind>,
    policy: FaultPolicy,
    link_factor: Vec<f64>,
    node_slow: Vec<f64>,
    /// Rate divisor per flow (1.0 unless an endpoint straggles).
    flow_slow: Vec<f64>,
    /// Per flow: killed while actively transmitting.
    aborted: Vec<u32>,
    failed: usize,
    first_impact_s: Option<f64>,
}

/// Versioned, serializable image of a [`FluidEngine`] mid-run.
///
/// Per-flow `f64` arrays are stored as raw bit patterns (`u64`): candidate
/// times legitimately hold `INFINITY`, which JSON cannot represent, and the
/// resumed run must match an uninterrupted one bit-for-bit. The index
/// lists derived from the flow phases (active and unsettled flows, flows
/// per link) are rebuilt on restore, not stored. Fault state is not
/// captured: faulted runs are closed runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluidEngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    now: u64,
    events: u64,
    flows: Vec<EngineFlow>,
    routes: Vec<Vec<LinkId>>,
    latencies: Vec<u64>,
    dependents: Vec<Vec<usize>>,
    missing: Vec<usize>,
    phase: Vec<Phase>,
    remaining: Vec<u64>,
    start: Vec<u64>,
    finish: Vec<u64>,
    rate: Vec<u64>,
    release_scheduled: Vec<bool>,
    last_update: Vec<u64>,
    cand: Vec<u64>,
    sched_cand: Vec<u64>,
    dirty: Vec<usize>,
    completed: Vec<usize>,
    recomputations: usize,
    solver_work: usize,
    job_active_s: Vec<u64>,
    job_service_bytes: Vec<u64>,
    job_peak_rate: Vec<u64>,
    job_free: Vec<usize>,
    next_job: usize,
    pending_release: Option<u64>,
    pending: Vec<(u64, Ev)>,
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn from_bits(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| f64::from_bits(x)).collect()
}

/// One flow of the table: an [`EngineFlow`] without its dependency list,
/// its hosts and job in 32 bits, and the block that holds its lists.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: u32,
    dst: u32,
    job: u32,
    /// Slot of its batch's [`Block`] ([`NIL`] for a batch without
    /// dependencies). Read only while the flow is unsettled: a later batch
    /// can reuse a freed slot.
    block: u32,
    bytes: u64,
    release_s: f64,
    delay_s: f64,
}

impl Flow {
    fn src(&self) -> usize {
        self.src as usize
    }

    fn dst(&self) -> usize {
        self.dst as usize
    }

    fn job(&self) -> usize {
        self.job as usize
    }
}

/// The dependency lists of one batch of `len` flows in one allocation, as
/// compressed rows: flow `first + k` depends on the flows
/// `data[data[k]..data[k + 1]]` before it, and the batch's flows
/// `data[data[len + 1 + k]..data[len + 2 + k]]` after it depend on it.
/// Entries are distances between flow indices, so dropping a settled
/// prefix of the tables leaves them valid.
#[derive(Debug)]
struct Block {
    /// Flow index of the batch's first flow.
    first: usize,
    len: u32,
    /// Flows of the batch not settled yet; the last to settle frees `data`.
    unsettled: u32,
    data: Vec<u32>,
}

impl Block {
    /// Row `k` of the rows whose offsets start at `data[at]`.
    fn row(&self, at: usize, k: usize) -> &[u32] {
        let d = &self.data;
        &d[d[at + k] as usize..d[at + k + 1] as usize]
    }

    /// Distances back to the dependencies of the batch's flow `k`.
    fn deps(&self, k: usize) -> &[u32] {
        self.row(0, k)
    }

    /// Distances ahead to the dependents of the batch's flow `k` inside
    /// the batch.
    fn dependents(&self, k: usize) -> &[u32] {
        self.row(self.len as usize + 1, k)
    }
}

/// One edge of [`FluidEngine::pool`]: a dependent injected in a later
/// batch than its dependency, `ahead` flows after it, and the next edge of
/// the dependency's list.
#[derive(Debug, Clone, Copy)]
struct Edge {
    ahead: u32,
    next: u32,
}

/// What a validated batch needs: its flows, its dependencies, those on
/// flows of the batch itself, and those on earlier batches' flows.
#[derive(Debug, Default)]
struct BatchSize {
    flows: usize,
    deps: usize,
    inner: usize,
    edges: usize,
}

/// The dependency-aware streaming fluid engine (see module docs).
#[derive(Debug)]
pub struct FluidEngine<'a> {
    net: &'a Network,
    flows: Vec<Flow>,
    /// Every flow's route, as link indices: position `i` crosses the links
    /// `route_links[route_at[i]..route_at[i + 1]]`.
    route_links: Vec<u32>,
    route_at: Vec<u32>,
    latencies: Vec<f64>,
    /// Each batch's dependency lists, in slots a freed block returns to
    /// `free_blocks`.
    blocks: Vec<Block>,
    free_blocks: Vec<u32>,
    /// Per flow: the first of its dependents injected in a later batch, as
    /// an edge list in `pool`.
    later: Vec<u32>,
    /// Edges of the `later` lists; released edges return to the free list
    /// at `free_edge`.
    pool: Vec<Edge>,
    free_edge: u32,
    missing: Vec<u32>,
    phase: Vec<Phase>,
    remaining: Vec<f64>,
    start: Vec<f64>,
    finish: Vec<f64>,
    rate: Vec<f64>,
    kernel: EventKernel<Ev>,
    release_scheduled: Vec<bool>,
    last_update: Vec<f64>,
    cand: Vec<f64>,
    sched_cand: Vec<f64>,
    // Index lists bounding per-event work, both sorted ascending so scans
    // visit flows in closed-path index order: flows waiting on a release or
    // a latency timer (Pending/Latency), and flows transmitting. A Blocked
    // flow is listed nowhere until its last dependency settles; it then
    // waits on the ready list (`comp_stack`) for the next promotion pass.
    unsettled: Vec<usize>,
    active: Vec<usize>,
    n_done: usize,
    /// Flow index of the first flow the tables hold. The tables and index
    /// lists use positions in the tables; a closed driver that hands each
    /// drained outcome on lets the engine drop the settled prefix of the
    /// tables ([`FluidEngine::forget_settled`]), which moves this base.
    /// Kernel events, completions and the injection interface use flow
    /// indices, so they never change.
    key_base: usize,
    /// Every flow below this position has settled.
    settled_below: usize,
    /// One past the highest position that is gated (its dependencies all
    /// settled) or could settle inside the promotion pass that gates it
    /// (see [`FluidEngine::frontier`]).
    gated: usize,
    /// Most flows the tables ever held at once.
    peak_held: usize,
    completed: Vec<usize>,
    flows_on_link: Vec<Vec<usize>>,
    dirty: Vec<usize>,
    recomputations: usize,
    solver_work: usize,
    events_base: u64,
    job_active_s: Vec<f64>,
    job_service_bytes: Vec<f64>,
    job_peak_rate: Vec<f64>,
    job_free: Vec<usize>,
    next_job: usize,
    /// Earliest release among flows injected since the last step. Release
    /// events are only scheduled inside [`FluidEngine::step`]'s promotion
    /// scan, so [`FluidEngine::peek_time`] folds this in to stay truthful
    /// right after an injection.
    pending_release: Option<f64>,
    /// Launch overhead [`crate::sim::EngineFlow::delay_s`] of the flows a
    /// driver injects through the fabric-independent interface, seconds.
    launch_s: f64,
    faults: Option<Box<Faults>>,
    // Scratch, allocated once (not part of snapshots).
    link_seen: Vec<bool>,
    flow_seen: Vec<bool>,
    flow_comp: Vec<u32>,
    comp_min: Vec<(f64, usize)>,
    fill: Fill,
    old_rate_scratch: Vec<f64>,
    batch: Vec<Ev>,
    comp_links: Vec<usize>,
    comp_flows: Vec<usize>,
    // The component search's stack, empty whenever `resolve_dirty` is not
    // running. In between it is the ready list: Blocked flows with no
    // missing dependency, in descending order during a promotion pass so
    // the smallest index is on top. (A separate field would grow the
    // engine, whose size the composed substrate's memory peak tracks.)
    comp_stack: Vec<usize>,
    job_agg_rate: Vec<f64>,
    job_busy: Vec<bool>,
    busy_jobs: Vec<usize>,
    newly_active: Vec<usize>,
}

impl<'a> FluidEngine<'a> {
    /// Fresh engine over the given network.
    #[must_use]
    pub fn new(net: &'a Network) -> Self {
        let n_links = net.links().len();
        Self {
            net,
            flows: Vec::new(),
            route_links: Vec::new(),
            route_at: vec![0],
            latencies: Vec::new(),
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            later: Vec::new(),
            pool: Vec::new(),
            free_edge: NIL,
            missing: Vec::new(),
            phase: Vec::new(),
            remaining: Vec::new(),
            start: Vec::new(),
            finish: Vec::new(),
            rate: Vec::new(),
            kernel: EventKernel::new(),
            release_scheduled: Vec::new(),
            last_update: Vec::new(),
            cand: Vec::new(),
            sched_cand: Vec::new(),
            unsettled: Vec::new(),
            active: Vec::new(),
            n_done: 0,
            key_base: 0,
            settled_below: 0,
            gated: 0,
            peak_held: 0,
            completed: Vec::new(),
            flows_on_link: vec![Vec::new(); n_links],
            dirty: Vec::new(),
            recomputations: 0,
            solver_work: 0,
            events_base: 0,
            job_active_s: Vec::new(),
            job_service_bytes: Vec::new(),
            job_peak_rate: Vec::new(),
            job_free: Vec::new(),
            next_job: 0,
            pending_release: None,
            launch_s: 0.0,
            faults: None,
            link_seen: vec![false; n_links],
            flow_seen: Vec::new(),
            flow_comp: Vec::new(),
            comp_min: Vec::new(),
            fill: Fill::new(n_links),
            old_rate_scratch: Vec::new(),
            batch: Vec::new(),
            comp_links: Vec::new(),
            comp_flows: Vec::new(),
            comp_stack: Vec::new(),
            job_agg_rate: Vec::new(),
            job_busy: Vec::new(),
            busy_jobs: Vec::new(),
            newly_active: Vec::new(),
        }
    }

    /// Return to the state [`FluidEngine::new`] builds over the same
    /// network, keeping every allocation: a caller that runs many
    /// independent closed runs (the stepped runner's engine steps) then
    /// does not rebuild the per-link arrays each time.
    pub(crate) fn reset(&mut self) {
        let Self {
            net: _,
            flows,
            route_links,
            route_at,
            latencies,
            blocks,
            free_blocks,
            later,
            pool,
            free_edge,
            missing,
            phase,
            remaining,
            start,
            finish,
            rate,
            kernel,
            release_scheduled,
            last_update,
            cand,
            sched_cand,
            unsettled,
            active,
            n_done,
            key_base,
            settled_below,
            gated,
            peak_held,
            completed,
            flows_on_link,
            dirty,
            recomputations,
            solver_work,
            events_base,
            job_active_s,
            job_service_bytes,
            job_peak_rate,
            job_free,
            next_job,
            pending_release,
            launch_s: _,
            faults,
            link_seen,
            flow_seen,
            flow_comp,
            comp_min,
            fill,
            old_rate_scratch,
            batch,
            comp_links,
            comp_flows,
            comp_stack,
            job_agg_rate,
            job_busy,
            busy_jobs,
            newly_active,
        } = self;
        flows.clear();
        route_links.clear();
        route_at.clear();
        route_at.push(0);
        latencies.clear();
        blocks.clear();
        free_blocks.clear();
        later.clear();
        pool.clear();
        *free_edge = NIL;
        missing.clear();
        phase.clear();
        remaining.clear();
        start.clear();
        finish.clear();
        rate.clear();
        kernel.clear();
        release_scheduled.clear();
        last_update.clear();
        cand.clear();
        sched_cand.clear();
        unsettled.clear();
        active.clear();
        *n_done = 0;
        *key_base = 0;
        *settled_below = 0;
        *gated = 0;
        *peak_held = 0;
        completed.clear();
        flows_on_link.iter_mut().for_each(Vec::clear);
        dirty.clear();
        *recomputations = 0;
        *solver_work = 0;
        *events_base = 0;
        job_active_s.clear();
        job_service_bytes.clear();
        job_peak_rate.clear();
        job_free.clear();
        *next_job = 0;
        *pending_release = None;
        *faults = None;
        link_seen.fill(false);
        flow_seen.clear();
        flow_comp.clear();
        comp_min.clear();
        fill.remaining.fill(0.0);
        fill.active.fill(0);
        old_rate_scratch.clear();
        batch.clear();
        comp_links.clear();
        comp_flows.clear();
        comp_stack.clear();
        job_agg_rate.clear();
        job_busy.clear();
        busy_jobs.clear();
        newly_active.clear();
    }

    /// Install a fault script and the policy failed work recovers under
    /// (see the module docs). A full-capacity degrade on a link no other
    /// event disturbs is dropped: an extra kernel instant would split fluid
    /// intervals and can perturb completions in the last ulp. Returns
    /// whether any event was relevant — without one the engine stays on the
    /// clean path.
    ///
    /// # Errors
    /// Scripts and policies that fail validation against this network
    /// ([`NetError::Fault`]), and installation after the first injection
    /// ([`NetError::BadConfig`]).
    pub fn set_faults(&mut self, script: &FaultScript, policy: FaultPolicy) -> Result<bool> {
        script.validate(&FaultLimits {
            nodes: self.net.hosts(),
            wavelengths: None,
            links: Some(self.net.links().len()),
        })?;
        policy.validate()?;
        if !self.flows.is_empty() || self.faults.is_some() {
            return Err(NetError::BadConfig(
                "faults must be installed once, before the first injection",
            ));
        }
        // A flap is dark for `down_s`, then back to full capacity
        // (forgetting any earlier degrade on the link).
        let disturbed = |link: usize| {
            script.events().iter().any(|o| match o.kind {
                FaultKind::LinkDegrade { link: l, factor } => l == link && factor < 1.0,
                FaultKind::LinkFlap { link: l, .. } => l == link,
                _ => false,
            })
        };
        let mut faults: Vec<(f64, FaultKind)> = Vec::new();
        for ev in script.events() {
            match ev.kind {
                FaultKind::LinkDegrade { link, factor } if factor >= 1.0 && !disturbed(link) => {}
                FaultKind::LinkFlap { link, down_s } => {
                    faults.push((ev.at_s, FaultKind::LinkDegrade { link, factor: 0.0 }));
                    let restore = FaultKind::LinkDegrade { link, factor: 1.0 };
                    faults.push((ev.at_s + down_s, restore));
                }
                FaultKind::WavelengthDown { .. } | FaultKind::WavelengthUp { .. } => {}
                kind => faults.push((ev.at_s, kind)),
            }
        }
        if faults.is_empty() {
            return Ok(false);
        }
        for (k, &(at_s, _)) in faults.iter().enumerate() {
            self.kernel
                .schedule_at(at_s, Ev::Fault(k))
                .map_err(|_| NetError::BadConfig("fault instant precedes the engine clock"))?;
        }
        self.faults = Some(Box::new(Faults {
            script: faults.into_iter().map(|(_, f)| f).collect(),
            policy,
            link_factor: vec![1.0; self.net.links().len()],
            node_slow: vec![1.0; self.net.hosts()],
            flow_slow: Vec::new(),
            aborted: Vec::new(),
            failed: 0,
            first_impact_s: None,
        }));
        Ok(true)
    }

    /// Charge `launch_s` as the launch delay of every flow injected through
    /// the fabric-independent interface (see [`FluidEngine::launch_delay_s`]).
    #[must_use]
    pub fn with_launch_delay(mut self, launch_s: f64) -> Self {
        self.launch_s = launch_s;
        self
    }

    /// The launch delay a driver charges each flow it injects: the
    /// electrical substrate's per-flow protocol overhead, seconds. Not part
    /// of snapshots (each injected flow carries its own delay).
    #[must_use]
    pub fn launch_delay_s(&self) -> f64 {
        self.launch_s
    }

    /// Allocate a job tag for [`EngineFlow::job`], reusing the tags of
    /// [`FluidEngine::retire_job`]d jobs. Max-min rates are policy-free, so
    /// the tag only attributes flows (and their rate solution) to the job.
    pub fn add_job(&mut self) -> usize {
        self.job_free.pop().unwrap_or_else(|| {
            self.next_job += 1;
            self.next_job - 1
        })
    }

    /// Release a job tag for reuse once every flow of the job completed.
    pub fn retire_job(&mut self, job: usize) {
        self.job_free.push(job);
    }

    /// Inject a flow batch (one job's DAG, or the next stages of a closed
    /// DAG) into the running engine. Batch flows get sequential indices
    /// from [`FluidEngine::next_key`] on; those indices identify
    /// completions, and dependencies name them: each dependency is an
    /// earlier flow of the batch or a live flow of an earlier batch.
    /// Returns the engine index of the batch's first flow.
    ///
    /// # Errors
    /// Same validation (and error values) as the closed path: forward deps,
    /// non-finite/negative releases and unroutable flows are rejected
    /// before any state changes, and so are dependencies on flows that
    /// already settled and indices too wide for the engine's 32-bit tables
    /// ([`NetError::BadConfig`]).
    pub fn inject(&mut self, batch: &[EngineFlow]) -> Result<usize> {
        self.inject_from(batch.iter().map(|f| {
            let head = EngineFlow {
                deps: Vec::new(),
                ..*f
            };
            (head, f.deps.iter().copied())
        }))
    }

    /// [`FluidEngine::inject`] for a batch the caller does not hold as
    /// [`EngineFlow`]s, read in place: each item is a flow, whose own
    /// `deps` are not read (an empty `Vec` allocates nothing), with its
    /// dependencies as flow indices. The batch is read more than once, so
    /// the caller builds no list per flow.
    ///
    /// # Errors
    /// As [`FluidEngine::inject`].
    pub fn inject_from<I, D>(&mut self, batch: I) -> Result<usize>
    where
        I: Iterator<Item = (EngineFlow, D)> + Clone,
        D: Iterator<Item = usize>,
    {
        let held = self.flows.len();
        let arena = self.route_links.len();
        match self.route_batch(batch.clone()) {
            Ok(size) => Ok(self.admit(batch, &size)),
            Err(e) => {
                self.route_links.truncate(arena);
                self.route_at.truncate(held + 1);
                self.latencies.truncate(held);
                Err(e)
            }
        }
    }

    /// Index the next injected flow gets.
    #[must_use]
    pub fn next_key(&self) -> usize {
        self.key_base + self.flows.len()
    }

    /// Validate a batch and route each flow once, in flow order, into the
    /// route arena. On an error the caller truncates the arena, and nothing
    /// else has changed.
    fn route_batch<I, D>(&mut self, batch: I) -> Result<BatchSize>
    where
        I: Iterator<Item = (EngineFlow, D)>,
        D: Iterator<Item = usize>,
    {
        let net = self.net;
        if u32::try_from(net.links().len()).is_err() {
            return Err(WIDE);
        }
        let first = self.next_key();
        let (key_base, phase) = (self.key_base, &self.phase);
        let settled = |d: usize| {
            !matches!(
                d.checked_sub(key_base).and_then(|d| phase.get(d)),
                Some(Phase::Blocked | Phase::Pending | Phase::Latency(_) | Phase::Active)
            )
        };
        let mut size = BatchSize::default();
        for (i, (f, deps)) in batch.enumerate() {
            let key = first + i;
            let (mut forward, mut gone, mut far) = (false, false, false);
            for d in deps {
                size.deps += 1;
                if d >= key {
                    forward = true;
                    continue;
                }
                far |= key - d > NIL as usize;
                if d >= first {
                    size.inner += 1;
                } else {
                    size.edges += 1;
                    gone |= settled(d);
                }
            }
            if forward {
                return Err(NetError::BadConfig("dependency must precede its flow"));
            }
            if gone {
                return Err(NetError::BadConfig(
                    "dependency names a flow that already settled",
                ));
            }
            if !f.release_s.is_finite() || f.release_s < 0.0 {
                return Err(NetError::BadConfig("release time must be finite and >= 0"));
            }
            let start = self.route_links.len();
            // In range: the link count fits in 32 bits (checked above).
            net.route_with(f.src, f.dst, |l| self.route_links.push(l.0 as u32))?;
            self.latencies
                .push(net.flat_latency(&self.route_links[start..]));
            let end = u32::try_from(self.route_links.len()).map_err(|_| WIDE)?;
            self.route_at.push(end);
            let narrow = |v: usize| u32::try_from(v).is_ok();
            if far || !(narrow(f.src) && narrow(f.dst) && narrow(f.job)) {
                return Err(WIDE);
            }
            size.flows += 1;
        }
        let block = 2 * (size.flows + 1) + size.deps + size.inner;
        let slot = if self.free_blocks.is_empty() {
            self.blocks.len()
        } else {
            0
        };
        if size.deps > 0 && (block > NIL as usize || slot >= NIL as usize) {
            return Err(WIDE);
        }
        if self.pool.len() + size.edges >= NIL as usize {
            return Err(WIDE);
        }
        Ok(size)
    }

    /// Append a batch [`FluidEngine::route_batch`] validated and routed:
    /// its flows' state, and its block of dependency lists, or its
    /// dependents' edges for dependencies on earlier batches. Returns the
    /// batch's first flow index.
    fn admit<I, D>(&mut self, batch: I, size: &BatchSize) -> usize
    where
        I: Iterator<Item = (EngineFlow, D)> + Clone,
        D: Iterator<Item = usize>,
    {
        let held = self.flows.len();
        let first = self.key_base + held;
        let len = size.flows;
        // In range: `route_batch` bounds the block, its slot and the pool.
        let block = if size.deps == 0 {
            NIL
        } else {
            let data = vec![0; 2 * (len + 1) + size.deps + size.inner];
            let new = Block {
                first,
                len: len as u32,
                unsettled: len as u32,
                data,
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
        // The dependency rows and entries come first, then the dependents'
        // rows and entries.
        let (blk, rows) = (block as usize, len + 1);
        let mut at = 2 * rows;
        for (bi, (f, deps)) in batch.clone().enumerate() {
            let i = held + bi;
            let key = first + bi;
            if block != NIL {
                self.blocks[blk].data[bi] = at as u32;
            }
            let mut n_deps = 0u32;
            for d in deps {
                n_deps += 1;
                let back = (key - d) as u32;
                let data = &mut self.blocks[blk].data;
                data[at] = back;
                at += 1;
                if d >= first {
                    // Count the dependent two rows on, so that the sums
                    // below leave each row's start one row on.
                    let k = d - first;
                    if k + 2 <= len {
                        data[rows + k + 2] += 1;
                    }
                } else {
                    self.add_later(d - self.key_base, back);
                }
            }
            // A flow whose launch pipe is within the coincidence tolerance
            // can settle in the very promotion pass that gates it, so it
            // counts as gated from the start (see `frontier`).
            let pipe = if f.bytes == 0 {
                f.delay_s
            } else {
                f.delay_s + self.latencies[i]
            };
            if n_deps == 0 || pipe <= EPS {
                self.gated = self.gated.max(i + 1);
            }
            self.phase.push(if n_deps == 0 {
                self.pending_release = Some(
                    self.pending_release
                        .map_or(f.release_s, |r| r.min(f.release_s)),
                );
                Phase::Pending
            } else {
                Phase::Blocked
            });
            self.missing.push(n_deps);
            self.later.push(NIL);
            self.remaining.push(f.bytes as f64);
            self.start.push(0.0);
            self.finish.push(0.0);
            self.rate.push(0.0);
            self.release_scheduled.push(false);
            self.last_update.push(0.0);
            self.cand.push(f64::INFINITY);
            self.sched_cand.push(f64::INFINITY);
            self.flow_seen.push(false);
            self.flow_comp.push(0);
            // New indices are the largest yet, so pushing keeps the
            // unsettled list sorted. A blocked flow joins the ready list
            // when its last dependency settles.
            if n_deps == 0 {
                self.unsettled.push(i);
            }
            if f.job >= self.job_active_s.len() {
                let jobs = f.job + 1;
                self.job_active_s.resize(jobs, 0.0);
                self.job_service_bytes.resize(jobs, 0.0);
                self.job_peak_rate.resize(jobs, 0.0);
                self.job_agg_rate.resize(jobs, 0.0);
                self.job_busy.resize(jobs, false);
            }
            // In range: `route_batch` checked every host and job.
            self.flows.push(Flow {
                src: f.src as u32,
                dst: f.dst as u32,
                job: f.job as u32,
                block,
                bytes: f.bytes,
                release_s: f.release_s,
                delay_s: f.delay_s,
            });
        }
        if let Some(b) = self.blocks.get_mut(blk) {
            let data = &mut b.data;
            data[len] = at as u32;
            // With the counts summed, row `k` of the dependents starts at
            // `data[rows + k + 1]`, which each entry filled moves on: the
            // rows end up in place, each ascending.
            data[rows] = at as u32;
            data[rows + 1] = at as u32;
            for k in rows + 2..=rows + len {
                data[k] += data[k - 1];
            }
            if size.inner > 0 {
                for (bi, (_, deps)) in batch.enumerate() {
                    for d in deps.filter(|&d| d >= first) {
                        let row = rows + d - first + 1;
                        let e = data[row] as usize;
                        data[e] = (first + bi - d) as u32;
                        data[row] += 1;
                    }
                }
            }
        }
        self.peak_held = self.peak_held.max(self.flows.len());
        if let Some(f) = self.faults.as_deref_mut() {
            f.flow_slow.resize(self.flows.len(), 1.0);
            f.aborted.resize(self.flows.len(), 0);
        }
        first
    }

    /// File a dependent `ahead` flows after position `i` under `i`'s
    /// later-batch dependents.
    fn add_later(&mut self, i: usize, ahead: u32) {
        let edge = Edge {
            ahead,
            next: self.later[i],
        };
        let e = match self.pool.get_mut(self.free_edge as usize) {
            Some(slot) => {
                let e = self.free_edge;
                self.free_edge = slot.next;
                *slot = edge;
                e
            }
            // In range: `route_batch` bounds the pool.
            None => {
                self.pool.push(edge);
                (self.pool.len() - 1) as u32
            }
        };
        self.later[i] = e;
    }

    /// The arena range of position `i`'s route.
    fn span(&self, i: usize) -> Range<usize> {
        self.route_at[i] as usize..self.route_at[i + 1] as usize
    }

    /// One past the highest flow index the next [`FluidEngine::step`]
    /// could settle: every flow whose dependencies all settled, and every
    /// flow whose launch pipe is within the coincidence tolerance, which
    /// the promotion pass that gates it can also settle (a zero-byte gate)
    /// or activate in time to complete at the step's instant. A driver
    /// that injects a DAG stage by stage only needs to have injected a
    /// flow before this passes all its dependencies. Under faults, which
    /// can fail blocked flows, every index counts.
    #[must_use]
    pub fn frontier(&self) -> usize {
        if self.faults.is_some() {
            usize::MAX
        } else {
            self.key_base + self.gated
        }
    }

    /// Most flows the engine ever held at once: every flow injected, unless
    /// a closed driver let it drop its settled prefix
    /// ([`FluidEngine::forget_settled`]).
    #[must_use]
    pub fn peak_held(&self) -> usize {
        self.peak_held
    }

    /// Drop the state of the settled prefix of the flow tables, once it is
    /// at least half of them and every outcome has been drained. For a
    /// closed driver that hands each drained outcome on: afterwards
    /// [`FluidEngine::window`] knows only the flows from the lowest
    /// unsettled one on, and a snapshot is no longer possible. Runs under
    /// faults keep every flow.
    pub fn forget_settled(&mut self) {
        if self.faults.is_some() || !self.completed.is_empty() {
            return;
        }
        let held = self.flows.len();
        while self.settled_below < held
            && matches!(self.phase[self.settled_below], Phase::Done | Phase::Failed)
        {
            self.settled_below += 1;
        }
        let low = self.settled_below;
        if low == 0 || 2 * low < held {
            return;
        }
        self.flows.drain(..low);
        let cut = self.route_at[low];
        self.route_links.drain(..cut as usize);
        self.route_at.drain(..low);
        self.route_at.iter_mut().for_each(|a| *a -= cut);
        self.latencies.drain(..low);
        self.later.drain(..low);
        self.missing.drain(..low);
        self.phase.drain(..low);
        self.remaining.drain(..low);
        self.start.drain(..low);
        self.finish.drain(..low);
        self.rate.drain(..low);
        self.release_scheduled.drain(..low);
        self.last_update.drain(..low);
        self.cand.drain(..low);
        self.sched_cand.drain(..low);
        self.flow_seen.drain(..low);
        self.flow_comp.drain(..low);
        // Between steps the lists hold live flows only, all at or above
        // `low`: the unsettled, active and ready lists and each link's
        // transmitting flows. Blocks and edges hold distances, which stay.
        let shift = |list: &mut Vec<usize>| list.iter_mut().for_each(|i| *i -= low);
        shift(&mut self.unsettled);
        shift(&mut self.active);
        shift(&mut self.comp_stack);
        self.flows_on_link.iter_mut().for_each(shift);
        self.settled_below = 0;
        self.gated -= low;
        self.key_base += low;
    }

    /// Timestamp of the next pending event, if any — including the release
    /// of a flow injected since the last step, whose wake-up the promotion
    /// scan has not scheduled yet.
    #[must_use]
    pub fn peek_time(&self) -> Option<f64> {
        match (self.kernel.peek_time(), self.pending_release) {
            (Some(p), Some(r)) => Some(p.min(r)),
            (peek, pending) => peek.or(pending),
        }
    }

    /// Process the next event instant: promote newly eligible flows,
    /// re-solve the dirty contention component, pop the next live batch and
    /// apply its completions, then its faults. Returns the batch instant,
    /// or `None` when the engine is idle (every injected flow settled;
    /// under faults, flows stranded behind failed ones are failed too).
    /// Under faults the engine is idle as soon as no flow is live: later
    /// fault events and stale wake-ups have nothing left to act on.
    ///
    /// # Errors
    /// [`NetError::StalledFlow`] when a flow is frozen at rate zero (other
    /// than suspended on a dark link), and the "unreachable flows" error
    /// when the queue drains with unfinished flows.
    pub fn step(&mut self) -> Result<Option<f64>> {
        if self.faults.is_some() && self.live_flows() == 0 {
            return Ok(None);
        }
        self.pending_release = None;
        let now = self.kernel.now();

        // Promote flows whose gates opened or timers expired. A pass visits,
        // in ascending index order, the unsettled list merged with the
        // ready list: exactly the flows the closed path's full index scan
        // acts on, in its order (blocked flows still missing a dependency
        // are no-ops there). Completions of zero-byte flows can unblock
        // dependents at the same instant; those join the ready list ahead
        // of the cursor (deps point backwards) and are visited in the same
        // pass, and passes repeat to a fixpoint.
        self.comp_stack.sort_unstable_by(|a, b| b.cmp(a));
        loop {
            let mut unblocked = false;
            // Scanned flows still unsettled are compacted in place; ready
            // flows still unsettled are appended after the scanned range.
            let scanned = self.unsettled.len();
            let (mut k, mut kept) = (0, 0);
            loop {
                let next = (k < scanned).then(|| self.unsettled[k]);
                let (i, ready) = match self.comp_stack.last() {
                    Some(&r) if next.is_none_or(|s| r < s) => {
                        self.comp_stack.pop();
                        (r, true)
                    }
                    _ => match next {
                        Some(s) => {
                            k += 1;
                            (s, false)
                        }
                        None => break,
                    },
                };
                unblocked |= self.promote(i, now)?;
                if matches!(self.phase[i], Phase::Pending | Phase::Latency(_)) {
                    if ready {
                        self.unsettled.push(i);
                    } else {
                        self.unsettled[kept] = i;
                        kept += 1;
                    }
                }
            }
            // Both runs ascend; sort only when they interleave.
            self.unsettled.drain(kept..scanned);
            if kept > 0
                && self.unsettled.len() > kept
                && self.unsettled[kept - 1] > self.unsettled[kept]
            {
                self.unsettled.sort_unstable();
            }
            if !unblocked {
                break;
            }
        }
        // Merge flows activated above into the sorted active list.
        for k in 0..self.newly_active.len() {
            let i = self.newly_active[k];
            let pos = self.active.partition_point(|&a| a < i);
            self.active.insert(pos, i);
        }
        self.newly_active.clear();

        // Re-solve rates, but only over the contention component whose
        // active-flow set changed (identical to the closed path).
        self.resolve_dirty()?;

        // Pop the next batch of same-instant events; purely stale batches
        // advance only the kernel clock. Fault events are always live.
        let batch_time = loop {
            self.batch.clear();
            match self.kernel.pop_batch(&mut self.batch) {
                None => break None,
                Some(t) => {
                    let mut live = false;
                    // Events name flow indices. A stale one can name a flow
                    // whose state a closed driver let the engine drop: it
                    // settled, so the event is dead.
                    for ev in &self.batch {
                        let at = |i: usize| i.checked_sub(self.key_base);
                        match *ev {
                            Ev::Release(i) => {
                                live |= at(i).is_some_and(|i| self.phase[i] == Phase::Pending);
                            }
                            Ev::Timer(i) => {
                                live |= at(i)
                                    .is_some_and(|i| matches!(self.phase[i], Phase::Latency(_)));
                            }
                            Ev::Complete(i) => {
                                let Some(i) = at(i) else { continue };
                                if self.sched_cand[i].to_bits() == t.to_bits() {
                                    self.sched_cand[i] = f64::INFINITY;
                                }
                                live |= self.phase[i] == Phase::Active
                                    && self.cand[i].to_bits() == t.to_bits();
                            }
                            Ev::Fault(_) => live = true,
                        }
                    }
                    if live {
                        break Some(t);
                    }
                }
            }
        };
        let Some(next) = batch_time else {
            if self.live_flows() == 0 || self.strand() {
                return Ok(None);
            }
            return Err(NetError::BadConfig("unreachable flows in dependency DAG"));
        };
        let dt = (next - now).max(0.0);

        // Attribute the current rate allocation to jobs over [now, next]:
        // each transmitting flow's max-min rate is constant on the
        // interval. The active list is ascending, so the per-job float
        // sums accumulate in closed-path index order. Suspended flows
        // (rate zero during a flap) neither transmit nor count as busy.
        self.busy_jobs.clear();
        for &i in &self.active {
            if self.rate[i].is_finite() && self.rate[i] > 0.0 {
                let j = self.flows[i].job();
                if !self.job_busy[j] {
                    self.job_busy[j] = true;
                    self.busy_jobs.push(j);
                }
                self.job_agg_rate[j] += self.rate[i];
            }
        }
        for &j in &self.busy_jobs {
            self.job_peak_rate[j] = self.job_peak_rate[j].max(self.job_agg_rate[j]);
            if dt > 0.0 {
                self.job_active_s[j] += dt;
                self.job_service_bytes[j] += self.job_agg_rate[j] * dt;
            }
            self.job_busy[j] = false;
            self.job_agg_rate[j] = 0.0;
        }

        // Apply the instant: completions are found by candidate bits in
        // index order, not by event carrier (see the closed path).
        let nb = next.to_bits();
        let mut completed_any = false;
        for k in 0..self.active.len() {
            let i = self.active[k];
            if self.cand[i].to_bits() == nb {
                completed_any = true;
                self.remaining[i] = 0.0;
                self.phase[i] = Phase::Done;
                self.finish[i] = next;
                self.n_done += 1;
                for x in self.span(i) {
                    let l = self.route_links[x] as usize;
                    self.flows_on_link[l].retain(|&f| f != i);
                    self.dirty.push(l);
                }
                self.release_dependents(i);
                self.settle_lists(i);
                self.completed.push(i);
            }
        }
        if completed_any {
            let phase = &self.phase;
            self.active.retain(|&i| phase[i] == Phase::Active);
        }
        // ... then the faults coalesced at this instant.
        if self.faults.is_some() {
            self.apply_faults(next);
        }
        Ok(Some(next))
    }

    /// Visit flow `i` in a promotion pass at `now`. Returns whether the
    /// visit unblocked anything, which makes the pass repeat.
    ///
    /// # Errors
    /// [`NetError::BadConfig`] when a wake-up cannot be scheduled (a
    /// latency expiry or release that is not a finite instant at or after
    /// the clock).
    fn promote(&mut self, i: usize, now: f64) -> Result<bool> {
        match self.phase[i] {
            Phase::Pending if self.flows[i].release_s <= now + EPS => {
                self.start[i] = now;
                // Zero-byte control gates skip the latency pipe.
                let pipe = if self.remaining[i] <= EPS {
                    self.flows[i].delay_s
                } else {
                    self.flows[i].delay_s + self.latencies[i]
                };
                if pipe > 0.0 {
                    self.phase[i] = Phase::Latency(now + pipe);
                    self.kernel
                        .schedule_at(now + pipe, Ev::Timer(self.key_base + i))
                        .map_err(|_| NetError::BadConfig("latency expiry precedes the clock"))?;
                } else if self.remaining[i] <= EPS {
                    return Ok(self.settle_zero_byte(i, now));
                } else {
                    self.activate(i);
                }
            }
            Phase::Latency(t) if t <= now + EPS => {
                if self.remaining[i] <= EPS {
                    return Ok(self.settle_zero_byte(i, now.max(t)));
                }
                self.activate(i);
            }
            // Release still in the future: schedule its wake-up once (see
            // the closed path for the stale-event tolerance).
            Phase::Pending if !self.release_scheduled[i] => {
                self.release_scheduled[i] = true;
                self.kernel
                    .schedule_at(self.flows[i].release_s, Ev::Release(self.key_base + i))
                    .map_err(|_| NetError::BadConfig("pending release precedes the clock"))?;
            }
            Phase::Blocked if self.missing[i] == 0 => {
                self.phase[i] = Phase::Pending;
                return Ok(true);
            }
            _ => {}
        }
        Ok(false)
    }

    fn activate(&mut self, i: usize) {
        self.phase[i] = Phase::Active;
        for x in self.span(i) {
            let l = self.route_links[x] as usize;
            self.flows_on_link[l].push(i);
            self.dirty.push(l);
        }
        self.newly_active.push(i);
    }

    /// Count one settled predecessor for every dependent of `i` — in its
    /// batch's block, then in its edge list, whose edges return to the free
    /// list; each dependent left with none joins the ready list, which the
    /// next promotion pass sorts. Returns whether `i` has dependents.
    fn release_dependents(&mut self, i: usize) -> bool {
        let mut any = false;
        let b = self.flows[i].block as usize;
        if let Some(block) = self.blocks.get(b) {
            let k = self.key_base + i - block.first;
            let n = block.dependents(k).len();
            any = n > 0;
            for e in 0..n {
                let ahead = self.blocks[b].dependents(k)[e];
                self.unblock(i + ahead as usize);
            }
        }
        let mut e = std::mem::replace(&mut self.later[i], NIL);
        while let Some(edge) = self.pool.get_mut(e as usize) {
            let Edge { ahead, next } = *edge;
            edge.next = self.free_edge;
            self.free_edge = e;
            e = next;
            self.unblock(i + ahead as usize);
            any = true;
        }
        any
    }

    /// Count one settled predecessor of flow `j`.
    fn unblock(&mut self, j: usize) {
        self.missing[j] -= 1;
        if self.missing[j] == 0 {
            self.gated = self.gated.max(j + 1);
            self.comp_stack.push(j);
        }
    }

    /// Count settled flow `i` off its batch's block: the batch's last flow
    /// to settle frees the block. Runs under faults keep every list.
    fn settle_lists(&mut self, i: usize) {
        if self.faults.is_some() {
            return;
        }
        let b = self.flows[i].block;
        if let Some(block) = self.blocks.get_mut(b as usize) {
            block.unsettled -= 1;
            if block.unsettled == 0 {
                block.data = Vec::new();
                self.free_blocks.push(b);
            }
        }
    }

    /// Complete a zero-byte control gate at `finish`, inside a promotion
    /// pass; returns whether it had dependents.
    fn settle_zero_byte(&mut self, i: usize, finish: f64) -> bool {
        self.phase[i] = Phase::Done;
        self.finish[i] = finish;
        self.n_done += 1;
        let listed = self.comp_stack.len();
        let unblocked = self.release_dependents(i);
        if self.comp_stack.len() > listed {
            // The new entries lie ahead of the pass's cursor: restore the
            // descending order so the pass reaches them at their index.
            self.comp_stack.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.settle_lists(i);
        self.completed.push(i);
        unblocked
    }

    /// Apply the faults of the current batch, after its completions.
    fn apply_faults(&mut self, now: f64) {
        let mut any = false;
        let mut fail_jobs: Vec<usize> = Vec::new();
        for k in 0..self.batch.len() {
            let (Ev::Fault(e), Some(f)) = (self.batch[k], self.faults.as_deref_mut()) else {
                continue;
            };
            any = true;
            let policy = f.policy;
            match f.script[e] {
                FaultKind::LinkDegrade { link, factor } => {
                    // A degrade that catches flows mid-flight is the fault's
                    // first observable impact; a restore (factor rising) is
                    // recovery, not impact.
                    if factor < f.link_factor[link] && !self.flows_on_link[link].is_empty() {
                        f.first_impact_s.get_or_insert(now);
                    }
                    f.link_factor[link] = factor;
                    self.dirty.push(link);
                }
                FaultKind::NodeStraggle { node, slowdown } => {
                    f.node_slow[node] = f.node_slow[node].max(slowdown);
                    for (i, fl) in self.flows.iter().enumerate() {
                        let slow = f.node_slow[fl.src()].max(f.node_slow[fl.dst()]);
                        if (fl.src() == node || fl.dst() == node) && slow > f.flow_slow[i] {
                            f.flow_slow[i] = slow;
                            if self.phase[i] == Phase::Active {
                                f.first_impact_s.get_or_insert(now);
                                let span = self.route_at[i] as usize..self.route_at[i + 1] as usize;
                                self.dirty
                                    .extend(self.route_links[span].iter().map(|&l| l as usize));
                            }
                        }
                    }
                }
                FaultKind::NodeDown { node } => {
                    // Ascending index order lets failure cascade through
                    // dependents that also touch the node in one sweep.
                    for i in 0..self.flows.len() {
                        let fl = &self.flows[i];
                        if (fl.src() != node && fl.dst() != node)
                            || matches!(self.phase[i], Phase::Done | Phase::Failed)
                        {
                            continue;
                        }
                        let job = fl.job();
                        if self.fail_flow(i, now) {
                            if let Some(f) = self.faults.as_deref_mut() {
                                f.aborted[i] += 1;
                            }
                        }
                        if policy == FaultPolicy::FailJob {
                            fail_jobs.push(job);
                        } else {
                            self.release_dependents(i);
                        }
                    }
                }
                // Lowered away by `set_faults`.
                FaultKind::LinkFlap { .. }
                | FaultKind::WavelengthDown { .. }
                | FaultKind::WavelengthUp { .. } => {}
            }
        }
        if !any {
            return;
        }
        if !fail_jobs.is_empty() {
            for i in 0..self.flows.len() {
                if fail_jobs.contains(&self.flows[i].job())
                    && !matches!(self.phase[i], Phase::Done | Phase::Failed)
                {
                    self.fail_flow(i, now);
                }
            }
        }
        let phase = &self.phase;
        self.unsettled.retain(|&i| {
            matches!(
                phase[i],
                Phase::Blocked | Phase::Pending | Phase::Latency(_)
            )
        });
        self.active.retain(|&i| phase[i] == Phase::Active);
    }

    /// Fail flow `i` permanently, releasing its links if it was
    /// transmitting. Returns whether it was (an abort).
    fn fail_flow(&mut self, i: usize, now: f64) -> bool {
        let active = self.phase[i] == Phase::Active;
        if active {
            for x in self.span(i) {
                let l = self.route_links[x] as usize;
                self.flows_on_link[l].retain(|&f| f != i);
                self.dirty.push(l);
            }
        }
        self.phase[i] = Phase::Failed;
        self.completed.push(i);
        if let Some(f) = self.faults.as_deref_mut() {
            f.failed += 1;
            f.first_impact_s.get_or_insert(now);
        }
        active
    }

    /// Under faults, a drained queue with unfinished flows means they are
    /// stranded behind failed ones (e.g. cross-job dependents under
    /// `FailJob`): casualties, not a malformed DAG. Returns whether the
    /// stranded flows were failed.
    fn strand(&mut self) -> bool {
        let Some(f) = self.faults.as_deref_mut() else {
            return false;
        };
        if f.failed == 0 {
            return false;
        }
        for (i, p) in self.phase.iter_mut().enumerate() {
            if !matches!(*p, Phase::Done | Phase::Failed) {
                *p = Phase::Failed;
                f.failed += 1;
                self.completed.push(i);
            }
        }
        self.unsettled.clear();
        self.comp_stack.clear();
        self.active.clear();
        true
    }

    /// A dark link (flap in progress) suspends its flows at rate zero:
    /// progress freezes until the restoring fault dirties the link again.
    fn suspended(&self, f: usize) -> bool {
        // wrht-analyze: allow(r6, reason = "exact-zero sentinel: suspension assigns the literal 0.0 rate, never a computed value")
        let zero_rate = self.rate[f] == 0.0;
        zero_rate
            && self.faults.as_deref().is_some_and(|ft| {
                self.route_links[self.span(f)]
                    .iter()
                    // wrht-analyze: allow(r6, reason = "exact-zero sentinel: a dark link's factor is the literal 0.0, never a computed value")
                    .any(|&l| ft.link_factor[l as usize] == 0.0)
            })
    }

    /// Incremental per-component max-min re-solve (bit-identical to the
    /// closed path's), with faulted capacities and straggle caps layered on
    /// top of the clean arithmetic when faults are installed.
    fn resolve_dirty(&mut self) -> Result<()> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        let now = self.kernel.now();
        self.comp_links.clear();
        self.comp_flows.clear();
        let mut n_comps = 0usize;
        for s in 0..self.dirty.len() {
            let seed = self.dirty[s];
            if self.link_seen[seed] {
                continue;
            }
            self.link_seen[seed] = true;
            self.comp_links.push(seed);
            self.comp_stack.push(seed);
            let mut found_flow = false;
            while let Some(l) = self.comp_stack.pop() {
                for f_idx in 0..self.flows_on_link[l].len() {
                    let f = self.flows_on_link[l][f_idx];
                    if !self.flow_seen[f] {
                        self.flow_seen[f] = true;
                        self.flow_comp[f] = u32::try_from(n_comps).map_err(|_| {
                            NetError::BadConfig("contention component count overflows")
                        })?;
                        self.comp_flows.push(f);
                        found_flow = true;
                        for x in self.span(f) {
                            let l2 = self.route_links[x] as usize;
                            if !self.link_seen[l2] {
                                self.link_seen[l2] = true;
                                self.comp_links.push(l2);
                                self.comp_stack.push(l2);
                            }
                        }
                    }
                }
            }
            if found_flow {
                n_comps += 1;
            }
        }
        // The fill visits flows and links in ascending order. Every flow
        // found is transmitting, so a component that is a large share of
        // the sorted active list (or of the links) is read off it (or off
        // the link flags); a small one is sorted.
        if self.comp_flows.len() >= self.active.len() / SCAN_SHARE {
            let seen = &self.flow_seen;
            self.comp_flows.clear();
            self.comp_flows
                .extend(self.active.iter().copied().filter(|&f| seen[f]));
        } else {
            self.comp_flows.sort_unstable();
        }
        if self.comp_links.len() >= self.link_seen.len() / SCAN_SHARE {
            let seen = &self.link_seen;
            self.comp_links.clear();
            self.comp_links.extend((0..seen.len()).filter(|&l| seen[l]));
        } else {
            self.comp_links.sort_unstable();
        }
        if !self.comp_flows.is_empty() {
            self.recomputations += 1;
            for &l in &self.comp_links {
                let cap = self.net.links()[l].capacity_bps;
                self.fill.remaining[l] = self
                    .faults
                    .as_deref()
                    .map_or(cap, |f| cap * f.link_factor[l]);
                self.fill.active[l] = self.flows_on_link[l].len();
            }
            self.old_rate_scratch.clear();
            self.old_rate_scratch
                .extend(self.comp_flows.iter().map(|&f| self.rate[f]));
            let (links, at) = (&self.route_links, &self.route_at);
            progressive_fill(
                &self.comp_links,
                &self.comp_flows,
                |f| &links[at[f] as usize..at[f + 1] as usize],
                &mut self.fill,
                &mut self.rate,
                &mut self.solver_work,
            );
            if let Some(ft) = self.faults.as_deref() {
                // Straggle cap: the node processes at 1/slowdown, and the
                // share other flows could have claimed is left on the
                // table (max-min redistribution would hide the straggler).
                for &f in &self.comp_flows {
                    if ft.flow_slow[f] > 1.0 {
                        self.rate[f] /= ft.flow_slow[f];
                    }
                }
            }
            for (k, &f) in self.comp_flows.iter().enumerate() {
                if (self.rate[f].is_nan() || self.rate[f] <= 0.0) && !self.suspended(f) {
                    return Err(NetError::StalledFlow {
                        src: self.flows[f].src(),
                        dst: self.flows[f].dst(),
                    });
                }
                if self.rate[f].to_bits() == self.old_rate_scratch[k].to_bits() {
                    continue;
                }
                self.remaining[f] -= self.old_rate_scratch[k] * (now - self.last_update[f]);
                self.last_update[f] = now;
                // wrht-analyze: allow(r6, reason = "exact-zero sentinel: suspension writes the literal 0.0 rate, never a computed value")
                self.cand[f] = if self.rate[f] == 0.0 {
                    // Suspended: no completion candidate until restored.
                    f64::INFINITY
                } else if self.rate[f].is_finite() {
                    (now + self.remaining[f] / self.rate[f]).max(now)
                } else {
                    now
                };
            }
            self.comp_min.clear();
            self.comp_min.resize(n_comps, (f64::INFINITY, usize::MAX));
            for &f in &self.comp_flows {
                let c = self.flow_comp[f] as usize;
                if self.cand[f] < self.comp_min[c].0 {
                    self.comp_min[c] = (self.cand[f], f);
                }
            }
            for c in 0..self.comp_min.len() {
                let (t, f) = self.comp_min[c];
                if f != usize::MAX && self.sched_cand[f].to_bits() != t.to_bits() {
                    self.sched_cand[f] = t;
                    self.kernel
                        .schedule_at(t, Ev::Complete(self.key_base + f))
                        .map_err(|_| {
                            NetError::BadConfig("completion candidate precedes the clock")
                        })?;
                }
            }
        }
        for &l in &self.comp_links {
            self.link_seen[l] = false;
        }
        for &f in &self.comp_flows {
            self.flow_seen[f] = false;
        }
        self.dirty.clear();
        Ok(())
    }

    /// Events processed so far, including any before a snapshot/restore.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events_base + self.kernel.events_processed()
    }

    /// Flows neither done nor failed.
    #[must_use]
    pub fn live_flows(&self) -> usize {
        self.next_key() - self.n_done - self.faults.as_ref().map_or(0, |f| f.failed)
    }

    /// `(start, finish)` window of flow `i` (zeros until settled; a failed
    /// flow keeps a zero finish).
    #[must_use]
    pub fn window(&self, i: usize) -> (f64, f64) {
        let i = i - self.key_base;
        (self.start[i], self.finish[i])
    }

    /// Instant a fault first failed, aborted or slowed a flow, if any.
    #[must_use]
    pub fn first_impact_s(&self) -> Option<f64> {
        self.faults.as_ref().and_then(|f| f.first_impact_s)
    }

    /// Rate solver invocations so far.
    #[must_use]
    pub fn rate_recomputations(&self) -> usize {
        self.recomputations
    }

    /// Progressive-filling work units so far.
    #[must_use]
    pub fn solver_work(&self) -> usize {
        self.solver_work
    }

    /// Drain the flows settled since the last call — completed, or under
    /// faults failed — in settling order.
    pub fn drain_completions(&mut self) -> impl Iterator<Item = FlowCompletion> + '_ {
        let (flows, phase, start, finish) = (&self.flows, &self.phase, &self.start, &self.finish);
        let aborted = self.faults.as_deref().map(|f| &f.aborted);
        let key_base = self.key_base;
        self.completed.drain(..).map(move |i| FlowCompletion {
            index: key_base + i,
            job: flows[i].job(),
            start_s: start[i],
            finish_s: finish[i],
            aborts: aborted.map_or(0, |a| a[i]),
            failed: phase[i] == Phase::Failed,
        })
    }

    /// Completion time of the last flow so far.
    pub(crate) fn makespan_s(&self) -> f64 {
        self.finish.iter().copied().fold(0.0f64, f64::max)
    }

    /// The rate solution attributed to jobs, indexed by job tag (the
    /// largest tag injected + 1 entries): per job, the time with at least
    /// one transmitting flow, seconds; the bytes delivered (`∫ aggregate
    /// rate dt`); and the largest aggregate max-min allocation ever held,
    /// bytes/s. Between two events every job's aggregate rate is known
    /// exactly, so the engine integrates it over the interval.
    #[must_use]
    pub fn job_rates(&self) -> [&[f64]; 3] {
        [
            &self.job_active_s,
            &self.job_service_bytes,
            &self.job_peak_rate,
        ]
    }

    /// Flow `i`'s dependencies as flow indices, in injection order.
    fn deps_of(&self, i: usize) -> Vec<usize> {
        let key = self.key_base + i;
        self.blocks
            .get(self.flows[i].block as usize)
            .map_or_else(Vec::new, |b| {
                let back = b.deps(key - b.first).iter();
                back.map(|&d| key - d as usize).collect()
            })
    }

    /// Flow `i`'s dependents as flow indices, ascending: those of its own
    /// batch, then those of later batches.
    fn dependents_of(&self, i: usize) -> Vec<usize> {
        let key = self.key_base + i;
        let mut out: Vec<usize> =
            self.blocks
                .get(self.flows[i].block as usize)
                .map_or_else(Vec::new, |b| {
                    let ahead = b.dependents(key - b.first).iter();
                    ahead.map(|&d| key + d as usize).collect()
                });
        let mut e = self.later[i];
        while let Some(edge) = self.pool.get(e as usize) {
            out.push(key + edge.ahead as usize);
            e = edge.next;
        }
        out.sort_unstable();
        out
    }

    /// Capture the full mutable state as a versioned snapshot. Completions
    /// not yet drained are included and survive the round-trip. Each flow
    /// lists its dependencies, route and dependents until it completes.
    /// An engine that dropped a settled prefix
    /// ([`FluidEngine::forget_settled`]) has no image.
    #[must_use]
    pub fn snapshot(&self) -> FluidEngineSnapshot {
        debug_assert_eq!(self.key_base, 0, "snapshot of a forgetful engine");
        let n = self.flows.len();
        let listed = |i: usize| self.phase[i] != Phase::Done;
        FluidEngineSnapshot {
            version: SNAPSHOT_VERSION,
            now: self.kernel.now().to_bits(),
            events: self.events(),
            flows: (0..n)
                .map(|i| {
                    let f = &self.flows[i];
                    EngineFlow {
                        src: f.src(),
                        dst: f.dst(),
                        bytes: f.bytes,
                        release_s: f.release_s,
                        delay_s: f.delay_s,
                        deps: if listed(i) {
                            self.deps_of(i)
                        } else {
                            Vec::new()
                        },
                        job: f.job(),
                    }
                })
                .collect(),
            routes: (0..n)
                .map(|i| {
                    let route = if listed(i) { self.span(i) } else { 0..0 };
                    let links = self.route_links[route].iter();
                    links.map(|&l| LinkId(l as usize)).collect()
                })
                .collect(),
            latencies: to_bits(&self.latencies),
            dependents: (0..n)
                .map(|i| {
                    if listed(i) {
                        self.dependents_of(i)
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            missing: self.missing.iter().map(|&m| m as usize).collect(),
            phase: self.phase.clone(),
            remaining: to_bits(&self.remaining),
            start: to_bits(&self.start),
            finish: to_bits(&self.finish),
            rate: to_bits(&self.rate),
            release_scheduled: self.release_scheduled.clone(),
            last_update: to_bits(&self.last_update),
            cand: to_bits(&self.cand),
            sched_cand: to_bits(&self.sched_cand),
            dirty: self.dirty.clone(),
            completed: self.completed.clone(),
            recomputations: self.recomputations,
            solver_work: self.solver_work,
            job_active_s: to_bits(&self.job_active_s),
            job_service_bytes: to_bits(&self.job_service_bytes),
            job_peak_rate: to_bits(&self.job_peak_rate),
            job_free: self.job_free.clone(),
            next_job: self.next_job,
            pending_release: self.pending_release.map(f64::to_bits),
            pending: self
                .kernel
                .pending()
                .into_iter()
                .map(|(t, ev)| (t.to_bits(), *ev))
                .collect(),
        }
    }

    /// Rebuild an engine from a snapshot taken over an identical network.
    /// The resumed run is byte-identical to an uninterrupted one. The
    /// image's flows become one batch: their lists go into one block.
    ///
    /// # Errors
    /// Rejects unknown snapshot versions, corrupt clocks/events, and
    /// images that do not fit the engine: per-flow tables of different
    /// lengths, out-of-range flow, link, host and job references, and
    /// tables too wide for the engine's 32-bit indices.
    pub fn restore(net: &'a Network, snap: &FluidEngineSnapshot) -> Result<Self> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(NetError::BadConfig(
                "unsupported fluid-engine snapshot version",
            ));
        }
        check_snapshot(net, snap).map_err(NetError::BadConfig)?;
        let mut eng = Self::new(net);
        eng.kernel
            .fast_forward(f64::from_bits(snap.now))
            .map_err(|_| NetError::BadConfig("snapshot clock must be finite and >= 0"))?;
        for &(t, ev) in &snap.pending {
            eng.kernel
                .schedule_at(f64::from_bits(t), ev)
                .map_err(|_| NetError::BadConfig("snapshot event precedes its clock"))?;
        }
        eng.restore_lists(snap)?;
        eng.latencies = from_bits(&snap.latencies);
        eng.missing = snap
            .missing
            .iter()
            .map(|&m| u32::try_from(m).map_err(|_| WIDE))
            .collect::<Result<_>>()?;
        eng.phase = snap.phase.clone();
        eng.remaining = from_bits(&snap.remaining);
        eng.start = from_bits(&snap.start);
        eng.finish = from_bits(&snap.finish);
        eng.rate = from_bits(&snap.rate);
        eng.release_scheduled = snap.release_scheduled.clone();
        eng.last_update = from_bits(&snap.last_update);
        eng.cand = from_bits(&snap.cand);
        eng.sched_cand = from_bits(&snap.sched_cand);
        eng.dirty = snap.dirty.clone();
        eng.completed = snap.completed.clone();
        eng.recomputations = snap.recomputations;
        eng.solver_work = snap.solver_work;
        eng.events_base = snap.events;
        eng.job_active_s = from_bits(&snap.job_active_s);
        eng.job_service_bytes = from_bits(&snap.job_service_bytes);
        eng.job_peak_rate = from_bits(&snap.job_peak_rate);
        eng.job_free = snap.job_free.clone();
        eng.next_job = snap.next_job;
        eng.pending_release = snap.pending_release.map(f64::from_bits);
        for i in 0..eng.phase.len() {
            match eng.phase[i] {
                // A blocked flow whose last dependency completed before the
                // snapshot was on the ready list: the next pass visits it.
                Phase::Blocked if eng.missing[i] > 0 => {}
                Phase::Blocked | Phase::Pending | Phase::Latency(_) => eng.unsettled.push(i),
                Phase::Active => {
                    eng.active.push(i);
                    for x in eng.span(i) {
                        let l = eng.route_links[x] as usize;
                        eng.flows_on_link[l].push(i);
                    }
                }
                Phase::Done => eng.n_done += 1,
                Phase::Failed => {}
            }
        }
        let n = eng.flows.len();
        eng.flow_seen = vec![false; n];
        eng.flow_comp = vec![0; n];
        eng.later = vec![NIL; n];
        eng.peak_held = n;
        // Streams never ask for the frontier: every flow counts.
        eng.gated = n;
        let jobs = eng.job_active_s.len();
        eng.job_agg_rate = vec![0.0; jobs];
        eng.job_busy = vec![false; jobs];
        Ok(eng)
    }

    /// The flow table, route arena and lists of a checked snapshot: every
    /// flow's lists go into one block, unless none has any.
    fn restore_lists(&mut self, s: &FluidEngineSnapshot) -> Result<()> {
        let n = s.flows.len();
        if u32::try_from(self.net.links().len()).is_err() {
            return Err(WIDE);
        }
        let deps: usize = s.flows.iter().map(|f| f.deps.len()).sum();
        let inner: usize = s.dependents.iter().map(Vec::len).sum();
        let len = 2 * (n + 1) + deps + inner;
        let block = match deps + inner {
            0 => NIL,
            _ if len > NIL as usize => return Err(WIDE),
            _ => 0,
        };
        let narrow = |v: usize| u32::try_from(v).map_err(|_| WIDE);
        self.flows = s
            .flows
            .iter()
            .map(|f| {
                Ok(Flow {
                    src: narrow(f.src)?,
                    dst: narrow(f.dst)?,
                    job: narrow(f.job)?,
                    block,
                    bytes: f.bytes,
                    release_s: f.release_s,
                    delay_s: f.delay_s,
                })
            })
            .collect::<Result<_>>()?;
        for route in &s.routes {
            // In range: links fit in 32 bits (checked above), and the
            // check named only existing ones.
            self.route_links.extend(route.iter().map(|l| l.0 as u32));
            self.route_at.push(narrow(self.route_links.len())?);
        }
        if block == NIL {
            return Ok(());
        }
        // In range: the block fits in 32 bits, so do its offsets and the
        // distances between its flows, which the check orders.
        let mut data = vec![0u32; len];
        let mut at = 2 * (n + 1);
        for (k, f) in s.flows.iter().enumerate() {
            data[k] = at as u32;
            for &d in &f.deps {
                data[at] = (k - d) as u32;
                at += 1;
            }
        }
        data[n] = at as u32;
        for (k, list) in s.dependents.iter().enumerate() {
            data[n + 1 + k] = at as u32;
            for &j in list {
                data[at] = (j - k) as u32;
                at += 1;
            }
        }
        data[2 * n + 1] = at as u32;
        let unsettled = s
            .phase
            .iter()
            .filter(|p| !matches!(p, Phase::Done | Phase::Failed))
            .count();
        self.blocks.push(Block {
            first: 0,
            len: n as u32,
            unsettled: unsettled as u32,
            data,
        });
        Ok(())
    }
}

/// Structural check of a snapshot against the network it resumes on:
/// every index the engine dereferences must name an existing flow, link,
/// host or job, and the per-flow index lists must agree with the phases,
/// so a corrupt image is rejected here rather than panicking mid-run.
fn check_snapshot(net: &Network, s: &FluidEngineSnapshot) -> std::result::Result<(), &'static str> {
    let n = s.flows.len();
    let links = net.links().len();
    let lengths = [
        s.routes.len(),
        s.latencies.len(),
        s.dependents.len(),
        s.missing.len(),
        s.phase.len(),
        s.remaining.len(),
        s.start.len(),
        s.finish.len(),
        s.rate.len(),
        s.release_scheduled.len(),
        s.last_update.len(),
        s.cand.len(),
        s.sched_cand.len(),
    ];
    let jobs = s.job_active_s.len();
    if lengths.iter().any(|&len| len != n)
        || s.job_service_bytes.len() != jobs
        || s.job_peak_rate.len() != jobs
    {
        return Err("snapshot tables do not match the flow table or the network");
    }
    let mut refs = vec![0usize; n];
    let time = |t: f64| t.is_finite() && t >= 0.0;
    for (i, f) in s.flows.iter().enumerate() {
        if !(time(f.release_s) && time(f.delay_s) && time(f64::from_bits(s.latencies[i])))
            || f.job >= jobs
            || f.src >= net.hosts()
            || f.dst >= net.hosts()
            || f.deps.iter().any(|&d| d >= i)
            || s.routes[i].iter().any(|l| l.0 >= links)
            || s.dependents[i].iter().any(|&d| d >= n || d <= i)
        {
            return Err("snapshot flow has a bad time or names an unknown job, host, link or flow");
        }
        s.dependents[i].iter().for_each(|&d| refs[d] += 1);
    }
    if refs.iter().zip(&s.missing).any(|(&r, &m)| r > m) {
        return Err("snapshot flow has more live predecessors than missing edges");
    }
    if s.completed.iter().any(|&i| i >= n) || s.dirty.iter().any(|&l| l >= links) {
        return Err("snapshot names an unknown completed flow or dirty link");
    }
    for &(_, ev) in &s.pending {
        match ev {
            Ev::Release(i) | Ev::Timer(i) | Ev::Complete(i) if i < n => {}
            _ => return Err("snapshot event names an unknown flow or a fault"),
        }
    }
    // Memory bounded by the image, whatever the job counter claims.
    let mut free = s.job_free.clone();
    free.sort_unstable();
    if free.last().is_some_and(|&j| j >= s.next_job) || free.windows(2).any(|w| w[0] == w[1]) {
        return Err("snapshot job free list names an unknown or repeated job");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star_cluster;

    fn flow(src: usize, dst: usize, bytes: u64, release_s: f64, deps: Vec<usize>) -> EngineFlow {
        EngineFlow {
            src,
            dst,
            bytes,
            release_s,
            delay_s: 0.0,
            deps,
            job: 0,
        }
    }

    #[test]
    fn incremental_injection_matches_upfront_injection() {
        let net = star_cluster(8, 1e9, 500e-9);
        let all = vec![
            flow(0, 1, 1_000_000, 0.0, vec![]),
            flow(1, 2, 700_000, 0.0, vec![0]),
            flow(3, 4, 900_000, 5e-4, vec![]),
        ];
        let mut up = FluidEngine::new(&net);
        up.inject(&all).unwrap();
        while up.step().unwrap().is_some() {}

        let mut inc = FluidEngine::new(&net);
        inc.inject(&all[..2]).unwrap();
        let mut injected = false;
        loop {
            if !injected && inc.peek_time().is_none_or(|p| p >= 5e-4) {
                inc.inject(&all[2..]).unwrap();
                injected = true;
            }
            if inc.step().unwrap().is_none() && injected {
                break;
            }
        }
        assert_eq!(up.events(), inc.events());
        for i in 0..all.len() {
            assert_eq!(up.window(i).1.to_bits(), inc.window(i).1.to_bits());
        }
    }

    /// Step `eng` to idle, draining after every step and letting it drop
    /// its settled prefix, as the closed driver does.
    fn drain_forgetting(eng: &mut FluidEngine<'_>, out: &mut Vec<(usize, u64, u64)>) {
        loop {
            let more = eng.step().unwrap().is_some();
            out.extend(
                eng.drain_completions()
                    .map(|c| (c.index, c.start_s.to_bits(), c.finish_s.to_bits())),
            );
            eng.forget_settled();
            if !more {
                break;
            }
        }
    }

    #[test]
    fn cross_batch_dependencies_match_one_batch_and_prefixes_drop() {
        // A chain of stages: each flow depends on the previous stage's
        // flows with its source as an endpoint. Stage k+1 is injected
        // once stage k is gated, as a streaming driver does.
        let net = star_cluster(4, 1e9, 500e-9);
        let n = 4;
        let stages = 12;
        let all: Vec<EngineFlow> = (0..stages * n)
            .map(|i| {
                let (stage, src) = (i / n, i % n);
                let deps = if stage == 0 {
                    vec![]
                } else {
                    vec![i - n, (stage - 1) * n + (src + n - 1) % n]
                };
                flow(
                    src,
                    (src + 1) % n,
                    100_000 * (1 + (i % 3) as u64),
                    0.0,
                    deps,
                )
            })
            .collect();
        let mut whole = FluidEngine::new(&net);
        whole.inject(&all).unwrap();
        let mut expected = Vec::new();
        drain_to_idle(&mut whole, &mut expected);
        expected.sort_unstable();

        let mut eng = FluidEngine::new(&net);
        let mut got = Vec::new();
        let mut written = 0;
        loop {
            while written < all.len() && written < eng.frontier() + n {
                eng.inject(&all[written..written + n]).unwrap();
                written += n;
            }
            let more = eng.step().unwrap().is_some();
            got.extend(
                eng.drain_completions()
                    .map(|c| (c.index, c.start_s.to_bits(), c.finish_s.to_bits())),
            );
            eng.forget_settled();
            if !more && written == all.len() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(
            (eng.events(), eng.rate_recomputations(), eng.solver_work()),
            (
                whole.events(),
                whole.rate_recomputations(),
                whole.solver_work()
            )
        );
        assert_eq!(whole.peak_held(), all.len());
        // A few stages, not all twelve.
        assert!(eng.peak_held() <= 6 * n, "held {}", eng.peak_held());
    }

    /// A flow that completes earlier than a completion event already
    /// scheduled for it leaves that event stale; when it pops, the flow's
    /// state may have been dropped. Flow 0 shares host 1's downlink with
    /// flow 3 until flows 4 and 5 squeeze flow 3 on host 2's uplink: flow 0
    /// speeds up, completes at 475 us, and is dropped with the short flows
    /// 1 and 2 before its stale event at 600 us pops.
    #[test]
    fn stale_events_of_dropped_flows_are_dead() {
        let net = star_cluster(6, 1e9, 0.0);
        let all = vec![
            flow(0, 1, 300_000, 0.0, vec![]),
            flow(4, 5, 1_000, 0.0, vec![]),
            flow(5, 4, 1_000, 0.0, vec![]),
            flow(2, 1, 3_000_000, 0.0, vec![]),
            flow(2, 3, 3_000_000, 100e-6, vec![]),
            flow(2, 4, 3_000_000, 100e-6, vec![]),
        ];
        let mut whole = FluidEngine::new(&net);
        whole.inject(&all).unwrap();
        let mut expected = Vec::new();
        drain_to_idle(&mut whole, &mut expected);

        let mut eng = FluidEngine::new(&net);
        eng.inject(&all).unwrap();
        let mut got = Vec::new();
        let mut dropped_before_600us = false;
        loop {
            let at = eng.step().unwrap();
            got.extend(
                eng.drain_completions()
                    .map(|c| (c.index, c.start_s.to_bits(), c.finish_s.to_bits())),
            );
            eng.forget_settled();
            dropped_before_600us |= eng.key_base == 3 && at.is_some_and(|t| t < 600e-6);
            if at.is_none() {
                break;
            }
        }
        assert!(dropped_before_600us);
        assert_eq!(got, expected);
        assert_eq!(eng.events(), whole.events());
    }

    #[test]
    fn bad_dependencies_are_typed_errors_before_any_state_change() {
        let net = star_cluster(4, 1e9, 0.0);
        let mut eng = FluidEngine::new(&net);
        eng.inject(&[
            flow(0, 1, 1_000, 0.0, vec![]),
            flow(2, 3, 9_000_000, 0.0, vec![]),
        ])
        .unwrap();
        let mut drained = Vec::new();
        while drained.is_empty() {
            eng.step().unwrap();
            drained.extend(eng.drain_completions().map(|c| c.index));
        }
        // Flow 0 has settled; flow 1 is still transmitting.
        assert_eq!(drained, vec![0]);
        let events = eng.events();
        for deps in [vec![7], vec![2], vec![0]] {
            // Out of range, not yet injected (the flow itself), settled.
            assert!(matches!(
                eng.inject(&[flow(1, 2, 1_000, 0.0, deps)]),
                Err(NetError::BadConfig(_))
            ));
            assert_eq!((eng.next_key(), eng.peak_held()), (2, 2));
        }
        assert_eq!(eng.frontier(), 2);
        eng.inject(&[flow(1, 2, 1_000, 0.0, vec![1])]).unwrap();
        drain_forgetting(&mut eng, &mut Vec::new());
        assert_eq!(eng.events(), events + 2);
        assert_eq!(eng.live_flows(), 0);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let net = star_cluster(8, 1e9, 500e-9);
        let all = vec![
            flow(0, 1, 1_000_000, 0.0, vec![]),
            flow(0, 2, 700_000, 0.0, vec![]),
            flow(1, 2, 900_000, 0.0, vec![0]),
            flow(5, 6, 400_000, 3e-4, vec![]),
        ];
        let mut full = FluidEngine::new(&net);
        full.inject(&all).unwrap();
        while full.step().unwrap().is_some() {}

        let mut eng = FluidEngine::new(&net);
        eng.inject(&all).unwrap();
        eng.step().unwrap();
        eng.step().unwrap();
        let json = serde_json::to_string(&eng.snapshot()).unwrap();
        let snap: FluidEngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = FluidEngine::restore(&net, &snap).unwrap();
        while resumed.step().unwrap().is_some() {}

        assert_eq!(full.events(), resumed.events());
        assert_eq!(full.solver_work(), resumed.solver_work());
        for i in 0..all.len() {
            assert_eq!(full.window(i).1.to_bits(), resumed.window(i).1.to_bits());
        }
    }

    /// Step `eng` to idle, appending every drained completion as
    /// `(index, start bits, finish bits)`. The step that finds the engine
    /// idle can still settle zero-byte gates in its promotion pass.
    fn drain_to_idle(eng: &mut FluidEngine<'_>, out: &mut Vec<(usize, u64, u64)>) {
        loop {
            let more = eng.step().unwrap().is_some();
            out.extend(
                eng.drain_completions()
                    .map(|c| (c.index, c.start_s.to_bits(), c.finish_s.to_bits())),
            );
            if !more {
                break;
            }
        }
    }

    /// A zero-byte gate whose launch timer expires in the same batch as a
    /// payload completion unblocks its dependent mid-pass, between two
    /// gates the completion made ready. The pass visits all three at their
    /// index, so they settle in index order: the order and windows a scan
    /// of every unsettled flow produced.
    #[test]
    fn gates_unblocked_mid_pass_settle_in_index_order() {
        let net = star_cluster(8, 1e9, 0.0);
        let gate_timer = EngineFlow {
            delay_s: 1e-3,
            ..flow(2, 3, 0, 0.0, vec![])
        };
        let all = vec![
            flow(0, 1, 1_000_000, 0.0, vec![]), // done at 1 ms
            gate_timer,                         // settles at 1 ms, first pass
            flow(3, 4, 0, 0.0, vec![0]),        // ready from 0's completion
            flow(4, 5, 0, 0.0, vec![1]),        // unblocked mid-pass by 1
            flow(5, 6, 0, 0.0, vec![0]),        // ready from 0's completion
            flow(6, 7, 500_000, 0.0, vec![2, 3, 4]),
        ];
        let mut eng = FluidEngine::new(&net);
        eng.inject(&all).unwrap();
        let mut drained = Vec::new();
        drain_to_idle(&mut eng, &mut drained);
        let (ms, end) = (1e-3f64.to_bits(), 1.5e-3f64.to_bits());
        assert_eq!(
            drained,
            vec![
                (0, 0, ms),
                (1, 0, ms),
                (2, ms, ms),
                (3, ms, ms),
                (4, ms, ms),
                (5, ms, end)
            ]
        );
        assert_eq!(
            (eng.events(), eng.rate_recomputations(), eng.solver_work()),
            (3, 2, 8)
        );
    }

    /// A flow made ready behind a higher-indexed flow that is waiting on
    /// its timer joins the scan in index order, so when both timers expire
    /// together the lower index settles first.
    #[test]
    fn ready_flows_join_the_scan_in_index_order() {
        let net = star_cluster(8, 1e9, 0.0);
        let gate = |src: usize, delay_s: f64, deps: Vec<usize>| EngineFlow {
            delay_s,
            ..flow(src, src + 1, 0, 0.0, deps)
        };
        let all = vec![
            flow(0, 1, 1_000_000, 0.0, vec![]), // done at 1 ms
            gate(1, 1e-3, vec![0]),             // ready at 1 ms, timer at 2 ms
            gate(2, 2e-3, vec![]),              // timer at 2 ms from the start
        ];
        let mut eng = FluidEngine::new(&net);
        eng.inject(&all).unwrap();
        let mut drained = Vec::new();
        drain_to_idle(&mut eng, &mut drained);
        let (ms, two) = (1e-3f64.to_bits(), 2e-3f64.to_bits());
        assert_eq!(drained, vec![(0, 0, ms), (1, ms, two), (2, 0, two)]);
        assert_eq!(eng.events(), 3);
    }

    /// A snapshot taken right after a completion made dependents ready,
    /// before any promotion pass visited them, resumes byte-identically:
    /// restore puts those flows back on the scan.
    #[test]
    fn snapshot_before_the_pass_a_completion_readied_resumes_identically() {
        let net = star_cluster(8, 1e9, 500e-9);
        let all = vec![
            flow(0, 1, 1_000_000, 0.0, vec![]),
            flow(1, 2, 700_000, 0.0, vec![0]),
            flow(2, 3, 0, 0.0, vec![0]),
            flow(3, 4, 400_000, 0.0, vec![2]),
            flow(5, 6, 2_000_000, 0.0, vec![]),
        ];
        let mut full = FluidEngine::new(&net);
        full.inject(&all).unwrap();
        let mut expected = Vec::new();
        drain_to_idle(&mut full, &mut expected);

        let mut eng = FluidEngine::new(&net);
        eng.inject(&all).unwrap();
        let mut drained = Vec::new();
        while drained.is_empty() {
            eng.step().unwrap();
            drained.extend(
                eng.drain_completions()
                    .map(|c| (c.index, c.start_s.to_bits(), c.finish_s.to_bits())),
            );
        }
        let snap = eng.snapshot();
        assert_eq!(drained[0].0, 0);
        for i in [1, 2] {
            assert!(snap.phase[i] == Phase::Blocked && snap.missing[i] == 0);
        }
        let json = serde_json::to_string(&snap).unwrap();
        let snap: FluidEngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = FluidEngine::restore(&net, &snap).unwrap();
        drain_to_idle(&mut resumed, &mut drained);

        assert_eq!(drained, expected);
        assert_eq!(
            (
                resumed.events(),
                resumed.rate_recomputations(),
                resumed.solver_work()
            ),
            (
                full.events(),
                full.rate_recomputations(),
                full.solver_work()
            )
        );
        assert_eq!(
            serde_json::to_string(&resumed.snapshot()).unwrap(),
            serde_json::to_string(&full.snapshot()).unwrap()
        );
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked() {
        let net = star_cluster(4, 1e9, 0.0);
        let mut eng = FluidEngine::new(&net);
        eng.inject(&[
            flow(0, 1, 1_000_000, 0.0, vec![]),
            flow(1, 2, 1_000_000, 0.0, vec![0]),
        ])
        .unwrap();
        eng.step().unwrap();
        let good = eng.snapshot();
        let corruptions: [fn(&mut FluidEngineSnapshot); 5] = [
            |s| s.completed.push(99),
            |s| s.dependents[0].push(99),
            |s| s.pending.push((1.0f64.to_bits(), Ev::Timer(99))),
            |s| s.job_free.push(5),
            |s| {
                s.phase.pop();
            },
        ];
        for corrupt in corruptions {
            let mut snap = good.clone();
            corrupt(&mut snap);
            assert!(matches!(
                FluidEngine::restore(&net, &snap),
                Err(NetError::BadConfig(_))
            ));
        }
        assert!(FluidEngine::restore(&net, &good).is_ok());
    }

    #[test]
    fn job_free_lists_beyond_the_counter_are_typed_errors_not_allocations() {
        let net = star_cluster(4, 1e9, 0.0);
        let mut eng = FluidEngine::new(&net);
        let (a, b) = (eng.add_job(), eng.add_job());
        let mut first = flow(0, 1, 1_000_000, 0.0, vec![]);
        first.job = a;
        let mut second = flow(1, 2, 1_000_000, 0.0, vec![]);
        second.job = b;
        eng.inject(&[first, second]).unwrap();
        eng.retire_job(a);
        let good = eng.snapshot();
        assert_eq!((good.next_job, good.job_free.clone()), (2, vec![0]));
        let free = NetError::BadConfig("snapshot job free list names an unknown or repeated job");
        // The first two would have sized a table by the counter before
        // checking it, and aborted.
        let corruptions: [fn(&mut FluidEngineSnapshot); 4] = [
            |s| {
                s.next_job = 1_000_000_000_000_000_000;
                s.job_free = vec![s.next_job];
            },
            |s| {
                s.next_job = 1_000_000_000_000_000_000;
                s.job_free = vec![7, 0, 7];
            },
            |s| s.job_free = vec![2],
            |s| s.job_free = vec![1, 0, 1],
        ];
        for corrupt in corruptions {
            let mut snap = good.clone();
            corrupt(&mut snap);
            assert_eq!(FluidEngine::restore(&net, &snap).err(), Some(free.clone()));
        }
        assert!(FluidEngine::restore(&net, &good).is_ok());
    }

    #[test]
    fn unknown_snapshot_version_is_rejected() {
        let net = star_cluster(4, 1e9, 0.0);
        let eng = FluidEngine::new(&net);
        let mut snap = eng.snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            FluidEngine::restore(&net, &snap),
            Err(NetError::BadConfig(_))
        ));
    }

    /// Blocks holding list entries, and pool edges not on the free list.
    fn lists_held(eng: &FluidEngine<'_>) -> (usize, usize) {
        let blocks = eng.blocks.iter().filter(|b| b.data.capacity() > 0).count();
        let (mut free, mut e) = (0, eng.free_edge);
        while let Some(edge) = eng.pool.get(e as usize) {
            free += 1;
            e = edge.next;
        }
        (blocks, eng.pool.len() - free)
    }

    /// A stream of batches holds list storage only for batches with an
    /// unsettled flow, and none once every flow settled; a batch without
    /// dependencies allocates none. Batch A is a chain of three flows,
    /// batch B a chain whose head also waits on A's head, batch C one
    /// flow.
    #[test]
    fn a_stream_holds_lists_only_for_unsettled_batches() {
        let net = star_cluster(8, 1e9, 0.0);
        let mut eng = FluidEngine::new(&net);
        let mb = 1_000_000;
        eng.inject(&[flow(7, 0, mb, 0.0, vec![])]).unwrap();
        assert_eq!(lists_held(&eng), (0, 0));
        eng.inject(&[
            flow(0, 1, mb, 0.0, vec![]),
            flow(1, 2, mb, 0.0, vec![1]),
            flow(2, 3, mb, 0.0, vec![2]),
        ])
        .unwrap();
        eng.inject(&[
            flow(4, 5, mb, 0.0, vec![1]),
            flow(5, 6, mb, 0.0, vec![4]),
            flow(6, 7, mb, 0.0, vec![5]),
        ])
        .unwrap();
        assert_eq!(lists_held(&eng), (2, 1));
        // The image lists what a per-flow layout listed.
        let snap = eng.snapshot();
        assert_eq!(snap.dependents[1], vec![2, 4]);
        assert_eq!(snap.flows[4].deps, vec![1]);
        // A settles at 3 ms, B at 4 ms.
        let mut settled = Vec::new();
        while !settled.contains(&3) {
            eng.step().unwrap();
            settled.extend(eng.drain_completions().map(|c| c.index));
        }
        assert_eq!(eng.live_flows(), 1);
        assert_eq!(lists_held(&eng), (1, 0));
        let snap = eng.snapshot();
        assert!(snap.dependents[1].is_empty() && snap.flows[2].deps.is_empty());
        assert_eq!(snap.flows[6].deps, vec![5]);
        while eng.step().unwrap().is_some() {}
        assert_eq!(eng.live_flows(), 0);
        assert_eq!(lists_held(&eng), (0, 0));
        assert_eq!(eng.free_blocks.len(), 2);
        let snap = eng.snapshot();
        assert!(snap.flows.iter().all(|f| f.deps.is_empty()));
        assert!(snap.routes.iter().all(Vec::is_empty));
        assert!(snap.dependents.iter().all(Vec::is_empty));
    }

    #[test]
    fn indices_too_wide_for_the_tables_are_typed_errors_before_any_state_change() {
        let net = star_cluster(4, 1e9, 0.0);
        let mut eng = FluidEngine::new(&net);
        let mut wide = flow(0, 1, 1_000, 0.0, vec![]);
        wide.job = 1 << 40;
        assert_eq!(
            eng.inject(&[flow(1, 2, 1_000, 0.0, vec![]), wide]),
            Err(WIDE)
        );
        assert_eq!((eng.next_key(), eng.route_links.len()), (0, 0));
        assert_eq!(eng.route_at, vec![0]);
        eng.inject(&[flow(1, 2, 1_000, 0.0, vec![])]).unwrap();
        while eng.step().unwrap().is_some() {}
        assert_eq!(eng.drain_completions().count(), 1);
    }
}
