//! Hierarchical composed substrates: intra-group and inter-group fabrics
//! executing one DAG or stream together.
//!
//! The flat [`crate::substrate::Substrate`] implementations answer "how
//! long does this schedule take on *one* fabric". A production-scale
//! deployment is hierarchical: each group of hosts shares a fast
//! intra-group fabric (the paper's WDM optical ring), and the groups are
//! stitched together by a slower inter-group fabric (an electrical
//! switched cluster). A mixed-parallelism job produces traffic on *both*
//! at once — tensor-parallel all-reduces inside a group concurrently with
//! data-parallel gradient all-reduces across groups — and the two parts
//! are coupled by dependencies, so the fabrics cannot be simulated one
//! after the other.
//!
//! This module composes them:
//!
//! * [`HierSpec`] — the shape of the hierarchy: `groups` groups of
//!   `group_size` hosts. Global host `h` lives in group `h / group_size`.
//! * [`Domain`] — the fabric a transfer traverses, **derived from its
//!   endpoints**: same group → [`Domain::Intra`], different groups →
//!   [`Domain::Inter`]. [`HierSpec::domains`] tags a whole
//!   [`DepSchedule`]; there is no per-transfer freedom, so a tagged DAG
//!   can never disagree with the topology.
//! * [`compose`] — the one constructor of a composed [`Substrate`]. It
//!   takes two built substrates: the intra substrate describes **one
//!   group's** fabric and is instantiated once per group (through its
//!   engine factory, [`Substrate::engine`]); the inter substrate spans all
//!   `groups * group_size` hosts. With several groups the result's engine
//!   is the composed engine: one streaming engine per member fabric —
//!   [`optical_sim::GrantEngine`] for optical fabrics,
//!   [`electrical_sim::FluidEngine`] for electrical ones, both running on
//!   the shared [`wrht_kernel::EventKernel`] semantics — behind one
//!   [`FabricEngine`]. Injected transfers wait in the composed engine until
//!   their last dependency settles; each step, the member with the
//!   earliest pending event steps, its completions retire dependency
//!   edges, and transfers whose last predecessor just finished are
//!   launched into *their* fabric's engine released at the bit-exact
//!   completion instant. Cross-fabric dependencies are therefore honored
//!   at kernel event granularity, not at phase barriers. The closed driver
//!   ([`crate::engine::run_closed`]) drives it for every DAG and tenancy
//!   run and the stream driver ([`crate::stream`]) for streams, pause and
//!   resume included: a checkpoint carries every member's own image and
//!   the composed per-transfer state, every key's dependents in one flat
//!   table.
//!
//! # A window of keys
//!
//! The closed driver streams a lazily lowered DAG, such as
//! [`crate::parallelism::ParallelismSource`], into the composed engine
//! stage by stage. A key's dependents live in the kernel's
//! [`wrht_kernel::DepLists`] (see the `wrht_kernel` docs' "Dependency
//! lists"): those of its own batch in its batch's block, those injected in
//! a later batch in its edge list, freed once they are released. The
//! per-key tables start at the lowest key not yet forgotten: after each
//! drain the closed driver calls [`FabricEngine::forget_settled`], which
//! drops the settled prefix once it is at least half of the tables, counts
//! each dropped key settled on its block (the last frees it), pops the
//! forgotten keys off each member's key map and lets every member engine
//! drop its own settled state. The benchmark's largest mixed-parallelism
//! DAG, 271,104 transfers, runs in a window of 40,160 keys. Streams never
//! forget, so a long multi-group stream still keeps every key and its
//! rows (and checkpoints them).
//!
//! A batch may depend on live keys of earlier batches only: like both flat
//! engines, `inject` rejects a dependency on a settled or forgotten key
//! with `BadConfig("dependency names a transfer that already settled")`
//! before any state changes.
//!
//! # Flat collapse
//!
//! A [`HierSpec`] with `groups == 1` has no inter-group traffic at all —
//! every transfer's endpoints share the single group — so [`compose`]
//! returns the intra substrate itself: its name, stepped and closed runs
//! and engine, so fault and stream runs too, are the flat substrate's. A
//! single-group composed run is **bit-exact** with the flat run, label
//! included; this collapse is pinned by `tests/hierarchy_differential.rs`
//! on both fabric orders. With several groups, fault runs are rejected
//! with one typed error: faults are not routed to member fabrics.
//!
//! # Determinism
//!
//! The composed engine is deterministic: members are ordered (group 0 ..
//! group G-1, then inter), the next member to step is the minimum of the
//! members' next-event instants under IEEE-754 total order with ties
//! broken by member index, completions drain in member order, and newly
//! unblocked transfers are launched in ascending key (DAG) order. Same DAG
//! → bit-identical report.
//!
//! ```
//! use optical_sim::{NodeId, OpticalConfig, Transfer};
//! use wrht_core::dag::{DepSchedule, DepTransfer};
//! use wrht_core::hierarchy::{compose, HierSpec};
//! use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate};
//!
//! // Two groups of 4: an intra transfer in group 0, then a dependent
//! // inter transfer from group 0 to group 1.
//! let spec = HierSpec::new(2, 4).unwrap();
//! let mut sub = compose(
//!     spec,
//!     Box::new(OpticalSubstrate::new(OpticalConfig::new(4, 4)).unwrap()),
//!     Box::new(ElectricalSubstrate::new(
//!         electrical_sim::topology::star_cluster(8, 12.5e9, 500e-9),
//!         5e-6,
//!     )),
//! )
//! .unwrap();
//! assert_eq!(sub.name(), "composed(optical+electrical)");
//! let dag = DepSchedule::from_transfers(vec![
//!     DepTransfer {
//!         transfer: Transfer::shortest(NodeId(0), NodeId(1), 1 << 20),
//!         deps: vec![],
//!         release_s: 0.0,
//!         stage: 0,
//!     },
//!     DepTransfer {
//!         transfer: Transfer::shortest(NodeId(1), NodeId(5), 1 << 20),
//!         deps: vec![0],
//!         release_s: 0.0,
//!         stage: 1,
//!     },
//! ])
//! .unwrap();
//! let report = sub.execute_dag(&dag).unwrap();
//! assert_eq!(report.transfers.len(), 2);
//! // The inter hop cannot start before the intra hop completed.
//! assert!(report.transfers[1].start_s >= report.transfers[0].finish_s);
//! ```

use optical_sim::sim::StepSource;
use optical_sim::{NodeId, OpticalError, Transfer};
use serde::{Deserialize, Serialize, Value};
use wrht_kernel::{DepLists, NIL};

use crate::dag::{DepSchedule, DepTransfer};
use crate::engine::{dag_base, Completion, FabricEngine};
use crate::error::Result;
use crate::fault::{FaultPolicy, FaultScript};
use crate::substrate::{malformed, RunReport, StepTiming, Substrate};

fn cfg_err(msg: &'static str) -> crate::error::WrhtError {
    OpticalError::BadConfig(msg).into()
}

/// The fabric a transfer of a hierarchical job traverses.
///
/// Derived from the transfer's endpoints by [`HierSpec::domain_of`]; a
/// transfer whose endpoints share a group *is* intra-group traffic, so the
/// tag carries no degrees of freedom beyond the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Domain {
    /// Both endpoints inside the same group: the transfer runs on that
    /// group's intra fabric, addressed by group-local host ids.
    Intra {
        /// The group both endpoints belong to.
        group: usize,
    },
    /// Endpoints in different groups: the transfer runs on the shared
    /// inter-group fabric, addressed by global host ids.
    Inter,
}

impl Domain {
    /// Stable lowercase label used in reports and CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Domain::Intra { .. } => "intra",
            Domain::Inter => "inter",
        }
    }
}

/// The shape of a hierarchical deployment: `groups` groups of
/// `group_size` hosts each, `groups * group_size` hosts total.
///
/// Global host `h` lives in group `h / group_size` with group-local id
/// `h % group_size` — the same contiguous-partition convention the Wrht
/// planner's [`crate::plan::Group`] machinery uses on the flat ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierSpec {
    /// Number of groups (>= 1).
    pub groups: usize,
    /// Hosts per group (>= 2; a 1-host group could never source a legal
    /// intra transfer and the optical ring needs at least two nodes).
    pub group_size: usize,
}

impl HierSpec {
    /// Validated constructor.
    ///
    /// # Errors
    /// Rejects zero groups, groups smaller than two hosts and shapes whose
    /// host count overflows `usize`.
    pub fn new(groups: usize, group_size: usize) -> Result<Self> {
        if groups == 0 {
            return Err(cfg_err("hierarchy needs at least one group"));
        }
        if group_size < 2 {
            return Err(cfg_err("hierarchy groups need at least two hosts"));
        }
        if groups.checked_mul(group_size).is_none() {
            return Err(cfg_err("hierarchy host count overflows"));
        }
        Ok(Self { groups, group_size })
    }

    /// Total hosts across all groups.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.groups * self.group_size
    }

    /// Group of a global host id.
    #[must_use]
    pub fn group_of(&self, node: usize) -> usize {
        node / self.group_size
    }

    /// Group-local id of a global host id.
    #[must_use]
    pub fn local(&self, node: usize) -> usize {
        node % self.group_size
    }

    /// The fabric domain of a transfer between two global host ids.
    #[must_use]
    pub fn domain_of(&self, src: usize, dst: usize) -> Domain {
        let g = self.group_of(src);
        if g == self.group_of(dst) {
            Domain::Intra { group: g }
        } else {
            Domain::Inter
        }
    }

    /// Tag every transfer of `dag` with its fabric domain.
    ///
    /// # Errors
    /// Rejects transfers whose endpoints exceed [`HierSpec::nodes`].
    pub fn domains(&self, dag: &DepSchedule) -> Result<Vec<Domain>> {
        let nodes = self.nodes();
        dag.transfers()
            .iter()
            .map(|t| {
                let (src, dst) = (t.transfer.src.0, t.transfer.dst.0);
                if src >= nodes || dst >= nodes {
                    return Err(cfg_err("transfer endpoint outside the hierarchy"));
                }
                Ok(self.domain_of(src, dst))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The composed engine
// ---------------------------------------------------------------------------

/// Most keys a [`ComposedEngine`] holds: keys are stored in 32 bits (the
/// per-key state of more would not fit in memory anyway).
const MAX_KEYS: usize = u32::MAX as usize;

/// [`ComposedEngine::missing`] of a settled key.
const SETTLED: u32 = u32::MAX;

/// One member fabric of a [`ComposedEngine`]: its engine and the composed
/// engine's bookkeeping for it.
struct Member<'a> {
    eng: Box<dyn FabricEngine + 'a>,
    /// Composed key of each of the engine's own keys from `first_key` on.
    keys: Vec<usize>,
    /// The engine's key of `keys[0]`: the keys below it settled, and the
    /// composed engine forgot them.
    first_key: usize,
    /// Global id of the fabric's host 0 (group * group_size; 0 for the
    /// inter fabric).
    node_base: usize,
    /// Instant of the engine's last processed event. Cross-fabric gates
    /// can lie (slightly) in this engine's past — the fluid engines surface
    /// completions through tolerated stale events, so a finish instant may
    /// only become known after other engines advanced beyond it.
    /// Launches clamp their release to this clock: the transfer still
    /// starts no earlier than its gate.
    clock_s: f64,
}

impl Member<'_> {
    /// Launch composed key `key`: inject its transfer alone, released at
    /// `gate_s` (raised to the fabric's clock), with its global endpoints
    /// rebased to the fabric's hosts.
    fn launch(&mut self, key: usize, t: &Transfer, gate_s: f64, job: usize) -> Result<()> {
        let local = DepTransfer {
            transfer: Transfer {
                src: NodeId(t.src.0 - self.node_base),
                dst: NodeId(t.dst.0 - self.node_base),
                ..t.clone()
            },
            deps: Vec::new(),
            release_s: 0.0,
            stage: 0,
        };
        let release_s = gate_s.max(self.clock_s);
        self.eng
            .inject(std::slice::from_ref(&local), 0, release_s, &|_| job)?;
        self.keys.push(key);
        Ok(())
    }
}

/// The composed hierarchy as one [`FabricEngine`]: the engines of the G
/// groups' intra fabrics and of the inter fabric, in that order, and per
/// composed key the state that holds the key back until its last
/// dependency settled (see the module docs for the event loop).
///
/// The per-key tables start at key `base`: a closed driver lets the engine
/// drop its settled prefix ([`FabricEngine::forget_settled`]), so a DAG
/// streamed stage by stage holds a window of keys, not all of them.
struct ComposedEngine<'a> {
    spec: HierSpec,
    members: Vec<Member<'a>>,
    /// Key of the first entry of every per-key table; every key below it
    /// settled.
    base: usize,
    /// Per key: the transfer, with global endpoints.
    transfers: Vec<Transfer>,
    /// Per key: the job tag it was injected with.
    jobs: Vec<usize>,
    /// Per key: the earliest legal start — its release, raised to the
    /// completion instant of the latest dependency as dependencies settle.
    gate_s: Vec<f64>,
    /// Per key: dependencies not settled yet ([`SETTLED`] once the key
    /// itself settled). The key launches into its member when the count
    /// reaches zero.
    missing: Vec<u32>,
    /// The keys' dependents, as 32-bit keys: a row per key in its batch's
    /// block, ascending, and a list of those injected in later batches (a
    /// closed DAG streamed stage by stage).
    lists: DepLists,
    /// Per key: its batch's block and its later-batch list in `lists`
    /// ([`NIL`] for none).
    block: Vec<u32>,
    later: Vec<u32>,
    /// Keys settled so far.
    settled: usize,
    /// Length of the settled prefix of the per-key tables, as far as
    /// [`FabricEngine::forget_settled`] scanned it.
    settled_below: usize,
    /// One past the highest key launched into a member.
    launched: usize,
    /// Outcomes of previous steps, by composed key, not drained yet.
    done: Vec<Completion>,
    /// Keys one step unblocked.
    ready: Vec<usize>,
    /// Most keys the per-key tables ever held at once.
    #[cfg(test)]
    peak_held: usize,
}

/// A [`ComposedEngine`]'s checkpoint image: each member's own image, key
/// map and clock, and the per-key state, every key's dependents in one
/// flat table (every time in it is finite, so JSON carries it exactly).
#[derive(Default, Serialize, Deserialize)]
struct ComposedImage {
    members: Vec<MemberImage>,
    transfers: Vec<Transfer>,
    jobs: Vec<usize>,
    gate_s: Vec<f64>,
    missing: Vec<u32>,
    row: Vec<usize>,
    dependents: Vec<u32>,
    settled: usize,
    done: Vec<Completion>,
}

/// One member's part of a [`ComposedImage`].
#[derive(Serialize, Deserialize)]
struct MemberImage {
    engine: Value,
    keys: Vec<usize>,
    clock_s: f64,
}

impl ComposedImage {
    /// Does every index the engine dereferences name an existing member,
    /// key or host, and do the rows fit the engine's 32-bit lists? A job
    /// tag must also be below the key count: a stream registers a job only
    /// with at least one transfer and reuses retired tags first.
    fn fits(&self, spec: HierSpec) -> bool {
        let n = self.transfers.len();
        let key = |k: &usize| *k < n;
        let nodes = spec.nodes();
        self.members.len() == spec.groups + 1
            && self.jobs.len() == n
            && self.gate_s.len() == n
            && self.missing.len() == n
            && self.row.len() == n + 1
            && self.row.first() == Some(&0)
            && self.row.windows(2).all(|w| w[0] <= w[1])
            && self.row.last() == Some(&self.dependents.len())
            && DepLists::new().fits(n, self.dependents.len(), 0)
            && self.settled <= n
            && self
                .transfers
                .iter()
                .all(|t| t.src.0 < nodes && t.dst.0 < nodes)
            && self.jobs.iter().all(key)
            && self.dependents.iter().all(|&d| key(&(d as usize)))
            && self.members.iter().all(|m| m.keys.iter().all(key))
            && self.done.iter().all(|c| key(&c.key))
    }
}

impl<'a> ComposedEngine<'a> {
    /// The engine over `members` (intra groups, then inter) in the state
    /// of `image`, whose member images the members were restored from. The
    /// image's keys become one batch: their rows go into one block.
    fn new(spec: HierSpec, members: Vec<Member<'a>>, image: ComposedImage) -> Self {
        let held = image.transfers.len();
        let mut lists = DepLists::new();
        // In range: `ComposedImage::fits` bounds the keys and the block,
        // and orders the rows.
        let block = lists.open(0, held as u32, held, image.dependents.len());
        lists.fill(block, || {
            let rows = image.row.windows(2).map(|w| &image.dependents[w[0]..w[1]]);
            rows.enumerate()
                .flat_map(|(k, row)| row.iter().map(move |&d| (k, d)))
        });
        Self {
            spec,
            members,
            base: 0,
            launched: held,
            transfers: image.transfers,
            jobs: image.jobs,
            gate_s: image.gate_s,
            missing: image.missing,
            lists,
            block: vec![block; held],
            later: vec![NIL; held],
            settled: image.settled,
            settled_below: 0,
            done: image.done,
            ready: Vec::new(),
            #[cfg(test)]
            peak_held: held,
        }
    }

    /// Table index of key `key`, if the tables hold it.
    fn slot(&self, key: usize) -> Option<usize> {
        key.checked_sub(self.base)
            .filter(|&k| k < self.transfers.len())
    }

    /// Validate `batch` and append each transfer's per-key state. `dag0`
    /// is the key of the DAG's transfer 0. Returns the batch's
    /// dependencies on its own transfers.
    fn record(
        &mut self,
        batch: &[DepTransfer],
        first: usize,
        dag0: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<usize> {
        let nodes = self.spec.nodes();
        let (mut inner, mut edges) = (0usize, 0usize);
        for (i, t) in batch.iter().enumerate() {
            if t.transfer.src.0 >= nodes || t.transfer.dst.0 >= nodes {
                return Err(cfg_err("transfer endpoint outside the hierarchy"));
            }
            let release_s = offset_s + t.release_s;
            if !release_s.is_finite() || release_s < 0.0 {
                return Err(cfg_err("release time must be finite and >= 0"));
            }
            let missing = u32::try_from(t.deps.len())
                .ok()
                .filter(|&m| m != SETTLED)
                .ok_or_else(|| cfg_err("transfer has too many dependencies"))?;
            for &d in &t.deps {
                if d >= first + i {
                    return Err(cfg_err("dependency must precede its transfer"));
                }
                if d >= first {
                    inner += 1;
                } else {
                    // A key of an earlier batch, still held and unsettled.
                    match self.slot(dag0 + d) {
                        Some(k) if self.missing[k] != SETTLED => edges += 1,
                        _ => {
                            return Err(cfg_err("dependency names a transfer that already settled"))
                        }
                    }
                }
            }
            self.transfers.push(t.transfer.clone());
            self.jobs.push(job(i));
            self.gate_s.push(release_s);
            self.missing.push(missing);
        }
        if !self.lists.fits(batch.len(), inner, edges) {
            return Err(cfg_err("composed engine lists exhausted"));
        }
        Ok(inner)
    }

    /// Inject key `key` into the member its endpoints name.
    fn launch(&mut self, key: usize) -> Result<()> {
        let k = self
            .slot(key)
            .ok_or_else(|| cfg_err("launched key outside the composed keys"))?;
        let t = &self.transfers[k];
        let member = match self.spec.domain_of(t.src.0, t.dst.0) {
            Domain::Intra { group } => group,
            Domain::Inter => self.spec.groups,
        };
        self.members[member].launch(key, t, self.gate_s[k], self.jobs[k])?;
        self.launched = self.launched.max(key + 1);
        Ok(())
    }
}

impl FabricEngine for ComposedEngine<'_> {
    /// The widest member slack: an arrival injected early joins a member
    /// that batches exact instants only no earlier than its release.
    fn admit_slack(&self) -> f64 {
        self.members
            .iter()
            .fold(0.0, |slack, m| m.eng.admit_slack().max(slack))
    }

    /// The earliest member event while a key is unsettled. Once every key
    /// settled, events members still hold are stale, and [`Self::step`]
    /// steps no member.
    fn peek_time(&self) -> Option<f64> {
        if self.settled >= self.base + self.transfers.len() {
            return None;
        }
        self.members
            .iter()
            .filter_map(|m| m.eng.peek_time())
            .min_by(f64::total_cmp)
    }

    /// Every member registers the job; members see the same registrations
    /// and retirements, so they hand out the same tag.
    fn add_job(&mut self, rank: u64) -> usize {
        let mut tag = 0;
        for m in &mut self.members {
            tag = m.eng.add_job(rank);
        }
        tag
    }

    fn retire_job(&mut self, job: usize) {
        for m in &mut self.members {
            m.eng.retire_job(job);
        }
    }

    /// Faults are not routed to member fabrics.
    fn set_faults(&mut self, _script: &FaultScript, _policy: FaultPolicy) -> Result<bool> {
        Err(cfg_err(
            "faults on a multi-group composed substrate are not supported",
        ))
    }

    /// Record each transfer's job, gate and unsettled-dependency count and
    /// its dependents — in the batch's block, or for a dependency of an
    /// earlier batch in that key's edge list — then launch the
    /// dependency-free transfers in key order. A batch that fails
    /// validation, a dependency on a settled key included, leaves no trace.
    fn inject(
        &mut self,
        batch: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let held = self.transfers.len();
        let n = self.base + held;
        let dag0 = dag_base(n, first)?;
        let len = batch.len();
        if n + len > MAX_KEYS {
            return Err(cfg_err("composed engine keys exhausted"));
        }
        self.transfers.reserve(len);
        self.jobs.reserve(len);
        self.gate_s.reserve(len);
        self.missing.reserve(len);
        let inner = match self.record(batch, first, dag0, offset_s, job) {
            Ok(inner) => inner,
            Err(e) => {
                self.transfers.truncate(held);
                self.jobs.truncate(held);
                self.gate_s.truncate(held);
                self.missing.truncate(held);
                return Err(e);
            }
        };
        // In range: `MAX_KEYS` bounds every key, and `record` the lists.
        let block = self.lists.open(n as u64, len as u32, len, inner);
        self.block.resize(held + len, block);
        self.later.resize(held + len, NIL);
        let keyed = || {
            batch
                .iter()
                .enumerate()
                .map(|(i, t)| ((n + i) as u32, &t.deps))
        };
        self.lists.fill(block, || {
            keyed().flat_map(|(key, deps)| {
                deps.iter()
                    .filter_map(move |&d| Some((d.checked_sub(first)?, key)))
            })
        });
        for (key, deps) in keyed() {
            for &d in deps.iter().filter(|&&d| d < first) {
                self.lists
                    .append(&mut self.later[dag0 + d - self.base], key);
            }
        }
        #[cfg(test)]
        {
            self.peak_held = self.peak_held.max(self.transfers.len());
        }
        for k in n..n + len {
            if self.missing[k - self.base] == 0 {
                self.launch(k)?;
            }
        }
        Ok(())
    }

    /// A key can settle in the next step only once it was launched.
    fn frontier(&self) -> usize {
        self.launched
    }

    /// Drop the settled prefix of the per-key tables once it is at least
    /// half of them, counting each dropped key settled on its block, pop
    /// the forgotten keys off each member's key map, and let every member
    /// drop its own settled state.
    fn forget_settled(&mut self) {
        let held = self.missing.len();
        while self.settled_below < held && self.missing[self.settled_below] == SETTLED {
            self.settled_below += 1;
        }
        let low = self.settled_below;
        if low == 0 || 2 * low < held {
            return;
        }
        for b in self.block.drain(..low) {
            self.lists.settle(b);
        }
        self.transfers.drain(..low);
        self.jobs.drain(..low);
        self.gate_s.drain(..low);
        self.missing.drain(..low);
        self.later.drain(..low);
        self.settled_below = 0;
        self.base += low;
        for m in &mut self.members {
            let forgotten = m.keys.iter().take_while(|&&k| k < self.base).count();
            m.keys.drain(..forgotten);
            m.first_key += forgotten;
            m.eng.forget_settled();
        }
    }

    /// The member with the earliest pending event steps (ties go to the
    /// lowest member index); with none pending, every member steps once,
    /// since the fluid engine promotes released flows lazily inside its
    /// step. Settled keys release their dependents, and those whose last
    /// dependency settled launch in key order. `None` once every key
    /// settled, or when no member made progress.
    fn step(&mut self) -> Result<Option<f64>> {
        if self.settled >= self.base + self.transfers.len() {
            return Ok(None);
        }
        let mut best: Option<(f64, usize)> = None;
        for (k, m) in self.members.iter_mut().enumerate() {
            if let Some(t) = m.eng.peek_time() {
                best = Some(match best {
                    Some((bt, bk)) if bt.total_cmp(&t).is_le() => (bt, bk),
                    _ => (t, k),
                });
            }
        }
        let stepping = match best {
            Some((_, k)) => k..k + 1,
            None => 0..self.members.len(),
        };
        let before = if best.is_none() { self.events() } else { 0 };
        let first = self.done.len();
        let mut now = 0.0f64;
        for m in &mut self.members[stepping] {
            if let Some(t) = m.eng.step()? {
                m.clock_s = m.clock_s.max(t);
            }
            now = now.max(m.clock_s);
            // Completion keys are resolved to composed keys in place.
            let from = self.done.len();
            m.eng.drain(&mut self.done);
            for c in &mut self.done[from..] {
                c.key = c
                    .key
                    .checked_sub(m.first_key)
                    .and_then(|k| m.keys.get(k))
                    .copied()
                    .ok_or_else(|| cfg_err("member completion outside the composed keys"))?;
            }
        }
        if best.is_none() && self.done.len() == first && before == self.events() {
            return Ok(None);
        }
        let Self {
            base,
            done,
            lists,
            block,
            later,
            gate_s,
            missing,
            ready,
            settled,
            ..
        } = self;
        let base = *base;
        ready.clear();
        // Count one settled dependency of key `j`, finished at `finish_s`.
        let unblock =
            |gate_s: &mut [f64], missing: &mut [u32], ready: &mut Vec<usize>, j, finish_s| {
                let k = usize::checked_sub(j, base)
                    .filter(|&k| k < missing.len())
                    .ok_or_else(|| cfg_err("dependent outside the composed keys"))?;
                if finish_s > gate_s[k] {
                    gate_s[k] = finish_s;
                }
                missing[k] = missing[k]
                    .checked_sub(1)
                    .filter(|&m| m != SETTLED - 1)
                    .ok_or_else(|| {
                        cfg_err("dependent released more often than it has dependencies")
                    })?;
                if missing[k] == 0 {
                    ready.push(j);
                }
                Ok::<_, crate::error::WrhtError>(())
            };
        for c in &done[first..] {
            let k = c
                .key
                .checked_sub(base)
                .filter(|&k| k < later.len() && missing[k] == 0)
                .ok_or_else(|| cfg_err("completion of a key that is not in flight"))?;
            *settled += 1;
            missing[k] = SETTLED;
            for &j in lists.row(block[k], c.key as u64) {
                unblock(gate_s, missing, ready, j as usize, c.finish_s)?;
            }
            if later[k] != NIL {
                for j in lists.entries(lists.walk(NIL, 0, later[k])) {
                    unblock(gate_s, missing, ready, j as usize, c.finish_s)?;
                }
                lists.free(&mut later[k]);
            }
        }
        // Unblocked keys enter their member in key order, released at the
        // bit-exact instant their last dependency finished (raised to
        // their own release time if later).
        ready.sort_unstable();
        let ready = std::mem::take(&mut self.ready);
        for &j in &ready {
            self.launch(j)?;
        }
        self.ready = ready;
        Ok(Some(now))
    }

    fn drain(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.done);
    }

    fn events(&self) -> u64 {
        self.members.iter().map(|m| m.eng.events()).sum()
    }

    /// The first member diagnostic, or the composed one, when a key is
    /// unsettled.
    fn stall_diagnostic(&mut self) -> Result<()> {
        if self.settled >= self.base + self.transfers.len() {
            return Ok(());
        }
        for m in &mut self.members {
            m.eng.stall_diagnostic()?;
        }
        Err(cfg_err("composed run stalled with unfinished transfers"))
    }

    fn peak_wavelength(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.eng.peak_wavelength())
            .max()
            .unwrap_or(0)
    }

    fn solver_stats(&self) -> (usize, usize) {
        self.members.iter().fold((0, 0), |(r, w), m| {
            let (mr, mw) = m.eng.solver_stats();
            (r + mr, w + mw)
        })
    }

    fn first_impact_s(&self) -> Option<f64> {
        None
    }

    /// Each key's dependents, its row and its edge list alike, go into one
    /// flat table, which a restored engine keeps as its rows.
    fn snapshot(&self) -> Value {
        let mut row = Vec::with_capacity(self.transfers.len() + 1);
        let mut dependents = Vec::new();
        row.push(0);
        for k in 0..self.transfers.len() {
            let (block, key) = (self.block[k], (self.base + k) as u64);
            let walk = self
                .lists
                .walk(block, self.lists.row_of(block, key), self.later[k]);
            dependents.extend(self.lists.entries(walk));
            row.push(dependents.len());
        }
        ComposedImage {
            members: self
                .members
                .iter()
                .map(|m| MemberImage {
                    engine: m.eng.snapshot(),
                    keys: m.keys.clone(),
                    clock_s: m.clock_s,
                })
                .collect(),
            transfers: self.transfers.clone(),
            jobs: self.jobs.clone(),
            gate_s: self.gate_s.clone(),
            missing: self.missing.clone(),
            row,
            dependents,
            settled: self.settled,
            done: self.done.clone(),
        }
        .to_value()
    }
}

// ---------------------------------------------------------------------------
// The composed substrate
// ---------------------------------------------------------------------------

/// Compose a hierarchical [`Substrate`] from `intra`, **one group's**
/// fabric (instantiated once per group through its engine factory), and
/// `inter`, the fabric between groups, which spans every host. A
/// one-group spec is the intra substrate itself (see the module docs);
/// otherwise the result's engine is the composed engine over one engine
/// per group and one for the inter fabric.
///
/// Hosts are dual-homed: every host has a port on its group's intra
/// fabric and a port on the inter fabric, so the two fabrics carry load
/// independently and contend only through dependency edges.
///
/// # Errors
/// Invalid shapes ([`HierSpec::new`]); the intra fabric must attach
/// exactly [`HierSpec::group_size`] hosts and the inter fabric exactly
/// [`HierSpec::nodes`].
pub fn compose(
    spec: HierSpec,
    intra: Box<dyn Substrate>,
    inter: Box<dyn Substrate>,
) -> Result<Box<dyn Substrate>> {
    let spec = HierSpec::new(spec.groups, spec.group_size)?;
    if intra.nodes() != spec.group_size {
        return Err(cfg_err("intra fabric size must equal the group size"));
    }
    if inter.nodes() != spec.nodes() {
        return Err(cfg_err("inter fabric must span every host"));
    }
    if spec.groups == 1 {
        return Ok(intra);
    }
    let name = format!("composed({}+{})", intra.name(), inter.name());
    Ok(Box::new(ComposedSubstrate {
        spec,
        intra,
        inter,
        name,
    }))
}

/// Several groups' intra fabrics plus one inter-group fabric, whose engine
/// is the [`ComposedEngine`] over theirs (see module docs).
struct ComposedSubstrate {
    spec: HierSpec,
    intra: Box<dyn Substrate>,
    inter: Box<dyn Substrate>,
    name: String,
}

impl Substrate for ComposedSubstrate {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> usize {
        self.spec.nodes()
    }

    fn execute(&mut self, source: &dyn StepSource) -> Result<RunReport> {
        // Barrier steps across two fabrics: lower to the barrier DAG and
        // rebuild per-step durations from the stage frontier (a step's
        // transfers are gated on the whole previous step, so stage ends
        // are non-decreasing). Each step's duration holds its stage's end
        // until the second pass. The run's payload bytes are summed with a
        // check, so neither a step's sum nor the report's total overflows.
        let dag = DepSchedule::from_steps(source);
        let run = self.execute_dag(&dag)?;
        let mut steps = vec![StepTiming::default(); source.step_count()];
        let mut total_bytes = 0u64;
        for (t, timing) in dag.transfers().iter().zip(&run.transfers) {
            total_bytes = total_bytes
                .checked_add(t.transfer.bytes)
                .ok_or_else(|| cfg_err("stepped payload bytes overflow u64"))?;
            let step = &mut steps[t.stage];
            step.duration_s = step.duration_s.max(timing.finish_s);
            step.transfers += 1;
            step.bytes += t.transfer.bytes;
        }
        let mut prev_end = 0.0f64;
        for step in &mut steps {
            let end = step.duration_s.max(prev_end);
            step.duration_s = end - prev_end;
            prev_end = end;
        }
        Ok(RunReport {
            substrate: self.name.clone(),
            total_time_s: run.makespan_s,
            steps,
        })
    }

    /// The composed engine over a fresh engine of each member fabric, or —
    /// given a checkpoint image — over the members restored from their
    /// images, in the image's state.
    fn engine(
        &self,
        arbitrated: bool,
        fair_share: bool,
        image: Option<&Value>,
    ) -> Result<Box<dyn FabricEngine + '_>> {
        Ok(Box::new(
            self.composed_engine(arbitrated, fair_share, image)?,
        ))
    }
}

impl ComposedSubstrate {
    /// [`Substrate::engine`], unboxed.
    fn composed_engine(
        &self,
        arbitrated: bool,
        fair_share: bool,
        image: Option<&Value>,
    ) -> Result<ComposedEngine<'_>> {
        let mut restored = ComposedImage {
            row: vec![0],
            ..ComposedImage::default()
        };
        if let Some(v) = image {
            restored = ComposedImage::from_value(v).map_err(|_| malformed())?;
            if !restored.fits(self.spec) {
                return Err(cfg_err(
                    "composed checkpoint image does not fit the hierarchy",
                ));
            }
        }
        let mut own = std::mem::take(&mut restored.members).into_iter();
        let mut members = Vec::with_capacity(self.spec.groups + 1);
        for m in 0..=self.spec.groups {
            let (fabric, node_base) = if m < self.spec.groups {
                (&*self.intra, m * self.spec.group_size)
            } else {
                (&*self.inter, 0)
            };
            let own = own.next();
            members.push(Member {
                eng: fabric.engine(arbitrated, fair_share, own.as_ref().map(|i| &i.engine))?,
                first_key: 0,
                node_base,
                clock_s: own.as_ref().map_or(0.0, |i| i.clock_s),
                keys: own.map_or_else(Vec::new, |i| i.keys),
            });
        }
        Ok(ComposedEngine::new(self.spec, members, restored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{DepSource, DepTransfer};
    use crate::fault::{FaultPolicy, FaultScript};
    use crate::stream::{ArrivalProcess, StreamSpec, StreamTemplate};
    use crate::substrate::{ElectricalSubstrate, OpticalSubstrate};
    use crate::tenancy::{JobArbitration, JobWorkload, SchedPolicy};
    use optical_sim::{OpticalConfig, StepSchedule};

    fn optical_cfg(n: usize) -> OpticalConfig {
        OpticalConfig::new(n, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0)
    }

    fn optical(n: usize) -> Box<dyn Substrate> {
        Box::new(OpticalSubstrate::new(optical_cfg(n)).unwrap())
    }

    fn electrical(n: usize) -> Box<dyn Substrate> {
        Box::new(ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(n, 1e9, 0.0),
            0.0,
        ))
    }

    fn composed(groups: usize, group_size: usize) -> Box<dyn Substrate> {
        compose(
            HierSpec::new(groups, group_size).unwrap(),
            optical(group_size),
            electrical(groups * group_size),
        )
        .unwrap()
    }

    fn t(src: usize, dst: usize, bytes: u64) -> Transfer {
        Transfer::shortest(NodeId(src), NodeId(dst), bytes)
    }

    fn dep(tr: Transfer, deps: Vec<usize>, stage: usize) -> DepTransfer {
        DepTransfer {
            transfer: tr,
            deps,
            release_s: 0.0,
            stage,
        }
    }

    #[test]
    fn spec_validates_shape() {
        assert!(HierSpec::new(0, 4).is_err());
        assert!(HierSpec::new(2, 1).is_err());
        let spec = HierSpec::new(3, 4).unwrap();
        assert_eq!(spec.nodes(), 12);
        assert_eq!(spec.group_of(7), 1);
        assert_eq!(spec.local(7), 3);
    }

    #[test]
    fn spec_rejects_host_counts_that_overflow() {
        let overflows = cfg_err("hierarchy host count overflows");
        assert_eq!(HierSpec::new(usize::MAX, 2).unwrap_err(), overflows);
        assert_eq!(HierSpec::new(2, usize::MAX / 2 + 1).unwrap_err(), overflows);
        let widest = HierSpec::new(2, usize::MAX / 2).unwrap();
        assert_eq!(widest.nodes(), usize::MAX - 1);
        // `compose` re-validates a shape written field by field.
        let literal = HierSpec {
            groups: usize::MAX,
            group_size: 2,
        };
        let built = compose(literal, optical(2), electrical(4));
        assert_eq!(built.err(), Some(overflows));
    }

    #[test]
    fn domains_derive_from_endpoints() {
        let spec = HierSpec::new(2, 4).unwrap();
        assert_eq!(spec.domain_of(0, 3), Domain::Intra { group: 0 });
        assert_eq!(spec.domain_of(5, 6), Domain::Intra { group: 1 });
        assert_eq!(spec.domain_of(3, 4), Domain::Inter);
        assert_eq!(Domain::Inter.label(), "inter");
        assert_eq!(Domain::Intra { group: 0 }.label(), "intra");
    }

    #[test]
    fn domains_reject_out_of_range_endpoints() {
        let spec = HierSpec::new(2, 4).unwrap();
        let dag = DepSchedule::from_transfers(vec![dep(t(0, 9, 1), vec![], 0)]).unwrap();
        assert!(spec.domains(&dag).is_err());
    }

    #[test]
    fn new_rejects_mismatched_fabric_sizes() {
        let spec = HierSpec::new(2, 4).unwrap();
        let built = compose(spec, optical(8), electrical(8));
        let want = cfg_err("intra fabric size must equal the group size");
        assert_eq!(built.err(), Some(want));
        let built = compose(spec, optical(4), electrical(4));
        assert_eq!(
            built.err(),
            Some(cfg_err("inter fabric must span every host"))
        );
        let shapeless = HierSpec {
            groups: 0,
            group_size: 4,
        };
        let built = compose(shapeless, optical(4), electrical(4));
        let want = cfg_err("hierarchy needs at least one group");
        assert_eq!(built.err(), Some(want));
        assert_eq!(composed(2, 4).nodes(), 8);
    }

    #[test]
    fn flat_spec_delegates_bit_exactly_to_the_intra_substrate() {
        let mut flat = OpticalSubstrate::new(optical_cfg(4)).unwrap();
        let mut comp = composed(1, 4);
        assert_eq!(comp.name(), "optical");
        assert_eq!(comp.nodes(), 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(2, 3, 1 << 20), vec![], 0),
            dep(t(1, 2, 1 << 20), vec![0, 1], 1),
        ])
        .unwrap();
        let a = flat.execute_dag(&dag).unwrap();
        let b = comp.execute_dag(&dag).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cross_fabric_dependency_is_honored_at_the_completion_instant() {
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(1, 5, 1 << 20), vec![0], 1),
            dep(t(5, 6, 1 << 20), vec![1], 2),
        ])
        .unwrap();
        let report = comp.execute_dag(&dag).unwrap();
        assert_eq!(report.substrate, "composed(optical+electrical)");
        let tr = &report.transfers;
        assert!(tr[1].start_s >= tr[0].finish_s);
        assert!(tr[2].start_s >= tr[1].finish_s);
        assert!(report.makespan_s >= tr[2].finish_s);
        assert!(report.events > 0);
    }

    #[test]
    fn composed_runs_are_deterministic() {
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 2, 3 << 19), vec![], 0),
            dep(t(4, 7, 1 << 20), vec![], 0),
            dep(t(2, 6, 1 << 19), vec![0], 1),
            dep(t(7, 3, 1 << 18), vec![1], 1),
            dep(t(3, 1, 1 << 20), vec![2, 3], 2),
        ])
        .unwrap();
        let a = composed(2, 4).execute_dag(&dag).unwrap();
        let b = composed(2, 4).execute_dag(&dag).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    }

    #[test]
    fn independent_domains_overlap_in_time() {
        // An intra transfer and an inter transfer with no edges between
        // them: the composed run must not serialize the fabrics.
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 8 << 20), vec![], 0),
            dep(t(3, 4, 8 << 20), vec![], 0),
        ])
        .unwrap();
        let report = comp.execute_dag(&dag).unwrap();
        let tr = &report.transfers;
        // Both start at their release instants, not one after the other.
        assert!(tr[0].start_s < tr[1].finish_s);
        assert!(tr[1].start_s < tr[0].finish_s);
    }

    #[test]
    fn execute_lowers_barrier_steps_across_both_fabrics() {
        let mut comp = composed(2, 4);
        let sched = StepSchedule::from_steps(vec![
            vec![t(0, 1, 1 << 20), t(4, 5, 1 << 20)],
            vec![t(1, 4, 1 << 20)],
        ]);
        let report = comp.execute(&sched).unwrap();
        assert_eq!(report.step_count(), 2);
        assert!(report.total_time_s > 0.0);
        let sum: f64 = report.steps.iter().map(|s| s.duration_s).sum();
        assert!((sum - report.total_time_s).abs() < 1e-12);
    }

    #[test]
    fn multi_group_faults_are_rejected_and_streams_run() {
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(1, 5, 1 << 20), vec![0], 1),
        ])
        .unwrap();
        let unsupported = cfg_err("faults on a multi-group composed substrate are not supported");
        let faulted = comp.execute_dag_faulted(&dag, &FaultScript::default(), FaultPolicy::FailJob);
        assert_eq!(faulted.unwrap_err(), unsupported);
        let spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 1e-3],
            },
            SchedPolicy::Fifo,
        )
        .with_template(StreamTemplate::new("job", JobWorkload::Dag(dag)));
        let report = comp.execute_stream(&spec).unwrap();
        assert_eq!(report.substrate, "composed(optical+electrical)");
        assert_eq!(report.completed, 2);
        assert!(report.events > 0);
        // Paused after the first arrival and resumed, the stream reports
        // exactly what the uninterrupted run reports.
        let checkpoint = comp
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        let resumed = comp.resume_stream(&spec, &checkpoint, None).unwrap();
        assert_eq!(resumed.report(), Some(report));
        // A checkpoint the one-group hierarchy wrote, relabelled so that
        // only its flat engine image can reject it.
        let local = DepSchedule::from_transfers(vec![dep(t(0, 1, 1), vec![], 0)]).unwrap();
        let spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 1e-3],
            },
            SchedPolicy::Fifo,
        )
        .with_template(StreamTemplate::new("job", JobWorkload::Dag(local)));
        let mut flat = composed(1, 4)
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        flat.substrate = comp.name().to_string();
        let resumed = comp.resume_stream(&spec, &flat, None);
        assert_eq!(resumed.unwrap_err(), cfg_err("malformed stream checkpoint"));
    }

    #[test]
    fn a_resumed_stream_whose_image_claims_every_key_settled_fails_typed() {
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(1, 5, 1 << 20), vec![0], 1),
        ])
        .unwrap();
        let spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 1e-3],
            },
            SchedPolicy::Fifo,
        )
        .with_template(StreamTemplate::new("job", JobWorkload::Dag(dag)));
        // Paused right after the first arrival: both keys are in flight.
        let checkpoint = comp
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        let json = serde_json::to_string(&checkpoint).unwrap();
        let bad = json.replace("\"settled\":0", "\"settled\":2");
        assert_ne!(bad, json);
        let bad = serde_json::from_str(&bad).unwrap();
        assert_eq!(
            comp.resume_stream(&spec, &bad, None).unwrap_err(),
            cfg_err("stream drained with unfinished jobs")
        );
    }

    #[test]
    fn a_dependency_on_a_settled_key_is_rejected_before_any_state_change() {
        let sub = composed(2, 4);
        let mut eng = sub.engine(false, false, None).unwrap();
        // Keys 0 (intra) and 1 (inter) settle; key 2 waits on key 1.
        let batch = [
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(1, 5, 1 << 20), vec![], 0),
            dep(t(5, 6, 1 << 20), vec![1], 1),
        ];
        eng.inject(&batch, 0, 0.0, &|_| 0).unwrap();
        let mut done = Vec::new();
        while done.iter().filter(|c: &&Completion| c.key < 2).count() < 2 {
            eng.step().unwrap();
            eng.drain(&mut done);
        }
        let settled = cfg_err("dependency names a transfer that already settled");
        // A later batch may name the live key 2, but not a settled one.
        for bad in [0, 1] {
            let later = [
                dep(t(2, 3, 1 << 10), vec![2], 2),
                dep(t(6, 7, 1 << 10), vec![bad], 2),
            ];
            assert_eq!(eng.inject(&later, 3, 0.0, &|_| 0), Err(settled.clone()));
        }
        // Nothing of the rejected batches stuck: the next batch continues
        // at key 3, and the run ends cleanly.
        let later = [dep(t(2, 3, 1 << 10), vec![2], 2)];
        eng.inject(&later, 3, 0.0, &|_| 0).unwrap();
        while eng.step().unwrap().is_some() {}
        eng.drain(&mut done);
        eng.stall_diagnostic().unwrap();
        let mut keys: Vec<usize> = done.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, [0, 1, 2, 3]);
        // Forgotten keys are settled too.
        eng.forget_settled();
        let forgotten = [dep(t(0, 1, 1), vec![3], 3)];
        assert_eq!(eng.inject(&forgotten, 4, 0.0, &|_| 0), Err(settled));
    }

    /// A closed multi-group run streamed stage by stage holds blocks and
    /// edges only for the keys it has not forgotten, and reuses what
    /// forgotten keys freed: each round injects a stage whose inter
    /// transfer waits on its intra one, then a stage whose transfer waits
    /// on that intra one too, runs to idle and lets the engine forget. A
    /// stream, which never forgets, keeps every block.
    #[test]
    fn a_closed_run_holds_lists_only_for_unforgotten_keys() {
        let sub = ComposedSubstrate {
            spec: HierSpec::new(2, 4).unwrap(),
            intra: optical(4),
            inter: electrical(8),
            name: "composed".into(),
        };
        let mut eng = sub.composed_engine(false, false, None).unwrap();
        let mut done = Vec::new();
        for round in 0..50 {
            let first = 3 * round;
            let stage = [
                dep(t(0, 1, 1 << 10), vec![], 0),
                dep(t(1, 5, 1 << 10), vec![first], 1),
            ];
            eng.inject(&stage, first, 0.0, &|_| 0).unwrap();
            let later = [dep(t(5, 6, 1 << 10), vec![first], 2)];
            eng.inject(&later, first + 2, 0.0, &|_| 0).unwrap();
            assert_eq!(eng.lists.held(), (1, 1), "round {round}");
            let walk = eng.lists.walk(eng.block[0], 0, eng.later[0]);
            let dependents: Vec<u32> = eng.lists.entries(walk).collect();
            assert_eq!(dependents, [first + 1, first + 2].map(|k| k as u32));
            while eng.step().unwrap().is_some() {}
            eng.drain(&mut done);
            assert_eq!(eng.lists.held(), (1, 0), "round {round}");
            eng.forget_settled();
            assert_eq!(eng.lists.held(), (0, 0), "round {round}");
            assert_eq!(eng.base, first + 3);
        }
        assert_eq!(done.len(), 150);
        assert_eq!(eng.lists.allocated(), (1, 1));
        // Without forgetting, every block stays, and so does every row.
        let mut kept = sub.composed_engine(false, false, None).unwrap();
        for round in 0..3 {
            let first = 2 * round;
            let stage = [
                dep(t(0, 1, 1 << 10), vec![], 0),
                dep(t(1, 5, 1 << 10), vec![first], 1),
            ];
            kept.inject(&stage, first, 0.0, &|_| 0).unwrap();
            while kept.step().unwrap().is_some() {}
            assert_eq!(kept.lists.held(), (round + 1, 0));
        }
        let image = ComposedImage::from_value(&kept.snapshot()).unwrap();
        assert_eq!(image.row, [0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(image.dependents, [1, 3, 5]);
    }

    /// Streamed phase by phase through the closed driver, the largest
    /// mixed-parallelism shape of the benchmark, (8, 4, 4, 8) at 128
    /// microbatches, holds a window of its keys in the composed engine;
    /// injected whole, it holds all 271,104.
    #[test]
    fn a_streamed_parallelism_dag_holds_a_window_of_keys() {
        use crate::engine::run_closed;
        use crate::parallelism::{
            lower_parallelism, ParallelismSource, ParallelismSpec, StageModel,
        };
        let spec = ParallelismSpec::new(8, 4, 4, 8, 128).unwrap();
        // GPT2-small's gradient, the benchmark's activations and physics.
        let model = StageModel::split(497_759_232, 4, 8 << 20);
        let sub = ComposedSubstrate {
            spec: spec.hier().unwrap(),
            intra: Box::new(
                OpticalSubstrate::new(
                    OpticalConfig::new(8, 64)
                        .with_lambda_bandwidth(25e9 / 8.0)
                        .with_message_overhead(50e-9)
                        .with_hop_propagation(5e-9),
                )
                .unwrap(),
            ),
            inter: Box::new(ElectricalSubstrate::new(
                electrical_sim::topology::star_cluster(128, 100e9 / 8.0, 500e-9),
                5e-6,
            )),
            name: "composed".into(),
        };
        let source = ParallelismSource::new(&spec, &model).unwrap();
        assert_eq!(source.len(), 271_104);
        let mut eng = sub.composed_engine(false, false, None).unwrap();
        let mut settled = 0;
        run_closed(&mut eng, &source, None, |_| settled += 1).unwrap();
        assert_eq!(settled, source.len());
        assert!(eng.peak_held <= 40_160, "held {} keys", eng.peak_held);

        let mut whole = sub.composed_engine(false, false, None).unwrap();
        let dag = lower_parallelism(&spec, &model).unwrap();
        whole.inject(dag.transfers(), 0, 0.0, &|_| 0).unwrap();
        assert_eq!(whole.peak_held, 271_104);
    }

    #[test]
    fn jobs_are_arbitrated_across_fabrics() {
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![
            dep(t(0, 1, 1 << 20), vec![], 0),
            dep(t(1, 5, 1 << 20), vec![0], 1),
            dep(t(2, 3, 1 << 20), vec![], 1),
        ])
        .unwrap();
        let arb = JobArbitration {
            job_of: vec![0, 0, 1],
            rank: vec![0, 1],
            fair_share: false,
        };
        let run = comp.execute_dag_jobs(&dag, &arb).unwrap();
        assert_eq!(run.job_service_bytes.len(), 2);
        assert!(run.job_service_bytes[0] > run.job_service_bytes[1]);
        assert!(run.dag.makespan_s > 0.0);
    }
}
