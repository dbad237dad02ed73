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
//!   the composed per-transfer state.
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

use std::collections::BTreeMap;

use optical_sim::sim::StepSource;
use optical_sim::{NodeId, OpticalError, Transfer};
use serde::{Deserialize, Serialize, Value};

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

/// One member fabric of a [`ComposedEngine`]: its engine and the composed
/// engine's bookkeeping for it.
struct Member<'a> {
    eng: Box<dyn FabricEngine + 'a>,
    /// Composed key of each of the engine's own keys.
    keys: Vec<usize>,
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
struct ComposedEngine<'a> {
    spec: HierSpec,
    members: Vec<Member<'a>>,
    /// Per key: the transfer, with global endpoints.
    transfers: Vec<Transfer>,
    /// Per key: the job tag it was injected with.
    jobs: Vec<usize>,
    /// Per key: the earliest legal start — its release, raised to the
    /// completion instant of the latest dependency as dependencies settle.
    gate_s: Vec<f64>,
    /// Per key: dependencies not settled yet. The key launches into its
    /// member when the count reaches zero.
    missing: Vec<usize>,
    /// Dependents inside each key's batch, in compressed rows (one
    /// allocation per batch, not one list per key): those of key `k` are
    /// `dependents[row[k]..row[k + 1]]`, ascending. Keys are stored in 32
    /// bits, which halves the largest table.
    row: Vec<usize>,
    dependents: Vec<u32>,
    /// Dependents injected in a later batch than their dependency (a
    /// closed DAG streamed stage by stage), per dependency.
    later: BTreeMap<usize, Vec<usize>>,
    /// Keys settled so far.
    settled: usize,
    /// One past the highest key launched into a member.
    launched: usize,
    /// Outcomes of previous steps, by composed key, not drained yet.
    done: Vec<Completion>,
    /// Keys one step unblocked.
    ready: Vec<usize>,
}

/// A [`ComposedEngine`]'s checkpoint image: each member's own image, key
/// map and clock, and the per-key state (every time in it is finite, so
/// JSON carries it exactly).
#[derive(Default, Serialize, Deserialize)]
struct ComposedImage {
    members: Vec<MemberImage>,
    transfers: Vec<Transfer>,
    jobs: Vec<usize>,
    gate_s: Vec<f64>,
    missing: Vec<usize>,
    row: Vec<usize>,
    dependents: Vec<u32>,
    later: Vec<(usize, Vec<usize>)>,
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
    /// key or host? A job tag must also be below the key count: a stream
    /// registers a job only with at least one transfer and reuses retired
    /// tags first.
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
            && self.settled <= n
            && self
                .transfers
                .iter()
                .all(|t| t.src.0 < nodes && t.dst.0 < nodes)
            && self.jobs.iter().all(key)
            && self.dependents.iter().all(|&d| key(&(d as usize)))
            && self.later.iter().all(|(k, v)| key(k) && v.iter().all(key))
            && self.members.iter().all(|m| m.keys.iter().all(key))
            && self.done.iter().all(|c| key(&c.key))
    }
}

impl<'a> ComposedEngine<'a> {
    /// The engine over `members` (intra groups, then inter) in the state
    /// of `image`, whose member images the members were restored from.
    fn new(spec: HierSpec, members: Vec<Member<'a>>, image: ComposedImage) -> Self {
        Self {
            spec,
            members,
            launched: image.transfers.len(),
            transfers: image.transfers,
            jobs: image.jobs,
            gate_s: image.gate_s,
            missing: image.missing,
            row: image.row,
            dependents: image.dependents,
            later: image.later.into_iter().collect(),
            settled: image.settled,
            done: image.done,
            ready: Vec::new(),
        }
    }

    /// Validate `batch` and append each transfer's per-key state, counting
    /// its in-batch dependencies into `row`.
    fn record(
        &mut self,
        batch: &[DepTransfer],
        first: usize,
        base: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let nodes = self.spec.nodes();
        for (i, t) in batch.iter().enumerate() {
            if t.transfer.src.0 >= nodes || t.transfer.dst.0 >= nodes {
                return Err(cfg_err("transfer endpoint outside the hierarchy"));
            }
            let release_s = offset_s + t.release_s;
            if !release_s.is_finite() || release_s < 0.0 {
                return Err(cfg_err("release time must be finite and >= 0"));
            }
            for &d in &t.deps {
                if d >= first + i {
                    return Err(cfg_err("dependency must precede its transfer"));
                }
                if d >= first {
                    self.row[base + d] += 1;
                }
            }
            self.transfers.push(t.transfer.clone());
            self.jobs.push(job(i));
            self.gate_s.push(release_s);
            self.missing.push(t.deps.len());
        }
        Ok(())
    }

    /// Inject key `key` into the member its endpoints name.
    fn launch(&mut self, key: usize) -> Result<()> {
        let t = &self.transfers[key];
        let member = match self.spec.domain_of(t.src.0, t.dst.0) {
            Domain::Intra { group } => group,
            Domain::Inter => self.spec.groups,
        };
        self.members[member].launch(key, t, self.gate_s[key], self.jobs[key])?;
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
    fn peek_time(&mut self) -> Option<f64> {
        if self.settled >= self.transfers.len() {
            return None;
        }
        self.members
            .iter_mut()
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
    /// its dependents' rows, then launch the dependency-free transfers in
    /// key order. A batch that fails validation leaves no trace.
    fn inject(
        &mut self,
        batch: &[DepTransfer],
        first: usize,
        offset_s: f64,
        job: &dyn Fn(usize) -> usize,
    ) -> Result<()> {
        let n = self.transfers.len();
        let base = dag_base(n, first)?;
        let len = batch.len();
        if n + len > MAX_KEYS {
            return Err(cfg_err("composed engine keys exhausted"));
        }
        self.transfers.reserve(len);
        self.jobs.reserve(len);
        self.gate_s.reserve(len);
        self.missing.reserve(len);
        // The batch's rows follow the earlier batches' (`row[n]` is where
        // they end): count each key's dependents, sum, then fill back to
        // front, so `row[k]` ends at the start of its row.
        self.row.resize(n + len + 1, 0);
        if let Err(e) = self.record(batch, first, base, offset_s, job) {
            self.transfers.truncate(n);
            self.jobs.truncate(n);
            self.gate_s.truncate(n);
            self.missing.truncate(n);
            self.row.truncate(n + 1);
            self.row[n] = self.dependents.len();
            return Err(e);
        }
        for k in n + 1..=n + len {
            self.row[k] += self.row[k - 1];
        }
        self.dependents.resize(self.row[n + len], 0);
        for (i, t) in batch.iter().enumerate().rev() {
            for &d in &t.deps {
                if d >= first {
                    self.row[base + d] -= 1;
                    // In range: `MAX_KEYS` bounds every key.
                    self.dependents[self.row[base + d]] = (n + i) as u32;
                } else {
                    self.later.entry(base + d).or_default().push(n + i);
                }
            }
        }
        for k in n..n + len {
            if self.missing[k] == 0 {
                self.launch(k)?;
            }
        }
        Ok(())
    }

    /// A key can settle in the next step only once it was launched.
    fn frontier(&self) -> usize {
        self.launched
    }

    /// The member with the earliest pending event steps (ties go to the
    /// lowest member index); with none pending, every member steps once,
    /// since the fluid engine promotes released flows lazily inside its
    /// step. Settled keys release their dependents, and those whose last
    /// dependency settled launch in key order. `None` once every key
    /// settled, or when no member made progress.
    fn step(&mut self) -> Result<Option<f64>> {
        if self.settled >= self.transfers.len() {
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
                c.key = *m
                    .keys
                    .get(c.key)
                    .ok_or_else(|| cfg_err("member completion outside the composed keys"))?;
            }
        }
        if best.is_none() && self.done.len() == first && before == self.events() {
            return Ok(None);
        }
        let Self {
            done,
            row,
            dependents,
            later,
            gate_s,
            missing,
            ready,
            settled,
            ..
        } = self;
        ready.clear();
        let mut unblock = |j: usize, finish_s: f64| -> Result<()> {
            if finish_s > gate_s[j] {
                gate_s[j] = finish_s;
            }
            missing[j] = missing[j]
                .checked_sub(1)
                .ok_or_else(|| cfg_err("dependent released more often than it has dependencies"))?;
            if missing[j] == 0 {
                ready.push(j);
            }
            Ok(())
        };
        for c in &done[first..] {
            *settled += 1;
            for &j in &dependents[row[c.key]..row[c.key + 1]] {
                unblock(j as usize, c.finish_s)?;
            }
            if !later.is_empty() {
                for j in later.remove(&c.key).into_iter().flatten() {
                    unblock(j, c.finish_s)?;
                }
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
        if self.settled >= self.transfers.len() {
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

    fn snapshot(&self) -> Value {
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
            row: self.row.clone(),
            dependents: self.dependents.clone(),
            later: self.later.iter().map(|(&k, v)| (k, v.clone())).collect(),
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
        // are non-decreasing).
        let schedule = source.to_schedule();
        let dag = DepSchedule::from_steps(&schedule);
        let run = self.execute_dag(&dag)?;
        let mut stage_end = vec![0.0f64; schedule.len()];
        for (t, timing) in dag.transfers().iter().zip(&run.transfers) {
            stage_end[t.stage] = stage_end[t.stage].max(timing.finish_s);
        }
        let mut steps = Vec::with_capacity(schedule.len());
        let mut prev_end = 0.0f64;
        for (k, step) in schedule.steps().iter().enumerate() {
            let end = stage_end[k].max(prev_end);
            steps.push(StepTiming {
                duration_s: end - prev_end,
                transfers: step.len(),
                bytes: step.iter().map(|t| t.bytes).sum(),
                peak_wavelength: 0,
            });
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
                node_base,
                clock_s: own.as_ref().map_or(0.0, |i| i.clock_s),
                keys: own.map_or_else(Vec::new, |i| i.keys),
            });
        }
        Ok(Box::new(ComposedEngine::new(self.spec, members, restored)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DepTransfer;
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
