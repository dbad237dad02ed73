//! Hierarchical composed substrates: intra-group and inter-group fabrics
//! executing one DAG together.
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
//!   `groups * group_size` hosts. With several groups the result's
//!   [`Substrate::execute_dag`] partitions the DAG by domain and drives one
//!   streaming engine per fabric — [`optical_sim::GrantEngine`] for
//!   optical fabrics, [`electrical_sim::FluidEngine`] for electrical ones,
//!   both running on the shared [`wrht_kernel::EventKernel`] semantics —
//!   in a single event loop: at every iteration the engine with the
//!   earliest pending event steps, its completions retire dependency
//!   edges, and transfers whose last predecessor just finished are
//!   injected into *their* fabric's engine released at the bit-exact
//!   completion instant. Cross-fabric dependencies are therefore honored
//!   at kernel event granularity, not at phase barriers.
//!
//! # Flat collapse
//!
//! A [`HierSpec`] with `groups == 1` has no inter-group traffic at all —
//! every transfer's endpoints share the single group — so [`compose`]
//! returns the intra substrate itself: its name, stepped and closed runs
//! and engine, so fault and stream runs too, are the flat substrate's. A
//! single-group composed run is **bit-exact** with the flat run, label
//! included; this collapse is pinned by `tests/hierarchy_differential.rs`
//! on both fabric orders. With several groups there is no single engine:
//! fault and stream runs are rejected with one typed error.
//!
//! # Determinism
//!
//! The event loop is deterministic: engines are ordered (group 0 .. group
//! G-1, then inter), the next engine to step is the minimum of the
//! engines' next-event instants under IEEE-754 total order with ties
//! broken by engine index, completions drain in engine order, and newly
//! unblocked transfers are injected in ascending DAG index. Same DAG →
//! bit-identical report.
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

use crate::dag::{DepSchedule, DepSource, DepTransfer};
use crate::engine::{check_jobs, Completion, FabricEngine};
use crate::error::Result;
use crate::substrate::{DagRunReport, DagTiming, RunReport, StepTiming, Substrate};
use crate::tenancy::{JobArbitration, TenantDagRun};

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

/// One fabric engine of the composed loop plus the loop's bookkeeping for
/// it.
struct Member<'a> {
    eng: Box<dyn FabricEngine + 'a>,
    /// Global DAG index of each engine completion key.
    dag_index: Vec<usize>,
    /// Global id of the fabric's host 0 (group * group_size; 0 for the
    /// inter fabric).
    node_base: usize,
    /// Instant of the engine's last processed event. Cross-fabric gates
    /// can lie (slightly) in this engine's past — the fluid engines surface
    /// completions through tolerated stale events, so a finish instant may
    /// only become known after other engines advanced beyond it.
    /// Injections clamp their release to this clock: the transfer still
    /// starts no earlier than its gate.
    clock_s: f64,
}

impl<'a> Member<'a> {
    /// A fresh engine of `fabric` for one instance of it, with hosts from
    /// global id `node_base` on. `arb` registers the jobs' grant ranks
    /// (arbitrating the optical grant order).
    fn new(
        fabric: &'a dyn Substrate,
        node_base: usize,
        arb: Option<&JobArbitration>,
    ) -> Result<Self> {
        let mut eng = fabric.engine(arb.is_some(), arb.is_some_and(|a| a.fair_share), None)?;
        for &r in arb.map_or(&[][..], |a| &a.rank) {
            eng.add_job(r);
        }
        Ok(Self {
            eng,
            dag_index: Vec::new(),
            node_base,
            clock_s: 0.0,
        })
    }

    /// Inject one transfer, released at `gate_s` (raised to the fabric's
    /// clock), with its global endpoints rebased to the fabric's hosts.
    fn inject(&mut self, idx: usize, t: &DepTransfer, gate_s: f64, job: usize) -> Result<()> {
        let local = DepTransfer {
            transfer: Transfer {
                src: NodeId(t.transfer.src.0 - self.node_base),
                dst: NodeId(t.transfer.dst.0 - self.node_base),
                ..t.transfer.clone()
            },
            deps: Vec::new(),
            release_s: 0.0,
            stage: t.stage,
        };
        let release_s = gate_s.max(self.clock_s);
        self.eng
            .inject(std::slice::from_ref(&local), 0, release_s, &|_| job)?;
        self.dag_index.push(idx);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The composed substrate
// ---------------------------------------------------------------------------

/// Compose a hierarchical [`Substrate`] from `intra`, **one group's**
/// fabric (instantiated once per group through its engine factory), and
/// `inter`, the fabric between groups, which spans every host. A
/// one-group spec is the intra substrate itself (see the module docs);
/// otherwise the result is the composed event loop.
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

/// Several groups' intra fabrics plus one inter-group fabric, executing
/// one domain-tagged DAG in a single event loop (see module docs).
struct ComposedSubstrate {
    spec: HierSpec,
    intra: Box<dyn Substrate>,
    inter: Box<dyn Substrate>,
    name: String,
}

impl ComposedSubstrate {
    /// The composed event loop (see module docs for the determinism
    /// contract). `arb` switches the optical fabrics into arbitrated
    /// (multi-job) grant order and tags electrical flows with jobs.
    fn run(&self, dag: &DepSchedule, arb: Option<&JobArbitration>) -> Result<DagRunReport> {
        // Engines in fixed order: intra group 0 .. G-1, then inter.
        let engine_of: Vec<usize> = self
            .spec
            .domains(dag)?
            .into_iter()
            .map(|d| match d {
                Domain::Intra { group } => group,
                Domain::Inter => self.spec.groups,
            })
            .collect();
        check_jobs(dag.len(), arb)?;

        let mut fabrics: Vec<Member<'_>> = Vec::with_capacity(self.spec.groups + 1);
        for g in 0..self.spec.groups {
            fabrics.push(Member::new(&*self.intra, g * self.spec.group_size, arb)?);
        }
        fabrics.push(Member::new(&*self.inter, 0, arb)?);

        let transfers = dag.transfers();
        let n = transfers.len();
        let mut missing: Vec<usize> = transfers.iter().map(|t| t.deps.len()).collect();
        // Dependents in compressed rows (one allocation, not one list per
        // transfer): those of `d` are `dependents[row[d]..row[d + 1]]`,
        // ascending.
        let mut row = vec![0usize; n + 1];
        for (i, t) in transfers.iter().enumerate() {
            if t.deps.iter().any(|&d| d >= i) {
                return Err(cfg_err("dependency must precede its transfer"));
            }
            t.deps.iter().for_each(|&d| row[d] += 1);
        }
        for d in 1..=n {
            row[d] += row[d - 1];
        }
        // Filled back to front, so `row[d]` ends at the start of its row.
        let mut dependents = vec![0usize; row[n]];
        for (i, t) in transfers.iter().enumerate().rev() {
            for &d in &t.deps {
                row[d] -= 1;
                dependents[row[d]] = i;
            }
        }
        // Earliest legal start: own release, raised to the completion
        // instant of the latest predecessor as predecessors finish.
        let mut gate_s: Vec<f64> = transfers.iter().map(|t| t.release_s).collect();
        let job_of = |i: usize| arb.map_or(0, |a| a.job_of[i]);

        for i in 0..n {
            if missing[i] == 0 {
                fabrics[engine_of[i]].inject(i, &transfers[i], gate_s[i], job_of(i))?;
            }
        }

        let mut timings = vec![
            DagTiming {
                start_s: 0.0,
                finish_s: 0.0,
            };
            n
        ];
        let mut completed = 0usize;
        let mut done: Vec<Completion> = Vec::new();
        let mut ready: Vec<usize> = Vec::new();
        while completed < n {
            // The engine with the earliest pending event steps next;
            // ties go to the lowest engine index.
            let mut best: Option<(f64, usize)> = None;
            for (k, f) in fabrics.iter_mut().enumerate() {
                if let Some(t) = f.eng.peek_time() {
                    best = Some(match best {
                        Some((bt, bk)) if bt.total_cmp(&t).is_le() => (bt, bk),
                        _ => (t, k),
                    });
                }
            }
            done.clear();
            // The fluid engine promotes released flows lazily inside
            // `step`; with nothing pending, give every fabric one chance
            // to make progress before declaring the run stuck.
            let stepping = match best {
                Some((_, k)) => k..k + 1,
                None => 0..fabrics.len(),
            };
            let events =
                |fabrics: &[Member<'_>]| fabrics.iter().map(|f| f.eng.events()).sum::<u64>();
            let before = if best.is_none() { events(&fabrics) } else { 0 };
            for f in &mut fabrics[stepping] {
                if let Some(t) = f.eng.step()? {
                    f.clock_s = f.clock_s.max(t);
                }
                // Completion keys are resolved to DAG indices in place.
                let first = done.len();
                f.eng.drain(&mut done);
                for c in &mut done[first..] {
                    c.key = f.dag_index[c.key];
                }
            }
            if best.is_none() && done.is_empty() && before == events(&fabrics) {
                for f in &mut fabrics {
                    f.eng.stall_diagnostic()?;
                }
                return Err(cfg_err("composed run stalled with unfinished transfers"));
            }
            ready.clear();
            for c in &done {
                let idx = c.key;
                timings[idx] = DagTiming {
                    start_s: c.start_s,
                    finish_s: c.finish_s,
                };
                completed += 1;
                for &j in &dependents[row[idx]..row[idx + 1]] {
                    if c.finish_s > gate_s[j] {
                        gate_s[j] = c.finish_s;
                    }
                    missing[j] -= 1;
                    if missing[j] == 0 {
                        ready.push(j);
                    }
                }
            }
            // Unblocked transfers enter their fabric in DAG order,
            // released at the bit-exact instant their last predecessor
            // finished (raised to their own release time if later).
            ready.sort_unstable();
            for &j in &ready {
                fabrics[engine_of[j]].inject(j, &transfers[j], gate_s[j], job_of(j))?;
            }
        }

        let mut report = DagRunReport {
            substrate: self.name.clone(),
            makespan_s: timings.iter().fold(0.0f64, |m, t| m.max(t.finish_s)),
            transfers: timings,
            peak_wavelength: 0,
            rate_recomputations: 0,
            solver_work: 0,
            events: 0,
        };
        for f in &fabrics {
            report.peak_wavelength = report.peak_wavelength.max(f.eng.peak_wavelength());
            let (r, w) = f.eng.solver_stats();
            report.rate_recomputations += r;
            report.solver_work += w;
            report.events += f.eng.events();
        }
        Ok(report)
    }
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
        let run = self.run(&dag, None)?;
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

    fn engine(
        &self,
        _arbitrated: bool,
        _fair_share: bool,
        _image: Option<&Value>,
    ) -> Result<Box<dyn FabricEngine + '_>> {
        Err(cfg_err(
            "faults and streams on a multi-group composed substrate are not supported",
        ))
    }

    /// The composed event loop. Like the flat optical path, the loop has
    /// no fractional rate attribution to report (the fluid rates live
    /// inside the inter engine).
    fn execute_closed(
        &mut self,
        dag: &dyn DepSource,
        arb: Option<&JobArbitration>,
    ) -> Result<TenantDagRun> {
        let dag = dag.to_dag();
        Ok(TenantDagRun::unattributed(self.run(&dag, arb)?, &*dag, arb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DepTransfer;
    use crate::fault::{FaultPolicy, FaultScript};
    use crate::stream::{ArrivalProcess, StreamSpec, StreamTemplate};
    use crate::substrate::{ElectricalSubstrate, OpticalSubstrate};
    use crate::tenancy::{JobWorkload, SchedPolicy};
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
    fn multi_group_faults_and_streams_are_rejected() {
        let mut comp = composed(2, 4);
        let dag = DepSchedule::from_transfers(vec![dep(t(0, 1, 1), vec![], 0)]).unwrap();
        let unsupported =
            cfg_err("faults and streams on a multi-group composed substrate are not supported");
        let faulted = comp.execute_dag_faulted(&dag, &FaultScript::default(), FaultPolicy::FailJob);
        assert_eq!(faulted.unwrap_err(), unsupported);
        let spec = StreamSpec::new(
            ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 1e-3],
            },
            SchedPolicy::Fifo,
        )
        .with_template(StreamTemplate::new("job", JobWorkload::Dag(dag)));
        assert_eq!(comp.execute_stream(&spec).unwrap_err(), unsupported);
        let paused = comp.execute_stream_until(&spec, Some(1));
        assert_eq!(paused.unwrap_err(), unsupported);
        // A checkpoint the one-group hierarchy wrote, relabelled so that
        // only the missing engine can reject it.
        let mut checkpoint = composed(1, 4)
            .execute_stream_until(&spec, Some(1))
            .unwrap()
            .checkpoint()
            .unwrap();
        checkpoint.substrate = comp.name().to_string();
        let resumed = comp.resume_stream(&spec, &checkpoint, None);
        assert_eq!(resumed.unwrap_err(), unsupported);
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
