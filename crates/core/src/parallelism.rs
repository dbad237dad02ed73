//! The mixed-parallelism IR: TP × PP × DP × MoE lowered to one
//! hierarchical traffic DAG.
//!
//! Transformer training traffic is not a single all-reduce. One iteration
//! mixes four patterns with different localities:
//!
//! * **Tensor parallelism (TP)** — every transformer block ends in an
//!   all-reduce of the activation across the `tp` ranks that shard its
//!   matmuls. Latency-critical, so TP ranks share a group and the
//!   all-reduce stays on the intra-group fabric.
//! * **Pipeline parallelism (PP)** — activations cross stage boundaries as
//!   point-to-point sends between corresponding ranks of adjacent stages.
//!   Stages live in different groups, so these ride the inter fabric.
//! * **Data parallelism (DP)** — after the last microbatch, each stage's
//!   gradients are all-reduced across its `dp` replicas — a ring
//!   collective over one rank per group, entirely inter-group.
//! * **MoE all-to-all** — expert-parallel layers exchange tokens between
//!   every pair of expert hosts ([`crate::alltoall::alltoall_pairs`]).
//!   Expert hosts span replicas, so the pattern straddles both fabrics.
//!
//! [`ParallelismSpec`] names the degrees, [`StageModel`] carries the byte
//! counts, and [`lower_parallelism`] emits one [`DepSchedule`] whose
//! transfers the hierarchy layer tags by endpoint
//! ([`crate::hierarchy::HierSpec::domains`]) and executes on a composed
//! substrate ([`crate::hierarchy::compose`]).
//!
//! # Rank layout
//!
//! The job occupies [`ParallelismSpec::groups`]` = pp * dp` groups of
//! `tp` hosts. Group `stage * dp + replica` holds the `tp` lanes of
//! pipeline stage `stage`, replica `replica`; lane `k` of that group is
//! global host `(stage * dp + replica) * tp + k`. TP traffic therefore
//! never leaves a group, and PP/DP traffic never stays inside one.
//!
//! # Dependency structure
//!
//! The lowering tracks a per-host frontier (the transfers that last
//! touched each host). Collectives enter through a barrier over their
//! members' frontiers and chain step-over-step internally (the bucket
//! pattern [`DepSchedule::from_steps`] uses); point-to-points depend on
//! both endpoints' frontiers. The result is a DAG where, e.g., replica 0's
//! TP all-reduce for microbatch 2 can overlap replica 1's PP send for
//! microbatch 1 — exactly the concurrency a real pipeline exposes.

use collectives::ring::ring_allreduce;
use collectives::Schedule;
use optical_sim::{NodeId, OpticalError, Transfer};
use serde::{Deserialize, Serialize};

use crate::alltoall::alltoall_pairs;
use crate::dag::{DepSchedule, DepTransfer};
use crate::error::Result;
use crate::hierarchy::HierSpec;

fn cfg_err(msg: &'static str) -> crate::error::WrhtError {
    OpticalError::BadConfig(msg).into()
}

/// Degrees of a mixed-parallelism training job.
///
/// `tp * pp * dp` hosts total, arranged as [`ParallelismSpec::groups`]
/// groups of `tp` (see the module docs for the rank layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelismSpec {
    /// Tensor-parallel degree: hosts per group (>= 2 — a group is an
    /// optical ring and TP of one produces no traffic).
    pub tp: usize,
    /// Pipeline stages (>= 1).
    pub pp: usize,
    /// Data-parallel replicas per stage (>= 1).
    pub dp: usize,
    /// Expert hosts for MoE all-to-all; `0` disables MoE. When enabled,
    /// needs >= 2 and at most `dp * tp` (the hosts of one stage).
    pub moe_experts: usize,
    /// Microbatches pushed through the pipeline per iteration (>= 1).
    pub microbatches: usize,
}

impl ParallelismSpec {
    /// Validated constructor.
    ///
    /// # Errors
    /// Rejects degenerate degrees (see field docs).
    pub fn new(
        tp: usize,
        pp: usize,
        dp: usize,
        moe_experts: usize,
        microbatches: usize,
    ) -> Result<Self> {
        let spec = Self {
            tp,
            pp,
            dp,
            moe_experts,
            microbatches,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the degree constraints without consuming the spec.
    ///
    /// # Errors
    /// Rejects degenerate degrees (see field docs) and shapes whose host
    /// count overflows `usize`.
    pub fn validate(&self) -> Result<()> {
        if self.tp < 2 {
            return Err(cfg_err("tensor parallelism needs tp >= 2"));
        }
        if self.pp == 0 || self.dp == 0 {
            return Err(cfg_err(
                "pipeline and data parallelism degrees must be >= 1",
            ));
        }
        let groups = self.pp.checked_mul(self.dp);
        if groups.and_then(|g| g.checked_mul(self.tp)).is_none() {
            return Err(cfg_err("parallelism host count overflows"));
        }
        if self.microbatches == 0 {
            return Err(cfg_err("at least one microbatch per iteration"));
        }
        if self.moe_experts == 1 {
            return Err(cfg_err("MoE needs at least two expert hosts (or zero)"));
        }
        if self.moe_experts > self.dp * self.tp {
            return Err(cfg_err("MoE experts cannot exceed the hosts of one stage"));
        }
        Ok(())
    }

    /// Groups the job occupies: `pp * dp`.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.pp * self.dp
    }

    /// Total hosts: `tp * pp * dp`.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.tp * self.groups()
    }

    /// The hierarchy shape this job lowers onto.
    ///
    /// # Errors
    /// Propagates the degree constraints of [`ParallelismSpec::validate`].
    pub fn hier(&self) -> Result<HierSpec> {
        self.validate()?;
        HierSpec::new(self.groups(), self.tp)
    }

    /// Global host id of `(stage, replica, lane)`.
    #[must_use]
    pub fn node(&self, stage: usize, replica: usize, lane: usize) -> usize {
        (stage * self.dp + replica) * self.tp + lane
    }
}

/// Byte counts of the lowered model, decoupled from any model zoo: the
/// gradient bytes of each pipeline stage and the activation bytes crossing
/// block/stage boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageModel {
    /// Gradient bytes per pipeline stage (one entry per stage, each >= 1).
    pub gradient_bytes: Vec<u64>,
    /// Activation bytes per microbatch at a block/stage boundary (>= 1).
    pub activation_bytes: u64,
}

impl StageModel {
    /// Split `total_gradient_bytes` evenly over `pp` stages (remainder to
    /// the earliest stages, so the sum is exact).
    #[must_use]
    pub fn split(total_gradient_bytes: u64, pp: usize, activation_bytes: u64) -> Self {
        let base = total_gradient_bytes / pp as u64;
        let extra = (total_gradient_bytes % pp as u64) as usize;
        Self {
            gradient_bytes: (0..pp).map(|s| base + u64::from(s < extra)).collect(),
            activation_bytes,
        }
    }
}

/// Per-host frontier DAG builder (see module docs).
struct DagBuilder {
    transfers: Vec<DepTransfer>,
    frontier: Vec<Vec<usize>>,
    stage: usize,
    scratch: Vec<usize>,
}

impl DagBuilder {
    fn new(nodes: usize) -> Self {
        Self {
            transfers: Vec::new(),
            frontier: vec![Vec::new(); nodes],
            stage: 0,
            scratch: Vec::new(),
        }
    }

    /// Advance the stage label (non-decreasing, required by
    /// [`DepSchedule::from_transfers`]).
    fn next_phase(&mut self) {
        if !self.transfers.is_empty() {
            self.stage += 1;
        }
    }

    fn push(&mut self, src: usize, dst: usize, bytes: u64, deps: Vec<usize>) -> usize {
        let idx = self.transfers.len();
        self.transfers.push(DepTransfer {
            transfer: Transfer::shortest(NodeId(src), NodeId(dst), bytes),
            deps,
            release_s: 0.0,
            stage: self.stage,
        });
        idx
    }

    /// Sorted, deduplicated union of the members' frontiers.
    fn barrier(&mut self, members: impl IntoIterator<Item = usize>) -> Vec<usize> {
        self.scratch.clear();
        for m in members {
            self.scratch.extend_from_slice(&self.frontier[m]);
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.scratch.clone()
    }

    /// Point-to-point transfer gated on both endpoints' frontiers.
    fn p2p(&mut self, src: usize, dst: usize, bytes: u64) {
        let deps = self.barrier([src, dst]);
        let idx = self.push(src, dst, bytes, deps);
        self.frontier[src] = vec![idx];
        self.frontier[dst] = vec![idx];
    }

    /// Embed a collective `sched` (already addressed in global host ids —
    /// see [`Schedule::over_members`]) with `bytes_per_elem`-wide
    /// elements: entry barrier over the members' frontiers, step-over-step
    /// dependency chains inside, exit frontier on every member.
    fn collective(&mut self, sched: &Schedule, members: &[usize], bytes_per_elem: u64) {
        let mut prev = self.barrier(members.iter().copied());
        for step in &sched.steps {
            let mut cur = Vec::with_capacity(step.transfers.len());
            for t in &step.transfers {
                if t.elems() == 0 {
                    continue;
                }
                let bytes = t.elems() as u64 * bytes_per_elem;
                cur.push(self.push(t.src, t.dst, bytes, prev.clone()));
            }
            if !cur.is_empty() {
                prev = cur;
            }
        }
        for &m in members {
            self.frontier[m] = prev.clone();
        }
    }

    /// One-step all-to-all among `hosts`: every ordered pair at once,
    /// barrier in, barrier out.
    fn alltoall(&mut self, hosts: &[usize], bytes: u64) {
        let entry = self.barrier(hosts.iter().copied());
        let mut out = Vec::new();
        for (src, dst) in alltoall_pairs(hosts) {
            out.push(self.push(src, dst, bytes, entry.clone()));
        }
        if out.is_empty() {
            return;
        }
        for &h in hosts {
            self.frontier[h] = out.clone();
        }
    }

    fn finish(self) -> Result<DepSchedule> {
        DepSchedule::from_transfers(self.transfers)
    }
}

/// Lower one training iteration of `spec` over `model` to a single
/// dependency DAG in the hierarchical rank layout (see module docs).
///
/// Per microbatch and pipeline stage: a TP ring all-reduce of the
/// activation inside every replica's group, the stage's MoE all-to-all
/// (when enabled) among its first [`ParallelismSpec::moe_experts`] hosts,
/// then the PP boundary point-to-points into the next stage. After the
/// last microbatch, each stage's TP-sharded gradients are ring
/// all-reduced across its `dp` replicas, one ring per lane.
///
/// Chunk sizes round up (`div_ceil`), so lowered bytes can exceed the
/// model's byte counts by at most one byte per chunk — never undershoot.
///
/// # Errors
/// Rejects invalid specs and models whose stage table does not match
/// `spec.pp` or whose byte counts are zero.
pub fn lower_parallelism(spec: &ParallelismSpec, model: &StageModel) -> Result<DepSchedule> {
    spec.validate()?;
    if model.gradient_bytes.len() != spec.pp {
        return Err(cfg_err(
            "stage model must have one entry per pipeline stage",
        ));
    }
    if model.activation_bytes == 0 || model.gradient_bytes.contains(&0) {
        return Err(cfg_err("stage model byte counts must be positive"));
    }

    let mut b = DagBuilder::new(spec.nodes());
    // One ring template per collective shape, re-addressed per member set.
    let tp_ring = ring_allreduce(spec.tp, spec.tp);
    let dp_ring = ring_allreduce(spec.dp, spec.dp);
    let act_chunk = model.activation_bytes.div_ceil(spec.tp as u64);

    for _microbatch in 0..spec.microbatches {
        for s in 0..spec.pp {
            // TP activation all-reduce inside every replica's group.
            b.next_phase();
            for r in 0..spec.dp {
                let members: Vec<usize> = (0..spec.tp).map(|k| spec.node(s, r, k)).collect();
                let sched = tp_ring.over_members(&members);
                b.collective(&sched, &members, act_chunk);
            }
            // MoE token exchange among the stage's expert hosts (spans
            // replicas, so the pairs mix intra and inter traffic).
            if spec.moe_experts >= 2 {
                b.next_phase();
                let base = spec.node(s, 0, 0);
                let hosts: Vec<usize> = (0..spec.moe_experts).map(|e| base + e).collect();
                b.alltoall(
                    &hosts,
                    model.activation_bytes.div_ceil(spec.moe_experts as u64),
                );
            }
            // PP boundary: activations to the corresponding rank of the
            // next stage (TP-sharded, one send per lane).
            if s + 1 < spec.pp {
                b.next_phase();
                for r in 0..spec.dp {
                    for k in 0..spec.tp {
                        b.p2p(spec.node(s, r, k), spec.node(s + 1, r, k), act_chunk);
                    }
                }
            }
        }
    }

    // DP gradient all-reduce: per stage, per lane, a ring across replicas.
    if spec.dp >= 2 {
        b.next_phase();
        for (s, &grad) in model.gradient_bytes.iter().enumerate() {
            let chunk = grad.div_ceil((spec.tp * spec.dp) as u64);
            for k in 0..spec.tp {
                let members: Vec<usize> = (0..spec.dp).map(|r| spec.node(s, r, k)).collect();
                let sched = dp_ring.over_members(&members);
                b.collective(&sched, &members, chunk);
            }
        }
    }

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Domain;

    fn spec(tp: usize, pp: usize, dp: usize, moe: usize, mb: usize) -> ParallelismSpec {
        ParallelismSpec::new(tp, pp, dp, moe, mb).unwrap()
    }

    #[test]
    fn spec_validation_rejects_degenerate_degrees() {
        assert!(ParallelismSpec::new(1, 1, 1, 0, 1).is_err());
        assert!(ParallelismSpec::new(2, 0, 1, 0, 1).is_err());
        assert!(ParallelismSpec::new(2, 1, 0, 0, 1).is_err());
        assert!(ParallelismSpec::new(2, 1, 1, 0, 0).is_err());
        assert!(ParallelismSpec::new(2, 1, 1, 1, 1).is_err());
        assert!(ParallelismSpec::new(2, 1, 2, 5, 1).is_err());
        assert!(ParallelismSpec::new(2, 1, 2, 4, 1).is_ok());
    }

    #[test]
    fn spec_validation_rejects_host_counts_that_overflow() {
        let overflows = cfg_err("parallelism host count overflows");
        for (tp, pp, dp) in [
            (1 << 40, 1, 1 << 40),
            (2, usize::MAX, 2),
            (usize::MAX, 1, 2),
            (2, 1 << 40, 1 << 40),
        ] {
            assert_eq!(
                ParallelismSpec::new(tp, pp, dp, 0, 1).unwrap_err(),
                overflows
            );
        }
        // The largest host count that fits is a valid shape.
        assert!(ParallelismSpec::new(usize::MAX / 2, 1, 2, 0, 1).is_ok());
    }

    #[test]
    fn rank_layout_matches_the_hierarchy() {
        let s = spec(4, 2, 3, 0, 1);
        assert_eq!(s.groups(), 6);
        assert_eq!(s.nodes(), 24);
        let h = s.hier().unwrap();
        assert_eq!(h.groups, 6);
        assert_eq!(h.group_size, 4);
        // Lanes of one (stage, replica) share a group.
        assert_eq!(h.group_of(s.node(1, 2, 0)), h.group_of(s.node(1, 2, 3)));
        // Different replicas / stages do not.
        assert_ne!(h.group_of(s.node(1, 0, 0)), h.group_of(s.node(1, 1, 0)));
        assert_ne!(h.group_of(s.node(0, 0, 0)), h.group_of(s.node(1, 0, 0)));
    }

    #[test]
    fn stage_model_split_is_exact() {
        let m = StageModel::split(10, 3, 7);
        assert_eq!(m.gradient_bytes, vec![4, 3, 3]);
        assert_eq!(m.gradient_bytes.iter().sum::<u64>(), 10);
        assert_eq!(m.activation_bytes, 7);
    }

    #[test]
    fn tp_only_jobs_stay_intra_group() {
        let s = spec(4, 1, 1, 0, 2);
        let m = StageModel::split(1 << 20, 1, 1 << 16);
        let dag = lower_parallelism(&s, &m).unwrap();
        assert!(!dag.transfers().is_empty());
        let h = s.hier().unwrap();
        for d in h.domains(&dag).unwrap() {
            assert_eq!(d, Domain::Intra { group: 0 });
        }
    }

    #[test]
    fn dp_rings_are_entirely_inter_group() {
        let s = spec(2, 1, 3, 0, 1);
        let m = StageModel::split(1 << 20, 1, 1 << 16);
        let dag = lower_parallelism(&s, &m).unwrap();
        let h = s.hier().unwrap();
        let domains = h.domains(&dag).unwrap();
        // The trailing DP phase is all inter-group.
        let dp_stage = dag.transfers().last().unwrap().stage;
        for (t, d) in dag.transfers().iter().zip(&domains) {
            if t.stage == dp_stage {
                assert_eq!(*d, Domain::Inter);
            }
        }
        assert!(domains.contains(&Domain::Inter));
    }

    #[test]
    fn moe_alltoall_mixes_domains_and_covers_every_pair() {
        let s = spec(2, 1, 2, 4, 1);
        let m = StageModel::split(1 << 20, 1, 1 << 16);
        let dag = lower_parallelism(&s, &m).unwrap();
        let h = s.hier().unwrap();
        let domains = h.domains(&dag).unwrap();
        // MoE transfers carry the per-pair chunk size; collect them.
        let moe_bytes = (1u64 << 16).div_ceil(4);
        let moe: Vec<usize> = dag
            .transfers()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.transfer.bytes == moe_bytes)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(moe.len(), 4 * 3, "every ordered expert pair exactly once");
        assert!(moe
            .iter()
            .any(|&i| matches!(domains[i], Domain::Intra { .. })));
        assert!(moe.iter().any(|&i| domains[i] == Domain::Inter));
    }

    #[test]
    fn pp_boundaries_link_corresponding_lanes() {
        let s = spec(2, 3, 1, 0, 1);
        let m = StageModel::split(3 << 20, 3, 1 << 16);
        let dag = lower_parallelism(&s, &m).unwrap();
        let h = s.hier().unwrap();
        let boundary = (1u64 << 16).div_ceil(2);
        let hops: Vec<&DepTransfer> = dag
            .transfers()
            .iter()
            .filter(|t| {
                h.group_of(t.transfer.src.0) != h.group_of(t.transfer.dst.0)
                    && t.transfer.bytes == boundary
            })
            .collect();
        // Two stage boundaries x tp lanes.
        assert_eq!(hops.len(), 2 * 2);
        for t in hops {
            assert_eq!(h.local(t.transfer.src.0), h.local(t.transfer.dst.0));
            assert_eq!(
                h.group_of(t.transfer.dst.0),
                h.group_of(t.transfer.src.0) + s.dp
            );
        }
    }

    #[test]
    fn lowering_is_deterministic_and_validates() {
        let s = spec(2, 2, 2, 4, 2);
        let m = StageModel::split(5 << 20, 2, 1 << 16);
        let a = lower_parallelism(&s, &m).unwrap();
        let b = lower_parallelism(&s, &m).unwrap();
        assert_eq!(a.transfers(), b.transfers());
        // Dependencies all precede their transfer and stages are
        // non-decreasing: from_transfers re-validated them already; check
        // the frontier discipline produced no self-sends.
        for t in a.transfers() {
            assert_ne!(t.transfer.src, t.transfer.dst);
        }
    }

    #[test]
    fn model_shape_mismatches_are_rejected() {
        let s = spec(2, 2, 1, 0, 1);
        let short = StageModel::split(1 << 20, 1, 1 << 16);
        assert!(lower_parallelism(&s, &short).is_err());
        let zero = StageModel {
            gradient_bytes: vec![0, 1],
            activation_bytes: 1 << 16,
        };
        assert!(lower_parallelism(&s, &zero).is_err());
    }
}
