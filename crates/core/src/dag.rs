//! The dependency-aware schedule IR.
//!
//! A [`crate::substrate::Substrate`] executes a [`StepSchedule`] with
//! barrier semantics: every transfer of a step starts together and the
//! step ends at the slowest flow, so consecutive gradient buckets and
//! consecutive collective steps can never overlap on the wire. A
//! [`DepSchedule`] removes that barrier: each transfer carries explicit
//! predecessor edges and an optional release time, and
//! [`crate::substrate::Substrate::execute_dag`] runs it event-driven on
//! either fabric — flows start the instant their last predecessor
//! completes, wavelengths free as soon as a transfer finishes, and the
//! electrical fluid solver re-solves rates incrementally.
//!
//! Three lowerings are provided:
//!
//! * [`DepSchedule::from_steps`] — barrier edges (each transfer depends on
//!   the whole previous non-empty step). Executing this DAG reproduces
//!   [`crate::substrate::Substrate::execute`] **bit-exactly** on both
//!   substrates — the differential suite pins it.
//! * [`DepSchedule::pipelined_from_steps`] — per-node ordering edges: a
//!   transfer depends only on the previous transfers its *source node*
//!   took part in (it cannot forward data it has not received, and a node
//!   sends its steps in order), so steps of a collective pipeline
//!   back-to-back wherever links and wavelengths allow.
//! * [`DepSchedule::chain`] — per-bucket all-reduce chains: each bucket's
//!   schedule keeps its internal barrier edges, buckets share no edges,
//!   and a bucket's first transfers are gated on its gradient-ready time —
//!   so consecutive buckets overlap on the wire.
//!
//! The closed driver ([`crate::engine::run_closed`]) reads a DAG through
//! [`DepSource`], one stage at a time, as a stepped run reads a
//! [`StepSource`]. A [`DepSchedule`] is one stage holding every transfer,
//! injected whole. [`PipelinedSource`] is the pipelined lowering done
//! lazily over any [`StepSource`]: it writes each step's transfers only
//! when the driver reads them, keeping one list of transfer indices per
//! node (the node's most recent step), and its horizon — the lowest index
//! a transfer not yet written can depend on — tells the driver how far
//! ahead of the engine it must read. [`DepSchedule::pipelined_from_steps`]
//! is its collected form: both run the one lowering body.
//!
//! ```
//! use wrht_core::dag::DepSchedule;
//! use wrht_core::baselines::oring_schedule;
//!
//! let sched = oring_schedule(8, 8_000, 4);
//! let barrier = DepSchedule::from_steps(&sched);
//! let pipelined = DepSchedule::pipelined_from_steps(&sched);
//! assert_eq!(barrier.len(), sched.transfer_count());
//! assert_eq!(pipelined.len(), sched.transfer_count());
//! // Barrier edges are a superset of the per-node ordering edges.
//! let edges = |d: &DepSchedule| d.transfers().iter().map(|t| t.deps.len()).sum::<usize>();
//! assert!(edges(&pipelined) <= edges(&barrier));
//! ```

use optical_sim::request::Transfer;
use optical_sim::sim::{StepSchedule, StepSource};
use serde::{Deserialize, Serialize};

/// How a schedule is executed on a substrate — the campaign axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Step-synchronous: every step ends at its slowest transfer
    /// ([`crate::substrate::Substrate::execute`]).
    Barrier,
    /// Dependency-driven: transfers start the instant their predecessors
    /// complete ([`crate::substrate::Substrate::execute_dag`] over a
    /// [`DepSchedule::pipelined_from_steps`] / [`DepSchedule::chain`]
    /// lowering).
    Pipelined,
}

impl ExecMode {
    /// Stable lowercase label used in reports, hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Barrier => "barrier",
            ExecMode::Pipelined => "pipelined",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One transfer of a [`DepSchedule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepTransfer {
    /// The transfer itself (endpoints, payload, ring direction, lanes).
    pub transfer: Transfer,
    /// Indices of transfers that must complete before this one starts.
    /// Every index is `<` the transfer's own index, so the list is a DAG
    /// in topological order by construction.
    pub deps: Vec<usize>,
    /// Earliest start time, seconds (e.g. a gradient-ready instant);
    /// 0 for purely dependency-driven transfers.
    pub release_s: f64,
    /// The source step (or bucket-step) this transfer was lowered from.
    /// Non-decreasing along the schedule; used for barrier detection and
    /// per-stage reporting.
    pub stage: usize,
}

/// A dependency-aware communication schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DepSchedule {
    transfers: Vec<DepTransfer>,
    stages: usize,
}

/// Append `schedule` lowered with barrier edges (every transfer gated on
/// the whole previous non-empty step); dependency-free transfers are gated
/// on `release_s`. The single lowering shared by [`DepSchedule::from_steps`]
/// and [`DepSchedule::chain`].
fn push_barrier_bucket(
    transfers: &mut Vec<DepTransfer>,
    schedule: &dyn StepSource,
    release_s: f64,
    stage_base: usize,
) {
    let mut prev: Vec<usize> = Vec::new();
    let mut buf = Vec::new();
    for step_idx in 0..schedule.step_count() {
        let step = schedule.step(step_idx, &mut buf);
        let first = transfers.len();
        for tr in step {
            transfers.push(DepTransfer {
                transfer: tr.clone(),
                deps: prev.clone(),
                release_s: if prev.is_empty() { release_s } else { 0.0 },
                stage: stage_base + step_idx,
            });
        }
        if !step.is_empty() {
            prev = (first..transfers.len()).collect();
        }
    }
}

impl DepSchedule {
    /// Build from explicit transfers, validating the DAG invariants:
    /// every dependency precedes its transfer, stages are non-decreasing,
    /// and release times are finite and non-negative.
    ///
    /// The two lowering constructors uphold these invariants by
    /// construction; this entry is for hand-built or deserialized DAGs.
    /// The substrates re-validate independently (they accept raw transfer
    /// lists at their own crate boundaries), so an invalid DAG fails
    /// cleanly either way.
    pub fn from_transfers(transfers: Vec<DepTransfer>) -> crate::error::Result<Self> {
        let mut stage = 0usize;
        for (i, t) in transfers.iter().enumerate() {
            if t.deps.iter().any(|&d| d >= i) {
                return Err(optical_sim::OpticalError::BadConfig(
                    "dependency must precede its transfer",
                )
                .into());
            }
            if t.stage < stage {
                return Err(
                    optical_sim::OpticalError::BadConfig("stages must be non-decreasing").into(),
                );
            }
            if !t.release_s.is_finite() || t.release_s < 0.0 {
                return Err(optical_sim::OpticalError::BadConfig(
                    "release time must be finite and >= 0",
                )
                .into());
            }
            stage = t.stage;
        }
        let stages = transfers.last().map_or(0, |t| t.stage + 1);
        Ok(Self { transfers, stages })
    }

    /// Lower a stepped schedule with **full barrier edges**: every
    /// transfer of step `k` depends on every transfer of the most recent
    /// non-empty step before `k`. Executing this DAG agrees bit-exactly
    /// with the stepped run on both substrates.
    #[must_use]
    pub fn from_steps(schedule: &dyn StepSource) -> Self {
        let mut transfers = Vec::new();
        push_barrier_bucket(&mut transfers, schedule, 0.0, 0);
        Self {
            transfers,
            stages: schedule.step_count(),
        }
    }

    /// Lower a stepped schedule with **per-node ordering edges**: a
    /// transfer depends only on the most recent earlier transfers its
    /// source node took part in (as sender or receiver). This preserves
    /// the data flow of reduce/broadcast/ring collectives — a node cannot
    /// forward a buffer it has not received, and a node's own sends stay
    /// ordered — while letting independent branches of consecutive steps
    /// overlap on the wire. The collected form of [`PipelinedSource`].
    #[must_use]
    pub fn pipelined_from_steps(schedule: &dyn StepSource) -> Self {
        Self {
            transfers: read_all(&PipelinedSource::new(schedule)),
            stages: schedule.step_count(),
        }
    }

    /// Chain per-bucket schedules: each bucket keeps internal barrier
    /// edges, its dependency-free transfers are gated on the bucket's
    /// release instant, and buckets share **no** edges — consecutive
    /// buckets pipeline back-to-back on the wire instead of serializing
    /// behind a global network lock.
    ///
    /// Returns the combined schedule plus each bucket's transfer range.
    #[must_use]
    pub fn chain(buckets: &[(f64, StepSchedule)]) -> (Self, Vec<std::ops::Range<usize>>) {
        let mut transfers: Vec<DepTransfer> = Vec::new();
        let mut ranges = Vec::with_capacity(buckets.len());
        let mut stage_base = 0usize;
        for (release_s, schedule) in buckets {
            let bucket_first = transfers.len();
            push_barrier_bucket(&mut transfers, schedule, *release_s, stage_base);
            stage_base += schedule.len();
            ranges.push(bucket_first..transfers.len());
        }
        (
            Self {
                transfers,
                stages: stage_base,
            },
            ranges,
        )
    }

    /// Build a schedule of **independent** transfers, each released at its
    /// own instant with no dependency edges — the shape of background
    /// traffic (incast floods, permutation storms) injected next to a
    /// structured job in a multi-tenant run.
    ///
    /// # Errors
    /// As [`DepSchedule::from_transfers`]: a release that is not finite
    /// and `>= 0`.
    pub fn from_released(released: &[(f64, Transfer)]) -> crate::error::Result<Self> {
        Self::from_transfers(
            released
                .iter()
                .map(|(release_s, tr)| DepTransfer {
                    transfer: tr.clone(),
                    deps: Vec::new(),
                    release_s: *release_s,
                    stage: 0,
                })
                .collect(),
        )
    }

    /// The transfers in topological order.
    #[must_use]
    pub fn transfers(&self) -> &[DepTransfer] {
        &self.transfers
    }

    /// Number of transfers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// True when the schedule has no transfers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Number of source stages (steps / bucket-steps) the schedule was
    /// lowered from.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages
    }

    /// Total payload bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.transfer.bytes).sum()
    }

    /// Total dependency edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.transfers.iter().map(|t| t.deps.len()).sum()
    }

    /// Does this DAG encode full step barriers? True iff every release is
    /// 0 and every transfer depends on exactly the whole previous
    /// non-empty stage — the shape produced by [`DepSchedule::from_steps`].
    /// Substrates pin `execute_dag == execute` bit-exactly on such DAGs.
    #[must_use]
    pub fn is_barrier_shaped(&self) -> bool {
        DepSource::is_barrier_shaped(self)
    }
}

/// A dependency-aware schedule read one stage at a time, the DAG
/// counterpart of [`StepSource`]: a materialized [`DepSchedule`], or a
/// lowering such as [`PipelinedSource`] that writes each stage only when
/// the closed driver reads it.
pub trait DepSource {
    /// Number of transfers.
    fn len(&self) -> usize;

    /// True when the schedule has no transfers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A reader positioned before the first stage.
    fn stages(&self) -> Box<dyn DepReader + '_>;

    /// [`DepSchedule::is_barrier_shaped`], reading the stages only until
    /// the first one that breaks the shape.
    fn is_barrier_shaped(&self) -> bool {
        let mut stages = self.stages();
        let (mut prev, mut current) = (Vec::new(), Vec::new());
        let mut stage = usize::MAX;
        let mut index = 0;
        while let Some(transfers) = stages.next_stage() {
            for t in transfers {
                // wrht-analyze: allow(r6, reason = "exact-zero sentinel: from_steps writes the literal 0.0, never a computed value")
                if t.release_s != 0.0 {
                    return false;
                }
                if t.stage != stage {
                    if !current.is_empty() {
                        prev = std::mem::take(&mut current);
                    }
                    stage = t.stage;
                }
                if t.deps != prev {
                    return false;
                }
                current.push(index);
                index += 1;
            }
        }
        true
    }
}

/// A sequential reader of a [`DepSource`].
pub trait DepReader {
    /// The next stage (or several at once) in schedule order, with
    /// dependencies as indices into the whole schedule; `None` once every
    /// transfer was read. A stage never spans two reads.
    fn next_stage(&mut self) -> Option<&[DepTransfer]>;

    /// The lowest index a transfer not yet read can depend on: every
    /// unread transfer has at least one dependency, all at or above it.
    /// `None` while an unread transfer may have no dependency, which a
    /// driver must read before its first event. Once `Some`, it never
    /// falls.
    fn horizon(&self) -> Option<usize>;
}

impl DepSource for DepSchedule {
    fn len(&self) -> usize {
        self.transfers.len()
    }

    /// One read of every transfer.
    fn stages(&self) -> Box<dyn DepReader + '_> {
        Box::new(Whole(Some(&self.transfers)))
    }
}

/// The reader of a materialized schedule: everything in one read.
struct Whole<'a>(Option<&'a [DepTransfer]>);

impl DepReader for Whole<'_> {
    fn next_stage(&mut self) -> Option<&[DepTransfer]> {
        self.0.take()
    }

    fn horizon(&self) -> Option<usize> {
        None
    }
}

/// [`DepSchedule::pipelined_from_steps`] done lazily over any
/// [`StepSource`]: each step is written, lowered and handed to the reader
/// only when it is read, so a closed run of the pipelined ring holds a few
/// stages of transfers instead of the whole DAG and never materializes the
/// [`StepSchedule`]. A reader keeps, per node, the indices of the
/// transfers of the node's most recent step.
pub struct PipelinedSource<'a> {
    steps: &'a dyn StepSource,
    len: usize,
    nodes: usize,
    bytes: u64,
}

impl<'a> PipelinedSource<'a> {
    /// Lower `steps` lazily. One pass over the steps counts the transfers,
    /// payload bytes and nodes (the highest endpoint + 1).
    #[must_use]
    pub fn new(steps: &'a dyn StepSource) -> Self {
        let (mut len, mut nodes, mut bytes) = (0, 0, 0);
        let mut buf = Vec::new();
        for index in 0..steps.step_count() {
            for t in steps.step(index, &mut buf) {
                len += 1;
                nodes = nodes.max(t.src.0.max(t.dst.0) + 1);
                bytes += t.bytes;
            }
        }
        Self {
            steps,
            len,
            nodes,
            bytes,
        }
    }

    /// Total payload bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }
}

impl DepSource for PipelinedSource<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn stages(&self) -> Box<dyn DepReader + '_> {
        Box::new(PipelinedReader {
            steps: self.steps,
            next: 0,
            written: 0,
            last: vec![Vec::new(); self.nodes],
            horizon: None,
            step: Vec::new(),
            out: StageBuf::default(),
        })
    }
}

/// The reader of a [`PipelinedSource`].
struct PipelinedReader<'a> {
    steps: &'a dyn StepSource,
    /// The next step to lower.
    next: usize,
    /// Transfers written so far: the index of the next one.
    written: usize,
    /// Per node, the indices of the transfers of its most recent step.
    last: Vec<Vec<usize>>,
    horizon: Option<usize>,
    step: Vec<Transfer>,
    out: StageBuf,
}

impl DepReader for PipelinedReader<'_> {
    /// The next non-empty step, lowered.
    fn next_stage(&mut self) -> Option<&[DepTransfer]> {
        let Self {
            steps,
            next,
            written,
            last,
            horizon,
            step,
            out,
        } = self;
        while *next < steps.step_count() {
            let stage = *next;
            *next += 1;
            let transfers = steps.step(stage, step);
            if transfers.is_empty() {
                continue;
            }
            out.clear();
            push_pipelined_step(last, transfers, stage, *written, out);
            *written += transfers.len();
            // A future transfer depends on its source's latest step; a
            // node not seen yet would give it no dependency at all.
            *horizon = last
                .iter()
                .try_fold(usize::MAX, |low, keys| keys.first().map(|&k| low.min(k)));
            return Some(out.as_slice());
        }
        None
    }

    fn horizon(&self) -> Option<usize> {
        self.horizon
    }
}

/// Append `step` (source stage `stage`, whose first transfer is the
/// schedule's transfer `first`) to `out`, lowered with per-node ordering
/// edges, and record in `last` each node's involvement in it.
fn push_pipelined_step(
    last: &mut [Vec<usize>],
    step: &[Transfer],
    stage: usize,
    first: usize,
    out: &mut StageBuf,
) {
    for tr in step {
        out.push(tr.clone(), &last[tr.src.0], stage);
    }
    // Each node the step touches now last took part in this step: its
    // transfers, in step order, sender before receiver.
    for tr in step {
        last[tr.src.0].clear();
        last[tr.dst.0].clear();
    }
    for (k, tr) in step.iter().enumerate() {
        last[tr.src.0].push(first + k);
        last[tr.dst.0].push(first + k);
    }
}

/// Every transfer of `source`, read stage by stage: the collected form of
/// a lazy lowering, which runs its one lowering body.
pub(crate) fn read_all(source: &dyn DepSource) -> Vec<DepTransfer> {
    let mut transfers = Vec::with_capacity(source.len());
    let mut stages = source.stages();
    while let Some(stage) = stages.next_stage() {
        transfers.extend_from_slice(stage);
    }
    transfers
}

/// A lazy lowering's stage, released at 0. Once cleared, its entries are
/// overwritten in place, each refilling its own `deps` list, so a streamed
/// lowering allocates per entry of its largest stage rather than per
/// transfer.
#[derive(Default)]
pub(crate) struct StageBuf {
    entries: Vec<DepTransfer>,
    len: usize,
}

impl StageBuf {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Append `transfer` of source stage `stage`, gated on `deps`.
    pub(crate) fn push(&mut self, transfer: Transfer, deps: &[usize], stage: usize) {
        match self.entries.get_mut(self.len) {
            Some(entry) => {
                entry.transfer = transfer;
                entry.deps.clear();
                entry.deps.extend_from_slice(deps);
                entry.stage = stage;
            }
            None => self.entries.push(DepTransfer {
                transfer,
                deps: deps.to_vec(),
                release_s: 0.0,
                stage,
            }),
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[DepTransfer] {
        &self.entries[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optical_sim::NodeId;

    fn t(src: usize, dst: usize, bytes: u64) -> Transfer {
        Transfer::shortest(NodeId(src), NodeId(dst), bytes)
    }

    #[test]
    fn barrier_lowering_spans_empty_steps() {
        let sched = StepSchedule::from_steps(vec![
            vec![t(0, 1, 10), t(2, 3, 20)],
            vec![],
            vec![t(1, 2, 30)],
        ]);
        let dag = DepSchedule::from_steps(&sched);
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.stage_count(), 3);
        assert_eq!(dag.transfers()[0].deps, Vec::<usize>::new());
        assert_eq!(dag.transfers()[1].deps, Vec::<usize>::new());
        // The step after the empty one depends on the last non-empty step.
        assert_eq!(dag.transfers()[2].deps, vec![0, 1]);
        assert_eq!(dag.transfers()[2].stage, 2);
        assert!(dag.is_barrier_shaped());
        assert_eq!(dag.total_bytes(), 60);
    }

    #[test]
    fn released_schedules_check_their_releases() {
        let bad = crate::error::WrhtError::from(optical_sim::OpticalError::BadConfig(
            "release time must be finite and >= 0",
        ));
        for release_s in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let released = [(0.0, t(0, 1, 10)), (release_s, t(1, 2, 20))];
            assert_eq!(DepSchedule::from_released(&released), Err(bad.clone()));
        }
        let empty = DepSchedule::from_released(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.stage_count(), 0);
        let dag = DepSchedule::from_released(&[(2e-3, t(0, 1, 10)), (0.0, t(1, 2, 20))]).unwrap();
        assert_eq!(dag.stage_count(), 1);
        let view: Vec<_> = dag
            .transfers()
            .iter()
            .map(|x| (x.release_s, x.stage))
            .collect();
        assert_eq!(view, [(2e-3, 0), (0.0, 0)]);
        assert_eq!(dag.edge_count(), 0);
    }

    #[test]
    fn pipelined_lowering_tracks_node_involvement() {
        // Step 0: 0->1 and 2->3. Step 1: 1->2 (depends on both: node 1
        // received from 0... only transfer 0 involves node 1) and 3->0.
        let sched = StepSchedule::from_steps(vec![
            vec![t(0, 1, 10), t(2, 3, 20)],
            vec![t(1, 2, 30), t(3, 0, 40)],
        ]);
        let dag = DepSchedule::pipelined_from_steps(&sched);
        assert_eq!(dag.transfers()[2].deps, vec![0]); // 1 took part in 0->1
        assert_eq!(dag.transfers()[3].deps, vec![1]); // 3 took part in 2->3
        assert!(!dag.is_barrier_shaped());
        assert!(dag.edge_count() < DepSchedule::from_steps(&sched).edge_count());
    }

    #[test]
    fn pipelined_lowering_reaches_across_idle_steps() {
        // Node 0 sends in step 0, is idle in step 1, sends again in step 2:
        // the step-2 send must still depend on its step-0 transfer.
        let sched = StepSchedule::from_steps(vec![
            vec![t(0, 1, 10)],
            vec![t(2, 3, 20)],
            vec![t(0, 3, 30)],
        ]);
        let dag = DepSchedule::pipelined_from_steps(&sched);
        assert_eq!(dag.transfers()[2].deps, vec![0]);
    }

    #[test]
    fn lazy_pipelined_stages_concatenate_to_the_collected_lowering() {
        // Node 3 first appears in step 2, and step 1 is empty.
        let sched = StepSchedule::from_steps(vec![
            vec![t(0, 1, 10), t(2, 1, 20)],
            vec![],
            vec![t(1, 3, 30), t(0, 2, 40)],
            vec![t(3, 0, 50), t(2, 1, 60), t(1, 2, 70)],
        ]);
        let lazy = PipelinedSource::new(&sched);
        assert_eq!((lazy.len(), lazy.total_bytes()), (7, 280));
        let mut stages = lazy.stages();
        assert_eq!(stages.horizon(), None);
        let mut read = Vec::new();
        let mut horizons = Vec::new();
        while let Some(stage) = stages.next_stage() {
            assert!(stage.windows(2).all(|w| w[0].stage == w[1].stage));
            read.extend_from_slice(stage);
            horizons.push(stages.horizon());
        }
        let whole = DepSchedule::pipelined_from_steps(&sched);
        assert_eq!(read, whole.transfers());
        // Unknown until node 3 took part; then each node's latest step.
        assert_eq!(horizons, vec![None, Some(2), Some(4)]);
    }

    #[test]
    fn a_materialized_schedule_is_read_whole() {
        let dag = DepSchedule::pipelined_from_steps(&StepSchedule::from_steps(vec![
            vec![t(0, 1, 10)],
            vec![t(1, 0, 10)],
        ]));
        let mut stages = dag.stages();
        assert_eq!(stages.next_stage().map(<[_]>::len), Some(2));
        assert!(stages.next_stage().is_none());
    }

    #[test]
    fn chain_gates_buckets_on_release_and_shares_no_edges() {
        let bucket = StepSchedule::from_steps(vec![vec![t(0, 1, 10)], vec![t(1, 2, 20)]]);
        let (dag, ranges) = DepSchedule::chain(&[(1e-3, bucket.clone()), (2e-3, bucket)]);
        assert_eq!(dag.len(), 4);
        assert_eq!(ranges, vec![0..2, 2..4]);
        assert_eq!(dag.transfers()[0].release_s, 1e-3);
        assert_eq!(dag.transfers()[1].deps, vec![0]);
        assert_eq!(dag.transfers()[1].release_s, 0.0);
        // Second bucket: gated on its own release, no cross-bucket edges.
        assert_eq!(dag.transfers()[2].release_s, 2e-3);
        assert_eq!(dag.transfers()[2].deps, Vec::<usize>::new());
        assert_eq!(dag.transfers()[3].deps, vec![2]);
        assert_eq!(dag.stage_count(), 4);
        assert!(!dag.is_barrier_shaped());
    }

    #[test]
    fn from_transfers_validates_invariants() {
        let bad_dep = vec![DepTransfer {
            transfer: t(0, 1, 1),
            deps: vec![0],
            release_s: 0.0,
            stage: 0,
        }];
        assert!(DepSchedule::from_transfers(bad_dep).is_err());
        let bad_stage = vec![
            DepTransfer {
                transfer: t(0, 1, 1),
                deps: vec![],
                release_s: 0.0,
                stage: 1,
            },
            DepTransfer {
                transfer: t(1, 2, 1),
                deps: vec![],
                release_s: 0.0,
                stage: 0,
            },
        ];
        assert!(DepSchedule::from_transfers(bad_stage).is_err());
        let bad_release = vec![DepTransfer {
            transfer: t(0, 1, 1),
            deps: vec![],
            release_s: f64::NAN,
            stage: 0,
        }];
        assert!(DepSchedule::from_transfers(bad_release).is_err());
    }

    #[test]
    fn exec_mode_labels() {
        assert_eq!(ExecMode::Barrier.label(), "barrier");
        assert_eq!(ExecMode::Pipelined.to_string(), "pipelined");
    }

    #[test]
    fn empty_schedule_is_barrier_shaped() {
        let dag = DepSchedule::default();
        assert!(dag.is_empty());
        assert!(dag.is_barrier_shaped());
        assert_eq!(dag.edge_count(), 0);
    }
}
