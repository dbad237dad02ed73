//! The ring simulator: stepped execution of schedules, and the FIFO
//! contention model of released transfers.
//!
//! A stepped schedule is read through [`StepSource`] and reported as a
//! [`RunReport`] of per-step [`StepTiming`]s. Both report types are shared
//! by every stepped substrate: `wrht-core` re-exports them, and its
//! electrical substrate fills them with zero wavelengths.

use crate::config::OpticalConfig;
use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::request::{DirectionChoice, Transfer};
use crate::rwa::{arc_first, Occupancy, Strategy};
use crate::topology::{NodeId, RingTopology};
use serde::{Deserialize, Serialize};
use wrht_kernel::EventKernel;

/// A step-synchronous communication schedule: every transfer of a step
/// starts together, and a step ends when its slowest transfer completes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StepSchedule {
    steps: Vec<Vec<Transfer>>,
}

impl StepSchedule {
    /// Build from explicit steps.
    #[must_use]
    pub fn from_steps(steps: Vec<Vec<Transfer>>) -> Self {
        Self { steps }
    }

    /// Append a step.
    pub fn push_step(&mut self, step: Vec<Transfer>) {
        self.steps.push(step);
    }

    /// The steps, in order.
    #[must_use]
    pub fn steps(&self) -> &[Vec<Transfer>] {
        &self.steps
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the schedule has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total transfers across all steps.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// Total payload bytes across all steps.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().flatten().map(|t| t.bytes).sum()
    }
}

/// A stepped schedule read one step at a time, as the stepped runners
/// consume it: the materialized [`StepSchedule`], or a generator that
/// writes each step only when a runner reaches it, so a long schedule is
/// never held in memory at once.
pub trait StepSource {
    /// Number of steps.
    fn step_count(&self) -> usize;

    /// Step `index` (`< step_count()`): borrowed from the source, or
    /// written into `buf` and borrowed from there. A runner passes the same
    /// buffer for every step, so a generator allocates once per run.
    fn step<'a>(&'a self, index: usize, buf: &'a mut Vec<Transfer>) -> &'a [Transfer];

    /// Does step `index` (`1 ≤ index < step_count()`) only permute step
    /// `index − 1`'s payloads? `true` promises that it lists the same
    /// `(src, dst, direction, lanes)` in the same order and that its byte
    /// counts are a permutation of the predecessor's. Every step of a ring
    /// all-reduce after the first, once every chunk is non-empty, does.
    ///
    /// A runner whose timing of a step is independent of which transfer
    /// carries which payload trusts the promise and reuses the
    /// predecessor's timing without writing the step, so a false `true`
    /// yields wrong timings, not an error. The default claims nothing.
    fn permutes_previous(&self, _index: usize) -> bool {
        false
    }
}

impl StepSource for StepSchedule {
    fn step_count(&self) -> usize {
        self.steps.len()
    }

    fn step<'a>(&'a self, index: usize, _buf: &'a mut Vec<Transfer>) -> &'a [Transfer] {
        &self.steps[index]
    }
}

/// Timing and accounting for one executed step, common to every stepped
/// substrate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTiming {
    /// Wall-clock duration of the step, seconds.
    pub duration_s: f64,
    /// Number of transfers executed in the step.
    pub transfers: usize,
    /// Payload bytes moved in the step.
    pub bytes: u64,
    /// Highest wavelength index used + 1 (0 on substrates without WDM).
    pub peak_wavelength: usize,
}

/// Result of executing a stepped schedule, common to every stepped
/// substrate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Name of the substrate that produced the report.
    pub substrate: String,
    /// Total simulated communication time, seconds.
    pub total_time_s: f64,
    /// Per-step breakdown in execution order, one entry per schedule step
    /// (empty steps included).
    pub steps: Vec<StepTiming>,
}

impl RunReport {
    /// Number of executed steps.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Per-step durations in execution order, seconds.
    #[must_use]
    pub fn per_step_s(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.duration_s).collect()
    }

    /// Total payload bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.bytes).sum()
    }

    /// Total transfers across all steps.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        self.steps.iter().map(|s| s.transfers).sum()
    }

    /// Largest wavelength footprint over all steps (0 without WDM).
    #[must_use]
    pub fn peak_wavelengths(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.peak_wavelength)
            .max()
            .unwrap_or(0)
    }

    /// Mean goodput over the run, bytes/s (0 for empty or zero-time runs).
    #[must_use]
    pub fn mean_goodput_bps(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.total_bytes() as f64 / self.total_time_s
        } else {
            0.0
        }
    }

    /// Utilization of a reference capacity: mean goodput divided by
    /// `peak_bps` (e.g. `w * B` for the optical ring). 0 for empty runs.
    #[must_use]
    pub fn utilization(&self, peak_bps: f64) -> f64 {
        if peak_bps > 0.0 {
            self.mean_goodput_bps() / peak_bps
        } else {
            0.0
        }
    }
}

/// The placement half of one step of [`RingSimulator::run_stepped`]:
/// everything the step derives from its ordered routing list — each
/// transfer's `(src, dst, direction, lanes)` — and nothing it derives from
/// bytes. Path resolution and First-Fit/Best-Fit lane assignment read only
/// the routing list, run on an occupancy cleared every step and are
/// deterministic, so a step whose routing list equals the last placed one
/// has this placement exactly. The default is the empty step's placement.
#[derive(Debug, Default)]
struct StepPlacement {
    /// The routing list this placement was made for.
    key: Vec<(NodeId, NodeId, DirectionChoice, usize)>,
    /// Hop count of each transfer's lightpath, in step order.
    hops: Vec<usize>,
    /// Highest wavelength index the step uses, plus one.
    peak_wavelength: usize,
    /// Whether every transfer has the same hop count and lane count,
    /// computed on the first [`StepPlacement::uniform`] call.
    uniform: Option<bool>,
}

impl StepPlacement {
    fn routing(t: &Transfer) -> (NodeId, NodeId, DirectionChoice, usize) {
        (t.src, t.dst, t.direction, t.lanes)
    }

    /// Is this the placement of `step`'s routing list?
    fn fits(&self, step: &[Transfer]) -> bool {
        self.key.len() == step.len()
            && self
                .key
                .iter()
                .zip(step)
                .all(|(k, t)| *k == Self::routing(t))
    }

    /// Resolve and wavelength-assign `step` on the cleared occupancy, in
    /// transfer order, failing on the first transfer that does not place.
    fn place(
        &mut self,
        step: &[Transfer],
        topo: &RingTopology,
        occ: &mut Occupancy,
        strategy: Strategy,
    ) -> Result<()> {
        self.key.clear();
        self.hops.clear();
        self.uniform = None;
        occ.clear();
        for tr in step {
            let (direction, hops) = tr.route(topo)?;
            let first = arc_first(tr.src.0, tr.dst.0, direction);
            occ.assign_lanes(direction, first, hops, tr.lanes, strategy)?;
            self.key.push(Self::routing(tr));
            self.hops.push(hops);
        }
        self.peak_wavelength = occ.peak_wavelengths_used();
        Ok(())
    }

    /// Does every transfer have the same hop count and lane count? Then
    /// every transfer's time is one function of its bytes, and a step that
    /// permutes the placed step's payloads has its timing exactly.
    fn uniform(&mut self) -> bool {
        let (key, hops) = (&self.key, &self.hops);
        *self.uniform.get_or_insert_with(|| {
            key.windows(2).all(|w| w[0].3 == w[1].3) && hops.windows(2).all(|w| w[0] == w[1])
        })
    }
}

/// The error of a stepped run whose payload bytes, in one step or over
/// the run, overflow `u64`.
fn bytes_overflow() -> OpticalError {
    OpticalError::BadConfig("stepped payload bytes overflow u64")
}

/// Result of an event-driven run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventReport {
    /// Makespan: completion time of the last transfer, seconds.
    pub makespan_s: f64,
    /// Per-transfer (start, finish) times in submission order.
    pub transfer_times: Vec<(f64, f64)>,
    /// Peak number of concurrently active transfers.
    pub peak_concurrency: usize,
    /// Events processed by the event kernel during the run.
    pub events: u64,
}

/// The error of a transfer whose duration, or whose completion instant,
/// is not a finite forward time: the grant engine's error for the same
/// transfer, so stepped and event-driven runs fail alike.
fn unschedulable() -> OpticalError {
    OpticalError::BadConfig("transfer duration must be finite and >= 0")
}

/// Simulator for one optical ring deployment.
#[derive(Debug, Clone)]
pub struct RingSimulator {
    config: OpticalConfig,
    topo: RingTopology,
}

impl RingSimulator {
    /// Build a simulator.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use [`RingSimulator::try_new`]
    /// to handle errors.
    #[must_use]
    pub fn new(config: OpticalConfig) -> Self {
        // wrht-analyze: allow(r5, reason = "the documented panicking twin of try_new, for configurations the caller built valid; every fallible path takes try_new")
        Self::try_new(config).expect("invalid optical configuration")
    }

    /// Fallible constructor.
    pub fn try_new(config: OpticalConfig) -> Result<Self> {
        config.validate()?;
        let topo = RingTopology::try_new(config.nodes)?;
        Ok(Self { config, topo })
    }

    /// The ring topology.
    #[must_use]
    pub fn topology(&self) -> &RingTopology {
        &self.topo
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &OpticalConfig {
        &self.config
    }

    /// Execute a stepped schedule with the given RWA strategy.
    ///
    /// Fails if any step cannot be wavelength-assigned within the configured
    /// channel count — Wrht plans are constructed to always fit.
    ///
    /// A step whose routing list equals the last placed step's (every
    /// step of a ring all-reduce) reuses that placement and only recomputes
    /// `transfer_time(bytes, lanes, hops)` per transfer; any other step is
    /// resolved and assigned afresh. A step the source promises only
    /// permutes its predecessor's payloads
    /// ([`StepSource::permutes_previous`]) is not even written when every
    /// transfer of the placement has the same hop count and lane count:
    /// its timing is the predecessor's (the same maximum of one function of
    /// bytes over the same byte counts, the same sum, transfer count and
    /// peak wavelength). The results are the same either way.
    ///
    /// Fails with [`OpticalError::BadConfig`] when the payload bytes of a
    /// step, or of the whole run, overflow `u64`.
    pub fn run_stepped<S: StepSource + ?Sized>(
        &mut self,
        schedule: &S,
        strategy: Strategy,
    ) -> Result<RunReport> {
        let timing = self.config.timing();
        let mut steps: Vec<StepTiming> = Vec::with_capacity(schedule.step_count());
        let mut occ = Occupancy::new(self.topo.nodes(), self.config.wavelengths);
        let mut placed = StepPlacement::default();
        let mut buf = Vec::new();
        let mut total_bytes = 0u64;
        for index in 0..schedule.step_count() {
            let step_timing = match steps.last() {
                Some(last) if schedule.permutes_previous(index) && placed.uniform() => last.clone(),
                _ => {
                    let step = schedule.step(index, &mut buf);
                    if !placed.fits(step) {
                        placed
                            .place(step, &self.topo, &mut occ, strategy)
                            .map_err(|e| e.at_step(index))?;
                    }
                    let mut duration = 0.0f64;
                    let mut bytes = 0u64;
                    for (tr, &hops) in step.iter().zip(&placed.hops) {
                        duration = duration.max(timing.transfer_time(tr.bytes, tr.lanes, hops));
                        bytes = bytes.checked_add(tr.bytes).ok_or_else(bytes_overflow)?;
                    }
                    StepTiming {
                        duration_s: duration,
                        transfers: step.len(),
                        bytes,
                        peak_wavelength: placed.peak_wavelength,
                    }
                }
            };
            total_bytes = total_bytes
                .checked_add(step_timing.bytes)
                .ok_or_else(bytes_overflow)?;
            steps.push(step_timing);
        }
        // An infinite transfer time, or a finite sum that overflows.
        let total_time_s: f64 = steps.iter().fold(0.0, |total, s| total + s.duration_s);
        if !total_time_s.is_finite() {
            return Err(unschedulable());
        }
        Ok(RunReport {
            substrate: "optical".into(),
            total_time_s,
            steps,
        })
    }

    /// Execute transfers event-driven: each transfer is released at a given
    /// time, waits until its lanes are free along its path (FIFO among
    /// waiters), transmits, then releases its wavelengths.
    ///
    /// This mode exposes wavelength *contention* that the stepped model hides
    /// and is used by the contention ablation and cross-checking tests.
    ///
    /// It is a model of its own, not a run of the grant engine
    /// ([`crate::engine::GrantEngine`]): here a later waiter whose lanes are
    /// free starts at once, past an earlier blocked one, while the grant
    /// scan holds any waiter whose arc meets the arc of a blocked earlier
    /// waiter. On one lane, 0→2, 1→3 and 2→4 released together finish in
    /// two transfer times here (2→4 runs beside 0→2) and in three on the
    /// grant engine. The ablation keeps this FIFO model.
    pub fn run_event_driven(&mut self, released: &[(f64, Transfer)]) -> Result<EventReport> {
        #[derive(Debug)]
        enum Ev {
            Release(usize),
            Complete(usize),
        }

        let timing = self.config.timing();
        let mut occ = Occupancy::new(self.topo.nodes(), self.config.wavelengths);

        // Pre-resolve paths and validate feasibility in isolation.
        let mut paths: Vec<LightPath> = Vec::with_capacity(released.len());
        for (_, tr) in released {
            let path = tr.resolve(&self.topo)?;
            if tr.lanes > self.config.wavelengths {
                return Err(OpticalError::WavelengthsExhausted {
                    available: self.config.wavelengths,
                    requested: tr.lanes,
                    step: 0,
                });
            }
            paths.push(path);
        }

        let mut queue: EventKernel<Ev> = EventKernel::with_capacity(released.len());
        for (i, (t, _)) in released.iter().enumerate() {
            queue
                .schedule_at(*t, Ev::Release(i))
                .map_err(|_| OpticalError::BadConfig("release time must be finite and >= 0"))?;
        }

        let mut waiting: Vec<usize> = Vec::new();
        let mut assigned: Vec<Vec<crate::wavelength::Wavelength>> =
            vec![Vec::new(); released.len()];
        let mut times = vec![(f64::NAN, f64::NAN); released.len()];
        let mut active = 0usize;
        let mut peak = 0usize;
        let mut makespan = 0.0f64;

        // Try to start every waiter that now fits, in FIFO order.
        #[allow(clippy::too_many_arguments)] // local helper shared by two arms
        fn drain_waiting(
            waiting: &mut Vec<usize>,
            occ: &mut Occupancy,
            paths: &[LightPath],
            released: &[(f64, Transfer)],
            assigned: &mut [Vec<crate::wavelength::Wavelength>],
            times: &mut [(f64, f64)],
            queue: &mut EventKernel<Ev>,
            timing: &crate::timing::TimingModel,
            active: &mut usize,
            peak: &mut usize,
        ) -> Result<()> {
            let mut i = 0;
            while i < waiting.len() {
                let id = waiting[i];
                let tr = &released[id].1;
                match occ.assign(&paths[id], tr.lanes, Strategy::FirstFit) {
                    Ok(lanes) => {
                        assigned[id] = lanes;
                        let dur = timing.transfer_time(tr.bytes, tr.lanes, paths[id].hops());
                        times[id].0 = queue.now();
                        queue
                            .schedule_in(dur, Ev::Complete(id))
                            .map_err(|_| unschedulable())?;
                        *active += 1;
                        *peak = (*peak).max(*active);
                        waiting.remove(i);
                    }
                    Err(_) => i += 1,
                }
            }
            Ok(())
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Release(id) => {
                    waiting.push(id);
                    drain_waiting(
                        &mut waiting,
                        &mut occ,
                        &paths,
                        released,
                        &mut assigned,
                        &mut times,
                        &mut queue,
                        &timing,
                        &mut active,
                        &mut peak,
                    )?;
                }
                Ev::Complete(id) => {
                    for &lambda in &assigned[id] {
                        occ.release(&paths[id], lambda);
                    }
                    times[id].1 = now;
                    makespan = makespan.max(now);
                    active -= 1;
                    drain_waiting(
                        &mut waiting,
                        &mut occ,
                        &paths,
                        released,
                        &mut assigned,
                        &mut times,
                        &mut queue,
                        &timing,
                        &mut active,
                        &mut peak,
                    )?;
                }
            }
        }

        debug_assert!(waiting.is_empty(), "transfers starved in event-driven run");
        Ok(EventReport {
            makespan_s: makespan,
            transfer_times: times,
            peak_concurrency: peak,
            events: queue.events_processed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GrantEngine, GrantTransfer};
    use crate::topology::{Direction, NodeId};

    fn small_cfg() -> OpticalConfig {
        OpticalConfig::new(8, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0)
    }

    /// An 8-node ring whose lanes carry 1e-300 B/s: a configuration
    /// [`OpticalConfig::validate`] accepts, on which a full-size transfer
    /// takes longer than any finite time.
    fn glacial_cfg() -> OpticalConfig {
        small_cfg().with_lambda_bandwidth(1e-300)
    }

    #[test]
    fn a_stepped_run_rejects_a_duration_that_is_not_finite() {
        let mut sim = RingSimulator::new(glacial_cfg());
        let endless = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            u64::MAX,
        )]]);
        assert_eq!(
            sim.run_stepped(&endless, Strategy::FirstFit),
            Err(unschedulable())
        );
        // Two steps of 1e308 s each: finite durations, an infinite total.
        let step = || vec![Transfer::shortest(NodeId(0), NodeId(1), 100_000_000)];
        let overflowing = StepSchedule::from_steps(vec![step(), step()]);
        assert_eq!(
            sim.run_stepped(&overflowing, Strategy::FirstFit),
            Err(unschedulable())
        );
    }

    #[test]
    fn an_event_driven_run_rejects_a_duration_that_is_not_finite() {
        let mut sim = RingSimulator::new(glacial_cfg());
        let endless = [(0.0, Transfer::shortest(NodeId(0), NodeId(1), u64::MAX))];
        assert_eq!(sim.run_event_driven(&endless).unwrap_err(), unschedulable());
    }

    #[test]
    fn empty_schedule_takes_no_time() {
        let mut sim = RingSimulator::new(small_cfg());
        let r = sim
            .run_stepped(&StepSchedule::default(), Strategy::FirstFit)
            .unwrap();
        assert_eq!(r.total_time_s.to_bits(), 0.0f64.to_bits());
        assert_eq!(r.step_count(), 0);
        assert_eq!(r.substrate, "optical");
    }

    #[test]
    fn empty_steps_inside_a_schedule_cost_nothing_but_keep_alignment() {
        // Consumers index `steps` by schedule position (e.g. the
        // barrier-sensitivity study), so empty steps must produce rows,
        // not be skipped.
        let mut sim = RingSimulator::new(small_cfg());
        let sched = StepSchedule::from_steps(vec![
            vec![],
            vec![Transfer::shortest(NodeId(0), NodeId(1), 1_000_000)],
            vec![],
        ]);
        let r = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        assert_eq!(r.step_count(), 3);
        assert_eq!(r.steps[0].duration_s, 0.0);
        assert_eq!(r.steps[0].transfers, 0);
        assert_eq!(r.steps[2].peak_wavelength, 0);
        assert!((r.total_time_s - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn single_step_schedule_matches_transfer_closed_form() {
        let mut sim = RingSimulator::new(small_cfg());
        let sched = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            3_000_000,
        )]]);
        let r = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        assert_eq!(r.step_count(), 1);
        let expected = sim.config().timing().transfer_time(3_000_000, 1, 1);
        assert!((r.total_time_s - expected).abs() < 1e-15);
    }

    #[test]
    fn len_and_is_empty_stay_paired() {
        let mut s = StepSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.push_step(vec![]);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn event_driven_empty_release_list_is_a_noop() {
        let mut sim = RingSimulator::new(small_cfg());
        let r = sim.run_event_driven(&[]).unwrap();
        assert_eq!(r.makespan_s, 0.0);
        assert_eq!(r.peak_concurrency, 0);
        assert!(r.transfer_times.is_empty());
    }

    #[test]
    fn zero_byte_transfers_cost_overhead_and_propagation_only() {
        // The cross-substrate contract (see wrht-core's Substrate): a
        // zero-byte transfer occupies wavelengths and pays the per-message
        // overhead plus propagation, but adds no serialization time.
        let cfg = OpticalConfig::new(8, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(1e-6)
            .with_hop_propagation(1e-8);
        let mut sim = RingSimulator::new(cfg);
        let sched =
            StepSchedule::from_steps(vec![vec![Transfer::shortest(NodeId(0), NodeId(1), 0)]]);
        let r = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        assert_eq!(r.steps[0].transfers, 1);
        assert_eq!(r.steps[0].bytes, 0);
        assert!(r.steps[0].peak_wavelength >= 1);
        assert!((r.total_time_s - (1e-6 + 1e-8)).abs() < 1e-15);
    }

    #[test]
    fn step_duration_is_slowest_transfer() {
        let mut sim = RingSimulator::new(small_cfg());
        let step = vec![
            Transfer::shortest(NodeId(0), NodeId(1), 1_000_000), // 1 ms at 1 GB/s
            Transfer::shortest(NodeId(4), NodeId(5), 2_000_000), // 2 ms
        ];
        let r = sim
            .run_stepped(&StepSchedule::from_steps(vec![step]), Strategy::FirstFit)
            .unwrap();
        assert!((r.total_time_s - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn steps_are_sequential() {
        let mut sim = RingSimulator::new(small_cfg());
        let s1 = vec![Transfer::shortest(NodeId(0), NodeId(1), 1_000_000)];
        let s2 = vec![Transfer::shortest(NodeId(1), NodeId(2), 1_000_000)];
        let r = sim
            .run_stepped(&StepSchedule::from_steps(vec![s1, s2]), Strategy::FirstFit)
            .unwrap();
        assert!((r.total_time_s - 2e-3).abs() < 1e-12);
        assert_eq!(r.step_count(), 2);
    }

    #[test]
    fn striping_accelerates_within_step() {
        let mut sim = RingSimulator::new(small_cfg());
        let slow = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            4_000_000,
        )]]);
        let fast = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(0),
            NodeId(1),
            4_000_000,
        )
        .with_lanes(4)]]);
        let t_slow = sim
            .run_stepped(&slow, Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        let t_fast = sim
            .run_stepped(&fast, Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        assert!((t_slow / t_fast - 4.0).abs() < 1e-9);
    }

    #[test]
    fn wavelength_exhaustion_reports_step() {
        let mut sim = RingSimulator::new(small_cfg()); // 4 wavelengths
        let overload: Vec<Transfer> = (0..5)
            .map(|i| {
                Transfer::directed(NodeId(i), NodeId(i + 1), 100, Direction::Clockwise)
                    .with_lanes(1)
            })
            .collect();
        // 5 transfers over node boundaries 0..5 share no segment; fits.
        sim.run_stepped(
            &StepSchedule::from_steps(vec![overload]),
            Strategy::FirstFit,
        )
        .unwrap();
        // But 5 nested transfers to one receiver cannot fit in 4 lambdas.
        let nested: Vec<Transfer> = (0..5)
            .map(|i| Transfer::directed(NodeId(i), NodeId(5), 100, Direction::Clockwise))
            .collect();
        let err = sim
            .run_stepped(
                &StepSchedule::from_steps(vec![vec![], nested]),
                Strategy::FirstFit,
            )
            .unwrap_err();
        match err {
            OpticalError::WavelengthsExhausted { step, .. } => assert_eq!(step, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn event_driven_serializes_contending_transfers() {
        let cfg = OpticalConfig::new(8, 1)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let mut sim = RingSimulator::new(cfg);
        // Two transfers over the same segment, one wavelength: must serialize.
        let released = vec![
            (
                0.0,
                Transfer::directed(NodeId(0), NodeId(2), 1_000_000, Direction::Clockwise),
            ),
            (
                0.0,
                Transfer::directed(NodeId(1), NodeId(3), 1_000_000, Direction::Clockwise),
            ),
        ];
        let r = sim.run_event_driven(&released).unwrap();
        assert!((r.makespan_s - 2e-3).abs() < 1e-12);
        assert_eq!(r.peak_concurrency, 1);
        // Second starts when first completes.
        assert!((r.transfer_times[1].0 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn grant_instants_coalesce_by_bit_equality_only() {
        // Satellite regression for the kernel's same-instant contract:
        // waiters compete in one FIFO arbitration scan iff their release
        // timestamps are bit-identical. `0.1 + 0.2` is one ulp above `0.3`
        // — mathematically the same instant, different bits — so a waiter
        // released at the ulp-later time loses the lanes to one released
        // at `0.3`, regardless of submission order.
        let t0 = 0.3_f64;
        let t_ulp = 0.1_f64 + 0.2_f64;
        assert_ne!(t0.to_bits(), t_ulp.to_bits());
        let cfg = OpticalConfig::new(8, 1)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let first = Transfer::directed(NodeId(0), NodeId(2), 1_000_000, Direction::Clockwise);
        let second = Transfer::directed(NodeId(1), NodeId(3), 1_000_000, Direction::Clockwise);

        // Bit-identical releases: one batch, FIFO by submission order.
        let r = RingSimulator::new(cfg.clone())
            .run_event_driven(&[(t0, first.clone()), (t0, second.clone())])
            .unwrap();
        assert_eq!(r.transfer_times[0].0.to_bits(), t0.to_bits());
        assert!((r.transfer_times[1].0 - (t0 + 1e-3)).abs() < 1e-12);

        // One ulp apart: two batches; the ulp-later waiter serializes even
        // though it comes first in submission order.
        let r = RingSimulator::new(cfg)
            .run_event_driven(&[(t_ulp, first), (t0, second)])
            .unwrap();
        assert_eq!(r.transfer_times[1].0.to_bits(), t0.to_bits());
        assert!((r.transfer_times[0].0 - (t0 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn event_driven_parallelizes_disjoint_transfers() {
        let mut sim = RingSimulator::new(small_cfg());
        let released = vec![
            (0.0, Transfer::shortest(NodeId(0), NodeId(1), 1_000_000)),
            (0.0, Transfer::shortest(NodeId(4), NodeId(5), 1_000_000)),
        ];
        let r = sim.run_event_driven(&released).unwrap();
        assert!((r.makespan_s - 1e-3).abs() < 1e-12);
        assert_eq!(r.peak_concurrency, 2);
    }

    #[test]
    fn event_driven_matches_stepped_for_conflict_free_step() {
        let mut sim = RingSimulator::new(small_cfg());
        let transfers = vec![
            Transfer::shortest(NodeId(0), NodeId(1), 500_000),
            Transfer::shortest(NodeId(2), NodeId(3), 1_500_000),
            Transfer::shortest(NodeId(5), NodeId(6), 1_000_000),
        ];
        let stepped = sim
            .run_stepped(
                &StepSchedule::from_steps(vec![transfers.clone()]),
                Strategy::FirstFit,
            )
            .unwrap();
        let released: Vec<_> = transfers.into_iter().map(|t| (0.0, t)).collect();
        let event = sim.run_event_driven(&released).unwrap();
        assert!((stepped.total_time_s - event.makespan_s).abs() < 1e-12);
    }

    #[test]
    fn infeasible_lane_request_errors_eventdriven() {
        let mut sim = RingSimulator::new(small_cfg()); // 4 lambdas
        let released = vec![(
            0.0,
            Transfer::shortest(NodeId(0), NodeId(1), 100).with_lanes(9),
        )];
        assert!(sim.run_event_driven(&released).is_err());
    }

    /// The FIFO contention model and the grant engine differ: a waiter
    /// past a blocked one takes free lanes here, and is held there.
    #[test]
    fn fifo_loop_lets_a_later_waiter_pass_a_blocked_one() {
        let cfg = OpticalConfig::new(8, 1)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let hop2 = |src: usize| {
            Transfer::directed(
                NodeId(src),
                NodeId(src + 2),
                1_000_000,
                Direction::Clockwise,
            )
        };
        let released: Vec<_> = (0..3).map(|src| (0.0, hop2(src))).collect();
        let fifo = RingSimulator::new(cfg.clone())
            .run_event_driven(&released)
            .unwrap();
        assert!((fifo.makespan_s - 2e-3).abs() < 1e-12);
        // 2 -> 4 runs beside 0 -> 2.
        assert_eq!(fifo.transfer_times[2].0, 0.0);
        let dag: Vec<_> = (0..3).map(|src| item(hop2(src), 0.0, vec![])).collect();
        let (grant, times) = closed_run(&cfg, &dag).unwrap();
        assert!((grant.makespan() - 3e-3).abs() < 1e-12);
        assert!((times[2].0 - 2e-3).abs() < 1e-12);
    }

    fn item(transfer: Transfer, release_s: f64, deps: Vec<usize>) -> GrantTransfer {
        GrantTransfer {
            transfer,
            release_s,
            deps,
            job: 0,
        }
    }

    /// Run `dag` as a closed run does: one batch at time zero on a fresh
    /// unarbitrated First-Fit engine, stepped to idle. Returns the engine
    /// and every transfer's `(start, finish)`.
    fn closed_run(
        cfg: &OpticalConfig,
        dag: &[GrantTransfer],
    ) -> Result<(GrantEngine, Vec<(f64, f64)>)> {
        let mut eng = GrantEngine::new(cfg, Strategy::FirstFit, false, false)?;
        eng.inject(dag)?;
        while eng.step()?.is_some() {}
        eng.check_stuck()?;
        let mut times = vec![(f64::NAN, f64::NAN); dag.len()];
        for c in eng.drain_completions() {
            times[c.order as usize] = (c.start_s, c.finish_s);
        }
        Ok((eng, times))
    }

    /// Lower a schedule to its barrier-shaped DAG (each transfer gated on
    /// the whole previous non-empty step).
    fn barrier_dag(sched: &StepSchedule) -> Vec<GrantTransfer> {
        let mut out: Vec<GrantTransfer> = Vec::new();
        let mut prev: Vec<usize> = Vec::new();
        for step in sched.steps() {
            let first = out.len();
            for tr in step {
                out.push(item(tr.clone(), 0.0, prev.clone()));
            }
            if !step.is_empty() {
                prev = (first..out.len()).collect();
            }
        }
        out
    }

    #[test]
    fn dag_with_barrier_edges_matches_stepped_bit_exactly() {
        let cfg = OpticalConfig::new(8, 4)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(1e-6)
            .with_hop_propagation(1e-8);
        let mut sim = RingSimulator::new(cfg.clone());
        let sched = StepSchedule::from_steps(vec![
            vec![
                Transfer::shortest(NodeId(0), NodeId(1), 1_000_000),
                Transfer::shortest(NodeId(4), NodeId(5), 2_000_000),
            ],
            vec![],
            vec![Transfer::shortest(NodeId(1), NodeId(2), 700_000).with_lanes(2)],
        ]);
        let stepped = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        let (dag, _) = closed_run(&cfg, &barrier_dag(&sched)).unwrap();
        assert_eq!(dag.makespan().to_bits(), stepped.total_time_s.to_bits());
        assert_eq!(dag.peak_wavelength(), stepped.peak_wavelengths());
    }

    #[test]
    fn dag_releases_wavelengths_at_completion_not_at_the_barrier() {
        // One wavelength. Step 1: a long and a short transfer on disjoint
        // arcs. Step 2's transfer conflicts only with the short one's arc.
        // Stepped: step 2 starts after the LONG transfer (barrier).
        // Pipelined (dep only on the short transfer): starts as soon as the
        // short one's wavelength frees.
        let cfg = OpticalConfig::new(8, 1)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let mut sim = RingSimulator::new(cfg.clone());
        let long = Transfer::directed(NodeId(4), NodeId(6), 4_000_000, Direction::Clockwise);
        let short = Transfer::directed(NodeId(0), NodeId(2), 1_000_000, Direction::Clockwise);
        let next = Transfer::directed(NodeId(0), NodeId(2), 1_000_000, Direction::Clockwise);
        let sched =
            StepSchedule::from_steps(vec![vec![long.clone(), short.clone()], vec![next.clone()]]);
        let stepped = sim.run_stepped(&sched, Strategy::FirstFit).unwrap();
        assert!((stepped.total_time_s - 5e-3).abs() < 1e-12);
        let dag = vec![
            item(long, 0.0, vec![]),
            item(short, 0.0, vec![]),
            item(next, 0.0, vec![1]),
        ];
        let (eng, times) = closed_run(&cfg, &dag).unwrap();
        // The dependent starts at 1 ms and ends at 2 ms, hidden behind the
        // 4 ms transfer.
        assert!((times[2].0 - 1e-3).abs() < 1e-12);
        assert!((eng.makespan() - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn dag_waits_for_contended_wavelengths_fifo() {
        let cfg = OpticalConfig::new(8, 1)
            .with_lambda_bandwidth(1e9)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let dag = vec![
            item(
                Transfer::directed(NodeId(0), NodeId(2), 1_000_000, Direction::Clockwise),
                0.0,
                vec![],
            ),
            item(
                Transfer::directed(NodeId(1), NodeId(3), 1_000_000, Direction::Clockwise),
                0.0,
                vec![],
            ),
        ];
        let (eng, _) = closed_run(&cfg, &dag).unwrap();
        assert!((eng.makespan() - 2e-3).abs() < 1e-12);
        assert_eq!(eng.peak_concurrency(), 1);
        assert_eq!(eng.peak_wavelength(), 1);
    }

    #[test]
    fn dag_release_times_gate_transfers() {
        let dag = vec![item(
            Transfer::shortest(NodeId(0), NodeId(1), 1_000_000),
            2e-3,
            vec![],
        )];
        let (eng, times) = closed_run(&small_cfg(), &dag).unwrap();
        assert!((times[0].0 - 2e-3).abs() < 1e-12);
        assert!((eng.makespan() - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn dag_rejects_forward_deps_and_bad_releases() {
        let t = Transfer::shortest(NodeId(0), NodeId(1), 100);
        assert!(matches!(
            closed_run(&small_cfg(), &[item(t.clone(), 0.0, vec![0])]),
            Err(OpticalError::BadConfig(_))
        ));
        assert!(matches!(
            closed_run(&small_cfg(), &[item(t, f64::NAN, vec![])]),
            Err(OpticalError::BadConfig(_))
        ));
    }

    #[test]
    fn dag_empty_input_is_a_noop() {
        let (eng, _) = closed_run(&small_cfg(), &[]).unwrap();
        assert_eq!(eng.makespan(), 0.0);
        assert_eq!(eng.peak_wavelength(), 0);
    }

    fn timing(duration_s: f64, bytes: u64, peak_wavelength: usize) -> StepTiming {
        StepTiming {
            duration_s,
            transfers: 1,
            bytes,
            peak_wavelength,
        }
    }

    #[test]
    fn run_report_aggregates() {
        let report = RunReport {
            substrate: "optical".into(),
            total_time_s: 3.0,
            steps: vec![timing(1.0, 100, 2), timing(2.0, 300, 5)],
        };
        assert_eq!(report.per_step_s(), vec![1.0, 2.0]);
        assert_eq!(report.total_bytes(), 400);
        assert_eq!(report.transfer_count(), 2);
        assert_eq!(report.peak_wavelengths(), 5);
        assert_eq!(report.step_count(), 2);
        assert!((report.mean_goodput_bps() - 400.0 / 3.0).abs() < 1e-12);
        assert!((report.utilization(400.0 / 3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_report_is_zero() {
        let report = RunReport {
            substrate: "optical".into(),
            total_time_s: 0.0,
            steps: Vec::new(),
        };
        assert_eq!(report.total_bytes(), 0);
        assert_eq!(report.mean_goodput_bps(), 0.0);
        assert_eq!(report.peak_wavelengths(), 0);
        assert_eq!(report.utilization(0.0), 0.0);
    }

    #[test]
    fn schedule_accessors() {
        let mut s = StepSchedule::default();
        assert!(s.is_empty());
        s.push_step(vec![Transfer::shortest(NodeId(0), NodeId(1), 10)]);
        s.push_step(vec![
            Transfer::shortest(NodeId(1), NodeId(2), 20),
            Transfer::shortest(NodeId(2), NodeId(3), 30),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.transfer_count(), 3);
        assert_eq!(s.total_bytes(), 60);
    }
}
