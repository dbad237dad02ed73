//! Differential tests of the two stepped runners' placement memo and of the
//! lazy collective sources.
//!
//! Both stepped runners reuse the last placed step's placement when a
//! step's ordered routing list repeats it, and redo only the per-transfer
//! arithmetic. The references here are the un-memoized loops, kept in test
//! code: every step resolved, assigned or routed afresh. Memoized and
//! reference runs must agree bit for bit on every per-step field, on the
//! total and on every error, including the step an error names or happens
//! in. The step sequences mix repeated routing lists with one-field
//! perturbations (an endpoint, a direction, a lane count, a transfer added
//! or dropped, a byte count going to zero), empty steps, malformed
//! transfers, overlapping routes, dark links and finishes that overflow.
//!
//! [`CollectiveSource`] writes each classic all-reduce one step at a time;
//! it must equal the materialized lowering of the collective's schedule
//! transfer for transfer and produce bit-identical reports on both
//! substrates (or, on the optical ring, the same error).
//!
//! A source may promise that a step only permutes its predecessor's
//! payloads (`StepSource::permutes_previous`); both runners then reuse the
//! predecessor's timing without writing the step, where their placement
//! makes the timing independent of which transfer carries which payload.
//! Sources here claim random payload permutations; their reports must
//! equal the un-memoized loops bit for bit on placements where reuse
//! applies and on placements where it must not, and the steps they are
//! asked to write show which runs reused. A stepped run whose payload
//! bytes overflow `u64` is a typed error on every substrate.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use collectives::Collective;
use electrical_sim::flow::FlowSpec;
use electrical_sim::graph::{Link, Network, Router};
use electrical_sim::runner::{StepRunner, StepTransfer};
use electrical_sim::sim::run_flows;
use electrical_sim::NetError;
use optical_sim::{
    Direction, DirectionChoice, NodeId, Occupancy, OpticalConfig, OpticalError, RingSimulator,
    StepSchedule, StepSource, StepTiming, Strategy, Transfer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use wrht_core::baselines::{lower_collective_to_optical, CollectiveSource};
use wrht_core::dag::{DepSource, PipelinedSource};
use wrht_core::error::WrhtError;
use wrht_core::hierarchy::{compose, HierSpec};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, RunReport, Substrate};

// ---- references: the un-memoized stepped loops --------------------------

/// The optical stepped loop without the memo: every step's transfers are
/// resolved and wavelength-assigned on a fresh occupancy, in order.
fn reference_optical(
    sim: &RingSimulator,
    schedule: &StepSchedule,
    strategy: Strategy,
) -> Result<RunReport, OpticalError> {
    let topo = sim.topology();
    let config = sim.config();
    let timing = config.timing();
    let mut steps = Vec::new();
    for (index, step) in schedule.steps().iter().enumerate() {
        let mut occ = Occupancy::new(topo.nodes(), config.wavelengths);
        let mut duration = 0.0f64;
        let mut bytes = 0u64;
        for tr in step {
            let path = tr.resolve(topo)?;
            occ.assign(&path, tr.lanes, strategy).map_err(|e| match e {
                OpticalError::WavelengthsExhausted {
                    available,
                    requested,
                    ..
                } => OpticalError::WavelengthsExhausted {
                    available,
                    requested,
                    step: index,
                },
                other => other,
            })?;
            let t = timing.transfer_time(tr.bytes, tr.lanes, path.hops());
            duration = duration.max(t);
            bytes += tr.bytes;
        }
        steps.push(StepTiming {
            duration_s: duration,
            transfers: step.len(),
            bytes,
            peak_wavelength: occ.peak_wavelengths_used(),
        });
    }
    Ok(RunReport {
        substrate: "optical".into(),
        total_time_s: steps.iter().fold(0.0, |total, s| total + s.duration_s),
        steps,
    })
}

/// One electrical step without the memo or the closed form: the payload
/// flows run as one `run_flows` call on the fluid engine, then the
/// zero-byte transfers are routed (as the runner routes a step's zero-byte
/// transfers after its payload).
fn reference_electrical_step(
    net: &Network,
    step: &[StepTransfer],
    overhead_s: f64,
) -> Result<f64, NetError> {
    if step.is_empty() {
        return Ok(0.0);
    }
    let flows: Vec<FlowSpec> = step
        .iter()
        .filter(|t| t.bytes > 0)
        .map(|t| FlowSpec::new(t.src, t.dst, t.bytes))
        .collect();
    let makespan_s = if flows.is_empty() {
        0.0
    } else {
        run_flows(net, &flows)?.makespan_s
    };
    for t in step.iter().filter(|t| t.bytes == 0) {
        net.route(t.src, t.dst)?;
    }
    Ok(overhead_s + makespan_s)
}

// ---- step sequences ------------------------------------------------------

/// A step sequence around one base routing list: repeats of the base with
/// fresh bytes, interleaved with empty steps and one-field perturbations.
/// `perturb` applies perturbation `kind` to a copy of the base.
fn sequence<T: Clone>(
    rng: &mut StdRng,
    base: &[T],
    len: usize,
    mut rebyte: impl FnMut(&mut StdRng, &mut T),
    mut perturb: impl FnMut(&mut StdRng, &mut Vec<T>, usize),
) -> Vec<Vec<T>> {
    (0..len)
        .map(|_| {
            let mut step = base.to_vec();
            step.iter_mut().for_each(|t| rebyte(rng, t));
            match rng.random_range(0..12usize) {
                0..=4 => {}
                5 => step.clear(),
                kind => perturb(rng, &mut step, kind - 6),
            }
            step
        })
        .collect()
}

fn optical_transfer(rng: &mut StdRng, n: usize) -> Transfer {
    let src = rng.random_range(0..n);
    // Mostly valid endpoints, rarely a self-transfer or one off the ring.
    let dst = match rng.random_range(0..64usize) {
        0 => src,
        1 => n + 1,
        _ => (src + 1 + rng.random_range(0..n - 1)) % n,
    };
    let direction = match rng.random_range(0..3usize) {
        0 => DirectionChoice::Shortest,
        1 => DirectionChoice::Forced(Direction::Clockwise),
        _ => DirectionChoice::Forced(Direction::CounterClockwise),
    };
    Transfer {
        src: NodeId(src),
        dst: NodeId(dst),
        bytes: 0,
        direction,
        lanes: rng.random_range(1..4usize),
        tag: 0,
    }
}

fn optical_bytes(rng: &mut StdRng) -> u64 {
    if rng.random_range(0..8usize) == 0 {
        0
    } else {
        rng.random_range(1..3_000_000u64)
    }
}

/// Optical one-field perturbations: endpoint, direction, lanes, a transfer
/// added or dropped, a byte count going to zero.
fn perturb_optical(rng: &mut StdRng, step: &mut Vec<Transfer>, kind: usize, n: usize) {
    let k = rng.random_range(0..step.len().max(1));
    match (kind, step.get_mut(k)) {
        (0, Some(t)) => t.dst = NodeId((t.dst.0 + 1) % n),
        (1, Some(t)) => {
            t.direction = match t.direction {
                DirectionChoice::Shortest => DirectionChoice::Forced(Direction::Clockwise),
                DirectionChoice::Forced(Direction::Clockwise) => {
                    DirectionChoice::Forced(Direction::CounterClockwise)
                }
                DirectionChoice::Forced(Direction::CounterClockwise) => DirectionChoice::Shortest,
            }
        }
        (2, Some(t)) => t.lanes += 1,
        (3, _) => {
            let mut extra = optical_transfer(rng, n);
            extra.bytes = optical_bytes(rng);
            step.push(extra);
        }
        (4, Some(_)) => {
            step.remove(k);
        }
        (_, Some(t)) => t.bytes = 0,
        (_, None) => {}
    }
}

fn same_optical(
    got: &Result<RunReport, OpticalError>,
    want: &Result<RunReport, OpticalError>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(&got.substrate, &want.substrate);
            prop_assert_eq!(got.total_time_s.to_bits(), want.total_time_s.to_bits());
            prop_assert_eq!(got.steps.len(), want.steps.len());
            for (index, (g, w)) in got.steps.iter().zip(&want.steps).enumerate() {
                prop_assert_eq!(
                    g.duration_s.to_bits(),
                    w.duration_s.to_bits(),
                    "step {}",
                    index
                );
                prop_assert_eq!(
                    (g.transfers, g.bytes, g.peak_wavelength),
                    (w.transfers, w.bytes, w.peak_wavelength),
                    "step {}",
                    index
                );
            }
        }
        (got, want) => prop_assert_eq!(got.as_ref().err(), want.as_ref().err()),
    }
    Ok(())
}

/// Port capacities, bytes/s, drawn per link so a changed route changes
/// its flow's rate.
const CAPACITIES: [f64; 3] = [12.5e9, 10e9, 2.5e9];

/// Capacities of the one odd link half the cases have, bytes/s: a dark
/// link (the stall) and a link so slow that a finish beyond 180 kB
/// overflows to infinity.
const ODD_CAPACITIES: [f64; 2] = [0.0, 1e-303];

fn electrical_transfer(rng: &mut StdRng, hosts: usize) -> StepTransfer {
    let src = rng.random_range(0..hosts);
    let dst = match rng.random_range(0..64usize) {
        0 => src,
        1 => hosts + 2,
        _ => (src + 1 + rng.random_range(0..hosts - 1)) % hosts,
    };
    StepTransfer { src, dst, bytes: 0 }
}

fn electrical_bytes(rng: &mut StdRng) -> u64 {
    if rng.random_range(0..8usize) == 0 {
        0
    } else {
        rng.random_range(1..3_000_000u64)
    }
}

/// Electrical one-field perturbations: either endpoint, a transfer added
/// or dropped, a byte count going to zero (there is no direction or lane
/// field to perturb).
fn perturb_electrical(rng: &mut StdRng, step: &mut Vec<StepTransfer>, kind: usize, hosts: usize) {
    let k = rng.random_range(0..step.len().max(1));
    match (kind % 4, step.get_mut(k)) {
        (0, Some(t)) if kind < 4 => t.src = (t.src + 1) % hosts,
        (0, Some(t)) => t.dst = (t.dst + 1) % hosts,
        (1, _) => {
            let mut extra = electrical_transfer(rng, hosts);
            extra.bytes = electrical_bytes(rng);
            step.push(extra);
        }
        (2, Some(_)) => {
            step.remove(k);
        }
        (_, Some(t)) => t.bytes = 0,
        (_, None) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `run_stepped` with its placement memo equals the un-memoized loop
    /// under First-Fit and Best-Fit, wavelength exhaustion (and the step
    /// it names) included.
    #[test]
    fn memoized_optical_stepped_runs_match_the_unmemoized_loop(
        n in 3usize..14,
        wavelengths in 1usize..9,
        width in 1usize..8,
        len in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<Transfer> = (0..width).map(|_| optical_transfer(&mut rng, n)).collect();
        let steps = sequence(
            &mut rng,
            &base,
            len,
            |rng, t| t.bytes = optical_bytes(rng),
            |rng, step, kind| perturb_optical(rng, step, kind, n),
        );
        let schedule = StepSchedule::from_steps(steps);
        let mut sim = RingSimulator::new(
            OpticalConfig::new(n, wavelengths).with_hop_propagation(3e-9),
        );
        for strategy in [Strategy::FirstFit, Strategy::BestFit] {
            let want = reference_optical(&sim, &schedule, strategy);
            same_optical(&sim.run_stepped(&schedule, strategy), &want)?;
        }
    }

    /// Every step of the electrical `StepRunner` equals the un-memoized
    /// step — the same time bits, or the same error in the same step — and
    /// the electrical substrate's stepped run reports those times and their
    /// sequential sum, or the first step's error.
    #[test]
    fn memoized_electrical_steps_match_the_unmemoized_step(
        hosts in 3usize..10,
        latency_idx in 0usize..3,
        odd_link in 0usize..40,
        odd_capacity in 0usize..2,
        nudged_link in 0usize..80,
        width in 1usize..7,
        len in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let latency_s = [0.0, 5e-7, 1e-6][latency_idx];
        let mut links: Vec<Link> = (0..2 * hosts)
            .map(|_| Link {
                capacity_bps: CAPACITIES[rng.random_range(0..CAPACITIES.len())],
                latency_s,
            })
            .collect();
        // In about half the cases one link is dark or overflowing, and in
        // some one latency is an ulp off (so no step takes the closed form).
        if let Some(link) = links.get_mut(odd_link) {
            link.capacity_bps = ODD_CAPACITIES[odd_capacity];
        }
        if let Some(link) = links.get_mut(nudged_link) {
            link.latency_s = link.latency_s.next_up();
        }
        let net = Network::from_parts(hosts, links, Router::Star);
        let base: Vec<StepTransfer> =
            (0..width).map(|_| electrical_transfer(&mut rng, hosts)).collect();
        let steps = sequence(
            &mut rng,
            &base,
            len,
            |rng, t| t.bytes = electrical_bytes(rng),
            |rng, step, kind| perturb_electrical(rng, step, kind, hosts),
        );
        let overhead_s = 5e-6;
        let mut runner = StepRunner::new(&net, overhead_s);
        let mut times = Vec::new();
        let mut failed = None;
        for (k, step) in steps.iter().enumerate() {
            let got = runner.step(step.iter().copied());
            let want = reference_electrical_step(&net, step, overhead_s);
            match (&got, &want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g.to_bits(), w.to_bits(), "step {}", k),
                _ => {
                    prop_assert_eq!(got.as_ref().err(), want.as_ref().err(), "step {}", k);
                    failed = want.err();
                    break;
                }
            }
            times.push(want.expect("checked above"));
        }
        let schedule = StepSchedule::from_steps(
            steps
                .iter()
                .map(|step| {
                    step.iter()
                        .map(|t| Transfer::shortest(NodeId(t.src), NodeId(t.dst), t.bytes))
                        .collect()
                })
                .collect(),
        );
        match ElectricalSubstrate::new(net.clone(), overhead_s).execute(&schedule) {
            Ok(report) => {
                prop_assert_eq!(times.len(), steps.len());
                let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&report.per_step_s()), bits(&times));
                let total = times.iter().fold(0.0, |sum, t| sum + t);
                prop_assert_eq!(report.total_time_s.to_bits(), total.to_bits());
            }
            Err(e) => prop_assert_eq!(Some(e), failed.map(WrhtError::from)),
        }
    }
}

/// A step that over-subscribes the wavelengths after two placed steps, one
/// of them reused from the memo, fails naming its own index.
#[test]
fn exhaustion_after_reused_steps_names_the_failing_step() {
    let ring = |bytes| {
        (0..6)
            .map(|i| Transfer::shortest(NodeId(i), NodeId((i + 1) % 6), bytes))
            .collect::<Vec<_>>()
    };
    let nested: Vec<Transfer> = (0..3)
        .map(|i| Transfer::directed(NodeId(i), NodeId(4), 100, Direction::Clockwise))
        .collect();
    let schedule = StepSchedule::from_steps(vec![ring(100), ring(200), nested]);
    let mut sim = RingSimulator::new(OpticalConfig::new(6, 2));
    for strategy in [Strategy::FirstFit, Strategy::BestFit] {
        let err = sim.run_stepped(&schedule, strategy).unwrap_err();
        assert_eq!(
            err,
            reference_optical(&sim, &schedule, strategy).unwrap_err()
        );
        assert!(matches!(
            err,
            OpticalError::WavelengthsExhausted { step: 2, .. }
        ));
    }
}

/// On a link of 1e-303 B/s a 1 kB flow finishes at a finite 1e306 s, but
/// a 1 MB flow's closed-form finish overflows to infinity. A step that
/// reuses the placement and overflows goes to the engine, as the reference
/// step does, and the step after it is placed afresh.
#[test]
fn an_overflowing_finish_falls_back_to_the_engine_on_reuse() {
    let mut links = vec![
        Link {
            capacity_bps: 12.5e9,
            latency_s: 5e-7,
        };
        8
    ];
    links[0].capacity_bps = 1e-303;
    let net = Network::from_parts(4, links, Router::Star);
    let step = |bytes| {
        vec![
            StepTransfer {
                src: 0,
                dst: 1,
                bytes,
            },
            StepTransfer {
                src: 2,
                dst: 3,
                bytes: 1_000,
            },
        ]
    };
    let mut runner = StepRunner::new(&net, 0.0);
    let mut outcomes = Vec::new();
    for bytes in [1_000, 2_000, 1_000_000, 3_000] {
        let got = runner.step(step(bytes).into_iter());
        let want = reference_electrical_step(&net, &step(bytes), 0.0);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_eq!(g.to_bits(), w.to_bits()),
            _ => assert_eq!(got.as_ref().err(), want.as_ref().err()),
        }
        outcomes.push(got.is_ok());
    }
    assert_eq!(outcomes, [true, true, false, true]);
}

// ---- the lazy collective sources ------------------------------------------

fn same_report(got: &RunReport, want: &RunReport) {
    assert_eq!(got.substrate, want.substrate);
    assert_eq!(got.total_time_s.to_bits(), want.total_time_s.to_bits());
    assert_eq!(got.steps.len(), want.steps.len());
    for (g, w) in got.steps.iter().zip(&want.steps) {
        assert_eq!(g.duration_s.to_bits(), w.duration_s.to_bits());
        assert_eq!(
            (g.transfers, g.bytes, g.peak_wavelength),
            (w.transfers, w.bytes, w.peak_wavelength)
        );
    }
}

/// Both optical runs' reports bit for bit, or the same error.
fn same_outcome(got: Result<RunReport, WrhtError>, want: Result<RunReport, WrhtError>) {
    match (&got, &want) {
        (Ok(g), Ok(w)) => same_report(g, w),
        _ => assert_eq!(got.err(), want.err()),
    }
}

type Builder = fn(usize, usize) -> collectives::Schedule;

/// Every classic collective with its schedule builder.
const COLLECTIVES: [(Collective, Builder); 4] = [
    (Collective::Ring, ring_allreduce),
    (Collective::RecursiveDoubling, recursive_doubling),
    (Collective::HalvingDoubling, halving_doubling),
    (Collective::Tree, binomial_tree),
];

/// The lazy source against the materialized lowering of the same
/// collective: every step, transfer for transfer, then both forms on both
/// substrates.
fn check_collective_source(
    (collective, builder): (Collective, Builder),
    n: usize,
    elems: usize,
    lanes: usize,
) {
    let source = CollectiveSource {
        collective,
        n,
        elems,
        bytes_per_elem: 4,
        lanes,
    };
    let case = format!("{collective:?} n={n} elems={elems} lanes={lanes}");
    let lowered = lower_collective_to_optical(&builder(n, elems), 4, lanes);
    assert_eq!(source.step_count(), lowered.len(), "{case}");
    let mut buf = Vec::new();
    for (k, want) in lowered.steps().iter().enumerate() {
        assert_eq!(source.step(k, &mut buf), want.as_slice(), "{case} step {k}");
    }
    if n <= 40 {
        assert_eq!(source.collect(), lowered, "{case}");
    }

    let optical =
        || OpticalSubstrate::new(OpticalConfig::new(n.max(2), 4)).expect("valid optical config");
    let lazy = optical().execute(&source);
    // The ring's neighbour hops always fit the four wavelengths; the other
    // collectives may exhaust them, identically in both forms.
    if collective == Collective::Ring {
        assert!(lazy.is_ok(), "{case}: {lazy:?}");
    }
    same_outcome(lazy, optical().execute(&lowered));
    let electrical = || {
        ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(n, 12.5e9, 5e-7),
            5e-6,
        )
    };
    same_report(
        &electrical().execute(&source).expect("lazy electrical"),
        &electrical()
            .execute(&lowered)
            .expect("materialized electrical"),
    );
}

/// The element counts covered at `n` nodes: none, one, around one per
/// node (empty and ragged chunks) and a large ragged buffer.
fn ring_elems(n: usize) -> [usize; 6] {
    [0, 1, n - 1, n, n + 1, 1000 * n + 7]
}

/// Every collective at `n` nodes over [`ring_elems`] with `lanes`.
fn check_every_collective(n: usize, lanes: usize) {
    for entry in COLLECTIVES {
        for elems in ring_elems(n) {
            check_collective_source(entry, n, elems, lanes);
        }
    }
}

#[test]
fn lazy_ring_source_equals_the_materialized_lowering_up_to_40_nodes() {
    for n in 1..=40 {
        for lanes in [1, 3] {
            check_every_collective(n, lanes);
        }
    }
}

// The 1024-node and 1000-node checks are split by lane count so the halves
// run on separate test threads. At n = 1000 recursive doubling and
// halving-doubling run their non-power-of-two fixup steps.

#[test]
fn lazy_ring_source_equals_the_materialized_lowering_at_1024_nodes_one_lane() {
    check_every_collective(1024, 1);
}

#[test]
fn lazy_ring_source_equals_the_materialized_lowering_at_1024_nodes_three_lanes() {
    check_every_collective(1024, 3);
}

#[test]
fn lazy_collective_sources_equal_the_materialized_lowering_at_1000_nodes_one_lane() {
    check_every_collective(1000, 1);
}

#[test]
fn lazy_collective_sources_equal_the_materialized_lowering_at_1000_nodes_three_lanes() {
    check_every_collective(1000, 3);
}

// ---- steps that permute their predecessor's payloads ----------------------

/// A step source that counts the steps it is asked to write.
struct Counted<S> {
    source: S,
    reads: Cell<usize>,
}

impl<S: StepSource> Counted<S> {
    fn new(source: S) -> Self {
        Self {
            source,
            reads: Cell::new(0),
        }
    }

    /// The steps written since the last call.
    fn take_reads(&self) -> usize {
        self.reads.replace(0)
    }
}

impl<S: StepSource> StepSource for Counted<S> {
    fn step_count(&self) -> usize {
        self.source.step_count()
    }

    fn step<'a>(&'a self, index: usize, buf: &'a mut Vec<Transfer>) -> &'a [Transfer] {
        self.reads.set(self.reads.get() + 1);
        self.source.step(index, buf)
    }

    fn permutes_previous(&self, index: usize) -> bool {
        self.source.permutes_previous(index)
    }
}

/// A materialized schedule that claims `permutes_previous` for the steps
/// `claims` marks (each does permute its predecessor's payloads).
struct Claimed {
    schedule: StepSchedule,
    claims: Vec<bool>,
}

impl StepSource for Claimed {
    fn step_count(&self) -> usize {
        self.schedule.len()
    }

    fn step<'a>(&'a self, index: usize, buf: &'a mut Vec<Transfer>) -> &'a [Transfer] {
        self.schedule.step(index, buf)
    }

    fn permutes_previous(&self, index: usize) -> bool {
        self.claims[index]
    }
}

impl Claimed {
    /// Steps the runners must write when they reuse every claimed step.
    fn unclaimed(&self) -> usize {
        self.claims.iter().filter(|&&c| !c).count()
    }
}

/// `len` steps over `base`'s routing list. Step 0 and every unclaimed step
/// draw fresh bytes, one of them zero when `zero`; a claimed step shuffles
/// its predecessor's bytes among the transfers, so a zero moves too.
fn permuting_steps(rng: &mut StdRng, base: &[Transfer], len: usize, zero: bool) -> Claimed {
    let mut steps: Vec<Vec<Transfer>> = Vec::with_capacity(len);
    let mut claims = Vec::with_capacity(len);
    for k in 0..len {
        let claimed = k > 0 && rng.random_range(0..4usize) > 0;
        let mut bytes: Vec<u64> = match steps.last() {
            Some(prev) if claimed => prev.iter().map(|t| t.bytes).collect(),
            _ => {
                let mut fresh: Vec<u64> = (0..base.len())
                    .map(|_| rng.random_range(1..3_000_000u64))
                    .collect();
                if zero {
                    fresh[0] = 0;
                }
                fresh
            }
        };
        bytes.shuffle(rng);
        let step = base
            .iter()
            .zip(bytes)
            .map(|(t, bytes)| Transfer { bytes, ..t.clone() })
            .collect();
        steps.push(step);
        claims.push(claimed);
    }
    Claimed {
        schedule: StepSchedule::from_steps(steps),
        claims,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On the optical ring, a claimed step reuses its predecessor's timing
    /// exactly when every transfer has the same hop count and lane count:
    /// on a uniform ring only the unclaimed steps are written, one
    /// transfer a hop longer or a lane wider makes every step written, and
    /// either way the report equals the un-memoized loop bit for bit. A
    /// zero-byte payload costs the same on every transfer of a uniform
    /// ring, so it moves between transfers without stopping the reuse.
    #[test]
    fn claimed_permutations_on_the_optical_ring_match_the_unmemoized_loop(
        n in 4usize..14,
        shift in 1usize..3,
        lanes in 1usize..3,
        odd in 0usize..3,
        zero in 0usize..2,
        len in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base: Vec<Transfer> = (0..n)
            .map(|i| {
                Transfer::directed(NodeId(i), NodeId((i + shift) % n), 0, Direction::Clockwise)
                    .with_lanes(lanes)
            })
            .collect();
        let j = rng.random_range(0..n);
        match odd {
            1 => base[j].dst = NodeId((j + shift + 1) % n),
            2 => base[j].lanes += 1,
            _ => {}
        }
        let source = Counted::new(permuting_steps(&mut rng, &base, len, zero == 1));
        let mut sim = RingSimulator::new(
            OpticalConfig::new(n, (shift + 1) * (lanes + 1)).with_hop_propagation(3e-9),
        );
        let written = if odd == 0 { source.source.unclaimed() } else { len };
        for strategy in [Strategy::FirstFit, Strategy::BestFit] {
            let got = sim.run_stepped(&source, strategy);
            prop_assert!(got.is_ok(), "{:?}", got);
            prop_assert_eq!(source.take_reads(), written);
            let want = reference_optical(&sim, &source.source.schedule, strategy);
            same_optical(&got, &want)?;
        }
    }

    /// On a star, a claimed step reuses its predecessor's timing exactly
    /// when the predecessor ran in the closed form with bit-identical rates
    /// and no zero-byte transfer. Per-host capacities give the flows
    /// different rates, and a zero-byte payload moving between transfers
    /// moves which transfers are flows; both make every step written. The
    /// stepped run equals the un-memoized steps bit for bit either way, and
    /// a runner that repeats counts what a runner that steps counts.
    #[test]
    fn claimed_permutations_on_the_star_match_the_unmemoized_steps(
        hosts in 3usize..10,
        per_host in 0usize..2,
        zero in 0usize..2,
        latency_idx in 0usize..3,
        len in 1usize..14,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shift = rng.random_range(1..hosts);
        let latency_s = [0.0, 5e-7, 1e-6][latency_idx];
        // Host h's uplink is link 2h, its downlink 2h + 1.
        let capacities: Vec<f64> = (0..hosts)
            .map(|_| match per_host {
                1 => CAPACITIES[rng.random_range(0..CAPACITIES.len())],
                _ => CAPACITIES[0],
            })
            .collect();
        let links = capacities
            .iter()
            .flat_map(|&capacity_bps| [Link { capacity_bps, latency_s }; 2])
            .collect();
        let net = Network::from_parts(hosts, links, Router::Star);
        let base: Vec<Transfer> = (0..hosts)
            .map(|i| Transfer::shortest(NodeId(i), NodeId((i + shift) % hosts), 0))
            .collect();
        let source = Counted::new(permuting_steps(&mut rng, &base, len, zero == 1));
        let steps = source.source.schedule.steps();

        // Each flow crosses its source's uplink and its destination's
        // downlink alone: its rate is the smaller capacity.
        let rate = |i: usize| capacities[i].min(capacities[(i + shift) % hosts]).to_bits();
        let uniform = (0..hosts).all(|i| rate(i) == rate(0));
        let written = if uniform && zero == 0 { source.source.unclaimed() } else { len };

        let overhead_s = 5e-6;
        let report = ElectricalSubstrate::new(net.clone(), overhead_s).execute(&source);
        prop_assert!(report.is_ok(), "{:?}", report);
        let report = report.expect("checked above");
        prop_assert_eq!(source.take_reads(), written);
        let step_of = |step: &[Transfer]| -> Vec<StepTransfer> {
            step.iter()
                .map(|t| StepTransfer { src: t.src.0, dst: t.dst.0, bytes: t.bytes })
                .collect()
        };
        let mut total = 0.0;
        prop_assert_eq!(report.steps.len(), len);
        for (k, (got, step)) in report.steps.iter().zip(steps).enumerate() {
            let want = reference_electrical_step(&net, &step_of(step), overhead_s);
            prop_assert!(want.is_ok(), "{:?}", want);
            let want = want.expect("checked above");
            prop_assert_eq!(got.duration_s.to_bits(), want.to_bits(), "step {}", k);
            let bytes: u64 = step.iter().map(|t| t.bytes).sum();
            prop_assert_eq!((got.transfers, got.bytes), (step.len(), bytes), "step {}", k);
            total += want;
        }
        prop_assert_eq!(report.total_time_s.to_bits(), total.to_bits());

        let mut repeating = StepRunner::new(&net, overhead_s);
        let mut stepping = StepRunner::new(&net, overhead_s);
        let mut repeats = 0;
        for (k, step) in steps.iter().enumerate() {
            let want = stepping.step(step_of(step).into_iter());
            let repeated = match source.source.claims[k] {
                true => repeating.repeat(),
                false => None,
            };
            repeats += usize::from(repeated.is_some());
            let got = repeated.map_or_else(|| repeating.step(step_of(step).into_iter()), Ok);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "step {}", k);
        }
        prop_assert_eq!(repeats, len - written);
        prop_assert_eq!(repeating.counters(), stepping.counters());
    }
}

/// A ring all-reduce whose chunks are all non-empty claims every step
/// after the first, so both stepped runners and the pipelined lowering's
/// counting pass write only step 0 of a 1024-node ring. A runner that
/// fell back to writing every step would read 2,046.
#[test]
fn a_hinted_1024_node_ring_writes_only_its_first_step() {
    let n = 1024;
    let source = Counted::new(CollectiveSource {
        collective: Collective::Ring,
        n,
        elems: 1000 * n + 7,
        bytes_per_elem: 4,
        lanes: 1,
    });
    let mut optical = OpticalSubstrate::new(OpticalConfig::new(n, 4)).expect("valid config");
    let report = optical.execute(&source).expect("the ring fits one lane");
    assert_eq!(report.step_count(), 2 * (n - 1));
    assert_eq!(source.take_reads(), 1);
    let mut electrical = ElectricalSubstrate::new(
        electrical_sim::topology::star_cluster(n, 12.5e9, 5e-7),
        5e-6,
    );
    let report = electrical.execute(&source).expect("electrical ring");
    assert_eq!(report.step_count(), 2 * (n - 1));
    assert_eq!(source.take_reads(), 1);
    let dag = PipelinedSource::new(&source);
    assert_eq!(dag.len(), 2 * (n - 1) * n);
    assert_eq!(source.take_reads(), 1);
}

// ---- payload bytes that overflow u64 --------------------------------------

/// A 4-node clockwise ring step of `bytes` per transfer.
fn ring_step(bytes: u64) -> Vec<Transfer> {
    (0..4)
        .map(|i| Transfer::shortest(NodeId(i), NodeId((i + 1) % 4), bytes))
        .collect()
}

/// Stepped runs whose payload bytes overflow `u64`: two transfers of one
/// step, two steps of the run, and three steps of a ring that claim to
/// permute their predecessor, each within `u64` on its own (the run's
/// total overflows only through the steps a runner reuses).
fn overflowing_sources() -> Vec<Counted<Claimed>> {
    let half = u64::MAX / 2 + 1;
    let one = |bytes| Transfer::shortest(NodeId(0), NodeId(1), bytes);
    let plain = |steps| Claimed {
        claims: vec![false; 2],
        schedule: StepSchedule::from_steps(steps),
    };
    vec![
        Counted::new(plain(vec![vec![one(half), one(half)], vec![]])),
        Counted::new(plain(vec![vec![one(half)], vec![one(half)]])),
        Counted::new(Claimed {
            schedule: StepSchedule::from_steps(vec![ring_step(u64::MAX / 8); 3]),
            claims: vec![false, true, true],
        }),
    ]
}

#[test]
fn an_optical_stepped_run_whose_bytes_overflow_is_a_typed_error() {
    let overflow = OpticalError::BadConfig("stepped payload bytes overflow u64");
    let mut sim = RingSimulator::new(OpticalConfig::new(4, 4));
    for source in overflowing_sources() {
        assert_eq!(
            sim.run_stepped(&source, Strategy::FirstFit),
            Err(overflow.clone())
        );
        let mut substrate = OpticalSubstrate::new(OpticalConfig::new(4, 4)).expect("valid config");
        assert_eq!(
            substrate.execute(&source).err(),
            Some(WrhtError::Optical(overflow.clone()))
        );
    }
    // The reused ring writes only its first step.
    let reused = overflowing_sources().pop().expect("three sources");
    assert!(sim.run_stepped(&reused, Strategy::FirstFit).is_err());
    assert_eq!(reused.take_reads(), 1);
}

#[test]
fn an_electrical_stepped_run_whose_bytes_overflow_is_a_typed_error() {
    let overflow = WrhtError::Electrical(NetError::BadConfig("stepped payload bytes overflow u64"));
    let star = || {
        ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(4, 12.5e9, 5e-7),
            5e-6,
        )
    };
    for source in overflowing_sources() {
        assert_eq!(star().execute(&source).err(), Some(overflow.clone()));
    }
    let reused = overflowing_sources().pop().expect("three sources");
    assert!(star().execute(&reused).is_err());
    assert_eq!(reused.take_reads(), 1);
}

#[test]
fn a_composed_stepped_run_whose_bytes_overflow_is_a_typed_error() {
    let overflow = WrhtError::Optical(OpticalError::BadConfig(
        "stepped payload bytes overflow u64",
    ));
    let spec = HierSpec::new(2, 2).expect("valid hierarchy");
    for source in overflowing_sources() {
        let intra = OpticalSubstrate::new(OpticalConfig::new(2, 4)).expect("valid config");
        let inter = ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(4, 12.5e9, 5e-7),
            5e-6,
        );
        let mut composed =
            compose(spec, Box::new(intra), Box::new(inter)).expect("valid composed substrate");
        assert_eq!(composed.execute(&source).err(), Some(overflow.clone()));
    }
}
