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
use rand::{Rng, SeedableRng};
use wrht_core::baselines::{lower_collective_to_optical, CollectiveSource};
use wrht_core::error::WrhtError;
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
