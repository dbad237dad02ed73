//! Differential test of the stepped runner's closed form for link-disjoint
//! steps.
//!
//! When every route latency of a step's payload flows is bit-identical and
//! the routes are pairwise link-disjoint, [`StepRunner::step`] computes the
//! fluid engine's result directly instead of stepping the engine. The
//! closed driver ([`wrht_core::engine::run_closed`]) on a fluid engine with
//! zero launch delay always steps the engine on the same flows, so the two
//! must agree bit for bit: makespan, per-flow finish, rate recomputations,
//! solver work, events and error values. Near misses, which break exactly
//! one precondition, must fall back to the engine and agree too, and so
//! must the step repeated, which reuses its placement.

use electrical_sim::flow::FlowSpec;
use electrical_sim::graph::{Link, Network, Router};
use electrical_sim::runner::{StepRunner, StepTransfer};
use electrical_sim::topology::ring;
use electrical_sim::FluidEngine;
use optical_sim::{NodeId, Transfer};
use proptest::prelude::*;
use wrht_core::dag::DepSchedule;
use wrht_core::engine::{run_closed, FabricEngine};
use wrht_core::error::WrhtError;
use wrht_core::substrate::DagTiming;

/// Link capacities, bytes/s: three within the solver's relative tie
/// tolerance of 1e9, where the joint solve freezes them together, and
/// three far apart.
const CAPACITIES: [f64; 6] = [
    1e9,
    1e9 * (1.0 + 4e-13),
    1e9 * (1.0 - 4e-13),
    2.5e9,
    125.0,
    12.5e9,
];

/// Hosts, link count and router of the four routed topologies: star,
/// ring, 3 × 4 torus and a fat tree of 3 edges × 4 hosts over 2 spines.
fn shape(topo: usize) -> (usize, usize, Router) {
    match topo {
        0 => (12, 24, Router::Star),
        1 => (10, 20, Router::Ring),
        2 => (12, 48, Router::Torus2D { rows: 3, cols: 4 }),
        _ => (
            12,
            36,
            Router::FatTree {
                edges: 3,
                hosts_per_edge: 4,
                spines: 2,
            },
        ),
    }
}

fn network(topo: usize, links: Vec<Link>) -> Network {
    let (hosts, _, router) = shape(topo);
    Network::from_parts(hosts, links, router)
}

/// Greedily keep the flows whose routes share no link with earlier ones.
fn link_disjoint(net: &Network, pairs: &[(usize, usize, u64)]) -> Vec<FlowSpec> {
    let mut used = vec![false; net.links().len()];
    let mut specs = Vec::new();
    for &(s, d, bytes) in pairs {
        let (s, d) = (s % net.hosts(), d % net.hosts());
        let Ok(route) = net.route(s, d) else {
            continue;
        };
        if route.iter().any(|l| used[l.0]) {
            continue;
        }
        route.iter().for_each(|l| used[l.0] = true);
        specs.push(FlowSpec::new(s, d, bytes));
    }
    specs
}

/// A flow whose route shares exactly one link with `specs`' routes.
fn sharing_one_link(net: &Network, specs: &[FlowSpec]) -> Option<FlowSpec> {
    let mut used = vec![false; net.links().len()];
    for s in specs {
        for l in net.route(s.src, s.dst).expect("routable") {
            used[l.0] = true;
        }
    }
    let hosts = net.hosts();
    (0..hosts * hosts).find_map(|k| {
        let route = net.route(k / hosts, k % hosts).ok()?;
        (route.iter().filter(|l| used[l.0]).count() == 1)
            .then(|| FlowSpec::new(k / hosts, k % hosts, 700_000))
    })
}

/// One step of `specs` on `runner`: its duration and each flow's finish.
fn step(runner: &mut StepRunner, specs: &[FlowSpec]) -> Result<(f64, Vec<f64>), WrhtError> {
    let transfers = specs.iter().map(|s| StepTransfer {
        src: s.src,
        dst: s.dst,
        bytes: s.bytes,
    });
    let makespan_s = runner.step(transfers)?;
    Ok((makespan_s, runner.finishes().to_vec()))
}

/// The runner's step and the engine agree bit for bit on `specs`, and so
/// does the step run again on the same runner.
fn same_as_engine(net: &Network, specs: &[FlowSpec]) -> Result<(), String> {
    let released: Vec<(f64, Transfer)> = specs
        .iter()
        .map(|s| {
            (
                0.0,
                Transfer::shortest(NodeId(s.src), NodeId(s.dst), s.bytes),
            )
        })
        .collect();
    let mut eng = FluidEngine::new(net);
    let mut windows = vec![DagTiming::default(); specs.len()];
    let engine = run_closed(
        &mut eng,
        &DepSchedule::from_released(&released).expect("releases at zero"),
        None,
        |c| windows[c.key] = c.into(),
    )
    .map(|()| windows);
    let mut runner = StepRunner::new(net, 0.0).recording();
    for repeat in 1..=2 {
        match (step(&mut runner, specs), &engine) {
            (Ok((makespan_s, finishes)), Ok(engine)) => {
                let want = engine.iter().fold(0.0f64, |m, o| m.max(o.finish_s));
                prop_assert_eq!(makespan_s.to_bits(), want.to_bits());
                prop_assert_eq!(finishes.len(), engine.len());
                for (k, (finish_s, outcome)) in finishes.iter().zip(engine).enumerate() {
                    prop_assert_eq!(
                        finish_s.to_bits(),
                        outcome.finish_s.to_bits(),
                        "flow {}: {} vs {}",
                        k,
                        finish_s,
                        outcome.finish_s
                    );
                }
                let (rate_recomputations, solver_work) = eng.solver_stats();
                let events = FabricEngine::events(&eng);
                prop_assert_eq!(
                    runner.counters(),
                    (
                        repeat * rate_recomputations,
                        repeat * solver_work,
                        repeat as u64 * events
                    )
                );
            }
            (closed, engine) => {
                prop_assert_eq!(closed.err(), engine.as_ref().err().cloned());
                break;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random link-disjoint steps on the four topologies, with
    /// heterogeneous capacities, zero or positive latency and, in every
    /// fourth case, one dark (zero-capacity) link; then the same step
    /// with one shared link and with one latency nudged an ulp up.
    #[test]
    fn link_disjoint_runs_match_the_engine(
        topo in 0usize..4,
        caps in proptest::collection::vec(0usize..6, 1..8),
        lat_idx in 0usize..3,
        dark in 0usize..256,
        pairs in proptest::collection::vec((0usize..12, 0usize..12, 1u64..2_000_000), 1..24),
    ) {
        let latency_s = [0.0, 5e-7, 1e-6][lat_idx];
        let (_, n_links, _) = shape(topo);
        let mut links: Vec<Link> = (0..n_links)
            .map(|l| Link {
                capacity_bps: CAPACITIES[caps[l % caps.len()]],
                latency_s,
            })
            .collect();
        if dark % 4 == 0 {
            links[dark / 4 % n_links].capacity_bps = 0.0;
        }
        let net = network(topo, links.clone());
        let specs = link_disjoint(&net, &pairs);
        prop_assume!(!specs.is_empty());
        same_as_engine(&net, &specs)?;

        if let Some(extra) = sharing_one_link(&net, &specs) {
            let mut shared = specs.clone();
            shared.push(extra);
            same_as_engine(&net, &shared)?;
        }

        let first = net.route(specs[0].src, specs[0].dst).expect("routable")[0];
        links[first.0].latency_s = links[first.0].latency_s.next_up();
        same_as_engine(&network(topo, links), &specs)?;
    }
}

/// A ring neighbour step whose first route latency is one ulp above the
/// others': the flows share no link, so only the latency precondition
/// sends the step to the engine. The engine promotes flow 0
/// together with the others (its timer is within `EPS`), so a closed form
/// that started every flow at flow 0's latency would finish each an ulp
/// late.
#[test]
fn an_ulp_off_route_latency_falls_back_to_the_engine() {
    let lat = 1e-6;
    let mut links = ring(8, 1e9, lat).links().to_vec();
    links[0].latency_s = lat.next_up();
    let net = Network::from_parts(8, links, Router::Ring);
    let specs: Vec<FlowSpec> = (0..8).map(|i| FlowSpec::new(i, (i + 1) % 8, 1)).collect();
    same_as_engine(&net, &specs).unwrap();
    let (_, finishes) = step(&mut StepRunner::new(&net, 0.0).recording(), &specs).unwrap();
    for finish_s in &finishes {
        assert_eq!(finish_s.to_bits(), (lat + 1.0 / 1e9).to_bits());
    }
    assert_ne!(finishes[0].to_bits(), (lat.next_up() + 1.0 / 1e9).to_bits());
}

/// Disjoint flows whose links differ by less than the solver's relative
/// tie tolerance are frozen together at the smallest share by the joint
/// solve, not each at its own link's capacity.
#[test]
fn the_joint_solve_ties_capacities_within_its_tolerance() {
    let slow = Link {
        capacity_bps: 1e9,
        latency_s: 0.0,
    };
    let near = Link {
        capacity_bps: CAPACITIES[1],
        latency_s: 0.0,
    };
    // Host 2's ports are 4e-13 faster than host 0's and 1's.
    let links = vec![slow, slow, slow, slow, near, near, near, near];
    let net = Network::from_parts(4, links, Router::Star);
    let specs = [
        FlowSpec::new(0, 1, 3_000_000),
        FlowSpec::new(2, 3, 3_000_000),
    ];
    same_as_engine(&net, &specs).unwrap();
    let mut runner = StepRunner::new(&net, 0.0).recording();
    let (_, finishes) = step(&mut runner, &specs).unwrap();
    assert_eq!(finishes[0].to_bits(), finishes[1].to_bits());
    let (rate_recomputations, _, events) = runner.counters();
    assert_eq!(rate_recomputations, 1);
    assert_eq!(events, 2);
}
