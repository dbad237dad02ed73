//! Golden oracle for the electrical barrier fast path.
//!
//! A barrier-shaped DAG ([`DepSchedule::from_steps`]) on the electrical
//! substrate skips the event engine: its stages run one stepped fluid
//! solve at a time. This suite pins that path. Seeded step schedules run
//! on star, ring, 3 × 4 torus and 3 × 4 fat-tree networks with
//! heterogeneous link capacities, route latencies of 0, 0.5 and 1 us
//! (sometimes one nudged an ulp up), a dark (0 B/s) link or a 1e-303 B/s
//! link whose finishes overflow, and launch overheads of 0 and 5 us. The
//! schedules repeat one routing list with fresh bytes, repeat it with
//! zero bytes only, perturb it, interleave empty steps and now and then
//! name a host outside the network.
//!
//! Each case is pinned as one line of `tests/golden/barrier_fast_path.json`:
//! `execute_dag`'s makespan bits, a digest of every transfer's window
//! bits, its rate recomputations, solver work and events (or its error);
//! `execute_dag_jobs`' per-job service bytes; and the stepped `execute`'s
//! total and per-step bits (or its error).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test barrier_fast_path
//! ```

use electrical_sim::graph::{Link, Network, Router};
use optical_sim::{NodeId, StepSchedule, Transfer};
use std::fs;
use std::path::PathBuf;
use wrht_core::dag::DepSchedule;
use wrht_core::error::WrhtError;
use wrht_core::substrate::{ElectricalSubstrate, Substrate};
use wrht_core::tenancy::JobArbitration;

const LATENCIES: [f64; 3] = [0.0, 5e-7, 1e-6];
const OVERHEADS: [f64; 2] = [0.0, 5e-6];
const SEEDS: u64 = 10;

/// Link capacities, bytes/s: two within the solver's relative tie
/// tolerance of 1e9 and three far apart.
const CAPACITIES: [f64; 5] = [1e9, 1e9 * (1.0 + 4e-13), 2.5e9, 12.5e9, 125e6];

/// SplitMix64: a self-contained seeded generator, so the golden does not
/// depend on any other crate's random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Hosts, link count and router of the four topologies: star, ring,
/// 3 × 4 torus and a fat tree of 3 edges × 4 hosts over 2 spines.
fn shape(topo: usize) -> (&'static str, usize, usize, Router) {
    match topo {
        0 => ("star", 12, 24, Router::Star),
        1 => ("ring", 10, 20, Router::Ring),
        2 => ("torus", 12, 48, Router::Torus2D { rows: 3, cols: 4 }),
        _ => (
            "fat-tree",
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

/// The network of one case and the name of its odd link, if any: every
/// fifth seed is plain, the others have one latency an ulp up, one dark
/// link, one link so slow that finishes overflow, or a plain network
/// whose schedules send mostly zero bytes.
fn network(rng: &mut Rng, topo: usize, latency_s: f64, seed: u64) -> (Network, &'static str) {
    let (_, hosts, n_links, router) = shape(topo);
    let caps: Vec<f64> = (0..1 + rng.below(4))
        .map(|_| CAPACITIES[rng.below(CAPACITIES.len())])
        .collect();
    let mut links: Vec<Link> = (0..n_links)
        .map(|l| Link {
            capacity_bps: caps[l % caps.len()],
            latency_s,
        })
        .collect();
    let odd = rng.below(n_links);
    let label = match seed % 5 {
        1 => {
            links[odd].latency_s = links[odd].latency_s.next_up();
            "ulp"
        }
        2 => {
            links[odd].capacity_bps = 0.0;
            "dark"
        }
        3 => {
            links[odd].capacity_bps = 1e-303;
            "overflow"
        }
        4 => "zero-heavy",
        _ => "plain",
    };
    (Network::from_parts(hosts, links, router), label)
}

fn endpoints(rng: &mut Rng, hosts: usize) -> (usize, usize) {
    let src = rng.below(hosts);
    (src, (src + 1 + rng.below(hosts - 1)) % hosts)
}

/// A step schedule around one base routing list: repeats of it with fresh
/// bytes (the same routing list, so a placement can be reused), repeats
/// with zero bytes only, one-endpoint perturbations, fresh routing lists
/// and empty steps. About one schedule in eight names a host outside the
/// network in one transfer.
fn schedule(rng: &mut Rng, hosts: usize, zero_heavy: bool) -> StepSchedule {
    let zero_in = if zero_heavy { 2 } else { 8 };
    let bytes = |rng: &mut Rng| {
        if rng.below(zero_in) == 0 {
            0
        } else {
            1 + rng.next() % 3_000_000
        }
    };
    let width = 1 + rng.below(6);
    let base: Vec<(usize, usize)> = (0..width).map(|_| endpoints(rng, hosts)).collect();
    let len = 1 + rng.below(8);
    let mut steps: Vec<Vec<Transfer>> = Vec::with_capacity(len);
    for _ in 0..len {
        let mut pairs = base.clone();
        let mut zero = false;
        match rng.below(12) {
            0..=5 => {}
            6 => pairs.clear(),
            7 => zero = true,
            8 => {
                let k = rng.below(pairs.len());
                pairs[k].1 = (pairs[k].1 + 1) % hosts;
                if pairs[k].0 == pairs[k].1 {
                    pairs[k].1 = (pairs[k].1 + 1) % hosts;
                }
            }
            _ => {
                pairs = (0..1 + rng.below(6))
                    .map(|_| endpoints(rng, hosts))
                    .collect()
            }
        }
        let step = pairs
            .iter()
            .map(|&(s, d)| {
                let b = if zero { 0 } else { bytes(rng) };
                Transfer::shortest(NodeId(s), NodeId(d), b)
            })
            .collect();
        steps.push(step);
    }
    if rng.below(8) == 0 {
        let k = rng.below(len);
        if let Some(t) = steps[k].first_mut() {
            t.dst = NodeId(hosts + 1);
        }
    }
    StepSchedule::from_steps(steps)
}

fn error(e: &WrhtError) -> String {
    format!("{e:?}").replace('\\', "\\\\").replace('"', "\\\"")
}

fn f64_bits(values: &[f64]) -> String {
    let bits: Vec<String> = values
        .iter()
        .map(|v| format!("\"{:#018x}\"", v.to_bits()))
        .collect();
    format!("[{}]", bits.join(","))
}

/// One case: the DAG run, the multi-job run and the stepped run of one
/// seeded schedule. Returns the golden line and whether the DAG run
/// succeeded.
fn case_line(topo: usize, lat: usize, overhead: usize, seed: u64) -> (String, bool) {
    let (name, hosts, _, _) = shape(topo);
    let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d)
        ^ ((topo as u64) << 40)
        ^ ((lat as u64) << 32)
        ^ overhead as u64);
    let (net, odd) = network(&mut rng, topo, LATENCIES[lat], seed);
    let sched = schedule(&mut rng, hosts, odd == "zero-heavy");
    let dag = DepSchedule::from_steps(&sched);
    assert!(dag.is_barrier_shaped());
    let jobs = 1 + rng.below(3);
    let arb = JobArbitration {
        job_of: (0..dag.len()).map(|_| rng.below(jobs)).collect(),
        rank: (0..jobs).map(|_| rng.below(2) as u64).collect(),
        fair_share: rng.below(2) == 0,
    };
    let mut sub = ElectricalSubstrate::new(net, OVERHEADS[overhead]);
    let case = format!(
        "{name}/lat{lat}/{odd}/oh{overhead}/s{seed}/steps{}/transfers{}",
        sched.len(),
        dag.len()
    );

    let dag_run = sub.execute_dag(&dag);
    let (dag_part, ok) = match &dag_run {
        Ok(r) => {
            let times = digest(
                r.transfers
                    .iter()
                    .flat_map(|t| [t.start_s.to_bits(), t.finish_s.to_bits()]),
            );
            (
                format!(
                    "\"makespan\":\"{:#018x}\",\"times\":\"{times:#018x}\",\
                     \"rate_recomputations\":{},\"solver_work\":{},\"events\":{}",
                    r.makespan_s.to_bits(),
                    r.rate_recomputations,
                    r.solver_work,
                    r.events
                ),
                true,
            )
        }
        Err(e) => (format!("\"dag_error\":\"{}\"", error(e)), false),
    };

    let jobs_part = match sub.execute_dag_jobs(&dag, &arb) {
        Ok(run) => {
            assert_eq!(
                Some(&run.dag),
                dag_run.as_ref().ok(),
                "{case}: the multi-job run's windows differ from execute_dag's"
            );
            format!("\"service\":{}", f64_bits(&run.job_service_bytes))
        }
        Err(e) => format!("\"jobs_error\":\"{}\"", error(&e)),
    };

    let stepped_part = match sub.execute(&sched) {
        Ok(r) => {
            if let Ok(d) = &dag_run {
                assert_eq!(
                    d.makespan_s.to_bits(),
                    r.total_time_s.to_bits(),
                    "{case}: execute_dag and execute disagree"
                );
            }
            format!(
                "\"total\":\"{:#018x}\",\"per_step\":\"{:#018x}\"",
                r.total_time_s.to_bits(),
                digest(r.steps.iter().map(|s| s.duration_s.to_bits()))
            )
        }
        Err(e) => format!("\"execute_error\":\"{}\"", error(&e)),
    };

    (
        format!("{{\"case\":\"{case}\",{dag_part},{jobs_part},{stepped_part}}}"),
        ok,
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/barrier_fast_path.json")
}

#[test]
fn barrier_fast_path_matches_golden() {
    let mut lines = Vec::new();
    let mut succeeded = 0;
    for topo in 0..4 {
        for lat in 0..LATENCIES.len() {
            for overhead in 0..OVERHEADS.len() {
                for seed in 0..SEEDS {
                    let (line, ok) = case_line(topo, lat, overhead, seed);
                    succeeded += usize::from(ok);
                    lines.push(line);
                }
            }
        }
    }
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    // Every error kind the fast path can raise shows up, and most runs
    // succeed.
    for kind in ["HostOutOfRange", "StalledFlow", "unreachable flows"] {
        assert!(actual.contains(kind), "no case raised {kind}");
    }
    assert!(
        succeeded * 4 >= lines.len() * 3,
        "only {succeeded} of {} DAG runs succeeded",
        lines.len()
    );
    let path = golden_path();
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test barrier_fast_path`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of barrier_fast_path.json drifted");
    }
    assert_eq!(actual, expected, "barrier_fast_path.json drifted");
}
