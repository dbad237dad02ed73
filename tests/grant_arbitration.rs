//! Golden oracle for the optical grant engine: grant order and lane choice.
//!
//! Seeded closed runs ([`wrht_core::engine::run_closed`]) of a [`GrantEngine`] —
//! plain DAG order, arbitrated across jobs, and under faults — over rings
//! of 5 to 130 nodes with 1 to 130 wavelengths, on both sides of the
//! 64-lane word boundary. The
//! transfers take shortest and forced routes and stripe 1–4 lanes. Jobs
//! compete under rank tables with ties, with fair share on and off, under
//! First-Fit and Best-Fit. The faulted runs take a lane down and up again
//! under `Replan`.
//!
//! Each run is pinned as one line of `tests/golden/grant_arbitration.json`:
//! the makespan bits, a digest of every transfer's start and finish bits
//! (and, under faults, its aborts and completion), the event count, the
//! peak concurrency and the peak wavelength. A change in which waiter is
//! granted when, or on which lanes, shows as a diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test grant_arbitration
//! ```

use optical_sim::Transfer;
use optical_sim::{Direction, DirectionChoice, GrantEngine, NodeId, OpticalConfig, Strategy};
use std::fs;
use std::path::PathBuf;
use wrht_core::dag::{DepSchedule, DepTransfer};
use wrht_core::engine::run_closed;
use wrht_core::fault::{FaultKind, FaultPolicy, FaultScript, FaultTiming};
use wrht_core::tenancy::JobArbitration;

const RINGS: [usize; 4] = [5, 13, 70, 130];
const LANES: [usize; 5] = [1, 3, 64, 65, 130];
const SEEDS: u64 = 2;
const STRATEGIES: [Strategy; 2] = [Strategy::FirstFit, Strategy::BestFit];

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

fn config(n: usize, w: usize) -> OpticalConfig {
    OpticalConfig::new(n, w)
        .with_lambda_bandwidth(1e9)
        .with_message_overhead(1e-6)
        .with_hop_propagation(5e-9)
}

/// A random DAG on `n` nodes with lanes `1..=min(4, w)`. Payloads and
/// release times come from small sets, so many events land on one
/// bit-identical instant and the grant scan sees them as one batch. Odd
/// seeds are heavy: more transfers, released together, routed long,
/// so wide rings fill lanes past the first 64-bit word.
fn random_dag(rng: &mut Rng, n: usize, w: usize, heavy: bool) -> DepSchedule {
    let count = if heavy {
        120 + rng.below(40)
    } else {
        40 + rng.below(40)
    };
    let max_lanes = w.min(4);
    let transfers = (0..count)
        .map(|i| {
            let src = rng.below(n);
            let dst = (src + 1 + rng.below(n - 1)) % n;
            let direction = match rng.below(if heavy { 2 } else { 4 }) {
                0 => DirectionChoice::Forced(Direction::Clockwise),
                1 => DirectionChoice::Forced(Direction::CounterClockwise),
                _ => DirectionChoice::Shortest,
            };
            let bytes = [250_000, 500_000, 1_000_000][rng.below(3)] + 1_000 * rng.below(3) as u64;
            let transfer = Transfer {
                direction,
                ..Transfer::shortest(NodeId(src), NodeId(dst), bytes)
            }
            .with_lanes(1 + rng.below(max_lanes));
            let release_s = if heavy || rng.below(5) < 2 {
                0.0
            } else {
                1e-4 * rng.below(20) as f64
            };
            let mut deps = Vec::new();
            if i > 0 && rng.below(2) == 0 {
                for _ in 0..1 + rng.below(2) {
                    let d = rng.below(i);
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            DepTransfer {
                transfer,
                deps,
                release_s,
                stage: 0,
            }
        })
        .collect();
    DepSchedule::from_transfers(transfers).expect("generated DAG is topologically ordered")
}

/// One closed run of `dag` on a fresh grant engine of its own, under
/// `faults` (recovering by `Replan`) if given. Returns the idle engine,
/// for its statistics, and every transfer's outcome.
fn run(
    config: &OpticalConfig,
    strategy: Strategy,
    dag: &DepSchedule,
    arb: Option<&JobArbitration>,
    faults: Option<&FaultScript>,
) -> (GrantEngine, Vec<FaultTiming>) {
    let fair_share = arb.is_some_and(|a| a.fair_share);
    let mut eng =
        GrantEngine::new(config, strategy, arb.is_some(), fair_share).expect("valid ring");
    if let Some(script) = faults {
        eng.set_faults(script, FaultPolicy::Replan)
            .expect("valid script");
    }
    let mut outcomes = vec![FaultTiming::default(); dag.len()];
    run_closed(&mut eng, dag, arb, |c| outcomes[c.key] = c.into()).expect("lanes fit the ring");
    (eng, outcomes)
}

fn dag_line(case: &str, eng: &GrantEngine, outcomes: &[FaultTiming]) -> String {
    let times = digest(
        outcomes
            .iter()
            .flat_map(|o| [o.start_s.to_bits(), o.finish_s.to_bits()]),
    );
    format!(
        "{{\"case\":\"{case}\",\"makespan\":\"{:#018x}\",\"times\":\"{times:#018x}\",\
         \"events\":{},\"peak_concurrency\":{},\"peak_wavelength\":{}}}",
        eng.makespan().to_bits(),
        eng.events(),
        eng.peak_concurrency(),
        eng.peak_wavelength()
    )
}

fn fault_line(case: &str, eng: &GrantEngine, outcomes: &[FaultTiming]) -> String {
    let times = digest(outcomes.iter().flat_map(|o| {
        [
            o.start_s.to_bits(),
            o.finish_s.to_bits(),
            u64::from(o.aborts),
            u64::from(o.completed),
        ]
    }));
    format!(
        "{{\"case\":\"{case}\",\"makespan\":\"{:#018x}\",\"times\":\"{times:#018x}\",\
         \"events\":{},\"peak_concurrency\":{},\"peak_wavelength\":{},\"first_impact\":\"{:#018x}\"}}",
        eng.makespan().to_bits(),
        eng.events(),
        eng.peak_concurrency(),
        eng.peak_wavelength(),
        eng.first_impact_s().map_or(u64::MAX, f64::to_bits)
    )
}

/// The runs of one `(n, w, seed)` point: plain DAG order and four
/// arbitration tables (ranks with ties, and every job on one rank; fair
/// share on and off) under both heuristics, then two faulted runs.
fn point_lines(n: usize, w: usize, seed: u64, peak_max: &mut usize) -> Vec<String> {
    let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ ((n as u64) << 32) ^ w as u64);
    let dag = random_dag(&mut rng, n, w, seed % 2 == 1);
    let jobs = 2 + rng.below(3);
    let job_of: Vec<usize> = dag.transfers().iter().map(|_| rng.below(jobs)).collect();
    let tied: Vec<u64> = (0..jobs).map(|_| rng.below(2) as u64).collect();
    let arbs = [
        ("tied", tied.clone(), false),
        ("tied-fair", tied, true),
        ("flat", vec![0; jobs], false),
        ("flat-fair", vec![0; jobs], true),
    ]
    .map(|(label, rank, fair_share)| {
        (
            label,
            JobArbitration {
                job_of: job_of.clone(),
                rank,
                fair_share,
            },
        )
    });
    let config = config(n, w);
    let mut lines = Vec::new();
    let tag = format!("n{n}/w{w}/s{seed}");
    for strategy in STRATEGIES {
        let (eng, outcomes) = run(&config, strategy, &dag, None, None);
        *peak_max = (*peak_max).max(eng.peak_wavelength());
        lines.push(dag_line(&format!("{tag}/dag/{strategy}"), &eng, &outcomes));
        for (label, arb) in &arbs {
            let (eng, outcomes) = run(&config, strategy, &dag, Some(arb), None);
            *peak_max = (*peak_max).max(eng.peak_wavelength());
            lines.push(dag_line(
                &format!("{tag}/{label}/{strategy}"),
                &eng,
                &outcomes,
            ));
        }
    }
    // A lane goes down mid-run and is repaired later; its holders are
    // aborted and re-granted over the surviving lanes.
    let (clean, _) = run(&config, Strategy::FirstFit, &dag, None, None);
    let lane = rng.below(w);
    let script = FaultScript::new()
        .with(0.25 * clean.makespan(), FaultKind::WavelengthDown { lane })
        .with(0.6 * clean.makespan(), FaultKind::WavelengthUp { lane });
    for (label, arb) in [("dag", None), ("tied-fair", Some(&arbs[1].1))] {
        let (eng, outcomes) = run(&config, Strategy::FirstFit, &dag, arb, Some(&script));
        lines.push(fault_line(
            &format!("{tag}/fault-lane{lane}/{label}"),
            &eng,
            &outcomes,
        ));
    }
    lines
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/grant_arbitration.json")
}

#[test]
fn grant_order_and_lanes_match_golden() {
    let mut peak_max = 0;
    let mut lines = Vec::new();
    for n in RINGS {
        for w in LANES {
            for seed in 0..SEEDS {
                lines.extend(point_lines(n, w, seed, &mut peak_max));
            }
        }
    }
    assert!(
        peak_max > 64,
        "no run used a lane past the first 64-bit word (peak {peak_max})"
    );
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    let path = golden_path();
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test grant_arbitration`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of grant_arbitration.json drifted");
    }
    assert_eq!(actual, expected, "grant_arbitration.json drifted");
}
