//! Golden oracle for the optical grant engine's checkpoint images.
//!
//! A paused optical stream carries its `GrantEngine` image
//! (`GrantEngine::snapshot`) in its checkpoint, and resuming from it must
//! report exactly what the uninterrupted stream reports. This suite pins
//! the checkpoint JSON itself, byte for byte, and the resumed reports:
//!
//! * **streams** — Poisson streams of three templates (a barrier ring
//!   all-reduce, a pipelined halving-doubling DAG and a barrier
//!   halving-doubling striped over two lanes) on two rings (First Fit over
//!   four wavelengths, Best Fit over three), under `Immediate` admission
//!   with FIFO, `QueueDepth` with priority and `Immediate` with fair
//!   share, each paused at five arrival counts;
//! * **cross-batch dependencies** — seeded DAGs injected straight into a
//!   `GrantEngine` one stage per batch, every stage depending on the one
//!   before (and on earlier transfers of its own stage), with shortest and
//!   forced routes, tags, one or two lanes, releases and two jobs,
//!   unarbitrated, ranked and fair-share. The stages go in all at once, or
//!   as the closed driver injects them (a stage only once the engine could
//!   settle a transfer of the stage before), so completed slots are reused.
//!   Each is snapshotted after a few steps.
//!
//! Each case is one line of `tests/golden/grant_checkpoints.json`: the
//! length and FNV-1a digest of the checkpoint JSON, and a digest of the
//! resumed run's report (streams) or outcomes and counters (engines). Every
//! resumed run must also equal the uninterrupted one.
//!
//! To regenerate after an intentional change to the checkpoint format:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test grant_checkpoints
//! ```

use collectives::halving_doubling::halving_doubling;
use collectives::ring::ring_allreduce;
use optical_sim::request::DirectionChoice;
use optical_sim::topology::{Direction, NodeId};
use optical_sim::{
    GrantEngine, GrantEngineSnapshot, GrantTransfer, OpticalConfig, Strategy, Transfer,
};
use std::fs;
use std::path::PathBuf;
use wrht_bench::report::to_json;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::stream::{Admission, ArrivalProcess, StreamCheckpoint, StreamSpec, StreamTemplate};
use wrht_core::substrate::{OpticalSubstrate, Substrate};
use wrht_core::tenancy::{JobWorkload, SchedPolicy};

const NODES: usize = 8;
const PAUSES: [u64; 5] = [1, 2, 4, 7, 9];
const STEP_PAUSES: [usize; 4] = [1, 3, 8, 20];
const SEEDS: u64 = 3;

/// FNV-1a over bytes.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

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

/// The two rings of [`NODES`] nodes: First Fit over four wavelengths, and
/// Best Fit over three (more contention, and the densest-lane order).
fn rings() -> [(&'static str, OpticalConfig, Strategy); 2] {
    [
        (
            "w4-first-fit",
            OpticalConfig::new(NODES, 4),
            Strategy::FirstFit,
        ),
        (
            "w3-best-fit",
            OpticalConfig::new(NODES, 3),
            Strategy::BestFit,
        ),
    ]
}

fn spec(admission: Admission, policy: SchedPolicy) -> StreamSpec {
    let ring_steps = lower_collective_to_optical(&ring_allreduce(NODES, 6_000), 4, 1);
    let hd_steps = lower_collective_to_optical(&halving_doubling(NODES, 9_000), 4, 1);
    let striped = lower_collective_to_optical(&halving_doubling(NODES, 12_000), 4, 2);
    StreamSpec::new(
        ArrivalProcess::Poisson {
            rate_hz: 200_000.0,
            count: 10,
            seed: 2023,
        },
        policy,
    )
    .with_template(StreamTemplate::new("ring", JobWorkload::Steps(ring_steps)).with_priority(2))
    .with_template(StreamTemplate::new(
        "hd-pipelined",
        JobWorkload::Dag(DepSchedule::pipelined_from_steps(&hd_steps)),
    ))
    .with_template(StreamTemplate::new("hd-striped", JobWorkload::Steps(striped)).with_priority(3))
    .with_admission(admission)
    .with_window(5e-6)
    .with_retained_jobs(true)
}

/// One line per stream pause: the checkpoint JSON and the resumed report.
fn stream_lines(out: &mut String) {
    let modes = [
        ("immediate", Admission::Immediate, SchedPolicy::Fifo),
        (
            "queue2",
            Admission::QueueDepth { limit: 2 },
            SchedPolicy::Priority,
        ),
        ("fair", Admission::Immediate, SchedPolicy::FairShare),
    ];
    for (ring_name, config, strategy) in rings() {
        for (mode, admission, policy) in modes {
            let spec = spec(admission, policy);
            let mut sub =
                OpticalSubstrate::with_strategy(config.clone(), strategy).expect("valid ring");
            let full = to_json(&sub.execute_stream(&spec).expect("uninterrupted stream"));
            for pause in PAUSES {
                let ck = sub
                    .execute_stream_until(&spec, Some(pause))
                    .expect("paused stream")
                    .checkpoint()
                    .expect("a pause before the last arrival checkpoints");
                let json = serde_json::to_string(&ck).expect("checkpoint serializes");
                let back: StreamCheckpoint =
                    serde_json::from_str(&json).expect("checkpoint deserializes");
                let resumed = sub
                    .resume_stream(&spec, &back, None)
                    .expect("resumed stream")
                    .report()
                    .expect("resume to completion");
                let resumed = to_json(&resumed);
                assert_eq!(resumed, full, "{ring_name}/{mode}/{pause}: resumed report");
                out.push_str(&format!(
                    "{{\"case\":\"stream/{ring_name}/{mode}/pause={pause}\",\
                     \"checkpoint_len\":{},\"checkpoint_digest\":\"{:016x}\",\
                     \"resumed_digest\":\"{:016x}\"}}\n",
                    json.len(),
                    digest(json.bytes()),
                    digest(resumed.bytes())
                ));
            }
        }
    }
}

/// Seeded stages of transfers: each depends on one or two transfers of
/// the previous stage and, sometimes, on an earlier transfer of its own
/// stage. Routes are shortest or forced either way, some transfers stripe
/// over two lanes, carry a tag or a release, and they belong to two jobs.
fn staged_transfers(seed: u64) -> Vec<Vec<GrantTransfer>> {
    let mut rng = Rng(seed);
    let (stages, width) = (6, 5);
    let mut out: Vec<Vec<GrantTransfer>> = Vec::new();
    for s in 0..stages {
        let first = s * width;
        let mut stage = Vec::new();
        for i in 0..width {
            let src = rng.below(NODES);
            let dst = (src + 1 + rng.below(NODES - 1)) % NODES;
            let mut deps = Vec::new();
            if s > 0 {
                for _ in 0..1 + rng.below(2) {
                    let d = first - width + rng.below(width);
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            if i > 0 && rng.below(3) == 0 {
                deps.push(first + rng.below(i));
            }
            deps.sort_unstable();
            let bytes = 1_000 * (1 + rng.below(40)) as u64;
            let mut transfer = Transfer::shortest(NodeId(src), NodeId(dst), bytes)
                .with_lanes(1 + rng.below(2))
                .with_tag(rng.below(4) as u32);
            transfer.direction = match rng.below(3) {
                0 => DirectionChoice::Shortest,
                1 => DirectionChoice::Forced(Direction::Clockwise),
                _ => DirectionChoice::Forced(Direction::CounterClockwise),
            };
            stage.push(GrantTransfer {
                transfer,
                release_s: if rng.below(4) == 0 { 3e-6 } else { 0.0 },
                deps,
                job: rng.below(2),
            });
        }
        out.push(stage);
    }
    out
}

/// The engine arbitration of each engine case: `(name, arbitrated, fair
/// share)`.
const ARBITRATION: [(&str, bool, bool); 3] = [
    ("plain", false, false),
    ("ranked", true, false),
    ("fair", true, true),
];

/// A fresh engine with two jobs registered (rank 1, then rank 0).
fn fresh(config: &OpticalConfig, strategy: Strategy, arbitrated: bool, fair: bool) -> GrantEngine {
    let mut eng = GrantEngine::new(config, strategy, arbitrated, fair).expect("valid ring");
    assert_eq!((eng.add_job(1), eng.add_job(0)), (0, 1));
    eng
}

/// The number of steps taken before each stage goes in: none (every
/// stage before the first step), or as the closed driver injects them, a
/// stage once the engine could settle a transfer of the stage before it,
/// or went idle.
fn injection_steps(
    stages: &[Vec<GrantTransfer>],
    staged: bool,
    mut eng: GrantEngine,
) -> Vec<usize> {
    if !staged {
        return vec![0; stages.len()];
    }
    let mut at: Vec<usize> = Vec::new();
    let (mut steps, mut idle) = (0, true);
    loop {
        while let Some(stage) = stages.get(at.len()) {
            let prev = at.len().checked_sub(1);
            let horizon = prev.map(|p| (p * stages[p].len()) as u64);
            if !idle && horizon.is_some_and(|h| h >= eng.frontier()) {
                break;
            }
            eng.inject(stage).expect("stage injects");
            at.push(steps);
            idle = false;
        }
        if idle {
            return at;
        }
        idle = eng.step().expect("engine step").is_none();
        steps += 1;
    }
}

/// Step `eng` from step `from` on, injecting each stage before the step
/// `at` names, until `until` steps were taken or the run is over; returns
/// the steps taken.
fn drive(
    eng: &mut GrantEngine,
    stages: &[Vec<GrantTransfer>],
    at: &[usize],
    from: usize,
    until: Option<usize>,
) -> usize {
    let mut t = from;
    loop {
        if until == Some(t) {
            return t;
        }
        for (stage, _) in stages.iter().zip(at).filter(|&(_, &k)| k == t) {
            eng.inject(stage).expect("stage injects");
        }
        let idle = eng.step().expect("engine step").is_none();
        t += 1;
        if idle && at.iter().all(|&k| k < t) {
            return t;
        }
    }
}

/// Outcomes in drain order, then the engine's counters, after stepping
/// `eng` to the end from step `from`.
fn run_out(
    eng: &mut GrantEngine,
    stages: &[Vec<GrantTransfer>],
    at: &[usize],
    from: usize,
) -> Vec<u64> {
    drive(eng, stages, at, from, None);
    let mut out: Vec<u64> = eng
        .drain_completions()
        .flat_map(|c| {
            [
                c.order,
                c.job as u64,
                c.start_s.to_bits(),
                c.finish_s.to_bits(),
                u64::from(c.aborts),
                u64::from(c.failed),
            ]
        })
        .collect();
    out.extend([
        eng.events(),
        eng.makespan().to_bits(),
        eng.peak_concurrency() as u64,
        eng.peak_wavelength() as u64,
        eng.peak_slots() as u64,
    ]);
    out
}

/// One line per engine pause: the snapshot JSON and the resumed outcomes.
fn engine_lines(out: &mut String) {
    for (ring_name, config, strategy) in rings() {
        for (arb_name, arbitrated, fair) in ARBITRATION {
            for (inject, staged) in [("upfront", false), ("staged", true)] {
                for seed in 0..SEEDS {
                    let stages = staged_transfers(seed);
                    let new_engine = || fresh(&config, strategy, arbitrated, fair);
                    let at = injection_steps(&stages, staged, new_engine());
                    let expected = run_out(&mut new_engine(), &stages, &at, 0);
                    for pause in STEP_PAUSES {
                        let mut eng = new_engine();
                        let taken = drive(&mut eng, &stages, &at, 0, Some(pause));
                        let json =
                            serde_json::to_string(&eng.snapshot()).expect("snapshot serializes");
                        let snap: GrantEngineSnapshot =
                            serde_json::from_str(&json).expect("snapshot deserializes");
                        let mut resumed =
                            GrantEngine::restore(&config, strategy, arbitrated, fair, &snap)
                                .expect("snapshot restores");
                        let got = run_out(&mut resumed, &stages, &at, taken);
                        let case = format!("{ring_name}/{arb_name}/{inject}/seed={seed}");
                        assert_eq!(got, expected, "{case}/steps={pause}");
                        out.push_str(&format!(
                            "{{\"case\":\"engine/{case}/steps={pause}\",\
                             \"checkpoint_len\":{},\"checkpoint_digest\":\"{:016x}\",\
                             \"resumed_digest\":\"{:016x}\"}}\n",
                            json.len(),
                            digest(json.bytes()),
                            digest(got.iter().flat_map(|w| w.to_le_bytes()))
                        ));
                    }
                }
            }
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/grant_checkpoints.json")
}

#[test]
fn grant_checkpoints_match_golden() {
    let mut actual = String::new();
    stream_lines(&mut actual);
    engine_lines(&mut actual);
    let path = golden_path();
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test grant_checkpoints`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of grant_checkpoints.json drifted");
    }
    assert_eq!(actual, expected, "grant_checkpoints.json drifted");
}
