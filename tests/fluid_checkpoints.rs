//! Golden oracle for the fluid engine's checkpoint images.
//!
//! A paused electrical stream carries its `FluidEngine` image
//! (`FluidEngine::snapshot`) in its checkpoint, and resuming from it must
//! report exactly what the uninterrupted stream reports. This suite pins
//! the checkpoint JSON itself, byte for byte, and the resumed reports:
//!
//! * **streams** — Poisson streams of three templates (a barrier ring
//!   all-reduce, a pipelined halving-doubling DAG and two chained buckets,
//!   all with in-batch dependencies) on a star, a ring and a fat tree,
//!   under `Immediate` admission with FIFO and under `QueueDepth` with
//!   priority, each paused at five arrival counts;
//! * **cross-batch dependencies** — seeded DAGs injected straight into a
//!   `FluidEngine` one stage per batch, every stage depending on the one
//!   before (and on earlier flows of its own stage), snapshotted after a
//!   few steps on the same three networks.
//!
//! Each case is one line of `tests/golden/fluid_checkpoints.json`: the
//! length and FNV-1a digest of the checkpoint JSON, and a digest of the
//! resumed run's report (streams) or outcomes and counters (engines). Every
//! resumed run must also equal the uninterrupted one.
//!
//! To regenerate after an intentional change to the checkpoint format:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test fluid_checkpoints
//! ```

use collectives::halving_doubling::halving_doubling;
use collectives::ring::ring_allreduce;
use electrical_sim::topology::{fat_tree_two_level, ring, star_cluster};
use electrical_sim::{EngineFlow, FluidEngine, FluidEngineSnapshot, Network};
use std::fs;
use std::path::PathBuf;
use wrht_bench::report::to_json;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::stream::{Admission, ArrivalProcess, StreamCheckpoint, StreamSpec, StreamTemplate};
use wrht_core::substrate::{ElectricalSubstrate, Substrate};
use wrht_core::tenancy::{JobWorkload, SchedPolicy};

const HOSTS: usize = 8;
const PAUSES: [u64; 5] = [1, 2, 4, 7, 9];
const STEP_PAUSES: [usize; 4] = [1, 3, 8, 20];
const SEEDS: u64 = 4;

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

/// The three networks, each of [`HOSTS`] hosts: a star, a ring (shared
/// multi-hop links) and a two-edge fat tree (four-link cross-edge routes).
fn networks() -> [(&'static str, Network); 3] {
    [
        ("star", star_cluster(HOSTS, 1e9, 500e-9)),
        ("ring", ring(HOSTS, 1e9, 200e-9)),
        ("fat-tree", fat_tree_two_level(2, HOSTS / 2, 2, 1e9, 300e-9)),
    ]
}

fn spec(admission: Admission, policy: SchedPolicy) -> StreamSpec {
    let ring_steps = lower_collective_to_optical(&ring_allreduce(HOSTS, 6_000), 4, 1);
    let hd_steps = lower_collective_to_optical(&halving_doubling(HOSTS, 9_000), 4, 1);
    StreamSpec::new(
        ArrivalProcess::Poisson {
            rate_hz: 20_000.0,
            count: 10,
            seed: 2023,
        },
        policy,
    )
    .with_template(
        StreamTemplate::new("ring", JobWorkload::Steps(ring_steps.clone())).with_priority(2),
    )
    .with_template(StreamTemplate::new(
        "hd-pipelined",
        JobWorkload::Dag(DepSchedule::pipelined_from_steps(&hd_steps)),
    ))
    .with_template(
        StreamTemplate::new(
            "buckets",
            JobWorkload::Buckets(vec![(0.0, hd_steps), (20e-6, ring_steps)]),
        )
        .with_priority(3),
    )
    .with_admission(admission)
    .with_window(50e-6)
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
    ];
    for (net_name, net) in networks() {
        for (mode, admission, policy) in modes {
            let spec = spec(admission, policy);
            let mut sub = ElectricalSubstrate::new(net.clone(), 1e-6);
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
                assert_eq!(resumed, full, "{net_name}/{mode}/{pause}: resumed report");
                out.push_str(&format!(
                    "{{\"case\":\"stream/{net_name}/{mode}/pause={pause}\",\
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

/// Seeded stages of flows on `net`: each flow depends on up to two flows
/// of the previous stage and, sometimes, on an earlier flow of its own
/// stage. Some flows are zero-byte gates, some carry a launch delay or a
/// release, and the flows belong to two jobs.
fn staged_flows(net: &Network, seed: u64) -> Vec<Vec<EngineFlow>> {
    let mut rng = Rng(seed);
    let hosts = net.hosts();
    let (stages, width) = (6, 5);
    let mut out: Vec<Vec<EngineFlow>> = Vec::new();
    for s in 0..stages {
        let first = s * width;
        let mut stage = Vec::new();
        for i in 0..width {
            let src = rng.below(hosts);
            let dst = (src + 1 + rng.below(hosts - 1)) % hosts;
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
            stage.push(EngineFlow {
                src,
                dst,
                bytes: if rng.below(6) == 0 {
                    0
                } else {
                    1_000 * (1 + rng.below(400)) as u64
                },
                release_s: if rng.below(4) == 0 { 30e-6 } else { 0.0 },
                delay_s: if rng.below(2) == 0 { 1e-6 } else { 0.0 },
                deps,
                job: rng.below(2),
            });
        }
        out.push(stage);
    }
    out
}

/// A fresh engine on `net` with every stage injected as its own batch.
fn injected<'n>(net: &'n Network, stages: &[Vec<EngineFlow>]) -> FluidEngine<'n> {
    let mut eng = FluidEngine::new(net);
    for stage in stages {
        eng.inject(stage).expect("stage injects");
    }
    eng
}

/// Outcomes in drain order, then events and solver counters.
fn run_out(eng: &mut FluidEngine<'_>) -> Vec<u64> {
    while eng.step().expect("engine step").is_some() {}
    let mut out: Vec<u64> = eng
        .drain_completions()
        .flat_map(|c| {
            [
                c.index as u64,
                c.job as u64,
                c.start_s.to_bits(),
                c.finish_s.to_bits(),
            ]
        })
        .collect();
    out.extend([
        eng.events(),
        eng.rate_recomputations() as u64,
        eng.solver_work() as u64,
    ]);
    out
}

/// One line per engine pause: the snapshot JSON and the resumed outcomes.
fn engine_lines(out: &mut String) {
    for (net_name, net) in networks() {
        for seed in 0..SEEDS {
            let stages = staged_flows(&net, seed);
            let mut whole = injected(&net, &stages);
            let expected = run_out(&mut whole);
            for pause in STEP_PAUSES {
                let mut eng = injected(&net, &stages);
                for _ in 0..pause {
                    if eng.step().expect("engine step").is_none() {
                        break;
                    }
                }
                let json = serde_json::to_string(&eng.snapshot()).expect("snapshot serializes");
                let snap: FluidEngineSnapshot =
                    serde_json::from_str(&json).expect("snapshot deserializes");
                let mut resumed = FluidEngine::restore(&net, &snap).expect("snapshot restores");
                let got = run_out(&mut resumed);
                assert_eq!(got, expected, "{net_name}/seed={seed}/steps={pause}");
                out.push_str(&format!(
                    "{{\"case\":\"engine/{net_name}/seed={seed}/steps={pause}\",\
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fluid_checkpoints.json")
}

#[test]
fn fluid_checkpoints_match_golden() {
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
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test fluid_checkpoints`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of fluid_checkpoints.json drifted");
    }
    assert_eq!(actual, expected, "fluid_checkpoints.json drifted");
}
