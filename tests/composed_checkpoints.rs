//! Golden oracle for the composed engine's checkpoint images.
//!
//! A paused stream on a multi-group composed substrate carries the
//! composed engine's image in its checkpoint: every member engine's own
//! image and key map, and the per-key state, every key's dependents in one
//! flat table. Resuming from it must report exactly what the uninterrupted
//! stream reports. This suite pins the checkpoint JSON itself, byte for
//! byte, and the resumed reports: Poisson streams of three templates (a
//! barrier ring all-reduce, a pipelined halving-doubling DAG and a barrier
//! halving-doubling, all crossing groups) on two groups of four hosts, on
//! both fabric orders (optical rings inside the groups and an electrical
//! star between them, and electrical stars inside the groups and an
//! optical ring between them), under `Immediate` admission with FIFO,
//! `QueueDepth` with priority and `Immediate` with fair share, each paused
//! at five arrival counts.
//!
//! Each case is one line of `tests/golden/composed_checkpoints.json`: the
//! length and FNV-1a digest of the checkpoint JSON, and a digest of the
//! resumed run's report.
//!
//! To regenerate after an intentional change to the checkpoint format:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test composed_checkpoints
//! ```

use collectives::halving_doubling::halving_doubling;
use collectives::ring::ring_allreduce;
use electrical_sim::topology::star_cluster;
use optical_sim::OpticalConfig;
use std::fs;
use std::path::PathBuf;
use wrht_bench::report::to_json;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::DepSchedule;
use wrht_core::hierarchy::{compose, HierSpec};
use wrht_core::stream::{Admission, ArrivalProcess, StreamCheckpoint, StreamSpec, StreamTemplate};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{JobWorkload, SchedPolicy};

const GROUPS: usize = 2;
const GROUP_SIZE: usize = 4;
const HOSTS: usize = GROUPS * GROUP_SIZE;
const PAUSES: [u64; 5] = [1, 2, 4, 7, 9];

/// FNV-1a over bytes.
fn digest(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn optical(n: usize) -> Box<dyn Substrate> {
    let config = OpticalConfig::new(n, 2)
        .with_lambda_bandwidth(1e9)
        .with_message_overhead(1e-6)
        .with_hop_propagation(5e-9);
    Box::new(OpticalSubstrate::new(config).expect("valid optical config"))
}

fn electrical(n: usize) -> Box<dyn Substrate> {
    Box::new(ElectricalSubstrate::new(star_cluster(n, 1e9, 500e-9), 1e-6))
}

/// The two fabric orders over [`GROUPS`] groups of [`GROUP_SIZE`] hosts.
fn substrates() -> [(&'static str, Box<dyn Substrate>); 2] {
    let spec = HierSpec::new(GROUPS, GROUP_SIZE).expect("valid hierarchy");
    [
        (
            "optical+electrical",
            compose(spec, optical(GROUP_SIZE), electrical(HOSTS)).expect("composed"),
        ),
        (
            "electrical+optical",
            compose(spec, electrical(GROUP_SIZE), optical(HOSTS)).expect("composed"),
        ),
    ]
}

fn spec(admission: Admission, policy: SchedPolicy) -> StreamSpec {
    let ring_steps = lower_collective_to_optical(&ring_allreduce(HOSTS, 6_000), 2, 1);
    let hd_steps = lower_collective_to_optical(&halving_doubling(HOSTS, 9_000), 2, 1);
    StreamSpec::new(
        ArrivalProcess::Poisson {
            rate_hz: 50_000.0,
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
    .with_template(StreamTemplate::new("hd", JobWorkload::Steps(hd_steps)).with_priority(3))
    .with_admission(admission)
    .with_window(20e-6)
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
    for (order, mut sub) in substrates() {
        for (mode, admission, policy) in modes {
            let spec = spec(admission, policy);
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
                assert_eq!(resumed, full, "{order}/{mode}/{pause}: resumed report");
                out.push_str(&format!(
                    "{{\"case\":\"stream/{order}/{mode}/pause={pause}\",\
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/composed_checkpoints.json")
}

#[test]
fn composed_checkpoints_match_golden() {
    let mut actual = String::new();
    stream_lines(&mut actual);
    let path = golden_path();
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test composed_checkpoints`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of composed_checkpoints.json drifted");
    }
    assert_eq!(actual, expected, "composed_checkpoints.json drifted");
}
