//! Differential testing of the open-loop stream engine.
//!
//! Pins the tentpole contracts of `Substrate::execute_stream`:
//!
//! * **closed-set equivalence** — a `Trace` stream whose arrivals are all
//!   pre-known reproduces the closed [`Substrate::execute_jobs`] run
//!   **bit-exactly** on BOTH substrates, for every [`SchedPolicy`], random
//!   collective schedules and random physics (the "one execution engine"
//!   guarantee: the closed path is just a pre-scheduled stream);
//! * **checkpoint transparency** — pausing at an arbitrary arrival count,
//!   round-tripping the [`StreamCheckpoint`] through JSON and resuming
//!   yields a report byte-identical to the uninterrupted run;
//! * **campaign determinism** — the `StreamSweep` axis serializes
//!   byte-identically across worker thread counts and resumes from a
//!   partially populated `scell-*` sink.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use electrical_sim::topology::star_cluster;
use optical_sim::OpticalConfig;
use proptest::prelude::*;
use wrht_bench::campaign::{run_campaign, serve_spec};
use wrht_bench::report::to_json;
use wrht_bench::ExperimentConfig;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::stream::{
    ArrivalProcess, StreamCheckpoint, StreamSpec, StreamTemplate, STREAM_CHECKPOINT_VERSION,
};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{Job, JobWorkload, SchedPolicy, TenancySpec};

const BYTES_PER_ELEM: usize = 4;

type Builder = fn(usize, usize) -> Schedule;

const ALGORITHMS: [(&str, Builder); 3] = [
    ("ring", ring_allreduce as Builder),
    ("hd", halving_doubling as Builder),
    ("rd", recursive_doubling as Builder),
];

fn substrate_pair(
    n: usize,
    bandwidth_bps: f64,
    overhead_s: f64,
) -> (OpticalSubstrate, ElectricalSubstrate) {
    let optical = OpticalSubstrate::new(
        OpticalConfig::new(n, n.max(2))
            .with_lambda_bandwidth(bandwidth_bps)
            .with_message_overhead(overhead_s)
            .with_hop_propagation(0.0),
    )
    .expect("valid optical config");
    let electrical = ElectricalSubstrate::new(star_cluster(n, bandwidth_bps, 0.0), overhead_s);
    (optical, electrical)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Closed-set equivalence: a `Trace` stream with pre-known arrivals is
    /// bit-exact with `execute_jobs` for every policy on both substrates,
    /// for random collectives, job counts, arrival gaps and physics.
    #[test]
    fn pre_known_trace_stream_matches_execute_jobs_bit_exactly(
        n in 2usize..12,
        elems in 1usize..10_000,
        jobs in 1usize..6,
        gap_us in 0u32..2_000,
        alg_idx in 0usize..3,
        bw_idx in 0usize..2,
        ov_idx in 0usize..2,
    ) {
        let bandwidth = [1e9, 2.5e9][bw_idx];
        let overhead = [0.0, 1e-6][ov_idx];
        let (name, build) = ALGORITHMS[alg_idx];
        let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
        let arrivals: Vec<f64> = (0..jobs)
            .map(|j| j as f64 * f64::from(gap_us) * 1e-6)
            .collect();
        // Distinct priorities so Priority/FairShare order differently from Fifo.
        let priorities = [3u32, 1, 4, 1, 5, 9];

        for policy in SchedPolicy::ALL {
            let mut closed = TenancySpec::new(policy);
            for (j, &a) in arrivals.iter().enumerate() {
                closed = closed.with_job(
                    Job::steps(format!("j{j}"), a, sched.clone()).with_priority(priorities[j]),
                );
            }
            // One template per closed job: arrival j instantiates template
            // j % templates, so the stream replays the identical job set.
            let mut stream = StreamSpec::new(
                ArrivalProcess::Trace { arrivals_s: arrivals.clone() },
                policy,
            )
            .with_retained_jobs(true);
            for (j, &p) in priorities.iter().enumerate().take(jobs) {
                stream = stream.with_template(
                    StreamTemplate::new(format!("j{j}"), JobWorkload::Steps(sched.clone()))
                        .with_priority(p),
                );
            }

            let (mut optical, mut electrical) = substrate_pair(n, bandwidth, overhead);
            let subs: [&mut dyn Substrate; 2] = [&mut optical, &mut electrical];
            for sub in subs {
                let c = sub.execute_jobs(&closed).expect("closed run");
                let s = sub.execute_stream(&stream).expect("stream run");
                let tag = format!("{name} n={n} {policy:?} on {}", c.substrate);
                // The closed electrical path keeps a stepped fast path for
                // barrier-shaped DAGs whose event accounting is coarser
                // than the event engine's (timing stays bit-exact). Only
                // compare kernel event counts when both sides ran the
                // shared engine: always on optical, and on electrical
                // whenever the fast path was skipped (it reports
                // `peak_rate_bps == 0` for every job).
                let closed_used_engine = c.substrate == "optical"
                    || c.jobs.iter().any(|j| j.peak_rate_bps > 0.0);
                if closed_used_engine {
                    prop_assert_eq!(s.events, c.events, "{}: events", tag);
                }
                prop_assert_eq!(
                    s.makespan_s.to_bits(),
                    c.makespan_s.to_bits(),
                    "{}: makespan",
                    tag
                );
                prop_assert_eq!(s.completed as usize, c.jobs.len(), "{}: completed", tag);
                let mut by_idx = s.jobs.clone();
                by_idx.sort_by_key(|j| j.job);
                for (sj, cj) in by_idx.iter().zip(&c.jobs) {
                    prop_assert_eq!(sj.start_s.to_bits(), cj.start_s.to_bits(), "{}: start", tag);
                    prop_assert_eq!(sj.finish_s.to_bits(), cj.finish_s.to_bits(), "{}: finish", tag);
                    prop_assert_eq!(
                        sj.makespan_s.to_bits(),
                        cj.makespan_s.to_bits(),
                        "{}: job makespan",
                        tag
                    );
                    prop_assert_eq!(
                        sj.slowdown.to_bits(),
                        cj.slowdown.to_bits(),
                        "{}: slowdown",
                        tag
                    );
                }
            }
        }
    }

    /// Checkpoint transparency: pause a Poisson stream at a random arrival
    /// count, round-trip the snapshot through JSON, resume, and require the
    /// final report byte-identical to the uninterrupted run — on both
    /// substrates.
    #[test]
    fn checkpoint_resume_at_a_random_instant_is_byte_identical(
        n in 2usize..8,
        elems in 1usize..4_000,
        pause in 1u64..8,
        seed in 0u64..1_000,
        alg_idx in 0usize..3,
    ) {
        let (_, build) = ALGORITHMS[alg_idx];
        let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
        let spec = StreamSpec::new(
            ArrivalProcess::Poisson { rate_hz: 5_000.0, count: 8, seed },
            SchedPolicy::Fifo,
        )
        .with_template(StreamTemplate::new("t", JobWorkload::Steps(sched)))
        .with_window(1e-3)
        .with_retained_jobs(true);

        let (mut optical, mut electrical) = substrate_pair(n, 1e9, 1e-6);
        let subs: [&mut dyn Substrate; 2] = [&mut optical, &mut electrical];
        for sub in subs {
            let full = sub.execute_stream(&spec).expect("uninterrupted run");
            let ck = sub
                .execute_stream_until(&spec, Some(pause))
                .expect("paused run")
                .checkpoint()
                .expect("pause < count must yield a checkpoint");
            prop_assert_eq!(ck.version, STREAM_CHECKPOINT_VERSION);
            prop_assert_eq!(ck.arrivals_seen, pause);
            let json = serde_json::to_string(&ck).expect("checkpoint serializes");
            let back: StreamCheckpoint =
                serde_json::from_str(&json).expect("checkpoint deserializes");
            prop_assert_eq!(&back, &ck, "checkpoint must survive a JSON round-trip");
            let resumed = sub
                .resume_stream(&spec, &back, None)
                .expect("resumed run")
                .report()
                .expect("resume to completion");
            prop_assert_eq!(
                to_json(&resumed),
                to_json(&full),
                "resumed report must be byte-identical on {}",
                full.substrate
            );
        }
    }
}

/// The stream campaign serializes byte-identically across thread counts
/// and resumes from a partially populated `scell-*` sink.
#[test]
fn stream_campaign_is_thread_count_invariant_and_resumable() {
    let cfg = ExperimentConfig {
        scales: vec![8],
        ..ExperimentConfig::default()
    };
    let mut spec = serve_spec(&cfg, &dnn_models::paper_models(), 8, 41);
    // Trim to a fast but representative subset: the overload rate, every
    // policy and admission rule, both substrates.
    spec.cells.retain(|c| c.rate_hz > 100.0);
    for c in &mut spec.cells {
        c.arrivals = 4;
    }
    let serial = run_campaign(&spec, 1, None);
    let parallel = run_campaign(&spec, 8, None);
    assert_eq!(to_json(&serial), to_json(&parallel));

    let dir = std::env::temp_dir().join(format!("wrht-stream-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = run_campaign(&spec, 4, Some(&dir));
    let resumed = run_campaign(&spec, 2, Some(&dir));
    assert_eq!(to_json(&first), to_json(&resumed));
    assert_eq!(to_json(&first), to_json(&serial));
    let _ = std::fs::remove_dir_all(&dir);
}
