//! Differential testing of the composed hierarchical substrate.
//!
//! Pins the contracts of the composed substrates
//! [`wrht_core::hierarchy::compose`] builds:
//!
//! * a **single-group** hierarchy collapses to the flat runs
//!   **bit-exactly**, on BOTH substrate orders (optical-intra /
//!   electrical-inter and the reverse), for random collective DAGs and
//!   random physics — the composed layer must be a pure refactor when
//!   there is nothing to compose;
//! * on **multi-group** hierarchies with random mixed-domain DAGs, the
//!   cross-fabric co-simulation never deadlocks: every run completes, and
//!   every transfer starts only after its release time and after every
//!   dependency — including dependencies that live on the *other*
//!   fabric — has finished;
//! * the composed makespan is never below the **per-fabric critical
//!   path**: the longest dependency chain priced with each transfer's
//!   *uncontended, isolated* duration on its own fabric (contention and
//!   cross-fabric stitching can only add time);
//! * composed execution is deterministic: same DAG, bit-identical reports;
//! * a **single-group** hierarchy streams exactly as the flat substrate:
//!   the stream report, the checkpoint of a paused stream and the resumed
//!   run's report serialize byte for byte alike, label included, on both
//!   substrate orders;
//! * a **multi-group** hierarchy streams on its composed engine, on both
//!   substrate orders: a one-arrival stream reports the closed
//!   `execute_jobs` makespan and event count bit for bit, a stream paused
//!   at a random arrival and resumed from its checkpoint (round-tripped
//!   through JSON) reports byte for byte what the uninterrupted stream
//!   reports, and a checkpoint whose composed image names a key out of
//!   range is a typed error on resume.

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::Schedule;
use electrical_sim::topology::star_cluster;
use optical_sim::{NodeId, OpticalConfig, Transfer};
use proptest::prelude::*;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::{DepSchedule, DepTransfer};
use wrht_core::hierarchy::{compose, Domain, HierSpec};
use wrht_core::stream::{ArrivalProcess, StreamCheckpoint, StreamSpec, StreamTemplate};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{Job, JobWorkload, SchedPolicy, TenancySpec};

const BYTES_PER_ELEM: usize = 4;

type Builder = fn(usize, usize) -> Schedule;

const ALGORITHMS: [(&str, Builder); 3] = [
    ("ring", ring_allreduce as Builder),
    ("hd", halving_doubling as Builder),
    ("rd", recursive_doubling as Builder),
];

/// Builds one fabric of `n` hosts with the given link bandwidth and
/// per-transfer overhead.
type Fabric = fn(usize, f64, f64) -> Box<dyn Substrate>;

fn optical(n: usize, bandwidth_bps: f64, overhead_s: f64) -> Box<dyn Substrate> {
    let config = OpticalConfig::new(n, n.max(2))
        .with_lambda_bandwidth(bandwidth_bps)
        .with_message_overhead(overhead_s)
        .with_hop_propagation(0.0);
    Box::new(OpticalSubstrate::new(config).expect("valid optical config"))
}

fn electrical(n: usize, bandwidth_bps: f64, overhead_s: f64) -> Box<dyn Substrate> {
    Box::new(ElectricalSubstrate::new(
        star_cluster(n, bandwidth_bps, 0.0),
        overhead_s,
    ))
}

/// A random mixed-domain DAG over `spec`: endpoints drawn from the seed
/// vectors, a sparse back-edge dependency structure, staggered releases.
fn random_hier_dag(
    spec: HierSpec,
    len: usize,
    src_seeds: &[usize],
    dst_seeds: &[usize],
    dep_seeds: &[usize],
    byte_seeds: &[usize],
) -> DepSchedule {
    let nodes = spec.nodes();
    let mut transfers = Vec::with_capacity(len);
    for i in 0..len {
        let src = src_seeds[i] % nodes;
        let dst = (src + 1 + dst_seeds[i] % (nodes - 1)) % nodes;
        let mut deps = Vec::new();
        if i > 0 && !dep_seeds[i].is_multiple_of(4) {
            deps.push(dep_seeds[i] % i);
            let second = (dep_seeds[i] / 7) % i;
            if second != deps[0] && dep_seeds[i].is_multiple_of(3) {
                deps.push(second);
                deps.sort_unstable();
            }
        }
        transfers.push(DepTransfer {
            transfer: Transfer::shortest(
                NodeId(src),
                NodeId(dst),
                (byte_seeds[i] as u64 + 1) << 10,
            ),
            deps,
            release_s: (dep_seeds[i] % 3) as f64 * 1e-5,
            stage: i,
        });
    }
    DepSchedule::from_transfers(transfers).expect("generated DAG is topologically ordered")
}

/// The uncontended duration of each transfer on its own fabric: a fresh
/// isolated substrate runs a one-transfer DAG (intra transfers rebased to
/// group-local ids on a single group's fabric).
fn isolated_durations(
    spec: HierSpec,
    dag: &DepSchedule,
    domains: &[Domain],
    intra: &dyn Fn() -> Box<dyn Substrate>,
    inter: &dyn Fn() -> Box<dyn Substrate>,
) -> Vec<f64> {
    dag.transfers()
        .iter()
        .zip(domains)
        .map(|(t, d)| {
            let (mut substrate, transfer) = match d {
                Domain::Intra { .. } => (
                    intra(),
                    Transfer {
                        src: NodeId(spec.local(t.transfer.src.0)),
                        dst: NodeId(spec.local(t.transfer.dst.0)),
                        ..t.transfer.clone()
                    },
                ),
                Domain::Inter => (inter(), t.transfer.clone()),
            };
            let solo = DepSchedule::from_transfers(vec![DepTransfer {
                transfer,
                deps: vec![],
                release_s: 0.0,
                stage: 0,
            }])
            .expect("one-transfer DAG is valid");
            let report = substrate.execute_dag(&solo).expect("isolated run");
            report.transfers[0].finish_s - report.transfers[0].start_s
        })
        .collect()
}

/// Longest dependency chain priced with per-transfer isolated durations —
/// a safe lower bound on any execution honoring deps and releases.
fn critical_path_lower_bound(dag: &DepSchedule, iso: &[f64]) -> f64 {
    let mut finish_lb = vec![0.0f64; dag.len()];
    let mut best = 0.0f64;
    for (i, t) in dag.transfers().iter().enumerate() {
        let mut start = t.release_s;
        for &d in &t.deps {
            start = start.max(finish_lb[d]);
        }
        finish_lb[i] = start + iso[i];
        best = best.max(finish_lb[i]);
    }
    best
}

/// Insert `value` as the first entry of the JSON list that follows the
/// first (or, with `last`, the last) occurrence of `key`.
fn corrupt_index(json: &str, key: &str, last: bool, value: u64) -> String {
    let found = if last {
        json.rfind(key)
    } else {
        json.find(key)
    };
    let at = found.expect("the image carries the list") + key.len();
    let sep = if json[at..].starts_with(']') { "" } else { "," };
    format!("{}{value}{sep}{}", &json[..at], &json[at..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A one-group hierarchy is a pure delegation: the composed substrate
    /// reproduces the flat substrate's DAG report bit-exactly on BOTH
    /// substrate orders, for every classic collective and random physics.
    #[test]
    fn single_group_collapses_to_flat_runs_on_both_orders(
        n in 2usize..16,
        elems in 1usize..20_000,
        bw_idx in 0usize..3,
        ov_idx in 0usize..3,
    ) {
        let bandwidth = [1e9, 2.5e9, 12.5e9][bw_idx];
        let overhead = [0.0, 1e-6, 5e-6][ov_idx];
        let spec = HierSpec::new(1, n).expect("valid one-group spec");
        for (name, build) in ALGORITHMS {
            let sched = lower_collective_to_optical(&build(n, elems), BYTES_PER_ELEM, 1);
            let dag = DepSchedule::from_steps(&sched);

            // Order 1: optical intra, electrical inter — collapses to the
            // flat optical substrate.
            let mut composed = compose(
                spec,
                optical(n, bandwidth, overhead),
                electrical(n, bandwidth, overhead),
            )
            .expect("valid composed substrate");
            prop_assert_eq!(composed.name(), "optical");
            let mut flat_optical = optical(n, bandwidth, overhead);
            prop_assert_eq!(
                composed.execute_dag(&dag).expect("composed optical-intra"),
                flat_optical.execute_dag(&dag).expect("flat optical"),
                "algorithm {} must collapse bit-exactly (optical intra)", name
            );

            // Order 2: electrical intra, optical inter — collapses to the
            // flat electrical substrate.
            let mut composed = compose(
                spec,
                electrical(n, bandwidth, overhead),
                optical(n, bandwidth, overhead),
            )
            .expect("valid composed substrate");
            prop_assert_eq!(composed.name(), "electrical");
            let mut flat_electrical = electrical(n, bandwidth, overhead);
            prop_assert_eq!(
                composed.execute_dag(&dag).expect("composed electrical-intra"),
                flat_electrical.execute_dag(&dag).expect("flat electrical"),
                "algorithm {} must collapse bit-exactly (electrical intra)", name
            );
        }
    }

    /// Random mixed-domain DAGs on multi-group hierarchies: the co-sim
    /// completes (no deadlock), honors every release and cross-fabric
    /// dependency at event granularity, never beats the per-fabric
    /// critical path, and is bit-deterministic — on both substrate orders.
    #[test]
    fn composed_runs_honor_cross_fabric_dependencies(
        groups in 2usize..4,
        group_size in 2usize..5,
        len in 1usize..28,
        src_seeds in proptest::collection::vec(0usize..1_000, 28..29),
        dst_seeds in proptest::collection::vec(0usize..1_000, 28..29),
        dep_seeds in proptest::collection::vec(0usize..1_000, 28..29),
        byte_seeds in proptest::collection::vec(0usize..4_096, 28..29),
        electrical_intra in proptest::bool::ANY,
    ) {
        let spec = HierSpec::new(groups, group_size).expect("valid spec");
        let nodes = spec.nodes();
        let dag = random_hier_dag(spec, len, &src_seeds, &dst_seeds, &dep_seeds, &byte_seeds);
        let domains = spec.domains(&dag).expect("endpoints in range");
        let (bandwidth, overhead) = (1e9, 1e-6);

        let (intra, inter): (Fabric, Fabric) = if electrical_intra {
            (electrical, optical)
        } else {
            (optical, electrical)
        };
        let build = || {
            compose(
                spec,
                intra(group_size, bandwidth, overhead),
                inter(nodes, bandwidth, overhead),
            )
            .expect("valid composed substrate")
        };
        let mut composed = build();
        let report = composed.execute_dag(&dag).expect("co-sim must not deadlock");
        prop_assert_eq!(report.transfers.len(), dag.len());

        // Gates: start >= release and >= every dependency's finish, even
        // when the dependency ran on the other fabric.
        for (i, t) in dag.transfers().iter().enumerate() {
            let w = report.transfers[i];
            prop_assert!(w.finish_s >= w.start_s, "transfer {i} runs forward in time");
            prop_assert!(
                w.start_s >= t.release_s - 1e-12,
                "transfer {i} started {} before its release {}", w.start_s, t.release_s
            );
            for &d in &t.deps {
                prop_assert!(
                    w.start_s >= report.transfers[d].finish_s - 1e-12,
                    "transfer {i} ({}) started at {} before dep {d} ({}) finished at {}",
                    domains[i].label(), w.start_s,
                    domains[d].label(), report.transfers[d].finish_s
                );
            }
        }
        let max_finish = report
            .transfers
            .iter()
            .fold(0.0f64, |m, w| m.max(w.finish_s));
        prop_assert!((report.makespan_s - max_finish).abs() < 1e-12);

        // The composed makespan can only exceed the per-fabric critical
        // path (isolated, uncontended durations along dependency chains).
        let iso = isolated_durations(
            spec,
            &dag,
            &domains,
            &|| intra(group_size, bandwidth, overhead),
            &|| inter(nodes, bandwidth, overhead),
        );
        let bound = critical_path_lower_bound(&dag, &iso);
        prop_assert!(
            report.makespan_s >= bound - 1e-9,
            "composed makespan {} beat the critical-path bound {}", report.makespan_s, bound
        );

        // Bit-determinism on a fresh composed substrate.
        let mut again = build();
        let report2 = again.execute_dag(&dag).expect("deterministic rerun");
        prop_assert_eq!(report, report2);
    }

    /// A one-group hierarchy is the flat substrate for streams too: on
    /// both substrate orders the stream report, the checkpoint of a paused
    /// stream and the report of its resumed run serialize byte for byte
    /// like the flat substrate's, label included.
    #[test]
    fn single_group_streams_match_flat_runs_on_both_orders(
        n in 2usize..10,
        elems in 1usize..5_000,
        ov_idx in 0usize..3,
        count in 2u64..10,
        pause_seed in 0u64..1_000,
        seed in 0u64..1_000,
        fair in proptest::bool::ANY,
    ) {
        let (bandwidth, overhead) = (1e9, [0.0, 1e-6, 5e-6][ov_idx]);
        let hier = HierSpec::new(1, n).expect("valid one-group spec");
        let sched = lower_collective_to_optical(&ring_allreduce(n, elems), BYTES_PER_ELEM, 1);
        let policy = if fair { SchedPolicy::FairShare } else { SchedPolicy::Priority };
        let spec = StreamSpec::new(
            ArrivalProcess::Poisson { rate_hz: 5e3, count, seed },
            policy,
        )
        .with_template(StreamTemplate::new("ring", JobWorkload::Steps(sched.clone())))
        .with_template(
            StreamTemplate::new("pipelined", JobWorkload::Dag(DepSchedule::pipelined_from_steps(&sched)))
                .with_priority(1),
        )
        .with_retained_jobs(true);
        let pause = 1 + pause_seed % (count - 1);

        let orders: [(Fabric, Fabric); 2] = [(optical, electrical), (electrical, optical)];
        for (intra, inter) in orders {
            let mut composed = compose(
                hier,
                intra(n, bandwidth, overhead),
                inter(n, bandwidth, overhead),
            )
            .expect("valid composed substrate");
            let mut flat = intra(n, bandwidth, overhead);
            let report = composed.execute_stream(&spec).expect("composed stream");
            let flat_report = flat.execute_stream(&spec).expect("flat stream");
            let report_json = serde_json::to_string(&report).expect("report json");
            prop_assert_eq!(&report_json, &serde_json::to_string(&flat_report).expect("json"));

            let paused = |sub: &mut dyn Substrate| {
                sub.execute_stream_until(&spec, Some(pause))
                    .expect("paused stream")
                    .checkpoint()
                    .expect("a checkpoint")
            };
            let checkpoint = paused(&mut *composed);
            let flat_checkpoint = paused(&mut *flat);
            prop_assert_eq!(
                serde_json::to_string(&checkpoint).expect("checkpoint json"),
                serde_json::to_string(&flat_checkpoint).expect("checkpoint json")
            );
            let resumed = composed
                .resume_stream(&spec, &checkpoint, None)
                .expect("resumed stream")
                .report()
                .expect("a report");
            let flat_resumed = flat
                .resume_stream(&spec, &flat_checkpoint, None)
                .expect("resumed stream")
                .report()
                .expect("a report");
            let resumed_json = serde_json::to_string(&resumed).expect("report json");
            prop_assert_eq!(&resumed_json, &serde_json::to_string(&flat_resumed).expect("json"));
            prop_assert_eq!(&resumed_json, &report_json);
        }
    }

    /// Multi-group hierarchies stream on the composed engine, on both
    /// substrate orders. One arrival is the closed `execute_jobs` run: same
    /// makespan and event count, bit for bit. A Poisson stream paused at a
    /// random arrival and resumed from its checkpoint, round-tripped
    /// through JSON, reports byte for byte what the uninterrupted stream
    /// reports; a checkpoint whose composed image names a member key or a
    /// dependent out of range is a typed error on resume.
    #[test]
    fn multi_group_streams_match_closed_runs_and_resume_byte_identically(
        groups in 2usize..4,
        group_size in 2usize..5,
        len in 1usize..20,
        seeds in proptest::collection::vec(0usize..4_096, 80..81),
        arrival_us in 0u64..50,
        count in 2u64..8,
        pause_seed in 0u64..1_000,
        seed in 0u64..1_000,
        policy_idx in 0usize..3,
    ) {
        let hier = HierSpec::new(groups, group_size).expect("valid spec");
        let nodes = hier.nodes();
        let seed_vec = |k: usize| &seeds[20 * k..20 * (k + 1)];
        let dag = random_hier_dag(hier, len, seed_vec(0), seed_vec(1), seed_vec(2), seed_vec(3));
        let policy = SchedPolicy::ALL[policy_idx];
        let (bandwidth, overhead) = (1e9, 1e-6);
        let orders: [(Fabric, Fabric); 2] = [(optical, electrical), (electrical, optical)];
        for (intra, inter) in orders {
            let build = || {
                compose(
                    hier,
                    intra(group_size, bandwidth, overhead),
                    inter(nodes, bandwidth, overhead),
                )
                .expect("valid composed substrate")
            };

            // One arrival: the stream injects exactly the closed run's DAG.
            let arrival_s = arrival_us as f64 * 1e-6;
            let closed = build()
                .execute_jobs(&TenancySpec::new(policy).with_job(Job {
                    name: "job".into(),
                    arrival_s,
                    compute_s: 0.0,
                    priority: 0,
                    workload: JobWorkload::Dag(dag.clone()),
                }))
                .expect("closed run");
            let one = StreamSpec::new(
                ArrivalProcess::Trace { arrivals_s: vec![arrival_s] },
                policy,
            )
            .with_template(StreamTemplate::new("job", JobWorkload::Dag(dag.clone())));
            let streamed = build().execute_stream(&one).expect("one-arrival stream");
            prop_assert_eq!(streamed.makespan_s.to_bits(), closed.makespan_s.to_bits());
            prop_assert_eq!(streamed.events, closed.events);

            // Several arrivals, paused and resumed through JSON.
            let ring =
                lower_collective_to_optical(&ring_allreduce(nodes, 64 * nodes), BYTES_PER_ELEM, 1);
            let spec = StreamSpec::new(
                ArrivalProcess::Poisson { rate_hz: 2e4, count, seed },
                policy,
            )
            .with_template(StreamTemplate::new("dag", JobWorkload::Dag(dag.clone())))
            .with_template(StreamTemplate::new("ring", JobWorkload::Steps(ring)).with_priority(1))
            .with_retained_jobs(true);
            let mut sub = build();
            let report = sub.execute_stream(&spec).expect("stream");
            prop_assert_eq!(report.completed, count);
            let report_json = serde_json::to_string(&report).expect("report json");
            let pause = 1 + pause_seed % (count - 1);
            let checkpoint = sub
                .execute_stream_until(&spec, Some(pause))
                .expect("paused stream")
                .checkpoint()
                .expect("a checkpoint");
            let json = serde_json::to_string(&checkpoint).expect("checkpoint json");
            let back: StreamCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
            prop_assert_eq!(&back, &checkpoint);
            let resumed = sub
                .resume_stream(&spec, &back, None)
                .expect("resumed stream")
                .report()
                .expect("a report");
            prop_assert_eq!(serde_json::to_string(&resumed).expect("report json"), report_json);

            // Out-of-range indices in the composed image: the first member's
            // key map, and the composed dependents (the image's last list of
            // that name; a fluid member image has one too).
            for (key, last) in [("\"keys\":[", false), ("\"dependents\":[", true)] {
                let bad: StreamCheckpoint =
                    serde_json::from_str(&corrupt_index(&json, key, last, 999_999))
                        .expect("corrupt checkpoint parses");
                prop_assert_ne!(&bad, &checkpoint);
                prop_assert!(
                    sub.resume_stream(&spec, &bad, None).is_err(),
                    "{} out of range must be a typed error", key
                );
            }
        }
    }
}
