//! Golden oracle for multi-group composed runs.
//!
//! [`wrht_core::hierarchy::compose`] with two or more groups co-simulates
//! one engine per group's intra fabric with the inter fabric. This suite
//! pins that path. Seeded mixed-domain DAGs run on 2, 3 and 4 groups of 2
//! to 5 hosts, on both fabric orders (optical rings inside the groups and
//! an electrical star or ring between them, and the reverse), with 1, 2 or
//! 4 wavelengths, striped transfers, zero-byte transfers, staggered
//! releases and cross-fabric dependency edges. Each DAG runs unarbitrated
//! and under FIFO, priority and fair-share job arbitration; a barrier step
//! schedule also runs stepped and as a lazily lowered pipelined DAG.
//!
//! Each case is pinned as one line of `tests/golden/composed_runs.json`:
//! the makespan bits, a digest of every transfer's window bits, events,
//! peak wavelength, rate recomputations and solver work, plus the per-job
//! service bytes of arbitrated runs and the stepped total and per-step
//! digest. Three error cases per shape pin the error values of a transfer
//! endpoint outside the hierarchy, a job tag outside the rank table and a
//! lane demand the ring cannot grant.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test composed_runs
//! ```

use electrical_sim::topology::{ring, star_cluster};
use optical_sim::{NodeId, OpticalConfig, StepSchedule, Transfer};
use std::fs;
use std::path::PathBuf;
use wrht_core::dag::{DepSchedule, DepTransfer, PipelinedSource};
use wrht_core::error::WrhtError;
use wrht_core::hierarchy::{compose, HierSpec};
use wrht_core::substrate::{DagRunReport, ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::JobArbitration;

const SEEDS: u64 = 16;
const WAVELENGTHS: [usize; 3] = [1, 2, 4];
const BANDWIDTHS: [f64; 3] = [1e9, 2.5e9, 12.5e9];
const OVERHEADS: [f64; 3] = [0.0, 1e-6, 5e-6];

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

    fn pick<T: Copy>(&mut self, values: &[T]) -> T {
        values[self.below(values.len())]
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

/// The physics of one case: both fabrics' bandwidth, per-transfer
/// overhead and wavelength count, and whether the electrical fabric is a
/// ring (contended) or a star.
#[derive(Clone, Copy)]
struct Physics {
    bandwidth_bps: f64,
    overhead_s: f64,
    hop_s: f64,
    wavelengths: usize,
    electrical_ring: bool,
}

impl Physics {
    fn draw(rng: &mut Rng) -> Self {
        Self {
            bandwidth_bps: rng.pick(&BANDWIDTHS),
            overhead_s: rng.pick(&OVERHEADS),
            hop_s: rng.pick(&[0.0, 5e-9]),
            wavelengths: rng.pick(&WAVELENGTHS),
            electrical_ring: rng.below(2) == 0,
        }
    }

    fn optical(&self, n: usize) -> Box<dyn Substrate> {
        let config = OpticalConfig::new(n, self.wavelengths)
            .with_lambda_bandwidth(self.bandwidth_bps)
            .with_message_overhead(self.overhead_s)
            .with_hop_propagation(self.hop_s);
        Box::new(OpticalSubstrate::new(config).expect("valid optical config"))
    }

    fn electrical(&self, n: usize) -> Box<dyn Substrate> {
        let net = if self.electrical_ring {
            ring(n, self.bandwidth_bps, 2e-7)
        } else {
            star_cluster(n, self.bandwidth_bps, 2e-7)
        };
        Box::new(ElectricalSubstrate::new(net, self.overhead_s))
    }

    /// The composed substrate of `spec`: optical rings inside the groups
    /// and an electrical fabric between them, or the reverse.
    fn composed(&self, spec: HierSpec, electrical_intra: bool) -> Box<dyn Substrate> {
        let (intra, inter) = if electrical_intra {
            (self.electrical(spec.group_size), self.optical(spec.nodes()))
        } else {
            (self.optical(spec.group_size), self.electrical(spec.nodes()))
        };
        compose(spec, intra, inter).expect("valid composed substrate")
    }
}

/// A transfer between two distinct hosts: inside one group about half the
/// time, across groups otherwise.
fn transfer(rng: &mut Rng, spec: HierSpec, wavelengths: usize) -> Transfer {
    let nodes = spec.nodes();
    let src = rng.below(nodes);
    let dst = if rng.below(2) == 0 {
        let base = spec.group_of(src) * spec.group_size;
        base + (spec.local(src) + 1 + rng.below(spec.group_size - 1)) % spec.group_size
    } else {
        (src + 1 + rng.below(nodes - 1)) % nodes
    };
    let bytes = match rng.below(10) {
        0 => 0,
        1 => 1 + rng.next() % 4_096,
        _ => 1 + rng.next() % 2_000_000,
    };
    let mut t = Transfer::shortest(NodeId(src), NodeId(dst), bytes);
    t.lanes = 1 + rng.below(wavelengths.min(2));
    t
}

/// A random mixed-domain DAG: sparse back edges (up to three per
/// transfer), staggered releases on dependency-free transfers, and runs of
/// transfers sharing a stage.
fn random_dag(rng: &mut Rng, spec: HierSpec, wavelengths: usize) -> DepSchedule {
    let len = 1 + rng.below(40);
    let mut stage = 0;
    let mut transfers: Vec<DepTransfer> = Vec::with_capacity(len);
    for i in 0..len {
        let mut deps = Vec::new();
        if i > 0 && rng.below(5) != 0 {
            for _ in 0..1 + rng.below(3) {
                deps.push(rng.below(i));
            }
            deps.sort_unstable();
            deps.dedup();
        }
        let release_s = match rng.below(3) {
            0 if deps.is_empty() => rng.below(4) as f64 * 1e-5,
            _ => 0.0,
        };
        stage += usize::from(rng.below(3) == 0);
        transfers.push(DepTransfer {
            transfer: transfer(rng, spec, wavelengths),
            deps,
            release_s,
            stage,
        });
    }
    DepSchedule::from_transfers(transfers).expect("generated DAG is valid")
}

/// A random step schedule over the whole hierarchy, for the stepped and
/// the lazily lowered pipelined runs.
fn random_steps(rng: &mut Rng, spec: HierSpec, wavelengths: usize) -> StepSchedule {
    let steps = (0..1 + rng.below(6))
        .map(|_| {
            (0..rng.below(5))
                .map(|_| transfer(rng, spec, wavelengths))
                .collect()
        })
        .collect();
    StepSchedule::from_steps(steps)
}

/// `job_of` and ranks of `jobs` jobs under a policy: FIFO and fair share
/// rank jobs by a drawn arrival order, priority by a drawn priority with
/// ties in arrival order.
fn arbitration(rng: &mut Rng, len: usize, policy: &str) -> JobArbitration {
    let jobs = 1 + rng.below(3);
    let job_of = (0..len).map(|_| rng.below(jobs)).collect();
    let mut order: Vec<usize> = (0..jobs).collect();
    for k in (1..jobs).rev() {
        order.swap(k, rng.below(k + 1));
    }
    if policy == "priority" {
        let priority: Vec<usize> = (0..jobs).map(|_| rng.below(3)).collect();
        order.sort_by_key(|&j| std::cmp::Reverse(priority[j]));
    }
    let mut rank = vec![0u64; jobs];
    for (r, &j) in order.iter().enumerate() {
        rank[j] = r as u64;
    }
    JobArbitration {
        job_of,
        rank,
        fair_share: policy == "fair",
    }
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

/// The pinned fields of a DAG run, or its error.
fn dag_fields(run: &Result<DagRunReport, WrhtError>) -> String {
    match run {
        Ok(r) => format!(
            "\"makespan\":\"{:#018x}\",\"times\":\"{:#018x}\",\"events\":{},\
             \"peak_wavelength\":{},\"rate_recomputations\":{},\"solver_work\":{}",
            r.makespan_s.to_bits(),
            digest(
                r.transfers
                    .iter()
                    .flat_map(|t| [t.start_s.to_bits(), t.finish_s.to_bits()])
            ),
            r.events,
            r.peak_wavelength,
            r.rate_recomputations,
            r.solver_work
        ),
        Err(e) => format!("\"error\":\"{}\"", error(e)),
    }
}

const POLICIES: [&str; 4] = ["none", "fifo", "priority", "fair"];

/// Every line of one shape: `SEEDS` DAG cases per policy, `SEEDS` step
/// schedule cases, and the three error cases.
fn shape_lines(groups: usize, electrical_intra: bool, lines: &mut Vec<String>) {
    let order = if electrical_intra { "e+o" } else { "o+e" };
    for seed in 0..SEEDS {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d)
            ^ ((groups as u64) << 40)
            ^ u64::from(electrical_intra) << 32);
        let spec = HierSpec::new(groups, 2 + rng.below(4)).expect("valid spec");
        let physics = Physics::draw(&mut rng);
        let dag = random_dag(&mut rng, spec, physics.wavelengths);
        let case = format!(
            "{order}/g{groups}x{}/w{}/s{seed}/transfers{}",
            spec.group_size,
            physics.wavelengths,
            dag.len()
        );
        for policy in POLICIES {
            let mut sub = physics.composed(spec, electrical_intra);
            let line = if policy == "none" {
                dag_fields(&sub.execute_dag(&dag))
            } else {
                let arb = arbitration(&mut rng, dag.len(), policy);
                match sub.execute_dag_jobs(&dag, &arb) {
                    Ok(run) => format!(
                        "{},\"service\":{}",
                        dag_fields(&Ok(run.dag)),
                        f64_bits(&run.job_service_bytes)
                    ),
                    Err(e) => dag_fields(&Err(e)),
                }
            };
            lines.push(format!("{{\"case\":\"{case}/{policy}\",{line}}}"));
        }

        let sched = random_steps(&mut rng, spec, physics.wavelengths);
        let mut sub = physics.composed(spec, electrical_intra);
        let stepped = match sub.execute(&sched) {
            Ok(r) => format!(
                "\"total\":\"{:#018x}\",\"per_step\":\"{:#018x}\"",
                r.total_time_s.to_bits(),
                digest(r.steps.iter().map(|s| s.duration_s.to_bits()))
            ),
            Err(e) => format!("\"execute_error\":\"{}\"", error(&e)),
        };
        let pipelined = dag_fields(&sub.execute_dag(&PipelinedSource::new(&sched)));
        lines.push(format!(
            "{{\"case\":\"{order}/g{groups}x{}/w{}/s{seed}/steps{}/transfers{}\",\
             {stepped},{pipelined}}}",
            spec.group_size,
            physics.wavelengths,
            sched.len(),
            sched.transfer_count()
        ));
    }

    // The error cases, each with exactly one fault.
    let spec = HierSpec::new(groups, 3).expect("valid spec");
    let physics = Physics {
        bandwidth_bps: 1e9,
        overhead_s: 1e-6,
        hop_s: 0.0,
        wavelengths: 2,
        electrical_ring: false,
    };
    let one = |transfer: Transfer, deps: Vec<usize>| DepTransfer {
        transfer,
        deps,
        release_s: 0.0,
        stage: 0,
    };
    let healthy = || {
        vec![
            one(Transfer::shortest(NodeId(0), NodeId(1), 1 << 20), vec![]),
            one(Transfer::shortest(NodeId(1), NodeId(4), 1 << 20), vec![0]),
        ]
    };
    let mut outside = healthy();
    outside.push(one(
        Transfer::shortest(NodeId(2), NodeId(spec.nodes() + 1), 1 << 10),
        vec![1],
    ));
    let mut greedy = healthy();
    // A lane demand above the ring's wavelengths, on the optical fabric of
    // this order, behind a dependency.
    let (src, dst) = if electrical_intra { (1, 3) } else { (3, 5) };
    let mut wide = Transfer::shortest(NodeId(src), NodeId(dst), 1 << 10);
    wide.lanes = physics.wavelengths + 1;
    greedy.push(one(wide, vec![1]));
    let healthy = DepSchedule::from_transfers(healthy()).expect("valid DAG");
    let bad_tag = JobArbitration {
        job_of: vec![0, 2],
        rank: vec![0, 1],
        fair_share: false,
    };
    for (name, run) in [
        (
            "endpoint-outside",
            physics
                .composed(spec, electrical_intra)
                .execute_dag(&DepSchedule::from_transfers(outside).expect("valid DAG")),
        ),
        (
            "bad-job-tag",
            physics
                .composed(spec, electrical_intra)
                .execute_dag_jobs(&healthy, &bad_tag)
                .map(|run| run.dag),
        ),
        (
            "lane-demand",
            physics
                .composed(spec, electrical_intra)
                .execute_dag(&DepSchedule::from_transfers(greedy).expect("valid DAG")),
        ),
    ] {
        let fields = dag_fields(&run);
        assert!(fields.starts_with("\"error\""), "{order}/{name}: {fields}");
        lines.push(format!(
            "{{\"case\":\"{order}/g{groups}x3/{name}\",{fields}}}"
        ));
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/composed_runs.json")
}

#[test]
fn composed_runs_match_golden() {
    let mut lines = Vec::new();
    for groups in 2..=4 {
        for electrical_intra in [false, true] {
            shape_lines(groups, electrical_intra, &mut lines);
        }
    }
    let actual = format!("[\n{}\n]\n", lines.join(",\n"));
    // Some run held several wavelengths at once, and no run stalled.
    assert!(actual.contains("\"peak_wavelength\":2"));
    assert!(!actual.contains("stalled"));
    let path = golden_path();
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test composed_runs`",
            path.display()
        )
    });
    for (k, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {k} of composed_runs.json drifted");
    }
    assert_eq!(actual, expected, "composed_runs.json drifted");
}
