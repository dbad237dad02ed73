//! The fixed perf suite behind the `BENCH_*.json` trajectory.
//!
//! Every PR that touches the simulators re-runs this suite (`repro-figures
//! bench`) so the repo carries a measured wall-clock / events-per-second
//! history instead of anecdotes. The workloads are deliberately frozen:
//!
//! 1. **`tenancy/<substrate>`** — a large multi-job run: two bucketed
//!    GoogLeNet training iterations arriving 2 ms apart plus a background
//!    incast flood, composed into one shared DAG under fair-share
//!    arbitration (the PR-5 tenancy path).
//! 2. **`incast128/electrical`** — staggered waves of a 127-into-1 incast on
//!    a 128-host star, driven strictly through the event-driven max-min
//!    engine (the worst case for next-event selection: one giant contention
//!    component).
//! 3. **`pipelined-vgg16/<substrate>`** — one pipelined VGG16 training
//!    iteration at 32 nodes: bucket all-reduces chained into a single
//!    dependency-aware DAG (the PR-4 pipelined path).
//! 4. **`stream-poisson/optical`** — one million Poisson arrivals of
//!    single-transfer jobs served open-loop on a 10k-node optical ring
//!    through `Substrate::execute_stream` (the PR-8 online path): stresses
//!    per-arrival injection into the *running* kernel, slot reuse and the
//!    bounded-memory windowed aggregator.
//! 5. **`hier-gpt2/composed`** — one GPT-2 small TP+PP+DP+MoE iteration
//!    lowered to a single mixed-domain DAG and executed on the composed
//!    hierarchical substrate (per-group optical rings + the electrical
//!    inter-group cluster co-simulated in one event loop — the PR-10
//!    hierarchy path).
//!
//! Each case is run `iters` times and the **minimum** wall time is kept
//! (the usual micro-bench convention: the minimum is the least noisy
//! estimator of the true cost). `events_per_sec` divides the simulator's
//! own event count (`events` on the run reports) by that wall time, so the
//! metric is robust against workload edits: if a later PR makes a case
//! bigger, events and wall time grow together.

use std::time::Instant; // wrht-analyze: allow(r2, reason = "the perf harness is the one sanctioned wall-clock site; wall time is measured, never fed back into simulation state")

use electrical_sim::FluidEngine;
use optical_sim::sim::StepSchedule;
use optical_sim::{NodeId, Transfer};
use serde::{Deserialize, Serialize};
use wrht_core::dag::DepSchedule;
use wrht_core::engine::run_closed;
use wrht_core::error::Result;
use wrht_core::stream::{ArrivalProcess, StreamSpec, StreamTemplate};
use wrht_core::tenancy::{Job, JobWorkload, SchedPolicy, TenancySpec};

use wrht_core::hierarchy::HierSpec;
use wrht_core::parallelism::{lower_parallelism, ParallelismSpec, StageModel};

use crate::campaign::Algorithm;
use crate::contention::{generate_traffic, Pattern};
use crate::timeline::{iteration_model, timeline_buckets, AllReduceLowering};
use crate::{ExperimentConfig, SubstrateKind};

/// Format version of the emitted JSON (bump on breaking layout changes).
pub const BENCH_FORMAT: &str = "v6";

/// One measured case of the fixed suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Stable case name (`workload/substrate`).
    pub name: String,
    /// Nodes/hosts in the workload (suite-dependent).
    pub nodes: usize,
    /// Transfers in the executed DAG.
    pub transfers: usize,
    /// Timed repetitions (minimum wall time is reported).
    pub iters: u32,
    /// Best wall-clock time for one run, seconds.
    pub wall_s: f64,
    /// Simulated makespan of the workload, seconds (a determinism canary:
    /// this must not drift between runs on the same code).
    pub makespan_s: f64,
    /// Events processed by the simulator's event kernel in one run.
    pub sim_events: u64,
    /// `sim_events / wall_s`.
    pub events_per_sec: f64,
}

/// The whole suite: what `BENCH_v6.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSuiteResult {
    /// JSON layout version ([`BENCH_FORMAT`]).
    pub format: String,
    /// `"full"` or `"small"`.
    pub suite: String,
    /// Free-text provenance of the run (which PR / milestone produced it).
    pub milestone: String,
    /// The measured cases.
    pub cases: Vec<CaseResult>,
}

impl BenchSuiteResult {
    /// Total events per second across the suite (sum of events over sum of
    /// wall time — the headline trajectory number).
    #[must_use]
    pub fn aggregate_events_per_sec(&self) -> f64 {
        let events: u64 = self.cases.iter().map(|c| c.sim_events).sum();
        let wall: f64 = self.cases.iter().map(|c| c.wall_s).sum();
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    }

    /// Compare against a committed baseline: any case whose
    /// `events_per_sec` fell below `threshold` times the baseline's is a
    /// regression. Cases present on only one side are ignored (workloads
    /// may be added over time); returns human-readable violations.
    #[must_use]
    pub fn regressions_vs(&self, baseline: &BenchSuiteResult, threshold: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for case in &self.cases {
            let Some(base) = baseline.cases.iter().find(|b| b.name == case.name) else {
                continue;
            };
            if base.events_per_sec > 0.0 && case.events_per_sec < threshold * base.events_per_sec {
                violations.push(format!(
                    "{}: {:.0} events/s < {:.0}% of baseline {:.0} events/s",
                    case.name,
                    case.events_per_sec,
                    threshold * 100.0,
                    base.events_per_sec
                ));
            }
        }
        violations
    }
}

/// Scale knobs of the fixed suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteScale {
    /// Nodes in the tenancy workload.
    pub tenancy_nodes: usize,
    /// Incast waves (127 flows each) in the incast workload.
    pub incast_waves: usize,
    /// Bytes per incast flow.
    pub incast_bytes: u64,
    /// Nodes in the pipelined-training workload.
    pub pipeline_nodes: usize,
    /// Nodes in the open-loop stream workload.
    pub stream_nodes: usize,
    /// Poisson arrivals in the open-loop stream workload.
    pub stream_arrivals: u64,
    /// Tensor-parallel degree of the hierarchical GPT-2 workload.
    pub hier_tp: usize,
    /// Microbatches per iteration of the hierarchical GPT-2 workload.
    pub hier_microbatches: usize,
    /// Timed repetitions per case.
    pub iters: u32,
}

impl SuiteScale {
    /// The full suite (committed as `BENCH_v6.json`).
    #[must_use]
    pub fn full() -> Self {
        Self {
            tenancy_nodes: 64,
            incast_waves: 4,
            incast_bytes: 16 << 20,
            pipeline_nodes: 32,
            stream_nodes: 10_000,
            stream_arrivals: 1_000_000,
            hier_tp: 4,
            hier_microbatches: 4,
            iters: 5,
        }
    }

    /// The CI suite (`repro-figures bench --small`, committed as
    /// `BENCH_v6.small.json`): same workload shapes, smaller scales.
    #[must_use]
    pub fn small() -> Self {
        Self {
            tenancy_nodes: 16,
            incast_waves: 1,
            incast_bytes: 4 << 20,
            pipeline_nodes: 16,
            stream_nodes: 1_000,
            stream_arrivals: 50_000,
            hier_tp: 2,
            hier_microbatches: 2,
            iters: 3,
        }
    }
}

/// The frozen tenancy workload: two GoogLeNet trainings + incast background
/// on a narrow wavelength budget. Returns the spec; callers compose it.
#[must_use]
pub fn tenancy_workload(n: usize) -> (ExperimentConfig, TenancySpec) {
    let cfg = ExperimentConfig {
        wavelengths: 8, // narrow budget keeps the fabric contended
        ..ExperimentConfig::default()
    };
    let model = dnn_models::googlenet();
    let im = iteration_model(&model);
    let compute_s = im.forward_s + im.backward_s;
    let lowering = AllReduceLowering::new(&cfg, Algorithm::Wrht, n);
    let buckets: Vec<_> = timeline_buckets(&model, 25 << 20)
        .iter()
        .map(|b| {
            let (schedule, _) = lowering.lower(b.bytes).expect("lowerable bucket");
            (b.ready_s, schedule)
        })
        .collect();
    let incast = generate_traffic(Pattern::Incast, n, 2 * n, 4 << 20, 2023);
    let spec = TenancySpec::new(SchedPolicy::FairShare)
        .with_job(
            Job::training("train-a", 0.0, buckets.clone())
                .with_compute(compute_s)
                .with_priority(2),
        )
        .with_job(
            Job::training("train-b", 2e-3, buckets)
                .with_compute(compute_s)
                .with_priority(1),
        )
        .with_job(Job::dag(
            "incast-bg",
            1e-3,
            DepSchedule::from_released(&incast).expect("incast releases are finite and >= 0"),
        ));
    (cfg, spec)
}

/// The frozen incast workload: `waves` staggered waves of 127 flows into
/// host 0 on a 128-host star.
#[must_use]
pub fn incast_flows(waves: usize, bytes: u64) -> DepSchedule {
    let hosts = 128usize;
    let mut flows = Vec::with_capacity(waves * (hosts - 1));
    for w in 0..waves {
        for src in 1..hosts {
            // Waves 20 ms apart; sources staggered 100 us within a wave so
            // arrivals trickle in instead of coalescing to one event.
            let release_s = w as f64 * 20e-3 + (src - 1) as f64 * 100e-6;
            flows.push((release_s, Transfer::shortest(NodeId(src), NodeId(0), bytes)));
        }
    }
    DepSchedule::from_released(&flows).expect("wave releases are finite and >= 0")
}

/// The frozen pipelined-training workload: one VGG16 iteration's bucket
/// all-reduces chained into a single dependency-aware DAG.
pub fn pipelined_train_dag(n: usize) -> Result<(ExperimentConfig, DepSchedule)> {
    let cfg = ExperimentConfig::default();
    let model = dnn_models::vgg16();
    let lowering = AllReduceLowering::new(&cfg, Algorithm::Wrht, n);
    let mut lowered = Vec::new();
    for b in timeline_buckets(&model, 25 << 20) {
        lowered.push((b.ready_s, lowering.lower(b.bytes)?.0));
    }
    let (dag, _) = DepSchedule::chain(&lowered);
    Ok((cfg, dag))
}

/// The frozen open-loop stream workload: `arrivals` Poisson arrivals of a
/// single one-hop 4 KB transfer each, spread round-robin over up to 64
/// disjoint neighbour pairs of an `nodes`-node optical ring. At 200k
/// arrivals/s the offered load stays far below capacity, so the stream
/// drains online and the case measures engine overhead — per-arrival
/// injection into the running kernel, grant-slot reuse and the windowed
/// aggregator — rather than queueing.
#[must_use]
pub fn stream_workload(nodes: usize, arrivals: u64) -> (ExperimentConfig, StreamSpec) {
    let cfg = ExperimentConfig::default();
    let mut spec = StreamSpec::new(
        ArrivalProcess::Poisson {
            rate_hz: 200_000.0,
            count: arrivals,
            seed: 2023,
        },
        SchedPolicy::Fifo,
    )
    .with_window(50e-3)
    .with_reference_bps(cfg.lambda_bandwidth_bps);
    let pairs = 64.min(nodes / 2);
    for p in 0..pairs {
        let schedule = StepSchedule::from_steps(vec![vec![Transfer::shortest(
            NodeId(2 * p),
            NodeId(2 * p + 1),
            4 << 10,
        )]]);
        spec = spec.with_template(StreamTemplate::new(
            format!("ping-{p}"),
            JobWorkload::Steps(schedule),
        ));
    }
    (cfg, spec)
}

/// The frozen hierarchical workload: one GPT-2 small iteration under
/// `tp × 2 stages × 2 replicas` with a 4-expert MoE phase, lowered to one
/// mixed-domain DAG for the composed substrate.
pub fn hier_gpt2_workload(
    tp: usize,
    microbatches: usize,
) -> Result<(ExperimentConfig, HierSpec, DepSchedule)> {
    let cfg = ExperimentConfig::default();
    let model = dnn_models::gpt2_small();
    let spec = ParallelismSpec::new(tp, 2, 2, 4, microbatches)?;
    let stages = StageModel::split(model.gradient_bytes(), spec.pp, 8 << 20);
    let dag = lower_parallelism(&spec, &stages)?;
    Ok((cfg, spec.hier()?, dag))
}

/// Time `run` over `iters` repetitions, returning (min wall seconds, last
/// run's output).
#[allow(clippy::disallowed_methods)] // the sanctioned wall-clock site (see clippy.toml / wrht-analyze R2)
fn time_best<T>(iters: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    assert!(iters > 0);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        // wrht-analyze: allow(r2, reason = "measurement-only clock read inside the perf harness")
        let t0 = Instant::now();
        let out = run();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("iters > 0"))
}

/// Run the fixed suite at the given scale.
///
/// # Errors
/// Propagates simulator errors; the fixed workloads are valid by
/// construction, so an error here means a simulator bug.
pub fn run_suite(scale: SuiteScale, suite: &str, milestone: &str) -> Result<BenchSuiteResult> {
    let mut cases = Vec::new();

    // Case family 1: the composed tenancy run, both substrates.
    let (cfg, spec) = tenancy_workload(scale.tenancy_nodes);
    let composed = spec.compose()?;
    let arb = spec.arbitration(&composed.job_of);
    for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
        let mut substrate =
            cfg.substrate(kind, scale.tenancy_nodes, optical_sim::Strategy::FirstFit);
        let (wall_s, run) = time_best(scale.iters, || {
            substrate
                .execute_dag_jobs(&composed.dag, &arb)
                .expect("frozen tenancy workload executes")
        });
        cases.push(case_result(
            format!("tenancy/{}", kind.label()),
            scale.tenancy_nodes,
            composed.dag.transfers().len(),
            scale.iters,
            wall_s,
            run.dag.makespan_s,
            run.dag.events,
        ));
    }

    // Case family 2: the 128-host incast, event-driven electrical engine.
    {
        let cfg = ExperimentConfig::default();
        let net = cfg.electrical(128);
        let flows = incast_flows(scale.incast_waves, scale.incast_bytes);
        let (wall_s, (makespan_s, events)) = time_best(scale.iters, || {
            let mut eng = FluidEngine::new(&net).with_launch_delay(cfg.electrical_step_overhead_s);
            let mut makespan_s = 0.0f64;
            run_closed(&mut eng, &flows, None, |c| {
                makespan_s = makespan_s.max(c.finish_s)
            })
            .expect("frozen incast workload executes");
            (makespan_s, eng.events())
        });
        cases.push(case_result(
            "incast128/electrical".to_string(),
            128,
            flows.len(),
            scale.iters,
            wall_s,
            makespan_s,
            events,
        ));
    }

    // Case family 3: the pipelined training DAG, both substrates.
    let (cfg, dag) = pipelined_train_dag(scale.pipeline_nodes)?;
    for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
        let mut substrate =
            cfg.substrate(kind, scale.pipeline_nodes, optical_sim::Strategy::FirstFit);
        let (wall_s, report) = time_best(scale.iters, || {
            substrate
                .execute_dag(&dag)
                .expect("frozen pipelined workload executes")
        });
        cases.push(case_result(
            format!("pipelined-vgg16/{}", kind.label()),
            scale.pipeline_nodes,
            dag.transfers().len(),
            scale.iters,
            wall_s,
            report.makespan_s,
            report.events,
        ));
    }

    // Case family 4: the open-loop Poisson stream on the optical engine
    // (grant-slot reuse keeps memory bounded at a million arrivals).
    {
        let (cfg, spec) = stream_workload(scale.stream_nodes, scale.stream_arrivals);
        let mut substrate = cfg.substrate(
            SubstrateKind::Optical,
            scale.stream_nodes,
            optical_sim::Strategy::FirstFit,
        );
        let (wall_s, report) = time_best(scale.iters, || {
            substrate
                .execute_stream(&spec)
                .expect("frozen stream workload executes")
        });
        cases.push(case_result(
            "stream-poisson/optical".to_string(),
            scale.stream_nodes,
            report.completed as usize,
            scale.iters,
            wall_s,
            report.makespan_s,
            report.events,
        ));
    }

    // Case family 5: the mixed-parallelism GPT-2 iteration on the
    // composed hierarchical substrate (both engine families in one loop).
    {
        let (cfg, hier, dag) = hier_gpt2_workload(scale.hier_tp, scale.hier_microbatches)?;
        let mut substrate = cfg.try_composed(hier, optical_sim::Strategy::FirstFit)?;
        let (wall_s, report) = time_best(scale.iters, || {
            substrate
                .execute_dag(&dag)
                .expect("frozen hierarchical workload executes")
        });
        cases.push(case_result(
            "hier-gpt2/composed".to_string(),
            hier.nodes(),
            dag.transfers().len(),
            scale.iters,
            wall_s,
            report.makespan_s,
            report.events,
        ));
    }

    Ok(BenchSuiteResult {
        format: BENCH_FORMAT.to_string(),
        suite: suite.to_string(),
        milestone: milestone.to_string(),
        cases,
    })
}

fn case_result(
    name: String,
    nodes: usize,
    transfers: usize,
    iters: u32,
    wall_s: f64,
    makespan_s: f64,
    sim_events: u64,
) -> CaseResult {
    CaseResult {
        name,
        nodes,
        transfers,
        iters,
        wall_s,
        makespan_s,
        sim_events,
        events_per_sec: if wall_s > 0.0 {
            sim_events as f64 / wall_s
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_runs_and_reports_events() {
        let mut scale = SuiteScale::small();
        scale.iters = 1;
        let suite = run_suite(scale, "small", "unit-test").expect("suite runs");
        assert_eq!(suite.cases.len(), 7);
        assert!(suite.cases.iter().any(|c| c.name == "hier-gpt2/composed"));
        for case in &suite.cases {
            assert!(case.wall_s > 0.0, "{}: wall time measured", case.name);
            assert!(case.makespan_s > 0.0, "{}: simulated time", case.name);
            assert!(case.sim_events > 0, "{}: events counted", case.name);
            assert!(case.events_per_sec > 0.0);
        }
        assert!(suite.aggregate_events_per_sec() > 0.0);
    }

    #[test]
    fn regression_check_flags_slowdowns_only() {
        let case = |name: &str, eps: f64| CaseResult {
            name: name.to_string(),
            nodes: 16,
            transfers: 10,
            iters: 1,
            wall_s: 1.0,
            makespan_s: 1.0,
            sim_events: 1000,
            events_per_sec: eps,
        };
        let baseline = BenchSuiteResult {
            format: BENCH_FORMAT.to_string(),
            suite: "small".to_string(),
            milestone: "base".to_string(),
            cases: vec![case("a", 1000.0), case("b", 1000.0), case("only-base", 1.0)],
        };
        let current = BenchSuiteResult {
            cases: vec![case("a", 900.0), case("b", 700.0), case("only-new", 1.0)],
            ..baseline.clone()
        };
        let violations = current.regressions_vs(&baseline, 0.8);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("b:"), "{violations:?}");
    }

    #[test]
    fn suite_is_deterministic_in_simulated_time() {
        let mut scale = SuiteScale::small();
        scale.iters = 1;
        let a = run_suite(scale, "small", "det").expect("suite runs");
        let b = run_suite(scale, "small", "det").expect("suite runs");
        for (ca, cb) in a.cases.iter().zip(&b.cases) {
            assert_eq!(
                ca.makespan_s.to_bits(),
                cb.makespan_s.to_bits(),
                "{}",
                ca.name
            );
            assert_eq!(ca.sim_events, cb.sim_events, "{}", ca.name);
        }
    }
}
