//! Barrier-stepped execution of collective schedules over the fluid model.
//!
//! All-reduce algorithms are expressed as sequences of steps; the runner
//! starts every transfer of a step simultaneously, waits for the slowest
//! (the barrier all-reduce implementations impose), adds a per-message host
//! overhead, and moves to the next step — mirroring how the paper times its
//! SimGrid baselines.

use crate::engine::FluidEngine;
use crate::error::{NetError, Result};
use crate::flow::FlowSpec;
use crate::graph::{LinkId, Network};
use crate::sim::{run_engine, run_flows, DisjointFill, EngineFlow, EngineReport};
use serde::{Deserialize, Serialize};
use wrht_kernel::{FaultPolicy, FaultScript};

/// One transfer inside a step (sizes in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepTransfer {
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// Timing report for a stepped collective run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SteppedReport {
    /// Total time, seconds.
    pub total_time_s: f64,
    /// Per-step durations, seconds.
    pub step_times_s: Vec<f64>,
}

/// Execute `steps` over `net`, paying `per_message_overhead_s` once per step
/// (protocol/launch cost, analogous to the optical per-message overhead).
///
/// Each step goes through one [`StepRunner::step`]; see there for the
/// closed form of link-disjoint steps (every ring, halving-doubling,
/// recursive-doubling and tree step on a star cluster), the reuse of a
/// repeated step's placement and the treatment of zero-byte transfers.
/// The total is the sequential sum of the per-step times.
pub fn run_steps(
    net: &Network,
    steps: &[Vec<StepTransfer>],
    per_message_overhead_s: f64,
) -> Result<SteppedReport> {
    let mut runner = StepRunner::new(net, per_message_overhead_s);
    let step_times = steps
        .iter()
        .map(|step| runner.step(step.iter().copied()))
        .collect::<Result<Vec<f64>>>()?;
    Ok(SteppedReport {
        total_time_s: step_times.iter().sum(),
        step_times_s: step_times,
    })
}

/// The barrier-stepped runner, one step at a time: the per-step path of
/// [`run_steps`] and of every stepped electrical execution.
///
/// A step's duration is the per-step overhead plus the makespan
/// [`run_flows`] computes for its non-empty transfers. The placement half
/// of that computation — the routes, the shared latency `L` and the
/// progressive-fill rates of the link-disjoint closed form — depends only
/// on the step's ordered routing list, never on bytes. So a step whose
/// routing list equals the last placed step's (every step of a ring
/// all-reduce) reuses that placement and redoes only each flow's
/// `(L + bytes/rate).max(L)`. Any other step is routed and checked for
/// link-disjointness once. A step the closed form does not cover (shared
/// links, or a finish that overflows) hands its routes to the fluid engine
/// and is not reused: the memo covers exactly the closed form's steps.
/// The runner keeps one engine and resets it between such steps, so a run
/// of them reuses the engine's per-link and per-flow arrays instead of
/// allocating, and returning to the OS, a fresh set for every step.
///
/// Zero-byte transfers are legal: the fluid model itself rejects empty
/// flows, so they are skipped before solving, but a step that contains any
/// transfer — even only zero-byte ones — still pays the per-step overhead
/// (the launch happens regardless of payload). Only a literally empty step
/// costs nothing. This mirrors the optical substrate, which charges its
/// per-message overhead for zero-byte transfers too. Zero-byte transfers
/// are still routed, after the payload flows, so a malformed one fails the
/// step with the error [`run_dag`] reports for the same schedule.
#[derive(Debug)]
pub struct StepRunner<'n> {
    net: &'n Network,
    overhead_s: f64,
    /// Routing list of the last placed step: `(src, dst, bytes > 0)` per
    /// transfer, in step order.
    key: Vec<(usize, usize, bool)>,
    /// Routes and latencies of its payload flows, in step order.
    routes: Vec<Vec<LinkId>>,
    latencies: Vec<f64>,
    /// Its closed-form placement: `None` when it has no payload flow (and
    /// no routes), or when the closed form does not apply (and the key is
    /// empty, so nothing is reused).
    fill: Option<DisjointFill>,
    /// The fluid engine of the steps the closed form does not cover, built
    /// on the first one.
    engine: Option<FluidEngine<'n>>,
}

impl<'n> StepRunner<'n> {
    /// A runner over `net` that charges `per_message_overhead_s` per
    /// non-empty step.
    #[must_use]
    pub fn new(net: &'n Network, per_message_overhead_s: f64) -> Self {
        Self {
            net,
            overhead_s: per_message_overhead_s,
            key: Vec::new(),
            routes: Vec::new(),
            latencies: Vec::new(),
            fill: None,
            engine: None,
        }
    }

    /// Execute one step and return its duration, seconds.
    pub fn step<I>(&mut self, transfers: I) -> Result<f64>
    where
        I: Iterator<Item = StepTransfer> + Clone,
    {
        if transfers.clone().next().is_none() {
            return Ok(0.0);
        }
        let placed = self.fits(transfers.clone());
        if !placed {
            self.place(transfers.clone())?;
        }
        let payload = transfers.clone().filter(|t| t.bytes > 0);
        let closed_form = match &self.fill {
            Some(fill) => payload
                .clone()
                .zip(&fill.rates)
                .try_fold(0.0f64, |m, (t, &rate)| {
                    Some(m.max(fill.finish(t.bytes, rate)?))
                }),
            None if self.routes.is_empty() => Some(0.0),
            None => None,
        };
        let makespan_s = match closed_form {
            Some(m) => m,
            None => {
                // The engine consumes the routes, so a step that needs it
                // leaves no placement to reuse. Its flows are `run_flows`'
                // engine flows: released at 0, no launch delay, no deps.
                self.key.clear();
                let net = self.net;
                let engine = self.engine.get_or_insert_with(|| FluidEngine::new(net));
                engine.reset();
                let flows = payload.map(|t| EngineFlow {
                    src: t.src,
                    dst: t.dst,
                    bytes: t.bytes,
                    release_s: 0.0,
                    delay_s: 0.0,
                    deps: Vec::new(),
                    job: 0,
                });
                let routes = std::mem::take(&mut self.routes);
                let latencies = std::mem::take(&mut self.latencies);
                engine.admit(flows, routes, latencies);
                while engine.step()?.is_some() {}
                engine.makespan_s()
            }
        };
        if !placed {
            for t in transfers.clone().filter(|t| t.bytes == 0) {
                self.net.route(t.src, t.dst)?;
            }
            // Saved only once the step has fully succeeded, so a step that
            // failed is never taken as placed.
            if closed_form.is_some() {
                self.key
                    .extend(transfers.map(|t| (t.src, t.dst, t.bytes > 0)));
            }
        }
        Ok(self.overhead_s + makespan_s)
    }

    /// Is the last placement the one of `transfers`' routing list?
    fn fits(&self, transfers: impl Iterator<Item = StepTransfer>) -> bool {
        let mut n = 0;
        for t in transfers {
            if self.key.get(n) != Some(&(t.src, t.dst, t.bytes > 0)) {
                return false;
            }
            n += 1;
        }
        n == self.key.len()
    }

    /// Route the payload flows of `transfers` in order and solve their
    /// closed-form placement, failing as [`run_flows`] would.
    fn place(&mut self, transfers: impl Iterator<Item = StepTransfer> + Clone) -> Result<()> {
        self.key.clear();
        self.routes.clear();
        self.latencies.clear();
        self.fill = None;
        let payload = transfers.filter(|t| t.bytes > 0);
        let flows = payload.clone().count();
        self.routes.reserve(flows);
        self.latencies.reserve(flows);
        for t in payload.clone() {
            let route = self.net.route(t.src, t.dst)?;
            self.latencies.push(self.net.path_latency(&route));
            self.routes.push(route);
        }
        self.fill = DisjointFill::solve(self.net, &self.routes, &self.latencies, |k| {
            payload.clone().nth(k).map_or((0, 0), |t| (t.src, t.dst))
        })?;
        Ok(())
    }
}

/// One transfer of a dependency-aware schedule: a [`StepTransfer`] plus
/// explicit predecessor edges, an absolute release time and the source
/// stage (step or bucket-step) it was lowered from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagFlow {
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Payload bytes. 0 is legal and makes the transfer a pure control
    /// gate: it completes after the launch overhead alone — no latency,
    /// no bandwidth competition — but still gates its dependents. This
    /// mirrors the stepped runner, which skips zero-byte flows while
    /// charging the launch overhead.
    pub bytes: u64,
    /// Earliest release time, seconds (gradient-ready instants and the
    /// like); 0 for purely dependency-driven transfers.
    pub release_s: f64,
    /// Indices of transfers that must complete first (each `<` own index,
    /// so the list is a DAG in topological order by construction).
    pub deps: Vec<usize>,
    /// Source stage the transfer was lowered from (used to detect
    /// barrier-shaped DAGs and for per-stage reporting). Must be
    /// non-decreasing along the transfer list.
    pub stage: usize,
}

/// Timing report for a dependency-aware run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagRunReport {
    /// Completion time of the last transfer, seconds.
    pub makespan_s: f64,
    /// Per-transfer `(start, finish)` windows in submission order. `start`
    /// is the instant the transfer's gates opened (dependencies and
    /// release satisfied), before its launch overhead.
    pub windows: Vec<(f64, f64)>,
    /// Rate solver invocations (see [`crate::sim::RunReport`]).
    pub rate_recomputations: usize,
    /// Progressive-filling work units (see [`crate::sim::RunReport`]).
    pub solver_work: usize,
    /// Discrete events processed by the shared kernel (summed over the
    /// per-stage fluid runs on the barrier fast path).
    pub events: u64,
    /// Whether the run took the barrier fast path (per-stage fluid runs
    /// composed exactly like [`run_steps`]) instead of the event engine.
    pub barrier_fast_path: bool,
}

/// If `flows` encodes full step barriers — stages non-decreasing, every
/// release at 0, and every transfer depending on exactly the previous
/// non-empty stage — return the per-stage index lists.
fn barrier_stages(flows: &[DagFlow]) -> Option<Vec<Vec<usize>>> {
    // wrht-analyze: allow(r6, reason = "exact-zero sentinel: barrier DAGs carry the literal 0.0 release, never a computed value")
    if flows.iter().any(|f| f.release_s != 0.0) {
        return None;
    }
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        if f.stage + 1 < stages.len() {
            return None; // stages must be non-decreasing
        }
        if f.stage >= stages.len() {
            stages.resize_with(f.stage + 1, Vec::new);
        }
        stages[f.stage].push(i);
    }
    let mut prev: &[usize] = &[];
    for stage in &stages {
        for &i in stage {
            if flows[i].deps != prev {
                return None;
            }
        }
        if !stage.is_empty() {
            prev = stage;
        }
    }
    Some(stages)
}

/// Execute a dependency-aware schedule over `net`.
///
/// Barrier-shaped inputs (each transfer gated on the whole previous
/// stage, no release times) take a fast path that runs one fluid solve
/// per stage and composes stage times exactly like [`run_steps`] — so a
/// DAG encoding full step barriers reproduces the stepped runner's total
/// **bit-exactly**. Everything else goes through the event-driven engine:
/// transfers released the instant their last predecessor completes, rates
/// re-solved incrementally only over the contention component whose
/// active-flow set changed.
///
/// `per_message_overhead_s` is charged once per transfer after its gates
/// open (per non-empty stage on the fast path, matching [`run_steps`]).
pub fn run_dag(
    net: &Network,
    flows: &[DagFlow],
    per_message_overhead_s: f64,
) -> Result<DagRunReport> {
    if let Some(stages) = barrier_stages(flows) {
        return run_dag_barrier(net, flows, &stages, per_message_overhead_s);
    }
    run_dag_event_driven(net, flows, per_message_overhead_s)
}

/// The barrier fast path: per-stage fluid runs composed like [`run_steps`].
fn run_dag_barrier(
    net: &Network,
    flows: &[DagFlow],
    stages: &[Vec<usize>],
    per_message_overhead_s: f64,
) -> Result<DagRunReport> {
    let mut windows = vec![(0.0, 0.0); flows.len()];
    let mut recomputations = 0usize;
    let mut solver_work = 0usize;
    let mut events = 0u64;
    let mut base = 0.0f64;
    for stage in stages {
        if stage.is_empty() {
            continue;
        }
        let payload: Vec<usize> = stage
            .iter()
            .copied()
            .filter(|&i| flows[i].bytes > 0)
            .collect();
        let specs: Vec<FlowSpec> = payload
            .iter()
            .map(|&i| FlowSpec::new(flows[i].src, flows[i].dst, flows[i].bytes))
            .collect();
        let makespan_s = if specs.is_empty() {
            0.0
        } else {
            let report = run_flows(net, &specs)?;
            recomputations += report.rate_recomputations;
            solver_work += report.solver_work;
            events += report.events;
            for (&i, outcome) in payload.iter().zip(&report.flows) {
                windows[i] = (base, base + per_message_overhead_s + outcome.finish_s);
            }
            report.makespan_s
        };
        for &i in stage {
            if flows[i].bytes == 0 {
                // Zero-byte control gates are validated like every other
                // flow (the event engine routes them too) and finish after
                // the launch only — within the stage's overhead slot, so
                // the next stage's base never precedes them.
                net.route(flows[i].src, flows[i].dst)?;
                windows[i] = (base, base + per_message_overhead_s);
            }
        }
        // The exact arithmetic of run_steps: each non-empty stage adds
        // fl(overhead + makespan) to a left-fold running total.
        base += per_message_overhead_s + makespan_s;
    }
    Ok(DagRunReport {
        makespan_s: base,
        windows,
        rate_recomputations: recomputations,
        solver_work,
        events,
        barrier_fast_path: true,
    })
}

/// A [`DagRunReport`] plus per-tenant rate attribution from the max-min
/// solver (see [`run_dag_jobs`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDagReport {
    /// The underlying dependency-aware run.
    pub report: DagRunReport,
    /// Per job: total time with at least one transmitting flow, seconds.
    /// Zeros when the run took the barrier fast path (the stepped
    /// composition has no per-interval rate solution to attribute).
    pub job_active_s: Vec<f64>,
    /// Per job: bytes delivered over the fabric (`∫ aggregate rate dt` on
    /// the event engine; the exact payload sum on the barrier fast path).
    pub job_service_bytes: Vec<f64>,
    /// Per job: largest aggregate max-min allocation ever held, bytes/s
    /// (0 on the barrier fast path).
    pub job_peak_rate_bps: Vec<f64>,
}

/// Execute a **multi-job** dependency-aware schedule over `net`.
///
/// Timing is identical to [`run_dag`] on the same flows — the max-min fluid
/// model is inherently fair-shared, so tenancy policies do not change
/// electrical rates — but every flow carries a job tag (`job_of[i]`, each
/// `< jobs`) and the incremental solver attributes its rate solution to
/// jobs: aggregate allocated bandwidth integrated between events, active
/// transmission time and peak aggregate allocation per tenant.
pub fn run_dag_jobs(
    net: &Network,
    flows: &[DagFlow],
    job_of: &[usize],
    jobs: usize,
    per_message_overhead_s: f64,
) -> Result<TenantDagReport> {
    check_jobs(flows, job_of, jobs)?;
    if let Some(stages) = barrier_stages(flows) {
        // Keep the stepped fast path so single-tenant barrier DAGs stay
        // bit-exact with `run_dag`/`run_steps`; delivered bytes are exact,
        // rates are reported as zeros (documented on the fields).
        let report = run_dag_barrier(net, flows, &stages, per_message_overhead_s)?;
        let mut service = vec![0.0f64; jobs];
        for (f, &j) in flows.iter().zip(job_of) {
            service[j] += f.bytes as f64;
        }
        return Ok(TenantDagReport {
            report,
            job_active_s: vec![0.0; jobs],
            job_service_bytes: service,
            job_peak_rate_bps: vec![0.0; jobs],
        });
    }
    let r = run_engine(net, engine_flows(flows, job_of, per_message_overhead_s))?;
    Ok(tenant_report(r, jobs))
}

fn check_jobs(flows: &[DagFlow], job_of: &[usize], jobs: usize) -> Result<()> {
    if job_of.len() != flows.len() {
        return Err(NetError::BadConfig("job tag list must match the flow list"));
    }
    if job_of.iter().any(|&j| j >= jobs) {
        return Err(NetError::BadConfig("job tag out of range of the job count"));
    }
    Ok(())
}

/// The report of an event-engine run, per-job vectors padded to `jobs`.
fn tenant_report(r: EngineReport, jobs: usize) -> TenantDagReport {
    let pad = |mut v: Vec<f64>| {
        v.resize(jobs, 0.0);
        v
    };
    TenantDagReport {
        report: DagRunReport {
            makespan_s: r.makespan_s,
            windows: r.start_s.into_iter().zip(r.finish_s).collect(),
            rate_recomputations: r.rate_recomputations,
            solver_work: r.solver_work,
            events: r.events,
            barrier_fast_path: false,
        },
        job_active_s: pad(r.job_active_s),
        job_service_bytes: pad(r.job_service_bytes),
        job_peak_rate_bps: pad(r.job_peak_rate_bps),
    }
}

/// Result of a faulted dependency-aware run ([`run_dag_jobs_faulted`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultDagRunReport {
    /// The clean report shape. Failed transfers keep a zero finish in
    /// their window and are excluded from the makespan.
    pub tenant: TenantDagReport,
    /// Per-transfer: permanently failed by a fault.
    pub failed: Vec<bool>,
    /// Per-transfer: times the transfer was killed while actively
    /// transmitting.
    pub aborted: Vec<u32>,
    /// Instant the first transfer was failed by a fault, if any.
    pub first_impact_s: Option<f64>,
}

/// Execute a (multi-job) dependency-aware schedule under a [`FaultScript`]
/// with the given recovery [`FaultPolicy`]: a closed driver over the
/// [`FluidEngine`], which schedules the faults on its own kernel (see
/// [`crate::engine`] for the per-kind semantics). With no relevant events the run delegates to [`run_dag_jobs`] —
/// including its barrier fast path — and is **bit-exact** with the clean
/// entry points. Single-job callers pass `job_of = [0; n], jobs = 1`.
pub fn run_dag_jobs_faulted(
    net: &Network,
    flows: &[DagFlow],
    job_of: &[usize],
    jobs: usize,
    per_message_overhead_s: f64,
    script: &FaultScript,
    policy: FaultPolicy,
) -> Result<FaultDagRunReport> {
    check_jobs(flows, job_of, jobs)?;
    let mut eng = FluidEngine::new(net);
    if !eng.set_faults(script, policy)? {
        // Zero relevant faults: the clean entry point (barrier fast path
        // included), bit-exactly.
        let tenant = run_dag_jobs(net, flows, job_of, jobs, per_message_overhead_s)?;
        return Ok(FaultDagRunReport {
            failed: vec![false; flows.len()],
            aborted: vec![0; flows.len()],
            first_impact_s: None,
            tenant,
        });
    }
    eng.inject_owned(engine_flows(flows, job_of, per_message_overhead_s))?;
    // Stop the instant every flow settled: later fault events and stale
    // wake-ups have nothing left to act on.
    while eng.live_flows() > 0 && eng.step()?.is_some() {}
    let failed = (0..flows.len()).map(|i| eng.failed(i)).collect();
    let aborted = (0..flows.len()).map(|i| eng.aborts(i)).collect();
    let first_impact_s = eng.first_impact_s();
    Ok(FaultDagRunReport {
        tenant: tenant_report(eng.into_report(), jobs),
        failed,
        aborted,
        first_impact_s,
    })
}

/// The engine flows of a tagged dependency-aware schedule.
fn engine_flows(
    flows: &[DagFlow],
    job_of: &[usize],
    per_message_overhead_s: f64,
) -> Vec<EngineFlow> {
    flows
        .iter()
        .zip(job_of)
        .map(|(f, &job)| EngineFlow {
            src: f.src,
            dst: f.dst,
            bytes: f.bytes,
            release_s: f.release_s,
            delay_s: per_message_overhead_s,
            deps: f.deps.clone(),
            job,
        })
        .collect()
}

/// Execute a dependency-aware schedule strictly through the event-driven
/// engine, bypassing the barrier fast path. Used by differential tests and
/// benchmarks; [`run_dag`] is the production entry point.
pub fn run_dag_event_driven(
    net: &Network,
    flows: &[DagFlow],
    per_message_overhead_s: f64,
) -> Result<DagRunReport> {
    let r = run_engine(
        net,
        engine_flows(flows, &vec![0; flows.len()], per_message_overhead_s),
    )?;
    Ok(tenant_report(r, 1).report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::star_cluster;

    #[test]
    fn steps_are_sequential_and_overhead_is_per_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![
            vec![StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            }],
            vec![StepTransfer {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
            }],
        ];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 2);
        assert!((r.total_time_s - (2e-3 + 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn empty_steps_cost_nothing() {
        let net = star_cluster(4, 1e9, 0.0);
        let r = run_steps(&net, &[vec![]], 1e-6).unwrap();
        assert_eq!(r.total_time_s, 0.0);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let net = star_cluster(4, 1e9, 0.0);
        let r = run_steps(&net, &[], 1e-6).unwrap();
        assert_eq!(r.total_time_s, 0.0);
        assert!(r.step_times_s.is_empty());
    }

    #[test]
    fn single_step_matches_flow_closed_form() {
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![vec![StepTransfer {
            src: 0,
            dst: 1,
            bytes: 3_000_000,
        }]];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 1);
        assert!((r.total_time_s - (3e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn interior_empty_steps_keep_per_step_alignment() {
        // Campaign and differential consumers zip per-step times against
        // the schedule, so empty steps must keep their slot.
        let net = star_cluster(4, 1e9, 0.0);
        let steps = vec![
            vec![],
            vec![StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            }],
            vec![],
        ];
        let r = run_steps(&net, &steps, 1e-6).unwrap();
        assert_eq!(r.step_times_s.len(), 3);
        assert_eq!(r.step_times_s[0], 0.0);
        assert_eq!(r.step_times_s[2], 0.0);
        assert!((r.step_times_s[1] - (1e-3 + 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfers_are_skipped_but_pay_the_step_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        // Mixed step: the zero-byte transfer adds no serialization time.
        let mixed = vec![
            vec![
                StepTransfer {
                    src: 0,
                    dst: 1,
                    bytes: 0,
                },
                StepTransfer {
                    src: 2,
                    dst: 3,
                    bytes: 1_000_000,
                },
            ],
            // All-zero step: the launch overhead is still paid.
            vec![StepTransfer {
                src: 1,
                dst: 2,
                bytes: 0,
            }],
        ];
        let r = run_steps(&net, &mixed, 1e-6).unwrap();
        assert!((r.step_times_s[0] - (1e-3 + 1e-6)).abs() < 1e-9);
        assert!((r.step_times_s[1] - 1e-6).abs() < 1e-15);
    }

    /// Lower `steps` to the barrier-shaped DAG (every transfer gated on
    /// the whole previous non-empty step).
    fn barrier_dag(steps: &[Vec<StepTransfer>]) -> Vec<DagFlow> {
        let mut flows = Vec::new();
        let mut prev: Vec<usize> = Vec::new();
        for (stage, step) in steps.iter().enumerate() {
            let first = flows.len();
            for t in step {
                flows.push(DagFlow {
                    src: t.src,
                    dst: t.dst,
                    bytes: t.bytes,
                    release_s: 0.0,
                    deps: prev.clone(),
                    stage,
                });
            }
            if !step.is_empty() {
                prev = (first..flows.len()).collect();
            }
        }
        flows
    }

    #[test]
    fn barrier_dag_matches_run_steps_bit_exactly() {
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![
                StepTransfer {
                    src: 0,
                    dst: 1,
                    bytes: 1_000_000,
                },
                StepTransfer {
                    src: 0,
                    dst: 2,
                    bytes: 700_000,
                },
            ],
            vec![],
            vec![StepTransfer {
                src: 2,
                dst: 3,
                bytes: 2_000_000,
            }],
        ];
        let stepped = run_steps(&net, &steps, 5e-6).unwrap();
        let dag = run_dag(&net, &barrier_dag(&steps), 5e-6).unwrap();
        assert!(dag.barrier_fast_path);
        assert_eq!(dag.makespan_s.to_bits(), stepped.total_time_s.to_bits());
    }

    #[test]
    fn pipelined_dag_is_never_slower_than_the_barrier() {
        let net = star_cluster(8, 1e9, 0.0);
        let steps = vec![
            vec![StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            }],
            vec![StepTransfer {
                src: 2,
                dst: 3,
                bytes: 1_000_000,
            }],
        ];
        let barrier = run_steps(&net, &steps, 0.0).unwrap();
        // Drop the cross-step edge: the two disjoint transfers overlap.
        let mut flows = barrier_dag(&steps);
        flows[1].deps.clear();
        let dag = run_dag(&net, &flows, 0.0).unwrap();
        assert!(!dag.barrier_fast_path);
        assert!((dag.makespan_s - 1e-3).abs() < 1e-12);
        assert!(dag.makespan_s <= barrier.total_time_s);
    }

    #[test]
    fn event_driven_barrier_dag_agrees_with_fast_path() {
        let net = star_cluster(8, 1e9, 500e-9);
        let steps = vec![
            vec![
                StepTransfer {
                    src: 0,
                    dst: 1,
                    bytes: 1_000_000,
                },
                StepTransfer {
                    src: 2,
                    dst: 1,
                    bytes: 500_000,
                },
            ],
            vec![StepTransfer {
                src: 1,
                dst: 4,
                bytes: 1_500_000,
            }],
        ];
        let flows = barrier_dag(&steps);
        let fast = run_dag(&net, &flows, 5e-6).unwrap();
        let event = run_dag_event_driven(&net, &flows, 5e-6).unwrap();
        assert!(fast.barrier_fast_path && !event.barrier_fast_path);
        assert!(
            (fast.makespan_s - event.makespan_s).abs() / fast.makespan_s < 1e-9,
            "fast {} vs event {}",
            fast.makespan_s,
            event.makespan_s
        );
    }

    #[test]
    fn dag_release_times_gate_transfers() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![DagFlow {
            src: 0,
            dst: 1,
            bytes: 1_000_000,
            release_s: 2e-3,
            deps: vec![],
            stage: 0,
        }];
        let dag = run_dag(&net, &flows, 0.0).unwrap();
        assert!(!dag.barrier_fast_path);
        assert!((dag.makespan_s - 3e-3).abs() < 1e-12);
        assert!((dag.windows[0].0 - 2e-3).abs() < 1e-12);
    }

    /// Regression (review finding): with latency links and zero-byte
    /// gates, the fast path and the event engine must agree, every
    /// dependent's window must start at or after its dependency's finish,
    /// and no window may end past the makespan.
    #[test]
    fn zero_byte_gates_on_latency_links_keep_engines_and_causality_consistent() {
        let net = star_cluster(4, 1e9, 1e-6);
        let flows = vec![
            DagFlow {
                src: 0,
                dst: 1,
                bytes: 0,
                release_s: 0.0,
                deps: vec![],
                stage: 0,
            },
            DagFlow {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
                release_s: 0.0,
                deps: vec![0],
                stage: 1,
            },
        ];
        for overhead in [0.0, 5e-6] {
            let fast = run_dag(&net, &flows, overhead).unwrap();
            let event = run_dag_event_driven(&net, &flows, overhead).unwrap();
            assert!(fast.barrier_fast_path && !event.barrier_fast_path);
            for r in [&fast, &event] {
                assert!(
                    r.windows[1].0 >= r.windows[0].1 - 1e-15,
                    "dependent starts at {} before its gate finishes at {}",
                    r.windows[1].0,
                    r.windows[0].1
                );
                for &(_, finish) in &r.windows {
                    assert!(finish <= r.makespan_s + 1e-15);
                }
            }
            let scale = fast.makespan_s.max(1e-30);
            assert!(
                (fast.makespan_s - event.makespan_s).abs() / scale < 1e-9,
                "overhead {overhead}: fast {} vs event {}",
                fast.makespan_s,
                event.makespan_s
            );
        }
    }

    /// Regression (review finding): an unroutable zero-byte gate in a
    /// mixed stage must fail on the fast path exactly as it does in the
    /// event engine, not be silently accepted.
    #[test]
    fn fast_path_validates_zero_byte_routes_in_mixed_stages() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![
            DagFlow {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                release_s: 0.0,
                deps: vec![],
                stage: 0,
            },
            DagFlow {
                src: 2,
                dst: 2, // self-flow: unroutable
                bytes: 0,
                release_s: 0.0,
                deps: vec![],
                stage: 0,
            },
        ];
        let fast = run_dag(&net, &flows, 0.0);
        let event = run_dag_event_driven(&net, &flows, 0.0);
        assert_eq!(fast.unwrap_err(), crate::error::NetError::SelfFlow(2));
        assert_eq!(event.unwrap_err(), crate::error::NetError::SelfFlow(2));
    }

    #[test]
    fn zero_byte_dag_transfers_gate_but_cost_only_overhead() {
        let net = star_cluster(4, 1e9, 0.0);
        let flows = vec![
            DagFlow {
                src: 0,
                dst: 1,
                bytes: 0,
                release_s: 0.0,
                deps: vec![],
                stage: 0,
            },
            DagFlow {
                src: 1,
                dst: 2,
                bytes: 1_000_000,
                release_s: 0.0,
                deps: vec![0],
                stage: 1,
            },
        ];
        let dag = run_dag(&net, &flows, 1e-6).unwrap();
        // Zero-byte gate completes after its 1 us launch; the dependent
        // pays its own launch then 1 ms of serialization.
        assert!((dag.makespan_s - (2e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn the_runner_recovers_after_a_failed_engine_step() {
        use crate::graph::{Link, Router};
        // Host 0's uplink is dark. Two flows out of host 0 share it, so the
        // step runs on the engine and stalls mid-run; the engine's next
        // step must start from a clean state.
        let mut links = vec![
            Link {
                capacity_bps: 1e9,
                latency_s: 5e-7,
            };
            8
        ];
        links[0].capacity_bps = 0.0;
        let net = Network::from_parts(4, links, Router::Star);
        let stalled = [(0, 1), (0, 2)];
        let shared = [(1, 2), (1, 3), (2, 3)];
        let step = |pairs: &[(usize, usize)]| -> Vec<StepTransfer> {
            pairs
                .iter()
                .map(|&(src, dst)| StepTransfer {
                    src,
                    dst,
                    bytes: 1_000_000,
                })
                .collect()
        };
        let mut runner = StepRunner::new(&net, 0.0);
        assert!(matches!(
            runner.step(step(&stalled).into_iter()),
            Err(NetError::StalledFlow { .. })
        ));
        let flows: Vec<FlowSpec> = shared
            .iter()
            .map(|&(src, dst)| FlowSpec::new(src, dst, 1_000_000))
            .collect();
        let want = run_flows(&net, &flows).unwrap().makespan_s;
        for _ in 0..2 {
            let got = runner.step(step(&shared).into_iter()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn parallel_transfers_within_a_step() {
        let net = star_cluster(4, 1e9, 0.0);
        let step = vec![
            StepTransfer {
                src: 0,
                dst: 1,
                bytes: 1_000_000,
            },
            StepTransfer {
                src: 2,
                dst: 3,
                bytes: 1_000_000,
            },
        ];
        let r = run_steps(&net, &[step], 0.0).unwrap();
        assert!((r.total_time_s - 1e-3).abs() < 1e-9);
    }
}
