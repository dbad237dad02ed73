//! The traced run: the same campaign cells, driven through the public
//! functions of each layer (the calls `run_cell`, `run_stream_cell` and
//! `run_parallelism_cell` make), with a span timed around every call.
//!
//! Spans stay in memory and are written as Chrome trace-event JSON when
//! the run ends. The event kernel runs inside the engine spans and cannot
//! be separated from outside the program: `kernel.*` figures are the
//! events the engines report over the time of the spans that reported them.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use optical_sim::sim::StepSchedule;
use optical_sim::OpticalConfig;
use wrht_bench::campaign::{
    config_hash, parallelism_config_hash, stream_config_hash, to_csv, Algorithm, CampaignReport,
    CellConfig, CellResult, ParCellConfig, ParCellResult, ParallelismCampaignReport,
    StreamCampaignReport, StreamCellConfig, StreamCellResult,
};
use wrht_bench::campaign::{parallelism_to_csv, stream_to_csv};
use wrht_bench::config::{ExperimentConfig, SubstrateKind};
use wrht_bench::report::to_json;
use wrht_bench::timeline::timeline_buckets;
use wrht_core::baselines::lower_collective_to_optical;
use wrht_core::dag::{DepSchedule, ExecMode};
use wrht_core::error::{Result, WrhtError};
use wrht_core::hierarchy::Domain;
use wrht_core::lower::to_optical_schedule;
use wrht_core::parallelism::{lower_parallelism, ParallelismSpec, StageModel};
use wrht_core::stream::{ArrivalProcess, StreamReport, StreamSpec, StreamTemplate};
use wrht_core::substrate::{OpticalSubstrate, RunReport, Substrate as _};
use wrht_core::tenancy::JobWorkload;
use wrht_core::{
    build_plan, candidate_plans, choose_group_size, GroupSize, StopPolicy, WrhtParams, WrhtPlan,
};

use crate::stats;
use crate::workload::{self, Report, Spec, Workload};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Grid index of the cell the span belongs to.
    pub cell: Option<usize>,
    /// Counts recorded at the span's boundary (transfers, events, ...).
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    #[must_use]
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<usize>,
}

/// The benchmark's clock: the one place it reads host time.
#[allow(clippy::disallowed_methods)]
#[must_use]
pub fn now() -> Instant {
    Instant::now()
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Record a count on the most recently started span.
    pub fn note(&mut self, key: &'static str, value: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.args.push((key, value));
        }
    }

    /// Run cell `id` under a `cell` span; `None` if it panicked (spans the
    /// panic left open are closed).
    pub fn cell<R>(&mut self, id: usize, f: impl FnOnce(&mut Self) -> R) -> Option<R> {
        let depth = self.open.len();
        self.cell = Some(id);
        self.begin("cell");
        let r = catch_unwind(AssertUnwindSafe(|| f(self)));
        while self.open.len() > depth {
            self.end();
        }
        self.cell = None;
        r.ok()
    }

    /// Per span, its duration minus the part its children cover.
    #[must_use]
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s();
            }
        }
        own
    }

    /// Spans that do not lie inside their parent, or whose cell differs
    /// from their parent's.
    #[must_use]
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent.is_some_and(|p| {
                    let p = &self.spans[p];
                    s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.cell != p.cell
                })
            })
            .count()
    }

    /// Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = format!("\"id\":{i}");
                if let Some(p) = s.parent {
                    args.push_str(&format!(",\"parent\":{p}"));
                }
                if let Some(c) = s.cell {
                    args.push_str(&format!(",\"cell\":{c}"));
                }
                for (k, v) in &s.args {
                    args.push_str(&format!(",\"{k}\":{v}"));
                }
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

// ---- layer calls -------------------------------------------------------

/// `choose_group_size` under an `optimizer` span.
fn optimize(
    t: &mut Tracer,
    params: &WrhtParams,
    config: &OpticalConfig,
    bytes: u64,
) -> Result<(usize, WrhtPlan)> {
    let r = t.span("optimizer", || choose_group_size(params, config, bytes));
    t.note("calls", 1.0);
    t.note(
        "candidates",
        params.max_group_size().saturating_sub(1) as f64,
    );
    r.map(|(m, plan, _)| (m, plan))
}

/// `plan_and_simulate`'s plan choice for a fixed group size.
fn plan_fixed(
    t: &mut Tracer,
    params: &WrhtParams,
    config: &OpticalConfig,
    bytes: u64,
    m: usize,
) -> Result<WrhtPlan> {
    let r = t.span("optimizer", || {
        let plans = match params.stop_policy {
            StopPolicy::EarliestFeasible => build_plan(params.n, m, params.wavelengths)
                .map(|p| vec![p])
                .unwrap_or_default(),
            StopPolicy::BestDepth => {
                candidate_plans(params.n, m, params.wavelengths).unwrap_or_default()
            }
        };
        let considered = plans.len();
        let best = plans.into_iter().min_by(|a, b| {
            let ca = wrht_core::cost::predict_time_s(a, config, bytes).total_s();
            let cb = wrht_core::cost::predict_time_s(b, config, bytes).total_s();
            ca.total_cmp(&cb)
        });
        let plan = match best {
            Some(plan) => Ok(plan),
            None => {
                build_plan(params.n, m, params.wavelengths).and(Err(WrhtError::NoFeasiblePlan {
                    n: params.n,
                    wavelengths: params.wavelengths,
                }))
            }
        };
        (plan, considered)
    });
    t.note("calls", 1.0);
    t.note("candidates", r.1 as f64);
    r.0
}

/// The campaign's `wrht_plan`: a fixed group size, or the optimizer's
/// choice against the optical cost model.
fn wrht_plan(t: &mut Tracer, cell: &CellConfig, local: &ExperimentConfig) -> Result<WrhtPlan> {
    match cell.group_size {
        Some(m) => {
            let r = t.span("optimizer", || build_plan(cell.n, m, cell.wavelengths));
            t.note("calls", 1.0);
            t.note("candidates", 1.0);
            r
        }
        None => optimize(
            t,
            &WrhtParams::auto(cell.n, cell.wavelengths),
            &local.optical(cell.n),
            cell.gradient_bytes,
        )
        .map(|(_, plan)| plan),
    }
}

/// `to_optical_schedule` under a `lower` span.
fn lower_plan(t: &mut Tracer, plan: &WrhtPlan, bytes: u64) -> StepSchedule {
    let s = t.span("lower", || to_optical_schedule(plan, bytes));
    t.note("transfers", s.transfer_count() as f64);
    s
}

/// A classic collective (`collectives` span) lowered to the substrate IR
/// (`lower` span).
fn collective(
    t: &mut Tracer,
    cfg: &ExperimentConfig,
    algorithm: Algorithm,
    n: usize,
    bytes: u64,
) -> StepSchedule {
    let elems = (bytes as usize).div_ceil(cfg.bytes_per_elem);
    let schedule = t.span("collectives", || match algorithm {
        Algorithm::Ring => ring_allreduce(n, elems),
        Algorithm::RecursiveDoubling => recursive_doubling(n, elems),
        Algorithm::HalvingDoubling => halving_doubling(n, elems),
        Algorithm::Tree => binomial_tree(n, elems),
        Algorithm::Wrht => unreachable!("Wrht lowers through its plan"),
    });
    let transfers: usize = schedule.steps.iter().map(|s| s.transfers.len()).sum();
    t.note("transfers", transfers as f64);
    let s = t.span("lower", || {
        lower_collective_to_optical(&schedule, cfg.bytes_per_elem, 1)
    });
    t.note("transfers", s.transfer_count() as f64);
    s
}

fn stepped_layer(kind: SubstrateKind) -> &'static str {
    match kind {
        SubstrateKind::Optical => "optical.stepped",
        SubstrateKind::Electrical => "electrical.stepped",
    }
}

fn dag_layer(kind: SubstrateKind) -> &'static str {
    match kind {
        SubstrateKind::Optical => "optical.grant",
        SubstrateKind::Electrical => "electrical.dag",
    }
}

fn stream_layer(kind: SubstrateKind) -> &'static str {
    match kind {
        SubstrateKind::Optical => "stream.optical",
        SubstrateKind::Electrical => "stream.electrical",
    }
}

/// Step and transfer counts of a stepped run, on its span.
fn note_stepped(t: &mut Tracer, report: &Result<RunReport>) {
    if let Ok(r) = report {
        t.note("steps", r.step_count() as f64);
        t.note("transfers", r.transfer_count() as f64);
    }
}

fn summarize(r: &RunReport) -> (f64, usize, u64, usize) {
    (
        r.total_time_s,
        r.step_count(),
        r.total_bytes(),
        r.peak_wavelengths(),
    )
}

// ---- traced cells ------------------------------------------------------

/// `run_cell`, one layer call at a time.
fn sweep_cell(t: &mut Tracer, base: &ExperimentConfig, seed: u64, cell: &CellConfig) -> CellResult {
    let hash = config_hash(cell);
    let mut result = CellResult {
        cell: cell.clone(),
        config_hash: hash,
        seed: seed ^ hash,
        time_s: 0.0,
        steps: 0,
        total_bytes: 0,
        peak_wavelengths: 0,
        wrht_m: 0,
        error: None,
    };
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;
    let bytes = cell.gradient_bytes;

    let outcome: Result<(f64, usize, u64, usize)> = match (cell.mode, cell.algorithm) {
        (ExecMode::Barrier, Algorithm::Wrht) => match cell.substrate {
            // `plan_and_simulate`: plan, lower, run on a First-Fit ring.
            SubstrateKind::Optical => {
                let params = match cell.group_size {
                    Some(m) => WrhtParams::fixed(cell.n, cell.wavelengths, m),
                    None => WrhtParams::auto(cell.n, cell.wavelengths),
                };
                let config = local.optical(cell.n);
                let planned = match params.group_size {
                    GroupSize::Fixed(m) => {
                        plan_fixed(t, &params, &config, bytes, m).map(|p| (m, p))
                    }
                    GroupSize::Auto => optimize(t, &params, &config, bytes),
                };
                planned.and_then(|(m, plan)| {
                    let sched = lower_plan(t, &plan, bytes);
                    let report = t.span("optical.stepped", || {
                        OpticalSubstrate::new(config.clone())?.execute(&sched)
                    });
                    note_stepped(t, &report);
                    result.wrht_m = m;
                    Ok(summarize(&report?))
                })
            }
            SubstrateKind::Electrical => wrht_plan(t, cell, &local).and_then(|plan| {
                result.wrht_m = plan.m;
                let sched = lower_plan(t, &plan, bytes);
                let layer = stepped_layer(cell.substrate);
                let report = t.span(layer, || {
                    local
                        .try_substrate(cell.substrate, cell.n, cell.strategy)?
                        .execute(&sched)
                });
                note_stepped(t, &report);
                Ok(summarize(&report?))
            }),
        },
        (ExecMode::Barrier, algorithm) => {
            let layer = stepped_layer(cell.substrate);
            t.span(layer, || {
                local.try_substrate(cell.substrate, cell.n, cell.strategy)
            })
            .and_then(|mut substrate| {
                let sched = collective(t, &local, algorithm, cell.n, bytes);
                let report = t.span(layer, || substrate.execute(&sched));
                note_stepped(t, &report);
                Ok(summarize(&report?))
            })
        }
        (ExecMode::Pipelined, algorithm) => {
            let schedule = match algorithm {
                Algorithm::Wrht => wrht_plan(t, cell, &local).map(|plan| {
                    result.wrht_m = plan.m;
                    lower_plan(t, &plan, bytes)
                }),
                _ => Ok(collective(t, &local, algorithm, cell.n, bytes)),
            };
            schedule.and_then(|schedule| {
                let dag = t.span("lower", || DepSchedule::pipelined_from_steps(&schedule));
                t.note("dag_edges", dag.edge_count() as f64);
                let layer = dag_layer(cell.substrate);
                let report = t.span(layer, || {
                    local
                        .try_substrate(cell.substrate, cell.n, cell.strategy)?
                        .execute_dag(&dag)
                });
                if let Ok(r) = &report {
                    t.note("events", r.events as f64);
                    t.note("rate_recomputations", r.rate_recomputations as f64);
                    t.note("solver_work", r.solver_work as f64);
                }
                let report = report?;
                Ok((
                    report.makespan_s,
                    schedule.len(),
                    schedule.total_bytes(),
                    report.peak_wavelength,
                ))
            })
        }
    };

    match outcome {
        Ok((time_s, steps, total_bytes, peak_wavelengths)) => {
            result.time_s = time_s;
            result.steps = steps;
            result.total_bytes = total_bytes;
            result.peak_wavelengths = peak_wavelengths;
        }
        Err(e) => result.error = Some(e.to_string()),
    }
    result
}

/// `wrht_bench::timeline::lower_allreduce`, one layer call at a time.
fn lower_allreduce(
    t: &mut Tracer,
    cfg: &ExperimentConfig,
    algorithm: Algorithm,
    n: usize,
    bytes: u64,
) -> Result<StepSchedule> {
    if let Algorithm::Wrht = algorithm {
        let (_, plan) = optimize(
            t,
            &WrhtParams::auto(n, cfg.wavelengths),
            &cfg.optical(n),
            bytes,
        )?;
        return Ok(lower_plan(t, &plan, bytes));
    }
    Ok(collective(t, cfg, algorithm, n, bytes))
}

/// `run_stream_cell`, one layer call at a time.
fn stream_cell(
    t: &mut Tracer,
    base: &ExperimentConfig,
    seed: u64,
    cell: &StreamCellConfig,
) -> StreamCellResult {
    let hash = stream_config_hash(cell);
    let mut result = StreamCellResult {
        cell: cell.clone(),
        config_hash: hash,
        seed: seed ^ hash,
        arrivals: 0,
        admitted: 0,
        rejected: 0,
        completed: 0,
        makespan_s: 0.0,
        events: 0,
        mean_utilization: 0.0,
        mean_slowdown: 0.0,
        slowdown_p50: 0.0,
        slowdown_p99: 0.0,
        slowdown_p999: 0.0,
        fairness_index: 0.0,
        peak_queue_depth: 0,
        peak_in_service: 0,
        windows: 0,
        error: None,
    };
    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: Result<StreamReport> = (|| {
        let buckets = timeline_buckets(&model, cell.bucket_bytes);
        let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
        for b in &buckets {
            let schedule = lower_allreduce(t, &local, cell.algorithm, cell.n, b.bytes)?;
            lowered.push((b.ready_s, schedule));
        }
        let spec = StreamSpec::new(
            ArrivalProcess::Poisson {
                rate_hz: cell.rate_hz,
                count: cell.arrivals,
                seed: seed ^ hash,
            },
            cell.policy,
        )
        .with_template(
            StreamTemplate::new(
                format!("{}-hi", model.name),
                JobWorkload::Buckets(lowered.clone()),
            )
            .with_priority(2),
        )
        .with_template(
            StreamTemplate::new(format!("{}-lo", model.name), JobWorkload::Buckets(lowered))
                .with_priority(1),
        )
        .with_admission(cell.admission)
        .with_window(cell.window_s)
        .with_reference_bps(local.lambda_bandwidth_bps * cell.wavelengths as f64);
        let layer = stream_layer(cell.substrate);
        let report = t.span(layer, || {
            local
                .try_substrate(cell.substrate, cell.n, cell.strategy)?
                .execute_stream(&spec)
        });
        if let Ok(r) = &report {
            t.note("events", r.events as f64);
            t.note("arrivals", r.arrivals as f64);
            t.note("admitted", r.admitted as f64);
            t.note("rejected", r.rejected as f64);
        }
        report
    })();

    match outcome {
        Ok(report) => {
            result.arrivals = report.arrivals;
            result.admitted = report.admitted;
            result.rejected = report.rejected;
            result.completed = report.completed;
            result.makespan_s = report.makespan_s;
            result.events = report.events;
            result.mean_utilization = report.mean_utilization;
            result.mean_slowdown = report.mean_slowdown;
            result.slowdown_p50 = report.slowdown.p50;
            result.slowdown_p99 = report.slowdown.p99;
            result.slowdown_p999 = report.slowdown.p999;
            result.fairness_index = report.fairness_index;
            result.peak_queue_depth = report.peak_queue_depth;
            result.peak_in_service = report.peak_in_service;
            result.windows = report.windows.len();
            result.error = None;
        }
        Err(e) => result.error = Some(e.to_string()),
    }
    result
}

/// `run_parallelism_cell`, one layer call at a time.
fn par_cell(
    t: &mut Tracer,
    base: &ExperimentConfig,
    seed: u64,
    cell: &ParCellConfig,
) -> ParCellResult {
    let hash = parallelism_config_hash(cell);
    let mut result = ParCellResult {
        cell: cell.clone(),
        config_hash: hash,
        seed: seed ^ hash,
        nodes: 0,
        groups: 0,
        transfers: 0,
        intra_transfers: 0,
        inter_transfers: 0,
        intra_bytes: 0,
        inter_bytes: 0,
        makespan_s: 0.0,
        peak_wavelength: 0,
        rate_recomputations: 0,
        solver_work: 0,
        events: 0,
        error: None,
    };
    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: Result<()> = (|| {
        let spec = ParallelismSpec::new(
            cell.tp,
            cell.pp,
            cell.dp,
            cell.moe_experts,
            cell.microbatches,
        )?;
        let stages = StageModel::split(model.gradient_bytes(), cell.pp, cell.activation_bytes);
        let dag = t.span("parallelism", || lower_parallelism(&spec, &stages))?;
        t.note("transfers", dag.len() as f64);
        let hier = spec.hier()?;
        let domains = t.span("hierarchy", || hier.domains(&dag))?;
        for (tr, d) in dag.transfers().iter().zip(&domains) {
            match d {
                Domain::Intra { .. } => {
                    result.intra_transfers += 1;
                    result.intra_bytes += tr.transfer.bytes;
                }
                Domain::Inter => {
                    result.inter_transfers += 1;
                    result.inter_bytes += tr.transfer.bytes;
                }
            }
        }
        let report = t.span("hierarchy", || {
            local.try_composed(hier, cell.strategy)?.execute_dag(&dag)
        })?;
        t.note("events", report.events as f64);
        t.note("transfers", dag.len() as f64);
        t.note("inter_transfers", result.inter_transfers as f64);
        result.nodes = spec.nodes();
        result.groups = spec.groups();
        result.transfers = dag.len();
        result.makespan_s = report.makespan_s;
        result.peak_wavelength = report.peak_wavelength;
        result.rate_recomputations = report.rate_recomputations;
        result.solver_work = report.solver_work;
        result.events = report.events;
        Ok(())
    })();

    if let Err(e) = outcome {
        result.error = Some(e.to_string());
    }
    result
}

// ---- traced campaign ---------------------------------------------------

/// The campaign context `run_*_campaign` mixes into every sink key: the
/// shared physics and the campaign seed.
fn context_hash(base: &ExperimentConfig, seed: u64) -> u64 {
    let base = serde_json::to_string(base).expect("experiment configs serialize");
    stats::digest(format!("{base}#{seed}").as_bytes())
}

/// What a sink row must match to be reloaded instead of recomputed.
trait Keyed<C> {
    fn matches(&self, cell: &C, hash: u64, seed: u64) -> bool;
}

impl Keyed<CellConfig> for CellResult {
    fn matches(&self, cell: &CellConfig, hash: u64, seed: u64) -> bool {
        self.cell == *cell && self.config_hash == hash && self.seed == seed ^ hash
    }
}

impl Keyed<StreamCellConfig> for StreamCellResult {
    fn matches(&self, cell: &StreamCellConfig, hash: u64, seed: u64) -> bool {
        self.cell == *cell && self.config_hash == hash && self.seed == seed ^ hash
    }
}

impl Keyed<ParCellConfig> for ParCellResult {
    fn matches(&self, cell: &ParCellConfig, hash: u64, seed: u64) -> bool {
        self.cell == *cell && self.config_hash == hash && self.seed == seed ^ hash
    }
}

/// The campaign loop of `run_*_campaign` with one worker: probe the sink
/// for a finished cell (read, parse and check it as `load_finished`
/// does), run the cell if there is none, persist its row. Panicked cells
/// are `None`.
fn campaign<C, R: serde::Serialize + serde::Deserialize + Keyed<C>>(
    t: &mut Tracer,
    cells: &[C],
    (base, seed): (&ExperimentConfig, u64),
    sink: &Path,
    prefix: &str,
    hash: impl Fn(&C) -> u64,
    run: impl Fn(&mut Tracer, &C) -> R,
) -> Vec<Option<R>> {
    let ctx = context_hash(base, seed);
    let mut out = Vec::with_capacity(cells.len());
    for (i, c) in cells.iter().enumerate() {
        let h = hash(c);
        let path = sink.join(format!("{prefix}-{:016x}.json", h ^ ctx));
        let finished = t.span("campaign", || {
            let text = fs::read_to_string(&path).ok()?;
            let row: R = serde_json::from_str(&text).ok()?;
            row.matches(c, h, seed).then_some(row)
        });
        if finished.is_some() {
            out.push(finished);
            continue;
        }
        let r = t.cell(i, |t| run(t, c));
        if let Some(r) = &r {
            t.span("campaign", || fs::write(&path, to_json(r)))
                .unwrap_or_else(|e| eprintln!("warning: could not persist cell {i}: {e}"));
        }
        out.push(r);
    }
    out
}

fn persist_combined(t: &mut Tracer, sink: &Path, name: &str, json: String, csv: String) {
    t.span("campaign", || {
        let _ = fs::write(sink.join(format!("{name}.json")), json);
        let _ = fs::write(sink.join(format!("{name}.csv")), csv);
    });
}

/// A finished traced run.
pub struct Traced {
    pub tracer: Tracer,
    /// `None` when a cell panicked (the report stage did not run).
    pub report: Option<Report>,
    pub panicked: usize,
    pub wall_s: f64,
}

fn complete<R>(rows: Vec<Option<R>>, panicked: &mut usize) -> Option<Vec<R>> {
    *panicked = rows.iter().filter(|r| r.is_none()).count();
    rows.into_iter().collect()
}

/// Set the workload up and run every cell through the traced driver,
/// then the campaign's combined writes and the report stage.
///
/// # Errors
/// Fails when the sink cannot be created.
pub fn run(w: Workload, seed: u64, sink: &Path) -> std::io::Result<Traced> {
    let t0 = now();
    let mut t = Tracer::new();
    let spec = t.span("setup", || {
        let spec = workload::setup(w, seed);
        fs::create_dir_all(sink).map(|()| spec)
    })?;
    let mut panicked = 0;
    let report = match &spec {
        Spec::Sweep { spec: s, .. } | Spec::Scale(s) => {
            let rows = campaign(
                &mut t,
                &s.cells,
                (&s.base, s.seed),
                sink,
                "cell",
                config_hash,
                |t, c| sweep_cell(t, &s.base, s.seed, c),
            );
            complete(rows, &mut panicked).map(|results| {
                let report = CampaignReport {
                    name: s.name.clone(),
                    results,
                };
                persist_combined(&mut t, sink, &s.name, to_json(&report), to_csv(&report));
                match &spec {
                    Spec::Sweep { models, .. } => {
                        let headline = t.span("report", || {
                            workload::report_sweep(&report.results, models, &s.base, sink)
                        });
                        Report::Sweep { report, headline }
                    }
                    _ => Report::Scale(report),
                }
            })
        }
        Spec::Serve(s) => {
            let rows = campaign(
                &mut t,
                &s.cells,
                (&s.base, s.seed),
                sink,
                "scell",
                stream_config_hash,
                |t, c| stream_cell(t, &s.base, s.seed, c),
            );
            complete(rows, &mut panicked).map(|results| {
                let report = StreamCampaignReport {
                    name: s.name.clone(),
                    results,
                };
                let csv = stream_to_csv(&report);
                persist_combined(&mut t, sink, &s.name, to_json(&report), csv);
                t.span("report", || workload::report_serve(&report.results, sink));
                Report::Serve(report)
            })
        }
        Spec::Hier(s) => {
            let rows = campaign(
                &mut t,
                &s.cells,
                (&s.base, s.seed),
                sink,
                "pcell",
                parallelism_config_hash,
                |t, c| par_cell(t, &s.base, s.seed, c),
            );
            complete(rows, &mut panicked).map(|results| {
                let report = ParallelismCampaignReport {
                    name: s.name.clone(),
                    results,
                };
                let csv = parallelism_to_csv(&report);
                persist_combined(&mut t, sink, &s.name, to_json(&report), csv);
                t.span("report", || workload::report_hier(&report.results, sink));
                Report::Hier(report)
            })
        }
    };
    Ok(Traced {
        tracer: t,
        report,
        panicked,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

// ---- per-layer metrics -------------------------------------------------

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A layer of the program as the traced driver sees it: the spans timed
/// around its public calls, the counts noted on them, and the end-to-end
/// metric the layer should move, on which workload.
pub struct Layer {
    pub module: &'static str,
    pub prefix: &'static str,
    pub spans: &'static [&'static str],
    /// `(metric suffix, span arg)` sums.
    pub counts: &'static [(&'static str, &'static str)],
    pub moves: &'static str,
}

/// Every layer the traced run attributes time to. The stream driver and
/// the engine it drives share the `stream.*` spans, so those count towards
/// `stream` and towards the fabric's engine layer.
pub const LAYERS: [Layer; 11] = [
    Layer {
        module: "collectives",
        prefix: "collectives",
        spans: &["collectives"],
        counts: &[("transfers", "transfers")],
        moves: "wall_s on fig2-sweep (small share)",
    },
    Layer {
        module: "core.lower",
        prefix: "lower",
        spans: &["lower"],
        counts: &[("transfers", "transfers"), ("dag_edges", "dag_edges")],
        moves: "wall_s, peak_rss_mib on fig2-sweep",
    },
    Layer {
        module: "core.optimizer",
        prefix: "optimizer",
        spans: &["optimizer"],
        counts: &[("calls", "calls"), ("candidates", "candidates")],
        moves: "wall_s on wrht-scale (most of it) and serve; a small share of fig2-sweep",
    },
    Layer {
        module: "optical-sim stepped",
        prefix: "optical.stepped",
        spans: &["optical.stepped"],
        counts: &[("steps", "steps"), ("transfers", "transfers")],
        moves: "wall_s on fig2-sweep; a little on wrht-scale",
    },
    Layer {
        module: "optical-sim grant engine",
        prefix: "optical.grant",
        spans: &["optical.grant", "stream.optical"],
        counts: &[("events", "events")],
        moves: "wall_s on serve",
    },
    Layer {
        module: "electrical-sim stepped",
        prefix: "electrical.stepped",
        spans: &["electrical.stepped"],
        counts: &[("steps", "steps"), ("flows", "transfers")],
        moves: "wall_s on fig2-sweep; little on wrht-scale",
    },
    Layer {
        module: "electrical-sim event engine",
        prefix: "electrical.dag",
        spans: &["electrical.dag", "stream.electrical"],
        counts: &[
            ("events", "events"),
            ("rate_recomputations", "rate_recomputations"),
            ("solver_work", "solver_work"),
        ],
        moves: "wall_s on fig2-sweep (pipelined cell) and serve",
    },
    Layer {
        module: "core.stream",
        prefix: "stream",
        spans: &["stream.optical", "stream.electrical"],
        counts: &[("arrivals", "arrivals"), ("rejected", "rejected")],
        moves: "wall_s on serve",
    },
    Layer {
        module: "core.parallelism",
        prefix: "parallelism",
        spans: &["parallelism"],
        counts: &[("transfers", "transfers")],
        moves: "wall_s on hier-parallelism",
    },
    Layer {
        module: "core.hierarchy",
        prefix: "hierarchy",
        spans: &["hierarchy"],
        counts: &[("events", "events")],
        moves: "wall_s on hier-parallelism",
    },
    Layer {
        module: "bench.report",
        prefix: "report",
        spans: &["report"],
        counts: &[],
        moves: "wall_s on fig2-sweep",
    },
];

/// What the per-layer metrics read besides the trace.
pub struct Context {
    pub untraced_wall_s: f64,
    pub sink_bytes: u64,
    pub cells: usize,
    pub infeasible: usize,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run, in a fixed order.
#[must_use]
pub fn layer_metrics(traced: &Traced, cx: &Context) -> Vec<Metric> {
    let t = &traced.tracer;
    let own = t.self_times();
    let arg = |spans: &[&str], key: &str| -> f64 {
        t.spans
            .iter()
            .filter(|s| spans.contains(&s.name))
            .flat_map(|s| s.args.iter())
            .filter(|(k, _)| *k == key)
            .fold(0.0, |acc, (_, v)| acc + v)
    };
    let busy = |spans: &[&str]| -> f64 {
        t.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| spans.contains(&s.name))
            .fold(0.0, |acc, (_, o)| acc + o)
    };
    let dur = |name: &str| -> f64 {
        t.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s())
    };

    let mut out = Vec::new();
    for layer in &LAYERS {
        out.push(metric(
            format!("{}.busy_s", layer.prefix),
            busy(layer.spans),
            "s",
        ));
        for (suffix, key) in layer.counts {
            out.push(metric(
                format!("{}.{suffix}", layer.prefix),
                arg(layer.spans, key),
                "count",
            ));
        }
        match layer.prefix {
            "stream" => out.push(metric(
                "stream.admitted_ratio",
                ratio(arg(layer.spans, "admitted"), arg(layer.spans, "arrivals")),
                "share",
            )),
            "hierarchy" => out.push(metric(
                "hierarchy.inter_share",
                ratio(
                    arg(layer.spans, "inter_transfers"),
                    arg(layer.spans, "transfers"),
                ),
                "share",
            )),
            _ => {}
        }
    }

    let (events, event_s) = t
        .spans
        .iter()
        .filter_map(|s| {
            s.args
                .iter()
                .find(|(k, _)| *k == "events")
                .map(|(_, v)| (*v, s.dur_s()))
        })
        .fold((0.0, 0.0), |(e, d), (v, s)| (e + v, d + s));
    out.push(metric("kernel.events", events, "count"));
    out.push(metric("kernel.events_per_s", ratio(events, event_s), "1/s"));

    let cell_ms: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.dur_s() * 1e3)
        .collect();
    let tail = stats::tail(&cell_ms);
    let cells_s = dur("cell");
    out.push(metric(
        "campaign.overhead_s",
        traced.wall_s - dur("setup") - cells_s - dur("report"),
        "s",
    ));
    out.push(metric("campaign.sink_bytes", cx.sink_bytes as f64, "B"));
    out.push(metric("campaign.cells", cx.cells as f64, "count"));
    out.push(metric("campaign.infeasible", cx.infeasible as f64, "count"));
    out.push(metric(
        "campaign.cell_p50_ms",
        stats::median(&cell_ms),
        "ms",
    ));
    out.push(metric(
        "campaign.cell_tail_ms",
        tail.map_or(0.0, |t| t.value),
        "ms",
    ));
    out.push(metric(
        "campaign.cell_tail_pct",
        tail.map_or(0.0, |t| f64::from(t.pct)),
        "%",
    ));
    out.push(metric(
        "campaign.cell_samples",
        cell_ms.len() as f64,
        "count",
    ));
    out.push(metric("cell.glue_s", busy(&["cell"]), "s"));
    out.push(metric("trace.wall_s", traced.wall_s, "s"));
    out.push(metric("trace.untraced_wall_s", cx.untraced_wall_s, "s"));
    out.push(metric(
        "trace.overhead_s",
        traced.wall_s - cx.untraced_wall_s,
        "s",
    ));
    out.push(metric("trace.spans", t.spans.len() as f64, "count"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrht_bench::campaign::{run_campaign, CampaignSpec};

    #[test]
    fn the_traced_loop_reloads_the_rows_run_campaign_wrote() {
        let sink = std::env::temp_dir().join(format!("perfbench-keys-{}", std::process::id()));
        let mut spec = CampaignSpec::grid(
            "keys",
            ExperimentConfig::default(),
            &[("tiny", 1 << 20)],
            &[8, 16],
            &[4],
            &[Algorithm::Ring, Algorithm::Wrht],
            &[SubstrateKind::Optical],
        );
        spec.seed = 7;
        let written = run_campaign(&spec, 1, Some(&sink));
        let mut t = Tracer::new();
        let rows = campaign(
            &mut t,
            &spec.cells,
            (&spec.base, spec.seed),
            &sink,
            "cell",
            config_hash,
            |_, _| -> CellResult { panic!("a finished cell ran again") },
        );
        let _ = fs::remove_dir_all(&sink);
        let reloaded: Vec<CellResult> = rows.into_iter().map(Option::unwrap).collect();
        assert_eq!(to_json(&reloaded), to_json(&written.results));
        assert!(t.spans.iter().all(|s| s.name == "campaign"));
        assert_eq!(t.spans.len(), spec.cells.len());
    }
}
