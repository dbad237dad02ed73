//! The parallel campaign-sweep engine.
//!
//! A *campaign* is a declarative grid of experiment cells — node count ×
//! wavelength budget × DNN model × algorithm × RWA strategy × substrate —
//! executed through the unified [`Substrate`](wrht_core::substrate::Substrate)
//! API. Every experiment axis (the Figure-2 sweep, training timelines,
//! tenancy, faults, open-loop streams and mixed parallelism) is one cell
//! type implementing [`Axis`]: how a cell runs, the row it produces, the
//! prefix of its sink files and its CSV columns. One engine serves them all:
//!
//! * [`Campaign`] holds the cells, [`Report`] the rows, in grid order;
//! * every cell is identified by a stable FNV-1a [`config_hash`] and seeded
//!   deterministically from `campaign seed ⊕ cell hash`;
//! * [`run_campaign`] fans cells out over [`std::thread::scope`] workers
//!   pulling chunks from a shared atomic cursor (chunked work-stealing), yet
//!   the collected rows are ordered by grid position, so a parallel run
//!   serializes byte-identically to a serial one;
//! * an optional **sink** directory receives one JSON file per finished
//!   cell (keyed by the config hash) plus combined JSON/CSV tables;
//!   interrupted campaigns resume by reloading finished cells from the sink
//!   instead of recomputing them;
//! * infeasible cells (e.g. Wrht under a starved wavelength budget) record
//!   their error string instead of aborting the sweep;
//! * [`to_csv`] derives both the header and every row from the axis's
//!   column table.
//!
//! Figure 2 ([`run_fig2`]) and the `train` table (`From<&TimelineCellResult>`
//! for [`TimelineRow`]) are read off campaign rows, so every paper number
//! comes out of this engine.
//!
//! ```
//! use wrht_bench::campaign::{run_campaign, Algorithm, CampaignSpec};
//! use wrht_bench::config::{ExperimentConfig, SubstrateKind};
//!
//! let spec = CampaignSpec::grid(
//!     "doc",
//!     ExperimentConfig::small(),
//!     &[("tiny", 1 << 20)],
//!     &[8],
//!     &[4],
//!     &[Algorithm::Ring],
//!     &[SubstrateKind::Optical, SubstrateKind::Electrical],
//! );
//! let report = run_campaign(&spec, 1, None);
//! assert_eq!(report.results.len(), 2);
//! assert!(report.results.iter().all(|r| r.error.is_none()));
//! ```

use crate::config::{ExperimentConfig, SubstrateKind};
use crate::fig2::{Fig2Row, Fig2Series};
use crate::report::to_json;
use crate::timeline::{iteration_model, lower_allreduce, timeline_buckets, TimelineRow};
use dnn_models::Model;
use optical_sim::sim::StepSchedule;
use optical_sim::Strategy;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wrht_core::dag::{DepSchedule, ExecMode};
use wrht_core::fault::{
    fault_cluster_report, FaultClusterReport, FaultKind, FaultPolicy, FaultScript,
};
use wrht_core::hierarchy::Domain;
use wrht_core::lower::to_optical_schedule;
use wrht_core::parallelism::{lower_parallelism, ParallelismSpec, StageModel};
use wrht_core::stream::{Admission, ArrivalProcess, StreamReport, StreamSpec, StreamTemplate};
use wrht_core::substrate::Substrate as _;
use wrht_core::tenancy::{Job, JobWorkload, SchedPolicy, TenancySpec};
use wrht_core::{build_plan, choose_group_size, plan_and_simulate, WrhtParams};

/// The collective algorithm a cell times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Patarasuk–Yuan ring all-reduce (E-Ring electrically, O-Ring optically).
    Ring,
    /// Recursive doubling.
    RecursiveDoubling,
    /// Rabenseifner halving-doubling.
    HalvingDoubling,
    /// Binomial tree reduce + broadcast.
    Tree,
    /// The paper's wavelength-reused hierarchical tree.
    Wrht,
}

impl Algorithm {
    /// Stable lowercase label used in hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::RecursiveDoubling => "rd",
            Algorithm::HalvingDoubling => "hd",
            Algorithm::Tree => "tree",
            Algorithm::Wrht => "wrht",
        }
    }
}

/// One CSV column of an axis: its header and a row's value in it.
pub type Column<R> = (&'static str, fn(&R) -> String);

/// One experiment axis: a cell configuration that runs itself into a row.
///
/// Adding an axis takes one impl of this trait (plus a `Campaign::grid`
/// for its cells); hashing, seeding, the parallel runner, sink resume and
/// CSV rendering come from the generic engine.
pub trait Axis: Clone + PartialEq + Serialize + Sync {
    /// The row one cell produces: its configuration, config hash and seed,
    /// flat metric fields, and the error of an infeasible cell.
    type Row: Clone + Send + Serialize + Deserialize + 'static;
    /// Prefix of the per-cell sink files, `<PREFIX>-<key>.json`.
    const PREFIX: &'static str;
    /// The CSV columns in order; the header and every row derive from it.
    const COLUMNS: &'static [Column<Self::Row>];
    /// The row's `(cell, config_hash, seed)`: what a sink file must match
    /// to be reused on resume.
    fn key(row: &Self::Row) -> (&Self, u64, u64);
    /// The error an infeasible cell recorded.
    fn error(row: &Self::Row) -> Option<&str>;
    /// Execute the cell against the campaign's physical constants and seed.
    fn run(&self, base: &ExperimentConfig, seed: u64) -> Self::Row;
}

/// A declarative campaign: shared physical constants plus a cell list.
#[derive(Debug, Clone)]
pub struct Campaign<C> {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<C>,
}

/// Executed campaign: one row per cell, in the same order as the cells.
pub struct Report<C: Axis> {
    /// Campaign name.
    pub name: String,
    /// One row per cell, in grid order.
    pub results: Vec<C::Row>,
}

// Hand-written: the vendored derive rejects generic types. Same object as
// a derived impl would emit.
impl<C: Axis> Serialize for Report<C> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("name".to_string(), self.name.to_value()),
            ("results".to_string(), self.results.to_value()),
        ])
    }
}

/// The Figure-2 sweep's spec and report.
pub type CampaignSpec = Campaign<CellConfig>;
/// See [`CampaignSpec`].
pub type CampaignReport = Report<CellConfig>;
/// The open-loop stream axis's spec and report, by the names `perfbench`
/// uses.
pub type StreamSweep = Campaign<StreamCellConfig>;
/// See [`StreamSweep`].
pub type StreamCampaignReport = Report<StreamCellConfig>;
/// The mixed-parallelism axis's spec and report, by the names `perfbench`
/// uses.
pub type ParallelismSweep = Campaign<ParCellConfig>;
/// See [`ParallelismSweep`].
pub type ParallelismCampaignReport = Report<ParCellConfig>;

// The per-axis function names `perfbench` still calls. They go when the
// benchmark next changes.
pub use self::{
    config_hash as stream_config_hash, config_hash as parallelism_config_hash,
    run_campaign as run_stream_campaign, run_campaign as run_parallelism_campaign,
    to_csv as stream_to_csv, to_csv as parallelism_to_csv,
};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable FNV-1a hash of a cell configuration (over its compact JSON
/// rendering, which is deterministic for these plain-data types).
#[must_use]
pub fn config_hash<C: Axis>(cell: &C) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Hash of the campaign-wide context — the shared physical constants and
/// the campaign seed. Mixed into every sink key so that cells computed
/// under different physics (or a different seed) are never reused on
/// resume.
fn context_hash(base: &ExperimentConfig, seed: u64) -> u64 {
    let base = serde_json::to_string(base).expect("experiment configs serialize");
    fnv1a(&format!("{base}#{seed}"))
}

/// Load a previously finished cell of any result type from a sink file, if
/// present, readable and accepted by `valid`. The file name already
/// encodes the campaign context, so a file produced under different
/// physical constants lives under a different name; `valid` additionally
/// rejects collisions and stale hand-edited files.
fn load_finished<R: serde::Deserialize>(path: &Path, valid: impl Fn(&R) -> bool) -> Option<R> {
    let text = fs::read_to_string(path).ok()?;
    let parsed: R = serde_json::from_str(&text).ok()?;
    valid(&parsed).then_some(parsed)
}

/// The shared campaign executor: chunked work-stealing over the slots not
/// already prefilled (from a sink resume), returning results in slot
/// order regardless of thread interleaving — a parallel run serializes
/// byte-identically to a serial one. `persist` is called from worker
/// threads as each result finishes.
fn run_slots<R: Clone + Send>(
    threads: usize,
    prefilled: Vec<Option<R>>,
    run: impl Fn(usize) -> R + Sync,
    persist: impl Fn(usize, &R) + Sync,
) -> Vec<R> {
    let todo: Vec<usize> = (0..prefilled.len())
        .filter(|&i| prefilled[i].is_none())
        .collect();
    let workers = threads.max(1).min(todo.len().max(1));
    let chunk = todo.len().div_ceil(workers * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let slots = Mutex::new(prefilled);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= todo.len() {
                    return;
                }
                let indices = &todo[start..todo.len().min(start + chunk)];
                let batch: Vec<(usize, R)> = indices.iter().map(|&i| (i, run(i))).collect();
                for (i, result) in &batch {
                    persist(*i, result);
                }
                let mut guard = slots.lock().expect("campaign result lock");
                for (i, result) in batch {
                    guard[i] = Some(result);
                }
            });
        }
    });

    slots
        .into_inner()
        .expect("campaign result lock")
        .into_iter()
        .map(|slot| slot.expect("every cell executed"))
        .collect()
}

/// Run a campaign of any [`Axis`] over `threads` workers with chunked
/// work-stealing.
///
/// Passing a `sink` directory enables incremental persistence and resume:
/// each finished cell lands in `<prefix>-<key>.json` (`cell`, `tcell`,
/// `jcell`, `fcell`, `scell` or `pcell`), cells whose file already exists
/// are reloaded instead of recomputed, and the combined `<name>.json` /
/// `<name>.csv` tables are written at the end. These writes are
/// best-effort: a sink that cannot be written costs the resume, not the
/// run, so a caller that needs the files creates the directory first and
/// reports that error itself. The returned rows are in grid order
/// regardless of thread interleaving, so `run_campaign(spec, 1, None)` and
/// `run_campaign(spec, 8, None)` produce byte-identical JSON.
#[must_use]
pub fn run_campaign<C: Axis>(spec: &Campaign<C>, threads: usize, sink: Option<&Path>) -> Report<C> {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    // Sink keys mix the per-cell hash with the campaign context so resumes
    // never reuse cells computed under different physics or seed.
    let ctx = context_hash(&spec.base, spec.seed);
    let hashes: Vec<u64> = spec.cells.iter().map(config_hash).collect();
    let cell_file =
        |dir: &Path, i: usize| dir.join(format!("{}-{:016x}.json", C::PREFIX, hashes[i] ^ ctx));
    let prefilled: Vec<Option<C::Row>> = spec
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let key = (cell, hashes[i], spec.seed ^ hashes[i]);
            sink.and_then(|dir| load_finished(&cell_file(dir, i), |r| C::key(r) == key))
        })
        .collect();

    let results = run_slots(
        threads,
        prefilled,
        |i| spec.cells[i].run(&spec.base, spec.seed),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, i), to_json(result));
            }
        },
    );

    let report = Report {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(dir.join(format!("{}.csv", spec.name)), to_csv(&report));
    }
    report
}

/// Quote a CSV field when it contains a delimiter, quote or newline
/// (error strings routinely contain commas).
fn csv_field(value: String) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value
    }
}

/// Render a campaign as CSV: the axis's column table gives the header and
/// every row, in grid order.
#[must_use]
pub fn to_csv<C: Axis>(report: &Report<C>) -> String {
    let header: Vec<&str> = C::COLUMNS.iter().map(|&(name, _)| name).collect();
    let mut out = header.join(",");
    out.push('\n');
    for row in &report.results {
        let fields: Vec<String> = C::COLUMNS
            .iter()
            .map(|(_, value)| csv_field(value(row)))
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// `(name, gradient bytes)` of each model, as the Figure-2 grid takes them.
fn named(models: &[Model]) -> Vec<(&str, u64)> {
    models
        .iter()
        .map(|m| (m.name.as_str(), m.gradient_bytes()))
        .collect()
}

/// One grid point of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Fabric that executes the workload.
    pub substrate: SubstrateKind,
    /// Collective algorithm under test.
    pub algorithm: Algorithm,
    /// Workload label (DNN model name).
    pub model: String,
    /// Payload bytes per all-reduce.
    pub gradient_bytes: u64,
    /// Node count.
    pub n: usize,
    /// Wavelength budget (optical; recorded but unused electrically).
    pub wavelengths: usize,
    /// RWA strategy (optical; ignored electrically).
    pub strategy: Strategy,
    /// Fixed Wrht group size; `None` lets the optimizer choose.
    pub group_size: Option<usize>,
    /// Execution mode: step-synchronous barrier or dependency-aware
    /// pipelined execution.
    pub mode: ExecMode,
}

/// Result of one executed (or failed) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell's configuration.
    pub cell: CellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash.
    pub seed: u64,
    /// Simulated communication time, seconds (0 when `error` is set).
    pub time_s: f64,
    /// Executed step count.
    pub steps: usize,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Peak wavelength footprint (0 electrically).
    pub peak_wavelengths: usize,
    /// Group size Wrht used (0 for other algorithms).
    pub wrht_m: usize,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<CellConfig> {
    /// Expand a full cross-product grid in deterministic nested order
    /// (model → n → wavelengths → algorithm → substrate).
    #[must_use]
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[(&str, u64)],
        nodes: &[usize],
        wavelengths: &[usize],
        algorithms: &[Algorithm],
        substrates: &[SubstrateKind],
    ) -> Self {
        let mut cells = Vec::new();
        for &(model, gradient_bytes) in models {
            for &n in nodes {
                for &w in wavelengths {
                    for &algorithm in algorithms {
                        for &substrate in substrates {
                            cells.push(CellConfig {
                                substrate,
                                algorithm,
                                model: model.to_string(),
                                gradient_bytes,
                                n,
                                wavelengths: w,
                                strategy: Strategy::FirstFit,
                                group_size: None,
                                mode: ExecMode::Barrier,
                            });
                        }
                    }
                }
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

/// Build a cell's Wrht plan: the fixed group size, or the optimizer's
/// choice against the optical cost model (also when the schedule will
/// execute electrically or pipelined, mirroring the Figure-2 cells).
fn wrht_plan(
    cell: &CellConfig,
    local: &ExperimentConfig,
) -> wrht_core::error::Result<wrht_core::WrhtPlan> {
    match cell.group_size {
        Some(m) => build_plan(cell.n, m, cell.wavelengths),
        None => choose_group_size(
            &WrhtParams::auto(cell.n, cell.wavelengths),
            &local.optical(cell.n),
            cell.gradient_bytes,
        )
        .map(|(_, plan, _)| plan),
    }
}

/// Condense a barrier-mode run into the cell-outcome tuple
/// `(time_s, steps, total_bytes, peak_wavelengths)`.
fn summarize(r: &wrht_core::RunReport) -> (f64, usize, u64, usize) {
    (
        r.total_time_s,
        r.step_count(),
        r.total_bytes(),
        r.peak_wavelengths(),
    )
}

impl Axis for CellConfig {
    type Row = CellResult;
    const PREFIX: &'static str = "cell";
    const COLUMNS: &'static [Column<CellResult>] = &[
        ("substrate", |r| r.cell.substrate.label().into()),
        ("algorithm", |r| r.cell.algorithm.label().into()),
        ("mode", |r| r.cell.mode.label().into()),
        ("model", |r| r.cell.model.clone()),
        ("n", |r| r.cell.n.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("strategy", |r| format!("{:?}", r.cell.strategy)),
        ("group_size", |r| {
            r.cell
                .group_size
                .map_or_else(|| "auto".into(), |m| m.to_string())
        }),
        ("gradient_bytes", |r| r.cell.gradient_bytes.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("time_s", |r| r.time_s.to_string()),
        ("steps", |r| r.steps.to_string()),
        ("total_bytes", |r| r.total_bytes.to_string()),
        ("peak_wavelengths", |r| r.peak_wavelengths.to_string()),
        ("wrht_m", |r| r.wrht_m.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &CellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &CellResult) -> Option<&str> {
        r.error.as_deref()
    }

    fn run(&self, base: &ExperimentConfig, seed: u64) -> CellResult {
        let hash = config_hash(self);
        let mut result = CellResult {
            cell: self.clone(),
            config_hash: hash,
            seed: seed ^ hash,
            time_s: 0.0,
            steps: 0,
            total_bytes: 0,
            peak_wavelengths: 0,
            wrht_m: 0,
            error: None,
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };
        // A classic collective lowered to the substrate IR.
        let classic = || {
            lower_allreduce(&local, self.algorithm, self.n, self.gradient_bytes)
                .map(|(schedule, _)| schedule)
        };

        // time_s, steps, total_bytes, peak_wavelengths of the executed cell.
        type CellOutcome = wrht_core::error::Result<(f64, usize, u64, usize)>;

        let outcome: CellOutcome = match self.mode {
            ExecMode::Barrier => match self.algorithm {
                Algorithm::Wrht => match self.substrate {
                    // Plan and execute on the stepped optical substrate.
                    SubstrateKind::Optical => {
                        let params = match self.group_size {
                            Some(m) => WrhtParams::fixed(self.n, self.wavelengths, m),
                            None => WrhtParams::auto(self.n, self.wavelengths),
                        };
                        plan_and_simulate(&params, &local.optical(self.n), self.gradient_bytes).map(
                            |planned| {
                                result.wrht_m = planned.m;
                                summarize(&planned.report)
                            },
                        )
                    }
                    // Plan against the optical cost model (no optical
                    // simulation), then execute the lowered schedule on the
                    // electrical fabric.
                    SubstrateKind::Electrical => wrht_plan(self, &local).and_then(|plan| {
                        result.wrht_m = plan.m;
                        let r = local
                            .try_substrate(self.substrate, self.n, self.strategy)?
                            .execute(&to_optical_schedule(&plan, self.gradient_bytes))?;
                        Ok(summarize(&r))
                    }),
                },
                _ => local
                    .try_substrate(self.substrate, self.n, self.strategy)
                    .and_then(|mut substrate| substrate.execute(&classic()?))
                    .map(|r| summarize(&r)),
            },
            // Pipelined: obtain the same schedule (Wrht plans against the
            // optical cost model on both substrates, mirroring the electrical
            // Wrht cells), lower to the per-node dependency DAG and execute
            // event-driven — consecutive steps overlap on the wire.
            ExecMode::Pipelined => {
                let schedule = match self.algorithm {
                    Algorithm::Wrht => wrht_plan(self, &local).map(|plan| {
                        result.wrht_m = plan.m;
                        to_optical_schedule(&plan, self.gradient_bytes)
                    }),
                    _ => classic(),
                };
                schedule.and_then(|schedule| {
                    let dag = DepSchedule::pipelined_from_steps(&schedule);
                    let report = local
                        .try_substrate(self.substrate, self.n, self.strategy)?
                        .execute_dag(&dag)?;
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
}

/// The Figure-2 series as `(algorithm, substrate)` cells: E-Ring, RD,
/// O-Ring and WRHT.
const FIG2_CELLS: [(Algorithm, SubstrateKind); 4] = [
    (Algorithm::Ring, SubstrateKind::Electrical),
    (Algorithm::RecursiveDoubling, SubstrateKind::Electrical),
    (Algorithm::Ring, SubstrateKind::Optical),
    (Algorithm::Wrht, SubstrateKind::Optical),
];

/// Find one finished Figure-2-grid cell by coordinates. The wavelength
/// budget, First-Fit strategy and auto group size are part of the match so
/// ablation cells (fixed m, Best Fit, swept budgets) can never be mistaken
/// for grid cells.
fn lookup<'a>(
    results: &'a [CellResult],
    model: &str,
    n: usize,
    wavelengths: usize,
    (algorithm, substrate): (Algorithm, SubstrateKind),
) -> Option<&'a CellResult> {
    results.iter().find(|r| {
        r.cell.model == model
            && r.cell.n == n
            && r.cell.wavelengths == wavelengths
            && r.cell.algorithm == algorithm
            && r.cell.substrate == substrate
            && r.cell.strategy == Strategy::FirstFit
            && r.cell.group_size.is_none()
            && r.cell.mode == ExecMode::Barrier
            && r.error.is_none()
    })
}

/// Reassemble Figure-2 series from campaign cells: E-Ring and RD are the
/// electrical ring/RD cells, O-Ring the optical ring cell, WRHT the optical
/// Wrht cell, all at the grid's `wavelengths` budget. Models or scales with
/// missing/failed cells are skipped.
#[must_use]
pub fn fig2_from_campaign(
    results: &[CellResult],
    models: &[(&str, u64)],
    scales: &[usize],
    wavelengths: usize,
) -> Vec<Fig2Series> {
    let mut out = Vec::new();
    for &(model, gradient_bytes) in models {
        let mut rows = Vec::new();
        for &n in scales {
            let [Some(e_ring), Some(rd), Some(o_ring), Some(wrht)] =
                FIG2_CELLS.map(|cell| lookup(results, model, n, wavelengths, cell))
            else {
                continue;
            };
            rows.push(Fig2Row {
                n,
                e_ring_s: e_ring.time_s,
                rd_s: rd.time_s,
                o_ring_s: o_ring.time_s,
                wrht_s: wrht.time_s,
                wrht_m: wrht.wrht_m,
                wrht_steps: wrht.steps,
            });
        }
        if !rows.is_empty() {
            out.push(Fig2Series {
                model: model.to_string(),
                gradient_bytes,
                rows,
            });
        }
    }
    out
}

/// The Figure-2 cells alone: the four series of every model at every scale
/// of `cfg`, at its wavelength budget. These are exactly the Figure-2 cells
/// of [`sweep_spec`].
#[must_use]
pub fn fig2_spec(cfg: &ExperimentConfig, models: &[Model]) -> CampaignSpec {
    let mut spec = CampaignSpec::grid(
        "fig2",
        cfg.clone(),
        &named(models),
        &cfg.scales,
        &[cfg.wavelengths],
        &[
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::Wrht,
        ],
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
    );
    spec.cells
        .retain(|c| FIG2_CELLS.contains(&(c.algorithm, c.substrate)));
    spec
}

/// Figure 2 for `models` across `cfg.scales`: [`fig2_spec`] run over
/// `threads` workers and reassembled by [`fig2_from_campaign`].
#[must_use]
pub fn run_fig2(cfg: &ExperimentConfig, models: &[Model], threads: usize) -> Vec<Fig2Series> {
    let report = run_campaign(&fig2_spec(cfg, models), threads, None);
    fig2_from_campaign(
        &report.results,
        &named(models),
        &cfg.scales,
        cfg.wavelengths,
    )
}

/// The full reproduction sweep as **one campaign**: the Figure-2 grid on
/// both substrates (every algorithm × model × scale), the group-size
/// ablation, the wavelength-budget ablation and the RWA-strategy ablation.
#[must_use]
pub fn sweep_spec(cfg: &ExperimentConfig, models: &[Model], seed: u64) -> CampaignSpec {
    let named = named(models);
    let algorithms = [
        Algorithm::Ring,
        Algorithm::RecursiveDoubling,
        Algorithm::HalvingDoubling,
        Algorithm::Tree,
        Algorithm::Wrht,
    ];
    let substrates = [SubstrateKind::Electrical, SubstrateKind::Optical];

    // Figure-2 grid (both substrates, all algorithms).
    let mut spec = CampaignSpec::grid(
        "sweep",
        cfg.clone(),
        &named,
        &cfg.scales,
        &[cfg.wavelengths],
        &algorithms,
        &substrates,
    );
    spec.seed = seed;

    let n_large = *cfg.scales.last().expect("scales non-empty");
    let n_mid = cfg.scales[cfg.scales.len() / 2];

    // Group-size ablation: fixed m for the first model at the largest scale.
    if let Some(&(model, bytes)) = named.first() {
        for m in [2usize, 4, 8, 16, 32] {
            spec.cells.push(CellConfig {
                substrate: SubstrateKind::Optical,
                algorithm: Algorithm::Wrht,
                model: model.to_string(),
                gradient_bytes: bytes,
                n: n_large,
                wavelengths: cfg.wavelengths,
                strategy: Strategy::FirstFit,
                group_size: Some(m),
                mode: ExecMode::Barrier,
            });
        }

        // Wavelength-budget ablation: Wrht and O-Ring across budgets.
        for w in [1usize, 2, 4, 8, 16, 32, 64] {
            for algorithm in [Algorithm::Wrht, Algorithm::Ring] {
                spec.cells.push(CellConfig {
                    substrate: SubstrateKind::Optical,
                    algorithm,
                    model: model.to_string(),
                    gradient_bytes: bytes,
                    n: n_mid,
                    wavelengths: w,
                    strategy: Strategy::FirstFit,
                    group_size: None,
                    mode: ExecMode::Barrier,
                });
            }
        }

        // Execution-mode ablation: barrier vs pipelined for every
        // algorithm on both substrates at the mid scale (the barrier
        // twins are already in the Figure-2 grid).
        for algorithm in [Algorithm::Ring, Algorithm::HalvingDoubling, Algorithm::Wrht] {
            for substrate in [SubstrateKind::Electrical, SubstrateKind::Optical] {
                spec.cells.push(CellConfig {
                    substrate,
                    algorithm,
                    model: model.to_string(),
                    gradient_bytes: bytes,
                    n: n_mid,
                    wavelengths: cfg.wavelengths,
                    strategy: Strategy::FirstFit,
                    group_size: None,
                    mode: ExecMode::Pipelined,
                });
            }
        }
    }

    // RWA-strategy ablation: Best Fit cells for every model (First Fit is
    // already covered by the Figure-2 grid).
    for &(model, bytes) in &named {
        spec.cells.push(CellConfig {
            substrate: SubstrateKind::Optical,
            algorithm: Algorithm::Wrht,
            model: model.to_string(),
            gradient_bytes: bytes,
            n: n_large,
            wavelengths: cfg.wavelengths,
            strategy: Strategy::BestFit,
            group_size: None,
            mode: ExecMode::Barrier,
        });
    }

    spec
}

/// One grid point of a timeline campaign: a full data-parallel training
/// iteration (bucketed all-reduces overlapping backward) instead of a
/// single collective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineCellConfig {
    /// Fabric that executes the bucket schedules.
    pub substrate: SubstrateKind,
    /// Collective algorithm used per bucket.
    pub algorithm: Algorithm,
    /// Zoo model name (resolved via [`dnn_models::model_by_name`], so
    /// transformer tables are selectable alongside the paper's CNNs).
    pub model: String,
    /// Gradient-fusion bucket budget, bytes.
    pub bucket_bytes: u64,
    /// Node count.
    pub n: usize,
    /// Wavelength budget (optical; recorded but unused electrically).
    pub wavelengths: usize,
    /// RWA strategy (optical; ignored electrically).
    pub strategy: Strategy,
    /// Execution mode: buckets serialized on the network (barrier) or
    /// overlapped through the dependency-aware executor (pipelined).
    pub mode: ExecMode,
}

/// Result of one executed (or failed) timeline cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineCellResult {
    /// The cell's configuration.
    pub cell: TimelineCellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash.
    pub seed: u64,
    /// Number of gradient buckets.
    pub buckets: usize,
    /// End of compute (forward + backward), seconds.
    pub compute_s: f64,
    /// Overlapped iteration time, seconds (0 when `error` is set).
    pub overlapped_s: f64,
    /// Sequential (fused post-backward all-reduce) iteration time, seconds.
    pub sequential_s: f64,
    /// Total communication time over all buckets, seconds.
    pub total_comm_s: f64,
    /// Communication exposed past the end of backward, seconds.
    pub exposed_comm_s: f64,
    /// Fraction of communication hidden behind compute.
    pub hidden_fraction: f64,
    /// Total substrate steps over all buckets.
    pub steps: usize,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<TimelineCellConfig> {
    /// Expand a full cross-product grid in deterministic nested order
    /// (model → bucket size → n → algorithm → mode → substrate), at the
    /// base config's wavelength budget.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one axis per campaign dimension
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[&str],
        bucket_sizes: &[u64],
        nodes: &[usize],
        algorithms: &[Algorithm],
        modes: &[ExecMode],
        substrates: &[SubstrateKind],
    ) -> Self {
        let wavelengths = base.wavelengths;
        let mut cells = Vec::new();
        for &model in models {
            for &bucket_bytes in bucket_sizes {
                for &n in nodes {
                    for &algorithm in algorithms {
                        for &mode in modes {
                            for &substrate in substrates {
                                cells.push(TimelineCellConfig {
                                    substrate,
                                    algorithm,
                                    model: model.to_string(),
                                    bucket_bytes,
                                    n,
                                    wavelengths,
                                    strategy: Strategy::FirstFit,
                                    mode,
                                });
                            }
                        }
                    }
                }
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

impl Axis for TimelineCellConfig {
    type Row = TimelineCellResult;
    const PREFIX: &'static str = "tcell";
    const COLUMNS: &'static [Column<TimelineCellResult>] = &[
        ("substrate", |r| r.cell.substrate.label().into()),
        ("algorithm", |r| r.cell.algorithm.label().into()),
        ("mode", |r| r.cell.mode.label().into()),
        ("model", |r| r.cell.model.clone()),
        ("n", |r| r.cell.n.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("strategy", |r| format!("{:?}", r.cell.strategy)),
        ("bucket_bytes", |r| r.cell.bucket_bytes.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("buckets", |r| r.buckets.to_string()),
        ("compute_s", |r| r.compute_s.to_string()),
        ("overlapped_s", |r| r.overlapped_s.to_string()),
        ("sequential_s", |r| r.sequential_s.to_string()),
        ("total_comm_s", |r| r.total_comm_s.to_string()),
        ("exposed_comm_s", |r| r.exposed_comm_s.to_string()),
        ("hidden_fraction", |r| r.hidden_fraction.to_string()),
        ("steps", |r| r.steps.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &TimelineCellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &TimelineCellResult) -> Option<&str> {
        r.error.as_deref()
    }

    fn run(&self, base: &ExperimentConfig, seed: u64) -> TimelineCellResult {
        let hash = config_hash(self);
        let mut result = TimelineCellResult {
            cell: self.clone(),
            config_hash: hash,
            seed: seed ^ hash,
            buckets: 0,
            compute_s: 0.0,
            overlapped_s: 0.0,
            sequential_s: 0.0,
            total_comm_s: 0.0,
            exposed_comm_s: 0.0,
            hidden_fraction: 0.0,
            steps: 0,
            error: None,
        };

        let Some(model) = dnn_models::model_by_name(&self.model) else {
            result.error = Some(format!("unknown model '{}'", self.model));
            return result;
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };

        match crate::timeline::model_timeline(
            &local,
            &model,
            self.n,
            self.bucket_bytes,
            self.algorithm,
            self.substrate,
            self.strategy,
            self.mode,
        ) {
            Ok(t) => {
                result.buckets = t.bucket_count();
                result.compute_s = t.compute_s;
                result.overlapped_s = t.overlapped_s;
                result.sequential_s = t.sequential_s;
                result.total_comm_s = t.total_comm_s;
                result.exposed_comm_s = t.exposed_comm_s;
                result.hidden_fraction = t.hidden_fraction;
                result.steps = t.total_steps();
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }
}

/// A row of the `repro-figures train` table.
impl From<&TimelineCellResult> for TimelineRow {
    fn from(r: &TimelineCellResult) -> Self {
        Self {
            model: r.cell.model.clone(),
            // Tag pipelined cells in the rendered table (barrier cells
            // keep the bare label, matching the golden-file path).
            substrate: match (r.cell.mode, r.cell.substrate) {
                (ExecMode::Barrier, s) => s.label().to_string(),
                (ExecMode::Pipelined, SubstrateKind::Electrical) => "elec+pipe".into(),
                (ExecMode::Pipelined, SubstrateKind::Optical) => "opt+pipe".into(),
            },
            buckets: r.buckets,
            compute_s: r.compute_s,
            overlapped_s: r.overlapped_s,
            sequential_s: r.sequential_s,
            total_comm_s: r.total_comm_s,
            exposed_comm_s: r.exposed_comm_s,
            hidden_fraction: r.hidden_fraction,
            steps: r.steps,
        }
    }
}

/// The `repro-figures train` campaign: every paper model × Wrht × the
/// requested execution modes × both substrates at `n` nodes with the
/// DDP-default 25 MB bucket budget.
#[must_use]
pub fn train_spec(
    cfg: &ExperimentConfig,
    models: &[Model],
    n: usize,
    seed: u64,
    modes: &[ExecMode],
) -> Campaign<TimelineCellConfig> {
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    let mut spec = Campaign::<TimelineCellConfig>::grid(
        "train",
        cfg.clone(),
        &names,
        &[25 << 20],
        &[n],
        &[Algorithm::Wrht],
        modes,
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
    );
    spec.seed = seed;
    spec
}

/// Lower a model's gradient buckets once, as the `(ready_s, schedule)`
/// pairs every job of a tenancy, fault or stream cell replays.
fn lower_buckets(
    local: &ExperimentConfig,
    model: &Model,
    algorithm: Algorithm,
    n: usize,
    bucket_bytes: u64,
) -> wrht_core::error::Result<Vec<(f64, StepSchedule)>> {
    let buckets = timeline_buckets(model, bucket_bytes);
    let mut lowered = Vec::with_capacity(buckets.len());
    for b in &buckets {
        let (schedule, _) = lower_allreduce(local, algorithm, n, b.bytes)?;
        lowered.push((b.ready_s, schedule));
    }
    Ok(lowered)
}

/// `jobs` identical training iterations of `model` under `policy`: job `j`
/// arrives at `j * stagger_s` with priority `j`.
fn staggered_jobs(
    policy: SchedPolicy,
    model: &Model,
    lowered: Vec<(f64, StepSchedule)>,
    jobs: usize,
    stagger_s: f64,
) -> TenancySpec {
    let im = iteration_model(model);
    let compute_s = im.forward_s + im.backward_s;
    let mut spec = TenancySpec::new(policy);
    for j in 0..jobs {
        spec = spec.with_job(
            Job::training(
                format!("{}#{j}", model.name),
                j as f64 * stagger_s,
                lowered.clone(),
            )
            .with_compute(compute_s)
            .with_priority(j as u32),
        );
    }
    spec
}

/// One grid point of a tenancy campaign: `jobs` identical training
/// iterations of `model` arriving `arrival_stagger_s` apart, composed into
/// one shared run under `policy` (see
/// [`wrht_core::substrate::Substrate::execute_jobs`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyCellConfig {
    /// Fabric shared by all jobs.
    pub substrate: SubstrateKind,
    /// Cross-job scheduling policy.
    pub policy: SchedPolicy,
    /// Number of concurrent jobs. Job `j` arrives at `j *
    /// arrival_stagger_s` with priority `j` (latecomers preempt under
    /// [`SchedPolicy::Priority`], making the axis distinct from FIFO).
    pub jobs: usize,
    /// Collective algorithm used per gradient bucket.
    pub algorithm: Algorithm,
    /// Zoo model name (resolved via [`dnn_models::model_by_name`], so
    /// transformer tables are selectable alongside the paper's CNNs).
    pub model: String,
    /// Gradient-fusion bucket budget, bytes.
    pub bucket_bytes: u64,
    /// Inter-arrival gap between consecutive jobs, seconds.
    pub arrival_stagger_s: f64,
    /// Node count.
    pub n: usize,
    /// Wavelength budget (optical; recorded but unused electrically).
    pub wavelengths: usize,
    /// RWA strategy (optical; ignored electrically).
    pub strategy: Strategy,
}

/// Result of one executed (or failed) tenancy cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyCellResult {
    /// The cell's configuration.
    pub cell: TenancyCellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash.
    pub seed: u64,
    /// Cluster makespan (last transfer of any job), seconds.
    pub makespan_s: f64,
    /// Mean per-job slowdown vs an isolated run.
    pub mean_slowdown: f64,
    /// Worst per-job slowdown vs an isolated run.
    pub max_slowdown: f64,
    /// Jain fairness index over per-job slowdowns, `(0, 1]`.
    pub fairness_index: f64,
    /// Median per-job slowdown (streaming P², exact for <= 5 jobs).
    pub slowdown_p50: f64,
    /// 99th-percentile per-job slowdown.
    pub slowdown_p99: f64,
    /// 99.9th-percentile per-job slowdown.
    pub slowdown_p999: f64,
    /// Mean fraction of per-job communication hidden behind compute.
    pub mean_hidden_fraction: f64,
    /// Peak wavelength footprint (0 electrically).
    pub peak_wavelengths: usize,
    /// Total transfers across all jobs.
    pub transfers: usize,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<TenancyCellConfig> {
    /// Expand a full cross-product grid in deterministic nested order
    /// (model → n → jobs → policy → substrate), at the base config's
    /// wavelength budget.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one axis per campaign dimension
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[&str],
        job_counts: &[usize],
        policies: &[SchedPolicy],
        nodes: &[usize],
        substrates: &[SubstrateKind],
        bucket_bytes: u64,
        arrival_stagger_s: f64,
    ) -> Self {
        let wavelengths = base.wavelengths;
        let mut cells = Vec::new();
        for &model in models {
            for &n in nodes {
                for &jobs in job_counts {
                    for &policy in policies {
                        for &substrate in substrates {
                            cells.push(TenancyCellConfig {
                                substrate,
                                policy,
                                jobs,
                                algorithm: Algorithm::Wrht,
                                model: model.to_string(),
                                bucket_bytes,
                                arrival_stagger_s,
                                n,
                                wavelengths,
                                strategy: Strategy::FirstFit,
                            });
                        }
                    }
                }
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

impl Axis for TenancyCellConfig {
    type Row = TenancyCellResult;
    const PREFIX: &'static str = "jcell";
    const COLUMNS: &'static [Column<TenancyCellResult>] = &[
        ("substrate", |r| r.cell.substrate.label().into()),
        ("policy", |r| r.cell.policy.label().into()),
        ("jobs", |r| r.cell.jobs.to_string()),
        ("algorithm", |r| r.cell.algorithm.label().into()),
        ("model", |r| r.cell.model.clone()),
        ("n", |r| r.cell.n.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("strategy", |r| format!("{:?}", r.cell.strategy)),
        ("bucket_bytes", |r| r.cell.bucket_bytes.to_string()),
        ("stagger_s", |r| r.cell.arrival_stagger_s.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("makespan_s", |r| r.makespan_s.to_string()),
        ("mean_slowdown", |r| r.mean_slowdown.to_string()),
        ("max_slowdown", |r| r.max_slowdown.to_string()),
        ("fairness_index", |r| r.fairness_index.to_string()),
        ("slowdown_p50", |r| r.slowdown_p50.to_string()),
        ("slowdown_p99", |r| r.slowdown_p99.to_string()),
        ("slowdown_p999", |r| r.slowdown_p999.to_string()),
        ("mean_hidden_fraction", |r| {
            r.mean_hidden_fraction.to_string()
        }),
        ("peak_wavelengths", |r| r.peak_wavelengths.to_string()),
        ("transfers", |r| r.transfers.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &TenancyCellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &TenancyCellResult) -> Option<&str> {
        r.error.as_deref()
    }

    fn run(&self, base: &ExperimentConfig, seed: u64) -> TenancyCellResult {
        let hash = config_hash(self);
        let mut result = TenancyCellResult {
            cell: self.clone(),
            config_hash: hash,
            seed: seed ^ hash,
            makespan_s: 0.0,
            mean_slowdown: 0.0,
            max_slowdown: 0.0,
            fairness_index: 0.0,
            slowdown_p50: 0.0,
            slowdown_p99: 0.0,
            slowdown_p999: 0.0,
            mean_hidden_fraction: 0.0,
            peak_wavelengths: 0,
            transfers: 0,
            error: None,
        };

        let Some(model) = dnn_models::model_by_name(&self.model) else {
            result.error = Some(format!("unknown model '{}'", self.model));
            return result;
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };

        // Every job runs the same iteration, shifted by its arrival.
        let outcome = lower_buckets(&local, &model, self.algorithm, self.n, self.bucket_bytes)
            .and_then(|lowered| {
                let spec = staggered_jobs(
                    self.policy,
                    &model,
                    lowered,
                    self.jobs,
                    self.arrival_stagger_s,
                );
                local
                    .try_substrate(self.substrate, self.n, self.strategy)?
                    .execute_jobs(&spec)
            });

        match outcome {
            Ok(report) => {
                result.makespan_s = report.makespan_s;
                result.mean_slowdown = report.mean_slowdown();
                result.max_slowdown = report.max_slowdown();
                result.fairness_index = report.fairness_index;
                result.slowdown_p50 = report.slowdown.p50;
                result.slowdown_p99 = report.slowdown.p99;
                result.slowdown_p999 = report.slowdown.p999;
                result.mean_hidden_fraction = if report.jobs.is_empty() {
                    1.0
                } else {
                    report.jobs.iter().map(|j| j.hidden_fraction).sum::<f64>()
                        / report.jobs.len() as f64
                };
                result.peak_wavelengths = report.peak_wavelength;
                result.transfers = report.jobs.iter().map(|j| j.transfers).sum();
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }
}

/// The `repro-figures tenants` campaign: 1/2/4 concurrent training jobs of
/// the first model under every [`SchedPolicy`] on both substrates at `n`
/// nodes, arrivals 1 ms apart, DDP-default 25 MB buckets.
#[must_use]
pub fn tenants_spec(
    cfg: &ExperimentConfig,
    models: &[Model],
    n: usize,
    seed: u64,
) -> Campaign<TenancyCellConfig> {
    let first: Vec<&str> = models
        .first()
        .map(|m| m.name.as_str())
        .into_iter()
        .collect();
    let mut spec = Campaign::<TenancyCellConfig>::grid(
        "tenants",
        cfg.clone(),
        &first,
        &[1, 2, 4],
        &SchedPolicy::ALL,
        &[n],
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
        25 << 20,
        1e-3,
    );
    spec.seed = seed;
    spec
}

/// A declarative fault scenario, timed in **fractions of the clean
/// makespan** so one scenario scales across models, node counts and
/// substrates. Resolved into an absolute-time
/// [`FaultScript`](wrht_core::fault::FaultScript) per cell by
/// [`FaultScenario::script`].
///
/// Each substrate reacts only to the event kinds that exist on it (see
/// [`wrht_core::fault`]): `WavelengthDown` is an electrical no-op and
/// `LinkDegrade`/`LinkFlap` are optical no-ops — such cells pin the
/// zero-blast-radius contract rather than being skipped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultScenario {
    /// No fault: the faulted run must be bit-exact with the clean run.
    None,
    /// A wavelength fails at `at_frac` of the clean makespan and stays down.
    WavelengthDown {
        /// Failed wavelength index.
        lane: usize,
        /// Fault instant as a fraction of the clean makespan.
        at_frac: f64,
    },
    /// A link's capacity drops to `factor` at `at_frac` of the clean makespan.
    LinkDegrade {
        /// Link index in the electrical network's link table.
        link: usize,
        /// Capacity multiplier, `0 < factor <= 1`.
        factor: f64,
        /// Fault instant as a fraction of the clean makespan.
        at_frac: f64,
    },
    /// A link goes fully down at `at_frac` and recovers `down_frac` of the
    /// clean makespan later.
    LinkFlap {
        /// Link index in the electrical network's link table.
        link: usize,
        /// Outage start as a fraction of the clean makespan.
        at_frac: f64,
        /// Outage duration as a fraction of the clean makespan.
        down_frac: f64,
    },
    /// A node fails permanently at `at_frac` of the clean makespan.
    NodeDown {
        /// Failed node index.
        node: usize,
        /// Fault instant as a fraction of the clean makespan.
        at_frac: f64,
    },
}

impl FaultScenario {
    /// Stable label used in CSV rows and rendered tables.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            FaultScenario::None => "none".to_string(),
            FaultScenario::WavelengthDown { lane, at_frac } => {
                format!("wavelength-down:{lane}@{at_frac}")
            }
            FaultScenario::LinkDegrade {
                link,
                factor,
                at_frac,
            } => format!("link-degrade:{link}x{factor}@{at_frac}"),
            FaultScenario::LinkFlap {
                link,
                at_frac,
                down_frac,
            } => format!("link-flap:{link}@{at_frac}+{down_frac}"),
            FaultScenario::NodeDown { node, at_frac } => format!("node-down:{node}@{at_frac}"),
        }
    }

    /// Resolve the scenario against a measured clean makespan into an
    /// absolute-time fault script.
    #[must_use]
    pub fn script(self, clean_makespan_s: f64) -> FaultScript {
        let at = |frac: f64| frac * clean_makespan_s;
        match self {
            FaultScenario::None => FaultScript::new(),
            FaultScenario::WavelengthDown { lane, at_frac } => {
                FaultScript::new().with(at(at_frac), FaultKind::WavelengthDown { lane })
            }
            FaultScenario::LinkDegrade {
                link,
                factor,
                at_frac,
            } => FaultScript::new().with(at(at_frac), FaultKind::LinkDegrade { link, factor }),
            FaultScenario::LinkFlap {
                link,
                at_frac,
                down_frac,
            } => FaultScript::new().with(
                at(at_frac),
                FaultKind::LinkFlap {
                    link,
                    // A flap must outlast the instant it lands on even when
                    // the clean makespan rounds the duration to zero.
                    down_s: at(down_frac).max(1e-9),
                },
            ),
            FaultScenario::NodeDown { node, at_frac } => {
                FaultScript::new().with(at(at_frac), FaultKind::NodeDown { node })
            }
        }
    }
}

/// Serializable mirror of [`wrht_core::fault::FaultPolicy`] (the kernel
/// type is serde-free by design — the kernel crate has zero deps).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Fail the whole job owning an aborted transfer.
    FailJob,
    /// Re-admit aborted transfers after a fixed backoff.
    RetryAfter {
        /// Backoff before re-admission, seconds.
        backoff_s: f64,
    },
    /// Re-grant aborted transfers immediately over surviving resources.
    Replan,
}

impl RecoveryPolicy {
    /// The kernel-level policy this mirror stands for.
    #[must_use]
    pub fn to_policy(self) -> FaultPolicy {
        match self {
            RecoveryPolicy::FailJob => FaultPolicy::FailJob,
            RecoveryPolicy::RetryAfter { backoff_s } => FaultPolicy::RetryAfter(backoff_s),
            RecoveryPolicy::Replan => FaultPolicy::Replan,
        }
    }

    /// Stable label used in CSV rows (same strings as
    /// [`wrht_core::fault::FaultPolicy::label`]).
    #[must_use]
    pub fn label(self) -> String {
        self.to_policy().label()
    }
}

/// One grid point of a fault campaign: a tenancy cell (see
/// [`TenancyCellConfig`]) plus a [`FaultScenario`] and a recovery
/// [`RecoveryPolicy`], executed clean and faulted and diffed into blast
/// radius and recovery metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCellConfig {
    /// Fabric shared by all jobs.
    pub substrate: SubstrateKind,
    /// Cross-job scheduling policy.
    pub policy: SchedPolicy,
    /// Recovery policy applied when the fault lands.
    pub fault_policy: RecoveryPolicy,
    /// The injected fault, timed in fractions of the clean makespan.
    pub scenario: FaultScenario,
    /// Number of concurrent jobs (job `j` arrives at `j * arrival_stagger_s`).
    pub jobs: usize,
    /// Collective algorithm used per gradient bucket.
    pub algorithm: Algorithm,
    /// Zoo model name (resolved via [`dnn_models::model_by_name`], so
    /// transformer tables are selectable alongside the paper's CNNs).
    pub model: String,
    /// Gradient-fusion bucket budget, bytes.
    pub bucket_bytes: u64,
    /// Inter-arrival gap between consecutive jobs, seconds.
    pub arrival_stagger_s: f64,
    /// Node count.
    pub n: usize,
    /// Wavelength budget (optical; recorded but unused electrically).
    pub wavelengths: usize,
    /// RWA strategy (optical; ignored electrically).
    pub strategy: Strategy,
}

/// Result of one executed (or failed) fault cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCellResult {
    /// The cell's configuration.
    pub cell: FaultCellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash.
    pub seed: u64,
    /// Fault-free makespan of the same composed run, seconds.
    pub clean_makespan_s: f64,
    /// Faulted makespan over completed transfers, seconds.
    pub makespan_s: f64,
    /// `makespan_s / clean_makespan_s`; exactly 1.0 for a no-op script.
    pub degraded_ratio: f64,
    /// First fault impact → last impacted completion, seconds.
    pub recovery_s: f64,
    /// Instant the fault first delayed or aborted a transfer, seconds.
    pub first_impact_s: Option<f64>,
    /// Transfers that completed later than in the clean run.
    pub delayed: usize,
    /// Abort events (a retried transfer can abort more than once).
    pub aborted: u64,
    /// Transfers that never completed.
    pub failed: usize,
    /// Jobs with at least one failed transfer.
    pub failed_jobs: usize,
    /// Total transfers across all jobs.
    pub transfers: usize,
    /// Peak wavelength footprint of the faulted run (0 electrically).
    pub peak_wavelengths: usize,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<FaultCellConfig> {
    /// Expand a full cross-product grid in deterministic nested order
    /// (model → n → jobs → scenario → recovery policy → substrate), at the
    /// base config's wavelength budget.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one axis per campaign dimension
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[&str],
        job_counts: &[usize],
        scenarios: &[FaultScenario],
        fault_policies: &[RecoveryPolicy],
        policy: SchedPolicy,
        nodes: &[usize],
        substrates: &[SubstrateKind],
        bucket_bytes: u64,
        arrival_stagger_s: f64,
    ) -> Self {
        let wavelengths = base.wavelengths;
        let mut cells = Vec::new();
        for &model in models {
            for &n in nodes {
                for &jobs in job_counts {
                    for &scenario in scenarios {
                        for &fault_policy in fault_policies {
                            for &substrate in substrates {
                                cells.push(FaultCellConfig {
                                    substrate,
                                    policy,
                                    fault_policy,
                                    scenario,
                                    jobs,
                                    algorithm: Algorithm::Wrht,
                                    model: model.to_string(),
                                    bucket_bytes,
                                    arrival_stagger_s,
                                    n,
                                    wavelengths,
                                    strategy: Strategy::FirstFit,
                                });
                            }
                        }
                    }
                }
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

impl Axis for FaultCellConfig {
    type Row = FaultCellResult;
    const PREFIX: &'static str = "fcell";
    const COLUMNS: &'static [Column<FaultCellResult>] = &[
        ("substrate", |r| r.cell.substrate.label().into()),
        ("sched_policy", |r| r.cell.policy.label().into()),
        ("fault_policy", |r| r.cell.fault_policy.label()),
        ("scenario", |r| r.cell.scenario.label()),
        ("jobs", |r| r.cell.jobs.to_string()),
        ("model", |r| r.cell.model.clone()),
        ("n", |r| r.cell.n.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("bucket_bytes", |r| r.cell.bucket_bytes.to_string()),
        ("stagger_s", |r| r.cell.arrival_stagger_s.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("clean_makespan_s", |r| r.clean_makespan_s.to_string()),
        ("makespan_s", |r| r.makespan_s.to_string()),
        ("degraded_ratio", |r| r.degraded_ratio.to_string()),
        ("recovery_s", |r| r.recovery_s.to_string()),
        ("first_impact_s", |r| {
            r.first_impact_s.map_or(String::new(), |t| t.to_string())
        }),
        ("delayed", |r| r.delayed.to_string()),
        ("aborted", |r| r.aborted.to_string()),
        ("failed", |r| r.failed.to_string()),
        ("failed_jobs", |r| r.failed_jobs.to_string()),
        ("transfers", |r| r.transfers.to_string()),
        ("peak_wavelengths", |r| r.peak_wavelengths.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &FaultCellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &FaultCellResult) -> Option<&str> {
        r.error.as_deref()
    }

    /// The composed multi-job DAG is run **clean** first; the scenario's
    /// fractional fault instants are resolved against that measured
    /// makespan, and the same DAG is re-run **faulted**. The two runs are
    /// diffed into blast-radius and recovery metrics by
    /// [`wrht_core::fault::fault_cluster_report`].
    fn run(&self, base: &ExperimentConfig, seed: u64) -> FaultCellResult {
        let hash = config_hash(self);
        let mut result = FaultCellResult {
            cell: self.clone(),
            config_hash: hash,
            seed: seed ^ hash,
            clean_makespan_s: 0.0,
            makespan_s: 0.0,
            degraded_ratio: 0.0,
            recovery_s: 0.0,
            first_impact_s: None,
            delayed: 0,
            aborted: 0,
            failed: 0,
            failed_jobs: 0,
            transfers: 0,
            peak_wavelengths: 0,
            error: None,
        };

        let Some(model) = dnn_models::model_by_name(&self.model) else {
            result.error = Some(format!("unknown model '{}'", self.model));
            return result;
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };

        let outcome: wrht_core::error::Result<FaultClusterReport> =
            lower_buckets(&local, &model, self.algorithm, self.n, self.bucket_bytes).and_then(
                |lowered| {
                    let spec = staggered_jobs(
                        self.policy,
                        &model,
                        lowered,
                        self.jobs,
                        self.arrival_stagger_s,
                    );
                    let composed = spec.compose()?;
                    let arb = spec.arbitration(&composed.job_of);
                    let mut sub = local.try_substrate(self.substrate, self.n, self.strategy)?;
                    let clean = sub.execute_dag_jobs(&composed.dag, &arb)?;
                    let script = self.scenario.script(clean.dag.makespan_s);
                    let policy = self.fault_policy.to_policy();
                    let faulted =
                        sub.execute_dag_jobs_faulted(&composed.dag, &arb, &script, policy)?;
                    Ok(fault_cluster_report(
                        &spec, &composed, &clean.dag, &faulted, policy,
                    ))
                },
            );

        match outcome {
            Ok(report) => {
                result.clean_makespan_s = report.clean_makespan_s;
                result.makespan_s = report.makespan_s;
                result.degraded_ratio = report.degraded_ratio;
                result.recovery_s = report.recovery_s;
                result.first_impact_s = report.first_impact_s;
                result.delayed = report.transfers_delayed;
                result.aborted = report.transfers_aborted;
                result.failed = report.transfers_failed;
                result.failed_jobs = report.failed_jobs();
                result.transfers = report.jobs.iter().map(|j| j.transfers).sum();
                result.peak_wavelengths = report.peak_wavelength;
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }
}

/// The `repro-figures faults` campaign: 2 concurrent training jobs of the
/// first model under FIFO arbitration, hit by one wavelength failure, one
/// link degradation and one node failure (each at 50% of the clean
/// makespan) under `Replan` and `FailJob` recovery, on both substrates.
#[must_use]
pub fn faults_spec(
    cfg: &ExperimentConfig,
    models: &[Model],
    n: usize,
    seed: u64,
) -> Campaign<FaultCellConfig> {
    let first: Vec<&str> = models
        .first()
        .map(|m| m.name.as_str())
        .into_iter()
        .collect();
    // Mid-run (50% of the clean makespan): late enough that transfers are
    // in flight — the wavelength loss aborts lightpaths mid-transfer — and
    // early enough that recovery is visible before the drain.
    let scenarios = [
        FaultScenario::WavelengthDown {
            lane: 0,
            at_frac: 0.5,
        },
        FaultScenario::LinkDegrade {
            link: 0,
            factor: 0.25,
            at_frac: 0.5,
        },
        FaultScenario::NodeDown {
            node: n / 2,
            at_frac: 0.5,
        },
    ];
    let policies = [RecoveryPolicy::Replan, RecoveryPolicy::FailJob];
    let mut spec = Campaign::<FaultCellConfig>::grid(
        "faults",
        cfg.clone(),
        &first,
        &[2],
        &scenarios,
        &policies,
        SchedPolicy::Fifo,
        &[n],
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
        25 << 20,
        1e-3,
    );
    spec.seed = seed;
    spec
}

/// One grid point of an open-loop stream campaign: Poisson arrivals of
/// `model` training iterations at `rate_hz`, served through
/// [`wrht_core::substrate::Substrate::execute_stream`] under `policy` with
/// `admission` control layered on top.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCellConfig {
    /// Fabric serving the stream.
    pub substrate: SubstrateKind,
    /// Cross-job scheduling policy.
    pub policy: SchedPolicy,
    /// Admission control applied before jobs reach the scheduler.
    pub admission: Admission,
    /// Mean Poisson arrival rate, jobs per second.
    pub rate_hz: f64,
    /// Total arrivals generated by the cell.
    pub arrivals: u64,
    /// Collective algorithm used per gradient bucket.
    pub algorithm: Algorithm,
    /// Zoo model name (resolved via [`dnn_models::model_by_name`], so
    /// transformer tables are selectable alongside the paper's CNNs).
    pub model: String,
    /// Gradient-fusion bucket budget, bytes.
    pub bucket_bytes: u64,
    /// Metric window width, seconds.
    pub window_s: f64,
    /// Node count.
    pub n: usize,
    /// Wavelength budget (optical; recorded but unused electrically).
    pub wavelengths: usize,
    /// RWA strategy (optical; ignored electrically).
    pub strategy: Strategy,
}

/// Result of one executed (or failed) stream cell: the scalar summary of
/// the cell's [`wrht_core::stream::StreamReport`] (no wall-clock fields,
/// so rows are bit-stable and can be pinned by golden tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCellResult {
    /// The cell's configuration.
    pub cell: StreamCellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash (also the
    /// cell's Poisson seed).
    pub seed: u64,
    /// Arrivals generated.
    pub arrivals: u64,
    /// Arrivals admitted into service.
    pub admitted: u64,
    /// Arrivals shed by [`Admission::Reject`].
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Last completion instant, seconds.
    pub makespan_s: f64,
    /// Kernel events processed by the run.
    pub events: u64,
    /// Delivered bytes over `reference_bps × makespan`.
    pub mean_utilization: f64,
    /// Mean slowdown over completed jobs.
    pub mean_slowdown: f64,
    /// Streaming slowdown median.
    pub slowdown_p50: f64,
    /// Streaming slowdown 99th percentile.
    pub slowdown_p99: f64,
    /// Streaming slowdown 99.9th percentile.
    pub slowdown_p999: f64,
    /// Jain fairness index over completed-job slowdowns.
    pub fairness_index: f64,
    /// Deepest admission queue observed.
    pub peak_queue_depth: usize,
    /// Most jobs simultaneously in service.
    pub peak_in_service: usize,
    /// Non-empty metric windows emitted.
    pub windows: usize,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<StreamCellConfig> {
    /// Expand a full cross-product grid in deterministic nested order
    /// (model → n → rate → policy → admission → substrate), at the base
    /// config's wavelength budget.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // one axis per campaign dimension
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[&str],
        rates_hz: &[f64],
        policies: &[SchedPolicy],
        admissions: &[Admission],
        nodes: &[usize],
        substrates: &[SubstrateKind],
        bucket_bytes: u64,
        arrivals: u64,
        window_s: f64,
    ) -> Self {
        let wavelengths = base.wavelengths;
        let mut cells = Vec::new();
        for &model in models {
            for &n in nodes {
                for &rate_hz in rates_hz {
                    for &policy in policies {
                        for &admission in admissions {
                            for &substrate in substrates {
                                cells.push(StreamCellConfig {
                                    substrate,
                                    policy,
                                    admission,
                                    rate_hz,
                                    arrivals,
                                    algorithm: Algorithm::Wrht,
                                    model: model.to_string(),
                                    bucket_bytes,
                                    window_s,
                                    n,
                                    wavelengths,
                                    strategy: Strategy::FirstFit,
                                });
                            }
                        }
                    }
                }
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

impl Axis for StreamCellConfig {
    type Row = StreamCellResult;
    const PREFIX: &'static str = "scell";
    const COLUMNS: &'static [Column<StreamCellResult>] = &[
        ("substrate", |r| r.cell.substrate.label().into()),
        ("policy", |r| r.cell.policy.label().into()),
        ("admission", |r| r.cell.admission.label()),
        ("rate_hz", |r| r.cell.rate_hz.to_string()),
        ("arrivals", |r| r.cell.arrivals.to_string()),
        ("algorithm", |r| r.cell.algorithm.label().into()),
        ("model", |r| r.cell.model.clone()),
        ("n", |r| r.cell.n.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("bucket_bytes", |r| r.cell.bucket_bytes.to_string()),
        ("window_s", |r| r.cell.window_s.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("admitted", |r| r.admitted.to_string()),
        ("rejected", |r| r.rejected.to_string()),
        ("completed", |r| r.completed.to_string()),
        ("makespan_s", |r| r.makespan_s.to_string()),
        ("events", |r| r.events.to_string()),
        ("mean_utilization", |r| r.mean_utilization.to_string()),
        ("mean_slowdown", |r| r.mean_slowdown.to_string()),
        ("slowdown_p50", |r| r.slowdown_p50.to_string()),
        ("slowdown_p99", |r| r.slowdown_p99.to_string()),
        ("slowdown_p999", |r| r.slowdown_p999.to_string()),
        ("fairness_index", |r| r.fairness_index.to_string()),
        ("peak_queue_depth", |r| r.peak_queue_depth.to_string()),
        ("peak_in_service", |r| r.peak_in_service.to_string()),
        ("windows", |r| r.windows.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &StreamCellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &StreamCellResult) -> Option<&str> {
        r.error.as_deref()
    }

    /// The model's gradient buckets are lowered once into a
    /// training-iteration workload; the cell serves `arrivals` Poisson
    /// arrivals of that workload (alternating between a high- and a
    /// low-priority template, so the priority axis has something to bite
    /// on) through the online stream engine and keeps the scalar summary.
    fn run(&self, base: &ExperimentConfig, seed: u64) -> StreamCellResult {
        let hash = config_hash(self);
        let mut result = StreamCellResult {
            cell: self.clone(),
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

        let Some(model) = dnn_models::model_by_name(&self.model) else {
            result.error = Some(format!("unknown model '{}'", self.model));
            return result;
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };

        let outcome: wrht_core::error::Result<StreamReport> =
            lower_buckets(&local, &model, self.algorithm, self.n, self.bucket_bytes).and_then(
                |lowered| {
                    let spec = StreamSpec::new(
                        ArrivalProcess::Poisson {
                            rate_hz: self.rate_hz,
                            count: self.arrivals,
                            seed: seed ^ hash,
                        },
                        self.policy,
                    )
                    .with_template(
                        StreamTemplate::new(
                            format!("{}-hi", model.name),
                            JobWorkload::Buckets(lowered.clone()),
                        )
                        .with_priority(2),
                    )
                    .with_template(
                        StreamTemplate::new(
                            format!("{}-lo", model.name),
                            JobWorkload::Buckets(lowered),
                        )
                        .with_priority(1),
                    )
                    .with_admission(self.admission)
                    .with_window(self.window_s)
                    .with_reference_bps(local.lambda_bandwidth_bps * self.wavelengths as f64);
                    local
                        .try_substrate(self.substrate, self.n, self.strategy)?
                        .execute_stream(&spec)
                },
            );

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
            }
            Err(e) => result.error = Some(e.to_string()),
        }
        result
    }
}

/// The `repro-figures serve` campaign: Poisson arrivals of the first
/// model's training iteration at an underload and an overload rate, under
/// every scheduling policy × immediate / queue-bounded / load-shedding
/// admission, on both substrates.
#[must_use]
pub fn serve_spec(cfg: &ExperimentConfig, models: &[Model], n: usize, seed: u64) -> StreamSweep {
    let first: Vec<&str> = models
        .first()
        .map(|m| m.name.as_str())
        .into_iter()
        .collect();
    let mut spec = StreamSweep::grid(
        "serve",
        cfg.clone(),
        &first,
        // Rates bracket one GoogLeNet-iteration service time at 16 nodes:
        // ~50/s keeps the fabric busy but stable, ~200/s overloads it so
        // queueing (and rejection, under `Reject`) becomes visible.
        &[50.0, 200.0],
        &SchedPolicy::ALL,
        &[
            Admission::Immediate,
            Admission::QueueDepth { limit: 2 },
            Admission::Reject { limit: 4 },
        ],
        &[n],
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
        25 << 20,
        16,
        20e-3,
    );
    spec.seed = seed;
    spec
}

/// One grid point of a mixed-parallelism campaign: a transformer trained
/// with `tp × pp × dp` (+ optional MoE) on the composed hierarchical
/// substrate — optical rings inside every group, the electrical cluster
/// between groups ([`ExperimentConfig::try_composed`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParCellConfig {
    /// Zoo model name (resolved via [`dnn_models::model_by_name`]; the
    /// transformer tables are the intended workloads).
    pub model: String,
    /// Tensor-parallel degree (hosts per group).
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Data-parallel replicas per stage.
    pub dp: usize,
    /// MoE expert hosts (0 disables the all-to-all phase).
    pub moe_experts: usize,
    /// Microbatches per iteration.
    pub microbatches: usize,
    /// Activation bytes per microbatch at block/stage boundaries.
    pub activation_bytes: u64,
    /// Wavelength budget of each group's intra ring.
    pub wavelengths: usize,
    /// RWA strategy of the intra rings.
    pub strategy: Strategy,
}

/// Result of one executed (or failed) parallelism cell: the composed
/// run's scalar summary plus the per-domain traffic split (no wall-clock
/// fields, so rows are bit-stable and can be pinned by golden tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParCellResult {
    /// The cell's configuration.
    pub cell: ParCellConfig,
    /// FNV-1a hash of the configuration (the sink key).
    pub config_hash: u64,
    /// Deterministic per-cell seed: campaign seed ⊕ config hash.
    pub seed: u64,
    /// Hosts the job occupies (`tp * pp * dp`).
    pub nodes: usize,
    /// Groups of the hierarchy (`pp * dp`).
    pub groups: usize,
    /// Transfers in the lowered iteration DAG.
    pub transfers: usize,
    /// Transfers tagged intra-group.
    pub intra_transfers: usize,
    /// Transfers tagged inter-group.
    pub inter_transfers: usize,
    /// Payload bytes on the intra fabrics.
    pub intra_bytes: u64,
    /// Payload bytes on the inter fabric.
    pub inter_bytes: u64,
    /// Iteration makespan on the composed substrate, seconds.
    pub makespan_s: f64,
    /// Highest wavelength index any group's ring used.
    pub peak_wavelength: usize,
    /// Max-min rate recomputations of the inter fabric.
    pub rate_recomputations: usize,
    /// Solver work units of the inter fabric.
    pub solver_work: usize,
    /// Kernel events across all engines.
    pub events: u64,
    /// Error string for infeasible cells.
    pub error: Option<String>,
}

impl Campaign<ParCellConfig> {
    /// Expand a grid in deterministic nested order (model → shape), at
    /// the base config's wavelength budget. Shapes are
    /// `(tp, pp, dp, moe_experts)` tuples.
    #[must_use]
    pub fn grid(
        name: &str,
        base: ExperimentConfig,
        models: &[&str],
        shapes: &[(usize, usize, usize, usize)],
        microbatches: usize,
        activation_bytes: u64,
    ) -> Self {
        let wavelengths = base.wavelengths;
        let mut cells = Vec::new();
        for &model in models {
            for &(tp, pp, dp, moe_experts) in shapes {
                cells.push(ParCellConfig {
                    model: model.to_string(),
                    tp,
                    pp,
                    dp,
                    moe_experts,
                    microbatches,
                    activation_bytes,
                    wavelengths,
                    strategy: Strategy::FirstFit,
                });
            }
        }
        Self {
            name: name.to_string(),
            base,
            seed: 0,
            cells,
        }
    }
}

impl Axis for ParCellConfig {
    type Row = ParCellResult;
    const PREFIX: &'static str = "pcell";
    const COLUMNS: &'static [Column<ParCellResult>] = &[
        ("model", |r| r.cell.model.clone()),
        ("tp", |r| r.cell.tp.to_string()),
        ("pp", |r| r.cell.pp.to_string()),
        ("dp", |r| r.cell.dp.to_string()),
        ("moe_experts", |r| r.cell.moe_experts.to_string()),
        ("microbatches", |r| r.cell.microbatches.to_string()),
        ("activation_bytes", |r| r.cell.activation_bytes.to_string()),
        ("wavelengths", |r| r.cell.wavelengths.to_string()),
        ("seed", |r| r.seed.to_string()),
        ("nodes", |r| r.nodes.to_string()),
        ("groups", |r| r.groups.to_string()),
        ("transfers", |r| r.transfers.to_string()),
        ("intra_transfers", |r| r.intra_transfers.to_string()),
        ("inter_transfers", |r| r.inter_transfers.to_string()),
        ("intra_bytes", |r| r.intra_bytes.to_string()),
        ("inter_bytes", |r| r.inter_bytes.to_string()),
        ("makespan_s", |r| r.makespan_s.to_string()),
        ("peak_wavelength", |r| r.peak_wavelength.to_string()),
        ("rate_recomputations", |r| r.rate_recomputations.to_string()),
        ("solver_work", |r| r.solver_work.to_string()),
        ("events", |r| r.events.to_string()),
        ("error", |r| r.error.clone().unwrap_or_default()),
    ];

    fn key(r: &ParCellResult) -> (&Self, u64, u64) {
        (&r.cell, r.config_hash, r.seed)
    }

    fn error(r: &ParCellResult) -> Option<&str> {
        r.error.as_deref()
    }

    /// The model's gradients are split evenly over the pipeline stages
    /// ([`wrht_core::parallelism::StageModel::split`]), the iteration is
    /// lowered to one dependency DAG
    /// ([`wrht_core::parallelism::lower_parallelism`]) and executed on the
    /// composed substrate; the result keeps the makespan plus the
    /// per-domain traffic split the hierarchy derived.
    fn run(&self, base: &ExperimentConfig, seed: u64) -> ParCellResult {
        let hash = config_hash(self);
        let mut result = ParCellResult {
            cell: self.clone(),
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

        let Some(model) = dnn_models::model_by_name(&self.model) else {
            result.error = Some(format!("unknown model '{}'", self.model));
            return result;
        };

        // Cell-local constants: the cell's wavelength budget overrides the base.
        let local = ExperimentConfig {
            wavelengths: self.wavelengths,
            ..base.clone()
        };

        let outcome: wrht_core::error::Result<()> = (|| {
            let spec = ParallelismSpec::new(
                self.tp,
                self.pp,
                self.dp,
                self.moe_experts,
                self.microbatches,
            )?;
            let stages = StageModel::split(model.gradient_bytes(), self.pp, self.activation_bytes);
            let dag = lower_parallelism(&spec, &stages)?;
            let hier = spec.hier()?;
            let domains = hier.domains(&dag)?;
            for (t, d) in dag.transfers().iter().zip(&domains) {
                match d {
                    Domain::Intra { .. } => {
                        result.intra_transfers += 1;
                        result.intra_bytes += t.transfer.bytes;
                    }
                    Domain::Inter => {
                        result.inter_transfers += 1;
                        result.inter_bytes += t.transfer.bytes;
                    }
                }
            }
            let mut sub = local.try_composed(hier, self.strategy)?;
            let report = sub.execute_dag(&dag)?;
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
}

/// The `repro-figures parallelism` campaign: both transformer tables over
/// mixed TP/PP/DP shapes with and without MoE — TP-only (flat collapse),
/// TP+DP, TP+PP+DP, and the full TP+PP+DP+MoE mix.
#[must_use]
pub fn parallelism_spec(cfg: &ExperimentConfig, seed: u64) -> ParallelismSweep {
    let mut spec = ParallelismSweep::grid(
        "parallelism",
        cfg.clone(),
        &["GPT2-small", "BERT-large"],
        // (tp, pp, dp, moe): one group (bit-exact flat collapse), DP rings
        // across groups, a pipeline mix, and the full MoE all-to-all mix.
        &[(4, 1, 1, 0), (2, 1, 4, 0), (2, 2, 2, 0), (2, 2, 2, 4)],
        2,
        8 << 20,
    );
    spec.seed = seed;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scales: vec![8, 16],
            ..ExperimentConfig::default()
        }
    }

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::grid(
            "tiny",
            tiny_cfg(),
            &[("toy", 1 << 20)],
            &[8, 16],
            &[64],
            &[
                Algorithm::Ring,
                Algorithm::RecursiveDoubling,
                Algorithm::Wrht,
            ],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
        );
        spec.seed = 7;
        spec
    }

    #[test]
    fn grid_expansion_is_a_cross_product_in_stable_order() {
        // Nested order: model → n → w → algorithm → substrate.
        let spec = tiny_spec();
        assert_eq!(spec.cells.len(), 2 * 3 * 2);
        assert_eq!(spec.cells[0].substrate, SubstrateKind::Electrical);
        assert_eq!(spec.cells[1].substrate, SubstrateKind::Optical);
        assert_eq!(spec.cells[0].n, 8);
        assert_eq!(spec.cells.last().unwrap().n, 16);
    }

    #[test]
    fn config_hash_is_stable_and_distinguishes_cells() {
        let spec = tiny_spec();
        let h0 = config_hash(&spec.cells[0]);
        assert_eq!(h0, config_hash(&spec.cells[0]));
        let mut seen: Vec<u64> = spec.cells.iter().map(config_hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), spec.cells.len(), "hash collision in tiny grid");
    }

    #[test]
    fn cells_execute_on_both_substrates_and_seed_is_derived() {
        let spec = tiny_spec();
        let report = run_campaign(&spec, 1, None);
        assert_eq!(report.results.len(), spec.cells.len());
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert!(r.time_s > 0.0);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
            match r.cell.substrate {
                SubstrateKind::Optical => assert!(r.peak_wavelengths >= 1),
                SubstrateKind::Electrical => assert_eq!(r.peak_wavelengths, 0),
            }
            if r.cell.algorithm == Algorithm::Wrht {
                assert!(r.wrht_m >= 2);
            }
        }
    }

    #[test]
    fn infeasible_cells_record_errors_instead_of_panicking() {
        let cell = CellConfig {
            substrate: SubstrateKind::Optical,
            algorithm: Algorithm::Wrht,
            model: "toy".into(),
            gradient_bytes: 1 << 20,
            n: 64,
            wavelengths: 2,
            strategy: Strategy::FirstFit,
            group_size: Some(63), // needs 31 wavelengths, only 2 available
            mode: ExecMode::Barrier,
        };
        let r = cell.run(&tiny_cfg(), 0);
        assert!(r.error.is_some());
        assert_eq!(r.time_s, 0.0);
    }

    #[test]
    fn invalid_substrate_parameters_record_errors_instead_of_panicking() {
        // A zero wavelength budget makes the optical config itself invalid;
        // the cell must fail soft, not tear down the worker.
        for algorithm in [Algorithm::Ring, Algorithm::Wrht] {
            let cell = CellConfig {
                substrate: SubstrateKind::Optical,
                algorithm,
                model: "toy".into(),
                gradient_bytes: 1 << 20,
                n: 8,
                wavelengths: 0,
                strategy: Strategy::FirstFit,
                group_size: None,
                mode: ExecMode::Barrier,
            };
            let r = cell.run(&tiny_cfg(), 0);
            assert!(r.error.is_some(), "{algorithm:?} must record an error");
        }
    }

    #[test]
    fn csv_escapes_fields_containing_delimiters() {
        let mut r = tiny_spec().cells[0].run(&tiny_cfg(), 0);
        r.error = Some("step 3: could not place, only 2 available".into());
        r.cell.model = "net \"v2\", large".into();
        let csv = to_csv(&CampaignReport {
            name: "t".into(),
            results: vec![r],
        });
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert!(csv.contains("\"step 3: could not place, only 2 available\""));
        assert!(csv.contains("\"net \"\"v2\"\", large\""));
        // Quote-aware split: the quoted commas must not add columns.
        let row = csv.lines().nth(1).unwrap();
        let mut cols = 1;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => cols += 1,
                _ => {}
            }
        }
        assert_eq!(cols, header_cols);
    }

    #[test]
    fn resume_ignores_cells_computed_under_different_physics() {
        let dir = std::env::temp_dir().join(format!("wrht-campaign-phys-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let first = run_campaign(&spec, 1, Some(&dir));

        // Same cells, different physical constants: nothing may be reused.
        let mut faster = spec.clone();
        faster.base.lambda_bandwidth_bps *= 2.0;
        let recomputed = run_campaign(&faster, 1, Some(&dir));
        for (a, b) in first.results.iter().zip(&recomputed.results) {
            if a.cell.substrate == SubstrateKind::Optical {
                assert!(
                    b.time_s < a.time_s,
                    "{:?}: stale sink cell reused across a physics change",
                    a.cell
                );
            }
        }

        // A different seed must also invalidate the sink (seeds are stamped
        // into results, so reuse would break run determinism).
        let mut reseeded = spec.clone();
        reseeded.seed = spec.seed + 1;
        let r = run_campaign(&reseeded, 1, Some(&dir));
        for res in &r.results {
            assert_eq!(res.seed, reseeded.seed ^ res.config_hash);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ablation_cells_never_leak_into_fig2_rows() {
        // A grid whose Wrht fig2 cell is infeasible (w = 1 starves the
        // tree) plus a feasible fixed-m "ablation" cell at a richer budget:
        // fig2 reassembly must skip the row, not substitute the ablation.
        let base = tiny_cfg();
        let mut spec = CampaignSpec::grid(
            "leak",
            base,
            &[("toy", 1 << 20)],
            &[8],
            &[1],
            &[
                Algorithm::Ring,
                Algorithm::RecursiveDoubling,
                Algorithm::Wrht,
            ],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
        );
        spec.cells.push(CellConfig {
            substrate: SubstrateKind::Optical,
            algorithm: Algorithm::Wrht,
            model: "toy".into(),
            gradient_bytes: 1 << 20,
            n: 8,
            wavelengths: 64,
            strategy: Strategy::FirstFit,
            group_size: Some(4),
            mode: ExecMode::Barrier,
        });
        let report = run_campaign(&spec, 1, None);
        // The w=1 auto-Wrht grid cell is feasible (m=2,3 need 1 lambda), so
        // instead check the sharper property: fig2 at w=64 finds nothing,
        // because the only w=64 cell is a fixed-m ablation cell.
        let series = fig2_from_campaign(&report.results, &[("toy", 1 << 20)], &[8], 64);
        assert!(series.is_empty(), "ablation cell leaked into fig2");
    }

    #[test]
    fn figure_2_has_one_path() {
        let cfg = ExperimentConfig {
            scales: vec![16, 32],
            ..ExperimentConfig::default()
        };
        let models = [dnn_models::googlenet()];
        let sweep = sweep_spec(&cfg, &models, 0);
        // The sweep's Figure-2 cells, by the paper's definition (first
        // occurrence: the wavelength ablation repeats the base budget).
        let mut figure2: Vec<&CellConfig> = Vec::new();
        for c in &sweep.cells {
            let series = matches!(
                (c.algorithm, c.substrate),
                (Algorithm::Ring, _)
                    | (Algorithm::RecursiveDoubling, SubstrateKind::Electrical)
                    | (Algorithm::Wrht, SubstrateKind::Optical)
            );
            if series
                && c.wavelengths == cfg.wavelengths
                && c.strategy == Strategy::FirstFit
                && c.group_size.is_none()
                && c.mode == ExecMode::Barrier
                && !figure2.contains(&c)
            {
                figure2.push(c);
            }
        }
        let spec = fig2_spec(&cfg, &models);
        assert_eq!(spec.cells.iter().collect::<Vec<_>>(), figure2);
        let hashes =
            |cells: &[&CellConfig]| -> Vec<u64> { cells.iter().map(|&c| config_hash(c)).collect() };
        let own: Vec<&CellConfig> = spec.cells.iter().collect();
        assert_eq!(hashes(&own), hashes(&figure2));

        let swept = run_campaign(&sweep, 2, None);
        let from_sweep = fig2_from_campaign(
            &swept.results,
            &named(&models),
            &cfg.scales,
            cfg.wavelengths,
        );
        assert_eq!(to_json(&run_fig2(&cfg, &models, 1)), to_json(&from_sweep));
        assert_eq!(from_sweep[0].rows.len(), cfg.scales.len());
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    /// Run `spec` twice over one sink: the second run must reload every
    /// row byte for byte, and the combined tables plus one
    /// `<PREFIX>-*.json` file per cell must be there. Each axis's files
    /// carry its own prefix, so campaigns of different kinds can share a
    /// directory without key collisions. Returns the first report.
    fn assert_resumes<C: Axis>(spec: &Campaign<C>) -> Report<C> {
        let dir =
            std::env::temp_dir().join(format!("wrht-sink-{}-{}", spec.name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let first = run_campaign(spec, 2, Some(&dir));
        let resumed = run_campaign(spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join(format!("{}.json", spec.name)).exists());
        let csv = fs::read_to_string(dir.join(format!("{}.csv", spec.name))).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        let prefix = format!("{}-", C::PREFIX);
        let files = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with(&prefix)
            })
            .count();
        assert_eq!(files, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
        first
    }

    #[test]
    fn sink_resumes_interrupted_campaigns() {
        assert_resumes(&tiny_spec());
    }

    #[test]
    fn fig2_is_reassembled_from_campaign_cells() {
        let spec = tiny_spec();
        let report = run_campaign(&spec, 2, None);
        let series = fig2_from_campaign(&report.results, &[("toy", 1 << 20)], &[8, 16], 64);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].rows.len(), 2);
        for row in &series[0].rows {
            assert!(row.wrht_s > 0.0 && row.wrht_s < row.o_ring_s);
            assert!(row.wrht_m >= 2);
        }
    }

    fn tiny_timeline_spec() -> Campaign<TimelineCellConfig> {
        let mut spec = Campaign::<TimelineCellConfig>::grid(
            "tiny-train",
            tiny_cfg(),
            &["GoogLeNet"],
            &[4 << 20, 25 << 20],
            &[8, 16],
            &[Algorithm::Wrht, Algorithm::Ring],
            &[ExecMode::Barrier],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
        );
        spec.seed = 11;
        spec
    }

    #[test]
    fn timeline_grid_expands_the_cross_product() {
        let spec = tiny_timeline_spec();
        assert_eq!(spec.cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(spec.cells[0].substrate, SubstrateKind::Electrical);
        assert_eq!(spec.cells[0].bucket_bytes, 4 << 20);
        assert_eq!(spec.cells.last().unwrap().bucket_bytes, 25 << 20);
        let mut hashes: Vec<u64> = spec.cells.iter().map(config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn timeline_cells_execute_and_derive_seeds() {
        let spec = tiny_timeline_spec();
        let report = run_campaign(&spec, 2, None);
        assert_eq!(report.results.len(), spec.cells.len());
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
            assert!(r.buckets >= 1);
            assert!(r.overlapped_s >= r.compute_s);
            assert!(r.overlapped_s > 0.0);
            assert!((0.0..=1.0).contains(&r.hidden_fraction));
            assert!(r.steps > 0);
        }
    }

    #[test]
    fn timeline_parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_timeline_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn timeline_sink_resumes_and_rejects_unknown_models() {
        let mut spec = tiny_timeline_spec();
        spec.cells.truncate(4);
        spec.cells.push(TimelineCellConfig {
            substrate: SubstrateKind::Optical,
            algorithm: Algorithm::Wrht,
            model: "NotANet".into(),
            bucket_bytes: 1 << 20,
            n: 8,
            wavelengths: 64,
            strategy: Strategy::FirstFit,
            mode: ExecMode::Barrier,
        });
        let first = assert_resumes(&spec);
        assert!(first.results.last().unwrap().error.is_some());
    }

    #[test]
    fn train_spec_covers_every_model_on_both_substrates() {
        let models = dnn_models::paper_models();
        let spec = train_spec(&tiny_cfg(), &models, 16, 7, &[ExecMode::Barrier]);
        assert_eq!(spec.cells.len(), models.len() * 2);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.algorithm == Algorithm::Wrht && c.n == 16));
        assert_eq!(spec.seed, 7);
    }

    fn tiny_tenancy_spec() -> Campaign<TenancyCellConfig> {
        let mut spec = Campaign::<TenancyCellConfig>::grid(
            "tiny-tenants",
            tiny_cfg(),
            &["GoogLeNet"],
            &[1, 2],
            &SchedPolicy::ALL,
            &[8],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
            25 << 20,
            1e-3,
        );
        spec.seed = 13;
        spec
    }

    #[test]
    fn tenancy_grid_expands_the_cross_product_with_unique_hashes() {
        let spec = tiny_tenancy_spec();
        assert_eq!(spec.cells.len(), 2 * 3 * 2);
        assert_eq!(spec.cells[0].substrate, SubstrateKind::Electrical);
        assert_eq!(spec.cells[0].jobs, 1);
        assert_eq!(spec.cells.last().unwrap().jobs, 2);
        let mut hashes: Vec<u64> = spec.cells.iter().map(config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn tenancy_cells_execute_and_single_job_cells_are_unslowed() {
        let spec = tiny_tenancy_spec();
        let report = run_campaign(&spec, 2, None);
        assert_eq!(report.results.len(), spec.cells.len());
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
            assert!(r.makespan_s > 0.0);
            assert!(r.transfers > 0);
            assert!(r.fairness_index > 0.0 && r.fairness_index <= 1.0 + 1e-12);
            assert!(r.max_slowdown >= r.mean_slowdown - 1e-12);
            if r.cell.jobs == 1 {
                // A lone tenant is never slowed by the cluster.
                assert!((r.mean_slowdown - 1.0).abs() < 1e-9, "{r:?}");
                assert!((r.fairness_index - 1.0).abs() < 1e-9);
            } else {
                assert!(r.mean_slowdown >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn tenancy_parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_tenancy_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn tenancy_sink_resumes_and_rejects_unknown_models() {
        let mut spec = tiny_tenancy_spec();
        spec.cells.truncate(4);
        spec.cells.push(TenancyCellConfig {
            substrate: SubstrateKind::Optical,
            policy: SchedPolicy::Fifo,
            jobs: 2,
            algorithm: Algorithm::Wrht,
            model: "NotANet".into(),
            bucket_bytes: 1 << 20,
            arrival_stagger_s: 0.0,
            n: 8,
            wavelengths: 64,
            strategy: Strategy::FirstFit,
        });
        let first = assert_resumes(&spec);
        assert!(first.results.last().unwrap().error.is_some());
    }

    #[test]
    fn tenants_spec_covers_every_policy_on_both_substrates() {
        let models = dnn_models::paper_models();
        let spec = tenants_spec(&tiny_cfg(), &models, 16, 7);
        assert_eq!(spec.cells.len(), 3 * 3 * 2);
        assert!(spec.cells.iter().all(|c| c.n == 16));
        for policy in SchedPolicy::ALL {
            assert!(spec.cells.iter().any(|c| c.policy == policy));
        }
        assert_eq!(spec.seed, 7);
    }

    fn tiny_fault_spec() -> Campaign<FaultCellConfig> {
        let scenarios = [
            FaultScenario::None,
            FaultScenario::WavelengthDown {
                lane: 0,
                at_frac: 0.25,
            },
            FaultScenario::LinkDegrade {
                link: 0,
                factor: 0.25,
                at_frac: 0.25,
            },
            FaultScenario::NodeDown {
                node: 4,
                at_frac: 0.25,
            },
        ];
        let mut spec = Campaign::<FaultCellConfig>::grid(
            "tiny-faults",
            tiny_cfg(),
            &["GoogLeNet"],
            &[2],
            &scenarios,
            &[RecoveryPolicy::Replan, RecoveryPolicy::FailJob],
            SchedPolicy::Fifo,
            &[8],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
            25 << 20,
            1e-3,
        );
        spec.seed = 17;
        spec
    }

    #[test]
    fn fault_grid_expands_the_cross_product_with_unique_hashes() {
        let spec = tiny_fault_spec();
        assert_eq!(spec.cells.len(), 4 * 2 * 2);
        assert_eq!(spec.cells[0].substrate, SubstrateKind::Electrical);
        assert_eq!(spec.cells[0].scenario, FaultScenario::None);
        let mut hashes: Vec<u64> = spec.cells.iter().map(config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn fault_cells_execute_and_empty_scripts_have_zero_blast_radius() {
        let spec = tiny_fault_spec();
        let report = run_campaign(&spec, 2, None);
        assert_eq!(report.results.len(), spec.cells.len());
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
            assert!(r.clean_makespan_s > 0.0);
            assert!(r.transfers > 0);
            if r.cell.scenario == FaultScenario::None {
                // The no-fault cell pins the bit-exactness contract: the
                // faulted entry point with an empty script must reproduce
                // the clean run exactly.
                assert_eq!(r.makespan_s, r.clean_makespan_s, "{r:?}");
                assert_eq!(r.degraded_ratio, 1.0);
                assert_eq!(
                    (r.delayed, r.aborted, r.failed, r.failed_jobs),
                    (0, 0, 0, 0)
                );
                assert_eq!(r.recovery_s, 0.0);
                assert_eq!(r.first_impact_s, None);
            }
        }
        // The campaign must exercise at least one cell with real impact on
        // each substrate (wavelength loss optically, node loss electrically).
        for kind in [SubstrateKind::Optical, SubstrateKind::Electrical] {
            assert!(
                report
                    .results
                    .iter()
                    .any(|r| r.cell.substrate == kind && (r.aborted > 0 || r.failed > 0)),
                "no impacted cell on {kind:?}"
            );
        }
    }

    #[test]
    fn fault_parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_fault_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn fault_sink_resumes_and_rejects_unknown_models() {
        let mut spec = tiny_fault_spec();
        spec.cells.truncate(4);
        spec.cells.push(FaultCellConfig {
            substrate: SubstrateKind::Optical,
            policy: SchedPolicy::Fifo,
            fault_policy: RecoveryPolicy::Replan,
            scenario: FaultScenario::None,
            jobs: 2,
            algorithm: Algorithm::Wrht,
            model: "NotANet".into(),
            bucket_bytes: 1 << 20,
            arrival_stagger_s: 0.0,
            n: 8,
            wavelengths: 64,
            strategy: Strategy::FirstFit,
        });
        let first = assert_resumes(&spec);
        assert!(first.results.last().unwrap().error.is_some());
    }

    #[test]
    fn faults_spec_covers_all_scenarios_under_both_policies() {
        let models = dnn_models::paper_models();
        let spec = faults_spec(&tiny_cfg(), &models, 16, 7);
        // 3 scenarios × 2 recovery policies × 2 substrates.
        assert_eq!(spec.cells.len(), 3 * 2 * 2);
        assert!(spec.cells.iter().all(|c| c.n == 16 && c.jobs == 2));
        assert!(spec
            .cells
            .iter()
            .any(|c| matches!(c.scenario, FaultScenario::WavelengthDown { .. })));
        assert!(spec
            .cells
            .iter()
            .any(|c| matches!(c.scenario, FaultScenario::LinkDegrade { .. })));
        assert!(spec
            .cells
            .iter()
            .any(|c| matches!(c.scenario, FaultScenario::NodeDown { node: 8, .. })));
        assert_eq!(spec.seed, 7);
    }

    fn tiny_stream_spec() -> StreamSweep {
        let mut spec = StreamSweep::grid(
            "tiny-serve",
            tiny_cfg(),
            &["GoogLeNet"],
            &[2000.0],
            &SchedPolicy::ALL,
            &[
                Admission::Immediate,
                Admission::QueueDepth { limit: 2 },
                Admission::Reject { limit: 4 },
            ],
            &[8],
            &[SubstrateKind::Electrical, SubstrateKind::Optical],
            25 << 20,
            6,
            20e-3,
        );
        spec.seed = 19;
        spec
    }

    #[test]
    fn stream_grid_expands_the_cross_product_with_unique_hashes() {
        let spec = tiny_stream_spec();
        assert_eq!(spec.cells.len(), 3 * 3 * 2);
        assert_eq!(spec.cells[0].substrate, SubstrateKind::Electrical);
        assert_eq!(spec.cells[0].admission, Admission::Immediate);
        let mut hashes: Vec<u64> = spec.cells.iter().map(config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn stream_cells_execute_and_account_for_every_arrival() {
        let spec = tiny_stream_spec();
        let report = run_campaign(&spec, 2, None);
        assert_eq!(report.results.len(), spec.cells.len());
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
            assert_eq!(r.arrivals, r.cell.arrivals);
            assert_eq!(r.admitted + r.rejected, r.arrivals);
            assert_eq!(r.completed, r.admitted);
            assert!(r.makespan_s > 0.0);
            assert!(r.events > 0);
            assert!(r.windows >= 1);
            assert!(r.fairness_index > 0.0 && r.fairness_index <= 1.0 + 1e-12);
            assert!(r.mean_slowdown >= 1.0 - 1e-9);
            match r.cell.admission {
                Admission::Reject { .. } => {}
                _ => assert_eq!(r.rejected, 0, "{:?}", r.cell),
            }
        }
        // The overload rate must actually shed load somewhere under Reject.
        assert!(
            report
                .results
                .iter()
                .any(|r| matches!(r.cell.admission, Admission::Reject { .. }) && r.rejected > 0),
            "no Reject cell shed load at the overload rate"
        );
    }

    #[test]
    fn stream_parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_stream_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn stream_sink_resumes_and_rejects_unknown_models() {
        let mut spec = tiny_stream_spec();
        spec.cells.truncate(4);
        spec.cells.push(StreamCellConfig {
            substrate: SubstrateKind::Optical,
            policy: SchedPolicy::Fifo,
            admission: Admission::Immediate,
            rate_hz: 100.0,
            arrivals: 4,
            algorithm: Algorithm::Wrht,
            model: "NotANet".into(),
            bucket_bytes: 1 << 20,
            window_s: 20e-3,
            n: 8,
            wavelengths: 64,
            strategy: Strategy::FirstFit,
        });
        let first = assert_resumes(&spec);
        assert!(first.results.last().unwrap().error.is_some());
    }

    #[test]
    fn serve_spec_covers_rates_policies_and_admissions() {
        let models = dnn_models::paper_models();
        let spec = serve_spec(&tiny_cfg(), &models, 16, 7);
        // 2 rates × 3 policies × 3 admissions × 2 substrates.
        assert_eq!(spec.cells.len(), 2 * 3 * 3 * 2);
        assert!(spec.cells.iter().all(|c| c.n == 16));
        for policy in SchedPolicy::ALL {
            assert!(spec.cells.iter().any(|c| c.policy == policy));
        }
        assert!(spec
            .cells
            .iter()
            .any(|c| matches!(c.admission, Admission::QueueDepth { .. })));
        assert!(spec
            .cells
            .iter()
            .any(|c| matches!(c.admission, Admission::Reject { .. })));
        assert_eq!(spec.seed, 7);
    }

    fn tiny_parallelism_spec() -> ParallelismSweep {
        let mut spec = ParallelismSweep::grid(
            "tiny-par",
            tiny_cfg(),
            &["GPT2-small"],
            &[(2, 1, 1, 0), (2, 1, 2, 0), (2, 2, 2, 4)],
            1,
            1 << 20,
        );
        spec.seed = 7;
        spec
    }

    #[test]
    fn parallelism_cells_execute_on_the_composed_substrate() {
        let spec = tiny_parallelism_spec();
        let report = run_campaign(&spec, 1, None);
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            assert!(r.error.is_none(), "{:?}: {:?}", r.cell, r.error);
            assert!(r.makespan_s > 0.0);
            assert_eq!(r.nodes, r.cell.tp * r.cell.pp * r.cell.dp);
            assert_eq!(r.transfers, r.intra_transfers + r.inter_transfers);
            assert_eq!(r.seed, spec.seed ^ r.config_hash);
        }
        // One group: every transfer is intra and runs on the flat ring.
        assert_eq!(report.results[0].inter_transfers, 0);
        // DP across groups: inter traffic appears.
        assert!(report.results[1].inter_transfers > 0);
        // The MoE mix exercises both fabrics and both solver counters.
        let moe = &report.results[2];
        assert!(moe.intra_transfers > 0 && moe.inter_transfers > 0);
        assert!(moe.peak_wavelength >= 1);
        assert!(moe.rate_recomputations > 0);
    }

    #[test]
    fn parallelism_campaign_is_parallel_deterministic_and_resumable() {
        let spec = tiny_parallelism_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
        assert_resumes(&spec);
    }

    #[test]
    fn parallelism_rejects_unknown_models_and_bad_shapes() {
        let mut cell = tiny_parallelism_spec().cells[0].clone();
        cell.model = "NotANet".into();
        let r = cell.run(&tiny_cfg(), 7);
        assert!(r.error.as_deref().unwrap().contains("unknown model"));
        let mut bad = tiny_parallelism_spec().cells[0].clone();
        bad.tp = 1;
        let r = bad.run(&tiny_cfg(), 7);
        assert!(r.error.is_some());
    }

    #[test]
    fn parallelism_spec_covers_transformers_and_the_moe_mix() {
        let spec = parallelism_spec(&tiny_cfg(), 7);
        assert_eq!(spec.cells.len(), 2 * 4);
        assert!(spec.cells.iter().any(|c| c.model == "BERT-large"));
        assert!(spec.cells.iter().any(|c| c.moe_experts > 0));
        assert!(spec.cells.iter().any(|c| c.pp == 1 && c.dp == 1));
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn fault_scenarios_resolve_against_the_clean_makespan() {
        let s = FaultScenario::WavelengthDown {
            lane: 3,
            at_frac: 0.5,
        };
        let script = s.script(8.0);
        assert_eq!(script.len(), 1);
        assert_eq!(script.events()[0].at_s, 4.0);
        assert!(FaultScenario::None.script(8.0).is_empty());
        let flap = FaultScenario::LinkFlap {
            link: 1,
            at_frac: 0.25,
            down_frac: 0.0,
        }
        .script(8.0);
        // A zero-duration flap still validates: the outage is floored.
        assert!(matches!(
            flap.events()[0].kind,
            FaultKind::LinkFlap { down_s, .. } if down_s > 0.0
        ));
        assert_eq!(
            RecoveryPolicy::RetryAfter { backoff_s: 0.5 }.label(),
            "retry-after:0.5"
        );
    }

    #[test]
    fn sweep_spec_covers_fig2_and_the_ablation_axes() {
        let models = vec![dnn_models::googlenet()];
        let spec = sweep_spec(&tiny_cfg(), &models, 1);
        // Fig2 grid: 1 model × 2 scales × 5 algorithms × 2 substrates.
        assert!(spec.cells.len() > 2 * 5 * 2);
        assert!(spec
            .cells
            .iter()
            .any(|c| c.group_size.is_some() && c.algorithm == Algorithm::Wrht));
        assert!(spec.cells.iter().any(|c| c.wavelengths == 1));
        assert!(spec
            .cells
            .iter()
            .any(|c| c.strategy == Strategy::BestFit && c.algorithm == Algorithm::Wrht));
    }
}
