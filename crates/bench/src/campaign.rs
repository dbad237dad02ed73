//! The parallel campaign-sweep engine.
//!
//! A *campaign* is a declarative grid of experiment cells — node count ×
//! wavelength budget × DNN model × algorithm × RWA strategy × substrate —
//! executed through the unified [`Substrate`] API:
//!
//! * every cell is identified by a stable FNV-1a **config hash** and seeded
//!   deterministically from `campaign seed ⊕ cell hash`;
//! * cells fan out over [`std::thread::scope`] workers pulling chunks from a
//!   shared atomic cursor (chunked work-stealing), yet the collected result
//!   vector is ordered by grid position, so a parallel run serializes
//!   byte-identically to a serial one;
//! * an optional **sink** directory receives one JSON file per finished
//!   cell (keyed by the config hash) plus combined JSON/CSV tables;
//!   interrupted campaigns resume by reloading finished cells from the sink
//!   instead of recomputing them;
//! * infeasible cells (e.g. Wrht under a starved wavelength budget) record
//!   their error string instead of aborting the sweep.
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
use collectives::halving_doubling::halving_doubling;
use collectives::rd::recursive_doubling;
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use dnn_models::Model;
use optical_sim::sim::StepSchedule;
use optical_sim::Strategy;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wrht_core::baselines::lower_collective_to_optical;
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

/// A declarative campaign: shared physical constants plus a cell list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<CellConfig>,
}

impl CampaignSpec {
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

/// Executed campaign: results in the same order as `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<CellResult>,
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable FNV-1a hash of a cell configuration (over its compact JSON
/// rendering, which is deterministic for this plain-data type).
#[must_use]
pub fn config_hash(cell: &CellConfig) -> u64 {
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

/// Lower a cell's classic-collective schedule to the substrate IR.
fn logical_schedule(cell: &CellConfig, local: &ExperimentConfig) -> StepSchedule {
    let elems = (cell.gradient_bytes as usize).div_ceil(local.bytes_per_elem);
    let schedule = match cell.algorithm {
        Algorithm::Ring => ring_allreduce(cell.n, elems),
        Algorithm::RecursiveDoubling => recursive_doubling(cell.n, elems),
        Algorithm::HalvingDoubling => halving_doubling(cell.n, elems),
        Algorithm::Tree => binomial_tree(cell.n, elems),
        Algorithm::Wrht => unreachable!("Wrht cells lower via wrht_plan"),
    };
    lower_collective_to_optical(&schedule, local.bytes_per_elem, 1)
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

/// Execute one cell against the campaign's physical constants.
#[must_use]
pub fn run_cell(base: &ExperimentConfig, seed: u64, cell: &CellConfig) -> CellResult {
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

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    // time_s, steps, total_bytes, peak_wavelengths of the executed cell.
    type CellOutcome = wrht_core::error::Result<(f64, usize, u64, usize)>;

    let outcome: CellOutcome = match cell.mode {
        ExecMode::Barrier => match cell.algorithm {
            Algorithm::Wrht => match cell.substrate {
                // Plan and execute on the stepped optical substrate.
                SubstrateKind::Optical => {
                    let params = match cell.group_size {
                        Some(m) => WrhtParams::fixed(cell.n, cell.wavelengths, m),
                        None => WrhtParams::auto(cell.n, cell.wavelengths),
                    };
                    plan_and_simulate(&params, &local.optical(cell.n), cell.gradient_bytes).map(
                        |planned| {
                            result.wrht_m = planned.m;
                            summarize(&planned.report)
                        },
                    )
                }
                // Plan against the optical cost model (no optical
                // simulation), then execute the lowered schedule on the
                // electrical fabric.
                SubstrateKind::Electrical => wrht_plan(cell, &local).and_then(|plan| {
                    result.wrht_m = plan.m;
                    let r = local
                        .try_substrate(cell.substrate, cell.n, cell.strategy)?
                        .execute(&to_optical_schedule(&plan, cell.gradient_bytes))?;
                    Ok(summarize(&r))
                }),
            },
            _ => local
                .try_substrate(cell.substrate, cell.n, cell.strategy)
                .and_then(|mut substrate| substrate.execute(&logical_schedule(cell, &local)))
                .map(|r| summarize(&r)),
        },
        // Pipelined: obtain the same schedule (Wrht plans against the
        // optical cost model on both substrates, mirroring the electrical
        // Wrht cells), lower to the per-node dependency DAG and execute
        // event-driven — consecutive steps overlap on the wire.
        ExecMode::Pipelined => {
            let schedule = match cell.algorithm {
                Algorithm::Wrht => wrht_plan(cell, &local).map(|plan| {
                    result.wrht_m = plan.m;
                    to_optical_schedule(&plan, cell.gradient_bytes)
                }),
                _ => Ok(logical_schedule(cell, &local)),
            };
            schedule.and_then(|schedule| {
                let dag = DepSchedule::pipelined_from_steps(&schedule);
                let report = local
                    .try_substrate(cell.substrate, cell.n, cell.strategy)?
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

fn cell_file(sink: &Path, prefix: &str, hash: u64) -> std::path::PathBuf {
    sink.join(format!("{prefix}-{hash:016x}.json"))
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

/// Run a campaign over `threads` workers with chunked work-stealing.
///
/// Passing a `sink` directory enables incremental persistence and resume:
/// each finished cell lands in `cell-<hash>.json`, and cells whose file
/// already exists are reloaded instead of recomputed. The returned results
/// are in grid order regardless of thread interleaving, so
/// `run_campaign(spec, 1, None)` and `run_campaign(spec, 8, None)` produce
/// byte-identical JSON.
#[must_use]
pub fn run_campaign(spec: &CampaignSpec, threads: usize, sink: Option<&Path>) -> CampaignReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    // Sink keys mix the per-cell hash with the campaign context so resumes
    // never reuse cells computed under different physics or seed.
    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec.cells.iter().map(|c| config_hash(c) ^ ctx).collect();
    let mut prefilled: Vec<Option<CellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(&cell_file(dir, "cell", keys[i]), |r: &CellResult| {
                r.cell == *cell && r.config_hash == config_hash(cell) && r.seed == expected_seed
            })
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "cell", keys[i]), to_json(result));
            }
        },
    );

    let report = CampaignReport {
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
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Render a campaign as CSV (stable column order, grid row order).
#[must_use]
pub fn to_csv(report: &CampaignReport) -> String {
    let mut out = String::from(
        "substrate,algorithm,mode,model,n,wavelengths,strategy,group_size,\
         gradient_bytes,seed,time_s,steps,total_bytes,peak_wavelengths,wrht_m,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{:?},{},{},{},{},{},{},{},{},{}\n",
            c.substrate.label(),
            c.algorithm.label(),
            c.mode.label(),
            csv_field(&c.model),
            c.n,
            c.wavelengths,
            c.strategy,
            c.group_size
                .map_or_else(|| "auto".into(), |m| m.to_string()),
            c.gradient_bytes,
            r.seed,
            r.time_s,
            r.steps,
            r.total_bytes,
            r.peak_wavelengths,
            r.wrht_m,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
}

/// Find one finished Figure-2-grid cell by coordinates. The wavelength
/// budget, First-Fit strategy and auto group size are part of the match so
/// ablation cells (fixed m, Best Fit, swept budgets) can never be mistaken
/// for grid cells.
fn lookup<'a>(
    results: &'a [CellResult],
    model: &str,
    n: usize,
    wavelengths: usize,
    algorithm: Algorithm,
    substrate: SubstrateKind,
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
            let (Some(e_ring), Some(rd), Some(o_ring), Some(wrht)) = (
                lookup(
                    results,
                    model,
                    n,
                    wavelengths,
                    Algorithm::Ring,
                    SubstrateKind::Electrical,
                ),
                lookup(
                    results,
                    model,
                    n,
                    wavelengths,
                    Algorithm::RecursiveDoubling,
                    SubstrateKind::Electrical,
                ),
                lookup(
                    results,
                    model,
                    n,
                    wavelengths,
                    Algorithm::Ring,
                    SubstrateKind::Optical,
                ),
                lookup(
                    results,
                    model,
                    n,
                    wavelengths,
                    Algorithm::Wrht,
                    SubstrateKind::Optical,
                ),
            ) else {
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

/// The full reproduction sweep as **one campaign**: the Figure-2 grid on
/// both substrates (every algorithm × model × scale), the group-size
/// ablation, the wavelength-budget ablation and the RWA-strategy ablation.
#[must_use]
pub fn sweep_spec(cfg: &ExperimentConfig, models: &[Model], seed: u64) -> CampaignSpec {
    let named: Vec<(&str, u64)> = models
        .iter()
        .map(|m| (m.name.as_str(), m.gradient_bytes()))
        .collect();
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

/// A declarative timeline campaign: shared physical constants plus cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSpec {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<TimelineCellConfig>,
}

impl TimelineSpec {
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

/// Executed timeline campaign: results in the same order as `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<TimelineCellResult>,
}

/// Stable FNV-1a hash of a timeline cell configuration.
#[must_use]
pub fn timeline_config_hash(cell: &TimelineCellConfig) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Execute one timeline cell against the campaign's physical constants.
#[must_use]
pub fn run_timeline_cell(
    base: &ExperimentConfig,
    seed: u64,
    cell: &TimelineCellConfig,
) -> TimelineCellResult {
    let hash = timeline_config_hash(cell);
    let mut result = TimelineCellResult {
        cell: cell.clone(),
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

    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    match crate::timeline::model_timeline(
        &local,
        &model,
        cell.n,
        cell.bucket_bytes,
        cell.algorithm,
        cell.substrate,
        cell.strategy,
        cell.mode,
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

/// Run a timeline campaign over `threads` workers — deterministic and
/// resumable exactly like [`run_campaign`]: one `tcell-<hash>.json` per
/// finished cell, grid-ordered results, byte-identical serial/parallel
/// output, plus combined `<name>.json` / `<name>.csv` tables.
#[must_use]
pub fn run_timeline_campaign(
    spec: &TimelineSpec,
    threads: usize,
    sink: Option<&Path>,
) -> TimelineReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec
        .cells
        .iter()
        .map(|c| timeline_config_hash(c) ^ ctx)
        .collect();
    let mut prefilled: Vec<Option<TimelineCellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ timeline_config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(
                &cell_file(dir, "tcell", keys[i]),
                |r: &TimelineCellResult| {
                    r.cell == *cell
                        && r.config_hash == timeline_config_hash(cell)
                        && r.seed == expected_seed
                },
            )
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_timeline_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "tcell", keys[i]), to_json(result));
            }
        },
    );

    let report = TimelineReport {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(
            dir.join(format!("{}.csv", spec.name)),
            timeline_to_csv(&report),
        );
    }
    report
}

/// Render a timeline campaign as CSV (stable column order, grid rows).
#[must_use]
pub fn timeline_to_csv(report: &TimelineReport) -> String {
    let mut out = String::from(
        "substrate,algorithm,mode,model,n,wavelengths,strategy,bucket_bytes,seed,\
         buckets,compute_s,overlapped_s,sequential_s,total_comm_s,\
         exposed_comm_s,hidden_fraction,steps,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{:?},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.substrate.label(),
            c.algorithm.label(),
            c.mode.label(),
            csv_field(&c.model),
            c.n,
            c.wavelengths,
            c.strategy,
            c.bucket_bytes,
            r.seed,
            r.buckets,
            r.compute_s,
            r.overlapped_s,
            r.sequential_s,
            r.total_comm_s,
            r.exposed_comm_s,
            r.hidden_fraction,
            r.steps,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
}

impl From<&TimelineCellResult> for crate::timeline::TimelineRow {
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
) -> TimelineSpec {
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    let mut spec = TimelineSpec::grid(
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

/// A declarative tenancy campaign: shared physical constants plus cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancySweep {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<TenancyCellConfig>,
}

impl TenancySweep {
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

/// Executed tenancy campaign: results in the same order as `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyCampaignReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<TenancyCellResult>,
}

/// Stable FNV-1a hash of a tenancy cell configuration.
#[must_use]
pub fn tenancy_config_hash(cell: &TenancyCellConfig) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Execute one tenancy cell against the campaign's physical constants.
#[must_use]
pub fn run_tenancy_cell(
    base: &ExperimentConfig,
    seed: u64,
    cell: &TenancyCellConfig,
) -> TenancyCellResult {
    let hash = tenancy_config_hash(cell);
    let mut result = TenancyCellResult {
        cell: cell.clone(),
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

    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: wrht_core::error::Result<wrht_core::ClusterReport> = (|| {
        // Lower the model's gradient buckets once; every job runs the same
        // iteration, shifted by its arrival.
        let buckets = crate::timeline::timeline_buckets(&model, cell.bucket_bytes);
        let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
        for b in &buckets {
            let (schedule, _) =
                crate::timeline::lower_allreduce(&local, cell.algorithm, cell.n, b.bytes)?;
            lowered.push((b.ready_s, schedule));
        }
        let im = crate::timeline::iteration_model(&model);
        let compute_s = im.forward_s + im.backward_s;
        let mut spec = TenancySpec::new(cell.policy);
        for j in 0..cell.jobs {
            spec = spec.with_job(
                Job::training(
                    format!("{}#{j}", model.name),
                    j as f64 * cell.arrival_stagger_s,
                    lowered.clone(),
                )
                .with_compute(compute_s)
                .with_priority(j as u32),
            );
        }
        local
            .try_substrate(cell.substrate, cell.n, cell.strategy)?
            .execute_jobs(&spec)
    })();

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

/// Run a tenancy campaign over `threads` workers — deterministic and
/// resumable exactly like [`run_campaign`]: one `jcell-<hash>.json` per
/// finished cell, grid-ordered results, byte-identical serial/parallel
/// output, plus combined `<name>.json` / `<name>.csv` tables.
#[must_use]
pub fn run_tenancy_campaign(
    spec: &TenancySweep,
    threads: usize,
    sink: Option<&Path>,
) -> TenancyCampaignReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec
        .cells
        .iter()
        .map(|c| tenancy_config_hash(c) ^ ctx)
        .collect();
    let mut prefilled: Vec<Option<TenancyCellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ tenancy_config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(
                &cell_file(dir, "jcell", keys[i]),
                |r: &TenancyCellResult| {
                    r.cell == *cell
                        && r.config_hash == tenancy_config_hash(cell)
                        && r.seed == expected_seed
                },
            )
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_tenancy_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "jcell", keys[i]), to_json(result));
            }
        },
    );

    let report = TenancyCampaignReport {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(
            dir.join(format!("{}.csv", spec.name)),
            tenancy_to_csv(&report),
        );
    }
    report
}

/// Render a tenancy campaign as CSV (stable column order, grid rows).
#[must_use]
pub fn tenancy_to_csv(report: &TenancyCampaignReport) -> String {
    let mut out = String::from(
        "substrate,policy,jobs,algorithm,model,n,wavelengths,strategy,bucket_bytes,\
         stagger_s,seed,makespan_s,mean_slowdown,max_slowdown,fairness_index,\
         slowdown_p50,slowdown_p99,slowdown_p999,\
         mean_hidden_fraction,peak_wavelengths,transfers,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.substrate.label(),
            c.policy.label(),
            c.jobs,
            c.algorithm.label(),
            csv_field(&c.model),
            c.n,
            c.wavelengths,
            c.strategy,
            c.bucket_bytes,
            c.arrival_stagger_s,
            r.seed,
            r.makespan_s,
            r.mean_slowdown,
            r.max_slowdown,
            r.fairness_index,
            r.slowdown_p50,
            r.slowdown_p99,
            r.slowdown_p999,
            r.mean_hidden_fraction,
            r.peak_wavelengths,
            r.transfers,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
}

/// The `repro-figures tenants` campaign: 1/2/4 concurrent training jobs of
/// the first model under every [`SchedPolicy`] on both substrates at `n`
/// nodes, arrivals 1 ms apart, DDP-default 25 MB buckets.
#[must_use]
pub fn tenants_spec(cfg: &ExperimentConfig, models: &[Model], n: usize, seed: u64) -> TenancySweep {
    let first: Vec<&str> = models
        .first()
        .map(|m| m.name.as_str())
        .into_iter()
        .collect();
    let mut spec = TenancySweep::grid(
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

/// A declarative fault campaign: shared physical constants plus cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweep {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<FaultCellConfig>,
}

impl FaultSweep {
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

/// Executed fault campaign: results in the same order as `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<FaultCellResult>,
}

/// Stable FNV-1a hash of a fault cell configuration.
#[must_use]
pub fn fault_config_hash(cell: &FaultCellConfig) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Execute one fault cell against the campaign's physical constants.
///
/// The composed multi-job DAG is run **clean** first; the scenario's
/// fractional fault instants are resolved against that measured makespan,
/// and the same DAG is re-run **faulted**. The two runs are diffed into
/// blast-radius and recovery metrics by
/// [`wrht_core::fault::fault_cluster_report`].
#[must_use]
pub fn run_fault_cell(
    base: &ExperimentConfig,
    seed: u64,
    cell: &FaultCellConfig,
) -> FaultCellResult {
    let hash = fault_config_hash(cell);
    let mut result = FaultCellResult {
        cell: cell.clone(),
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

    let Some(model) = dnn_models::model_by_name(&cell.model) else {
        result.error = Some(format!("unknown model '{}'", cell.model));
        return result;
    };

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: wrht_core::error::Result<FaultClusterReport> = (|| {
        // Same job construction as `run_tenancy_cell`: every job runs one
        // training iteration of the model, shifted by its arrival.
        let buckets = crate::timeline::timeline_buckets(&model, cell.bucket_bytes);
        let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
        for b in &buckets {
            let (schedule, _) =
                crate::timeline::lower_allreduce(&local, cell.algorithm, cell.n, b.bytes)?;
            lowered.push((b.ready_s, schedule));
        }
        let im = crate::timeline::iteration_model(&model);
        let compute_s = im.forward_s + im.backward_s;
        let mut spec = TenancySpec::new(cell.policy);
        for j in 0..cell.jobs {
            spec = spec.with_job(
                Job::training(
                    format!("{}#{j}", model.name),
                    j as f64 * cell.arrival_stagger_s,
                    lowered.clone(),
                )
                .with_compute(compute_s)
                .with_priority(j as u32),
            );
        }

        let composed = spec.compose()?;
        let arb = spec.arbitration(&composed.job_of);
        let mut sub = local.try_substrate(cell.substrate, cell.n, cell.strategy)?;
        let clean = sub.execute_dag_jobs(&composed.dag, &arb)?;
        let script = cell.scenario.script(clean.dag.makespan_s);
        let policy = cell.fault_policy.to_policy();
        let faulted = sub.execute_dag_jobs_faulted(&composed.dag, &arb, &script, policy)?;
        Ok(fault_cluster_report(
            &spec, &composed, &clean.dag, &faulted, policy,
        ))
    })();

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
            result.error = None;
        }
        Err(e) => result.error = Some(e.to_string()),
    }
    result
}

/// Run a fault campaign over `threads` workers — deterministic and
/// resumable exactly like [`run_campaign`]: one `fcell-<hash>.json` per
/// finished cell, grid-ordered results, byte-identical serial/parallel
/// output, plus combined `<name>.json` / `<name>.csv` tables.
#[must_use]
pub fn run_fault_campaign(
    spec: &FaultSweep,
    threads: usize,
    sink: Option<&Path>,
) -> FaultCampaignReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec
        .cells
        .iter()
        .map(|c| fault_config_hash(c) ^ ctx)
        .collect();
    let mut prefilled: Vec<Option<FaultCellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ fault_config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(&cell_file(dir, "fcell", keys[i]), |r: &FaultCellResult| {
                r.cell == *cell
                    && r.config_hash == fault_config_hash(cell)
                    && r.seed == expected_seed
            })
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_fault_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "fcell", keys[i]), to_json(result));
            }
        },
    );

    let report = FaultCampaignReport {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(
            dir.join(format!("{}.csv", spec.name)),
            fault_to_csv(&report),
        );
    }
    report
}

/// Render a fault campaign as CSV (stable column order, grid rows).
#[must_use]
pub fn fault_to_csv(report: &FaultCampaignReport) -> String {
    let mut out = String::from(
        "substrate,sched_policy,fault_policy,scenario,jobs,model,n,wavelengths,\
         bucket_bytes,stagger_s,seed,clean_makespan_s,makespan_s,degraded_ratio,\
         recovery_s,first_impact_s,delayed,aborted,failed,failed_jobs,transfers,\
         peak_wavelengths,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.substrate.label(),
            c.policy.label(),
            csv_field(&c.fault_policy.label()),
            csv_field(&c.scenario.label()),
            c.jobs,
            csv_field(&c.model),
            c.n,
            c.wavelengths,
            c.bucket_bytes,
            c.arrival_stagger_s,
            r.seed,
            r.clean_makespan_s,
            r.makespan_s,
            r.degraded_ratio,
            r.recovery_s,
            r.first_impact_s.map_or(String::new(), |t| t.to_string()),
            r.delayed,
            r.aborted,
            r.failed,
            r.failed_jobs,
            r.transfers,
            r.peak_wavelengths,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
}

/// The `repro-figures faults` campaign: 2 concurrent training jobs of the
/// first model under FIFO arbitration, hit by one wavelength failure, one
/// link degradation and one node failure (each at 50% of the clean
/// makespan) under `Replan` and `FailJob` recovery, on both substrates.
#[must_use]
pub fn faults_spec(cfg: &ExperimentConfig, models: &[Model], n: usize, seed: u64) -> FaultSweep {
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
    let mut spec = FaultSweep::grid(
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

/// A declarative stream campaign: shared physical constants plus cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSweep {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<StreamCellConfig>,
}

impl StreamSweep {
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

/// Executed stream campaign: results in the same order as `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCampaignReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<StreamCellResult>,
}

/// Stable FNV-1a hash of a stream cell configuration.
#[must_use]
pub fn stream_config_hash(cell: &StreamCellConfig) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Execute one stream cell against the campaign's physical constants.
///
/// The model's gradient buckets are lowered once into a training-iteration
/// workload; the cell serves `arrivals` Poisson arrivals of that workload
/// (alternating between a high- and a low-priority template, so the
/// priority axis has something to bite on) through the online stream
/// engine and keeps the scalar summary.
#[must_use]
pub fn run_stream_cell(
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

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: wrht_core::error::Result<StreamReport> = (|| {
        let buckets = crate::timeline::timeline_buckets(&model, cell.bucket_bytes);
        let mut lowered: Vec<(f64, StepSchedule)> = Vec::with_capacity(buckets.len());
        for b in &buckets {
            let (schedule, _) =
                crate::timeline::lower_allreduce(&local, cell.algorithm, cell.n, b.bytes)?;
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
        local
            .try_substrate(cell.substrate, cell.n, cell.strategy)?
            .execute_stream(&spec)
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

/// Run a stream campaign over `threads` workers — deterministic and
/// resumable exactly like [`run_campaign`]: one `scell-<hash>.json` per
/// finished cell, grid-ordered results, byte-identical serial/parallel
/// output, plus combined `<name>.json` / `<name>.csv` tables.
#[must_use]
pub fn run_stream_campaign(
    spec: &StreamSweep,
    threads: usize,
    sink: Option<&Path>,
) -> StreamCampaignReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec
        .cells
        .iter()
        .map(|c| stream_config_hash(c) ^ ctx)
        .collect();
    let mut prefilled: Vec<Option<StreamCellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ stream_config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(&cell_file(dir, "scell", keys[i]), |r: &StreamCellResult| {
                r.cell == *cell
                    && r.config_hash == stream_config_hash(cell)
                    && r.seed == expected_seed
            })
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_stream_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "scell", keys[i]), to_json(result));
            }
        },
    );

    let report = StreamCampaignReport {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(
            dir.join(format!("{}.csv", spec.name)),
            stream_to_csv(&report),
        );
    }
    report
}

/// Render a stream campaign as CSV (stable column order, grid rows).
#[must_use]
pub fn stream_to_csv(report: &StreamCampaignReport) -> String {
    let mut out = String::from(
        "substrate,policy,admission,rate_hz,arrivals,algorithm,model,n,wavelengths,\
         bucket_bytes,window_s,seed,admitted,rejected,completed,makespan_s,events,\
         mean_utilization,mean_slowdown,slowdown_p50,slowdown_p99,slowdown_p999,\
         fairness_index,peak_queue_depth,peak_in_service,windows,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            c.substrate.label(),
            c.policy.label(),
            csv_field(&c.admission.label()),
            c.rate_hz,
            c.arrivals,
            c.algorithm.label(),
            csv_field(&c.model),
            c.n,
            c.wavelengths,
            c.bucket_bytes,
            c.window_s,
            r.seed,
            r.admitted,
            r.rejected,
            r.completed,
            r.makespan_s,
            r.events,
            r.mean_utilization,
            r.mean_slowdown,
            r.slowdown_p50,
            r.slowdown_p99,
            r.slowdown_p999,
            r.fairness_index,
            r.peak_queue_depth,
            r.peak_in_service,
            r.windows,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
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

/// A declarative mixed-parallelism campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismSweep {
    /// Campaign name (names the combined sink files).
    pub name: String,
    /// Physical constants shared by every cell.
    pub base: ExperimentConfig,
    /// Campaign-level seed, mixed into every cell seed.
    pub seed: u64,
    /// The cells, in grid order.
    pub cells: Vec<ParCellConfig>,
}

impl ParallelismSweep {
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

/// Executed parallelism campaign: results in the same order as
/// `spec.cells`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismCampaignReport {
    /// Campaign name.
    pub name: String,
    /// One result per cell, in grid order.
    pub results: Vec<ParCellResult>,
}

/// Stable FNV-1a hash of a parallelism cell configuration.
#[must_use]
pub fn parallelism_config_hash(cell: &ParCellConfig) -> u64 {
    fnv1a(&serde_json::to_string(cell).expect("cell configs serialize"))
}

/// Execute one parallelism cell against the campaign's physical constants.
///
/// The model's gradients are split evenly over the pipeline stages
/// ([`wrht_core::parallelism::StageModel::split`]), the iteration is
/// lowered to one dependency DAG
/// ([`wrht_core::parallelism::lower_parallelism`]) and executed on the
/// composed substrate; the result keeps the makespan plus the per-domain
/// traffic split the hierarchy derived.
#[must_use]
pub fn run_parallelism_cell(
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

    // Cell-local constants: the cell's wavelength budget overrides the base.
    let mut local = base.clone();
    local.wavelengths = cell.wavelengths;

    let outcome: wrht_core::error::Result<()> = (|| {
        let spec = ParallelismSpec::new(
            cell.tp,
            cell.pp,
            cell.dp,
            cell.moe_experts,
            cell.microbatches,
        )?;
        let stages = StageModel::split(model.gradient_bytes(), cell.pp, cell.activation_bytes);
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
        let mut sub = local.try_composed(hier, cell.strategy)?;
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

/// Run a parallelism campaign over `threads` workers — deterministic and
/// resumable exactly like [`run_campaign`]: one `pcell-<hash>.json` per
/// finished cell, grid-ordered results, byte-identical serial/parallel
/// output, plus combined `<name>.json` / `<name>.csv` tables.
#[must_use]
pub fn run_parallelism_campaign(
    spec: &ParallelismSweep,
    threads: usize,
    sink: Option<&Path>,
) -> ParallelismCampaignReport {
    if let Some(dir) = sink {
        let _ = fs::create_dir_all(dir);
    }

    let ctx = context_hash(&spec.base, spec.seed);
    let keys: Vec<u64> = spec
        .cells
        .iter()
        .map(|c| parallelism_config_hash(c) ^ ctx)
        .collect();
    let mut prefilled: Vec<Option<ParCellResult>> = vec![None; spec.cells.len()];
    for (i, cell) in spec.cells.iter().enumerate() {
        let expected_seed = spec.seed ^ parallelism_config_hash(cell);
        prefilled[i] = sink.and_then(|dir| {
            load_finished(&cell_file(dir, "pcell", keys[i]), |r: &ParCellResult| {
                r.cell == *cell
                    && r.config_hash == parallelism_config_hash(cell)
                    && r.seed == expected_seed
            })
        });
    }

    let results = run_slots(
        threads,
        prefilled,
        |i| run_parallelism_cell(&spec.base, spec.seed, &spec.cells[i]),
        |i, result| {
            if let Some(dir) = sink {
                let _ = fs::write(cell_file(dir, "pcell", keys[i]), to_json(result));
            }
        },
    );

    let report = ParallelismCampaignReport {
        name: spec.name.clone(),
        results,
    };
    if let Some(dir) = sink {
        let _ = fs::write(dir.join(format!("{}.json", spec.name)), to_json(&report));
        let _ = fs::write(
            dir.join(format!("{}.csv", spec.name)),
            parallelism_to_csv(&report),
        );
    }
    report
}

/// Render a parallelism campaign as CSV (stable column order, grid rows).
#[must_use]
pub fn parallelism_to_csv(report: &ParallelismCampaignReport) -> String {
    let mut out = String::from(
        "model,tp,pp,dp,moe_experts,microbatches,activation_bytes,wavelengths,seed,\
         nodes,groups,transfers,intra_transfers,inter_transfers,intra_bytes,inter_bytes,\
         makespan_s,peak_wavelength,rate_recomputations,solver_work,events,error\n",
    );
    for r in &report.results {
        let c = &r.cell;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_field(&c.model),
            c.tp,
            c.pp,
            c.dp,
            c.moe_experts,
            c.microbatches,
            c.activation_bytes,
            c.wavelengths,
            r.seed,
            r.nodes,
            r.groups,
            r.transfers,
            r.intra_transfers,
            r.inter_transfers,
            r.intra_bytes,
            r.inter_bytes,
            r.makespan_s,
            r.peak_wavelength,
            r.rate_recomputations,
            r.solver_work,
            r.events,
            csv_field(r.error.as_deref().unwrap_or("")),
        ));
    }
    out
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
        let r = run_cell(&tiny_cfg(), 0, &cell);
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
            let r = run_cell(&tiny_cfg(), 0, &cell);
            assert!(r.error.is_some(), "{algorithm:?} must record an error");
        }
    }

    #[test]
    fn csv_escapes_fields_containing_delimiters() {
        let mut r = run_cell(&tiny_cfg(), 0, &tiny_spec().cells[0]);
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
    fn parallel_run_is_byte_identical_to_serial() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, 1, None);
        let parallel = run_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn sink_resumes_interrupted_campaigns() {
        let dir = std::env::temp_dir().join(format!("wrht-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let first = run_campaign(&spec, 2, Some(&dir));
        // All cell files exist; a resumed run must reuse them byte-for-byte.
        let cells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("cell-")
            })
            .count();
        assert_eq!(cells, spec.cells.len());
        let resumed = run_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        // Combined tables were written.
        assert!(dir.join("tiny.json").exists());
        assert!(dir.join("tiny.csv").exists());
        let csv = fs::read_to_string(dir.join("tiny.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        let _ = fs::remove_dir_all(&dir);
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

    fn tiny_timeline_spec() -> TimelineSpec {
        let mut spec = TimelineSpec::grid(
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
        let mut hashes: Vec<u64> = spec.cells.iter().map(timeline_config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn timeline_cells_execute_and_derive_seeds() {
        let spec = tiny_timeline_spec();
        let report = run_timeline_campaign(&spec, 2, None);
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
        let serial = run_timeline_campaign(&spec, 1, None);
        let parallel = run_timeline_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn timeline_sink_resumes_and_rejects_unknown_models() {
        let dir = std::env::temp_dir().join(format!("wrht-tl-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
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
        let first = run_timeline_campaign(&spec, 2, Some(&dir));
        assert!(first.results.last().unwrap().error.is_some());
        let resumed = run_timeline_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join("tiny-train.json").exists());
        let csv = fs::read_to_string(dir.join("tiny-train.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        // Timeline sink files use their own prefix, so the two campaign
        // kinds can share a directory without key collisions.
        let tcells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("tcell-")
            })
            .count();
        assert_eq!(tcells, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
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

    fn tiny_tenancy_spec() -> TenancySweep {
        let mut spec = TenancySweep::grid(
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
        let mut hashes: Vec<u64> = spec.cells.iter().map(tenancy_config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn tenancy_cells_execute_and_single_job_cells_are_unslowed() {
        let spec = tiny_tenancy_spec();
        let report = run_tenancy_campaign(&spec, 2, None);
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
        let serial = run_tenancy_campaign(&spec, 1, None);
        let parallel = run_tenancy_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn tenancy_sink_resumes_and_rejects_unknown_models() {
        let dir = std::env::temp_dir().join(format!("wrht-tn-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
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
        let first = run_tenancy_campaign(&spec, 2, Some(&dir));
        assert!(first.results.last().unwrap().error.is_some());
        let resumed = run_tenancy_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join("tiny-tenants.json").exists());
        let csv = fs::read_to_string(dir.join("tiny-tenants.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        // Tenancy sink files use their own prefix, so all three campaign
        // kinds can share a directory without key collisions.
        let jcells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("jcell-")
            })
            .count();
        assert_eq!(jcells, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
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

    fn tiny_fault_spec() -> FaultSweep {
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
        let mut spec = FaultSweep::grid(
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
        let mut hashes: Vec<u64> = spec.cells.iter().map(fault_config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn fault_cells_execute_and_empty_scripts_have_zero_blast_radius() {
        let spec = tiny_fault_spec();
        let report = run_fault_campaign(&spec, 2, None);
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
        let serial = run_fault_campaign(&spec, 1, None);
        let parallel = run_fault_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn fault_sink_resumes_and_rejects_unknown_models() {
        let dir = std::env::temp_dir().join(format!("wrht-ft-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
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
        let first = run_fault_campaign(&spec, 2, Some(&dir));
        assert!(first.results.last().unwrap().error.is_some());
        let resumed = run_fault_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join("tiny-faults.json").exists());
        let csv = fs::read_to_string(dir.join("tiny-faults.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        // Fault sink files use their own prefix, so all four campaign kinds
        // can share a directory without key collisions.
        let fcells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("fcell-")
            })
            .count();
        assert_eq!(fcells, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
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
        let mut hashes: Vec<u64> = spec.cells.iter().map(stream_config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), spec.cells.len(), "hash collision");
    }

    #[test]
    fn stream_cells_execute_and_account_for_every_arrival() {
        let spec = tiny_stream_spec();
        let report = run_stream_campaign(&spec, 2, None);
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
        let serial = run_stream_campaign(&spec, 1, None);
        let parallel = run_stream_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));
    }

    #[test]
    fn stream_sink_resumes_and_rejects_unknown_models() {
        let dir = std::env::temp_dir().join(format!("wrht-st-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
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
        let first = run_stream_campaign(&spec, 2, Some(&dir));
        assert!(first.results.last().unwrap().error.is_some());
        let resumed = run_stream_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join("tiny-serve.json").exists());
        let csv = fs::read_to_string(dir.join("tiny-serve.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        // Stream sink files use their own prefix, so all five campaign
        // kinds can share a directory without key collisions.
        let scells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("scell-")
            })
            .count();
        assert_eq!(scells, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
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
        let report = run_parallelism_campaign(&spec, 1, None);
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
        let serial = run_parallelism_campaign(&spec, 1, None);
        let parallel = run_parallelism_campaign(&spec, 8, None);
        assert_eq!(to_json(&serial), to_json(&parallel));

        let dir = std::env::temp_dir().join(format!("wrht-par-campaign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let first = run_parallelism_campaign(&spec, 2, Some(&dir));
        let resumed = run_parallelism_campaign(&spec, 2, Some(&dir));
        assert_eq!(to_json(&first), to_json(&resumed));
        assert!(dir.join("tiny-par.json").exists());
        let csv = fs::read_to_string(dir.join("tiny-par.csv")).unwrap();
        assert_eq!(csv.lines().count(), spec.cells.len() + 1);
        let pcells = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("pcell-")
            })
            .count();
        assert_eq!(pcells, spec.cells.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallelism_rejects_unknown_models_and_bad_shapes() {
        let mut cell = tiny_parallelism_spec().cells[0].clone();
        cell.model = "NotANet".into();
        let r = run_parallelism_cell(&tiny_cfg(), 7, &cell);
        assert!(r.error.as_deref().unwrap().contains("unknown model"));
        let mut bad = tiny_parallelism_spec().cells[0].clone();
        bad.tp = 1;
        let r = run_parallelism_cell(&tiny_cfg(), 7, &bad);
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
