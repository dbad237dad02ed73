//! The four workloads: how each builds its campaign spec from the seed, runs
//! it through the public `wrht_bench::campaign` entry points with one
//! worker (as `repro-figures` does), and how its output is checked.

use std::fs;
use std::path::Path;

use wrht_bench::campaign::{
    fig2_from_campaign, run_campaign, run_parallelism_campaign, run_stream_campaign, serve_spec,
    sweep_spec, Algorithm, CampaignReport, CampaignSpec, CellResult, ParCellResult,
    ParallelismCampaignReport, ParallelismSweep, StreamCampaignReport, StreamCellResult,
    StreamSweep,
};
use wrht_bench::config::{ExperimentConfig, SubstrateKind};
use wrht_bench::report::{
    render_fig2, render_headline, render_parallelism, render_streams, to_json,
};
use wrht_bench::{headline, Headline};

use crate::stats;

/// The seed the stored reference digests were recorded with.
pub const DEFAULT_SEED: u64 = 2023;

/// Node count of the `serve` workload.
pub const SERVE_NODES: usize = 128;
/// Ring sizes of `wrht-scale`: the paper's four and two beyond them.
pub const SCALE_NODES: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];
/// Wavelength budgets of `wrht-scale`.
pub const SCALE_WAVELENGTHS: [usize; 3] = [16, 32, 64];
/// `(tp, pp, dp, moe_experts)` shapes of `hier-parallelism`.
pub const HIER_SHAPES: [(usize, usize, usize, usize); 4] =
    [(8, 1, 1, 0), (8, 1, 8, 0), (8, 4, 4, 0), (8, 4, 4, 8)];
/// Microbatches per iteration of `hier-parallelism`.
pub const HIER_MICROBATCHES: usize = 128;
/// Activation bytes per microbatch of `hier-parallelism`.
pub const HIER_ACTIVATION_BYTES: u64 = 8 << 20;

/// The paper's headline as the default physics reproduces it, and the
/// paper's own figures, percent.
pub const HEADLINE_REPRODUCED: (&str, &str) = ("81.22", "86.82");
pub const HEADLINE_PAPER: (f64, f64) = (75.76, 91.86);

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sweep_spec` over the paper's four models: the Figure-2 campaign.
    Fig2Sweep,
    /// Wrht alone past the paper's scales and across wavelength budgets.
    WrhtScale,
    /// The open-loop service campaign (`serve_spec`).
    Serve,
    /// Mixed TP/PP/DP/MoE lowering on the composed hierarchy.
    HierParallelism,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Sweep,
        Workload::WrhtScale,
        Workload::Serve,
        Workload::HierParallelism,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Sweep => "fig2-sweep",
            Workload::WrhtScale => "wrht-scale",
            Workload::Serve => "serve",
            Workload::HierParallelism => "hier-parallelism",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed reaches the simulation. Elsewhere it only names
    /// the cells (`seed` fields), so seed-cleared rows can be checked
    /// against the reference on every seed.
    #[must_use]
    pub fn seed_drives_simulation(self) -> bool {
        self == Workload::Serve
    }
}

/// A workload's generated input: the campaign spec, which is all the
/// program receives.
pub enum Spec {
    Sweep {
        spec: CampaignSpec,
        models: Vec<(String, u64)>,
    },
    Scale(CampaignSpec),
    Serve(StreamSweep),
    Hier(ParallelismSweep),
}

fn named(models: &[(String, u64)]) -> Vec<(&str, u64)> {
    models.iter().map(|(m, b)| (m.as_str(), *b)).collect()
}

/// Set a workload up: the zoo and the campaign spec. The sink directory
/// is created by the caller.
#[must_use]
pub fn setup(w: Workload, seed: u64) -> Spec {
    let cfg = ExperimentConfig::default();
    let zoo = dnn_models::paper_models();
    let paper: Vec<(String, u64)> = zoo
        .iter()
        .map(|m| (m.name.clone(), m.gradient_bytes()))
        .collect();
    match w {
        Workload::Fig2Sweep => Spec::Sweep {
            spec: sweep_spec(&cfg, &zoo, seed),
            models: paper,
        },
        Workload::WrhtScale => {
            let mut spec = CampaignSpec::grid(
                w.name(),
                cfg,
                &named(&paper),
                &SCALE_NODES,
                &SCALE_WAVELENGTHS,
                &[Algorithm::Wrht],
                &[SubstrateKind::Electrical, SubstrateKind::Optical],
            );
            spec.seed = seed;
            Spec::Scale(spec)
        }
        Workload::Serve => Spec::Serve(serve_spec(&cfg, &zoo, SERVE_NODES, seed)),
        Workload::HierParallelism => {
            let mut spec = ParallelismSweep::grid(
                w.name(),
                cfg,
                &["GPT2-small", "BERT-large"],
                &HIER_SHAPES,
                HIER_MICROBATCHES,
                HIER_ACTIVATION_BYTES,
            );
            spec.seed = seed;
            Spec::Hier(spec)
        }
    }
}

impl Spec {
    #[must_use]
    pub fn cells(&self) -> usize {
        match self {
            Spec::Sweep { spec, .. } | Spec::Scale(spec) => spec.cells.len(),
            Spec::Serve(spec) => spec.cells.len(),
            Spec::Hier(spec) => spec.cells.len(),
        }
    }
}

/// A finished workload run.
pub enum Report {
    Sweep {
        report: CampaignReport,
        headline: Headline,
    },
    Scale(CampaignReport),
    Serve(StreamCampaignReport),
    Hier(ParallelismCampaignReport),
}

fn write(sink: &Path, name: &str, payload: &str) {
    if let Err(e) = fs::write(sink.join(name), payload) {
        eprintln!("warning: could not write {name}: {e}");
    }
}

/// The sweep's report stage as `repro-figures sweep` runs it: Figure-2
/// reassembly, rendering and the fig2/headline JSON files.
pub fn report_sweep(
    results: &[CellResult],
    models: &[(String, u64)],
    cfg: &ExperimentConfig,
    sink: &Path,
) -> Headline {
    let series = fig2_from_campaign(results, &named(models), &cfg.scales, cfg.wavelengths);
    let mut text: String = series.iter().map(render_fig2).collect();
    write(sink, "fig2.json", &to_json(&series));
    let h = headline(&series);
    text.push_str(&render_headline(&h));
    write(sink, "headline.json", &to_json(&h));
    std::hint::black_box(text);
    h
}

/// The serve report stage as `repro-figures serve` runs it.
pub fn report_serve(results: &[StreamCellResult], sink: &Path) {
    std::hint::black_box(render_streams(results, SERVE_NODES));
    write(sink, "stream_rows.json", &to_json(&results));
}

/// The parallelism report stage as `repro-figures parallelism` runs it.
pub fn report_hier(results: &[ParCellResult], sink: &Path) {
    std::hint::black_box(render_parallelism(results));
    write(sink, "parallelism_rows.json", &to_json(&results));
}

/// Run the workload over a set-up sink: the campaign with one worker,
/// then its report stage. Over a filled sink this is the resume path.
#[must_use]
pub fn execute(spec: &Spec, sink: &Path) -> Report {
    match spec {
        Spec::Sweep { spec, models } => {
            let report = run_campaign(spec, 1, Some(sink));
            let headline = report_sweep(&report.results, models, &spec.base, sink);
            Report::Sweep { report, headline }
        }
        Spec::Scale(spec) => Report::Scale(run_campaign(spec, 1, Some(sink))),
        Spec::Serve(spec) => {
            let report = run_stream_campaign(spec, 1, Some(sink));
            report_serve(&report.results, sink);
            Report::Serve(report)
        }
        Spec::Hier(spec) => {
            let report = run_parallelism_campaign(spec, 1, Some(sink));
            report_hier(&report.results, sink);
            Report::Hier(report)
        }
    }
}

/// A campaign row as the output check sees it.
pub trait Row: serde::Serialize + Clone {
    fn error(&self) -> Option<&str>;
    fn clear_seed(&mut self);
    /// Invariants every successful row must satisfy.
    fn sane(&self) -> bool;
}

impl Row for CellResult {
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
    fn clear_seed(&mut self) {
        self.seed = 0;
    }
    fn sane(&self) -> bool {
        self.time_s.is_finite() && self.time_s > 0.0 && self.steps > 0
    }
}

impl Row for StreamCellResult {
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
    fn clear_seed(&mut self) {
        self.seed = 0;
    }
    fn sane(&self) -> bool {
        let floats = [
            self.makespan_s,
            self.mean_utilization,
            self.mean_slowdown,
            self.slowdown_p50,
            self.slowdown_p99,
            self.slowdown_p999,
            self.fairness_index,
        ];
        self.arrivals == self.cell.arrivals
            && self.admitted + self.rejected == self.arrivals
            && self.completed <= self.admitted
            && self.events > 0
            && floats.iter().all(|x| x.is_finite())
    }
}

impl Row for ParCellResult {
    fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
    fn clear_seed(&mut self) {
        self.seed = 0;
    }
    fn sane(&self) -> bool {
        self.makespan_s.is_finite()
            && self.makespan_s > 0.0
            && self.intra_transfers + self.inter_transfers == self.transfers
            && self.events > 0
    }
}

/// What the output check reads from a run.
pub struct Output {
    /// `to_json` of the combined campaign report.
    pub combined: String,
    /// `to_json` of every cell's row, in grid order.
    pub cells: Vec<String>,
    /// Digest of every row with its seed field cleared.
    pub canonical: Vec<u64>,
    /// Cells that recorded an (expected) infeasibility error.
    pub infeasible: usize,
    /// Successful cells that break a row invariant.
    pub insane: usize,
    /// The reproduced headline (fig2-sweep only).
    pub headline: Option<Headline>,
}

fn rows_output<R: Row>(combined: String, rows: &[R], headline: Option<Headline>) -> Output {
    Output {
        combined,
        cells: rows.iter().map(to_json).collect(),
        canonical: rows
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.clear_seed();
                stats::digest(to_json(&r).as_bytes())
            })
            .collect(),
        infeasible: rows.iter().filter(|r| r.error().is_some()).count(),
        insane: rows
            .iter()
            .filter(|r| r.error().is_none() && !r.sane())
            .count(),
        headline,
    }
}

impl Report {
    #[must_use]
    pub fn output(&self) -> Output {
        match self {
            Report::Sweep { report, headline } => {
                rows_output(to_json(report), &report.results, Some(headline.clone()))
            }
            Report::Scale(report) => rows_output(to_json(report), &report.results, None),
            Report::Serve(report) => rows_output(to_json(report), &report.results, None),
            Report::Hier(report) => rows_output(to_json(report), &report.results, None),
        }
    }
}

/// Reference digests recorded at [`DEFAULT_SEED`].
pub struct Reference {
    pub combined: u64,
    pub cells: Vec<u64>,
}

const REFERENCE: &str = include_str!("../reference.txt");

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// The stored reference of a workload, if `reference.txt` has one.
#[must_use]
pub fn reference(w: Workload) -> Option<Reference> {
    let mut combined = None;
    let mut cells = None;
    for line in REFERENCE.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split_whitespace();
        if words.next() != Some(w.name()) {
            continue;
        }
        match words.next() {
            Some("combined") => combined = words.next().and_then(parse_hex),
            Some("cells") => cells = words.map(parse_hex).collect::<Option<Vec<u64>>>(),
            _ => {}
        }
    }
    Some(Reference {
        combined: combined?,
        cells: cells?,
    })
}

/// Print `reference.txt` lines for one run at [`DEFAULT_SEED`].
#[must_use]
pub fn reference_lines(w: Workload, out: &Output) -> String {
    let cells: Vec<String> = out.canonical.iter().map(|d| format!("{d:016x}")).collect();
    format!(
        "{name} combined {:016x}\n{name} cells {}\n",
        stats::digest(out.combined.as_bytes()),
        cells.join(" "),
        name = w.name()
    )
}

/// Failed cells of a cold run, plus one for each run-level mismatch:
/// - every row against the stored reference, seed-cleared, where the
///   reference applies to this seed;
/// - the combined report digest at the default seed;
/// - row invariants;
/// - byte-identity with the first run of the same spec in this process;
/// - the reproduced headline (fig2-sweep).
#[must_use]
pub fn check(
    w: Workload,
    seed: u64,
    out: &Output,
    reference: Option<&Reference>,
    first: Option<&Output>,
) -> usize {
    let n = out.cells.len();
    let mut bad = vec![false; n];
    let mut mark = |flags: Vec<bool>| {
        for (b, f) in bad.iter_mut().zip(flags) {
            *b |= f;
        }
    };
    let applies = seed == DEFAULT_SEED || !w.seed_drives_simulation();
    if let (Some(r), true) = (reference, applies) {
        mark(stats::mismatches(&out.canonical, &r.cells));
    }
    if let Some(first) = first {
        mark(stats::mismatches(&out.cells, &first.cells));
    }
    let mut failed = stats::count(&bad) + out.insane;
    let combined_ok = match reference {
        Some(r) if seed == DEFAULT_SEED => stats::digest(out.combined.as_bytes()) == r.combined,
        _ => true,
    };
    if !combined_ok && failed == 0 {
        failed = 1;
    }
    if let Some(h) = &out.headline {
        let got = (
            format!("{:.2}", h.vs_electrical_pct),
            format!("{:.2}", h.vs_oring_pct),
        );
        if (got.0.as_str(), got.1.as_str()) != HEADLINE_REPRODUCED {
            failed += 1;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(rows: &[&str]) -> Output {
        Output {
            combined: rows.concat(),
            cells: rows.iter().map(|r| (*r).to_string()).collect(),
            canonical: rows.iter().map(|r| stats::digest(r.as_bytes())).collect(),
            infeasible: 0,
            insane: 0,
            headline: None,
        }
    }

    fn reference_of(out: &Output) -> Reference {
        Reference {
            combined: stats::digest(out.combined.as_bytes()),
            cells: out.canonical.clone(),
        }
    }

    #[test]
    fn an_injected_digest_mismatch_fails_exactly_its_cell() {
        let out = output(&["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        let mut r = reference_of(&out);
        let w = Workload::WrhtScale;
        assert_eq!(check(w, DEFAULT_SEED, &out, Some(&r), None), 0);
        r.cells[1] ^= 1;
        let failed = check(w, DEFAULT_SEED, &out, Some(&r), None);
        assert_eq!(failed, 1);
        assert!((stats::fail_share(failed, out.cells.len()) - 1.0 / 3.0).abs() < 1e-12);
        // The seed only names wrht-scale cells: the reference applies to
        // every seed. Serve's seed drives its arrivals: it does not.
        assert_eq!(check(w, 7, &out, Some(&r), None), 1);
        assert_eq!(check(Workload::Serve, 7, &out, Some(&r), None), 0);
        assert_eq!(
            check(Workload::Serve, DEFAULT_SEED, &out, Some(&r), None),
            1
        );
    }

    #[test]
    fn a_combined_mismatch_alone_fails_once_and_reruns_must_match() {
        let out = output(&["{\"a\":1}", "{\"b\":2}"]);
        let mut r = reference_of(&out);
        r.combined ^= 1;
        assert_eq!(
            check(Workload::Serve, DEFAULT_SEED, &out, Some(&r), None),
            1
        );
        // Without a reference, a rerun must reproduce the first run.
        let rerun = output(&["{\"a\":1}", "{\"b\":9}"]);
        assert_eq!(check(Workload::Serve, 7, &rerun, None, Some(&out)), 1);
        assert_eq!(check(Workload::Serve, 7, &out, None, Some(&out)), 0);
    }

    #[test]
    fn every_workload_has_a_reference_of_its_shape() {
        for (w, cells) in Workload::ALL.into_iter().zip([189, 144, 36, 8]) {
            let r = reference(w).expect("reference.txt covers every workload");
            assert_eq!(r.cells.len(), cells, "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bench"), None);
    }
}
