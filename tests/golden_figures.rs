//! Golden-file regression tests for the `fig2` / `headline` JSON payloads
//! and the campaigns' JSON and CSV tables.
//!
//! The simulators are pure IEEE-754 arithmetic with no platform-dependent
//! ordering, so the rendered JSON and CSV are bit-stable; any drift in the
//! timing models, lowering or serialization shows up as a golden diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! WRHT_BLESS=1 cargo test --test golden_figures
//! ```

use optical_sim::sim::StepSchedule;
use optical_sim::{NodeId, OpticalConfig, Transfer};
use std::fs;
use std::path::PathBuf;
use wrht_bench::campaign::{
    run_campaign, run_fig2, sweep_spec, tenants_spec, to_csv, train_spec, Algorithm, Campaign,
    TimelineCellConfig,
};
use wrht_bench::report::to_json;
use wrht_bench::timeline::TimelineRow;
use wrht_bench::{headline, ExperimentConfig, SubstrateKind};
use wrht_core::dag::{DepSchedule, ExecMode};
use wrht_core::fault::{FaultKind, FaultPolicy, FaultRunReport, FaultScript};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};
use wrht_core::tenancy::{Job, SchedPolicy, TenancySpec};
use wrht_core::{choose_group_size, StopPolicy, WrhtParams};

/// A fixed reduced-scale grid: small enough to run in milliseconds, large
/// enough to cover both substrates, the optimizer and the all-to-all stop.
fn golden_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scales: vec![16, 32],
        ..ExperimentConfig::default()
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the checked-in golden, or regenerate it when
/// the `WRHT_BLESS` environment variable is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("WRHT_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `WRHT_BLESS=1 cargo test --test golden_figures`",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, re-bless with \
         `WRHT_BLESS=1 cargo test --test golden_figures`"
    );
}

/// The number of fields in one CSV line, counting a quoted comma as text.
fn csv_fields(line: &str) -> usize {
    let mut fields = 1;
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields += 1,
            _ => {}
        }
    }
    fields
}

/// [`assert_matches_golden`] for a campaign CSV, which must also have as
/// many quote-aware fields in every row as in its header.
fn assert_csv_matches_golden(name: &str, csv: &str) {
    let mut lines = csv.lines();
    let header = csv_fields(lines.next().expect("a CSV header"));
    for (i, row) in lines.enumerate() {
        assert_eq!(
            csv_fields(row),
            header,
            "{name}: row {i} does not match the header"
        );
    }
    assert_matches_golden(name, csv);
}

#[test]
fn fig2_json_matches_golden() {
    let series = run_fig2(&golden_cfg(), &[dnn_models::googlenet()], 1).remove(0);
    assert_matches_golden("fig2_googlenet.json", &to_json(&series));
}

#[test]
fn train_timeline_json_matches_golden() {
    // The simulator-backed `train` table: GoogLeNet (the smallest model)
    // on both substrates at 16 nodes with 4 MB buckets. Bit-stable like
    // the fig2 payloads; re-bless with `WRHT_BLESS=1` after intentional
    // timing-model changes.
    let spec = Campaign::<TimelineCellConfig>::grid(
        "train",
        golden_cfg(),
        &["GoogLeNet"],
        &[4 << 20],
        &[16],
        &[Algorithm::Wrht],
        &[ExecMode::Barrier],
        &[SubstrateKind::Electrical, SubstrateKind::Optical],
    );
    let report = run_campaign(&spec, 1, None);
    let rows: Vec<TimelineRow> = report
        .results
        .iter()
        .filter(|r| r.error.is_none())
        .map(TimelineRow::from)
        .collect();
    assert_eq!(rows.len(), 2, "both substrates must produce a row");
    assert_matches_golden("train_googlenet.json", &to_json(&rows));
}

#[test]
fn fault_campaign_json_matches_golden() {
    // The `faults` figure: per-job blast radius and recovery time for a
    // wavelength failure, a link degradation and a node failure (each at
    // 50% of the clean makespan) under replan and fail-job recovery, on
    // both substrates. Pins the whole fault pipeline — script scheduling
    // through the shared kernel, abort/re-grant on the optical ring,
    // incremental re-solve on the electrical cluster, and the blast-radius
    // diff — bit-exactly.
    let spec =
        wrht_bench::campaign::faults_spec(&golden_cfg(), &[dnn_models::googlenet()], 16, 2023);
    let report = run_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden fault cell must execute"
    );
    // ≥1 wavelength-failure and ≥1 link-degradation scenario per substrate.
    for kind in ["optical", "electrical"] {
        for scenario in ["wavelength-down", "link-degrade"] {
            assert!(
                report.results.iter().any(|r| {
                    r.cell.substrate.label() == kind
                        && r.cell.scenario.label().starts_with(scenario)
                }),
                "missing {scenario} cell on {kind}"
            );
        }
    }
    assert_matches_golden("faults_googlenet.json", &to_json(&report));
    assert_csv_matches_golden("faults_googlenet.csv", &to_csv(&report));
}

#[test]
fn sweep_campaign_csv_matches_golden() {
    // The `sweep` campaign's CSV: the Figure-2 grid on both substrates plus
    // the group-size, wavelength-budget, execution-mode and RWA-strategy
    // ablations, for GoogLeNet.
    let spec = sweep_spec(&golden_cfg(), &[dnn_models::googlenet()], 2023);
    let report = run_campaign(&spec, 1, None);
    assert_csv_matches_golden("sweep_googlenet.csv", &to_csv(&report));
}

#[test]
fn train_campaign_csv_matches_golden() {
    // The `train` campaign's CSV in both execution modes at 16 nodes.
    let spec = train_spec(
        &golden_cfg(),
        &[dnn_models::googlenet()],
        16,
        2023,
        &[ExecMode::Barrier, ExecMode::Pipelined],
    );
    let report = run_campaign(&spec, 1, None);
    assert_csv_matches_golden("train_googlenet.csv", &to_csv(&report));
}

#[test]
fn tenants_campaign_csv_matches_golden() {
    // The `tenants` campaign's CSV: 1/2/4 jobs under every policy on both
    // substrates at 16 nodes.
    let spec = tenants_spec(&golden_cfg(), &[dnn_models::googlenet()], 16, 2023);
    let report = run_campaign(&spec, 1, None);
    assert_csv_matches_golden("tenants_googlenet.csv", &to_csv(&report));
}

/// A ring reduce-scatter over `nodes`: `k - 1` steps of `k` neighbour
/// transfers, with per-transfer sizes varied so completions do not all tie.
fn ring_steps(nodes: &[usize], bytes: u64, lanes: usize) -> StepSchedule {
    let k = nodes.len();
    StepSchedule::from_steps(
        (0..k - 1)
            .map(|s| {
                (0..k)
                    .map(|i| {
                        let size = bytes + i as u64 * 37_000 + s as u64 * 11_000;
                        Transfer::shortest(NodeId(nodes[i]), NodeId(nodes[(i + 1) % k]), size)
                            .with_lanes(lanes)
                    })
                    .collect()
            })
            .collect(),
    )
}

/// One row of `fault_matrix.json`: compact JSON on a single line, so the
/// golden diffs case by case.
fn matrix_row(case: &str, report: &FaultRunReport) -> String {
    format!(
        "{{\"case\":{},\"report\":{}}}",
        serde_json::to_string(&case).expect("label serializes"),
        serde_json::to_string(report).expect("fault report serializes")
    )
}

#[test]
fn fault_matrix_json_matches_golden() {
    // Every fault kind under every recovery policy on both flat substrates,
    // each run as one job (`execute_dag_faulted`) and as two contending jobs
    // (`execute_dag_jobs_faulted`) under FIFO and fair-share arbitration,
    // plus a fault landing at the bit-identical instant of a clean-run
    // completion. Pins the full per-transfer fault outcome (start, finish,
    // aborts, completed), the event count and the first-impact instant.
    // Job `a` is barrier-shaped (the electrical fast path serves it when
    // no fault is relevant); job `b` is pipelined and stripes two lanes.
    let job_a = ring_steps(&[0, 1, 2, 3], 400_000, 1);
    let dag_a = DepSchedule::from_steps(&job_a);
    let dag_b = DepSchedule::pipelined_from_steps(&ring_steps(&[2, 3, 4, 5], 300_000, 2));
    let tenancy = |policy| {
        TenancySpec::new(policy)
            .with_job(Job::steps("a", 0.0, job_a.clone()))
            .with_job(Job::dag("b", 0.0, dag_b.clone()))
    };
    let composed = tenancy(SchedPolicy::Fifo).compose().expect("jobs compose");
    let arbs = [SchedPolicy::Fifo, SchedPolicy::FairShare]
        .map(|p| (p.label(), tenancy(p).arbitration(&composed.job_of)));

    let optical: fn() -> Box<dyn Substrate> = || {
        Box::new(
            OpticalSubstrate::new(
                OpticalConfig::new(8, 2)
                    .with_lambda_bandwidth(1e9)
                    .with_message_overhead(2e-6)
                    .with_hop_propagation(5e-9),
            )
            .expect("valid optical config"),
        )
    };
    let electrical: fn() -> Box<dyn Substrate> = || {
        Box::new(ElectricalSubstrate::new(
            electrical_sim::topology::star_cluster(8, 1e9, 1e-6),
            2e-6,
        ))
    };

    let mut rows = Vec::new();
    for (label, make) in [("optical", optical), ("electrical", electrical)] {
        let mut sub = make();
        let m = sub.execute_dag(&dag_a).expect("clean run").makespan_s;
        let scripts = [
            (
                "wavelength-down",
                FaultScript::new().with(0.3 * m, FaultKind::WavelengthDown { lane: 0 }),
            ),
            (
                "wavelength-up",
                FaultScript::new()
                    .with(0.2 * m, FaultKind::WavelengthDown { lane: 0 })
                    .with(0.5 * m, FaultKind::WavelengthUp { lane: 0 }),
            ),
            (
                "link-degrade",
                FaultScript::new().with(
                    0.3 * m,
                    FaultKind::LinkDegrade {
                        link: 5,
                        factor: 0.25,
                    },
                ),
            ),
            (
                "link-flap",
                FaultScript::new().with(
                    0.3 * m,
                    FaultKind::LinkFlap {
                        link: 5,
                        down_s: 0.2 * m,
                    },
                ),
            ),
            (
                "node-straggle",
                FaultScript::new().with(
                    0.3 * m,
                    FaultKind::NodeStraggle {
                        node: 2,
                        slowdown: 3.0,
                    },
                ),
            ),
            (
                "node-down",
                FaultScript::new().with(0.3 * m, FaultKind::NodeDown { node: 1 }),
            ),
        ];
        let policies = [
            FaultPolicy::FailJob,
            FaultPolicy::RetryAfter(0.05 * m),
            FaultPolicy::Replan,
        ];
        for (kind, script) in &scripts {
            for &policy in &policies {
                let tag = format!("{label}/{kind}/{}", policy.label());
                let single = sub
                    .execute_dag_faulted(&dag_a, script, policy)
                    .expect("single-job faulted run");
                rows.push(matrix_row(&format!("{tag}/single"), &single));
                for (arb_label, arb) in &arbs {
                    let run = sub
                        .execute_dag_jobs_faulted(&composed.dag, arb, script, policy)
                        .expect("two-job faulted run");
                    rows.push(matrix_row(&format!("{tag}/{arb_label}"), &run));
                }
            }
        }
        // A fault at the bit-identical instant of a clean completion: the
        // completion applies first, so the transfer finishes, not fails.
        let clean = sub.execute_dag(&dag_b).expect("clean pipelined run");
        let t = clean.transfers[0].finish_s;
        let kind = if label == "optical" {
            FaultKind::WavelengthDown { lane: 0 }
        } else {
            FaultKind::NodeDown {
                node: dag_b.transfers()[0].transfer.src.0,
            }
        };
        let script = FaultScript::new().with(t, kind);
        for &policy in &policies {
            let run = sub
                .execute_dag_faulted(&dag_b, &script, policy)
                .expect("coincident faulted run");
            assert!(
                run.transfers[0].completed
                    && run.transfers[0].aborts == 0
                    && run.transfers[0].finish_s.to_bits() == t.to_bits(),
                "{label}: a completion coinciding with a fault must finish"
            );
            let tag = format!("{label}/coincident/{}/single", policy.label());
            rows.push(matrix_row(&tag, &run));
        }
    }
    assert_matches_golden(
        "fault_matrix.json",
        &format!("[\n{}\n]\n", rows.join(",\n")),
    );
}

#[test]
fn stream_campaign_json_matches_golden() {
    // The `serve` figure at reduced scale: a Poisson arrival stream of
    // GoogLeNet jobs through the running kernel under every scheduling
    // policy and admission rule, on both substrates. Pins the open-loop
    // engine end to end — arrival generation, admission queueing and
    // shedding, windowed metrics, streaming percentiles and Jain fairness
    // — bit-exactly. Trimmed to the overload rate so the queue-depth and
    // reject admission paths actually differentiate.
    let mut spec =
        wrht_bench::campaign::serve_spec(&golden_cfg(), &[dnn_models::googlenet()], 16, 2023);
    spec.cells.retain(|c| c.rate_hz > 100.0);
    for c in &mut spec.cells {
        c.arrivals = 6;
    }
    let report = run_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden stream cell must execute"
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| r.rejected > 0 && r.admitted + r.rejected == r.arrivals),
        "the overload grid must shed load somewhere"
    );
    assert_matches_golden("serve_googlenet.json", &to_json(&report));
    assert_csv_matches_golden("serve_googlenet.csv", &to_csv(&report));
}

#[test]
fn parallelism_campaign_json_matches_golden() {
    // The `parallelism` figure: GPT-2 small lowered under every default
    // TP/PP/DP (+ MoE) shape to one mixed-domain DAG and executed on the
    // composed hierarchical substrate (optical rings intra-group, the
    // electrical cluster inter-group). Pins the whole hierarchy pipeline —
    // parallelism IR lowering, fabric-domain tagging, per-group engine
    // instantiation and the cross-fabric co-sim event loop — bit-exactly.
    let mut spec = wrht_bench::campaign::parallelism_spec(&golden_cfg(), 2023);
    spec.cells.retain(|c| c.model == "GPT2-small");
    assert!(!spec.cells.is_empty(), "GPT-2 shapes must be in the grid");
    let report = run_campaign(&spec, 1, None);
    assert!(
        report.results.iter().all(|r| r.error.is_none()),
        "every golden parallelism cell must execute"
    );
    // The default grid must exercise both a flat (TP-only, intra-only)
    // shape and composed shapes with inter-group DP / MoE traffic.
    assert!(
        report
            .results
            .iter()
            .any(|r| r.groups == 1 && r.inter_transfers == 0),
        "missing the flat TP-only shape"
    );
    assert!(
        report
            .results
            .iter()
            .any(|r| r.cell.moe_experts > 0 && r.inter_transfers > 0 && r.intra_transfers > 0),
        "missing a mixed-domain MoE shape"
    );
    assert_matches_golden("parallelism_gpt2.json", &to_json(&report));
    assert_csv_matches_golden("parallelism_gpt2.csv", &to_csv(&report));
}

#[test]
fn optimizer_choices_match_golden() {
    // The group-size search at the paper's scales: every (n, w, model)
    // cell of the Figure-2 grid under both stop policies, against the
    // campaign's optical cost model. Pins the chosen m, the plan's shape
    // (depth, all-to-all size and measured First-Fit requirement) and the
    // predicted total to the bit, so a faster search cannot pick a
    // different plan.
    let base = ExperimentConfig::default();
    let mut rows = Vec::new();
    for n in [128usize, 256, 512, 1024] {
        for w in [16usize, 32, 64] {
            let optical = ExperimentConfig {
                wavelengths: w,
                ..base.clone()
            }
            .optical(n);
            for model in dnn_models::paper_models() {
                let bytes = model.gradient_bytes();
                for policy in [StopPolicy::EarliestFeasible, StopPolicy::BestDepth] {
                    let params = WrhtParams::auto(n, w).with_stop_policy(policy);
                    let (m, plan, cost) =
                        choose_group_size(&params, &optical, bytes).expect("feasible cell");
                    let (ata_reps, ata_lambda) = plan
                        .alltoall
                        .as_ref()
                        .map_or((0, 0), |a| (a.reps.len(), a.lambda_requirement));
                    rows.push(format!(
                        "{{\"n\":{n},\"w\":{w},\"model\":{},\"bytes\":{bytes},\"policy\":\"{policy:?}\",\
                         \"m\":{m},\"depth\":{},\"alltoall_reps\":{ata_reps},\
                         \"alltoall_lambda\":{ata_lambda},\"total_s_bits\":\"{:016x}\"}}",
                        serde_json::to_string(&model.name).expect("name serializes"),
                        plan.depth(),
                        cost.total_s().to_bits(),
                    ));
                }
            }
        }
    }
    assert_matches_golden(
        "optimizer_choices.json",
        &format!("[\n{}\n]\n", rows.join(",\n")),
    );
}

#[test]
fn headline_json_matches_golden() {
    let models = [dnn_models::googlenet(), dnn_models::alexnet()];
    let all = run_fig2(&golden_cfg(), &models, 1);
    assert_matches_golden("headline.json", &to_json(&headline(&all)));
}
