//! End-to-end pipeline tests: the Figure 2 machinery at reduced scale.

use wrht_bench::report::to_json;
use wrht_bench::{headline, run_fig2, ExperimentConfig, Fig2Series};

#[test]
fn fig2_rows_are_finite_positive_and_ordered() {
    let cfg = ExperimentConfig::small();
    let all = run_fig2(&cfg, &dnn_models::paper_models(), 2);
    assert_eq!(all.len(), 4, "one series per paper model");
    for series in &all {
        assert_eq!(series.rows.len(), cfg.scales.len());
        for r in &series.rows {
            for (name, v) in [
                ("e_ring", r.e_ring_s),
                ("rd", r.rd_s),
                ("o_ring", r.o_ring_s),
                ("wrht", r.wrht_s),
            ] {
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", series.model);
            }
            assert!(r.wrht_m >= 2);
            assert!(r.wrht_steps >= 1);
        }
    }
}

#[test]
fn headline_lands_in_the_paper_ballpark_at_scale() {
    // One full-scale cell: N = 128 is the paper's smallest scale and runs
    // in seconds. The shape must hold: Wrht beats everything, O-Ring and RD
    // are the slow ones.
    let cfg = ExperimentConfig {
        scales: vec![128],
        ..ExperimentConfig::default()
    };
    let series = run_fig2(&cfg, &[dnn_models::resnet50()], 1);
    let r = &series[0].rows[0];
    assert!(r.wrht_s < r.e_ring_s, "wrht must beat E-Ring at n=128");
    assert!(r.wrht_s < r.rd_s, "wrht must beat RD at n=128");
    assert!(r.wrht_s < r.o_ring_s, "wrht must beat O-Ring at n=128");
    let reduction_vs_oring = 1.0 - r.wrht_s / r.o_ring_s;
    assert!(
        reduction_vs_oring > 0.5,
        "expected a large win vs O-Ring, got {:.1}%",
        reduction_vs_oring * 100.0
    );
}

#[test]
fn fig2_json_round_trips() {
    let cfg = ExperimentConfig::small();
    let series = run_fig2(&cfg, &[dnn_models::googlenet()], 1);
    let json = to_json(&series);
    let back: Vec<Fig2Series> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, series);
    let h = headline(&series);
    assert!(h.vs_oring_pct > 0.0);
}

#[test]
fn scales_sweep_monotonicity_shapes() {
    // RD time grows with log2(n) full-buffer rounds; E-Ring bandwidth term
    // is scale-free so its growth comes only from per-step overheads.
    let cfg = ExperimentConfig::small();
    let s = run_fig2(&cfg, &[dnn_models::alexnet()], 1).remove(0);
    for w in s.rows.windows(2) {
        assert!(w[1].rd_s > w[0].rd_s, "RD must grow with n");
        let e_growth = w[1].e_ring_s / w[0].e_ring_s;
        assert!(e_growth < 1.5, "E-Ring growth should be modest: {e_growth}");
    }
}
