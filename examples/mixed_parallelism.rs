//! Mixed-parallelism lowering on the composed hierarchical substrate:
//! a TP/PP/DP (+ MoE) transformer iteration as ONE dependency DAG,
//! co-simulated on per-group optical rings plus an electrical
//! inter-group cluster.
//!
//! ```text
//! cargo run --release --example mixed_parallelism
//! ```

use dnn_models::transformer::gpt2_small;
use optical_sim::Strategy;
use wrht_bench::ExperimentConfig;
use wrht_core::hierarchy::Domain;
use wrht_core::parallelism::{lower_parallelism, ParallelismSpec, StageModel};

fn main() {
    let cfg = ExperimentConfig::default();
    let model = gpt2_small();
    println!(
        "{} — {:.0} MB gradient, lowered under tp x pp x dp (+ MoE experts)",
        model.name,
        model.gradient_bytes() as f64 / 1e6
    );
    println!(
        "{:>3} {:>3} {:>3} {:>4} {:>6} {:>7} {:>6} {:>6} {:>13}",
        "tp", "pp", "dp", "moe", "nodes", "xfers", "intra", "inter", "makespan ms"
    );
    for (tp, pp, dp, moe) in [(4, 1, 1, 0), (2, 2, 2, 0), (2, 2, 2, 4)] {
        let spec = ParallelismSpec::new(tp, pp, dp, moe, 2).expect("valid degrees");
        let stages = StageModel::split(model.gradient_bytes(), spec.pp, 8 << 20);
        let dag = lower_parallelism(&spec, &stages).expect("lowerable spec");
        let hier = spec.hier().expect("valid hierarchy");
        let domains = hier.domains(&dag).expect("endpoints in range");
        let intra = domains
            .iter()
            .filter(|d| matches!(d, Domain::Intra { .. }))
            .count();
        let mut substrate = cfg
            .try_composed(hier, Strategy::FirstFit)
            .expect("buildable fabrics");
        let report = substrate.execute_dag(&dag).expect("DAG executes");
        println!(
            "{:>3} {:>3} {:>3} {:>4} {:>6} {:>7} {:>6} {:>6} {:>13.3}",
            tp,
            pp,
            dp,
            moe,
            hier.nodes(),
            dag.len(),
            intra,
            dag.len() - intra,
            report.makespan_s * 1e3
        );
    }
}
