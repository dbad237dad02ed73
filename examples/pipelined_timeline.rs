//! Barrier vs pipelined execution, end to end.
//!
//! 1. A single collective: the same ring / halving-doubling / Wrht
//!    schedule executed step-synchronously (`Substrate::execute`) and as a
//!    dependency-aware DAG (`Substrate::execute_dag` over the per-node
//!    pipelined lowering) on both substrates.
//! 2. A training iteration: bucketed Wrht all-reduces serialized on the
//!    network (barrier) vs chained into one DAG so consecutive buckets
//!    overlap on the wire (pipelined).
//!
//! ```text
//! cargo run --release --example pipelined_timeline
//! ```

use wrht_bench::campaign::Algorithm;
use wrht_bench::timeline::{model_timeline, AllReduceLowering};
use wrht_bench::{ExperimentConfig, SubstrateKind};
use wrht_core::dag::{DepSchedule, ExecMode};

fn main() {
    let mut cfg = ExperimentConfig::default();
    let n = 64;
    cfg.scales = vec![n];
    let bytes = dnn_models::alexnet().gradient_bytes();

    println!(
        "== One all-reduce of {:.1} MB on {n} nodes ==",
        bytes as f64 / 1e6
    );
    println!(
        "{:>6} {:>11} {:>12} {:>13} {:>8} {:>9}",
        "algo", "substrate", "barrier ms", "pipelined ms", "speedup", "dag edges"
    );
    for algorithm in [Algorithm::Ring, Algorithm::HalvingDoubling, Algorithm::Wrht] {
        let (schedule, _) = AllReduceLowering::new(&cfg, algorithm, n)
            .lower(bytes)
            .expect("lowerable");
        let dag = DepSchedule::pipelined_from_steps(&schedule);
        for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
            let mut substrate = cfg.substrate(kind, n, optical_sim::Strategy::FirstFit);
            let barrier = substrate.execute(&schedule).expect("barrier run");
            let pipelined = substrate.execute_dag(&dag).expect("pipelined run");
            println!(
                "{:>6} {:>11} {:>12.3} {:>13.3} {:>7.2}x {:>9}",
                algorithm.label(),
                substrate.name(),
                barrier.total_time_s * 1e3,
                pipelined.makespan_s * 1e3,
                barrier.total_time_s / pipelined.makespan_s,
                dag.edge_count(),
            );
        }
    }

    println!();
    println!("== Training iteration: barrier vs pipelined bucket execution ==");
    println!(
        "{:>10} {:>11} {:>13} {:>14} {:>8}",
        "model", "substrate", "barrier ms", "pipelined ms", "hidden"
    );
    for model in dnn_models::paper_models() {
        for kind in [SubstrateKind::Electrical, SubstrateKind::Optical] {
            let run = |mode| {
                model_timeline(
                    &cfg,
                    &model,
                    n,
                    25 << 20,
                    Algorithm::Wrht,
                    kind,
                    optical_sim::Strategy::FirstFit,
                    mode,
                )
                .expect("feasible timeline")
            };
            let barrier = run(ExecMode::Barrier);
            let pipelined = run(ExecMode::Pipelined);
            println!(
                "{:>10} {:>11} {:>13.3} {:>14.3} {:>7.1}%",
                model.name,
                pipelined.substrate,
                barrier.overlapped_s * 1e3,
                pipelined.overlapped_s * 1e3,
                pipelined.hidden_fraction * 100.0
            );
        }
    }
}
