//! # electrical-sim — a flow-level simulator for electrical interconnects
//!
//! The Wrht paper times its electrical baselines (Ring all-reduce and
//! Recursive Doubling) with SimGrid. This crate reimplements the part of
//! SimGrid those experiments rely on: the **fluid model**, in which each
//! active point-to-point flow receives a max-min fair share of every link it
//! crosses and the simulation advances from flow completion to flow
//! completion.
//!
//! Provided pieces:
//!
//! * [`graph::Network`] — directed links with capacity and latency, plus
//!   per-topology routing;
//! * [`topology`] — builders for switched star ("cluster"), ring, full mesh
//!   and two-level fat-tree networks;
//! * [`maxmin`] — progressive-filling max-min fair allocation;
//! * [`engine::FluidEngine`] — the streaming engine behind every
//!   dependency-aware run, with incremental per-component rate re-solves;
//! * [`sim::run_flows`] — that engine's run of a plain flow set;
//! * [`runner::StepRunner`] — barrier-stepped execution, one step at a
//!   time, with the closed form of link-disjoint steps: the stepped runs of
//!   collective schedules and the barrier fast path of dependency-aware
//!   ones.
//!
//! ```
//! use electrical_sim::prelude::*;
//!
//! let net = star_cluster(4, 12.5e9, 500e-9); // 4 hosts, 100 Gb/s, 0.5 us
//! let report = run_flows(&net, &[FlowSpec::new(0, 1, 1_000_000)]).unwrap();
//! assert!(report.makespan_s > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod error;
pub mod flow;
pub mod graph;
pub mod maxmin;
pub mod runner;
pub mod sim;
pub mod topology;

/// Common re-exports.
pub mod prelude {
    pub use crate::engine::{FluidEngine, FluidEngineSnapshot};
    pub use crate::error::NetError;
    pub use crate::flow::FlowSpec;
    pub use crate::graph::{LinkId, Network};
    pub use crate::runner::{StepRunner, StepTransfer};
    pub use crate::sim::{run_flows, EngineFlow, RunReport};
    pub use crate::topology::{fat_tree_two_level, full_mesh, ring, star_cluster, torus_2d};
}

pub use engine::{FluidEngine, FluidEngineSnapshot};
pub use error::NetError;
pub use flow::FlowSpec;
pub use graph::{LinkId, Network};
pub use sim::{EngineFlow, RunReport};
