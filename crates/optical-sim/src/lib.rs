//! # optical-sim — a TeraRack-style WDM optical ring interconnect simulator
//!
//! This crate models the optical substrate assumed by the Wrht paper
//! (Dai et al., PPoPP'23): `N` computing nodes (GPUs) connected sequentially
//! into a ring by waveguides, where every waveguide carries `w` wavelengths
//! (WDM channels) of `B` bytes/s each. Every node is equipped with micro-ring
//! resonators that let it *select* (drop) or *bypass* any wavelength, so a
//! node can transmit and receive on many wavelengths concurrently and a
//! lightpath passes intermediate nodes without electrical conversion.
//!
//! The simulator offers three execution models:
//!
//! * [`sim::RingSimulator::run_stepped`] — the step-synchronous model used by
//!   the paper: a schedule is a sequence of steps, every transfer of a step
//!   starts simultaneously, wavelengths are assigned per step by a
//!   routing-and-wavelength-assignment (RWA) strategy ([`rwa::Strategy`]),
//!   and the step lasts as long as its slowest transfer. It reads any
//!   [`sim::StepSource`]: a materialized [`sim::StepSchedule`] or a
//!   generator that writes each step on demand, and returns the
//!   [`sim::RunReport`] every stepped substrate reports in.
//! * [`sim::RingSimulator::run_event_driven`] — a discrete-event FIFO model
//!   in which released transfers contend for wavelengths dynamically; used
//!   for the contention ablations and as a cross-check of the stepped
//!   model.
//! * [`engine::GrantEngine`] — the dependency-aware streaming engine: each
//!   transfer carries predecessor edges and a release time, is granted its
//!   lanes once its gates open, and frees its wavelengths on completion
//!   rather than at a step barrier. On barrier-shaped DAGs it agrees
//!   bit-exactly with the stepped model. `wrht-core` drives it for closed
//!   DAG, tenancy, fault and stream runs.
//!
//! Transfers may be *striped* across several wavelengths
//! ([`request::Transfer::lanes`]) which is how Wrht exploits WDM parallelism.
//!
//! ```
//! use optical_sim::prelude::*;
//!
//! let cfg = OpticalConfig::new(8, 4); // 8 nodes, 4 wavelengths
//! let topo = RingTopology::new(8);
//! let mut sim = RingSimulator::new(cfg);
//! let step = vec![Transfer::shortest(NodeId(0), NodeId(2), 1 << 20).with_lanes(2)];
//! let report = sim.run_stepped(&StepSchedule::from_steps(vec![step]), Strategy::FirstFit).unwrap();
//! assert!(report.total_time_s > 0.0);
//! assert_eq!(topo.hops(NodeId(0), NodeId(2), Direction::Clockwise), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod path;
pub mod physical;
pub mod request;
pub mod rwa;
pub mod sim;
pub mod timing;
pub mod topology;
pub mod wavelength;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::OpticalConfig;
    pub use crate::engine::{GrantCompletion, GrantEngine, GrantEngineSnapshot, GrantTransfer};
    pub use crate::error::OpticalError;
    pub use crate::path::LightPath;
    pub use crate::physical::PhysicalModel;
    pub use crate::request::{DirectionChoice, Transfer};
    pub use crate::rwa::{Occupancy, Strategy};
    pub use crate::sim::{RingSimulator, RunReport, StepSchedule, StepSource, StepTiming};
    pub use crate::timing::TimingModel;
    pub use crate::topology::{Direction, NodeId, RingTopology};
    pub use crate::wavelength::Wavelength;
}

pub use config::OpticalConfig;
pub use engine::{GrantCompletion, GrantEngine, GrantEngineSnapshot, GrantTransfer};
pub use error::OpticalError;
pub use path::LightPath;
pub use request::{DirectionChoice, Transfer};
pub use rwa::{Occupancy, Strategy};
pub use sim::{RingSimulator, RunReport, StepSchedule, StepSource, StepTiming};
pub use timing::TimingModel;
pub use topology::{Direction, NodeId, RingTopology};
pub use wavelength::Wavelength;
