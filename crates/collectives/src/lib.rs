//! # collectives — all-reduce schedules and a correctness-checking executor
//!
//! All-reduce algorithms are expressed as *schedules*: step-synchronous
//! sequences of point-to-point transfers over chunk ranges of each node's
//! buffer ([`schedule::Schedule`]). The same schedule object can be
//!
//! * executed *logically* over real `f64` buffers to prove it computes an
//!   all-reduce ([`executor::execute`], [`executor::verify_allreduce`]);
//! * lowered to per-step byte transfers for the network simulators (by
//!   `wrht_core::baselines::lower_collective_to_optical`, or one step at a
//!   time by `wrht_core::baselines::CollectiveSource`).
//!
//! Every algorithm is written one step at a time ([`Collective`]): step
//! `k` depends only on `(n, elems, k)`, so a simulator can generate the
//! steps as it runs them instead of holding the whole schedule, and each
//! schedule builder below collects its collective's steps.
//!
//! Implemented algorithms:
//!
//! * [`ring::ring_allreduce`] — Patarasuk–Yuan bandwidth-optimal ring
//!   (reduce-scatter + all-gather, `2(n-1)` steps), the paper's E-Ring and
//!   O-Ring baseline;
//! * [`rd::recursive_doubling`] — latency-optimal recursive doubling
//!   (the paper's RD baseline), with the standard non-power-of-two fixup;
//! * [`halving_doubling::halving_doubling`] — Rabenseifner's recursive
//!   halving reduce-scatter + recursive doubling all-gather;
//! * [`tree::binomial_tree`] — binomial-tree reduce + broadcast.
//!
//! ```
//! use collectives::prelude::*;
//!
//! let sched = ring_allreduce(8, 64);
//! assert_eq!(sched.step_count(), 2 * (8 - 1));
//! // The builder collects the ring's step generator.
//! assert_eq!(sched, Collective::Ring.schedule(8, 64));
//! // Executing the schedule over real buffers proves it is an all-reduce.
//! verify_allreduce(&sched).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod chunks;
pub mod collective;
pub mod executor;
pub mod halving_doubling;
pub mod rd;
pub mod ring;
pub mod schedule;
pub mod tree;

/// Common re-exports.
pub mod prelude {
    pub use crate::analysis::{analyze, ScheduleAnalysis};
    pub use crate::chunks::chunk_range;
    pub use crate::collective::Collective;
    pub use crate::executor::{execute, verify_allreduce};
    pub use crate::halving_doubling::halving_doubling;
    pub use crate::rd::recursive_doubling;
    pub use crate::ring::ring_allreduce;
    pub use crate::schedule::{Op, Schedule, ScheduleError, Step, TransferSpec};
    pub use crate::tree::binomial_tree;
}

pub use chunks::chunk_range;
pub use collective::Collective;
pub use executor::{execute, verify_allreduce};
pub use schedule::{Op, Schedule, ScheduleError, Step, TransferSpec};
