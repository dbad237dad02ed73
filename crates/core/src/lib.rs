//! # wrht-core — Wavelength Reused Hierarchical Tree all-reduce
//!
//! The primary contribution of the reproduced paper (Dai et al., PPoPP'23):
//! an all-reduce schedule for WDM optical ring interconnects that minimizes
//! communication steps by collecting data over a **hierarchical tree** whose
//! groups reuse wavelengths on link-disjoint ring arcs.
//!
//! ## Scheme
//!
//! * **Reduce stage** — the `N` ring nodes are partitioned into contiguous
//!   groups of `m`; the middle node of each group (the *representative*)
//!   receives every other member's buffer in one step. The two sides of a
//!   group transmit in opposite ring directions; one side's paths are
//!   nested, so `⌊m/2⌋` wavelengths suffice, and different groups share no
//!   link, so wavelengths are *reused* across groups. Representatives
//!   recurse until the survivors can finish with a single **all-to-all**
//!   step (feasible when `⌈m*²/8⌉ ≤ w` wavelengths cover the Liang–Shen
//!   all-to-all requirement).
//! * **Broadcast stage** — the mirror image: representatives push the
//!   reduced buffer back down the tree.
//!
//! Total steps: `2⌈log_m N⌉` or `2⌈log_m N⌉ − 1` ([`steps`]).
//!
//! ## Crate layout
//!
//! * [`plan`] — group/representative tree construction;
//! * [`steps`] — the paper's step-count and wavelength-requirement laws;
//! * [`alltoall`] — the final all-to-all step and its RWA feasibility check;
//! * [`lower`] — lowering plans to [`optical_sim`] step schedules and to
//!   logical [`collectives`] schedules (for correctness verification);
//! * [`cost`] — the analytic communication-time model;
//! * [`optimizer`] — group-size selection (`m`) minimizing predicted time;
//! * [`baselines`] — O-Ring (ring all-reduce over the optical ring) and a
//!   generic collectives→optical lowering;
//! * [`substrate`] — the unified [`substrate::Substrate`] execution trait
//!   over the optical ring and the electrical fluid-model cluster;
//! * [`dag`] — the dependency-aware [`dag::DepSchedule`] IR and its
//!   barrier/pipelined lowerings, executed event-driven by
//!   [`substrate::Substrate::execute_dag`];
//! * [`timeline`] — simulator-backed training iterations: per-bucket
//!   all-reduces executed on a substrate and merged with gradient-ready
//!   times into an [`timeline::IterationTimeline`];
//! * [`tenancy`] — multi-job tenancy: concurrent jobs composed into one
//!   shared DAG run ([`substrate::Substrate::execute_jobs`]) under a
//!   [`tenancy::SchedPolicy`], priced per tenant in a
//!   [`tenancy::ClusterReport`];
//! * [`fault`] — fault and degradation dynamics: typed
//!   [`fault::FaultScript`] events executed through the shared kernel
//!   under a recovery [`fault::FaultPolicy`], with per-job blast radius
//!   and recovery time in a [`fault::FaultClusterReport`]
//!   ([`substrate::Substrate::execute_jobs_faulted`]);
//! * [`engine`] — the one streaming-engine interface
//!   ([`engine::FabricEngine`]) every driver drives, on both fabrics and
//!   on the composed hierarchy, and the closed driver
//!   ([`engine::run_closed`]) behind every DAG, tenancy and fault run;
//! * [`stream`] — the open-loop cluster service: arrival streams
//!   ([`stream::ArrivalProcess`]) admitted into the *running* engines
//!   ([`substrate::Substrate::execute_stream`]), windowed metrics with
//!   bounded memory, and versioned checkpoint/resume
//!   ([`stream::StreamCheckpoint`]);
//! * [`hierarchy`] — hierarchical composed substrates: per-group intra
//!   fabrics (optical grant engine) plus an inter-group fabric (incremental
//!   max-min engine) composed into one engine that runs a domain-tagged
//!   [`dag::DepSchedule`] or a stream, built by [`hierarchy::compose`]
//!   from two flat substrates, with single-group specs collapsing to the
//!   intra substrate itself;
//! * [`parallelism`] — the mixed-parallelism IR
//!   ([`parallelism::ParallelismSpec`]: TP × PP × DP × MoE) lowering
//!   transformer stage models to one hierarchical traffic DAG;
//! * [`quantile`] — streaming P² percentile estimation shared by the
//!   closed and open-loop reports.
//!
//! ```
//! use wrht_core::prelude::*;
//! use optical_sim::OpticalConfig;
//!
//! let cfg = OpticalConfig::paper_defaults(64);
//! let params = WrhtParams::auto(64, 64);
//! let outcome = plan_and_simulate(&params, &cfg, 1 << 20).unwrap();
//! assert!(outcome.simulated_time_s > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alltoall;
pub mod baselines;
pub mod cost;
pub mod dag;
pub mod describe;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hierarchy;

/// The shared discrete-event kernel both substrate simulators run on.
///
/// Re-exported from the standalone `wrht-kernel` crate so downstream users
/// (campaign drivers, custom substrates) can schedule against the same
/// clock/queue semantics — a monotonic clock, typed
/// [`kernel::KernelError`] for backwards scheduling, stable FIFO
/// tie-breaking and bit-equality same-instant batching, with no
/// cancellation — without depending on either simulator crate.
pub mod kernel {
    pub use wrht_kernel::{EventKernel, KernelError};
}
pub mod lower;
pub mod optimizer;
pub mod parallelism;
pub mod params;
pub mod pipeline;
pub mod plan;
pub mod quantile;
pub mod steps;
pub mod stream;
pub mod substrate;
pub mod tenancy;
pub mod timeline;

/// Common re-exports.
pub mod prelude {
    pub use crate::baselines::{lower_collective_to_optical, oring_schedule, CollectiveSource};
    pub use crate::cost::{predict_time_s, CostBreakdown};
    pub use crate::dag::{DepSchedule, DepTransfer, ExecMode};
    pub use crate::describe::describe_plan;
    pub use crate::error::WrhtError;
    pub use crate::fault::{
        FaultClusterReport, FaultError, FaultEvent, FaultKind, FaultPolicy, FaultRunReport,
        FaultScript, FaultTiming, JobBlastRadius,
    };
    pub use crate::hierarchy::{compose, Domain, HierSpec};
    pub use crate::lower::{
        to_logical_schedule, to_optical_schedule, to_optical_schedule_with, BroadcastMode,
    };
    pub use crate::optimizer::{choose_group_size, plan_and_simulate, GroupSearch, PlanOutcome};
    pub use crate::parallelism::{
        lower_parallelism, ParallelismSource, ParallelismSpec, StageModel,
    };
    pub use crate::params::{GroupSize, WrhtParams};
    pub use crate::pipeline::{optimal_segments, segment_sweep, segmented_time, SegmentPoint};
    pub use crate::plan::{
        build_plan, build_plan_over, candidate_plans, candidate_plans_over, Group, Level,
        StopPolicy, WrhtPlan,
    };
    pub use crate::quantile::{P2Quantile, PercentileSet, Percentiles};
    pub use crate::steps::{paper_step_count, tree_wavelength_requirement};
    pub use crate::stream::{
        Admission, ArrivalProcess, StreamCheckpoint, StreamJobReport, StreamOutcome, StreamReport,
        StreamSpec, StreamTemplate, WindowedReport, STREAM_CHECKPOINT_VERSION,
    };
    pub use crate::substrate::{
        DagRunReport, DagTiming, ElectricalSubstrate, OpticalSubstrate, RunReport, StepTiming,
        Substrate,
    };
    pub use crate::tenancy::{
        ClusterReport, Job, JobId, JobReport, JobWorkload, SchedPolicy, TenancySpec,
    };
    pub use crate::timeline::{
        execute_timeline, execute_timeline_pipelined, BucketTimeline, IterationTimeline,
        TimelineBucket,
    };
}

pub use dag::{DepSchedule, DepTransfer, ExecMode};
pub use error::WrhtError;
pub use fault::{FaultClusterReport, FaultPolicy, FaultRunReport, FaultScript};
pub use hierarchy::{compose, Domain, HierSpec};
pub use optimizer::{choose_group_size, plan_and_simulate, GroupSearch, PlanOutcome};
pub use parallelism::{lower_parallelism, ParallelismSource, ParallelismSpec, StageModel};
pub use params::{GroupSize, WrhtParams};
pub use plan::{build_plan, candidate_plans, StopPolicy, WrhtPlan};
pub use quantile::{PercentileSet, Percentiles};
pub use stream::{
    Admission, ArrivalProcess, StreamCheckpoint, StreamOutcome, StreamReport, StreamSpec,
    StreamTemplate, WindowedReport,
};
pub use substrate::{DagRunReport, ElectricalSubstrate, OpticalSubstrate, RunReport, Substrate};
pub use tenancy::{ClusterReport, Job, JobId, JobReport, SchedPolicy, TenancySpec};
pub use timeline::{
    execute_timeline, execute_timeline_pipelined, IterationTimeline, TimelineBucket,
};
