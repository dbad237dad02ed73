//! # wrht-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation is regenerated from
//! here; the Criterion benches and the `repro-figures` binary are thin
//! wrappers over these functions.
//!
//! * [`config::ExperimentConfig`] — the physical constants of both
//!   platforms (documented substitutions for the paper's unstated values);
//! * [`fig2`] — Figure 2: E-Ring / RD / O-Ring / WRHT across the four DNN
//!   models and 128–1024 nodes, plus the headline reduction percentages;
//! * [`ablations`] — group-size, wavelength-count, RWA-strategy and
//!   overlap extension studies;
//! * [`campaign`] — the declarative, parallel campaign-sweep engine over
//!   the unified [`wrht_core::substrate::Substrate`] API: one generic
//!   runner for every experiment axis ([`campaign::Axis`]: the sweep,
//!   training timelines, tenancy, faults, streams and mixed parallelism),
//!   through which Figure 2 and the `train` table are produced too;
//! * [`timeline`] — simulator-backed training iterations of the zoo
//!   models (the `repro-figures train` workload);
//! * [`report`] — table/JSON rendering.
//!
//! ```
//! use wrht_bench::{run_fig2, ExperimentConfig};
//!
//! let cfg = ExperimentConfig {
//!     scales: vec![32],
//!     ..ExperimentConfig::small()
//! };
//! let series = run_fig2(&cfg, &[dnn_models::googlenet()], 1);
//! let row = &series[0].rows[0];
//! assert!(row.wrht_s > 0.0 && row.wrht_s.is_finite());
//! assert!(row.wrht_s < row.o_ring_s, "Wrht beats O-Ring in every cell");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod config;
pub mod contention;
pub mod fig2;
pub mod perf;
pub mod report;
pub mod timeline;

pub use campaign::{
    fig2_spec, parallelism_spec, run_campaign, run_fig2, sweep_spec, tenants_spec, train_spec,
    Algorithm, Axis, Campaign, CampaignReport, CampaignSpec, Report,
};
pub use config::{ExperimentConfig, SubstrateKind};
pub use fig2::{headline, Fig2Row, Fig2Series, Headline};
pub use timeline::{model_timeline, TimelineRow};
