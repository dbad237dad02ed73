//! Experiment-wide physical constants.
//!
//! The poster does not publish its simulator constants; these defaults are
//! the documented substitution (DESIGN.md §3/§6):
//!
//! * **Optical** — TeraRack-flavoured: 64 wavelengths × 25 Gb/s, 50 ns
//!   per-message SerDes + E/O + O/E overhead, 5 ns/hop propagation.
//! * **Electrical** — a switched cluster with 100 Gb/s full-duplex host
//!   ports, 500 ns per-link latency and a 5 µs per-step protocol/launch
//!   overhead (NIC + MPI-level costs SimGrid platforms typically encode).
//!
//! With these constants the Figure-2 headline reads 81.22% below the
//! electrical baselines and 86.82% below O-Ring, where the paper reports
//! 75.76% and 91.86%. The exact percentages depend on the platform
//! constants, which the poster does not publish, so the gap is expected.
//! `tests/golden_figures.rs` pins both reproduced numbers.

use collectives::Collective;
use optical_sim::{OpticalConfig, Strategy};
use serde::{Deserialize, Serialize};
use wrht_core::baselines::CollectiveSource;
use wrht_core::hierarchy::{compose, HierSpec};
use wrht_core::substrate::{ElectricalSubstrate, OpticalSubstrate, Substrate};

/// Which simulated fabric executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubstrateKind {
    /// The WDM optical ring (stepped model, RWA per step).
    Optical,
    /// The electrical switched cluster (max-min fluid model).
    Electrical,
}

impl SubstrateKind {
    /// Stable lowercase label used in reports, hashes and CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SubstrateKind::Optical => "optical",
            SubstrateKind::Electrical => "electrical",
        }
    }
}

/// All constants of one experiment campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Wavelengths per waveguide.
    pub wavelengths: usize,
    /// Bandwidth per wavelength, bytes/s.
    pub lambda_bandwidth_bps: f64,
    /// Optical per-message overhead, seconds.
    pub optical_overhead_s: f64,
    /// Optical per-hop propagation, seconds.
    pub optical_hop_s: f64,
    /// Electrical host-port bandwidth, bytes/s.
    pub electrical_port_bps: f64,
    /// Electrical per-link latency, seconds.
    pub electrical_latency_s: f64,
    /// Electrical per-step protocol overhead, seconds.
    pub electrical_step_overhead_s: f64,
    /// Node counts swept in Figure 2.
    pub scales: Vec<usize>,
    /// Bytes per gradient element (fp32).
    pub bytes_per_elem: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            wavelengths: 64,
            lambda_bandwidth_bps: 25.0e9 / 8.0,
            optical_overhead_s: 50e-9,
            optical_hop_s: 5e-9,
            electrical_port_bps: 100.0e9 / 8.0,
            electrical_latency_s: 500e-9,
            electrical_step_overhead_s: 5e-6,
            scales: vec![128, 256, 512, 1024],
            bytes_per_elem: 4,
        }
    }
}

impl ExperimentConfig {
    /// A reduced-scale configuration for fast tests and CI.
    #[must_use]
    pub fn small() -> Self {
        Self {
            scales: vec![16, 32, 64],
            ..Self::default()
        }
    }

    /// Gradient elements of a `bytes`-byte all-reduce buffer (a partial
    /// trailing element rounds up).
    #[must_use]
    pub fn elems(&self, bytes: u64) -> usize {
        (bytes as usize).div_ceil(self.bytes_per_elem)
    }

    /// `collective`'s all-reduce of `bytes` over `n` nodes in the substrate
    /// IR, written step by step, one wavelength per transfer.
    #[must_use]
    pub fn collective(&self, collective: Collective, n: usize, bytes: u64) -> CollectiveSource {
        CollectiveSource {
            collective,
            n,
            elems: self.elems(bytes),
            bytes_per_elem: self.bytes_per_elem,
            lanes: 1,
        }
    }

    /// Optical ring configuration for `n` nodes.
    #[must_use]
    pub fn optical(&self, n: usize) -> OpticalConfig {
        OpticalConfig::new(n, self.wavelengths)
            .with_lambda_bandwidth(self.lambda_bandwidth_bps)
            .with_message_overhead(self.optical_overhead_s)
            .with_hop_propagation(self.optical_hop_s)
    }

    /// Electrical switched-cluster network for `n` hosts.
    #[must_use]
    pub fn electrical(&self, n: usize) -> electrical_sim::Network {
        electrical_sim::topology::star_cluster(
            n,
            self.electrical_port_bps,
            self.electrical_latency_s,
        )
    }

    /// Build an execution [`Substrate`] of the given kind for `n` nodes,
    /// using this campaign's physical constants and RWA `strategy`
    /// (ignored by the electrical fabric). Fails instead of panicking on
    /// invalid parameters (e.g. `n < 2` or a zero wavelength budget), so
    /// campaign cells can record the error.
    pub fn try_substrate(
        &self,
        kind: SubstrateKind,
        n: usize,
        strategy: Strategy,
    ) -> wrht_core::error::Result<Box<dyn Substrate>> {
        Ok(match kind {
            SubstrateKind::Optical => {
                Box::new(OpticalSubstrate::with_strategy(self.optical(n), strategy)?)
            }
            SubstrateKind::Electrical => Box::new(ElectricalSubstrate::new(
                self.electrical(n),
                self.electrical_step_overhead_s,
            )),
        })
    }

    /// Build the canonical hierarchical substrate for `spec`
    /// ([`compose`]): one optical ring per group (this campaign's optical
    /// constants at [`HierSpec::group_size`] nodes, RWA `strategy`)
    /// stitched by the electrical switched cluster over all
    /// [`HierSpec::nodes`] hosts.
    ///
    /// # Errors
    /// Propagates invalid hierarchy shapes and optical configurations, at
    /// construction, so campaign cells can record the failure.
    pub fn try_composed(
        &self,
        spec: HierSpec,
        strategy: Strategy,
    ) -> wrht_core::error::Result<Box<dyn Substrate>> {
        // Checked before `spec.nodes()` sizes the inter fabric.
        let spec = HierSpec::new(spec.groups, spec.group_size)?;
        compose(
            spec,
            self.try_substrate(SubstrateKind::Optical, spec.group_size, strategy)?,
            self.try_substrate(SubstrateKind::Electrical, spec.nodes(), strategy)?,
        )
    }

    /// Infallible [`ExperimentConfig::try_substrate`] for the known-valid
    /// experiment grids (panics on invalid parameters).
    #[must_use]
    pub fn substrate(
        &self,
        kind: SubstrateKind,
        n: usize,
        strategy: Strategy,
    ) -> Box<dyn Substrate> {
        self.try_substrate(kind, n, strategy)
            .expect("experiment substrate configs are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_terarack_like() {
        let c = ExperimentConfig::default();
        assert_eq!(c.wavelengths, 64);
        assert_eq!(c.scales, vec![128, 256, 512, 1024]);
        let opt = c.optical(128);
        assert_eq!(opt.nodes, 128);
        assert_eq!(opt.wavelengths, 64);
        let net = c.electrical(16);
        assert_eq!(net.hosts(), 16);
    }

    #[test]
    fn small_config_shrinks_scales_only() {
        let c = ExperimentConfig::small();
        assert_eq!(c.wavelengths, ExperimentConfig::default().wavelengths);
        assert!(c.scales.iter().all(|&n| n <= 64));
    }

    #[test]
    fn composed_factory_spans_the_hierarchy() {
        let c = ExperimentConfig::small();
        let spec = HierSpec::new(4, 4).unwrap();
        let sub = c.try_composed(spec, Strategy::FirstFit).unwrap();
        assert_eq!(sub.nodes(), 16);
        assert_eq!(sub.name(), "composed(optical+electrical)");
        // One group is the optical ring itself.
        let flat = c
            .try_composed(HierSpec::new(1, 4).unwrap(), Strategy::FirstFit)
            .unwrap();
        assert_eq!((flat.name(), flat.nodes()), ("optical", 4));
    }

    #[test]
    fn composed_factory_rejects_a_zero_wavelength_budget_at_construction() {
        let c = ExperimentConfig {
            wavelengths: 0,
            ..ExperimentConfig::small()
        };
        let spec = HierSpec::new(2, 4).unwrap();
        let built = c.try_composed(spec, Strategy::FirstFit);
        let want = wrht_core::WrhtError::from(optical_sim::OpticalError::BadConfig(
            "wavelengths must be >= 1",
        ));
        assert_eq!(built.err(), Some(want));
    }

    #[test]
    fn substrate_factory_builds_both_fabrics() {
        let c = ExperimentConfig::small();
        let optical = c.substrate(SubstrateKind::Optical, 16, Strategy::FirstFit);
        let electrical = c.substrate(SubstrateKind::Electrical, 16, Strategy::FirstFit);
        assert_eq!(optical.nodes(), 16);
        assert_eq!(electrical.nodes(), 16);
        assert_eq!(optical.name(), SubstrateKind::Optical.label());
        assert_eq!(electrical.name(), SubstrateKind::Electrical.label());
    }
}
