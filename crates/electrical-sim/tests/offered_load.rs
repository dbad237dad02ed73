//! Offered-load statistics — how a flow set stresses a network — and the
//! serialization bound they put on any fluid run of it.

use electrical_sim::error::Result;
use electrical_sim::flow::FlowSpec;
use electrical_sim::graph::{LinkId, Network};
use electrical_sim::sim::run_flows;
use electrical_sim::topology::star_cluster;

/// Per-link offered load for a flow set.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Bytes crossing each link over the whole flow set.
    pub bytes_per_link: Vec<u64>,
    /// Index of the most-loaded link.
    pub hottest_link: usize,
    /// Bytes on the most-loaded link.
    pub hottest_bytes: u64,
}

impl LoadReport {
    /// Mean utilization of links that carry anything, given a run duration.
    #[must_use]
    pub fn mean_busy_utilization(&self, net: &Network, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            return 0.0;
        }
        let busy: Vec<(usize, u64)> = self
            .bytes_per_link
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .collect();
        if busy.is_empty() {
            return 0.0;
        }
        busy.iter()
            .map(|&(l, b)| b as f64 / (net.link(LinkId(l)).capacity_bps * duration_s))
            .sum::<f64>()
            / busy.len() as f64
    }

    /// Serialization lower bound on any run's duration: the hottest link
    /// must carry its bytes at its capacity.
    #[must_use]
    pub fn bottleneck_lower_bound_s(&self, net: &Network) -> f64 {
        self.hottest_bytes as f64 / net.link(LinkId(self.hottest_link)).capacity_bps
    }
}

/// Accumulate offered bytes per link for a flow set.
pub fn offered_load(net: &Network, flows: &[FlowSpec]) -> Result<LoadReport> {
    let mut bytes = vec![0u64; net.links().len()];
    for f in flows {
        for l in net.route(f.src, f.dst)? {
            bytes[l.0] += f.bytes;
        }
    }
    let (hottest_link, hottest_bytes) = bytes
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(_, b)| b)
        .unwrap_or((0, 0));
    Ok(LoadReport {
        bytes_per_link: bytes,
        hottest_link,
        hottest_bytes,
    })
}

#[test]
fn incast_hotspot_is_the_downlink() {
    let net = star_cluster(8, 1e9, 0.0);
    let flows: Vec<FlowSpec> = (1..8).map(|s| FlowSpec::new(s, 0, 1000)).collect();
    let load = offered_load(&net, &flows).unwrap();
    assert_eq!(load.hottest_link, 1); // host 0's downlink (2*0+1)
    assert_eq!(load.hottest_bytes, 7000);
}

#[test]
fn bottleneck_bound_is_respected_by_the_fluid_run() {
    let net = star_cluster(8, 1e9, 0.0);
    let flows: Vec<FlowSpec> = (1..8).map(|s| FlowSpec::new(s, 0, 1_000_000)).collect();
    let load = offered_load(&net, &flows).unwrap();
    let report = run_flows(&net, &flows).unwrap();
    assert!(report.makespan_s >= load.bottleneck_lower_bound_s(&net) - 1e-12);
    // Incast saturates the bound exactly.
    assert!((report.makespan_s - load.bottleneck_lower_bound_s(&net)).abs() < 1e-9);
}

#[test]
fn utilization_of_fully_busy_links_is_one() {
    let net = star_cluster(4, 1e9, 0.0);
    let flows = vec![FlowSpec::new(0, 1, 1_000_000)];
    let load = offered_load(&net, &flows).unwrap();
    let u = load.mean_busy_utilization(&net, 1e-3);
    assert!((u - 1.0).abs() < 1e-9);
    assert_eq!(load.mean_busy_utilization(&net, 0.0), 0.0);
}

#[test]
fn empty_flow_set() {
    let net = star_cluster(4, 1e9, 0.0);
    let load = offered_load(&net, &[]).unwrap();
    assert_eq!(load.hottest_bytes, 0);
    assert_eq!(load.mean_busy_utilization(&net, 1.0), 0.0);
}
