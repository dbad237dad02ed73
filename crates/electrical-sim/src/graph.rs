//! Network graphs: directed capacitated links plus static routing.

use crate::error::{NetError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// A directed link with a capacity and a latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Capacity in bytes per second.
    pub capacity_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

/// Static routing scheme — one variant per supported topology family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Router {
    /// Hosts hang off one non-blocking switch. Host `i` owns uplink `2i`
    /// and downlink `2i+1`.
    Star,
    /// Bidirectional ring. Clockwise link `i` (`i -> i+1 mod n`) has id `i`;
    /// counter-clockwise link `i` (`i+1 -> i`) has id `n + i`.
    Ring,
    /// Direct link between every ordered pair; link `src -> dst` has id
    /// `src * n + dst`.
    FullMesh,
    /// Two-level fat tree: `edges` edge switches each serving
    /// `hosts_per_edge` hosts, all connected to `spines` spine switches.
    FatTree {
        /// Number of edge switches.
        edges: usize,
        /// Hosts below each edge switch.
        hosts_per_edge: usize,
        /// Number of spine switches.
        spines: usize,
    },
    /// 2-D torus with dimension-order (X then Y) routing. Host
    /// `r * cols + c` sits at row `r`, column `c`. Each host owns four
    /// directed links: east `4h`, west `4h+1`, south `4h+2`, north `4h+3`.
    Torus2D {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
}

/// A host network: links plus a routing scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    hosts: usize,
    links: Vec<Link>,
    router: Router,
}

impl Network {
    /// Assemble a network from parts (used by the [`crate::topology`]
    /// builders; prefer those).
    #[must_use]
    pub fn from_parts(hosts: usize, links: Vec<Link>, router: Router) -> Self {
        Self {
            hosts,
            links,
            router,
        }
    }

    /// Number of hosts.
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// All links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link lookup.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Validate a host index.
    pub fn check_host(&self, host: usize) -> Result<()> {
        if host < self.hosts {
            Ok(())
        } else {
            Err(NetError::HostOutOfRange {
                host,
                hosts: self.hosts,
            })
        }
    }

    /// Route a flow, returning the directed links it crosses in order.
    pub fn route(&self, src: usize, dst: usize) -> Result<Vec<LinkId>> {
        let mut route = Vec::new();
        self.route_with(src, dst, |l| route.push(l))?;
        Ok(route)
    }

    /// Route a flow as [`Network::route`] does, handing each link to
    /// `visit` in order instead of collecting them: the fluid engine and
    /// the stepped runner route straight into their flat route blocks.
    /// Errors come before any link is visited.
    pub(crate) fn route_with(
        &self,
        src: usize,
        dst: usize,
        mut visit: impl FnMut(LinkId),
    ) -> Result<()> {
        self.check_host(src)?;
        self.check_host(dst)?;
        if src == dst {
            return Err(NetError::SelfFlow(src));
        }
        let n = self.hosts;
        match &self.router {
            Router::Star => {
                visit(LinkId(2 * src));
                visit(LinkId(2 * dst + 1));
            }
            Router::Ring => {
                let cw = (dst + n - src) % n;
                let ccw = n - cw;
                if cw <= ccw {
                    (0..cw).for_each(|k| visit(LinkId((src + k) % n)));
                } else {
                    (0..ccw).for_each(|k| visit(LinkId(n + (src + n - 1 - k) % n)));
                }
            }
            Router::FullMesh => visit(LinkId(src * n + dst)),
            Router::FatTree {
                edges,
                hosts_per_edge,
                spines,
            } => {
                let (e_src, e_dst) = (src / hosts_per_edge, dst / hosts_per_edge);
                debug_assert!(e_src < *edges && e_dst < *edges);
                // Link layout: for each host h: up 2h, down 2h+1 (2n total);
                // then for each (edge e, spine s): up 2n + 2(e*spines+s),
                // down 2n + 2(e*spines+s) + 1.
                let host_up = |h: usize| LinkId(2 * h);
                let host_down = |h: usize| LinkId(2 * h + 1);
                let edge_up = |e: usize, s: usize| LinkId(2 * n + 2 * (e * spines + s));
                let edge_down = |e: usize, s: usize| LinkId(2 * n + 2 * (e * spines + s) + 1);
                visit(host_up(src));
                if e_src != e_dst {
                    let s = (src + dst) % spines; // static ECMP hash
                    visit(edge_up(e_src, s));
                    visit(edge_down(e_dst, s));
                }
                visit(host_down(dst));
            }
            Router::Torus2D { rows, cols } => {
                let (rows, cols) = (*rows, *cols);
                let east = |h: usize| LinkId(4 * h);
                let west = |h: usize| LinkId(4 * h + 1);
                let south = |h: usize| LinkId(4 * h + 2);
                let north = |h: usize| LinkId(4 * h + 3);
                let (mut r, mut c) = (src / cols, src % cols);
                let (tr, tc) = (dst / cols, dst % cols);
                // X dimension first, along the shorter wrap direction.
                let right = (tc + cols - c) % cols;
                let left = cols - right;
                while c != tc {
                    let h = r * cols + c;
                    if right <= left {
                        visit(east(h));
                        c = (c + 1) % cols;
                    } else {
                        visit(west(h));
                        c = (c + cols - 1) % cols;
                    }
                }
                // Then Y.
                let down = (tr + rows - r) % rows;
                let up = rows - down;
                while r != tr {
                    let h = r * cols + c;
                    if down <= up {
                        visit(south(h));
                        r = (r + 1) % rows;
                    } else {
                        visit(north(h));
                        r = (r + rows - 1) % rows;
                    }
                }
            }
        }
        Ok(())
    }

    /// Sum of one-way latencies along the route of a flow.
    pub fn route_latency(&self, src: usize, dst: usize) -> Result<f64> {
        Ok(self.path_latency(&self.route(src, dst)?))
    }

    /// Sum of one-way latencies along an already computed route: the fold
    /// [`Network::route_latency`] takes, without routing again.
    #[must_use]
    pub fn path_latency(&self, route: &[LinkId]) -> f64 {
        route.iter().map(|&l| self.link(l).latency_s).sum()
    }

    /// [`Network::path_latency`] of a route held as 32-bit link indices
    /// (the flat route blocks of [`Network::route_with`]'s callers): the
    /// same fold over the same links, so the same bits.
    pub(crate) fn flat_latency(&self, route: &[u32]) -> f64 {
        route
            .iter()
            .map(|&l| self.links[l as usize].latency_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{fat_tree_two_level, full_mesh, ring, star_cluster};

    #[test]
    fn star_routes_cross_the_switch() {
        let net = star_cluster(4, 1e9, 1e-6);
        assert_eq!(net.route(0, 3).unwrap(), vec![LinkId(0), LinkId(7)]);
        assert_eq!(net.route(3, 0).unwrap(), vec![LinkId(6), LinkId(1)]);
        assert!((net.route_latency(0, 3).unwrap() - 2e-6).abs() < 1e-15);
    }

    #[test]
    fn ring_routes_take_the_short_arc() {
        let net = ring(8, 1e9, 1e-6);
        // 0 -> 2 clockwise: links 0, 1.
        assert_eq!(net.route(0, 2).unwrap(), vec![LinkId(0), LinkId(1)]);
        // 0 -> 7 counter-clockwise: ccw link from 0 to 7 is id 8 + 7.
        assert_eq!(net.route(0, 7).unwrap(), vec![LinkId(8 + 7)]);
        // 1 -> 7: ccw two hops: (1->0) id 8+0, (0->7) id 8+7.
        assert_eq!(net.route(1, 7).unwrap(), vec![LinkId(8), LinkId(8 + 7)]);
    }

    #[test]
    fn mesh_routes_are_single_hop() {
        let net = full_mesh(5, 1e9, 1e-6);
        assert_eq!(net.route(2, 4).unwrap(), vec![LinkId(2 * 5 + 4)]);
    }

    #[test]
    fn fat_tree_routes() {
        let net = fat_tree_two_level(2, 4, 2, 1e9, 1e-6);
        assert_eq!(net.hosts(), 8);
        // Same edge: two links.
        assert_eq!(net.route(0, 1).unwrap().len(), 2);
        // Cross edge: four links.
        assert_eq!(net.route(0, 5).unwrap().len(), 4);
    }

    #[test]
    fn route_validation() {
        let net = star_cluster(4, 1e9, 1e-6);
        assert!(matches!(
            net.route(0, 9),
            Err(NetError::HostOutOfRange { .. })
        ));
        assert!(matches!(net.route(2, 2), Err(NetError::SelfFlow(2))));
    }

    #[test]
    fn ring_route_lengths_are_minimal() {
        let net = ring(9, 1e9, 0.0);
        for a in 0..9usize {
            for b in 0..9usize {
                if a == b {
                    continue;
                }
                let hops = net.route(a, b).unwrap().len();
                let cw = (b + 9 - a) % 9;
                assert_eq!(hops, cw.min(9 - cw));
            }
        }
    }
}
