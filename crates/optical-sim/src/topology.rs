//! Ring topology: nodes, directed segments, paths and hop arithmetic.
//!
//! The TeraRack substrate connects `N` nodes sequentially into a ring. We
//! model the ring as *two* independent directed cycles (one per propagation
//! direction) because TeraRack nodes host separate transmit waveguides per
//! direction; wavelength occupancy is therefore tracked per direction.
//!
//! ```
//! use optical_sim::topology::{Direction, NodeId, RingTopology};
//!
//! let t = RingTopology::new(8);
//! assert_eq!(t.hops(NodeId(6), NodeId(1), Direction::Clockwise), 3);
//! assert_eq!(t.hops(NodeId(6), NodeId(1), Direction::CounterClockwise), 5);
//! assert_eq!(t.min_hops(NodeId(6), NodeId(1)), 3);
//! ```

use crate::error::{OpticalError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of a computing node (GPU) on the ring, in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Propagation direction around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Increasing node ids (`i -> i+1 mod n`).
    Clockwise,
    /// Decreasing node ids (`i -> i-1 mod n`).
    CounterClockwise,
}

impl Direction {
    /// The opposite direction.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Clockwise => Direction::CounterClockwise,
            Direction::CounterClockwise => Direction::Clockwise,
        }
    }

    /// Both directions, clockwise first.
    pub const BOTH: [Direction; 2] = [Direction::Clockwise, Direction::CounterClockwise];
}

/// A ring of `n` nodes with directed segments in both directions.
///
/// Segment `s` in the clockwise cycle is the waveguide from node `s` to node
/// `(s + 1) % n`; segment `s` in the counter-clockwise cycle is the waveguide
/// from node `(s + 1) % n` to node `s`. Segment indices are shared between
/// directions (they denote the same physical span) but occupancy is tracked
/// independently per direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingTopology {
    n: usize,
}

impl RingTopology {
    /// Build a ring of `n >= 2` nodes.
    ///
    /// # Panics
    /// Panics if `n < 2`; use [`RingTopology::try_new`] for fallible
    /// construction.
    #[must_use]
    pub fn new(n: usize) -> Self {
        // wrht-analyze: allow(r5, reason = "the documented panicking twin of try_new, for ring sizes the caller built valid; every fallible path takes try_new")
        Self::try_new(n).expect("ring must have at least 2 nodes")
    }

    /// Fallible constructor.
    pub fn try_new(n: usize) -> Result<Self> {
        if n < 2 {
            return Err(OpticalError::RingTooSmall(n));
        }
        Ok(Self { n })
    }

    /// Number of nodes (equals the number of segments per direction).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Validate that a node id belongs to this ring.
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node.0 < self.n {
            Ok(())
        } else {
            Err(OpticalError::NodeOutOfRange { node, n: self.n })
        }
    }

    /// Hop count from `src` to `dst` travelling in `dir`.
    ///
    /// `hops(a, a, _)` is 0. Hop counts are in `0..n`.
    #[must_use]
    pub fn hops(&self, src: NodeId, dst: NodeId, dir: Direction) -> usize {
        debug_assert!(src.0 < self.n && dst.0 < self.n);
        match dir {
            Direction::Clockwise => (dst.0 + self.n - src.0) % self.n,
            Direction::CounterClockwise => (src.0 + self.n - dst.0) % self.n,
        }
    }

    /// The direction with the fewest hops from `src` to `dst`
    /// (clockwise wins ties).
    #[must_use]
    pub fn shortest_direction(&self, src: NodeId, dst: NodeId) -> Direction {
        let cw = self.hops(src, dst, Direction::Clockwise);
        let ccw = self.hops(src, dst, Direction::CounterClockwise);
        if cw <= ccw {
            Direction::Clockwise
        } else {
            Direction::CounterClockwise
        }
    }

    /// Minimum hop count between two nodes irrespective of direction.
    #[must_use]
    pub fn min_hops(&self, src: NodeId, dst: NodeId) -> usize {
        let cw = self.hops(src, dst, Direction::Clockwise);
        cw.min(self.n - cw)
    }

    /// The node reached after `k` hops from `src` in direction `dir`.
    #[must_use]
    pub fn step_from(&self, src: NodeId, k: usize, dir: Direction) -> NodeId {
        match dir {
            Direction::Clockwise => NodeId((src.0 + k) % self.n),
            Direction::CounterClockwise => NodeId((src.0 + self.n - (k % self.n)) % self.n),
        }
    }

    /// Segment indices traversed from `src` to `dst` in direction `dir`.
    ///
    /// Segments are returned in traversal order. An empty vector means
    /// `src == dst`.
    #[must_use]
    pub fn path_segments(&self, src: NodeId, dst: NodeId, dir: Direction) -> Vec<usize> {
        let hops = self.hops(src, dst, dir);
        let mut segs = Vec::with_capacity(hops);
        let mut cur = src.0;
        for _ in 0..hops {
            match dir {
                Direction::Clockwise => {
                    segs.push(cur);
                    cur = (cur + 1) % self.n;
                }
                Direction::CounterClockwise => {
                    cur = (cur + self.n - 1) % self.n;
                    segs.push(cur);
                }
            }
        }
        segs
    }

    /// Iterate over the nodes strictly between `src` and `dst` in `dir`.
    #[must_use]
    pub fn intermediate_nodes(&self, src: NodeId, dst: NodeId, dir: Direction) -> Vec<NodeId> {
        let hops = self.hops(src, dst, dir);
        (1..hops).map(|k| self.step_from(src, k, dir)).collect()
    }

    /// Positions of `count` nodes evenly spread on the ring starting at 0
    /// (useful for placing representatives in tests).
    #[must_use]
    pub fn evenly_spaced(&self, count: usize) -> Vec<NodeId> {
        if count == 0 {
            return Vec::new();
        }
        (0..count).map(|i| NodeId(i * self.n / count)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_tiny_rings() {
        assert!(RingTopology::try_new(0).is_err());
        assert!(RingTopology::try_new(1).is_err());
        assert!(RingTopology::try_new(2).is_ok());
    }

    #[test]
    fn hops_both_directions_sum_to_n() {
        let t = RingTopology::new(10);
        for a in 0..10 {
            for b in 0..10 {
                if a == b {
                    continue;
                }
                let cw = t.hops(NodeId(a), NodeId(b), Direction::Clockwise);
                let ccw = t.hops(NodeId(a), NodeId(b), Direction::CounterClockwise);
                assert_eq!(cw + ccw, 10, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn hops_self_is_zero() {
        let t = RingTopology::new(5);
        for d in Direction::BOTH {
            assert_eq!(t.hops(NodeId(3), NodeId(3), d), 0);
        }
    }

    #[test]
    fn shortest_direction_prefers_clockwise_on_tie() {
        let t = RingTopology::new(8);
        // 0 -> 4 is 4 hops either way.
        assert_eq!(
            t.shortest_direction(NodeId(0), NodeId(4)),
            Direction::Clockwise
        );
        assert_eq!(
            t.shortest_direction(NodeId(0), NodeId(7)),
            Direction::CounterClockwise
        );
        assert_eq!(
            t.shortest_direction(NodeId(0), NodeId(1)),
            Direction::Clockwise
        );
    }

    #[test]
    fn path_segments_clockwise() {
        let t = RingTopology::new(6);
        assert_eq!(
            t.path_segments(NodeId(4), NodeId(1), Direction::Clockwise),
            vec![4, 5, 0]
        );
        assert_eq!(
            t.path_segments(NodeId(2), NodeId(2), Direction::Clockwise),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn path_segments_counterclockwise() {
        let t = RingTopology::new(6);
        // 1 -> 4 going ccw passes segments (0,1) then (5,0) then (4,5):
        // segment index = lower endpoint going ccw: 0, 5, 4.
        assert_eq!(
            t.path_segments(NodeId(1), NodeId(4), Direction::CounterClockwise),
            vec![0, 5, 4]
        );
    }

    #[test]
    fn segments_count_matches_hops() {
        let t = RingTopology::new(9);
        for a in 0..9 {
            for b in 0..9 {
                for d in Direction::BOTH {
                    let hops = t.hops(NodeId(a), NodeId(b), d);
                    assert_eq!(t.path_segments(NodeId(a), NodeId(b), d).len(), hops);
                }
            }
        }
    }

    #[test]
    fn step_from_round_trip() {
        let t = RingTopology::new(7);
        for a in 0..7 {
            for k in 0..14 {
                let fwd = t.step_from(NodeId(a), k, Direction::Clockwise);
                let back = t.step_from(fwd, k, Direction::CounterClockwise);
                assert_eq!(back, NodeId(a));
            }
        }
    }

    #[test]
    fn intermediate_nodes_excludes_endpoints() {
        let t = RingTopology::new(8);
        let mids = t.intermediate_nodes(NodeId(6), NodeId(2), Direction::Clockwise);
        assert_eq!(mids, vec![NodeId(7), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn evenly_spaced_positions() {
        let t = RingTopology::new(8);
        assert_eq!(
            t.evenly_spaced(4),
            vec![NodeId(0), NodeId(2), NodeId(4), NodeId(6)]
        );
        assert!(t.evenly_spaced(0).is_empty());
    }

    #[test]
    fn min_hops_is_symmetric() {
        let t = RingTopology::new(11);
        for a in 0..11 {
            for b in 0..11 {
                assert_eq!(
                    t.min_hops(NodeId(a), NodeId(b)),
                    t.min_hops(NodeId(b), NodeId(a))
                );
            }
        }
    }
}
