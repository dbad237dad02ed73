//! Transfer requests submitted to the simulator.

use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::topology::{Direction, NodeId, RingTopology};
use serde::{Deserialize, Serialize};

/// How a transfer should be routed around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectionChoice {
    /// Take the arc with fewer hops (ties go clockwise).
    Shortest,
    /// Force a specific direction (Wrht forces group sides apart).
    Forced(Direction),
}

/// A point-to-point transfer request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Routing policy.
    pub direction: DirectionChoice,
    /// Number of wavelengths to stripe the payload across (>= 1).
    pub lanes: usize,
    /// Optional tag for bookkeeping (e.g. Wrht level index).
    pub tag: u32,
}

impl Transfer {
    /// Shortest-path transfer on one wavelength.
    #[must_use]
    pub fn shortest(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        Self {
            src,
            dst,
            bytes,
            direction: DirectionChoice::Shortest,
            lanes: 1,
            tag: 0,
        }
    }

    /// Transfer forced into a given direction, one wavelength.
    #[must_use]
    pub fn directed(src: NodeId, dst: NodeId, bytes: u64, dir: Direction) -> Self {
        Self {
            src,
            dst,
            bytes,
            direction: DirectionChoice::Forced(dir),
            lanes: 1,
            tag: 0,
        }
    }

    /// Set the wavelength striping factor, builder style.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Attach a tag, builder style.
    #[must_use]
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }

    /// Validate against a topology and resolve to a routed lightpath.
    ///
    /// Zero-byte transfers are legal: setting up the lightpath still costs
    /// the per-message overhead and propagation, it just serializes no
    /// payload (mirrored by the electrical runner, which skips empty flows
    /// but keeps the step's launch overhead).
    pub fn resolve(&self, topo: &RingTopology) -> Result<LightPath> {
        let (direction, _) = self.route(topo)?;
        Ok(LightPath::routed(topo, self.src, self.dst, direction))
    }

    /// [`Transfer::resolve`]'s direction and hop count, with the same
    /// checks and error values, without building the segment list.
    pub(crate) fn route(&self, topo: &RingTopology) -> Result<(Direction, usize)> {
        topo.check_node(self.src)?;
        topo.check_node(self.dst)?;
        if self.src == self.dst {
            return Err(OpticalError::SelfTransfer(self.src));
        }
        if self.lanes == 0 {
            return Err(OpticalError::ZeroLanes);
        }
        let direction = match self.direction {
            DirectionChoice::Shortest => topo.shortest_direction(self.src, self.dst),
            DirectionChoice::Forced(d) => d,
        };
        Ok((direction, topo.hops(self.src, self.dst, direction)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_shortest() {
        let t = RingTopology::new(8);
        let p = Transfer::shortest(NodeId(0), NodeId(6), 10)
            .resolve(&t)
            .unwrap();
        assert_eq!(p.direction, Direction::CounterClockwise);
        assert_eq!(p.hops(), 2);
    }

    #[test]
    fn resolve_forced_takes_long_way() {
        let t = RingTopology::new(8);
        let p = Transfer::directed(NodeId(0), NodeId(6), 10, Direction::Clockwise)
            .resolve(&t)
            .unwrap();
        assert_eq!(p.hops(), 6);
    }

    #[test]
    fn resolve_rejects_invalid() {
        let t = RingTopology::new(4);
        assert_eq!(
            Transfer::shortest(NodeId(0), NodeId(9), 1).resolve(&t),
            Err(OpticalError::NodeOutOfRange {
                node: NodeId(9),
                n: 4
            })
        );
        assert_eq!(
            Transfer::shortest(NodeId(2), NodeId(2), 1).resolve(&t),
            Err(OpticalError::SelfTransfer(NodeId(2)))
        );
        assert_eq!(
            Transfer::shortest(NodeId(0), NodeId(1), 1)
                .with_lanes(0)
                .resolve(&t),
            Err(OpticalError::ZeroLanes)
        );
        // Zero-byte transfers resolve: the lightpath itself is legal.
        assert!(Transfer::shortest(NodeId(0), NodeId(1), 0)
            .resolve(&t)
            .is_ok());
    }

    #[test]
    fn route_is_the_resolved_direction_and_hops() {
        let t = RingTopology::new(7);
        for (a, b) in (0..9).flat_map(|a| (0..9).map(move |b| (a, b))) {
            for choice in [
                DirectionChoice::Shortest,
                DirectionChoice::Forced(Direction::Clockwise),
                DirectionChoice::Forced(Direction::CounterClockwise),
            ] {
                for lanes in [0, 2] {
                    let mut tr = Transfer::shortest(NodeId(a), NodeId(b), 1).with_lanes(lanes);
                    tr.direction = choice;
                    let resolved = tr.resolve(&t).map(|p| (p.direction, p.hops()));
                    assert_eq!(tr.route(&t), resolved, "{a} -> {b} {choice:?} x{lanes}");
                }
            }
        }
    }

    #[test]
    fn builders_chain() {
        let tr = Transfer::shortest(NodeId(0), NodeId(1), 5)
            .with_lanes(3)
            .with_tag(7);
        assert_eq!(tr.lanes, 3);
        assert_eq!(tr.tag, 7);
    }
}
