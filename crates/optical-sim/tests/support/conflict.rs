//! Conflict-graph analysis of lightpath batches.
//!
//! The minimum number of wavelengths a step needs equals the chromatic
//! number of the *conflict graph* whose vertices are (path, lane) units and
//! whose edges join same-direction paths sharing a segment. We provide a
//! greedy colouring (an upper bound that is exact for interval-like conflict
//! structures such as the nested sides of Wrht groups), the segment
//! congestion lower bound and an assignment validator: the oracles the
//! property tests hold the RWA heuristics to.

use optical_sim::path::LightPath;
use optical_sim::topology::Direction;
use optical_sim::wavelength::Wavelength;

/// Build the adjacency of the conflict graph for a set of weighted paths,
/// where `weight` = number of lanes the path occupies.
#[must_use]
pub fn conflict_adjacency(paths: &[(LightPath, usize)]) -> Vec<Vec<usize>> {
    let n = paths.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if paths[i].0.conflicts_with(&paths[j].0) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

/// Greedy (largest-first) colouring of the weighted conflict graph; returns
/// the number of wavelengths the colouring uses. This upper-bounds the true
/// requirement and matches it on interval conflict graphs.
#[must_use]
pub fn greedy_wavelength_bound(paths: &[(LightPath, usize)]) -> usize {
    let n = paths.len();
    if n == 0 {
        return 0;
    }
    let adj = conflict_adjacency(paths);
    // Largest weight (lane count) first, then highest degree.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        paths[b]
            .1
            .cmp(&paths[a].1)
            .then(adj[b].len().cmp(&adj[a].len()))
            .then(a.cmp(&b))
    });
    // Each path occupies an interval of "colour slots" of length = lanes.
    // Greedily give each path the lowest slots not used by its neighbours.
    let mut slots: Vec<Option<Vec<usize>>> = vec![None; n];
    let mut peak = 0;
    for &v in &order {
        let mut forbidden: Vec<usize> = adj[v]
            .iter()
            .filter_map(|&u| slots[u].as_ref())
            .flatten()
            .copied()
            .collect();
        forbidden.sort_unstable();
        forbidden.dedup();
        let mut mine = Vec::with_capacity(paths[v].1);
        let mut candidate = 0;
        while mine.len() < paths[v].1 {
            if forbidden.binary_search(&candidate).is_err() {
                mine.push(candidate);
            }
            candidate += 1;
        }
        peak = peak.max(*mine.last().expect("at least one lane") + 1);
        slots[v] = Some(mine);
    }
    peak
}

/// Maximum, over all directed segments, of the total lanes crossing that
/// segment — a lower bound on the wavelengths any assignment needs.
#[must_use]
pub fn congestion_lower_bound(paths: &[(LightPath, usize)]) -> usize {
    // Keyed by (direction, segment) in a BTreeMap: the integer max below is
    // order-independent, but hash iteration order must never be load-bearing
    // anywhere results flow from (wrht-analyze R1), and the sorted walk keeps
    // any future argmax extension deterministic for free.
    use std::collections::BTreeMap;
    let mut seg_load: BTreeMap<(u8, usize), usize> = BTreeMap::new();
    for (p, lanes) in paths {
        let d = match p.direction {
            Direction::Clockwise => 0u8,
            Direction::CounterClockwise => 1u8,
        };
        for &s in &p.segments {
            *seg_load.entry((d, s)).or_insert(0) += lanes;
        }
    }
    seg_load.values().copied().max().unwrap_or(0)
}

/// Check that an explicit assignment is conflict-free: no two paths sharing
/// a directed segment may share a wavelength.
#[must_use]
pub fn validate_assignment(paths: &[LightPath], lanes: &[Vec<Wavelength>]) -> bool {
    debug_assert_eq!(paths.len(), lanes.len());
    for i in 0..paths.len() {
        for j in (i + 1)..paths.len() {
            if paths[i].conflicts_with(&paths[j]) && lanes[i].iter().any(|l| lanes[j].contains(l)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use optical_sim::topology::{NodeId, RingTopology};

    fn p(t: &RingTopology, a: usize, b: usize, d: Direction) -> LightPath {
        LightPath::routed(t, NodeId(a), NodeId(b), d)
    }

    #[test]
    fn empty_batch_needs_no_wavelengths() {
        assert_eq!(greedy_wavelength_bound(&[]), 0);
        assert_eq!(congestion_lower_bound(&[]), 0);
    }

    #[test]
    fn nested_paths_need_side_size() {
        let t = RingTopology::new(32);
        // Senders 0,1,2 all to node 3 clockwise: fully nested.
        let batch: Vec<_> = (0..3)
            .map(|src| (p(&t, src, 3, Direction::Clockwise), 1))
            .collect();
        assert_eq!(congestion_lower_bound(&batch), 3);
        assert_eq!(greedy_wavelength_bound(&batch), 3);
    }

    #[test]
    fn disjoint_groups_reuse_wavelengths() {
        let t = RingTopology::new(32);
        let batch = vec![
            (p(&t, 0, 2, Direction::Clockwise), 1),
            (p(&t, 10, 12, Direction::Clockwise), 1),
            (p(&t, 20, 22, Direction::Clockwise), 1),
        ];
        assert_eq!(greedy_wavelength_bound(&batch), 1);
    }

    #[test]
    fn lanes_multiply_requirements() {
        let t = RingTopology::new(16);
        let batch = vec![
            (p(&t, 0, 4, Direction::Clockwise), 2),
            (p(&t, 1, 3, Direction::Clockwise), 2),
        ];
        assert_eq!(congestion_lower_bound(&batch), 4);
        assert_eq!(greedy_wavelength_bound(&batch), 4);
    }

    #[test]
    fn congestion_bound_is_insertion_order_independent() {
        let t = RingTopology::new(16);
        // Overlapping clockwise paths with distinct lane weights, plus a
        // counter-clockwise path over the same nodes (separate key space).
        let base = vec![
            (p(&t, 0, 4, Direction::Clockwise), 2),
            (p(&t, 1, 3, Direction::Clockwise), 1),
            (p(&t, 2, 6, Direction::Clockwise), 3),
            (p(&t, 4, 2, Direction::CounterClockwise), 5),
        ];
        let reference = congestion_lower_bound(&base);
        assert_eq!(reference, 6); // segment 2→3 carries 2 + 1 + 3 lanes
        for rot in 0..base.len() {
            let mut perm = base.clone();
            perm.rotate_left(rot);
            assert_eq!(congestion_lower_bound(&perm), reference);
        }
        let mut rev = base;
        rev.reverse();
        assert_eq!(congestion_lower_bound(&rev), reference);
    }

    #[test]
    fn greedy_upper_bounds_congestion() {
        let t = RingTopology::new(24);
        let batch: Vec<_> = (0..8)
            .map(|i| (p(&t, i * 3, (i * 3 + 7) % 24, Direction::Clockwise), 1))
            .collect();
        assert!(greedy_wavelength_bound(&batch) >= congestion_lower_bound(&batch));
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let t = RingTopology::new(16);
        let paths = vec![
            p(&t, 0, 4, Direction::Clockwise),
            p(&t, 1, 3, Direction::Clockwise),
        ];
        let good = vec![vec![Wavelength(0)], vec![Wavelength(1)]];
        let bad = vec![vec![Wavelength(0)], vec![Wavelength(0)]];
        assert!(validate_assignment(&paths, &good));
        assert!(!validate_assignment(&paths, &bad));
    }
}
