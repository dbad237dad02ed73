//! Differential test of the all-to-all wavelength trial.
//!
//! [`measured_alltoall_wavelengths`] runs First-Fit on the ring compressed
//! to the pairs' distinct endpoints, with one lane per pair and one spare.
//! The oracle below runs the same First-Fit on every segment of the full
//! ring, with lanes past a wavelength budget as well, as the planner once
//! did. Both must report the same peak for any ring, endpoint set, pair
//! order and budget.

use optical_sim::path::LightPath;
use optical_sim::rwa::{Occupancy, Strategy as Rwa};
use optical_sim::topology::{NodeId, RingTopology};
use proptest::prelude::*;
use proptest::rng::TestRng;
use wrht_core::alltoall::{alltoall_pairs, measured_alltoall_wavelengths};

/// The full-ring trial: one unit-lane shortest-path lightpath per pair on
/// an occupancy of all `topo.nodes()` segments, First-Fit in slice order.
fn full_ring_trial(topo: &RingTopology, pairs: &[(usize, usize)], w: usize) -> usize {
    if pairs.is_empty() {
        return 0;
    }
    let headroom = w.max(pairs.len()) + 1;
    let mut occ = Occupancy::new(topo.nodes(), headroom);
    for &(src, dst) in pairs {
        let path = LightPath::shortest(topo, NodeId(src), NodeId(dst));
        occ.assign(&path, 1, Rwa::FirstFit)
            .expect("the occupancy has a wavelength per pair");
    }
    occ.peak_wavelengths_used()
}

/// One trial input: ring size, pairs in assignment order, the oracle's
/// wavelength budget.
#[derive(Debug)]
struct Trial {
    n: usize,
    pairs: Vec<(usize, usize)>,
    w: usize,
}

/// Draws rings of 2–300 nodes with 2–24 distinct endpoints. Endpoint sets
/// are sometimes spread evenly, as the planner's representatives are, and
/// otherwise often hold the ring's first and last node and, on even
/// rings, pairs exactly half a ring apart (where clockwise wins the tie).
/// The pairs are `alltoall_pairs` over the endpoints in ascending or drawn
/// order, or a shuffled subset of those, sometimes with self-pairs mixed
/// in.
struct Trials;

fn below(rng: &mut TestRng, bound: usize) -> usize {
    rng.below(bound as u64) as usize
}

fn shuffle<T>(rng: &mut TestRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i + 1));
    }
}

impl Strategy for Trials {
    type Value = Trial;

    fn sample(&self, rng: &mut TestRng) -> Trial {
        let n = 2 + below(rng, 299);
        let k = 2 + below(rng, n.min(24) - 1);
        let mut ends: Vec<usize> = Vec::with_capacity(k);
        let add = |ends: &mut Vec<usize>, node: usize| {
            if ends.len() < k && !ends.contains(&node) {
                ends.push(node);
            }
        };
        if below(rng, 4) == 0 {
            ends.extend((0..k).map(|i| i * n / k));
        }
        if below(rng, 2) == 0 {
            add(&mut ends, 0);
            add(&mut ends, n - 1);
        }
        if n.is_multiple_of(2) && below(rng, 2) == 0 {
            for _ in 0..1 + below(rng, 3) {
                let a = below(rng, n / 2);
                add(&mut ends, a);
                add(&mut ends, a + n / 2);
            }
        }
        while ends.len() < k {
            let node = below(rng, n);
            add(&mut ends, node);
        }
        if below(rng, 2) == 0 {
            ends.sort_unstable();
        }
        let mut pairs = alltoall_pairs(&ends);
        if below(rng, 2) == 0 {
            shuffle(rng, &mut pairs);
            pairs.truncate(1 + below(rng, pairs.len()));
            if below(rng, 4) == 0 {
                let node = ends[below(rng, ends.len())];
                let at = below(rng, pairs.len() + 1);
                pairs.insert(at, (node, node));
            }
        }
        Trial {
            n,
            pairs,
            w: 1 + below(rng, 64),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compressed_trial_equals_full_ring_trial(t in Trials) {
        let topo = RingTopology::new(t.n);
        let compressed = measured_alltoall_wavelengths(&topo, &t.pairs)
            .expect("every endpoint is on the ring");
        prop_assert_eq!(compressed, full_ring_trial(&topo, &t.pairs, t.w));
    }
}
