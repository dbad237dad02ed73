//! The final all-to-all step among surviving representatives.
//!
//! Each representative sends its partial sum to every other representative
//! in a single step; with snapshot semantics every receiver then holds the
//! global sum. Liang & Shen bound the wavelength requirement of ring
//! all-to-all by `⌈k²/8⌉`; we additionally *measure* the requirement of the
//! concrete shortest-path First-Fit assignment, so plans never rely on the
//! bound alone.

use crate::error::Result;
use optical_sim::rwa::{arc_first, Occupancy, Strategy};
use optical_sim::topology::{NodeId, RingTopology};

/// All ordered `(src, dst)` pairs among `reps` — the transfer set of one
/// all-to-all step.
///
/// Contract (pinned by unit tests and proptests below):
///
/// * exactly `k * (k - 1)` pairs for `k` distinct representatives — every
///   ordered pair appears **exactly once**;
/// * no self-sends: `src != dst` for every pair (duplicate entries in
///   `reps` would break this, so callers pass distinct ids);
/// * deterministic order: pairs are emitted grouped by source in `reps`
///   order, destinations in `reps` order — the same slice always yields
///   the identical vector, which downstream lowerings
///   ([`crate::parallelism::lower_parallelism`]'s MoE phase) rely on for
///   bit-reproducible DAGs.
#[must_use]
pub fn alltoall_pairs(reps: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(reps.len().saturating_mul(reps.len().saturating_sub(1)));
    for &a in reps {
        for &b in reps {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    pairs
}

/// Measure how many wavelengths a unit-lane shortest-path First-Fit
/// assignment of `pairs` needs on `topo`.
///
/// Contract:
///
/// * the result is the **exact** peak wavelength index First-Fit reaches
///   when the pairs are assigned in slice order, each as one unit-lane
///   lightpath on its shortest arc of `topo` (clockwise on ties) — not the
///   Liang–Shen `⌈k²/8⌉` bound, which
///   [`crate::steps::alltoall_wavelength_requirement`] provides; the caller
///   compares it against its wavelength budget to decide feasibility;
/// * the trial runs on the **endpoint-compressed ring**, so its cost
///   scales with the number `k` of distinct endpoints, not with
///   `topo.nodes()`. With the endpoints sorted, `e_0 < … < e_{k−1}`, span
///   `i` of the small ring stands for the whole arc from `e_i` clockwise
///   to `e_{(i+1) mod k}`. The measurement is still exact: every path
///   starts and ends at an endpoint, so it covers whole arcs, and all
///   segments of one arc always carry the same wavelengths. A wavelength
///   is therefore free along a path on the small ring exactly when it is
///   free along the path on `topo`, and First-Fit picks the same lane for
///   every pair. Directions come from `topo`, never from the small ring;
/// * the trial occupancy has `pairs.len() + 1` lanes, so its memory
///   follows the trial, and First-Fit never reaches past its last lane:
///   each pair takes the lowest lane free on its arc, and the pairs
///   before it hold fewer lanes than that;
/// * assignment order matters to First-Fit, so callers must pass pairs in
///   a canonical order ([`alltoall_pairs`] output) for reproducible
///   measurements;
/// * empty `pairs` need zero wavelengths, and a self-pair `(a, a)` adds
///   nothing: it occupies no segment.
///
/// # Errors
/// [`optical_sim::OpticalError::NodeOutOfRange`] (wrapped in
/// [`crate::WrhtError::Optical`]) when a pair names a node that is not on
/// `topo`, self-pairs included. The trial placement itself cannot fail:
/// the occupancy has a spare wavelength for every pair.
pub fn measured_alltoall_wavelengths(
    topo: &RingTopology,
    pairs: &[(usize, usize)],
) -> Result<usize> {
    if let Some(node) = pairs.iter().map(|&(a, b)| a.max(b)).max() {
        topo.check_node(NodeId(node))?;
    }
    // Self-pairs occupy nothing, so only the other pairs' endpoints
    // delimit spans.
    let travels = |&&(a, b): &&(usize, usize)| a != b;
    let mut ends: Vec<usize> = pairs
        .iter()
        .filter(travels)
        .flat_map(|&(a, b)| [a, b])
        .collect();
    ends.sort_unstable();
    ends.dedup();
    let span_of = |node: usize| ends.partition_point(|&e| e < node);
    let spans = pairs
        .iter()
        .filter(travels)
        .map(|&(a, b)| (span_of(a), span_of(b)));
    first_fit_peak(topo, &ends, pairs.len(), spans)
}

/// [`measured_alltoall_wavelengths`] of [`alltoall_pairs`]`(reps)`, for
/// strictly ascending ring positions `reps` on `topo`, without listing
/// the pairs: the representatives are the compressed ring's endpoints.
pub(crate) fn reps_alltoall_wavelengths(topo: &RingTopology, reps: &[usize]) -> Result<usize> {
    let k = reps.len();
    let spans = (0..k).flat_map(|i| (0..k).filter(move |&j| j != i).map(move |j| (i, j)));
    first_fit_peak(topo, reps, k * k.saturating_sub(1), spans)
}

/// Place one unit lane per `(i, j)` span pair, First-Fit in order, on the
/// ring compressed to the sorted distinct endpoints `ends` of `topo`
/// (span `i` runs from `ends[i]` to the next endpoint), and return the
/// peak lane count. The pair `(i, j)` travels from `ends[i]` to `ends[j]`
/// in `topo`'s shortest direction; the occupancy holds `pairs + 1` lanes.
fn first_fit_peak(
    topo: &RingTopology,
    ends: &[usize],
    pairs: usize,
    spans: impl Iterator<Item = (usize, usize)>,
) -> Result<usize> {
    // A pair that travels has two endpoints.
    if ends.len() < 2 {
        return Ok(0);
    }
    let ring = RingTopology::try_new(ends.len())?;
    let mut occ = Occupancy::new(ends.len(), pairs + 1);
    for (i, j) in spans {
        let direction = topo.shortest_direction(NodeId(ends[i]), NodeId(ends[j]));
        let hops = ring.hops(NodeId(i), NodeId(j), direction);
        occ.assign_lanes(
            direction,
            arc_first(i, j, direction),
            hops,
            1,
            Strategy::FirstFit,
        )?;
    }
    Ok(occ.peak_wavelengths_used())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WrhtError;
    use crate::steps::alltoall_wavelength_requirement;
    use optical_sim::OpticalError;

    #[test]
    fn pairs_are_all_ordered_pairs() {
        let pairs = alltoall_pairs(&[3, 7, 11]);
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(3, 7)));
        assert!(pairs.contains(&(7, 3)));
        assert!(!pairs.contains(&(3, 3)));
    }

    #[test]
    fn two_reps_need_one_wavelength() {
        // Half a ring apart both pairs go clockwise, on disjoint arcs.
        let topo = RingTopology::new(16);
        for reps in [[2, 10], [0, 8]] {
            let pairs = alltoall_pairs(&reps);
            assert_eq!(pairs.len(), 2);
            assert_eq!(measured_alltoall_wavelengths(&topo, &pairs).unwrap(), 1);
            assert_eq!(reps_alltoall_wavelengths(&topo, &reps).unwrap(), 1);
        }
    }

    #[test]
    fn measured_requirement_tracks_liang_shen_bound() {
        // Evenly spaced representatives: First Fit should stay within a
        // small constant factor of the ceil(k^2/8) bound.
        for k in [4usize, 6, 8, 12, 16] {
            let n = k * 8;
            let topo = RingTopology::new(n);
            let reps: Vec<usize> = (0..k).map(|i| i * 8).collect();
            let pairs = alltoall_pairs(&reps);
            let measured = measured_alltoall_wavelengths(&topo, &pairs).unwrap();
            let bound = alltoall_wavelength_requirement(k);
            assert!(
                measured <= 2 * bound,
                "k={k}: measured {measured} vs bound {bound}"
            );
            // And never below the bisection-congestion floor of ~k^2/8 / 2.
            assert!(measured >= bound / 4, "k={k}: measured {measured}");
        }
    }

    #[test]
    fn empty_pairs_need_nothing() {
        let topo = RingTopology::new(8);
        assert_eq!(measured_alltoall_wavelengths(&topo, &[]).unwrap(), 0);
    }

    #[test]
    fn out_of_range_endpoint_is_a_typed_error() {
        let topo = RingTopology::new(8);
        let err = measured_alltoall_wavelengths(&topo, &[(9, 3)]).unwrap_err();
        assert_eq!(
            err,
            WrhtError::Optical(OpticalError::NodeOutOfRange {
                node: NodeId(9),
                n: 8
            })
        );
        // A self-pair is checked too, although it occupies nothing.
        assert!(measured_alltoall_wavelengths(&topo, &[(1, 2), (8, 8)]).is_err());
    }

    #[test]
    fn self_pairs_cost_nothing() {
        let topo = RingTopology::new(8);
        // No second endpoint at all.
        assert_eq!(measured_alltoall_wavelengths(&topo, &[(4, 4)]).unwrap(), 0);
        // Beside a pair that travels, a self-pair changes nothing.
        let with = measured_alltoall_wavelengths(&topo, &[(0, 4), (4, 4), (1, 3)]).unwrap();
        let without = measured_alltoall_wavelengths(&topo, &[(0, 4), (1, 3)]).unwrap();
        assert_eq!((with, without), (2, 2));
    }

    #[test]
    fn pair_count_is_exactly_k_times_k_minus_one() {
        for k in 0..10usize {
            let reps: Vec<usize> = (0..k).map(|i| i * 3 + 1).collect();
            assert_eq!(alltoall_pairs(&reps).len(), k * k.saturating_sub(1));
        }
    }

    mod props {
        use super::super::{
            alltoall_pairs, measured_alltoall_wavelengths, reps_alltoall_wavelengths,
        };
        use optical_sim::topology::RingTopology;
        use proptest::prelude::*;

        fn distinct_reps(max_size: usize) -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..64, 0..max_size).prop_map(|mut v| {
                v.sort_unstable();
                v.dedup();
                v
            })
        }

        proptest! {
            #[test]
            fn every_ordered_pair_exactly_once(reps in distinct_reps(9)) {
                let pairs = alltoall_pairs(&reps);
                let k = reps.len();
                prop_assert_eq!(pairs.len(), k * k.saturating_sub(1));
                // Exactly once: no duplicates and full coverage.
                let mut sorted = pairs.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), pairs.len());
                for &a in &reps {
                    for &b in &reps {
                        if a != b {
                            prop_assert!(pairs.contains(&(a, b)));
                        }
                    }
                }
            }

            #[test]
            fn no_self_sends_and_deterministic(reps in distinct_reps(9)) {
                let pairs = alltoall_pairs(&reps);
                prop_assert!(pairs.iter().all(|&(a, b)| a != b));
                prop_assert_eq!(pairs, alltoall_pairs(&reps));
            }

            #[test]
            fn measurement_is_exact_and_order_sized(
                reps in distinct_reps(7),
                n in 8usize..32,
            ) {
                let reps: Vec<usize> = reps.into_iter().filter(|&r| r < n).collect();
                let topo = RingTopology::new(n);
                let pairs = alltoall_pairs(&reps);
                let need = measured_alltoall_wavelengths(&topo, &pairs).unwrap();
                // Never more than one wavelength per pair, none for none.
                prop_assert!(need <= pairs.len());
                prop_assert_eq!(need == 0, pairs.is_empty());
                // The planner's trial over the representatives themselves.
                prop_assert_eq!(reps_alltoall_wavelengths(&topo, &reps).unwrap(), need);
            }
        }
    }
}
