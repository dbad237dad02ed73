//! Routing and wavelength assignment (RWA).
//!
//! The paper assigns wavelengths within each Wrht subgroup with the classic
//! **First Fit** or **Best Fit** heuristics (its refs \[7\] and \[8\]). We track
//! per-direction, per-segment occupancy and place each lightpath on the
//! requested number of striping lanes:
//!
//! * **First Fit** — scan wavelengths from index 0 upward and take the first
//!   ones free on *every* segment of the path.
//! * **Best Fit** — prefer wavelengths that are already carrying the most
//!   traffic elsewhere on the ring (densest packing first), falling back to
//!   index order on ties. This keeps untouched wavelengths free for future
//!   wide stripes, which is the behaviour Best-Fit RWA aims for.

use crate::error::{OpticalError, Result};
use crate::path::LightPath;
use crate::topology::Direction;
use crate::wavelength::{Wavelength, WavelengthSet};
use serde::{Deserialize, Serialize};

/// Wavelength assignment heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Lowest-index-first assignment.
    FirstFit,
    /// Densest-packing-first assignment.
    BestFit,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::FirstFit => write!(f, "first-fit"),
            Strategy::BestFit => write!(f, "best-fit"),
        }
    }
}

/// Per-direction, per-segment wavelength occupancy for one scheduling round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Occupancy {
    wavelengths: usize,
    /// `used[dir][segment]` = set of wavelengths busy on that segment.
    used: [Vec<WavelengthSet>; 2],
    /// `load[dir][lambda]` = number of segments where lambda is busy.
    load: [Vec<usize>; 2],
    /// `down[lambda]` = the wavelength is administratively failed and admits
    /// no new lightpaths (fault injection; always all-false on clean runs).
    down: Vec<bool>,
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Clockwise => 0,
        Direction::CounterClockwise => 1,
    }
}

impl Occupancy {
    /// Fresh, fully idle occupancy for a ring with `segments` spans and
    /// `wavelengths` channels per waveguide.
    #[must_use]
    pub fn new(segments: usize, wavelengths: usize) -> Self {
        let mk = || vec![WavelengthSet::with_capacity(wavelengths); segments];
        Self {
            wavelengths,
            used: [mk(), mk()],
            load: [vec![0; wavelengths], vec![0; wavelengths]],
            down: vec![false; wavelengths],
        }
    }

    /// Return to fully idle (every lane free on every segment, none
    /// failed), keeping the allocations: a stepped run reuses one occupancy
    /// for all its steps.
    pub(crate) fn clear(&mut self) {
        for set in self.used.iter_mut().flatten() {
            set.clear();
        }
        for load in &mut self.load {
            load.fill(0);
        }
        self.down.fill(false);
    }

    /// Number of wavelengths per waveguide.
    #[must_use]
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }

    /// Is `lambda` free on every segment of `path`?
    #[must_use]
    pub fn is_free(&self, path: &LightPath, lambda: Wavelength) -> bool {
        if self.down[lambda.0] {
            return false;
        }
        let d = dir_index(path.direction);
        path.segments
            .iter()
            .all(|&s| !self.used[d][s].contains(lambda))
    }

    /// Mark `lambda` failed: it admits no new lightpaths until
    /// [`Occupancy::set_lane_up`]. Existing occupancy is untouched — the
    /// caller decides what happens to in-flight holders.
    pub fn set_lane_down(&mut self, lambda: Wavelength) {
        self.down[lambda.0] = true;
    }

    /// Repair `lambda` after a [`Occupancy::set_lane_down`].
    pub fn set_lane_up(&mut self, lambda: Wavelength) {
        self.down[lambda.0] = false;
    }

    /// Is `lambda` currently failed?
    #[must_use]
    pub fn is_lane_down(&self, lambda: Wavelength) -> bool {
        self.down[lambda.0]
    }

    /// Mark `lambda` busy along `path`.
    pub fn occupy(&mut self, path: &LightPath, lambda: Wavelength) {
        let d = dir_index(path.direction);
        for &s in &path.segments {
            debug_assert!(
                !self.used[d][s].contains(lambda),
                "double-occupying {lambda} on segment {s}"
            );
            self.used[d][s].insert(lambda);
        }
        self.load[d][lambda.0] += path.segments.len();
    }

    /// Release `lambda` along `path` (event-driven mode).
    pub fn release(&mut self, path: &LightPath, lambda: Wavelength) {
        let d = dir_index(path.direction);
        for &s in &path.segments {
            self.used[d][s].remove(lambda);
        }
        self.load[d][lambda.0] = self.load[d][lambda.0].saturating_sub(path.segments.len());
    }

    /// Highest wavelength index in use anywhere, plus one (i.e. the number of
    /// distinct channels the current assignment consumes under First Fit
    /// numbering).
    #[must_use]
    pub fn peak_wavelengths_used(&self) -> usize {
        let mut peak = 0;
        for d in 0..2 {
            for (l, &count) in self.load[d].iter().enumerate() {
                if count > 0 {
                    peak = peak.max(l + 1);
                }
            }
        }
        peak
    }

    /// Number of distinct wavelengths carrying at least one path.
    #[must_use]
    pub fn distinct_wavelengths_used(&self) -> usize {
        (0..self.wavelengths)
            .filter(|&l| self.load[0][l] > 0 || self.load[1][l] > 0)
            .count()
    }

    /// Assign `lanes` wavelengths to `path` with the given heuristic.
    ///
    /// On success the lanes are recorded as busy and returned in assignment
    /// order. Fails with [`OpticalError::WavelengthsExhausted`] when fewer
    /// than `lanes` channels are free along the whole path.
    pub fn assign(
        &mut self,
        path: &LightPath,
        lanes: usize,
        strategy: Strategy,
    ) -> Result<Vec<Wavelength>> {
        if lanes == 0 {
            return Err(OpticalError::ZeroLanes);
        }
        let picked = match strategy {
            Strategy::FirstFit => self.first_free(path, lanes, 0..self.wavelengths),
            Strategy::BestFit => {
                let d = dir_index(path.direction);
                let mut idx: Vec<usize> = (0..self.wavelengths).collect();
                // Busiest-elsewhere first; stable tie-break on index.
                idx.sort_by(|&a, &b| self.load[d][b].cmp(&self.load[d][a]).then(a.cmp(&b)));
                self.first_free(path, lanes, idx.into_iter())
            }
        };
        if picked.len() < lanes {
            return Err(OpticalError::WavelengthsExhausted {
                available: self.wavelengths,
                requested: lanes,
                step: 0,
            });
        }
        for &lambda in &picked {
            self.occupy(path, lambda);
        }
        Ok(picked)
    }

    /// Up to `lanes` wavelengths free along `path`, the first ones in
    /// `order`.
    fn first_free(
        &self,
        path: &LightPath,
        lanes: usize,
        order: impl Iterator<Item = usize>,
    ) -> Vec<Wavelength> {
        let mut picked = Vec::with_capacity(lanes);
        for lambda in order.map(Wavelength) {
            if picked.len() == lanes {
                break;
            }
            if self.is_free(path, lambda) {
                picked.push(lambda);
            }
        }
        picked
    }
}

/// Assign every path of a batch, returning per-path lane lists.
///
/// All paths are placed into one shared occupancy — this is exactly one
/// communication *step* of a stepped schedule.
pub fn assign_batch(
    occ: &mut Occupancy,
    paths: &[(LightPath, usize)],
    strategy: Strategy,
) -> Result<Vec<Vec<Wavelength>>> {
    paths
        .iter()
        .map(|(p, lanes)| occ.assign(p, *lanes, strategy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeId, RingTopology};

    fn path(t: &RingTopology, a: usize, b: usize, d: Direction) -> LightPath {
        LightPath::routed(t, NodeId(a), NodeId(b), d)
    }

    #[test]
    fn first_fit_reuses_low_indices_on_disjoint_paths() {
        let t = RingTopology::new(16);
        let mut occ = Occupancy::new(16, 8);
        let p1 = path(&t, 0, 2, Direction::Clockwise);
        let p2 = path(&t, 8, 10, Direction::Clockwise);
        let l1 = occ.assign(&p1, 1, Strategy::FirstFit).unwrap();
        let l2 = occ.assign(&p2, 1, Strategy::FirstFit).unwrap();
        // Disjoint segments: both get wavelength 0 (the "wavelength reuse"
        // Wrht's name refers to).
        assert_eq!(l1, vec![Wavelength(0)]);
        assert_eq!(l2, vec![Wavelength(0)]);
    }

    #[test]
    fn overlapping_paths_get_distinct_wavelengths() {
        let t = RingTopology::new(16);
        let mut occ = Occupancy::new(16, 8);
        let outer = path(&t, 0, 4, Direction::Clockwise);
        let inner = path(&t, 1, 3, Direction::Clockwise);
        let l1 = occ.assign(&outer, 1, Strategy::FirstFit).unwrap();
        let l2 = occ.assign(&inner, 1, Strategy::FirstFit).unwrap();
        assert_ne!(l1[0], l2[0]);
        assert_eq!(occ.peak_wavelengths_used(), 2);
    }

    #[test]
    fn striping_takes_multiple_lanes() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 4);
        let p = path(&t, 0, 3, Direction::Clockwise);
        let lanes = occ.assign(&p, 3, Strategy::FirstFit).unwrap();
        assert_eq!(lanes, vec![Wavelength(0), Wavelength(1), Wavelength(2)]);
        assert_eq!(occ.distinct_wavelengths_used(), 3);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 2);
        let p = path(&t, 0, 4, Direction::Clockwise);
        assert!(occ.assign(&p, 3, Strategy::FirstFit).is_err());
        // Partial failure must not leak occupancy.
        assert_eq!(occ.distinct_wavelengths_used(), 0);
        occ.assign(&p, 2, Strategy::FirstFit).unwrap();
        let q = path(&t, 2, 6, Direction::Clockwise);
        assert!(occ.assign(&q, 1, Strategy::FirstFit).is_err());
    }

    #[test]
    fn opposite_directions_are_independent() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 1);
        let cw = path(&t, 0, 4, Direction::Clockwise);
        let ccw = path(&t, 4, 0, Direction::CounterClockwise);
        occ.assign(&cw, 1, Strategy::FirstFit).unwrap();
        // Same span, opposite waveguide: the single wavelength is still free.
        occ.assign(&ccw, 1, Strategy::FirstFit).unwrap();
    }

    #[test]
    fn release_frees_lanes() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 1);
        let p = path(&t, 0, 4, Direction::Clockwise);
        let lanes = occ.assign(&p, 1, Strategy::FirstFit).unwrap();
        let q = path(&t, 2, 6, Direction::Clockwise);
        assert!(occ.assign(&q, 1, Strategy::FirstFit).is_err());
        occ.release(&p, lanes[0]);
        occ.assign(&q, 1, Strategy::FirstFit).unwrap();
    }

    #[test]
    fn best_fit_packs_busy_wavelengths() {
        let t = RingTopology::new(16);
        let mut occ = Occupancy::new(16, 8);
        // Occupy lambda 0 heavily on one arc.
        let long = path(&t, 0, 6, Direction::Clockwise);
        occ.assign(&long, 1, Strategy::FirstFit).unwrap();
        // A disjoint path under BestFit should still pick lambda 0 (densest).
        let far = path(&t, 10, 12, Direction::Clockwise);
        let lanes = occ.assign(&far, 1, Strategy::BestFit).unwrap();
        assert_eq!(lanes, vec![Wavelength(0)]);
    }

    #[test]
    fn nested_side_needs_exactly_side_size_wavelengths() {
        // Wrht's claim: a group of m nodes needs floor(m/2) wavelengths,
        // because one side's paths are nested. Check for m = 7 (side 3).
        let t = RingTopology::new(32);
        let mut occ = Occupancy::new(32, 16);
        let rep = 3;
        for src in 0..rep {
            let p = path(&t, src, rep, Direction::Clockwise);
            occ.assign(&p, 1, Strategy::FirstFit).unwrap();
        }
        assert_eq!(occ.peak_wavelengths_used(), 3); // = floor(7/2)
    }

    #[test]
    fn down_lanes_admit_no_new_paths_until_repaired() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 2);
        let p = path(&t, 0, 4, Direction::Clockwise);
        occ.set_lane_down(Wavelength(0));
        assert!(occ.is_lane_down(Wavelength(0)));
        // First Fit skips the failed lane 0.
        let lanes = occ.assign(&p, 1, Strategy::FirstFit).unwrap();
        assert_eq!(lanes, vec![Wavelength(1)]);
        // Both lanes needed, one down: exhaustion.
        let q = path(&t, 4, 0, Direction::Clockwise);
        assert!(occ.assign(&q, 2, Strategy::FirstFit).is_err());
        occ.set_lane_up(Wavelength(0));
        assert!(!occ.is_lane_down(Wavelength(0)));
        occ.assign(&q, 2, Strategy::FirstFit).unwrap();
    }

    #[test]
    fn assign_batch_matches_sequential() {
        let t = RingTopology::new(16);
        let mut occ = Occupancy::new(16, 8);
        let batch = vec![
            (path(&t, 0, 4, Direction::Clockwise), 1),
            (path(&t, 1, 3, Direction::Clockwise), 2),
            (path(&t, 8, 12, Direction::Clockwise), 1),
        ];
        let lanes = assign_batch(&mut occ, &batch, Strategy::FirstFit).unwrap();
        assert_eq!(lanes[0], vec![Wavelength(0)]);
        assert_eq!(lanes[1], vec![Wavelength(1), Wavelength(2)]);
        assert_eq!(lanes[2], vec![Wavelength(0)]);
    }
}
