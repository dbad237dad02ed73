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
use crate::wavelength::Wavelength;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
///
/// Lanes are bit masks: each direction holds one flat array of
/// `words × segments` 64-bit words (`words = ⌈w / 64⌉`), where word `k` of
/// segment `s`, at `k * segments + s`, marks lanes `64k..64k + 63` busy on
/// that span. Failed lanes form one more mask. [`Occupancy::assign`] ORs
/// the path's segment words once per word it needs, so a path costs `hops`
/// word loads per 64 lanes instead of one membership test per lane per
/// hop, and on an arc those loads are one or two contiguous runs.
///
/// Every operation has one body, on an arc: the `hops` segments clockwise
/// from segment `first` on one direction's waveguide, which is what a
/// routed lightpath covers. The forms on a [`LightPath`] pass its arc.
#[derive(Debug, Clone)]
pub struct Occupancy {
    segments: usize,
    wavelengths: usize,
    /// 64-bit words per lane mask.
    words: usize,
    /// `used[dir][k * segments + segment]` = word `k` of the lanes busy on
    /// that segment.
    used: [Vec<u64>; 2],
    /// `load[dir][lambda]` = number of segments where lambda is busy.
    load: [Vec<usize>; 2],
    /// Lanes administratively failed, which admit no new lightpaths (fault
    /// injection; all clear on clean runs).
    down: Vec<u64>,
    /// Scratch of [`Occupancy::assign`]: the lanes blocked on the path
    /// (busy on some segment, or failed), one word per mask word.
    blocked: Vec<u64>,
    /// Scratch of Best-Fit: the path's free lanes, sorted into load order.
    order: Vec<usize>,
    /// Scratch of [`Occupancy::assign_lanes`]: the lanes granted.
    picked: Vec<u32>,
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Clockwise => 0,
        Direction::CounterClockwise => 1,
    }
}

/// The first segment, counted clockwise, of the route from `src` to `dst`
/// in `direction`: the source going clockwise, the destination going
/// counter-clockwise. With its hop count it names the route's arc (see
/// [`Occupancy::assign_lanes`]).
pub fn arc_first(src: usize, dst: usize, direction: Direction) -> usize {
    match direction {
        Direction::Clockwise => src,
        Direction::CounterClockwise => dst,
    }
}

/// [`arc_first`] of the routed `path`.
fn arc_start(path: &LightPath) -> usize {
    arc_first(path.src.0, path.dst.0, path.direction)
}

/// The segments of the arc `first..first + hops` on a ring of `n`
/// segments, counted clockwise from `first` and wrapping past `n - 1`: one
/// run, or two when it wraps.
pub(crate) fn arc_runs(
    first: usize,
    hops: usize,
    n: usize,
) -> impl Iterator<Item = Range<usize>> + Clone {
    let end = first + hops;
    [first..end.min(n), 0..end.saturating_sub(n)].into_iter()
}

/// The clear bits of the lane mask `mask`, lowest first, as lane indices.
fn clear_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(k, &word)| {
        let mut bits = !word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                64 * k + b
            })
        })
    })
}

/// Word index and bit of `lambda` in a lane mask.
fn lane_bit(lambda: Wavelength) -> (usize, u64) {
    (lambda.0 / 64, 1 << (lambda.0 % 64))
}

impl Occupancy {
    /// Fresh, fully idle occupancy for a ring with `segments` spans and
    /// `wavelengths` channels per waveguide.
    #[must_use]
    pub fn new(segments: usize, wavelengths: usize) -> Self {
        let words = wavelengths.div_ceil(64);
        Self {
            segments,
            wavelengths,
            words,
            used: [vec![0; segments * words], vec![0; segments * words]],
            load: [vec![0; wavelengths], vec![0; wavelengths]],
            down: vec![0; words],
            blocked: vec![0; words],
            order: Vec::new(),
            picked: Vec::new(),
        }
    }

    /// Return to fully idle (every lane free on every segment, none
    /// failed), keeping the allocations: a stepped run reuses one occupancy
    /// for all its steps.
    pub(crate) fn clear(&mut self) {
        for used in &mut self.used {
            used.fill(0);
        }
        for load in &mut self.load {
            load.fill(0);
        }
        self.down.fill(0);
    }

    /// Number of wavelengths per waveguide.
    #[must_use]
    pub fn wavelengths(&self) -> usize {
        self.wavelengths
    }

    /// Is `lambda` free on every segment of `path`?
    #[must_use]
    pub fn is_free(&self, path: &LightPath, lambda: Wavelength) -> bool {
        self.is_free_arc(path.direction, arc_start(path), path.hops(), lambda)
    }

    /// [`Occupancy::is_free`] on the arc of `hops` segments clockwise from
    /// segment `first` on the `direction` waveguide.
    fn is_free_arc(
        &self,
        direction: Direction,
        first: usize,
        hops: usize,
        lambda: Wavelength,
    ) -> bool {
        let (k, bit) = lane_bit(lambda);
        let row = self.row(dir_index(direction), k);
        self.down[k] & bit == 0
            && arc_runs(first, hops, self.segments)
                .all(|run| row[run].iter().all(|&w| w & bit == 0))
    }

    /// Word `k` of the lane masks of every segment, in direction `d`.
    fn row(&self, d: usize, k: usize) -> &[u64] {
        &self.used[d][k * self.segments..(k + 1) * self.segments]
    }

    /// Mark `lambda` failed: it admits no new lightpaths until
    /// [`Occupancy::set_lane_up`]. Existing occupancy is untouched — the
    /// caller decides what happens to in-flight holders.
    pub fn set_lane_down(&mut self, lambda: Wavelength) {
        let (k, bit) = lane_bit(lambda);
        self.down[k] |= bit;
    }

    /// Repair `lambda` after a [`Occupancy::set_lane_down`].
    pub fn set_lane_up(&mut self, lambda: Wavelength) {
        let (k, bit) = lane_bit(lambda);
        self.down[k] &= !bit;
    }

    /// Is `lambda` currently failed?
    #[must_use]
    pub fn is_lane_down(&self, lambda: Wavelength) -> bool {
        let (k, bit) = lane_bit(lambda);
        self.down[k] & bit != 0
    }

    /// Mark `lambda` busy along `path`.
    pub fn occupy(&mut self, path: &LightPath, lambda: Wavelength) {
        self.occupy_arc(path.direction, arc_start(path), path.hops(), lambda);
    }

    /// [`Occupancy::occupy`] on the arc of `hops` segments clockwise from
    /// segment `first` on the `direction` waveguide.
    fn occupy_arc(&mut self, direction: Direction, first: usize, hops: usize, lambda: Wavelength) {
        let d = dir_index(direction);
        let (k, bit) = lane_bit(lambda);
        let row = &mut self.used[d][k * self.segments..(k + 1) * self.segments];
        for run in arc_runs(first, hops, self.segments) {
            for word in &mut row[run] {
                debug_assert!(*word & bit == 0, "double-occupying {lambda}");
                *word |= bit;
            }
        }
        self.load[d][lambda.0] += hops;
    }

    /// Release `lambda` along `path` (event-driven mode).
    pub fn release(&mut self, path: &LightPath, lambda: Wavelength) {
        self.release_arc(path.direction, arc_start(path), path.hops(), lambda);
    }

    /// [`Occupancy::release`] on the arc of `hops` segments clockwise from
    /// segment `first` on the `direction` waveguide.
    pub(crate) fn release_arc(
        &mut self,
        direction: Direction,
        first: usize,
        hops: usize,
        lambda: Wavelength,
    ) {
        let d = dir_index(direction);
        let (k, bit) = lane_bit(lambda);
        let row = &mut self.used[d][k * self.segments..(k + 1) * self.segments];
        for run in arc_runs(first, hops, self.segments) {
            for word in &mut row[run] {
                *word &= !bit;
            }
        }
        self.load[d][lambda.0] = self.load[d][lambda.0].saturating_sub(hops);
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

    /// Assign `lanes` wavelengths to `path` with the given heuristic.
    ///
    /// On success the lanes are recorded as busy and returned in assignment
    /// order. Fails with [`OpticalError::WavelengthsExhausted`] when fewer
    /// than `lanes` channels are free along the whole path; a failed call
    /// returns no list and changes nothing.
    pub fn assign(
        &mut self,
        path: &LightPath,
        lanes: usize,
        strategy: Strategy,
    ) -> Result<Vec<Wavelength>> {
        let picked = self.assign_lanes(
            path.direction,
            arc_start(path),
            path.hops(),
            lanes,
            strategy,
        )?;
        Ok(picked.iter().map(|&l| Wavelength(l as usize)).collect())
    }

    /// [`Occupancy::assign`] on the arc of `hops` segments clockwise from
    /// segment `first` on the `direction` waveguide (see [`arc_first`]),
    /// returning the lanes in a scratch the next call reuses. It builds no
    /// [`LightPath`] and allocates nothing once the scratch holds `lanes`.
    pub fn assign_lanes(
        &mut self,
        direction: Direction,
        first: usize,
        hops: usize,
        lanes: usize,
        strategy: Strategy,
    ) -> Result<&[u32]> {
        // More lanes than channels never fit: fail before sizing the
        // scratch for them.
        if lanes > self.wavelengths {
            return Err(self.exhausted(lanes));
        }
        let mut picked = std::mem::take(&mut self.picked);
        picked.resize(lanes, 0);
        let placed = self.assign_arc(direction, first, hops, strategy, &mut picked);
        self.picked = picked;
        placed.map(|()| self.picked.as_slice())
    }

    /// [`Occupancy::assign`] of `lanes.len()` wavelengths on the arc of
    /// `hops` segments clockwise from segment `first` on the `direction`
    /// waveguide — the segments of a routed lightpath, which need not be at
    /// hand. On success the lanes, in assignment order, are written to
    /// `lanes`; a failed call writes nothing and changes nothing. Lane
    /// indices fit in 32 bits when the channel count does.
    pub(crate) fn assign_arc(
        &mut self,
        direction: Direction,
        first: usize,
        hops: usize,
        strategy: Strategy,
        lanes: &mut [u32],
    ) -> Result<()> {
        let want = lanes.len();
        if want == 0 {
            return Err(OpticalError::ZeroLanes);
        }
        let d = dir_index(direction);
        // First Fit needs only the words up to its `want`-th free lane;
        // Best Fit ranks every free lane.
        let needed = match strategy {
            Strategy::FirstFit => want,
            Strategy::BestFit => usize::MAX,
        };
        let (words, free) = self.block(d, arc_runs(first, hops, self.segments), needed);
        if free < want {
            return Err(self.exhausted(want));
        }
        let free_lanes = clear_bits(&self.blocked[..words]);
        match strategy {
            Strategy::FirstFit => {
                for (out, lambda) in lanes.iter_mut().zip(free_lanes) {
                    *out = lambda as u32;
                }
            }
            Strategy::BestFit => {
                let load = &self.load[d];
                self.order.clear();
                self.order.extend(free_lanes);
                // Busiest-elsewhere first; tie-break on index.
                self.order
                    .sort_unstable_by(|&a, &b| load[b].cmp(&load[a]).then(a.cmp(&b)));
                for (out, &lambda) in lanes.iter_mut().zip(&self.order) {
                    *out = lambda as u32;
                }
            }
        }
        for &lambda in lanes.iter() {
            self.occupy_arc(direction, first, hops, Wavelength(lambda as usize));
        }
        Ok(())
    }

    /// The error of a demand for `lanes` wavelengths that are not free.
    fn exhausted(&self, lanes: usize) -> OpticalError {
        OpticalError::WavelengthsExhausted {
            available: self.wavelengths,
            requested: lanes,
            step: 0,
        }
    }

    /// Fill `blocked` with the lanes unusable on the segment `runs` of
    /// direction `d` — busy on any of them, failed, or past the channel
    /// count — word by word, stopping once `needed` free lanes are found.
    /// Returns the words filled and the free lanes they hold.
    fn block(
        &mut self,
        d: usize,
        runs: impl Iterator<Item = Range<usize>> + Clone,
        needed: usize,
    ) -> (usize, usize) {
        let words = self.words;
        let mut free = 0;
        for k in 0..words {
            let tail = self.wavelengths - 64 * k;
            let edge = if tail < 64 { !0 << tail } else { 0 };
            let row = self.row(d, k);
            let blocked = runs.clone().fold(self.down[k] | edge, |acc, run| {
                row[run].iter().fold(acc, |acc, &word| acc | word)
            });
            self.blocked[k] = blocked;
            free += blocked.count_zeros() as usize;
            if free >= needed {
                return (k + 1, free);
            }
        }
        (words, free)
    }
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
        assert_eq!(occ.peak_wavelengths_used(), 3);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let t = RingTopology::new(8);
        let mut occ = Occupancy::new(8, 2);
        let p = path(&t, 0, 4, Direction::Clockwise);
        assert!(occ.assign(&p, 3, Strategy::FirstFit).is_err());
        // Partial failure must not leak occupancy.
        assert_eq!(occ.peak_wavelengths_used(), 0);
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
    fn arcs_cover_exactly_the_routed_segments() {
        for n in 2..12 {
            let t = RingTopology::new(n);
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                for d in Direction::BOTH {
                    if a == b {
                        continue;
                    }
                    let p = path(&t, a, b, d);
                    let mut arc: Vec<usize> =
                        arc_runs(arc_start(&p), p.hops(), n).flatten().collect();
                    let mut routed = p.segments.clone();
                    arc.sort_unstable();
                    routed.sort_unstable();
                    assert_eq!(arc, routed, "{a} -> {b} {d:?}");
                }
            }
        }
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
}
