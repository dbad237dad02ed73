//! Property tests for the optical substrate.

#[path = "support/conflict.rs"]
mod conflict;

use conflict::{congestion_lower_bound, greedy_wavelength_bound, validate_assignment};
use optical_sim::path::LightPath;
use optical_sim::rwa::{Occupancy, Strategy as Rwa};
use optical_sim::topology::{Direction, NodeId, RingTopology};
use optical_sim::{OpticalConfig, OpticalError, RingSimulator, StepSchedule, Transfer, Wavelength};
use proptest::prelude::*;

/// Per-lane reference for [`Occupancy`]: one flag per direction, segment
/// and lane, and an assignment that tests one lane at a time — in index
/// order for First Fit, in load order (busiest first, index on ties) for
/// Best Fit.
struct LaneGrid {
    w: usize,
    /// `busy[dir][segment][lane]`.
    busy: [Vec<Vec<bool>>; 2],
    /// `load[dir][lane]` = segments where the lane is busy.
    load: [Vec<usize>; 2],
    down: Vec<bool>,
}

impl LaneGrid {
    fn new(n: usize, w: usize) -> Self {
        let grid = || vec![vec![false; w]; n];
        Self {
            w,
            busy: [grid(), grid()],
            load: [vec![0; w], vec![0; w]],
            down: vec![false; w],
        }
    }

    fn dir(path: &LightPath) -> usize {
        usize::from(path.direction == Direction::CounterClockwise)
    }

    fn is_free(&self, path: &LightPath, lane: usize) -> bool {
        let d = Self::dir(path);
        !self.down[lane] && path.segments.iter().all(|&s| !self.busy[d][s][lane])
    }

    fn set(&mut self, path: &LightPath, lane: usize, busy: bool) {
        let d = Self::dir(path);
        for &s in &path.segments {
            self.busy[d][s][lane] = busy;
        }
        if busy {
            self.load[d][lane] += path.hops();
        } else {
            self.load[d][lane] -= path.hops();
        }
    }

    fn assign(
        &mut self,
        path: &LightPath,
        lanes: usize,
        strategy: Rwa,
    ) -> Result<Vec<Wavelength>, OpticalError> {
        if lanes == 0 {
            return Err(OpticalError::ZeroLanes);
        }
        let mut order: Vec<usize> = (0..self.w).collect();
        if strategy == Rwa::BestFit {
            let load = &self.load[Self::dir(path)];
            order.sort_by(|&a, &b| load[b].cmp(&load[a]).then(a.cmp(&b)));
        }
        let picked: Vec<usize> = order
            .into_iter()
            .filter(|&l| self.is_free(path, l))
            .take(lanes)
            .collect();
        if picked.len() < lanes {
            return Err(OpticalError::WavelengthsExhausted {
                available: self.w,
                requested: lanes,
                step: 0,
            });
        }
        for &l in &picked {
            self.set(path, l, true);
        }
        Ok(picked.into_iter().map(Wavelength).collect())
    }

    fn peak(&self) -> usize {
        (0..self.w)
            .filter(|&l| self.load[0][l] + self.load[1][l] > 0)
            .map(|l| l + 1)
            .max()
            .unwrap_or(0)
    }
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::Clockwise),
        Just(Direction::CounterClockwise)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hops_inverse_of_step_from(n in 2usize..64, a in 0usize..64, k in 0usize..64) {
        let a = a % n;
        let t = RingTopology::new(n);
        for dir in Direction::BOTH {
            let b = t.step_from(NodeId(a), k, dir);
            prop_assert_eq!(t.hops(NodeId(a), b, dir), k % n);
        }
    }

    #[test]
    fn shortest_direction_minimizes_hops(n in 2usize..64, a in 0usize..64, b in 0usize..64) {
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let t = RingTopology::new(n);
        let dir = t.shortest_direction(NodeId(a), NodeId(b));
        let chosen = t.hops(NodeId(a), NodeId(b), dir);
        let other = t.hops(NodeId(a), NodeId(b), dir.opposite());
        prop_assert!(chosen <= other);
        prop_assert_eq!(chosen, t.min_hops(NodeId(a), NodeId(b)));
    }

    /// Any batch the RWA accepts is conflict-free, under both strategies.
    #[test]
    fn rwa_assignments_are_conflict_free(
        n in 4usize..48,
        w in 1usize..32,
        seed in proptest::collection::vec((0usize..48, 0usize..48, arb_direction(), 1usize..4), 1..20),
        best_fit in proptest::bool::ANY,
    ) {
        let t = RingTopology::new(n);
        let mut occ = Occupancy::new(n, w);
        let strategy = if best_fit { Rwa::BestFit } else { Rwa::FirstFit };
        let mut placed_paths = Vec::new();
        let mut placed_lanes = Vec::new();
        for (a, b, dir, lanes) in seed {
            let (a, b) = (a % n, b % n);
            if a == b { continue; }
            let path = LightPath::routed(&t, NodeId(a), NodeId(b), dir);
            if let Ok(lambdas) = occ.assign(&path, lanes, strategy) {
                prop_assert_eq!(lambdas.len(), lanes);
                placed_paths.push(path);
                placed_lanes.push(lambdas);
            }
        }
        prop_assert!(validate_assignment(&placed_paths, &placed_lanes));
    }

    /// The greedy colouring bound is sandwiched between the congestion
    /// lower bound and what sequential First-Fit actually consumes.
    #[test]
    fn wavelength_bounds_are_ordered(
        n in 8usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 1..15),
    ) {
        let t = RingTopology::new(n);
        let batch: Vec<(LightPath, usize)> = pairs
            .into_iter()
            .filter_map(|(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| (LightPath::shortest(&t, NodeId(a), NodeId(b)), 1))
            })
            .collect();
        prop_assume!(!batch.is_empty());
        let lower = congestion_lower_bound(&batch);
        let greedy = greedy_wavelength_bound(&batch);
        prop_assert!(greedy >= lower);
        // Sequential First-Fit over a generous budget.
        let mut occ = Occupancy::new(n, batch.len() + 1);
        for (p, lanes) in &batch {
            occ.assign(p, *lanes, Rwa::FirstFit).unwrap();
        }
        prop_assert!(occ.peak_wavelengths_used() >= lower);
    }

    /// Stepped simulation time equals the max transfer time per step,
    /// summed — and never depends on transfer order within a step.
    #[test]
    fn stepped_time_is_order_invariant(
        n in 4usize..32,
        mut pairs in proptest::collection::vec((0usize..32, 0usize..32, 1u64..1_000_000), 2..10),
    ) {
        let cfg = OpticalConfig::new(n, 64);
        let make = |pairs: &[(usize, usize, u64)]| {
            let step: Vec<Transfer> = pairs
                .iter()
                .filter_map(|&(a, b, bytes)| {
                    let (a, b) = (a % n, b % n);
                    (a != b).then(|| Transfer::shortest(NodeId(a), NodeId(b), bytes))
                })
                .collect();
            StepSchedule::from_steps(vec![step])
        };
        let fwd = make(&pairs);
        prop_assume!(fwd.transfer_count() > 0);
        pairs.reverse();
        let rev = make(&pairs);
        let mut sim = RingSimulator::new(cfg);
        let t1 = sim.run_stepped(&fwd, Rwa::FirstFit);
        let t2 = sim.run_stepped(&rev, Rwa::FirstFit);
        match (t1, t2) {
            (Ok(a), Ok(b)) => prop_assert!((a.total_time_s - b.total_time_s).abs() < 1e-15),
            // Order can affect feasibility only through identical budgets;
            // with w=64 and <=10 unit-lane transfers it never fails.
            _ => prop_assert!(false, "unexpected infeasibility"),
        }
    }

    /// Event-driven makespan is bounded below by the longest single
    /// transfer and above by the serial sum.
    #[test]
    fn event_driven_makespan_bounds(
        n in 4usize..24,
        pairs in proptest::collection::vec((0usize..24, 0usize..24, 1u64..500_000), 1..8),
    ) {
        let cfg = OpticalConfig::new(n, 2)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0);
        let timing = cfg.timing();
        let released: Vec<(f64, Transfer)> = pairs
            .iter()
            .filter_map(|&(a, b, bytes)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| (0.0, Transfer::shortest(NodeId(a), NodeId(b), bytes)))
            })
            .collect();
        prop_assume!(!released.is_empty());
        let topo = RingTopology::new(n);
        let times: Vec<f64> = released
            .iter()
            .map(|(_, tr)| {
                let hops = topo.min_hops(tr.src, tr.dst);
                timing.transfer_time(tr.bytes, 1, hops)
            })
            .collect();
        let longest = times.iter().copied().fold(0.0, f64::max);
        let serial: f64 = times.iter().sum();
        let mut sim = RingSimulator::new(cfg);
        let r = sim.run_event_driven(&released).unwrap();
        prop_assert!(r.makespan_s >= longest - 1e-12);
        prop_assert!(r.makespan_s <= serial + 1e-12);
    }

    /// The lane-mask occupancy picks the same lanes as the per-lane
    /// reference, or fails with the same error, through random occupy,
    /// release and lane-down sequences. Lane counts straddle the 64-bit
    /// word boundary, arcs wrap in both directions, and demands run from
    /// one lane to one more than the ring has.
    #[test]
    fn lane_masks_match_the_per_lane_reference(
        n in 2usize..40,
        w in prop_oneof![Just(1usize), Just(63usize), Just(64usize), Just(65usize), Just(130usize)],
        ops in proptest::collection::vec(
            (0usize..10, 0usize..40, 0usize..40, arb_direction(), 0usize..1000, proptest::bool::ANY),
            1..60,
        ),
    ) {
        let t = RingTopology::new(n);
        let mut occ = Occupancy::new(n, w);
        let mut grid = LaneGrid::new(n, w);
        let mut held: Vec<(LightPath, Vec<Wavelength>)> = Vec::new();
        for (kind, a, b, dir, x, best_fit) in ops {
            let (a, b) = (a % n, (a + 1 + b % (n - 1)) % n);
            let path = LightPath::routed(&t, NodeId(a), NodeId(b), dir);
            match kind {
                0..=5 => {
                    let lanes = 1 + x % (w + 1);
                    let strategy = if best_fit { Rwa::BestFit } else { Rwa::FirstFit };
                    let got = occ.assign(&path, lanes, strategy);
                    prop_assert_eq!(&got, &grid.assign(&path, lanes, strategy));
                    if let Ok(lambdas) = got {
                        held.push((path.clone(), lambdas));
                    }
                }
                6 | 7 => {
                    if !held.is_empty() {
                        let (p, lambdas) = held.swap_remove(x % held.len());
                        for l in lambdas {
                            occ.release(&p, l);
                            grid.set(&p, l.0, false);
                        }
                    }
                }
                _ => {
                    let lane = Wavelength(x % w);
                    if kind == 8 {
                        occ.set_lane_down(lane);
                    } else {
                        occ.set_lane_up(lane);
                    }
                    grid.down[lane.0] = kind == 8;
                }
            }
            for l in 0..w {
                prop_assert_eq!(occ.is_free(&path, Wavelength(l)), grid.is_free(&path, l));
                prop_assert_eq!(occ.is_lane_down(Wavelength(l)), grid.down[l]);
            }
            prop_assert_eq!(occ.peak_wavelengths_used(), grid.peak());
        }
    }
}
