//! Wavelength-contention studies on the event-driven engine.
//!
//! The stepped model (used by the paper) hides contention behind barriers;
//! the event-driven engine exposes it. This module generates synthetic
//! traffic — random permutations, uniform random pairs and incast — and
//! measures how First-Fit wavelength allocation behaves without step
//! barriers, plus how Wrht schedules behave when steps are released
//! without global synchronization.

use optical_sim::{NodeId, OpticalConfig, RingSimulator, Strategy, Transfer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use wrht_core::lower::to_optical_schedule;
use wrht_core::plan::WrhtPlan;

/// Synthetic traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// A random permutation: every node sends to a distinct target.
    Permutation,
    /// Uniform random (src, dst) pairs, possibly colliding.
    UniformRandom,
    /// Everyone sends to node 0.
    Incast,
}

/// Result of one contention run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Number of transfers.
    pub transfers: usize,
    /// Event-driven makespan, seconds.
    pub makespan_s: f64,
    /// Peak concurrent transfers achieved.
    pub peak_concurrency: usize,
    /// Lower bound: the longest single transfer, seconds.
    pub longest_transfer_s: f64,
}

/// Generate transfers of `bytes` each over `n` nodes.
///
/// The count contract is exact: [`Pattern::Permutation`] produces
/// `count.min(n)` transfers (a node sends at most once, and the shuffled
/// target map is repaired into a derangement so no slot is lost to a
/// self-send); [`Pattern::UniformRandom`] and [`Pattern::Incast`] produce
/// exactly `count` (incast saturates with round-robin repeat senders once
/// every other node already targets node 0). With `n < 2` no valid
/// transfer exists and the result is empty.
#[must_use]
pub fn generate_traffic(
    pattern: Pattern,
    n: usize,
    count: usize,
    bytes: u64,
    seed: u64,
) -> Vec<(f64, Transfer)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    if n < 2 {
        return out;
    }
    match pattern {
        Pattern::Permutation => {
            let mut targets: Vec<usize> = (0..n).collect();
            targets.shuffle(&mut rng);
            // Repair the shuffle into a derangement: swap fixed points
            // pairwise (two fixed points resolve each other); a leftover
            // odd one swaps with its neighbour, which cannot re-create a
            // fixed point because value `a` only ever sat at index `a`.
            let fixed: Vec<usize> = (0..n).filter(|&i| targets[i] == i).collect();
            let mut i = 0;
            while i + 1 < fixed.len() {
                targets.swap(fixed[i], fixed[i + 1]);
                i += 2;
            }
            if i < fixed.len() {
                let a = fixed[i];
                targets.swap(a, (a + 1) % n);
            }
            for (src, &dst) in targets.iter().enumerate().take(count.min(n)) {
                debug_assert_ne!(src, dst, "derangement repair left a self-send");
                out.push((0.0, Transfer::shortest(NodeId(src), NodeId(dst), bytes)));
            }
        }
        Pattern::UniformRandom => {
            while out.len() < count {
                let src = rng.random_range(0..n);
                let dst = rng.random_range(0..n);
                if src != dst {
                    out.push((0.0, Transfer::shortest(NodeId(src), NodeId(dst), bytes)));
                }
            }
        }
        Pattern::Incast => {
            for k in 0..count {
                let src = 1 + (k % (n - 1));
                out.push((0.0, Transfer::shortest(NodeId(src), NodeId(0), bytes)));
            }
        }
    }
    out
}

/// Run a traffic pattern through the event-driven engine.
pub fn run_contention(
    config: &OpticalConfig,
    pattern: Pattern,
    count: usize,
    bytes: u64,
    seed: u64,
) -> ContentionReport {
    let released = generate_traffic(pattern, config.nodes, count, bytes, seed);
    let timing = config.timing();
    let topo = optical_sim::RingTopology::new(config.nodes);
    let longest = released
        .iter()
        .map(|(_, t)| timing.transfer_time(t.bytes, t.lanes, topo.min_hops(t.src, t.dst)))
        .fold(0.0f64, f64::max);
    let mut sim = RingSimulator::new(config.clone());
    let report = sim
        .run_event_driven(&released)
        .expect("synthetic traffic is valid");
    ContentionReport {
        pattern,
        transfers: released.len(),
        makespan_s: report.makespan_s,
        peak_concurrency: report.peak_concurrency,
        longest_transfer_s: longest,
    }
}

/// Barrier-free Wrht: release every step's transfers the moment the
/// previous step *would* have finished under ideal timing, and let the
/// event engine resolve residual wavelength contention. Returns
/// `(stepped_s, event_driven_s)` — equal when barriers cost nothing.
pub fn wrht_barrier_sensitivity(config: &OpticalConfig, plan: &WrhtPlan, bytes: u64) -> (f64, f64) {
    let sched = to_optical_schedule(plan, bytes);
    // One fresh simulator per run: the two measurements must not share any
    // state, so neither call order nor earlier runs can bias the other.
    let stepped = RingSimulator::new(config.clone())
        .run_stepped(&sched, Strategy::FirstFit)
        .expect("plan fits by construction");
    let mut released = Vec::new();
    let mut t = 0.0;
    for (i, step) in sched.steps().iter().enumerate() {
        for tr in step {
            released.push((t, tr.clone()));
        }
        t += stepped.steps[i].duration_s;
    }
    let event = RingSimulator::new(config.clone())
        .run_event_driven(&released)
        .expect("released schedule is valid");
    (stepped.total_time_s, event.makespan_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrht_core::plan::build_plan;

    fn cfg(n: usize, w: usize) -> OpticalConfig {
        OpticalConfig::new(n, w)
            .with_message_overhead(0.0)
            .with_hop_propagation(0.0)
    }

    #[test]
    fn permutation_traffic_parallelizes_well() {
        let c = cfg(32, 8);
        let r = run_contention(&c, Pattern::Permutation, 32, 1 << 20, 7);
        assert!(r.transfers > 0);
        // A permutation on 8 wavelengths should overlap heavily.
        assert!(r.peak_concurrency > 1);
        assert!(r.makespan_s >= r.longest_transfer_s);
    }

    #[test]
    fn incast_serializes_on_the_receiver_arc() {
        let c = cfg(16, 1);
        let r = run_contention(&c, Pattern::Incast, 8, 1 << 20, 7);
        // One wavelength: neighbouring senders' nested paths serialize.
        assert_eq!(r.peak_concurrency, 2.min(r.transfers).max(1));
        assert!(r.makespan_s > r.longest_transfer_s);
    }

    /// Satellite regression: the shuffle used to drop self-send slots, so
    /// permutation traffic could silently return fewer transfers than
    /// requested. The repaired derangement must always deliver exactly
    /// `count.min(n)` transfers with no self-sends, for every seed.
    #[test]
    fn permutation_traffic_always_honours_the_requested_count() {
        for n in [2usize, 3, 5, 16, 33] {
            for seed in 0..50 {
                for count in [1usize, n / 2, n, 2 * n] {
                    let t = generate_traffic(Pattern::Permutation, n, count, 100, seed);
                    assert_eq!(t.len(), count.min(n), "n={n} seed={seed} count={count}");
                    assert!(t.iter().all(|(_, tr)| tr.src != tr.dst));
                    // Still a (partial) permutation: distinct targets.
                    let mut dsts: Vec<usize> = t.iter().map(|(_, tr)| tr.dst.0).collect();
                    dsts.sort_unstable();
                    dsts.dedup();
                    assert_eq!(dsts.len(), t.len(), "duplicate target");
                }
            }
        }
    }

    /// Satellite regression: incast used to truncate `count` to `n - 1`, so
    /// a sweep asking for 64 transfers on 16 nodes quietly measured 15.
    /// Round-robin repeat senders must saturate the requested count.
    #[test]
    fn incast_traffic_saturates_with_repeat_senders() {
        let t = generate_traffic(Pattern::Incast, 16, 64, 100, 7);
        assert_eq!(t.len(), 64);
        assert!(t.iter().all(|(_, tr)| tr.dst.0 == 0 && tr.src.0 != 0));
        // Round-robin: senders cycle 1..=15 evenly.
        let mut per_src = [0usize; 16];
        for (_, tr) in &t {
            per_src[tr.src.0] += 1;
        }
        assert!(per_src[1..].iter().all(|&c| c == 4 || c == 5));
        // The report reflects the full requested count too.
        let c = cfg(16, 4);
        let r = run_contention(&c, Pattern::Incast, 64, 1 << 16, 7);
        assert_eq!(r.transfers, 64);
    }

    #[test]
    fn every_pattern_reports_the_requested_transfer_count() {
        let c = cfg(16, 8);
        for pattern in [
            Pattern::Permutation,
            Pattern::UniformRandom,
            Pattern::Incast,
        ] {
            let r = run_contention(&c, pattern, 16, 1 << 16, 11);
            assert_eq!(r.transfers, 16, "{pattern:?}");
        }
        // Degenerate rings produce no traffic instead of looping/panicking.
        for pattern in [
            Pattern::Permutation,
            Pattern::UniformRandom,
            Pattern::Incast,
        ] {
            assert!(generate_traffic(pattern, 1, 4, 100, 0).is_empty());
        }
    }

    /// Satellite regression: the stepped and event-driven barrier runs now
    /// use one fresh simulator each; permuting the call order must be
    /// bit-identical.
    #[test]
    fn barrier_sensitivity_is_call_order_independent() {
        let n = 32;
        let c = cfg(n, 8);
        let plan = build_plan(n, 4, 8).unwrap();
        let bytes = 1 << 20;
        // Order 1: the production helper (stepped first, then event).
        let (stepped_a, event_a) = wrht_barrier_sensitivity(&c, &plan, bytes);
        // Order 2: event first on its own simulator, then stepped.
        let sched = to_optical_schedule(&plan, bytes);
        let reference = RingSimulator::new(c.clone())
            .run_stepped(&sched, Strategy::FirstFit)
            .unwrap();
        let mut released = Vec::new();
        let mut t = 0.0;
        for (i, step) in sched.steps().iter().enumerate() {
            for tr in step {
                released.push((t, tr.clone()));
            }
            t += reference.steps[i].duration_s;
        }
        let event_b = RingSimulator::new(c.clone())
            .run_event_driven(&released)
            .unwrap()
            .makespan_s;
        let stepped_b = RingSimulator::new(c.clone())
            .run_stepped(&sched, Strategy::FirstFit)
            .unwrap()
            .total_time_s;
        assert_eq!(stepped_a.to_bits(), stepped_b.to_bits());
        assert_eq!(event_a.to_bits(), event_b.to_bits());
    }

    #[test]
    fn traffic_generation_is_seed_deterministic() {
        let a = generate_traffic(Pattern::UniformRandom, 16, 20, 100, 42);
        let b = generate_traffic(Pattern::UniformRandom, 16, 20, 100, 42);
        assert_eq!(a, b);
        let c = generate_traffic(Pattern::UniformRandom, 16, 20, 100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn wrht_without_barriers_is_no_slower() {
        let n = 64;
        let w = 8;
        let c = cfg(n, w);
        let plan = build_plan(n, 4, w).unwrap();
        let (stepped, event) = wrht_barrier_sensitivity(&c, &plan, 4 << 20);
        // Released at the stepped boundaries, the event engine can only
        // match the stepped time (it cannot start earlier).
        assert!((event - stepped).abs() / stepped < 1e-9);
    }
}
