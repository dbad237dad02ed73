//! Data-plane property tests: every algorithm must compute the **exact**
//! element-wise sum — not merely look right on timing — for non-power-of-two
//! node counts and ragged chunk sizes (elems not divisible by n, fewer
//! elements than nodes, single elements).
//!
//! Every schedule builder collects its collective's step generator. The
//! recursive-doubling, halving-doubling and binomial-tree builders were
//! written as whole-schedule loops before they were; those loops are kept
//! here as the oracle each builder must equal, transfer for transfer.

use collectives::executor::{execute, verify_allreduce};
use collectives::halving_doubling::halving_doubling;
use collectives::rd::{pow2_floor, recursive_doubling};
use collectives::ring::ring_allreduce;
use collectives::tree::binomial_tree;
use collectives::{Collective, Op, Schedule, Step, TransferSpec};
use proptest::prelude::*;
use std::ops::Range;

type Builder = fn(usize, usize) -> Schedule;

/// Name, builder, the collective it collects, and the whole-schedule
/// oracle (the ring's builder has collected its generator all along).
const ALGORITHMS: [(&str, Builder, Collective, Option<Builder>); 4] = [
    ("ring", ring_allreduce as Builder, Collective::Ring, None),
    (
        "rd",
        recursive_doubling as Builder,
        Collective::RecursiveDoubling,
        Some(oracle_recursive_doubling as Builder),
    ),
    (
        "hd",
        halving_doubling as Builder,
        Collective::HalvingDoubling,
        Some(oracle_halving_doubling as Builder),
    ),
    (
        "tree",
        binomial_tree as Builder,
        Collective::Tree,
        Some(oracle_binomial_tree as Builder),
    ),
];

// ---- oracles: the whole-schedule builders -------------------------------

fn oracle_recursive_doubling(n: usize, elems: usize) -> Schedule {
    let mut sched = Schedule::new(n, elems, format!("recursive-doubling(n={n})"));
    if n < 2 {
        return sched;
    }
    let p = pow2_floor(n);
    let r = n - p;

    // Participant j (0..p) lives at this physical node.
    let node_of = |j: usize| if j < r { 2 * j } else { j + r };

    // Pre-combine: odd nodes of the first 2r hand their data to the even
    // node on their left, which becomes participant j = node/2.
    if r > 0 {
        let mut step = Step::default();
        for j in 0..r {
            step.transfers.push(TransferSpec::new(
                2 * j + 1,
                2 * j,
                0..elems,
                Op::ReduceInto,
            ));
        }
        sched.push_step(step);
    }

    // Core: pairwise full-buffer exchanges at doubling distances.
    let mut dist = 1;
    while dist < p {
        let mut step = Step::default();
        for j in 0..p {
            let partner = j ^ dist;
            step.transfers.push(TransferSpec::new(
                node_of(j),
                node_of(partner),
                0..elems,
                Op::ReduceInto,
            ));
        }
        sched.push_step(step);
        dist <<= 1;
    }

    // Post-copy to the parked odd nodes.
    if r > 0 {
        let mut step = Step::default();
        for j in 0..r {
            step.transfers
                .push(TransferSpec::new(2 * j, 2 * j + 1, 0..elems, Op::Copy));
        }
        sched.push_step(step);
    }
    sched
}

fn oracle_halving_doubling(n: usize, elems: usize) -> Schedule {
    let mut sched = Schedule::new(n, elems, format!("halving-doubling(n={n})"));
    if n < 2 {
        return sched;
    }
    let p = pow2_floor(n);
    let r = n - p;
    let node_of = |j: usize| if j < r { 2 * j } else { j + r };

    if r > 0 {
        let mut step = Step::default();
        for j in 0..r {
            step.transfers.push(TransferSpec::new(
                2 * j + 1,
                2 * j,
                0..elems,
                Op::ReduceInto,
            ));
        }
        sched.push_step(step);
    }

    // Recursive halving reduce-scatter. Every participant tracks the range
    // it is still responsible for; at distance `dist` it keeps the half
    // matching its `dist` bit and sends the other half.
    let mut ranges: Vec<Range<usize>> = vec![0..elems; p];
    let mut dist = p / 2;
    let mut halving_order = Vec::new(); // remember distances for the gather
    while dist >= 1 {
        let mut step = Step::default();
        #[allow(clippy::needless_range_loop)] // j is the participant id, not just an index
        for j in 0..p {
            let partner = j ^ dist;
            let my = ranges[j].clone();
            let mid = my.start + my.len() / 2;
            let (keep, send) = if j & dist == 0 {
                (my.start..mid, mid..my.end)
            } else {
                (mid..my.end, my.start..mid)
            };
            if !send.is_empty() {
                step.transfers.push(TransferSpec::new(
                    node_of(j),
                    node_of(partner),
                    send,
                    Op::ReduceInto,
                ));
            }
            ranges[j] = keep;
        }
        sched.push_step(step);
        halving_order.push(dist);
        dist /= 2;
    }

    // Recursive doubling all-gather: retrace distances in reverse, sending
    // the currently owned (fully reduced) range and merging with the
    // partner's adjacent range.
    for &dist in halving_order.iter().rev() {
        let mut step = Step::default();
        let snapshot = ranges.clone();
        #[allow(clippy::needless_range_loop)] // j is the participant id, not just an index
        for j in 0..p {
            let partner = j ^ dist;
            let send = snapshot[j].clone();
            if !send.is_empty() {
                step.transfers.push(TransferSpec::new(
                    node_of(j),
                    node_of(partner),
                    send,
                    Op::Copy,
                ));
            }
            let other = snapshot[partner].clone();
            ranges[j] = ranges[j].start.min(other.start)..ranges[j].end.max(other.end);
        }
        sched.push_step(step);
    }

    if r > 0 {
        let mut step = Step::default();
        for j in 0..r {
            step.transfers
                .push(TransferSpec::new(2 * j, 2 * j + 1, 0..elems, Op::Copy));
        }
        sched.push_step(step);
    }
    sched
}

fn oracle_binomial_tree(n: usize, elems: usize) -> Schedule {
    let mut sched = Schedule::new(n, elems, format!("binomial-tree(n={n})"));
    if n < 2 {
        return sched;
    }
    let rounds = usize::BITS as usize - (n - 1).leading_zeros() as usize; // ceil(log2 n)

    // Reduce: at round d, nodes that are odd multiples of 2^d send their
    // whole buffer to the even multiple 2^d below them.
    for d in 0..rounds {
        let dist = 1 << d;
        let mut step = Step::default();
        let mut j = dist;
        while j < n {
            if (j / dist) % 2 == 1 {
                step.transfers
                    .push(TransferSpec::new(j, j - dist, 0..elems, Op::ReduceInto));
            }
            j += dist;
        }
        if !step.transfers.is_empty() {
            sched.push_step(step);
        }
    }

    // Broadcast: mirror image.
    for d in (0..rounds).rev() {
        let dist = 1 << d;
        let mut step = Step::default();
        let mut j = 0;
        while j + dist < n {
            if (j / dist) % 2 == 0 {
                step.transfers
                    .push(TransferSpec::new(j, j + dist, 0..elems, Op::Copy));
            }
            j += dist;
        }
        if !step.transfers.is_empty() {
            sched.push_step(step);
        }
    }
    sched
}

/// Deterministic pseudo-random integral inputs: integers keep f64 addition
/// exact, so the expected sums can be compared bit-for-bit.
fn pseudo_random_inputs(n: usize, elems: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step, reduced to small exact integers.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 1_000
    };
    (0..n)
        .map(|_| (0..elems).map(|_| next() as f64).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every algorithm is a correct all-reduce for arbitrary (including
    /// non-power-of-two) node counts and ragged element counts. The
    /// verifier feeds distinguishable inputs, so duplicated as well as
    /// dropped contributions are caught.
    #[test]
    fn all_algorithms_compute_the_exact_sum(n in 1usize..40, elems in 1usize..120) {
        for (name, build, _, _) in ALGORITHMS {
            let sched = build(n, elems);
            if let Err(e) = verify_allreduce(&sched) {
                return Err(format!("{name}(n={n}, elems={elems}): {e}"));
            }
        }
    }

    /// Executing on pseudo-random integral buffers also yields the exact
    /// element-wise sum at every node — the data plane is correct for
    /// arbitrary values, not just the verifier's canonical pattern.
    #[test]
    fn random_integral_buffers_reduce_exactly(
        n in 1usize..24,
        elems in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let inputs = pseudo_random_inputs(n, elems, seed);
        let expected: Vec<f64> = (0..elems)
            .map(|i| inputs.iter().map(|buf| buf[i]).sum())
            .collect();
        for (name, build, _, _) in ALGORITHMS {
            let outputs = execute(&build(n, elems), &inputs);
            for (node, out) in outputs.iter().enumerate() {
                prop_assert_eq!(
                    out, &expected,
                    "{}(n={}, elems={}, seed={}): node {} diverges",
                    name, n, elems, seed, node
                );
            }
        }
    }

    /// Ragged extremes: more nodes than elements forces empty chunks in the
    /// chunked algorithms; they must still reduce exactly.
    #[test]
    fn more_nodes_than_elements_still_reduces(n in 2usize..48, elems in 1usize..8) {
        for (name, build, _, _) in ALGORITHMS {
            let sched = build(n, elems);
            if let Err(e) = verify_allreduce(&sched) {
                return Err(format!("{name}(n={n}, elems={elems}): {e}"));
            }
        }
    }

    /// Structural sanity rides along: every generated schedule validates
    /// (no write conflicts, in-range nodes and chunks), and its
    /// collective's `steps(n)` counts its steps.
    #[test]
    fn schedules_validate_structurally(n in 1usize..40, elems in 1usize..120) {
        for (name, build, collective, _) in ALGORITHMS {
            let sched = build(n, elems);
            if let Err(e) = sched.validate() {
                return Err(format!("{name}(n={n}, elems={elems}): {e}"));
            }
            prop_assert_eq!(collective.steps(n), sched.step_count(), "{}(n={})", name, n);
        }
    }

    /// Each builder equals its whole-schedule oracle (name, steps, every
    /// transfer) for node counts up to past 1024 and element counts around
    /// one per node, and `steps(n)` counts its steps. The ring, which has
    /// no other body, is counted in `schedules_validate_structurally`.
    #[test]
    fn builders_equal_their_whole_schedule_oracles(
        n in 1usize..1101,
        pick in 0usize..6,
        random in 0usize..5000,
    ) {
        let elems = [0, 1, n - 1, n, n + 1, random][pick];
        for (name, build, collective, oracle) in ALGORITHMS {
            let Some(oracle) = oracle else { continue };
            let sched = build(n, elems);
            prop_assert_eq!(
                collective.steps(n),
                sched.step_count(),
                "{}(n={}, elems={})", name, n, elems
            );
            prop_assert!(
                sched == oracle(n, elems),
                "{}(n={}, elems={}) differs from its oracle", name, n, elems
            );
        }
    }
}

/// Step `k` of `collective`, transfer by transfer.
fn collect_step(collective: Collective, n: usize, elems: usize, k: usize) -> Vec<TransferSpec> {
    let mut step = Vec::new();
    collective.step(n, elems, k, |t| step.push(t));
    step
}

/// A step's `(src, dst)` list and its sorted range lengths.
type Shape = (Vec<(usize, usize)>, Vec<usize>);

/// Range lengths in ascending order: equal for two steps exactly when one
/// permutes the other's.
fn sorted_lengths(step: &[TransferSpec]) -> Vec<usize> {
    let mut lengths: Vec<usize> = step.iter().map(|t| t.range.len()).collect();
    lengths.sort_unstable();
    lengths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A step a collective claims only permutes its predecessor
    /// (`permutes_previous`) sends the predecessor's `(src, dst)` list in
    /// the same order, with its range lengths permuted and none empty. The
    /// ring claims exactly its steps after the first once `elems ≥ n`; the
    /// other collectives claim none.
    #[test]
    fn permuting_steps_keep_their_predecessors_routes(
        n in 1usize..1101,
        pick in 0usize..6,
        random in 0usize..5000,
    ) {
        let elems = [0, 1, n - 1, n, n + 1, random][pick];
        for (name, _, collective, _) in ALGORITHMS {
            let mut prev: Option<Shape> = None;
            for k in 0..collective.steps(n) {
                let claimed = collective.permutes_previous(n, elems, k);
                let expected = collective == Collective::Ring && k >= 1 && elems >= n;
                prop_assert_eq!(claimed, expected, "{}(n={}, elems={}) step {}", name, n, elems, k);
                let step = collect_step(collective, n, elems, k);
                let routes: Vec<(usize, usize)> = step.iter().map(|t| (t.src, t.dst)).collect();
                let lengths = sorted_lengths(&step);
                if claimed {
                    let (prev_routes, prev_lengths) =
                        prev.as_ref().ok_or("a claimed step follows its predecessor")?;
                    prop_assert!(&routes == prev_routes, "{}(n={}, elems={}) step {} routes", name, n, elems, k);
                    prop_assert!(&lengths == prev_lengths, "{}(n={}, elems={}) step {} lengths", name, n, elems, k);
                    prop_assert!(lengths.first().is_none_or(|&l| l > 0), "{}(n={}, elems={}) step {} empty range", name, n, elems, k);
                }
                prev = Some((routes, lengths));
            }
        }
    }
}
