//! Binomial-tree all-reduce: reduce to a root, then broadcast.
//!
//! The electrical ancestor of Wrht's hierarchical tree — `⌈log2 n⌉` rounds
//! of pairwise reduction followed by the mirror broadcast. Works for any
//! `n`, any root-free node count (root is node 0).

use crate::collective::Collective;
use crate::schedule::{Op, Schedule, TransferSpec};

/// Build a binomial-tree all-reduce (root at node 0): every step of
/// [`Collective::Tree`], collected.
#[must_use]
pub fn binomial_tree(n: usize, elems: usize) -> Schedule {
    Collective::Tree.schedule(n, elems)
}

/// Number of steps over `n` nodes: `2 ⌈log2 n⌉`, or 0 when `n < 2`. Every
/// round has work when `n >= 2`.
pub(crate) fn steps(n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    2 * (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Emit step `k` (`< steps(n)`): reduce rounds, then their mirror image.
pub(crate) fn step(n: usize, elems: usize, k: usize, mut emit: impl FnMut(TransferSpec)) {
    let rounds = steps(n) / 2;
    if k < rounds {
        // Reduce: at round d, nodes that are odd multiples of 2^d send
        // their whole buffer to the even multiple 2^d below them.
        let dist = 1 << k;
        for j in (dist..n).step_by(2 * dist) {
            emit(TransferSpec::new(j, j - dist, 0..elems, Op::ReduceInto));
        }
    } else {
        // Broadcast: the reduce rounds in reverse, copying down the tree.
        let dist = 1 << (2 * rounds - 1 - k);
        for j in (0..n - dist).step_by(2 * dist) {
            emit(TransferSpec::new(j, j + dist, 0..elems, Op::Copy));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::verify_allreduce;

    #[test]
    fn correct_for_many_sizes() {
        for n in 1..=17 {
            verify_allreduce(&binomial_tree(n, 8)).unwrap();
        }
    }

    #[test]
    fn step_count_is_2_ceil_log2() {
        assert_eq!(binomial_tree(8, 4).step_count(), 6);
        assert_eq!(binomial_tree(2, 4).step_count(), 2);
        // Non-powers still have 2*ceil(log2 n) rounds with work in each.
        assert_eq!(binomial_tree(5, 4).step_count(), 6);
    }

    #[test]
    fn root_holds_sum_after_reduce_half() {
        let n = 8;
        let elems = 4;
        let sched = binomial_tree(n, elems);
        // Execute only the reduce half.
        let mut reduce_only = Schedule::new(n, elems, "half");
        for s in &sched.steps[..sched.step_count() / 2] {
            reduce_only.push_step(s.clone());
        }
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64; elems]).collect();
        let out = crate::executor::execute(&reduce_only, &inputs);
        let want = (0..n).map(|i| i as f64).sum::<f64>();
        assert_eq!(out[0], vec![want; elems]);
    }

    #[test]
    fn validates() {
        binomial_tree(12, 16).validate().unwrap();
    }
}
