//! Recursive-doubling all-reduce — the paper's **RD** baseline.
//!
//! Latency-optimal: `log2(p)` rounds in which pairs at doubling distances
//! exchange and reduce their *entire* buffers. Non-power-of-two node counts
//! use the standard fixup (Thakur et al.): the first `2r` nodes pre-combine
//! pairwise so `p = 2^k` nodes run the core, and results are copied back to
//! the `r` parked nodes afterwards.

use crate::collective::Collective;
use crate::schedule::{Op, Schedule, TransferSpec};

/// Largest power of two `<= n` (n >= 1).
#[must_use]
pub fn pow2_floor(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Build the recursive-doubling all-reduce schedule: every step of
/// [`Collective::RecursiveDoubling`], collected.
#[must_use]
pub fn recursive_doubling(n: usize, elems: usize) -> Schedule {
    Collective::RecursiveDoubling.schedule(n, elems)
}

/// Number of steps over `n` nodes: `log2 p`, plus the two fixup steps
/// when `n` is not a power of two.
pub(crate) fn steps(n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let fixup = Fixup::new(n);
    fixup.steps(fixup.levels())
}

/// Emit step `k` (`< steps(n)`): pairwise full-buffer exchanges at
/// doubling distances, inside the fixup steps.
pub(crate) fn step(n: usize, elems: usize, k: usize, mut emit: impl FnMut(TransferSpec)) {
    let fixup = Fixup::new(n);
    let Some(core) = fixup.core_step(elems, fixup.levels(), k, &mut emit) else {
        return;
    };
    let dist = 1 << core;
    for j in 0..fixup.p {
        // Each ordered pair appears once per direction.
        emit(TransferSpec::new(
            fixup.node(j),
            fixup.node(j ^ dist),
            0..elems,
            Op::ReduceInto,
        ));
    }
}

/// The non-power-of-two fixup around a core of `p = pow2_floor(n)`
/// participants, shared with halving-doubling: the odd nodes of the first
/// `2r` (`r = n - p`) hand their data to the even node on their left
/// before the core and get the result back after it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fixup {
    /// Participants of the core.
    pub(crate) p: usize,
    /// Parked nodes.
    r: usize,
}

impl Fixup {
    pub(crate) fn new(n: usize) -> Self {
        let p = pow2_floor(n);
        Self { p, r: n - p }
    }

    /// `log2 p`.
    pub(crate) fn levels(self) -> usize {
        self.p.trailing_zeros() as usize
    }

    /// The physical node of participant `j`: even node `2j` for the first
    /// `r` participants, node `j + r` after them.
    pub(crate) fn node(self, j: usize) -> usize {
        if j < self.r {
            2 * j
        } else {
            j + self.r
        }
    }

    /// Steps of a collective whose core takes `core` steps.
    pub(crate) fn steps(self, core: usize) -> usize {
        core + if self.r > 0 { 2 } else { 0 }
    }

    /// Emit step `k` if it is the pre-combine or the post-copy around a
    /// core of `core` steps; otherwise return its index among the core's.
    pub(crate) fn core_step(
        self,
        elems: usize,
        core: usize,
        k: usize,
        emit: &mut impl FnMut(TransferSpec),
    ) -> Option<usize> {
        if self.r == 0 {
            return Some(k);
        }
        if k == 0 {
            for j in 0..self.r {
                emit(TransferSpec::new(
                    2 * j + 1,
                    2 * j,
                    0..elems,
                    Op::ReduceInto,
                ));
            }
        } else if k > core {
            for j in 0..self.r {
                emit(TransferSpec::new(2 * j, 2 * j + 1, 0..elems, Op::Copy));
            }
        } else {
            return Some(k - 1);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::verify_allreduce;

    #[test]
    fn pow2_floor_values() {
        assert_eq!(pow2_floor(1), 1);
        assert_eq!(pow2_floor(2), 2);
        assert_eq!(pow2_floor(3), 2);
        assert_eq!(pow2_floor(8), 8);
        assert_eq!(pow2_floor(1000), 512);
    }

    #[test]
    fn correct_for_powers_of_two() {
        for n in [2usize, 4, 8, 16, 32] {
            verify_allreduce(&recursive_doubling(n, 12)).unwrap();
        }
    }

    #[test]
    fn correct_for_non_powers_of_two() {
        for n in [3usize, 5, 6, 7, 9, 12, 13, 24, 31] {
            verify_allreduce(&recursive_doubling(n, 10)).unwrap();
        }
    }

    #[test]
    fn step_count_is_log_p_plus_fixup() {
        assert_eq!(recursive_doubling(8, 4).step_count(), 3);
        assert_eq!(recursive_doubling(16, 4).step_count(), 4);
        // n = 12: p = 8, r = 4 -> 3 + 2 steps.
        assert_eq!(recursive_doubling(12, 4).step_count(), 5);
        assert_eq!(recursive_doubling(1, 4).step_count(), 0);
    }

    #[test]
    fn every_core_step_sends_full_buffers() {
        let sched = recursive_doubling(8, 100);
        for step in &sched.steps {
            for t in &step.transfers {
                assert_eq!(t.range, 0..100);
            }
        }
        assert_eq!(sched.max_send_per_node_per_step(), 100);
    }

    #[test]
    fn validates() {
        recursive_doubling(13, 64).validate().unwrap();
    }

    #[test]
    fn trivial_single_node() {
        verify_allreduce(&recursive_doubling(1, 6)).unwrap();
    }
}
