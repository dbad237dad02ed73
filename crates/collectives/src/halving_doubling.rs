//! Rabenseifner's halving-doubling all-reduce.
//!
//! Recursive *halving* reduce-scatter (exchange shrinking halves at
//! shrinking distances) followed by recursive *doubling* all-gather.
//! Bandwidth-optimal like the ring but with only `2 log2 p` steps;
//! included as an extension baseline beyond the paper's E-Ring/RD pair.
//! Non-power-of-two counts use the same pre/post fixup as recursive
//! doubling.

use crate::collective::Collective;
use crate::rd::Fixup;
use crate::schedule::{Op, Schedule, TransferSpec};
use std::ops::Range;

/// Build the halving-doubling all-reduce schedule: every step of
/// [`Collective::HalvingDoubling`], collected.
#[must_use]
pub fn halving_doubling(n: usize, elems: usize) -> Schedule {
    Collective::HalvingDoubling.schedule(n, elems)
}

/// Number of steps over `n` nodes: `2 log2 p`, plus the two fixup steps
/// when `n` is not a power of two.
pub(crate) fn steps(n: usize) -> usize {
    if n < 2 {
        return 0;
    }
    let fixup = Fixup::new(n);
    fixup.steps(2 * fixup.levels())
}

/// Emit step `k` (`< steps(n)`). Halving step `t` exchanges at distance
/// `p >> (t + 1)`: each participant sends the half of its range that its
/// partner keeps. The gather retraces the distances in reverse: at
/// distance `p >> (t + 1)` each participant sends the range it held after
/// `t + 1` halvings, now fully reduced. Empty sends are skipped.
pub(crate) fn step(n: usize, elems: usize, k: usize, mut emit: impl FnMut(TransferSpec)) {
    let fixup = Fixup::new(n);
    let levels = fixup.levels();
    let Some(core) = fixup.core_step(elems, 2 * levels, k, &mut emit) else {
        return;
    };
    let (t, op) = if core < levels {
        (core, Op::ReduceInto)
    } else {
        (2 * levels - 1 - core, Op::Copy)
    };
    let dist = fixup.p >> (t + 1);
    for j in 0..fixup.p {
        let partner = j ^ dist;
        let owner = if op == Op::ReduceInto { partner } else { j };
        let send = held(elems, fixup.p, owner, t + 1);
        if !send.is_empty() {
            emit(TransferSpec::new(
                fixup.node(j),
                fixup.node(partner),
                send,
                op,
            ));
        }
    }
}

/// The range participant `j` of `p` holds after `t` halvings: `0..elems`
/// halved `t` times, keeping the lower half where its bit at distance
/// `p/2, p/4, …` is clear and the upper half where it is set.
fn held(elems: usize, p: usize, j: usize, t: usize) -> Range<usize> {
    (0..t).fold(0..elems, |range, s| {
        let mid = range.start + range.len() / 2;
        if j & (p >> (s + 1)) == 0 {
            range.start..mid
        } else {
            mid..range.end
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::verify_allreduce;

    #[test]
    fn correct_for_powers_of_two() {
        for n in [2usize, 4, 8, 16, 32] {
            verify_allreduce(&halving_doubling(n, 32)).unwrap();
        }
    }

    #[test]
    fn correct_for_non_powers_of_two() {
        for n in [3usize, 5, 6, 7, 11, 20] {
            verify_allreduce(&halving_doubling(n, 16)).unwrap();
        }
    }

    #[test]
    fn correct_with_odd_element_counts() {
        for elems in [1usize, 3, 7, 17, 33] {
            verify_allreduce(&halving_doubling(8, elems)).unwrap();
        }
    }

    #[test]
    fn step_count_is_2_log_p_plus_fixup() {
        assert_eq!(halving_doubling(8, 64).step_count(), 6);
        assert_eq!(halving_doubling(16, 64).step_count(), 8);
        assert_eq!(halving_doubling(12, 64).step_count(), 2 + 6);
    }

    #[test]
    fn moves_less_than_rd() {
        let hd = halving_doubling(16, 1600).total_elems_moved();
        let rd = crate::rd::recursive_doubling(16, 1600).total_elems_moved();
        assert!(
            hd < rd / 2,
            "halving-doubling should move far less: {hd} vs {rd}"
        );
    }

    #[test]
    fn validates() {
        halving_doubling(16, 100).validate().unwrap();
    }
}
