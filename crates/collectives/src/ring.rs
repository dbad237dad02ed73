//! Bandwidth-optimal ring all-reduce (Patarasuk & Yuan, JPDC'09).
//!
//! The buffer is split into `n` chunks. A reduce-scatter phase of `n-1`
//! steps leaves node `i` with the fully reduced chunk `(i+1) mod n`; an
//! all-gather phase of another `n-1` steps circulates the reduced chunks.
//! Every step sends `S/n` elements to the clockwise neighbour — this is the
//! paper's **E-Ring** baseline on the electrical network and **O-Ring**
//! (one wavelength per step) on the optical ring.

use crate::chunks::chunk_range;
use crate::collective::Collective;
use crate::schedule::{Op, Schedule, TransferSpec};

/// Build the ring all-reduce schedule for `n` nodes and `elems` elements:
/// every step of [`Collective::Ring`], collected.
///
/// For `n == 1` the schedule is empty (a single node already holds the sum).
#[must_use]
pub fn ring_allreduce(n: usize, elems: usize) -> Schedule {
    Collective::Ring.schedule(n, elems)
}

/// Number of steps over `n` nodes: `2(n-1)`, or 0 when `n < 2`.
pub(crate) fn steps(n: usize) -> usize {
    2 * n.saturating_sub(1)
}

/// Emit step `k` (`< steps(n)`), transfer by transfer in node order.
/// Empty chunks (more nodes than elements) are skipped.
pub(crate) fn step(n: usize, elems: usize, k: usize, mut emit: impl FnMut(TransferSpec)) {
    // Reduce-scatter: at step k node i forwards chunk (i - k) mod n.
    // All-gather: at step n-1+j node i forwards chunk (i + 1 - j) mod n.
    let (shift, op) = if k < n - 1 {
        (n - k, Op::ReduceInto)
    } else {
        (n + 1 - (k - (n - 1)), Op::Copy)
    };
    for i in 0..n {
        let range = chunk_range(elems, n, (i + shift) % n);
        if range.is_empty() {
            continue; // More chunks than elements: some are empty.
        }
        emit(TransferSpec::new(i, (i + 1) % n, range, op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::verify_allreduce;

    #[test]
    fn correct_for_small_n() {
        for n in 1..=9 {
            verify_allreduce(&ring_allreduce(n, 24)).unwrap();
        }
    }

    #[test]
    fn correct_when_elems_not_divisible() {
        verify_allreduce(&ring_allreduce(4, 10)).unwrap();
        verify_allreduce(&ring_allreduce(7, 5)).unwrap(); // chunks > elems for some
        verify_allreduce(&ring_allreduce(5, 1)).unwrap();
    }

    #[test]
    fn has_2n_minus_2_steps() {
        for n in 2..=8 {
            assert_eq!(ring_allreduce(n, 64).step_count(), 2 * (n - 1));
        }
        assert_eq!(ring_allreduce(1, 64).step_count(), 0);
    }

    #[test]
    fn moves_2_s_bytes_per_node_asymptotically() {
        let n = 8;
        let elems = 800;
        let sched = ring_allreduce(n, elems);
        // Total moved = 2(n-1) * n * (elems/n) = 2(n-1)*elems.
        assert_eq!(sched.total_elems_moved(), 2 * (n - 1) * elems);
        // Per-node per-step send is one chunk.
        assert_eq!(sched.max_send_per_node_per_step(), elems / n);
    }

    #[test]
    fn all_transfers_are_neighbor_hops() {
        let n = 6;
        let sched = ring_allreduce(n, 60);
        for step in &sched.steps {
            for t in &step.transfers {
                assert_eq!(t.dst, (t.src + 1) % n);
            }
        }
    }

    #[test]
    fn validates() {
        ring_allreduce(16, 128).validate().unwrap();
    }
}
