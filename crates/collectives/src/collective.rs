//! One step generator for every classic all-reduce.

use crate::schedule::{Schedule, Step, TransferSpec};
use crate::{halving_doubling, rd, ring, tree};

/// A classic all-reduce algorithm, written one step at a time.
///
/// Step `k` over `n` nodes and `elems` elements depends on nothing but
/// `(n, elems, k)`, so a simulator can generate the steps as it runs them
/// instead of holding the whole schedule; [`Collective::schedule`]
/// collects every step into a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Patarasuk–Yuan ring all-reduce ([`ring`]).
    Ring,
    /// Recursive doubling ([`rd`]).
    RecursiveDoubling,
    /// Rabenseifner halving-doubling ([`halving_doubling`]).
    HalvingDoubling,
    /// Binomial-tree reduce + broadcast ([`tree`]).
    Tree,
}

impl Collective {
    /// Number of steps over `n` nodes (0 when `n < 2`: a single node
    /// already holds the sum).
    #[must_use]
    pub fn steps(self, n: usize) -> usize {
        match self {
            Collective::Ring => ring::steps(n),
            Collective::RecursiveDoubling => rd::steps(n),
            Collective::HalvingDoubling => halving_doubling::steps(n),
            Collective::Tree => tree::steps(n),
        }
    }

    /// Emit step `k` (`< self.steps(n)`) over `n` nodes and `elems`
    /// elements, transfer by transfer, in the order the schedule lists them.
    pub fn step(self, n: usize, elems: usize, k: usize, emit: impl FnMut(TransferSpec)) {
        match self {
            Collective::Ring => ring::step(n, elems, k, emit),
            Collective::RecursiveDoubling => rd::step(n, elems, k, emit),
            Collective::HalvingDoubling => halving_doubling::step(n, elems, k, emit),
            Collective::Tree => tree::step(n, elems, k, emit),
        }
    }

    /// Does step `k` (`< self.steps(n)`) send what step `k − 1` sends,
    /// `(src, dst)` for `(src, dst)` in the same order, with only its range
    /// lengths permuted, none of them empty? The ring's steps after the
    /// first do once every chunk is non-empty (`elems ≥ n`): each node
    /// forwards another chunk to the same neighbour. Recursive doubling, halving-doubling and the
    /// tree change partners every step, and never do.
    #[must_use]
    pub fn permutes_previous(self, n: usize, elems: usize, k: usize) -> bool {
        match self {
            Collective::Ring => k >= 1 && elems >= n,
            Collective::RecursiveDoubling | Collective::HalvingDoubling | Collective::Tree => false,
        }
    }

    /// Every step collected into a [`Schedule`] named after the algorithm.
    #[must_use]
    pub fn schedule(self, n: usize, elems: usize) -> Schedule {
        let name = match self {
            Collective::Ring => "ring-allreduce",
            Collective::RecursiveDoubling => "recursive-doubling",
            Collective::HalvingDoubling => "halving-doubling",
            Collective::Tree => "binomial-tree",
        };
        let mut sched = Schedule::new(n, elems, format!("{name}(n={n})"));
        for k in 0..self.steps(n) {
            let mut step = Step::default();
            self.step(n, elems, k, |t| step.transfers.push(t));
            sched.push_step(step);
        }
        sched
    }
}
