//! Wrht deployment parameters.

use crate::plan::StopPolicy;
use serde::{Deserialize, Serialize};

/// How the group size `m` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupSize {
    /// Use a fixed `m`.
    Fixed(usize),
    /// Let [`crate::optimizer::choose_group_size`] pick the `m` minimizing
    /// predicted communication time.
    Auto,
}

/// Parameters of a Wrht all-reduce deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrhtParams {
    /// Number of ring nodes.
    pub n: usize,
    /// Wavelengths per waveguide.
    pub wavelengths: usize,
    /// Group-size policy.
    pub group_size: GroupSize,
    /// Recursion stop rule (paper default: earliest feasible all-to-all).
    pub stop_policy: StopPolicy,
}

impl WrhtParams {
    /// Fixed group size, paper stop rule.
    #[must_use]
    pub fn fixed(n: usize, wavelengths: usize, m: usize) -> Self {
        Self {
            n,
            wavelengths,
            group_size: GroupSize::Fixed(m),
            stop_policy: StopPolicy::EarliestFeasible,
        }
    }

    /// Optimizer-chosen group size, paper stop rule.
    #[must_use]
    pub fn auto(n: usize, wavelengths: usize) -> Self {
        Self {
            n,
            wavelengths,
            group_size: GroupSize::Auto,
            stop_policy: StopPolicy::EarliestFeasible,
        }
    }

    /// Override the stop policy (Wrht⁺ depth optimization), builder style.
    #[must_use]
    pub fn with_stop_policy(mut self, policy: StopPolicy) -> Self {
        self.stop_policy = policy;
        self
    }

    /// Largest group size whose tree step fits the wavelength budget:
    /// `⌊m/2⌋ <= w`, i.e. `m <= 2w + 1` (and never beyond `n`). The bound
    /// saturates, so a budget past `usize::MAX / 2` leaves `n` as the cap.
    #[must_use]
    pub fn max_group_size(&self) -> usize {
        self.wavelengths
            .saturating_mul(2)
            .saturating_add(1)
            .min(self.n.max(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_group_size_respects_wavelengths_and_n() {
        assert_eq!(WrhtParams::auto(1024, 4).max_group_size(), 9);
        assert_eq!(WrhtParams::auto(6, 64).max_group_size(), 6);
        assert_eq!(WrhtParams::auto(2, 1).max_group_size(), 2);
        // `2w + 1` would overflow.
        assert_eq!(WrhtParams::auto(8, usize::MAX / 2 + 1).max_group_size(), 8);
    }

    #[test]
    fn constructors() {
        assert_eq!(WrhtParams::fixed(8, 4, 3).group_size, GroupSize::Fixed(3));
        assert_eq!(WrhtParams::auto(8, 4).group_size, GroupSize::Auto);
        assert_eq!(
            WrhtParams::auto(8, 4).stop_policy,
            StopPolicy::EarliestFeasible
        );
        assert_eq!(
            WrhtParams::auto(8, 4)
                .with_stop_policy(StopPolicy::BestDepth)
                .stop_policy,
            StopPolicy::BestDepth
        );
    }
}
