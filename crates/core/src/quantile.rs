//! Streaming quantile estimation (the P² algorithm).
//!
//! The open-loop stream engine ([`crate::stream`]) must report slowdown
//! percentiles over runs with millions of arrivals without materializing
//! per-job reports, so quantiles are estimated online with Jain & Chlamtac's
//! **P² algorithm**: five markers track the running min, max, the target
//! quantile and its two flanking quantiles, adjusted with a piecewise
//! parabolic fit on every observation — O(1) memory, O(1) per observation.
//!
//! Until five observations arrive the estimator is *exact* (it holds the
//! sorted sample); afterwards accuracy is the classic P² trade-off, easily
//! sufficient for p50/p99/p999 of slowdown distributions. Estimates are
//! insertion-order-sensitive (like upstream P² implementations), so callers
//! that need reproducible values must feed observations in a deterministic
//! order — everything in this workspace does.
//!
//! The closed-set tenancy report reuses the same estimator
//! ([`crate::tenancy::cluster_report`] feeds per-job slowdowns in job-index
//! order), so closed and streaming percentiles are computed by one code
//! path.
//!
//! ```
//! use wrht_core::quantile::P2Quantile;
//!
//! let mut q = P2Quantile::new(0.5);
//! for i in 1..=1000 {
//!     q.observe(f64::from(i));
//! }
//! let p50 = q.value();
//! assert!((p50 - 500.0).abs() < 20.0, "p50={p50}");
//! ```

use serde::{Deserialize, Serialize};

/// Streaming estimator of a single quantile (P² algorithm).
///
/// State is five marker heights plus five marker positions — fully
/// serializable, so a checkpointed stream resumes its percentile estimates
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    /// Target quantile in `(0, 1)`.
    q: f64,
    /// Observations seen so far.
    n: u64,
    /// Marker heights; the first `min(n, 5)` entries are meaningful, kept
    /// sorted while `n <= 5`.
    heights: [f64; 5],
    /// Actual marker positions (1-based observation counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
}

impl P2Quantile {
    /// Estimator for quantile `q` (clamped into `[0, 1]`).
    #[must_use]
    pub fn new(q: f64) -> Self {
        let q = q.clamp(0.0, 1.0);
        Self {
            q,
            n: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
        }
    }

    /// Observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Feed one observation. Non-finite observations are ignored (they
    /// would poison every marker).
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.n < 5 {
            // Exact phase: insert into the sorted prefix.
            let mut i = self.n as usize;
            self.heights[i] = x;
            while i > 0 && self.heights[i - 1] > self.heights[i] {
                self.heights.swap(i - 1, i);
                i -= 1;
            }
            self.n += 1;
            return;
        }

        // Find the marker cell containing x, extending the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // heights[k] <= x < heights[k + 1]
            let mut k = 0;
            while x >= self.heights[k + 1] {
                k += 1;
            }
            k
        };
        self.n += 1;

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        let inc = [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0];
        for (d, step) in self.desired.iter_mut().zip(inc) {
            *d += step;
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (PP) height prediction for marker `i` moved by
    /// `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, p) = (&self.heights, &self.positions);
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabolic prediction is not monotone.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate: 0 before any observation, the exact
    /// sample quantile (nearest-rank) while `n <= 5`, the P² middle marker
    /// afterwards.
    #[must_use]
    pub fn value(&self) -> f64 {
        match self.n {
            0 => 0.0,
            n if n <= 5 => {
                // Nearest-rank on the sorted exact prefix.
                let rank = (self.q * n as f64).ceil().max(1.0) as usize;
                self.heights[rank.min(n as usize) - 1]
            }
            _ => self.heights[2],
        }
    }
}

/// The three percentile levels every report in this workspace exposes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Percentiles {
    /// All-zero percentiles (the empty-sample value).
    #[must_use]
    pub fn zero() -> Self {
        Self {
            p50: 0.0,
            p99: 0.0,
            p999: 0.0,
        }
    }
}

/// A bundle of P² estimators for p50 / p99 / p999 — the shared helper both
/// the closed [`crate::tenancy::ClusterReport`] and the streaming
/// [`crate::stream::StreamReport`] compute their percentiles with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PercentileSet {
    p50: P2Quantile,
    p99: P2Quantile,
    p999: P2Quantile,
}

impl Default for PercentileSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PercentileSet {
    /// Fresh estimators.
    #[must_use]
    pub fn new() -> Self {
        Self {
            p50: P2Quantile::new(0.5),
            p99: P2Quantile::new(0.99),
            p999: P2Quantile::new(0.999),
        }
    }

    /// Feed one observation into all three estimators.
    pub fn observe(&mut self, x: f64) {
        self.p50.observe(x);
        self.p99.observe(x);
        self.p999.observe(x);
    }

    /// Observations seen so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.p50.count()
    }

    /// Current estimates.
    #[must_use]
    pub fn summary(&self) -> Percentiles {
        Percentiles {
            p50: self.p50.value(),
            p99: self.p99.value(),
            p999: self.p999.value(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Exact nearest-rank percentiles of a small sample: the reference for
    /// the streaming estimator (here and in the tenancy tests), total on
    /// empty input.
    pub(crate) fn exact_percentiles(values: &[f64]) -> Percentiles {
        if values.is_empty() {
            return Percentiles::zero();
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank.min(sorted.len()) - 1]
        };
        Percentiles {
            p50: pick(0.5),
            p99: pick(0.99),
            p999: pick(0.999),
        }
    }

    #[test]
    fn empty_estimator_reports_zero() {
        let q = P2Quantile::new(0.5);
        assert_eq!(q.value(), 0.0);
        assert_eq!(PercentileSet::new().summary(), Percentiles::zero());
    }

    #[test]
    fn small_samples_are_exact() {
        let mut q = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            q.observe(x);
        }
        assert_eq!(q.value(), 3.0);
        let mut q = P2Quantile::new(0.99);
        for x in [2.0, 4.0] {
            q.observe(x);
        }
        assert_eq!(q.value(), 4.0);
    }

    #[test]
    fn uniform_stream_percentiles_land_near_truth() {
        let mut set = PercentileSet::new();
        // Deterministic pseudo-uniform insertion order.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..100_000 {
            x = x.wrapping_mul(0xd129_0d3b_3249_01cb).wrapping_add(1);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            set.observe(u);
        }
        let p = set.summary();
        assert!((p.p50 - 0.5).abs() < 0.02, "p50={}", p.p50);
        assert!((p.p99 - 0.99).abs() < 0.01, "p99={}", p.p99);
        assert!((p.p999 - 0.999).abs() < 0.005, "p999={}", p.p999);
        assert_eq!(set.count(), 100_000);
    }

    #[test]
    fn sorted_and_constant_streams_are_handled() {
        let mut q = P2Quantile::new(0.9);
        for i in 0..1000 {
            q.observe(f64::from(i));
        }
        assert!((q.value() - 900.0).abs() < 30.0, "p90={}", q.value());
        let mut c = P2Quantile::new(0.5);
        for _ in 0..100 {
            c.observe(7.0);
        }
        assert_eq!(c.value(), 7.0);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut q = P2Quantile::new(0.5);
        q.observe(f64::NAN);
        q.observe(f64::INFINITY);
        q.observe(2.0);
        assert_eq!(q.count(), 1);
        assert_eq!(q.value(), 2.0);
    }

    #[test]
    fn estimator_state_round_trips_through_json() {
        let mut set = PercentileSet::new();
        for i in 0..50 {
            set.observe(f64::from(i) * 0.13);
        }
        let json = serde_json::to_string(&set).unwrap();
        let back: PercentileSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
        let a = serde_json::to_string(&back.summary()).unwrap();
        let b = serde_json::to_string(&set.summary()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_percentiles_match_nearest_rank() {
        let p = exact_percentiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p99, 4.0);
        assert_eq!(exact_percentiles(&[]), Percentiles::zero());
    }
}
