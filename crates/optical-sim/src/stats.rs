//! Aggregated statistics produced by simulation runs.

use serde::{Deserialize, Serialize};

/// Statistics for one executed communication step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepStats {
    /// Index of the step in the schedule.
    pub index: usize,
    /// Number of transfers in the step.
    pub transfers: usize,
    /// Wall-clock duration of the step, seconds.
    pub duration_s: f64,
    /// Bytes moved in the step (sum over transfers).
    pub bytes: u64,
    /// Distinct wavelengths used anywhere during the step.
    pub wavelengths_used: usize,
    /// Highest wavelength index used + 1 (First-Fit footprint).
    pub peak_wavelength: usize,
    /// Total striping lanes summed over transfers.
    pub total_lanes: usize,
    /// Longest hop count among the step's paths.
    pub max_hops: usize,
}

/// Statistics for a whole schedule run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-step breakdown.
    pub steps: Vec<StepStats>,
}

impl RunStats {
    /// Total simulated time, seconds.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.steps.iter().fold(0.0, |total, s| total + s.duration_s)
    }

    /// Total bytes moved across all steps.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.bytes).sum()
    }

    /// Largest wavelength footprint over all steps.
    #[must_use]
    pub fn peak_wavelengths(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.peak_wavelength)
            .max()
            .unwrap_or(0)
    }

    /// Number of communication steps.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Mean effective goodput over the run, bytes/s (0 for empty runs).
    #[must_use]
    pub fn mean_goodput_bps(&self) -> f64 {
        let t = self.total_time_s();
        if t > 0.0 {
            self.total_bytes() as f64 / t
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(index: usize, duration_s: f64, bytes: u64, peak: usize) -> StepStats {
        StepStats {
            index,
            transfers: 1,
            duration_s,
            bytes,
            wavelengths_used: peak,
            peak_wavelength: peak,
            total_lanes: peak,
            max_hops: 1,
        }
    }

    #[test]
    fn aggregates() {
        let stats = RunStats {
            steps: vec![step(0, 1.0, 100, 2), step(1, 2.0, 300, 5)],
        };
        assert_eq!(stats.total_time_s(), 3.0);
        assert_eq!(stats.total_bytes(), 400);
        assert_eq!(stats.peak_wavelengths(), 5);
        assert_eq!(stats.step_count(), 2);
        assert!((stats.mean_goodput_bps() - 400.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero() {
        let stats = RunStats::default();
        assert_eq!(stats.total_time_s(), 0.0);
        assert_eq!(stats.mean_goodput_bps(), 0.0);
        assert_eq!(stats.peak_wavelengths(), 0);
    }
}
