//! The benchmark's own statistics: medians and quartiles over samples,
//! the tail-percentile rule, output digests and failure counting.

/// FNV-1a over `bytes`: the digest the output check compares (the same
/// function the campaign uses for its config hashes).
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the middle pair for even counts); 0 for
/// an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match the
/// ones computed from the printed values. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 1–99; 100 when the tail is the maximum.
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest whole percentile with at least ten samples strictly beyond
/// its nearest-rank position. With ten or fewer samples no percentile
/// qualifies and the tail is the maximum, reported as percentile 100.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    let last = *v.last()?;
    for pct in (1..=99u32).rev() {
        let rank = (u64::from(pct) * n as u64).div_ceil(100) as usize;
        if rank >= 1 && n - rank >= 10 {
            return Some(Tail {
                pct,
                value: v[rank - 1],
                samples: n,
            });
        }
    }
    Some(Tail {
        pct: 100,
        value: last,
        samples: n,
    })
}

/// Per-cell disagreement of `now` with `reference` (stored digests, or the
/// same cells of an earlier run). Of a different length, every cell of
/// `now` disagrees: the workload no longer has the reference's shape.
#[must_use]
pub fn mismatches<T: PartialEq>(now: &[T], reference: &[T]) -> Vec<bool> {
    if now.len() != reference.len() {
        return vec![true; now.len()];
    }
    now.iter().zip(reference).map(|(a, b)| a != b).collect()
}

/// How many flags are set.
#[must_use]
pub fn count(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}

/// Failed over attempted; 0 when nothing was attempted.
#[must_use]
pub fn fail_share(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Metric names: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_states_the_count() {
        // 189 cells (the fig2 sweep): p94 leaves 11 beyond, p95 only 9.
        let s: Vec<f64> = (1..=189).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (94, 178.0, 189));
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 11);
        // 36 cells (serve): p72 leaves exactly ten beyond.
        let s: Vec<f64> = (1..=36).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!((t.pct, t.value), (72, 26.0));
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), 10);
        // 144 cells (wrht-scale): p93.
        let s: Vec<f64> = (1..=144).map(f64::from).collect();
        assert_eq!(tail(&s).unwrap().pct, 93);
        // Ten or fewer samples: no percentile qualifies, report the max.
        let t = tail(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (100, 9.0, 3));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn an_injected_digest_mismatch_counts_as_one_failed_cell() {
        let cells: Vec<String> = (0..5).map(|i| format!("{{\"cell\":{i}}}")).collect();
        let reference: Vec<u64> = cells.iter().map(|c| digest(c.as_bytes())).collect();
        let mut now = reference.clone();
        assert_eq!(count(&mismatches(&now, &reference)), 0);
        now[3] ^= 1;
        let flags = mismatches(&now, &reference);
        assert_eq!(flags, [false, false, false, true, false]);
        assert_eq!(fail_share(count(&flags), now.len()), 0.2);
        // Run-to-run byte identity uses the same rule on the rows.
        let mut rerun = cells.clone();
        assert_eq!(count(&mismatches(&rerun, &cells)), 0);
        rerun[0].push(' ');
        assert_eq!(count(&mismatches(&rerun, &cells)), 1);
        // A reference of another shape fails every cell.
        assert_eq!(count(&mismatches(&now[..4], &reference)), 4);
        assert_eq!(fail_share(0, 0), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("wall_s"));
        assert!(valid_metric_name("electrical.dag.rate_recomputations"));
        assert!(valid_metric_name("kernel.events_per_s"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("busy s"));
        assert!(!valid_metric_name("a/b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
