//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the driver computes over the
//! benchmark's outputs; using the same rule here makes `--repeat-check`'s
//! spreads comparable with the driver's.

/// Sorted copy of `v` (NaN-free input assumed: every sample is a measured
/// duration or a count).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

/// Exclusive-method quantile at `p` in (0, 1) over sorted data: position
/// `p * (n + 1)` on a 1-based scale, linearly interpolated, clamped to the
/// extremes.
fn quantile_sorted(s: &[f64], p: f64) -> f64 {
    let n = s.len();
    if n == 1 {
        return s[0];
    }
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    s[lo - 1] + (s[lo] - s[lo - 1]) * frac
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` of a non-empty sample.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty sample");
    let s = sorted(v);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of a non-empty sample.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let s = sorted(v);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` — a percentile resting on fewer
/// is one outlier, not a tail. `None` below 20 samples (even the median
/// would not qualify).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per-mille integers: `100.0 * (1.0 - 0.9)` is 9.999… in floating point.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|permille| n * (1000 - permille) / 1000 >= 10)
        .map(|permille| permille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] clamps to
        // the extremes here: a timing cannot be below the fastest sample.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 380.0); // 20 samples beyond
        assert_eq!(percentile(&v, 50.0), 200.0);
        assert_eq!(percentile(&v, 100.0), 400.0);
        assert_eq!(percentile(&[9.0], 0.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(400), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(36_000), Some(99.9));
    }
}
