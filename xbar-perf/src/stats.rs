//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves, never from the
//! service's log-bucket histogram: its ~19% buckets make a p99 jump
//! between neighbouring buckets from one run to the next.

/// Sorts a copy of `values` (total order, so NaN cannot panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The `p`-quantile (`p` in `[0, 1]`) by linear interpolation between
/// order statistics at rank `p·(n−1)` — the "inclusive" definition, so
/// `percentile(v, 0.5)` is the ordinary median.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let s = sorted(values);
    let h = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    s[lo] + (h - lo as f64) * (s[hi] - s[lo])
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so a spread printed
/// here matches one computed from the same values with that function.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let len = s.len();
    if len == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The interquartile range as a share of the median (0 when the
    /// median is 0).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 1.0 / 3.0), 2.0);
        assert!((percentile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn summary_reports_relative_spread() {
        let s = Summary::of(&[10.0, 10.0, 11.0, 9.0, 10.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 10.0);
        assert_eq!((s.min, s.max), (9.0, 11.0));
        assert!((s.rel_iqr() - (10.5 - 9.5) / 10.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).rel_iqr(), 0.0);
    }
}
