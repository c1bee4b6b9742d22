//! Descriptive statistics: means, variances, medians, quantiles, and a
//! numerically stable streaming accumulator.

use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] for an empty slice.
pub fn mean(x: &[f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(x.iter().sum::<f64>() / x.len() as f64)
}

/// Unbiased (n-1) sample variance.
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] for fewer than two samples.
pub fn variance(x: &[f64]) -> Result<f64> {
    if x.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: x.len(),
        });
    }
    let m = mean(x)?;
    let ss: f64 = x.iter().map(|&v| (v - m) * (v - m)).sum();
    Ok(ss / (x.len() - 1) as f64)
}

/// Median (average of the two central order statistics for even lengths).
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] for an empty slice.
pub fn median(x: &[f64]) -> Result<f64> {
    quantile(x, 0.5)
}

/// Linear-interpolation quantile, `q` in `[0, 1]`.
///
/// # Errors
///
/// * [`StatsError::TooFewSamples`] for an empty slice.
/// * [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]` or NaN.
pub fn quantile(x: &[f64], q: f64) -> Result<f64> {
    if x.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter { name: "q" });
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Minimum value (NaN entries are ignored).
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] for an empty slice.
pub fn min(x: &[f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(x.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum value (NaN entries are ignored).
///
/// # Errors
///
/// Returns [`StatsError::TooFewSamples`] for an empty slice.
pub fn max(x: &[f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(StatsError::TooFewSamples { needed: 1, got: 0 });
    }
    Ok(x.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Numerically stable streaming mean/variance accumulator (Welford's
/// algorithm).
///
/// # Example
///
/// ```
/// use xbar_stats::descriptive::RunningStats;
///
/// let mut rs = RunningStats::new();
/// for v in [1.0, 2.0, 3.0] {
///     rs.push(v);
/// }
/// assert_eq!(rs.count(), 3);
/// assert!((rs.mean() - 2.0).abs() < 1e-12);
/// assert!((rs.sample_variance() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations so far (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`0.0` with fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut rs = RunningStats::new();
        rs.extend(iter);
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn variance_known() {
        // Sample variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7.
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&x).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn quantile_endpoints_and_interp() {
        let x = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&x, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&x, 1.0).unwrap(), 40.0);
        assert!((quantile(&x, 0.25).unwrap() - 17.5).abs() < 1e-12);
        assert!(quantile(&x, 1.5).is_err());
        assert!(quantile(&x, f64::NAN).is_err());
    }

    #[test]
    fn min_max_known() {
        let x = [3.0, -1.0, 2.0];
        assert_eq!(min(&x).unwrap(), -1.0);
        assert_eq!(max(&x).unwrap(), 3.0);
    }

    #[test]
    fn running_stats_matches_batch() {
        let x = [1.5, -2.0, 3.25, 0.0, 7.0, -1.0];
        let rs: RunningStats = x.iter().copied().collect();
        assert_eq!(rs.count(), 6);
        assert!((rs.mean() - mean(&x).unwrap()).abs() < 1e-12);
        assert!((rs.sample_variance() - variance(&x).unwrap()).abs() < 1e-12);
        assert_eq!(rs.min(), -2.0);
        assert_eq!(rs.max(), 7.0);
    }

    #[test]
    fn running_stats_merge_matches_single_pass() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        let mut ra: RunningStats = a.iter().copied().collect();
        let rb: RunningStats = b.iter().copied().collect();
        ra.merge(&rb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let rall: RunningStats = all.iter().copied().collect();
        assert_eq!(ra.count(), rall.count());
        assert!((ra.mean() - rall.mean()).abs() < 1e-12);
        assert!((ra.sample_variance() - rall.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut empty = RunningStats::new();
        let full: RunningStats = [5.0, 6.0].iter().copied().collect();
        empty.merge(&full);
        assert_eq!(empty.count(), 2);
        let mut full2 = full;
        full2.merge(&RunningStats::new());
        assert_eq!(full2.count(), 2);
    }

    #[test]
    fn running_stats_numerical_stability() {
        // Large offset: naive sum-of-squares would lose precision.
        let offset = 1e9;
        let rs: RunningStats = [offset + 1.0, offset + 2.0, offset + 3.0]
            .iter()
            .copied()
            .collect();
        assert!((rs.sample_variance() - 1.0).abs() < 1e-6);
    }
}
