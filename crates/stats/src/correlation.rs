//! Correlation coefficients.
//!
//! Table I of the paper reports two statistics over the
//! (sensitivity-magnitude, column-1-norm) pairs:
//!
//! * **mean correlation** — the Pearson correlation computed per input
//!   sample and then averaged over the dataset, and
//! * **correlation of the mean** — the Pearson correlation between the
//!   *mean* sensitivity map and the 1-norms.
//!
//! Both reduce to [`pearson`]; the experiment harness composes them.

use crate::{Result, StatsError};

/// Pearson product-moment correlation coefficient.
///
/// # Errors
///
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::TooFewSamples`] with fewer than two pairs.
/// * [`StatsError::ZeroVariance`] if either input is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            lhs: x.len(),
            rhs: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: x.len(),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Sample covariance (unbiased, n-1 denominator).
///
/// # Errors
///
/// Same conditions as [`pearson`] except constant inputs are allowed.
pub fn covariance(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            lhs: x.len(),
            rhs: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: x.len(),
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(&xi, &yi)| (xi - mx) * (yi - my))
        .sum();
    Ok(sxy / (n - 1.0))
}

/// Pearson correlation where pairs containing NaN are skipped; returns
/// `None` when fewer than two valid pairs remain or when a variance is zero.
///
/// This is the lenient variant the experiment harness uses when some
/// per-sample correlations are undefined (e.g. an all-zero sensitivity map).
pub fn pearson_lenient(x: &[f64], y: &[f64]) -> Option<f64> {
    let pairs: (Vec<f64>, Vec<f64>) = x
        .iter()
        .zip(y)
        .filter(|(a, b)| a.is_finite() && b.is_finite())
        .map(|(&a, &b)| (a, b))
        .unzip();
    pearson(&pairs.0, &pairs.1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_intermediate_value() {
        // Hand-computed example.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&x, &y).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "r = {r}");
    }

    #[test]
    fn invariance_under_affine_maps() {
        let x = [0.3, -1.2, 2.2, 0.0, 5.5];
        let y = [1.0, 0.0, 3.0, 1.5, 4.0];
        let r0 = pearson(&x, &y).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| 7.0 * v - 3.0).collect();
        let y2: Vec<f64> = y.iter().map(|v| 0.1 * v + 100.0).collect();
        let r1 = pearson(&x2, &y2).unwrap();
        assert!((r0 - r1).abs() < 1e-12);
    }

    #[test]
    fn bounded_by_one() {
        let x = [0.1, 0.9, 0.4, 0.7, 0.2, 0.6];
        let y = [5.0, 1.0, 3.0, 2.0, 4.0, 3.5];
        let r = pearson(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn error_conditions() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            pearson(&[1.0], &[1.0]),
            Err(StatsError::TooFewSamples { .. })
        ));
        assert!(matches!(
            pearson(&[1.0, 1.0], &[1.0, 2.0]),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn covariance_known() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!((covariance(&x, &y).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lenient_skips_nan() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [2.0, 5.0, 4.0, 6.0];
        let r = pearson_lenient(&x, &y).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert!(pearson_lenient(&[1.0, 1.0], &[1.0, 2.0]).is_none());
    }
}
