//! Student's and Welch's t-tests with exact two-sided p-values.
//!
//! The paper's Figure 5 marks attack-efficacy improvements with asterisks
//! when a Student's t-test over 10 independent runs yields `p < 0.05`;
//! [`welch_t_test`] (and [`student_t_test`] for the equal-variance form)
//! reproduce that machinery.

use crate::special::t_two_sided_p;
use crate::{Result, StatsError};
use serde::{Deserialize, Serialize};

/// The outcome of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TTestResult {
    /// The t statistic (positive when the first sample's mean is larger).
    pub t: f64,
    /// Degrees of freedom (fractional for Welch's test).
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Difference of means, `mean(a) - mean(b)`.
    pub mean_diff: f64,
}

fn mean_var(x: &[f64]) -> Result<(f64, f64)> {
    if x.len() < 2 {
        return Err(StatsError::TooFewSamples {
            needed: 2,
            got: x.len(),
        });
    }
    let n = x.len() as f64;
    let m = x.iter().sum::<f64>() / n;
    let v = x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / (n - 1.0);
    Ok((m, v))
}

/// Welch's unequal-variance two-sample t-test (two-sided).
///
/// This is the robust default for comparing attack-efficacy distributions
/// across independent runs, as in the paper's Fig. 5.
///
/// # Errors
///
/// * [`StatsError::TooFewSamples`] if either sample has fewer than two
///   observations.
/// * [`StatsError::ZeroVariance`] if both samples are exactly constant and
///   equal (the statistic is undefined); if they are constant but unequal
///   the test returns `p_value = 0.0`.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    let (ma, va) = mean_var(a)?;
    let (mb, vb) = mean_var(b)?;
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let se2 = va / na + vb / nb;
    let mean_diff = ma - mb;
    if se2 == 0.0 {
        if mean_diff == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        return Ok(TTestResult {
            t: f64::INFINITY * mean_diff.signum(),
            df: na + nb - 2.0,
            p_value: 0.0,
            mean_diff,
        });
    }
    let t = mean_diff / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    Ok(TTestResult {
        t,
        df,
        p_value: t_two_sided_p(t, df),
        mean_diff,
    })
}

/// Student's pooled-variance two-sample t-test (two-sided), assuming equal
/// variances.
///
/// # Errors
///
/// Same conditions as [`welch_t_test`].
pub fn student_t_test(a: &[f64], b: &[f64]) -> Result<TTestResult> {
    let (ma, va) = mean_var(a)?;
    let (mb, vb) = mean_var(b)?;
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let df = na + nb - 2.0;
    let pooled = ((na - 1.0) * va + (nb - 1.0) * vb) / df;
    let mean_diff = ma - mb;
    let se2 = pooled * (1.0 / na + 1.0 / nb);
    if se2 == 0.0 {
        if mean_diff == 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        return Ok(TTestResult {
            t: f64::INFINITY * mean_diff.signum(),
            df,
            p_value: 0.0,
            mean_diff,
        });
    }
    let t = mean_diff / se2.sqrt();
    Ok(TTestResult {
        t,
        df,
        p_value: t_two_sided_p(t, df),
        mean_diff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_p_near_one() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t).abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clearly_separated_samples_are_significant() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let b = [0.0, 0.1, -0.1, 0.05, -0.05];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6);
        assert!(r.mean_diff > 9.0);
    }

    #[test]
    fn welch_known_value() {
        // Hand-computed: a = [1..5] has mean 3, var 2.5; b = [2,3,4,5,7]
        // has mean 4.2, var 3.7; se² = (2.5 + 3.7)/5 = 1.24,
        // t = -1.2/√1.24 = -1.07763; two-sided p ≈ 0.31.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 3.0, 4.0, 5.0, 7.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t - (-1.07763)).abs() < 1e-4, "t = {}", r.t);
        assert!((0.30..0.33).contains(&r.p_value), "p = {}", r.p_value);
    }

    #[test]
    fn student_known_value() {
        // Same data: pooled var = (4·2.5 + 4·3.7)/8 = 3.1,
        // se² = 3.1·(1/5 + 1/5) = 1.24, t = -1.07763, df = 8.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 3.0, 4.0, 5.0, 7.0];
        let r = student_t_test(&a, &b).unwrap();
        assert!((r.df - 8.0).abs() < 1e-12);
        assert!((r.t - (-1.07763)).abs() < 1e-4);
        assert!((0.30..0.33).contains(&r.p_value), "p = {}", r.p_value);
    }

    #[test]
    fn welch_df_between_min_and_sum() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.0, 4.0, 9.0, 16.0, 25.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.df >= 3.0 && r.df <= 7.0, "df = {}", r.df);
    }

    #[test]
    fn error_conditions() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(matches!(
            welch_t_test(&[2.0, 2.0], &[2.0, 2.0]),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn constant_but_different_samples() {
        let r = welch_t_test(&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(r.p_value, 0.0);
        assert!(r.t.is_infinite() && r.t < 0.0);
    }

    #[test]
    fn symmetry_under_swap() {
        let a = [1.0, 3.0, 2.0, 5.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let r1 = welch_t_test(&a, &b).unwrap();
        let r2 = welch_t_test(&b, &a).unwrap();
        assert!((r1.t + r2.t).abs() < 1e-12);
        assert!((r1.p_value - r2.p_value).abs() < 1e-12);
    }
}
