//! # xbar-stats
//!
//! Statistics substrate for the `xbar-power-attacks` workspace.
//!
//! Everything the paper's evaluation needs, implemented from scratch:
//!
//! * [`descriptive`] — means, variances, medians, quantiles, and
//!   numerically stable streaming moments ([`descriptive::RunningStats`]).
//! * [`correlation`] — Pearson correlation; used for Table I's
//!   sensitivity-vs-1-norm correlations.
//! * [`special`] — ln-gamma and the regularised incomplete beta; the
//!   machinery behind exact t-distribution p-values.
//! * [`ttest`] — Welch's and Student's t-tests with two-sided p-values;
//!   used for Figure 5's statistical-significance asterisks.
//! * [`aggregate`] — mean ± std aggregation across independent runs.
//! * [`convergence`] — MCMC effective sample size and split-R̂; gates the
//!   posterior chains of `xbar-infer`.
//!
//! # Example
//!
//! ```
//! use xbar_stats::correlation::pearson;
//!
//! let x = [1.0, 2.0, 3.0, 4.0];
//! let y = [2.0, 4.0, 6.0, 8.0];
//! assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aggregate;
pub mod convergence;
pub mod correlation;
pub mod descriptive;
pub mod special;
pub mod ttest;

use std::fmt;

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StatsError {
    /// The input slice was empty (or too short for the statistic).
    TooFewSamples {
        /// Samples required.
        needed: usize,
        /// Samples supplied.
        got: usize,
    },
    /// Two paired inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        lhs: usize,
        /// Length of the second input.
        rhs: usize,
    },
    /// The statistic is undefined because an input has zero variance.
    ZeroVariance,
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::TooFewSamples { needed, got } => {
                write!(f, "need at least {needed} samples, got {got}")
            }
            StatsError::LengthMismatch { lhs, rhs } => {
                write!(f, "paired inputs have different lengths: {lhs} vs {rhs}")
            }
            StatsError::ZeroVariance => write!(f, "statistic undefined for zero-variance input"),
            StatsError::InvalidParameter { name } => {
                write!(f, "parameter {name} is outside its valid domain")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(!StatsError::ZeroVariance.to_string().is_empty());
        assert!(StatsError::TooFewSamples { needed: 2, got: 0 }
            .to_string()
            .contains('2'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
