//! Aggregation of measurements across independent runs.
//!
//! The paper averages Table I over 5 runs and Fig. 5 over 10 runs with
//! shaded ±1-std error bars; [`RunSummary`] and [`summarize_runs`] are the
//! bookkeeping for that.

use crate::descriptive::RunningStats;
use serde::{Deserialize, Serialize};

/// Mean ± standard deviation of one measured quantity over independent runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Mean over runs.
    pub mean: f64,
    /// Unbiased standard deviation over runs (`0.0` for a single run).
    pub std: f64,
    /// Smallest run value.
    pub min: f64,
    /// Largest run value.
    pub max: f64,
}

impl RunSummary {
    /// Summarises a slice of per-run values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "RunSummary requires at least one run");
        let rs: RunningStats = values.iter().copied().collect();
        RunSummary {
            runs: values.len(),
            mean: rs.mean(),
            std: rs.sample_std(),
            min: rs.min(),
            max: rs.max(),
        }
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4} (n={})", self.mean, self.std, self.runs)
    }
}

/// Summarises a "matrix" of runs: `runs[r][i]` is the value of series
/// point `i` in run `r`. Returns one [`RunSummary`] per series point.
///
/// This is the exact shape of the paper's Fig. 4/Fig. 5 curves: each
/// series point (attack strength or query count) is averaged over runs.
///
/// # Panics
///
/// Panics if `runs` is empty or the rows have differing lengths.
pub fn summarize_runs(runs: &[Vec<f64>]) -> Vec<RunSummary> {
    assert!(!runs.is_empty(), "summarize_runs requires at least one run");
    let width = runs[0].len();
    for (r, row) in runs.iter().enumerate() {
        assert_eq!(row.len(), width, "run {r} has inconsistent length");
    }
    (0..width)
        .map(|i| {
            let vals: Vec<f64> = runs.iter().map(|row| row[i]).collect();
            RunSummary::from_values(&vals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_run_summary() {
        let s = RunSummary::from_values(&[0.8]);
        assert_eq!(s.runs, 1);
        assert_eq!(s.mean, 0.8);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 0.8);
        assert_eq!(s.max, 0.8);
    }

    #[test]
    fn multi_run_summary() {
        let s = RunSummary::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.runs, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn summarize_runs_per_point() {
        let runs = vec![vec![0.9, 0.5, 0.1], vec![0.7, 0.3, 0.1]];
        let s = summarize_runs(&runs);
        assert_eq!(s.len(), 3);
        assert!((s[0].mean - 0.8).abs() < 1e-12);
        assert!((s[1].mean - 0.4).abs() < 1e-12);
        assert_eq!(s[2].std, 0.0);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn ragged_runs_rejected() {
        let _ = summarize_runs(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn display_contains_mean_and_n() {
        let s = RunSummary::from_values(&[1.0, 1.0]);
        let txt = s.to_string();
        assert!(txt.contains("1.0000"));
        assert!(txt.contains("n=2"));
    }
}
