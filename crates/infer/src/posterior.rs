//! Posterior summaries: per-dimension means, credible intervals, and
//! convergence diagnostics over a set of MCMC chains, plus helpers for
//! feeding posterior draws into downstream attacks.

use serde::{Deserialize, Serialize};
use xbar_stats::convergence::{multichain_ess, split_rhat};
use xbar_stats::descriptive::{quantile, RunningStats};

use crate::chain::ChainResult;
use crate::error::InferError;
use crate::Result;

/// The marginal posterior of one inferred dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimPosterior {
    /// The victim input-column index this dimension corresponds to.
    pub index: usize,
    /// Posterior mean.
    pub mean: f64,
    /// Posterior sample standard deviation.
    pub sd: f64,
    /// Posterior median.
    pub median: f64,
    /// Lower edge of the central credible interval.
    pub ci_lo: f64,
    /// Upper edge of the central credible interval.
    pub ci_hi: f64,
    /// Effective sample size pooled across chains.
    pub ess: f64,
    /// Split-R̂ potential scale reduction across chains.
    pub rhat: f64,
}

impl DimPosterior {
    /// Width of the credible interval.
    pub fn ci_width(&self) -> f64 {
        self.ci_hi - self.ci_lo
    }

    /// Whether `value` falls inside the credible interval (inclusive).
    pub fn covers(&self, value: f64) -> bool {
        value >= self.ci_lo && value <= self.ci_hi
    }
}

/// A full posterior report over every inferred dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosteriorReport {
    /// Credible-interval mass (e.g. `0.95`).
    pub level: f64,
    /// Number of chains summarised.
    pub chains: usize,
    /// Post-burn-in draws retained per chain.
    pub draws_per_chain: usize,
    /// Per-dimension marginals, in model-dimension order.
    pub dims: Vec<DimPosterior>,
    /// Worst split-R̂ across dimensions.
    pub max_rhat: f64,
    /// Smallest effective sample size across dimensions.
    pub min_ess: f64,
}

impl PosteriorReport {
    /// Posterior means in model-dimension order.
    pub fn mean_vector(&self) -> Vec<f64> {
        self.dims.iter().map(|d| d.mean).collect()
    }

    /// Fraction of dimensions whose credible interval covers the
    /// corresponding entry of `truth` (subset-ordered).
    ///
    /// # Errors
    ///
    /// [`InferError::DimensionMismatch`] when `truth` is not
    /// subset-shaped.
    pub fn coverage(&self, truth: &[f64]) -> Result<f64> {
        if truth.len() != self.dims.len() {
            return Err(InferError::DimensionMismatch {
                expected: self.dims.len(),
                got: truth.len(),
            });
        }
        let hits = self
            .dims
            .iter()
            .zip(truth)
            .filter(|(d, &t)| d.covers(t))
            .count();
        Ok(hits as f64 / self.dims.len() as f64)
    }

    /// Mean credible-interval width across dimensions — the scalar
    /// "posterior uncertainty" a query-budget sweep tracks.
    pub fn mean_ci_width(&self) -> f64 {
        let total: f64 = self.dims.iter().map(DimPosterior::ci_width).sum();
        total / self.dims.len() as f64
    }
}

/// Summarises multi-chain draws into per-dimension marginals with
/// convergence diagnostics.
///
/// `subset` maps model dimensions back to victim column indices (same
/// order and length as the model dimension); `level` is the central
/// credible mass in `(0, 1)`.
///
/// # Errors
///
/// * [`InferError::InvalidParameter`] for an out-of-range `level`,
///   no chains, or chains with no draws.
/// * [`InferError::DimensionMismatch`] when `subset` and the draw
///   dimension disagree, or chains disagree on draw counts.
/// * [`InferError::Stats`] when the diagnostics reject the draws
///   (e.g. too few samples for an autocorrelation estimate).
pub fn summarize(chains: &[ChainResult], subset: &[usize], level: f64) -> Result<PosteriorReport> {
    if !(level > 0.0 && level < 1.0) {
        return Err(InferError::InvalidParameter { name: "level" });
    }
    if chains.is_empty() {
        return Err(InferError::InvalidParameter { name: "chains" });
    }
    let draws_per_chain = chains[0].draws.len();
    if draws_per_chain == 0 {
        return Err(InferError::InvalidParameter { name: "chains" });
    }
    for c in chains {
        if c.draws.len() != draws_per_chain {
            return Err(InferError::DimensionMismatch {
                expected: draws_per_chain,
                got: c.draws.len(),
            });
        }
    }
    let dim = chains[0].draws[0].len();
    if subset.len() != dim {
        return Err(InferError::DimensionMismatch {
            expected: dim,
            got: subset.len(),
        });
    }

    let lo_q = (1.0 - level) / 2.0;
    let hi_q = 1.0 - lo_q;
    let mut dims = Vec::with_capacity(dim);
    for (d, &index) in subset.iter().enumerate() {
        let series: Vec<Vec<f64>> = chains.iter().map(|c| c.dim_series(d)).collect();
        let pooled: Vec<f64> = series.iter().flatten().copied().collect();
        let mut stats = RunningStats::new();
        for &x in &pooled {
            stats.push(x);
        }
        let rhat = if chains.len() >= 2 {
            split_rhat(&series)?
        } else {
            // A single chain carries no between-chain evidence; report
            // the neutral value rather than pretending otherwise.
            1.0
        };
        let ess = multichain_ess(&series)?;
        dims.push(DimPosterior {
            index,
            mean: stats.mean(),
            sd: stats.sample_std(),
            median: quantile(&pooled, 0.5)?,
            ci_lo: quantile(&pooled, lo_q)?,
            ci_hi: quantile(&pooled, hi_q)?,
            ess,
            rhat,
        });
    }

    let max_rhat = dims
        .iter()
        .map(|d| d.rhat)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_ess = dims.iter().map(|d| d.ess).fold(f64::INFINITY, f64::min);
    Ok(PosteriorReport {
        level,
        chains: chains.len(),
        draws_per_chain,
        dims,
        max_rhat,
        min_ess,
    })
}

/// Picks `count` draws evenly spaced across the pooled posterior (chain
/// by chain, in draw order) — a deterministic thinning used to
/// propagate posterior uncertainty through a downstream attack without
/// re-running it on every draw.
///
/// # Errors
///
/// [`InferError::InvalidParameter`] when `count` is zero or exceeds the
/// pooled draw count, or when there are no draws.
pub fn evenly_spaced_draws(chains: &[ChainResult], count: usize) -> Result<Vec<Vec<f64>>> {
    let total: usize = chains.iter().map(|c| c.draws.len()).sum();
    if count == 0 || count > total || total == 0 {
        return Err(InferError::InvalidParameter { name: "count" });
    }
    let pooled: Vec<&Vec<f64>> = chains.iter().flat_map(|c| c.draws.iter()).collect();
    // Even spacing via the midpoint rule so the first and last strides
    // are balanced and `count == total` returns every draw.
    Ok((0..count)
        .map(|i| pooled[(2 * i + 1) * total / (2 * count)].clone())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{run_chains, ChainConfig};
    use crate::mcmc::{BayesModel, Kernel, Prior};

    struct Toy {
        priors: Vec<Prior>,
        center: Vec<f64>,
        sigma: f64,
    }

    impl BayesModel for Toy {
        fn dim(&self) -> usize {
            self.priors.len()
        }
        fn priors(&self) -> &[Prior] {
            &self.priors
        }
        fn log_likelihood(&self, theta: &[f64]) -> f64 {
            let inv = 1.0 / (self.sigma * self.sigma);
            -0.5 * inv
                * theta
                    .iter()
                    .zip(&self.center)
                    .map(|(t, c)| (t - c) * (t - c))
                    .sum::<f64>()
        }
    }

    fn toy() -> Toy {
        Toy {
            priors: vec![Prior::normal(0.0, 2.0).unwrap(); 2],
            center: vec![1.0, -0.5],
            sigma: 0.4,
        }
    }

    fn sample(chains: usize, samples: usize) -> Vec<ChainResult> {
        run_chains(
            &toy(),
            &Kernel::EllipticalSlice,
            &ChainConfig::new(200, samples, 1).unwrap(),
            77,
            chains,
            1,
        )
        .unwrap()
    }

    #[test]
    fn report_tracks_the_known_posterior() {
        let chains = sample(4, 1500);
        let report = summarize(&chains, &[3, 9], 0.9).unwrap();
        assert_eq!(report.chains, 4);
        assert_eq!(report.draws_per_chain, 1500);
        assert_eq!(report.dims.len(), 2);
        assert_eq!(report.dims[0].index, 3);
        assert_eq!(report.dims[1].index, 9);
        // Conjugate posterior: mean = center * prior_var/(prior_var + sigma^2).
        let shrink = 4.0 / (4.0 + 0.16);
        for (d, c) in report.dims.iter().zip([1.0, -0.5]) {
            let want = c * shrink;
            assert!(
                (d.mean - want).abs() < 0.05,
                "dim {} mean {} vs {}",
                d.index,
                d.mean,
                want
            );
            assert!(d.ci_lo < d.mean && d.mean < d.ci_hi);
            assert!(d.ci_lo < d.median && d.median < d.ci_hi);
            assert!(d.covers(want));
            assert!(d.sd > 0.0 && d.ci_width() > 0.0);
            assert!(d.rhat < 1.05, "rhat {}", d.rhat);
            assert!(d.ess > 100.0, "ess {}", d.ess);
        }
        assert!(report.max_rhat >= report.dims[0].rhat);
        assert!(report.min_ess <= report.dims[0].ess);
        assert_eq!(report.mean_vector().len(), 2);
        assert!((report.coverage(&[shrink, -0.5 * shrink]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(report.coverage(&[100.0, -100.0]).unwrap(), 0.0);
        assert!(report.coverage(&[0.0]).is_err());
        assert!(report.mean_ci_width() > 0.0);
    }

    #[test]
    fn wider_level_gives_wider_intervals() {
        let chains = sample(2, 800);
        let narrow = summarize(&chains, &[0, 1], 0.5).unwrap();
        let wide = summarize(&chains, &[0, 1], 0.99).unwrap();
        for (n, w) in narrow.dims.iter().zip(&wide.dims) {
            assert!(w.ci_width() > n.ci_width());
        }
    }

    #[test]
    fn single_chain_reports_neutral_rhat() {
        let chains = sample(1, 400);
        let report = summarize(&chains, &[0, 1], 0.9).unwrap();
        for d in &report.dims {
            assert_eq!(d.rhat, 1.0);
        }
    }

    #[test]
    fn summarize_validates_inputs() {
        let chains = sample(2, 100);
        assert!(summarize(&chains, &[0, 1], 0.0).is_err());
        assert!(summarize(&chains, &[0, 1], 1.0).is_err());
        assert!(summarize(&[], &[0, 1], 0.9).is_err());
        assert!(matches!(
            summarize(&chains, &[0], 0.9),
            Err(InferError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn report_round_trips_through_json() {
        let chains = sample(2, 200);
        let report = summarize(&chains, &[5, 7], 0.95).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: PosteriorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn evenly_spaced_draws_are_deterministic_and_spread() {
        let chains = sample(2, 50);
        let picks = evenly_spaced_draws(&chains, 10).unwrap();
        assert_eq!(picks.len(), 10);
        assert_eq!(picks, evenly_spaced_draws(&chains, 10).unwrap());
        // count == total returns every draw in pooled order.
        let all = evenly_spaced_draws(&chains, 100).unwrap();
        assert_eq!(all.len(), 100);
        assert_eq!(all[0], chains[0].draws[0]);
        assert_eq!(all[99], chains[1].draws[49]);
        assert!(evenly_spaced_draws(&chains, 0).is_err());
        assert!(evenly_spaced_draws(&chains, 101).is_err());
    }
}
