//! The closed-form posterior as the sampler's oracle.
//!
//! [`NormPosterior`] is linear-Gaussian: with priors `N(m_k, s_k²)` and
//! noise `σ`, its posterior is exactly Gaussian with precision
//! `Λ = diag(1/s²) + XᵀX/σ²` and mean `μ = Λ⁻¹ (m/s² + Xᵀy/σ²)`. Over
//! random designs, noise levels and priors, the elliptical slice
//! chains' summaries must match it within Monte Carlo error.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_infer::{
    run_chains, summarize, ChainConfig, Kernel, NormPosterior, PowerObservations, Prior,
};
use xbar_linalg::cholesky::CholeskyDecomposition;
use xbar_linalg::{standard_normal, Matrix};

/// The exact posterior mean and marginal standard deviations.
fn exact_posterior(
    design: &Matrix,
    powers: &[f64],
    priors: &[Prior],
    sigma: f64,
) -> (Vec<f64>, Vec<f64>) {
    let k = priors.len();
    let inv_var = 1.0 / (sigma * sigma);
    let mut precision = design.transpose().matmul(design);
    let mut rhs = vec![0.0; k];
    for (i, prior) in priors.iter().enumerate() {
        let prior_precision = 1.0 / (prior.sigma() * prior.sigma());
        for j in 0..k {
            precision[(i, j)] *= inv_var;
        }
        precision[(i, i)] += prior_precision;
        rhs[i] = prior.mean() * prior_precision
            + inv_var
                * (0..design.rows())
                    .map(|b| design[(b, i)] * powers[b])
                    .sum::<f64>();
    }
    let chol = CholeskyDecomposition::new(&precision).unwrap();
    let mean = chol.solve(&rhs).unwrap();
    let covariance = chol.solve_matrix(&Matrix::identity(k)).unwrap();
    let sd = (0..k).map(|i| covariance[(i, i)].sqrt()).collect();
    (mean, sd)
}

/// Post-burn-in draws per chain (four chains). The tolerances are
/// Monte Carlo errors at the pooled effective sample size `ess` the
/// report gives: the mean's standard error is `sd/√ess`, so 5 of them
/// bound it; the sample sd's relative error is about `1/√(2·ess)`,
/// under 5% once `ess ≥ 200`, so `[0.8, 1.25]` is over 4 of them; and
/// a 2.5% quantile's standard error is `2.67·sd/√ess`, so `0.25·sd` is
/// about 4.5 of them at the median `ess ≈ 2400`. At 150 cases of this
/// generator the worst dimension had `ess ≈ 200`, `|z| = 3.5`, an sd
/// ratio of 0.94 and an interval end `0.19·sd` off.
const DRAWS: usize = 16_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn elliptical_slice_matches_the_exact_posterior(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = rng.gen_range(2..=8usize);
        let q = rng.gen_range(12..=64usize);
        let sigma = rng.gen_range(0.05..1.0);
        let priors: Vec<Prior> = (0..k)
            .map(|_| Prior::normal(rng.gen_range(-1.0..2.0), rng.gen_range(0.25..1.5)).unwrap())
            .collect();
        let truth: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..2.0)).collect();
        let design = Matrix::random_uniform(q, k, 0.0, 1.0, &mut rng);
        let powers: Vec<f64> = (0..q)
            .map(|b| {
                let clean: f64 = design.row(b).iter().zip(&truth).map(|(u, t)| u * t).sum();
                clean + sigma * standard_normal(&mut rng)
            })
            .collect();
        let (mu, sd) = exact_posterior(&design, &powers, &priors, sigma);

        let subset: Vec<usize> = (0..k).collect();
        let obs = PowerObservations { inputs: design, powers };
        let model = NormPosterior::new(&obs, &subset, priors, sigma).unwrap();
        let config = ChainConfig::new(1000, DRAWS, 1).unwrap();
        let chains = run_chains(&model, &Kernel::EllipticalSlice, &config, seed, 4, 0).unwrap();
        let report = summarize(&chains, &subset, 0.95).unwrap();
        for (d, (&mu, &sd)) in report.dims.iter().zip(mu.iter().zip(&sd)) {
            let (lo, hi) = (mu - 1.96 * sd, mu + 1.96 * sd);
            prop_assert!(
                (d.mean - mu).abs() <= 5.0 * sd / d.ess.sqrt(),
                "dim {}: mean {} vs exact {mu} (sd {sd}, ess {})", d.index, d.mean, d.ess
            );
            prop_assert!(
                (0.8..=1.25).contains(&(d.sd / sd)),
                "dim {}: sd {} vs exact {sd}", d.index, d.sd
            );
            prop_assert!(
                (d.ci_lo - lo).abs() <= 0.25 * sd && (d.ci_hi - hi).abs() <= 0.25 * sd,
                "dim {}: interval [{}, {}] vs exact [{lo}, {hi}] (sd {sd}, ess {})",
                d.index, d.ci_lo, d.ci_hi, d.ess
            );
        }
    }
}
