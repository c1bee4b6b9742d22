//! Property tests for `xbar-infer`: the determinism discipline (draws
//! keyed by `(campaign_seed, chain_index, step)` and invariant to the
//! worker-thread count) and statistical sanity of the sampler against
//! models with known posteriors.

use proptest::prelude::*;
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::power::PowerModel;
use xbar_infer::{
    estimate_noise_sigma, random_design, run_chains, summarize, BayesModel, ChainConfig, Kernel,
    NormPosterior, PowerObservations, Prior,
};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

/// A conjugate Gaussian toy: priors N(0, prior_sd²), likelihood a
/// product of Gaussians centred per-dimension — the posterior is known
/// in closed form, and density evaluation is cheap enough for
/// property-test budgets.
struct GaussianToy {
    priors: Vec<Prior>,
    center: Vec<f64>,
    sigma: f64,
}

impl GaussianToy {
    fn new(center: Vec<f64>, prior_sd: f64, sigma: f64) -> Self {
        let priors = vec![Prior::normal(0.0, prior_sd).unwrap(); center.len()];
        GaussianToy {
            priors,
            center,
            sigma,
        }
    }
}

impl BayesModel for GaussianToy {
    fn dim(&self) -> usize {
        self.center.len()
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

fn victim_oracle(noise: f64, seed: u64) -> Oracle {
    // Column norms: [1.5, 0.75, 0.6, 1.1].
    let w = Matrix::from_rows(&[&[1.0, -0.5, 0.1, -0.6], &[0.5, 0.25, -0.5, 0.5]]);
    let net = SingleLayerNet::from_weights(w, Activation::Identity);
    let mut cfg = OracleConfig::ideal().with_access(OutputAccess::None);
    if noise > 0.0 {
        cfg = cfg.with_power(PowerModel::default().with_noise(noise));
    }
    Oracle::new(net, &cfg, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Acceptance criterion: multi-chain draws are bit-identical at
    /// any worker-thread count. Every chain is keyed by
    /// `(campaign_seed, chain_index, step)`, so scheduling cannot
    /// reorder randomness.
    #[test]
    fn draws_are_bit_identical_across_thread_counts(
        campaign_seed in any::<u64>(),
        num_chains in 1usize..7,
        samples in 5usize..40,
        burn_in in 0usize..20,
        thin in 1usize..4,
    ) {
        let model = GaussianToy::new(vec![0.8, -0.3, 0.4], 1.5, 0.6);
        let kernel = Kernel::EllipticalSlice;
        let config = ChainConfig::new(burn_in, samples, thin).unwrap();
        let baseline = run_chains(&model, &kernel, &config, campaign_seed, num_chains, 1).unwrap();
        for threads in [4, 8, 0] {
            let other =
                run_chains(&model, &kernel, &config, campaign_seed, num_chains, threads).unwrap();
            prop_assert_eq!(&baseline, &other);
        }
    }

    /// Chains are keyed streams: a different campaign seed moves every
    /// chain, and each chain within a campaign is distinct.
    #[test]
    fn seeds_and_chain_indices_separate_streams(campaign_seed in any::<u64>()) {
        let model = GaussianToy::new(vec![0.5, 0.5], 1.0, 0.5);
        let config = ChainConfig::new(5, 20, 1).unwrap();
        let kernel = Kernel::EllipticalSlice;
        let a = run_chains(&model, &kernel, &config, campaign_seed, 2, 1).unwrap();
        let b = run_chains(&model, &kernel, &config, campaign_seed.wrapping_add(1), 2, 1).unwrap();
        prop_assert!(a[0].draws != b[0].draws);
        prop_assert!(a[0].draws != a[1].draws);
    }

    /// With a flat likelihood the posterior *is* the prior: sampled
    /// moments must match the prior's within Monte-Carlo error.
    #[test]
    fn flat_likelihood_recovers_the_prior(campaign_seed in any::<u64>()) {
        struct FlatModel {
            priors: Vec<Prior>,
        }
        impl BayesModel for FlatModel {
            fn dim(&self) -> usize {
                self.priors.len()
            }
            fn priors(&self) -> &[Prior] {
                &self.priors
            }
            fn log_likelihood(&self, _theta: &[f64]) -> f64 {
                0.0
            }
        }
        let model = FlatModel {
            priors: vec![Prior::normal(0.7, 0.9).unwrap()],
        };
        let config = ChainConfig::new(100, 1200, 1).unwrap();
        let chains =
            run_chains(&model, &Kernel::EllipticalSlice, &config, campaign_seed, 4, 1).unwrap();
        let report = summarize(&chains, &[0], 0.95).unwrap();
        prop_assert!((report.dims[0].mean - 0.7).abs() < 0.15, "mean {}", report.dims[0].mean);
        prop_assert!((report.dims[0].sd - 0.9).abs() < 0.2, "sd {}", report.dims[0].sd);
    }
}

/// Elliptical slice targets the conjugate toy's posterior: its
/// estimated means agree with the closed form.
#[test]
fn elliptical_slice_matches_the_conjugate_posterior() {
    let model = GaussianToy::new(vec![1.0, -0.5], 2.0, 0.5);
    let config = ChainConfig::new(500, 4000, 1).unwrap();
    let ess = run_chains(&model, &Kernel::EllipticalSlice, &config, 11, 4, 0).unwrap();
    let ess_report = summarize(&ess, &[0, 1], 0.95).unwrap();
    let shrink = 4.0 / (4.0 + 0.25);
    for (d, c) in ess_report.dims.iter().zip([1.0, -0.5]) {
        assert!((d.mean - c * shrink).abs() < 0.05, "ess mean {}", d.mean);
        assert!(d.rhat < 1.05, "ess rhat {}", d.rhat);
    }
}

/// End-to-end on real oracle plumbing: collect noisy power readings,
/// estimate the noise, sample the posterior, and check the credible
/// intervals land on the true column norms and tighten with budget.
#[test]
fn posterior_covers_true_norms_and_tightens_with_budget() {
    let noise = 0.05;
    let subset = [0usize, 1, 2, 3];
    let truth = victim_oracle(0.0, 1).true_column_norms();
    let mut widths = Vec::new();
    for (budget, seed) in [(16usize, 21u64), (256usize, 22u64)] {
        let mut oracle = victim_oracle(noise, seed);
        let sigma = estimate_noise_sigma(&mut oracle, &[0.5, 0.5, 0.5, 0.5], 32).unwrap();
        assert!(sigma > 0.0);
        let design = random_design(budget, 4, Some(&subset), 7).unwrap();
        let obs = PowerObservations::collect(&mut oracle, &design).unwrap();
        let priors = vec![Prior::normal(1.0, 2.0).unwrap(); 4];
        let model = NormPosterior::new(&obs, &subset, priors, sigma * 1.2).unwrap();
        let config = ChainConfig::new(400, 2000, 1).unwrap();
        let chains = run_chains(&model, &Kernel::EllipticalSlice, &config, 33, 4, 0).unwrap();
        let report = summarize(&chains, &subset, 0.95).unwrap();
        assert!(
            report.coverage(&truth).unwrap() >= 0.75,
            "budget {budget}: CIs should cover the truth, got {}",
            report.coverage(&truth).unwrap()
        );
        assert!(
            report.max_rhat < 1.1,
            "budget {budget}: rhat {}",
            report.max_rhat
        );
        widths.push(report.mean_ci_width());
    }
    assert!(
        widths[1] < widths[0],
        "16x the budget must tighten the posterior: {widths:?}"
    );
}
