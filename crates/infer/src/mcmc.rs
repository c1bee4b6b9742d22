//! The sampler: Gaussian priors, the [`BayesModel`] trait, and one
//! elliptical slice transition (Murray, Adams & MacKay 2010).
//!
//! A transition draws exclusively from the [`ChaCha8Rng`] stream it is
//! handed, so it is a pure function of `(model, state, stream)` — the
//! chain runner keys the stream by `(campaign_seed, chain_index, step)`
//! and bit-identical results follow at any thread count.
//!
//! Elliptical slice asks the model once per transition for an
//! [`EllipseScreen`] ([`BayesModel::ellipse_screen`]) and rejects the
//! proposals it places certainly below the slice without evaluating
//! them; every other proposal, and always the accepted one, is
//! evaluated exactly. Screening consumes no randomness and never
//! changes an outcome, so draws are the same bits with or without it;
//! only the evaluation count differs.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use xbar_linalg::standard_normal;

use crate::error::InferError;
use crate::screen::EllipseScreen;
use crate::Result;

/// A Gaussian prior `N(mean, sigma²)` over one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prior {
    mean: f64,
    sigma: f64,
}

impl Prior {
    /// Validates a finite mean and a finite `sigma > 0`.
    pub fn normal(mean: f64, sigma: f64) -> Result<Self> {
        if !mean.is_finite() {
            return Err(InferError::InvalidParameter { name: "mean" });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(InferError::InvalidParameter { name: "sigma" });
        }
        Ok(Prior { mean, sigma })
    }

    /// The prior mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The prior standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

/// A Bayesian model: independent per-dimension Gaussian priors plus a
/// joint log-likelihood.
///
/// Elliptical slice sampling treats the prior analytically and only
/// ever evaluates the likelihood.
pub trait BayesModel: Sync {
    /// Number of free parameters.
    fn dim(&self) -> usize;

    /// Per-dimension priors (`len() == dim()`).
    fn priors(&self) -> &[Prior];

    /// Joint log-likelihood of the observations at `theta`.
    fn log_likelihood(&self, theta: &[f64]) -> f64;

    /// An exact-outcome screen for one elliptical slice transition
    /// from `theta` with auxiliary draw `nu`: a quadratic model of
    /// [`log_likelihood`](Self::log_likelihood) along the ellipse
    /// `m + (θ−m)·cos φ + ν·sin φ` (`m` the prior means), with
    /// a bound that holds for every proposal the kernel rounds from
    /// it. The kernel rejects a proposal the screen places certainly
    /// below the slice without evaluating it, and evaluates every
    /// other proposal exactly, so draws do not depend on whether a
    /// model implements this.
    ///
    /// The default is `None`: no screen, every proposal evaluated.
    fn ellipse_screen(&self, _theta: &[f64], _nu: &[f64]) -> Option<EllipseScreen> {
        None
    }
}

/// The MCMC transition kernel. Elliptical slice is the only one; the
/// chain runners still take it as an argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Elliptical slice sampling (Murray, Adams & MacKay 2010):
    /// rejection-free and tuning-free.
    EllipticalSlice,
}

/// The running state one transition consumes and produces: the current
/// point, its cached log-likelihood, and scratch buffers that live
/// across the chain so a transition allocates nothing.
pub(crate) struct ChainState {
    pub theta: Vec<f64>,
    pub cached: f64,
    /// The candidate point; swapped with `theta` on accept.
    proposal: Vec<f64>,
    /// The auxiliary draw.
    nu: Vec<f64>,
}

impl ChainState {
    /// Caches `model`'s log-likelihood at `theta`.
    pub fn new<M: BayesModel + ?Sized>(model: &M, theta: Vec<f64>) -> Self {
        let dim = theta.len();
        ChainState {
            cached: model.log_likelihood(&theta),
            theta,
            proposal: Vec::with_capacity(dim),
            nu: Vec::with_capacity(dim),
        }
    }
}

/// Bookkeeping one transition reports back to the chain runner.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepStats {
    /// Exact likelihood evaluations spent.
    pub evals: u64,
    /// Proposals rejected by the model's screen without an evaluation.
    pub screened: u64,
}

/// Cap on bracket-shrinking iterations per elliptical slice transition.
/// The bracket halves each rejection and the angle θ → 0 limit recovers
/// the current (accepted) point, so this is unreachable in practice —
/// it only guards against NaN likelihoods.
const MAX_SHRINKS: usize = 1000;

/// One elliptical slice sampling transition.
///
/// Each shrink first asks the model's [`BayesModel::ellipse_screen`];
/// a proposal it places certainly below the slice is rejected without
/// being built or evaluated. Screened or not, the bracket shrinks and
/// the next angle is drawn exactly as after an evaluated rejection, so
/// the stream is consumed identically and the accepted point — always
/// evaluated exactly — carries the same bits either way.
pub(crate) fn ess_step<M: BayesModel + ?Sized>(
    model: &M,
    state: &mut ChainState,
    rng: &mut ChaCha8Rng,
) -> StepStats {
    let priors = model.priors();
    // The auxiliary ellipse: nu ~ N(0, prior covariance).
    state.nu.clear();
    state
        .nu
        .extend(priors.iter().map(|p| p.sigma * standard_normal(rng)));
    let screen = model.ellipse_screen(&state.theta, &state.nu);

    let log_y = state.cached + rng.gen_range(0.0f64..1.0).ln();
    let mut theta_angle = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
    let mut lo = theta_angle - 2.0 * std::f64::consts::PI;
    let mut hi = theta_angle;
    let mut stats = StepStats::default();

    for _ in 0..MAX_SHRINKS {
        let (sin, cos) = theta_angle.sin_cos();
        if screen.is_some_and(|s| s.rejects(cos, sin, log_y)) {
            stats.screened += 1;
        } else {
            state.proposal.clear();
            state.proposal.extend(
                state
                    .theta
                    .iter()
                    .zip(&state.nu)
                    .zip(priors)
                    .map(|((&x, &v), p)| p.mean + (x - p.mean) * cos + v * sin),
            );
            let ll = model.log_likelihood(&state.proposal);
            stats.evals += 1;
            if ll > log_y {
                std::mem::swap(&mut state.theta, &mut state.proposal);
                state.cached = ll;
                break;
            }
        }
        // Shrink the bracket towards angle 0 (the current point).
        if theta_angle < 0.0 {
            lo = theta_angle;
        } else {
            hi = theta_angle;
        }
        theta_angle = rng.gen_range(lo..hi);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Gaussian likelihood around `center` with scale `sigma` — the
    /// conjugate case where the posterior is available in closed form.
    struct GaussianToy {
        priors: Vec<Prior>,
        center: Vec<f64>,
        sigma: f64,
    }

    impl BayesModel for GaussianToy {
        fn dim(&self) -> usize {
            self.priors.len()
        }
        fn priors(&self) -> &[Prior] {
            &self.priors
        }
        fn log_likelihood(&self, theta: &[f64]) -> f64 {
            -0.5 * theta
                .iter()
                .zip(&self.center)
                .map(|(&x, &c)| ((x - c) / self.sigma).powi(2))
                .sum::<f64>()
        }
    }

    fn toy() -> GaussianToy {
        GaussianToy {
            priors: vec![Prior::normal(0.0, 2.0).unwrap(); 2],
            center: vec![1.0, -0.5],
            sigma: 0.5,
        }
    }

    /// Conjugate posterior moments for one dimension of [`GaussianToy`].
    fn conjugate(prior_mean: f64, prior_sd: f64, center: f64, sigma: f64) -> (f64, f64) {
        let prec = 1.0 / (prior_sd * prior_sd) + 1.0 / (sigma * sigma);
        let mean = (prior_mean / (prior_sd * prior_sd) + center / (sigma * sigma)) / prec;
        (mean, (1.0 / prec).sqrt())
    }

    fn run_kernel(n: usize) -> Vec<Vec<f64>> {
        let model = toy();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut state = ChainState::new(&model, vec![0.0, 0.0]);
        let mut draws = Vec::with_capacity(n);
        for _ in 0..n {
            ess_step(&model, &mut state, &mut rng);
            draws.push(state.theta.clone());
        }
        draws
    }

    fn check_posterior_moments(draws: &[Vec<f64>]) {
        let model = toy();
        let burn = draws.len() / 5;
        for d in 0..2 {
            let xs: Vec<f64> = draws[burn..].iter().map(|t| t[d]).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                / (xs.len() - 1) as f64)
                .sqrt();
            let (want_mean, want_sd) = conjugate(0.0, 2.0, model.center[d], model.sigma);
            assert!(
                (mean - want_mean).abs() < 0.1,
                "dim {d}: mean {mean} vs conjugate {want_mean}"
            );
            assert!(
                (sd - want_sd).abs() < 0.15,
                "dim {d}: sd {sd} vs conjugate {want_sd}"
            );
        }
    }

    #[test]
    fn elliptical_slice_recovers_the_conjugate_posterior() {
        check_posterior_moments(&run_kernel(20_000));
    }

    #[test]
    fn invalid_prior_parameters_are_rejected() {
        assert!(Prior::normal(f64::NAN, 1.0).is_err());
        assert!(Prior::normal(0.0, 0.0).is_err());
        assert!(Prior::normal(0.0, -1.0).is_err());
        let prior = Prior::normal(2.0, 0.5).unwrap();
        assert_eq!((prior.mean(), prior.sigma()), (2.0, 0.5));
    }
}
