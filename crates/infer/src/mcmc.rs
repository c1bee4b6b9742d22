//! MCMC transition kernels: random-walk Metropolis–Hastings and
//! elliptical slice sampling.
//!
//! Both kernels draw exclusively from the [`ChaCha8Rng`] stream they
//! are handed, so one transition is a pure function of
//! `(model, state, stream)` — the chain runner keys the stream by
//! `(campaign_seed, chain_index, step)` and bit-identical results
//! follow at any thread count.
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

use crate::distribution::{Distribution, Prior};
use crate::error::InferError;
use crate::screen::EllipseScreen;
use crate::Result;

/// A Bayesian model: independent per-dimension priors plus a joint
/// log-likelihood.
///
/// The prior/likelihood split (rather than one opaque log-density)
/// exists for elliptical slice sampling, which treats the Gaussian
/// prior analytically and only ever evaluates the likelihood.
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
    /// `m + (θ−m)·cos φ + ν·sin φ` (`m` the Gaussian prior means), with
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

    /// Sum of the per-dimension prior log-densities at `theta`.
    fn log_prior(&self, theta: &[f64]) -> f64 {
        self.priors()
            .iter()
            .zip(theta)
            .map(|(p, &x)| p.log_density(x))
            .sum()
    }

    /// Unnormalised log-posterior at `theta`.
    fn log_posterior(&self, theta: &[f64]) -> f64 {
        let lp = self.log_prior(theta);
        if lp == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        lp + self.log_likelihood(theta)
    }
}

/// An MCMC transition kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Random-walk Metropolis–Hastings with per-dimension Gaussian
    /// proposal scales. Works with any prior.
    RandomWalk {
        /// Per-dimension proposal standard deviations
        /// (`len() == model.dim()`, all finite and positive).
        steps: Vec<f64>,
    },
    /// Elliptical slice sampling (Murray, Adams & MacKay 2010).
    /// Rejection-free and tuning-free, but requires every prior to be
    /// Gaussian.
    EllipticalSlice,
}

impl Kernel {
    /// Checks the kernel against a model's shape and priors.
    pub fn validate<M: BayesModel + ?Sized>(&self, model: &M) -> Result<()> {
        match self {
            Kernel::RandomWalk { steps } => {
                if steps.len() != model.dim() {
                    return Err(InferError::DimensionMismatch {
                        expected: model.dim(),
                        got: steps.len(),
                    });
                }
                if steps.iter().any(|s| !(s.is_finite() && *s > 0.0)) {
                    return Err(InferError::InvalidParameter { name: "steps" });
                }
            }
            Kernel::EllipticalSlice => {
                for (dim, prior) in model.priors().iter().enumerate() {
                    if prior.as_gaussian().is_none() {
                        return Err(InferError::NonGaussianPrior { dim });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The running state one kernel transition consumes and produces: the
/// current point plus its cached density (log-posterior for the random
/// walk, log-likelihood for elliptical slice), the prior moments
/// elliptical slice reads every transition, and scratch buffers that
/// live across the chain so a transition allocates nothing.
pub(crate) struct ChainState {
    pub theta: Vec<f64>,
    pub cached: f64,
    /// The candidate point; swapped with `theta` on accept.
    proposal: Vec<f64>,
    /// Elliptical slice's auxiliary draw.
    nu: Vec<f64>,
    /// Elliptical slice's prior means (empty for the random walk).
    means: Vec<f64>,
    /// Elliptical slice's prior standard deviations (empty for the
    /// random walk).
    sigmas: Vec<f64>,
}

impl ChainState {
    /// Initialises the cache for `kernel` at `theta` (the kernel must
    /// have passed [`Kernel::validate`] against `model`).
    pub fn new<M: BayesModel + ?Sized>(model: &M, kernel: &Kernel, theta: Vec<f64>) -> Self {
        let (cached, (means, sigmas)) = match kernel {
            Kernel::RandomWalk { .. } => (model.log_posterior(&theta), Default::default()),
            Kernel::EllipticalSlice => (
                model.log_likelihood(&theta),
                model
                    .priors()
                    .iter()
                    .map(|p| p.as_gaussian().expect("validated Gaussian prior"))
                    .unzip(),
            ),
        };
        let dim = theta.len();
        ChainState {
            theta,
            cached,
            proposal: Vec::with_capacity(dim),
            nu: Vec::with_capacity(dim),
            means,
            sigmas,
        }
    }
}

/// Bookkeeping one transition reports back to the chain runner.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepStats {
    /// Whether the proposal was accepted (elliptical slice always is).
    pub accepted: bool,
    /// Exact likelihood/posterior density evaluations spent.
    pub evals: u64,
    /// Elliptical slice proposals rejected by the model's screen
    /// without an evaluation.
    pub screened: u64,
}

/// One random-walk Metropolis–Hastings transition.
pub(crate) fn rwm_step<M: BayesModel + ?Sized>(
    model: &M,
    steps: &[f64],
    state: &mut ChainState,
    rng: &mut ChaCha8Rng,
) -> StepStats {
    state.proposal.clear();
    state.proposal.extend(
        state
            .theta
            .iter()
            .zip(steps)
            .map(|(&x, &s)| x + s * standard_normal(rng)),
    );
    let log_post = model.log_posterior(&state.proposal);
    // Accept with probability min(1, exp(delta)); the comparison is in
    // log space and a -inf proposal (outside a prior's support) can
    // never win.
    let delta = log_post - state.cached;
    let accept = delta >= 0.0 || rng.gen_range(0.0f64..1.0).ln() < delta;
    if accept {
        std::mem::swap(&mut state.theta, &mut state.proposal);
        state.cached = log_post;
    }
    StepStats {
        accepted: accept,
        evals: 1,
        screened: 0,
    }
}

/// Cap on bracket-shrinking iterations per elliptical slice transition.
/// The bracket halves each rejection and the angle θ → 0 limit recovers
/// the current (accepted) point, so this is unreachable in practice —
/// it only guards against NaN likelihoods.
const MAX_SHRINKS: usize = 1000;

/// One elliptical slice sampling transition (priors must be Gaussian —
/// checked by [`Kernel::validate`] before the chain starts).
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
    // The auxiliary ellipse: nu ~ N(0, prior covariance).
    state.nu.clear();
    state.nu.extend(
        state
            .sigmas
            .iter()
            .map(|&sigma| sigma * standard_normal(rng)),
    );
    let screen = model.ellipse_screen(&state.theta, &state.nu);

    let log_y = state.cached + rng.gen_range(0.0f64..1.0).ln();
    let mut theta_angle = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
    let mut lo = theta_angle - 2.0 * std::f64::consts::PI;
    let mut hi = theta_angle;
    let mut stats = StepStats {
        accepted: true,
        ..StepStats::default()
    };

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
                    .zip(&state.means)
                    .map(|((&x, &v), &m)| m + (x - m) * cos + v * sin),
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

    fn run_kernel(kernel: &Kernel, n: usize) -> Vec<Vec<f64>> {
        let model = toy();
        kernel.validate(&model).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut state = ChainState::new(&model, kernel, vec![0.0, 0.0]);
        let mut draws = Vec::with_capacity(n);
        for _ in 0..n {
            match kernel {
                Kernel::RandomWalk { steps } => {
                    rwm_step(&model, steps, &mut state, &mut rng);
                }
                Kernel::EllipticalSlice => {
                    ess_step(&model, &mut state, &mut rng);
                }
            }
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
    fn random_walk_recovers_the_conjugate_posterior() {
        let kernel = Kernel::RandomWalk {
            steps: vec![0.5, 0.5],
        };
        check_posterior_moments(&run_kernel(&kernel, 20_000));
    }

    #[test]
    fn elliptical_slice_recovers_the_conjugate_posterior() {
        check_posterior_moments(&run_kernel(&Kernel::EllipticalSlice, 20_000));
    }

    #[test]
    fn elliptical_slice_rejects_non_gaussian_priors() {
        let model = GaussianToy {
            priors: vec![
                Prior::normal(0.0, 1.0).unwrap(),
                Prior::uniform(0.0, 1.0).unwrap(),
            ],
            center: vec![0.0, 0.5],
            sigma: 1.0,
        };
        assert_eq!(
            Kernel::EllipticalSlice.validate(&model),
            Err(InferError::NonGaussianPrior { dim: 1 })
        );
        // The random walk handles the same model fine.
        Kernel::RandomWalk {
            steps: vec![0.1, 0.1],
        }
        .validate(&model)
        .unwrap();
    }

    #[test]
    fn random_walk_validates_step_shape_and_domain() {
        let model = toy();
        assert!(matches!(
            Kernel::RandomWalk { steps: vec![0.1] }.validate(&model),
            Err(InferError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Kernel::RandomWalk {
                steps: vec![0.1, 0.0]
            }
            .validate(&model),
            Err(InferError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rwm_respects_prior_support() {
        // A uniform prior on [0, 1): the walk must never leave it.
        struct Bounded {
            priors: Vec<Prior>,
        }
        impl BayesModel for Bounded {
            fn dim(&self) -> usize {
                1
            }
            fn priors(&self) -> &[Prior] {
                &self.priors
            }
            fn log_likelihood(&self, _theta: &[f64]) -> f64 {
                0.0
            }
        }
        let model = Bounded {
            priors: vec![Prior::uniform(0.0, 1.0).unwrap()],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let kernel = Kernel::RandomWalk { steps: vec![0.8] };
        let mut state = ChainState::new(&model, &kernel, vec![0.5]);
        for _ in 0..2000 {
            rwm_step(&model, &[0.8], &mut state, &mut rng);
            assert!((0.0..1.0).contains(&state.theta[0]));
        }
    }
}
