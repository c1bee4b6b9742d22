//! # xbar-infer
//!
//! Bayesian weight recovery and MCMC model extraction from noisy power
//! observations.
//!
//! The paper's probe recovers *point estimates* of the victim's column
//! 1-norms from switching power. This crate treats the same recovery as
//! posterior inference: given a budget of noisy power observations, it
//! samples a posterior over the norm vector and answers *how many
//! queries until the posterior is tight enough to attack?* with
//! credible intervals instead of point guesses.
//!
//! One sampler over one prior family: every dimension carries a
//! Gaussian [`Prior`], and elliptical slice sampling draws the
//! posterior. The pieces, bottom up:
//!
//! * [`mcmc`] — the [`Prior`] (`N(mean, sigma²)`), the [`BayesModel`]
//!   trait, and the elliptical slice transition ([`Kernel`]), which
//!   draws only from a caller-supplied ChaCha8 stream.
//! * [`chain`] — the chain runner: burn-in, thinning, and multi-chain
//!   support, with every random draw keyed by
//!   `(campaign_seed, chain_index, step)` so results are bit-identical
//!   at any thread count ([`run_chains`] fans chains out with
//!   `xbar_linalg::par`, the same fan-out as the crossbar's tiled
//!   backend).
//! * [`likelihood`] — the power-observation likelihood:
//!   [`PowerObservations`] wraps `Oracle::query_batch`, so inference
//!   composes with faults, transients, drift, and defenses exactly
//!   like every other attack;
//!   [`NormPosterior`] is the Bayesian model `power(u) = ⟨u, ν⟩ + ε`.
//! * [`screen`] — the exact-outcome screen elliptical slice asks
//!   before evaluating a proposal: a per-transition quadratic of
//!   [`NormPosterior`]'s log-likelihood along the ellipse with a
//!   rigorous floating-point error bound, so most rejections cost O(1)
//!   and the draws keep their bits.
//! * [`posterior`] — summaries: per-column means, credible intervals,
//!   and the `xbar-stats` convergence gates (split-R̂, ESS).
//!
//! # Example
//!
//! ```
//! use xbar_infer::{
//!     run_chains, summarize, ChainConfig, Kernel, NormPosterior, PowerObservations, Prior,
//! };
//! use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
//! use xbar_linalg::Matrix;
//! use xbar_nn::activation::Activation;
//! use xbar_nn::network::SingleLayerNet;
//!
//! // A tiny victim with known column norms [1.5, 0.75].
//! let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.5, 0.25]]);
//! let net = SingleLayerNet::from_weights(w, Activation::Identity);
//! let mut oracle = Oracle::new(
//!     net,
//!     &OracleConfig::ideal().with_access(OutputAccess::None),
//!     7,
//! )
//! .unwrap();
//!
//! // Spend 16 queries on a random design, then sample the posterior.
//! let design = xbar_infer::random_design(16, 2, None, 99).unwrap();
//! let obs = PowerObservations::collect(&mut oracle, &design).unwrap();
//! let priors = vec![Prior::normal(1.0, 2.0).unwrap(); 2];
//! let model = NormPosterior::new(&obs, &[0, 1], priors, 0.05).unwrap();
//! let chains = run_chains(
//!     &model,
//!     &Kernel::EllipticalSlice,
//!     &ChainConfig::new(200, 400, 2).unwrap(),
//!     42,
//!     2,
//!     1,
//! )
//! .unwrap();
//! let report = summarize(&chains, model.subset(), 0.95).unwrap();
//! let truth = oracle.true_column_norms();
//! assert_eq!(report.coverage(&truth).unwrap(), 1.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chain;
pub mod error;
pub mod likelihood;
pub mod mcmc;
pub mod posterior;
pub mod screen;

pub use chain::{run_chain, run_chains, ChainConfig, ChainResult};
pub use error::InferError;
pub use likelihood::{estimate_noise_sigma, random_design, NormPosterior, PowerObservations};
pub use mcmc::{BayesModel, Kernel, Prior};
pub use posterior::{evenly_spaced_draws, summarize, DimPosterior, PosteriorReport};
pub use screen::{EllipseScreen, ScreenEstimate};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InferError>;
