//! # xbar-nn
//!
//! Neural-network substrate for the `xbar-power-attacks` workspace: the
//! single-layer networks the paper attacks, implemented from scratch.
//!
//! The paper's models are `ŷ = f(W u)` (Eq. 4) with two configurations:
//! a **linear** output trained with MSE loss, and a **softmax** output
//! trained with categorical cross-entropy. Both are bias-free, matching
//! the crossbar of the paper's Fig. 2, which implements `W u` only.
//!
//! Modules:
//!
//! * [`activation`] — identity, ReLU, sigmoid, tanh, softmax.
//! * [`loss`] — MSE and categorical cross-entropy, with the supported
//!   activation/loss pairings and their pre-activation deltas.
//! * [`network`] — [`network::SingleLayerNet`]: the paper's model.
//! * [`mlp`] — a multi-layer extension (the paper's stated future work).
//! * [`train`] — minibatch SGD with momentum, weight decay and LR decay.
//! * [`sensitivity`] — `∂L/∂u` input gradients (Eq. 7) and dataset-mean
//!   sensitivity maps, the quantity Table I correlates with the 1-norms.
//! * [`metrics`] — classification accuracy.
//!
//! # Example
//!
//! ```
//! use xbar_data::synth::blobs::BlobsConfig;
//! use xbar_nn::activation::Activation;
//! use xbar_nn::loss::Loss;
//! use xbar_nn::network::SingleLayerNet;
//! use xbar_nn::train::{SgdConfig, train};
//! use rand::SeedableRng;
//!
//! let ds = BlobsConfig::new(3, 8).num_samples(120).seed(1).generate();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut net = SingleLayerNet::new_random(8, 3, Activation::Softmax, &mut rng);
//! let report = train(&mut net, &ds, Loss::CrossEntropy, &SgdConfig::default(), &mut rng)?;
//! assert!(report.final_loss < report.initial_loss);
//! # Ok::<(), xbar_nn::NnError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod activation;
mod error;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod network;
pub mod sensitivity;
pub mod train;

pub use error::NnError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
