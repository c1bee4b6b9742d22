//! # xbar-data
//!
//! Dataset substrate for the `xbar-power-attacks` workspace.
//!
//! The paper evaluates on MNIST and CIFAR-10. This environment has no
//! dataset downloads, so this crate ships **procedural stand-ins** that
//! preserve the statistics the paper's conclusions rest on (see DESIGN.md
//! for the substitution argument):
//!
//! * [`synth::digits`] — stroke-rendered 28x28 grayscale digit glyphs with
//!   per-sample affine jitter: high linear separability, an uninformative
//!   border, and a smooth spatial 1-norm landscape (MNIST-like).
//! * [`synth::objects`] — 32x32x3 colour-texture classes with heavy
//!   intra-class variance: low linear separability and rapidly varying
//!   pixel statistics (CIFAR-10-like).
//! * [`synth::blobs`] — Gaussian clusters for fast unit tests.
//!
//! It also provides the plumbing around them:
//!
//! * [`Dataset`] — samples-by-features matrix plus integer labels, with
//!   one-hot targets, splits, shuffles and batching.
//! * [`Image`] and [`ImageShape`] — spatial views over flat feature rows.
//!
//! # Example
//!
//! ```
//! use xbar_data::synth::digits::DigitsConfig;
//!
//! let ds = DigitsConfig::default().num_samples(100).seed(1).generate();
//! assert_eq!(ds.len(), 100);
//! assert_eq!(ds.num_features(), 28 * 28);
//! assert_eq!(ds.num_classes(), 10);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod dataset;
mod error;
mod image;
pub mod synth;

pub use dataset::{Dataset, TrainTestSplit};
pub use error::DataError;
pub use image::{Image, ImageShape};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
