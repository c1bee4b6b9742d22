//! # xbar-power-attacks
//!
//! A from-scratch Rust reproduction of *"Enhancing Adversarial Attacks on
//! Single-Layer NVM Crossbar-Based Neural Networks with Power Consumption
//! Information"* (Cory Merkel, SOCC 2022).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`linalg`] — dense matrices, QR / Cholesky, least squares.
//! * [`stats`] — correlation, t-tests, run aggregation.
//! * [`data`] — datasets: procedural MNIST/CIFAR-10 stand-ins, IDX I/O.
//! * [`nn`] — single-layer (and multi-layer) networks, SGD, input
//!   sensitivity.
//! * [`crossbar`] — the NVM crossbar simulator and its power side channel.
//! * [`attacks`] — the paper's contribution: power-probing, single-pixel
//!   attacks, surrogate training with the power loss, black-box FGSM,
//!   weight recovery, and defenses.
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use xbar_power_attacks::attacks::oracle::{Oracle, OracleConfig, OutputAccess};
//! use xbar_power_attacks::attacks::probe::probe_column_norms;
//! use xbar_power_attacks::nn::activation::Activation;
//! use xbar_power_attacks::nn::network::SingleLayerNet;
//!
//! // A victim network deployed on an (ideal) crossbar...
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let net = SingleLayerNet::new_random(16, 4, Activation::Identity, &mut rng);
//! let truth = net.column_l1_norms();
//! let mut oracle = Oracle::new(
//!     net,
//!     &OracleConfig::ideal().with_access(OutputAccess::None),
//!     1,
//! )?;
//!
//! // ...leaks its weight-column 1-norms through the power side channel.
//! let probed = probe_column_norms(&mut oracle, 1.0, 1)?;
//! for (p, t) in probed.iter().zip(&truth) {
//!     assert!((p - t).abs() < 1e-9);
//! }
//! # Ok::<(), xbar_power_attacks::attacks::AttackError>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the binaries that regenerate every table and figure
//! of the paper.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use xbar_core as attacks;
pub use xbar_crossbar as crossbar;
pub use xbar_data as data;
pub use xbar_linalg as linalg;
pub use xbar_nn as nn;
pub use xbar_stats as stats;
