//! # xbar-crossbar
//!
//! A behavioural simulator of NVM crossbar arrays for neural-network
//! inference — the hardware substrate of the paper.
//!
//! The paper's model (Sec. II-B): a layer's weight matrix `W` is stored as
//! differential conductance pairs `G⁺, G⁻`; the crossbar computes
//! `i_s = G v_u` by Ohm's and Kirchhoff's laws (Eq. 3), and its total
//! steady-state current is
//!
//! ```text
//! i_total = Σ_j v_uj Σ_i (G⁺_ij + G⁻_ij)      (Eq. 5)
//! ```
//!
//! With the paper's one-sided mapping (positive weights use `G⁺` only,
//! negative weights `G⁻` only — the lowest-power implementation, Eq. 6),
//! the per-input total conductance `G_j` is an affine function of the
//! weight column's 1-norm. That is the side channel the attacks exploit.
//!
//! Modules:
//!
//! * [`device`] — NVM device models: conductance bounds, level
//!   quantisation, programming variation, stuck-at faults, read noise.
//! * [`mapping`] — weight ↔ conductance mapping (one-sided differential).
//! * [`array`](mod@array) — [`array::CrossbarArray`]: programming, MVM, total
//!   current.
//! * [`backend`] — batch-first evaluation: the [`backend::EvalBackend`]
//!   trait with naive and cache-blocked implementations.
//! * [`power`] — the power side channel: measurement noise, averaging,
//!   traces.
//! * [`irdrop`] — finite-wire-resistance (IR-drop) solver, the paper's
//!   deferred electrical non-ideality.
//! * [`tile`] — tiling large matrices onto fixed-size arrays.
//! * [`prelude`] — one-line import of the common types.
//!
//! # Example
//!
//! ```
//! use xbar_crossbar::array::CrossbarArray;
//! use xbar_crossbar::device::DeviceModel;
//! use xbar_linalg::Matrix;
//! use rand::SeedableRng;
//!
//! let w = Matrix::from_rows(&[&[0.5, -1.0], &[0.25, 0.75]]);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let xbar = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng)?;
//! let i = xbar.mvm(&[1.0, 0.0]);
//! assert!((i[0] - 0.5).abs() < 1e-9);   // ideal crossbar == exact MVM
//! # Ok::<(), xbar_crossbar::CrossbarError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod array;
pub mod backend;
pub mod device;
mod error;
pub mod irdrop;
pub mod mapping;
pub mod power;
pub mod prelude;
pub mod tile;

pub use error::CrossbarError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CrossbarError>;
