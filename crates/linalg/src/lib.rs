//! # xbar-linalg
//!
//! Dense linear algebra substrate for the `xbar-power-attacks` workspace.
//!
//! This crate provides everything the crossbar simulator, the neural-network
//! layer, and the attack library need, implemented from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with elementwise ops,
//!   (row-parallel) matrix multiplication, norms, stacking and slicing.
//! * [`par`] — the workspace's one data-parallel fan-out: thread-count
//!   resolution and contiguous runs over scoped threads.
//! * [`vec_ops`] — slice-level vector kernels (dot and its register-tiled
//!   batch form `dot_tile`, axpy, norms, argmax).
//! * [`qr`] — Householder QR and least-squares solves.
//! * [`lu`] — LU with partial pivoting, determinants, inverses.
//! * [`cholesky`] — Cholesky factorisation and ridge-regularised solves.
//! * [`svd`] — one-sided Jacobi SVD, Moore–Penrose pseudoinverse, rank.
//!
//! The pseudoinverse is what the paper's Section IV uses to argue that once
//! the number of independent queries reaches the input dimension, the weight
//! matrix is exactly recoverable as `W = U† Ŷ`; see
//! [`svd::pinv`] and `xbar-core`'s `recovery` module.
//!
//! # Example
//!
//! ```
//! use xbar_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cholesky;
mod error;
pub mod lu;
mod matrix;
pub mod par;
pub mod qr;
pub mod svd;
pub mod vec_ops;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Default absolute tolerance used by approximate comparisons and rank
/// decisions throughout the crate.
pub const DEFAULT_TOL: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        assert_eq!(a.matmul(&b), a);
    }
}
