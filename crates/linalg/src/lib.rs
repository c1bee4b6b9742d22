//! # xbar-linalg
//!
//! Dense linear algebra substrate for the `xbar-power-attacks` workspace.
//!
//! This crate provides everything the crossbar simulator, the neural-network
//! layer, and the attack library need, implemented from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with elementwise ops,
//!   (row-parallel) matrix multiplication, norms and slicing; and
//!   [`standard_normal`], the workspace's one scalar Gaussian draw.
//! * [`par`] — the workspace's one data-parallel fan-out: thread-count
//!   resolution and contiguous runs over scoped threads.
//! * [`vec_ops`] — slice-level vector kernels (dot and its register-tiled
//!   batch form `dot_tile`, whose AVX2 or portable instance is chosen once
//!   per process; axpy, norms, argmax).
//! * [`qr`] — Householder QR and least-squares solves.
//! * [`cholesky`] — Cholesky factorisation and ridge-regularised solves.
//!
//! The crate denies `unsafe` code except for one call: `dot_tile`'s
//! entry into its AVX2 instance, after the CPU reported AVX2.
//!
//! The paper's Section IV writes exact weight recovery as `W = U† Ŷ`. Here
//! that is a least-squares solve: with at least `N` independent queries
//! `U` (`Q x N`), [`qr::lstsq_matrix`] recovers `W` exactly, and under
//! measurement noise [`cholesky::ridge_solve`] trades bias for variance.
//! `xbar-core`'s `recovery` module calls both; the workspace property test
//! `least_squares_recovery_is_exact_for_spanning_queries`
//! (`tests/proptest_attacks.rs`) checks the exact case.
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
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cholesky;
mod error;
mod matrix;
pub mod par;
pub mod qr;
pub mod vec_ops;

pub use error::LinalgError;
pub use matrix::{standard_normal, Matrix};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;

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
