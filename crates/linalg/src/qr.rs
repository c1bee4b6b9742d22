//! Householder QR factorisation and least-squares solves.
//!
//! Used by the attack library to recover the oracle weight matrix from
//! query inputs/outputs when the number of queries reaches the input
//! dimension (the paper's Section IV observation that `W = U†Ŷ`).

use crate::{LinalgError, Matrix, Result};

/// A Householder QR factorisation of an `m x n` matrix with `m >= n`.
///
/// The factorisation satisfies `A = Q * R` with `Q` an `m x n` matrix with
/// orthonormal columns (thin Q) and `R` an `n x n` upper-triangular matrix.
///
/// # Example
///
/// ```
/// use xbar_linalg::{Matrix, qr::QrDecomposition};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]);
/// let qr = QrDecomposition::new(&a)?;
/// let back = qr.q().matmul(&qr.r());
/// assert!(back.approx_eq(&a, 1e-10));
/// # Ok::<(), xbar_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Packed factor: upper triangle holds `R`; the columns below the
    /// diagonal hold the essential parts of the Householder vectors.
    packed: Matrix,
    /// `beta[k]` is the scalar of the k-th Householder reflector
    /// `H_k = I - beta v vᵀ`.
    betas: Vec<f64>,
    /// Diagonal of `R` (stored separately because the packed diagonal holds
    /// the Householder vector head).
    r_diag: Vec<f64>,
}

impl QrDecomposition {
    /// Factors `a` (which must have at least as many rows as columns).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `a` has no elements.
    /// * [`LinalgError::Underdetermined`] if `a` has fewer rows than columns.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty);
        }
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::Underdetermined { rows: m, cols: n });
        }
        let mut packed = a.clone();
        let mut betas = vec![0.0; n];
        let mut r_diag = vec![0.0; n];

        for k in 0..n {
            // Compute the norm of the k-th column below (and including) the
            // diagonal.
            let mut norm = 0.0;
            for i in k..m {
                let v = packed[(i, k)];
                norm += v * v;
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                // Zero column: reflector is the identity.
                betas[k] = 0.0;
                r_diag[k] = 0.0;
                continue;
            }
            let alpha = if packed[(k, k)] >= 0.0 { -norm } else { norm };
            r_diag[k] = alpha;
            // v = x - alpha * e1 (stored in place); normalise so v[0] = 1.
            let v0 = packed[(k, k)] - alpha;
            packed[(k, k)] = v0;
            // beta = 2 / (vᵀv) with v un-normalised.
            let mut vtv = 0.0;
            for i in k..m {
                let v = packed[(i, k)];
                vtv += v * v;
            }
            if vtv == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            betas[k] = 2.0 / vtv;
            // Apply H_k to the remaining columns.
            for j in (k + 1)..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += packed[(i, k)] * packed[(i, j)];
                }
                let s = betas[k] * dot;
                for i in k..m {
                    let vik = packed[(i, k)];
                    packed[(i, j)] -= s * vik;
                }
            }
        }

        Ok(QrDecomposition {
            packed,
            betas,
            r_diag,
        })
    }

    /// The `n x n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        let n = self.packed.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            r[(i, i)] = self.r_diag[i];
            for j in (i + 1)..n {
                r[(i, j)] = self.packed[(i, j)];
            }
        }
        r
    }

    /// The thin `m x n` orthonormal factor `Q`.
    pub fn q(&self) -> Matrix {
        let (m, n) = self.packed.shape();
        // Start from the first n columns of the identity and apply the
        // reflectors in reverse order.
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            if self.betas[k] == 0.0 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += self.packed[(i, k)] * q[(i, j)];
                }
                let s = self.betas[k] * dot;
                for i in k..m {
                    let vik = self.packed[(i, k)];
                    q[(i, j)] -= s * vik;
                }
            }
        }
        q
    }

    /// Applies `Qᵀ` to a vector of length `m`, returning the first `n`
    /// entries (all that is needed for least squares).
    #[allow(clippy::needless_range_loop)]
    fn qt_apply(&self, b: &[f64]) -> Vec<f64> {
        let (m, n) = self.packed.shape();
        let mut y = b.to_vec();
        for k in 0..n {
            if self.betas[k] == 0.0 {
                continue;
            }
            let mut dot = 0.0;
            for i in k..m {
                dot += self.packed[(i, k)] * y[i];
            }
            let s = self.betas[k] * dot;
            for i in k..m {
                y[i] -= s * self.packed[(i, k)];
            }
        }
        y.truncate(n);
        y
    }

    /// Solves the least-squares problem `min_x ‖A x - b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len()` differs from the
    ///   number of rows of the factored matrix.
    /// * [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    ///   entry, i.e. the matrix is rank deficient.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.packed.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr_solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let y = self.qt_apply(b);
        // Rank decision: a diagonal entry of R below this relative threshold
        // marks the matrix as numerically rank deficient.
        let dmax = self.r_diag.iter().fold(0.0_f64, |mx, d| mx.max(d.abs()));
        let tol = (m.max(n) as f64) * f64::EPSILON * dmax.max(f64::MIN_POSITIVE);
        // Back substitution R x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.packed[(i, j)] * x[j];
            }
            let d = self.r_diag[i];
            if d.abs() <= tol {
                return Err(LinalgError::Singular);
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Solves `min_X ‖A X - B‖_F` column-by-column.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QrDecomposition::solve`], applied per column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let (m, n) = self.packed.shape();
        if b.rows() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr_solve_matrix",
                lhs: (m, n),
                rhs: b.shape(),
            });
        }
        let mut x = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let xj = self.solve(&col)?;
            x.set_col(j, &xj);
        }
        Ok(x)
    }
}

/// Convenience wrapper: least-squares solve with a matrix right-hand side.
///
/// This is the computation behind the paper's Section IV remark that with
/// `Q >= N` independent queries the oracle weight matrix is recoverable as
/// `Wᵀ = U† Ŷ` — see `xbar_core::recovery`.
///
/// # Errors
///
/// See [`QrDecomposition::new`] and [`QrDecomposition::solve_matrix`].
pub fn lstsq_matrix(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    QrDecomposition::new(a)?.solve_matrix(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn qr_reconstructs_square() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.q().matmul(&qr.r()).approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_reconstructs_tall_random() {
        let a = Matrix::random_uniform(20, 7, -3.0, 3.0, &mut rng());
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.q().matmul(&qr.r()).approx_eq(&a, 1e-9));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = Matrix::random_uniform(15, 6, -1.0, 1.0, &mut rng());
        let q = QrDecomposition::new(&a).unwrap().q();
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = Matrix::random_uniform(10, 5, -1.0, 1.0, &mut rng());
        let r = QrDecomposition::new(&a).unwrap().r();
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0, "R[{i},{j}] must be zero");
            }
        }
    }

    #[test]
    fn solve_square_exact() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        // x = [1, 2] -> b = [4, 7]
        let x = QrDecomposition::new(&a)
            .unwrap()
            .solve(&[4.0, 7.0])
            .unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_overdetermined_recovers_planted_solution() {
        let mut r = rng();
        let a = Matrix::random_uniform(50, 8, -1.0, 1.0, &mut r);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64) - 3.5).collect();
        let b = a.matvec(&x_true);
        let x = QrDecomposition::new(&a).unwrap().solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "got {got}, want {want}");
        }
    }

    #[test]
    fn solve_matrix_right_hand_side() {
        let mut r = rng();
        let a = Matrix::random_uniform(30, 5, -1.0, 1.0, &mut r);
        let x_true = Matrix::random_uniform(5, 3, -2.0, 2.0, &mut r);
        let b = a.matmul(&x_true);
        let x = lstsq_matrix(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-8));
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns() {
        let mut r = rng();
        let a = Matrix::random_uniform(25, 4, -1.0, 1.0, &mut r);
        let b: Vec<f64> = (0..25).map(|i| (i as f64).cos()).collect();
        let x = QrDecomposition::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        let resid: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect();
        // Aᵀ r ≈ 0 is the normal-equation optimality condition.
        let at_r = a.tr_matvec(&resid);
        for v in at_r {
            assert!(v.abs() < 1e-8, "normal equations violated: {v}");
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 5);
        assert!(matches!(
            QrDecomposition::new(&a),
            Err(LinalgError::Underdetermined { rows: 2, cols: 5 })
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            QrDecomposition::new(&Matrix::default()),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn singular_detected_in_solve() {
        // Second column is a multiple of the first -> rank deficient.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(matches!(
            qr.solve(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular)
        ));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(3);
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]);
        // Factorisation itself must not panic even though rank deficient.
        let qr = QrDecomposition::new(&a).unwrap();
        assert!(qr.q().matmul(&qr.r()).approx_eq(&a, 1e-10));
    }
}
