use crate::{LinalgError, Result};
use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Minimum number of rows before [`Matrix::matmul`] fans its rows out
/// over [`crate::par`] (one run per core). Below this the sequential
/// kernel is faster.
const PAR_ROW_THRESHOLD: usize = 64;

/// Runs `kernel(offset, run)` over contiguous runs of the `cols`-wide
/// rows of the row-major buffer `out`, where `offset` is the index of
/// `run[0]`: one inline run below `PAR_ROW_THRESHOLD` rows, otherwise
/// one run per core.
fn for_each_row_run<F>(out: &mut [f64], cols: usize, kernel: F)
where
    F: Fn(usize, &mut [&mut [f64]]) + Sync,
{
    let mut rows: Vec<&mut [f64]> = out.chunks_mut(cols.max(1)).collect();
    let threads = if rows.len() < PAR_ROW_THRESHOLD { 1 } else { 0 };
    crate::par::for_each_run(&mut rows, threads, kernel);
}

/// One standard-normal draw by the Box–Muller transform, keeping only
/// the cosine of the pair (avoids a `rand_distr` dependency). Device and
/// measurement noise, fault variation, priors, MCMC proposals and the
/// synthetic data generators all call this one copy; the committed
/// artifacts depend on its exact expression, bit for bit.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the whole workspace: datasets are stored as
/// `samples x features` matrices, network weights as `outputs x inputs`
/// matrices (matching the paper's `M x N` weight matrix `W`), and crossbar
/// conductances as a pair of matrices `G+` and `G-`.
///
/// # Example
///
/// ```
/// use xbar_linalg::Matrix;
///
/// let w = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
/// let norms = w.col_l1_norms();
/// assert_eq!(norms, vec![1.5, 5.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix::filled(rows, cols, 1.0)
    }

    /// Creates a `rows x cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has wrong length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Creates a matrix whose entries are drawn i.i.d. uniformly from
    /// `[lo, hi)` using the supplied RNG.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Self {
        let dist = rand::distributions::Uniform::new(lo, hi);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose entries are drawn i.i.d. from a normal
    /// distribution with the given mean and standard deviation.
    pub fn random_normal<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        rng: &mut R,
    ) -> Self {
        // Box-Muller transform; avoids a rand_distr dependency.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < rows * cols {
                data.push(mean + std * r * theta.sin());
            }
        }
        Matrix { rows, cols, data }
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(i, j)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Immutable view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let c = self.cols;
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrites column `j` with the values in `v`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()` or `v.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Iterator over the rows of the matrix as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The underlying row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    // ------------------------------------------------------------------
    // Elementwise operations
    // ------------------------------------------------------------------

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Returns a new matrix `f(self[i,j], other[i,j])`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn zip_map<F: Fn(f64, f64) -> f64>(&self, other: &Matrix, f: F) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "zip_map",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns the matrix scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += alpha * other` (matrix AXPY).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    // ------------------------------------------------------------------
    // Linear-algebra operations
    // ------------------------------------------------------------------

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// Uses a cache-friendly `ikj` kernel, parallelised over row blocks
    /// with [`crate::par`] once the output has at least `PAR_ROW_THRESHOLD`
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions must agree");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        for_each_row_run(&mut out, n, |offset, run| {
            for (i, out_row) in (offset..).zip(run.iter_mut()) {
                let a_row = &self.data[i * k..(i + 1) * k];
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0.0 {
                        continue;
                    }
                    let b_row = &other.data[p * n..(p + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a_ip * b;
                    }
                }
            }
        });
        Matrix {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Product with a transposed right-hand side: `self * otherᵀ`, where
    /// `self` is `m x k` and `other` is `n x k`, without forming the
    /// transpose.
    ///
    /// Runs on the register-tiled [`crate::vec_ops::dot_tile`] kernel
    /// (the rows of `self` as its samples, the rows of `other` as its
    /// weight rows). Every output entry is still one row-row
    /// [`crate::vec_ops::dot`] — the same full-length ascending-index
    /// reduction [`Matrix::matvec`] performs; the tile only computes 48
    /// (AVX2) or 16 such sums side by side — so `a.matmul_nt(&b)` row `i` is
    /// bit-identical to `b.matvec(a.row(i))`. Batch evaluation paths rely
    /// on this to stay bit-identical to their per-vector counterparts.
    /// Rows are independent, so the row split above `PAR_ROW_THRESHOLD`
    /// cannot change results.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column counts
    /// (the shared inner dimension) differ.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, n) = (self.rows, other.rows);
        let mut out = vec![0.0; m * n];
        let samples: Vec<&[f64]> = (0..m).map(|i| self.row(i)).collect();
        for_each_row_run(&mut out, n, |offset, run| {
            crate::vec_ops::dot_tile(&other.data, &samples[offset..offset + run.len()], run);
        });
        Ok(Matrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Product with a transposed left-hand side: `selfᵀ * other`, where
    /// `self` is `k x m` and `other` is `k x n`, without forming the
    /// transpose.
    ///
    /// Used by the SGD trainers for the gradient `Δᵀ·X` so no `k x m`
    /// transpose is materialised per minibatch. Accumulates over `k` in
    /// ascending order with contiguous row accesses on both operands.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row counts (the
    /// shared inner dimension) differ.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, n) = (self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        for (a_row, b_row) in self.rows_iter().zip(other.rows_iter()) {
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(Matrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec: length mismatch");
        self.rows_iter()
            .map(|row| crate::vec_ops::dot(row, v))
            .collect()
    }

    /// Transposed matrix-vector product `selfᵀ * v` without forming the
    /// transpose.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "tr_matvec: length mismatch");
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in self.rows_iter().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for (o, &r) in out.iter_mut().zip(row) {
                *o += vi * r;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Norms and reductions
    // ------------------------------------------------------------------

    /// The 1-norms of each column: `‖W[:,j]‖₁ = Σ_i |w_ij|`.
    ///
    /// This is exactly the quantity the paper shows is leaked by the
    /// crossbar's total current (Eq. 5–6).
    pub fn col_l1_norms(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x.abs();
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty matrix");
        self.sum() / self.len() as f64
    }

    /// Per-column means, as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        let n = self.rows.max(1) as f64;
        for o in &mut out {
            *o /= n;
        }
        out
    }

    // ------------------------------------------------------------------
    // Slicing and stacking
    // ------------------------------------------------------------------

    /// Copies rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Builds a new matrix from the given row indices (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Places `other` to the right of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// Returns `true` if `self` and `other` have the same shape and all
    /// entries differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Default for Matrix {
    /// The empty `0 x 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.rows_iter().take(max_rows).enumerate() {
            write!(f, "  row {i}: [")?;
            for (j, x) in row.iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x:.4}")?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
            .expect("add: shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
            .expect("sub: shape mismatch")
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn zeros_ones_filled() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Matrix::ones(3, 2);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
        let f = Matrix::filled(1, 4, 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random_uniform(5, 3, -1.0, 1.0, &mut rng());
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_entries() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t[(0, 2)], 5.0);
        assert_eq!(t[(1, 0)], 2.0);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::random_uniform(4, 7, -2.0, 2.0, &mut rng());
        assert!(a.matmul(&Matrix::identity(7)).approx_eq(&a, 1e-12));
        assert!(Matrix::identity(4).matmul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_parallel_matches_sequential() {
        // Exceeds PAR_ROW_THRESHOLD so the parallel path is exercised.
        let mut r = rng();
        let a = Matrix::random_uniform(100, 40, -1.0, 1.0, &mut r);
        let b = Matrix::random_uniform(40, 30, -1.0, 1.0, &mut r);
        let par = a.matmul(&b);
        // Sequential reference.
        let mut seq = Matrix::zeros(100, 30);
        for i in 0..100 {
            for j in 0..30 {
                let mut s = 0.0;
                for p in 0..40 {
                    s += a[(i, p)] * b[(p, j)];
                }
                seq[(i, j)] = s;
            }
        }
        assert!(par.approx_eq(&seq, 1e-10));
    }

    #[test]
    #[should_panic(expected = "matmul: inner dimensions must agree")]
    fn matmul_panics_on_mismatch() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(4, 2));
    }

    #[test]
    fn matvec_and_tr_matvec_agree_with_matmul() {
        let mut r = rng();
        let a = Matrix::random_uniform(6, 4, -1.0, 1.0, &mut r);
        let v: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let got = a.matvec(&v);
        let want = a.matmul(&Matrix::from_vec(4, 1, v.clone()));
        for (i, &g) in got.iter().enumerate() {
            assert!((g - want[(i, 0)]).abs() < 1e-12);
        }
        let u: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let got_t = a.tr_matvec(&u);
        let want_t = a.transpose().matvec(&u);
        for (g, w) in got_t.iter().zip(&want_t) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_and_matvec() {
        let mut r = rng();
        // Exceeds PAR_ROW_THRESHOLD so the parallel path is exercised.
        let a = Matrix::random_uniform(70, 9, -1.0, 1.0, &mut r);
        let b = Matrix::random_uniform(5, 9, -1.0, 1.0, &mut r);
        let got = a.matmul_nt(&b).unwrap();
        assert_eq!(got.shape(), (70, 5));
        assert!(got.approx_eq(&a.matmul(&b.transpose()), 1e-12));
        // Bit-identity with the per-vector path, not just approximate.
        for i in 0..a.rows() {
            assert_eq!(got.row(i), b.matvec(a.row(i)).as_slice());
        }
        assert!(a.matmul_nt(&Matrix::zeros(5, 8)).is_err());
    }

    #[test]
    fn matmul_nt_matches_dot_cell_by_cell_on_ragged_shapes() {
        let mut r = rng();
        // Row counts on both sides cross the 4x4 and 6x8 tiles, their
        // one-row tiles and plain-dot sample remainders; 70 rows also cross the
        // parallel split; k = 0 is the empty reduction.
        for (m, n, k) in [
            (1, 1, 1),
            (3, 5, 7),
            (9, 10, 13),
            (70, 6, 5),
            (6, 9, 0),
            (0, 4, 3),
            (5, 0, 3),
        ] {
            let a = Matrix::random_uniform(m, k, -1.0, 1.0, &mut r);
            let b = Matrix::random_uniform(n, k, -1.0, 1.0, &mut r);
            let got = a.matmul_nt(&b).unwrap();
            assert_eq!(got.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    let want = crate::vec_ops::dot(a.row(i), b.row(j));
                    assert_eq!(
                        got[(i, j)].to_bits(),
                        want.to_bits(),
                        "{m}x{n}x{k} ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut r = rng();
        let a = Matrix::random_uniform(9, 4, -1.0, 1.0, &mut r);
        let b = Matrix::random_uniform(9, 6, -1.0, 1.0, &mut r);
        let got = a.matmul_tn(&b).unwrap();
        assert_eq!(got.shape(), (4, 6));
        assert!(got.approx_eq(&a.transpose().matmul(&b), 1e-12));
        assert!(a.matmul_tn(&Matrix::zeros(8, 6)).is_err());
    }

    #[test]
    fn col_l1_norms_known() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]);
        assert_eq!(m.col_l1_norms(), vec![4.0, 2.5]);
    }

    #[test]
    fn fro_norm_and_max_abs() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn sum_mean_col_means() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    fn zip_map_checks_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, -1.0]]);
        let prod = a.zip_map(&b, |x, y| x * y).unwrap();
        assert_eq!(prod, Matrix::from_rows(&[&[3.0, -2.0]]));
        assert!(a.zip_map(&Matrix::zeros(2, 2), |x, y| x * y).is_err());
    }

    #[test]
    fn slice_and_select_rows() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s, Matrix::from_rows(&[&[1.0], &[2.0]]));
        let sel = m.select_rows(&[3, 0, 3]);
        assert_eq!(sel, Matrix::from_rows(&[&[3.0], &[0.0], &[3.0]]));
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(
            a.hstack(&b).unwrap(),
            Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]])
        );
        assert!(a.hstack(&Matrix::zeros(2, 1)).is_err());
    }

    #[test]
    fn operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[1.5, 1.0]]));
        assert_eq!(&a - &b, Matrix::from_rows(&[&[0.5, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(-&a, Matrix::from_rows(&[&[-1.0, -2.0]]));
        let mut c = a.clone();
        c += &b;
        assert_eq!(c, Matrix::from_rows(&[&[1.5, 1.0]]));
        c -= &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn standard_normal_matches_the_inline_box_muller_bit_for_bit() {
        // Known answer: the expression every caller used to inline.
        let mut inline = ChaCha8Rng::seed_from_u64(0x5EED);
        let mut shared = ChaCha8Rng::seed_from_u64(0x5EED);
        for _ in 0..4096 {
            let u1: f64 = inline.gen_range(f64::EPSILON..1.0);
            let u2: f64 = inline.gen_range(0.0..1.0);
            let want = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(standard_normal(&mut shared).to_bits(), want.to_bits());
        }
        // Both streams consumed the same number of words.
        assert_eq!(inline.gen::<u64>(), shared.gen::<u64>());
    }

    #[test]
    fn random_normal_moments() {
        let m = Matrix::random_normal(200, 200, 1.0, 2.0, &mut rng());
        let mean = m.mean();
        let var = m.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn random_uniform_bounds() {
        let m = Matrix::random_uniform(50, 50, -0.5, 0.5, &mut rng());
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(s.contains("Matrix 1x1"));
        let e = format!("{:?}", Matrix::default());
        assert!(!e.is_empty());
    }

    #[test]
    fn matrix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
    }
}
