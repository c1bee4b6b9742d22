use std::fmt;

/// Errors produced by the linear-algebra routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// The matrix is singular (or numerically so) and cannot be factorised
    /// or inverted.
    Singular,
    /// Cholesky factorisation was attempted on a matrix that is not
    /// (numerically) symmetric positive definite.
    NotPositiveDefinite,
    /// An operation that requires at least one element was given an empty
    /// matrix or slice.
    Empty,
    /// A least-squares problem was underdetermined where an overdetermined
    /// or square system was required.
    Underdetermined {
        /// Number of equations (rows).
        rows: usize,
        /// Number of unknowns (columns).
        cols: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty operand"),
            LinalgError::Underdetermined { rows, cols } => write!(
                f,
                "system is underdetermined: {rows} equations for {cols} unknowns"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (2, 3),
                rhs: (4, 5),
            },
            LinalgError::NotSquare { shape: (2, 3) },
            LinalgError::Singular,
            LinalgError::NotPositiveDefinite,
            LinalgError::Empty,
            LinalgError::Underdetermined { rows: 3, cols: 7 },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
