//! Error type for posterior inference.

use std::fmt;
use xbar_stats::StatsError;

/// Errors produced by the inference subsystem.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InferError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// Two paired inputs disagreed in length or shape.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// An oracle query failed (budget exhaustion, shape errors, …).
    Oracle(String),
    /// A convergence diagnostic failed.
    Stats(StatsError),
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::InvalidParameter { name } => {
                write!(f, "parameter {name} is outside its valid domain")
            }
            InferError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            InferError::Oracle(msg) => write!(f, "oracle query failed: {msg}"),
            InferError::Stats(e) => write!(f, "convergence diagnostic failed: {e}"),
        }
    }
}

impl std::error::Error for InferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InferError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for InferError {
    fn from(e: StatsError) -> Self {
        InferError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_specific() {
        assert!(InferError::InvalidParameter { name: "sigma" }
            .to_string()
            .contains("sigma"));
        assert!(InferError::DimensionMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains('3'));
        let wrapped: InferError = StatsError::ZeroVariance.into();
        assert!(wrapped.to_string().contains("zero-variance"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferError>();
    }
}
