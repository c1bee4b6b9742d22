use std::fmt;

/// Errors produced by the attack library.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// A linear-algebra failure in a recovery or surrogate step.
    Linalg(xbar_linalg::LinalgError),
    /// A network-level failure (dimension mismatch, bad pairing, ...).
    Nn(xbar_nn::NnError),
    /// A crossbar-simulation failure.
    Crossbar(xbar_crossbar::CrossbarError),
    /// A fault-injection failure (bad spec, plan/array shape mismatch).
    Faults(xbar_faults::FaultsError),
    /// A statistics failure while aggregating results.
    Stats(xbar_stats::StatsError),
    /// The oracle's query budget was exhausted.
    QueryBudgetExhausted {
        /// The configured budget.
        budget: usize,
    },
    /// The oracle does not expose the output access level the attack
    /// needs (e.g. raw-output recovery against a label-only oracle).
    InsufficientAccess {
        /// What the attack needed.
        needed: &'static str,
    },
    /// An attack parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
    },
    /// A query sample's length differs from the victim's input count.
    InputLength {
        /// Index of the sample in its batch.
        sample: usize,
        /// The victim's input count.
        expected: usize,
        /// The sample's length.
        got: usize,
    },
    /// A query sample holds a NaN or infinite element.
    NonFiniteInput {
        /// Index of the sample in its batch.
        sample: usize,
        /// Index of the element in the sample.
        element: usize,
    },
    /// An I/O failure while persisting or loading attack artifacts.
    Io(std::io::Error),
    /// A (de)serialisation failure while persisting or loading artifacts.
    Serde(serde_json::Error),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            AttackError::Nn(e) => write!(f, "network error: {e}"),
            AttackError::Crossbar(e) => write!(f, "crossbar error: {e}"),
            AttackError::Faults(e) => write!(f, "fault-injection error: {e}"),
            AttackError::Stats(e) => write!(f, "statistics error: {e}"),
            AttackError::QueryBudgetExhausted { budget } => {
                write!(f, "oracle query budget of {budget} exhausted")
            }
            AttackError::InsufficientAccess { needed } => {
                write!(f, "oracle does not expose {needed}")
            }
            AttackError::InvalidParameter { name } => {
                write!(f, "attack parameter {name} is outside its valid domain")
            }
            AttackError::InputLength {
                sample,
                expected,
                got,
            } => write!(
                f,
                "query sample {sample} has {got} elements, the victim takes {expected}"
            ),
            AttackError::NonFiniteInput { sample, element } => {
                write!(f, "query sample {sample} element {element} is not finite")
            }
            AttackError::Io(e) => write!(f, "i/o error: {e}"),
            AttackError::Serde(e) => write!(f, "serialisation error: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Linalg(e) => Some(e),
            AttackError::Nn(e) => Some(e),
            AttackError::Crossbar(e) => Some(e),
            AttackError::Faults(e) => Some(e),
            AttackError::Stats(e) => Some(e),
            AttackError::Io(e) => Some(e),
            AttackError::Serde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xbar_linalg::LinalgError> for AttackError {
    fn from(e: xbar_linalg::LinalgError) -> Self {
        AttackError::Linalg(e)
    }
}

impl From<xbar_nn::NnError> for AttackError {
    fn from(e: xbar_nn::NnError) -> Self {
        AttackError::Nn(e)
    }
}

impl From<xbar_crossbar::CrossbarError> for AttackError {
    fn from(e: xbar_crossbar::CrossbarError) -> Self {
        AttackError::Crossbar(e)
    }
}

impl From<xbar_faults::FaultsError> for AttackError {
    fn from(e: xbar_faults::FaultsError) -> Self {
        AttackError::Faults(e)
    }
}

impl From<xbar_stats::StatsError> for AttackError {
    fn from(e: xbar_stats::StatsError) -> Self {
        AttackError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = AttackError::from(xbar_linalg::LinalgError::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
        let e = AttackError::QueryBudgetExhausted { budget: 10 };
        assert!(e.to_string().contains("10"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttackError>();
    }
}
