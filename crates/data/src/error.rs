use std::fmt;

/// Errors produced by dataset construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// Labels and inputs disagree about the number of samples.
    SampleCountMismatch {
        /// Rows in the input matrix.
        inputs: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A label value is out of range for the declared number of classes.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes declared.
        num_classes: usize,
    },
    /// The declared image shape does not match the feature dimension.
    ShapeMismatch {
        /// Features per sample in the input matrix.
        features: usize,
        /// `height * width * channels` of the declared shape.
        shape_len: usize,
    },
    /// A split fraction or index was out of range.
    InvalidSplit {
        /// The offending boundary.
        at: usize,
        /// The dataset size.
        len: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::SampleCountMismatch { inputs, labels } => {
                write!(f, "input rows ({inputs}) and labels ({labels}) disagree")
            }
            DataError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            DataError::ShapeMismatch {
                features,
                shape_len,
            } => write!(
                f,
                "feature dimension {features} does not match image shape length {shape_len}"
            ),
            DataError::InvalidSplit { at, len } => {
                write!(f, "split boundary {at} out of range for {len} samples")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let e = DataError::SampleCountMismatch {
            inputs: 3,
            labels: 4,
        };
        assert!(e.to_string().contains('3'));
    }
}
