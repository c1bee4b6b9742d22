//! Classification metrics.

/// Fraction of predictions equal to the labels.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "accuracy: length mismatch");
    assert!(!labels.is_empty(), "accuracy of empty slice");
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_known() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
        assert_eq!(accuracy(&[1], &[0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_validates_lengths() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}
