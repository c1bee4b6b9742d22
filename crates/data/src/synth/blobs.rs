//! Gaussian-blob toy dataset for fast unit and integration tests.

use crate::Dataset;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_linalg::{standard_normal, Matrix};

/// Builder for an isotropic Gaussian-blob classification dataset with
/// features squashed into `[0, 1]` (so it can stand in for image-like
/// crossbar inputs in tests).
///
/// # Example
///
/// ```
/// use xbar_data::synth::blobs::BlobsConfig;
///
/// let ds = BlobsConfig::new(3, 5).num_samples(30).seed(1).generate();
/// assert_eq!(ds.num_classes(), 3);
/// assert_eq!(ds.num_features(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobsConfig {
    num_classes: usize,
    num_features: usize,
    num_samples: usize,
    seed: u64,
    /// Standard deviation of each blob around its centre.
    spread: f64,
}

impl BlobsConfig {
    /// Creates a config for `num_classes` blobs in `num_features`
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `num_features == 0`.
    pub fn new(num_classes: usize, num_features: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(num_features > 0, "need at least one feature");
        BlobsConfig {
            num_classes,
            num_features,
            num_samples: 100,
            seed: 0,
            spread: 0.08,
        }
    }

    /// Sets the number of samples.
    pub fn num_samples(mut self, n: usize) -> Self {
        self.num_samples = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-blob standard deviation (larger = harder problem).
    pub fn spread(mut self, s: f64) -> Self {
        self.spread = s;
        self
    }

    /// Generates the dataset (balanced classes, shuffled).
    pub fn generate(&self) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        // Class centres drawn once, away from the clamp boundary.
        let centers =
            Matrix::random_uniform(self.num_classes, self.num_features, 0.25, 0.75, &mut rng);
        let mut inputs = Matrix::zeros(self.num_samples, self.num_features);
        let mut labels = Vec::with_capacity(self.num_samples);
        for i in 0..self.num_samples {
            let class = i % self.num_classes;
            labels.push(class);
            let row = inputs.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                let n = standard_normal(&mut rng);
                *v = (centers[(class, j)] + self.spread * n).clamp(0.0, 1.0);
            }
        }
        let mut ds = Dataset::new(inputs, labels, self.num_classes)
            .expect("generator produces consistent samples");
        ds.shuffle(&mut rng);
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = BlobsConfig::new(3, 4).num_samples(12).seed(2).generate();
        let b = BlobsConfig::new(3, 4).num_samples(12).seed(2).generate();
        assert_eq!(a.inputs(), b.inputs());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn balanced_and_bounded() {
        let ds = BlobsConfig::new(4, 3).num_samples(40).seed(1).generate();
        assert_eq!(ds.class_counts(), vec![10; 4]);
        assert!(ds
            .inputs()
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn tight_spread_clusters_separate() {
        let ds = BlobsConfig::new(2, 8)
            .num_samples(60)
            .seed(3)
            .spread(0.01)
            .generate();
        // Nearest-centroid classification should be perfect.
        let mean_of = |class: usize| -> Vec<f64> {
            let idx: Vec<usize> = (0..ds.len()).filter(|&i| ds.label(i) == class).collect();
            ds.subset(&idx).inputs().col_means()
        };
        let m: Vec<Vec<f64>> = (0..2).map(mean_of).collect();
        for i in 0..ds.len() {
            let d = |c: usize| -> f64 {
                ds.input(i)
                    .iter()
                    .zip(&m[c])
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum()
            };
            let pred = if d(0) < d(1) { 0 } else { 1 };
            assert_eq!(pred, ds.label(i));
        }
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_rejected() {
        let _ = BlobsConfig::new(0, 3);
    }
}
