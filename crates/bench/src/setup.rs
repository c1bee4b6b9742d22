//! Shared experiment setup: dataset generation, victim training, and the
//! four (dataset x head) configurations of the paper's evaluation.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_data::synth::digits::{self, DigitsConfig};
use xbar_data::synth::objects::{self, ObjectsConfig};
use xbar_data::{Dataset, ImageShape};
use xbar_nn::activation::Activation;
use xbar_nn::loss::Loss;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::train::{train, SgdConfig};

/// Which procedural dataset stands in for which paper dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// MNIST stand-in: 28x28 grayscale digit glyphs.
    Digits,
    /// CIFAR-10 stand-in: 32x32x3 colour textures.
    Objects,
}

impl DatasetKind {
    /// Display name used in tables (kept alongside the paper's name).
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Digits => "digits (MNIST-like)",
            DatasetKind::Objects => "objects (CIFAR-like)",
        }
    }

    /// The image geometry of every sample.
    pub(crate) fn image_shape(&self) -> ImageShape {
        match self {
            DatasetKind::Digits => ImageShape::new(digits::SIDE, digits::SIDE, 1),
            DatasetKind::Objects => {
                ImageShape::new(objects::SIDE, objects::SIDE, objects::CHANNELS)
            }
        }
    }

    /// Generates `n` samples with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> Dataset {
        match self {
            DatasetKind::Digits => DigitsConfig::default().num_samples(n).seed(seed).generate(),
            DatasetKind::Objects => ObjectsConfig::default()
                .num_samples(n)
                .seed(seed)
                .generate(),
        }
    }
}

/// The two output-head configurations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeadKind {
    /// Linear output trained with MSE loss.
    LinearMse,
    /// Softmax output trained with categorical cross-entropy.
    SoftmaxCe,
}

impl HeadKind {
    /// Display name used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            HeadKind::LinearMse => "Linear",
            HeadKind::SoftmaxCe => "Softmax",
        }
    }

    /// The activation for this head.
    pub fn activation(&self) -> Activation {
        match self {
            HeadKind::LinearMse => Activation::Identity,
            HeadKind::SoftmaxCe => Activation::Softmax,
        }
    }

    /// The training loss for this head.
    pub fn loss(&self) -> Loss {
        match self {
            HeadKind::LinearMse => Loss::Mse,
            HeadKind::SoftmaxCe => Loss::CrossEntropy,
        }
    }
}

/// A trained victim plus its data splits.
#[derive(Debug, Clone)]
pub struct TrainedVictim {
    /// The trained network.
    pub net: SingleLayerNet,
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
    /// Clean test accuracy of the trained network.
    pub test_accuracy: f64,
}

/// Victim-training hyperparameters per head. The linear+MSE head needs a
/// smaller step on the high-dimensional objects dataset (lr 0.05 with
/// momentum diverges there).
pub fn victim_sgd(head: HeadKind) -> SgdConfig {
    match head {
        HeadKind::LinearMse => SgdConfig {
            learning_rate: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
            epochs: 25,
            batch_size: 32,
            lr_decay: 1.0,
            shuffle: true,
        },
        HeadKind::SoftmaxCe => SgdConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            epochs: 25,
            batch_size: 32,
            lr_decay: 1.0,
            shuffle: true,
        },
    }
}

/// Generates data, splits 85/15, and trains a victim for the given
/// configuration. `seed` controls both data generation and training, so
/// independent runs use different seeds.
pub fn train_victim(
    dataset: DatasetKind,
    head: HeadKind,
    num_samples: usize,
    seed: u64,
) -> TrainedVictim {
    let ds = dataset.generate(num_samples, seed);
    let split = ds.split_frac(0.85).expect("fraction in range");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let mut net = SingleLayerNet::new_random(
        ds.num_features(),
        ds.num_classes(),
        head.activation(),
        &mut rng,
    );
    train(
        &mut net,
        &split.train,
        head.loss(),
        &victim_sgd(head),
        &mut rng,
    )
    .expect("victim training is well-configured");
    let preds = net
        .predict_batch(split.test.inputs())
        .expect("shapes agree");
    let test_accuracy = xbar_nn::metrics::accuracy(&preds, split.test.labels());
    TrainedVictim {
        net,
        train: split.train,
        test: split.test,
        test_accuracy,
    }
}

/// The four (dataset, head) configurations of Table I / Fig. 3 / Fig. 4,
/// in the paper's panel order.
pub fn paper_configs() -> [(DatasetKind, HeadKind); 4] {
    [
        (DatasetKind::Digits, HeadKind::LinearMse),
        (DatasetKind::Digits, HeadKind::SoftmaxCe),
        (DatasetKind::Objects, HeadKind::LinearMse),
        (DatasetKind::Objects, HeadKind::SoftmaxCe),
    ]
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`: the
/// host a benchmark report was measured on, next to
/// [`xbar_linalg::par::host_threads`].
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a serialisable result to `path` as pretty JSON, creating parent
/// directories. A run that cannot save its artifact has failed, so every
/// serialisation and I/O failure is returned, never just logged.
pub fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create directory {}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialise results for {path}: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_pairings() {
        assert_eq!(HeadKind::LinearMse.loss(), Loss::Mse);
        assert_eq!(HeadKind::SoftmaxCe.activation(), Activation::Softmax);
        assert!(DatasetKind::Digits.label().contains("MNIST"));
        assert_eq!(paper_configs().len(), 4);
    }

    #[test]
    fn train_victim_produces_reasonable_model() {
        let v = train_victim(DatasetKind::Digits, HeadKind::SoftmaxCe, 600, 1);
        assert!(v.test_accuracy > 0.6, "accuracy {}", v.test_accuracy);
        assert_eq!(v.net.num_inputs(), 784);
        assert_eq!(v.net.num_outputs(), 10);
        assert!(!v.train.is_empty() && !v.test.is_empty());
    }

    #[test]
    fn dataset_generation_shapes() {
        let d = DatasetKind::Digits.generate(20, 2);
        assert_eq!(d.num_features(), 784);
        assert_eq!(d.image_shape(), Some(DatasetKind::Digits.image_shape()));
        let o = DatasetKind::Objects.generate(20, 2);
        assert_eq!(o.num_features(), 3072);
        assert_eq!(o.image_shape(), Some(DatasetKind::Objects.image_shape()));
    }
}
