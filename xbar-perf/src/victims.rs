//! Victim networks and attacker input pools, all generated from the
//! benchmark seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_data::synth::digits::DigitsConfig;
use xbar_data::synth::objects::ObjectsConfig;
use xbar_data::Dataset;
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::loss::Loss;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::train::{train, SgdConfig};

/// The paper's two procedural datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// MNIST stand-in: 28x28 digits, 784 inputs.
    Digits,
    /// CIFAR-10 stand-in: 32x32x3 textures, 3072 inputs.
    Objects,
}

impl Data {
    fn generate(self, samples: usize, seed: u64) -> Dataset {
        match self {
            Data::Digits => DigitsConfig::default()
                .num_samples(samples)
                .seed(seed)
                .generate(),
            Data::Objects => ObjectsConfig::default()
                .num_samples(samples)
                .seed(seed)
                .generate(),
        }
    }
}

/// The paper's two output heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Identity output trained with MSE.
    Linear,
    /// Softmax output trained with cross-entropy.
    Softmax,
}

/// The four (dataset, head) victims of the paper's evaluation.
pub const PAPER_VICTIMS: [(Data, Head); 4] = [
    (Data::Digits, Head::Linear),
    (Data::Digits, Head::Softmax),
    (Data::Objects, Head::Linear),
    (Data::Objects, Head::Softmax),
];

/// A trained victim plus the held-out set its attacks are scored on.
#[derive(Debug, Clone)]
pub struct Victim {
    /// The trained network.
    pub net: SingleLayerNet,
    /// The training loss (the white-box "Worst" attack's gradient).
    pub loss: Loss,
    /// Held-out inputs.
    pub test_inputs: Matrix,
    /// One-hot held-out targets.
    pub test_targets: Matrix,
    /// Held-out labels.
    pub test_labels: Vec<usize>,
}

/// Generates `samples` examples from `seed`, splits 85/15 and trains a
/// victim with the SGD settings of the paper's experiments (the linear
/// head needs the smaller step on the 3072-input objects data).
pub fn train_victim(data: Data, head: Head, samples: usize, seed: u64) -> Result<Victim, String> {
    let ds = data.generate(samples, seed);
    let split = ds.split_frac(0.85).map_err(|e| e.to_string())?;
    let (activation, loss, learning_rate) = match head {
        Head::Linear => (Activation::Identity, Loss::Mse, 0.01),
        Head::Softmax => (Activation::Softmax, Loss::CrossEntropy, 0.05),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let mut net =
        SingleLayerNet::new_random(ds.num_features(), ds.num_classes(), activation, &mut rng);
    let sgd = SgdConfig {
        learning_rate,
        momentum: 0.9,
        weight_decay: 0.0,
        epochs: 25,
        batch_size: 32,
        lr_decay: 1.0,
        shuffle: true,
    };
    train(&mut net, &split.train, loss, &sgd, &mut rng).map_err(|e| e.to_string())?;
    Ok(Victim {
        net,
        loss,
        test_targets: split.test.one_hot_targets(),
        test_inputs: split.test.inputs().clone(),
        test_labels: split.test.labels().to_vec(),
    })
}

/// A `rows x cols` matrix of uniform draws in `[lo, hi)` from `seed`.
pub fn uniform_matrix(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Digit images from `seed` as an attacker's query pool: dense inputs
/// with the victim's own input distribution.
pub fn digit_pool(samples: usize, seed: u64) -> Matrix {
    Data::Digits.generate(samples, seed).inputs().clone()
}
