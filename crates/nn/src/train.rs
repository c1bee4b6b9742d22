//! Minibatch SGD training for [`SingleLayerNet`].

use crate::activation::Activation;
use crate::loss::{preactivation_deltas, Loss};
use crate::network::SingleLayerNet;
use crate::{NnError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::Matrix;

/// Hyperparameters for stochastic gradient descent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Step size.
    pub learning_rate: f64,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// L2 weight decay coefficient.
    pub weight_decay: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f64,
    /// Whether to reshuffle the sample order each epoch.
    pub shuffle: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            epochs: 30,
            batch_size: 32,
            lr_decay: 1.0,
            shuffle: true,
        }
    }
}

impl SgdConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::InvalidHyperparameter {
                name: "learning_rate",
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(NnError::InvalidHyperparameter { name: "momentum" });
        }
        if self.weight_decay < 0.0 || !self.weight_decay.is_finite() {
            return Err(NnError::InvalidHyperparameter {
                name: "weight_decay",
            });
        }
        if self.batch_size == 0 {
            return Err(NnError::InvalidHyperparameter { name: "batch_size" });
        }
        if !(self.lr_decay.is_finite() && self.lr_decay > 0.0) {
            return Err(NnError::InvalidHyperparameter { name: "lr_decay" });
        }
        Ok(())
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Full-dataset loss before the first update.
    pub initial_loss: f64,
    /// Full-dataset loss after the last epoch.
    pub final_loss: f64,
    /// Full-dataset loss after each epoch.
    pub epoch_losses: Vec<f64>,
}

/// Computes the full-dataset loss for reporting.
///
/// # Errors
///
/// Propagates forward-pass dimension errors.
pub fn dataset_loss(
    net: &SingleLayerNet,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
) -> Result<f64> {
    let outputs = net.forward_batch(inputs)?;
    Ok(loss.value(&outputs, targets))
}

/// Trains `net` on `dataset` with minibatch SGD against one-hot targets.
///
/// The gradient of the batch loss w.r.t. the weights is
/// `∇W = (1/B) Δᵀ X (+ weight_decay · W)` where `Δ` holds the per-sample
/// pre-activation deltas from [`preactivation_deltas`].
///
/// # Errors
///
/// * [`NnError::EmptyDataset`] if the dataset has no samples.
/// * [`NnError::InputDimMismatch`] if the dataset's feature count differs
///   from the network's input dimension.
/// * [`NnError::InvalidHyperparameter`] for invalid SGD settings.
/// * [`NnError::UnsupportedPairing`] for an invalid activation/loss pair.
pub fn train<R: Rng + ?Sized>(
    net: &mut SingleLayerNet,
    dataset: &xbar_data::Dataset,
    loss: Loss,
    cfg: &SgdConfig,
    rng: &mut R,
) -> Result<TrainReport> {
    let targets = dataset.one_hot_targets();
    train_on_matrices(net, dataset.inputs(), &targets, loss, cfg, rng)
}

/// Trains against explicit input/target matrices. This is the entry point
/// the surrogate attack uses, where targets come from oracle queries
/// rather than ground-truth labels.
///
/// # Errors
///
/// Same conditions as [`train`], plus [`NnError::TargetDimMismatch`] if the
/// target width differs from the network's output dimension.
pub fn train_on_matrices<R: Rng + ?Sized>(
    net: &mut SingleLayerNet,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
    cfg: &SgdConfig,
    rng: &mut R,
) -> Result<TrainReport> {
    cfg.validate()?;
    if inputs.rows() == 0 {
        return Err(NnError::EmptyDataset);
    }
    if inputs.cols() != net.num_inputs() {
        return Err(NnError::InputDimMismatch {
            expected: net.num_inputs(),
            got: inputs.cols(),
        });
    }
    if targets.cols() != net.num_outputs() {
        return Err(NnError::TargetDimMismatch {
            expected: net.num_outputs(),
            got: targets.cols(),
        });
    }
    // Fail fast on an unsupported pairing rather than mid-epoch.
    check_pairing(net.activation(), loss)?;

    let n = inputs.rows();
    let initial_loss = dataset_loss(net, inputs, targets, loss)?;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut lr = cfg.learning_rate;
    let mut velocity = Matrix::zeros(net.num_outputs(), net.num_inputs());
    let mut order: Vec<usize> = (0..n).collect();

    for _epoch in 0..cfg.epochs {
        if cfg.shuffle {
            order.shuffle(rng);
        }
        for chunk in order.chunks(cfg.batch_size) {
            let x = inputs.select_rows(chunk);
            let t = targets.select_rows(chunk);
            let preacts = net.preactivation_batch(&x)?;
            let mut outputs = preacts.clone();
            for i in 0..outputs.rows() {
                net.activation().apply_row(outputs.row_mut(i));
            }
            let deltas = preactivation_deltas(&outputs, &preacts, &t, net.activation(), loss)?;
            let b = chunk.len() as f64;
            // ∇W = (1/B) Δᵀ X.
            let mut grad = deltas
                .matmul_tn(&x)
                .expect("deltas and x have one row per batch sample");
            grad.scale_inplace(1.0 / b);
            if cfg.weight_decay > 0.0 {
                grad.axpy(cfg.weight_decay, net.weights());
            }
            // Momentum update.
            velocity.scale_inplace(cfg.momentum);
            velocity.axpy(-lr, &grad);
            net.weights_mut().axpy(1.0, &velocity);
        }
        lr *= cfg.lr_decay;
        epoch_losses.push(dataset_loss(net, inputs, targets, loss)?);
    }

    Ok(TrainReport {
        initial_loss,
        final_loss: *epoch_losses.last().unwrap_or(&initial_loss),
        epoch_losses,
    })
}

fn check_pairing(activation: Activation, loss: Loss) -> Result<()> {
    match (activation, loss) {
        (Activation::Softmax, Loss::CrossEntropy) => Ok(()),
        (Activation::Softmax, Loss::Mse) | (_, Loss::CrossEntropy) => {
            Err(NnError::UnsupportedPairing {
                activation: activation.name(),
                loss: loss.name(),
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_data::synth::blobs::BlobsConfig;

    #[test]
    fn default_config_is_valid() {
        assert!(SgdConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_hyperparameters_rejected() {
        let base = SgdConfig::default();
        for cfg in [
            SgdConfig {
                learning_rate: 0.0,
                ..base
            },
            SgdConfig {
                learning_rate: f64::NAN,
                ..base
            },
            SgdConfig {
                momentum: 1.0,
                ..base
            },
            SgdConfig {
                momentum: -0.1,
                ..base
            },
            SgdConfig {
                weight_decay: -1.0,
                ..base
            },
            SgdConfig {
                batch_size: 0,
                ..base
            },
            SgdConfig {
                lr_decay: 0.0,
                ..base
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn training_reduces_loss_linear_mse() {
        let ds = BlobsConfig::new(3, 6).num_samples(120).seed(2).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut net = SingleLayerNet::new_random(6, 3, Activation::Identity, &mut rng);
        let report = train(&mut net, &ds, Loss::Mse, &SgdConfig::default(), &mut rng).unwrap();
        assert!(report.final_loss < report.initial_loss * 0.8);
        assert_eq!(report.epoch_losses.len(), 30);
    }

    #[test]
    fn training_reduces_loss_softmax_ce() {
        let ds = BlobsConfig::new(4, 8).num_samples(160).seed(3).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = SingleLayerNet::new_random(8, 4, Activation::Softmax, &mut rng);
        let report = train(
            &mut net,
            &ds,
            Loss::CrossEntropy,
            &SgdConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(report.final_loss < report.initial_loss * 0.5);
    }

    #[test]
    fn trained_net_classifies_blobs_well() {
        let ds = BlobsConfig::new(3, 10).num_samples(300).seed(4).generate();
        let split = ds.split_frac(0.8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = SingleLayerNet::new_random(10, 3, Activation::Softmax, &mut rng);
        train(
            &mut net,
            &split.train,
            Loss::CrossEntropy,
            &SgdConfig::default(),
            &mut rng,
        )
        .unwrap();
        let preds = net.predict_batch(split.test.inputs()).unwrap();
        let acc = accuracy(&preds, split.test.labels());
        assert!(acc > 0.9, "blob accuracy too low: {acc}");
    }

    #[test]
    fn zero_epochs_is_a_noop() {
        let ds = BlobsConfig::new(2, 4).num_samples(20).seed(6).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = SingleLayerNet::new_random(4, 2, Activation::Identity, &mut rng);
        let w_before = net.weights().clone();
        let cfg = SgdConfig {
            epochs: 0,
            ..SgdConfig::default()
        };
        let report = train(&mut net, &ds, Loss::Mse, &cfg, &mut rng).unwrap();
        assert_eq!(report.initial_loss, report.final_loss);
        assert_eq!(net.weights(), &w_before);
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = SingleLayerNet::new_random(4, 2, Activation::Identity, &mut rng);
        let inputs = Matrix::zeros(0, 4);
        let targets = Matrix::zeros(0, 2);
        assert!(matches!(
            train_on_matrices(
                &mut net,
                &inputs,
                &targets,
                Loss::Mse,
                &SgdConfig::default(),
                &mut rng
            ),
            Err(NnError::EmptyDataset)
        ));
    }

    #[test]
    fn unsupported_pairing_rejected_up_front() {
        let ds = BlobsConfig::new(2, 4).num_samples(10).seed(7).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut net = SingleLayerNet::new_random(4, 2, Activation::Softmax, &mut rng);
        assert!(matches!(
            train(&mut net, &ds, Loss::Mse, &SgdConfig::default(), &mut rng),
            Err(NnError::UnsupportedPairing { .. })
        ));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let ds = BlobsConfig::new(2, 4).num_samples(40).seed(8).generate();
        let run = |wd: f64| -> f64 {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut net = SingleLayerNet::new_random(4, 2, Activation::Identity, &mut rng);
            let cfg = SgdConfig {
                weight_decay: wd,
                ..SgdConfig::default()
            };
            train(&mut net, &ds, Loss::Mse, &cfg, &mut rng).unwrap();
            net.weights().fro_norm()
        };
        assert!(run(0.5) < run(0.0));
    }

    #[test]
    fn sgd_gradient_matches_finite_differences() {
        // One full-batch step with lr ε should change the loss by about
        // -ε‖∇‖² for small ε.
        let ds = BlobsConfig::new(2, 3).num_samples(16).seed(9).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net0 = SingleLayerNet::new_random(3, 2, Activation::Identity, &mut rng);
        let targets = ds.one_hot_targets();
        let l0 = dataset_loss(&net0, ds.inputs(), &targets, Loss::Mse).unwrap();
        let eps = 1e-4;
        let cfg = SgdConfig {
            learning_rate: eps,
            momentum: 0.0,
            weight_decay: 0.0,
            epochs: 1,
            batch_size: 16,
            lr_decay: 1.0,
            shuffle: false,
        };
        let mut net1 = net0.clone();
        train(&mut net1, &ds, Loss::Mse, &cfg, &mut rng).unwrap();
        let l1 = dataset_loss(&net1, ds.inputs(), &targets, Loss::Mse).unwrap();
        // Gradient norm² from the weight change: ΔW = -ε ∇.
        let dw = &net1.weights().clone() - net0.weights();
        let grad_norm2 = dw.fro_norm().powi(2) / (eps * eps);
        let predicted_drop = eps * grad_norm2;
        let actual_drop = l0 - l1;
        assert!(
            (actual_drop - predicted_drop).abs() < 0.05 * predicted_drop.max(1e-12),
            "actual {actual_drop} vs predicted {predicted_drop}"
        );
    }
}
