//! Multi-layer perceptron — the paper's stated future-work extension.
//!
//! The paper attacks single-layer networks and calls out multi-layer
//! models as future work (Sec. V). This module provides that extension so
//! the attack pipeline can be exercised against deeper oracles: a plain
//! MLP with elementwise hidden activations, trained by backpropagation,
//! exposing the same input-gradient interface the attacks need.
//!
//! On a crossbar, each [`DenseLayer`] occupies one crossbar array, and the
//! total power is the sum of the per-layer Eq. 5 terms — which is why the
//! first layer's column 1-norms still dominate the input-dependent power
//! signal (the deeper layers see activations, not raw inputs).

use crate::activation::Activation;
use crate::loss::{preactivation_deltas, Loss};
use crate::train::SgdConfig;
use crate::{NnError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::Matrix;

/// One dense layer of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with fan-in-scaled random uniform weights.
    pub fn new_random<R: Rng + ?Sized>(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let r = 1.0 / (inputs.max(1) as f64).sqrt();
        DenseLayer {
            weights: Matrix::random_uniform(outputs, inputs, -r, r, rng),
            bias: vec![0.0; outputs],
            activation,
        }
    }

    /// The `outputs x inputs` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Input dimension.
    pub fn num_inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    pub fn num_outputs(&self) -> usize {
        self.weights.rows()
    }

    fn preactivation(&self, x: &Matrix) -> Matrix {
        let mut s = x.matmul(&self.weights.transpose());
        for i in 0..s.rows() {
            for (v, b) in s.row_mut(i).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        s
    }
}

/// A multi-layer perceptron.
///
/// # Example
///
/// ```
/// use xbar_nn::activation::Activation;
/// use xbar_nn::mlp::Mlp;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mlp = Mlp::new_random(&[8, 16, 3], Activation::Relu, Activation::Softmax, &mut rng)?;
/// assert_eq!(mlp.num_inputs(), 8);
/// assert_eq!(mlp.num_outputs(), 3);
/// # Ok::<(), xbar_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths (`sizes[0]` inputs
    /// through `sizes.last()` outputs), elementwise `hidden` activation,
    /// and the given `output` activation.
    ///
    /// # Errors
    ///
    /// * [`NnError::InvalidHyperparameter`] if fewer than two sizes are
    ///   given or the hidden activation is softmax (not elementwise).
    pub fn new_random<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Result<Self> {
        if sizes.len() < 2 {
            return Err(NnError::InvalidHyperparameter { name: "sizes" });
        }
        if !hidden.is_elementwise() {
            return Err(NnError::InvalidHyperparameter { name: "hidden" });
        }
        let last = sizes.len() - 2;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last { output } else { hidden };
                DenseLayer::new_random(w[0], w[1], act, rng)
            })
            .collect();
        Ok(Mlp { layers })
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Input dimension.
    pub fn num_inputs(&self) -> usize {
        self.layers.first().map_or(0, DenseLayer::num_inputs)
    }

    /// Output dimension.
    pub fn num_outputs(&self) -> usize {
        self.layers.last().map_or(0, DenseLayer::num_outputs)
    }

    /// Forward pass returning per-layer `(preactivations, outputs)` caches;
    /// the last cache entry's outputs are the network outputs.
    fn forward_cached(&self, inputs: &Matrix) -> Result<Vec<(Matrix, Matrix)>> {
        if inputs.cols() != self.num_inputs() {
            return Err(NnError::InputDimMismatch {
                expected: self.num_inputs(),
                got: inputs.cols(),
            });
        }
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut x = inputs.clone();
        for layer in &self.layers {
            let s = layer.preactivation(&x);
            let mut a = s.clone();
            for i in 0..a.rows() {
                layer.activation.apply_row(a.row_mut(i));
            }
            x = a.clone();
            caches.push((s, a));
        }
        Ok(caches)
    }

    /// Network outputs for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] on a feature-count mismatch.
    pub fn forward_batch(&self, inputs: &Matrix) -> Result<Matrix> {
        Ok(self
            .forward_cached(inputs)?
            .pop()
            .map(|(_, a)| a)
            .unwrap_or_default())
    }

    /// Predicted labels for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] on a feature-count mismatch.
    pub fn predict_batch(&self, inputs: &Matrix) -> Result<Vec<usize>> {
        let out = self.forward_batch(inputs)?;
        Ok((0..out.rows())
            .map(|i| xbar_linalg::vec_ops::argmax(out.row(i)))
            .collect())
    }

    /// Per-layer deltas for a batch, output layer last.
    fn backward_deltas(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        caches: &[(Matrix, Matrix)],
    ) -> Result<Vec<Matrix>> {
        let _ = inputs;
        let (out_s, out_a) = caches.last().expect("at least one layer");
        let mut deltas = vec![Matrix::default(); self.layers.len()];
        let last = self.layers.len() - 1;
        deltas[last] =
            preactivation_deltas(out_a, out_s, targets, self.layers[last].activation, loss)?;
        for l in (0..last).rev() {
            // δ_l = (δ_{l+1} W_{l+1}) ⊙ f'(s_l)
            let upstream = deltas[l + 1].matmul(self.layers[l + 1].weights());
            let (s_l, _) = &caches[l];
            let act = self.layers[l].activation;
            deltas[l] = Matrix::from_fn(upstream.rows(), upstream.cols(), |i, j| {
                upstream[(i, j)] * act.derivative(s_l[(i, j)])
            });
        }
        Ok(deltas)
    }

    /// Gradient of the per-sample loss w.r.t. each input row
    /// (`samples x inputs`) — the MLP counterpart of
    /// [`crate::sensitivity::batch_input_gradients`], used to run FGSM
    /// against deep oracles.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward dimension and pairing errors.
    pub fn batch_input_gradients(
        &self,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
    ) -> Result<Matrix> {
        let caches = self.forward_cached(inputs)?;
        let deltas = self.backward_deltas(inputs, targets, loss, &caches)?;
        Ok(deltas[0].matmul(self.layers[0].weights()))
    }

    /// Sum over layers of the per-layer weight-column 1-norms, padded to
    /// the widest layer — the multi-layer analogue of the power-leaked
    /// quantity (each crossbar array contributes its own Eq. 5 term).
    pub fn per_layer_column_l1_norms(&self) -> Vec<Vec<f64>> {
        self.layers
            .iter()
            .map(|l| l.weights.col_l1_norms())
            .collect()
    }
}

/// Trains an MLP with minibatch SGD and classical momentum, the same
/// update [`crate::train::train_on_matrices`] applies to a single layer.
///
/// # Errors
///
/// Mirrors [`crate::train::train_on_matrices`]'s error conditions.
pub fn train_mlp<R: Rng + ?Sized>(
    mlp: &mut Mlp,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
    cfg: &SgdConfig,
    rng: &mut R,
) -> Result<f64> {
    cfg.validate()?;
    if inputs.rows() == 0 {
        return Err(NnError::EmptyDataset);
    }
    let n = inputs.rows();
    let mut lr = cfg.learning_rate;
    // One momentum buffer per layer, for weights and biases.
    let mut velocity: Vec<(Matrix, Vec<f64>)> = mlp
        .layers
        .iter()
        .map(|l| {
            let (rows, cols) = l.weights.shape();
            (Matrix::zeros(rows, cols), vec![0.0; l.bias.len()])
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..cfg.epochs {
        if cfg.shuffle {
            order.shuffle(rng);
        }
        for chunk in order.chunks(cfg.batch_size) {
            let x = inputs.select_rows(chunk);
            let t = targets.select_rows(chunk);
            let caches = mlp.forward_cached(&x)?;
            let deltas = mlp.backward_deltas(&x, &t, loss, &caches)?;
            let b = chunk.len() as f64;
            for l in 0..mlp.layers.len() {
                let layer_input = if l == 0 { &x } else { &caches[l - 1].1 };
                let mut grad = deltas[l].transpose().matmul(layer_input);
                grad.scale_inplace(1.0 / b);
                if cfg.weight_decay > 0.0 {
                    grad.axpy(cfg.weight_decay, &mlp.layers[l].weights);
                }
                let (v_w, v_b) = &mut velocity[l];
                v_w.scale_inplace(cfg.momentum);
                v_w.axpy(-lr, &grad);
                mlp.layers[l].weights.axpy(1.0, v_w);
                for (j, (v, b_j)) in v_b.iter_mut().zip(&mut mlp.layers[l].bias).enumerate() {
                    let g: f64 = deltas[l].col(j).iter().sum::<f64>() / b;
                    *v = cfg.momentum * *v - lr * g;
                    *b_j += *v;
                }
            }
        }
        lr *= cfg.lr_decay;
    }
    let outputs = mlp.forward_batch(inputs)?;
    Ok(loss.value(&outputs, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_data::synth::blobs::BlobsConfig;

    #[test]
    fn construction_validates() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(Mlp::new_random(&[4], Activation::Relu, Activation::Softmax, &mut rng).is_err());
        assert!(
            Mlp::new_random(&[4, 3], Activation::Softmax, Activation::Softmax, &mut rng).is_err()
        );
        let mlp =
            Mlp::new_random(&[4, 8, 3], Activation::Relu, Activation::Softmax, &mut rng).unwrap();
        assert_eq!(mlp.layers().len(), 2);
        assert_eq!(mlp.num_inputs(), 4);
        assert_eq!(mlp.num_outputs(), 3);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp =
            Mlp::new_random(&[5, 7, 2], Activation::Tanh, Activation::Identity, &mut rng).unwrap();
        let x = Matrix::random_uniform(3, 5, 0.0, 1.0, &mut rng);
        let y = mlp.forward_batch(&x).unwrap();
        assert_eq!(y.shape(), (3, 2));
        assert!(mlp.forward_batch(&Matrix::zeros(2, 9)).is_err());
    }

    #[test]
    fn training_learns_blobs() {
        let ds = BlobsConfig::new(3, 6).num_samples(240).seed(11).generate();
        let split = ds.split_frac(0.75).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mlp =
            Mlp::new_random(&[6, 16, 3], Activation::Relu, Activation::Softmax, &mut rng).unwrap();
        let cfg = SgdConfig {
            epochs: 60,
            momentum: 0.0,
            learning_rate: 0.5,
            ..SgdConfig::default()
        };
        let final_loss = train_mlp(
            &mut mlp,
            split.train.inputs(),
            &split.train.one_hot_targets(),
            Loss::CrossEntropy,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert!(final_loss < 0.5, "final loss {final_loss}");
        let preds = mlp.predict_batch(split.test.inputs()).unwrap();
        let acc = accuracy(&preds, split.test.labels());
        assert!(acc > 0.85, "mlp accuracy {acc}");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mlp =
            Mlp::new_random(&[4, 6, 3], Activation::Tanh, Activation::Softmax, &mut rng).unwrap();
        let u = Matrix::row_vector(&[0.4, 0.1, 0.8, 0.3]);
        let t = Matrix::row_vector(&[0.0, 1.0, 0.0]);
        let g = mlp
            .batch_input_gradients(&u, &t, Loss::CrossEntropy)
            .unwrap();
        let h = 1e-6;
        for j in 0..4 {
            let mut up = u.clone();
            up[(0, j)] += h;
            let mut dn = u.clone();
            dn[(0, j)] -= h;
            let lp = Loss::CrossEntropy.value(&mlp.forward_batch(&up).unwrap(), &t);
            let lm = Loss::CrossEntropy.value(&mlp.forward_batch(&dn).unwrap(), &t);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (g[(0, j)] - fd).abs() < 1e-5,
                "input {j}: {} vs {fd}",
                g[(0, j)]
            );
        }
    }

    #[test]
    fn per_layer_norms_have_layer_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mlp =
            Mlp::new_random(&[5, 7, 2], Activation::Relu, Activation::Identity, &mut rng).unwrap();
        let norms = mlp.per_layer_column_l1_norms();
        assert_eq!(norms.len(), 2);
        assert_eq!(norms[0].len(), 5);
        assert_eq!(norms[1].len(), 7);
        assert!(norms.iter().flatten().all(|&v| v >= 0.0));
    }

    #[test]
    fn empty_training_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut mlp =
            Mlp::new_random(&[3, 2], Activation::Relu, Activation::Identity, &mut rng).unwrap();
        assert!(matches!(
            train_mlp(
                &mut mlp,
                &Matrix::zeros(0, 3),
                &Matrix::zeros(0, 2),
                Loss::Mse,
                &SgdConfig::default(),
                &mut rng
            ),
            Err(NnError::EmptyDataset)
        ));
    }
}
