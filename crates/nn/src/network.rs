//! The paper's model: a single dense layer `ŷ = f(W u)`.

use crate::activation::Activation;
use crate::{NnError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::{vec_ops, Matrix};

/// A single-layer neural network with an `outputs x inputs` weight matrix
/// and an output activation — exactly the model of the paper's Eq. 4, and
/// the model an NVM crossbar implements directly.
///
/// There is no bias: the network's pre-activation equals the crossbar's
/// output current vector and its weights fully determine the power
/// signature (Eq. 5). A saved model that carries a `"bias": null` field
/// still loads; the field is ignored.
///
/// # Example
///
/// ```
/// use xbar_nn::activation::Activation;
/// use xbar_nn::network::SingleLayerNet;
/// use xbar_linalg::Matrix;
///
/// let w = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.5]]);
/// let net = SingleLayerNet::from_weights(w, Activation::Identity);
/// let y = net.forward_one(&[1.0, 2.0])?;
/// assert_eq!(y, vec![-1.0, 1.5]);
/// # Ok::<(), xbar_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleLayerNet {
    weights: Matrix,
    activation: Activation,
}

impl SingleLayerNet {
    /// Creates a network from an existing `outputs x inputs` weight matrix.
    pub fn from_weights(weights: Matrix, activation: Activation) -> Self {
        SingleLayerNet {
            weights,
            activation,
        }
    }

    /// Creates a network with small random uniform weights in
    /// `[-r, r]` where `r = 1/sqrt(inputs)` (Xavier-style fan-in scaling).
    pub fn new_random<R: Rng + ?Sized>(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let r = 1.0 / (inputs.max(1) as f64).sqrt();
        SingleLayerNet {
            weights: Matrix::random_uniform(outputs, inputs, -r, r, rng),
            activation,
        }
    }

    /// Input dimension `N`.
    pub fn num_inputs(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension `M`.
    pub fn num_outputs(&self) -> usize {
        self.weights.rows()
    }

    /// The `M x N` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the weights (used by trainers and attacks).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// The output activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Pre-activations `s = W u` for one input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] if `u` has the wrong length.
    pub fn preactivation_one(&self, u: &[f64]) -> Result<Vec<f64>> {
        if u.len() != self.num_inputs() {
            return Err(NnError::InputDimMismatch {
                expected: self.num_inputs(),
                got: u.len(),
            });
        }
        Ok(self.weights.matvec(u))
    }

    /// Output `ŷ = f(s)` for one input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] if `u` has the wrong length.
    pub fn forward_one(&self, u: &[f64]) -> Result<Vec<f64>> {
        let mut s = self.preactivation_one(u)?;
        self.activation.apply_row(&mut s);
        Ok(s)
    }

    /// Pre-activations for a batch (`samples x inputs` → `samples x
    /// outputs`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] on a feature-count mismatch.
    pub fn preactivation_batch(&self, inputs: &Matrix) -> Result<Matrix> {
        if inputs.cols() != self.num_inputs() {
            return Err(NnError::InputDimMismatch {
                expected: self.num_inputs(),
                got: inputs.cols(),
            });
        }
        Ok(inputs
            .matmul_nt(&self.weights)
            .expect("dimensions checked above"))
    }

    /// Outputs for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] on a feature-count mismatch.
    pub fn forward_batch(&self, inputs: &Matrix) -> Result<Matrix> {
        let mut s = self.preactivation_batch(inputs)?;
        for i in 0..s.rows() {
            self.activation.apply_row(s.row_mut(i));
        }
        Ok(s)
    }

    /// Predicted labels for a batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputDimMismatch`] on a feature-count mismatch.
    pub fn predict_batch(&self, inputs: &Matrix) -> Result<Vec<usize>> {
        let out = self.forward_batch(inputs)?;
        Ok((0..out.rows())
            .map(|i| vec_ops::argmax(out.row(i)))
            .collect())
    }

    /// The 1-norms of the weight-matrix columns — the exact quantity the
    /// crossbar's total current leaks (paper Eq. 5–6).
    pub fn column_l1_norms(&self) -> Vec<f64> {
        self.weights.col_l1_norms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_net() -> SingleLayerNet {
        SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 1.0, 1.0]]),
            Activation::Identity,
        )
    }

    #[test]
    fn forward_one_known() {
        let y = toy_net().forward_one(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(y, vec![0.0, 3.0]);
    }

    #[test]
    fn forward_batch_matches_forward_one() {
        let net = toy_net();
        let inputs = Matrix::from_rows(&[&[1.0, 1.0, 2.0], &[0.5, 0.0, -1.0]]);
        let batch = net.forward_batch(&inputs).unwrap();
        for i in 0..2 {
            let one = net.forward_one(inputs.row(i)).unwrap();
            for (a, b) in batch.row(i).iter().zip(&one) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn softmax_head_produces_distribution() {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
            Activation::Softmax,
        );
        let y = net.forward_one(&[0.3, 0.7]).unwrap();
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(y.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn predict_is_argmax() {
        let net = toy_net();
        let labels = net
            .predict_batch(&Matrix::from_rows(&[&[1.0, 1.0, 2.0], &[1.0, -1.0, 0.0]]))
            .unwrap();
        assert_eq!(labels, vec![1, 0]);
    }

    #[test]
    fn dimension_errors() {
        let net = toy_net();
        assert!(matches!(
            net.forward_one(&[1.0]),
            Err(NnError::InputDimMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(net.forward_batch(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn column_l1_norms_known() {
        assert_eq!(toy_net().column_l1_norms(), vec![1.0, 3.0, 1.5]);
    }

    #[test]
    fn random_init_is_fan_in_scaled() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = SingleLayerNet::new_random(100, 10, Activation::Identity, &mut rng);
        let bound = 1.0 / 10.0;
        assert!(net.weights().as_slice().iter().all(|&w| w.abs() <= bound));
        assert!(net.weights().max_abs() > 0.0);
    }
}
