//! Gradient-based evasion attacks: FGSM and iterative PGD.
//!
//! FGSM (paper Eq. 2): `r* = ε · sgn(∇_u L)`. These run against any
//! differentiable [`SingleLayerNet`] — in the black-box pipeline that is
//! the *surrogate*, whose adversarial examples transfer to the oracle.

use crate::{AttackError, Result};
use xbar_linalg::Matrix;
use xbar_nn::loss::Loss;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::sensitivity::batch_input_gradients;

/// Optional box constraint applied after perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoxConstraint {
    /// No clipping (the paper's Fig. 4/5 setting).
    None,
    /// Clamp every feature into `[lo, hi]`.
    Clamp {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl BoxConstraint {
    fn apply(&self, x: &mut Matrix) {
        if let BoxConstraint::Clamp { lo, hi } = *self {
            x.map_inplace(|v| v.clamp(lo, hi));
        }
    }
}

fn validate_eps(eps: f64) -> Result<()> {
    if !(eps.is_finite() && eps >= 0.0) {
        return Err(AttackError::InvalidParameter { name: "eps" });
    }
    Ok(())
}

/// Fast gradient sign method on a batch: returns `U + ε·sgn(∇_U L)`.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for a negative or non-finite `eps`.
/// * Propagates gradient-computation errors.
pub fn fgsm_batch(
    net: &SingleLayerNet,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
    eps: f64,
    constraint: BoxConstraint,
) -> Result<Matrix> {
    validate_eps(eps)?;
    xbar_obs::count(xbar_obs::names::ATTACK_FGSM_BATCH, 1);
    let grads = batch_input_gradients(net, inputs, targets, loss)?;
    let mut adv = inputs
        .zip_map(&grads, |u, g| u + eps * sign(g))
        .expect("gradient shape matches inputs");
    constraint.apply(&mut adv);
    Ok(adv)
}

/// Projected gradient descent (iterated FGSM with an `ℓ∞` ball of radius
/// `eps`, step `alpha`, `steps` iterations) — the standard stronger
/// multi-step extension of Eq. 2.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for invalid `eps`, `alpha`, or
///   `steps == 0`.
/// * Propagates gradient-computation errors.
#[allow(clippy::too_many_arguments)]
pub fn pgd_batch(
    net: &SingleLayerNet,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
    eps: f64,
    alpha: f64,
    steps: usize,
    constraint: BoxConstraint,
) -> Result<Matrix> {
    validate_eps(eps)?;
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err(AttackError::InvalidParameter { name: "alpha" });
    }
    if steps == 0 {
        return Err(AttackError::InvalidParameter { name: "steps" });
    }
    let mut adv = inputs.clone();
    for _ in 0..steps {
        xbar_obs::count(xbar_obs::names::ATTACK_PGD_STEP, 1);
        let grads = batch_input_gradients(net, &adv, targets, loss)?;
        adv = adv
            .zip_map(&grads, |u, g| u + alpha * sign(g))
            .expect("gradient shape matches inputs");
        // Project back into the ℓ∞ ball around the original inputs.
        adv = adv
            .zip_map(inputs, |a, u| a.clamp(u - eps, u + eps))
            .expect("shapes match");
        constraint.apply(&mut adv);
    }
    Ok(adv)
}

/// Targeted FGSM: moves each input *toward* a chosen target class by
/// descending the loss against the target's one-hot row,
/// `U − ε·sgn(∇_U L(U, target))`.
///
/// Used for the paper's targeted-attack framing (stop sign → speed
/// limit): instead of merely leaving the true class, the input is pushed
/// into a specific other class.
///
/// # Errors
///
/// Same conditions as [`fgsm_batch`].
pub fn fgsm_targeted_batch(
    net: &SingleLayerNet,
    inputs: &Matrix,
    target_class: usize,
    loss: Loss,
    eps: f64,
    constraint: BoxConstraint,
) -> Result<Matrix> {
    validate_eps(eps)?;
    if target_class >= net.num_outputs() {
        return Err(AttackError::InvalidParameter {
            name: "target_class",
        });
    }
    let mut targets = Matrix::zeros(inputs.rows(), net.num_outputs());
    for i in 0..inputs.rows() {
        targets[(i, target_class)] = 1.0;
    }
    let grads = batch_input_gradients(net, inputs, &targets, loss)?;
    let mut adv = inputs
        .zip_map(&grads, |u, g| u - eps * sign(g))
        .expect("gradient shape matches inputs");
    constraint.apply(&mut adv);
    Ok(adv)
}

#[inline]
fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_nn::activation::Activation;
    use xbar_nn::train::dataset_loss;

    fn setup() -> (SingleLayerNet, Matrix, Matrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = SingleLayerNet::new_random(6, 3, Activation::Identity, &mut rng);
        let inputs = Matrix::random_uniform(8, 6, 0.0, 1.0, &mut rng);
        let mut targets = Matrix::zeros(8, 3);
        for i in 0..8 {
            targets[(i, i % 3)] = 1.0;
        }
        (net, inputs, targets)
    }

    #[test]
    fn fgsm_increases_loss() {
        let (net, inputs, targets) = setup();
        let before = dataset_loss(&net, &inputs, &targets, Loss::Mse).unwrap();
        let adv = fgsm_batch(&net, &inputs, &targets, Loss::Mse, 0.1, BoxConstraint::None).unwrap();
        let after = dataset_loss(&net, &adv, &targets, Loss::Mse).unwrap();
        assert!(after > before, "{after} should exceed {before}");
    }

    #[test]
    fn fgsm_perturbation_is_linf_bounded() {
        let (net, inputs, targets) = setup();
        let eps = 0.07;
        let adv = fgsm_batch(&net, &inputs, &targets, Loss::Mse, eps, BoxConstraint::None).unwrap();
        let max_dev = (&adv - &inputs).max_abs();
        assert!(max_dev <= eps + 1e-12);
        // Almost all coordinates sit exactly at ±eps (sign attack).
        let at_eps = adv
            .as_slice()
            .iter()
            .zip(inputs.as_slice())
            .filter(|(a, u)| ((*a - *u).abs() - eps).abs() < 1e-12)
            .count();
        assert!(at_eps as f64 > 0.9 * inputs.len() as f64);
    }

    #[test]
    fn zero_eps_is_identity() {
        let (net, inputs, targets) = setup();
        let adv = fgsm_batch(&net, &inputs, &targets, Loss::Mse, 0.0, BoxConstraint::None).unwrap();
        assert!(adv.approx_eq(&inputs, 1e-12));
    }

    #[test]
    fn clamp_constraint_respected() {
        let (net, inputs, targets) = setup();
        let adv = fgsm_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            0.5,
            BoxConstraint::Clamp { lo: 0.0, hi: 1.0 },
        )
        .unwrap();
        assert!(adv.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn pgd_at_least_as_strong_as_fgsm() {
        let (net, inputs, targets) = setup();
        let eps = 0.1;
        let fgsm =
            fgsm_batch(&net, &inputs, &targets, Loss::Mse, eps, BoxConstraint::None).unwrap();
        let pgd = pgd_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            eps,
            eps / 4.0,
            10,
            BoxConstraint::None,
        )
        .unwrap();
        let l_fgsm = dataset_loss(&net, &fgsm, &targets, Loss::Mse).unwrap();
        let l_pgd = dataset_loss(&net, &pgd, &targets, Loss::Mse).unwrap();
        assert!(l_pgd >= l_fgsm * 0.999, "pgd {l_pgd} vs fgsm {l_fgsm}");
        // PGD stays in the ℓ∞ ball.
        assert!((&pgd - &inputs).max_abs() <= eps + 1e-9);
    }

    #[test]
    fn parameter_validation() {
        let (net, inputs, targets) = setup();
        assert!(fgsm_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            -1.0,
            BoxConstraint::None
        )
        .is_err());
        assert!(fgsm_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            f64::INFINITY,
            BoxConstraint::None
        )
        .is_err());
        assert!(pgd_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            0.1,
            0.0,
            5,
            BoxConstraint::None
        )
        .is_err());
        assert!(pgd_batch(
            &net,
            &inputs,
            &targets,
            Loss::Mse,
            0.1,
            0.01,
            0,
            BoxConstraint::None
        )
        .is_err());
    }

    #[test]
    fn targeted_fgsm_raises_target_class_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = SingleLayerNet::new_random(10, 4, Activation::Identity, &mut rng);
        let inputs = Matrix::random_uniform(40, 10, 0.0, 1.0, &mut rng);
        let target = 2usize;
        let rate = |m: &Matrix| -> f64 {
            let preds = net.predict_batch(m).unwrap();
            preds.iter().filter(|&&p| p == target).count() as f64 / preds.len() as f64
        };
        let before = rate(&inputs);
        let adv = fgsm_targeted_batch(&net, &inputs, target, Loss::Mse, 0.5, BoxConstraint::None)
            .unwrap();
        let after = rate(&adv);
        assert!(after > before, "target rate {before} -> {after}");
        // Out-of-range target class rejected.
        assert!(
            fgsm_targeted_batch(&net, &inputs, 9, Loss::Mse, 0.1, BoxConstraint::None).is_err()
        );
    }

    #[test]
    fn softmax_ce_fgsm_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = SingleLayerNet::new_random(5, 3, Activation::Softmax, &mut rng);
        let inputs = Matrix::random_uniform(4, 5, 0.0, 1.0, &mut rng);
        let mut targets = Matrix::zeros(4, 3);
        for i in 0..4 {
            targets[(i, i % 3)] = 1.0;
        }
        let before = dataset_loss(&net, &inputs, &targets, Loss::CrossEntropy).unwrap();
        let adv = fgsm_batch(
            &net,
            &inputs,
            &targets,
            Loss::CrossEntropy,
            0.2,
            BoxConstraint::None,
        )
        .unwrap();
        let after = dataset_loss(&net, &adv, &targets, Loss::CrossEntropy).unwrap();
        assert!(after > before);
    }
}
