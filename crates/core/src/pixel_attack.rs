//! Case-1 single- and multi-pixel attacks guided by power information
//! (paper Sec. III, Fig. 4).
//!
//! With only the column 1-norms (from [`crate::probe`]), the attacker
//! perturbs the pixel whose weight column has the largest 1-norm. The
//! five methods of Fig. 4:
//!
//! * `RandomPixel` (RP) — random pixel, random ± direction (no model
//!   information; the weakest baseline).
//! * `NormPlus` (+) — largest-1-norm pixel, always add the strength.
//! * `NormMinus` (−) — largest-1-norm pixel, always subtract.
//! * `NormRandom` (RD) — largest-1-norm pixel, random ± direction.
//! * `WorstCase` (Worst) — white-box bound: the most sensitive pixel
//!   perturbed along the loss gradient (single-pixel FGSM).

use crate::{AttackError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::{vec_ops, Matrix};
use xbar_nn::loss::Loss;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::sensitivity::batch_input_gradients;

/// The pixel-selection strategies of the paper's Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PixelAttackMethod {
    /// "RP": random pixel, random sign.
    RandomPixel,
    /// "+": largest-norm pixel, add the attack strength.
    NormPlus,
    /// "−": largest-norm pixel, subtract the attack strength.
    NormMinus,
    /// "RD": largest-norm pixel, random sign.
    NormRandom,
    /// "Worst": most sensitive pixel along the loss gradient (white box).
    WorstCase,
}

impl PixelAttackMethod {
    /// The label used in the paper's Fig. 4 legend.
    pub fn paper_label(&self) -> &'static str {
        match self {
            PixelAttackMethod::RandomPixel => "RP",
            PixelAttackMethod::NormPlus => "+",
            PixelAttackMethod::NormMinus => "-",
            PixelAttackMethod::NormRandom => "RD",
            PixelAttackMethod::WorstCase => "Worst",
        }
    }

    /// All five methods in the paper's legend order.
    pub fn all() -> [PixelAttackMethod; 5] {
        [
            PixelAttackMethod::RandomPixel,
            PixelAttackMethod::NormPlus,
            PixelAttackMethod::NormMinus,
            PixelAttackMethod::NormRandom,
            PixelAttackMethod::WorstCase,
        ]
    }
}

/// Resources a pixel attack may draw on: probed norms for the
/// norm-guided methods, and the white-box model for the "Worst" bound.
#[derive(Debug, Clone, Copy)]
pub struct PixelAttackResources<'a> {
    /// Probed column 1-norms (length = input dimension).
    pub norms: Option<&'a [f64]>,
    /// White-box network and its training loss.
    pub white_box: Option<(&'a SingleLayerNet, Loss)>,
}

impl<'a> PixelAttackResources<'a> {
    /// Resources with only probed norms (the Case-1 attacker).
    pub fn norms_only(norms: &'a [f64]) -> Self {
        PixelAttackResources {
            norms: Some(norms),
            white_box: None,
        }
    }

    /// Full resources (for running all methods side by side).
    pub fn full(norms: &'a [f64], net: &'a SingleLayerNet, loss: Loss) -> Self {
        PixelAttackResources {
            norms: Some(norms),
            white_box: Some((net, loss)),
        }
    }
}

/// Applies a single-pixel attack to every sample of a batch and returns
/// the perturbed inputs (no clipping, matching the paper).
///
/// `targets` are one-hot ground-truth rows (used only by `WorstCase`).
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] if `strength` is negative or not
///   finite, or if a required resource is missing / has the wrong length.
/// * Propagates gradient errors for `WorstCase`.
pub fn single_pixel_attack_batch<R: Rng + ?Sized>(
    method: PixelAttackMethod,
    inputs: &Matrix,
    targets: &Matrix,
    resources: PixelAttackResources<'_>,
    strength: f64,
    rng: &mut R,
) -> Result<Matrix> {
    if !(strength.is_finite() && strength >= 0.0) {
        return Err(AttackError::InvalidParameter { name: "strength" });
    }
    let n = inputs.cols();
    let mut adv = inputs.clone();
    match method {
        PixelAttackMethod::RandomPixel => {
            for i in 0..adv.rows() {
                let j = rng.gen_range(0..n);
                let dir = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                adv[(i, j)] += dir * strength;
            }
        }
        PixelAttackMethod::NormPlus
        | PixelAttackMethod::NormMinus
        | PixelAttackMethod::NormRandom => {
            let norms = resources
                .norms
                .ok_or(AttackError::InvalidParameter { name: "norms" })?;
            if norms.len() != n {
                return Err(AttackError::InvalidParameter { name: "norms" });
            }
            let j = vec_ops::argmax(norms);
            for i in 0..adv.rows() {
                let dir = match method {
                    PixelAttackMethod::NormPlus => 1.0,
                    PixelAttackMethod::NormMinus => -1.0,
                    _ => {
                        if rng.gen_bool(0.5) {
                            1.0
                        } else {
                            -1.0
                        }
                    }
                };
                adv[(i, j)] += dir * strength;
            }
        }
        PixelAttackMethod::WorstCase => {
            let (net, loss) = resources
                .white_box
                .ok_or(AttackError::InvalidParameter { name: "white_box" })?;
            let grads = batch_input_gradients(net, inputs, targets, loss)?;
            for i in 0..adv.rows() {
                let g = grads.row(i);
                let abs: Vec<f64> = g.iter().map(|v| v.abs()).collect();
                let j = vec_ops::argmax(&abs);
                adv[(i, j)] += g[j].signum() * strength;
            }
        }
    }
    xbar_obs::count(xbar_obs::names::ATTACK_PIXEL_STEP, adv.rows() as u64);
    Ok(adv)
}

/// Multi-pixel variant of the norm-guided attack: perturbs the pixels with
/// the top `num_pixels` 1-norms, each with an independently guessed ±
/// direction. The paper observes success *decreases* with `num_pixels`
/// because all directions must be guessed right (`(1/2)^N` odds).
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for an invalid strength,
///   `num_pixels == 0`, or mismatched `norms`.
pub fn multi_pixel_norm_attack_batch<R: Rng + ?Sized>(
    inputs: &Matrix,
    norms: &[f64],
    num_pixels: usize,
    strength: f64,
    rng: &mut R,
) -> Result<Matrix> {
    if !(strength.is_finite() && strength >= 0.0) {
        return Err(AttackError::InvalidParameter { name: "strength" });
    }
    if num_pixels == 0 {
        return Err(AttackError::InvalidParameter { name: "num_pixels" });
    }
    if norms.len() != inputs.cols() {
        return Err(AttackError::InvalidParameter { name: "norms" });
    }
    let top = vec_ops::top_k_indices(norms, num_pixels);
    let mut adv = inputs.clone();
    for i in 0..adv.rows() {
        for &j in &top {
            let dir = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            adv[(i, j)] += dir * strength;
        }
    }
    xbar_obs::count(
        xbar_obs::names::ATTACK_PIXEL_STEP,
        (adv.rows() * top.len()) as u64,
    );
    Ok(adv)
}

/// White-box multi-pixel bound: top-`num_pixels` most sensitive pixels,
/// each along the loss gradient — the multi-pixel analogue of `Worst`.
///
/// # Errors
///
/// Same validation as [`multi_pixel_norm_attack_batch`], plus gradient
/// errors.
pub fn multi_pixel_worst_attack_batch(
    net: &SingleLayerNet,
    inputs: &Matrix,
    targets: &Matrix,
    loss: Loss,
    num_pixels: usize,
    strength: f64,
) -> Result<Matrix> {
    if !(strength.is_finite() && strength >= 0.0) {
        return Err(AttackError::InvalidParameter { name: "strength" });
    }
    if num_pixels == 0 {
        return Err(AttackError::InvalidParameter { name: "num_pixels" });
    }
    let grads = batch_input_gradients(net, inputs, targets, loss)?;
    let mut adv = inputs.clone();
    for i in 0..adv.rows() {
        let g = grads.row(i).to_vec();
        let abs: Vec<f64> = g.iter().map(|v| v.abs()).collect();
        for &j in &vec_ops::top_k_indices(&abs, num_pixels) {
            adv[(i, j)] += g[j].signum() * strength;
        }
    }
    Ok(adv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_nn::activation::Activation;
    use xbar_nn::train::dataset_loss;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    fn setup() -> (SingleLayerNet, Matrix, Matrix, Vec<f64>) {
        let mut r = rng();
        let net = SingleLayerNet::new_random(8, 3, Activation::Identity, &mut r);
        let inputs = Matrix::random_uniform(10, 8, 0.0, 1.0, &mut r);
        let mut targets = Matrix::zeros(10, 3);
        for i in 0..10 {
            targets[(i, i % 3)] = 1.0;
        }
        let norms = net.weights().col_l1_norms();
        (net, inputs, targets, norms)
    }

    #[test]
    fn every_method_changes_exactly_one_pixel_per_sample() {
        let (net, inputs, targets, norms) = setup();
        let res = PixelAttackResources::full(&norms, &net, Loss::Mse);
        for method in PixelAttackMethod::all() {
            let adv =
                single_pixel_attack_batch(method, &inputs, &targets, res, 0.5, &mut rng()).unwrap();
            for i in 0..inputs.rows() {
                let changed = adv
                    .row(i)
                    .iter()
                    .zip(inputs.row(i))
                    .filter(|(a, u)| (*a - *u).abs() > 1e-12)
                    .count();
                assert_eq!(changed, 1, "{method:?} sample {i}");
                // Magnitude of the change is exactly the strength.
                let max_d: f64 = adv
                    .row(i)
                    .iter()
                    .zip(inputs.row(i))
                    .map(|(a, u)| (a - u).abs())
                    .fold(0.0, f64::max);
                assert!((max_d - 0.5).abs() < 1e-12, "{method:?}");
            }
        }
    }

    #[test]
    fn norm_methods_hit_the_argmax_norm_pixel() {
        let (net, inputs, targets, norms) = setup();
        let j_star = vec_ops::argmax(&norms);
        let res = PixelAttackResources::full(&norms, &net, Loss::Mse);
        for method in [PixelAttackMethod::NormPlus, PixelAttackMethod::NormMinus] {
            let adv =
                single_pixel_attack_batch(method, &inputs, &targets, res, 0.3, &mut rng()).unwrap();
            for i in 0..inputs.rows() {
                let d = adv[(i, j_star)] - inputs[(i, j_star)];
                match method {
                    PixelAttackMethod::NormPlus => assert!((d - 0.3).abs() < 1e-12),
                    PixelAttackMethod::NormMinus => assert!((d + 0.3).abs() < 1e-12),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn worst_case_increases_loss_most() {
        let (net, inputs, targets, norms) = setup();
        let res = PixelAttackResources::full(&norms, &net, Loss::Mse);
        let strength = 1.0;
        let loss_of = |m: &Matrix| dataset_loss(&net, m, &targets, Loss::Mse).unwrap();
        let mut r = rng();
        let worst = single_pixel_attack_batch(
            PixelAttackMethod::WorstCase,
            &inputs,
            &targets,
            res,
            strength,
            &mut r,
        )
        .unwrap();
        let worst_loss = loss_of(&worst);
        // Worst is a per-sample optimum over (pixel, direction) for the
        // linearised loss; it must beat every other strategy here.
        for method in [
            PixelAttackMethod::RandomPixel,
            PixelAttackMethod::NormPlus,
            PixelAttackMethod::NormMinus,
            PixelAttackMethod::NormRandom,
        ] {
            let adv = single_pixel_attack_batch(method, &inputs, &targets, res, strength, &mut r)
                .unwrap();
            assert!(
                worst_loss >= loss_of(&adv) * 0.999,
                "{method:?} beat WorstCase"
            );
        }
    }

    #[test]
    fn missing_resources_rejected() {
        let (_, inputs, targets, norms) = setup();
        let no_res = PixelAttackResources {
            norms: None,
            white_box: None,
        };
        assert!(single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            &inputs,
            &targets,
            no_res,
            0.1,
            &mut rng()
        )
        .is_err());
        assert!(single_pixel_attack_batch(
            PixelAttackMethod::WorstCase,
            &inputs,
            &targets,
            no_res,
            0.1,
            &mut rng()
        )
        .is_err());
        // Wrong-length norms.
        let short = &norms[..3];
        assert!(single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            &inputs,
            &targets,
            PixelAttackResources::norms_only(short),
            0.1,
            &mut rng()
        )
        .is_err());
    }

    #[test]
    fn strength_validation() {
        let (net, inputs, targets, norms) = setup();
        let res = PixelAttackResources::full(&norms, &net, Loss::Mse);
        assert!(single_pixel_attack_batch(
            PixelAttackMethod::RandomPixel,
            &inputs,
            &targets,
            res,
            -1.0,
            &mut rng()
        )
        .is_err());
        assert!(multi_pixel_norm_attack_batch(&inputs, &norms, 2, f64::NAN, &mut rng()).is_err());
        assert!(multi_pixel_norm_attack_batch(&inputs, &norms, 0, 0.1, &mut rng()).is_err());
    }

    #[test]
    fn multi_pixel_touches_top_k() {
        let (_, inputs, _, norms) = setup();
        let k = 3;
        let adv = multi_pixel_norm_attack_batch(&inputs, &norms, k, 0.2, &mut rng()).unwrap();
        let top = vec_ops::top_k_indices(&norms, k);
        for i in 0..inputs.rows() {
            let changed: Vec<usize> = (0..inputs.cols())
                .filter(|&j| (adv[(i, j)] - inputs[(i, j)]).abs() > 1e-12)
                .collect();
            assert_eq!(changed.len(), k);
            for j in &changed {
                assert!(top.contains(j));
            }
        }
    }

    #[test]
    fn multi_pixel_worst_changes_k_pixels_along_gradient() {
        let (net, inputs, targets, _) = setup();
        let adv =
            multi_pixel_worst_attack_batch(&net, &inputs, &targets, Loss::Mse, 2, 0.4).unwrap();
        let before = dataset_loss(&net, &inputs, &targets, Loss::Mse).unwrap();
        let after = dataset_loss(&net, &adv, &targets, Loss::Mse).unwrap();
        assert!(after > before);
    }

    #[test]
    fn paper_labels() {
        assert_eq!(PixelAttackMethod::RandomPixel.paper_label(), "RP");
        assert_eq!(PixelAttackMethod::NormRandom.paper_label(), "RD");
        assert_eq!(PixelAttackMethod::WorstCase.paper_label(), "Worst");
    }
}
