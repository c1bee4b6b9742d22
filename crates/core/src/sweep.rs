//! The attack-then-measure step behind the paper's Fig. 4 curves, shared
//! by the experiment harness's campaign ports.

use crate::oracle::Oracle;
use crate::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use crate::Result;
use rand::Rng;
use xbar_linalg::Matrix;

/// How many repetitions a method needs: stochastic methods (RP, RD) are
/// averaged over `stochastic_reps` draws, deterministic ones run once.
pub fn method_reps(method: PixelAttackMethod, stochastic_reps: usize) -> usize {
    if matches!(
        method,
        PixelAttackMethod::RandomPixel | PixelAttackMethod::NormRandom
    ) {
        stochastic_reps
    } else {
        1
    }
}

/// One attack-then-measure step: perturbs `inputs` with `method` at
/// strength `eps` and returns the oracle's accuracy on the adversarial
/// batch. The primitive the campaign runtime ports build their
/// repetition loops from.
///
/// # Errors
///
/// Propagates attack and evaluation errors.
#[allow(clippy::too_many_arguments)]
pub fn attack_and_eval<R: Rng + ?Sized>(
    oracle: &Oracle,
    inputs: &Matrix,
    targets: &Matrix,
    labels: &[usize],
    method: PixelAttackMethod,
    resources: PixelAttackResources<'_>,
    eps: f64,
    rng: &mut R,
) -> Result<f64> {
    let adv = single_pixel_attack_batch(method, inputs, targets, resources, eps, rng)?;
    oracle.eval_accuracy(&adv, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_reps_distinguishes_stochastic_methods() {
        assert_eq!(method_reps(PixelAttackMethod::RandomPixel, 5), 5);
        assert_eq!(method_reps(PixelAttackMethod::NormRandom, 5), 5);
        assert_eq!(method_reps(PixelAttackMethod::NormPlus, 5), 1);
        assert_eq!(method_reps(PixelAttackMethod::NormMinus, 5), 1);
        assert_eq!(method_reps(PixelAttackMethod::WorstCase, 5), 1);
    }
}
