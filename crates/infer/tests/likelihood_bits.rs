//! Bit-identity of the register-blocked likelihood: `NormPosterior`
//! packs its design in 16-row panels, and every evaluation must equal
//! the plain row-by-row loop bit for bit — at any observation count
//! (fewer than one panel, a ragged last panel), any subset size, and
//! for designs and parameters with zeros, signed zeros and negatives.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_infer::{BayesModel, NormPosterior, PowerObservations, Prior};
use xbar_linalg::Matrix;

/// The likelihood as a scalar loop: one `+0.0`-seeded ascending-k
/// prediction per design row, squared residuals summed in row order.
fn row_by_row(design: &Matrix, powers: &[f64], sigma: f64, theta: &[f64]) -> f64 {
    let inv_var = 1.0 / (sigma * sigma);
    let mut acc = 0.0;
    for (b, &power) in powers.iter().enumerate() {
        let mut predicted = 0.0;
        for (u, &t) in design.row(b).iter().zip(theta) {
            predicted += u * t;
        }
        let r = power - predicted;
        acc += r * r;
    }
    -0.5 * acc * inv_var - powers.len() as f64 * (sigma.ln() + 0.918_938_533_204_672_7)
}

/// One arbitrary entry: exact zeros of either sign, ordinary values of
/// either sign, and magnitudes far apart so rounding order matters.
fn entry(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => -0.0,
        2 => rng.gen_range(-1.0..1.0) * 1e6,
        3 => rng.gen_range(-1.0..1.0) * 1e-6,
        _ => rng.gen_range(-2.0..2.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn panel_likelihood_equals_the_row_by_row_loop(
        q in 1usize..40,
        k in 1usize..20,
        sigma in 0.01f64..10.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // The subset is the last k of k + 2 input columns, in reverse:
        // columns 0 and 1 stay zero, and subset order differs from
        // column order.
        let subset: Vec<usize> = (2..k + 2).rev().collect();
        let mut inputs = Matrix::zeros(q, k + 2);
        for b in 0..q {
            for &j in &subset {
                inputs[(b, j)] = entry(&mut rng);
            }
        }
        let powers: Vec<f64> = (0..q).map(|_| entry(&mut rng)).collect();
        let mut design = Matrix::zeros(q, k);
        for b in 0..q {
            for (kk, &j) in subset.iter().enumerate() {
                design[(b, kk)] = inputs[(b, j)];
            }
        }
        let obs = PowerObservations { inputs, powers: powers.clone() };
        let priors = vec![Prior::normal(0.0, 1.0).unwrap(); k];
        let model = NormPosterior::new(&obs, &subset, priors, sigma).unwrap();
        for _ in 0..4 {
            let theta: Vec<f64> = (0..k).map(|_| entry(&mut rng)).collect();
            let got = model.log_likelihood(&theta);
            let want = row_by_row(&design, &powers, sigma, &theta);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
