//! Case-2 surrogate training with the combined output+power loss
//! (paper Sec. IV, Eq. 9).
//!
//! The attacker queries the oracle, recording inputs, outputs (raw or
//! label-only) and power, then trains a linear surrogate minimising
//!
//! ```text
//! L = L_out + λ · L_power                     (Eq. 9)
//! L_out   = MSE(Ŵ u, y_oracle)
//! L_power = MSE(Σ_j u_j ‖Ŵ[:,j]‖₁, p_oracle)
//! ```
//!
//! The power term's weight gradient is
//! `∂L_power/∂ŵ_ij = (2/B) Σ_b (p̂_b − p_b) · u_bj · sgn(ŵ_ij)`
//! (subgradient 0 at `ŵ_ij = 0`), which couples the surrogate's weight
//! *magnitudes* to the side channel while `L_out` pins their signs.

use crate::oracle::{Oracle, OutputAccess};
use crate::{AttackError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::train::SgdConfig;

/// The attacker's recorded query log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryDataset {
    /// Query inputs (`Q x N`).
    pub inputs: Matrix,
    /// Regression targets (`Q x M`): raw oracle outputs, or one-hot
    /// labels when only labels were observable.
    pub targets: Matrix,
    /// Calibrated power observations (`Q`, weight units).
    pub powers: Vec<f64>,
}

impl QueryDataset {
    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Root-mean-square of the recorded powers, used to normalise the
    /// power-loss term so that λ is comparable across datasets whose raw
    /// power magnitudes differ by orders of magnitude (power in weight
    /// units grows with the input dimension). Returns 1.0 for an empty or
    /// all-zero log.
    pub fn power_rms(&self) -> f64 {
        if self.powers.is_empty() {
            return 1.0;
        }
        let ms = self.powers.iter().map(|p| p * p).sum::<f64>() / self.powers.len() as f64;
        if ms > 0.0 {
            ms.sqrt()
        } else {
            1.0
        }
    }

    /// Mean squared 2-norm of the query inputs, used to scale the
    /// surrogate learning rate (the MSE Hessian's top eigenvalue grows
    /// with `‖u‖²`, so a fixed step diverges on high-dimensional data).
    pub fn mean_squared_input_norm(&self) -> f64 {
        if self.inputs.rows() == 0 {
            return 1.0;
        }
        let ms = self
            .inputs
            .rows_iter()
            .map(|u| u.iter().map(|x| x * x).sum::<f64>())
            .sum::<f64>()
            / self.inputs.rows() as f64;
        ms.max(f64::MIN_POSITIVE)
    }
}

/// Queries the oracle on the given rows of `pool` and assembles the
/// attacker's [`QueryDataset`]. Label-only oracles yield one-hot targets;
/// raw oracles yield the output vectors.
///
/// # Errors
///
/// * [`AttackError::InsufficientAccess`] against an output-less oracle.
/// * Propagates query errors (budget, dimensions).
pub fn collect_queries(
    oracle: &mut Oracle,
    pool: &Matrix,
    indices: &[usize],
) -> Result<QueryDataset> {
    if oracle.config().access == OutputAccess::None {
        return Err(AttackError::InsufficientAccess {
            needed: "network outputs (label or raw)",
        });
    }
    let m = oracle.num_outputs();
    let mut inputs = Matrix::zeros(indices.len(), pool.cols());
    let mut targets = Matrix::zeros(indices.len(), m);
    let mut powers = Vec::with_capacity(indices.len());
    let rows: Vec<&[f64]> = indices.iter().map(|&idx| pool.row(idx)).collect();
    let records = oracle.query_batch(&rows)?;
    for (row, (u, rec)) in rows.iter().zip(&records).enumerate() {
        inputs.row_mut(row).copy_from_slice(u);
        match (&rec.observation.output, rec.observation.label) {
            (Some(y), _) => targets.row_mut(row).copy_from_slice(y),
            (None, Some(l)) => targets[(row, l)] = 1.0,
            (None, None) => unreachable!("access checked above"),
        }
        powers.push(rec.observation.power);
    }
    Ok(QueryDataset {
        inputs,
        targets,
        powers,
    })
}

/// Configuration of the surrogate trainer.
///
/// The learning rate is **dimensionless**: the trainer rescales it by
/// `M / mean‖u‖²` (the inverse of the MSE Hessian's natural scale), so a
/// single default converges on both the 784-dimensional and the
/// 3072-dimensional data without divergence.
///
/// The power loss is computed on **RMS-normalised** powers (see
/// [`QueryDataset::power_rms`]), so the λ range `0..~0.1` is meaningful
/// regardless of the raw power magnitude. (The paper's `0..0.01` range is
/// tied to its unspecified power normalisation; what transfers is the
/// *existence* of a small-λ sweet spot, not the absolute values.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// The power-loss weight λ of Eq. 9 (`0.0` disables the side channel).
    pub power_weight: f64,
    /// Scale-invariant power matching (default **true**). The crossbar's
    /// weight→conductance scale `k = (g_max−g_min)/max|W|` depends on the
    /// *secret* weights, so a real attacker observes power only up to an
    /// unknown gain. With this flag the power loss matches RMS-normalised
    /// power *profiles* (`p̂/rms(p̂)` vs `p/rms(p)`), which is both the
    /// realistic threat model and the formulation under which the side
    /// channel helps: absolute matching forces the surrogate to inflate
    /// weight magnitudes along arbitrary sign patterns (junk mass), which
    /// degrades attack transfer. Set to `false` for the absolute
    /// (weight-units) variant used in the ablation studies.
    pub scale_invariant_power: bool,
    /// SGD hyperparameters (`learning_rate` is dimensionless; see above).
    pub sgd: SgdConfig,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            power_weight: 0.0,
            scale_invariant_power: true,
            sgd: SgdConfig {
                learning_rate: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
                epochs: 60,
                batch_size: 32,
                lr_decay: 1.0,
                shuffle: true,
            },
        }
    }
}

impl SurrogateConfig {
    /// Builder-style setter for λ.
    pub fn with_power_weight(mut self, lambda: f64) -> Self {
        self.power_weight = lambda;
        self
    }
}

/// The surrogate's power prediction per sample:
/// `p̂_b = Σ_j u_bj ‖Ŵ[:,j]‖₁`.
pub fn surrogate_power_estimates(net: &SingleLayerNet, inputs: &Matrix) -> Vec<f64> {
    let norms = net.column_l1_norms();
    inputs
        .rows_iter()
        .map(|u| u.iter().zip(&norms).map(|(&uj, &nj)| uj * nj).sum())
        .collect()
}

/// Trains a linear surrogate on a query log with the combined loss.
///
/// The surrogate has the oracle's input/output shape, a linear (identity)
/// head, and no bias — the paper uses only linear surrogates in Sec. IV.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for a negative/non-finite λ or an
///   empty query log.
/// * Propagates SGD hyperparameter validation failures.
pub fn train_surrogate<R: Rng + ?Sized>(
    queries: &QueryDataset,
    cfg: &SurrogateConfig,
    rng: &mut R,
) -> Result<SingleLayerNet> {
    if queries.is_empty() {
        return Err(AttackError::InvalidParameter { name: "queries" });
    }
    if !(cfg.power_weight.is_finite() && cfg.power_weight >= 0.0) {
        return Err(AttackError::InvalidParameter {
            name: "power_weight",
        });
    }
    if cfg.sgd.batch_size == 0 {
        return Err(AttackError::InvalidParameter { name: "batch_size" });
    }
    let (q, n) = queries.inputs.shape();
    let m = queries.targets.cols();
    let mut net = SingleLayerNet::new_random(n, m, Activation::Identity, rng);
    let mut velocity = Matrix::zeros(m, n);
    // Dimensionless learning rate: rescale by the inverse Hessian scale
    // (2/M)·mean‖u‖² so one default works from 6 to 3072 input features.
    let mut lr = cfg.sgd.learning_rate * m as f64 / queries.mean_squared_input_norm();
    // RMS-normalised power targets make λ transferable across datasets.
    let power_scale = queries.power_rms();
    let mut order: Vec<usize> = (0..q).collect();

    for _ in 0..cfg.sgd.epochs {
        if cfg.sgd.shuffle {
            order.shuffle(rng);
        }
        // Surrogate-side power normaliser, refreshed once per epoch: the
        // RMS of the surrogate's own predicted powers over the full query
        // set (stop-gradient) for scale-invariant matching, or the
        // measured RMS for the absolute variant.
        let s_hat = if cfg.power_weight > 0.0 && cfg.scale_invariant_power {
            let all = surrogate_power_estimates(&net, &queries.inputs);
            let ms = all.iter().map(|p| p * p).sum::<f64>() / all.len() as f64;
            if ms > 0.0 {
                ms.sqrt()
            } else {
                power_scale
            }
        } else {
            power_scale
        };
        for chunk in order.chunks(cfg.sgd.batch_size) {
            let x = queries.inputs.select_rows(chunk);
            let t = queries.targets.select_rows(chunk);
            let b = chunk.len() as f64;
            // Output-loss gradient: (1/B) Δᵀ X with Δ = 2(ŷ − y)/M.
            let outputs = net.forward_batch(&x)?;
            let deltas = outputs
                .zip_map(&t, |o, y| 2.0 * (o - y) / m as f64)
                .expect("shapes match");
            let mut grad = deltas.matmul_tn(&x)?;
            grad.scale_inplace(1.0 / b);
            // Power-loss gradient: rank-structured — v_j = (2/B) Σ_b
            // (p̂_b − p_b) u_bj, then grad_ij += λ v_j sgn(ŵ_ij).
            if cfg.power_weight > 0.0 {
                let p_hat = surrogate_power_estimates(&net, &x);
                // Residuals of the normalised powers: p̂/ŝ − p/s.
                let errs: Vec<f64> = chunk
                    .iter()
                    .enumerate()
                    .map(|(row, &orig)| p_hat[row] / s_hat - queries.powers[orig] / power_scale)
                    .collect();
                let mut v = vec![0.0; n];
                for (row, &e) in errs.iter().enumerate() {
                    for (vj, &uj) in v.iter_mut().zip(x.row(row)) {
                        *vj += e * uj;
                    }
                }
                // Chain rule through p̂/ŝ (ŝ held fixed).
                for vj in &mut v {
                    *vj *= 2.0 / (b * s_hat);
                }
                let w = net.weights().clone();
                for i in 0..m {
                    for j in 0..n {
                        // Subgradient: 0 at w = 0 (f64::signum(0.0) is 1).
                        let wij = w[(i, j)];
                        if wij != 0.0 {
                            grad[(i, j)] += cfg.power_weight * v[j] * wij.signum();
                        }
                    }
                }
            }
            if cfg.sgd.weight_decay > 0.0 {
                grad.axpy(cfg.sgd.weight_decay, net.weights());
            }
            velocity.scale_inplace(cfg.sgd.momentum);
            velocity.axpy(-lr, &grad);
            net.weights_mut().axpy(1.0, &velocity);
        }
        lr *= cfg.sgd.lr_decay;
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(2)
    }

    fn linear_oracle(w: Matrix, access: OutputAccess) -> Oracle {
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        Oracle::new(net, &OracleConfig::ideal().with_access(access), 17).unwrap()
    }

    fn pool(q: usize, n: usize) -> Matrix {
        Matrix::random_uniform(q, n, 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(33))
    }

    #[test]
    fn collect_queries_raw_targets_are_outputs() {
        let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.75]]);
        let mut o = linear_oracle(w.clone(), OutputAccess::Raw);
        let p = pool(5, 2);
        let q = collect_queries(&mut o, &p, &[0, 2, 4]).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.inputs.row(1), p.row(2));
        let want = w.matvec(p.row(2));
        for (a, b) in q.targets.row(1).iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        // Powers equal the weighted column norms.
        let norms = w.col_l1_norms();
        let want_p: f64 = p.row(2).iter().zip(&norms).map(|(&u, &n)| u * n).sum();
        assert!((q.powers[1] - want_p).abs() < 1e-9);
    }

    #[test]
    fn collect_queries_label_only_targets_are_one_hot() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut o = linear_oracle(w, OutputAccess::LabelOnly);
        let p = Matrix::from_rows(&[&[0.9, 0.1], &[0.1, 0.9]]);
        let q = collect_queries(&mut o, &p, &[0, 1]).unwrap();
        assert_eq!(q.targets.row(0), &[1.0, 0.0]);
        assert_eq!(q.targets.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn collect_queries_requires_output_access() {
        let w = Matrix::from_rows(&[&[1.0, 0.0]]);
        let mut o = linear_oracle(w, OutputAccess::None);
        let p = pool(3, 2);
        assert!(matches!(
            collect_queries(&mut o, &p, &[0]),
            Err(AttackError::InsufficientAccess { .. })
        ));
    }

    #[test]
    fn surrogate_power_estimates_match_definition() {
        let w = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.5]]);
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        let inputs = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.0]]);
        let p = surrogate_power_estimates(&net, &inputs);
        assert!((p[0] - 1.5).abs() < 1e-12); // ‖col0‖₁ = 1.5
        assert!((p[1] - 0.75 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn power_gradient_matches_finite_differences() {
        // Check the analytic subgradient of L_power against finite
        // differences at a point with no zero weights.
        let mut r = rng();
        let w = Matrix::from_rows(&[&[0.4, -0.7, 0.2], &[-0.1, 0.3, 0.9]]);
        let inputs = Matrix::random_uniform(4, 3, 0.1, 1.0, &mut r);
        let powers = vec![0.5, 1.0, 0.2, 0.7];
        let lambda = 1.0;
        let loss_at = |wm: &Matrix| -> f64 {
            let net = SingleLayerNet::from_weights(wm.clone(), Activation::Identity);
            let p_hat = surrogate_power_estimates(&net, &inputs);
            p_hat
                .iter()
                .zip(&powers)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                / 4.0
        };
        // Analytic: v_j = (2/B) Σ_b e_b u_bj; g_ij = v_j sgn(w_ij).
        let net = SingleLayerNet::from_weights(w.clone(), Activation::Identity);
        let p_hat = surrogate_power_estimates(&net, &inputs);
        let mut v = [0.0; 3];
        for b in 0..4 {
            let e = p_hat[b] - powers[b];
            for (vj, &uj) in v.iter_mut().zip(inputs.row(b)) {
                *vj += 2.0 * e * uj / 4.0;
            }
        }
        let h = 1e-6;
        for i in 0..2 {
            for j in 0..3 {
                let analytic = lambda * v[j] * w[(i, j)].signum();
                let mut wp = w.clone();
                wp[(i, j)] += h;
                let mut wm = w.clone();
                wm[(i, j)] -= h;
                let fd = (loss_at(&wp) - loss_at(&wm)) / (2.0 * h);
                assert!(
                    (analytic - fd).abs() < 1e-5,
                    "({i},{j}): analytic {analytic} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn surrogate_learns_linear_oracle_raw() {
        let mut r = rng();
        let w = Matrix::random_uniform(3, 6, -1.0, 1.0, &mut r);
        let mut o = linear_oracle(w.clone(), OutputAccess::Raw);
        let p = pool(200, 6);
        let idx: Vec<usize> = (0..200).collect();
        let q = collect_queries(&mut o, &p, &idx).unwrap();
        let net = train_surrogate(&q, &SurrogateConfig::default(), &mut r).unwrap();
        // With 200 > 6 raw-output queries the surrogate should recover W
        // almost exactly.
        let err = (&net.weights().clone() - &w).fro_norm() / w.fro_norm();
        assert!(err < 0.05, "relative error {err}");
    }

    #[test]
    fn power_loss_decreases_when_lambda_positive() {
        let mut r = rng();
        let w = Matrix::random_uniform(3, 6, -1.0, 1.0, &mut r);
        let mut o = linear_oracle(w, OutputAccess::Raw);
        let p = pool(40, 6);
        let idx: Vec<usize> = (0..40).collect();
        let q = collect_queries(&mut o, &p, &idx).unwrap();
        let cfg0 = SurrogateConfig::default();
        let cfg1 = SurrogateConfig::default().with_power_weight(0.01);
        let mut r0 = ChaCha8Rng::seed_from_u64(5);
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let net0 = train_surrogate(&q, &cfg0, &mut r0).unwrap();
        let net1 = train_surrogate(&q, &cfg1, &mut r1).unwrap();
        let power_mse = |net: &SingleLayerNet| -> f64 {
            let p_hat = surrogate_power_estimates(net, &q.inputs);
            p_hat
                .iter()
                .zip(&q.powers)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                / 40.0
        };
        let (l0, l1) = (power_mse(&net0), power_mse(&net1));
        assert!(l1 < l0, "λ>0 should fit power better: {l1} vs {l0}");
    }

    #[test]
    fn train_surrogate_validates() {
        let q = QueryDataset {
            inputs: Matrix::zeros(0, 3),
            targets: Matrix::zeros(0, 2),
            powers: vec![],
        };
        assert!(train_surrogate(&q, &SurrogateConfig::default(), &mut rng()).is_err());
        let q2 = QueryDataset {
            inputs: Matrix::ones(1, 3),
            targets: Matrix::ones(1, 2),
            powers: vec![1.0],
        };
        let bad = SurrogateConfig::default().with_power_weight(-1.0);
        assert!(train_surrogate(&q2, &bad, &mut rng()).is_err());
    }
}
