//! Exact weight recovery — the paper's Sec. IV observations about when
//! power information is *useless* because the weights follow directly
//! from input/output pairs:
//!
//! * querying `β e_j` against a linear oracle reveals column `j` of `W`
//!   outright ([`recover_columns_by_basis_probes`]);
//! * with `Q ≥ N` independent queries, `W = (U† Ŷ)ᵀ` by least squares
//!   ([`recover_weights_least_squares`]).
//!
//! For noisy observations the ridge variant trades bias for variance.

use crate::oracle::{Oracle, OutputAccess};
use crate::{AttackError, Result};
use xbar_linalg::{cholesky, qr, Matrix};

/// Recovers the full weight matrix of a *linear* oracle by `N` basis
/// queries `β e_j`: each response is `β · W[:, j]`.
///
/// # Errors
///
/// * [`AttackError::InsufficientAccess`] unless the oracle grants raw
///   output access.
/// * [`AttackError::InvalidParameter`] if `beta` is zero or not finite.
/// * Propagates query errors.
pub fn recover_columns_by_basis_probes(oracle: &mut Oracle, beta: f64) -> Result<Matrix> {
    if oracle.config().access != OutputAccess::Raw {
        return Err(AttackError::InsufficientAccess {
            needed: "raw outputs",
        });
    }
    if !(beta.is_finite() && beta != 0.0) {
        return Err(AttackError::InvalidParameter { name: "beta" });
    }
    let n = oracle.num_inputs();
    let m = oracle.num_outputs();
    let mut w = Matrix::zeros(m, n);
    let mut probe = vec![0.0; n];
    for j in 0..n {
        probe[j] = beta;
        let rec = oracle.query(&probe)?;
        let y = rec.observation.output.expect("raw access checked above");
        for (i, &yi) in y.iter().enumerate() {
            w[(i, j)] = yi / beta;
        }
        probe[j] = 0.0;
    }
    Ok(w)
}

/// Least-squares weight recovery from arbitrary query logs:
/// given inputs `U` (`Q x N`) and outputs `Ŷ` (`Q x M`) of a linear
/// oracle, solves `min ‖U Wᵀ − Ŷ‖_F` and returns `W` (`M x N`).
///
/// Exact when `Q ≥ N` and the queries span the input space — the paper's
/// "power information is useless" regime.
///
/// # Errors
///
/// * [`AttackError::Linalg`] if the system is underdetermined (`Q < N`)
///   or rank deficient.
pub fn recover_weights_least_squares(inputs: &Matrix, outputs: &Matrix) -> Result<Matrix> {
    let wt = qr::lstsq_matrix(inputs, outputs)?;
    Ok(wt.transpose())
}

/// Ridge-regularised recovery for noisy logs or `Q < N`:
/// solves `(UᵀU + λI) Wᵀ = Uᵀ Ŷ`.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for a negative or non-finite λ.
/// * [`AttackError::Linalg`] if the regularised system is still singular
///   (only possible at `λ = 0`).
pub fn recover_weights_ridge(inputs: &Matrix, outputs: &Matrix, lambda: f64) -> Result<Matrix> {
    if !(lambda.is_finite() && lambda >= 0.0) {
        return Err(AttackError::InvalidParameter { name: "lambda" });
    }
    let wt = cholesky::ridge_solve(inputs, outputs, lambda)?;
    Ok(wt.transpose())
}

/// Relative Frobenius error `‖Ŵ − W‖_F / ‖W‖_F` between a recovered and a
/// reference weight matrix.
///
/// # Errors
///
/// Returns [`AttackError::InvalidParameter`] on a shape mismatch or a
/// zero reference.
pub fn relative_error(recovered: &Matrix, reference: &Matrix) -> Result<f64> {
    if recovered.shape() != reference.shape() {
        return Err(AttackError::InvalidParameter { name: "shape" });
    }
    let denom = reference.fro_norm();
    if denom == 0.0 {
        return Err(AttackError::InvalidParameter { name: "reference" });
    }
    Ok((recovered - reference).fro_norm() / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(6)
    }

    fn linear_oracle(w: &Matrix, access: OutputAccess) -> Oracle {
        let net = SingleLayerNet::from_weights(w.clone(), Activation::Identity);
        Oracle::new(net, &OracleConfig::ideal().with_access(access), 23).unwrap()
    }

    #[test]
    fn basis_probes_recover_exactly() {
        let w = Matrix::random_uniform(4, 7, -1.0, 1.0, &mut rng());
        let mut o = linear_oracle(&w, OutputAccess::Raw);
        let rec = recover_columns_by_basis_probes(&mut o, 0.5).unwrap();
        assert!(rec.approx_eq(&w, 1e-9));
        assert_eq!(o.query_count(), 7);
    }

    #[test]
    fn basis_probes_require_raw_access() {
        let w = Matrix::ones(2, 3);
        let mut o = linear_oracle(&w, OutputAccess::LabelOnly);
        assert!(matches!(
            recover_columns_by_basis_probes(&mut o, 1.0),
            Err(AttackError::InsufficientAccess { .. })
        ));
        let mut o = linear_oracle(&w, OutputAccess::Raw);
        assert!(recover_columns_by_basis_probes(&mut o, 0.0).is_err());
    }

    #[test]
    fn least_squares_exact_when_q_at_least_n() {
        let mut r = rng();
        let w = Matrix::random_uniform(3, 8, -1.0, 1.0, &mut r);
        let u = Matrix::random_uniform(20, 8, 0.0, 1.0, &mut r);
        let y = u.matmul(&w.transpose());
        let rec = recover_weights_least_squares(&u, &y).unwrap();
        assert!(relative_error(&rec, &w).unwrap() < 1e-9);
    }

    #[test]
    fn least_squares_fails_when_underdetermined() {
        let mut r = rng();
        let w = Matrix::random_uniform(3, 8, -1.0, 1.0, &mut r);
        let u = Matrix::random_uniform(5, 8, 0.0, 1.0, &mut r); // Q=5 < N=8
        let y = u.matmul(&w.transpose());
        assert!(matches!(
            recover_weights_least_squares(&u, &y),
            Err(AttackError::Linalg(_))
        ));
    }

    #[test]
    fn ridge_recovers_under_noise_better_than_nothing() {
        let mut r = rng();
        let w = Matrix::random_uniform(3, 6, -1.0, 1.0, &mut r);
        let u = Matrix::random_uniform(60, 6, 0.0, 1.0, &mut r);
        let mut y = u.matmul(&w.transpose());
        // Add observation noise.
        let noise = Matrix::random_normal(60, 3, 0.0, 0.05, &mut r);
        y.axpy(1.0, &noise);
        let rec = recover_weights_ridge(&u, &y, 1e-3).unwrap();
        assert!(relative_error(&rec, &w).unwrap() < 0.1);
    }

    #[test]
    fn ridge_handles_q_less_than_n() {
        let mut r = rng();
        let w = Matrix::random_uniform(2, 10, -1.0, 1.0, &mut r);
        let u = Matrix::random_uniform(5, 10, 0.0, 1.0, &mut r);
        let y = u.matmul(&w.transpose());
        // Underdetermined but solvable with regularisation; recovery is
        // not exact, yet the fit on the observed queries must be good.
        let rec = recover_weights_ridge(&u, &y, 1e-6).unwrap();
        let fit = u.matmul(&rec.transpose());
        assert!(fit.approx_eq(&y, 1e-3));
        assert!(recover_weights_ridge(&u, &y, -1.0).is_err());
    }

    #[test]
    fn relative_error_validation() {
        let a = Matrix::ones(2, 2);
        assert!(relative_error(&a, &Matrix::ones(2, 3)).is_err());
        assert!(relative_error(&a, &Matrix::zeros(2, 2)).is_err());
        assert_eq!(relative_error(&a, &a).unwrap(), 0.0);
    }
}
