//! Case-1 probing: recovering the weight-column 1-norms from power
//! measurements alone (paper Sec. II-B and III).
//!
//! Setting input `j` to `V_dd` and grounding the rest makes the total
//! current `i_total = V_dd · G_j`, so one query per input line recovers
//! every `G_j` — and with the one-sided mapping, `G_j` is affine in
//! `‖W[:,j]‖₁`. The oracle's calibrated power (see
//! [`crate::oracle::Oracle::query`]) returns the norms directly.
//!
//! The paper also notes the full scan costs `N` queries and that a search
//! over a *smooth* norm landscape (MNIST-like data) can find the largest
//! norm with fewer queries; [`argmax_norm_hill_climb`] implements that
//! strategy for image-shaped inputs.

use crate::oracle::Oracle;
use crate::{AttackError, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_data::ImageShape;

/// When a cached column-norm estimate must be re-measured on aging
/// hardware.
///
/// Both triggers zero ([`RecalibrationPolicy::never`], the default)
/// means probe once and trust the estimate forever — the paper's
/// steady-state assumption. Otherwise either trigger firing forces a
/// fresh probe:
///
/// * `every_queries > 0`: re-probe once that many oracle queries have
///   been issued since the last probe.
/// * `staleness_threshold > 0`: re-probe once the oracle's effective
///   `drift_time` has advanced by at least that much since the last
///   probe (see [`Oracle::drift_time`]).
///
/// Recalibration probes go through [`probe_column_norms`], so their
/// cost is charged against the session's query budget like any other
/// attacker traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecalibrationPolicy {
    /// Re-probe after this many oracle queries (0 = no query trigger).
    pub every_queries: u64,
    /// Re-probe after `drift_time` advances by this much (0 = no
    /// staleness trigger).
    pub staleness_threshold: f64,
}

impl Default for RecalibrationPolicy {
    fn default() -> Self {
        RecalibrationPolicy::never()
    }
}

impl RecalibrationPolicy {
    /// Probe once, never re-probe.
    pub const fn never() -> Self {
        RecalibrationPolicy {
            every_queries: 0,
            staleness_threshold: 0.0,
        }
    }

    /// Re-probe every `every_queries` oracle queries.
    pub const fn every(every_queries: u64) -> Self {
        RecalibrationPolicy {
            every_queries,
            staleness_threshold: 0.0,
        }
    }

    /// Re-probe when `drift_time` has advanced by `threshold`.
    pub const fn on_staleness(threshold: f64) -> Self {
        RecalibrationPolicy {
            every_queries: 0,
            staleness_threshold: threshold,
        }
    }

    /// Whether an estimate probed `queries_since` oracle queries and
    /// `drift_since` drift time ago is stale: a trigger that is set
    /// fires once its count is reached.
    pub fn is_stale(&self, queries_since: u64, drift_since: f64) -> bool {
        (self.every_queries > 0 && queries_since >= self.every_queries)
            || (self.staleness_threshold > 0.0 && drift_since >= self.staleness_threshold)
    }
}

/// Recovers all column 1-norms with one basis query per input
/// (`N` queries total, times `repeats` for noise averaging).
///
/// `beta` is the probe amplitude (the paper's `β e_j` inputs); the result
/// is normalised back by `beta`. Each repeat reads the `N` basis probes
/// through one [`Oracle::one_hot_powers`] call, which answers them from
/// the deployed array's line conductances without materialising a
/// probe, bit-identical to issuing the repeat's rows as one
/// [`Oracle::query_batch`].
///
/// The budget is all-or-nothing per repeat: a repeat that does not fit
/// in the remaining budget fails before any of its queries is consumed.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] if `beta == 0`, not finite, or
///   `repeats == 0`.
/// * Propagates query-budget exhaustion.
pub fn probe_column_norms(oracle: &mut Oracle, beta: f64, repeats: usize) -> Result<Vec<f64>> {
    validate_probe(beta, repeats)?;
    let _span = xbar_obs::span(xbar_obs::names::SPAN_PROBE);
    let columns: Vec<usize> = (0..oracle.num_inputs()).collect();
    let mut norms = one_hot_scan(oracle, &columns, beta, repeats)?;
    for norm in &mut norms {
        *norm /= repeats as f64 * beta;
    }
    Ok(norms)
}

/// Probes only the given input indices (each costing `repeats` queries),
/// returning `(index, estimated norm)` pairs.
///
/// # Errors
///
/// Same conditions as [`probe_column_norms`], plus
/// [`AttackError::InvalidParameter`] for an out-of-range index.
pub fn probe_columns_subset(
    oracle: &mut Oracle,
    indices: &[usize],
    beta: f64,
    repeats: usize,
) -> Result<Vec<(usize, f64)>> {
    validate_probe(beta, repeats)?;
    if indices.iter().any(|&j| j >= oracle.num_inputs()) {
        return Err(AttackError::InvalidParameter { name: "indices" });
    }
    let sums = one_hot_scan(oracle, indices, beta, repeats)?;
    Ok(indices
        .iter()
        .zip(&sums)
        .map(|(&j, &sum)| (j, sum / (repeats as f64 * beta)))
        .collect())
}

/// Checks a probe's amplitude (finite, nonzero) and repeat count
/// (nonzero).
pub(crate) fn validate_probe(beta: f64, repeats: usize) -> Result<()> {
    if !(beta.is_finite() && beta != 0.0) {
        return Err(AttackError::InvalidParameter { name: "beta" });
    }
    if repeats == 0 {
        return Err(AttackError::InvalidParameter { name: "repeats" });
    }
    Ok(())
}

/// Sums `repeats` power readings of the one-hot inputs `beta · e_j`, one
/// per entry of `columns` (in range), in order. Each repeat is one
/// [`Oracle::one_hot_powers`] call, so it is refused, with nothing
/// consumed, unless all of its queries fit in the remaining budget.
fn one_hot_scan(
    oracle: &mut Oracle,
    columns: &[usize],
    beta: f64,
    repeats: usize,
) -> Result<Vec<f64>> {
    let mut sums = vec![0.0; columns.len()];
    for _ in 0..repeats {
        for (sum, power) in sums.iter_mut().zip(oracle.one_hot_powers(columns, beta)?) {
            *sum += power;
        }
        xbar_obs::count(xbar_obs::names::PROBE_MEASUREMENT, columns.len() as u64);
    }
    Ok(sums)
}

/// Outcome of a query-limited search for the largest-norm input.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Index of the best input found.
    pub best_index: usize,
    /// Its estimated norm.
    pub best_norm: f64,
    /// Queries spent by the search.
    pub queries_used: usize,
}

/// Query-efficient search for the largest column norm over an image grid:
/// multi-start hill climbing on the pixel lattice (paper Sec. III's
/// "standard optimization techniques or search strategies" remark).
///
/// Works well when the norm landscape is smooth (the MNIST-like case);
/// on rapidly varying landscapes (CIFAR-like) it degrades towards random
/// probing — exactly the failure mode the paper predicts.
///
/// `channel_stride` handles multi-channel images: neighbours move in
/// pixel space, keeping the channel fixed.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for zero starts/budget or a shape
///   that does not match the oracle input dimension.
/// * Propagates probing errors.
pub fn argmax_norm_hill_climb<R: Rng + ?Sized>(
    oracle: &mut Oracle,
    shape: ImageShape,
    num_starts: usize,
    max_queries: usize,
    rng: &mut R,
) -> Result<SearchOutcome> {
    if num_starts == 0 {
        return Err(AttackError::InvalidParameter { name: "num_starts" });
    }
    if max_queries == 0 {
        return Err(AttackError::InvalidParameter {
            name: "max_queries",
        });
    }
    if shape.len() != oracle.num_inputs() {
        return Err(AttackError::InvalidParameter { name: "shape" });
    }
    let start_count = oracle.query_count();
    let mut cache: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    let mut spent = 0usize;

    let eval = |oracle: &mut Oracle,
                idx: usize,
                spent: &mut usize,
                cache: &mut std::collections::HashMap<usize, f64>|
     -> Result<Option<f64>> {
        if let Some(&v) = cache.get(&idx) {
            return Ok(Some(v));
        }
        if *spent >= max_queries {
            return Ok(None);
        }
        let v = probe_columns_subset(oracle, &[idx], 1.0, 1)?[0].1;
        *spent += 1;
        cache.insert(idx, v);
        Ok(Some(v))
    };

    let mut best_index = 0;
    let mut best_norm = f64::NEG_INFINITY;
    // Deterministic start grid + random extras.
    let mut starts: Vec<(usize, usize)> = Vec::new();
    let grid = (num_starts as f64).sqrt().ceil() as usize;
    for gr in 0..grid {
        for gc in 0..grid {
            if starts.len() < num_starts {
                starts.push((
                    (gr * shape.height) / grid.max(1) + shape.height / (2 * grid.max(1)),
                    (gc * shape.width) / grid.max(1) + shape.width / (2 * grid.max(1)),
                ));
            }
        }
    }
    starts.shuffle(rng);

    'outer: for &(mut r, mut c) in &starts {
        r = r.min(shape.height - 1);
        c = c.min(shape.width - 1);
        let ch = 0;
        let mut here = match eval(oracle, shape.index(r, c, ch), &mut spent, &mut cache)? {
            Some(v) => v,
            None => break 'outer,
        };
        loop {
            if here > best_norm {
                best_norm = here;
                best_index = shape.index(r, c, ch);
            }
            // Examine the 4-neighbourhood; move to the best improving one.
            let mut moved = false;
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ];
            let mut best_step: Option<(usize, usize, f64)> = None;
            for &(nr, nc) in &neighbours {
                if nr >= shape.height || nc >= shape.width {
                    continue;
                }
                match eval(oracle, shape.index(nr, nc, ch), &mut spent, &mut cache)? {
                    Some(v) => {
                        if v > here && best_step.is_none_or(|(_, _, bv)| v > bv) {
                            best_step = Some((nr, nc, v));
                        }
                    }
                    None => break 'outer,
                }
            }
            if let Some((nr, nc, v)) = best_step {
                r = nr;
                c = nc;
                here = v;
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    if best_norm == f64::NEG_INFINITY {
        // Budget too small to evaluate anything: fall back to index 0.
        best_index = 0;
        best_norm = 0.0;
    }
    Ok(SearchOutcome {
        best_index,
        best_norm,
        queries_used: oracle.query_count() - start_count,
    })
}

/// Least-squares norm recovery from *random-input* power queries.
///
/// Each power observation is linear in the unknown norm vector `ν`:
/// `p_b = ⟨u_b, ν⟩` (Eq. 5). `K` random queries therefore give a linear
/// system for `ν`, solvable exactly once `K ≥ N` — and, because natural
/// norm landscapes are compressible, a ridge-regularised solve already
/// identifies the dominant columns with `K < N` queries, undercutting
/// the `N`-query basis scan of [`probe_column_norms`].
///
/// Returns the estimated norm vector. The estimate is unconstrained (it
/// may go slightly negative under heavy regularisation); callers ranking
/// pixels should use it as a score.
///
/// # Errors
///
/// * [`AttackError::InvalidParameter`] for `num_queries == 0` or a
///   negative/non-finite `ridge_lambda`.
/// * Propagates query-budget exhaustion and solver failures.
pub fn probe_norms_compressed<R: Rng + ?Sized>(
    oracle: &mut Oracle,
    num_queries: usize,
    ridge_lambda: f64,
    rng: &mut R,
) -> Result<Vec<f64>> {
    if num_queries == 0 {
        return Err(AttackError::InvalidParameter {
            name: "num_queries",
        });
    }
    if !(ridge_lambda.is_finite() && ridge_lambda >= 0.0) {
        return Err(AttackError::InvalidParameter {
            name: "ridge_lambda",
        });
    }
    let _span = xbar_obs::span(xbar_obs::names::SPAN_PROBE);
    let n = oracle.num_inputs();
    let mut u = xbar_linalg::Matrix::zeros(num_queries, n);
    let mut p = xbar_linalg::Matrix::zeros(num_queries, 1);
    for b in 0..num_queries {
        for v in u.row_mut(b) {
            *v = rng.gen_range(0.0..1.0);
        }
    }
    let refs: Vec<&[f64]> = (0..num_queries).map(|b| u.row(b)).collect();
    let records = oracle.query_batch(&refs)?;
    xbar_obs::count(xbar_obs::names::PROBE_MEASUREMENT, num_queries as u64);
    for (b, rec) in records.iter().enumerate() {
        p[(b, 0)] = rec.observation.power;
    }
    // Centre the design: subtracting the column means concentrates the
    // ridge shrinkage on the informative deviations.
    let nu = xbar_linalg::cholesky::ridge_solve(&u, &p, ridge_lambda)?;
    Ok(nu.col(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{OracleConfig, OutputAccess};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_crossbar::power::PowerModel;
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    fn oracle_with_weights(w: Matrix) -> Oracle {
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        Oracle::new(
            net,
            &OracleConfig::ideal().with_access(OutputAccess::None),
            1,
        )
        .unwrap()
    }

    #[test]
    fn probe_recovers_exact_norms_ideal() {
        let w = Matrix::from_rows(&[&[1.0, -0.5, 0.0], &[0.25, 0.5, -1.0]]);
        let want = w.col_l1_norms();
        let mut o = oracle_with_weights(w);
        let got = probe_column_norms(&mut o, 1.0, 1).unwrap();
        for (g, e) in got.iter().zip(&want) {
            assert!((g - e).abs() < 1e-9);
        }
        assert_eq!(o.query_count(), 3);
    }

    #[test]
    fn probe_is_beta_invariant_for_ideal_crossbar() {
        let w = Matrix::from_rows(&[&[0.7, -0.2]]);
        let mut o = oracle_with_weights(w.clone());
        let a = probe_column_norms(&mut o, 1.0, 1).unwrap();
        let b = probe_column_norms(&mut o, 0.25, 1).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn averaging_suppresses_measurement_noise() {
        let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.5, 0.25]]);
        let want = w.col_l1_norms();
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        let cfg = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_power(PowerModel::default().with_noise(0.2));
        let run = |seed: u64, repeats: usize| -> f64 {
            let mut o = Oracle::new(net.clone(), &cfg, seed).unwrap();
            let got = probe_column_norms(&mut o, 1.0, repeats).unwrap();
            got.iter()
                .zip(&want)
                .map(|(g, e)| (g - e).abs())
                .fold(0.0, f64::max)
        };
        // Average error over independently seeded trials to avoid
        // flakiness (noise depends only on the oracle seed and the global
        // query index, so trials must vary the seed).
        let err1 = (0..10).map(|t| run(21 + t, 1)).sum::<f64>() / 10.0;
        let err64 = (0..10).map(|t| run(21 + t, 64)).sum::<f64>() / 10.0;
        assert!(
            err64 < err1 / 3.0,
            "64x averaging should cut error ~8x: {err1} -> {err64}"
        );
    }

    #[test]
    fn parameter_validation() {
        let mut o = oracle_with_weights(Matrix::from_rows(&[&[1.0, 0.5]]));
        assert!(probe_column_norms(&mut o, 0.0, 1).is_err());
        assert!(probe_column_norms(&mut o, f64::NAN, 1).is_err());
        assert!(probe_column_norms(&mut o, 1.0, 0).is_err());
        assert!(probe_columns_subset(&mut o, &[5], 1.0, 1).is_err());
    }

    #[test]
    fn subset_probe_costs_only_its_queries() {
        let w = Matrix::from_rows(&[&[1.0, -0.5, 0.25, 0.0]]);
        let mut o = oracle_with_weights(w.clone());
        let got = probe_columns_subset(&mut o, &[2, 0], 1.0, 1).unwrap();
        assert_eq!(o.query_count(), 2);
        assert_eq!(got[0].0, 2);
        assert!((got[0].1 - 0.25).abs() < 1e-9);
        assert!((got[1].1 - 1.0).abs() < 1e-9);
    }

    /// A noisy oracle over `n` inputs: every reading carries its own
    /// keyed noise draw, so any change to query order or keying shows.
    fn noisy_oracle(n: usize, budget: Option<usize>) -> Oracle {
        let w = Matrix::random_uniform(3, n, -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(6));
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        let mut cfg = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_power(PowerModel::default().with_noise(0.05));
        if let Some(budget) = budget {
            cfg = cfg.with_query_budget(budget);
        }
        Oracle::new(net, &cfg, 17).unwrap()
    }

    /// Sums of `repeats` scans, each issued as one `query_batch` of all
    /// the one-hot probes.
    fn one_batch_sums(
        oracle: &mut Oracle,
        columns: &[usize],
        beta: f64,
        repeats: usize,
    ) -> Vec<f64> {
        let n = oracle.num_inputs();
        let probes: Vec<Vec<f64>> = columns
            .iter()
            .map(|&j| {
                let mut probe = vec![0.0; n];
                probe[j] = beta;
                probe
            })
            .collect();
        let refs: Vec<&[f64]> = probes.iter().map(Vec::as_slice).collect();
        let mut sums = vec![0.0; columns.len()];
        for _ in 0..repeats {
            for (sum, rec) in sums.iter_mut().zip(oracle.query_batch(&refs).unwrap()) {
                *sum += rec.observation.power;
            }
        }
        sums
    }

    #[test]
    fn chunked_scan_is_bit_identical_to_one_batch_per_repeat() {
        // 150 inputs: two full chunks plus a partial one.
        let (n, beta, repeats) = (150, 0.5, 2);
        let mut chunked = noisy_oracle(n, None);
        let got = probe_column_norms(&mut chunked, beta, repeats).unwrap();
        let mut reference = noisy_oracle(n, None);
        let columns: Vec<usize> = (0..n).collect();
        let want: Vec<f64> = one_batch_sums(&mut reference, &columns, beta, repeats)
            .iter()
            .map(|sum| sum / (repeats as f64 * beta))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(chunked.query_count(), repeats * n);

        // The subset probe shares the scan: unordered, repeated indices
        // spanning more than one chunk.
        let indices: Vec<usize> = (0..100).map(|i| (i * 37) % n).chain([5, 5]).collect();
        let got = probe_columns_subset(&mut chunked, &indices, beta, repeats).unwrap();
        let want = one_batch_sums(&mut reference, &indices, beta, repeats);
        for ((&(j, norm), &sum), &i) in got.iter().zip(&want).zip(&indices) {
            assert_eq!(j, i);
            assert_eq!(norm.to_bits(), (sum / (repeats as f64 * beta)).to_bits());
        }
    }

    #[test]
    fn chunked_scan_budget_is_all_or_nothing_per_repeat() {
        // Room for one and a half scans: the first repeat runs, the
        // second is refused before any of its queries is spent.
        let n = 150;
        let mut o = noisy_oracle(n, Some(n * 3 / 2));
        assert!(matches!(
            probe_column_norms(&mut o, 1.0, 2),
            Err(AttackError::QueryBudgetExhausted { budget }) if budget == n * 3 / 2
        ));
        assert_eq!(o.query_count(), n);
    }

    #[test]
    fn compressed_probe_exact_when_overdetermined() {
        let w = Matrix::random_uniform(4, 12, -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(1));
        let truth = w.col_l1_norms();
        let mut o = oracle_with_weights(w);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let est = probe_norms_compressed(&mut o, 40, 1e-9, &mut rng).unwrap();
        for (e, t) in est.iter().zip(&truth) {
            assert!((e - t).abs() < 1e-6, "{e} vs {t}");
        }
        assert_eq!(o.query_count(), 40);
    }

    #[test]
    fn compressed_probe_ranks_columns_with_fewer_queries_than_n() {
        // 64 inputs, only 40 queries: ridge recovery should still put the
        // dominant column on top of the ranking.
        let mut w = Matrix::random_uniform(4, 64, -0.1, 0.1, &mut ChaCha8Rng::seed_from_u64(3));
        for i in 0..4 {
            w[(i, 17)] = 1.5; // dominant column
        }
        let mut o = oracle_with_weights(w);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let est = probe_norms_compressed(&mut o, 40, 1e-2, &mut rng).unwrap();
        assert_eq!(xbar_linalg::vec_ops::argmax(&est), 17);
        assert!(o.query_count() < 64);
    }

    #[test]
    fn compressed_probe_validates_parameters() {
        let mut o = oracle_with_weights(Matrix::from_rows(&[&[1.0, 0.5]]));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(probe_norms_compressed(&mut o, 0, 0.1, &mut rng).is_err());
        assert!(probe_norms_compressed(&mut o, 4, -1.0, &mut rng).is_err());
        assert!(probe_norms_compressed(&mut o, 4, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn hill_climb_finds_peak_on_smooth_landscape() {
        // Build a 8x8 weight landscape with a smooth bump at (5, 2).
        let shape = ImageShape::new(8, 8, 1);
        let mut w = Matrix::zeros(1, 64);
        for r in 0..8 {
            for c in 0..8 {
                let d2 = ((r as f64 - 5.0).powi(2) + (c as f64 - 2.0).powi(2)) / 8.0;
                w[(0, shape.index(r, c, 0))] = (-d2).exp();
            }
        }
        let mut o = oracle_with_weights(w);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let out = argmax_norm_hill_climb(&mut o, shape, 4, 64, &mut rng).unwrap();
        assert_eq!(out.best_index, shape.index(5, 2, 0));
        // Must beat a full scan on query count.
        assert!(out.queries_used < 64, "used {} queries", out.queries_used);
    }

    #[test]
    fn hill_climb_respects_budget() {
        let shape = ImageShape::new(6, 6, 1);
        let w = Matrix::random_uniform(1, 36, 0.0, 1.0, &mut ChaCha8Rng::seed_from_u64(9));
        let mut o = oracle_with_weights(w);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let out = argmax_norm_hill_climb(&mut o, shape, 3, 10, &mut rng).unwrap();
        assert!(out.queries_used <= 10);
        assert_eq!(out.queries_used, o.query_count());
    }

    #[test]
    fn recalibration_policy_is_stale() {
        let never = RecalibrationPolicy::never();
        assert_eq!(RecalibrationPolicy::default(), never);
        assert!(!never.is_stale(0, 0.0));
        assert!(!never.is_stale(u64::MAX, f64::INFINITY));

        // The query trigger alone, with `>=` at the boundary.
        let every = RecalibrationPolicy::every(4);
        assert!(!every.is_stale(3, 1e9));
        assert!(every.is_stale(4, 0.0));
        assert!(every.is_stale(5, 0.0));

        // The staleness trigger alone, with `>=` at the boundary.
        let drift = RecalibrationPolicy::on_staleness(50.0);
        assert!(!drift.is_stale(u64::MAX, 49.999));
        assert!(drift.is_stale(0, 50.0));
        assert!(drift.is_stale(0, 51.0));

        // Both triggers: either one firing is enough.
        let both = RecalibrationPolicy {
            every_queries: 4,
            staleness_threshold: 50.0,
        };
        assert!(!both.is_stale(3, 49.999));
        assert!(both.is_stale(4, 0.0));
        assert!(both.is_stale(0, 50.0));
        assert!(both.is_stale(4, 50.0));
    }

    #[test]
    fn hill_climb_validates_parameters() {
        let shape = ImageShape::new(2, 2, 1);
        let mut o = oracle_with_weights(Matrix::from_rows(&[&[1.0, 0.5, 0.2, 0.1]]));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(argmax_norm_hill_climb(&mut o, shape, 0, 10, &mut rng).is_err());
        assert!(argmax_norm_hill_climb(&mut o, shape, 1, 0, &mut rng).is_err());
        let bad_shape = ImageShape::new(3, 3, 1);
        assert!(argmax_norm_hill_climb(&mut o, bad_shape, 1, 10, &mut rng).is_err());
    }
}
