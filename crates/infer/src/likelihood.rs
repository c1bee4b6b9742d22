//! The power-observation likelihood: collecting noisy power readings
//! from the oracle and turning them into a Bayesian model over column
//! norms.
//!
//! Every calibrated power reading is linear in the victim's column
//! 1-norms: `power(u) = ⟨u, ν⟩` plus measurement noise (paper Eq. 5).
//! [`PowerObservations`] collects a design matrix worth of readings
//! through the oracle's budgeted front door, [`Oracle::query_batch`],
//! so inference composes with faults, transients, drift, and defenses
//! exactly like every other attack in the workspace. [`NormPosterior`] is then the textbook
//! linear-Gaussian model over a chosen subset of columns.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::Oracle;
use xbar_linalg::Matrix;

use crate::error::InferError;
use crate::mcmc::{BayesModel, Prior};
use crate::screen::{EllipseScreen, RowSums, ScreenBase, StepSums};
use crate::Result;

/// A batch of power observations: the inputs the attacker chose and
/// the calibrated power each one read back.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerObservations {
    /// The design: one query input per row.
    pub inputs: Matrix,
    /// The calibrated power reading of each row, in weight units.
    pub powers: Vec<f64>,
}

impl PowerObservations {
    /// Collects one power reading per design row through
    /// [`Oracle::query_batch`] — the budgeted, drift-aware session
    /// entry point.
    ///
    /// # Errors
    ///
    /// [`InferError::Oracle`] on budget exhaustion or shape errors.
    pub fn collect(oracle: &mut Oracle, design: &Matrix) -> Result<Self> {
        let refs: Vec<&[f64]> = design.rows_iter().collect();
        let records = oracle
            .query_batch(&refs)
            .map_err(|e| InferError::Oracle(e.to_string()))?;
        xbar_obs::count(xbar_obs::names::INFER_OBSERVATION, records.len() as u64);
        Ok(PowerObservations {
            inputs: design.clone(),
            powers: records.iter().map(|r| r.observation.power).collect(),
        })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }
}

/// A random query design: `num_queries × dim`, entries uniform on
/// `[0, 1)`, drawn from a ChaCha8 stream keyed by `seed` alone (design
/// generation is attacker-side and sequential — no scheduling can
/// reorder it).
///
/// With `support`, only the listed columns get non-zero entries: the
/// resulting power readings then mix *only* those columns' norms,
/// which is what lets [`NormPosterior`] infer a subset of a large
/// input space exactly.
///
/// # Errors
///
/// [`InferError::InvalidParameter`] for a zero-sized design, an empty
/// or out-of-range support.
pub fn random_design(
    num_queries: usize,
    dim: usize,
    support: Option<&[usize]>,
    seed: u64,
) -> Result<Matrix> {
    if num_queries == 0 {
        return Err(InferError::InvalidParameter {
            name: "num_queries",
        });
    }
    if dim == 0 {
        return Err(InferError::InvalidParameter { name: "dim" });
    }
    if let Some(cols) = support {
        if cols.is_empty() {
            return Err(InferError::InvalidParameter { name: "support" });
        }
        if cols.iter().any(|&j| j >= dim) {
            return Err(InferError::InvalidParameter { name: "support" });
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut design = Matrix::zeros(num_queries, dim);
    for b in 0..num_queries {
        match support {
            Some(cols) => {
                for &j in cols {
                    design[(b, j)] = rng.gen_range(0.0..1.0);
                }
            }
            None => {
                for v in design.row_mut(b) {
                    *v = rng.gen_range(0.0..1.0);
                }
            }
        }
    }
    Ok(design)
}

/// Estimates the power-measurement noise (in weight units) by repeating
/// one probe input and taking the sample standard deviation of the
/// readings. Spends `repeats` queries of the oracle's budget.
///
/// The estimate is what the likelihood needs regardless of how the
/// oracle's noise is configured internally (scaled measurement noise,
/// defenses, transients): it measures the *observed* dispersion at the
/// oracle's front door.
///
/// # Errors
///
/// * [`InferError::InvalidParameter`] for `repeats < 2`.
/// * [`InferError::Oracle`] on query failure.
pub fn estimate_noise_sigma(oracle: &mut Oracle, probe: &[f64], repeats: usize) -> Result<f64> {
    if repeats < 2 {
        return Err(InferError::InvalidParameter { name: "repeats" });
    }
    let refs: Vec<&[f64]> = (0..repeats).map(|_| probe).collect();
    let records = oracle
        .query_batch(&refs)
        .map_err(|e| InferError::Oracle(e.to_string()))?;
    xbar_obs::count(xbar_obs::names::INFER_OBSERVATION, records.len() as u64);
    let powers: Vec<f64> = records.iter().map(|r| r.observation.power).collect();
    let mean = powers.iter().sum::<f64>() / powers.len() as f64;
    let var =
        powers.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / (powers.len() - 1) as f64;
    Ok(var.sqrt())
}

/// Design rows per register-blocked likelihood panel: 16 predictions
/// are 8 two-lane SSE2 accumulators, enough independent add chains to
/// hide the add latency (8-row panels measured ~25% slower per
/// evaluation).
const PANEL: usize = 16;

/// The Bayesian column-norm model: independent priors over a subset of
/// columns, Gaussian measurement noise, and the linear power forward
/// model `power(u) = ⟨u, ν⟩`.
///
/// The design must put non-zero entries *only* on the subset columns
/// (see [`random_design`] with `support`); otherwise the off-subset
/// columns would leak into the readings and the subset model would be
/// misspecified — construction rejects such designs.
#[derive(Debug, Clone)]
pub struct NormPosterior {
    /// Design restricted to the subset columns (`q × k`).
    design: Matrix,
    /// The first `q - q % PANEL` design rows packed in `PANEL`-row
    /// panels, each stored k-major: entry `(b, kk)` of panel `p` sits at
    /// `(p·k + kk)·PANEL + (b − p·PANEL)`.
    panels: Vec<f64>,
    powers: Vec<f64>,
    noise_sigma: f64,
    /// `1/σ²`, hoisted out of every evaluation.
    inv_var: f64,
    /// `q·(ln σ + ½ ln 2π)`, hoisted out of every evaluation.
    norm_const: f64,
    priors: Vec<Prior>,
    subset: Vec<usize>,
    input_dim: usize,
    /// What [`BayesModel::ellipse_screen`] needs beyond the panels;
    /// `None` when the bound's constants are not finite.
    ellipse: Option<EllipseParts>,
}

/// The per-model half of [`NormPosterior`]'s elliptical-slice screen.
#[derive(Debug, Clone)]
struct EllipseParts {
    /// The prior means `m`.
    means: Vec<f64>,
    /// `ĉ0_b = fl(p_b − u_b·m)`, one per design row.
    c0: Vec<f64>,
    base: ScreenBase,
}

impl EllipseParts {
    /// Folds `c0 = p − X m` and the bound's magnitude sums; `None`
    /// when the bound's constants are not finite.
    fn new(
        design: &Matrix,
        powers: &[f64],
        priors: &[Prior],
        inv_var: f64,
        norm_const: f64,
    ) -> Option<Self> {
        let means: Vec<f64> = priors.iter().map(Prior::mean).collect();
        let mut rows = RowSums::default();
        let mut c0 = Vec::with_capacity(powers.len());
        for (b, &power) in powers.iter().enumerate() {
            let (mut predicted, mut magnitude, mut norm) = (0.0, 0.0, 0.0);
            for (&u, &m) in design.row(b).iter().zip(&means) {
                predicted += u * m;
                magnitude += u.abs() * m.abs();
                norm += u.abs();
            }
            let r = power - predicted;
            rows.add(r, power.abs() + magnitude, norm);
            c0.push(r);
        }
        let base = ScreenBase::new(powers.len(), means.len(), rows, inv_var, norm_const)?;
        Some(EllipseParts { means, c0, base })
    }
}

impl NormPosterior {
    /// Builds the model from collected observations.
    ///
    /// `subset` lists the column indices under inference (unique, in
    /// range); `priors` supplies one prior per subset entry;
    /// `noise_sigma` is the measurement-noise scale in weight units
    /// (finite, positive — estimate it with [`estimate_noise_sigma`]).
    ///
    /// # Errors
    ///
    /// * [`InferError::InvalidParameter`] for an invalid subset, a
    ///   non-positive `noise_sigma`, or a design row with off-subset
    ///   energy.
    /// * [`InferError::DimensionMismatch`] when `priors` and `subset`
    ///   disagree.
    pub fn new(
        obs: &PowerObservations,
        subset: &[usize],
        priors: Vec<Prior>,
        noise_sigma: f64,
    ) -> Result<Self> {
        if obs.is_empty() {
            return Err(InferError::InvalidParameter { name: "obs" });
        }
        if obs.powers.len() != obs.inputs.rows() {
            return Err(InferError::DimensionMismatch {
                expected: obs.inputs.rows(),
                got: obs.powers.len(),
            });
        }
        if subset.is_empty() {
            return Err(InferError::InvalidParameter { name: "subset" });
        }
        let input_dim = obs.inputs.cols();
        let mut seen = vec![false; input_dim];
        for &j in subset {
            if j >= input_dim || seen[j] {
                return Err(InferError::InvalidParameter { name: "subset" });
            }
            seen[j] = true;
        }
        if priors.len() != subset.len() {
            return Err(InferError::DimensionMismatch {
                expected: subset.len(),
                got: priors.len(),
            });
        }
        if !(noise_sigma.is_finite() && noise_sigma > 0.0) {
            return Err(InferError::InvalidParameter {
                name: "noise_sigma",
            });
        }
        // Off-subset energy means the subset model cannot explain the
        // readings — refuse rather than silently misattribute power.
        for b in 0..obs.inputs.rows() {
            for (j, &v) in obs.inputs.row(b).iter().enumerate() {
                if v != 0.0 && !seen[j] {
                    return Err(InferError::InvalidParameter {
                        name: "design (non-zero off-subset entry)",
                    });
                }
            }
        }
        let mut design = Matrix::zeros(obs.inputs.rows(), subset.len());
        for b in 0..obs.inputs.rows() {
            let row = obs.inputs.row(b);
            for (k, &j) in subset.iter().enumerate() {
                design[(b, k)] = row[j];
            }
        }
        let k = subset.len();
        let full_rows = design.rows() - design.rows() % PANEL;
        let mut panels = Vec::with_capacity(full_rows * k);
        for b0 in (0..full_rows).step_by(PANEL) {
            for kk in 0..k {
                panels.extend((b0..b0 + PANEL).map(|b| design[(b, kk)]));
            }
        }
        let inv_var = 1.0 / (noise_sigma * noise_sigma);
        let norm_const = obs.powers.len() as f64 * (noise_sigma.ln() + 0.918_938_533_204_672_7);
        let ellipse = EllipseParts::new(&design, &obs.powers, &priors, inv_var, norm_const);
        Ok(NormPosterior {
            design,
            panels,
            powers: obs.powers.clone(),
            noise_sigma,
            inv_var,
            norm_const,
            priors,
            subset: subset.to_vec(),
            input_dim,
            ellipse,
        })
    }

    /// The column indices under inference, in model-dimension order.
    pub fn subset(&self) -> &[usize] {
        &self.subset
    }

    /// The oracle's input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The measurement-noise scale the likelihood uses.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Scatters a subset-ordered vector (e.g. posterior means) into a
    /// full `input_dim`-length vector with zeros elsewhere — the shape
    /// the norm-guided pixel attacks consume.
    ///
    /// # Errors
    ///
    /// [`InferError::DimensionMismatch`] when `values` is not
    /// subset-shaped.
    pub fn scatter(&self, values: &[f64]) -> Result<Vec<f64>> {
        if values.len() != self.subset.len() {
            return Err(InferError::DimensionMismatch {
                expected: self.subset.len(),
                got: values.len(),
            });
        }
        let mut full = vec![0.0; self.input_dim];
        for (&j, &v) in self.subset.iter().zip(values) {
            full[j] = v;
        }
        Ok(full)
    }
}

impl BayesModel for NormPosterior {
    fn dim(&self) -> usize {
        self.subset.len()
    }

    fn priors(&self) -> &[Prior] {
        &self.priors
    }

    /// The Gaussian log-likelihood `−½ Σ_b (p_b − ⟨u_b, θ⟩)²/σ² −
    /// q·ln(σ√(2π))`.
    ///
    /// Full panels compute `PANEL` predictions side by side: lane `b`
    /// is row `b`'s own `+0.0`-seeded ascending-k `u·θ` sum, exactly
    /// the remainder rows' scalar loop, and the squared residuals fold
    /// into `acc` in ascending row order. Lanes hold different rows,
    /// never parts of one sum, so the result is bit-identical to the
    /// row-by-row loop.
    fn log_likelihood(&self, theta: &[f64]) -> f64 {
        let full_rows = self.powers.len() - self.powers.len() % PANEL;
        let mut acc = 0.0;
        for (panel, powers) in self
            .panels
            .chunks_exact(PANEL * self.subset.len())
            .zip(self.powers[..full_rows].chunks_exact(PANEL))
        {
            let mut predicted = [0.0; PANEL];
            for (column, &t) in panel.chunks_exact(PANEL).zip(theta) {
                for (p, &u) in predicted.iter_mut().zip(column) {
                    *p += u * t;
                }
            }
            for (&power, &p) in powers.iter().zip(&predicted) {
                let r = power - p;
                acc += r * r;
            }
        }
        for b in full_rows..self.design.rows() {
            let row = self.design.row(b);
            let mut predicted = 0.0;
            for (u, &t) in row.iter().zip(theta) {
                predicted += u * t;
            }
            let r = self.powers[b] - predicted;
            acc += r * r;
        }
        -0.5 * acc * self.inv_var - self.norm_const
    }

    /// The quadratic screen of [`crate::screen`]: one pass over the
    /// same 16-row panels computes each row's `Â_b = u_b·fl(θ − m)` and
    /// `V̂_b = u_b·ν` in registers (`+0.0`-seeded, ascending k, like
    /// the predictions) and folds them with `ĉ0_b` into the five
    /// coefficients, so a transition allocates nothing.
    fn ellipse_screen(&self, theta: &[f64], nu: &[f64]) -> Option<EllipseScreen> {
        let ellipse = self.ellipse.as_ref()?;
        let means = &ellipse.means;
        let (mut alpha, mut beta) = (0.0f64, 0.0f64);
        for ((&t, &m), &v) in theta.iter().zip(means).zip(nu) {
            alpha = alpha.max((t - m).abs());
            beta = beta.max(v.abs());
        }
        let full_rows = self.powers.len() - self.powers.len() % PANEL;
        let mut sums = StepSums::default();
        for (panel, c0) in self
            .panels
            .chunks_exact(PANEL * self.subset.len())
            .zip(ellipse.c0[..full_rows].chunks_exact(PANEL))
        {
            // Two sweeps of eight two-lane accumulators each, like
            // the likelihood's one.
            let mut a = [0.0; PANEL];
            for (column, (&t, &m)) in panel.chunks_exact(PANEL).zip(theta.iter().zip(means)) {
                let d = t - m;
                for (a, &u) in a.iter_mut().zip(column) {
                    *a += u * d;
                }
            }
            let mut v = [0.0; PANEL];
            for (column, &n) in panel.chunks_exact(PANEL).zip(nu) {
                for (v, &u) in v.iter_mut().zip(column) {
                    *v += u * n;
                }
            }
            for ((&c0, &a), &v) in c0.iter().zip(&a).zip(&v) {
                sums.add(c0, a, v);
            }
        }
        for b in full_rows..self.design.rows() {
            let (mut a, mut v) = (0.0, 0.0);
            for ((&u, (&t, &m)), &n) in self
                .design
                .row(b)
                .iter()
                .zip(theta.iter().zip(means))
                .zip(nu)
            {
                a += u * (t - m);
                v += u * n;
            }
            sums.add(ellipse.c0[b], a, v);
        }
        ellipse.base.screen(sums, alpha, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::oracle::{OracleConfig, OutputAccess};
    use xbar_crossbar::power::PowerModel;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    fn oracle(noise: f64, seed: u64) -> Oracle {
        // Column norms: [1.5, 0.75, 0.6].
        let w = Matrix::from_rows(&[&[1.0, -0.5, 0.1], &[0.5, 0.25, -0.5]]);
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        let mut cfg = OracleConfig::ideal().with_access(OutputAccess::None);
        if noise > 0.0 {
            cfg = cfg.with_power(PowerModel::default().with_noise(noise));
        }
        Oracle::new(net, &cfg, seed).unwrap()
    }

    #[test]
    fn design_shapes_and_support() {
        let d = random_design(5, 4, None, 3).unwrap();
        assert_eq!((d.rows(), d.cols()), (5, 4));
        let s = random_design(5, 4, Some(&[1, 3]), 3).unwrap();
        for b in 0..5 {
            assert_eq!(s[(b, 0)], 0.0);
            assert_eq!(s[(b, 2)], 0.0);
            assert!(s[(b, 1)] >= 0.0 && s[(b, 1)] < 1.0);
        }
        // Deterministic in the seed.
        assert_eq!(s, random_design(5, 4, Some(&[1, 3]), 3).unwrap());
        assert_ne!(s, random_design(5, 4, Some(&[1, 3]), 4).unwrap());
        assert!(random_design(0, 4, None, 0).is_err());
        assert!(random_design(5, 0, None, 0).is_err());
        assert!(random_design(5, 4, Some(&[]), 0).is_err());
        assert!(random_design(5, 4, Some(&[4]), 0).is_err());
    }

    #[test]
    fn collect_reads_exact_powers_on_ideal_hardware() {
        let mut o = oracle(0.0, 1);
        let truth = o.true_column_norms();
        let design = random_design(6, 3, None, 7).unwrap();
        let obs = PowerObservations::collect(&mut o, &design).unwrap();
        assert_eq!(obs.len(), 6);
        for b in 0..6 {
            let want: f64 = design.row(b).iter().zip(&truth).map(|(u, n)| u * n).sum();
            assert!((obs.powers[b] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_estimate_tracks_the_configured_noise() {
        let mut quiet = oracle(0.0, 5);
        let probe = vec![0.5, 0.5, 0.5];
        let sigma0 = estimate_noise_sigma(&mut quiet, &probe, 16).unwrap();
        assert!(sigma0.abs() < 1e-12, "ideal hardware has zero dispersion");
        let mut noisy = oracle(0.2, 5);
        let sigma = estimate_noise_sigma(&mut noisy, &probe, 64).unwrap();
        assert!(sigma > 0.0);
        let mut noisier = oracle(0.8, 5);
        let sigma_hi = estimate_noise_sigma(&mut noisier, &probe, 64).unwrap();
        assert!(
            sigma_hi > 2.0 * sigma,
            "4x the configured noise should show up: {sigma} vs {sigma_hi}"
        );
        assert!(estimate_noise_sigma(&mut quiet, &probe, 1).is_err());
    }

    #[test]
    fn model_construction_validates_everything() {
        let mut o = oracle(0.0, 2);
        let design = random_design(4, 3, Some(&[0, 2]), 11).unwrap();
        let obs = PowerObservations::collect(&mut o, &design).unwrap();
        let priors = vec![Prior::normal(1.0, 1.0).unwrap(); 2];
        assert!(NormPosterior::new(&obs, &[0, 2], priors.clone(), 0.1).is_ok());
        // Subset/priors mismatch.
        assert!(matches!(
            NormPosterior::new(&obs, &[0], priors.clone(), 0.1),
            Err(InferError::DimensionMismatch { .. })
        ));
        // Duplicate and out-of-range subsets.
        assert!(NormPosterior::new(&obs, &[0, 0], priors.clone(), 0.1).is_err());
        assert!(NormPosterior::new(&obs, &[0, 3], priors.clone(), 0.1).is_err());
        // Bad noise.
        assert!(NormPosterior::new(&obs, &[0, 2], priors.clone(), 0.0).is_err());
        // Off-subset energy in the design.
        assert!(matches!(
            NormPosterior::new(&obs, &[0, 1], priors, 0.1),
            Err(InferError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn likelihood_peaks_at_the_true_norms() {
        let mut o = oracle(0.0, 4);
        let truth = o.true_column_norms();
        let design = random_design(12, 3, None, 13).unwrap();
        let obs = PowerObservations::collect(&mut o, &design).unwrap();
        let priors = vec![Prior::normal(1.0, 2.0).unwrap(); 3];
        let model = NormPosterior::new(&obs, &[0, 1, 2], priors, 0.05).unwrap();
        let at_truth = model.log_likelihood(&truth);
        for d in 0..3 {
            for delta in [-0.1, 0.1] {
                let mut off = truth.clone();
                off[d] += delta;
                assert!(
                    model.log_likelihood(&off) < at_truth,
                    "perturbing dim {d} by {delta} should lower the likelihood"
                );
            }
        }
    }

    #[test]
    fn scatter_places_values_on_the_subset() {
        let mut o = oracle(0.0, 6);
        let design = random_design(4, 3, Some(&[2, 0]), 17).unwrap();
        let obs = PowerObservations::collect(&mut o, &design).unwrap();
        let priors = vec![Prior::normal(1.0, 1.0).unwrap(); 2];
        let model = NormPosterior::new(&obs, &[2, 0], priors, 0.1).unwrap();
        let full = model.scatter(&[9.0, 8.0]).unwrap();
        assert_eq!(full, vec![8.0, 0.0, 9.0]);
        assert!(model.scatter(&[1.0]).is_err());
    }
}
