//! The crossbar array: programming, matrix-vector multiplication, and the
//! total-current side channel.

use crate::device::DeviceModel;
use crate::mapping::WeightMapping;
use crate::{CrossbarError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xbar_linalg::{par, vec_ops, Matrix};

/// Process-wide source of conductance-generation fingerprints. Starts
/// at 1 so generation 0 can never name a live array (a useful sentinel
/// for "never prepared").
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A fresh, process-unique conductance generation.
fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// An `M x N` NVM crossbar array holding one neural-network layer as
/// differential conductance pairs.
///
/// All currents and conductances are in the paper's normalised units
/// (Eq. 4); [`crate::power::PowerModel`] converts to physical units when
/// reporting.
///
/// # Example
///
/// ```
/// use xbar_crossbar::array::CrossbarArray;
/// use xbar_crossbar::device::DeviceModel;
/// use xbar_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let w = Matrix::from_rows(&[&[1.0, -0.5]]);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let xbar = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng)?;
/// // Differential output equals W·u for the ideal device.
/// assert!((xbar.mvm(&[0.2, 0.4])[0] - 0.0).abs() < 1e-12);
/// # Ok::<(), xbar_crossbar::CrossbarError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    /// The conductance planes, immutable once built and shared by
    /// clones: a clone (the oracle's session views) aliases the `2·M·N`
    /// conductances instead of copying them.
    g_plus: Arc<Matrix>,
    g_minus: Arc<Matrix>,
    mapping: WeightMapping,
    device: DeviceModel,
    /// Conductance-generation fingerprint: process-unique, reassigned
    /// whenever the conductances could have changed (programming, the
    /// conductance maps, deserialisation). Cloning keeps the
    /// generation — a clone holds bit-identical conductances, so a
    /// [`crate::backend::PreparedEval`] built from one is valid for the
    /// other. Excluded from equality and serialisation.
    generation: u64,
}

/// Equality compares the physical state (conductances, mapping, device)
/// and ignores the [`CrossbarArray::generation`] fingerprint: two arrays
/// holding the same conductances are the same hardware no matter how
/// they were produced.
impl PartialEq for CrossbarArray {
    fn eq(&self, other: &Self) -> bool {
        self.g_plus == other.g_plus
            && self.g_minus == other.g_minus
            && self.mapping == other.mapping
            && self.device == other.device
    }
}

impl Serialize for CrossbarArray {
    fn serialize(&self) -> serde::Value {
        // Mirrors the derive layout (field order preserved); the
        // generation fingerprint is a process-local cache key and is
        // deliberately not persisted.
        serde::Value::Object(vec![
            (String::from("g_plus"), self.g_plus.serialize()),
            (String::from("g_minus"), self.g_minus.serialize()),
            (String::from("mapping"), self.mapping.serialize()),
            (String::from("device"), self.device.serialize()),
        ])
    }
}

impl Deserialize for CrossbarArray {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = value.as_object().ok_or_else(|| {
            serde::DeError::custom(format!(
                "expected object for struct CrossbarArray, found {}",
                value.type_name()
            ))
        })?;
        Ok(CrossbarArray {
            g_plus: Arc::new(
                Deserialize::deserialize(serde::__get_field(obj, "g_plus"))
                    .map_err(|e| e.in_field("g_plus"))?,
            ),
            g_minus: Arc::new(
                Deserialize::deserialize(serde::__get_field(obj, "g_minus"))
                    .map_err(|e| e.in_field("g_minus"))?,
            ),
            mapping: Deserialize::deserialize(serde::__get_field(obj, "mapping"))
                .map_err(|e| e.in_field("mapping"))?,
            device: Deserialize::deserialize(serde::__get_field(obj, "device"))
                .map_err(|e| e.in_field("device"))?,
            // A deserialised array is new hardware as far as any live
            // prepared state is concerned.
            generation: next_generation(),
        })
    }
}

impl CrossbarArray {
    /// Programs a weight matrix onto a fresh array under the given device
    /// model. Device non-idealities (quantisation, variation, faults) are
    /// applied per device during programming; read noise is applied per
    /// operation at inference time.
    ///
    /// # Errors
    ///
    /// Propagates mapping and device-validation errors.
    pub fn program<R: Rng + ?Sized>(
        weights: &Matrix,
        device: &DeviceModel,
        rng: &mut R,
    ) -> Result<Self> {
        let mapping = WeightMapping::for_weights(weights, device)?;
        let (target_p, target_m) = mapping.map_matrix(weights);
        let mut g_plus = target_p;
        let mut g_minus = target_m;
        for v in g_plus.as_mut_slice() {
            *v = device.program(*v, rng);
        }
        for v in g_minus.as_mut_slice() {
            *v = device.program(*v, rng);
        }
        Ok(CrossbarArray {
            g_plus: Arc::new(g_plus),
            g_minus: Arc::new(g_minus),
            mapping,
            device: *device,
            generation: next_generation(),
        })
    }

    /// Programs a weight matrix whose values are already normalised to
    /// `[-1, 1]`, pinning the mapping scale to the full conductance span
    /// per unit weight. Used by [`crate::tile::TiledCrossbar`] so that all
    /// tiles share one global scale and partial sums compose.
    ///
    /// # Errors
    ///
    /// Propagates device-validation errors; rejects empty matrices.
    pub fn program_with_unit_scale<R: Rng + ?Sized>(
        normalized_weights: &Matrix,
        device: &DeviceModel,
        rng: &mut R,
    ) -> Result<Self> {
        device.validate()?;
        if normalized_weights.is_empty() {
            return Err(CrossbarError::UnmappableWeights {
                reason: "empty weight matrix",
            });
        }
        let mapping = WeightMapping {
            scale: device.g_max - device.g_min,
            g_min: device.g_min,
        };
        let (mut g_plus, mut g_minus) = mapping.map_matrix(normalized_weights);
        for v in g_plus.as_mut_slice() {
            *v = device.program(*v, rng);
        }
        for v in g_minus.as_mut_slice() {
            *v = device.program(*v, rng);
        }
        Ok(CrossbarArray {
            g_plus: Arc::new(g_plus),
            g_minus: Arc::new(g_minus),
            mapping,
            device: *device,
            generation: next_generation(),
        })
    }

    /// The array's conductance-generation fingerprint.
    ///
    /// Process-unique and reassigned by every operation that can change
    /// the conductances: programming, [`Self::map_conductances`] and
    /// [`Self::map_conductance_rows`] (and therefore fault-plan
    /// application, transient perturbation, and drift-time advance,
    /// which are built on them), and deserialisation.
    /// Clones keep their source's generation because they hold
    /// bit-identical conductances. [`crate::backend::PreparedEval`] uses
    /// this as its cache key: a prepared handle whose generation no
    /// longer matches the array is stale and is rejected, never silently
    /// reused.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of output rows `M`.
    pub fn num_outputs(&self) -> usize {
        self.g_plus.rows()
    }

    /// Number of input columns `N`.
    pub fn num_inputs(&self) -> usize {
        self.g_plus.cols()
    }

    /// The weight↔conductance mapping in effect.
    pub fn mapping(&self) -> WeightMapping {
        self.mapping
    }

    /// The device model in effect.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The programmed `G⁺` matrix.
    pub fn g_plus(&self) -> &Matrix {
        &self.g_plus
    }

    /// The programmed `G⁻` matrix.
    pub fn g_minus(&self) -> &Matrix {
        &self.g_minus
    }

    /// The weights the array actually realises,
    /// `(G⁺ - G⁻) / k` — equal to the programmed weights for ideal
    /// devices, and the as-fabricated weights otherwise.
    pub fn effective_weights(&self) -> Matrix {
        let diff = &*self.g_plus - &*self.g_minus;
        diff.scaled(1.0 / self.mapping.scale)
    }

    /// Total number of programmable devices, `2·M·N` (the `G⁺` plane
    /// followed by the `G⁻` plane).
    pub fn num_devices(&self) -> usize {
        2 * self.num_outputs() * self.num_inputs()
    }

    /// Returns a copy of the array with every conductance replaced by
    /// `f(device_index, g)`, keeping the mapping and device model.
    ///
    /// Device indices enumerate the `G⁺` plane row-major (`i·N + j`),
    /// then the `G⁻` plane (`M·N + i·N + j`). This is the canonical
    /// device ordering that fault-injection plans key their per-device
    /// draws by, so it must never change.
    pub fn map_conductances<F: FnMut(usize, f64) -> f64>(&self, mut f: F) -> CrossbarArray {
        let offset = self.num_outputs() * self.num_inputs();
        let g_plus = (self.g_plus.as_slice().iter().enumerate())
            .map(|(idx, &g)| f(idx, g))
            .collect();
        let g_minus = (self.g_minus.as_slice().iter().enumerate())
            .map(|(idx, &g)| f(offset + idx, g))
            .collect();
        self.with_conductances(g_plus, g_minus)
    }

    /// Returns a copy of the array written one conductance row at a
    /// time: `f(first, src, dst)` fills `dst` from `src`, one row of `N`
    /// devices whose first device has canonical index `first` (the
    /// `G⁺` rows, then the `G⁻` rows, numbered as in
    /// [`Self::map_conductances`]).
    ///
    /// The `2·M` rows fan out over up to `threads` workers in contiguous
    /// runs ([`par::for_each_run`]; `0` = the host's parallelism). A row
    /// that depends only on `f`'s arguments is therefore the same at
    /// any thread count.
    pub fn map_conductance_rows<F>(&self, threads: usize, f: F) -> CrossbarArray
    where
        F: Fn(usize, &[f64], &mut [f64]) + Sync,
    {
        let n = self.num_inputs().max(1);
        let mut g_plus = vec![0.0; self.g_plus.as_slice().len()];
        let mut g_minus = vec![0.0; g_plus.len()];
        let sources = (self.g_plus.as_slice().chunks(n)).chain(self.g_minus.as_slice().chunks(n));
        let targets = g_plus.chunks_mut(n).chain(g_minus.chunks_mut(n));
        let mut rows: Vec<(&[f64], &mut [f64])> = sources.zip(targets).collect();
        par::for_each_run(&mut rows, threads, |row0, run| {
            for (r, (src, dst)) in run.iter_mut().enumerate() {
                f((row0 + r) * n, src, dst);
            }
        });
        self.with_conductances(g_plus, g_minus)
    }

    /// An array of this shape, mapping and device model holding the
    /// given row-major planes, under a fresh generation. Even an
    /// identity map yields a fresh generation: the fingerprint tracks
    /// *possible* change, and a false invalidation only costs one
    /// re-prepare while a false hit would silently reuse stale weights.
    fn with_conductances(&self, g_plus: Vec<f64>, g_minus: Vec<f64>) -> CrossbarArray {
        let (m, n) = (self.num_outputs(), self.num_inputs());
        CrossbarArray {
            g_plus: Arc::new(Matrix::from_vec(m, n, g_plus)),
            g_minus: Arc::new(Matrix::from_vec(m, n, g_minus)),
            mapping: self.mapping,
            device: self.device,
            generation: next_generation(),
        }
    }

    /// Noiseless differential MVM in weight units: `i = W_eff · v`
    /// (Eq. 3-4 with the normalisation folded in).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.num_inputs()`; use [`Self::checked_mvm`]
    /// for a fallible variant.
    pub fn mvm(&self, v: &[f64]) -> Vec<f64> {
        self.checked_mvm(v).expect("mvm: input length mismatch")
    }

    /// Fallible noiseless differential MVM.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLenMismatch`] on a length mismatch.
    pub fn checked_mvm(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.num_inputs() {
            return Err(CrossbarError::InputLenMismatch {
                expected: self.num_inputs(),
                got: v.len(),
            });
        }
        xbar_obs::count(xbar_obs::names::XBAR_ANALOG_MVM, 1);
        // `effective_weights().matvec(v)` bit for bit, one row at a
        // time: each row is formed into one reused buffer by the same
        // subtraction and scaling, then reduced by the same `dot`, so no
        // M x N matrix is allocated per vector.
        let inv_scale = 1.0 / self.mapping.scale;
        let mut w_row = vec![0.0; v.len()];
        let rows = self.g_plus.rows_iter().zip(self.g_minus.rows_iter());
        Ok(rows
            .map(|(gp, gm)| {
                for ((w, &p), &m) in w_row.iter_mut().zip(gp).zip(gm) {
                    *w = (p - m) * inv_scale;
                }
                vec_ops::dot(&w_row, v)
            })
            .collect())
    }

    /// Differential MVM with per-read device noise applied to every
    /// conductance (one fresh noise draw per device per call).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLenMismatch`] on a length mismatch.
    #[allow(clippy::needless_range_loop)]
    pub fn noisy_mvm<R: Rng + ?Sized>(&self, v: &[f64], rng: &mut R) -> Result<Vec<f64>> {
        if v.len() != self.num_inputs() {
            return Err(CrossbarError::InputLenMismatch {
                expected: self.num_inputs(),
                got: v.len(),
            });
        }
        if self.device.read_sigma == 0.0 {
            return self.checked_mvm(v);
        }
        xbar_obs::count(xbar_obs::names::XBAR_ANALOG_MVM, 1);
        let (m, n) = (self.num_outputs(), self.num_inputs());
        let mut out = vec![0.0; m];
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..n {
                let gp = self.device.read(self.g_plus[(i, j)], rng);
                let gm = self.device.read(self.g_minus[(i, j)], rng);
                acc += (gp - gm) * v[j];
            }
            out[i] = acc / self.mapping.scale;
        }
        Ok(out)
    }

    /// Differential MVM under IR drop (finite wire resistance): returns
    /// `(output currents in weight units, total supply current in
    /// conductance·voltage units)`. With `cfg.r_wire = 0` this equals
    /// ([`Self::mvm`], [`Self::total_current`]) exactly.
    ///
    /// # Errors
    ///
    /// Propagates solver and input-length errors.
    pub fn ir_drop_mvm(
        &self,
        v: &[f64],
        cfg: &crate::irdrop::IrDropConfig,
    ) -> Result<(Vec<f64>, f64)> {
        xbar_obs::count(xbar_obs::names::XBAR_IR_DROP_SOLVE, 1);
        let (mut out, total) =
            crate::irdrop::solve_differential(&self.g_plus, &self.g_minus, v, cfg)?;
        for o in &mut out {
            *o /= self.mapping.scale;
        }
        Ok((out, total))
    }

    /// Per-input-line total conductance `G_j = Σ_i (G⁺_ij + G⁻_ij)` —
    /// the paper's Eq. 5 coefficients.
    pub fn input_line_conductances(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_inputs()];
        for i in 0..self.num_outputs() {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.g_plus[(i, j)] + self.g_minus[(i, j)];
            }
        }
        out
    }

    /// Total steady-state current for an input (Eq. 5):
    /// `i_total = Σ_j v_j G_j`, in normalised conductance·voltage units.
    ///
    /// This is the raw side-channel quantity; measurement noise lives in
    /// [`crate::power::PowerModel`].
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InputLenMismatch`] on a length mismatch.
    pub fn total_current(&self, v: &[f64]) -> Result<f64> {
        if v.len() != self.num_inputs() {
            return Err(CrossbarError::InputLenMismatch {
                expected: self.num_inputs(),
                got: v.len(),
            });
        }
        Ok(self
            .input_line_conductances()
            .iter()
            .zip(v)
            .map(|(&g, &vj)| g * vj)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    fn ideal_array(w: &Matrix) -> CrossbarArray {
        CrossbarArray::program(w, &DeviceModel::ideal(), &mut rng()).unwrap()
    }

    #[test]
    fn ideal_mvm_equals_exact_matvec() {
        let w = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[0.0, 0.75, -0.5]]);
        let xbar = ideal_array(&w);
        let v = [0.3, 0.9, 0.1];
        let got = xbar.mvm(&v);
        let want = w.matvec(&v);
        for (g, e) in got.iter().zip(&want) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn effective_weights_match_programmed_for_ideal() {
        let w = Matrix::from_rows(&[&[1.0, -0.5], &[0.3, 0.0]]);
        let xbar = ideal_array(&w);
        assert!(xbar.effective_weights().approx_eq(&w, 1e-12));
    }

    #[test]
    fn total_current_is_affine_in_column_norms() {
        // i_total(e_j · Vdd=1) = 2 M g_min + k ‖W[:,j]‖₁, exactly Eq. 5.
        let device = DeviceModel {
            g_min: 0.03,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let w = Matrix::from_rows(&[&[0.6, -0.9], &[-0.2, 0.4]]);
        let xbar = CrossbarArray::program(&w, &device, &mut rng()).unwrap();
        let norms = w.col_l1_norms();
        let k = xbar.mapping().scale;
        for j in 0..2 {
            let mut e = vec![0.0; 2];
            e[j] = 1.0;
            let i_total = xbar.total_current(&e).unwrap();
            let want = 2.0 * 2.0 * device.g_min + k * norms[j];
            assert!((i_total - want).abs() < 1e-12, "column {j}");
        }
    }

    #[test]
    fn total_current_is_linear_in_input() {
        let w = Matrix::from_rows(&[&[0.6, -0.9], &[-0.2, 0.4]]);
        let xbar = ideal_array(&w);
        let a = xbar.total_current(&[1.0, 0.0]).unwrap();
        let b = xbar.total_current(&[0.0, 1.0]).unwrap();
        let ab = xbar.total_current(&[1.0, 1.0]).unwrap();
        assert!((ab - (a + b)).abs() < 1e-12);
        let half = xbar.total_current(&[0.5, 0.0]).unwrap();
        assert!((half - 0.5 * a).abs() < 1e-12);
    }

    #[test]
    fn total_current_nonnegative_for_nonnegative_inputs() {
        let w = Matrix::from_rows(&[&[0.6, -0.9], &[-0.2, 0.4]]);
        let xbar = ideal_array(&w);
        let mut r = rng();
        for _ in 0..20 {
            let v = [r.gen_range(0.0..1.0), r.gen_range(0.0..1.0)];
            assert!(xbar.total_current(&v).unwrap() >= 0.0);
        }
    }

    #[test]
    fn quantised_devices_distort_weights() {
        let device = DeviceModel::ideal().with_levels(4);
        let w = Matrix::from_rows(&[&[0.1, 0.21, -0.37, 0.93]]);
        let xbar = CrossbarArray::program(&w, &device, &mut rng()).unwrap();
        let eff = xbar.effective_weights();
        // Distorted but within one quantisation step (scale⁻¹·span/(L-1)).
        let step = (1.0 / xbar.mapping().scale) / 3.0;
        for j in 0..4 {
            let d = (eff[(0, j)] - w[(0, j)]).abs();
            assert!(d <= step / 2.0 + 1e-12, "weight {j} off by {d}");
        }
        // At least one weight actually moved.
        assert!(!eff.approx_eq(&w, 1e-9));
    }

    #[test]
    fn stuck_faults_change_weights() {
        let device = DeviceModel::ideal().with_stuck_rate(0.5);
        let w = Matrix::from_rows(&[&[0.5; 8]]);
        let xbar = CrossbarArray::program(&w, &device, &mut rng()).unwrap();
        assert!(!xbar.effective_weights().approx_eq(&w, 1e-6));
    }

    #[test]
    fn noisy_mvm_centres_on_ideal() {
        let device = DeviceModel::ideal().with_read_sigma(0.01);
        let w = Matrix::from_rows(&[&[0.5, -0.25], &[0.75, 0.1]]);
        let xbar = CrossbarArray::program(&w, &device, &mut rng()).unwrap();
        let v = [0.8, 0.4];
        let exact = w.matvec(&v);
        let mut r = rng();
        let mut mean = [0.0; 2];
        let reps = 500;
        for _ in 0..reps {
            let out = xbar.noisy_mvm(&v, &mut r).unwrap();
            for (m, o) in mean.iter_mut().zip(&out) {
                *m += o / reps as f64;
            }
        }
        for (m, e) in mean.iter().zip(&exact) {
            assert!((m - e).abs() < 0.02, "noisy mean {m} vs exact {e}");
        }
        // Individual reads differ from the exact value.
        let one = xbar.noisy_mvm(&v, &mut r).unwrap();
        assert!(one.iter().zip(&exact).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn dimension_errors() {
        let xbar = ideal_array(&Matrix::from_rows(&[&[1.0, 2.0]]));
        assert!(matches!(
            xbar.checked_mvm(&[1.0]),
            Err(CrossbarError::InputLenMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(xbar.total_current(&[1.0, 2.0, 3.0]).is_err());
        assert!(xbar.noisy_mvm(&[1.0], &mut rng()).is_err());
    }

    #[test]
    fn ir_drop_mvm_matches_ideal_at_zero_resistance() {
        let w = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[0.0, 0.75, -0.5]]);
        let xbar = ideal_array(&w);
        let v = [0.3, 0.9, 0.1];
        let cfg = crate::irdrop::IrDropConfig {
            r_wire: 0.0,
            ..crate::irdrop::IrDropConfig::default()
        };
        let (out, total) = xbar.ir_drop_mvm(&v, &cfg).unwrap();
        let ideal = xbar.mvm(&v);
        for (a, b) in out.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((total - xbar.total_current(&v).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn ir_drop_mvm_attenuates_with_resistance() {
        let w = Matrix::from_rows(&[&[1.0, 0.8, 0.6], &[0.7, 0.9, 0.5]]);
        let xbar = ideal_array(&w);
        let v = [1.0, 1.0, 1.0];
        let cfg = crate::irdrop::IrDropConfig {
            r_wire: 0.1,
            ..crate::irdrop::IrDropConfig::default()
        };
        let (_, total) = xbar.ir_drop_mvm(&v, &cfg).unwrap();
        assert!(total < xbar.total_current(&v).unwrap());
        assert!(total > 0.0);
    }

    #[test]
    fn map_conductances_visits_devices_in_canonical_order() {
        let w = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[0.0, 0.75, -0.5]]);
        let xbar = ideal_array(&w);
        let mut seen = Vec::new();
        let identity = xbar.map_conductances(|idx, g| {
            seen.push(idx);
            g
        });
        // Identity map is bit-identical and visits 0..num_devices once,
        // G⁺ row-major then G⁻ row-major.
        assert_eq!(identity, xbar);
        assert_eq!(seen, (0..xbar.num_devices()).collect::<Vec<_>>());
        assert_eq!(xbar.num_devices(), 12);
        // A real transform lands in the right plane: zeroing device 0
        // touches G⁺[0,0] only.
        let zeroed = xbar.map_conductances(|idx, g| if idx == 0 { 0.0 } else { g });
        assert_eq!(zeroed.g_plus()[(0, 0)], 0.0);
        assert_eq!(zeroed.g_minus()[(0, 0)], xbar.g_minus()[(0, 0)]);
    }

    #[test]
    fn generation_fingerprints_conductance_change() {
        let w = Matrix::from_rows(&[&[0.5, -1.0], &[0.25, 0.75]]);
        let a = ideal_array(&w);
        let b = ideal_array(&w);
        // Every programming produces distinct hardware.
        assert_ne!(a.generation(), b.generation());
        // Clones hold bit-identical conductances and keep the
        // fingerprint; equality ignores it entirely.
        assert_eq!(a.clone().generation(), a.generation());
        assert_eq!(a, b);
        // Any conductance map — even the identity — is a new generation.
        let mapped = a.map_conductances(|_, g| g);
        assert_ne!(mapped.generation(), a.generation());
        assert_eq!(mapped, a);
        // A serialisation round trip is new hardware to live prepared
        // state, and the persisted form carries no generation field.
        let value = serde::Serialize::serialize(&a);
        let obj = value.as_object().unwrap();
        assert!(obj.iter().all(|(k, _)| k != "generation"));
        let back: CrossbarArray = serde::Deserialize::deserialize(&value).unwrap();
        assert_eq!(back, a);
        assert_ne!(back.generation(), a.generation());
    }

    #[test]
    fn shapes() {
        let xbar = ideal_array(&Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]]));
        assert_eq!(xbar.num_outputs(), 2);
        assert_eq!(xbar.num_inputs(), 3);
        assert_eq!(xbar.input_line_conductances().len(), 3);
    }
}
