//! Compiled fault plans: per-device draws keyed by
//! `(campaign_seed, trial_index, device_index)`.

use std::sync::OnceLock;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_crossbar::array::CrossbarArray;
use xbar_linalg::standard_normal;

use crate::spec::FaultSpec;
use crate::{FaultsError, Result};

/// Domain-separation constant mixed into every fault seed so fault
/// draws can never collide with the runtime's per-trial RNG streams or
/// the oracle's noise streams, which use the raw campaign seed.
const FAULT_DOMAIN: u64 = 0xFA17_5EED_D00D_0001;

/// SplitMix64 — the standard 64-bit finalising mixer. Used to derive
/// one well-mixed base seed per `(campaign_seed, trial_index)` pair.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic keying for one trial's fault draws.
///
/// The contract (documented in DESIGN.md and relied on by the property
/// tests): device `d`'s draws come from
/// `ChaCha8Rng::seed_from_u64(splitmix64(campaign_seed ^ splitmix64(trial_index ^ DOMAIN)))`
/// with `set_stream(d)`. Each device owns a whole counter-mode stream,
/// so draws are independent of compilation order, thread count, and of
/// every other RNG consumer in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultKey {
    /// The campaign-level seed (shared by every trial of a campaign).
    pub campaign_seed: u64,
    /// The trial index within the campaign.
    pub trial_index: u64,
}

impl FaultKey {
    /// A key for the given campaign seed and trial index.
    pub const fn new(campaign_seed: u64, trial_index: u64) -> Self {
        FaultKey {
            campaign_seed,
            trial_index,
        }
    }

    /// The keyed generator on stream 0, never drawn from: device `d`'s
    /// RNG is a clone of it moved to `set_stream(d)`. Seeding once and
    /// cloning per device skips the seed expansion per device while
    /// yielding exactly the streams `seed_from_u64` + `set_stream(d)`
    /// would.
    fn root_rng(&self) -> ChaCha8Rng {
        let base = splitmix64(self.campaign_seed ^ splitmix64(self.trial_index ^ FAULT_DOMAIN));
        ChaCha8Rng::seed_from_u64(base)
    }
}

/// A spec/key pair — the serializable "inject these faults for this
/// trial" value that configs (e.g. `OracleConfig`) carry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjection {
    /// What to inject.
    pub spec: FaultSpec,
    /// The deterministic keying of the per-device draws.
    pub key: FaultKey,
}

impl FaultInjection {
    /// Pairs a spec with a key.
    pub const fn new(spec: FaultSpec, key: FaultKey) -> Self {
        FaultInjection { spec, key }
    }

    /// Compiles the pair for an `outputs x inputs` array — shorthand
    /// for [`FaultSpec::compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::compile`].
    pub fn compile(&self, outputs: usize, inputs: usize) -> Result<FaultPlan> {
        self.spec.compile(outputs, inputs, self.key)
    }
}

/// The stuck-at decision for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckKind {
    /// Not stuck; variation and drift apply.
    Free,
    /// Pinned to `g_max`.
    On,
    /// Pinned to `g_min`.
    Off,
}

/// The drift exponents `ν_d` a plan stores.
#[derive(Debug, Clone, PartialEq)]
enum DriftExponents {
    /// Undispersed (`drift_sigma == 0`, or `drift_nu == 0`): every
    /// device's exponent is exactly `drift_nu`, stored once.
    Shared(f64),
    /// One exponent per device (`2·M·N`, canonical device order).
    PerDevice(Vec<f64>),
}

/// A plan's drift factors at one drift time.
#[derive(Debug, Clone, Copy)]
enum DriftFactors<'a> {
    /// Every device relaxes by the same factor (exactly 1.0 while drift
    /// is inert: `(1 + t)^(-0)` is exactly 1.0 too).
    Uniform(f64),
    /// Device `d` relaxes by `base^(-ν_d)`, with `base = 1 + t`.
    PerDevice { base: f64, nu: &'a [f64] },
}

impl DriftFactors<'_> {
    /// Device `idx`'s factor.
    fn at(self, idx: usize) -> f64 {
        match self {
            DriftFactors::Uniform(d) => d,
            DriftFactors::PerDevice { base, nu } => base.powf(-nu[idx]),
        }
    }
}

/// A [`FaultSpec`] compiled for one array shape under one [`FaultKey`]:
/// every per-device decision is drawn and frozen, so applying the plan
/// is a deterministic, RNG-free transform.
///
/// The plan stores each device's drift *exponent* `ν_d`, not its drift
/// factor, so one plan can be applied at any drift time
/// ([`FaultPlan::apply_at`]): a drifting deployment compiles once and
/// re-times the same draws at every drift epoch. An undispersed plan
/// (`drift_sigma == 0`) stores its one shared exponent once, so
/// re-timing it costs one `powf`, not one per device.
///
/// Plans compare equal iff all decisions are equal ([`PartialEq`]),
/// which the thread-invariance tests use directly.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    key: FaultKey,
    outputs: usize,
    inputs: usize,
    /// Per-device stuck decisions (`2·M·N`, G⁺ then G⁻ row-major).
    /// Empty for a plan that perturbs nothing at any drift time.
    stuck: Vec<StuckKind>,
    /// Per-device lognormal variation factors (1.0 = untouched).
    scale: Vec<f64>,
    /// The drift exponents `ν_d`.
    drift_nu: DriftExponents,
    /// Per-input-line attenuation factors (length `N`).
    line_scale: Vec<f64>,
    stuck_on: usize,
    stuck_off: usize,
    /// [`FaultPlan::drift_factors`], materialised on first request.
    drift_view: OnceLock<Vec<f64>>,
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        // `drift_view` is a cache of the other fields and is left out.
        self.spec == other.spec
            && self.key == other.key
            && (self.outputs, self.inputs) == (other.outputs, other.inputs)
            && self.stuck == other.stuck
            && self.scale == other.scale
            && self.drift_nu == other.drift_nu
            && self.line_scale == other.line_scale
            && (self.stuck_on, self.stuck_off) == (other.stuck_on, other.stuck_off)
    }
}

impl FaultSpec {
    /// Compiles this spec for an `outputs x inputs` array under `key`,
    /// drawing every per-device decision from its own
    /// `(campaign_seed, trial_index, device_index)` RNG stream.
    ///
    /// Every device draws in the same fixed order (stuck uniform,
    /// variation gaussian, drift gaussian) regardless of which effects
    /// are enabled, so enabling one fault model never reshuffles
    /// another's draws. The drift gaussian comes last, so it is left
    /// undrawn when no drift exponent needs it.
    ///
    /// Drift exponents are drawn whenever `drift_nu > 0`, even at a
    /// zero `drift_time`, so the plan can later be re-timed with
    /// [`FaultPlan::apply_at`].
    ///
    /// # Errors
    ///
    /// Propagates [`FaultSpec::validate`].
    pub fn compile(&self, outputs: usize, inputs: usize, key: FaultKey) -> Result<FaultPlan> {
        self.validate()?;
        let _span = xbar_obs::span(xbar_obs::names::SPAN_FAULT_COMPILE);
        xbar_obs::count(xbar_obs::names::XBAR_FAULT_PLAN_COMPILE, 1);
        let mut plan = FaultPlan {
            spec: *self,
            key,
            outputs,
            inputs,
            stuck: Vec::new(),
            scale: Vec::new(),
            drift_nu: DriftExponents::Shared(self.drift_nu),
            line_scale: Vec::new(),
            stuck_on: 0,
            stuck_off: 0,
            drift_view: OnceLock::new(),
        };
        if self.is_empty() && self.drift_nu == 0.0 {
            return Ok(plan);
        }
        let num_devices = 2 * outputs * inputs;
        plan.stuck.reserve_exact(num_devices);
        plan.scale.reserve_exact(num_devices);
        let variation = self.variation_sigma > 0.0;
        // Undispersed, `exp(0 · z)` would be exactly 1: every
        // `ν_d = drift_nu`, so the exponent stays stored once.
        if self.drift_nu > 0.0 && self.drift_sigma > 0.0 {
            plan.drift_nu = DriftExponents::PerDevice(Vec::with_capacity(num_devices));
        }
        let root = key.root_rng();
        for d in 0..num_devices {
            let mut rng = root.clone();
            rng.set_stream(d as u64);
            let u: f64 = rng.gen_range(0.0..1.0);
            let z_var = standard_normal(&mut rng);
            let kind = if u < self.stuck_on_rate {
                plan.stuck_on += 1;
                StuckKind::On
            } else if u < self.stuck_on_rate + self.stuck_off_rate {
                plan.stuck_off += 1;
                StuckKind::Off
            } else {
                StuckKind::Free
            };
            plan.stuck.push(kind);
            plan.scale.push(if variation {
                (self.variation_sigma * z_var).exp()
            } else {
                1.0
            });
            if let DriftExponents::PerDevice(nu) = &mut plan.drift_nu {
                nu.push(self.drift_nu * (self.drift_sigma * standard_normal(&mut rng)).exp());
            }
        }
        plan.line_scale = (0..inputs)
            .map(|j| {
                if self.line_resistance > 0.0 {
                    1.0 / (1.0 + self.line_resistance * j as f64)
                } else {
                    1.0
                }
            })
            .collect();
        Ok(plan)
    }
}

impl FaultPlan {
    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The key the per-device draws were taken under.
    pub fn key(&self) -> FaultKey {
        self.key
    }

    /// The `(outputs, inputs)` array shape this plan targets.
    pub fn shape(&self) -> (usize, usize) {
        (self.outputs, self.inputs)
    }

    /// Whether applying this plan is guaranteed to return a
    /// bit-identical copy (compiled from an empty spec). A drift-only
    /// plan compiled at `drift_time = 0` is a no-op, yet
    /// [`FaultPlan::apply_at`] a later time still ages the array.
    pub fn is_noop(&self) -> bool {
        self.spec.is_empty()
    }

    /// Devices pinned to `g_max`.
    pub fn stuck_on(&self) -> usize {
        self.stuck_on
    }

    /// Devices pinned to `g_min`.
    pub fn stuck_off(&self) -> usize {
        self.stuck_off
    }

    /// Total stuck devices (on + off).
    pub fn stuck_devices(&self) -> usize {
        self.stuck_on + self.stuck_off
    }

    /// Total devices covered by the plan, `2·M·N`.
    pub fn num_devices(&self) -> usize {
        2 * self.outputs * self.inputs
    }

    /// Per-device drift factors in `(0, 1]` (1.0 = untouched) at the
    /// plan's own `drift_time`, in the canonical device order (G⁺
    /// row-major then G⁻). Empty for a no-op plan. Exposed so lifetime
    /// tests can check the monotone-decay contract: at a fixed key, each
    /// device's factor is non-increasing in [`FaultSpec::drift_time`].
    ///
    /// Applying a plan never needs this vector; it is materialised on
    /// the first call and cached.
    pub fn drift_factors(&self) -> &[f64] {
        if self.is_noop() {
            return &[];
        }
        self.drift_view.get_or_init(|| {
            let drift = self.drift_at(self.spec.drift_time);
            (0..self.num_devices()).map(|idx| drift.at(idx)).collect()
        })
    }

    /// The drift factors at `drift_time`: device `d`'s is
    /// `(1 + t)^(-ν_d)`, computed once for a shared exponent, or exactly
    /// 1.0 while drift is inert (zero time or zero `drift_nu`).
    fn drift_at(&self, drift_time: f64) -> DriftFactors<'_> {
        if drift_time <= 0.0 {
            return DriftFactors::Uniform(1.0);
        }
        match &self.drift_nu {
            DriftExponents::Shared(nu) => DriftFactors::Uniform((1.0 + drift_time).powf(-nu)),
            DriftExponents::PerDevice(nu) => DriftFactors::PerDevice {
                base: 1.0 + drift_time,
                nu,
            },
        }
    }

    /// Materialises a faulted copy of a programmed array at the plan's
    /// own `drift_time` — [`FaultPlan::apply_at`] with
    /// `self.spec().drift_time`.
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::apply_at`].
    pub fn apply(&self, array: &CrossbarArray) -> Result<CrossbarArray> {
        self.apply_at(array, self.spec.drift_time)
    }

    /// Materialises a faulted copy of a programmed array as it reads at
    /// `drift_time`, bit-identical to compiling the spec with that
    /// `drift_time` under the same key and applying the result — on the
    /// calling thread ([`FaultPlan::apply_at_threads`] with one thread).
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::apply_at_threads`].
    pub fn apply_at(&self, array: &CrossbarArray, drift_time: f64) -> Result<CrossbarArray> {
        self.apply_at_threads(array, drift_time, 1)
    }

    /// [`FaultPlan::apply_at`] with the array's conductance rows fanned
    /// out over up to `threads` workers (`0` = the host's parallelism).
    ///
    /// Per free device: the variation factor is applied and clamped to
    /// the device's conductance range (mirroring programming), then the
    /// drift factor `(1 + drift_time)^(-ν_d)` relaxes the value toward
    /// `g_min`. Stuck devices are pinned to their rail. Finally the
    /// per-line attenuation scales every device on its input line, stuck
    /// or not — wire resistance is downstream of the device.
    ///
    /// Each device reads only its own frozen decisions and pristine
    /// conductance, written straight into the output row by row
    /// ([`CrossbarArray::map_conductance_rows`]), so the result does
    /// not depend on `threads`. A spec that is empty at `drift_time`
    /// returns an exact clone; untouched effects never perturb bits
    /// (factors of exactly 1.0 skip the arithmetic).
    ///
    /// # Errors
    ///
    /// * [`FaultsError::ShapeMismatch`] if the array's shape is not the
    ///   one the plan was compiled for.
    /// * [`FaultsError::InvalidSpec`] naming `drift_time` if it is
    ///   negative or not finite.
    pub fn apply_at_threads(
        &self,
        array: &CrossbarArray,
        drift_time: f64,
        threads: usize,
    ) -> Result<CrossbarArray> {
        let got = (array.num_outputs(), array.num_inputs());
        if got != (self.outputs, self.inputs) {
            return Err(FaultsError::ShapeMismatch {
                expected: (self.outputs, self.inputs),
                got,
            });
        }
        let spec = FaultSpec {
            drift_time,
            ..self.spec
        };
        spec.validate()?;
        let _span = xbar_obs::span(xbar_obs::names::SPAN_FAULT_APPLY);
        xbar_obs::count(xbar_obs::names::XBAR_FAULT_APPLY, 1);
        xbar_obs::count(
            xbar_obs::names::XBAR_FAULT_STUCK_DEVICES,
            self.stuck_devices() as u64,
        );
        if spec.is_empty() {
            return Ok(array.clone());
        }
        let device = *array.device();
        let drift = self.drift_at(drift_time);
        Ok(array.map_conductance_rows(threads, |first, src, dst| {
            // One row: device `first + j` sits on input line `j`.
            let stuck = &self.stuck[first..first + dst.len()];
            let scale = &self.scale[first..first + dst.len()];
            for (j, out) in dst.iter_mut().enumerate() {
                let mut g = match stuck[j] {
                    StuckKind::On => device.g_max,
                    StuckKind::Off => device.g_min,
                    StuckKind::Free => {
                        let mut g = src[j];
                        let s = scale[j];
                        if s != 1.0 {
                            g = (g * s).clamp(device.g_min, device.g_max);
                        }
                        let d = drift.at(first + j);
                        if d != 1.0 {
                            g = device.g_min + (g - device.g_min) * d;
                        }
                        g
                    }
                };
                let ls = self.line_scale[j];
                if ls != 1.0 {
                    g *= ls;
                }
                *out = g;
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_crossbar::device::DeviceModel;
    use xbar_linalg::Matrix;

    fn programmed(m: usize, n: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap()
    }

    #[test]
    fn empty_spec_compiles_to_noop_and_applies_bit_identically() {
        let plan = FaultSpec::none()
            .compile(5, 7, FaultKey::new(1, 2))
            .unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan.stuck_devices(), 0);
        let xbar = programmed(5, 7, 3);
        assert_eq!(plan.apply(&xbar).unwrap(), xbar);
    }

    #[test]
    fn same_key_same_plan_different_key_different_plan() {
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.2)
            .with_variation_sigma(0.1);
        let a = spec.compile(6, 9, FaultKey::new(42, 3)).unwrap();
        let b = spec.compile(6, 9, FaultKey::new(42, 3)).unwrap();
        assert_eq!(a, b);
        let other_trial = spec.compile(6, 9, FaultKey::new(42, 4)).unwrap();
        let other_seed = spec.compile(6, 9, FaultKey::new(43, 3)).unwrap();
        assert_ne!(a, other_trial);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn stuck_devices_land_on_their_rails() {
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let w = Matrix::random_uniform(8, 8, -1.0, 1.0, &mut rng);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let spec = FaultSpec::none()
            .with_stuck_on_rate(0.25)
            .with_stuck_off_rate(0.25);
        let plan = spec.compile(8, 8, FaultKey::new(7, 0)).unwrap();
        assert!(plan.stuck_on() > 0 && plan.stuck_off() > 0);
        let faulted = plan.apply(&xbar).unwrap();
        let flat = |a: &CrossbarArray, idx: usize| {
            let plane = 64;
            let (mat, k) = if idx < plane {
                (a.g_plus().clone(), idx)
            } else {
                (a.g_minus().clone(), idx - plane)
            };
            mat[(k / 8, k % 8)]
        };
        for idx in 0..plan.num_devices() {
            match plan.stuck[idx] {
                StuckKind::On => assert_eq!(flat(&faulted, idx), device.g_max),
                StuckKind::Off => assert_eq!(flat(&faulted, idx), device.g_min),
                StuckKind::Free => assert_eq!(flat(&faulted, idx), flat(&xbar, idx)),
            }
        }
    }

    #[test]
    fn drift_relaxes_conductances_toward_g_min() {
        let device = DeviceModel {
            g_min: 0.1,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let w = Matrix::random_uniform(6, 6, -1.0, 1.0, &mut rng);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let spec = FaultSpec::none().with_drift(0.1, 0.3, 1000.0);
        let plan = spec.compile(6, 6, FaultKey::new(5, 1)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!(faulted.g_plus()[(i, j)] <= xbar.g_plus()[(i, j)] + 1e-15);
                assert!(faulted.g_plus()[(i, j)] >= device.g_min - 1e-15);
            }
        }
        // Longer drift times relax further (per-device exponents match).
        let longer = FaultSpec::none()
            .with_drift(0.1, 0.3, 10_000.0)
            .compile(6, 6, FaultKey::new(5, 1))
            .unwrap()
            .apply(&xbar)
            .unwrap();
        let sum = |a: &CrossbarArray| a.input_line_conductances().iter().sum::<f64>();
        assert!(sum(&longer) < sum(&faulted));
    }

    #[test]
    fn cloned_root_streams_match_the_keying_contract() {
        let key = FaultKey::new(0xC0FFEE, 9);
        let root = key.root_rng();
        let base = splitmix64(key.campaign_seed ^ splitmix64(key.trial_index ^ FAULT_DOMAIN));
        for d in [0u64, 1, 2, 63, 1 << 20] {
            let mut hoisted = root.clone();
            hoisted.set_stream(d);
            let mut seeded = ChaCha8Rng::seed_from_u64(base);
            seeded.set_stream(d);
            let a: Vec<u64> = (0..8).map(|_| hoisted.gen()).collect();
            let b: Vec<u64> = (0..8).map(|_| seeded.gen()).collect();
            assert_eq!(a, b, "device {d}");
        }
    }

    #[test]
    fn drift_factors_follow_the_plans_own_time() {
        let key = FaultKey::new(3, 1);
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.1)
            .with_drift(0.2, 0.3, 50.0);
        let plan = spec.compile(3, 4, key).unwrap();
        let factors = plan.drift_factors();
        assert_eq!(factors.len(), plan.num_devices());
        assert!(factors.iter().all(|&d| d > 0.0 && d < 1.0));
        // Inert drift reads as exactly 1.0 per device; a no-op plan has
        // no factors at all.
        let at_zero = FaultSpec {
            drift_time: 0.0,
            ..spec
        }
        .compile(3, 4, key)
        .unwrap();
        assert!(at_zero.drift_factors().iter().all(|&d| d == 1.0));
        let drift_only = FaultSpec::none().with_drift(0.2, 0.3, 0.0);
        assert!(drift_only
            .compile(3, 4, key)
            .unwrap()
            .drift_factors()
            .is_empty());
        // The lazily filled view is not part of plan equality.
        assert_eq!(plan, spec.compile(3, 4, key).unwrap());
    }

    #[test]
    fn apply_at_rejects_invalid_drift_times() {
        let plan = FaultSpec::none()
            .with_drift(0.1, 0.0, 1.0)
            .compile(2, 2, FaultKey::new(0, 0))
            .unwrap();
        let xbar = programmed(2, 2, 4);
        for t in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                plan.apply_at(&xbar, t),
                Err(FaultsError::InvalidSpec { name: "drift_time" })
            ));
        }
    }

    #[test]
    fn line_resistance_attenuates_far_lines_only() {
        let xbar = programmed(4, 5, 13);
        let spec = FaultSpec::none().with_line_resistance(0.01);
        let plan = spec.compile(4, 5, FaultKey::new(1, 0)).unwrap();
        let faulted = plan.apply(&xbar).unwrap();
        let before = xbar.input_line_conductances();
        let after = faulted.input_line_conductances();
        // Line 0 sits at the driver: untouched, bit for bit.
        assert_eq!(after[0], before[0]);
        for j in 1..5 {
            let want = before[j] / (1.0 + 0.01 * j as f64);
            assert!((after[j] - want).abs() < 1e-12, "line {j}");
        }
    }

    #[test]
    fn apply_rejects_shape_mismatch() {
        let plan = FaultSpec::none()
            .with_stuck_off_rate(0.1)
            .compile(3, 4, FaultKey::new(0, 0))
            .unwrap();
        let xbar = programmed(4, 3, 1);
        assert!(matches!(
            plan.apply(&xbar),
            Err(FaultsError::ShapeMismatch {
                expected: (3, 4),
                got: (4, 3)
            })
        ));
    }

    #[test]
    fn injection_roundtrips_through_json() {
        let inj = FaultInjection::new(
            FaultSpec::none().with_stuck_on_rate(0.05),
            FaultKey::new(42, 7),
        );
        let text = serde_json::to_string(&inj).unwrap();
        let back: FaultInjection = serde_json::from_str(&text).unwrap();
        assert_eq!(back, inj);
        assert_eq!(
            inj.compile(4, 4).unwrap(),
            inj.spec.compile(4, 4, inj.key).unwrap()
        );
    }
}
