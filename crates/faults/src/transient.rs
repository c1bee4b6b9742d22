//! Per-query transient faults: read-disturb flips and conductance
//! jitter that exist only for the duration of one query.
//!
//! Permanent faults ([`crate::FaultPlan`]) are compiled once per trial
//! and frozen; transients are redrawn for *every query* from a
//! domain-separated ChaCha8 stream keyed by
//! `(campaign_seed, trial_index, global query index, device_index)`.
//! Because the draws depend only on a query's global index — never on
//! how queries are grouped into batches, which backend evaluates them,
//! or which thread runs the trial — transient-fault campaigns stay
//! bit-identical across threads, backends, and batch splits, exactly
//! like the oracle's own noise streams.
//!
//! [`TransientBackend`] is an [`EvalBackend`] decorator: wrap any
//! backend (including a [`crate::FaultyBackend`]'s inner backend) and
//! every sample of every batch is evaluated against a transiently
//! perturbed copy of the array. An empty [`TransientSpec`] delegates
//! directly — bit-identical outputs *and* identical traces.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, EvalBackend, PreparedEval, RngStreams};
use xbar_crossbar::power::PowerModel;

use crate::plan::{gaussian, splitmix64, FaultKey};
use crate::{FaultsError, Result};

/// Domain-separation constant for transient draws. Distinct from the
/// permanent-fault domain so a query's transient draws can never
/// collide with the trial's compiled fault plan, the runtime's trial
/// streams, or the oracle's noise streams.
const TRANSIENT_DOMAIN: u64 = 0xFA17_5EED_D00D_0002;

/// A serializable description of per-query transient fault rates.
///
/// Two effects, applied per device in this order (flip wins):
///
/// * **Read-disturb flip**: with probability `flip_rate` the device
///   reads out at a rail for this query only — half of the flips land
///   on `g_min`, half on `g_max`.
/// * **Transient jitter**: surviving devices are perturbed by a
///   lognormal factor about their programmed value,
///   `g ← g_min + (g − g_min) · exp(jitter_sigma · z)`, clamped to the
///   device's conductance range.
///
/// The default ([`TransientSpec::none`]) injects nothing and is the
/// property-tested bit-identity case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientSpec {
    /// Per-device, per-query probability of a read-disturb rail flip.
    pub flip_rate: f64,
    /// Sigma of the per-device, per-query lognormal conductance jitter.
    pub jitter_sigma: f64,
}

impl Default for TransientSpec {
    fn default() -> Self {
        TransientSpec::none()
    }
}

impl TransientSpec {
    /// The empty spec: injects nothing.
    pub const fn none() -> Self {
        TransientSpec {
            flip_rate: 0.0,
            jitter_sigma: 0.0,
        }
    }

    /// Builder-style setter for [`TransientSpec::flip_rate`].
    #[must_use]
    pub fn with_flip_rate(mut self, rate: f64) -> Self {
        self.flip_rate = rate;
        self
    }

    /// Builder-style setter for [`TransientSpec::jitter_sigma`].
    #[must_use]
    pub fn with_jitter_sigma(mut self, sigma: f64) -> Self {
        self.jitter_sigma = sigma;
        self
    }

    /// Whether this spec injects nothing (the decorator delegates
    /// directly and is bit-identical to the wrapped backend).
    pub fn is_empty(&self) -> bool {
        self.flip_rate == 0.0 && self.jitter_sigma == 0.0
    }

    /// Validates every parameter's domain.
    ///
    /// # Errors
    ///
    /// Returns [`FaultsError::InvalidSpec`] naming the first offending
    /// parameter: `flip_rate` must lie in `[0, 1]`, `jitter_sigma` must
    /// be finite and non-negative.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.flip_rate) {
            return Err(FaultsError::InvalidSpec { name: "flip_rate" });
        }
        if !(self.jitter_sigma.is_finite() && self.jitter_sigma >= 0.0) {
            return Err(FaultsError::InvalidSpec {
                name: "jitter_sigma",
            });
        }
        Ok(())
    }

    /// Materialises the transiently perturbed copy of `array` that
    /// query `query_index` reads, plus the number of rail flips drawn.
    ///
    /// Device `d`'s draws come from
    /// `ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(trial ^ splitmix64(query ^ DOMAIN))))`
    /// with `set_stream(d)` — the permanent-fault keying extended by
    /// the global query index under its own domain constant. Every
    /// device always consumes the same fixed draw sequence (flip
    /// uniform, jitter gaussian), so enabling one effect never
    /// reshuffles the other's draws.
    pub fn perturb(
        &self,
        array: &CrossbarArray,
        key: FaultKey,
        query_index: u64,
    ) -> (CrossbarArray, u64) {
        let base = splitmix64(
            key.campaign_seed
                ^ splitmix64(key.trial_index ^ splitmix64(query_index ^ TRANSIENT_DOMAIN)),
        );
        // Seeded once; each device clones it onto its own stream.
        let root = ChaCha8Rng::seed_from_u64(base);
        let device = *array.device();
        let jittering = self.jitter_sigma > 0.0;
        let mut flips = 0u64;
        let perturbed = array.map_conductances(|idx, g| {
            let mut rng = root.clone();
            rng.set_stream(idx as u64);
            // Fixed draw order per device; both always consumed.
            let u: f64 = rng.gen_range(0.0..1.0);
            let z = gaussian(&mut rng);
            if u < self.flip_rate {
                flips += 1;
                return if u < self.flip_rate / 2.0 {
                    device.g_min
                } else {
                    device.g_max
                };
            }
            if jittering {
                let scaled = device.g_min + (g - device.g_min) * (self.jitter_sigma * z).exp();
                scaled.clamp(device.g_min, device.g_max)
            } else {
                g
            }
        });
        (perturbed, flips)
    }
}

/// A spec/key pair — the serializable "inject these transients for this
/// trial" value that configs (e.g. `OracleConfig`) carry. The global
/// query index completes the keying at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientInjection {
    /// What to inject on every query.
    pub spec: TransientSpec,
    /// The `(campaign_seed, trial_index)` half of the keying.
    pub key: FaultKey,
}

impl TransientInjection {
    /// Pairs a spec with a key.
    pub const fn new(spec: TransientSpec, key: FaultKey) -> Self {
        TransientInjection { spec, key }
    }

    /// The perturbed copy of `array` that global query `query_index`
    /// reads, with observability counters
    /// ([`xbar_obs::names::XBAR_TRANSIENT_APPLY`] and
    /// [`xbar_obs::names::XBAR_TRANSIENT_FLIPS`]).
    pub fn perturbed(&self, array: &CrossbarArray, query_index: u64) -> CrossbarArray {
        let (perturbed, flips) = self.spec.perturb(array, self.key, query_index);
        xbar_obs::count(xbar_obs::names::XBAR_TRANSIENT_APPLY, 1);
        xbar_obs::count(xbar_obs::names::XBAR_TRANSIENT_FLIPS, flips);
        perturbed
    }
}

/// An [`EvalBackend`] decorator that evaluates every sample against a
/// transiently perturbed copy of the array.
///
/// `base_query` is the global index of the batch's first sample; sample
/// `i` is perturbed under query index `base_query + i`. Callers that
/// number their queries globally (the oracle) construct one decorator
/// per batch with the batch's base offset — the same discipline as the
/// oracle's [`RngStreams`] noise streams, and the reason results cannot
/// depend on batch splits.
///
/// With a non-empty spec each sample is delegated to the inner backend
/// as its own single-sample batch (its perturbed array is unique), so
/// per-batch trace events become per-query events — deterministically,
/// independent of how callers split batches. With an empty spec every
/// call delegates directly: bit-identical outputs and traces.
#[derive(Debug)]
pub struct TransientBackend {
    inner: Box<dyn EvalBackend>,
    injection: TransientInjection,
    base_query: u64,
}

impl TransientBackend {
    /// Wraps `inner`, perturbing sample `i` of every batch under global
    /// query index `base_query + i`.
    pub fn new(
        inner: Box<dyn EvalBackend>,
        injection: TransientInjection,
        base_query: u64,
    ) -> Self {
        TransientBackend {
            inner,
            injection,
            base_query,
        }
    }

    /// Convenience constructor from a [`BackendKind`].
    pub fn from_kind(kind: BackendKind, injection: TransientInjection, base_query: u64) -> Self {
        TransientBackend::new(kind.build(), injection, base_query)
    }

    /// The injection in effect.
    pub fn injection(&self) -> TransientInjection {
        self.injection
    }

    /// The perturbed array sample `i` reads, with observability.
    fn perturbed(&self, array: &CrossbarArray, i: usize) -> CrossbarArray {
        self.injection.perturbed(array, self.base_query + i as u64)
    }
}

impl EvalBackend for TransientBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn prepare(&self, array: &CrossbarArray) -> xbar_crossbar::Result<PreparedEval> {
        // The handle snapshots the *unperturbed* array; per-sample
        // perturbed copies are materialised (and prepared) per query at
        // evaluation time — they are unique to one query by design and
        // can never be cached across batches.
        self.inner.prepare(array)
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        if self.injection.spec.is_empty() {
            return self.inner.mvm_prepared(prepared, array, inputs);
        }
        prepared.ensure_current(array)?;
        let mut out = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let perturbed = self.perturbed(prepared.array(), i);
            let p = self.inner.prepare(&perturbed)?;
            out.extend(self.inner.mvm_prepared(&p, &perturbed, &[input])?);
        }
        Ok(out)
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> xbar_crossbar::Result<Vec<f64>> {
        if self.injection.spec.is_empty() {
            return self.inner.power_prepared(model, prepared, array, inputs);
        }
        prepared.ensure_current(array)?;
        let mut out = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let perturbed = self.perturbed(prepared.array(), i);
            let p = self.inner.prepare(&perturbed)?;
            out.extend(self.inner.power_prepared(model, &p, &perturbed, &[input])?);
        }
        Ok(out)
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> xbar_crossbar::Result<Vec<Vec<f64>>> {
        if self.injection.spec.is_empty() {
            return self
                .inner
                .noisy_mvm_prepared(prepared, array, inputs, streams);
        }
        prepared.ensure_current(array)?;
        let mut out = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let perturbed = self.perturbed(prepared.array(), i);
            let p = self.inner.prepare(&perturbed)?;
            // Sample i keeps its own noise stream regardless of the
            // per-sample delegation.
            out.extend(
                self.inner
                    .noisy_mvm_prepared(&p, &perturbed, &[input], &mut |_| streams(i))?,
            );
        }
        Ok(out)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> xbar_crossbar::Result<Vec<f64>> {
        if self.injection.spec.is_empty() {
            return self
                .inner
                .noisy_power_prepared(model, prepared, array, inputs, streams);
        }
        prepared.ensure_current(array)?;
        let mut out = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let perturbed = self.perturbed(prepared.array(), i);
            let p = self.inner.prepare(&perturbed)?;
            out.extend(self.inner.noisy_power_prepared(
                model,
                &p,
                &perturbed,
                &[input],
                &mut |_| streams(i),
            )?);
        }
        Ok(out)
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
    fn spec_validation_and_emptiness() {
        assert!(TransientSpec::none().is_empty());
        assert!(TransientSpec::default().validate().is_ok());
        assert!(!TransientSpec::none().with_flip_rate(0.01).is_empty());
        assert!(!TransientSpec::none().with_jitter_sigma(0.1).is_empty());
        assert!(TransientSpec::none()
            .with_flip_rate(1.5)
            .validate()
            .is_err());
        assert!(TransientSpec::none()
            .with_flip_rate(-0.1)
            .validate()
            .is_err());
        assert!(TransientSpec::none()
            .with_jitter_sigma(f64::NAN)
            .validate()
            .is_err());
        assert!(TransientSpec::none()
            .with_jitter_sigma(-1.0)
            .validate()
            .is_err());
    }

    #[test]
    fn perturbation_is_deterministic_in_its_key_and_query() {
        let array = programmed(6, 8, 3);
        let spec = TransientSpec::none()
            .with_flip_rate(0.1)
            .with_jitter_sigma(0.2);
        let key = FaultKey::new(42, 7);
        let (a, fa) = spec.perturb(&array, key, 11);
        let (b, fb) = spec.perturb(&array, key, 11);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        // Query index, trial index, and campaign seed all separate draws.
        let (other_query, _) = spec.perturb(&array, key, 12);
        let (other_trial, _) = spec.perturb(&array, FaultKey::new(42, 8), 11);
        let (other_seed, _) = spec.perturb(&array, FaultKey::new(43, 7), 11);
        assert_ne!(a, other_query);
        assert_ne!(a, other_trial);
        assert_ne!(a, other_seed);
    }

    #[test]
    fn empty_spec_perturbs_nothing() {
        let array = programmed(4, 5, 9);
        let (same, flips) = TransientSpec::none().perturb(&array, FaultKey::new(0, 0), 0);
        assert_eq!(same, array);
        assert_eq!(flips, 0);
    }

    #[test]
    fn batch_split_does_not_change_results() {
        let array = programmed(5, 7, 21);
        let spec = TransientSpec::none()
            .with_flip_rate(0.15)
            .with_jitter_sigma(0.1);
        let injection = TransientInjection::new(spec, FaultKey::new(9, 2));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inputs = Matrix::random_uniform(6, 7, -1.0, 1.0, &mut rng);
        let refs: Vec<&[f64]> = (0..6).map(|b| inputs.row(b)).collect();

        fn mvm(
            backend: &TransientBackend,
            array: &CrossbarArray,
            refs: &[&[f64]],
        ) -> Vec<Vec<f64>> {
            let prepared = backend.prepare(array).unwrap();
            backend.mvm_prepared(&prepared, array, refs).unwrap()
        }

        // One batch of six at base 100 ...
        let whole = mvm(
            &TransientBackend::from_kind(BackendKind::Naive, injection, 100),
            &array,
            &refs,
        );
        // ... must equal two batches of three at bases 100 and 103,
        // and the blocked backend must agree bit for bit.
        let first = mvm(
            &TransientBackend::from_kind(BackendKind::Blocked, injection, 100),
            &array,
            &refs[..3],
        );
        let second = mvm(
            &TransientBackend::from_kind(BackendKind::Blocked, injection, 103),
            &array,
            &refs[3..],
        );
        let split: Vec<Vec<f64>> = first.into_iter().chain(second).collect();
        assert_eq!(whole, split);
    }

    #[test]
    fn flips_land_on_rails_and_jitter_stays_in_range() {
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let w = Matrix::random_uniform(10, 10, -1.0, 1.0, &mut rng);
        let array = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let spec = TransientSpec::none()
            .with_flip_rate(0.3)
            .with_jitter_sigma(0.5);
        let (perturbed, flips) = spec.perturb(&array, FaultKey::new(1, 1), 1);
        assert!(flips > 0, "a 30% flip rate on 200 devices must flip some");
        for mat in [perturbed.g_plus(), perturbed.g_minus()] {
            for i in 0..10 {
                for j in 0..10 {
                    let g = mat[(i, j)];
                    assert!(
                        (device.g_min..=device.g_max).contains(&g),
                        "conductance {g} escaped the device range"
                    );
                }
            }
        }
    }
}
