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
//! Transients reach the hardware through the oracle
//! (`xbar_core::oracle::Oracle`): with a non-empty [`TransientSpec`]
//! each query is evaluated against its own
//! [`TransientInjection::perturbed`] copy of the deployed array, keyed
//! by the query's global index. An empty spec is never applied — the
//! oracle evaluates the deployed array directly, so its outputs *and*
//! traces are bit-identical to an oracle with no injection.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_crossbar::array::CrossbarArray;
use xbar_linalg::standard_normal;

use crate::plan::{splitmix64, FaultKey};
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

    /// Whether this spec injects nothing (the oracle then evaluates the
    /// deployed array directly, bit-identical to no injection).
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
            let z = standard_normal(&mut rng);
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
