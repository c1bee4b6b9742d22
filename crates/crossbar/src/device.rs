//! NVM device models.
//!
//! Conductances are expressed in normalised units (the paper's Eq. 4
//! normalisation): `g_min` is the off-state leakage and `g_max` the
//! strongest programmable state. The paper analyses the *ideal* device
//! ([`DeviceModel::ideal`]); the non-ideal knobs here (level quantisation,
//! programming variation, stuck-at faults, read noise) implement the
//! non-idealities the paper defers to future work, and power the ablation
//! experiments.

use crate::{CrossbarError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::standard_normal;

/// A programmable NVM device model.
///
/// Programming a target conductance passes through, in order:
///
/// 1. clamping to `[g_min, g_max]`;
/// 2. quantisation to `levels` equally spaced states (if set);
/// 3. multiplicative log-normal programming variation (`program_sigma`);
/// 4. stuck-at faults: with probability `stuck_rate` the device ignores
///    the target and sticks at `g_min` or `g_max` (equally likely).
///
/// Reads may additionally carry Gaussian noise (`read_sigma`, relative to
/// `g_max`), modelling transient read fluctuations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Off-state (minimum) conductance, normalised units.
    pub g_min: f64,
    /// Maximum programmable conductance, normalised units.
    pub g_max: f64,
    /// Number of discrete conductance levels, or `None` for analogue.
    pub levels: Option<u32>,
    /// Log-normal programming variation σ (0 = exact programming).
    pub program_sigma: f64,
    /// Probability a device is stuck at a random rail.
    pub stuck_rate: f64,
    /// Per-read Gaussian noise σ as a fraction of `g_max`.
    pub read_sigma: f64,
}

impl DeviceModel {
    /// The ideal device of the paper's analysis: `g_min = 0`, `g_max = 1`,
    /// analogue, exact programming, noiseless reads.
    pub fn ideal() -> Self {
        DeviceModel {
            g_min: 0.0,
            g_max: 1.0,
            levels: None,
            program_sigma: 0.0,
            stuck_rate: 0.0,
            read_sigma: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<()> {
        if !(self.g_min.is_finite() && self.g_min >= 0.0) {
            return Err(CrossbarError::InvalidConfig { name: "g_min" });
        }
        if !(self.g_max.is_finite() && self.g_max > self.g_min) {
            return Err(CrossbarError::InvalidConfig { name: "g_max" });
        }
        if let Some(l) = self.levels {
            if l < 2 {
                return Err(CrossbarError::InvalidConfig { name: "levels" });
            }
        }
        if !(self.program_sigma.is_finite() && self.program_sigma >= 0.0) {
            return Err(CrossbarError::InvalidConfig {
                name: "program_sigma",
            });
        }
        if !(0.0..=1.0).contains(&self.stuck_rate) {
            return Err(CrossbarError::InvalidConfig { name: "stuck_rate" });
        }
        if !(self.read_sigma.is_finite() && self.read_sigma >= 0.0) {
            return Err(CrossbarError::InvalidConfig { name: "read_sigma" });
        }
        Ok(())
    }

    /// Builder-style setter for the number of conductance levels.
    #[must_use]
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = Some(levels);
        self
    }

    /// Builder-style setter for the programming variation.
    #[must_use]
    pub fn with_program_sigma(mut self, sigma: f64) -> Self {
        self.program_sigma = sigma;
        self
    }

    /// Builder-style setter for the stuck-at fault rate.
    #[must_use]
    pub fn with_stuck_rate(mut self, rate: f64) -> Self {
        self.stuck_rate = rate;
        self
    }

    /// Builder-style setter for the read-noise σ.
    #[must_use]
    pub fn with_read_sigma(mut self, sigma: f64) -> Self {
        self.read_sigma = sigma;
        self
    }

    /// Programs a device towards `target` conductance, returning the
    /// conductance actually achieved under this model.
    pub fn program<R: Rng + ?Sized>(&self, target: f64, rng: &mut R) -> f64 {
        // Stuck-at faults trump everything.
        if self.stuck_rate > 0.0 && rng.gen_bool(self.stuck_rate) {
            return if rng.gen_bool(0.5) {
                self.g_min
            } else {
                self.g_max
            };
        }
        let mut g = target.clamp(self.g_min, self.g_max);
        if let Some(levels) = self.levels {
            let span = self.g_max - self.g_min;
            let step = span / (levels - 1) as f64;
            g = self.g_min + ((g - self.g_min) / step).round() * step;
        }
        if self.program_sigma > 0.0 {
            let n = standard_normal(rng);
            g *= (self.program_sigma * n).exp();
            g = g.clamp(self.g_min, self.g_max);
        }
        g
    }

    /// One noisy read of a programmed conductance.
    pub fn read<R: Rng + ?Sized>(&self, g: f64, rng: &mut R) -> f64 {
        if self.read_sigma == 0.0 {
            g
        } else {
            (g + self.read_sigma * self.g_max * standard_normal(rng)).max(0.0)
        }
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    #[test]
    fn ideal_is_identity_within_bounds() {
        let d = DeviceModel::ideal();
        let mut r = rng();
        assert_eq!(d.program(0.5, &mut r), 0.5);
        assert_eq!(d.program(0.0, &mut r), 0.0);
        assert_eq!(d.program(1.0, &mut r), 1.0);
    }

    #[test]
    fn programming_clamps_to_bounds() {
        let d = DeviceModel::ideal();
        let mut r = rng();
        assert_eq!(d.program(2.0, &mut r), 1.0);
        assert_eq!(d.program(-1.0, &mut r), 0.0);
    }

    #[test]
    fn quantisation_snaps_to_levels() {
        let d = DeviceModel::ideal().with_levels(5); // steps of 0.25
        let mut r = rng();
        assert_eq!(d.program(0.3, &mut r), 0.25);
        assert_eq!(d.program(0.4, &mut r), 0.5);
        assert_eq!(d.program(0.99, &mut r), 1.0);
    }

    #[test]
    fn two_levels_is_binary() {
        let d = DeviceModel::ideal().with_levels(2);
        let mut r = rng();
        assert_eq!(d.program(0.49, &mut r), 0.0);
        assert_eq!(d.program(0.51, &mut r), 1.0);
    }

    #[test]
    fn program_sigma_spreads_conductances() {
        let d = DeviceModel::ideal().with_program_sigma(0.1);
        let mut r = rng();
        let samples: Vec<f64> = (0..500).map(|_| d.program(0.5, &mut r)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / 500.0;
        let var: f64 = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / 500.0;
        assert!(var > 0.0005, "variation should spread: var {var}");
        assert!(
            (mean - 0.5).abs() < 0.02,
            "mean should stay near 0.5: {mean}"
        );
        assert!(samples.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn stuck_devices_land_on_rails() {
        let d = DeviceModel::ideal().with_stuck_rate(1.0);
        let mut r = rng();
        for _ in 0..50 {
            let g = d.program(0.5, &mut r);
            assert!(g == 0.0 || g == 1.0);
        }
        // Both rails occur.
        let hits: Vec<f64> = (0..100).map(|_| d.program(0.5, &mut r)).collect();
        assert!(hits.contains(&0.0));
        assert!(hits.contains(&1.0));
    }

    #[test]
    fn read_noise_is_zero_mean_and_clamped() {
        let d = DeviceModel::ideal().with_read_sigma(0.05);
        let mut r = rng();
        let reads: Vec<f64> = (0..2000).map(|_| d.read(0.5, &mut r)).collect();
        let mean: f64 = reads.iter().sum::<f64>() / reads.len() as f64;
        assert!((mean - 0.5).abs() < 0.01);
        assert!(reads.iter().all(|&g| g >= 0.0));
        // Noiseless read is exact.
        assert_eq!(DeviceModel::ideal().read(0.3, &mut r), 0.3);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let ok = DeviceModel::ideal();
        assert!(ok.validate().is_ok());
        let bad = [
            DeviceModel { g_min: -0.1, ..ok },
            DeviceModel { g_max: 0.0, ..ok },
            DeviceModel {
                levels: Some(1),
                ..ok
            },
            DeviceModel {
                program_sigma: -1.0,
                ..ok
            },
            DeviceModel {
                stuck_rate: 1.5,
                ..ok
            },
            DeviceModel {
                read_sigma: f64::NAN,
                ..ok
            },
        ];
        for d in bad {
            assert!(d.validate().is_err(), "{d:?} should be invalid");
        }
    }

    #[test]
    fn nonzero_gmin_offsets_program_floor() {
        let d = DeviceModel {
            g_min: 0.1,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let mut r = rng();
        assert_eq!(d.program(0.0, &mut r), 0.1);
        assert_eq!(d.program(0.05, &mut r), 0.1);
    }
}
