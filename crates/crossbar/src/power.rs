//! The power side channel: converting total current to measured power,
//! with measurement noise, averaging, and trace recording.
//!
//! The paper calls the crossbar's total steady-state current the "power
//! information". [`PowerModel`] turns [`crate::array::CrossbarArray`]'s
//! exact Eq. 5 current into what an attacker actually observes: a scaled
//! physical quantity corrupted by Gaussian measurement noise, optionally
//! averaged over repeated measurements.

use crate::array::CrossbarArray;
use crate::tile::TiledCrossbar;
use crate::{CrossbarError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::standard_normal;

/// A power measurement channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Supply voltage used to convert normalised current to power
    /// (`P = V_dd · i_total`); `1.0` keeps normalised units.
    pub v_dd: f64,
    /// Gaussian measurement-noise σ, in the same units as the measured
    /// power (absolute, not relative).
    pub noise_sigma: f64,
    /// Number of repeated measurements averaged per query (noise shrinks
    /// by `1/√n`).
    pub num_averages: usize,
}

impl Default for PowerModel {
    /// Noiseless single-shot measurement in normalised units — the paper's
    /// idealised setting.
    fn default() -> Self {
        PowerModel {
            v_dd: 1.0,
            noise_sigma: 0.0,
            num_averages: 1,
        }
    }
}

impl PowerModel {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] naming the first invalid
    /// field.
    pub fn validate(&self) -> Result<()> {
        if !(self.v_dd.is_finite() && self.v_dd > 0.0) {
            return Err(CrossbarError::InvalidConfig { name: "v_dd" });
        }
        if !(self.noise_sigma.is_finite() && self.noise_sigma >= 0.0) {
            return Err(CrossbarError::InvalidConfig {
                name: "noise_sigma",
            });
        }
        if self.num_averages == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "num_averages",
            });
        }
        Ok(())
    }

    /// Builder-style setter for the measurement noise.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma;
        self
    }

    /// Builder-style setter for the averaging count.
    #[must_use]
    pub fn with_averages(mut self, n: usize) -> Self {
        self.num_averages = n;
        self
    }

    /// The noiseless measured power for an input on a single array.
    ///
    /// # Errors
    ///
    /// Propagates input-length mismatches.
    pub fn exact(&self, array: &CrossbarArray, v: &[f64]) -> Result<f64> {
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, 1);
        Ok(self.v_dd * array.total_current(v)?)
    }

    /// One (possibly averaged) noisy measurement for an input on a single
    /// array.
    ///
    /// # Errors
    ///
    /// Propagates input-length mismatches.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        array: &CrossbarArray,
        v: &[f64],
        rng: &mut R,
    ) -> Result<f64> {
        let exact = self.exact(array, v)?;
        Ok(self.corrupt(exact, rng))
    }

    /// The noiseless measured power for an input on a tiled crossbar
    /// (sum of per-tile currents — a shared supply rail).
    ///
    /// # Errors
    ///
    /// Propagates input-length mismatches.
    pub fn exact_tiled(&self, tiled: &TiledCrossbar, v: &[f64]) -> Result<f64> {
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, 1);
        Ok(self.v_dd * tiled.total_current(v)?)
    }

    /// Applies measurement noise (averaged over `num_averages` draws) to an
    /// exact power value.
    pub fn corrupt<R: Rng + ?Sized>(&self, exact: f64, rng: &mut R) -> f64 {
        if self.noise_sigma == 0.0 {
            return exact;
        }
        let n = self.num_averages.max(1);
        let mut acc = 0.0;
        for _ in 0..n {
            acc += exact + self.noise_sigma * standard_normal(rng);
        }
        acc / n as f64
    }
}

/// A recorded sequence of (query, power) observations — the attacker's
/// side-channel log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    samples: Vec<f64>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Appends one measurement.
    pub fn record(&mut self, power: f64) {
        self.samples.push(power);
    }

    /// Number of recorded measurements.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded measurements in query order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean of the recorded measurements (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

impl Extend<f64> for PowerTrace {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        self.samples.extend(iter);
    }
}

impl FromIterator<f64> for PowerTrace {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        PowerTrace {
            samples: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_linalg::Matrix;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    fn array() -> CrossbarArray {
        let w = Matrix::from_rows(&[&[0.5, -1.0], &[0.25, 0.5]]);
        CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng()).unwrap()
    }

    #[test]
    fn exact_scales_with_vdd() {
        let a = array();
        let v = [0.4, 0.6];
        let p1 = PowerModel::default().exact(&a, &v).unwrap();
        let p2 = PowerModel {
            v_dd: 2.0,
            ..PowerModel::default()
        }
        .exact(&a, &v)
        .unwrap();
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
    }

    #[test]
    fn noiseless_measure_equals_exact() {
        let a = array();
        let pm = PowerModel::default();
        let v = [1.0, 0.5];
        assert_eq!(
            pm.measure(&a, &v, &mut rng()).unwrap(),
            pm.exact(&a, &v).unwrap()
        );
    }

    #[test]
    fn noise_is_zero_mean() {
        let a = array();
        let pm = PowerModel::default().with_noise(0.1);
        let v = [0.7, 0.2];
        let exact = pm.exact(&a, &v).unwrap();
        let mut r = rng();
        let n = 3000;
        let mean: f64 = (0..n)
            .map(|_| pm.measure(&a, &v, &mut r).unwrap())
            .sum::<f64>()
            / n as f64;
        assert!((mean - exact).abs() < 0.01, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn averaging_reduces_variance() {
        let a = array();
        let v = [0.7, 0.2];
        let var_of = |pm: PowerModel| -> f64 {
            let mut r = rng();
            let exact = pm.exact(&a, &v).unwrap();
            let n = 1000;
            let samples: Vec<f64> = (0..n)
                .map(|_| pm.measure(&a, &v, &mut r).unwrap() - exact)
                .collect();
            samples.iter().map(|s| s * s).sum::<f64>() / n as f64
        };
        let single = var_of(PowerModel::default().with_noise(0.2));
        let averaged = var_of(PowerModel::default().with_noise(0.2).with_averages(16));
        assert!(
            averaged < single / 8.0,
            "averaging should cut variance ~16x: {single} -> {averaged}"
        );
    }

    #[test]
    fn validation() {
        assert!(PowerModel::default().validate().is_ok());
        assert!(PowerModel {
            v_dd: 0.0,
            ..PowerModel::default()
        }
        .validate()
        .is_err());
        assert!(PowerModel::default().with_noise(-1.0).validate().is_err());
        assert!(PowerModel::default().with_averages(0).validate().is_err());
    }

    #[test]
    fn trace_bookkeeping() {
        let mut t = PowerTrace::new();
        assert!(t.is_empty());
        t.record(1.0);
        t.extend([2.0, 3.0]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.samples(), &[1.0, 2.0, 3.0]);
        assert!((t.mean() - 2.0).abs() < 1e-12);
        let collected: PowerTrace = [1.0, 1.0].into_iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(PowerTrace::new().mean(), 0.0);
    }
}
