//! Defender-side use of the same side channel: detecting adversarial
//! inputs from their current signatures.
//!
//! The paper's related work (Moitra & Panda, *DetectX*, cited as \[13\])
//! shows that the crossbar's current signature can expose adversarial
//! inputs. This module implements that idea for the attacks in this
//! crate: the defender calibrates the distribution of the Eq. 5 supply
//! current over clean traffic, then flags queries whose current
//! z-score is anomalous.
//!
//! Single-pixel attacks at the largest-norm pixel are especially exposed:
//! the attack *adds attack strength exactly where it costs the most
//! power*, shifting the query's current by `±ε·max_j ‖W[:,j]‖₁` — several
//! calibration standard deviations for the strengths Fig. 4 needs.

use crate::{AttackError, Result};
use serde::{Deserialize, Serialize};
use xbar_stats::descriptive::RunningStats;

/// A calibrated power-anomaly detector.
///
/// # Example
///
/// ```
/// use xbar_core::detect::PowerAnomalyDetector;
///
/// let clean = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02];
/// let det = PowerAnomalyDetector::calibrate(&clean, 3.0)?;
/// assert!(!det.is_anomalous(1.08));
/// assert!(det.is_anomalous(2.0));
/// # Ok::<(), xbar_core::AttackError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerAnomalyDetector {
    mean: f64,
    std: f64,
    threshold: f64,
}

impl PowerAnomalyDetector {
    /// Calibrates on clean-traffic power observations, flagging anything
    /// beyond `threshold` standard deviations from their mean.
    ///
    /// # Errors
    ///
    /// * [`AttackError::InvalidParameter`] with fewer than two
    ///   calibration samples, a zero-variance calibration set, or a
    ///   non-positive/non-finite threshold.
    pub fn calibrate(clean_powers: &[f64], threshold: f64) -> Result<Self> {
        if clean_powers.len() < 2 {
            return Err(AttackError::InvalidParameter {
                name: "clean_powers",
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(AttackError::InvalidParameter { name: "threshold" });
        }
        let rs: RunningStats = clean_powers.iter().copied().collect();
        let std = rs.sample_std();
        if std == 0.0 {
            return Err(AttackError::InvalidParameter {
                name: "clean_powers",
            });
        }
        Ok(PowerAnomalyDetector {
            mean: rs.mean(),
            std,
            threshold,
        })
    }

    /// The calibrated clean-traffic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The calibrated clean-traffic standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// The z-score of one power observation.
    pub fn z_score(&self, power: f64) -> f64 {
        (power - self.mean) / self.std
    }

    /// Whether one observation is flagged.
    pub fn is_anomalous(&self, power: f64) -> bool {
        self.z_score(power).abs() > self.threshold
    }

    /// Detection rate over a batch of observations (fraction flagged).
    pub fn detection_rate(&self, powers: &[f64]) -> f64 {
        if powers.is_empty() {
            return 0.0;
        }
        powers.iter().filter(|&&p| self.is_anomalous(p)).count() as f64 / powers.len() as f64
    }
}

/// Per-class power-anomaly detector: calibrates one power band per
/// *predicted class*, the way DetectX conditions its current signatures.
///
/// A global band (see [`PowerAnomalyDetector`]) is too coarse for
/// high-variance traffic — on digit images the clean power spread across
/// inputs swamps a single-pixel perturbation. Conditioning on the
/// predicted class tightens each band, since images of one class share a
/// similar active-pixel footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerClassDetector {
    detectors: Vec<PowerAnomalyDetector>,
}

impl PerClassDetector {
    /// Calibrates one band per class from `(predicted class, power)`
    /// clean-traffic pairs.
    ///
    /// # Errors
    ///
    /// * [`AttackError::InvalidParameter`] if `num_classes == 0`, a label
    ///   is out of range, or any class has fewer than two (or
    ///   zero-variance) calibration samples.
    pub fn calibrate(samples: &[(usize, f64)], num_classes: usize, threshold: f64) -> Result<Self> {
        if num_classes == 0 {
            return Err(AttackError::InvalidParameter {
                name: "num_classes",
            });
        }
        let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); num_classes];
        for &(label, power) in samples {
            if label >= num_classes {
                return Err(AttackError::InvalidParameter { name: "samples" });
            }
            per_class[label].push(power);
        }
        let detectors = per_class
            .iter()
            .map(|powers| PowerAnomalyDetector::calibrate(powers, threshold))
            .collect::<Result<Vec<_>>>()?;
        Ok(PerClassDetector { detectors })
    }

    /// Number of calibrated classes.
    pub fn num_classes(&self) -> usize {
        self.detectors.len()
    }

    /// Whether a `(predicted class, power)` observation is flagged.
    ///
    /// # Panics
    ///
    /// Panics if `predicted_class` is out of range.
    pub fn is_anomalous(&self, predicted_class: usize, power: f64) -> bool {
        self.detectors[predicted_class].is_anomalous(power)
    }

    /// Detection rate over `(predicted class, power)` observations.
    pub fn detection_rate(&self, observations: &[(usize, f64)]) -> f64 {
        if observations.is_empty() {
            return 0.0;
        }
        observations
            .iter()
            .filter(|&&(c, p)| self.is_anomalous(c, p))
            .count() as f64
            / observations.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, OracleConfig, OutputAccess};
    use crate::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use xbar_data::synth::blobs::BlobsConfig;
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::loss::Loss;
    use xbar_nn::network::SingleLayerNet;
    use xbar_nn::train::{train, SgdConfig};

    fn batch_powers(oracle: &mut Oracle, rows: &[&[f64]]) -> Vec<f64> {
        oracle
            .query_batch(rows)
            .unwrap()
            .iter()
            .map(|r| r.observation.power)
            .collect()
    }

    #[test]
    fn calibration_validates() {
        assert!(PowerAnomalyDetector::calibrate(&[1.0], 3.0).is_err());
        assert!(PowerAnomalyDetector::calibrate(&[1.0, 1.0], 3.0).is_err());
        assert!(PowerAnomalyDetector::calibrate(&[1.0, 2.0], 0.0).is_err());
        assert!(PowerAnomalyDetector::calibrate(&[1.0, 2.0], f64::NAN).is_err());
        assert!(PowerAnomalyDetector::calibrate(&[1.0, 2.0], 3.0).is_ok());
    }

    #[test]
    fn z_scores_and_flags() {
        let det = PowerAnomalyDetector::calibrate(&[0.0, 2.0], 2.0).unwrap();
        assert!((det.mean() - 1.0).abs() < 1e-12);
        assert!((det.std() - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((det.z_score(1.0)).abs() < 1e-12);
        assert!(!det.is_anomalous(1.0));
        assert!(det.is_anomalous(10.0));
        assert!(det.is_anomalous(-10.0));
    }

    #[test]
    fn detection_rate_counts_flags() {
        let det = PowerAnomalyDetector::calibrate(&[0.9, 1.0, 1.1, 1.0, 0.95], 3.0).unwrap();
        assert_eq!(det.detection_rate(&[]), 0.0);
        let rate = det.detection_rate(&[1.0, 5.0, 1.02, -3.0]);
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_pixel_attacks_are_detectable_end_to_end() {
        // Train a victim, deploy it, calibrate on clean power, then check
        // that Fig.4-strength single-pixel attacks light up the detector.
        let ds = BlobsConfig::new(3, 30).num_samples(300).seed(6).generate();
        let split = ds.split_frac(0.8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = SingleLayerNet::new_random(30, 3, Activation::Identity, &mut rng);
        train(
            &mut net,
            &split.train,
            Loss::Mse,
            &SgdConfig::default(),
            &mut rng,
        )
        .unwrap();
        let mut oracle = Oracle::new(
            net.clone(),
            &OracleConfig::ideal().with_access(OutputAccess::None),
            8,
        )
        .unwrap();

        // Defender calibrates on clean traffic.
        let train_rows: Vec<&[f64]> = (0..split.train.len())
            .map(|i| split.train.input(i))
            .collect();
        let clean_powers = batch_powers(&mut oracle, &train_rows);
        let det = PowerAnomalyDetector::calibrate(&clean_powers, 3.0).unwrap();

        // Attacker crafts norm-guided single-pixel adversarial inputs at a
        // strength that actually moves the model.
        let norms = net.column_l1_norms();
        let targets = split.test.one_hot_targets();
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            split.test.inputs(),
            &targets,
            PixelAttackResources::norms_only(&norms),
            5.0,
            &mut rng,
        )
        .unwrap();
        let adv_rows: Vec<&[f64]> = (0..adv.rows()).map(|i| adv.row(i)).collect();
        let adv_powers = batch_powers(&mut oracle, &adv_rows);
        let test_rows: Vec<&[f64]> = (0..split.test.len()).map(|i| split.test.input(i)).collect();
        let held_out = batch_powers(&mut oracle, &test_rows);
        let true_positive_rate = det.detection_rate(&adv_powers);
        let false_positive_rate = det.detection_rate(&held_out);
        assert!(
            true_positive_rate > 0.9,
            "detector should catch strength-5 attacks: {true_positive_rate}"
        );
        assert!(
            false_positive_rate < 0.1,
            "clean traffic should pass: {false_positive_rate}"
        );
    }

    #[test]
    fn weak_attacks_evade_detection() {
        // The flip side: small perturbations stay inside the calibrated
        // band — detection is strength-limited, as DetectX also reports.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let w = Matrix::random_uniform(3, 20, -1.0, 1.0, &mut rng);
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        let mut oracle = Oracle::new(
            net.clone(),
            &OracleConfig::ideal().with_access(OutputAccess::None),
            10,
        )
        .unwrap();
        let clean = Matrix::random_uniform(200, 20, 0.0, 1.0, &mut rng);
        let clean_rows: Vec<&[f64]> = (0..200).map(|i| clean.row(i)).collect();
        let clean_powers = batch_powers(&mut oracle, &clean_rows);
        let det = PowerAnomalyDetector::calibrate(&clean_powers, 3.0).unwrap();
        // Tiny perturbation on a fresh clean batch.
        let fresh = Matrix::random_uniform(100, 20, 0.0, 1.0, &mut rng);
        let norms = net.column_l1_norms();
        let targets = Matrix::zeros(100, 3);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            &fresh,
            &targets,
            PixelAttackResources::norms_only(&norms),
            0.05,
            &mut rng,
        )
        .unwrap();
        let adv_rows: Vec<&[f64]> = (0..100).map(|i| adv.row(i)).collect();
        let adv_powers = batch_powers(&mut oracle, &adv_rows);
        assert!(det.detection_rate(&adv_powers) < 0.1);
    }

    #[test]
    fn per_class_calibration_validates() {
        assert!(PerClassDetector::calibrate(&[(0, 1.0), (0, 2.0)], 0, 3.0).is_err());
        assert!(PerClassDetector::calibrate(&[(5, 1.0)], 2, 3.0).is_err());
        // Class 1 has no samples.
        assert!(PerClassDetector::calibrate(&[(0, 1.0), (0, 2.0)], 2, 3.0).is_err());
        let ok =
            PerClassDetector::calibrate(&[(0, 1.0), (0, 1.2), (1, 5.0), (1, 5.5)], 2, 3.0).unwrap();
        assert_eq!(ok.num_classes(), 2);
    }

    #[test]
    fn per_class_bands_beat_the_global_band() {
        // Two classes with very different clean power levels: a global
        // band must be wide; per-class bands stay tight, so a shift that
        // hides globally is caught per class.
        let class0: Vec<(usize, f64)> = (0..40).map(|i| (0, 1.0 + 0.01 * (i % 5) as f64)).collect();
        let class1: Vec<(usize, f64)> = (0..40).map(|i| (1, 9.0 + 0.01 * (i % 5) as f64)).collect();
        let all: Vec<(usize, f64)> = class0.iter().chain(&class1).copied().collect();
        let per_class = PerClassDetector::calibrate(&all, 2, 3.0).unwrap();
        let global = PowerAnomalyDetector::calibrate(
            &all.iter().map(|&(_, p)| p).collect::<Vec<f64>>(),
            3.0,
        )
        .unwrap();
        // A +1.0 shift on a class-0 query: invisible globally (the global
        // std is ~4), obvious per class.
        let shifted = 2.0;
        assert!(!global.is_anomalous(shifted));
        assert!(per_class.is_anomalous(0, shifted));
        // Clean observations pass per class.
        assert_eq!(per_class.detection_rate(&class0), 0.0);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let det = PowerAnomalyDetector::calibrate(&[1.0, 2.0, 3.0], 2.5).unwrap();
        let json = serde_json::to_string(&det).unwrap();
        let back: PowerAnomalyDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(det, back);
    }
}
