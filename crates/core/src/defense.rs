//! Power-obfuscation countermeasures — an extension beyond the paper.
//!
//! The paper's conclusion motivates defending the power side channel.
//! This module implements two natural hardware countermeasures as
//! wrappers around the oracle's power observations, so the attack suite
//! can quantify their cost/benefit:
//!
//! * [`PowerDefense::DummyConductances`] — extra always-on conductance on
//!   each input line (e.g. dummy columns), adding a *static* per-line
//!   offset to `G_j`. Defeats naive norm probing unless the attacker
//!   calibrates differentially.
//! * [`PowerDefense::RandomizedDummy`] — per-query re-randomised dummy
//!   conductances, which cannot be calibrated away by repeat-free probing
//!   and degrade gracefully with probe averaging.
//! * [`PowerDefense::AdditiveNoise`] — injected measurement noise (e.g. a
//!   noisy on-chip regulator).

use crate::oracle::{Oracle, QueryRecord};
use crate::{AttackError, Result};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A power-side-channel countermeasure applied on top of the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerDefense {
    /// No defense (pass-through).
    None,
    /// Static extra conductance per input line, in weight units: the
    /// observed power becomes `p + Σ_j u_j d_j` with fixed `d`.
    DummyConductances {
        /// Per-input-line offsets (length = input dimension).
        offsets: Vec<f64>,
    },
    /// Per-query re-randomised dummy conductances: offsets are drawn
    /// uniformly from `[0, magnitude]` independently per line per query.
    RandomizedDummy {
        /// Maximum per-line offset (weight units).
        magnitude: f64,
    },
    /// Additional Gaussian measurement noise of the given σ (weight
    /// units).
    AdditiveNoise {
        /// Noise standard deviation.
        sigma: f64,
    },
}

impl PowerDefense {
    /// Validates the defense parameters for an oracle with `num_inputs`
    /// input lines.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidParameter`] for negative magnitudes,
    /// non-finite values, or offset vectors of the wrong length.
    pub fn validate(&self, num_inputs: usize) -> Result<()> {
        match self {
            PowerDefense::None => Ok(()),
            PowerDefense::DummyConductances { offsets } => {
                if offsets.len() != num_inputs {
                    return Err(AttackError::InvalidParameter { name: "offsets" });
                }
                if offsets.iter().any(|d| !d.is_finite() || *d < 0.0) {
                    return Err(AttackError::InvalidParameter { name: "offsets" });
                }
                Ok(())
            }
            PowerDefense::RandomizedDummy { magnitude } => {
                if !(magnitude.is_finite() && *magnitude >= 0.0) {
                    return Err(AttackError::InvalidParameter { name: "magnitude" });
                }
                Ok(())
            }
            PowerDefense::AdditiveNoise { sigma } => {
                if !(sigma.is_finite() && *sigma >= 0.0) {
                    return Err(AttackError::InvalidParameter { name: "sigma" });
                }
                Ok(())
            }
        }
    }

    /// The extra power term for one query.
    fn extra_power<R: Rng + ?Sized>(&self, u: &[f64], rng: &mut R) -> f64 {
        match self {
            PowerDefense::None => 0.0,
            PowerDefense::DummyConductances { offsets } => {
                u.iter().zip(offsets).map(|(&uj, &dj)| uj * dj).sum()
            }
            PowerDefense::RandomizedDummy { magnitude } => u
                .iter()
                .map(|&uj| uj * rng.gen_range(0.0..=*magnitude))
                .sum(),
            PowerDefense::AdditiveNoise { sigma } => {
                if *sigma == 0.0 {
                    0.0
                } else {
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                }
            }
        }
    }
}

/// An oracle whose power observations pass through a [`PowerDefense`].
/// Output observations are unaffected — the countermeasures only touch
/// the analogue supply rail.
#[derive(Debug, Clone)]
pub struct DefendedOracle {
    oracle: Oracle,
    defense: PowerDefense,
    rng: ChaCha8Rng,
}

impl DefendedOracle {
    /// Wraps an oracle with a defense. `seed` drives the defense's own
    /// randomness (unknown to the attacker).
    ///
    /// # Errors
    ///
    /// Propagates [`PowerDefense::validate`].
    pub fn new(oracle: Oracle, defense: PowerDefense, seed: u64) -> Result<Self> {
        defense.validate(oracle.num_inputs())?;
        Ok(DefendedOracle {
            oracle,
            defense,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// The wrapped oracle (e.g. for evaluation-side calls).
    pub fn inner(&self) -> &Oracle {
        &self.oracle
    }

    /// Input dimension.
    pub fn num_inputs(&self) -> usize {
        self.oracle.num_inputs()
    }

    /// Queries consumed so far.
    pub fn query_count(&self) -> usize {
        self.oracle.query_count()
    }

    /// One defended query (same contract as [`Oracle::query`]).
    ///
    /// # Errors
    ///
    /// Propagates oracle query errors.
    pub fn query(&mut self, u: &[f64]) -> Result<QueryRecord> {
        let mut rec = self.oracle.query(u)?;
        rec.observation.power += self.defense.extra_power(u, &mut self.rng);
        Ok(rec)
    }

    /// A batch of defended queries (same contract as
    /// [`Oracle::query_batch`]). The defense's own randomness is drawn
    /// per query in batch order, so a batch equals the same queries
    /// issued one at a time.
    ///
    /// # Errors
    ///
    /// Propagates oracle query errors.
    pub fn query_batch(&mut self, inputs: &[&[f64]]) -> Result<Vec<QueryRecord>> {
        let mut records = self.oracle.query_batch(inputs)?;
        for (rec, u) in records.iter_mut().zip(inputs) {
            rec.observation.power += self.defense.extra_power(u, &mut self.rng);
        }
        Ok(records)
    }

    /// Probes all column norms through the defense (the defended analogue
    /// of [`crate::probe::probe_column_norms`]); what the attacker
    /// recovers is the *defended* landscape. Each repeat reads its `N`
    /// basis probes through one [`Oracle::one_hot_powers`] call, then
    /// adds the defense's term per probe in column order over one reused
    /// one-hot row, so the defense draws as it would for the same probes
    /// issued as one defended batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::probe::probe_column_norms`].
    pub fn probe_column_norms(&mut self, beta: f64, repeats: usize) -> Result<Vec<f64>> {
        crate::probe::validate_probe(beta, repeats)?;
        let _span = xbar_obs::span(xbar_obs::names::SPAN_PROBE);
        let n = self.num_inputs();
        let columns: Vec<usize> = (0..n).collect();
        let mut row = vec![0.0; n];
        let mut norms = vec![0.0; n];
        for _ in 0..repeats {
            let powers = self.oracle.one_hot_powers(&columns, beta)?;
            for (j, (norm, power)) in norms.iter_mut().zip(powers).enumerate() {
                row[j] = beta;
                *norm += power + self.defense.extra_power(&row, &mut self.rng);
                row[j] = 0.0;
            }
            xbar_obs::count(xbar_obs::names::PROBE_MEASUREMENT, n as u64);
        }
        for norm in &mut norms {
            *norm /= repeats as f64 * beta;
        }
        Ok(norms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{OracleConfig, OutputAccess};
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;
    use xbar_stats::correlation::pearson;

    fn base_oracle() -> Oracle {
        let w = Matrix::from_fn(4, 12, |i, j| ((i * 12 + j) as f64 * 0.61).sin());
        let net = SingleLayerNet::from_weights(w, Activation::Identity);
        Oracle::new(
            net,
            &OracleConfig::ideal().with_access(OutputAccess::None),
            31,
        )
        .unwrap()
    }

    #[test]
    fn none_defense_is_transparent() {
        let mut bare = base_oracle();
        let mut defended = DefendedOracle::new(base_oracle(), PowerDefense::None, 1).unwrap();
        let u = vec![0.5; 12];
        assert_eq!(
            bare.query(&u).unwrap().observation.power,
            defended.query(&u).unwrap().observation.power
        );
    }

    #[test]
    fn defended_probe_counts_each_measurement_as_a_power_only_query() {
        let shard = std::sync::Arc::new(xbar_obs::MetricsShard::new());
        xbar_obs::with_scope(&shard, "probe", || {
            let defense = PowerDefense::AdditiveNoise { sigma: 0.5 };
            let mut defended = DefendedOracle::new(base_oracle(), defense, 6).unwrap();
            defended.probe_column_norms(1.0, 3).unwrap();
        });
        let observed = shard.take_scope("probe");
        let measurements = observed.counter(xbar_obs::names::PROBE_MEASUREMENT);
        assert_eq!(measurements, 12 * 3);
        assert_eq!(
            observed.counter(xbar_obs::names::ORACLE_POWER_ONLY),
            measurements
        );
        let spans = observed
            .histogram(xbar_obs::names::SPAN_PROBE)
            .map(xbar_obs::Histogram::count);
        assert_eq!(spans, Some(1));
    }

    #[test]
    fn static_dummies_shift_probed_norms_by_offsets() {
        let offsets: Vec<f64> = (0..12).map(|j| j as f64 * 0.1).collect();
        let mut defended = DefendedOracle::new(
            base_oracle(),
            PowerDefense::DummyConductances {
                offsets: offsets.clone(),
            },
            2,
        )
        .unwrap();
        let true_norms = defended.inner().true_column_norms();
        let probed = defended.probe_column_norms(1.0, 1).unwrap();
        for j in 0..12 {
            assert!((probed[j] - true_norms[j] - offsets[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn static_dummies_can_flip_the_argmax() {
        let true_norms = base_oracle().true_column_norms();
        let argmax = xbar_linalg::vec_ops::argmax(&true_norms);
        // Put a huge dummy on a different column.
        let decoy = (argmax + 1) % 12;
        let mut offsets = vec![0.0; 12];
        offsets[decoy] = 100.0;
        let mut defended = DefendedOracle::new(
            base_oracle(),
            PowerDefense::DummyConductances { offsets },
            3,
        )
        .unwrap();
        let probed = defended.probe_column_norms(1.0, 1).unwrap();
        assert_eq!(xbar_linalg::vec_ops::argmax(&probed), decoy);
    }

    #[test]
    fn randomized_dummies_decorrelate_probes() {
        let run = |defense: PowerDefense| -> f64 {
            let mut defended = DefendedOracle::new(base_oracle(), defense, 4).unwrap();
            let true_norms = defended.inner().true_column_norms();
            let probed = defended.probe_column_norms(1.0, 1).unwrap();
            pearson(&probed, &true_norms).unwrap()
        };
        let clean_r = run(PowerDefense::None);
        let defended_r = run(PowerDefense::RandomizedDummy { magnitude: 20.0 });
        assert!((clean_r - 1.0).abs() < 1e-9);
        assert!(
            defended_r.abs() < 0.9,
            "randomised dummies should hurt correlation: {defended_r}"
        );
    }

    #[test]
    fn additive_noise_defense_averages_away() {
        let defense = PowerDefense::AdditiveNoise { sigma: 1.0 };
        let err_of = |repeats: usize| -> f64 {
            let mut defended = DefendedOracle::new(base_oracle(), defense.clone(), 5).unwrap();
            let truth = defended.inner().true_column_norms();
            let probed = defended.probe_column_norms(1.0, repeats).unwrap();
            probed
                .iter()
                .zip(&truth)
                .map(|(p, t)| (p - t).abs())
                .sum::<f64>()
                / 12.0
        };
        let e1 = err_of(1);
        let e100 = err_of(100);
        assert!(e100 < e1 / 3.0, "averaging should help: {e1} -> {e100}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let o = base_oracle();
        assert!(DefendedOracle::new(
            o.clone(),
            PowerDefense::DummyConductances {
                offsets: vec![1.0; 3]
            },
            0
        )
        .is_err());
        assert!(DefendedOracle::new(
            o.clone(),
            PowerDefense::DummyConductances {
                offsets: vec![-1.0; 12]
            },
            0
        )
        .is_err());
        assert!(DefendedOracle::new(
            o.clone(),
            PowerDefense::RandomizedDummy { magnitude: -1.0 },
            0
        )
        .is_err());
        assert!(
            DefendedOracle::new(o, PowerDefense::AdditiveNoise { sigma: f64::NAN }, 0).is_err()
        );
    }

    #[test]
    fn defended_probe_validates_parameters() {
        let mut d = DefendedOracle::new(base_oracle(), PowerDefense::None, 6).unwrap();
        assert!(d.probe_column_norms(0.0, 1).is_err());
        assert!(d.probe_column_norms(1.0, 0).is_err());
    }
}
