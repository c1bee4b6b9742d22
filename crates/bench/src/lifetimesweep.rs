//! The `xbar lifetime sweep` device-lifetime experiment: attack efficacy
//! over a decaying hardware lifetime.
//!
//! One trial deploys a shared digits/softmax victim on a crossbar aged
//! to one drift level, turns on per-query transient disturbances
//! (read-disturb flips plus conductance jitter) at one rate, and mounts
//! one power defense. The session then plays out a lifetime: probe the
//! power side channel while fresh, attack, let the hardware age under
//! the oracle's drift schedule, attack again with the stale probe, and
//! finally recalibrate under a [`RecalibrationPolicy`] and attack once
//! more. The three attacked accuracies — fresh, stale, recalibrated —
//! measure how much of the side channel survives decay and how much a
//! re-probe buys back.
//!
//! All randomness is keyed by `(campaign_seed, trial_index)` (faults,
//! transients, defenses) plus the global query index (transients), so
//! the persisted cells are bit-identical at any thread count and across
//! evaluation backends. A spec whose level indices fall outside the
//! grid tables fails; the executor journals it as failed and the
//! remaining cells complete.

use serde::{Deserialize, Serialize};
use xbar_core::defense::{DefendedOracle, PowerDefense};
use xbar_core::oracle::{DriftSchedule, Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::RecalibrationPolicy;
use xbar_core::report::{fmt, format_table};
use xbar_crossbar::backend::BackendSpec;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
use xbar_runtime::{Campaign, TrialContext, TrialRunner};
use xbar_stats::aggregate::RunSummary;
use xbar_stats::correlation::pearson;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::figures::{execute, CampaignOptions};
use crate::{train_victim, write_json, DatasetKind, HeadKind, TrainedVictim};

/// Victim-training seed for the sweep (also the campaign seed every
/// per-trial fault/transient key derives from).
pub const LIFETIME_SWEEP_SEED: u64 = 23;

/// Drift-time levels swept (the crossbar's age at deployment, and the
/// per-epoch aging step during the session).
pub fn lifetime_drift_times(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 100.0]
    } else {
        vec![0.0, 10.0, 100.0, 1000.0]
    }
}

/// Transient-disturbance levels swept: the per-device read-disturb flip
/// probability, also used as the lognormal jitter σ.
pub fn lifetime_transient_rates(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.02]
    } else {
        vec![0.0, 0.005, 0.02, 0.05]
    }
}

/// The power defenses crossed against hardware decay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifetimeDefense {
    /// No defense: the bare power side channel.
    None,
    /// Randomised dummy columns, 2x the victim's mean column norm.
    RandomizedDummy,
    /// Additive measurement noise, σ = the victim's mean column norm.
    AdditiveNoise,
}

impl LifetimeDefense {
    /// All defenses, in sweep order.
    pub fn all() -> [LifetimeDefense; 3] {
        [
            LifetimeDefense::None,
            LifetimeDefense::RandomizedDummy,
            LifetimeDefense::AdditiveNoise,
        ]
    }

    /// Human-readable defense label.
    pub fn label(self) -> &'static str {
        match self {
            LifetimeDefense::None => "none",
            LifetimeDefense::RandomizedDummy => "randomized dummies",
            LifetimeDefense::AdditiveNoise => "additive noise",
        }
    }

    /// The concrete [`PowerDefense`], sized from the victim's mean
    /// column norm.
    pub fn power_defense(self, mean_norm: f64) -> PowerDefense {
        match self {
            LifetimeDefense::None => PowerDefense::None,
            LifetimeDefense::RandomizedDummy => PowerDefense::RandomizedDummy {
                magnitude: 2.0 * mean_norm,
            },
            LifetimeDefense::AdditiveNoise => PowerDefense::AdditiveNoise { sigma: mean_norm },
        }
    }
}

/// One sweep trial: indices into the level tables plus a repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeSpec {
    /// Index into [`lifetime_drift_times`].
    pub drift_index: usize,
    /// Index into [`lifetime_transient_rates`].
    pub transient_index: usize,
    /// The power defense mounted for this cell.
    pub defense: LifetimeDefense,
    /// Repeat index; varies the fault/transient realisation (through
    /// the trial index in the key) and the attack RNG.
    pub repeat: u64,
}

/// The measurements of one sweep trial, in lifetime order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LifetimeOutput {
    /// Pearson correlation of the fresh probe vs true (aged) norms.
    pub probe_correlation: f64,
    /// Victim accuracy on the freshly deployed (drifted) crossbar.
    pub deployed_accuracy: f64,
    /// Attacked accuracy with the fresh probe, before session aging.
    pub attacked_accuracy_fresh: f64,
    /// Victim accuracy after the session aged the hardware.
    pub deployed_accuracy_aged: f64,
    /// Attacked accuracy on the aged hardware using the stale probe.
    pub attacked_accuracy_stale: f64,
    /// Attacked accuracy after recalibrating under the policy (equals
    /// the stale value when the policy declined to re-probe).
    pub attacked_accuracy_recalibrated: f64,
    /// Re-probes performed by the recalibration policy (0 or 1 here).
    pub recalibrations: u64,
    /// The oracle's drift time when the session ended.
    pub drift_time_end: f64,
}

/// Experiment sizes: `(num_samples, test_eval, repeats)`.
pub fn lifetime_sweep_params(quick: bool) -> (usize, usize, usize) {
    if quick {
        (800, 200, 1)
    } else {
        (3000, 600, 3)
    }
}

/// The sweep grid: drift times outer, then transient rates, then
/// defenses, repeats innermost.
pub fn lifetime_campaign(quick: bool) -> Campaign<LifetimeSpec> {
    let (_, _, repeats) = lifetime_sweep_params(quick);
    let mut campaign = Campaign::new("lifetime-sweep", LIFETIME_SWEEP_SEED);
    for drift_index in 0..lifetime_drift_times(quick).len() {
        for transient_index in 0..lifetime_transient_rates(quick).len() {
            for defense in LifetimeDefense::all() {
                for repeat in 0..repeats as u64 {
                    campaign.push_trial(LifetimeSpec {
                        drift_index,
                        transient_index,
                        defense,
                        repeat,
                    });
                }
            }
        }
    }
    campaign
}

/// Runs lifetime trials against one shared victim (digits / softmax,
/// seed [`LIFETIME_SWEEP_SEED`]). The evaluation backend is a pure
/// execution detail: outputs are bit-identical across backends.
pub struct LifetimeSweepRunner {
    victim: TrainedVictim,
    strength: f64,
    test_eval: usize,
    backend: BackendSpec,
    policy: RecalibrationPolicy,
    quick: bool,
}

impl LifetimeSweepRunner {
    /// Trains the shared victim with [`lifetime_sweep_params`] sizes at
    /// attack strength 4, recalibrating under `policy`.
    pub fn new(quick: bool, backend: impl Into<BackendSpec>, policy: RecalibrationPolicy) -> Self {
        let (num_samples, test_eval, _) = lifetime_sweep_params(quick);
        LifetimeSweepRunner {
            victim: train_victim(
                DatasetKind::Digits,
                HeadKind::SoftmaxCe,
                num_samples,
                LIFETIME_SWEEP_SEED,
            ),
            strength: 4.0,
            test_eval,
            backend: backend.into(),
            policy,
            quick,
        }
    }

    /// The shared victim.
    pub fn victim(&self) -> &TrainedVictim {
        &self.victim
    }

    /// Attacks with `norms` and evaluates on the oracle's current
    /// (possibly aged) hardware. The RNG is paired across cells within
    /// a repeat and across the fresh/stale/recalibrated phases.
    fn attack_accuracy(
        &self,
        oracle: &Oracle,
        norms: &[f64],
        test: &xbar_data::Dataset,
        repeat: u64,
    ) -> Result<f64, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(9100 + repeat);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            test.inputs(),
            &test.one_hot_targets(),
            PixelAttackResources::norms_only(norms),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        oracle
            .eval_accuracy(&adv, test.labels())
            .map_err(|e| e.to_string())
    }
}

impl TrialRunner for LifetimeSweepRunner {
    type Spec = LifetimeSpec;
    type Output = LifetimeOutput;

    fn run(&self, spec: &LifetimeSpec, ctx: &TrialContext) -> Result<LifetimeOutput, String> {
        let _span = xbar_obs::span(xbar_obs::names::SPAN_LIFETIME_TRIAL);
        let drift_time = *lifetime_drift_times(self.quick)
            .get(spec.drift_index)
            .ok_or_else(|| format!("drift index {} out of range", spec.drift_index))?;
        let rate = *lifetime_transient_rates(self.quick)
            .get(spec.transient_index)
            .ok_or_else(|| format!("transient index {} out of range", spec.transient_index))?;

        let key = FaultKey::new(ctx.campaign_seed, ctx.trial_index as u64);
        let n = self.victim.net.num_inputs();
        // The fresh probe (one query per input column) stays inside
        // drift epoch 0; the filler queries after it cross exactly one
        // epoch boundary, aging the array by another `drift_time`.
        let aging_interval = n as u64 + 200;
        let mut cfg = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_backend(self.backend)
            .with_faults(FaultInjection::new(
                FaultSpec::none().with_drift(0.3, 0.1, drift_time),
                key,
            ))
            .with_transients(TransientInjection::new(
                TransientSpec::none()
                    .with_flip_rate(rate)
                    .with_jitter_sigma(rate),
                key,
            ));
        if drift_time > 0.0 {
            cfg = cfg.with_drift_schedule(DriftSchedule::every(aging_interval, drift_time));
        }
        let oracle = Oracle::new(self.victim.net.clone(), &cfg, 55).map_err(|e| e.to_string())?;
        let mean_norm = self.victim.net.column_l1_norms().iter().sum::<f64>() / n as f64;
        let mut defended = DefendedOracle::new(
            oracle,
            spec.defense.power_defense(mean_norm),
            4300 + ctx.trial_index as u64,
        )
        .map_err(|e| e.to_string())?;

        let test = self
            .victim
            .test
            .subset(&(0..self.victim.test.len().min(self.test_eval)).collect::<Vec<usize>>());

        // Fresh phase: probe, then attack the young hardware.
        let norms_fresh = defended
            .probe_column_norms(1.0, 1)
            .map_err(|e| e.to_string())?;
        let truth = defended.inner().true_column_norms();
        let probe_correlation = pearson(&norms_fresh, &truth).unwrap_or(0.0);
        let deployed_accuracy = defended
            .inner()
            .eval_accuracy(test.inputs(), test.labels())
            .map_err(|e| e.to_string())?;
        let attacked_accuracy_fresh =
            self.attack_accuracy(defended.inner(), &norms_fresh, &test, spec.repeat)?;
        let probed_at_queries = defended.inner().queries_issued();
        let probed_at_drift = defended.inner().drift_time();

        // Aging phase: run the session past the drift epoch boundary.
        let filler: Vec<&[f64]> = (0..256)
            .map(|i| test.inputs().row(i % test.len()))
            .collect();
        defended.query_batch(&filler).map_err(|e| e.to_string())?;
        let deployed_accuracy_aged = defended
            .inner()
            .eval_accuracy(test.inputs(), test.labels())
            .map_err(|e| e.to_string())?;
        let attacked_accuracy_stale =
            self.attack_accuracy(defended.inner(), &norms_fresh, &test, spec.repeat)?;

        // Recalibration phase: re-probe iff the policy says the fresh
        // scan has gone stale.
        let stale = self.policy.is_stale(
            defended.inner().queries_issued() - probed_at_queries,
            defended.inner().drift_time() - probed_at_drift,
        );
        let (attacked_accuracy_recalibrated, recalibrations) = if stale {
            xbar_obs::count(xbar_obs::names::PROBE_RECALIBRATION, 1);
            let norms_new = defended
                .probe_column_norms(1.0, 1)
                .map_err(|e| e.to_string())?;
            (
                self.attack_accuracy(defended.inner(), &norms_new, &test, spec.repeat)?,
                1,
            )
        } else {
            (attacked_accuracy_stale, 0)
        };

        Ok(LifetimeOutput {
            probe_correlation,
            deployed_accuracy,
            attacked_accuracy_fresh,
            deployed_accuracy_aged,
            attacked_accuracy_stale,
            attacked_accuracy_recalibrated,
            recalibrations,
            drift_time_end: defended.inner().drift_time(),
        })
    }
}

/// One aggregated (drift_time, transient rate, defense) cell.
#[derive(Debug, Serialize)]
pub struct LifetimeCell {
    /// Drift-time level of the cell.
    pub drift_time: f64,
    /// Transient-rate level of the cell.
    pub transient_rate: f64,
    /// Defense label.
    pub defense: &'static str,
    /// Repeats that produced an output (failed trials are skipped).
    pub repeats_ok: usize,
    /// Fresh-probe correlation over the repeats.
    pub probe_correlation: RunSummary,
    /// Deployed accuracy at the start of the session.
    pub deployed_accuracy: RunSummary,
    /// Attacked accuracy with the fresh probe.
    pub attacked_accuracy_fresh: RunSummary,
    /// Attacked accuracy on aged hardware with the stale probe.
    pub attacked_accuracy_stale: RunSummary,
    /// Attacked accuracy after policy-driven recalibration.
    pub attacked_accuracy_recalibrated: RunSummary,
    /// Mean re-probes performed per trial.
    pub mean_recalibrations: f64,
}

/// Groups per-trial outputs back into cells (trials are contiguous by
/// construction of [`lifetime_campaign`]). Cells whose repeats all
/// failed are dropped — with `tolerate_failures` the sweep reports what
/// survived.
pub fn lifetime_cells(
    quick: bool,
    outputs: &[Option<LifetimeOutput>],
) -> Result<Vec<LifetimeCell>, String> {
    let (_, _, repeats) = lifetime_sweep_params(quick);
    let mut cells = Vec::new();
    let mut next = 0;
    for &drift_time in &lifetime_drift_times(quick) {
        for &transient_rate in &lifetime_transient_rates(quick) {
            for defense in LifetimeDefense::all() {
                let trials: Vec<LifetimeOutput> = (0..repeats)
                    .filter_map(|_| {
                        let out = outputs.get(next).and_then(Option::as_ref).copied();
                        next += 1;
                        out
                    })
                    .collect();
                if trials.is_empty() {
                    continue;
                }
                let collect = |f: &dyn Fn(&LifetimeOutput) -> f64| -> Vec<f64> {
                    trials.iter().map(f).collect()
                };
                cells.push(LifetimeCell {
                    drift_time,
                    transient_rate,
                    defense: defense.label(),
                    repeats_ok: trials.len(),
                    probe_correlation: RunSummary::from_values(&collect(&|t| t.probe_correlation)),
                    deployed_accuracy: RunSummary::from_values(&collect(&|t| t.deployed_accuracy)),
                    attacked_accuracy_fresh: RunSummary::from_values(&collect(&|t| {
                        t.attacked_accuracy_fresh
                    })),
                    attacked_accuracy_stale: RunSummary::from_values(&collect(&|t| {
                        t.attacked_accuracy_stale
                    })),
                    attacked_accuracy_recalibrated: RunSummary::from_values(&collect(&|t| {
                        t.attacked_accuracy_recalibrated
                    })),
                    mean_recalibrations: collect(&|t| t.recalibrations as f64).iter().sum::<f64>()
                        / trials.len() as f64,
                });
            }
        }
    }
    Ok(cells)
}

fn print_cells(cells: &[LifetimeCell]) {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.drift_time),
                format!("{}", c.transient_rate),
                c.defense.to_string(),
                fmt(c.probe_correlation.mean, 4),
                fmt(c.attacked_accuracy_fresh.mean, 3),
                fmt(c.attacked_accuracy_stale.mean, 3),
                fmt(c.attacked_accuracy_recalibrated.mean, 3),
                fmt(c.mean_recalibrations, 1),
            ]
        })
        .collect();
    println!("--- lifetime sweep: drift_time x transient rate x defense ---");
    println!(
        "{}",
        format_table(
            &[
                "drift t",
                "transients",
                "defense",
                "probe r",
                "atk fresh",
                "atk stale",
                "atk recal",
                "re-probes"
            ],
            &rows
        )
    );
    println!("Expected shape: aging and transients blur the probe (r falls, attacked");
    println!("accuracy rises toward clean); the stale probe is weaker than the fresh one");
    println!("on aged hardware, and recalibration buys part of the attack back.");
}

/// Runs the lifetime campaign and prints/persists the cells (default
/// `results/lifetime-sweep.json`). `opts.faults` and `opts.transients`
/// are ignored — the sweep defines its own per-cell specs.
pub fn run_lifetime_sweep(
    opts: &CampaignOptions,
    policy: &RecalibrationPolicy,
) -> Result<(), String> {
    let runner = LifetimeSweepRunner::new(opts.quick, opts.backend, *policy);
    let campaign = lifetime_campaign(opts.quick);
    let report = execute(&runner, &campaign, opts)?;
    let cells = lifetime_cells(opts.quick, &report.outputs)?;
    print_cells(&cells);
    write_json(&opts.json_path("lifetime-sweep"), &cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_crossbar::backend::BackendKind;
    use xbar_runtime::{run_campaign, ExecutorConfig, NullSink};

    #[test]
    fn grid_shape_and_fingerprint_stability() {
        let a = lifetime_campaign(true);
        let b = lifetime_campaign(true);
        let (_, _, repeats) = lifetime_sweep_params(true);
        assert_eq!(
            a.len(),
            lifetime_drift_times(true).len()
                * lifetime_transient_rates(true).len()
                * LifetimeDefense::all().len()
                * repeats
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), lifetime_campaign(false).fingerprint());
    }

    /// The failure-tolerance contract: a failing cell is journaled and
    /// reported without aborting the rest of the campaign, and the
    /// aggregation skips it.
    #[test]
    fn out_of_range_cell_fails_permanently_without_aborting() {
        let mut campaign = Campaign::new("lifetime-test", LIFETIME_SWEEP_SEED);
        campaign.push_trial(LifetimeSpec {
            drift_index: 0,
            transient_index: 0,
            defense: LifetimeDefense::None,
            repeat: 0,
        });
        // An index past the quick drift table: deterministic failure.
        campaign.push_trial(LifetimeSpec {
            drift_index: 99,
            transient_index: 0,
            defense: LifetimeDefense::None,
            repeat: 0,
        });
        let runner =
            LifetimeSweepRunner::new(true, BackendKind::Naive, RecalibrationPolicy::never());
        let dir = std::env::temp_dir().join(format!("xbar_lifetime_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("permanent.jsonl");
        let report = run_campaign(
            &runner,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(report.metrics.completed, 1);
        assert_eq!(report.metrics.failed, 1);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].trial_index, 1);
        assert_eq!(report.failures[0].error, "drift index 99 out of range");

        let (_, records) = xbar_runtime::journal::read_journal(&path).unwrap();
        let failed: Vec<_> = records
            .iter()
            .filter(|r| r.status == xbar_runtime::TrialStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].error.as_deref(),
            Some("drift index 99 out of range")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recalibration recovers information on aged hardware: with an
    /// always-stale policy the trial re-probes once, and with `never`
    /// it does not.
    #[test]
    fn recalibration_policy_controls_the_reprobe() {
        let spec = LifetimeSpec {
            drift_index: 1, // drift_time 100 in the quick table
            transient_index: 0,
            defense: LifetimeDefense::None,
            repeat: 0,
        };
        let ctx = TrialContext {
            trial_index: 0,
            campaign_seed: LIFETIME_SWEEP_SEED,
            attempt: 1,
        };
        let never =
            LifetimeSweepRunner::new(true, BackendKind::Naive, RecalibrationPolicy::never());
        let out_never = never.run(&spec, &ctx).unwrap();
        assert_eq!(out_never.recalibrations, 0);
        assert_eq!(
            out_never.attacked_accuracy_recalibrated,
            out_never.attacked_accuracy_stale
        );
        // The session crossed one epoch boundary: 100 -> 200.
        assert!(out_never.drift_time_end > 100.0);

        let eager =
            LifetimeSweepRunner::new(true, BackendKind::Naive, RecalibrationPolicy::every(1));
        let out_eager = eager.run(&spec, &ctx).unwrap();
        assert_eq!(out_eager.recalibrations, 1);
        // Both runners saw the same deterministic lifetime up to the
        // recalibration decision.
        assert_eq!(out_never.probe_correlation, out_eager.probe_correlation);
        assert_eq!(
            out_never.attacked_accuracy_stale,
            out_eager.attacked_accuracy_stale
        );
    }
}
