//! The `xbar faults sweep` robustness experiment: attack success vs
//! fault rate.
//!
//! One trial deploys a shared digits/softmax victim on a crossbar with
//! faults injected along one axis (stuck-at rate, programming
//! variation, conductance drift, or line resistance) at one level,
//! probes the power side channel, and runs the Case-1 norm-guided
//! pixel attack against the faulted hardware. Repeats vary only the
//! fault realisation (through the trial index in the [`xbar_faults`]
//! key) and the attack RNG, so curves aggregate over both sources of
//! randomness.
//!
//! Fault draws are keyed by `(campaign_seed, trial_index, device)` —
//! never by scheduling — so the persisted curves are bit-identical at
//! any thread count and across evaluation backends.

use serde::{Deserialize, Serialize};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::probe_column_norms;
use xbar_core::report::{fmt, format_table};
use xbar_crossbar::backend::BackendSpec;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
use xbar_runtime::{Campaign, TrialContext, TrialRunner};
use xbar_stats::aggregate::RunSummary;
use xbar_stats::correlation::pearson;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::figures::{execute, CampaignOptions};
use crate::{train_victim, write_json, DatasetKind, HeadKind, TrainedVictim};

/// Victim-training seed for the sweep (also the campaign seed every
/// per-trial fault key derives from).
pub const FAULT_SWEEP_SEED: u64 = 17;

/// Which fault parameter a sweep trial varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAxis {
    /// Total stuck-at rate, split evenly between stuck-on and stuck-off.
    Stuck,
    /// Lognormal programming-variation σ.
    Variation,
    /// Conductance-drift read time (ν = 0.3, σ_ν = 0.1 fixed).
    Drift,
    /// Per-input-line series-resistance coefficient.
    Line,
}

impl FaultAxis {
    /// All axes, in sweep order.
    pub fn all() -> [FaultAxis; 4] {
        [
            FaultAxis::Stuck,
            FaultAxis::Variation,
            FaultAxis::Drift,
            FaultAxis::Line,
        ]
    }

    /// Human-readable axis label.
    pub fn label(self) -> &'static str {
        match self {
            FaultAxis::Stuck => "stuck-at rate",
            FaultAxis::Variation => "programming variation sigma",
            FaultAxis::Drift => "drift time",
            FaultAxis::Line => "line resistance",
        }
    }

    /// The levels swept on this axis.
    pub fn levels(self, quick: bool) -> Vec<f64> {
        match self {
            FaultAxis::Stuck => {
                if quick {
                    vec![0.0, 0.05, 0.2]
                } else {
                    vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2]
                }
            }
            FaultAxis::Variation => {
                if quick {
                    vec![0.0, 0.2, 0.8]
                } else {
                    vec![0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
                }
            }
            FaultAxis::Drift => {
                if quick {
                    vec![0.0, 10.0, 1000.0]
                } else {
                    vec![0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0]
                }
            }
            FaultAxis::Line => {
                if quick {
                    vec![0.0, 1e-3, 1e-2]
                } else {
                    vec![0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2]
                }
            }
        }
    }

    /// The fault spec this axis produces at `level`. Level `0.0` is the
    /// pristine baseline on every axis.
    pub fn spec(self, level: f64) -> FaultSpec {
        match self {
            FaultAxis::Stuck => FaultSpec::none()
                .with_stuck_on_rate(level / 2.0)
                .with_stuck_off_rate(level / 2.0),
            FaultAxis::Variation => FaultSpec::none().with_variation_sigma(level),
            FaultAxis::Drift => FaultSpec::none().with_drift(0.3, 0.1, level),
            FaultAxis::Line => FaultSpec::none().with_line_resistance(level),
        }
    }
}

/// One sweep trial: one axis at one level, one repeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSpec {
    /// The fault parameter being varied.
    pub axis: FaultAxis,
    /// The axis level (rate, σ, time, or resistance coefficient).
    pub level: f64,
    /// Repeat index; varies the fault realisation and the attack RNG.
    pub repeat: u64,
}

/// The measurements of one sweep trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepOutput {
    /// Pearson correlation of probed vs true (faulted) column norms.
    pub probe_correlation: f64,
    /// Victim test accuracy as deployed on the faulted crossbar.
    pub deployed_accuracy: f64,
    /// Test accuracy under the norm-guided pixel attack.
    pub attacked_accuracy: f64,
}

/// Experiment sizes: `(num_samples, test_eval, repeats)`.
pub fn fault_sweep_params(quick: bool) -> (usize, usize, usize) {
    if quick {
        (800, 300, 2)
    } else {
        (3000, 1000, 5)
    }
}

/// The sweep grid: axes in [`FaultAxis::all`] order, levels in
/// [`FaultAxis::levels`] order, repeats innermost.
pub fn fault_sweep_campaign(quick: bool) -> Campaign<FaultSweepSpec> {
    let (_, _, repeats) = fault_sweep_params(quick);
    let mut campaign = Campaign::new("faults-sweep", FAULT_SWEEP_SEED);
    for axis in FaultAxis::all() {
        for level in axis.levels(quick) {
            for repeat in 0..repeats as u64 {
                campaign.push_trial(FaultSweepSpec {
                    axis,
                    level,
                    repeat,
                });
            }
        }
    }
    campaign
}

/// Runs sweep trials against one shared victim (digits / softmax, seed
/// [`FAULT_SWEEP_SEED`] — deterministic, so sharing it across trials is
/// equivalent to retraining it per trial, just cheaper). The evaluation
/// backend is a pure execution detail: outputs are bit-identical across
/// backends.
pub struct FaultSweepRunner {
    victim: TrainedVictim,
    strength: f64,
    test_eval: usize,
    backend: BackendSpec,
}

impl FaultSweepRunner {
    /// Trains the shared victim with [`fault_sweep_params`] sizes at
    /// attack strength 4.
    pub fn new(quick: bool, backend: impl Into<BackendSpec>) -> Self {
        let (num_samples, test_eval, _) = fault_sweep_params(quick);
        FaultSweepRunner {
            victim: train_victim(
                DatasetKind::Digits,
                HeadKind::SoftmaxCe,
                num_samples,
                FAULT_SWEEP_SEED,
            ),
            strength: 4.0,
            test_eval,
            backend: backend.into(),
        }
    }

    /// The shared victim.
    pub fn victim(&self) -> &TrainedVictim {
        &self.victim
    }
}

impl TrialRunner for FaultSweepRunner {
    type Spec = FaultSweepSpec;
    type Output = FaultSweepOutput;

    fn run(&self, spec: &FaultSweepSpec, ctx: &TrialContext) -> Result<FaultSweepOutput, String> {
        let _span = xbar_obs::span(xbar_obs::names::SPAN_FAULT_TRIAL);
        // The keying contract: fault draws depend only on the campaign
        // seed and trial index, never on scheduling or thread count.
        let injection = FaultInjection::new(
            spec.axis.spec(spec.level),
            FaultKey::new(ctx.campaign_seed, ctx.trial_index as u64),
        );
        let mut oracle = Oracle::new(
            self.victim.net.clone(),
            &OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_backend(self.backend)
                .with_faults(injection),
            55,
        )
        .map_err(|e| e.to_string())?;

        let test = self
            .victim
            .test
            .subset(&(0..self.victim.test.len().min(self.test_eval)).collect::<Vec<usize>>());

        let probed = probe_column_norms(&mut oracle, 1.0, 1).map_err(|e| e.to_string())?;
        let truth = oracle.true_column_norms();
        let probe_correlation = pearson(&probed, &truth).unwrap_or(0.0);
        let deployed_accuracy = oracle
            .eval_accuracy(test.inputs(), test.labels())
            .map_err(|e| e.to_string())?;

        // The attack RNG is paired across levels within a repeat: seed
        // depends on the repeat only, so level-to-level comparisons see
        // identical pixel choices where the probe agrees.
        let mut rng = ChaCha8Rng::seed_from_u64(9000 + spec.repeat);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            test.inputs(),
            &test.one_hot_targets(),
            PixelAttackResources::norms_only(&probed),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let attacked_accuracy = oracle
            .eval_accuracy(&adv, test.labels())
            .map_err(|e| e.to_string())?;

        Ok(FaultSweepOutput {
            probe_correlation,
            deployed_accuracy,
            attacked_accuracy,
        })
    }
}

/// One aggregated (axis, level) point of a robustness curve.
#[derive(Debug, Serialize)]
pub struct FaultSweepPoint {
    /// The axis level.
    pub level: f64,
    /// Repeats aggregated.
    pub repeats: usize,
    /// Probed-vs-true norm correlation over the repeats.
    pub probe_correlation: RunSummary,
    /// Deployed (clean) accuracy on the faulted crossbar.
    pub deployed_accuracy: RunSummary,
    /// Accuracy under the norm-guided attack.
    pub attacked_accuracy: RunSummary,
    /// Deployed-minus-attacked accuracy: the attack's bite on this
    /// fault level.
    pub attack_degradation: RunSummary,
}

/// One axis of the sweep: a robustness curve.
#[derive(Debug, Serialize)]
pub struct FaultSweepCurve {
    /// Axis label.
    pub axis: &'static str,
    /// Points in level order.
    pub points: Vec<FaultSweepPoint>,
}

/// Groups per-trial outputs back into per-axis curves (trials are
/// contiguous by construction of [`fault_sweep_campaign`]).
pub fn fault_sweep_curves(
    quick: bool,
    outputs: &[Option<FaultSweepOutput>],
) -> Result<Vec<FaultSweepCurve>, String> {
    let (_, _, repeats) = fault_sweep_params(quick);
    let mut curves = Vec::new();
    let mut next = 0;
    for axis in FaultAxis::all() {
        let mut points = Vec::new();
        for level in axis.levels(quick) {
            let trials: Vec<&FaultSweepOutput> = (0..repeats)
                .map(|_| {
                    let out = outputs
                        .get(next)
                        .and_then(Option::as_ref)
                        .ok_or_else(|| format!("faults-sweep trial {next} has no output"));
                    next += 1;
                    out
                })
                .collect::<Result<_, _>>()?;
            let collect = |f: &dyn Fn(&FaultSweepOutput) -> f64| -> Vec<f64> {
                trials.iter().map(|t| f(t)).collect()
            };
            points.push(FaultSweepPoint {
                level,
                repeats,
                probe_correlation: RunSummary::from_values(&collect(&|t| t.probe_correlation)),
                deployed_accuracy: RunSummary::from_values(&collect(&|t| t.deployed_accuracy)),
                attacked_accuracy: RunSummary::from_values(&collect(&|t| t.attacked_accuracy)),
                attack_degradation: RunSummary::from_values(&collect(&|t| {
                    t.deployed_accuracy - t.attacked_accuracy
                })),
            });
        }
        curves.push(FaultSweepCurve {
            axis: axis.label(),
            points,
        });
    }
    Ok(curves)
}

fn print_curves(curves: &[FaultSweepCurve]) {
    for curve in curves {
        println!(
            "--- faults sweep: {} ({} repeats/level) ---",
            curve.axis,
            curve.points.first().map_or(0, |p| p.repeats)
        );
        let rows: Vec<Vec<String>> = curve
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.level),
                    fmt(p.probe_correlation.mean, 4),
                    fmt(p.deployed_accuracy.mean, 3),
                    fmt(p.attacked_accuracy.mean, 3),
                    fmt(p.attack_degradation.mean, 3),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "level",
                    "probe corr r",
                    "deployed acc",
                    "attacked acc",
                    "degradation"
                ],
                &rows
            )
        );
    }
    println!("Expected shape: at level 0 every axis matches the pristine baseline; rising");
    println!("fault rates degrade the probe correlation and deployed accuracy, and the");
    println!("attack's degradation shrinks as the side channel blurs.");
}

/// Runs the sweep campaign and prints/persists the robustness curves
/// (default `results/faults-sweep.json`). `opts.faults` is ignored —
/// the sweep defines its own per-trial fault specs.
pub fn run_fault_sweep(opts: &CampaignOptions) -> Result<(), String> {
    let runner = FaultSweepRunner::new(opts.quick, opts.backend);
    let campaign = fault_sweep_campaign(opts.quick);
    let report = execute(&runner, &campaign, opts)?;
    let curves = fault_sweep_curves(opts.quick, &report.outputs)?;
    print_curves(&curves);
    write_json(&opts.json_path("faults-sweep"), &curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_crossbar::backend::BackendKind;
    use xbar_runtime::{run_campaign, ExecutorConfig, NullSink};

    #[test]
    fn grid_shape_and_fingerprint_stability() {
        let a = fault_sweep_campaign(true);
        let b = fault_sweep_campaign(true);
        let (_, _, repeats) = fault_sweep_params(true);
        let levels: usize = FaultAxis::all().iter().map(|a| a.levels(true).len()).sum();
        assert_eq!(a.len(), levels * repeats);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), fault_sweep_campaign(false).fingerprint());
    }

    #[test]
    fn level_zero_is_the_empty_spec_on_every_axis() {
        for axis in FaultAxis::all() {
            let spec = axis.spec(0.0);
            assert!(
                spec.compile(3, 4, FaultKey::new(1, 2)).unwrap().is_noop()
                    || spec.validate().is_ok(),
                "level 0 of {axis:?} must be benign"
            );
            // Nonzero levels must validate too.
            for level in axis.levels(true) {
                axis.spec(level).validate().unwrap();
            }
        }
    }

    /// The acceptance contract: identical curves at 1 vs 3 threads and
    /// across evaluation backends. Runs a reduced grid (one axis, two
    /// levels) against a small victim to keep the test fast.
    #[test]
    fn sweep_outputs_are_thread_and_backend_invariant() {
        let mut campaign = Campaign::new("faults-sweep-test", FAULT_SWEEP_SEED);
        for level in [0.0, 0.2] {
            for repeat in 0..2u64 {
                campaign.push_trial(FaultSweepSpec {
                    axis: FaultAxis::Stuck,
                    level,
                    repeat,
                });
            }
        }
        let run = |runner: &FaultSweepRunner, threads: usize| {
            run_campaign(
                runner,
                &campaign,
                &ExecutorConfig::with_threads(threads),
                None,
                false,
                &mut NullSink,
            )
            .unwrap()
            .outputs
        };
        let naive = FaultSweepRunner::new(true, BackendKind::Naive);
        let blocked = FaultSweepRunner::new(true, BackendKind::Blocked);
        let serial = run(&naive, 1);
        assert_eq!(serial, run(&naive, 3), "thread count changed the sweep");
        assert_eq!(serial, run(&blocked, 1), "backend changed the sweep");
        // And faults actually bite: the faulted level differs from the
        // pristine baseline.
        assert_ne!(serial[0], serial[2], "stuck rate 0.2 had no effect");
    }
}
