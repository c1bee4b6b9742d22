//! The `xbar infer sweep` experiment: Bayesian weight recovery from the
//! power side channel, across query budget, measurement noise, and
//! chain count.
//!
//! One trial deploys the shared digits/softmax victim on a noisy-power
//! crossbar, estimates the measurement noise empirically, collects a
//! subset-supported random design of power readings, samples the
//! posterior over the subset's column 1-norms with [`xbar_infer`]'s
//! elliptical slice sampler, and drives a NormPlus pixel attack from
//! the posterior mean plus a band of posterior draws — turning
//! "posterior width" into "attack-success uncertainty".
//!
//! Inference runs over a fixed 16-pixel central subset (the design puts
//! energy only there, so the subset model is exact — the same trick as
//! `probe_columns_subset`): 16 dimensions mix well within CI budgets
//! where 784 would not. All randomness is keyed by the campaign seed
//! and trial index, so the persisted curves are bit-identical at any
//! thread count; MCMC draws are additionally keyed per
//! `(campaign_seed, chain_index, step)` inside [`xbar_infer`].

use serde::{Deserialize, Serialize};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::report::{fmt, format_table};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::power::PowerModel;
use xbar_infer::{
    estimate_noise_sigma, evenly_spaced_draws, random_design, run_chains, summarize, ChainConfig,
    Kernel, NormPosterior, PowerObservations, Prior,
};
use xbar_runtime::{Campaign, TrialContext, TrialRunner};
use xbar_stats::aggregate::RunSummary;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::figures::{execute, CampaignOptions};
use crate::{train_victim, write_json, DatasetKind, HeadKind, TrainedVictim};

/// Victim-training seed for the sweep (also the campaign seed every
/// per-trial RNG stream derives from).
pub const INFER_SWEEP_SEED: u64 = 23;

/// Credible-interval mass reported by the sweep.
pub const INFER_CI_LEVEL: f64 = 0.95;

/// The deterministic 16-pixel central subset inference runs over: a
/// 4x4 grid across rows/columns {6, 10, 14, 18} of the 28x28 digit
/// raster — central pixels, where digit strokes (and hence non-trivial
/// column norms) live.
pub fn infer_subset() -> Vec<usize> {
    let mut subset = Vec::with_capacity(16);
    for r in (6..22).step_by(4) {
        for c in (6..22).step_by(4) {
            subset.push(r * 28 + c);
        }
    }
    subset
}

/// One sweep trial: one (budget, noise, chains) cell, one repeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferSweepSpec {
    /// Power queries spent on the inference design.
    pub budget: usize,
    /// Power-measurement noise σ configured on the oracle.
    pub noise: f64,
    /// Number of MCMC chains sampled.
    pub chains: usize,
    /// Repeat index; varies the oracle noise realisation, the design,
    /// and the MCMC streams.
    pub repeat: u64,
}

/// The measurements of one sweep trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferSweepOutput {
    /// Empirically estimated measurement-noise σ (weight units).
    pub noise_sigma_est: f64,
    /// Fraction of subset columns whose credible interval covers the
    /// true norm.
    pub coverage: f64,
    /// Mean credible-interval width across subset columns.
    pub ci_width: f64,
    /// Worst split-R̂ across subset columns.
    pub max_rhat: f64,
    /// Smallest effective sample size across subset columns.
    pub min_ess: f64,
    /// Mean absolute error of the posterior mean vs the true norms.
    pub norm_mae: f64,
    /// Victim test accuracy as deployed (clean inputs).
    pub deployed_accuracy: f64,
    /// Test accuracy attacked with the posterior-mean norms.
    pub attacked_accuracy: f64,
    /// Lowest attacked accuracy across the posterior-draw band — the
    /// attacker's optimistic edge of the uncertainty band.
    pub attacked_accuracy_lo: f64,
    /// Highest attacked accuracy across the posterior-draw band.
    pub attacked_accuracy_hi: f64,
}

/// Experiment sizes:
/// `(num_samples, test_eval, repeats, noise_probe_repeats, draw_band)`.
pub fn infer_sweep_params(quick: bool) -> (usize, usize, usize, usize, usize) {
    if quick {
        (800, 200, 2, 24, 4)
    } else {
        (3000, 600, 4, 48, 8)
    }
}

/// Query budgets swept (design observations per trial).
pub fn infer_sweep_budgets(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 128, 512]
    } else {
        vec![32, 64, 128, 256, 512]
    }
}

/// Power-noise σ levels swept. Zero is excluded: a noiseless power
/// channel makes the Gaussian likelihood degenerate (and the paper's
/// Sec. IV shows exact algebra beats inference there anyway).
pub fn infer_sweep_noises(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.05, 0.2]
    } else {
        vec![0.02, 0.1, 0.3]
    }
}

/// Chain counts swept.
pub fn infer_sweep_chain_counts(_quick: bool) -> Vec<usize> {
    vec![2, 4]
}

/// Per-chain MCMC schedule.
pub fn infer_chain_config(quick: bool) -> ChainConfig {
    // Elliptical slice mixing slows as the likelihood narrows relative
    // to the prior, so the schedule is generous: MCMC is a rounding
    // error next to the trial's oracle evaluations.
    if quick {
        ChainConfig::new(4000, 4000, 2).expect("static config")
    } else {
        ChainConfig::new(8000, 8000, 2).expect("static config")
    }
}

/// The sweep grid: noise outermost, then chain count, then budget,
/// repeats innermost.
pub fn infer_sweep_campaign(quick: bool) -> Campaign<InferSweepSpec> {
    let (_, _, repeats, _, _) = infer_sweep_params(quick);
    let mut campaign = Campaign::new("infer-sweep", INFER_SWEEP_SEED);
    for &noise in &infer_sweep_noises(quick) {
        for &chains in &infer_sweep_chain_counts(quick) {
            for &budget in &infer_sweep_budgets(quick) {
                for repeat in 0..repeats as u64 {
                    campaign.push_trial(InferSweepSpec {
                        budget,
                        noise,
                        chains,
                        repeat,
                    });
                }
            }
        }
    }
    campaign
}

/// Runs sweep trials against one shared victim (digits / softmax, seed
/// [`INFER_SWEEP_SEED`]). The evaluation backend is a pure execution
/// detail: outputs are bit-identical across backends and thread counts.
pub struct InferSweepRunner {
    victim: TrainedVictim,
    strength: f64,
    test_eval: usize,
    noise_probe_repeats: usize,
    draw_band: usize,
    chain_config: ChainConfig,
    subset: Vec<usize>,
    backend: BackendSpec,
}

impl InferSweepRunner {
    /// Trains the shared victim with [`infer_sweep_params`] sizes at
    /// attack strength 4 (matching the fault sweep).
    pub fn new(quick: bool, backend: impl Into<BackendSpec>) -> Self {
        let (num_samples, test_eval, _, noise_probe_repeats, draw_band) = infer_sweep_params(quick);
        InferSweepRunner {
            victim: train_victim(
                DatasetKind::Digits,
                HeadKind::SoftmaxCe,
                num_samples,
                INFER_SWEEP_SEED,
            ),
            strength: 4.0,
            test_eval,
            noise_probe_repeats,
            draw_band,
            chain_config: infer_chain_config(quick),
            subset: infer_subset(),
            backend: backend.into(),
        }
    }

    /// The shared victim.
    pub fn victim(&self) -> &TrainedVictim {
        &self.victim
    }

    fn attacked_accuracy(
        &self,
        oracle: &mut Oracle,
        test_inputs: &xbar_linalg::Matrix,
        targets: &xbar_linalg::Matrix,
        labels: &[usize],
        norms: &[f64],
        rng_seed: u64,
    ) -> Result<f64, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            test_inputs,
            targets,
            PixelAttackResources::norms_only(norms),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        oracle
            .eval_accuracy(&adv, labels)
            .map_err(|e| e.to_string())
    }
}

impl TrialRunner for InferSweepRunner {
    type Spec = InferSweepSpec;
    type Output = InferSweepOutput;

    fn run(&self, spec: &InferSweepSpec, ctx: &TrialContext) -> Result<InferSweepOutput, String> {
        let _span = xbar_obs::span(xbar_obs::names::SPAN_INFER_TRIAL);
        // All per-trial streams are keyed by (campaign seed, trial
        // index) — never by scheduling.
        let trial_salt = (ctx.trial_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let oracle_seed = ctx.campaign_seed ^ trial_salt ^ 0xA1;
        let design_seed = ctx.campaign_seed ^ trial_salt ^ 0xB2;
        let mcmc_seed = ctx.campaign_seed ^ trial_salt ^ 0xC3;
        let attack_seed = 9000 + spec.repeat;

        let mut oracle = Oracle::new(
            self.victim.net.clone(),
            &OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_backend(self.backend)
                .with_power(PowerModel::default().with_noise(spec.noise)),
            oracle_seed,
        )
        .map_err(|e| e.to_string())?;
        let input_dim = self.victim.net.num_inputs();
        let truth_full = oracle.true_column_norms();
        let truth: Vec<f64> = self.subset.iter().map(|&j| truth_full[j]).collect();

        // The attacker does not know the configured noise — estimate it
        // from repeated readings of one probe, inflated slightly so the
        // likelihood never claims more precision than was measured.
        let probe = vec![0.5; input_dim];
        let noise_sigma_est = estimate_noise_sigma(&mut oracle, &probe, self.noise_probe_repeats)
            .map_err(|e| e.to_string())?;
        let likelihood_sigma = (noise_sigma_est * 1.2).max(1e-6);

        let design = random_design(spec.budget, input_dim, Some(&self.subset), design_seed)
            .map_err(|e| e.to_string())?;
        let obs = PowerObservations::collect(&mut oracle, &design).map_err(|e| e.to_string())?;

        // Weakly informative: column 1-norms of a trained digit head
        // are positive and O(1). Keeping the prior near the posterior's
        // scale also keeps the elliptical slice sampler mixing fast —
        // its autocorrelation grows with the prior-to-posterior width
        // ratio, which is what the low-budget high-precision cells
        // stress.
        let priors = vec![Prior::normal(1.0, 0.5).map_err(|e| e.to_string())?; self.subset.len()];
        let model = NormPosterior::new(&obs, &self.subset, priors, likelihood_sigma)
            .map_err(|e| e.to_string())?;
        // Low budgets leave the posterior strongly correlated (an
        // all-positive random design with few rows pins only the norm
        // sum tightly), which is where elliptical slice autocorrelation
        // peaks — so thin harder exactly there. Those cells are also
        // the cheapest per MCMC step, so the wall-clock cost is flat
        // across the grid.
        let mixing = (256 / spec.budget.max(1)).clamp(1, 8);
        let config = ChainConfig::new(
            self.chain_config.burn_in() * mixing,
            self.chain_config.samples(),
            self.chain_config.thin() * mixing,
        )
        .map_err(|e| e.to_string())?;
        // Chains run sequentially inside the trial: the campaign
        // executor already parallelises across trials.
        let chains = run_chains(
            &model,
            &Kernel::EllipticalSlice,
            &config,
            mcmc_seed,
            spec.chains,
            1,
        )
        .map_err(|e| e.to_string())?;
        let report = summarize(&chains, &self.subset, INFER_CI_LEVEL).map_err(|e| e.to_string())?;

        let coverage = report.coverage(&truth).map_err(|e| e.to_string())?;
        let norm_mae = report
            .mean_vector()
            .iter()
            .zip(&truth)
            .map(|(m, t)| (m - t).abs())
            .sum::<f64>()
            / truth.len() as f64;

        let test = self
            .victim
            .test
            .subset(&(0..self.victim.test.len().min(self.test_eval)).collect::<Vec<usize>>());
        let targets = test.one_hot_targets();
        let deployed_accuracy = oracle
            .eval_accuracy(test.inputs(), test.labels())
            .map_err(|e| e.to_string())?;

        // Posterior-mean attack plus an uncertainty band from evenly
        // spaced posterior draws: the same attack RNG per trial, so the
        // band reflects norm uncertainty only.
        let mean_norms = model
            .scatter(&report.mean_vector())
            .map_err(|e| e.to_string())?;
        let attacked_accuracy = self.attacked_accuracy(
            &mut oracle,
            test.inputs(),
            &targets,
            test.labels(),
            &mean_norms,
            attack_seed,
        )?;
        let mut attacked_accuracy_lo = attacked_accuracy;
        let mut attacked_accuracy_hi = attacked_accuracy;
        for draw in evenly_spaced_draws(&chains, self.draw_band).map_err(|e| e.to_string())? {
            let draw_norms = model.scatter(&draw).map_err(|e| e.to_string())?;
            let acc = self.attacked_accuracy(
                &mut oracle,
                test.inputs(),
                &targets,
                test.labels(),
                &draw_norms,
                attack_seed,
            )?;
            attacked_accuracy_lo = attacked_accuracy_lo.min(acc);
            attacked_accuracy_hi = attacked_accuracy_hi.max(acc);
        }

        Ok(InferSweepOutput {
            noise_sigma_est,
            coverage,
            ci_width: report.mean_ci_width(),
            max_rhat: report.max_rhat,
            min_ess: report.min_ess,
            norm_mae,
            deployed_accuracy,
            attacked_accuracy,
            attacked_accuracy_lo,
            attacked_accuracy_hi,
        })
    }
}

/// One aggregated (noise, chains, budget) point of a posterior curve.
#[derive(Debug, Serialize)]
pub struct InferSweepPoint {
    /// Query budget of this point.
    pub budget: usize,
    /// Repeats aggregated.
    pub repeats: usize,
    /// Truth-coverage fraction of the credible intervals.
    pub coverage: RunSummary,
    /// Mean credible-interval width (posterior uncertainty).
    pub ci_width: RunSummary,
    /// Worst split-R̂ across dimensions.
    pub max_rhat: RunSummary,
    /// Smallest effective sample size across dimensions.
    pub min_ess: RunSummary,
    /// Posterior-mean absolute error vs the true norms.
    pub norm_mae: RunSummary,
    /// Clean deployed accuracy.
    pub deployed_accuracy: RunSummary,
    /// Accuracy under the posterior-mean-guided attack.
    pub attacked_accuracy: RunSummary,
    /// Optimistic edge of the posterior-draw attack band.
    pub attacked_accuracy_lo: RunSummary,
    /// Pessimistic edge of the posterior-draw attack band.
    pub attacked_accuracy_hi: RunSummary,
}

/// One (noise, chains) cell of the sweep: posterior quality and attack
/// success as functions of query budget.
#[derive(Debug, Serialize)]
pub struct InferSweepCurve {
    /// Power-noise σ of this curve.
    pub noise: f64,
    /// Chain count of this curve.
    pub chains: usize,
    /// Points in ascending budget order.
    pub points: Vec<InferSweepPoint>,
}

/// The persisted sweep report (`results/infer-sweep.json`).
#[derive(Debug, Serialize)]
pub struct InferSweepReport {
    /// Credible-interval mass.
    pub ci_level: f64,
    /// Worst split-R̂ over every trial of the sweep — CI gates on this.
    pub max_rhat: f64,
    /// Smallest credible-interval width over every trial — CI asserts
    /// the intervals are non-empty.
    pub min_ci_width: f64,
    /// Per-(noise, chains) budget curves.
    pub curves: Vec<InferSweepCurve>,
}

/// Groups per-trial outputs back into per-(noise, chains) curves
/// (trials are contiguous by construction of [`infer_sweep_campaign`]).
pub fn infer_sweep_curves(
    quick: bool,
    outputs: &[Option<InferSweepOutput>],
) -> Result<InferSweepReport, String> {
    let (_, _, repeats, _, _) = infer_sweep_params(quick);
    let mut curves = Vec::new();
    let mut next = 0;
    for &noise in &infer_sweep_noises(quick) {
        for &chains in &infer_sweep_chain_counts(quick) {
            let mut points = Vec::new();
            for &budget in &infer_sweep_budgets(quick) {
                let trials: Vec<&InferSweepOutput> = (0..repeats)
                    .map(|_| {
                        let out = outputs
                            .get(next)
                            .and_then(Option::as_ref)
                            .ok_or_else(|| format!("infer-sweep trial {next} has no output"));
                        next += 1;
                        out
                    })
                    .collect::<Result<_, _>>()?;
                let collect = |f: &dyn Fn(&InferSweepOutput) -> f64| -> Vec<f64> {
                    trials.iter().map(|t| f(t)).collect()
                };
                points.push(InferSweepPoint {
                    budget,
                    repeats,
                    coverage: RunSummary::from_values(&collect(&|t| t.coverage)),
                    ci_width: RunSummary::from_values(&collect(&|t| t.ci_width)),
                    max_rhat: RunSummary::from_values(&collect(&|t| t.max_rhat)),
                    min_ess: RunSummary::from_values(&collect(&|t| t.min_ess)),
                    norm_mae: RunSummary::from_values(&collect(&|t| t.norm_mae)),
                    deployed_accuracy: RunSummary::from_values(&collect(&|t| t.deployed_accuracy)),
                    attacked_accuracy: RunSummary::from_values(&collect(&|t| t.attacked_accuracy)),
                    attacked_accuracy_lo: RunSummary::from_values(&collect(&|t| {
                        t.attacked_accuracy_lo
                    })),
                    attacked_accuracy_hi: RunSummary::from_values(&collect(&|t| {
                        t.attacked_accuracy_hi
                    })),
                });
            }
            curves.push(InferSweepCurve {
                noise,
                chains,
                points,
            });
        }
    }
    let max_rhat = curves
        .iter()
        .flat_map(|c| &c.points)
        .map(|p| p.max_rhat.max)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_ci_width = curves
        .iter()
        .flat_map(|c| &c.points)
        .map(|p| p.ci_width.min)
        .fold(f64::INFINITY, f64::min);
    Ok(InferSweepReport {
        ci_level: INFER_CI_LEVEL,
        max_rhat,
        min_ci_width,
        curves,
    })
}

fn print_report(report: &InferSweepReport) {
    for curve in &report.curves {
        println!(
            "--- infer sweep: noise sigma {} / {} chains ({} repeats/point) ---",
            curve.noise,
            curve.chains,
            curve.points.first().map_or(0, |p| p.repeats)
        );
        let rows: Vec<Vec<String>> = curve
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.budget),
                    fmt(p.coverage.mean, 3),
                    fmt(p.ci_width.mean, 4),
                    fmt(p.max_rhat.mean, 3),
                    fmt(p.norm_mae.mean, 4),
                    format!(
                        "{} [{}, {}]",
                        fmt(p.attacked_accuracy.mean, 3),
                        fmt(p.attacked_accuracy_lo.mean, 3),
                        fmt(p.attacked_accuracy_hi.mean, 3)
                    ),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &[
                    "budget",
                    "coverage",
                    "CI width",
                    "max rhat",
                    "norm MAE",
                    "attacked acc [band]"
                ],
                &rows
            )
        );
    }
    println!("Expected shape: credible intervals cover the true norms at every budget and");
    println!("tighten monotonically as the budget grows; the attack band narrows with the");
    println!("posterior, and all chains converge (max split-R^2 < 1.1).");
}

/// Runs the sweep campaign and prints/persists the posterior curves
/// (default `results/infer-sweep.json`). `opts.faults` and
/// `opts.transients` are ignored — the sweep defines its own noisy but
/// fault-free deployments.
pub fn run_infer_sweep(opts: &CampaignOptions) -> Result<(), String> {
    let runner = InferSweepRunner::new(opts.quick, opts.backend);
    let campaign = infer_sweep_campaign(opts.quick);
    let report = execute(&runner, &campaign, opts)?;
    let curves = infer_sweep_curves(opts.quick, &report.outputs)?;
    print_report(&curves);
    write_json(&opts.json_path("infer-sweep"), &curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_crossbar::backend::BackendKind;
    use xbar_runtime::{run_campaign, ExecutorConfig, NullSink};

    #[test]
    fn grid_shape_and_fingerprint_stability() {
        let a = infer_sweep_campaign(true);
        let b = infer_sweep_campaign(true);
        let (_, _, repeats, _, _) = infer_sweep_params(true);
        let cells = infer_sweep_noises(true).len()
            * infer_sweep_chain_counts(true).len()
            * infer_sweep_budgets(true).len();
        assert_eq!(a.len(), cells * repeats);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), infer_sweep_campaign(false).fingerprint());
    }

    #[test]
    fn subset_is_central_unique_and_in_range() {
        let subset = infer_subset();
        assert_eq!(subset.len(), 16);
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16);
        for &j in &subset {
            assert!(j < 784);
            let (r, c) = (j / 28, j % 28);
            assert!((6..=18).contains(&r) && (6..=18).contains(&c));
        }
    }

    /// The acceptance contract: identical trial outputs at 1 vs 3
    /// threads and across evaluation backends. Runs a reduced grid (one
    /// noise, one chain count, two budgets) to keep the test fast.
    #[test]
    fn sweep_outputs_are_thread_and_backend_invariant() {
        let mut campaign = Campaign::new("infer-sweep-test", INFER_SWEEP_SEED);
        for budget in [24usize, 48] {
            campaign.push_trial(InferSweepSpec {
                budget,
                noise: 0.2,
                chains: 2,
                repeat: 0,
            });
        }
        let run = |runner: &InferSweepRunner, threads: usize| {
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
        let mut naive = InferSweepRunner::new(true, BackendKind::Naive);
        naive.chain_config = ChainConfig::new(40, 80, 1).unwrap();
        naive.test_eval = 60;
        naive.draw_band = 2;
        let mut blocked = InferSweepRunner::new(true, BackendKind::Blocked);
        blocked.chain_config = naive.chain_config;
        blocked.test_eval = 60;
        blocked.draw_band = 2;
        let serial = run(&naive, 1);
        assert_eq!(serial, run(&naive, 3), "thread count changed the sweep");
        assert_eq!(serial, run(&blocked, 1), "backend changed the sweep");
        // More budget means a tighter posterior even at this tiny size.
        let (small, large) = (serial[0].unwrap(), serial[1].unwrap());
        assert!(large.ci_width < small.ci_width);
        assert!(small.ci_width > 0.0);
    }
}
