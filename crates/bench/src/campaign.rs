//! The paper's experiment grids expressed as [`xbar_runtime`] campaigns.
//!
//! Each figure's independent unit of work becomes a [`TrialRunner`]
//! trial:
//!
//! * **Table I** — one trial per (dataset, head, run); run `r` trains
//!   its victim from seed `100 + r`.
//! * **Fig. 3** — one trial per (dataset, head) panel, seed 42.
//! * **Fig. 4** — one trial per (dataset, head, method): the victim is
//!   retrained deterministically inside the trial (seed 7), so any
//!   subset of the grid can run, in any order, on any number of
//!   threads, and still reproduce the serial loop bit for bit.
//! * **Fig. 5** — one trial per independent run of a (dataset, access)
//!   row.
//! * **Multi-pixel** (Sec. III) — one trial per dataset.
//! * **Recovery** (Sec. IV) — one trial per scenario group; the
//!   least-squares scenarios share one RNG stream, so they stay in one
//!   trial.
//! * **Ablations** — one trial per condition of studies 1 (measurement
//!   noise), 1b (compressed probing), 2 (device non-idealities) and
//!   3 (power defenses); studies 4/4b/5 stay serial in the driver.
//! * **Multi-layer** — one trial per dataset.
//!
//! Every seed below is pinned to the value the serial experiment loops
//! used, so campaign outputs are directly comparable against historical
//! results.

use std::marker::PhantomData;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_core::blackbox::{run_blackbox_attack, BlackBoxConfig};
use xbar_core::defense::{DefendedOracle, PowerDefense};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{
    multi_pixel_norm_attack_batch, multi_pixel_worst_attack_batch, single_pixel_attack_batch,
    PixelAttackMethod, PixelAttackResources,
};
use xbar_core::probe::{probe_column_norms, probe_norms_compressed};
use xbar_core::recovery::{
    recover_columns_by_basis_probes, recover_weights_least_squares, recover_weights_ridge,
    relative_error,
};
use xbar_core::sweep::{attack_and_eval, method_reps};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_data::Dataset;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
use xbar_linalg::{vec_ops, Matrix};
use xbar_nn::activation::Activation;
use xbar_nn::loss::Loss;
use xbar_nn::metrics::accuracy;
use xbar_nn::mlp::{train_mlp, Mlp};
use xbar_nn::sensitivity::{abs_input_gradients, batch_input_gradients, mean_abs_sensitivity};
use xbar_nn::train::SgdConfig;
use xbar_runtime::{Campaign, TrialContext, TrialRunner};
use xbar_stats::correlation::{pearson, pearson_lenient};

use crate::{paper_configs, train_victim, DatasetKind, HeadKind, TrainedVictim};

/// Victim-training seed shared by every Fig. 4 panel (as in the serial
/// binary).
pub const FIG4_VICTIM_SEED: u64 = 7;

/// Oracle / crossbar-programming seed for Fig. 4 (as in the serial
/// binary).
pub const FIG4_ORACLE_SEED: u64 = 99;

/// Power-loss weights swept in Fig. 5. NOTE: these are NOT numerically
/// comparable to the paper's 0..0.01 range — the paper's λ is tied to
/// its (unspecified) power normalisation, while ours applies to
/// RMS-normalised, scale-invariant power profiles. What transfers is
/// the existence of a sweet spot at small-but-nonzero λ.
pub const FIG5_LAMBDAS: [f64; 4] = [0.0, 0.1, 1.0, 10.0];

/// Runs the trials of one figure, whose trial spec is `S`, and holds
/// what every oracle of the figure shares: the evaluation backend (a
/// pure execution detail — results are bit-identical across backends)
/// and the optional fault and transient specs that each trial compiles
/// under its own `(campaign_seed, trial_index)` key.
#[derive(Debug)]
pub struct FigureRunner<S> {
    backend: BackendSpec,
    faults: Option<FaultSpec>,
    transients: Option<TransientSpec>,
    figure: PhantomData<fn() -> S>,
}

impl<S> Default for FigureRunner<S> {
    fn default() -> Self {
        Self::new(BackendSpec::default())
    }
}

impl<S> FigureRunner<S> {
    /// A runner evaluating oracles with the given backend.
    #[must_use]
    pub fn new(backend: impl Into<BackendSpec>) -> Self {
        FigureRunner {
            backend: backend.into(),
            faults: None,
            transients: None,
            figure: PhantomData,
        }
    }

    /// Injects `faults` into every trial's deployed crossbar.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Applies per-query transient disturbances to every trial's oracle.
    #[must_use]
    pub fn with_transients(mut self, transients: Option<TransientSpec>) -> Self {
        self.transients = transients;
        self
    }

    /// `base` evaluated on this runner's backend, with its faults and
    /// transients compiled under the trial's
    /// `(campaign_seed, trial_index)` key — the xbar-faults keying
    /// contract, so fault draws depend only on the trial's identity,
    /// never on scheduling or thread count. The oracle extends the
    /// transient key with the global query index.
    pub(crate) fn oracle_config(&self, base: OracleConfig, ctx: &TrialContext) -> OracleConfig {
        let key = FaultKey::new(ctx.campaign_seed, ctx.trial_index as u64);
        let mut cfg = base.with_backend(self.backend);
        if let Some(spec) = self.faults {
            cfg = cfg.with_faults(FaultInjection::new(spec, key));
        }
        if let Some(spec) = self.transients {
            cfg = cfg.with_transients(TransientInjection::new(spec, key));
        }
        cfg
    }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One Table I trial: one independent run of one (dataset, head)
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1Spec {
    /// Dataset of the configuration.
    pub dataset: DatasetKind,
    /// Output head of the configuration.
    pub head: HeadKind,
    /// Independent-run index; the victim trains from seed `100 + run`.
    pub run: u64,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
}

/// What one Table I run measures: correlations between the loss
/// sensitivity `|∂L/∂u_j|` and the weight-column 1-norms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1RunOutput {
    /// Per-sample Pearson r, averaged over the training split.
    pub mean_corr_train: f64,
    /// Per-sample Pearson r, averaged over the test split.
    pub mean_corr_test: f64,
    /// Pearson r of the training split's mean sensitivity map.
    pub corr_of_mean_train: f64,
    /// Pearson r of the test split's mean sensitivity map.
    pub corr_of_mean_test: f64,
}

/// Runs Table I trials. Stateless: each trial trains its own victim.
pub type Table1Runner = FigureRunner<Table1Spec>;

/// `(mean correlation, correlation of the mean)` between `|∂L/∂u|` over
/// `ds` and the column 1-norms `norms`. Degenerate per-sample rows are
/// skipped in the mean.
fn sensitivity_correlations(
    victim: &TrainedVictim,
    head: HeadKind,
    ds: &Dataset,
    norms: &[f64],
) -> Result<(f64, f64), String> {
    let targets = ds.one_hot_targets();
    let abs = abs_input_gradients(&victim.net, ds.inputs(), &targets, head.loss())
        .map_err(|e| e.to_string())?;
    let rs: Vec<f64> = (0..abs.rows())
        .filter_map(|i| pearson_lenient(abs.row(i), norms))
        .collect();
    let mean_corr = rs.iter().sum::<f64>() / rs.len().max(1) as f64;
    let mean_map = mean_abs_sensitivity(&victim.net, ds.inputs(), &targets, head.loss())
        .map_err(|e| e.to_string())?;
    Ok((mean_corr, pearson(&mean_map, norms).unwrap_or(0.0)))
}

impl TrialRunner for Table1Runner {
    type Spec = Table1Spec;
    type Output = Table1RunOutput;

    fn run(&self, spec: &Table1Spec, _ctx: &TrialContext) -> Result<Table1RunOutput, String> {
        let victim = train_victim(spec.dataset, spec.head, spec.num_samples, 100 + spec.run);
        let norms = victim.net.column_l1_norms();
        let (mean_corr_train, corr_of_mean_train) =
            sensitivity_correlations(&victim, spec.head, &victim.train, &norms)?;
        let (mean_corr_test, corr_of_mean_test) =
            sensitivity_correlations(&victim, spec.head, &victim.test, &norms)?;
        Ok(Table1RunOutput {
            mean_corr_train,
            mean_corr_test,
            corr_of_mean_train,
            corr_of_mean_test,
        })
    }
}

/// Experiment sizes for Table I: `(runs, num_samples)`.
pub fn table1_params(quick: bool) -> (u64, usize) {
    if quick {
        (2, 800)
    } else {
        (5, 4000)
    }
}

/// The full Table I grid: configurations x runs, configuration-major
/// (so trial index = `config * runs + run`).
pub fn table1_campaign(quick: bool) -> Campaign<Table1Spec> {
    let (runs, num_samples) = table1_params(quick);
    let mut campaign = Campaign::new("table1", 100);
    for (dataset, head) in paper_configs() {
        for run in 0..runs {
            campaign.push_trial(Table1Spec {
                dataset,
                head,
                run,
                num_samples,
            });
        }
    }
    campaign
}

// ---------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------

/// One Fig. 3 trial: the maps of one (dataset, head) panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig3Spec {
    /// Dataset of the panel.
    pub dataset: DatasetKind,
    /// Output head of the panel.
    pub head: HeadKind,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
}

/// One Fig. 3 panel: the test split's mean sensitivity map beside the
/// weight-column 1-norm map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Panel {
    /// Dataset label.
    pub dataset: String,
    /// Head / activation label.
    pub activation: String,
    /// Clean test accuracy of the panel's victim.
    pub test_accuracy: f64,
    /// Pearson correlation between the two maps (the visual match,
    /// quantified).
    pub map_correlation: f64,
    /// `mean |∂L/∂u_j|` over the test split.
    pub mean_sensitivity: Vec<f64>,
    /// Weight-column 1-norms.
    pub column_l1_norms: Vec<f64>,
}

/// Runs Fig. 3 trials. Stateless: each trial trains its panel's victim
/// from seed 42.
pub type Fig3Runner = FigureRunner<Fig3Spec>;

impl TrialRunner for Fig3Runner {
    type Spec = Fig3Spec;
    type Output = Fig3Panel;

    fn run(&self, spec: &Fig3Spec, _ctx: &TrialContext) -> Result<Fig3Panel, String> {
        let victim = train_victim(spec.dataset, spec.head, spec.num_samples, 42);
        let targets = victim.test.one_hot_targets();
        let sens = mean_abs_sensitivity(
            &victim.net,
            victim.test.inputs(),
            &targets,
            spec.head.loss(),
        )
        .map_err(|e| e.to_string())?;
        let norms = victim.net.column_l1_norms();
        Ok(Fig3Panel {
            dataset: spec.dataset.label().to_string(),
            activation: spec.head.label().to_string(),
            test_accuracy: victim.test_accuracy,
            map_correlation: pearson(&sens, &norms).unwrap_or(0.0),
            mean_sensitivity: sens,
            column_l1_norms: norms,
        })
    }
}

/// The full Fig. 3 grid: one trial per panel, in the paper's order.
pub fn fig3_campaign(quick: bool) -> Campaign<Fig3Spec> {
    let num_samples = if quick { 800 } else { 4000 };
    let mut campaign = Campaign::new("fig3", 42);
    for (dataset, head) in paper_configs() {
        campaign.push_trial(Fig3Spec {
            dataset,
            head,
            num_samples,
        });
    }
    campaign
}

// ---------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------

/// One Fig. 4 trial: a single attack method on a single (dataset, head)
/// panel, swept over the attack strengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Spec {
    /// Dataset of the panel.
    pub dataset: DatasetKind,
    /// Output head of the panel.
    pub head: HeadKind,
    /// The pixel-attack method this trial evaluates.
    pub method: PixelAttackMethod,
    /// Attack strengths swept (shared by all trials of a campaign).
    pub strengths: Vec<f64>,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
    /// Repetitions averaged for the stochastic methods (RP, RD).
    pub stochastic_reps: usize,
}

/// The result of one Fig. 4 trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4TrialOutput {
    /// Clean test accuracy of the panel's victim.
    pub clean_accuracy: f64,
    /// Power queries spent probing the column norms.
    pub probe_queries: usize,
    /// Mean attacked accuracy per strength (aligned with
    /// [`Fig4Spec::strengths`]).
    pub accuracies: Vec<f64>,
}

/// Runs Fig. 4 trials. Stateless: each trial retrains its panel's
/// victim from the pinned seed, so trials are independent.
pub type Fig4Runner = FigureRunner<Fig4Spec>;

impl TrialRunner for Fig4Runner {
    type Spec = Fig4Spec;
    type Output = Fig4TrialOutput;

    fn run(&self, spec: &Fig4Spec, ctx: &TrialContext) -> Result<Fig4TrialOutput, String> {
        let victim = train_victim(spec.dataset, spec.head, spec.num_samples, FIG4_VICTIM_SEED);
        let cfg = self.oracle_config(OracleConfig::ideal().with_access(OutputAccess::None), ctx);
        let mut oracle =
            Oracle::new(victim.net.clone(), &cfg, FIG4_ORACLE_SEED).map_err(|e| e.to_string())?;

        // Case-1 probe: N power queries reveal the column 1-norms.
        let norms = probe_column_norms(&mut oracle, 1.0, 1).map_err(|e| e.to_string())?;
        let probe_queries = oracle.query_count();
        let clean_accuracy = oracle
            .eval_accuracy(victim.test.inputs(), victim.test.labels())
            .map_err(|e| e.to_string())?;

        let targets = victim.test.one_hot_targets();
        let reps = method_reps(spec.method, spec.stochastic_reps);
        let mut accuracies = Vec::with_capacity(spec.strengths.len());
        for &eps in &spec.strengths {
            let mut acc_sum = 0.0;
            for rep in 0..reps {
                // A fresh RNG per repetition, seeded exactly as the
                // serial loop, keeps the campaign path bit-identical.
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + rep as u64);
                let res = PixelAttackResources::full(&norms, &victim.net, spec.head.loss());
                acc_sum += attack_and_eval(
                    &oracle,
                    victim.test.inputs(),
                    &targets,
                    victim.test.labels(),
                    spec.method,
                    res,
                    eps,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
            }
            accuracies.push(acc_sum / reps as f64);
        }
        Ok(Fig4TrialOutput {
            clean_accuracy,
            probe_queries,
            accuracies,
        })
    }
}

/// The full Fig. 4 grid: 4 panels x 5 methods, in the paper's panel
/// order with methods in [`PixelAttackMethod::all`] order.
pub fn fig4_campaign(quick: bool) -> Campaign<Fig4Spec> {
    let num_samples = if quick { 800 } else { 4000 };
    let strengths: Vec<f64> = if quick {
        vec![0.0, 2.0, 4.0, 8.0]
    } else {
        (0..=8).map(|i| i as f64).collect()
    };
    let mut campaign = Campaign::new("fig4", FIG4_VICTIM_SEED);
    for (dataset, head) in paper_configs() {
        for method in PixelAttackMethod::all() {
            campaign.push_trial(Fig4Spec {
                dataset,
                head,
                method,
                strengths: strengths.clone(),
                num_samples,
                stochastic_reps: 5,
            });
        }
    }
    campaign
}

// ---------------------------------------------------------------------
// Fig. 5
// ---------------------------------------------------------------------

/// One Fig. 5 trial: a full independent run (victim + all query counts
/// and power weights) of one (dataset, access) row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Spec {
    /// Dataset of the row.
    pub dataset: DatasetKind,
    /// Oracle output access of the row.
    pub access: OutputAccess,
    /// FGSM budget (ℓ2-matched per dataset; see the fig5 driver docs).
    pub fgsm_eps: f64,
    /// Independent-run index; seeds everything inside the trial.
    pub run: u64,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
    /// Query counts swept.
    pub q_list: Vec<usize>,
    /// Power-loss weights swept.
    pub lambdas: Vec<f64>,
    /// Test samples evaluated per attack.
    pub test_eval: usize,
}

/// Accuracies measured for one (query count, λ) cell of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlackboxPoint {
    /// Surrogate test accuracy.
    pub surrogate_accuracy: f64,
    /// Oracle accuracy under the surrogate-crafted FGSM inputs.
    pub adversarial_accuracy: f64,
    /// Oracle clean accuracy.
    pub clean_accuracy: f64,
}

/// The result of one Fig. 5 trial: `points[q_index][lambda_index]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5RunOutput {
    /// One point per (query count, λ) pair, `q_list`-major.
    pub points: Vec<Vec<BlackboxPoint>>,
}

/// Runs Fig. 5 trials, reproducing the serial per-run loop (victim
/// seed `300 + run`, oracle seed `4000 + run`, attack RNG seed
/// `run * 1_000_003 + q` — shared across λ so comparisons are paired).
/// All (query count, λ) cells of a trial share one fault realisation,
/// so comparisons stay paired under faults too.
pub type Fig5Runner = FigureRunner<Fig5Spec>;

impl TrialRunner for Fig5Runner {
    type Spec = Fig5Spec;
    type Output = Fig5RunOutput;

    fn run(&self, spec: &Fig5Spec, ctx: &TrialContext) -> Result<Fig5RunOutput, String> {
        let victim = train_victim(
            spec.dataset,
            HeadKind::LinearMse,
            spec.num_samples,
            300 + spec.run,
        );
        let test = victim
            .test
            .subset(&(0..victim.test.len().min(spec.test_eval)).collect::<Vec<usize>>());
        let mut points = Vec::with_capacity(spec.q_list.len());
        for &q in &spec.q_list {
            let mut row = Vec::with_capacity(spec.lambdas.len());
            for &lambda in &spec.lambdas {
                let cfg = self.oracle_config(OracleConfig::ideal().with_access(spec.access), ctx);
                let mut oracle = Oracle::new(victim.net.clone(), &cfg, 4000 + spec.run)
                    .map_err(|e| e.to_string())?;
                // Same RNG seed across lambdas: identical query samples,
                // so the comparison is paired.
                let mut rng = ChaCha8Rng::seed_from_u64(spec.run * 1_000_003 + q as u64);
                let mut cfg = BlackBoxConfig::default()
                    .with_num_queries(q)
                    .with_power_weight(lambda)
                    .with_fgsm_eps(spec.fgsm_eps);
                // Constant update count (~1200 SGD steps) across query
                // sizes so every surrogate trains to comparable
                // convergence.
                cfg.surrogate.sgd.epochs = (38_400 / q).clamp(60, 2000);
                let (out, _) =
                    run_blackbox_attack(&mut oracle, &victim.train, &test, &cfg, &mut rng)
                        .map_err(|e| e.to_string())?;
                row.push(BlackboxPoint {
                    surrogate_accuracy: out.surrogate_test_accuracy,
                    adversarial_accuracy: out.oracle_adversarial_accuracy,
                    clean_accuracy: out.oracle_clean_accuracy,
                });
            }
            points.push(row);
        }
        Ok(Fig5RunOutput { points })
    }
}

/// The four (dataset, access) rows of Fig. 5, with their display label
/// and FGSM budget. The paper uses ε = 0.1 throughout; our objects
/// stand-in has 3072 dense features (vs MNIST's ~150 active ones), so
/// ε = 0.1 saturates the attack there — we match the ℓ2 budget instead:
/// 0.1·√784 ≈ 0.05·√3072.
pub fn fig5_rows() -> [(DatasetKind, OutputAccess, &'static str, f64); 4] {
    [
        (
            DatasetKind::Digits,
            OutputAccess::LabelOnly,
            "label-only",
            0.1,
        ),
        (DatasetKind::Digits, OutputAccess::Raw, "raw outputs", 0.1),
        (
            DatasetKind::Objects,
            OutputAccess::LabelOnly,
            "label-only",
            0.05,
        ),
        (DatasetKind::Objects, OutputAccess::Raw, "raw outputs", 0.05),
    ]
}

/// Experiment sizes for Fig. 5: `(runs, num_samples, q_list, test_eval)`.
pub fn fig5_params(quick: bool) -> (u64, usize, Vec<usize>, usize) {
    if quick {
        (3, 800, vec![25, 100, 400], 150)
    } else {
        (10, 4000, vec![25, 50, 100, 200, 400, 800, 1600], 400)
    }
}

/// The full Fig. 5 grid: rows x independent runs, row-major (so trial
/// index = `row * runs + run`).
pub fn fig5_campaign(quick: bool) -> Campaign<Fig5Spec> {
    let (runs, num_samples, q_list, test_eval) = fig5_params(quick);
    let mut campaign = Campaign::new("fig5", 300);
    for (dataset, access, _, fgsm_eps) in fig5_rows() {
        for run in 0..runs {
            campaign.push_trial(Fig5Spec {
                dataset,
                access,
                fgsm_eps,
                run,
                num_samples,
                q_list: q_list.clone(),
                lambdas: FIG5_LAMBDAS.to_vec(),
                test_eval,
            });
        }
    }
    campaign
}

// ---------------------------------------------------------------------
// Multi-pixel attacks (Sec. III)
// ---------------------------------------------------------------------

/// One multi-pixel trial: every pixel count on one dataset's victim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultipixelSpec {
    /// Dataset of the victim (softmax head).
    pub dataset: DatasetKind,
    /// Dataset size used to train the victim.
    pub num_samples: usize,
    /// Numbers of top-norm pixels attacked.
    pub pixel_counts: Vec<usize>,
    /// Per-pixel attack strength.
    pub strength: f64,
    /// Repetitions averaged for the direction-guessing attack.
    pub reps: u64,
}

/// One dataset's multi-pixel curves, aligned with
/// [`MultipixelResult::num_pixels`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultipixelResult {
    /// Dataset label.
    pub dataset: String,
    /// Clean test accuracy of the deployed victim.
    pub clean_accuracy: f64,
    /// Numbers of top-norm pixels attacked.
    pub num_pixels: Vec<usize>,
    /// Accuracy under the norm-guided attack with guessed directions.
    pub norm_guided_accuracy: Vec<f64>,
    /// Accuracy under the white-box multi-pixel attack.
    pub white_box_accuracy: Vec<f64>,
    /// Fraction of (sample, guess) pairs where *all* N guessed directions
    /// match the loss gradient — the paper's `(1/2)^N` argument measured
    /// directly.
    pub all_directions_correct: Vec<f64>,
}

/// Runs multi-pixel trials (victim seed 11, oracle seed 13, direction
/// guesses from one seed-900 stream per dataset).
pub type MultipixelRunner = FigureRunner<MultipixelSpec>;

impl TrialRunner for MultipixelRunner {
    type Spec = MultipixelSpec;
    type Output = MultipixelResult;

    fn run(&self, spec: &MultipixelSpec, ctx: &TrialContext) -> Result<MultipixelResult, String> {
        let head = HeadKind::SoftmaxCe;
        let victim = train_victim(spec.dataset, head, spec.num_samples, 11);
        let cfg = self.oracle_config(OracleConfig::ideal().with_access(OutputAccess::None), ctx);
        let mut oracle = Oracle::new(victim.net.clone(), &cfg, 13).map_err(|e| e.to_string())?;
        let norms = probe_column_norms(&mut oracle, 1.0, 1).map_err(|e| e.to_string())?;
        let clean_accuracy = oracle
            .eval_accuracy(victim.test.inputs(), victim.test.labels())
            .map_err(|e| e.to_string())?;
        let targets = victim.test.one_hot_targets();

        // The paper's (1/2)^N argument, measured directly: how often do N
        // independent direction guesses at the top-norm pixels all agree
        // with the white-box loss gradient?
        let grads = batch_input_gradients(&victim.net, victim.test.inputs(), &targets, head.loss())
            .map_err(|e| e.to_string())?;
        let max_pixels = spec.pixel_counts.iter().copied().max().unwrap_or(0);
        let top = vec_ops::top_k_indices(&norms, max_pixels);
        let mut guess_rng = ChaCha8Rng::seed_from_u64(900);

        let mut norm_guided_accuracy = Vec::with_capacity(spec.pixel_counts.len());
        let mut white_box_accuracy = Vec::with_capacity(spec.pixel_counts.len());
        let mut all_directions_correct = Vec::with_capacity(spec.pixel_counts.len());
        for &n in &spec.pixel_counts {
            let hits = (0..victim.test.len())
                .filter(|&i| {
                    let g = grads.row(i);
                    top[..n].iter().all(|&j| {
                        let guess = if guess_rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        guess == g[j].signum()
                    })
                })
                .count();
            all_directions_correct.push(hits as f64 / victim.test.len() as f64);

            // Direction-guessing is stochastic: average over repetitions.
            let mut acc_sum = 0.0;
            for rep in 0..spec.reps {
                let mut rng = ChaCha8Rng::seed_from_u64(500 + rep);
                let adv = multi_pixel_norm_attack_batch(
                    victim.test.inputs(),
                    &norms,
                    n,
                    spec.strength,
                    &mut rng,
                )
                .map_err(|e| e.to_string())?;
                acc_sum += oracle
                    .eval_accuracy(&adv, victim.test.labels())
                    .map_err(|e| e.to_string())?;
            }
            norm_guided_accuracy.push(acc_sum / spec.reps as f64);

            let adv = multi_pixel_worst_attack_batch(
                &victim.net,
                victim.test.inputs(),
                &targets,
                head.loss(),
                n,
                spec.strength,
            )
            .map_err(|e| e.to_string())?;
            white_box_accuracy.push(
                oracle
                    .eval_accuracy(&adv, victim.test.labels())
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(MultipixelResult {
            dataset: spec.dataset.label().to_string(),
            clean_accuracy,
            num_pixels: spec.pixel_counts.clone(),
            norm_guided_accuracy,
            white_box_accuracy,
            all_directions_correct,
        })
    }
}

/// The multi-pixel grid: one trial per dataset, digits first.
pub fn multipixel_campaign(quick: bool) -> Campaign<MultipixelSpec> {
    let mut campaign = Campaign::new("multipixel", 11);
    for dataset in [DatasetKind::Digits, DatasetKind::Objects] {
        campaign.push_trial(MultipixelSpec {
            dataset,
            num_samples: if quick { 800 } else { 4000 },
            pixel_counts: (1..=8).collect(),
            strength: 2.0,
            reps: if quick { 3 } else { 10 },
        });
    }
    campaign
}

// ---------------------------------------------------------------------
// Exact weight recovery (Sec. IV)
// ---------------------------------------------------------------------

/// A group of Sec. IV recovery scenarios that runs as one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryScenario {
    /// N raw-output basis probes `β e_j` on a clean oracle (seed 5).
    BasisProbes,
    /// Least squares at Q ∈ {N/2, N, 5N/4, 2N} on clean outputs, then
    /// plain and ridge least squares on noisy outputs. One RNG stream
    /// (seed 17) draws every query of the group, so it is one trial.
    LeastSquares,
    /// Basis probes through a noisy power-measurement channel (seed 29).
    NoisyPowerProbes,
}

/// One recovery trial: a scenario group against the digits victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySpec {
    /// The scenario group.
    pub scenario: RecoveryScenario,
    /// Dataset size used to train the linear digits victim (seed 3).
    pub num_samples: usize,
}

/// One recovery scenario's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryResult {
    /// Scenario name.
    pub scenario: String,
    /// Queries (or query rows) spent.
    pub queries: usize,
    /// Relative Frobenius error of the recovered weights; `None` when
    /// recovery fails.
    pub relative_error: Option<f64>,
    /// What the scenario shows.
    pub note: String,
}

impl RecoveryResult {
    fn new(scenario: impl Into<String>, queries: usize, err: Option<f64>, note: &str) -> Self {
        RecoveryResult {
            scenario: scenario.into(),
            queries,
            relative_error: err,
            note: note.into(),
        }
    }
}

/// Runs recovery trials. Stateless: each trial retrains the victim.
pub type RecoveryRunner = FigureRunner<RecoverySpec>;

impl RecoveryRunner {
    /// Recovers the victim's columns with N basis probes against an
    /// oracle built from `base`.
    fn basis_probes(
        &self,
        victim: &TrainedVictim,
        base: OracleConfig,
        seed: u64,
        ctx: &TrialContext,
        scenario: &str,
        note: &str,
    ) -> Result<RecoveryResult, String> {
        let cfg = self.oracle_config(base.with_access(OutputAccess::Raw), ctx);
        let mut oracle = Oracle::new(victim.net.clone(), &cfg, seed).map_err(|e| e.to_string())?;
        let rec = recover_columns_by_basis_probes(&mut oracle, 1.0).map_err(|e| e.to_string())?;
        let err = relative_error(&rec, victim.net.weights()).map_err(|e| e.to_string())?;
        Ok(RecoveryResult::new(
            scenario,
            oracle.query_count(),
            Some(err),
            note,
        ))
    }
}

impl TrialRunner for RecoveryRunner {
    type Spec = RecoverySpec;
    type Output = Vec<RecoveryResult>;

    fn run(&self, spec: &RecoverySpec, ctx: &TrialContext) -> Result<Vec<RecoveryResult>, String> {
        let head = HeadKind::LinearMse;
        let victim = train_victim(DatasetKind::Digits, head, spec.num_samples, 3);
        let w_true = victim.net.weights();
        let n = w_true.cols();
        let error = |rec: &Matrix| relative_error(rec, w_true).map_err(|e| e.to_string());
        Ok(match spec.scenario {
            RecoveryScenario::BasisProbes => vec![self.basis_probes(
                &victim,
                OracleConfig::ideal(),
                5,
                ctx,
                "basis probes",
                "exact for linear oracles",
            )?],
            RecoveryScenario::LeastSquares => {
                let mut results = Vec::new();
                let mut rng = ChaCha8Rng::seed_from_u64(17);
                for q in [n / 2, n, n + n / 4, 2 * n] {
                    let u = Matrix::random_uniform(q, n, 0.0, 1.0, &mut rng);
                    let y = u.matmul(&w_true.transpose());
                    let (err, note) = match recover_weights_least_squares(&u, &y) {
                        Ok(rec) => (Some(error(&rec)?), "exact once Q >= N"),
                        Err(_) => (None, "underdetermined when Q < N"),
                    };
                    results.push(RecoveryResult::new(
                        format!("least squares Q={q}"),
                        q,
                        err,
                        note,
                    ));
                }

                // Noisy outputs: plain least squares vs ridge.
                let q = 2 * n;
                let u = Matrix::random_uniform(q, n, 0.0, 1.0, &mut rng);
                let mut y = u.matmul(&w_true.transpose());
                let noise = Matrix::random_normal(q, y.cols(), 0.0, 0.05, &mut rng);
                y.axpy(1.0, &noise);
                let ls = recover_weights_least_squares(&u, &y).map_err(|e| e.to_string())?;
                let ridge = recover_weights_ridge(&u, &y, 1e-2).map_err(|e| e.to_string())?;
                results.push(RecoveryResult::new(
                    "noisy LS",
                    q,
                    Some(error(&ls)?),
                    "noise breaks exactness",
                ));
                results.push(RecoveryResult::new(
                    "noisy ridge",
                    q,
                    Some(error(&ridge)?),
                    "regularisation helps under noise",
                ));
                results
            }
            // Noisy power makes even the probe imperfect (connects to
            // Fig. 5's moderate-query regime).
            RecoveryScenario::NoisyPowerProbes => vec![self.basis_probes(
                &victim,
                OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.1)),
                29,
                ctx,
                "basis probes under measurement noise",
                "output channel itself stays clean here",
            )?],
        })
    }
}

/// The recovery grid: one trial per scenario group, in table order.
pub fn recovery_campaign(quick: bool) -> Campaign<RecoverySpec> {
    let mut campaign = Campaign::new("recovery", 3);
    for scenario in [
        RecoveryScenario::BasisProbes,
        RecoveryScenario::LeastSquares,
        RecoveryScenario::NoisyPowerProbes,
    ] {
        campaign.push_trial(RecoverySpec {
            scenario,
            num_samples: if quick { 600 } else { 2000 },
        });
    }
    campaign
}

// ---------------------------------------------------------------------
// Ablations (grid studies)
// ---------------------------------------------------------------------

/// Which ablation study a trial belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AblationStudy {
    /// Study 1: power-measurement noise vs probe averaging.
    Noise,
    /// Study 1b: compressed probing (fewer than N queries).
    Compressed,
    /// Study 2: device non-idealities.
    Device,
    /// Study 3: power-obfuscation defenses.
    Defense,
}

/// One ablation trial: a study plus an index into that study's
/// condition table (held by [`AblationsRunner`], which builds the same
/// table every run — the campaign fingerprint pins the grid shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationSpec {
    /// The study.
    pub study: AblationStudy,
    /// Index into the study's condition table.
    pub index: usize,
}

/// The result of one ablation trial; fields are `None` where a study
/// does not measure that quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationOutput {
    /// Pearson correlation of probed vs true column norms.
    pub probe_correlation: Option<f64>,
    /// Test accuracy under the norm-guided attack.
    pub attacked_accuracy: Option<f64>,
    /// Clean test accuracy of the victim as deployed on the (possibly
    /// non-ideal) crossbar (study 2 only).
    pub deployed_accuracy: Option<f64>,
    /// Whether the probe found the true largest-norm column (study 1b
    /// only).
    pub argmax_found: Option<bool>,
}

/// Runs the grid ablation studies against one shared victim (digits /
/// softmax, seed 21 — deterministic, so sharing it across trials is
/// equivalent to retraining it per trial, just cheaper).
pub struct AblationsRunner {
    victim: TrainedVictim,
    strength: f64,
    oracles: FigureRunner<AblationSpec>,
}

impl AblationsRunner {
    /// Trains the shared victim (800 samples when `quick`, 3000
    /// otherwise) at attack strength 4, as in the serial loop, and
    /// builds every trial's oracle through `oracles`.
    pub fn new(quick: bool, oracles: FigureRunner<AblationSpec>) -> Self {
        let num_samples = if quick { 800 } else { 3000 };
        AblationsRunner {
            victim: train_victim(DatasetKind::Digits, HeadKind::SoftmaxCe, num_samples, 21),
            strength: 4.0,
            oracles,
        }
    }

    /// The shared victim.
    pub fn victim(&self) -> &TrainedVictim {
        &self.victim
    }

    /// The attack strength used throughout the grid studies.
    pub fn strength(&self) -> f64 {
        self.strength
    }

    /// Study-1 conditions: (noise σ, probe repeats).
    pub fn noise_conditions() -> Vec<(f64, usize)> {
        let mut conditions = Vec::new();
        for &sigma in &[0.0, 0.05, 0.2, 1.0] {
            for &repeats in &[1usize, 16] {
                conditions.push((sigma, repeats));
            }
        }
        conditions
    }

    /// Study-1b conditions: compressed query budgets K.
    pub fn compressed_ks(&self) -> Vec<usize> {
        let n = self.victim.net.num_inputs();
        vec![n / 8, n / 4, n / 2, n, 2 * n]
    }

    /// Study-2 conditions: labelled device models.
    pub fn device_conditions() -> Vec<(String, DeviceModel)> {
        vec![
            ("ideal".into(), DeviceModel::ideal()),
            ("16 levels".into(), DeviceModel::ideal().with_levels(16)),
            ("4 levels".into(), DeviceModel::ideal().with_levels(4)),
            (
                "program variation σ=0.1".into(),
                DeviceModel::ideal().with_program_sigma(0.1),
            ),
            (
                "stuck-at rate 5%".into(),
                DeviceModel::ideal().with_stuck_rate(0.05),
            ),
            (
                "read noise σ=0.01".into(),
                DeviceModel::ideal().with_read_sigma(0.01),
            ),
        ]
    }

    /// Study-3 conditions: labelled power defenses (sized from the
    /// victim's mean column norm).
    pub fn defense_conditions(&self) -> Vec<(String, PowerDefense)> {
        let n = self.victim.net.num_inputs();
        let mean_norm = self.victim.net.column_l1_norms().iter().sum::<f64>() / n as f64;
        vec![
            ("none".into(), PowerDefense::None),
            (
                "static dummies (~mean norm)".into(),
                PowerDefense::DummyConductances {
                    offsets: (0..n).map(|j| mean_norm * ((j % 7) as f64) / 3.0).collect(),
                },
            ),
            (
                "randomised dummies (2x mean)".into(),
                PowerDefense::RandomizedDummy {
                    magnitude: 2.0 * mean_norm,
                },
            ),
            (
                "injected noise σ=mean norm".into(),
                PowerDefense::AdditiveNoise { sigma: mean_norm },
            ),
        ]
    }

    /// The grid campaign: studies 1, 1b, 2 and 3, in the serial
    /// binary's order.
    pub fn campaign(&self) -> Campaign<AblationSpec> {
        let mut campaign = Campaign::new("ablations", 21);
        for index in 0..Self::noise_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Noise,
                index,
            });
        }
        for index in 0..self.compressed_ks().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Compressed,
                index,
            });
        }
        for index in 0..Self::device_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Device,
                index,
            });
        }
        for index in 0..self.defense_conditions().len() {
            campaign.push_trial(AblationSpec {
                study: AblationStudy::Defense,
                index,
            });
        }
        campaign
    }

    /// Probe correlation and norm-guided attack accuracy for a given
    /// oracle configuration (studies 1 and 2).
    fn probe_and_attack(
        &self,
        cfg: &OracleConfig,
        seed: u64,
        repeats: usize,
    ) -> Result<(f64, f64), String> {
        let mut oracle =
            Oracle::new(self.victim.net.clone(), cfg, seed).map_err(|e| e.to_string())?;
        let probed = probe_column_norms(&mut oracle, 1.0, repeats).map_err(|e| e.to_string())?;
        let truth = oracle.true_column_norms();
        let r = pearson(&probed, &truth).unwrap_or(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA77AC);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            self.victim.test.inputs(),
            &self.victim.test.one_hot_targets(),
            PixelAttackResources::norms_only(&probed),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let acc = oracle
            .eval_accuracy(&adv, self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok((r, acc))
    }

    fn run_noise(&self, index: usize, ctx: &TrialContext) -> Result<AblationOutput, String> {
        let (sigma, repeats) = *Self::noise_conditions()
            .get(index)
            .ok_or_else(|| format!("noise condition {index} out of range"))?;
        let cfg = self.oracles.oracle_config(
            OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_power(PowerModel::default().with_noise(sigma)),
            ctx,
        );
        let (r, acc) = self.probe_and_attack(&cfg, 31, repeats)?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: None,
            argmax_found: None,
        })
    }

    fn run_compressed(&self, index: usize, ctx: &TrialContext) -> Result<AblationOutput, String> {
        let k = *self
            .compressed_ks()
            .get(index)
            .ok_or_else(|| format!("compressed condition {index} out of range"))?;
        let truth = self.victim.net.column_l1_norms();
        let cfg = self
            .oracles
            .oracle_config(OracleConfig::ideal().with_access(OutputAccess::None), ctx);
        let mut oracle =
            Oracle::new(self.victim.net.clone(), &cfg, 33).map_err(|e| e.to_string())?;
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let est =
            probe_norms_compressed(&mut oracle, k, 1e-3, &mut rng).map_err(|e| e.to_string())?;
        let r = pearson(&est, &truth).unwrap_or(0.0);
        let hit = xbar_linalg::vec_ops::argmax(&est) == xbar_linalg::vec_ops::argmax(&truth);
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: None,
            deployed_accuracy: None,
            argmax_found: Some(hit),
        })
    }

    fn run_device(&self, index: usize, ctx: &TrialContext) -> Result<AblationOutput, String> {
        let (_, device) = Self::device_conditions()
            .into_iter()
            .nth(index)
            .ok_or_else(|| format!("device condition {index} out of range"))?;
        let cfg = self.oracles.oracle_config(
            OracleConfig::ideal()
                .with_access(OutputAccess::None)
                .with_device(device),
            ctx,
        );
        let (r, acc) = self.probe_and_attack(&cfg, 37, 1)?;
        // Also report how the non-ideality hurts the *victim* itself.
        let oracle = Oracle::new(self.victim.net.clone(), &cfg, 37).map_err(|e| e.to_string())?;
        let deployed = oracle
            .eval_accuracy(self.victim.test.inputs(), self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: Some(deployed),
            argmax_found: None,
        })
    }

    fn run_defense(&self, index: usize, ctx: &TrialContext) -> Result<AblationOutput, String> {
        let (_, defense) = self
            .defense_conditions()
            .into_iter()
            .nth(index)
            .ok_or_else(|| format!("defense condition {index} out of range"))?;
        let cfg = self
            .oracles
            .oracle_config(OracleConfig::ideal().with_access(OutputAccess::None), ctx);
        let oracle = Oracle::new(self.victim.net.clone(), &cfg, 41).map_err(|e| e.to_string())?;
        let mut defended = DefendedOracle::new(oracle, defense, 43).map_err(|e| e.to_string())?;
        let probed = defended
            .probe_column_norms(1.0, 1)
            .map_err(|e| e.to_string())?;
        let truth = defended.inner().true_column_norms();
        let r = pearson(&probed, &truth).unwrap_or(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let adv = single_pixel_attack_batch(
            PixelAttackMethod::NormPlus,
            self.victim.test.inputs(),
            &self.victim.test.one_hot_targets(),
            PixelAttackResources::norms_only(&probed),
            self.strength,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let acc = defended
            .inner()
            .eval_accuracy(&adv, self.victim.test.labels())
            .map_err(|e| e.to_string())?;
        Ok(AblationOutput {
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
            deployed_accuracy: None,
            argmax_found: None,
        })
    }
}

impl TrialRunner for AblationsRunner {
    type Spec = AblationSpec;
    type Output = AblationOutput;

    fn run(&self, spec: &AblationSpec, ctx: &TrialContext) -> Result<AblationOutput, String> {
        match spec.study {
            AblationStudy::Noise => self.run_noise(spec.index, ctx),
            AblationStudy::Compressed => self.run_compressed(spec.index, ctx),
            AblationStudy::Device => self.run_device(spec.index, ctx),
            AblationStudy::Defense => self.run_defense(spec.index, ctx),
        }
    }
}

// ---------------------------------------------------------------------
// Multi-layer extension
// ---------------------------------------------------------------------

/// One multi-layer trial: an MLP on one dataset, beside the
/// single-layer reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultilayerSpec {
    /// Dataset the MLP trains on.
    pub dataset: DatasetKind,
    /// Dataset size (seed 77).
    pub num_samples: usize,
    /// MLP training epochs.
    pub epochs: usize,
}

/// Whether the first crossbar's power leak still predicts an MLP's
/// end-to-end input sensitivity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultilayerResult {
    /// Dataset label.
    pub dataset: String,
    /// Hidden-layer width.
    pub hidden_units: usize,
    /// MLP test accuracy.
    pub test_accuracy: f64,
    /// Pearson r between the MLP's mean `|∂L/∂u|` and its first-layer
    /// column 1-norms.
    pub corr_of_mean_first_layer: f64,
    /// The same correlation for a single-layer softmax victim on the
    /// same data (the Table I number).
    pub single_layer_reference: f64,
}

/// Runs multi-layer trials (data seed 77, MLP seed 88).
pub type MultilayerRunner = FigureRunner<MultilayerSpec>;

impl TrialRunner for MultilayerRunner {
    type Spec = MultilayerSpec;
    type Output = MultilayerResult;

    fn run(&self, spec: &MultilayerSpec, _ctx: &TrialContext) -> Result<MultilayerResult, String> {
        let ds = spec.dataset.generate(spec.num_samples, 77);
        let split = ds.split_frac(0.85).map_err(|e| e.to_string())?;
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let hidden = 64;
        let mut mlp = Mlp::new_random(
            &[ds.num_features(), hidden, ds.num_classes()],
            Activation::Relu,
            Activation::Softmax,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let cfg = SgdConfig {
            learning_rate: 0.01,
            momentum: 0.9,
            epochs: spec.epochs,
            ..SgdConfig::default()
        };
        train_mlp(
            &mut mlp,
            split.train.inputs(),
            &split.train.one_hot_targets(),
            Loss::CrossEntropy,
            &cfg,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let preds = mlp
            .predict_batch(split.test.inputs())
            .map_err(|e| e.to_string())?;
        let test_accuracy = accuracy(&preds, split.test.labels());

        // End-to-end mean |dL/du| of the MLP.
        let mean_sens = mlp
            .batch_input_gradients(
                split.test.inputs(),
                &split.test.one_hot_targets(),
                Loss::CrossEntropy,
            )
            .map_err(|e| e.to_string())?
            .map(f64::abs)
            .col_means();

        // What the first crossbar array's power leaks: layer-1 column norms.
        let layer1_norms = &mlp.per_layer_column_l1_norms()[0];
        let corr_of_mean_first_layer = pearson(&mean_sens, layer1_norms).unwrap_or(0.0);

        // Reference: the single-layer Table I number for the same data.
        let single = train_victim(spec.dataset, HeadKind::SoftmaxCe, spec.num_samples, 77);
        let single_sens = mean_abs_sensitivity(
            &single.net,
            single.test.inputs(),
            &single.test.one_hot_targets(),
            Loss::CrossEntropy,
        )
        .map_err(|e| e.to_string())?;
        let single_layer_reference =
            pearson(&single_sens, &single.net.column_l1_norms()).unwrap_or(0.0);

        Ok(MultilayerResult {
            dataset: spec.dataset.label().to_string(),
            hidden_units: hidden,
            test_accuracy,
            corr_of_mean_first_layer,
            single_layer_reference,
        })
    }
}

/// The multi-layer grid: one trial per dataset, digits first.
pub fn multilayer_campaign(quick: bool) -> Campaign<MultilayerSpec> {
    let mut campaign = Campaign::new("multilayer", 77);
    for dataset in [DatasetKind::Digits, DatasetKind::Objects] {
        campaign.push_trial(MultilayerSpec {
            dataset,
            num_samples: if quick { 800 } else { 3000 },
            epochs: if quick { 10 } else { 25 },
        });
    }
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{from_str, to_string};

    #[test]
    fn fig4_grid_shape_and_fingerprint_stability() {
        let a = fig4_campaign(true);
        let b = fig4_campaign(true);
        assert_eq!(a.len(), 4 * PixelAttackMethod::all().len());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), fig4_campaign(false).fingerprint());
    }

    #[test]
    fn fig5_grid_is_row_major() {
        let c = fig5_campaign(true);
        let (runs, ..) = fig5_params(true);
        assert_eq!(c.len() as u64, 4 * runs);
        // Trial index = row * runs + run.
        let idx = |row: usize, run: u64| &c.trials[row * runs as usize + run as usize];
        assert_eq!(idx(0, 0).run, 0);
        assert_eq!(idx(0, runs - 1).run, runs - 1);
        assert_eq!(idx(2, 0).dataset, DatasetKind::Objects);
    }

    #[test]
    fn spec_json_roundtrips() {
        let spec = Fig4Spec {
            dataset: DatasetKind::Objects,
            head: HeadKind::LinearMse,
            method: PixelAttackMethod::NormRandom,
            strengths: vec![0.0, 1.5],
            num_samples: 100,
            stochastic_reps: 3,
        };
        let back: Fig4Spec = from_str(&to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);

        let spec = AblationSpec {
            study: AblationStudy::Compressed,
            index: 4,
        };
        let back: AblationSpec = from_str(&to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }
}
