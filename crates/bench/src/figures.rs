//! The one experiment runner: a function per paper figure that builds
//! the figure's grid ([`crate::campaign`]), runs it on the
//! [`xbar_runtime`] executor, then aggregates, prints and persists the
//! figure. [`FIGURES`] lists them all; `xbar campaign --figure NAME`
//! runs one, so every figure gets thread invariance, journals, resume
//! and traces.

use std::path::PathBuf;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use xbar_runtime::{
    run_campaign_traced, Campaign, CampaignReport, ExecutorConfig, NullSink, ProgressSink,
    StderrReporter, TrialRunner,
};

use crate::campaign::{
    fig3_campaign, fig4_campaign, fig5_campaign, fig5_params, fig5_rows, multilayer_campaign,
    multipixel_campaign, recovery_campaign, table1_campaign, table1_params, AblationsRunner,
    Fig4Spec, Fig4TrialOutput, FigureRunner, Table1RunOutput, FIG5_LAMBDAS,
};
use crate::{paper_configs, train_victim, write_json, DatasetKind, HeadKind};
use xbar_core::report::{ascii_heatmap, fmt, fmt_with_significance, format_table};
use xbar_crossbar::backend::BackendSpec;
use xbar_faults::{FaultSpec, TransientSpec};
use xbar_stats::aggregate::RunSummary;
use xbar_stats::ttest::welch_t_test;

/// The oracle flags a figure's trials honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleFlags {
    /// No oracle: `--backend`, `--faults` and `--transients` are refused.
    None,
    /// Oracles but no fault-injection story: `--backend` only.
    Backend,
    /// `--backend`, `--faults` and `--transients`.
    All,
}

/// A figure `xbar campaign --figure` regenerates.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The `--figure` name, also the stem of its default artifact path
    /// `results/NAME.json`.
    pub name: &'static str,
    /// Runs the figure.
    pub run: fn(&CampaignOptions) -> Result<(), String>,
    /// The oracle flags its trials honour.
    pub flags: OracleFlags,
}

const fn figure(
    name: &'static str,
    run: fn(&CampaignOptions) -> Result<(), String>,
    flags: OracleFlags,
) -> Figure {
    Figure { name, run, flags }
}

/// Every figure, in the paper's order.
pub const FIGURES: [Figure; 8] = [
    figure("table1", run_table1, OracleFlags::None),
    figure("fig3", run_fig3, OracleFlags::None),
    figure("fig4", run_fig4, OracleFlags::All),
    figure("fig5", run_fig5, OracleFlags::All),
    figure("multipixel", run_multipixel, OracleFlags::Backend),
    figure("recovery", run_recovery, OracleFlags::Backend),
    figure("ablations", run_ablations, OracleFlags::All),
    figure("multilayer", run_multilayer, OracleFlags::None),
];

/// Where campaign progress events go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Human-readable lines on stderr (the default).
    #[default]
    Stderr,
    /// No progress output.
    None,
}

impl std::str::FromStr for ProgressMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "stderr" => Ok(ProgressMode::Stderr),
            "none" => Ok(ProgressMode::None),
            other => Err(format!(
                "unknown progress mode {other:?} (expected stderr or none)"
            )),
        }
    }
}

/// How to execute a figure campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Shrink experiment sizes for smoke-testing.
    pub quick: bool,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Skip trials already completed in the journal.
    pub resume: bool,
    /// Journal path; `None` disables checkpointing (and `resume`).
    pub journal: Option<PathBuf>,
    /// `xbar-obs` JSONL trace path; `None` disables tracing.
    pub trace: Option<PathBuf>,
    /// Progress reporting mode.
    pub progress: ProgressMode,
    /// Emit a progress event every this many finished trials.
    pub progress_every: usize,
    /// Results JSON path; `None` uses the figure's default under
    /// `results/`.
    pub json_out: Option<String>,
    /// Oracle evaluation backend (kind, tile sizes, thread count). A
    /// pure execution detail: results are bit-identical across
    /// backends.
    pub backend: BackendSpec,
    /// Optional fault spec injected into every trial's deployed
    /// crossbar, keyed by `(campaign_seed, trial_index)`; `None` runs
    /// on pristine hardware.
    pub faults: Option<FaultSpec>,
    /// Optional per-query transient disturbances (read-disturb flips,
    /// conductance jitter), keyed by `(campaign_seed, trial_index,
    /// query index)`; `None` disables them.
    pub transients: Option<TransientSpec>,
    /// Keep going when trials fail: failed trials are journaled and
    /// reported instead of aborting the figure. Defaults to `false` —
    /// the figure drivers need every cell.
    pub tolerate_failures: bool,
}

impl CampaignOptions {
    /// Defaults: all cores, no resume, no journal, no trace, stderr
    /// progress on every trial, naive backend.
    pub fn new(quick: bool) -> Self {
        CampaignOptions {
            quick,
            threads: 0,
            resume: false,
            journal: None,
            trace: None,
            progress: ProgressMode::Stderr,
            progress_every: 1,
            json_out: None,
            backend: BackendSpec::default(),
            faults: None,
            transients: None,
            tolerate_failures: false,
        }
    }

    /// A figure runner on these options' backend, faults and transients.
    fn runner<S>(&self) -> FigureRunner<S> {
        FigureRunner::new(self.backend)
            .with_faults(self.faults)
            .with_transients(self.transients)
    }

    /// Runs a figure's grid on [`Self::runner`]; returns every trial's
    /// output in grid order.
    fn run_grid<S>(
        &self,
        campaign: &Campaign<S>,
    ) -> Result<Vec<<FigureRunner<S> as TrialRunner>::Output>, String>
    where
        FigureRunner<S>: TrialRunner<Spec = S>,
    {
        completed(execute(&self.runner(), campaign, self)?)
    }

    /// The results JSON path: `--out`, or `results/{name}.json`.
    pub(crate) fn json_path(&self, name: &str) -> String {
        self.json_out
            .clone()
            .unwrap_or_else(|| format!("results/{name}.json"))
    }
}

/// Runs `campaign` with progress on stderr; errors if any trial failed
/// (the journal still records the partial results) unless
/// `opts.tolerate_failures` is set.
pub(crate) fn execute<R: TrialRunner>(
    runner: &R,
    campaign: &Campaign<R::Spec>,
    opts: &CampaignOptions,
) -> Result<CampaignReport<R::Output>, String> {
    for path in [&opts.journal, &opts.trace].into_iter().flatten() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create directory {}: {e}", parent.display()))?;
        }
    }
    let mut sink: Box<dyn ProgressSink> = match opts.progress {
        ProgressMode::Stderr => Box::new(StderrReporter::new(
            campaign.name.clone(),
            opts.progress_every,
        )),
        ProgressMode::None => Box::new(NullSink),
    };
    let config = match opts.threads {
        0 => ExecutorConfig::default(),
        threads => ExecutorConfig::with_threads(threads),
    };
    let report = run_campaign_traced(
        runner,
        campaign,
        &config,
        opts.journal.as_deref(),
        opts.resume,
        sink.as_mut(),
        opts.trace.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    if !report.all_ok() {
        for failure in &report.failures {
            eprintln!(
                "[{}] trial {} failed: {}",
                campaign.name, failure.trial_index, failure.error
            );
        }
        if !opts.tolerate_failures {
            return Err(format!(
                "{} of {} trials failed",
                report.failures.len(),
                campaign.len()
            ));
        }
        eprintln!(
            "[{}] continuing despite {} failed trial(s) (tolerate_failures)",
            campaign.name,
            report.failures.len()
        );
    }
    Ok(report)
}

/// Every trial's output, in grid order; errors if a trial has none
/// (possible only when failures are tolerated).
fn completed<O>(report: CampaignReport<O>) -> Result<Vec<O>, String> {
    report
        .outputs
        .into_iter()
        .enumerate()
        .map(|(i, output)| output.ok_or_else(|| format!("trial {i} has no output")))
        .collect()
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One (dataset, head) row of Table I, summarised over the runs.
#[derive(Debug, Serialize)]
pub struct Table1Row {
    /// Dataset label.
    pub dataset: &'static str,
    /// Head / activation label.
    pub activation: &'static str,
    /// Per-sample correlation averaged over the training split.
    pub mean_corr_train: RunSummary,
    /// Per-sample correlation averaged over the test split.
    pub mean_corr_test: RunSummary,
    /// Correlation of the training split's mean sensitivity map.
    pub corr_of_mean_train: RunSummary,
    /// Correlation of the test split's mean sensitivity map.
    pub corr_of_mean_test: RunSummary,
}

/// Runs the Table I grid and prints/persists its rows: "mean
/// correlation" (per-sample r, averaged; expected lower) beside
/// "correlation of mean" (r of the dataset-mean sensitivity map;
/// expected ≈ 0.9+).
pub fn run_table1(opts: &CampaignOptions) -> Result<(), String> {
    let (runs, num_samples) = table1_params(opts.quick);
    println!("Table I: correlation between |loss sensitivity| and weight-column 1-norms");
    println!("({runs} runs per configuration, {num_samples} samples per dataset)\n");

    let campaign = table1_campaign(opts.quick);
    let outputs = opts.run_grid(&campaign)?;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for ((dataset, head), stats) in paper_configs()
        .into_iter()
        .zip(outputs.chunks(runs as usize))
    {
        let col = |f: fn(&Table1RunOutput) -> f64| {
            RunSummary::from_values(&stats.iter().map(f).collect::<Vec<f64>>())
        };
        let row = Table1Row {
            dataset: dataset.label(),
            activation: head.label(),
            mean_corr_train: col(|s| s.mean_corr_train),
            mean_corr_test: col(|s| s.mean_corr_test),
            corr_of_mean_train: col(|s| s.corr_of_mean_train),
            corr_of_mean_test: col(|s| s.corr_of_mean_test),
        };
        rows.push(vec![
            row.dataset.to_string(),
            row.activation.to_string(),
            fmt(row.mean_corr_train.mean, 2),
            fmt(row.mean_corr_test.mean, 2),
            fmt(row.corr_of_mean_train.mean, 2),
            fmt(row.corr_of_mean_test.mean, 2),
        ]);
        json_rows.push(row);
    }

    println!(
        "{}",
        format_table(
            &[
                "Dataset",
                "Activation",
                "MeanCorr(Train)",
                "MeanCorr(Test)",
                "CorrOfMean(Train)",
                "CorrOfMean(Test)",
            ],
            &rows,
        )
    );
    println!("Paper reference (MNIST/CIFAR-10):");
    println!("  MNIST  Linear  0.70 0.70 | 0.99 0.98");
    println!("  MNIST  Softmax 0.52 0.52 | 0.92 0.92");
    println!("  CIFAR  Linear  0.26 0.26 | 0.87 0.87");
    println!("  CIFAR  Softmax 0.33 0.33 | 0.91 0.91");
    println!(
        "Expected shape: CorrOfMean >> MeanCorr everywhere; digits MeanCorr > objects MeanCorr."
    );
    write_json(&opts.json_path("table1"), &json_rows)
}

// ---------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------

/// Runs the Fig. 3 grid: prints each panel's sensitivity and 1-norm
/// maps as ASCII heatmaps (bright = large; channel 0 only for objects,
/// matching the paper's `10 x 1024` note) and persists the grids.
pub fn run_fig3(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = fig3_campaign(opts.quick);
    let panels = opts.run_grid(&campaign)?;
    for (spec, panel) in campaign.trials.iter().zip(&panels) {
        let shape = spec.dataset.image_shape();
        println!(
            "=== {} / {} (test acc {:.3}, map correlation r = {:.3}) ===",
            panel.dataset, panel.activation, panel.test_accuracy, panel.map_correlation
        );
        println!("--- mean |dL/du| (sensitivity), channel 0 ---");
        println!("{}", ascii_heatmap(&panel.mean_sensitivity, shape, 0));
        println!("--- column 1-norms of W, channel 0 ---");
        println!("{}", ascii_heatmap(&panel.column_l1_norms, shape, 0));
    }

    println!("Expected shape (paper Fig. 3): each sensitivity map visually matches its");
    println!("1-norm map; digits maps are smooth with dark borders, objects maps are");
    println!("jagged with signal everywhere.");
    write_json(&opts.json_path("fig3"), &panels)
}

// ---------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------

/// One (dataset, head) panel of Fig. 4, aggregated for printing and JSON.
#[derive(Debug, Serialize)]
pub struct Fig4Panel {
    /// Dataset label.
    pub dataset: &'static str,
    /// Head / activation label.
    pub activation: &'static str,
    /// Clean test accuracy of the panel's victim.
    pub clean_accuracy: f64,
    /// Power queries spent probing the column norms.
    pub probe_queries: usize,
    /// Attack strengths swept.
    pub strengths: Vec<f64>,
    /// `(method label, accuracy per strength)` rows.
    pub methods: Vec<(&'static str, Vec<f64>)>,
}

/// Groups per-trial outputs back into panels (trials of a panel are
/// contiguous by construction of [`fig4_campaign`]).
pub fn fig4_panels(campaign: &Campaign<Fig4Spec>, outputs: &[Fig4TrialOutput]) -> Vec<Fig4Panel> {
    let mut panels = Vec::new();
    let mut i = 0;
    while i < campaign.trials.len() {
        let first = &campaign.trials[i];
        let mut methods = Vec::new();
        let mut clean_accuracy = 0.0;
        let mut probe_queries = 0;
        while i < campaign.trials.len()
            && campaign.trials[i].dataset == first.dataset
            && campaign.trials[i].head == first.head
        {
            let output = &outputs[i];
            clean_accuracy = output.clean_accuracy;
            probe_queries = output.probe_queries;
            methods.push((
                campaign.trials[i].method.paper_label(),
                output.accuracies.clone(),
            ));
            i += 1;
        }
        panels.push(Fig4Panel {
            dataset: first.dataset.label(),
            activation: first.head.label(),
            clean_accuracy,
            probe_queries,
            strengths: first.strengths.clone(),
            methods,
        });
    }
    panels
}

fn print_fig4(panels: &[Fig4Panel]) {
    for panel in panels {
        println!(
            "=== Fig.4 panel: {} / {} (clean acc {:.3}, probe cost {} queries) ===",
            panel.dataset, panel.activation, panel.clean_accuracy, panel.probe_queries
        );
        let mut rows = Vec::new();
        for (label, accs) in &panel.methods {
            let mut row = vec![label.to_string()];
            row.extend(accs.iter().map(|&a| fmt(a, 3)));
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["method".into()];
        headers.extend(panel.strengths.iter().map(|s| format!("eps={s}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("{}", format_table(&header_refs, &rows));
    }

    println!("Expected shape (paper Fig. 4): Worst lowest; norm-guided '+' below RD below");
    println!("'-'; all norm-guided methods at or below RP; effects strongest for digits.");
}

/// Runs the Fig. 4 grid and prints/persists the panels.
pub fn run_fig4(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = fig4_campaign(opts.quick);
    let panels = fig4_panels(&campaign, &opts.run_grid(&campaign)?);
    print_fig4(&panels);
    write_json(&opts.json_path("fig4"), &panels)
}

// ---------------------------------------------------------------------
// Fig. 5
// ---------------------------------------------------------------------

/// One aggregated (query count, λ) cell of a Fig. 5 row.
#[derive(Debug, Serialize)]
pub struct Fig5Cell {
    /// Oracle queries spent building the surrogate.
    pub queries: usize,
    /// Power-loss weight.
    pub lambda: f64,
    /// Surrogate test accuracy over the runs.
    pub surrogate_accuracy: RunSummary,
    /// Oracle accuracy under surrogate-crafted FGSM inputs.
    pub oracle_adversarial_accuracy: RunSummary,
    /// Clean-minus-adversarial oracle accuracy.
    pub degradation: RunSummary,
    /// vs λ = 0 at the same query count (None for λ = 0 itself).
    pub improvement_mean: Option<f64>,
    /// Welch t-test p-value of the improvement.
    pub improvement_p_value: Option<f64>,
}

/// One (dataset, access) row of Fig. 5.
#[derive(Debug, Serialize)]
pub struct Fig5Row {
    /// Dataset label.
    pub dataset: &'static str,
    /// Oracle access label.
    pub access: &'static str,
    /// Mean clean oracle accuracy over the runs.
    pub clean_accuracy_mean: f64,
    /// All aggregated cells, λ-major.
    pub cells: Vec<Fig5Cell>,
}

/// Runs the Fig. 5 grid and prints/persists the rows.
pub fn run_fig5(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = fig5_campaign(opts.quick);
    let outputs = opts.run_grid(&campaign)?;
    let (runs, _, q_list, _) = fig5_params(opts.quick);

    let mut json_rows = Vec::new();
    for (row_idx, (dataset, _, access_label, _)) in fig5_rows().into_iter().enumerate() {
        println!(
            "\n================ Fig.5 row: {} / {} ({} runs) ================",
            dataset.label(),
            access_label,
            runs
        );

        // per-run results for this row: [run][q_idx][lambda_idx].
        let per_run = &outputs[row_idx * runs as usize..][..runs as usize];

        let clean_mean: f64 = per_run
            .iter()
            .map(|r| r.points[0][0].clean_accuracy)
            .sum::<f64>()
            / runs as f64;

        // Aggregate and print the three "columns".
        let mut cells = Vec::new();
        let mut surr_rows = Vec::new();
        let mut adv_rows = Vec::new();
        let mut imp_rows = Vec::new();
        for (li, &lambda) in FIG5_LAMBDAS.iter().enumerate() {
            let mut surr_row = vec![format!("λ={lambda}")];
            let mut adv_row = vec![format!("λ={lambda}")];
            let mut imp_row = vec![format!("λ={lambda}")];
            for (qi, &q) in q_list.iter().enumerate() {
                let surr: Vec<f64> = per_run
                    .iter()
                    .map(|r| r.points[qi][li].surrogate_accuracy)
                    .collect();
                let adv: Vec<f64> = per_run
                    .iter()
                    .map(|r| r.points[qi][li].adversarial_accuracy)
                    .collect();
                let deg: Vec<f64> = per_run
                    .iter()
                    .map(|r| {
                        r.points[qi][li].clean_accuracy - r.points[qi][li].adversarial_accuracy
                    })
                    .collect();
                let deg0: Vec<f64> = per_run
                    .iter()
                    .map(|r| r.points[qi][0].clean_accuracy - r.points[qi][0].adversarial_accuracy)
                    .collect();
                let surr_s = RunSummary::from_values(&surr);
                let adv_s = RunSummary::from_values(&adv);
                let deg_s = RunSummary::from_values(&deg);
                let (imp_mean, imp_p) = if li == 0 {
                    (None, None)
                } else {
                    let delta = deg_s.mean - RunSummary::from_values(&deg0).mean;
                    let p = welch_t_test(&deg, &deg0).map(|t| t.p_value).unwrap_or(1.0);
                    (Some(delta), Some(p))
                };
                surr_row.push(fmt(surr_s.mean, 3));
                adv_row.push(fmt(adv_s.mean, 3));
                imp_row.push(match (imp_mean, imp_p) {
                    (Some(d), Some(p)) => fmt_with_significance(d, p, 0.05, 3),
                    _ => "(ref)".to_string(),
                });
                cells.push(Fig5Cell {
                    queries: q,
                    lambda,
                    surrogate_accuracy: surr_s,
                    oracle_adversarial_accuracy: adv_s,
                    degradation: deg_s,
                    improvement_mean: imp_mean,
                    improvement_p_value: imp_p,
                });
            }
            surr_rows.push(surr_row);
            adv_rows.push(adv_row);
            imp_rows.push(imp_row);
        }

        let mut headers: Vec<String> = vec!["".into()];
        headers.extend(q_list.iter().map(|q| format!("Q={q}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        println!("clean oracle accuracy (mean over runs): {clean_mean:.3}\n");
        println!("--- surrogate test accuracy vs queries (Fig.5 left column) ---");
        println!("{}", format_table(&header_refs, &surr_rows));
        println!("--- oracle adversarial accuracy vs queries (Fig.5 centre, lower=stronger) ---");
        println!("{}", format_table(&header_refs, &adv_rows));
        println!("--- improvement in degradation vs λ=0 (* = p<0.05) (Fig.5 right) ---");
        println!("{}", format_table(&header_refs, &imp_rows));

        json_rows.push(Fig5Row {
            dataset: dataset.label(),
            access: access_label,
            clean_accuracy_mean: clean_mean,
            cells,
        });
    }

    println!("\nExpected shape (paper Fig. 5): for digits, λ>0 improves surrogate accuracy");
    println!("and attack efficacy at moderate Q, with significance; the benefit vanishes");
    println!("once Q exceeds the input dimension. For objects, improvements are small and");
    println!("mostly not significant.");

    write_json(&opts.json_path("fig5"), &json_rows)
}

// ---------------------------------------------------------------------
// Multi-pixel attacks (Sec. III)
// ---------------------------------------------------------------------

/// Runs the multi-pixel grid (paper Sec. III): attacking the top-N
/// 1-norm pixels, each with a guessed ± direction, gets *less*
/// efficient as N grows, since all N directions must be guessed right
/// (odds `(1/2)^N`), while the white-box multi-pixel bound keeps getting
/// stronger.
pub fn run_multipixel(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = multipixel_campaign(opts.quick);
    let results = opts.run_grid(&campaign)?;
    for (spec, result) in campaign.trials.iter().zip(&results) {
        println!(
            "=== multi-pixel attacks: {} (clean acc {:.3}, strength {}) ===",
            result.dataset, result.clean_accuracy, spec.strength
        );
        let mut headers: Vec<String> = vec!["method".into()];
        headers.extend(result.num_pixels.iter().map(|n| format!("N={n}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let row = |label: &str, values: &[f64]| {
            let mut row = vec![label.to_string()];
            row.extend(values.iter().map(|&a| fmt(a, 3)));
            row
        };
        let reference: Vec<f64> = result
            .num_pixels
            .iter()
            .map(|&n| 0.5_f64.powi(n as i32))
            .collect();
        let rows = [
            row("norm-guided (guess ±)", &result.norm_guided_accuracy),
            row("white-box worst", &result.white_box_accuracy),
            row("P(all N guesses right)", &result.all_directions_correct),
            row("(1/2)^N reference", &reference),
        ];
        println!("{}", format_table(&header_refs, &rows));
    }

    println!("Expected shape (paper Sec. III): the probability of guessing every");
    println!("direction right collapses as (1/2)^N, so the norm-guided attack's");
    println!("per-pixel efficiency falls further and further behind the white-box");
    println!("bound as N grows. (Measured deviation: with a fixed per-pixel strength");
    println!("the *absolute* norm-guided accuracy still drifts down with N — random");
    println!("±ε on N pixels is a growing-variance perturbation — but its gap to the");
    println!("white-box multi-pixel bound widens exactly as the paper argues.)");
    write_json(&opts.json_path("multipixel"), &results)
}

// ---------------------------------------------------------------------
// Exact weight recovery (Sec. IV)
// ---------------------------------------------------------------------

/// Runs the recovery grid (paper Sec. IV), which shows when the power
/// side channel is redundant: `β e_j` queries against a linear oracle
/// reveal `W[:, j]` exactly, and with `Q ≥ N` independent queries
/// `W = (U† Ŷ)ᵀ` is exact; measurement noise or `Q < N` breaks
/// exactness — the regime where the surrogate + power attack earns its
/// keep.
pub fn run_recovery(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = recovery_campaign(opts.quick);
    let results: Vec<_> = opts.run_grid(&campaign)?.into_iter().flatten().collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.queries.to_string(),
                r.relative_error.map_or("fails".into(), |e| fmt(e, 9)),
                r.note.clone(),
            ]
        })
        .collect();
    println!(
        "=== Sec. IV exact weight recovery (digits victim, N={}) ===",
        DatasetKind::Digits.image_shape().len()
    );
    println!(
        "{}",
        format_table(&["scenario", "queries", "relative error", "note"], &rows)
    );
    println!("Expected shape: basis probes and Q>=N least squares are exact (error ~1e-12);");
    println!("Q<N fails; observation noise degrades recovery and ridge recovers part of it.");
    write_json(&opts.json_path("recovery"), &results)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// One JSON record of the ablations output.
#[derive(Debug, Serialize)]
pub struct AblationRecord {
    /// Which study the record belongs to.
    pub study: &'static str,
    /// Human-readable condition.
    pub condition: String,
    /// Pearson correlation of probed vs true column norms.
    pub probe_correlation: Option<f64>,
    /// Test accuracy under the norm-guided attack.
    pub attacked_accuracy: Option<f64>,
}

/// Runs the ablation studies: 1/1b/2/3 as a campaign grid, 4/4b/5
/// serially; prints the study tables and persists the records.
pub fn run_ablations(opts: &CampaignOptions) -> Result<(), String> {
    use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};

    let runner = AblationsRunner::new(opts.quick, opts.runner());
    let victim = runner.victim().clone();
    let strength = runner.strength();
    let num_samples = if opts.quick { 800 } else { 3000 };

    let clean = {
        let oracle = Oracle::new(victim.net.clone(), &OracleConfig::ideal(), 1)
            .map_err(|e| e.to_string())?;
        oracle
            .eval_accuracy(victim.test.inputs(), victim.test.labels())
            .map_err(|e| e.to_string())?
    };
    println!("digits / softmax victim, clean accuracy {clean:.3}, attack strength {strength}\n");

    let campaign = runner.campaign();
    let outputs = completed(execute(&runner, &campaign, opts)?)?;
    let output_at = |i: usize| &outputs[i];

    let mut records = Vec::new();
    let mut next = 0;

    // ---- Study 1: measurement noise vs probe averaging ----
    let mut rows = Vec::new();
    for (sigma, repeats) in AblationsRunner::noise_conditions() {
        let out = output_at(next);
        next += 1;
        let (r, acc) = (
            out.probe_correlation.unwrap_or(0.0),
            out.attacked_accuracy.unwrap_or(0.0),
        );
        rows.push(vec![
            format!("σ={sigma}"),
            repeats.to_string(),
            fmt(r, 4),
            fmt(acc, 3),
        ]);
        records.push(AblationRecord {
            study: "measurement noise",
            condition: format!("sigma={sigma} repeats={repeats}"),
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
        });
    }
    println!("--- study 1: power-measurement noise vs probe averaging ---");
    println!(
        "{}",
        format_table(
            &["noise σ", "probe repeats", "probe corr r", "attacked acc"],
            &rows
        )
    );

    // ---- Study 1b: compressed probing (fewer than N queries) ----
    {
        let n = victim.net.num_inputs();
        let mut rows = Vec::new();
        for k in runner.compressed_ks() {
            let out = output_at(next);
            next += 1;
            let r = out.probe_correlation.unwrap_or(0.0);
            let hit = out.argmax_found.unwrap_or(false);
            rows.push(vec![
                format!("K={k} ({}%)", 100 * k / n),
                fmt(r, 4),
                if hit { "yes" } else { "no" }.to_string(),
            ]);
            records.push(AblationRecord {
                study: "compressed probing",
                condition: format!("K={k}"),
                probe_correlation: Some(r),
                attacked_accuracy: None,
            });
        }
        println!("--- study 1b: compressed probing (random-input queries, ridge recovery) ---");
        println!(
            "{}",
            format_table(
                &["queries K (of N=784)", "norm corr r", "argmax found"],
                &rows
            )
        );
    }

    // ---- Study 2: device non-idealities ----
    let mut rows = Vec::new();
    for (label, _) in AblationsRunner::device_conditions() {
        let out = output_at(next);
        next += 1;
        let (r, acc) = (
            out.probe_correlation.unwrap_or(0.0),
            out.attacked_accuracy.unwrap_or(0.0),
        );
        rows.push(vec![
            label.clone(),
            fmt(out.deployed_accuracy.unwrap_or(0.0), 3),
            fmt(r, 4),
            fmt(acc, 3),
        ]);
        records.push(AblationRecord {
            study: "device non-idealities",
            condition: label,
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
        });
    }
    println!("--- study 2: device non-idealities (probe still sees deployed weights) ---");
    println!(
        "{}",
        format_table(
            &["device", "deployed acc", "probe corr r", "attacked acc"],
            &rows
        )
    );

    // ---- Study 3: power-obfuscation defenses ----
    let mut rows = Vec::new();
    for (label, _) in runner.defense_conditions() {
        let out = output_at(next);
        next += 1;
        let (r, acc) = (
            out.probe_correlation.unwrap_or(0.0),
            out.attacked_accuracy.unwrap_or(0.0),
        );
        rows.push(vec![label.clone(), fmt(r, 4), fmt(acc, 3)]);
        records.push(AblationRecord {
            study: "power defenses",
            condition: label,
            probe_correlation: Some(r),
            attacked_accuracy: Some(acc),
        });
    }
    println!("--- study 3: power-obfuscation defenses vs the Case-1 attack ---");
    println!(
        "{}",
        format_table(&["defense", "probe corr r", "attacked acc"], &rows)
    );

    // ---- Study 4: tiling preserves the leak ----
    {
        use xbar_crossbar::device::DeviceModel;
        use xbar_crossbar::tile::TiledCrossbar;
        let w = victim.net.weights();
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let mono = xbar_crossbar::array::CrossbarArray::program(w, &DeviceModel::ideal(), &mut rng)
            .map_err(|e| e.to_string())?;
        let tiled = TiledCrossbar::program(w, 8, 128, &DeviceModel::ideal(), &mut rng)
            .map_err(|e| e.to_string())?;
        let u: Vec<f64> = (0..w.cols()).map(|j| (j as f64 * 0.01).fract()).collect();
        let mono_i = mono.total_current(&u).map_err(|e| e.to_string())?;
        let tiled_i = tiled.total_current(&u).map_err(|e| e.to_string())?;
        println!(
            "--- study 4: tiling the {}x{} layer onto 8x128 arrays ---",
            w.rows(),
            w.cols()
        );
        println!(
            "monolithic total current {mono_i:.6}, tiled ({} tiles) {tiled_i:.6}, |Δ| = {:.2e}\n",
            tiled.num_tiles(),
            (mono_i - tiled_i).abs()
        );
        records.push(AblationRecord {
            study: "tiling",
            condition: format!(
                "8x128 tiles, current delta {:.3e}",
                (mono_i - tiled_i).abs()
            ),
            probe_correlation: None,
            attacked_accuracy: None,
        });
    }

    // ---- Study 4b: IR drop (finite wire resistance) vs the probe ----
    {
        use xbar_crossbar::device::DeviceModel;
        use xbar_crossbar::irdrop::IrDropConfig;
        use xbar_stats::correlation::pearson;
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let xbar = xbar_crossbar::array::CrossbarArray::program(
            victim.net.weights(),
            &DeviceModel::ideal(),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let truth = victim.net.weights().col_l1_norms();
        let n = victim.net.num_inputs();
        let mut rows = Vec::new();
        for &r_wire in &[0.0, 0.001, 0.01, 0.05] {
            let cfg = IrDropConfig {
                r_wire,
                tolerance: 1e-8,
                max_iterations: 2000,
                ..IrDropConfig::default()
            };
            // The fault layer's first-order line_resistance scaling and
            // the iterative IR-drop solver model the same wire physics;
            // refuse to stack them on one study without the explicit
            // opt-in (see DESIGN.md).
            if let Some(spec) = opts.faults {
                xbar_faults::check_ir_drop_compose(&spec, &cfg).map_err(|e| e.to_string())?;
            }
            // Probe a deterministic subset of columns (full probing with
            // the iterative solver over 784 columns is slow; 60 columns
            // give a stable correlation estimate).
            let cols: Vec<usize> = (0..60).map(|k| (k * 13) % n).collect();
            let mut probed = Vec::new();
            let mut subset_truth = Vec::new();
            for &j in &cols {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let (_, total) = xbar.ir_drop_mvm(&e, &cfg).map_err(|e| e.to_string())?;
                probed.push(total);
                subset_truth.push(truth[j]);
            }
            let r = pearson(&probed, &subset_truth).unwrap_or(0.0);
            rows.push(vec![format!("r_wire={r_wire}"), fmt(r, 4)]);
            records.push(AblationRecord {
                study: "ir drop",
                condition: format!("r_wire={r_wire}"),
                probe_correlation: Some(r),
                attacked_accuracy: None,
            });
        }
        println!("--- study 4b: IR drop (wire resistance) vs probe fidelity ---");
        println!(
            "{}",
            format_table(&["wire resistance", "probe corr r"], &rows)
        );
    }

    // ---- Study 5: power-matching formulation in the surrogate loss ----
    {
        use xbar_core::blackbox::{run_blackbox_attack, BlackBoxConfig};
        use xbar_core::surrogate::SurrogateConfig;
        let runs = if opts.quick { 3 } else { 6 };
        let linear_victims: Vec<_> = (0..runs)
            .map(|r| {
                train_victim(
                    DatasetKind::Digits,
                    HeadKind::LinearMse,
                    num_samples,
                    600 + r,
                )
            })
            .collect();
        let mut rows = Vec::new();
        for (label, lambda, scale_invariant) in [
            ("no power (λ=0)", 0.0, true),
            ("absolute matching, λ=1", 1.0, false),
            ("scale-invariant matching, λ=1", 1.0, true),
            ("scale-invariant matching, λ=10", 10.0, true),
        ] {
            let mut degs = Vec::with_capacity(linear_victims.len());
            for (r, v) in linear_victims.iter().enumerate() {
                let test = v
                    .test
                    .subset(&(0..v.test.len().min(200)).collect::<Vec<usize>>());
                let mut oracle = Oracle::new(
                    v.net.clone(),
                    &OracleConfig::ideal().with_access(OutputAccess::LabelOnly),
                    700 + r as u64,
                )
                .map_err(|e| e.to_string())?;
                let mut rng = ChaCha8Rng::seed_from_u64(800 + r as u64);
                let mut scfg = SurrogateConfig::default().with_power_weight(lambda);
                scfg.scale_invariant_power = scale_invariant;
                scfg.sgd.epochs = 120;
                let cfg = BlackBoxConfig {
                    num_queries: 300,
                    power_weight: lambda,
                    fgsm_eps: 0.1,
                    surrogate: scfg,
                };
                let (out, _) = run_blackbox_attack(&mut oracle, &v.train, &test, &cfg, &mut rng)
                    .map_err(|e| e.to_string())?;
                degs.push(out.degradation());
            }
            let mean = degs.iter().sum::<f64>() / degs.len() as f64;
            rows.push(vec![label.to_string(), fmt(mean, 3)]);
            records.push(AblationRecord {
                study: "power matching formulation",
                condition: label.to_string(),
                probe_correlation: None,
                attacked_accuracy: Some(mean),
            });
        }
        println!("--- study 5: power-matching formulation (digits, label-only, Q=300) ---");
        println!(
            "{}",
            format_table(&["surrogate power loss", "mean degradation"], &rows)
        );
    }

    println!("Expected shape: probe correlation ~1 for the ideal crossbar, reduced by");
    println!("noise (recovered by averaging) and device faults; static dummies, randomised");
    println!("dummies and injected noise each lower the probe correlation, which is what");
    println!("study 3 measures (at this attack strength the undefended attack costs only");
    println!("a few accuracy points, too few for attacked accuracy to show a defense);");
    println!("tiling changes nothing about the leak.");

    write_json(&opts.json_path("ablations"), &records)
}

// ---------------------------------------------------------------------
// Multi-layer extension
// ---------------------------------------------------------------------

/// Runs the multi-layer grid (paper Sec. V future work): on a crossbar
/// accelerator each dense layer occupies its own array, and the
/// input-dependent part of the first array's supply current is
/// `Σ_j u_j ‖W₁[:,j]‖₁` — the Eq. 5 leak, now about the first-layer
/// weights only. Measures whether those norms still predict a trained
/// MLP's end-to-end input sensitivity (the Table I methodology one
/// layer up).
pub fn run_multilayer(opts: &CampaignOptions) -> Result<(), String> {
    let campaign = multilayer_campaign(opts.quick);
    let results = opts.run_grid(&campaign)?;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                fmt(r.test_accuracy, 3),
                fmt(r.corr_of_mean_first_layer, 3),
                fmt(r.single_layer_reference, 3),
            ]
        })
        .collect();
    println!("=== multi-layer extension: first-layer power leak vs end-to-end sensitivity ===");
    println!(
        "{}",
        format_table(
            &[
                "dataset",
                "mlp test acc",
                "corr(mean |dL/du|, layer-1 norms)",
                "single-layer reference",
            ],
            &rows
        )
    );
    println!("Expected shape: the first-layer leak remains a useful (if weaker) proxy for");
    println!("input sensitivity in a 2-layer network — supporting the paper's conjecture");
    println!("that the attack surface extends to deep models.");
    write_json(&opts.json_path("multilayer"), &results)
}
