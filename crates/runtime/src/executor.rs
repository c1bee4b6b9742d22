//! The worker-pool executor: runs each of a campaign's trials once, in
//! parallel, with journaling and resume.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use xbar_obs::{MetricsShard, ScopeMetrics, TraceWriter};

use crate::campaign::Campaign;
use crate::journal::{
    read_journal, JournalHeader, JournalWriter, TrialRecord, TrialStatus, JOURNAL_FORMAT_VERSION,
    JOURNAL_KIND,
};
use crate::progress::{CampaignMetrics, ProgressSink, TrialOutcome};
use crate::runner::{TrialContext, TrialRunner};

/// Errors from the campaign executor and its journal.
#[derive(Debug)]
pub enum RuntimeError {
    /// Filesystem failure while reading or writing the journal.
    Io(std::io::Error),
    /// JSON (de)serialisation failure.
    Serde(serde_json::Error),
    /// A semantic journal problem: corruption, or a resume against the
    /// wrong campaign.
    Journal(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "io error: {e}"),
            RuntimeError::Serde(e) => write!(f, "serialisation error: {e}"),
            RuntimeError::Journal(msg) => write!(f, "journal error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

impl From<serde_json::Error> for RuntimeError {
    fn from(e: serde_json::Error) -> Self {
        RuntimeError::Serde(e)
    }
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads. Clamped to at least 1; results do not depend on
    /// this in any way (see the crate docs on determinism).
    pub threads: usize,
}

impl ExecutorConfig {
    /// A config with `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExecutorConfig {
            threads: threads.max(1),
        }
    }
}

impl Default for ExecutorConfig {
    /// One worker per available core.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecutorConfig { threads }
    }
}

/// A trial that returned an error or panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Trial index within the campaign grid.
    pub trial_index: usize,
    /// The failure message.
    pub error: String,
}

/// The result of running (or resuming) a campaign.
#[derive(Debug)]
pub struct CampaignReport<O> {
    /// Per-trial outputs, indexed by trial index. `None` exactly for the
    /// trials listed in `failures`.
    pub outputs: Vec<Option<O>>,
    /// Failed trials, sorted by trial index.
    pub failures: Vec<TrialFailure>,
    /// Final counters (includes resumed trials as `skipped`).
    pub metrics: CampaignMetrics,
}

impl<O> CampaignReport<O> {
    /// Whether every trial produced an output.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What a worker sends back for each finished trial.
struct Finished<O> {
    trial_index: usize,
    wall: Duration,
    result: Result<O, String>,
    /// What the trial recorded through `xbar-obs`, in a shard of its own.
    observed: ScopeMetrics,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("trial panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("trial panicked: {s}")
    } else {
        "trial panicked".to_string()
    }
}

fn expected_header<S: serde::Serialize>(campaign: &Campaign<S>) -> JournalHeader {
    JournalHeader {
        kind: JOURNAL_KIND.to_string(),
        format_version: JOURNAL_FORMAT_VERSION,
        name: campaign.name.clone(),
        campaign_seed: campaign.seed,
        fingerprint: campaign.fingerprint(),
        total_trials: campaign.len(),
    }
}

/// Loads completed trials from an existing journal, after verifying the
/// header matches this campaign.
fn load_resume_state<S: serde::Serialize>(
    path: &Path,
    campaign: &Campaign<S>,
) -> Result<HashMap<usize, Value>, RuntimeError> {
    let (header, records) = read_journal(path)?;
    let expected = expected_header(campaign);
    if header != expected {
        return Err(RuntimeError::Journal(format!(
            "journal {} belongs to a different campaign: header {:?} vs expected {:?} \
             (delete the journal to start over)",
            path.display(),
            header,
            expected
        )));
    }
    let mut completed = HashMap::new();
    for record in records {
        if record.trial >= campaign.len() {
            return Err(RuntimeError::Journal(format!(
                "journal {}: trial index {} out of range ({} trials)",
                path.display(),
                record.trial,
                campaign.len()
            )));
        }
        if record.status == TrialStatus::Ok {
            if let Some(output) = record.output {
                // Last record wins if a trial somehow appears twice.
                completed.insert(record.trial, output);
            }
        }
    }
    Ok(completed)
}

/// Runs `campaign` on a worker pool and returns the full report.
///
/// * `journal_path`: if set, every finished trial is checkpointed there
///   as JSON Lines (see [`crate::journal`]).
/// * `resume`: if set (requires `journal_path`), trials already recorded
///   as completed in the journal are skipped and their outputs are
///   loaded back instead of re-run; new records are appended.
///
/// Outputs are bit-identical for any `config.threads` because each trial
/// draws randomness only from its own `(campaign_seed, trial_index)`
/// stream.
pub fn run_campaign<R: TrialRunner>(
    runner: &R,
    campaign: &Campaign<R::Spec>,
    config: &ExecutorConfig,
    journal_path: Option<&Path>,
    resume: bool,
    sink: &mut dyn ProgressSink,
) -> Result<CampaignReport<R::Output>, RuntimeError> {
    run_campaign_traced(runner, campaign, config, journal_path, resume, sink, None)
}

/// [`run_campaign`] with an optional JSONL trace.
///
/// Every trial executes under an `xbar-obs` scope of its own
/// (a fresh shard, keyed by the campaign name), so oracle queries,
/// power probes, crossbar evaluations, and attack-stage spans recorded
/// by the lower layers are attributed to the trial that performed them.
/// If `trace_path` is set, the campaign writes an `xbar-obs` trace
/// there: a header line, one record per executed trial (in completion
/// order), and an aggregate end record. Counter content in the trace is
/// deterministic — bit-identical across `config.threads` — while the
/// `*_nanos` fields carry wall-clock timing (see the `xbar-obs` crate
/// docs for the contract).
pub fn run_campaign_traced<R: TrialRunner>(
    runner: &R,
    campaign: &Campaign<R::Spec>,
    config: &ExecutorConfig,
    journal_path: Option<&Path>,
    resume: bool,
    sink: &mut dyn ProgressSink,
    trace_path: Option<&Path>,
) -> Result<CampaignReport<R::Output>, RuntimeError> {
    let total = campaign.len();
    let start = Instant::now();

    let mut trace = match trace_path {
        Some(path) => {
            let mut writer = TraceWriter::create(path)?;
            writer.campaign_header(&campaign.name, campaign.seed, total)?;
            Some(writer)
        }
        None => None,
    };
    let mut trace_totals = ScopeMetrics::default();

    // Resume: harvest completed trials from the existing journal.
    let resumed: HashMap<usize, Value> = match (journal_path, resume) {
        (Some(path), true) if path.exists() => load_resume_state(path, campaign)?,
        (Some(_), _) => HashMap::new(),
        (None, true) => {
            return Err(RuntimeError::Journal(
                "resume requested but no journal path given".to_string(),
            ))
        }
        (None, false) => HashMap::new(),
    };

    let mut writer = match journal_path {
        Some(path) if resume && path.exists() => Some(JournalWriter::append(path)?),
        Some(path) => Some(JournalWriter::create(path, &expected_header(campaign))?),
        None => None,
    };

    let mut outputs: Vec<Option<R::Output>> = Vec::with_capacity(total);
    outputs.resize_with(total, || None);
    let mut metrics = CampaignMetrics {
        total,
        skipped: resumed.len(),
        ..CampaignMetrics::default()
    };
    for (trial_index, value) in resumed.iter() {
        let output = serde_json::from_value::<R::Output>(value.clone()).map_err(|e| {
            RuntimeError::Journal(format!(
                "journal output for trial {trial_index} no longer deserialises \
                 (output schema changed?): {e}"
            ))
        })?;
        outputs[*trial_index] = Some(output);
    }

    let pending: Vec<usize> = (0..total).filter(|i| !resumed.contains_key(i)).collect();
    let mut failures: Vec<TrialFailure> = Vec::new();

    if !pending.is_empty() {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Finished<R::Output>>();
        let worker_count = config.threads.max(1).min(pending.len());

        // Shared by reference into the move closures below.
        let cursor = &cursor;
        let pending_ref = &pending;

        std::thread::scope(|scope| -> Result<(), RuntimeError> {
            for _ in 0..worker_count {
                let tx = tx.clone();
                scope.spawn(move || {
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= pending_ref.len() {
                            break;
                        }
                        let trial_index = pending_ref[k];
                        let ctx = TrialContext {
                            trial_index,
                            campaign_seed: campaign.seed,
                            attempt: 1,
                        };
                        let trial_start = Instant::now();
                        let shard = Arc::new(MetricsShard::new());
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            xbar_obs::with_scope(&shard, &campaign.name, || {
                                let _span = xbar_obs::span(xbar_obs::names::SPAN_TRIAL);
                                runner.run(&campaign.trials[trial_index], &ctx)
                            })
                        }));
                        let finished = Finished {
                            trial_index,
                            wall: trial_start.elapsed(),
                            result: outcome.unwrap_or_else(|payload| Err(panic_message(payload))),
                            observed: shard.take_scope(&campaign.name),
                        };
                        // The receiver hangs up only on a journal write
                        // error; stop producing in that case.
                        if tx.send(finished).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            for Finished {
                trial_index,
                wall,
                result,
                observed,
            } in rx
            {
                metrics.elapsed = start.elapsed();
                let ok = result.is_ok();
                let (output, error) = match result {
                    Ok(output) => (Some(output), None),
                    Err(message) => (None, Some(message)),
                };
                if let Some(writer) = writer.as_mut() {
                    writer.record(&TrialRecord {
                        trial: trial_index,
                        status: if ok {
                            TrialStatus::Ok
                        } else {
                            TrialStatus::Failed
                        },
                        output: output.as_ref().map(serde_json::to_value).transpose()?,
                        error: error.clone(),
                    })?;
                }
                if let Some(trace) = trace.as_mut() {
                    trace.trial(trial_index, ok, wall, &observed)?;
                }
                metrics.absorb_observations(&observed);
                trace_totals.merge(&observed);
                if ok {
                    metrics.completed += 1;
                } else {
                    metrics.failed += 1;
                }
                sink.on_trial(
                    &TrialOutcome {
                        trial_index,
                        wall,
                        error: error.as_deref(),
                    },
                    &metrics,
                );
                outputs[trial_index] = output;
                if let Some(error) = error {
                    failures.push(TrialFailure { trial_index, error });
                }
            }
            Ok(())
        })?;
    }

    metrics.elapsed = start.elapsed();
    if let Some(trace) = trace.as_mut() {
        trace.end(
            metrics.completed,
            metrics.failed,
            metrics.skipped,
            metrics.elapsed,
            &trace_totals,
        )?;
    }
    sink.on_end(&metrics);
    failures.sort_by_key(|f| f.trial_index);
    Ok(CampaignReport {
        outputs,
        failures,
        metrics,
    })
}

/// A unique temp-file path for tests.
#[cfg(test)]
pub(crate) fn test_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "xbar_runtime_{}_{tag}_{n}.jsonl",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullSink;
    use rand::RngCore;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::AtomicU32;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct DrawSpec {
        label: String,
        draws: usize,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct DrawOutput {
        label: String,
        values: Vec<u64>,
    }

    /// Draws `spec.draws` values from the trial RNG.
    struct DrawRunner;

    impl TrialRunner for DrawRunner {
        type Spec = DrawSpec;
        type Output = DrawOutput;

        fn run(&self, spec: &DrawSpec, ctx: &TrialContext) -> Result<DrawOutput, String> {
            let mut rng = ctx.rng();
            Ok(DrawOutput {
                label: spec.label.clone(),
                values: (0..spec.draws).map(|_| rng.next_u64()).collect(),
            })
        }
    }

    fn draw_campaign(n: usize) -> Campaign<DrawSpec> {
        let mut campaign = Campaign::new("draws", 1234);
        for i in 0..n {
            campaign.push_trial(DrawSpec {
                label: format!("trial-{i}"),
                draws: 3 + i % 4,
            });
        }
        campaign
    }

    #[test]
    fn outputs_identical_across_thread_counts() {
        let campaign = draw_campaign(17);
        let serial = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            None,
            false,
            &mut NullSink,
        )
        .unwrap();
        let parallel = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(4),
            None,
            false,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(serial.outputs, parallel.outputs);
        assert!(serial.all_ok() && parallel.all_ok());
        assert_eq!(parallel.metrics.completed, 17);
    }

    #[test]
    fn journals_identical_across_thread_counts_after_sorting() {
        let campaign = draw_campaign(11);
        let sorted_journal = |threads: usize| {
            let path = test_path("threads");
            run_campaign(
                &DrawRunner,
                &campaign,
                &ExecutorConfig::with_threads(threads),
                Some(&path),
                false,
                &mut NullSink,
            )
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let mut lines: Vec<&str> = text.lines().collect();
            // Keep the header first, sort records by their JSON text —
            // record lines start with {"trial":N, so textual order is
            // index order for equal-format lines.
            let header = lines.remove(0).to_string();
            lines.sort_unstable();
            format!("{header}\n{}", lines.join("\n"))
        };
        assert_eq!(sorted_journal(1), sorted_journal(4));
    }

    /// Fails (by error or panic) every trial whose index is odd.
    struct OddFailRunner;

    impl TrialRunner for OddFailRunner {
        type Spec = DrawSpec;
        type Output = DrawOutput;

        fn run(&self, spec: &DrawSpec, ctx: &TrialContext) -> Result<DrawOutput, String> {
            match ctx.trial_index % 4 {
                1 => Err(format!("odd trial {}", ctx.trial_index)),
                3 => panic!("odd trial {} panicked", ctx.trial_index),
                _ => DrawRunner.run(spec, ctx),
            }
        }
    }

    /// Counts the calls per trial, then runs [`OddFailRunner`].
    struct CallCountingRunner {
        calls: Vec<AtomicU32>,
    }

    impl TrialRunner for CallCountingRunner {
        type Spec = DrawSpec;
        type Output = DrawOutput;

        fn run(&self, spec: &DrawSpec, ctx: &TrialContext) -> Result<DrawOutput, String> {
            self.calls[ctx.trial_index].fetch_add(1, Ordering::Relaxed);
            OddFailRunner.run(spec, ctx)
        }
    }

    #[test]
    fn failures_are_isolated_and_journaled() {
        let campaign = draw_campaign(8);
        let path = test_path("failures");
        let runner = CallCountingRunner {
            calls: (0..campaign.len()).map(|_| AtomicU32::new(0)).collect(),
        };
        let report = run_campaign(
            &runner,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(report.metrics.completed, 4);
        assert_eq!(report.metrics.failed, 4);
        assert_eq!(
            report
                .failures
                .iter()
                .map(|f| f.trial_index)
                .collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
        // Every trial ran exactly once: the `Err` and panicking ones too.
        let calls: Vec<u32> = runner
            .calls
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        assert_eq!(calls, vec![1; 8]);
        // Panic text is captured.
        assert!(
            report.failures[1].error.contains("panicked"),
            "{:?}",
            report.failures[1]
        );

        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records.len(), 8);
        assert_eq!(
            records
                .iter()
                .filter(|r| r.status == TrialStatus::Failed)
                .count(),
            4
        );
        std::fs::remove_file(&path).ok();
    }

    /// Counts how many trials actually execute.
    struct CountingRunner {
        runs: AtomicU32,
    }

    impl TrialRunner for CountingRunner {
        type Spec = DrawSpec;
        type Output = DrawOutput;

        fn run(&self, spec: &DrawSpec, ctx: &TrialContext) -> Result<DrawOutput, String> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            DrawRunner.run(spec, ctx)
        }
    }

    #[test]
    fn resume_skips_completed_trials_without_duplicates() {
        let campaign = draw_campaign(10);
        let path = test_path("resume");

        // First run: odd trials fail (some via panic).
        run_campaign(
            &OddFailRunner,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();

        // Resume with a healthy runner: only the 5 unfinished trials run.
        let counting = CountingRunner {
            runs: AtomicU32::new(0),
        };
        let report = run_campaign(
            &counting,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            true,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(counting.runs.load(Ordering::Relaxed), 5);
        assert_eq!(report.metrics.skipped, 5);
        assert_eq!(report.metrics.completed, 5);
        assert!(report.all_ok());

        // Full outputs match a clean serial run.
        let clean = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            None,
            false,
            &mut NullSink,
        )
        .unwrap();
        assert_eq!(report.outputs, clean.outputs);

        // Exactly one Ok record per trial in the final journal.
        let (_, records) = read_journal(&path).unwrap();
        let mut ok_per_trial = HashMap::new();
        for r in records.iter().filter(|r| r.status == TrialStatus::Ok) {
            *ok_per_trial.entry(r.trial).or_insert(0u32) += 1;
        }
        assert_eq!(ok_per_trial.len(), 10);
        assert!(ok_per_trial.values().all(|&c| c == 1), "{ok_per_trial:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_reads_records_with_retired_fields() {
        let campaign = draw_campaign(4);
        let path = test_path("retired-fields");
        let clean = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();
        // Rewrite the journal as the retrying runner did: every record
        // carries `attempts` and `failure_class`; trials 1 and 3 failed.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let mut rewritten = format!("{}\n", lines.next().unwrap());
        for line in lines {
            let record: TrialRecord = serde_json::from_str(line).unwrap();
            let old = if record.trial.is_multiple_of(2) {
                format!(
                    r#"{{"trial":{},"status":"Ok","attempts":2,"output":{},"error":null,"failure_class":null}}"#,
                    record.trial,
                    serde_json::to_string(record.output.as_ref().unwrap()).unwrap()
                )
            } else {
                format!(
                    r#"{{"trial":{},"status":"Failed","attempts":1,"output":null,"error":"permanent: boom","failure_class":"Permanent"}}"#,
                    record.trial
                )
            };
            rewritten.push_str(&old);
            rewritten.push('\n');
        }
        std::fs::write(&path, rewritten).unwrap();

        let counting = CountingRunner {
            runs: AtomicU32::new(0),
        };
        let report = run_campaign(
            &counting,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            true,
            &mut NullSink,
        )
        .unwrap();
        // The two `Ok` trials are skipped; the two failed ones re-run.
        assert_eq!(counting.runs.load(Ordering::Relaxed), 2);
        assert_eq!(report.metrics.skipped, 2);
        assert_eq!(report.metrics.completed, 2);
        assert_eq!(report.outputs, clean.outputs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_survives_a_truncated_tail() {
        let campaign = draw_campaign(5);
        let path = test_path("kill");
        run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();
        // Chop the last record in half, as a kill mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 25;
        std::fs::write(&path, &text[..cut]).unwrap();

        let report = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(2),
            Some(&path),
            true,
            &mut NullSink,
        )
        .unwrap();
        assert!(report.all_ok());
        assert_eq!(report.metrics.skipped, 4);
        assert_eq!(report.metrics.completed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_different_campaign() {
        let campaign = draw_campaign(4);
        let path = test_path("mismatch");
        run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            Some(&path),
            false,
            &mut NullSink,
        )
        .unwrap();

        let other = draw_campaign(5);
        let err = run_campaign(
            &DrawRunner,
            &other,
            &ExecutorConfig::with_threads(1),
            Some(&path),
            true,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(err.to_string().contains("different campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_without_journal_path_is_an_error() {
        let campaign = draw_campaign(1);
        let err = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::with_threads(1),
            None,
            true,
            &mut NullSink,
        )
        .unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
    }

    #[test]
    fn empty_campaign_completes() {
        let campaign: Campaign<DrawSpec> = Campaign::new("empty", 0);
        let report = run_campaign(
            &DrawRunner,
            &campaign,
            &ExecutorConfig::default(),
            None,
            false,
            &mut NullSink,
        )
        .unwrap();
        assert!(report.outputs.is_empty());
        assert!(report.all_ok());
    }
}
