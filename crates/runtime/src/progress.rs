//! Observability: progress events, counters, and the stderr reporter.
//!
//! Everything time-related lives here, *not* in the journal: the journal
//! must stay deterministic, while progress reporting is free to talk
//! about wall clocks and throughput.

use std::time::Duration;

use xbar_obs::ScopeMetrics;

/// Counters describing a campaign run so far.
#[derive(Debug, Clone, Default)]
pub struct CampaignMetrics {
    /// Total trials in the grid.
    pub total: usize,
    /// Trials skipped because a resumed journal already had them.
    pub skipped: usize,
    /// Trials completed successfully in this run.
    pub completed: usize,
    /// Trials that returned an error or panicked in this run.
    pub failed: usize,
    /// Oracle queries consumed across all trials finished in this run
    /// (the [`xbar_obs::names::ORACLE_QUERY`] counter, summed).
    pub oracle_queries: u64,
    /// Power-probe measurements taken across all trials finished in this
    /// run (the [`xbar_obs::names::PROBE_MEASUREMENT`] counter, summed).
    pub probe_measurements: u64,
    /// Batched MVM evaluations issued across all trials finished in this
    /// run (the [`xbar_obs::names::XBAR_MVM_BATCH`] counter, summed).
    pub mvm_batches: u64,
    /// Wall-clock time since the executor started.
    pub elapsed: Duration,
}

impl CampaignMetrics {
    /// Trials finished in this run (completed + failed).
    pub fn finished(&self) -> usize {
        self.completed + self.failed
    }

    /// Trials still outstanding.
    pub fn remaining(&self) -> usize {
        self.total
            .saturating_sub(self.skipped)
            .saturating_sub(self.finished())
    }

    /// Completed-or-failed trials per second of elapsed wall time, for
    /// this run only (resumed trials don't count).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.finished() as f64 / secs
        } else {
            0.0
        }
    }

    /// Folds one finished trial's recorded metrics into the cumulative
    /// query/probe/batch totals.
    pub fn absorb_observations(&mut self, metrics: &ScopeMetrics) {
        self.oracle_queries += metrics.counter(xbar_obs::names::ORACLE_QUERY);
        self.probe_measurements += metrics.counter(xbar_obs::names::PROBE_MEASUREMENT);
        self.mvm_batches += metrics.counter(xbar_obs::names::XBAR_MVM_BATCH);
    }
}

/// The outcome of one finished trial, as seen by a progress sink.
#[derive(Debug, Clone)]
pub struct TrialOutcome<'a> {
    /// Trial index within the campaign grid.
    pub trial_index: usize,
    /// Wall-clock time the trial took.
    pub wall: Duration,
    /// The failure message, if the trial failed.
    pub error: Option<&'a str>,
}

/// Receives progress events from the executor.
///
/// Called from the executor's coordinating thread only, in trial
/// *completion* order (not index order).
pub trait ProgressSink {
    /// A trial finished (successfully or not).
    fn on_trial(&mut self, outcome: &TrialOutcome<'_>, metrics: &CampaignMetrics);

    /// The campaign finished.
    fn on_end(&mut self, metrics: &CampaignMetrics);
}

/// A sink that ignores everything.
pub struct NullSink;

impl ProgressSink for NullSink {
    fn on_trial(&mut self, _outcome: &TrialOutcome<'_>, _metrics: &CampaignMetrics) {}

    fn on_end(&mut self, _metrics: &CampaignMetrics) {}
}

/// Prints one progress line per `every` finished trials (and always on
/// failures and at the end) to stderr.
pub struct StderrReporter {
    label: String,
    every: usize,
}

impl StderrReporter {
    /// A reporter labelled `label`, printing every `every` trials
    /// (`every` is clamped to at least 1).
    pub fn new(label: impl Into<String>, every: usize) -> Self {
        StderrReporter {
            label: label.into(),
            every: every.max(1),
        }
    }
}

impl ProgressSink for StderrReporter {
    fn on_trial(&mut self, outcome: &TrialOutcome<'_>, metrics: &CampaignMetrics) {
        // Assemble everything this event prints and emit it with a
        // single eprintln!, so interleaved workers' lines don't tear.
        let mut lines: Vec<String> = Vec::new();
        if let Some(error) = outcome.error {
            lines.push(format!(
                "[{}] trial {} FAILED: {error}",
                self.label, outcome.trial_index
            ));
        }
        let finished = metrics.finished();
        if outcome.error.is_some()
            || finished.is_multiple_of(self.every)
            || metrics.remaining() == 0
        {
            lines.push(format!(
                "[{}] {}/{} done ({} failed, {} resumed), {:.2} trials/s, \
                 last: trial {} in {:.2}s",
                self.label,
                finished,
                metrics.total.saturating_sub(metrics.skipped),
                metrics.failed,
                metrics.skipped,
                metrics.throughput(),
                outcome.trial_index,
                outcome.wall.as_secs_f64(),
            ));
        }
        if !lines.is_empty() {
            eprintln!("{}", lines.join("\n"));
        }
    }

    fn on_end(&mut self, metrics: &CampaignMetrics) {
        eprintln!(
            "[{}] campaign finished: {} completed, {} failed, \
             {} resumed, {} oracle queries, {} probe measurements, \
             {} mvm batches, {:.2}s elapsed ({:.2} trials/s)",
            self.label,
            metrics.completed,
            metrics.failed,
            metrics.skipped,
            metrics.oracle_queries,
            metrics.probe_measurements,
            metrics.mvm_batches,
            metrics.elapsed.as_secs_f64(),
            metrics.throughput(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_arithmetic() {
        let metrics = CampaignMetrics {
            total: 10,
            skipped: 2,
            completed: 3,
            failed: 1,
            elapsed: Duration::from_secs(2),
            ..CampaignMetrics::default()
        };
        assert_eq!(metrics.finished(), 4);
        assert_eq!(metrics.remaining(), 4);
        assert!((metrics.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_throughput_is_zero() {
        let metrics = CampaignMetrics::default();
        assert_eq!(metrics.throughput(), 0.0);
    }

    #[test]
    fn remaining_survives_inconsistent_counts() {
        // A journal with more resumed trials than the grid has slots
        // must not underflow.
        let metrics = CampaignMetrics {
            total: 3,
            skipped: 5,
            ..CampaignMetrics::default()
        };
        assert_eq!(metrics.remaining(), 0);
    }

    #[test]
    fn absorb_observations_sums_query_and_probe_counters() {
        let shard = xbar_obs::MetricsShard::new();
        shard.counter_add("c", xbar_obs::names::ORACLE_QUERY, 25);
        shard.counter_add("c", xbar_obs::names::PROBE_MEASUREMENT, 4);
        shard.counter_add("c", xbar_obs::names::XBAR_MVM_BATCH, 3);
        shard.counter_add("c", xbar_obs::names::ATTACK_PGD_STEP, 7);
        let obs = shard.take_scope("c");

        let mut metrics = CampaignMetrics::default();
        metrics.absorb_observations(&obs);
        metrics.absorb_observations(&obs);
        assert_eq!(metrics.oracle_queries, 50);
        assert_eq!(metrics.probe_measurements, 8);
        assert_eq!(metrics.mvm_batches, 6);
    }
}
