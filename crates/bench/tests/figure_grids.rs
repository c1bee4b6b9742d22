//! Acceptance tests for the Table I and multi-pixel grids on the
//! campaign runtime: a tiny version of each (1) produces identical
//! outputs and identical sorted journals at 1 and 4 threads, and
//! (2) resumes from a truncated journal without re-running or
//! duplicating completed trials.

use std::fmt::Debug;
use std::fs;
use std::path::{Path, PathBuf};

use xbar_bench::campaign::{MultipixelRunner, MultipixelSpec, Table1Runner, Table1Spec};
use xbar_bench::{DatasetKind, HeadKind};
use xbar_runtime::journal::read_journal;
use xbar_runtime::{run_campaign, Campaign, ExecutorConfig, NullSink, TrialRunner, TrialStatus};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "xbar-figure-grids-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// Two runs of both digits configurations, on a small victim.
fn tiny_table1() -> Campaign<Table1Spec> {
    let mut campaign = Campaign::new("table1-tiny", 100);
    for head in [HeadKind::LinearMse, HeadKind::SoftmaxCe] {
        for run in 0..2 {
            campaign.push_trial(Table1Spec {
                dataset: DatasetKind::Digits,
                head,
                run,
                num_samples: 160,
            });
        }
    }
    campaign
}

/// Both datasets, three pixel counts, small victims.
fn tiny_multipixel() -> Campaign<MultipixelSpec> {
    let mut campaign = Campaign::new("multipixel-tiny", 11);
    for dataset in [DatasetKind::Digits, DatasetKind::Objects] {
        campaign.push_trial(MultipixelSpec {
            dataset,
            num_samples: 120,
            pixel_counts: vec![1, 2, 4],
            strength: 2.0,
            reps: 2,
        });
    }
    campaign
}

/// The journal's header line plus its record lines sorted — completion
/// order is the only difference a correct executor may produce.
fn sorted_journal(path: &Path) -> (String, Vec<String>) {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines().map(str::to_string);
    let header = lines.next().expect("journal has a header");
    let mut records: Vec<String> = lines.collect();
    records.sort();
    (header, records)
}

/// Runs `campaign` at 1 and 4 threads and checks outputs and sorted
/// journals agree; then truncates the 4-thread journal by its last
/// record and checks a resume re-runs exactly that trial and
/// reproduces every output.
fn check_grid<R>(runner: &R, campaign: &Campaign<R::Spec>, tag: &str)
where
    R: TrialRunner,
    R::Output: PartialEq + Debug,
{
    let run = |threads: usize, journal: &Path, resume: bool| {
        let config = ExecutorConfig::with_threads(threads);
        let report = run_campaign(
            runner,
            campaign,
            &config,
            Some(journal),
            resume,
            &mut NullSink,
        )
        .unwrap();
        assert!(report.all_ok(), "{tag}: {:?}", report.failures);
        report
    };
    let (j1, j4) = (tmp(&format!("{tag}-t1")), tmp(&format!("{tag}-t4")));
    let one = run(1, &j1, false);
    assert_eq!(
        one.outputs,
        run(4, &j4, false).outputs,
        "{tag}: outputs vary"
    );
    assert_eq!(
        sorted_journal(&j1),
        sorted_journal(&j4),
        "{tag}: journals vary"
    );

    // Simulate a kill: drop the final record line from the journal.
    let text = fs::read_to_string(&j4).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    fs::write(&j4, format!("{}\n", lines.join("\n"))).unwrap();

    let resumed = run(4, &j4, true);
    assert_eq!(resumed.metrics.skipped, campaign.len() - 1, "{tag}");
    assert_eq!(resumed.metrics.completed, 1, "{tag}");
    assert_eq!(
        resumed.outputs, one.outputs,
        "{tag}: resume changed outputs"
    );
    // No duplicates: exactly one Ok record per trial.
    let (_, records) = read_journal(&j4).unwrap();
    let mut per_trial = vec![0usize; campaign.len()];
    for record in &records {
        assert_eq!(record.status, TrialStatus::Ok);
        per_trial[record.trial] += 1;
    }
    assert!(per_trial.iter().all(|&n| n == 1), "{tag}: {per_trial:?}");
    for journal in [j1, j4] {
        fs::remove_file(journal).ok();
    }
}

#[test]
fn table1_grid_is_thread_invariant_and_resumable() {
    check_grid(&Table1Runner::default(), &tiny_table1(), "table1");
}

#[test]
fn multipixel_grid_is_thread_invariant_and_resumable() {
    check_grid(
        &MultipixelRunner::default(),
        &tiny_multipixel(),
        "multipixel",
    );
}
