//! `xbar-perf`: the repository's end-to-end benchmark.
//!
//! Four closed-loop attacker workloads drive the workspace's public
//! APIs and report end-to-end metrics; `--trace` adds a per-layer
//! breakdown timed from outside each layer's public calls. See
//! `README.md` next to this package for what each workload stresses
//! and how to read the tables.
//!
//! ```text
//! xbar-perf run [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
//!               [--out FILE] [--scale full|smoke]
//! xbar-perf compare A.json B.json
//! ```
//!
//! A run without `--workload` runs all four, each in its own child
//! process so `peak_rss_mib` is per workload. The last line of standard
//! output is always one JSON result object. `compare` takes its
//! bounds from `BENCHMARK.json` in the working directory.

mod aging;
mod campaign;
mod compare;
mod report;
mod serve;
mod stats;
mod victims;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::workload::{RunConfig, Scale, WorkDir, WORKLOADS};

/// Seconds of untraced rounds unless `--seconds` says
/// otherwise (the benchmark definition's `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Scratch space, relative to the working directory.
const WORK_BASE: &str = ".xbar-perf-work";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    scale: Scale,
}

fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        scale: Scale::Full,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !WORKLOADS.contains(&w) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                run.workload = Some(w.to_string());
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                run.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                run.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            // `--trace`, `--trace 1` and `--trace 0` all parse.
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => run.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--scale" => {
                run.scale = match value(&mut it, flag)? {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("bad --scale {other:?} (full or smoke)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(run)
}

/// Runs one workload in this process.
fn run_workload(name: &str, cfg: &RunConfig) -> Result<workload::Outcome, String> {
    match name {
        "campaign" => campaign::run(cfg),
        "aging-scan" => aging::run(cfg),
        "serve-solo" => serve::run(cfg, serve::Mode::Solo),
        "serve-bulk" => serve::run(cfg, serve::Mode::Bulk),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn write_report(path: &Path, report: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

fn header(run: &RunArgs) {
    let (threads, model) = report::host();
    println!(
        "xbar-perf: seed {}, {} s of rounds, scale {}{}",
        run.seed,
        run.seconds,
        run.scale.label(),
        if run.trace { ", traced" } else { "" }
    );
    println!("host: available_parallelism {threads}, cpu {model}");
}

/// One workload, here. Exit code 1 when any check failed.
fn run_one(run: &RunArgs, name: &str) -> Result<ExitCode, String> {
    let work = WorkDir::create(Path::new(WORK_BASE), name)?;
    let cfg = RunConfig {
        seed: run.seed,
        seconds: run.seconds,
        trace: run.trace,
        scale: run.scale,
        work_dir: work.path().to_path_buf(),
    };
    let outcome = run_workload(name, &cfg)?;
    drop(work);
    header(run);
    println!("{}", report::render(&outcome));
    let entry = report::outcome_json(&outcome);
    if let Some(out) = &run.out {
        let report = report::report_json(
            run.seed,
            run.seconds,
            run.trace,
            run.scale.label(),
            vec![entry.clone()],
        );
        write_report(out, &report)?;
    }
    println!("{}", report::result_line(&[entry], run.trace));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in a child process of this executable.
fn run_all(run: &RunArgs) -> Result<ExitCode, String> {
    let work = WorkDir::create(Path::new(WORK_BASE), "all")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let out = work.path().join(format!("{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .args(["--scale", run.scale.label()])
            .arg("--out")
            .arg(&out);
        let status = cmd
            .status()
            .map_err(|e| format!("starting the {name} child: {e}"))?;
        ok &= status.success();
        let report = std::fs::read_to_string(&out)
            .map_err(|e| format!("{name} wrote no report ({status}): {e}"))
            .and_then(|text| serde_json::parse_value(&text).map_err(|e| e.to_string()))?;
        entries.extend(
            report
                .get("workloads")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    drop(work);
    if let Some(out) = &run.out {
        let report = report::report_json(
            run.seed,
            run.seconds,
            run.trace,
            run.scale.label(),
            entries.clone(),
        );
        write_report(out, &report)?;
    }
    println!("{}", report::result_line(&entries, run.trace));
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cli(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run(&args[1..])?;
            match &run.workload {
                Some(name) => run_one(&run, name),
                None => run_all(&run),
            }
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("usage: compare A.json B.json".into());
            };
            Ok(if compare::compare(a, b, "BENCHMARK.json")? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(
            "usage: xbar-perf run [--workload W] [--seed S] [--seconds T] \
                  [--trace [0|1]] [--out FILE] [--scale full|smoke] | \
                  xbar-perf compare A.json B.json"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("xbar-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_arguments_parse_in_both_trace_spellings() {
        let run = parse_run(&args("--workload campaign --seed 7 --seconds 2 --trace 0")).unwrap();
        assert_eq!(run.workload.as_deref(), Some("campaign"));
        assert_eq!((run.seed, run.seconds, run.trace), (7, 2.0, false));
        assert!(parse_run(&args("--trace 1")).unwrap().trace);
        assert!(parse_run(&args("--trace --seed 3")).unwrap().trace);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds -1")).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }

    /// Every workload end to end at smoke scale, traced: all checks
    /// pass, every declared metric is reported, and each traced table
    /// adds up to its operation's time.
    #[test]
    fn smoke_runs_of_every_workload_pass_their_checks() {
        for name in WORKLOADS {
            let work = WorkDir::create(Path::new(WORK_BASE), &format!("smoke-{name}")).unwrap();
            let cfg = RunConfig {
                seed: 5,
                seconds: 0.0,
                trace: true,
                scale: Scale::Smoke,
                work_dir: work.path().to_path_buf(),
            };
            let outcome = run_workload(name, &cfg).unwrap();
            assert!(outcome.attempted > 0, "{name}: nothing checked");
            assert_eq!(outcome.failed, 0, "{name}: checks failed");
            let entry = report::outcome_json(&outcome);
            for trace in [false, true] {
                let line = report::result_line(std::slice::from_ref(&entry), trace);
                let parsed = serde_json::parse_value(&line).unwrap();
                let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
                let expected: &[&str] = if trace {
                    &report::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, expected, "{name}");
            }
            let t = outcome.trace.as_ref().unwrap();
            let total: f64 = t.rows.iter().filter_map(|r| r.share).sum();
            assert!((total - t.unit_time).abs() <= 1e-9 * t.unit_time, "{name}");
            assert!(t.unit_time > 0.0 && t.ns_per_query > 0.0, "{name}");
        }
    }
}
