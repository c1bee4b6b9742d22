//! Metrics derived from an outcome, the printed tables, and the JSON
//! forms: the `--out` report and the one-line result.

use serde::Value;

use crate::stats::{median, percentile, Summary};
use crate::workload::{Outcome, Round, SetupTimes};

/// The end-to-end metrics every workload reports on its result line
/// (`BENCHMARK.json`'s `end_to_end`).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "queries_per_s",
    "latency_p50_us",
    "latency_p90_us",
    "peak_rss_mib",
];

/// The per-layer metrics every workload reports on a traced result
/// line (`BENCHMARK.json`'s `per_layer`).
pub const PER_LAYER: [&str; 7] = [
    "setup.train_s",
    "setup.deploy_s",
    "setup.warmup_s",
    "trace.unit_ms",
    "trace.residual_frac",
    "trace.overhead_frac",
    "core.ns_per_query",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the samples behind it (rounds, set-ups, or one value).
    pub summary: Summary,
}

impl Metric {
    /// A metric reported as the median of its samples.
    fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(samples);
        Metric {
            name,
            unit,
            value: summary.median,
            summary,
        }
    }
}

fn rates(rounds: &[Round], count: fn(&Round) -> u64) -> Vec<f64> {
    rounds.iter().map(|r| count(r) as f64 / r.wall_s).collect()
}

/// The end-to-end metrics of the untraced rounds, each the median over
/// rounds: of a rate, or of a latency percentile taken exactly over the
/// round's operations. A host stall that hits a minority of the rounds
/// therefore leaves the latencies alone. The tail reported is the p90,
/// not the p99: on a shared 2-core host whose hypervisor took about 1%
/// of the CPU, the p99 of `serve-solo` rounds ranged from 2.7 to 9.2 ms
/// while their p90 stayed within 2.6 to 3.0 ms.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let setup: Vec<f64> = o.setups.iter().map(SetupTimes::total).collect();
    let mut out = vec![Metric::median("setup_s", "s", &setup)];
    if o.workload == "campaign" {
        out.push(Metric::median(
            "trials_per_s",
            "1/s",
            &rates(&o.rounds, |r| r.units),
        ));
    }
    out.push(Metric::median(
        "queries_per_s",
        "1/s",
        &rates(&o.rounds, |r| r.queries),
    ));
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p90_us", 0.9)] {
        let per_round: Vec<f64> = o
            .rounds
            .iter()
            .map(|r| percentile(&r.latencies_us, p))
            .collect();
        out.push(Metric::median(name, "us", &per_round));
    }
    out.push(Metric::median("peak_rss_mib", "MiB", &[o.peak_rss_mib]));
    out.push(Metric::median(
        "fail_frac",
        "fraction",
        &[o.failed as f64 / o.attempted.max(1) as f64],
    ));
    out
}

/// Wall time per operation of each round.
fn per_unit(rounds: &[Round]) -> Vec<f64> {
    rounds.iter().map(|r| r.wall_s / r.units as f64).collect()
}

/// The per-layer metrics of a traced run: the generic set every
/// workload shares, then the workload's own layer rows.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let Some(t) = &o.trace else {
        return Vec::new();
    };
    let stage = |f: fn(&SetupTimes) -> f64| o.setups.iter().map(f).collect::<Vec<_>>();
    let to_ms = if t.time_unit == "us" { 1e-3 } else { 1.0 };
    let overhead = median(&per_unit(&t.rounds)) / median(&per_unit(&o.rounds)) - 1.0;
    let mut out = vec![
        Metric::median("setup.train_s", "s", &stage(|s| s.train_s)),
        Metric::median("setup.deploy_s", "s", &stage(|s| s.deploy_s)),
        Metric::median("setup.warmup_s", "s", &stage(|s| s.warmup_s)),
        Metric::median("trace.unit_ms", "ms", &[t.unit_time * to_ms]),
        Metric::median("trace.residual_frac", "fraction", &[t.residual_frac()]),
        Metric::median("trace.overhead_frac", "fraction", &[overhead]),
        Metric::median("core.ns_per_query", "ns", &[t.ns_per_query]),
    ];
    out.extend(
        t.rows
            .iter()
            .map(|r| Metric::median(r.name, r.unit, &[r.value])),
    );
    out
}

/// `available_parallelism` and the CPU model from `/proc/cpuinfo`.
pub fn host() -> (usize, String) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (threads, model)
}

/// Left-aligns the first column and right-aligns the rest.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        cells
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(i, (c, &w))| {
                if i == 0 {
                    format!("{c:<w$}")
                } else {
                    format!("{c:>w$}")
                }
            })
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let mut out = vec![line(header.to_vec())];
    out.extend(
        rows.iter()
            .map(|r| line(r.iter().map(String::as_str).collect())),
    );
    out.join("\n")
}

/// Four significant digits, plain notation where it reads well.
pub fn num(x: f64) -> String {
    let a = x.abs();
    if a != 0.0 && !(1e-3..1e7).contains(&a) {
        format!("{x:.3e}")
    } else {
        let digits = if a == 0.0 {
            3
        } else {
            (3 - a.log10().floor() as i32).clamp(0, 6) as usize
        };
        format!("{x:.digits$}")
    }
}

/// The human-readable report of one workload run.
pub fn render(o: &Outcome) -> String {
    let mut text = Vec::new();
    let rows: Vec<Vec<String>> = end_to_end(o)
        .iter()
        .map(|m| {
            let s = &m.summary;
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                num(m.value),
                format!("{:.1}%", 100.0 * s.rel_iqr()),
                num(s.min),
                num(s.max),
                s.n.to_string(),
            ]
        })
        .collect();
    text.push(format!(
        "== {} ({} timed rounds)",
        o.workload,
        o.rounds.len()
    ));
    text.push(table(
        &["metric", "unit", "value", "iqr/median", "min", "max", "n"],
        &rows,
    ));
    text.push(format!(
        "checks: {} attempted, {} failed",
        o.attempted, o.failed
    ));
    if let Some(t) = &o.trace {
        text.push(format!(
            "-- traced per-layer breakdown of one {} ({} per {}; shares add up to the total)",
            t.unit, t.time_unit, t.unit
        ));
        let mut rows: Vec<Vec<String>> = t
            .rows
            .iter()
            .map(|r| {
                let (share, pct) = match r.share {
                    Some(s) => (num(s), format!("{:.1}%", 100.0 * s / t.unit_time)),
                    None => (String::new(), String::new()),
                };
                vec![
                    r.name.to_string(),
                    num(r.value),
                    r.unit.to_string(),
                    share,
                    pct,
                ]
            })
            .collect();
        rows.push(vec![
            format!("= traced {}", t.unit),
            String::new(),
            String::new(),
            num(t.unit_time),
            "100.0%".to_string(),
        ]);
        text.push(table(&["layer", "value", "unit", "share", "%"], &rows));
        let generic: Vec<Vec<String>> = per_layer(o)
            .iter()
            .take(PER_LAYER.len())
            .map(|m| vec![m.name.to_string(), num(m.value), m.unit.to_string()])
            .collect();
        text.push(table(&["per-layer metric", "value", "unit"], &generic));
    }
    text.join("\n")
}

fn metric_json(m: &Metric) -> Value {
    let s = &m.summary;
    Value::Object(vec![
        ("name".into(), Value::Str(m.name.into())),
        ("unit".into(), Value::Str(m.unit.into())),
        ("value".into(), Value::F64(m.value)),
        ("median".into(), Value::F64(s.median)),
        ("q1".into(), Value::F64(s.q1)),
        ("q3".into(), Value::F64(s.q3)),
        ("min".into(), Value::F64(s.min)),
        ("max".into(), Value::F64(s.max)),
        ("n".into(), Value::U64(s.n as u64)),
    ])
}

/// One workload's entry in the `--out` report.
pub fn outcome_json(o: &Outcome) -> Value {
    let metrics = |ms: Vec<Metric>| Value::Array(ms.iter().map(metric_json).collect());
    Value::Object(vec![
        ("name".into(), Value::Str(o.workload.into())),
        ("attempted".into(), Value::U64(o.attempted)),
        ("failed".into(), Value::U64(o.failed)),
        ("rounds".into(), Value::U64(o.rounds.len() as u64)),
        ("metrics".into(), metrics(end_to_end(o))),
        ("layers".into(), metrics(per_layer(o))),
    ])
}

/// The `--out` report around a list of workload entries.
pub fn report_json(
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &str,
    workloads: Vec<Value>,
) -> Value {
    let (threads, model) = host();
    Value::Object(vec![
        ("kind".into(), Value::Str("xbar-perf-report".into())),
        (
            "host".into(),
            Value::Object(vec![
                ("available_parallelism".into(), Value::U64(threads as u64)),
                ("cpu_model".into(), Value::Str(model)),
            ]),
        ),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("scale".into(), Value::Str(scale.into())),
        ("workloads".into(), Value::Array(workloads)),
    ])
}

/// The result line: whether every check passed, the checked operation
/// counts, and the declared metrics of each workload entry (`--trace`
/// selects the per-layer set). With several workloads the metric names
/// are prefixed `workload/`.
pub fn result_line(workloads: &[Value], trace: bool) -> String {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let count = |w: &Value, key: &str| match w.get(key) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    };
    let attempted: u64 = workloads.iter().map(|w| count(w, "attempted")).sum();
    let failed: u64 = workloads.iter().map(|w| count(w, "failed")).sum();
    let mut metrics = Vec::new();
    for w in workloads {
        let workload = w.get("name").and_then(Value::as_str).unwrap_or("?");
        let list = w
            .get(if trace { "layers" } else { "metrics" })
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        for &name in names {
            let Some(m) = list
                .iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            else {
                continue;
            };
            let key = if workloads.len() == 1 {
                name.to_string()
            } else {
                format!("{workload}/{name}")
            };
            let field = |k| m.get(k).cloned().unwrap_or(Value::Null);
            metrics.push((
                key,
                Value::Object(vec![
                    ("value".into(), field("value")),
                    ("unit".into(), field("unit")),
                ]),
            ));
        }
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a JSON value always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_four_significant_digits() {
        assert_eq!(num(1234.567), "1235");
        assert_eq!(num(12.3456), "12.35");
        assert_eq!(num(0.012345), "0.01235");
        assert_eq!(num(0.0), "0.000");
        assert_eq!(num(2.5e-7), "2.500e-7");
    }

    #[test]
    fn tables_align_columns() {
        let t = table(&["a", "bb"], &[vec!["long".into(), "1".into()]]);
        assert_eq!(t, "a     bb\nlong   1");
    }
}
