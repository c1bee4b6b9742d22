//! `compare A.json B.json`: the verdict for every (workload, metric)
//! pair of two `--out` reports against the bounds in `BENCHMARK.json`.

use serde::Value;

use crate::report::{num, table};

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread between rounds exceeds the bound, so the runs cannot
    /// tell a regression from noise (and B does not beat A outright).
    Unresolved,
    /// The metric has no bound.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// A metric's value and the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Reported value.
    pub value: f64,
    /// Interquartile range over the median.
    pub rel_iqr: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// The rule of the benchmark's `choosing-metrics` guide: a spread wider
/// than the bound leaves the pair unresolved unless every sample of B
/// beats every sample of A; otherwise B may be worse than A by at most
/// `bound` (a share of A's value).
pub fn verdict(a: Side, b: Side, bound: f64, lower_is_better: bool) -> Verdict {
    let worse = if lower_is_better {
        (b.value - a.value) / a.value.abs()
    } else {
        (a.value - b.value) / a.value.abs()
    };
    let beats_outright = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    if a.rel_iqr.max(b.rel_iqr) > bound {
        if beats_outright {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn side(m: &Value) -> Option<Side> {
    let median = number(m.get("median"))?;
    let iqr = number(m.get("q3"))? - number(m.get("q1"))?;
    Some(Side {
        value: number(m.get("value"))?,
        rel_iqr: if median == 0.0 {
            0.0
        } else {
            iqr / median.abs()
        },
        min: number(m.get("min"))?,
        max: number(m.get("max"))?,
    })
}

fn find<'a>(list: &'a Value, key: &str, name: &str) -> Option<&'a Value> {
    list.get(key)?
        .as_array()?
        .iter()
        .find(|item| item.get("name").and_then(Value::as_str) == Some(name))
}

/// `(bound, lower_is_better)` of an end-to-end metric in the benchmark
/// definition.
fn bound_of(bench: &Value, metric: &str) -> Option<(f64, bool)> {
    let entry = find(bench, "end_to_end", metric)?;
    let lower = entry.get("better").and_then(Value::as_str) == Some("lower");
    Some((number(entry.get("bound"))?, lower))
}

/// Prints the comparison table; returns whether every bounded pair is
/// `ok` and no failure appeared in B.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b, bench) = (read(a_path)?, read(b_path)?, read(bench_path)?);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{a_path} is not an xbar-perf report"))?;
    let mut rows = Vec::new();
    let mut clean = true;
    for wa in workloads {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = find(&b, "workloads", name) else {
            rows.push(vec![name.to_string(), "(missing in B)".into()]);
            clean = false;
            continue;
        };
        for ma in wa.get("metrics").and_then(Value::as_array).unwrap_or(&[]) {
            let metric = ma.get("name").and_then(Value::as_str).unwrap_or("?");
            let (Some(sa), Some(sb)) = (side(ma), find(wb, "metrics", metric).and_then(side))
            else {
                continue;
            };
            let (bound, v) = match bound_of(&bench, metric) {
                Some((bound, lower)) => (num(bound * 100.0) + "%", verdict(sa, sb, bound, lower)),
                // Failures have no tolerance: any in B is a regression.
                None if metric == "fail_frac" => (
                    "0%".to_string(),
                    if sb.value > 0.0 {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    },
                ),
                None => ("-".to_string(), Verdict::Info),
            };
            clean &= matches!(v, Verdict::Ok | Verdict::Info);
            let delta = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (sb.value - sa.value) / sa.value.abs())
            };
            rows.push(vec![
                name.to_string(),
                metric.to_string(),
                num(sa.value),
                num(sb.value),
                delta,
                bound,
                format!("{:.1}%", 100.0 * sa.rel_iqr.max(sb.rel_iqr)),
                v.label().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["workload", "metric", "A", "B", "delta", "bound", "spread", "verdict"],
            &rows
        )
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, rel_iqr: f64, min: f64, max: f64) -> Side {
        Side {
            value,
            rel_iqr,
            min,
            max,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = s(100.0, 0.01, 99.0, 101.0);
        // Throughput (higher is better): 5% down is within a 10% bound.
        assert_eq!(
            verdict(a, s(95.0, 0.01, 94.0, 96.0), 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, s(85.0, 0.01, 84.0, 86.0), 0.10, false),
            Verdict::Regressed
        );
        // Latency (lower is better): the same move is an improvement.
        assert_eq!(
            verdict(a, s(85.0, 0.01, 84.0, 86.0), 0.10, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, s(115.0, 0.01, 114.0, 116.0), 0.10, true),
            Verdict::Regressed
        );
        // Noisy runs cannot resolve a 10% bound...
        assert_eq!(
            verdict(a, s(101.0, 0.2, 80.0, 120.0), 0.10, true),
            Verdict::Unresolved
        );
        // ...unless every sample of B beats every sample of A.
        assert_eq!(
            verdict(
                s(100.0, 0.2, 90.0, 110.0),
                s(50.0, 0.2, 45.0, 55.0),
                0.10,
                true
            ),
            Verdict::Ok
        );
    }
}
