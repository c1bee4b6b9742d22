//! The JSONL trace writer.
//!
//! A trace file holds one or more *campaign sections*, each of which is:
//!
//! 1. a header line: `{"kind":"xbar-trace","format_version":2,
//!    "campaign":…,"campaign_seed":…,"total_trials":…}`
//! 2. one `{"kind":"trial",…}` line per executed trial, in completion
//!    order, carrying the trial's `counters`, `values` (value
//!    histograms) and `spans` (timing histograms) — see
//!    [`ScopeMetrics::trace_fields`]; every histogram entry is a
//!    [`crate::Histogram`] in its `Serialize` encoding,
//! 3. a `{"kind":"end",…}` line with campaign totals: the merged
//!    metrics plus completed / failed / skipped counts.
//!
//! Counters, values and span `count`s are deterministic
//! (thread-count-invariant); the other span fields and the
//! `wall_nanos` / `elapsed_nanos` fields are wall-clock data. Each
//! line is flushed as it is written, like the campaign journal.
//! Floats are written in Rust's shortest round-trip `{:?}` spelling
//! (`1e-7`, not `0.0000001`); either spelling reads back as the same
//! value, so such traces are still version 2. Version 1 traces
//! (min/max/sum value summaries, span `total_nanos`) are not read back.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Duration;

use serde::{Serialize, Value};

use crate::ScopeMetrics;

/// The `kind` tag of a trace header line.
pub const TRACE_KIND: &str = "xbar-trace";

/// Current trace format version.
pub const TRACE_FORMAT_VERSION: u32 = 2;

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

fn field(key: &str, value: impl Serialize) -> (String, Value) {
    (key.to_owned(), value.serialize())
}

/// Writes trace lines to a file, flushing each line.
pub struct TraceWriter {
    out: BufWriter<File>,
}

impl TraceWriter {
    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(TraceWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    fn write_line(&mut self, fields: Vec<(String, Value)>) -> io::Result<()> {
        let line = serde_json::to_string(&Value::Object(fields)).map_err(io::Error::other)?;
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }

    /// Opens a campaign section.
    pub fn campaign_header(
        &mut self,
        campaign: &str,
        campaign_seed: u64,
        total_trials: usize,
    ) -> io::Result<()> {
        self.write_line(vec![
            field("kind", TRACE_KIND),
            field("format_version", TRACE_FORMAT_VERSION),
            field("campaign", campaign),
            field("campaign_seed", campaign_seed),
            field("total_trials", total_trials),
        ])
    }

    /// Writes one finished trial's record.
    pub fn trial(
        &mut self,
        trial: usize,
        ok: bool,
        wall: Duration,
        metrics: &ScopeMetrics,
    ) -> io::Result<()> {
        let mut record = vec![
            field("kind", "trial"),
            field("trial", trial),
            field("status", if ok { "ok" } else { "failed" }),
            field("wall_nanos", duration_nanos(wall)),
        ];
        record.extend(metrics.trace_fields());
        self.write_line(record)
    }

    /// Closes a campaign section with its aggregate totals.
    pub fn end(
        &mut self,
        completed: usize,
        failed: usize,
        skipped: usize,
        elapsed: Duration,
        totals: &ScopeMetrics,
    ) -> io::Result<()> {
        let mut record = vec![
            field("kind", "end"),
            field("completed", completed),
            field("failed", failed),
            field("skipped", skipped),
            field("elapsed_nanos", duration_nanos(elapsed)),
        ];
        record.extend(totals.trace_fields());
        self.write_line(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, MetricsShard};

    #[test]
    fn trace_sections_round_trip_as_lines() {
        let path = std::env::temp_dir().join(format!(
            "xbar_obs_trace_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let shard = MetricsShard::new();
        shard.counter_add("fig4", names::ORACLE_QUERY, 12);
        shard.record("fig4", names::SPAN_PROBE, 1_500);
        let metrics = shard.take_scope("fig4");

        let mut writer = TraceWriter::create(&path).unwrap();
        writer.campaign_header("fig4", 42, 2).unwrap();
        writer
            .trial(0, true, Duration::from_millis(3), &metrics)
            .unwrap();
        writer
            .end(1, 0, 1, Duration::from_millis(5), &metrics)
            .unwrap();
        drop(writer);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"kind\":\"xbar-trace\",\"format_version\":2,"));
        assert!(lines[0].contains("\"campaign\":\"fig4\""));
        assert!(lines[1].contains("\"kind\":\"trial\""));
        assert!(lines[1].contains("\"oracle.query\":12"));
        assert!(lines[1].contains("\"spans\":{\"probe\":{\"count\":1,"));
        assert!(lines[1].contains("\"status\":\"ok\""));
        assert!(lines[2].contains("\"kind\":\"end\""));
        assert!(lines[2].contains("\"skipped\":1"));
    }
}
