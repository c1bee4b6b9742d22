//! The `xbar bench serve` throughput benchmark: the campaign service
//! under concurrent sessions.
//!
//! Starts an in-process [`xbar_serve::Server`] hosting one power-only
//! victim on a blocked-kernel crossbar, drives 1/8/64 concurrent
//! client sessions issuing single-query requests, and records
//! aggregate queries/sec and round-trip latency per session count — CI
//! uploads the report as the `BENCH_serve.json` artifact.

use std::sync::Barrier;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::backend::BackendKind;
use xbar_crossbar::power::PowerModel;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_obs::Histogram;
use xbar_serve::{Client, ServeConfig, Server, VictimRegistry};

use crate::write_json;

/// One session count's throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchRow {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Total queries served across all sessions.
    pub queries: usize,
    /// Wall-clock nanoseconds from first request to last reply.
    pub elapsed_nanos: u64,
    /// Aggregate throughput, queries per second.
    pub qps: f64,
    /// Median per-query round-trip latency, nanoseconds (client-side,
    /// estimated from a log-spaced [`Histogram`] merged across all
    /// session threads).
    pub latency_p50_nanos: f64,
    /// 95th-percentile per-query round-trip latency, nanoseconds.
    pub latency_p95_nanos: f64,
    /// 99th-percentile per-query round-trip latency, nanoseconds.
    pub latency_p99_nanos: f64,
    /// Worst observed per-query round-trip latency, nanoseconds.
    pub latency_max_nanos: u64,
}

/// The full serve-throughput report.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// Victim crossbar output rows.
    pub outputs: usize,
    /// Victim crossbar input columns.
    pub inputs: usize,
    /// Single-input queries issued per session.
    pub queries_per_session: usize,
    /// The host's available parallelism when the benchmark ran: the
    /// server evaluates on connection threads, so session counts above
    /// this share cores.
    pub host_threads: usize,
    /// The CPU model from `/proc/cpuinfo` (`"unknown"` where that file
    /// is unavailable).
    pub cpu_model: String,
    /// One row per session count.
    pub rows: Vec<ServeBenchRow>,
}

/// Session `s`'s `q`-th benchmark input, deterministic and cheap.
fn bench_input(s: usize, q: usize, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|j| (((s * 131 + q * 17 + j) as f64) * 0.013).sin())
        .collect()
}

/// Runs one session count against a fresh server and returns its
/// throughput row.
fn run_config(
    victim: &Oracle,
    sessions: usize,
    queries_per_session: usize,
    dim: usize,
) -> Result<ServeBenchRow, String> {
    let mut registry = VictimRegistry::new();
    registry
        .insert("bench", victim.clone())
        .map_err(|e| e.to_string())?;
    let server = Server::start("127.0.0.1:0", registry, ServeConfig::default())
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();

    // Sessions connect and attach first, then start together, so the
    // clock runs from the first request to the last reply. Each session
    // thread records its round-trip latencies into its own histogram;
    // the merge is associative, so the merged histogram is exactly what
    // one shared (but contended) histogram would hold.
    let attached = Barrier::new(sessions);
    let (latency, elapsed) = std::thread::scope(|scope| -> Result<_, String> {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let attached = &attached;
                scope.spawn(move || -> Result<(Histogram, Instant, Instant), String> {
                    let id = format!("bench-{s}");
                    let client = Client::connect(addr).and_then(|mut client| {
                        client.hello(&id, Some("bench"), Some(7000 + s as u64), None)?;
                        Ok(client)
                    });
                    // Wait even on failure, so no other session hangs.
                    attached.wait();
                    let mut client = client.map_err(|e| e.to_string())?;
                    let mut latency = Histogram::new();
                    let began = Instant::now();
                    for q in 0..queries_per_session {
                        let input = bench_input(s, q, dim);
                        let sent = Instant::now();
                        client
                            .query(&id, std::slice::from_ref(&input))
                            .map_err(|e| e.to_string())?;
                        latency.record(sent.elapsed().as_nanos() as u64);
                    }
                    let done = Instant::now();
                    client.close(&id).map_err(|e| e.to_string())?;
                    Ok((latency, began, done))
                })
            })
            .collect();
        let mut merged = Histogram::new();
        let mut window: Option<(Instant, Instant)> = None;
        for handle in handles {
            let (latency, began, done) = handle
                .join()
                .map_err(|_| "bench client thread panicked".to_string())??;
            merged.merge(&latency);
            window = Some(window.map_or((began, done), |(first, last)| {
                (first.min(began), last.max(done))
            }));
        }
        let (first, last) = window.ok_or("no bench sessions")?;
        Ok((merged, last - first))
    })?;
    server.shutdown();

    let queries = sessions * queries_per_session;
    let elapsed_nanos = elapsed.as_nanos() as u64;
    Ok(ServeBenchRow {
        sessions,
        queries,
        elapsed_nanos,
        qps: queries as f64 / (elapsed_nanos.max(1) as f64 / 1e9),
        latency_p50_nanos: latency.quantile(0.50),
        latency_p95_nanos: latency.quantile(0.95),
        latency_p99_nanos: latency.quantile(0.99),
        latency_max_nanos: latency.max(),
    })
}

/// Runs the serve throughput benchmark, prints one line per session
/// count, and persists the report (default
/// `results/BENCH_serve.json`).
///
/// # Errors
///
/// Fails if the server cannot start or any benchmark session errors.
pub fn run_serve_bench(quick: bool, json_out: Option<&str>) -> Result<ServeBenchReport, String> {
    // A tall crossbar (many output rows, few inputs) keeps the wire
    // cost per query small relative to the evaluation itself.
    let (outputs, inputs, queries_per_session) = if quick {
        (512, 128, 16)
    } else {
        (2048, 128, 48)
    };
    let session_counts = [1usize, 8, 64];

    // A power-only victim — the paper's attacker model (power side
    // channel, no output access). Noise sources stay off, so every
    // query evaluates on the oracle's cached prepared handle and the
    // serving layers around it dominate.
    let mut rng = ChaCha8Rng::seed_from_u64(4096);
    let net = SingleLayerNet::new_random(inputs, outputs, Activation::Identity, &mut rng);
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::None)
        .with_backend(BackendKind::Blocked)
        .with_power(PowerModel::default());
    let victim = Oracle::new(net, &cfg, 2026).map_err(|e| e.to_string())?;

    let mut rows = Vec::new();
    for &sessions in &session_counts {
        let row = run_config(&victim, sessions, queries_per_session, inputs)?;
        println!(
            "serve {:>2} sessions: {:>6} queries in {:>8.1} ms, \
             {:>9.0} q/s, p50/p95/p99 {:.2}/{:.2}/{:.2} ms",
            row.sessions,
            row.queries,
            row.elapsed_nanos as f64 / 1e6,
            row.qps,
            row.latency_p50_nanos / 1e6,
            row.latency_p95_nanos / 1e6,
            row.latency_p99_nanos / 1e6,
        );
        rows.push(row);
    }

    let report = ServeBenchReport {
        outputs,
        inputs,
        queries_per_session,
        host_threads: xbar_linalg::par::host_threads(),
        cpu_model: crate::cpu_model(),
        rows,
    };
    write_json(json_out.unwrap_or("results/BENCH_serve.json"), &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_measures_every_session_count() {
        let dir = std::env::temp_dir().join(format!("xbar_servebench_{}", std::process::id()));
        let path = dir.join("BENCH_serve.json");
        let report = run_serve_bench(true, path.to_str()).unwrap();
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert_eq!(row.queries, row.sessions * report.queries_per_session);
            assert!(row.qps > 0.0, "row {row:?}");
            // Latency percentiles are monotone and bounded by the max.
            assert!(row.latency_p50_nanos > 0.0, "row {row:?}");
            assert!(
                row.latency_p95_nanos >= row.latency_p50_nanos,
                "row {row:?}"
            );
            assert!(
                row.latency_p99_nanos >= row.latency_p95_nanos,
                "row {row:?}"
            );
            assert!(
                row.latency_p99_nanos <= row.latency_max_nanos as f64,
                "row {row:?}"
            );
        }
        let sessions: Vec<usize> = report.rows.iter().map(|r| r.sessions).collect();
        assert_eq!(sessions, [1, 8, 64]);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"qps\""));
        assert!(json.contains("\"latency_p50_nanos\""));
        assert!(json.contains("\"latency_p95_nanos\""));
        assert!(json.contains("\"latency_p99_nanos\""));
        assert!(report.host_threads >= 1);
        assert!(json.contains("\"host_threads\""));
        assert!(json.contains("\"cpu_model\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
