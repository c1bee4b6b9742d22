//! End-to-end tests for the live metrics plane and the `stats` op.
//!
//! Three contracts:
//!
//! 1. **Unconditional admission** — `stats` is answered when the
//!    session table is full and while the server drains (it is
//!    read-only and consumes no budget), so operators never lose
//!    visibility exactly when they need it most.
//! 2. **Run invariance** — a fixed scripted workload produces
//!    snapshots whose *deterministic* fields (request / query /
//!    rejection counters and histogram totals) are identical across
//!    repeated runs, because shard merging is commutative. Timing
//!    fields are only checked for well-formedness.
//! 3. **Snapshot shape** — quantiles sit inside `[min, max]`, bucket
//!    totals equal histogram counts, and every query request is one
//!    evaluation.

use std::collections::BTreeMap;

use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::backend::BackendKind;
use xbar_crossbar::power::PowerModel;
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{Client, Request, ServeConfig, Server, VictimRegistry};

const INPUT_DIM: usize = 3;

fn victim() -> Oracle {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
        Activation::Identity,
    );
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::Raw)
        .with_backend(BackendKind::Blocked)
        .with_power(PowerModel::default().with_noise(0.05));
    Oracle::new(net, &cfg, 4242).unwrap()
}

fn registry() -> VictimRegistry {
    let mut registry = VictimRegistry::new();
    registry.insert("toy", victim()).unwrap();
    registry
}

fn inputs(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|q| {
            (0..INPUT_DIM)
                .map(|d| ((salt * 31 + q as u64 * 7 + d as u64) % 17) as f64 / 17.0 - 0.5)
                .collect()
        })
        .collect()
}

// --- small JSON helpers over the scraped serde::Value snapshot ---

fn victim_section<'a>(stats: &'a serde::Value, victim: &str) -> &'a serde::Value {
    stats
        .get("victims")
        .and_then(|v| v.get(victim))
        .unwrap_or_else(|| panic!("no victim section {victim:?} in {stats:?}"))
}

fn counter(stats: &serde::Value, victim: &str, name: &str) -> u64 {
    match victim_section(stats, victim)
        .get("counters")
        .and_then(|c| c.get(name))
    {
        Some(serde::Value::U64(n)) => *n,
        None => 0,
        other => panic!("counter {victim}/{name} is {other:?}"),
    }
}

fn histogram<'a>(stats: &'a serde::Value, victim: &str, name: &str) -> &'a serde::Value {
    victim_section(stats, victim)
        .get("histograms")
        .and_then(|h| h.get(name))
        .unwrap_or_else(|| panic!("no histogram {victim}/{name}"))
}

fn field_u64(value: &serde::Value, key: &str) -> u64 {
    match value.get(key) {
        Some(serde::Value::U64(n)) => *n,
        other => panic!("field {key} is {other:?}"),
    }
}

fn field_f64(value: &serde::Value, key: &str) -> f64 {
    match value.get(key) {
        Some(serde::Value::F64(x)) => *x,
        Some(serde::Value::U64(n)) => *n as f64,
        other => panic!("field {key} is {other:?}"),
    }
}

/// Asserts a histogram snapshot is internally consistent: quantile
/// estimates inside `[min, max]` and monotone in `q`, bucket counts
/// summing to `count`.
fn assert_well_formed_histogram(h: &serde::Value) {
    let count = field_u64(h, "count");
    let min = field_u64(h, "min") as f64;
    let max = field_u64(h, "max") as f64;
    let (p50, p90, p99, p999) = (
        field_f64(h, "p50"),
        field_f64(h, "p90"),
        field_f64(h, "p99"),
        field_f64(h, "p999"),
    );
    assert!(min <= max, "min {min} > max {max}");
    for p in [p50, p90, p99, p999] {
        assert!(
            (min..=max).contains(&p) || count == 0,
            "quantile {p} outside [{min}, {max}]"
        );
    }
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= p999,
        "quantiles not monotone"
    );
    let buckets = h
        .get("buckets")
        .and_then(serde::Value::as_array)
        .expect("buckets");
    let total: u64 = buckets
        .iter()
        .map(|b| match b.as_array().expect("bucket pair") {
            [_, serde::Value::U64(n)] => *n,
            other => panic!("bucket {other:?}"),
        })
        .sum();
    assert_eq!(total, count, "bucket counts don't sum to count");
}

/// The deterministic projection of a snapshot: every counter and every
/// histogram's total count.
fn deterministic_projection(stats: &serde::Value) -> BTreeMap<String, u64> {
    let mut projection = BTreeMap::new();
    let victims = stats
        .get("victims")
        .and_then(serde::Value::as_object)
        .expect("victims object");
    for (victim, section) in victims {
        if let Some(counters) = section.get("counters").and_then(serde::Value::as_object) {
            for (name, value) in counters {
                if let serde::Value::U64(n) = value {
                    projection.insert(format!("{victim}/{name}"), *n);
                }
            }
        }
        if let Some(histograms) = section.get("histograms").and_then(serde::Value::as_object) {
            for (name, h) in histograms {
                projection.insert(format!("{victim}/{name}#count"), field_u64(h, "count"));
            }
        }
    }
    projection
}

/// Runs the fixed scripted workload against a fresh server and returns
/// the final stats snapshot.
fn scripted_run() -> serde::Value {
    let config = ServeConfig {
        max_sessions: 8,
        max_inflight: 4096,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).unwrap();
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).unwrap();
    c1.hello("s1", Some("toy"), Some(1), Some(10)).unwrap();
    assert_eq!(c1.query("s1", &inputs(4, 1)).unwrap().len(), 4);
    assert_eq!(c1.query("s1", &inputs(6, 2)).unwrap().len(), 6);
    // Budget exhausted: rejected, deterministic.
    let err = c1.query("s1", &inputs(1, 3)).unwrap_err();
    assert!(err.to_string().contains("budget_exhausted"), "{err}");
    // Unknown session: rejected, deterministic, no victim attribution.
    let err = c1.query("nope", &inputs(1, 4)).unwrap_err();
    assert!(err.to_string().contains("unknown_session"), "{err}");
    c1.close("s1").unwrap();

    let mut c2 = Client::connect(addr).unwrap();
    c2.hello("s2", Some("toy"), Some(2), Some(20)).unwrap();
    for round in 0..5 {
        assert_eq!(c2.query("s2", &inputs(4, 10 + round)).unwrap().len(), 4);
    }
    c2.close("s2").unwrap();

    let stats = c2.stats().unwrap();
    drop(c1);
    drop(c2);
    server.shutdown();
    stats
}

#[test]
fn deterministic_fields_are_run_invariant() {
    let baseline = scripted_run();

    // Pin the absolute expectations once, on the first run.
    // Victim-attributed requests: 2 hellos + 7 successful queries +
    // 2 closes; failures carry no session status, so they (and the
    // final stats call, which post-dates its own snapshot) land in
    // `_server`.
    assert_eq!(counter(&baseline, "toy", "serve.requests"), 11);
    assert_eq!(counter(&baseline, "toy", "serve.queries"), 30);
    assert_eq!(counter(&baseline, "_server", "serve.requests"), 2);
    assert_eq!(
        counter(&baseline, "_server", "serve.reject.budget_exhausted"),
        1
    );
    assert_eq!(
        counter(&baseline, "_server", "serve.reject.unknown_session"),
        1
    );
    let latency = histogram(&baseline, "toy", "serve.request_ns");
    assert_eq!(field_u64(latency, "count"), 11);
    assert_well_formed_histogram(latency);
    // One evaluation per successful query request.
    let eval = histogram(&baseline, "toy", "serve.eval_ns");
    assert_well_formed_histogram(eval);
    assert_eq!(field_u64(eval, "count"), 7, "serve.eval_ns");
    // One request decode and one response encode per victim-attributed
    // request, like the request latency.
    for name in ["serve.decode_ns", "serve.encode_ns"] {
        let h = histogram(&baseline, "toy", name);
        assert_well_formed_histogram(h);
        assert_eq!(field_u64(h, "count"), 11, "{name}");
    }

    // The same projection must fall out on two more runs.
    let expected = deterministic_projection(&baseline);
    for run in 2..=3 {
        let stats = scripted_run();
        assert_eq!(
            deterministic_projection(&stats),
            expected,
            "deterministic fields diverged on run {run}"
        );
        // Timing fields only need to be present and well-formed.
        assert_well_formed_histogram(histogram(&stats, "toy", "serve.request_ns"));
        assert_well_formed_histogram(histogram(&stats, "toy", "serve.eval_ns"));
        assert_well_formed_histogram(histogram(&stats, "toy", "serve.decode_ns"));
        assert_well_formed_histogram(histogram(&stats, "toy", "serve.encode_ns"));
    }
}

#[test]
fn stats_is_admitted_when_session_table_is_full() {
    let config = ServeConfig {
        max_sessions: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).unwrap();
    let addr = server.local_addr();

    let mut holder = Client::connect(addr).unwrap();
    holder.hello("hog", Some("toy"), Some(1), None).unwrap();

    // A second client can't get a session…
    let mut bystander = Client::connect(addr).unwrap();
    let err = bystander
        .hello("later", Some("toy"), Some(2), None)
        .unwrap_err();
    assert!(err.to_string().contains("session_table_full"), "{err}");
    // …but its scrape is admitted, and sees the rejection it just
    // suffered plus the attached-session gauge at the cap.
    let stats = bystander.stats().unwrap();
    assert_eq!(
        counter(&stats, "_server", "serve.reject.session_table_full"),
        1
    );
    let gauges = victim_section(&stats, "_server")
        .get("gauges")
        .expect("gauges");
    assert_eq!(
        gauges.get("serve.attached_sessions"),
        Some(&serde::Value::F64(1.0))
    );
    assert_eq!(gauges.get("serve.draining"), Some(&serde::Value::F64(0.0)));

    drop(holder);
    drop(bystander);
    server.shutdown();
}

#[test]
fn stats_returns_a_coherent_snapshot_during_drain() {
    let server = Server::start("127.0.0.1:0", registry(), ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.hello("s1", Some("toy"), Some(7), Some(8)).unwrap();
    assert_eq!(client.query("s1", &inputs(8, 9)).unwrap().len(), 8);

    // Flip the server into draining (the flag is set synchronously; the
    // drain itself only runs once `shutdown()`/`run_until_shutdown`
    // joins the threads). New hellos and queries are now refused…
    client.shutdown_server().unwrap();
    let err = client.query("s1", &inputs(1, 10)).unwrap_err();
    assert!(err.to_string().contains("shutting_down"), "{err}");
    // …but stats still answers, coherently, with the drain visible.
    let stats = client.stats().unwrap();
    assert_eq!(counter(&stats, "toy", "serve.queries"), 8);
    let gauges = victim_section(&stats, "_server")
        .get("gauges")
        .expect("gauges");
    assert_eq!(gauges.get("serve.draining"), Some(&serde::Value::F64(1.0)));
    // Prometheus exposition works during drain too.
    let prom = client.stats_prometheus().unwrap();
    assert!(
        prom.contains("xbar_serve_queries_total{victim=\"toy\"} 8"),
        "{prom}"
    );
    assert!(
        prom.contains("xbar_serve_draining{victim=\"_server\"} 1"),
        "{prom}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn periodic_metrics_snapshots_are_monotone_and_flushed_on_drain() {
    let path =
        std::env::temp_dir().join(format!("xbar_serve_metrics_{}.jsonl", std::process::id()));
    let config = ServeConfig {
        metrics: Some(path.clone()),
        metrics_every: std::time::Duration::from_millis(30),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.hello("s1", Some("toy"), Some(5), None).unwrap();
    for round in 0..4 {
        client.query("s1", &inputs(3, 60 + round)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    drop(client);
    server.shutdown();

    let records: Vec<serde::Value> = xbar_runtime::jsonl::read_jsonl(&path).unwrap();
    assert!(
        records.len() >= 2,
        "expected periodic + final snapshots, got {}",
        records.len()
    );
    let mut last_seq = None;
    let mut last_queries = 0;
    for record in &records {
        assert_eq!(
            record.get("kind").and_then(serde::Value::as_str),
            Some(xbar_serve::METRICS_RECORD_KIND)
        );
        let seq = field_u64(record, "seq");
        if let Some(prev) = last_seq {
            assert!(seq >= prev, "seq went backwards: {prev} -> {seq}");
        }
        last_seq = Some(seq);
        // Counters are cumulative: they only ever grow across snapshots.
        let stats = record.get("stats").expect("stats payload");
        let queries = counter(stats, "toy", "serve.queries");
        assert!(
            queries >= last_queries,
            "counter shrank: {last_queries} -> {queries}"
        );
        last_queries = queries;
    }
    // The final (drain) snapshot saw the whole workload.
    assert_eq!(last_queries, 12);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_stats_format_is_a_usage_error() {
    let server = Server::start("127.0.0.1:0", registry(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut request = Request::new("stats");
    request.format = Some("xml".to_string());
    let response = client.request(&request).unwrap();
    assert!(!response.ok);
    assert_eq!(response.code.as_deref(), Some("usage"));
    drop(client);
    server.shutdown();
}

#[test]
fn oversize_request_line_is_refused_and_closes_the_connection() {
    // Lines are bounded by a query of `max_inflight` samples for the
    // widest victim: 8 x 3 elements here, plus a fixed allowance.
    let config = ServeConfig {
        max_inflight: 8,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", registry(), config).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    client.hello("s1", Some("toy"), Some(3), None).unwrap();
    // A query at the in-flight cap fits…
    assert_eq!(client.query("s1", &inputs(8, 1)).unwrap().len(), 8);
    // …one far beyond it is refused before it is parsed.
    let mut request = Request::new("query");
    request.session = Some("s1".to_string());
    request.inputs = Some(inputs(2000, 2));
    let response = client.request(&request).unwrap();
    assert!(!response.ok);
    assert_eq!(response.code.as_deref(), Some("too_large"));
    // The server hangs up after answering.
    assert!(client.request(&Request::new("stats")).is_err());

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert_eq!(counter(&stats, "_server", "serve.reject.too_large"), 1);
    // Nothing was reserved or evaluated for the refused line.
    assert_eq!(counter(&stats, "toy", "serve.queries"), 8);
    server.shutdown();
}
