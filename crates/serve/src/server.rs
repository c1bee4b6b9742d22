//! The TCP server: accept loop, per-connection handlers, admission
//! control, and graceful drain.
//!
//! Each connection's handler thread answers its own requests: a query
//! is reserved under the session lock, then evaluated in place with one
//! [`xbar_core::oracle::Oracle::observe_batch_keyed`] call while the
//! handler's metrics shard is the ambient `xbar-obs` scope of the
//! session's victim. Evaluation concurrency is therefore the number of
//! busy connections.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;
use xbar_core::oracle::{Observation, QueryKey, QueryRecord};
use xbar_obs::metrics::SERVER_SCOPE;
use xbar_obs::{names, CounterName, MetricsShard};
use xbar_runtime::jsonl::JsonlAppender;

use crate::metrics::{ServeMetrics, METRICS_RECORD_KIND};
use crate::protocol::{codes, Request, Response, SessionStatus};
use crate::registry::VictimRegistry;
use crate::session::SessionManager;
use crate::wire::decode_request;
use crate::Result;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Admission control: maximum concurrently attached sessions.
    pub max_sessions: usize,
    /// Largest query, in samples, a request line may carry: a line
    /// longer than a query of this many samples for the widest hosted
    /// victim is refused with [`codes::TOO_LARGE`] and its connection
    /// closed.
    pub max_inflight: usize,
    /// Session journal path (`None` = in-memory sessions only).
    pub journal: Option<PathBuf>,
    /// Periodic live-metrics snapshot file (`None` = no snapshots). A
    /// [`METRICS_RECORD_KIND`] JSONL record is appended every
    /// [`ServeConfig::metrics_every`], plus a final one on drain.
    pub metrics: Option<PathBuf>,
    /// Interval between periodic metrics snapshots.
    pub metrics_every: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 256,
            max_inflight: 4096,
            journal: None,
            metrics: None,
            metrics_every: Duration::from_secs(1),
        }
    }
}

/// Wire bytes allowed per input element when bounding request lines:
/// the longest shortest-round-trip `f64` text plus its separators.
const LINE_BYTES_PER_ELEMENT: usize = 32;

/// Request-line allowance for everything besides the inputs: the op,
/// session id, victim name and JSON punctuation.
const LINE_BYTES_FIXED: usize = 4096;

struct Shared {
    registry: VictimRegistry,
    /// Longest request line a handler will read: a query of
    /// [`ServeConfig::max_inflight`] samples for the widest hosted
    /// victim, plus [`LINE_BYTES_FIXED`].
    max_line_bytes: usize,
    sessions: Mutex<SessionManager>,
    shutdown: AtomicBool,
    metrics: ServeMetrics,
}

/// Locks `mutex`, recovering the data from a poisoned lock: the
/// server's tables stay consistent across a panicking holder (every
/// update is a single insert, remove or push), so one panic must not
/// wedge every later request.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Refreshes the point-in-time gauges and returns a coherent merged
    /// snapshot of the live metrics. Safe at any lifecycle point:
    /// during drain the session lock and shard locks still exist, so a
    /// scrape racing a shutdown sees a consistent (if final) picture.
    fn scrape(&self) -> xbar_obs::MetricsSnapshot {
        let attached = lock(&self.sessions).attached_count();
        self.metrics
            .refresh_gauges(attached, self.shutdown.load(Ordering::SeqCst));
        self.metrics.registry().snapshot()
    }
}

/// A running campaign service.
///
/// Lifecycle: [`Server::start`] binds and spawns everything;
/// [`Server::shutdown`] (or a client `shutdown` op followed by
/// [`Server::run_until_shutdown`]) drains gracefully — the accept loop
/// stops, in-flight requests are answered, then every thread is
/// joined.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    metrics_handle: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    pub fn start(addr: &str, registry: VictimRegistry, config: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let metrics = ServeMetrics::new();
        let mut sessions = match &config.journal {
            Some(path) => SessionManager::with_journal(config.max_sessions, path)?,
            None => SessionManager::new(config.max_sessions),
        };
        sessions.set_metrics_shard(metrics.server_shard());
        let max_line_bytes = config
            .max_inflight
            .saturating_mul(registry.max_num_inputs())
            .saturating_mul(LINE_BYTES_PER_ELEMENT)
            .saturating_add(LINE_BYTES_FIXED);
        let shared = Arc::new(Shared {
            registry,
            max_line_bytes,
            sessions: Mutex::new(sessions),
            shutdown: AtomicBool::new(false),
            metrics: metrics.clone(),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &shared, &handlers, &conns))
        };

        let metrics_handle = match &config.metrics {
            Some(path) => {
                let appender = JsonlAppender::create(path)
                    .map_err(|e| crate::ServeError::Protocol(e.to_string()))?;
                let shared = Arc::clone(&shared);
                let every = config.metrics_every;
                Some(std::thread::spawn(move || {
                    snapshot_loop(appender, &shared, every)
                }))
            }
            None => None,
        };

        Ok(Server {
            addr: local_addr,
            shared,
            accept_handle: Some(accept_handle),
            metrics_handle,
            handlers,
            conns,
        })
    }

    /// The bound address (the ephemeral port when started on `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until some client issues the `shutdown` op, then drains.
    pub fn run_until_shutdown(self) {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.drain();
    }

    /// Initiates and completes a graceful drain: stop accepting, let
    /// in-flight requests finish, join every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.drain();
    }

    fn drain(mut self) {
        // 1. The accept loop polls the flag and exits.
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // 2. Unblock handler reads; handlers finish evaluating and
        //    answering their current request, detach their sessions,
        //    and exit.
        for stream in lock(&self.conns).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = lock(&self.handlers).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // 3. The snapshot thread sees the shutdown flag and writes its
        //    final snapshot.
        if let Some(handle) = self.metrics_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Appends one [`METRICS_RECORD_KIND`] snapshot record to the metrics
/// file every `every`, polling the shutdown flag between ticks, and a
/// final record once drain begins. Records carry a monotone `seq` so
/// consumers can assert snapshot counts only ever grow.
fn snapshot_loop(mut appender: JsonlAppender, shared: &Shared, every: Duration) {
    let mut seq = 0u64;
    let write_snapshot = |seq: u64, appender: &mut JsonlAppender| {
        let record = serde::Value::Object(vec![
            (
                "kind".to_owned(),
                serde::Value::Str(METRICS_RECORD_KIND.to_owned()),
            ),
            ("seq".to_owned(), serde::Value::U64(seq)),
            ("stats".to_owned(), shared.scrape().serialize()),
        ]);
        if let Ok(line) = serde_json::to_string(&record) {
            let _ = appender.write_line(&line);
        }
    };
    loop {
        let deadline = Instant::now() + every;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                write_snapshot(seq, &mut appender);
                return;
            }
            std::thread::sleep(Duration::from_millis(25).min(every));
        }
        write_snapshot(seq, &mut appender);
        seq += 1;
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Mutex<Vec<JoinHandle<()>>>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
) {
    // Connection ordinal, used only to spread handlers over the
    // handler metrics shards.
    let ordinal = AtomicUsize::new(0);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Ok(clone) = stream.try_clone() {
                    lock(conns).push(clone);
                }
                let shared = Arc::clone(shared);
                let shard = shared
                    .metrics
                    .handler_shard(ordinal.fetch_add(1, Ordering::Relaxed));
                let handle = std::thread::spawn(move || handle_connection(stream, &shared, &shard));
                lock(handlers).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, shard: &Arc<MetricsShard>) {
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // Sessions this connection holds, released when it goes away so
    // admission slots free up once no connection holds a session (state
    // persists for resume).
    let mut attached: Vec<String> = Vec::new();
    while let Some(line) = read_request_line(&mut reader, shared.max_line_bytes, &mut buf) {
        let started = Instant::now();
        let too_large = line.is_none();
        let mut decode_ns = None;
        let response = match line {
            Some(line) if line.trim().is_empty() => continue,
            Some(line) => {
                let decoded = decode_request(line);
                decode_ns = Some(elapsed_ns(started));
                match decoded {
                    Ok(request) => handle_request(request, shared, shard, &mut attached),
                    Err(e) => Response::failure("?", codes::USAGE, format!("bad request: {e}")),
                }
            }
            None => Response::failure(
                "?",
                codes::TOO_LARGE,
                format!("request line exceeds {} bytes", shared.max_line_bytes),
            ),
        };
        let victim = attributed_victim(&response);
        record_request_metrics(shard, victim, &response, started);
        if let Some(ns) = decode_ns {
            shard.record(victim, names::SERVE_DECODE_NS, ns);
        }
        let encode_started = Instant::now();
        let Ok(mut reply) = serde_json::to_string(&response) else {
            break;
        };
        reply.push('\n');
        shard.record(victim, names::SERVE_ENCODE_NS, elapsed_ns(encode_started));
        if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
        if too_large {
            // The drain list holds a clone of this socket, so dropping
            // ours would not hang up: shut it down explicitly.
            let _ = writer.shutdown(Shutdown::Both);
            break;
        }
    }
    let mut sessions = lock(&shared.sessions);
    for id in attached {
        sessions.detach(&id);
    }
}

/// Reads the next request line into `buf` (reused across the lines of
/// a connection), holding at most `limit` bytes of it.
///
/// Returns `Some(Some(line))` with the terminator stripped,
/// `Some(None)` for a line longer than `limit` (the rest of it is read
/// and discarded, so the connection can close without resetting the
/// reply), and `None` at end of stream or on a read or UTF-8 error.
fn read_request_line<'b>(
    reader: &mut impl BufRead,
    limit: usize,
    buf: &'b mut Vec<u8>,
) -> Option<Option<&'b str>> {
    buf.clear();
    let read = reader.take(limit as u64 + 1).read_until(b'\n', buf).ok()?;
    if read == 0 {
        return None;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > limit {
        reader.skip_until(b'\n').ok()?;
        return Some(None);
    }
    std::str::from_utf8(buf).ok().map(Some)
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The scope a request's metrics are attributed to: the victim the
/// request resolved to, or [`SERVER_SCOPE`] when it never resolved one
/// (stats/shutdown ops, usage errors, unknown sessions).
fn attributed_victim(response: &Response) -> &str {
    response
        .status
        .as_ref()
        .map_or(SERVER_SCOPE, |status| status.victim.as_str())
}

/// Records the live-metrics view of one handled request under
/// `victim`: a request counter, end-to-end latency, per-code rejection
/// counters, and — for successful queries — the per-victim query
/// count.
fn record_request_metrics(
    shard: &MetricsShard,
    victim: &str,
    response: &Response,
    started: Instant,
) {
    shard.counter_add(victim, names::SERVE_REQUESTS, 1);
    shard.record(victim, names::SERVE_REQUEST_NS, elapsed_ns(started));
    if response.ok {
        if response.op == "query" {
            let queries = response.records.as_ref().map_or(0, Vec::len) as u64;
            shard.counter_add(victim, names::SERVE_QUERIES, queries);
        }
    } else if let Some(counter) = response.code.as_deref().and_then(reject_counter) {
        shard.counter_add(victim, counter, 1);
    }
}

/// The counter `serve.reject.<code>` for each rejection code.
const REJECT_COUNTERS: [(&str, CounterName); 9] = [
    (codes::USAGE, CounterName("serve.reject.usage")),
    (
        codes::UNKNOWN_VICTIM,
        CounterName("serve.reject.unknown_victim"),
    ),
    (
        codes::UNKNOWN_SESSION,
        CounterName("serve.reject.unknown_session"),
    ),
    (
        codes::SESSION_TABLE_FULL,
        CounterName("serve.reject.session_table_full"),
    ),
    (
        codes::BUDGET_EXHAUSTED,
        CounterName("serve.reject.budget_exhausted"),
    ),
    (codes::CONFLICT, CounterName("serve.reject.conflict")),
    (
        codes::SHUTTING_DOWN,
        CounterName("serve.reject.shutting_down"),
    ),
    (codes::INTERNAL, CounterName("serve.reject.internal")),
    (codes::TOO_LARGE, CounterName("serve.reject.too_large")),
];

/// The rejection counter of wire error `code`, if it is one of
/// [`codes`].
fn reject_counter(code: &str) -> Option<CounterName> {
    REJECT_COUNTERS
        .iter()
        .find(|(known, _)| *known == code)
        .map(|(_, counter)| *counter)
}

fn handle_request(
    request: Request,
    shared: &Shared,
    shard: &Arc<MetricsShard>,
    attached: &mut Vec<String>,
) -> Response {
    let op = request.op.as_str();
    let draining = shared.shutdown.load(Ordering::SeqCst);
    match op {
        // `stats` is read-only and consumes no budget or admission
        // slot, so it is answered unconditionally — before the drain
        // check (operators scrape *during* drain to watch it finish)
        // and regardless of session-table occupancy.
        "stats" => {
            let snapshot = shared.scrape();
            match request.format.as_deref() {
                Some("prom") => Response::success(op).with_text(snapshot.to_prometheus()),
                None | Some("json") => Response::success(op).with_stats(snapshot.serialize()),
                Some(other) => Response::failure(
                    op,
                    codes::USAGE,
                    format!("unknown stats format {other:?} (expected \"json\" or \"prom\")"),
                ),
            }
        }
        "hello" if draining => Response::failure(op, codes::SHUTTING_DOWN, "server is draining"),
        "query" if draining => Response::failure(op, codes::SHUTTING_DOWN, "server is draining"),
        "hello" => {
            let Some(id) = request.session.as_deref() else {
                return Response::failure(op, codes::USAGE, "hello requires a session id");
            };
            let (victim, seed, budget) = (request.victim.as_deref(), request.seed, request.budget);
            let mut sessions = lock(&shared.sessions);
            // A connection holds a session once, however often it says
            // `hello` to it.
            let opened = if attached.iter().any(|a| a == id) {
                sessions.confirm(id, victim, seed, budget)
            } else {
                let opened = sessions.open(id, victim, seed, budget, &shared.registry);
                if opened.is_ok() {
                    attached.push(id.to_string());
                }
                opened
            };
            match opened {
                Ok(status) => Response::success(op).with_status(status),
                Err(reject) => Response::failure(op, reject.code, reject.message),
            }
        }
        "query" => handle_query(request, shared, shard),
        "close" => {
            let Some(id) = request.session.as_deref() else {
                return Response::failure(op, codes::USAGE, "close requires a session id");
            };
            // Release only this connection's hold: another connection
            // may still be driving the session.
            let held = attached.iter().position(|a| a == id);
            let released =
                held.and_then(|at| lock(&shared.sessions).detach(&attached.swap_remove(at)));
            match released {
                Some(status) => Response::success(op).with_status(status),
                None => Response::failure(
                    op,
                    codes::UNKNOWN_SESSION,
                    format!("session {id:?} is not attached on this connection"),
                ),
            }
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::success(op)
        }
        other => Response::failure(other, codes::USAGE, format!("unknown op {other:?}")),
    }
}

fn handle_query(request: Request, shared: &Shared, shard: &Arc<MetricsShard>) -> Response {
    let op = "query";
    let Some(id) = request.session.as_deref() else {
        return Response::failure(op, codes::USAGE, "query requires a session id");
    };
    let Some(inputs) = request.inputs.filter(|inputs| !inputs.is_empty()) else {
        return Response::failure(op, codes::USAGE, "query requires non-empty inputs");
    };
    let count = inputs.len() as u64;

    // Reservation happens under the session lock so a session's query
    // indices are assigned exactly once, in order, even if two
    // connections drive the same session. Evaluation runs after the
    // lock is released: every sample carries its own key, so when it
    // runs does not change what it returns.
    let (oracle, status) = {
        let mut sessions = lock(&shared.sessions);
        let Some(current) = sessions.status(id) else {
            return Response::failure(op, codes::UNKNOWN_SESSION, format!("no session {id:?}"));
        };
        let Some(oracle) = shared.registry.get(&current.victim) else {
            return Response::failure(
                op,
                codes::UNKNOWN_VICTIM,
                format!("victim {:?} is not hosted here", current.victim),
            );
        };
        if let Err(e) = oracle.check_inputs(&inputs) {
            return Response::failure(op, codes::USAGE, e.to_string());
        }
        match sessions.reserve(id, count) {
            Ok(status) => (oracle, status),
            Err(reject) => return Response::failure(op, reject.code, reject.message),
        }
    };

    let base = status.used - count;
    let keys: Vec<QueryKey> = (0..count)
        .map(|i| QueryKey::new(status.seed, base + i))
        .collect();
    let inputs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let victim = status.victim.clone();
    let started = Instant::now();
    let response = answer_reserved(shared, status, count, || {
        xbar_obs::with_scope(shard, &victim, || {
            oracle.observe_batch_keyed(&inputs, &keys)
        })
    });
    shard.record(&victim, names::SERVE_EVAL_NS, elapsed_ns(started));
    response
}

/// Answers the `count` queries just reserved for a session (`status`
/// is the reservation's result) with the observations `evaluate`
/// returns, numbered from the reservation's base index.
///
/// A failed or panicking evaluation is answered [`codes::INTERNAL`]
/// and its reservation released through [`SessionManager::unreserve`]:
/// the client saw none of those indices. The panic stays on this
/// request, and the connection keeps serving.
fn answer_reserved(
    shared: &Shared,
    status: SessionStatus,
    count: u64,
    evaluate: impl FnOnce() -> xbar_core::Result<Vec<Observation>>,
) -> Response {
    let op = "query";
    let evaluated = match catch_unwind(AssertUnwindSafe(evaluate)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(format!("evaluation panicked: {detail}"))
        }
    };
    match evaluated {
        Ok(observations) => {
            let base = status.used - count;
            let records = observations
                .into_iter()
                .zip(base..)
                .map(|(observation, index)| QueryRecord { index, observation })
                .collect();
            Response::success(op)
                .with_status(status)
                .with_records(records)
        }
        Err(message) => {
            lock(&shared.sessions).unreserve(&status, count);
            Response::failure(op, codes::INTERNAL, message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::oracle::{Oracle, OracleConfig};
    use xbar_linalg::Matrix;
    use xbar_nn::activation::Activation;
    use xbar_nn::network::SingleLayerNet;

    /// Server state hosting one toy victim with session `"s"` open.
    fn shared_with_session() -> Shared {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 0.5]]),
            Activation::Identity,
        );
        let mut registry = VictimRegistry::new();
        registry
            .insert("toy", Oracle::new(net, &OracleConfig::ideal(), 3).unwrap())
            .unwrap();
        let mut sessions = SessionManager::new(4);
        sessions
            .open("s", Some("toy"), Some(9), None, &registry)
            .unwrap();
        Shared {
            registry,
            max_line_bytes: LINE_BYTES_FIXED,
            sessions: Mutex::new(sessions),
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::new(),
        }
    }

    #[test]
    fn a_panicking_evaluation_is_answered_internal_and_releases_its_reservation() {
        let shared = shared_with_session();
        let shard = shared.metrics.handler_shard(0);
        let reserved = lock(&shared.sessions).reserve("s", 3).unwrap();
        assert_eq!(reserved.used, 3);

        let started = Instant::now();
        let response = answer_reserved(&shared, reserved, 3, || panic!("injected fault"));
        record_request_metrics(&shard, attributed_victim(&response), &response, started);
        assert!(!response.ok);
        assert_eq!(response.code.as_deref(), Some(codes::INTERNAL));
        let message = response.error.as_deref().unwrap_or_default();
        assert!(message.contains("injected fault"), "{message}");
        assert_eq!(lock(&shared.sessions).status("s").unwrap().used, 0);
        let internal = reject_counter(codes::INTERNAL).unwrap();
        let snapshot = shared.scrape();
        assert_eq!(snapshot.scope(SERVER_SCOPE).unwrap().counter(internal), 1);

        // The session keeps serving, from the released indices.
        let reserved = lock(&shared.sessions).reserve("s", 2).unwrap();
        let oracle = shared.registry.get("toy").unwrap();
        let keys = [QueryKey::new(9, 0), QueryKey::new(9, 1)];
        let inputs: [&[f64]; 2] = [&[0.5, 0.25], &[-1.0, 2.0]];
        let response = answer_reserved(&shared, reserved, 2, || {
            oracle.observe_batch_keyed(&inputs, &keys)
        });
        assert!(response.ok, "{:?}", response.error);
        let indices: Vec<u64> = response.records.unwrap().iter().map(|r| r.index).collect();
        assert_eq!(indices, [0, 1]);
    }

    #[test]
    fn repeated_hellos_hold_a_session_once_and_one_close_detaches_it() {
        let shared = shared_with_session();
        let shard = shared.metrics.handler_shard(0);
        let session = |op: &str| {
            let mut request = Request::new(op);
            request.session = Some("s".to_string());
            request
        };
        let mut attached = Vec::new();
        for _ in 0..3 {
            let response = handle_request(session("hello"), &shared, &shard, &mut attached);
            assert!(response.ok, "{:?}", response.error);
        }
        assert_eq!(attached, ["s"]);
        let mut conflicting = session("hello");
        conflicting.seed = Some(10);
        let response = handle_request(conflicting, &shared, &shard, &mut attached);
        assert_eq!(response.code.as_deref(), Some(codes::CONFLICT));

        // `shared_with_session` holds "s" too; once its hold goes, this
        // connection's one `close` detaches the session.
        lock(&shared.sessions).detach("s").unwrap();
        let response = handle_request(session("close"), &shared, &shard, &mut attached);
        assert!(response.ok, "{:?}", response.error);
        assert!(attached.is_empty());
        assert_eq!(lock(&shared.sessions).attached_count(), 0);
        let response = handle_request(session("close"), &shared, &shard, &mut attached);
        assert_eq!(response.code.as_deref(), Some(codes::UNKNOWN_SESSION));
    }

    #[test]
    fn every_rejection_code_has_its_own_counter() {
        for (code, counter) in REJECT_COUNTERS {
            assert_eq!(counter.0, format!("serve.reject.{code}"));
            assert_eq!(reject_counter(code), Some(counter));
        }
        assert_eq!(reject_counter("no_such_code"), None);
    }
}
