//! `serve-solo` and `serve-bulk`: the campaign service answering attack
//! traffic over a real socket.
//!
//! Both are closed loops: each connection sends its next request when
//! the previous reply arrives, as an attack session does. `serve-solo`
//! is one connection running the Case-1 probe scan (single one-hot
//! queries to a power-only victim), so it measures per-request
//! overhead. `serve-bulk` is two connections collecting Case-2 query
//! logs (64 dense inputs per request, ~0.7 MB lines) from a raw-output
//! victim, so wire encode/decode dominates; it shows whether a
//! per-request win costs bulk throughput.

use std::time::Instant;

use xbar_core::oracle::{Observation, Oracle, OracleConfig, OutputAccess, QueryKey, QueryRecord};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::power::PowerModel;
use xbar_serve::{
    Client, Request, Response, ServeConfig, Server, SessionManager, SessionStatus, VictimRegistry,
};

use crate::stats::mean;
use crate::victims::{digit_pool, train_victim, Data, Head};
use crate::workload::{
    err, measure, repeated_setup, secs, timed, Checks, LayerRow, Outcome, Round, RunConfig, Scale,
    SetupTimes, Trace, SETUP_REPEATS,
};

/// The served victim's registry name.
const VICTIM: &str = "victim";

/// Power-measurement noise of the served victim.
const POWER_NOISE: f64 = 0.02;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One connection, single one-hot queries, power only.
    Solo,
    /// Two connections, 64 dense queries per request, raw outputs.
    Bulk,
}

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Concurrent connections, one session each.
    connections: usize,
    /// Requests per connection per round.
    requests: usize,
    /// Queries per request.
    batch: usize,
    /// The victim's output channel.
    access: OutputAccess,
    /// Samples the victim is trained on.
    samples: usize,
    /// Untimed requests per connection during set-up.
    warmup: usize,
    /// Every this many requests a reply is checked bit for bit.
    check_every: usize,
    /// On traced runs, every this many requests is timed layer by layer.
    trace_every: usize,
}

impl Params {
    /// The sizes of `mode` at `scale`.
    fn of(mode: Mode, scale: Scale) -> Params {
        match (mode, scale) {
            (Mode::Solo, Scale::Full) => Params {
                connections: 1,
                requests: 1000,
                batch: 1,
                access: OutputAccess::None,
                samples: 800,
                warmup: 100,
                check_every: 50,
                trace_every: 5,
            },
            (Mode::Bulk, Scale::Full) => Params {
                connections: 2,
                requests: 120,
                batch: 64,
                access: OutputAccess::Raw,
                samples: 800,
                warmup: 8,
                check_every: 50,
                trace_every: 10,
            },
            (Mode::Solo, Scale::Smoke) => Params {
                connections: 1,
                requests: 30,
                batch: 1,
                access: OutputAccess::None,
                samples: 200,
                warmup: 5,
                check_every: 5,
                trace_every: 3,
            },
            (Mode::Bulk, Scale::Smoke) => Params {
                connections: 2,
                requests: 6,
                batch: 8,
                access: OutputAccess::Raw,
                samples: 200,
                warmup: 2,
                check_every: 2,
                trace_every: 2,
            },
        }
    }
}

/// One attack session on its own connection.
struct Conn {
    client: Client,
    session: String,
    seed: u64,
    /// The session's next query index.
    next: u64,
    /// Requests sent, which picks the next payload.
    sent: usize,
}

/// A running service plus what the client side needs to drive and
/// check it.
struct Service {
    server: Server,
    conns: Vec<Conn>,
    /// A clone of the served victim: same hardware, so keyed
    /// observation on it must reproduce every reply bit for bit.
    reference: Oracle,
    /// Request payloads, cycled through by every connection.
    payloads: Vec<Vec<Vec<f64>>>,
}

impl Service {
    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Layer timings of one traced request, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    latency: f64,
    client_encode: f64,
    server_decode: f64,
    reserve: f64,
    observe: f64,
    server_encode: f64,
    client_decode: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// What one connection measured in one round.
#[derive(Default)]
struct ConnRound {
    latencies_us: Vec<f64>,
    checks: Checks,
    samples: Vec<Sample>,
}

/// The one-hot probe scan (`β·e_j`, β = 1) of serve-solo, or 64-row
/// slices of a digit pool for serve-bulk.
fn payloads(p: &Params, seed: u64) -> Vec<Vec<Vec<f64>>> {
    let dim = 784;
    if p.batch == 1 {
        (0..dim)
            .map(|j| {
                let mut u = vec![0.0; dim];
                u[j] = 1.0;
                vec![u]
            })
            .collect()
    } else {
        let pool = digit_pool(4 * p.batch, seed ^ 0xB01C);
        (0..4)
            .map(|s| {
                (s * p.batch..(s + 1) * p.batch)
                    .map(|i| pool.row(i).to_vec())
                    .collect()
            })
            .collect()
    }
}

fn session_seed(seed: u64, conn: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1)
}

/// Trains the victim, starts a journaled server on an ephemeral port,
/// opens one session per connection and warms every connection up.
fn setup(cfg: &RunConfig, p: &Params, k: usize, times: &mut SetupTimes) -> Result<Service, String> {
    let (victim, payloads) = timed(&mut times.train_s, || {
        train_victim(Data::Digits, Head::Softmax, p.samples, cfg.seed)
            .map(|v| (v, payloads(p, cfg.seed)))
    })?;
    let mut service = timed(&mut times.deploy_s, || -> Result<Service, String> {
        let config = OracleConfig::ideal()
            .with_access(p.access)
            .with_backend("blocked".parse::<BackendSpec>()?)
            .with_power(PowerModel::default().with_noise(POWER_NOISE));
        let reference = Oracle::new(victim.net, &config, cfg.seed).map_err(err)?;
        let mut registry = VictimRegistry::new();
        registry.insert(VICTIM, reference.clone()).map_err(err)?;
        let journal = cfg.work_dir.join(format!("serve-journal-{k}.jsonl"));
        let server = Server::start(
            "127.0.0.1:0",
            registry,
            ServeConfig {
                journal: Some(journal),
                ..ServeConfig::default()
            },
        )
        .map_err(err)?;
        let mut conns = Vec::with_capacity(p.connections);
        for i in 0..p.connections {
            let mut client = Client::connect(server.local_addr()).map_err(err)?;
            let session = format!("session-{i}");
            let seed = session_seed(cfg.seed, i);
            client
                .hello(&session, Some(VICTIM), Some(seed), None)
                .map_err(err)?;
            conns.push(Conn {
                client,
                session,
                seed,
                next: 0,
                sent: 0,
            });
        }
        Ok(Service {
            server,
            conns,
            reference,
            payloads,
        })
    })?;
    timed(&mut times.warmup_s, || -> Result<(), String> {
        for conn in &mut service.conns {
            for _ in 0..p.warmup {
                let payload = &service.payloads[conn.sent % service.payloads.len()];
                conn.client.query(&conn.session, payload).map_err(err)?;
                conn.sent += 1;
                conn.next += payload.len() as u64;
            }
        }
        Ok(())
    })?;
    Ok(service)
}

fn same_bits(a: &Observation, b: &Observation) -> bool {
    let floats = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.power.to_bits() == b.power.to_bits()
        && a.label == b.label
        && match (&a.output, &b.output) {
            (Some(x), Some(y)) => floats(x, y),
            (None, None) => true,
            _ => false,
        }
}

/// Keyed observation of `payload` on the reference oracle, with the
/// session's keys for the queries starting at `base`.
fn observe(
    reference: &Oracle,
    payload: &[Vec<f64>],
    seed: u64,
    base: u64,
) -> Result<Vec<Observation>, String> {
    let inputs: Vec<&[f64]> = payload.iter().map(Vec::as_slice).collect();
    let keys: Vec<QueryKey> = (base..base + payload.len() as u64)
        .map(|i| QueryKey::new(seed, i))
        .collect();
    reference.observe_batch_keyed(&inputs, &keys).map_err(err)
}

fn us(start: Instant) -> f64 {
    secs(start) * 1e6
}

/// Times, from outside, each layer's public call on the shapes of one
/// request that just completed: client encode, server decode, the
/// journaled reservation, keyed observation, server encode, client
/// decode. Returns the sample and the observation for the reply check.
fn time_layers(
    conn: &Conn,
    side: &mut SessionManager,
    reference: &Oracle,
    payload: &[Vec<f64>],
    records: &[QueryRecord],
    base: u64,
) -> Result<(Sample, Vec<Observation>), String> {
    let mut s = Sample::default();
    let start = Instant::now();
    let mut request = Request::new("query");
    request.session = Some(conn.session.clone());
    request.inputs = Some(payload.to_vec());
    let line = serde_json::to_string(&request).map_err(err)?;
    s.client_encode = us(start);

    let start = Instant::now();
    std::hint::black_box(serde_json::from_str::<Request>(&line).map_err(err)?);
    s.server_decode = us(start);

    let start = Instant::now();
    side.reserve(&conn.session, payload.len() as u64)
        .map_err(|r| r.message)?;
    s.reserve = us(start);

    let start = Instant::now();
    let expected = observe(reference, payload, conn.seed, base)?;
    s.observe = us(start);

    let status = SessionStatus {
        session: conn.session.clone(),
        victim: VICTIM.to_string(),
        seed: conn.seed,
        budget: None,
        used: base + payload.len() as u64,
    };
    let response = Response::success("query")
        .with_status(status)
        .with_records(records.to_vec());
    let start = Instant::now();
    let reply = serde_json::to_string(&response).map_err(err)?;
    s.server_encode = us(start);

    let start = Instant::now();
    std::hint::black_box(serde_json::from_str::<Response>(&reply).map_err(err)?);
    s.client_decode = us(start);

    s.request_bytes = (line.len() + 1) as f64;
    s.response_bytes = (reply.len() + 1) as f64;
    Ok((s, expected))
}

/// One connection's share of a round.
fn drive(
    conn: &mut Conn,
    reference: &Oracle,
    payloads: &[Vec<Vec<f64>>],
    p: &Params,
    mut side: Option<&mut SessionManager>,
    tamper: bool,
) -> Result<ConnRound, String> {
    let mut out = ConnRound::default();
    for k in 0..p.requests {
        let payload = &payloads[conn.sent % payloads.len()];
        conn.sent += 1;
        let base = conn.next;
        conn.next += payload.len() as u64;
        let start = Instant::now();
        let reply = conn.client.query(&conn.session, payload);
        let latency = us(start);
        out.latencies_us.push(latency);
        let Ok(mut records) = reply else {
            out.checks.record(false);
            continue;
        };
        let mut ok =
            records.len() == payload.len() && records.iter().zip(base..).all(|(r, i)| r.index == i);
        if tamper {
            if let Some(first) = records.first_mut() {
                first.observation.power = f64::from_bits(first.observation.power.to_bits() ^ 1);
            }
        }
        let expected = match side.as_deref_mut() {
            Some(side) if k % p.trace_every == 0 => {
                let (mut sample, expected) =
                    time_layers(conn, side, reference, payload, &records, base)?;
                sample.latency = latency;
                out.samples.push(sample);
                Some(expected)
            }
            _ if k % p.check_every == 0 => Some(observe(reference, payload, conn.seed, base)?),
            _ => None,
        };
        if let Some(expected) = expected {
            ok &= expected.len() == records.len()
                && expected
                    .iter()
                    .zip(&records)
                    .all(|(e, r)| same_bits(e, &r.observation));
        }
        out.checks.record(ok);
    }
    Ok(out)
}

/// Sums `(count, sum)` of the named histogram over every scope of a
/// `stats` snapshot, or `None` when the snapshot does not carry it.
fn histogram_total(stats: &serde::Value, name: &str) -> Option<(u64, u64)> {
    let field = |v: &serde::Value, key: &str| match v.get(key) {
        Some(serde::Value::U64(x)) => Some(*x),
        _ => None,
    };
    let mut total = None;
    for (_, scope) in stats.get("victims")?.as_object()? {
        if let Some(h) = scope.get("histograms").and_then(|hs| hs.get(name)) {
            let (count, sum) = total.unwrap_or((0, 0));
            total = Some((count + field(h, "count")?, sum + field(h, "sum")?));
        }
    }
    total
}

/// The service's own view of the traced phase, read best-effort from
/// the `stats` op: mean microseconds per observation of each named
/// histogram between two scrapes. Names the service no longer records
/// are skipped.
fn stats_rows(before: &serde::Value, after: &serde::Value) -> Vec<LayerRow> {
    [
        ("serve.stats.queue_wait_us", "serve.queue_wait_ns"),
        ("serve.stats.request_us", "serve.request_ns"),
        ("serve.stats.journal_write_us", "serve.journal_write_ns"),
    ]
    .into_iter()
    .filter_map(|(row, histogram)| {
        let (c0, s0) = histogram_total(before, histogram)?;
        let (c1, s1) = histogram_total(after, histogram)?;
        let count = c1.checked_sub(c0).filter(|&c| c > 0)?;
        let sum = s1.checked_sub(s0)?;
        Some(LayerRow::info(row, sum as f64 / count as f64 / 1e3, "us"))
    })
    .collect()
}

/// Runs `mode`.
pub fn run(cfg: &RunConfig, mode: Mode) -> Result<Outcome, String> {
    run_with(cfg, mode, Params::of(mode, cfg.scale), false)
}

/// Journaled session managers beside the server's, one per connection,
/// that give the reservation layer its own timing on traced rounds.
fn side_managers(
    cfg: &RunConfig,
    p: &Params,
    service: &Service,
) -> Result<Vec<SessionManager>, String> {
    let mut registry = VictimRegistry::new();
    registry
        .insert(VICTIM, service.reference.clone())
        .map_err(err)?;
    let mut sides = Vec::new();
    for (i, conn) in service.conns.iter().enumerate() {
        let path = cfg.work_dir.join(format!("reserve-journal-{i}.jsonl"));
        let mut side = SessionManager::with_journal(p.connections, &path).map_err(err)?;
        side.open(
            &conn.session,
            Some(VICTIM),
            Some(conn.seed),
            None,
            &registry,
        )
        .map_err(|r| r.message)?;
        sides.push(side);
    }
    Ok(sides)
}

/// The timed rounds, every connection driving its session in parallel;
/// on traced rounds sampled requests are also timed layer by layer.
fn rounds(
    cfg: &RunConfig,
    p: &Params,
    service: &mut Service,
    checks: &mut Checks,
    tamper: bool,
) -> Result<(Vec<Round>, Option<Trace>), String> {
    let mut sides = if cfg.trace {
        side_managers(cfg, p, service)?
    } else {
        Vec::new()
    };
    let before = cfg
        .trace
        .then(|| service.conns[0].client.stats())
        .transpose()
        .map_err(err)?;
    let mut samples = Vec::new();
    let (untraced, traced) = measure(cfg, |_, trace| {
        let Service {
            conns,
            reference,
            payloads,
            ..
        } = &mut *service;
        let (reference, payloads) = (&*reference, &*payloads);
        let start = Instant::now();
        let per_conn = std::thread::scope(|scope| {
            let mut side_iter = sides.iter_mut().filter(|_| trace);
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let side = side_iter.next();
                    scope.spawn(move || drive(conn, reference, payloads, p, side, tamper))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "connection thread panicked".to_string())
                        .and_then(|r| r)
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let wall_s = secs(start);
        let mut latencies_us = Vec::new();
        for conn in per_conn {
            latencies_us.extend(conn.latencies_us);
            checks.attempted += conn.checks.attempted;
            checks.failed += conn.checks.failed;
            samples.extend(conn.samples);
        }
        Ok(Round {
            wall_s,
            units: latencies_us.len() as u64,
            queries: (latencies_us.len() * p.batch) as u64,
            latencies_us,
        })
    })?;
    let trace = match before {
        Some(before) => {
            let after = service.conns[0].client.stats().map_err(err)?;
            Some(breakdown(p, traced, &samples, &before, &after))
        }
        None => None,
    };
    Ok((untraced, trace))
}

/// Runs `mode` at `p`. With `tamper`, every received reply is corrupted
/// by one bit before it is checked — the tests' proof that a wrong
/// reply is caught.
fn run_with(cfg: &RunConfig, mode: Mode, p: Params, tamper: bool) -> Result<Outcome, String> {
    let (mut service, setups) = repeated_setup(
        SETUP_REPEATS,
        |k, times| setup(cfg, &p, k, times),
        Service::stop,
    )?;
    let mut checks = Checks::default();
    let result = rounds(cfg, &p, &mut service, &mut checks, tamper);
    service.stop();
    let (rounds, trace) = result?;
    Ok(Outcome {
        workload: match mode {
            Mode::Solo => "serve-solo",
            Mode::Bulk => "serve-bulk",
        },
        setups,
        rounds,
        attempted: checks.attempted,
        failed: checks.failed,
        trace,
        peak_rss_mib: crate::workload::peak_rss_mib()?,
    })
}

/// The per-request table over the sampled requests: the six layers
/// timed from outside plus `serve.residual_us` — queueing, the
/// coalescer's wait and the socket.
fn breakdown(
    p: &Params,
    rounds: Vec<Round>,
    samples: &[Sample],
    before: &serde::Value,
    after: &serde::Value,
) -> Trace {
    let avg = |f: fn(&Sample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    let part = |name, f: fn(&Sample) -> f64| LayerRow::part(name, avg(f), "us", avg(f));
    let observe_us = avg(|s| s.observe);
    let mut rows = vec![
        part("serve.client_encode_us", |s| s.client_encode),
        part("serve.server_decode_us", |s| s.server_decode),
        part("serve.reserve_us", |s| s.reserve),
        part("core.observe_us", |s| s.observe),
        part("serve.server_encode_us", |s| s.server_encode),
        part("serve.client_decode_us", |s| s.client_decode),
        LayerRow::info("serve.request_bytes", avg(|s| s.request_bytes), "bytes"),
        LayerRow::info("serve.response_bytes", avg(|s| s.response_bytes), "bytes"),
    ];
    rows.extend(stats_rows(before, after));
    Trace::with_residual(
        "request",
        "us",
        avg(|s| s.latency),
        ("serve.residual_us", 1.0),
        rows,
        rounds,
        observe_us * 1e3 / p.batch as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkDir;

    #[test]
    fn a_corrupted_reply_is_counted_as_failed() {
        let work = WorkDir::create(std::path::Path::new(".xbar-perf-work"), "tamper").unwrap();
        let cfg = RunConfig {
            seed: 3,
            seconds: 0.0,
            trace: false,
            scale: Scale::Smoke,
            work_dir: work.path().to_path_buf(),
        };
        let out = run_with(&cfg, Mode::Solo, Params::of(Mode::Solo, Scale::Smoke), true).unwrap();
        assert!(out.attempted > 0);
        assert!(out.failed > 0, "tampered replies went unnoticed");
        assert!(out.failed < out.attempted, "unchecked replies failed too");
    }

    #[test]
    fn stats_rows_take_deltas_and_skip_missing_names() {
        let snapshot = |count: u64, sum: u64| {
            serde_json::parse_value(&format!(
                r#"{{"victims":{{"victim":{{"histograms":{{"serve.request_ns":{{"count":{count},"sum":{sum}}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = stats_rows(&snapshot(10, 50_000), &snapshot(30, 250_000));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "serve.stats.request_us");
        assert!((rows[0].value - 10.0).abs() < 1e-12);
    }
}
