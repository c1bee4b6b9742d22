//! The serve-side extension of the batch/thread/backend invariance
//! contract: a session's `QueryRecord` stream is bit-identical whether
//! it is computed directly on the oracle, served alone, served
//! interleaved with seven other sessions on the same victim, or driven
//! from two connections at once.

use std::sync::Barrier;

use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess, QueryRecord};
use xbar_crossbar::backend::BackendKind;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultKey, TransientInjection, TransientSpec};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{Client, ServeConfig, Server, VictimRegistry};

const SESSIONS: usize = 8;
const QUERIES_PER_SESSION: usize = 12;
const INPUT_DIM: usize = 4;

/// A victim with every noise source live: noisy power, noisy reads,
/// per-query transients — the hardest case for the keying to get right.
fn victim() -> Oracle {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[
            &[1.0, -0.5, 0.2, 0.8],
            &[0.25, 0.5, -1.0, 0.1],
            &[-0.3, 0.9, 0.4, -0.7],
        ]),
        Activation::Identity,
    );
    let device = DeviceModel {
        g_min: 0.05,
        g_max: 1.0,
        read_sigma: 0.01,
        ..DeviceModel::ideal()
    };
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::Raw)
        .with_device(device)
        .with_backend(BackendKind::Blocked)
        .with_power(PowerModel::default().with_noise(0.05))
        .with_transients(TransientInjection::new(
            TransientSpec::none()
                .with_flip_rate(0.05)
                .with_jitter_sigma(0.02),
            FaultKey::new(91, 2),
        ));
    Oracle::new(net, &cfg, 4242).unwrap()
}

fn session_seed(s: usize) -> u64 {
    1000 + s as u64
}

/// Session `s`'s deterministic input stream.
fn session_inputs(s: usize) -> Vec<Vec<f64>> {
    (0..QUERIES_PER_SESSION)
        .map(|q| {
            (0..INPUT_DIM)
                .map(|j| (((s * 31 + q * 7 + j) as f64) * 0.37).sin())
                .collect()
        })
        .collect()
}

/// Ground truth: the session querying its own private view directly, no
/// server involved.
fn direct_records(deployed: &Oracle, s: usize) -> Vec<QueryRecord> {
    let mut view = deployed.session_view(session_seed(s), None);
    let inputs = session_inputs(s);
    let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    view.query_batch(&refs).unwrap()
}

fn server() -> Server {
    let mut registry = VictimRegistry::new();
    registry.insert("victim", victim()).unwrap();
    Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap()
}

/// Uneven batch splits (1, then 3s, then the rest) so concurrent
/// requests interleave at misaligned query offsets.
const SPLITS: [usize; 4] = [1, 3, 3, QUERIES_PER_SESSION - 7];

/// Drives session `s` over its own connection in uneven batch splits,
/// returning the served records.
fn drive_session(addr: std::net::SocketAddr, s: usize) -> Vec<QueryRecord> {
    let mut client = Client::connect(addr).unwrap();
    let id = format!("session-{s}");
    let status = client
        .hello(&id, Some("victim"), Some(session_seed(s)), None)
        .unwrap();
    assert_eq!(status.used, 0);
    let inputs = session_inputs(s);
    let mut records = Vec::new();
    let mut offset = 0;
    for take in SPLITS {
        records.extend(client.query(&id, &inputs[offset..offset + take]).unwrap());
        offset += take;
    }
    assert_eq!(offset, QUERIES_PER_SESSION);
    client.close(&id).unwrap();
    records
}

#[test]
fn solo_session_matches_direct_evaluation_bit_for_bit() {
    let deployed = victim();
    let server = server();
    let addr = server.local_addr();
    for s in [0, 3] {
        let served = drive_session(addr, s);
        assert_eq!(served, direct_records(&deployed, s), "session {s}");
    }
    server.shutdown();
}

#[test]
fn interleaved_sessions_match_solo_on_every_run() {
    let deployed = victim();
    let baselines: Vec<Vec<QueryRecord>> = (0..SESSIONS)
        .map(|s| direct_records(&deployed, s))
        .collect();

    for run in 1..=3 {
        let server = server();
        let addr = server.local_addr();
        let served: Vec<Vec<QueryRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|s| scope.spawn(move || drive_session(addr, s)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, (got, want)) in served.iter().zip(&baselines).enumerate() {
            assert_eq!(got, want, "session {s} diverged under load on run {run}");
        }
        server.shutdown();
    }
}

#[test]
fn shared_hardware_is_actually_shared() {
    // Two sessions with the same seed see the same noise; two sessions
    // with different seeds see different noise on the same hardware —
    // the keying, not the victim, is what separates tenants.
    let server = server();
    let addr = server.local_addr();
    let inputs = session_inputs(0);

    let mut a = Client::connect(addr).unwrap();
    a.hello("a", Some("victim"), Some(5), None).unwrap();
    let ra = a.query("a", &inputs[..2]).unwrap();

    let mut b = Client::connect(addr).unwrap();
    b.hello("b", Some("victim"), Some(5), None).unwrap();
    let rb = b.query("b", &inputs[..2]).unwrap();

    let mut c = Client::connect(addr).unwrap();
    c.hello("c", Some("victim"), Some(6), None).unwrap();
    let rc = c.query("c", &inputs[..2]).unwrap();

    assert_eq!(ra, rb, "same seed, same queries, same records");
    assert_ne!(ra, rc, "different seeds must draw different noise");
    server.shutdown();
}

#[test]
fn one_session_from_two_connections_numbers_every_query_once() {
    // Both connections evaluate on their own threads; only the
    // reservation under the session lock orders them. Whatever the
    // race, each index is served once, and the record at each index is
    // the one the session's private view computes for the input that
    // index was given.
    const CONNECTIONS: usize = 2;
    const TOTAL: usize = CONNECTIONS * QUERIES_PER_SESSION;
    let deployed = victim();
    let server = server();
    let addr = server.local_addr();
    let seed = session_seed(0);
    let mut opener = Client::connect(addr).unwrap();
    opener
        .hello("shared", Some("victim"), Some(seed), None)
        .unwrap();

    let (start, done) = (Barrier::new(CONNECTIONS), Barrier::new(CONNECTIONS));
    let streams: Vec<Vec<(Vec<f64>, QueryRecord)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (start, done) = (&start, &done);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.hello("shared", None, None, None).unwrap();
                    start.wait();
                    // Distinct input streams, so a record paired with
                    // the wrong input cannot match its reference.
                    let inputs = session_inputs(c + 1);
                    let mut served = Vec::new();
                    let mut offset = 0;
                    for take in SPLITS {
                        let batch = &inputs[offset..offset + take];
                        let records = client.query("shared", batch).unwrap();
                        served.extend(batch.iter().cloned().zip(records));
                        offset += take;
                    }
                    // Hold on until the other stream is done too, so
                    // the two connections race for the whole run.
                    done.wait();
                    served
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut by_index: Vec<Option<(Vec<f64>, QueryRecord)>> = vec![None; TOTAL];
    for (input, record) in streams.into_iter().flatten() {
        let index = record.index as usize;
        assert!(
            index < TOTAL,
            "index {index} beyond the {TOTAL} queries sent"
        );
        assert!(by_index[index].is_none(), "index {index} served twice");
        by_index[index] = Some((input, record));
    }
    let served: Vec<(Vec<f64>, QueryRecord)> = by_index
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.unwrap_or_else(|| panic!("index {index} never served")))
        .collect();
    let inputs: Vec<&[f64]> = served.iter().map(|(input, _)| input.as_slice()).collect();
    let want = deployed
        .session_view(seed, None)
        .query_batch(&inputs)
        .unwrap();
    for ((_, got), want) in served.iter().zip(&want) {
        assert_eq!(got, want, "record at index {}", want.index);
    }
    drop(opener);
    server.shutdown();
}

#[test]
fn a_session_outlives_one_of_its_two_connections() {
    // Connection `a` opens the session and `b` attaches to it. `a`
    // closes halfway, and a third connection `c` hangs up without
    // closing, whenever the server sees that; `b` must finish the
    // stream with no `unknown_session`, and every record must be the
    // session view's.
    let deployed = victim();
    let server = server();
    let addr = server.local_addr();
    let inputs = session_inputs(0);
    let mut a = Client::connect(addr).unwrap();
    a.hello("shared", Some("victim"), Some(session_seed(0)), None)
        .unwrap();
    let mut b = Client::connect(addr).unwrap();
    b.hello("shared", None, None, None).unwrap();
    let mut served = a.query("shared", &inputs[..3]).unwrap();
    served.extend(b.query("shared", &inputs[3..5]).unwrap());
    let closed = a.close("shared").unwrap();
    assert_eq!(closed.used, 5);
    drop(a);
    served.extend(b.query("shared", &inputs[5..7]).unwrap());

    let mut c = Client::connect(addr).unwrap();
    c.hello("shared", None, None, None).unwrap();
    served.extend(c.query("shared", &inputs[7..8]).unwrap());
    drop(c);
    for batch in inputs[8..].chunks(2) {
        served.extend(b.query("shared", batch).unwrap());
    }
    assert_eq!(served, direct_records(&deployed, 0));
    assert_eq!(b.close("shared").unwrap().used, QUERIES_PER_SESSION as u64);
    server.shutdown();
}
