//! Journal-backed session resume: a session killed mid-budget
//! reconnects — possibly to a *restarted* server — and its budget
//! remainder and global query index continue exactly, with the served
//! records still bit-identical to the uninterrupted stream. Includes
//! the torn-tail repair path: garbage after the journal's last complete
//! record (a server killed mid-write) must be dropped, not merged.

use std::io::Write;
use std::path::{Path, PathBuf};

use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess, QueryRecord};
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{Client, ServeConfig, Server, VictimRegistry};

const BUDGET: u64 = 10;
const SEED: u64 = 77;

fn victim() -> Oracle {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
        Activation::Identity,
    );
    let device = DeviceModel {
        read_sigma: 0.01,
        ..DeviceModel::ideal()
    };
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::Raw)
        .with_device(device)
        .with_power(PowerModel::default().with_noise(0.05));
    Oracle::new(net, &cfg, 909).unwrap()
}

fn inputs() -> Vec<Vec<f64>> {
    (0..BUDGET as usize)
        .map(|q| (0..3).map(|j| ((q * 3 + j) as f64 * 0.41).cos()).collect())
        .collect()
}

fn start_server(journal: &Path) -> Server {
    let mut registry = VictimRegistry::new();
    registry.insert("victim", victim()).unwrap();
    let config = ServeConfig {
        journal: Some(journal.to_path_buf()),
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", registry, config).unwrap()
}

fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("xbar_serve_resume_{}_{}", name, std::process::id()));
    path
}

#[test]
fn killed_session_resumes_budget_and_index_exactly() {
    let journal = temp_journal("kill");
    std::fs::remove_file(&journal).ok();
    let all_inputs = inputs();

    // The uninterrupted stream, straight off the oracle: what the
    // session would have seen had nothing died.
    let uninterrupted: Vec<QueryRecord> = {
        let mut view = victim().session_view(SEED, Some(BUDGET as usize));
        let refs: Vec<&[f64]> = all_inputs.iter().map(Vec::as_slice).collect();
        view.query_batch(&refs).unwrap()
    };

    // Phase 1: consume 4 of 10, then die without closing (the server
    // goes down with the connection still attached).
    let before: Vec<QueryRecord> = {
        let server = start_server(&journal);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let status = client
            .hello("s1", Some("victim"), Some(SEED), Some(BUDGET))
            .unwrap();
        assert_eq!(status.used, 0);
        let records = client.query("s1", &all_inputs[..4]).unwrap();
        server.shutdown();
        records
    };
    assert_eq!(before, uninterrupted[..4], "pre-kill records diverged");

    // Simulate a kill mid-journal-write: a torn fragment after the last
    // complete record.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    file.write_all(b"{\"kind\":\"xbar-serve-session\",\"session\":\"s1\",\"vic")
        .unwrap();
    drop(file);

    // Phase 2: a fresh server on the same journal. The session resumes
    // with 6 of 10 remaining at index 4, and the remaining records are
    // bit-identical to the uninterrupted stream.
    let server = start_server(&journal);
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Resume needs no victim/seed/budget — the journal has them.
    let status = client.hello("s1", None, None, None).unwrap();
    assert_eq!(status.victim, "victim");
    assert_eq!(status.seed, SEED);
    assert_eq!(status.budget, Some(BUDGET));
    assert_eq!(status.used, 4, "journal lost the reservation");

    // Over-budget batch is all-or-nothing: nothing consumed.
    let err = client.query("s1", &all_inputs[3..]).unwrap_err();
    assert!(err.to_string().contains("budget_exhausted"), "{err}");

    let after = client.query("s1", &all_inputs[4..]).unwrap();
    assert_eq!(after, uninterrupted[4..], "post-resume records diverged");

    // Budget is now spent to the last query.
    let err = client.query("s1", &all_inputs[..1]).unwrap_err();
    assert!(err.to_string().contains("budget_exhausted"), "{err}");
    server.shutdown();
    std::fs::remove_file(&journal).ok();
}

#[test]
fn resume_conflicts_and_reattach_within_one_server() {
    let journal = temp_journal("reattach");
    std::fs::remove_file(&journal).ok();
    let all_inputs = inputs();
    let server = start_server(&journal);
    let addr = server.local_addr();

    {
        let mut client = Client::connect(addr).unwrap();
        client
            .hello("s1", Some("victim"), Some(SEED), Some(BUDGET))
            .unwrap();
        client.query("s1", &all_inputs[..2]).unwrap();
        client.close("s1").unwrap();
    }
    // Reconnect on a new connection, same server: state carried over.
    let mut client = Client::connect(addr).unwrap();
    let status = client.hello("s1", None, None, None).unwrap();
    assert_eq!(status.used, 2);
    // A contradictory resume is refused.
    let err = client
        .hello("s1", Some("victim"), Some(SEED + 1), None)
        .unwrap_err();
    assert!(err.to_string().contains("conflict"), "{err}");
    server.shutdown();
    std::fs::remove_file(&journal).ok();
}
