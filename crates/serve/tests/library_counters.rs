//! The service's `stats` carry the library's own counters: each
//! connection handler installs its metrics shard as the ambient
//! `xbar-obs` scope of the session's victim while it evaluates a
//! query, so the oracle and crossbar
//! instrumentation (`oracle.query`, `xbar.mvm_batch`,
//! `xbar.power_read`) lands in the victim's section next to the
//! service's own metrics.

use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_crossbar::power::PowerModel;
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;
use xbar_serve::{Client, ServeConfig, Server, VictimRegistry};

fn registry() -> VictimRegistry {
    let net = SingleLayerNet::from_weights(
        Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
        Activation::Identity,
    );
    let cfg = OracleConfig::ideal()
        .with_access(OutputAccess::Raw)
        .with_power(PowerModel::default().with_noise(0.05));
    let mut registry = VictimRegistry::new();
    registry
        .insert("toy", Oracle::new(net, &cfg, 11).unwrap())
        .unwrap();
    registry
}

fn section<'a>(stats: &'a serde::Value, kind: &str) -> &'a serde::Value {
    stats
        .get("victims")
        .and_then(|v| v.get("toy"))
        .and_then(|toy| toy.get(kind))
        .unwrap_or_else(|| panic!("no toy/{kind} section in {stats:?}"))
}

fn counter(stats: &serde::Value, name: &str) -> u64 {
    match section(stats, "counters").get(name) {
        Some(serde::Value::U64(n)) => *n,
        other => panic!("counter toy/{name} is {other:?}"),
    }
}

#[test]
fn stats_carry_library_counters_for_one_scripted_session() {
    // One session of k = 10 queries in three requests (three keyed
    // evaluations).
    let jobs = [4usize, 3, 3];
    let k: usize = jobs.iter().sum();
    let server = Server::start("127.0.0.1:0", registry(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.hello("s", Some("toy"), Some(5), None).unwrap();
    for (j, &n) in jobs.iter().enumerate() {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|q| vec![0.1 * q as f64, 0.2, 0.05 * j as f64])
            .collect();
        assert_eq!(client.query("s", &inputs).unwrap().len(), n);
    }
    let stats = client.stats().unwrap();
    drop(client);
    server.shutdown();

    assert_eq!(counter(&stats, "oracle.query"), k as u64);
    assert_eq!(counter(&stats, "serve.queries"), k as u64);
    assert_eq!(counter(&stats, "serve.sessions"), 1);
    assert!(counter(&stats, "xbar.mvm_batch") > 0, "{stats:?}");
    assert!(counter(&stats, "xbar.power_read") > 0, "{stats:?}");
    let eval = section(&stats, "histograms")
        .get("serve.eval_ns")
        .expect("evaluation-time histogram");
    assert_eq!(
        eval.get("count"),
        Some(&serde::Value::U64(jobs.len() as u64))
    );
}
