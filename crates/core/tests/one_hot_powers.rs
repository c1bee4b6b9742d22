//! The power-only one-hot path against the general one: for random
//! victims, fault specs, transients, drift schedules that cross an
//! epoch mid-scan, every backend, output access and noise setting, and
//! amplitudes of either sign, `Oracle::one_hot_powers` returns the
//! powers `Oracle::query_batch` returns for the materialised rows, bit
//! for bit, and leaves the oracle in the same state: the same query
//! count, the same next query (index and observation), and the same
//! budget refusal.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{DriftSchedule, Oracle, OracleConfig, OutputAccess, QueryRecord};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

/// A call's powers as bit patterns, or its error's rendering.
fn power_bits(result: xbar_core::Result<Vec<f64>>) -> Result<Vec<u64>, String> {
    result
        .map(|powers| powers.iter().map(|p| p.to_bits()).collect())
        .map_err(|e| format!("{e:?}"))
}

/// A record with every float as its bit pattern, or the error's
/// rendering.
fn record_bits(result: xbar_core::Result<QueryRecord>) -> Result<String, String> {
    result
        .map(|r| {
            let output: Option<Vec<u64>> = r
                .observation
                .output
                .map(|y| y.iter().map(|v| v.to_bits()).collect());
            format!(
                "{} {:?} {:?} {}",
                r.index,
                output,
                r.observation.label,
                r.observation.power.to_bits()
            )
        })
        .map_err(|e| format!("{e:?}"))
}

/// `query_batch` over the materialised rows `beta · e_j`, powers only.
fn materialised(oracle: &mut Oracle, columns: &[usize], beta: f64) -> xbar_core::Result<Vec<f64>> {
    let rows: Vec<Vec<f64>> = columns
        .iter()
        .map(|&j| {
            let mut row = vec![0.0; oracle.num_inputs()];
            row[j] = beta;
            row
        })
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Ok(oracle
        .query_batch(&refs)?
        .into_iter()
        .map(|r| r.observation.power)
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_hot_powers_equal_query_batch(
        m in 1usize..6,
        n in 1usize..12,
        seed in any::<u64>(),
        fault_kind in 0usize..3,
        transients in any::<bool>(),
        g_min in prop::sample::select(vec![0.0, 0.02]),
        sign in prop::sample::select(vec![-1.0, 0.0, 1.0]),
        magnitude in 0.05f64..3.0,
        scan_len in 1usize..20,
        interval in 1u64..8,
        budget_slack in 0usize..3,
    ) {
        let beta = sign * magnitude;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        let net = SingleLayerNet::from_weights(weights, Activation::Softmax);
        let columns: Vec<usize> = (0..scan_len).map(|i| (i * 7 + seed as usize) % n).collect();
        let probe: Vec<f64> = (0..n).map(|j| 0.1 + j as f64 / n as f64).collect();
        let key = FaultKey::new(seed, 1);
        // 0: no faults; 1: stuck devices and variation (stuck-off lines
        // read zero totals when `g_min = 0`); 2: drift on a schedule
        // whose epochs end inside the scans.
        let faults = match fault_kind {
            0 => None,
            1 => Some(
                FaultSpec::none()
                    .with_stuck_off_rate(0.3)
                    .with_stuck_on_rate(0.1)
                    .with_variation_sigma(0.05),
            ),
            _ => Some(FaultSpec::none().with_drift(0.1, 0.05, 1.0)),
        };
        // Room for the first scan and, unless the slack is zero, the
        // second; a zero slack makes the second scan the refused one.
        let budget = 2 * scan_len - 1 + budget_slack;

        for backend in ["naive", "blocked", "parallel:2"] {
            let backend: BackendSpec = backend.parse().unwrap();
            for access in [OutputAccess::None, OutputAccess::LabelOnly, OutputAccess::Raw] {
                for (power_noise, read_noise) in [(0.0, 0.0), (0.02, 0.0), (0.02, 0.03)] {
                    let device = DeviceModel {
                        g_min,
                        program_sigma: 0.05,
                        ..DeviceModel::ideal()
                    }
                    .with_read_sigma(read_noise);
                    let mut cfg = OracleConfig::ideal()
                        .with_device(device)
                        .with_power(PowerModel::default().with_noise(power_noise))
                        .with_access(access)
                        .with_backend(backend)
                        .with_query_budget(budget);
                    if let Some(spec) = faults {
                        cfg = cfg.with_faults(FaultInjection::new(spec, key));
                    }
                    if fault_kind == 2 {
                        cfg = cfg.with_drift_schedule(DriftSchedule::every(interval, 25.0));
                    }
                    if transients {
                        cfg = cfg.with_transients(TransientInjection::new(
                            TransientSpec::none().with_flip_rate(0.05).with_jitter_sigma(0.02),
                            key,
                        ));
                    }
                    let where_ = format!(
                        "{backend} {access:?} power_noise={power_noise} read_noise={read_noise}"
                    );
                    let mut fast = Oracle::new(net.clone(), &cfg, seed).unwrap();
                    let mut reference = Oracle::new(net.clone(), &cfg, seed).unwrap();
                    for scan in 0..2 {
                        prop_assert!(
                            power_bits(fast.one_hot_powers(&columns, beta))
                                == power_bits(materialised(&mut reference, &columns, beta)),
                            "scan {} {}",
                            scan,
                            where_
                        );
                        prop_assert_eq!(fast.query_count(), reference.query_count());
                        prop_assert_eq!(fast.queries_issued(), reference.queries_issued());
                        prop_assert_eq!(fast.drift_time().to_bits(), reference.drift_time().to_bits());
                    }
                    prop_assert!(
                        record_bits(fast.query(&probe)) == record_bits(reference.query(&probe)),
                        "next query {}",
                        where_
                    );
                }
            }
        }
    }
}
