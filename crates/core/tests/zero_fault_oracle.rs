//! The zero-fault contract, checked on the path faults take to the
//! hardware: an oracle carrying an empty `FaultInjection` and an empty
//! `TransientInjection` returns observations bit-identical to an oracle
//! configured with neither — on every backend, with power and read
//! noise on or off, at every output access level, through both the
//! attacker's `query_batch` and the serving path's
//! `observe_batch_keyed`.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{Observation, Oracle, OracleConfig, OutputAccess, QueryKey};
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

/// Every float of an observation as its bit pattern, so equality means
/// bit-identical rather than `==` on floats.
fn bits(observations: &[Observation]) -> Vec<(Option<Vec<u64>>, Option<usize>, u64)> {
    observations
        .iter()
        .map(|o| {
            let output = o
                .output
                .as_ref()
                .map(|y| y.iter().map(|v| v.to_bits()).collect());
            (output, o.label, o.power.to_bits())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn empty_injections_are_bit_identical_to_none(
        m in 1usize..8,
        n in 1usize..12,
        batch in 1usize..7,
        seed in any::<u64>(),
        trial in any::<u64>(),
        key_base in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        let net = SingleLayerNet::from_weights(weights, Activation::Softmax);
        let inputs = Matrix::random_uniform(batch, n, 0.0, 1.0, &mut rng);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();
        let keys: Vec<QueryKey> = (0..batch as u64)
            .map(|i| QueryKey::new(seed ^ (i % 2), key_base + 3 * i))
            .collect();
        let fault_key = FaultKey::new(seed, trial);

        for backend in ["naive", "blocked", "parallel:2"] {
            let backend: BackendSpec = backend.parse().unwrap();
            for access in [OutputAccess::None, OutputAccess::LabelOnly, OutputAccess::Raw] {
                for (power_noise, read_noise) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let device = DeviceModel {
                        g_min: 0.02,
                        program_sigma: 0.05,
                        ..DeviceModel::ideal()
                    }
                    .with_read_sigma(if read_noise { 0.03 } else { 0.0 });
                    let power =
                        PowerModel::default().with_noise(if power_noise { 0.02 } else { 0.0 });
                    let plain_cfg = OracleConfig::ideal()
                        .with_device(device)
                        .with_power(power)
                        .with_access(access)
                        .with_backend(backend);
                    let empty_cfg = plain_cfg
                        .with_faults(FaultInjection::new(FaultSpec::none(), fault_key))
                        .with_transients(TransientInjection::new(
                            TransientSpec::none(),
                            fault_key,
                        ));
                    let where_ = format!(
                        "{backend} {access:?} power_noise={power_noise} read_noise={read_noise}"
                    );
                    let mut plain = Oracle::new(net.clone(), &plain_cfg, seed).unwrap();
                    let mut empty = Oracle::new(net.clone(), &empty_cfg, seed).unwrap();
                    // Two batches, so the second reads later query indices.
                    for _ in 0..2 {
                        let a: Vec<Observation> = plain
                            .query_batch(&refs)
                            .unwrap()
                            .into_iter()
                            .map(|r| r.observation)
                            .collect();
                        let b: Vec<Observation> = empty
                            .query_batch(&refs)
                            .unwrap()
                            .into_iter()
                            .map(|r| r.observation)
                            .collect();
                        prop_assert!(bits(&a) == bits(&b), "query_batch {}", where_);
                    }
                    prop_assert!(
                        bits(&plain.observe_batch_keyed(&refs, &keys).unwrap())
                            == bits(&empty.observe_batch_keyed(&refs, &keys).unwrap()),
                        "observe_batch_keyed {}",
                        where_
                    );
                }
            }
        }
    }
}
