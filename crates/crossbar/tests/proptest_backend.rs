//! Property-based tests of the evaluation backends: the blocked and
//! parallel kernels must be *bit-identical* to the naive per-vector
//! loop — not merely close — for every crossbar shape, batch size, tile
//! configuration, thread count, batch split, seed, and noise stream.
//! Exact `==` on the floats everywhere. Plus the prepared-handle
//! staleness contract: reuse across `map_conductances` (the primitive
//! under re-programming, fault application, and drift redeployment) is
//! an error, never silently wrong numbers.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BatchConfig, BlockedBackend, EvalBackend, NaiveBackend};
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_crossbar::CrossbarError;
use xbar_linalg::Matrix;

fn programmed(m: usize, n: usize, seed: u64, device: &DeviceModel) -> CrossbarArray {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
    if w.max_abs() == 0.0 {
        w[(0, 0)] = 0.5;
    }
    CrossbarArray::program(&w, device, &mut rng).unwrap()
}

fn sample_batch(batch: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0);
    Matrix::random_uniform(batch, n, -1.0, 1.0, &mut rng)
}

/// The oracle's per-query noise-stream scheme: one ChaCha stream per
/// batch index, so draws are independent of batching and backend.
fn streams(seed: u64) -> impl FnMut(usize) -> ChaCha8Rng {
    move |i| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(i as u64 + 1);
        rng
    }
}

/// Prepare-once shorthand: the equivalence properties compare backends
/// on single batches, where "prepare, evaluate, drop" is the lifecycle.
fn mvm<B: EvalBackend + ?Sized>(
    backend: &B,
    array: &CrossbarArray,
    inputs: &[&[f64]],
) -> Result<Vec<Vec<f64>>, CrossbarError> {
    let prepared = backend.prepare(array)?;
    backend.mvm_prepared(&prepared, array, inputs)
}

fn power<B: EvalBackend + ?Sized>(
    backend: &B,
    model: &PowerModel,
    array: &CrossbarArray,
    inputs: &[&[f64]],
) -> Result<Vec<f64>, CrossbarError> {
    let prepared = backend.prepare(array)?;
    backend.power_prepared(model, &prepared, array, inputs)
}

fn noisy_mvm<B: EvalBackend + ?Sized>(
    backend: &B,
    array: &CrossbarArray,
    inputs: &[&[f64]],
    mut streams: impl FnMut(usize) -> ChaCha8Rng,
) -> Result<Vec<Vec<f64>>, CrossbarError> {
    let prepared = backend.prepare(array)?;
    backend.noisy_mvm_prepared(&prepared, array, inputs, &mut streams)
}

fn noisy_power<B: EvalBackend + ?Sized>(
    backend: &B,
    model: &PowerModel,
    array: &CrossbarArray,
    inputs: &[&[f64]],
    mut streams: impl FnMut(usize) -> ChaCha8Rng,
) -> Result<Vec<f64>, CrossbarError> {
    let prepared = backend.prepare(array)?;
    backend.noisy_power_prepared(model, &prepared, array, inputs, &mut streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Noiseless MVM and power: blocked == naive, bit for bit, for any
    /// shape, batch size, and tile configuration (including tiles larger
    /// than the problem).
    #[test]
    fn blocked_matches_naive_bit_identically(
        m in 1usize..10,
        n in 1usize..12,
        batch in 1usize..9,
        block_outputs in 1usize..12,
        block_samples in 1usize..10,
        seed in any::<u64>(),
    ) {
        let array = programmed(m, n, seed, &DeviceModel::ideal());
        let inputs = sample_batch(batch, n, seed);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();

        let naive = NaiveBackend;
        let blocked = BlockedBackend::new(
            BatchConfig::default()
                .with_block_outputs(block_outputs)
                .with_block_samples(block_samples),
        )
        .unwrap();

        let out_naive = mvm(&naive, &array, &refs).unwrap();
        let out_blocked = mvm(&blocked, &array, &refs).unwrap();
        prop_assert_eq!(&out_naive, &out_blocked);

        let model = PowerModel::default();
        let p_naive = power(&naive, &model, &array, &refs).unwrap();
        let p_blocked = power(&blocked, &model, &array, &refs).unwrap();
        prop_assert_eq!(&p_naive, &p_blocked);

        // Every batch entry equals the sequential per-vector call
        // exactly — the contract that lets callers split or merge
        // batches without changing results.
        for (b, &input) in refs.iter().enumerate() {
            prop_assert_eq!(&out_naive[b], &array.checked_mvm(input).unwrap());
            prop_assert_eq!(p_naive[b], model.exact(&array, input).unwrap());
        }
    }

    /// Noisy MVM and power: with the same per-sample stream factory the
    /// two backends draw identical noise, so outputs are bit-identical —
    /// and equal to the sequential loop seeded per sample the same way.
    #[test]
    fn noisy_blocked_matches_naive_bit_identically(
        m in 1usize..8,
        n in 1usize..10,
        batch in 1usize..7,
        block_samples in 1usize..8,
        seed in any::<u64>(),
    ) {
        let device = DeviceModel::ideal().with_read_sigma(0.05);
        let array = programmed(m, n, seed, &device);
        let inputs = sample_batch(batch, n, seed);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();

        let naive = NaiveBackend;
        let blocked = BlockedBackend::new(
            BatchConfig::default().with_block_samples(block_samples),
        )
        .unwrap();

        let nv = noisy_mvm(&naive, &array, &refs, streams(seed)).unwrap();
        let bv = noisy_mvm(&blocked, &array, &refs, streams(seed)).unwrap();
        prop_assert_eq!(&nv, &bv);

        let model = PowerModel::default().with_noise(0.02).with_averages(2);
        let np = noisy_power(&naive, &model, &array, &refs, streams(seed ^ 0x5)).unwrap();
        let bp = noisy_power(&blocked, &model, &array, &refs, streams(seed ^ 0x5)).unwrap();
        prop_assert_eq!(&np, &bp);

        let mut make = streams(seed);
        for (b, &input) in refs.iter().enumerate() {
            let sequential = array.noisy_mvm(input, &mut make(b)).unwrap();
            prop_assert_eq!(&nv[b], &sequential);
        }
    }

    /// The parallel kernel == naive, bit for bit, at any thread count
    /// (including auto and heavy oversubscription), any tile
    /// configuration, and any split of the batch — both the sample-chunk
    /// path (wide batches) and the row-block path (narrow batches) are
    /// crossed as `batch` and `threads` vary.
    #[test]
    fn parallel_matches_naive_across_thread_counts_and_splits(
        m in 1usize..12,
        n in 1usize..12,
        batch in 1usize..10,
        threads in 0usize..9,
        block_outputs in 1usize..8,
        split_at in 0usize..10,
        seed in any::<u64>(),
    ) {
        let array = programmed(m, n, seed, &DeviceModel::ideal());
        let inputs = sample_batch(batch, n, seed);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();

        let naive = NaiveBackend;
        let parallel = BlockedBackend::new(BatchConfig::default().with_block_outputs(block_outputs))
            .unwrap()
            .with_threads(threads);

        let out_naive = mvm(&naive, &array, &refs).unwrap();
        let whole = mvm(&parallel, &array, &refs).unwrap();
        prop_assert_eq!(&out_naive, &whole);

        let model = PowerModel::default();
        prop_assert_eq!(
            power(&naive, &model, &array, &refs).unwrap(),
            power(&parallel, &model, &array, &refs).unwrap()
        );

        // Splitting the batch at an arbitrary point and evaluating the
        // halves separately (reusing one prepared handle) changes
        // nothing.
        let cut = split_at % (batch + 1);
        let prepared = parallel.prepare(&array).unwrap();
        let mut halves = parallel.mvm_prepared(&prepared, &array, &refs[..cut]).unwrap();
        halves.extend(parallel.mvm_prepared(&prepared, &array, &refs[cut..]).unwrap());
        prop_assert_eq!(&out_naive, &halves);
    }

    /// The staleness contract: once the array's conductances change —
    /// `map_conductances` is the primitive beneath re-programming,
    /// `FaultPlan::apply`, transient perturbation, and drift
    /// redeployment — every prepared handle taken before the change is
    /// rejected with `StalePrepared` on all four entry points. Never
    /// silently wrong numbers: the error is returned before any
    /// evaluation work.
    #[test]
    fn stale_prepared_reuse_is_impossible(
        m in 1usize..8,
        n in 1usize..10,
        batch in 1usize..6,
        backend_pick in 0usize..3,
        identity_map in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let device = DeviceModel::ideal().with_read_sigma(0.01);
        let array = programmed(m, n, seed, &device);
        let inputs = sample_batch(batch, n, seed);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();
        let backend: Box<dyn EvalBackend> = match backend_pick {
            0 => Box::new(NaiveBackend),
            1 => Box::new(BlockedBackend::default()),
            _ => Box::new(BlockedBackend::default().with_threads(2)),
        };

        let prepared = backend.prepare(&array).unwrap();
        prop_assert_eq!(prepared.generation(), array.generation());

        // Even an identity remap is a new generation: a false hit would
        // silently reuse stale weights, a false miss only costs one
        // re-prepare.
        let changed = if identity_map {
            array.map_conductances(|_, g| g)
        } else {
            array.map_conductances(|_, g| g * 0.9)
        };
        let model = PowerModel::default();
        let err = backend.mvm_prepared(&prepared, &changed, &refs);
        prop_assert!(matches!(err, Err(CrossbarError::StalePrepared { .. })), "{:?}", err);
        prop_assert!(backend.power_prepared(&model, &prepared, &changed, &refs).is_err());
        prop_assert!(backend
            .noisy_mvm_prepared(&prepared, &changed, &refs, &mut streams(seed))
            .is_err());
        prop_assert!(backend
            .noisy_power_prepared(&model, &prepared, &changed, &refs, &mut streams(seed))
            .is_err());

        // A fresh handle for the new generation works, and the old
        // handle still serves its own generation.
        let refreshed = backend.prepare(&changed).unwrap();
        prop_assert!(backend.mvm_prepared(&refreshed, &changed, &refs).is_ok());
        prop_assert!(backend.mvm_prepared(&prepared, &array, &refs).is_ok());
    }

    /// Malformed batches fail identically on every backend: a single
    /// wrong-length row rejects the whole batch with no partial work.
    #[test]
    fn length_errors_reject_whole_batch_on_all_backends(
        m in 1usize..5,
        n in 2usize..8,
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let array = programmed(m, n, seed, &DeviceModel::ideal());
        let inputs = sample_batch(batch, n, seed);
        let short: Vec<f64> = vec![0.0; n - 1];
        let mut refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();
        refs.push(&short);

        for backend in [
            Box::new(NaiveBackend) as Box<dyn EvalBackend>,
            Box::new(BlockedBackend::default()),
            Box::new(BlockedBackend::default().with_threads(2)),
        ] {
            prop_assert!(mvm(backend.as_ref(), &array, &refs).is_err());
            prop_assert!(power(backend.as_ref(), &PowerModel::default(), &array, &refs)
                .is_err());
        }
    }
}
