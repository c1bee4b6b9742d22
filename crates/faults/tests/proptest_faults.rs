//! Property-based tests of the fault-injection contracts:
//!
//! * Identical `(spec, key)` pairs compile to identical plans; the
//!   trial index and campaign seed both separate the draws.
//! * Stuck-at rates are honoured within binomial tolerance on large
//!   arrays.
//! * At a fixed key, every device's drift factor is monotonically
//!   non-increasing in `drift_time` (hardware only decays).
//! * A plan compiled at one drift time and applied at another is
//!   bit-identical to compiling at the second time and applying.
//! * A `PreparedEval` handle taken through a fault-plan application is
//!   stale — reuse is an error, never silently unfaulted numbers.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, BackendSpec};
use xbar_crossbar::device::DeviceModel;
use xbar_faults::{FaultKey, FaultSpec};
use xbar_linalg::Matrix;

fn programmed(m: usize, n: usize, seed: u64, device: &DeviceModel) -> CrossbarArray {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
    if w.max_abs() == 0.0 {
        w[(0, 0)] = 0.5;
    }
    CrossbarArray::program(&w, device, &mut rng).unwrap()
}

/// Every conductance's bit pattern (G⁺ then G⁻), so equality means
/// bit-identical rather than `==` on floats.
fn conductance_bits(array: &CrossbarArray) -> Vec<u64> {
    array
        .g_plus()
        .as_slice()
        .iter()
        .chain(array.g_minus().as_slice())
        .map(|g| g.to_bits())
        .collect()
}

fn sample_batch(batch: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB0);
    Matrix::random_uniform(batch, n, -1.0, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Determinism and key separation: the same `(spec, key)` always
    /// compiles to the same plan (and the same faulted conductances);
    /// changing the trial index or the campaign seed changes the draws.
    #[test]
    fn plans_are_deterministic_in_their_key(
        m in 2usize..9,
        n in 2usize..9,
        seed in any::<u64>(),
        trial in 0u64..1000,
    ) {
        let spec = FaultSpec::none()
            .with_stuck_on_rate(0.1)
            .with_stuck_off_rate(0.1)
            .with_variation_sigma(0.15);
        let key = FaultKey::new(seed, trial);
        let a = spec.compile(m, n, key).unwrap();
        let b = spec.compile(m, n, key).unwrap();
        prop_assert_eq!(&a, &b);

        let array = programmed(m, n, seed ^ 0x11, &DeviceModel::ideal());
        prop_assert_eq!(a.apply(&array).unwrap(), b.apply(&array).unwrap());

        let other_trial = spec.compile(m, n, FaultKey::new(seed, trial + 1)).unwrap();
        let other_seed = spec
            .compile(m, n, FaultKey::new(seed.wrapping_add(1), trial))
            .unwrap();
        prop_assert!(a != other_trial, "trial index did not separate draws");
        prop_assert!(a != other_seed, "campaign seed did not separate draws");
    }

    /// The monotone-decay contract: at a fixed key, each device's drift
    /// factor is non-increasing in `drift_time` — the same hardware
    /// read later is never in better shape.
    #[test]
    fn drift_factors_are_monotone_in_drift_time(
        m in 1usize..10,
        n in 1usize..12,
        seed in any::<u64>(),
        trial in any::<u64>(),
        t1 in 0.001f64..1000.0,
        dt in 0.001f64..1000.0,
    ) {
        let at = |t: f64| {
            FaultSpec::none()
                .with_drift(0.3, 0.1, t)
                .compile(m, n, FaultKey::new(seed, trial))
                .unwrap()
        };
        let early = at(t1);
        let late = at(t1 + dt);
        prop_assert_eq!(early.drift_factors().len(), late.drift_factors().len());
        for (device, (a, b)) in early
            .drift_factors()
            .iter()
            .zip(late.drift_factors())
            .enumerate()
        {
            prop_assert!(
                b <= a && *b > 0.0 && *a <= 1.0,
                "device {}: factor went {} -> {} from t={} to t={}",
                device, a, b, t1, t1 + dt
            );
        }
    }

    /// The re-timing contract: a plan compiled at one drift time and
    /// applied at another is bit-identical to compiling the spec at the
    /// second time under the same key and applying that — including a
    /// drift-only spec compiled at `drift_time = 0` (empty at that time,
    /// so the plan is a no-op there) and undispersed exponents
    /// (`drift_sigma = 0`).
    #[test]
    fn retimed_plan_matches_plan_compiled_at_that_time(
        m in 1usize..9,
        n in 1usize..9,
        seed in any::<u64>(),
        trial in any::<u64>(),
        drift_only in any::<bool>(),
        dispersed in any::<bool>(),
        compiled_at_zero in any::<bool>(),
        t0 in 0.001f64..500.0,
        t in 0.0f64..1000.0,
    ) {
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let array = programmed(m, n, seed ^ 0x22, &device);
        let base = if drift_only {
            FaultSpec::none()
        } else {
            FaultSpec::none()
                .with_stuck_on_rate(0.05)
                .with_stuck_off_rate(0.05)
                .with_variation_sigma(0.1)
                .with_line_resistance(0.01)
        };
        let sigma = if dispersed { 0.3 } else { 0.0 };
        let compiled_time = if compiled_at_zero { 0.0 } else { t0 };
        let key = FaultKey::new(seed, trial);
        let plan = base.with_drift(0.2, sigma, compiled_time).compile(m, n, key).unwrap();
        if drift_only && compiled_at_zero {
            prop_assert!(plan.is_noop());
        }
        let direct = base.with_drift(0.2, sigma, t).compile(m, n, key).unwrap();
        prop_assert_eq!(
            conductance_bits(&plan.apply_at(&array, t).unwrap()),
            conductance_bits(&direct.apply(&array).unwrap())
        );
        // At its own time, re-timing is plain application.
        prop_assert_eq!(
            conductance_bits(&plan.apply_at(&array, compiled_time).unwrap()),
            conductance_bits(&plan.apply(&array).unwrap())
        );
    }

    /// Staleness across fault application: a handle prepared from the
    /// pristine array must be rejected against the faulted copy (and
    /// vice versa) — generation mismatch is an error, never silently
    /// wrong (unfaulted) numbers.
    #[test]
    fn fault_apply_invalidates_prepared_handles(
        m in 2usize..9,
        n in 2usize..9,
        batch in 1usize..6,
        seed in any::<u64>(),
        trial in any::<u64>(),
    ) {
        let array = programmed(m, n, seed, &DeviceModel::ideal());
        let inputs = sample_batch(batch, n, seed);
        let refs: Vec<&[f64]> = (0..batch).map(|b| inputs.row(b)).collect();
        let spec = FaultSpec::none().with_variation_sigma(0.2);
        let plan = spec.compile(m, n, FaultKey::new(seed, trial)).unwrap();
        let faulted = plan.apply(&array).unwrap();

        let bare = BackendSpec::new(BackendKind::Blocked).build().unwrap();
        let pristine_handle = bare.prepare(&array).unwrap();
        // Driving a pristine handle with the faulted array fails …
        prop_assert!(matches!(
            bare.mvm_prepared(&pristine_handle, &faulted, &refs),
            Err(xbar_crossbar::CrossbarError::StalePrepared { .. })
        ));
        // … and so does the reverse.
        let faulted_handle = bare.prepare(&faulted).unwrap();
        prop_assert!(bare.mvm_prepared(&faulted_handle, &array, &refs).is_err());
    }

    /// Rate fidelity: on a large array the realised stuck fractions sit
    /// within 5 binomial standard deviations of the spec'd rates.
    #[test]
    fn stuck_rates_are_honoured_within_tolerance(
        on_pct in 0usize..4,
        off_pct in 0usize..4,
        seed in any::<u64>(),
    ) {
        let rates = [0.0, 0.02, 0.05, 0.1];
        let (p_on, p_off) = (rates[on_pct], rates[off_pct]);
        let spec = FaultSpec::none()
            .with_stuck_on_rate(p_on)
            .with_stuck_off_rate(p_off);
        let (m, n) = (100, 100);
        let plan = spec.compile(m, n, FaultKey::new(seed, 0)).unwrap();
        let devices = plan.num_devices() as f64;
        for (p, got) in [(p_on, plan.stuck_on()), (p_off, plan.stuck_off())] {
            let sigma = (p * (1.0 - p) / devices).sqrt();
            let realised = got as f64 / devices;
            prop_assert!(
                (realised - p).abs() <= 5.0 * sigma + f64::EPSILON,
                "rate {} realised as {} (sigma {})", p, realised, sigma
            );
        }
    }
}
