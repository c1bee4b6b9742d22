//! Property-based tests of the threaded fault apply:
//!
//! * `FaultPlan::apply_at_threads` is bit-identical to the one-thread
//!   `FaultPlan::apply_at` at 1, 2, 3 and 8 threads — on ragged shapes
//!   (one row, one column, fewer devices than workers) and for
//!   undispersed, dispersed, stuck-only and line-resistance specs.
//! * An undispersed plan stores one shared drift exponent, and every
//!   device's drift factor is exactly `(1 + t).powf(-drift_nu)`.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::device::DeviceModel;
use xbar_faults::{FaultKey, FaultSpec};
use xbar_linalg::Matrix;

fn programmed(m: usize, n: usize, seed: u64) -> CrossbarArray {
    let device = DeviceModel {
        g_min: 0.05,
        g_max: 1.0,
        ..DeviceModel::ideal()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
    if w.max_abs() == 0.0 {
        w[(0, 0)] = 0.5;
    }
    CrossbarArray::program(&w, &device, &mut rng).unwrap()
}

/// Every conductance's bit pattern (G⁺ then G⁻).
fn conductance_bits(array: &CrossbarArray) -> Vec<u64> {
    array
        .g_plus()
        .as_slice()
        .iter()
        .chain(array.g_minus().as_slice())
        .map(|g| g.to_bits())
        .collect()
}

/// One row, one column, at most 3 devices per plane (fewer conductance
/// rows than 8 workers), or a general shape.
fn shape(kind: usize, a: usize, b: usize) -> (usize, usize) {
    match kind {
        0 => (1, a),
        1 => (a, 1),
        2 => (1 + a % 3, 1),
        _ => (1 + a % 12, 1 + b % 12),
    }
}

/// Undispersed drift, dispersed drift, stuck-at only, or line
/// resistance only.
fn spec(kind: usize, drift_time: f64) -> FaultSpec {
    let stuck = FaultSpec::none()
        .with_stuck_on_rate(0.15)
        .with_stuck_off_rate(0.15);
    match kind {
        0 => FaultSpec::none()
            .with_variation_sigma(0.1)
            .with_drift(0.2, 0.0, drift_time),
        1 => stuck
            .with_variation_sigma(0.1)
            .with_drift(0.2, 0.3, drift_time),
        2 => stuck,
        _ => FaultSpec::none().with_line_resistance(0.05),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each device reads only its own decisions and pristine
    /// conductance, so the row fan-out never changes a bit.
    #[test]
    fn threaded_apply_is_bit_identical_to_one_thread(
        shape_kind in 0usize..4,
        a in 1usize..40,
        b in 1usize..40,
        spec_kind in 0usize..4,
        seed in any::<u64>(),
        trial in any::<u64>(),
        t in 0.0f64..1000.0,
    ) {
        let (m, n) = shape(shape_kind, a, b);
        let array = programmed(m, n, seed);
        let plan = spec(spec_kind, t).compile(m, n, FaultKey::new(seed, trial)).unwrap();
        let one = conductance_bits(&plan.apply_at(&array, t).unwrap());
        for threads in [1usize, 2, 3, 8] {
            let threaded = plan.apply_at_threads(&array, t, threads).unwrap();
            prop_assert!(conductance_bits(&threaded) == one, "{}x{} threads={}", m, n, threads);
        }
    }

    /// The shared exponent of an undispersed plan yields the one
    /// `powf` factor on every device.
    #[test]
    fn undispersed_drift_factors_are_the_shared_powf(
        m in 1usize..9,
        n in 1usize..9,
        seed in any::<u64>(),
        with_faults in any::<bool>(),
        t in 0.001f64..1000.0,
    ) {
        let base = if with_faults {
            FaultSpec::none().with_stuck_off_rate(0.1).with_variation_sigma(0.1)
        } else {
            FaultSpec::none()
        };
        let plan = base.with_drift(0.2, 0.0, t).compile(m, n, FaultKey::new(seed, 0)).unwrap();
        let factors = plan.drift_factors();
        prop_assert_eq!(factors.len(), plan.num_devices());
        let shared = (1.0 + t).powf(-0.2);
        prop_assert!(factors.iter().all(|d| d.to_bits() == shared.to_bits()));
    }
}
