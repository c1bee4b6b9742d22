//! Property tests for the `dot_tile` instances: each one, called
//! directly, equals `dot` on every cell, over ragged shapes and IEEE
//! special values.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use xbar_linalg::vec_ops::{dot, TileKernel};

/// One element: uniform in `[-1, 1)`, or with `specials` one time in
/// eight a signed zero, an infinity or a NaN.
fn element(rng: &mut ChaCha8Rng, specials: bool) -> f64 {
    if specials && rng.gen_range(0..8) == 0 {
        [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..5)]
    } else {
        rng.gen_range(-1.0..1.0)
    }
}

#[test]
fn the_detected_instance_runs_on_this_cpu() {
    let kernel = TileKernel::detect();
    assert!(kernel.is_supported());
    assert!(TileKernel::Portable.is_supported());
    assert_eq!(kernel == TileKernel::Avx2, TileKernel::Avx2.is_supported());
    assert!(["portable-4x4", "avx2-6x8"].contains(&kernel.name()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rows 0–20 cross the 6-row and 4-row tiles and every one-row
    /// leftover; samples 0–20 cross the 4- and 8-sample panels and
    /// every panel remainder. The AVX2 side is skipped only where the
    /// CPU lacks AVX2.
    #[test]
    fn every_instance_equals_dot_bit_for_bit(
        m in 0usize..=20,
        b in 0usize..=20,
        n in 0usize..=40,
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<f64> = (0..m * n).map(|_| element(&mut rng, specials)).collect();
        let samples: Vec<Vec<f64>> = (0..b)
            .map(|_| (0..n).map(|_| element(&mut rng, specials)).collect())
            .collect();
        let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
        for kernel in [TileKernel::Portable, TileKernel::Avx2] {
            if !kernel.is_supported() {
                continue;
            }
            // A sentinel, so a cell the kernel skips cannot pass.
            let mut out = vec![vec![12345.678; m]; b];
            let mut cells: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            kernel.dot_tile(&a, &refs, &mut cells);
            for (s, (sample, cells)) in samples.iter().zip(&out).enumerate() {
                for (i, cell) in cells.iter().enumerate() {
                    let want = dot(&a[i * n..(i + 1) * n], sample);
                    if want.is_nan() {
                        // NaN payloads are not part of the contract.
                        prop_assert!(cell.is_nan(), "{:?} s={} i={}: {}", kernel, s, i, cell);
                    } else {
                        prop_assert!(
                            cell.to_bits() == want.to_bits(),
                            "{:?} m={} b={} n={} s={} i={}: {} vs {}",
                            kernel, m, b, n, s, i, cell, want
                        );
                    }
                }
            }
        }
    }
}
