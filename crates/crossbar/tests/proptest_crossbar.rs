//! Property-based tests of the crossbar simulator's physical invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::mapping::WeightMapping;
use xbar_crossbar::tile::TiledCrossbar;
use xbar_linalg::Matrix;

fn seeded_weights(m: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
    if w.max_abs() == 0.0 {
        w[(0, 0)] = 0.5;
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conductances are always within the device's physical bounds, for
    /// any device configuration and any weights.
    #[test]
    fn conductances_stay_physical(
        m in 1usize..6,
        n in 1usize..8,
        seed in any::<u64>(),
        levels in prop::option::of(2u32..16),
        stuck in prop::sample::select(vec![0.0, 0.1, 0.5]),
    ) {
        let w = seeded_weights(m, n, seed);
        let device = DeviceModel {
            levels,
            stuck_rate: stuck,
            ..DeviceModel::ideal()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF0);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        for &g in xbar.g_plus().as_slice().iter().chain(xbar.g_minus().as_slice()) {
            prop_assert!((0.0..=1.0).contains(&g), "conductance {g} out of bounds");
        }
    }

    /// The mapping round-trips any weight exactly (ideal device).
    #[test]
    fn mapping_roundtrip(
        m in 1usize..5,
        n in 1usize..8,
        seed in any::<u64>(),
        g_min in prop::sample::select(vec![0.0, 0.05, 0.2]),
    ) {
        let w = seeded_weights(m, n, seed);
        let device = DeviceModel { g_min, g_max: 1.0, ..DeviceModel::ideal() };
        let mapping = WeightMapping::for_weights(&w, &device).unwrap();
        for &wi in w.as_slice() {
            let (p, q) = mapping.to_conductances(wi);
            prop_assert!((mapping.to_weight(p, q) - wi).abs() < 1e-10);
            // One-sided rule: at most one side carries signal.
            prop_assert!(p >= g_min - 1e-15 && q >= g_min - 1e-15);
            prop_assert!((p - g_min).abs() < 1e-15 || (q - g_min).abs() < 1e-15);
        }
    }

    /// Total current is linear in the input (superposition — Kirchhoff).
    #[test]
    fn total_current_superposition(
        m in 1usize..5,
        n in 2usize..8,
        seed in any::<u64>(),
        alpha in 0.0f64..2.0,
    ) {
        let w = seeded_weights(m, n, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF1);
        let xbar = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let mut rng2 = ChaCha8Rng::seed_from_u64(seed ^ 0xF2);
        let a = Matrix::random_uniform(1, n, 0.0, 1.0, &mut rng2).into_vec();
        let b = Matrix::random_uniform(1, n, 0.0, 1.0, &mut rng2).into_vec();
        let ia = xbar.total_current(&a).unwrap();
        let ib = xbar.total_current(&b).unwrap();
        let combined: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| alpha * x + y).collect();
        let ic = xbar.total_current(&combined).unwrap();
        prop_assert!((ic - (alpha * ia + ib)).abs() < 1e-9);
    }

    /// Tiling is exact for ideal devices: MVM and total current agree with
    /// the monolithic array for every tile shape.
    #[test]
    fn tiling_is_exact(
        m in 1usize..7,
        n in 1usize..12,
        tile_r in 1usize..5,
        tile_c in 1usize..6,
        seed in any::<u64>(),
    ) {
        let w = seeded_weights(m, n, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF3);
        let mono = CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let tiled = TiledCrossbar::program(&w, tile_r, tile_c, &DeviceModel::ideal(), &mut rng)
            .unwrap();
        let v: Vec<f64> = (0..n).map(|j| ((j + 1) as f64 * 0.173).fract()).collect();
        let mono_out = mono.mvm(&v);
        let tiled_out = tiled.mvm(&v).unwrap();
        let w_max = w.max_abs();
        for (a, b) in mono_out.iter().zip(&tiled_out) {
            prop_assert!((a - b * w_max).abs() < 1e-9);
        }
        let ia = mono.total_current(&v).unwrap();
        let ib = tiled.total_current(&v).unwrap();
        prop_assert!((ia - ib).abs() < 1e-9);
    }

    /// Effective weights of a quantised array deviate from the targets by
    /// at most half a conductance step (in weight units).
    #[test]
    fn quantised_weight_error_bounded(
        m in 1usize..4,
        n in 1usize..6,
        levels in 2u32..16,
        seed in any::<u64>(),
    ) {
        let w = seeded_weights(m, n, seed);
        let device = DeviceModel::ideal().with_levels(levels);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF4);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let eff = xbar.effective_weights();
        let step_w = (1.0 / xbar.mapping().scale) / (levels - 1) as f64;
        for (a, b) in eff.as_slice().iter().zip(w.as_slice()) {
            prop_assert!((a - b).abs() <= step_w / 2.0 + 1e-12);
        }
    }
}
