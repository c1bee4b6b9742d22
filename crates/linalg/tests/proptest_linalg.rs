//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use xbar_linalg::{cholesky, qr, vec_ops, Matrix};

/// Strategy: a matrix of the given shape with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: small shape pairs for matmul chains.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..8, 1usize..8, 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution((m, n, _) in dims(), seed in any::<u64>()) {
        let a = deterministic_matrix(m, n, seed);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity((m, k, n) in dims(), seed in any::<u64>()) {
        // (A B)ᵀ = Bᵀ Aᵀ
        let a = deterministic_matrix(m, k, seed);
        let b = deterministic_matrix(k, n, seed.wrapping_add(1));
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_addition((m, k, n) in dims(), seed in any::<u64>()) {
        let a = deterministic_matrix(m, k, seed);
        let b = deterministic_matrix(k, n, seed.wrapping_add(1));
        let c = deterministic_matrix(k, n, seed.wrapping_add(2));
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    #[test]
    fn col_l1_norms_are_triangle_bounded(a in matrix(5, 4), b in matrix(5, 4)) {
        // ‖(A+B)[:,j]‖₁ <= ‖A[:,j]‖₁ + ‖B[:,j]‖₁
        let sum = (&a + &b).col_l1_norms();
        let na = a.col_l1_norms();
        let nb = b.col_l1_norms();
        for j in 0..4 {
            prop_assert!(sum[j] <= na[j] + nb[j] + 1e-12);
        }
    }

    #[test]
    fn col_l1_norms_scale_absolutely(a in matrix(4, 6), s in -5.0f64..5.0) {
        let scaled = a.scaled(s).col_l1_norms();
        let base = a.col_l1_norms();
        for j in 0..6 {
            prop_assert!((scaled[j] - s.abs() * base[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn dot_is_symmetric(v in prop::collection::vec(-10.0f64..10.0, 1..30)) {
        let w: Vec<f64> = v.iter().rev().cloned().collect();
        prop_assert!((vec_ops::dot(&v, &w) - vec_ops::dot(&w, &v)).abs() < 1e-9);
    }

    #[test]
    fn norm2_cauchy_schwarz(
        v in prop::collection::vec(-10.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        let w = deterministic_matrix(1, v.len(), seed).into_vec();
        let lhs = vec_ops::dot(&v, &w).abs();
        let rhs = vec_ops::norm2(&v) * vec_ops::norm2(&w);
        prop_assert!(lhs <= rhs + 1e-9);
    }

    #[test]
    fn qr_reconstructs(seed in any::<u64>(), n in 1usize..6, extra in 0usize..6) {
        let a = deterministic_matrix(n + extra, n, seed);
        let qr = qr::QrDecomposition::new(&a).unwrap();
        prop_assert!(qr.q().matmul(&qr.r()).approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_solve_roundtrips(seed in any::<u64>(), n in 1usize..7) {
        let m = deterministic_matrix(n, n, seed);
        let mut spd = m.matmul(&m.transpose());
        for i in 0..n {
            spd[(i, i)] += 1.0 + n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
        let b = spd.matvec(&x_true);
        let x = cholesky::CholeskyDecomposition::new(&spd).unwrap().solve(&b).unwrap();
        for (g, w) in x.iter().zip(&x_true) {
            prop_assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn top_k_indices_are_sorted_by_value(v in prop::collection::vec(-10.0f64..10.0, 1..30), k in 1usize..10) {
        let idx = vec_ops::top_k_indices(&v, k);
        prop_assert_eq!(idx.len(), k.min(v.len()));
        for w in idx.windows(2) {
            prop_assert!(v[w[0]] >= v[w[1]]);
        }
        // The first index really is the argmax.
        prop_assert_eq!(idx[0], vec_ops::argmax(&v));
    }
}

/// Deterministic pseudo-random matrix from a seed, avoiding proptest's
/// shrinking over huge Vec inputs for the larger shapes.
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0))
}
