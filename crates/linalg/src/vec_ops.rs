//! Slice-level vector kernels.
//!
//! These free functions operate directly on `&[f64]` so that hot loops in
//! the crossbar simulator and the attack code can avoid allocating
//! [`crate::Matrix`] wrappers.

/// Dot product of two slices.
///
/// The reduction is written down, not left to `Sum`: one sequential
/// ascending-index sum `acc + x * y`, seeded with `-0.0` (so the empty
/// dot, and a dot of `-0.0` products, is `-0.0`). That is bit-identical
/// to std's float `Sum` on the pinned toolchain, whose seed has changed
/// across Rust releases; pinning it here keeps every committed artifact
/// independent of that choice. [`dot_tile`] shares this contract.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).fold(-0.0, |acc, (&x, &y)| acc + x * y)
}

/// Samples per [`dot_tile`] panel, and weight rows per register tile:
/// one pass keeps `TILE x TILE` accumulators live.
const TILE: usize = 4;

/// Many dot products at once: `out[s][i] = dot(row i of a, b[s])`, bit
/// for bit, where `a` holds `out[s].len()` row-major rows of
/// `b[s].len()` elements each.
///
/// Each run of 4 samples is packed k-major into a small panel, then 4
/// rows of `a` are streamed against it with 16 independent
/// accumulators, one per output cell. Every accumulator is still its
/// cell's own sequential ascending-index `acc + w * x` sum seeded with
/// `-0.0` — exactly [`dot`]'s reduction — so vectorising across cells
/// changes which SIMD lane computes a cell, never the additions in it.
/// Rows left over after the last full row tile use a one-row tile;
/// samples that do not fill a panel use plain [`dot`].
///
/// # Panics
///
/// Panics if `b` and `out` differ in length, the samples differ in
/// length, the output rows differ in length, or `a` does not hold
/// exactly `out[s].len()` rows of `b[s].len()` elements.
pub fn dot_tile(a: &[f64], b: &[&[f64]], out: &mut [&mut [f64]]) {
    assert_eq!(b.len(), out.len(), "dot_tile: sample/output count mismatch");
    let (Some(first), Some(first_out)) = (b.first(), out.first()) else {
        return;
    };
    let (n, m) = (first.len(), first_out.len());
    assert!(
        b.iter().all(|x| x.len() == n),
        "dot_tile: sample length mismatch"
    );
    assert!(
        out.iter().all(|o| o.len() == m),
        "dot_tile: output length mismatch"
    );
    assert_eq!(a.len(), m * n, "dot_tile: row block shape mismatch");
    let row = |i: usize| &a[i * n..(i + 1) * n];

    let full = b.len() - b.len() % TILE;
    let mut panel = vec![[0.0; TILE]; n];
    for (samples, cells) in b[..full].chunks_exact(TILE).zip(out.chunks_exact_mut(TILE)) {
        for (k, lanes) in panel.iter_mut().enumerate() {
            for (lane, sample) in lanes.iter_mut().zip(samples) {
                *lane = sample[k];
            }
        }
        let mut i = 0;
        while i + TILE <= m {
            let acc = tile([row(i), row(i + 1), row(i + 2), row(i + 3)], &panel);
            for (j, cell) in cells.iter_mut().enumerate() {
                for (r, acc_r) in acc.iter().enumerate() {
                    cell[i + r] = acc_r[j];
                }
            }
            i += TILE;
        }
        for i in i..m {
            let [acc] = tile([row(i)], &panel);
            for (cell, &v) in cells.iter_mut().zip(&acc) {
                cell[i] = v;
            }
        }
    }
    for (sample, cell) in b[full..].iter().zip(&mut out[full..]) {
        for (i, c) in cell.iter_mut().enumerate() {
            *c = dot(row(i), sample);
        }
    }
}

/// One register tile: `acc[r][j] = dot(rows[r], panel lane j)`, each
/// cell a sequential ascending-index sum seeded with `-0.0`.
#[inline(always)]
fn tile<const R: usize>(rows: [&[f64]; R], panel: &[[f64; TILE]]) -> [[f64; TILE]; R] {
    let rows = rows.map(|r| &r[..panel.len()]);
    let mut acc = [[-0.0; TILE]; R];
    for (k, lanes) in panel.iter().enumerate() {
        for (acc_r, r) in acc.iter_mut().zip(&rows) {
            let w = r[k];
            for (a, &x) in acc_r.iter_mut().zip(lanes) {
                *a += w * x;
            }
        }
    }
    acc
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean (2-) norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Index of the largest element. Ties resolve to the first occurrence.
///
/// # Panics
///
/// Panics if the slice is empty.
#[inline]
pub fn argmax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > x[best] {
            best = i;
        }
    }
    best
}

/// Indices of the `k` largest elements, in descending value order.
///
/// If `k > x.len()` all indices are returned. Ties resolve to lower indices
/// first, making the result deterministic.
pub fn top_k_indices(x: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// Elementwise difference `a - b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Elementwise sum `a + b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Clamps every element into `[lo, hi]` in place.
#[inline]
pub fn clamp(x: &mut [f64], lo: f64, hi: f64) {
    for v in x {
        *v = v.clamp(lo, hi);
    }
}

/// Mean of a slice.
///
/// # Panics
///
/// Panics if the slice is empty.
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mean of empty slice");
    x.iter().sum::<f64>() / x.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Runs [`dot_tile`] on `m` rows of `a` against `samples`, returning
    /// the per-sample outputs (pre-filled with a sentinel so a cell the
    /// kernel skips cannot pass by accident).
    fn tiled(a: &[f64], m: usize, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
        let mut out = vec![vec![12345.678; m]; samples.len()];
        let mut cells: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        dot_tile(a, &refs, &mut cells);
        out
    }

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        // The pinned `-0.0` seed: the empty dot and a dot of `-0.0`
        // products are `-0.0`; one `+0.0` product makes it `+0.0`.
        assert_eq!(dot(&[], &[]).to_bits(), (-0.0_f64).to_bits());
        assert_eq!(
            dot(&[-0.0, 0.0], &[1.0, -1.0]).to_bits(),
            (-0.0_f64).to_bits()
        );
        assert_eq!(dot(&[0.0], &[1.0]).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn dot_tile_matches_dot_on_every_remainder_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        for m in 0..=9 {
            for b in 0..=9 {
                for n in 0..=13 {
                    let a: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let samples: Vec<Vec<f64>> = (0..b)
                        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                        .collect();
                    let out = tiled(&a, m, &samples);
                    for (s, (sample, cells)) in samples.iter().zip(&out).enumerate() {
                        for (i, cell) in cells.iter().enumerate() {
                            let want = dot(&a[i * n..(i + 1) * n], sample);
                            assert_eq!(
                                cell.to_bits(),
                                want.to_bits(),
                                "m={m} b={b} n={n} s={s} i={i}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_tile_keeps_negative_zero_sums() {
        // 6 rows x 5 samples crosses the 4x4 tile, the one-row tile and
        // the plain-dot sample remainder.
        let (m, n) = (6, 3);
        let a = vec![-0.0; m * n];
        let samples = vec![vec![1.0; n]; 5];
        for cells in tiled(&a, m, &samples) {
            assert!(
                cells.iter().all(|c| c.to_bits() == (-0.0_f64).to_bits()),
                "{cells:?}"
            );
        }
        // The empty reduction is -0.0 too, as in `dot`.
        for cells in tiled(&[], m, &vec![Vec::new(); 5]) {
            assert!(
                cells.iter().all(|c| c.to_bits() == (-0.0_f64).to_bits()),
                "{cells:?}"
            );
        }
    }

    #[test]
    fn dot_tile_propagates_infinities_and_nans() {
        let (m, n) = (5, 4);
        let mut a: Vec<f64> = (0..m * n).map(|v| v as f64 * 0.25 - 2.0).collect();
        a[2] = f64::INFINITY; // row 0: +inf
        a[n + 1] = f64::NEG_INFINITY; // row 1: -inf
        a[2 * n] = f64::INFINITY; // row 2: inf - inf = NaN against sample 0
        a[2 * n + 3] = f64::NEG_INFINITY;
        a[4 * n + 1] = f64::NAN; // row 4 (the one-row tile): NaN
        let mut samples: Vec<Vec<f64>> = (0..5)
            .map(|s| (0..n).map(|k| (s * n + k) as f64 * 0.5 + 0.5).collect())
            .collect();
        samples[3][0] = f64::NAN; // a NaN input in the packed panel
        samples[4][2] = f64::INFINITY; // and an inf in the dot remainder
        let out = tiled(&a, m, &samples);
        for (sample, cells) in samples.iter().zip(&out) {
            for (i, cell) in cells.iter().enumerate() {
                let want = dot(&a[i * n..(i + 1) * n], sample);
                if want.is_nan() {
                    // NaN payloads are not part of the contract.
                    assert!(cell.is_nan(), "row {i}: {cell} vs NaN");
                } else {
                    assert_eq!(cell.to_bits(), want.to_bits(), "row {i}");
                }
            }
        }
        assert_eq!(out[0][0], f64::INFINITY);
        assert_eq!(out[0][1], f64::NEG_INFINITY);
        assert!(out[0][2].is_nan() && out[0][4].is_nan() && out[3][0].is_nan());
    }

    #[test]
    #[should_panic(expected = "dot_tile")]
    fn dot_tile_rejects_a_ragged_row_block() {
        let _ = tiled(&[1.0; 5], 2, &[vec![1.0; 3]]);
    }

    #[test]
    #[should_panic(expected = "dot")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_known() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_known() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    #[test]
    fn norm2_known() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_known() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        // Ties resolve to the first occurrence.
        assert_eq!(argmax(&[2.0, 2.0]), 0);
    }

    #[test]
    fn top_k_known() {
        let x = [0.1, 0.9, 0.5, 0.9, 0.0];
        assert_eq!(top_k_indices(&x, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&x, 10).len(), 5);
        assert!(top_k_indices(&x, 0).is_empty());
    }

    #[test]
    fn add_sub_known() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn clamp_known() {
        let mut x = vec![-1.0, 0.5, 2.0];
        clamp(&mut x, 0.0, 1.0);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn mean_known() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
