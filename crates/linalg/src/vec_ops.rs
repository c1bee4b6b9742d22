//! Slice-level vector kernels.
//!
//! These free functions operate directly on `&[f64]` so that hot loops in
//! the crossbar simulator and the attack code can avoid allocating
//! [`crate::Matrix`] wrappers.
//!
//! [`dot_tile`], the batch kernel under every tiled MVM and
//! [`crate::Matrix::matmul_nt`], is one generic tile source compiled as
//! two [`TileKernel`] instances, a portable one and (on `x86_64`) an
//! AVX2 one, picked once per process from the CPU's features. Both
//! return [`dot`]'s bits on every cell.

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

/// A compiled instance of the [`dot_tile`] kernel: one register-tile
/// shape, built for one instruction set.
///
/// Both instances run the same generic source, so they compute the same
/// reduction per cell and return the same bits; they differ only in how
/// many cells one pass keeps in registers. On the 2-core Xeon host
/// (`results/BENCH_mvm.json`) one thread runs the 1024 × 1024 kernel at
/// 12.1 GMAC/s on the AVX2 6 × 8 instance and 4.9 on the portable 4 × 4
/// one. Other AVX2 shapes lost to the portable tile in scratch runs
/// (4 × 4 at 3.4, 4 × 8 at 2.9 and 3 × 12 at 2.1 GMAC/s, against
/// 4.6–4.8 for the portable tile), so the shape is a constant of each
/// instance, not a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileKernel {
    /// 4 weight rows × 4 samples, baseline (SSE2 on `x86_64`)
    /// autovectorisation. Runs on every target.
    Portable,
    /// 6 weight rows × 8 samples, compiled for AVX2 without FMA: the
    /// 48 accumulators fill 12 of the 16 `ymm` registers. Runs only
    /// where the CPU reports AVX2; never on non-`x86_64` targets.
    Avx2,
}

impl TileKernel {
    /// The instance [`dot_tile`] runs: AVX2 where the CPU has it, else
    /// the portable one. std caches the CPUID probe behind
    /// `is_x86_feature_detected!`, so the CPU is asked once per process
    /// and the choice cannot change while it runs.
    pub fn detect() -> TileKernel {
        if TileKernel::Avx2.is_supported() {
            TileKernel::Avx2
        } else {
            TileKernel::Portable
        }
    }

    /// Whether this CPU can run the instance.
    pub fn is_supported(self) -> bool {
        match self {
            TileKernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            TileKernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            TileKernel::Avx2 => false,
        }
    }

    /// The label reports print: `"portable-4x4"` or `"avx2-6x8"`.
    pub fn name(self) -> &'static str {
        match self {
            TileKernel::Portable => "portable-4x4",
            TileKernel::Avx2 => "avx2-6x8",
        }
    }

    /// [`dot_tile`] on this instance.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not [supported](Self::is_supported) on
    /// this CPU, and on every shape [`dot_tile`] rejects.
    pub fn dot_tile(self, a: &[f64], b: &[&[f64]], out: &mut [&mut [f64]]) {
        match self {
            TileKernel::Portable => tiles::<4, 4>(a, b, out),
            TileKernel::Avx2 => {
                assert!(self.is_supported(), "dot_tile: this CPU has no AVX2");
                #[cfg(target_arch = "x86_64")]
                #[allow(unsafe_code)]
                // SAFETY: `dot_tile_avx2` needs the CPU to support AVX2,
                // and the assertion above just checked that with
                // `is_x86_feature_detected!("avx2")`.
                unsafe {
                    dot_tile_avx2(a, b, out);
                }
            }
        }
    }
}

/// The AVX2 instance: the generic tile source at 6 rows × 8 samples,
/// compiled with AVX2 (and deliberately not FMA, whose fused
/// multiply-add would round each `acc + w * x` once instead of twice).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_tile_avx2(a: &[f64], b: &[&[f64]], out: &mut [&mut [f64]]) {
    tiles::<6, 8>(a, b, out);
}

/// Many dot products at once: `out[s][i] = dot(row i of a, b[s])`, bit
/// for bit, where `a` holds `out[s].len()` row-major rows of
/// `b[s].len()` elements each.
///
/// Runs on [`TileKernel::detect`]'s instance. Each run of `L` samples
/// (4, or 8 on AVX2) is packed k-major into a small panel, then `R`
/// rows of `a` (4, or 6 on AVX2) are streamed against it with `R × L`
/// independent accumulators, one per output cell. Every accumulator is
/// still its cell's own sequential ascending-index `acc + w * x` sum
/// seeded with `-0.0` — exactly [`dot`]'s reduction — so vectorising
/// across cells changes which SIMD lane computes a cell, never the
/// additions in it, and both instances return the same bits. Rows left
/// over after the last full row tile use a one-row tile; samples that
/// do not fill a panel use plain [`dot`].
///
/// # Panics
///
/// Panics if `b` and `out` differ in length, the samples differ in
/// length, the output rows differ in length, or `a` does not hold
/// exactly `out[s].len()` rows of `b[s].len()` elements.
pub fn dot_tile(a: &[f64], b: &[&[f64]], out: &mut [&mut [f64]]) {
    TileKernel::detect().dot_tile(a, b, out);
}

/// The one tile source both [`TileKernel`] instances compile: `R`
/// weight rows × `L` samples per register tile.
#[inline(always)]
fn tiles<const R: usize, const L: usize>(a: &[f64], b: &[&[f64]], out: &mut [&mut [f64]]) {
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

    let full = b.len() - b.len() % L;
    let mut panel = vec![[0.0; L]; n];
    for (samples, cells) in b[..full].chunks_exact(L).zip(out.chunks_exact_mut(L)) {
        for (k, lanes) in panel.iter_mut().enumerate() {
            for (lane, sample) in lanes.iter_mut().zip(samples) {
                *lane = sample[k];
            }
        }
        let mut i = 0;
        while i + R <= m {
            let acc = tile::<R, L>(std::array::from_fn(|r| row(i + r)), &panel);
            for (j, cell) in cells.iter_mut().enumerate() {
                for (r, acc_r) in acc.iter().enumerate() {
                    cell[i + r] = acc_r[j];
                }
            }
            i += R;
        }
        for i in i..m {
            let [acc] = tile::<1, L>([row(i)], &panel);
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
fn tile<const R: usize, const L: usize>(rows: [&[f64]; R], panel: &[[f64; L]]) -> [[f64; L]; R] {
    let rows = rows.map(|r| &r[..panel.len()]);
    let mut acc = [[-0.0; L]; R];
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

    /// Runs `kernel` on `m` rows of `a` against `samples`, returning the
    /// per-sample outputs (pre-filled with a sentinel so a cell the
    /// kernel skips cannot pass by accident).
    fn tiled(kernel: TileKernel, a: &[f64], m: usize, samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let refs: Vec<&[f64]> = samples.iter().map(Vec::as_slice).collect();
        let mut out = vec![vec![12345.678; m]; samples.len()];
        let mut cells: Vec<&mut [f64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        kernel.dot_tile(a, &refs, &mut cells);
        out
    }

    /// The instances this CPU runs: the portable one, and AVX2 where
    /// detected.
    fn kernels() -> impl Iterator<Item = TileKernel> {
        [TileKernel::Portable, TileKernel::Avx2]
            .into_iter()
            .filter(|k| k.is_supported())
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
                    let out = tiled(TileKernel::detect(), &a, m, &samples);
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
        // the plain-dot sample remainder; 13 rows x 21 samples adds the
        // 6x8 tile's two 6-row tiles, its 8-sample panels and its
        // one-row and 5-sample remainders.
        for kernel in kernels() {
            for (m, b) in [(6, 5), (13, 21)] {
                let n = 3;
                let a = vec![-0.0; m * n];
                let samples = vec![vec![1.0; n]; b];
                for cells in tiled(kernel, &a, m, &samples) {
                    assert!(
                        cells.iter().all(|c| c.to_bits() == (-0.0_f64).to_bits()),
                        "{kernel:?} {m}x{b}: {cells:?}"
                    );
                }
                // The empty reduction is -0.0 too, as in `dot`.
                for cells in tiled(kernel, &[], m, &vec![Vec::new(); b]) {
                    assert!(
                        cells.iter().all(|c| c.to_bits() == (-0.0_f64).to_bits()),
                        "{kernel:?} {m}x{b}: {cells:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_tile_propagates_infinities_and_nans() {
        // 5 rows x 5 samples crosses the 4x4 tile, its one-row tile and
        // its dot remainder; 7 rows x 13 samples adds the 6x8 tile, an
        // 8-sample panel and its 5-sample dot remainder. Row 6 and
        // sample 12 sit in both instances' one-row tile and dot remainder.
        for kernel in kernels() {
            for (m, b) in [(5, 5), (7, 13)] {
                let n = 4;
                let mut a: Vec<f64> = (0..m * n).map(|v| v as f64 * 0.25 - 2.0).collect();
                a[2] = f64::INFINITY; // row 0: +inf
                a[n + 1] = f64::NEG_INFINITY; // row 1: -inf
                a[2 * n] = f64::INFINITY; // row 2: inf - inf = NaN against sample 0
                a[2 * n + 3] = f64::NEG_INFINITY;
                a[4 * n + 1] = f64::NAN; // row 4: NaN
                let mut samples: Vec<Vec<f64>> = (0..b)
                    .map(|s| (0..n).map(|k| (s * n + k) as f64 * 0.5 + 0.5).collect())
                    .collect();
                samples[3][0] = f64::NAN; // a NaN input (in a 4x4 panel)
                samples[4][2] = f64::INFINITY; // an inf (in a 4x4 panel at 13)
                if m > 6 {
                    a[6 * n + 3] = f64::NAN;
                    samples[12][1] = f64::NEG_INFINITY; // an inf in both dot remainders
                    samples[9][0] = -0.0;
                }
                let out = tiled(kernel, &a, m, &samples);
                for (sample, cells) in samples.iter().zip(&out) {
                    for (i, cell) in cells.iter().enumerate() {
                        let want = dot(&a[i * n..(i + 1) * n], sample);
                        if want.is_nan() {
                            // NaN payloads are not part of the contract.
                            assert!(cell.is_nan(), "{kernel:?} row {i}: {cell} vs NaN");
                        } else {
                            assert_eq!(cell.to_bits(), want.to_bits(), "{kernel:?} row {i}");
                        }
                    }
                }
                assert_eq!(out[0][0], f64::INFINITY);
                assert_eq!(out[0][1], f64::NEG_INFINITY);
                assert!(out[0][2].is_nan() && out[0][4].is_nan() && out[3][0].is_nan());
            }
        }
    }

    #[test]
    #[should_panic(expected = "dot_tile")]
    fn dot_tile_rejects_a_ragged_row_block() {
        let _ = tiled(TileKernel::detect(), &[1.0; 5], 2, &[vec![1.0; 3]]);
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
