//! Batch-first evaluation backends for the crossbar hot path.
//!
//! Every attack stage is dominated by long runs of matrix-vector
//! products and power readouts against one programmed array. The
//! per-vector entry points ([`CrossbarArray::checked_mvm`],
//! [`PowerModel::exact`]) re-materialise the effective weight matrix and
//! the per-line conductance totals on every call; a batch of `B` inputs
//! pays that `O(M·N)` setup `B` times. The evaluation API is organised
//! around a *prepared handle* that pays the setup once:
//!
//! * [`EvalBackend::prepare`] materialises a [`PreparedEval`] — the
//!   effective weights and the per-line conductance totals —
//!   fingerprinted by the array's conductance
//!   [`CrossbarArray::generation`].
//! * The `*_prepared` methods evaluate batches of the array they are
//!   given against that handle. A handle whose generation no longer
//!   matches the array (the array was re-programmed, fault-applied, or
//!   drifted since) is rejected with [`CrossbarError::StalePrepared`] —
//!   never silently reused. Arrays are immutable and a generation names
//!   exactly one set of conductances, so once the generations match the
//!   handle and the array describe the same hardware.
//!
//! Two backends implement the trait:
//!
//! * [`NaiveBackend`] — the reference implementation: a straight loop
//!   over the existing per-vector calls on the array.
//! * [`BlockedBackend`] — evaluates from the prepared weights (or line
//!   conductances) with a cache-blocked kernel over `outputs x batch`
//!   tiles, each run through the register-tiled
//!   [`xbar_linalg::vec_ops::dot_tile`], on one thread or fanned out
//!   over sample runs (output-row blocks for small batches) with
//!   [`xbar_linalg::par`]. Every output cell is still one full-length
//!   ascending-index [`xbar_linalg::vec_ops::dot`] reduction — the
//!   identical floating-point sum the per-vector path performs —
//!   computed by exactly one worker, so outputs are **bit-identical** to
//!   [`NaiveBackend`] at any thread count, not merely close.
//!
//! Noisy variants take a per-sample RNG-stream factory (sample index →
//! fresh [`ChaCha8Rng`]), so per-device noise draws depend only on the
//! sample's own stream. Results are therefore bit-identical to the
//! sequential path at any thread count and any batch partitioning.
//!
//! All backends emit the same observability events — one
//! [`xbar_obs::names::XBAR_MVM_BATCH`] count and one
//! [`xbar_obs::names::XBAR_BATCH_OCCUPANCY`] histogram sample per batch, plus
//! the per-sample analog-MVM / power-read counts the per-vector path
//! already emits, always on the calling thread — so campaign traces do
//! not depend on the backend choice or thread count.
//! [`EvalBackend::prepare`] emits no events: preparation is a caching
//! detail, not a hardware operation.

use crate::array::CrossbarArray;
use crate::power::PowerModel;
use crate::{CrossbarError, Result};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use xbar_linalg::vec_ops::{dot, dot_tile};
use xbar_linalg::{par, Matrix};

/// A per-sample RNG-stream factory: maps the index of a sample within
/// the batch to the RNG that sample's noise draws must come from.
///
/// Callers that need globally stable noise (e.g. an oracle numbering its
/// queries) close over their own offset and derive the stream from the
/// global index.
pub type RngStreams<'a> = &'a mut dyn FnMut(usize) -> ChaCha8Rng;

/// Which [`EvalBackend`] implementation to use — the value carried by
/// configs and CLI flags (usually inside a [`BackendSpec`], which adds
/// tile sizes and a thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Per-vector loop over the existing sequential calls.
    #[default]
    Naive,
    /// The tiled batch kernel ([`BlockedBackend`]) on one or more
    /// threads (bit-identical outputs at any thread count).
    Blocked,
}

impl BackendKind {
    /// The CLI spelling of this kind.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Naive => "naive",
            BackendKind::Blocked => "blocked",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "naive" => Ok(BackendKind::Naive),
            "blocked" => Ok(BackendKind::Blocked),
            other => Err(format!(
                "unknown backend {other:?} (expected naive or blocked)"
            )),
        }
    }
}

/// Tile sizes for the tiled kernel ([`BlockedBackend`]).
///
/// The defaults keep one tile of effective weights plus the tile's
/// input/output slices within a typical L1/L2 working set. Within a
/// tile, [`xbar_linalg::vec_ops::dot_tile`] computes one register tile
/// per pass — 6 rows x 8 samples on AVX2, 4 x 4 elsewhere, chosen once
/// per process from the CPU, not a knob. Tiling never
/// changes results — each output cell is one full-length ascending
/// reduction, whichever tile or SIMD lane computes it — so these are
/// pure performance knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Output rows per tile.
    pub block_outputs: usize,
    /// Batch samples per tile.
    pub block_samples: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            block_outputs: 64,
            block_samples: 16,
        }
    }
}

impl BatchConfig {
    /// Builder-style setter for the output-row tile size.
    #[must_use]
    pub fn with_block_outputs(mut self, rows: usize) -> Self {
        self.block_outputs = rows;
        self
    }

    /// Builder-style setter for the batch-sample tile size.
    #[must_use]
    pub fn with_block_samples(mut self, samples: usize) -> Self {
        self.block_samples = samples;
        self
    }

    /// Validates the tile sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidConfig`] if either tile dimension
    /// is zero.
    pub fn validate(&self) -> Result<()> {
        if self.block_outputs == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "block_outputs",
            });
        }
        if self.block_samples == 0 {
            return Err(CrossbarError::InvalidConfig {
                name: "block_samples",
            });
        }
        Ok(())
    }
}

/// A complete, serializable backend selection: which kernel, its tile
/// sizes, and the tiled kernel's worker thread count.
///
/// This is the one value configs and CLI flags carry; `--backend` flags
/// parse it via [`std::str::FromStr`] with the grammar
/// `naive | blocked | parallel[:THREADS]`. `blocked` is the tiled kernel
/// on one thread (so `blocked` ≡ `parallel:1`); `parallel` alone, or
/// `THREADS == 0`, auto-sizes to the host's available parallelism.
///
/// ```
/// use xbar_crossbar::backend::{BackendKind, BackendSpec};
///
/// let spec: BackendSpec = "parallel:4".parse()?;
/// assert_eq!(spec.kind, BackendKind::Blocked);
/// assert_eq!(spec.threads, 4);
/// assert_eq!("parallel:1".parse::<BackendSpec>()?.to_string(), "blocked");
/// assert!("blocked:4".parse::<BackendSpec>().is_err());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendSpec {
    /// Which kernel to run.
    pub kind: BackendKind,
    /// Tile sizes for the tiled kernel (ignored by
    /// [`BackendKind::Naive`]).
    pub batch: BatchConfig,
    /// Worker threads for the tiled kernel: `1` runs on the calling
    /// thread, `0` auto-sizes to the host's available parallelism.
    /// Ignored by [`BackendKind::Naive`].
    pub threads: usize,
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::new(BackendKind::default())
    }
}

impl BackendSpec {
    /// A spec for `kind` with default tile sizes on one thread.
    pub fn new(kind: BackendKind) -> Self {
        BackendSpec {
            kind,
            batch: BatchConfig::default(),
            threads: 1,
        }
    }

    /// Builder-style setter for the tiled kernel's worker count
    /// (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker threads this spec's backend runs on: the resolved
    /// [`BackendSpec::threads`] for [`BackendKind::Blocked`], one for
    /// [`BackendKind::Naive`]. Work done for this backend outside it
    /// (e.g. redeploying the array it evaluates) fans out this wide.
    pub fn worker_threads(&self) -> usize {
        match self.kind {
            BackendKind::Naive => 1,
            BackendKind::Blocked => par::resolve(self.threads),
        }
    }

    /// Validates the spec without building it.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn validate(&self) -> Result<()> {
        self.batch.validate()
    }

    /// Constructs the backend this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn build(&self) -> Result<Box<dyn EvalBackend>> {
        Ok(match self.kind {
            BackendKind::Naive => Box::new(NaiveBackend),
            BackendKind::Blocked => {
                Box::new(BlockedBackend::new(self.batch)?.with_threads(self.threads))
            }
        })
    }
}

impl From<BackendKind> for BackendSpec {
    fn from(kind: BackendKind) -> Self {
        BackendSpec::new(kind)
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.kind, self.threads) {
            (BackendKind::Naive, _) | (BackendKind::Blocked, 1) => f.write_str(self.kind.label()),
            (BackendKind::Blocked, 0) => f.write_str("parallel"),
            (BackendKind::Blocked, threads) => write!(f, "parallel:{threads}"),
        }
    }
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let (name, threads) = match s.split_once(':') {
            None => (s, None),
            Some((name, threads)) => (name, Some(threads)),
        };
        if name == "parallel" {
            let threads = match threads {
                None => 0,
                Some(t) => t.parse().map_err(|_| {
                    format!(
                        "invalid thread count {t:?} in backend spec \
                         (expected parallel:N with N a non-negative integer)"
                    )
                })?,
            };
            return Ok(BackendSpec::new(BackendKind::Blocked).with_threads(threads));
        }
        let kind: BackendKind = name.parse().map_err(|_| {
            format!("unknown backend {name:?} (expected naive, blocked, or parallel[:N])")
        })?;
        if threads.is_some() {
            return Err(format!(
                "backend {name:?} does not take a thread count \
                 (the :N suffix applies to parallel only)"
            ));
        }
        Ok(BackendSpec::new(kind))
    }
}

/// A materialised evaluation handle for one conductance generation of
/// one array: the effective weight matrix and the per-line conductance
/// totals.
///
/// Built by [`EvalBackend::prepare`] and consumed by the `*_prepared`
/// methods. The handle is keyed by [`CrossbarArray::generation`]: every
/// `*_prepared` call checks the driving array's current generation
/// against the one the handle was prepared from and fails with
/// [`CrossbarError::StalePrepared`] on mismatch — stale reuse after
/// re-programming, [`CrossbarArray::map_conductances`] (transient
/// perturbation), [`CrossbarArray::map_conductance_rows`] (fault-plan
/// application, drift redeployment), or drift-time advance is an
/// error, never silently wrong numbers.
#[derive(Debug, Clone)]
pub struct PreparedEval {
    generation: u64,
    weights: Matrix,
    conductances: Vec<f64>,
}

impl PreparedEval {
    /// Materialises a handle for the array's current generation in one
    /// `O(M·N)` pass on the calling thread. [`BlockedBackend::prepare`]
    /// runs the same pass on its worker threads.
    pub fn new(array: &CrossbarArray) -> Self {
        PreparedEval::with_threads(array, 1)
    }

    /// Materialises a handle for the array's current generation in one
    /// `O(M·N)` pass over the conductances, on up to `threads` workers
    /// (`0` = the host's parallelism; at most one per row or column,
    /// whichever there are more of, as a worker past both writes
    /// nothing).
    ///
    /// Worker `k` writes run `k` of the weight rows and block `k` of the
    /// line totals, reading every row once for both. Each weight is
    /// `(G⁺ − G⁻) · (1/k)` and each line total a sum over rows in
    /// ascending order from `0.0`, so the handle equals
    /// [`CrossbarArray::effective_weights`] and
    /// [`CrossbarArray::input_line_conductances`] bit for bit at any
    /// thread count.
    pub(crate) fn with_threads(array: &CrossbarArray, threads: usize) -> Self {
        let (m, n) = (array.num_outputs(), array.num_inputs());
        let (g_plus, g_minus) = (array.g_plus().as_slice(), array.g_minus().as_slice());
        let inv_scale = 1.0 / array.mapping().scale;
        let mut weights = vec![0.0; m * n];
        let mut conductances = vec![0.0; n];
        let workers = par::resolve(threads).min(m.max(n)).max(1);
        // `chunks` needs a non-zero length; an empty array has no rows.
        let row_len = n.max(1);
        let rows_per = m.div_ceil(workers).max(1);
        let cols_per = n.div_ceil(workers).max(1);
        let mut row_runs = weights.chunks_mut(rows_per * row_len);
        let mut col_blocks = conductances.chunks_mut(cols_per);
        let mut tasks: Vec<(&mut [f64], &mut [f64])> = (0..workers)
            .map(|_| {
                let rows = row_runs.next().unwrap_or_default();
                (rows, col_blocks.next().unwrap_or_default())
            })
            .collect();
        par::for_each_run(&mut tasks, workers, |k0, run| {
            for (k, (w_run, block)) in (k0..).zip(run.iter_mut()) {
                // Past the last block (fewer columns than workers) a
                // worker totals nothing.
                let (row0, col0) = (k * rows_per, (k * cols_per).min(n));
                let mut w_rows = w_run.chunks_mut(row_len);
                let rows = g_plus.chunks(row_len).zip(g_minus.chunks(row_len));
                for (i, (p, q)) in rows.enumerate() {
                    if i >= row0 {
                        if let Some(w_row) = w_rows.next() {
                            for ((w, &gp), &gm) in w_row.iter_mut().zip(p).zip(q) {
                                *w = (gp - gm) * inv_scale;
                            }
                        }
                    }
                    for ((total, &gp), &gm) in block.iter_mut().zip(&p[col0..]).zip(&q[col0..]) {
                        *total += gp + gm;
                    }
                }
            }
        });
        PreparedEval {
            generation: array.generation(),
            weights: Matrix::from_vec(m, n, weights),
            conductances,
        }
    }

    /// The conductance generation this handle was prepared from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The materialised effective weights,
    /// [`CrossbarArray::effective_weights`] of the prepared array.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The materialised per-line conductance totals,
    /// [`CrossbarArray::input_line_conductances`] of the prepared array.
    pub fn line_conductances(&self) -> &[f64] {
        &self.conductances
    }

    /// Fails unless `array`'s current conductance generation matches the
    /// one this handle was prepared from.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::StalePrepared`] on mismatch.
    pub fn ensure_current(&self, array: &CrossbarArray) -> Result<()> {
        if array.generation() != self.generation {
            return Err(CrossbarError::StalePrepared {
                prepared: self.generation,
                current: array.generation(),
            });
        }
        Ok(())
    }
}

/// Batched evaluation of one programmed crossbar array.
///
/// All implementations must produce outputs bit-identical to looping the
/// corresponding per-vector call over the batch in order, and must emit
/// the same observability events while doing so.
///
/// The entry points are [`EvalBackend::prepare`] plus the `*_prepared`
/// methods: prepare once per deployed array generation, then evaluate
/// any number of batches against the handle.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Materialises a [`PreparedEval`] for the array's current
    /// conductance generation. Emits no observability events.
    ///
    /// # Errors
    ///
    /// The provided implementations never fail; the `Result` leaves
    /// room for backends whose preparation can.
    fn prepare(&self, array: &CrossbarArray) -> Result<PreparedEval> {
        Ok(PreparedEval::new(array))
    }

    /// Noiseless differential MVM for a batch of inputs against a
    /// prepared handle — the batched [`CrossbarArray::checked_mvm`].
    ///
    /// `array` must be the array the handle was prepared from (same
    /// generation); evaluation reads the handle's materialised state
    /// where it has one and `array` otherwise.
    ///
    /// # Errors
    ///
    /// * [`CrossbarError::StalePrepared`] if `array`'s generation no
    ///   longer matches the handle.
    /// * [`CrossbarError::InputLenMismatch`] if any input has the wrong
    ///   length (checked up front; no partial work happens).
    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>>;

    /// Noiseless measured power for a batch of inputs against a
    /// prepared handle — the batched [`PowerModel::exact`].
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>>;

    /// Differential MVM with per-read device noise for a batch of
    /// inputs against a prepared handle. Sample `i`'s noise draws come
    /// from `streams(i)` only, so results match the sequential
    /// per-vector loop at any thread count.
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>>;

    /// Noisy measured power for a batch of inputs against a prepared
    /// handle; sample `i`'s measurement noise comes from `streams(i)`
    /// only.
    ///
    /// # Errors
    ///
    /// As [`EvalBackend::mvm_prepared`].
    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>>;
}

/// Rejects the whole batch before any work (or counting) happens, so
/// all backends fail identically and traces never record partial
/// batches.
fn validate_batch(array: &CrossbarArray, inputs: &[&[f64]]) -> Result<()> {
    let n = array.num_inputs();
    for input in inputs {
        if input.len() != n {
            return Err(CrossbarError::InputLenMismatch {
                expected: n,
                got: input.len(),
            });
        }
    }
    Ok(())
}

/// The shared batch-entry observability events (deliberately identical
/// across backends so traces are backend-invariant).
fn record_batch(inputs: &[&[f64]]) {
    xbar_obs::count(xbar_obs::names::XBAR_MVM_BATCH, 1);
    xbar_obs::observe(xbar_obs::names::XBAR_BATCH_OCCUPANCY, inputs.len() as u64);
}

/// Per-sample noisy MVM loop shared by all backends: the per-device
/// draw order inside one sample cannot be restructured without changing
/// results, so batching buys nothing here beyond stream isolation.
fn noisy_mvm_per_sample(
    array: &CrossbarArray,
    inputs: &[&[f64]],
    streams: RngStreams<'_>,
) -> Result<Vec<Vec<f64>>> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let mut rng = streams(i);
            array.noisy_mvm(input, &mut rng)
        })
        .collect()
}

/// The tiled noiseless MVM kernel over output rows `row0..row1`,
/// writing sample `s`'s row `i` into `out[s][i - row0]`.
///
/// This is the one kernel every [`BlockedBackend`] worker runs: each
/// `block_outputs x block_samples` tile goes through [`dot_tile`],
/// whose register tile (6 x 8 on AVX2, else 4 x 4) computes 48 or 16
/// cells side by side, each still
/// one full-length ascending-index [`dot`] reduction — the identical
/// sum `checked_mvm` performs — so tile boundaries, SIMD
/// lanes and work partitioning never change a single bit of the result.
fn mvm_tiles_into(
    w_eff: &Matrix,
    inputs: &[&[f64]],
    row0: usize,
    row1: usize,
    config: BatchConfig,
    out: &mut [Vec<f64>],
) {
    let n = w_eff.cols();
    let bo = config.block_outputs.max(1);
    let bs = config.block_samples.max(1);
    for s0 in (0..inputs.len()).step_by(bs) {
        let s1 = (s0 + bs).min(inputs.len());
        let mut i0 = row0;
        while i0 < row1 {
            let i1 = (i0 + bo).min(row1);
            let mut cells: Vec<&mut [f64]> = out[s0..s1]
                .iter_mut()
                .map(|sample_out| &mut sample_out[i0 - row0..i1 - row0])
                .collect();
            dot_tile(
                &w_eff.as_slice()[i0 * n..i1 * n],
                &inputs[s0..s1],
                &mut cells,
            );
            i0 = i1;
        }
    }
}

/// The reference backend: a straight loop over the per-vector calls on
/// the array.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBackend;

impl EvalBackend for NaiveBackend {
    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        inputs
            .iter()
            .map(|input| array.checked_mvm(input))
            .collect()
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        inputs
            .iter()
            .map(|input| model.exact(array, input))
            .collect()
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        noisy_mvm_per_sample(array, inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        // The reference: the per-vector `measure`, which rebuilds the
        // line conductances for every sample.
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| model.measure(array, input, &mut streams(i)))
            .collect()
    }
}

/// The tiled batch backend, on one thread or fanned out over several.
///
/// Noiseless evaluation reads the handle's materialised weights (or
/// line conductances) and walks `outputs x batch` tiles so a tile of
/// weight rows stays cache-resident across the tile's samples; inside a
/// tile, [`dot_tile`] streams 6 weight rows against a packed panel of 8
/// samples on AVX2 (4 against 4 elsewhere), with one independent
/// accumulator per output cell. With
/// more than one worker, MVM splits the batch into contiguous sample
/// runs, one per worker, each writing a disjoint slice of the output;
/// when the batch is smaller than the pool, workers instead take
/// contiguous output-row blocks. Either way every output cell is one
/// full-length ascending-index [`dot`] reduction computed by exactly
/// one worker, so every number equals the per-vector path's bit for bit
/// at any thread count — threads and register lanes only change which
/// worker or lane computes a cell, never the reduction inside it.
///
/// Noisy variants stay sequential per sample: the per-sample RNG-stream
/// factory is an exclusive closure, and per-device draw order is part
/// of the contract. Noisy power still reads the handle's line
/// conductances for the exact part of each reading and only draws the
/// measurement noise per sample.
///
/// All observability events are emitted on the calling thread before
/// work is fanned out (the obs collector scope is thread-local), so
/// traces are identical to [`NaiveBackend`]'s at any thread count.
#[derive(Debug, Clone, Copy)]
pub struct BlockedBackend {
    config: BatchConfig,
    threads: usize,
}

impl Default for BlockedBackend {
    fn default() -> Self {
        BlockedBackend {
            config: BatchConfig::default(),
            threads: 1,
        }
    }
}

impl BlockedBackend {
    /// A one-thread tiled backend with the given tile sizes.
    ///
    /// # Errors
    ///
    /// Propagates [`BatchConfig::validate`].
    pub fn new(config: BatchConfig) -> Result<Self> {
        config.validate()?;
        Ok(BlockedBackend { config, threads: 1 })
    }

    /// Builder-style setter for the worker count (`0` = the host's
    /// available parallelism, resolved here once).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = par::resolve(threads);
        self
    }

    /// The tile sizes in effect.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// The worker count in effect (at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl EvalBackend for BlockedBackend {
    /// [`PreparedEval::new`]'s one-pass prepare on this backend's
    /// worker threads (inline at one thread).
    fn prepare(&self, array: &CrossbarArray) -> Result<PreparedEval> {
        Ok(PreparedEval::with_threads(array, self.threads))
    }

    fn mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        // One analog MVM per sample, exactly like the per-vector path.
        xbar_obs::count(xbar_obs::names::XBAR_ANALOG_MVM, inputs.len() as u64);
        let w_eff = prepared.weights();
        let m = w_eff.rows();
        let config = self.config;
        let mut out: Vec<Vec<f64>> = inputs.iter().map(|_| vec![0.0; m]).collect();
        let threads = self.threads.min(m.max(1));
        if (1..threads).contains(&inputs.len()) {
            // Narrow batch: contiguous output-row blocks, one per
            // worker, computed into worker-local buffers and stitched
            // back (an O(M·B) copy against O(M·N·B) compute).
            let rows_per = m.div_ceil(threads);
            let mut blocks: Vec<(usize, Vec<Vec<f64>>)> = (0..m)
                .step_by(rows_per)
                .map(|row0| (row0, Vec::new()))
                .collect();
            par::for_each_run(&mut blocks, threads, |_, run| {
                for (row0, local) in run {
                    let row1 = (*row0 + rows_per).min(m);
                    *local = inputs.iter().map(|_| vec![0.0; row1 - *row0]).collect();
                    mvm_tiles_into(w_eff, inputs, *row0, row1, config, local);
                }
            });
            for (row0, local) in blocks {
                for (sample_out, rows) in out.iter_mut().zip(local) {
                    sample_out[row0..row0 + rows.len()].copy_from_slice(&rows);
                }
            }
        } else {
            // Contiguous sample runs, one per worker, each writing its
            // own disjoint output slice (inline on one thread).
            par::for_each_run(&mut out, threads, |s0, run| {
                mvm_tiles_into(w_eff, &inputs[s0..s0 + run.len()], 0, m, config, run);
            });
        }
        Ok(out)
    }

    fn power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        // One power read per sample, exactly like the per-vector path.
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, inputs.len() as u64);
        let conductances = prepared.line_conductances();
        let v_dd = model.v_dd;
        // One O(N) dot per sample: not worth a fan-out below a few
        // samples per worker.
        let threads = if inputs.len() < 2 * self.threads {
            1
        } else {
            self.threads
        };
        let mut out = vec![0.0; inputs.len()];
        par::for_each_run(&mut out, threads, |s0, run| {
            for (o, input) in run.iter_mut().zip(&inputs[s0..]) {
                // Same accumulation as `total_current`, amortising the
                // per-line conductance totals across batches.
                *o = v_dd * dot(conductances, input);
            }
        });
        Ok(out)
    }

    fn noisy_mvm_prepared(
        &self,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        noisy_mvm_per_sample(array, inputs, streams)
    }

    fn noisy_power_prepared(
        &self,
        model: &PowerModel,
        prepared: &PreparedEval,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        prepared.ensure_current(array)?;
        validate_batch(array, inputs)?;
        record_batch(inputs);
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, inputs.len() as u64);
        // The exact reading is `power_prepared`'s dot over the handle's
        // line conductances — the same sum `total_current` forms — so
        // only the per-sample noise draws remain sequential.
        let conductances = prepared.line_conductances();
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(i, input)| model.corrupt(model.v_dd * dot(conductances, input), &mut streams(i)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use rand::SeedableRng;
    use xbar_linalg::Matrix;

    // Prepare-once shorthands: the tests below compare backends on
    // single batches, where "prepare, evaluate, drop" is the whole
    // lifecycle.
    fn mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.mvm_prepared(&prepared, array, inputs)
    }

    fn power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
    ) -> Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.power_prepared(model, &prepared, array, inputs)
    }

    fn noisy_mvm<B: EvalBackend + ?Sized>(
        backend: &B,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<Vec<f64>>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_mvm_prepared(&prepared, array, inputs, streams)
    }

    fn noisy_power<B: EvalBackend + ?Sized>(
        backend: &B,
        model: &PowerModel,
        array: &CrossbarArray,
        inputs: &[&[f64]],
        streams: RngStreams<'_>,
    ) -> Result<Vec<f64>> {
        let prepared = backend.prepare(array)?;
        backend.noisy_power_prepared(model, &prepared, array, inputs, streams)
    }

    fn array(m: usize, n: usize, seed: u64) -> CrossbarArray {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
        CrossbarArray::program(&w, &DeviceModel::ideal(), &mut rng).unwrap()
    }

    fn batch(n: usize, b: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..b)
            .map(|_| {
                (0..n)
                    .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
                    .collect()
            })
            .collect()
    }

    fn refs(batch: &[Vec<f64>]) -> Vec<&[f64]> {
        batch.iter().map(Vec::as_slice).collect()
    }

    /// (outputs, inputs, batch) shapes the tiled-kernel tests cover: a
    /// small ragged array, the paper's 10x784 victim with a batch ragged
    /// in both register-tile dimensions, and single-sample batches.
    const SHAPES: [(usize, usize, usize); 4] =
        [(13, 29, 37), (10, 784, 61), (10, 784, 1), (13, 29, 1)];

    #[test]
    fn blocked_mvm_is_bit_identical_to_naive() {
        for (seed, (m, n, b)) in (1..).step_by(2).zip(SHAPES) {
            let xbar = array(m, n, seed);
            let inputs = batch(n, b, seed + 1);
            let refs = refs(&inputs);
            let naive = mvm(&NaiveBackend, &xbar, &refs).unwrap();
            let blocked = mvm(&BlockedBackend::default(), &xbar, &refs).unwrap();
            assert_eq!(naive, blocked, "{m}x{n} batch {b}");
            // And both equal the sequential per-vector loop.
            for (input, row) in refs.iter().zip(&naive) {
                assert_eq!(row, &xbar.checked_mvm(input).unwrap());
            }
        }
    }

    #[test]
    fn parallel_mvm_is_bit_identical_at_any_thread_count() {
        let xbar = array(19, 23, 11);
        let model = PowerModel::default();
        for b in [1usize, 3, 16] {
            let inputs = batch(23, b, 12);
            let refs = refs(&inputs);
            let naive = mvm(&NaiveBackend, &xbar, &refs).unwrap();
            let p_naive = power(&NaiveBackend, &model, &xbar, &refs).unwrap();
            // 0 = auto; 1 = inline; small and oversubscribed pools; both
            // the sample-chunk (b >= threads) and row-block (b < threads)
            // paths are crossed.
            for threads in [0usize, 1, 2, 3, 8, 32] {
                let parallel = BlockedBackend::default().with_threads(threads);
                assert_eq!(
                    mvm(&parallel, &xbar, &refs).unwrap(),
                    naive,
                    "mvm b={b} threads={threads}"
                );
                assert_eq!(
                    power(&parallel, &model, &xbar, &refs).unwrap(),
                    p_naive,
                    "power b={b} threads={threads}"
                );
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn prepared_handles_are_bit_identical_at_any_thread_count() {
        // Non-ideal hardware (quantised, varied, stuck devices over a
        // non-zero g_min), so weights and line totals carry rounding.
        let device = DeviceModel {
            g_min: 0.03,
            levels: Some(64),
            program_sigma: 0.1,
            stuck_rate: 0.05,
            ..DeviceModel::ideal()
        };
        // Ragged row runs and column blocks at 3 and 8 workers, a single
        // row, a single column, and arrays with fewer rows, columns or
        // cells than workers.
        let shapes = [(257, 513), (1, 1031), (1031, 1), (3, 5), (2, 1)];
        for (seed, (m, n)) in (51..).zip(shapes) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let w = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);
            let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
            let weights = bits(xbar.effective_weights().as_slice());
            let lines = bits(&xbar.input_line_conductances());
            for threads in [1usize, 2, 3, 8] {
                let prepared = BlockedBackend::default()
                    .with_threads(threads)
                    .prepare(&xbar)
                    .unwrap();
                assert_eq!(prepared.generation(), xbar.generation());
                assert_eq!(
                    bits(prepared.weights().as_slice()),
                    weights,
                    "{m}x{n} threads={threads}"
                );
                assert_eq!(
                    bits(prepared.line_conductances()),
                    lines,
                    "{m}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn prepared_handles_are_reusable_across_batches() {
        let xbar = array(9, 14, 21);
        let first = batch(14, 6, 22);
        let second = batch(14, 3, 23);
        for spec in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Blocked).with_threads(2),
        ] {
            let backend = spec.build().unwrap();
            let prepared = backend.prepare(&xbar).unwrap();
            assert_eq!(prepared.generation(), xbar.generation());
            for inputs in [&first, &second] {
                let refs = refs(inputs);
                let warm = backend.mvm_prepared(&prepared, &xbar, &refs).unwrap();
                assert_eq!(warm, mvm(backend.as_ref(), &xbar, &refs).unwrap(), "{spec}");
                let model = PowerModel::default();
                let p_warm = backend
                    .power_prepared(&model, &prepared, &xbar, &refs)
                    .unwrap();
                assert_eq!(
                    p_warm,
                    power(backend.as_ref(), &model, &xbar, &refs).unwrap(),
                    "{spec}"
                );
            }
        }
    }

    #[test]
    fn stale_prepared_handles_are_rejected() {
        let xbar = array(5, 7, 31);
        let inputs = batch(7, 2, 32);
        let refs = refs(&inputs);
        let model = PowerModel::default();
        let mut stream = |_: usize| ChaCha8Rng::seed_from_u64(9);
        for kind in [BackendKind::Naive, BackendKind::Blocked] {
            let backend = BackendSpec::new(kind).build().unwrap();
            let prepared = backend.prepare(&xbar).unwrap();
            // Even an identity conductance map invalidates the handle.
            let remapped = xbar.map_conductances(|_, g| g);
            let err = backend.mvm_prepared(&prepared, &remapped, &refs);
            assert!(
                matches!(err, Err(CrossbarError::StalePrepared { .. })),
                "{kind}: {err:?}"
            );
            assert!(backend
                .power_prepared(&model, &prepared, &remapped, &refs)
                .is_err());
            assert!(backend
                .noisy_mvm_prepared(&prepared, &remapped, &refs, &mut stream)
                .is_err());
            assert!(backend
                .noisy_power_prepared(&model, &prepared, &remapped, &refs, &mut stream)
                .is_err());
            // The handle still serves the generation it was built from.
            assert!(backend.mvm_prepared(&prepared, &xbar, &refs).is_ok());
        }
    }

    #[test]
    fn blocked_power_is_bit_identical_to_naive() {
        let xbar = array(7, 31, 3);
        let inputs = batch(31, 25, 4);
        let refs = refs(&inputs);
        let model = PowerModel::default();
        let naive = power(&NaiveBackend, &model, &xbar, &refs).unwrap();
        let blocked = power(&BlockedBackend::default(), &model, &xbar, &refs).unwrap();
        assert_eq!(naive, blocked);
        for (input, p) in refs.iter().zip(&naive) {
            assert_eq!(*p, model.exact(&xbar, input).unwrap());
        }
    }

    #[test]
    fn tiny_tiles_do_not_change_results() {
        let tiny = BlockedBackend::new(
            BatchConfig::default()
                .with_block_outputs(2)
                .with_block_samples(3),
        )
        .unwrap();
        for (seed, (m, n, b)) in (5..)
            .step_by(2)
            .zip([(9, 11, 10)].into_iter().chain(SHAPES))
        {
            let xbar = array(m, n, seed);
            let inputs = batch(n, b, seed + 1);
            let refs = refs(&inputs);
            assert_eq!(
                mvm(&tiny, &xbar, &refs).unwrap(),
                mvm(&NaiveBackend, &xbar, &refs).unwrap(),
                "{m}x{n} batch {b}"
            );
        }
    }

    #[test]
    fn noisy_batches_match_sequential_per_sample_streams() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let w = Matrix::random_uniform(6, 10, -1.0, 1.0, &mut rng);
        let device = DeviceModel::ideal().with_read_sigma(0.02);
        let xbar = CrossbarArray::program(&w, &device, &mut rng).unwrap();
        let inputs = batch(10, 9, 8);
        let refs = refs(&inputs);
        let stream = |i: usize| {
            let mut r = ChaCha8Rng::seed_from_u64(99);
            r.set_stream(i as u64);
            r
        };
        let naive = noisy_mvm(&NaiveBackend, &xbar, &refs, &mut { stream }).unwrap();
        for backend in [
            Box::new(BlockedBackend::default()) as Box<dyn EvalBackend>,
            Box::new(BlockedBackend::default().with_threads(4)),
        ] {
            assert_eq!(
                naive,
                noisy_mvm(backend.as_ref(), &xbar, &refs, &mut { stream }).unwrap()
            );
        }
        // Sequential reference with the same streams.
        for (i, input) in refs.iter().enumerate() {
            let mut r = stream(i);
            assert_eq!(naive[i], xbar.noisy_mvm(input, &mut r).unwrap());
        }

        let model = PowerModel::default().with_noise(0.1);
        let p_naive = noisy_power(&NaiveBackend, &model, &xbar, &refs, &mut { stream }).unwrap();
        let p_blocked = noisy_power(&BlockedBackend::default(), &model, &xbar, &refs, &mut {
            stream
        })
        .unwrap();
        assert_eq!(p_naive, p_blocked);
    }

    #[test]
    fn wrong_length_inputs_are_rejected_up_front() {
        let xbar = array(4, 6, 9);
        let good = vec![0.5; 6];
        let bad = vec![0.5; 5];
        let refs: Vec<&[f64]> = vec![&good, &bad];
        for spec in ["naive", "blocked", "parallel"] {
            let backend = spec.parse::<BackendSpec>().unwrap().build().unwrap();
            assert!(matches!(
                mvm(backend.as_ref(), &xbar, &refs),
                Err(CrossbarError::InputLenMismatch {
                    expected: 6,
                    got: 5
                })
            ));
            assert!(power(backend.as_ref(), &PowerModel::default(), &xbar, &refs).is_err());
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let xbar = array(3, 4, 10);
        let refs: Vec<&[f64]> = Vec::new();
        for spec in ["naive", "blocked", "parallel"] {
            let backend = spec.parse::<BackendSpec>().unwrap().build().unwrap();
            assert!(mvm(backend.as_ref(), &xbar, &refs).unwrap().is_empty());
        }
    }

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in [BackendKind::Naive, BackendKind::Blocked] {
            assert_eq!(kind.label().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
        }
        assert!("gpu".parse::<BackendKind>().is_err());
        // Thread counts belong to the spec, not the kind.
        assert!("parallel".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::default(), BackendKind::Naive);
        // The default tiled backend runs on one thread.
        assert_eq!(BlockedBackend::default().threads(), 1);
    }

    #[test]
    fn backend_spec_parses_and_roundtrips() {
        assert_eq!(
            "naive".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Naive)
        );
        assert_eq!(
            "blocked".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Blocked)
        );
        assert_eq!(
            "parallel".parse::<BackendSpec>().unwrap(),
            BackendSpec::new(BackendKind::Blocked).with_threads(0)
        );
        let spec: BackendSpec = "parallel:8".parse().unwrap();
        assert_eq!(spec.kind, BackendKind::Blocked);
        assert_eq!(spec.threads, 8);
        // `blocked` is the tiled kernel on exactly one thread, however it
        // is spelled; `parallel` alone is the host's core count.
        let blocked: BackendSpec = "blocked".parse().unwrap();
        assert_eq!(blocked.threads, 1);
        assert_eq!(BackendSpec::from(BackendKind::Blocked), blocked);
        assert_eq!("parallel:1".parse::<BackendSpec>().unwrap(), blocked);
        assert_eq!(
            "parallel:1".parse::<BackendSpec>().unwrap().to_string(),
            "blocked"
        );
        let auto = "parallel".parse::<BackendSpec>().unwrap();
        assert_eq!(
            BlockedBackend::new(auto.batch)
                .unwrap()
                .with_threads(auto.threads)
                .threads(),
            par::host_threads()
        );
        // Display round-trips through FromStr.
        for s in ["naive", "blocked", "parallel", "parallel:8"] {
            let spec: BackendSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.to_string().parse::<BackendSpec>().unwrap(), spec);
        }
        // Malformed specs fail loudly.
        for bad in [
            "gpu",
            "parallel:x",
            "parallel:-1",
            "naive:2",
            "blocked:4",
            "",
        ] {
            assert!(bad.parse::<BackendSpec>().is_err(), "{bad:?}");
        }
        // From<BackendKind> keeps old call sites working.
        let from_kind: BackendSpec = BackendKind::Blocked.into();
        assert_eq!(from_kind, BackendSpec::new(BackendKind::Blocked));
        assert_eq!(BackendSpec::default().kind, BackendKind::Naive);
    }

    #[test]
    fn spec_build_validates_batch_config() {
        let mut bad = BackendSpec::new(BackendKind::Blocked);
        bad.batch = BatchConfig::default().with_block_outputs(0);
        assert!(bad.validate().is_err());
        assert!(bad.build().is_err());
        let mut good = BackendSpec::new(BackendKind::Blocked).with_threads(2);
        good.batch = BatchConfig::default().with_block_outputs(8);
        assert!(good.validate().is_ok());
        let built = format!("{:?}", good.build().unwrap());
        assert!(built.starts_with("BlockedBackend"), "{built}");
        assert!(built.contains("threads: 2"), "{built}");
    }

    #[test]
    fn batch_config_validates() {
        assert!(BatchConfig::default().validate().is_ok());
        assert!(BlockedBackend::new(BatchConfig::default().with_block_outputs(0)).is_err());
        assert!(BlockedBackend::new(BatchConfig::default().with_block_samples(0)).is_err());
        let cfg = BatchConfig::default()
            .with_block_outputs(8)
            .with_block_samples(4);
        assert_eq!(BlockedBackend::new(cfg).unwrap().config(), cfg);
        let tiled = BlockedBackend::new(cfg).unwrap();
        assert_eq!(tiled.threads(), 1);
        assert_eq!(tiled.with_threads(3).threads(), 3);
        assert_eq!(tiled.with_threads(0).threads(), par::host_threads());
    }
}
