//! The `xbar bench mvm` microbenchmark: a size x threads matrix over
//! the evaluation backends.
//!
//! For each crossbar size in the matrix (up to 1024x1024 = 1,048,576
//! devices in the full run; smaller under `--quick`) and each thread
//! count in 1/2/4/8, one row times the naive backend and the tiled
//! backend at one thread (`blocked`) and at the row's thread count
//! (`parallel:N`) on warm
//! [`PreparedEval`](xbar_crossbar::backend::PreparedEval) handles,
//! reports the tiled kernel's throughput in GMAC/s, verifies the
//! outputs are bit-identical across backends, and
//! records the prepare-hit vs prepare-miss cost of the prepared-handle
//! API. A fault-lifecycle section times fault deployment on the
//! largest size the way the oracle runs it at deployment and at every
//! drift epoch: plan compile, then plan apply on the backend's threads,
//! prepare of the faulted array and one batched MVM. CI uploads the
//! report as the `BENCH_mvm.json` artifact and smoke-asserts
//! `bit_identical` and `parallel_speedup` on every row.
//!
//! Every figure comes from one sampler: a warm-up call, then
//! `iterations` individually timed calls. Each `*_nanos` key is their
//! median, with the median absolute deviation and the minimum beside it
//! as `*_mad_nanos` and `*_min_nanos`; throughputs and ratios are taken
//! from the medians.
//!
//! `host_threads` (the machine's available parallelism) and `cpu_model`
//! name the host so the thread-scaling columns are interpretable: thread
//! counts above `host_threads` measure scheduling overhead, not speedup.
//! `tile_kernel` names the register-tile instance the tiled backend ran
//! ([`TileKernel::detect`]), since the GMAC/s columns depend on it, and
//! `kernels` times every instance the CPU runs on each size, one thread,
//! so the two instances' GMAC/s can be compared in one report.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, BackendSpec, BatchConfig, BlockedBackend, EvalBackend};
use xbar_crossbar::device::DeviceModel;
use xbar_faults::{FaultKey, FaultPlan, FaultSpec};
use xbar_linalg::vec_ops::TileKernel;
use xbar_linalg::Matrix;
use xbar_stats::descriptive;

use crate::write_json;

/// The campaign seed pinning every array, batch, and fault draw.
const MVM_BENCH_SEED: u64 = 77;

/// Thread counts exercised for the parallel backend in every size row.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One (size x threads) cell of the benchmark matrix.
#[derive(Debug, Clone, Serialize)]
pub struct MvmBenchRow {
    /// Crossbar output rows.
    pub outputs: usize,
    /// Crossbar input columns.
    pub inputs: usize,
    /// Devices in the array (`outputs * inputs`).
    pub devices: usize,
    /// Batch size (input vectors per batched call).
    pub batch: usize,
    /// Timed repeats behind every figure in the row, each after one
    /// untimed warm-up call.
    pub iterations: usize,
    /// Tiled-backend thread count for this row (`parallel:N`).
    pub threads: usize,
    /// Median nanoseconds per warm batched MVM, naive backend.
    pub naive_nanos: u64,
    /// Median absolute deviation of the `naive_nanos` repeats.
    pub naive_mad_nanos: u64,
    /// Fastest of the `naive_nanos` repeats.
    pub naive_min_nanos: u64,
    /// Median nanoseconds per warm batched MVM, tiled backend on one
    /// thread (`blocked`).
    pub blocked_nanos: u64,
    /// Median absolute deviation of the `blocked_nanos` repeats.
    pub blocked_mad_nanos: u64,
    /// Fastest of the `blocked_nanos` repeats.
    pub blocked_min_nanos: u64,
    /// Median nanoseconds per warm batched MVM, tiled backend at
    /// `threads` threads.
    pub parallel_nanos: u64,
    /// Median absolute deviation of the `parallel_nanos` repeats.
    pub parallel_mad_nanos: u64,
    /// Fastest of the `parallel_nanos` repeats.
    pub parallel_min_nanos: u64,
    /// The one-thread tiled kernel's throughput in GMAC/s
    /// (`devices * batch` multiply-adds per `blocked_nanos`).
    pub blocked_gmacs: f64,
    /// The tiled kernel's throughput at `threads` threads, in GMAC/s.
    pub parallel_gmacs: f64,
    /// `naive_nanos / parallel_nanos` — the smoke-tested speedup, safe
    /// at any host core count because the tiled kernel beats the naive
    /// per-vector loop even single-threaded.
    pub parallel_speedup: f64,
    /// `blocked_nanos / parallel_nanos` — the thread-scaling ratio.
    /// Only exceeds 1.0 meaningfully when `host_threads` allows it.
    pub parallel_over_blocked: f64,
    /// Whether blocked and parallel outputs were bit-identical to the
    /// naive backend on this row.
    pub bit_identical: bool,
    /// Median nanoseconds per `EvalBackend::prepare` (materialising
    /// the effective weights and the per-line conductance totals).
    pub prepare_nanos: u64,
    /// Median absolute deviation of the `prepare_nanos` repeats.
    pub prepare_mad_nanos: u64,
    /// Fastest of the `prepare_nanos` repeats.
    pub prepare_min_nanos: u64,
    /// Batch size used for the prepare-hit vs prepare-miss probe
    /// (small, so the prepare cost is visible against the evaluation).
    pub prepared_probe_batch: usize,
    /// Median nanoseconds per prepare-miss probe batch: a fresh
    /// `prepare` followed by one batched MVM (what a caller that
    /// re-prepares on every batch pays per call).
    pub cold_batch_nanos: u64,
    /// Median absolute deviation of the `cold_batch_nanos` repeats.
    pub cold_batch_mad_nanos: u64,
    /// Fastest of the `cold_batch_nanos` repeats.
    pub cold_batch_min_nanos: u64,
    /// Median nanoseconds per prepare-hit probe batch: one batched MVM
    /// on a reused handle.
    pub warm_batch_nanos: u64,
    /// Median absolute deviation of the `warm_batch_nanos` repeats.
    pub warm_batch_mad_nanos: u64,
    /// Fastest of the `warm_batch_nanos` repeats.
    pub warm_batch_min_nanos: u64,
    /// `cold_batch_nanos / warm_batch_nanos` — the payoff of reusing a
    /// prepared handle across batches.
    pub prepared_speedup: f64,
}

/// One [`TileKernel`] instance on one benchmark size: the one-thread
/// tiled pass the `blocked` backend runs (default [`BatchConfig`]
/// blocks), with the instance fixed instead of detected, so both
/// instances' GMAC/s sit side by side in one report.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// The instance's name (`"portable-4x4"` or `"avx2-6x8"`).
    pub kernel: &'static str,
    /// Crossbar output rows.
    pub outputs: usize,
    /// Crossbar input columns.
    pub inputs: usize,
    /// Batch size.
    pub batch: usize,
    /// Median nanoseconds per pass.
    pub nanos: u64,
    /// Median absolute deviation of the `nanos` repeats.
    pub mad_nanos: u64,
    /// Fastest of the `nanos` repeats.
    pub min_nanos: u64,
    /// Throughput in GMAC/s (`outputs * inputs * batch` multiply-adds
    /// per `nanos`).
    pub gmacs: f64,
    /// Whether the pass's outputs were bit-identical to the naive
    /// backend's.
    pub bit_identical: bool,
}

/// Fault-injection lifecycle timings on the largest benchmark size.
#[derive(Debug, Clone, Serialize)]
pub struct FaultLifecycleReport {
    /// Crossbar output rows of the timed array.
    pub outputs: usize,
    /// Crossbar input columns of the timed array.
    pub inputs: usize,
    /// Batch size per timed call.
    pub batch: usize,
    /// Median nanoseconds per faulted deployment of a representative
    /// (1% stuck-on, 1% stuck-off, sigma=0.1 variation) plan, as the
    /// oracle deploys and redeploys: [`FaultPlan::apply_at_threads`] on
    /// the blocked backend's threads, [`BlockedBackend`]'s `prepare` of
    /// the faulted array, and one batched MVM.
    pub faulty_nanos: u64,
    /// Median absolute deviation of the `faulty_nanos` repeats.
    pub faulty_mad_nanos: u64,
    /// Fastest of the `faulty_nanos` repeats.
    pub faulty_min_nanos: u64,
    /// `faulty_nanos` over the bare blocked backend's median
    /// prepare-miss cost (prepare + batched MVM of the unfaulted
    /// array): the per-deployment fault-injection overhead.
    pub fault_overhead: f64,
    /// Whether an *empty* fault plan deployed through that same path
    /// returned outputs bit-identical to the bare blocked backend on
    /// the unfaulted array.
    pub faulty_noop_bit_identical: bool,
    /// Median nanoseconds per `FaultSpec::compile` of the
    /// representative plan (the per-trial cost of drawing a fault
    /// realisation).
    pub fault_compile_nanos: u64,
    /// Median absolute deviation of the `fault_compile_nanos` repeats.
    pub fault_compile_mad_nanos: u64,
    /// Fastest of the `fault_compile_nanos` repeats.
    pub fault_compile_min_nanos: u64,
    /// Median nanoseconds per [`FaultPlan::apply_at_threads`] of the
    /// representative plan to the benchmark array on the blocked
    /// backend's threads (the per-deployment cost of materialising the
    /// faulted conductances).
    pub fault_apply_nanos: u64,
    /// Median absolute deviation of the `fault_apply_nanos` repeats.
    pub fault_apply_mad_nanos: u64,
    /// Fastest of the `fault_apply_nanos` repeats.
    pub fault_apply_min_nanos: u64,
}

/// The full benchmark report: one row per (size x threads) cell plus
/// the fault lifecycle section.
#[derive(Debug, Clone, Serialize)]
pub struct MvmBenchReport {
    /// Whether the reduced `--quick` matrix was run.
    pub quick: bool,
    /// The seed pinning every draw.
    pub seed: u64,
    /// The host's available parallelism when the benchmark ran. Thread
    /// counts above this measure oversubscription, not speedup.
    pub host_threads: usize,
    /// The CPU model from `/proc/cpuinfo` (`"unknown"` where that file
    /// is unavailable).
    pub cpu_model: String,
    /// The [`TileKernel`] instance the tiled backend ran
    /// (`"avx2-6x8"` or `"portable-4x4"`), chosen once per process from
    /// the CPU's features.
    pub tile_kernel: &'static str,
    /// The (size x threads) matrix, sizes ascending, threads ascending
    /// within a size.
    pub rows: Vec<MvmBenchRow>,
    /// Every instance this CPU runs, per size (sizes ascending).
    pub kernels: Vec<KernelRow>,
    /// Fault-injection lifecycle timings on the largest size.
    pub faults: FaultLifecycleReport,
}

/// Per-call nanoseconds of one benchmarked operation: the median,
/// median absolute deviation and minimum over timed repeats.
#[derive(Debug, Clone, Copy)]
struct Timing {
    median: u64,
    mad: u64,
    min: u64,
}

/// The benchmark's one sampler: one untimed warm-up call of `f`, then
/// `repeats` individually timed calls, summarised by
/// [`xbar_stats::descriptive`]'s order statistics.
fn sample<R>(repeats: usize, mut f: impl FnMut() -> R) -> Timing {
    std::hint::black_box(f());
    let nanos: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    let median = descriptive::median(&nanos).expect("at least one repeat");
    let deviations: Vec<f64> = nanos.iter().map(|t| (t - median).abs()).collect();
    Timing {
        median: median as u64,
        mad: descriptive::median(&deviations).expect("at least one repeat") as u64,
        min: descriptive::min(&nanos).expect("at least one repeat") as u64,
    }
}

/// One pass of `kernel` over `w`'s rows against `inputs`, blocked the
/// way the one-thread `blocked` backend blocks it.
fn kernel_pass(kernel: TileKernel, w: &Matrix, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
    let BatchConfig {
        block_outputs,
        block_samples,
    } = BatchConfig::default();
    let (m, n) = (w.rows(), w.cols());
    let mut out = vec![vec![0.0; m]; inputs.len()];
    for (samples, outs) in inputs
        .chunks(block_samples)
        .zip(out.chunks_mut(block_samples))
    {
        for i0 in (0..m).step_by(block_outputs) {
            let i1 = (i0 + block_outputs).min(m);
            let mut cells: Vec<&mut [f64]> = outs.iter_mut().map(|o| &mut o[i0..i1]).collect();
            kernel.dot_tile(&w.as_slice()[i0 * n..i1 * n], samples, &mut cells);
        }
    }
    out
}

/// One benchmark size: programs the array once and emits a row per
/// thread count, and a [`KernelRow`] per instance this CPU runs.
fn bench_size(
    outputs: usize,
    inputs: usize,
    batch: usize,
    iterations: usize,
    rng: &mut ChaCha8Rng,
) -> Result<(Vec<MvmBenchRow>, Vec<KernelRow>), String> {
    let w = Matrix::random_uniform(outputs, inputs, -1.0, 1.0, rng);
    let array =
        CrossbarArray::program(&w, &DeviceModel::ideal(), rng).map_err(|e| e.to_string())?;
    let samples = Matrix::random_uniform(batch, inputs, 0.0, 1.0, rng);
    let refs: Vec<&[f64]> = (0..batch).map(|b| samples.row(b)).collect();

    let naive = BackendSpec::new(BackendKind::Naive)
        .build()
        .map_err(|e| e.to_string())?;
    let blocked = BackendSpec::new(BackendKind::Blocked)
        .build()
        .map_err(|e| e.to_string())?;
    let prepared_naive = naive.prepare(&array).map_err(|e| e.to_string())?;
    let prepared_blocked = blocked.prepare(&array).map_err(|e| e.to_string())?;

    // Warm-up doubles as the correctness check: exact equality, not
    // approximate — the tiled kernels' contract is bit-identity.
    let out_naive = naive
        .mvm_prepared(&prepared_naive, &array, &refs)
        .map_err(|e| e.to_string())?;
    let blocked_identical = out_naive
        == blocked
            .mvm_prepared(&prepared_blocked, &array, &refs)
            .map_err(|e| e.to_string())?;

    let naive_time = sample(iterations, || {
        naive
            .mvm_prepared(&prepared_naive, &array, &refs)
            .expect("benchmark inputs are well-formed")
    });
    let blocked_time = sample(iterations, || {
        blocked
            .mvm_prepared(&prepared_blocked, &array, &refs)
            .expect("benchmark inputs are well-formed")
    });

    // A small probe batch keeps the prepare cost visible against the
    // evaluation, as in the oracle's query-sized batches.
    let probe = batch.clamp(1, 8);
    let probe_refs = &refs[..probe];

    let macs = (outputs * inputs * batch) as f64;
    let w_eff = array.effective_weights();
    let kernels = [TileKernel::Portable, TileKernel::Avx2]
        .into_iter()
        .filter(|kernel| kernel.is_supported())
        .map(|kernel| {
            let time = sample(iterations, || kernel_pass(kernel, &w_eff, &refs));
            KernelRow {
                kernel: kernel.name(),
                outputs,
                inputs,
                batch,
                nanos: time.median,
                mad_nanos: time.mad,
                min_nanos: time.min,
                gmacs: macs / time.median.max(1) as f64,
                bit_identical: kernel_pass(kernel, &w_eff, &refs) == out_naive,
            }
        })
        .collect();

    let mut rows = Vec::with_capacity(THREAD_COUNTS.len());
    for threads in THREAD_COUNTS {
        let parallel = BackendSpec::new(BackendKind::Blocked)
            .with_threads(threads)
            .build()
            .map_err(|e| e.to_string())?;
        let prepared = parallel.prepare(&array).map_err(|e| e.to_string())?;
        let out_parallel = parallel
            .mvm_prepared(&prepared, &array, &refs)
            .map_err(|e| e.to_string())?;
        let bit_identical = blocked_identical && out_naive == out_parallel;

        let parallel_time = sample(iterations, || {
            parallel
                .mvm_prepared(&prepared, &array, &refs)
                .expect("benchmark inputs are well-formed")
        });
        let prepare_time = sample(iterations, || {
            parallel.prepare(&array).expect("array shape is fixed")
        });
        let cold_batch_time = sample(iterations, || {
            let fresh = parallel.prepare(&array).expect("array shape is fixed");
            parallel
                .mvm_prepared(&fresh, &array, probe_refs)
                .expect("benchmark inputs are well-formed")
        });
        let warm_batch_time = sample(iterations, || {
            parallel
                .mvm_prepared(&prepared, &array, probe_refs)
                .expect("benchmark inputs are well-formed")
        });

        rows.push(MvmBenchRow {
            outputs,
            inputs,
            devices: outputs * inputs,
            batch,
            iterations,
            threads,
            naive_nanos: naive_time.median,
            naive_mad_nanos: naive_time.mad,
            naive_min_nanos: naive_time.min,
            blocked_nanos: blocked_time.median,
            blocked_mad_nanos: blocked_time.mad,
            blocked_min_nanos: blocked_time.min,
            parallel_nanos: parallel_time.median,
            parallel_mad_nanos: parallel_time.mad,
            parallel_min_nanos: parallel_time.min,
            blocked_gmacs: macs / blocked_time.median.max(1) as f64,
            parallel_gmacs: macs / parallel_time.median.max(1) as f64,
            parallel_speedup: naive_time.median as f64 / parallel_time.median.max(1) as f64,
            parallel_over_blocked: blocked_time.median as f64 / parallel_time.median.max(1) as f64,
            bit_identical,
            prepare_nanos: prepare_time.median,
            prepare_mad_nanos: prepare_time.mad,
            prepare_min_nanos: prepare_time.min,
            prepared_probe_batch: probe,
            cold_batch_nanos: cold_batch_time.median,
            cold_batch_mad_nanos: cold_batch_time.mad,
            cold_batch_min_nanos: cold_batch_time.min,
            warm_batch_nanos: warm_batch_time.median,
            warm_batch_mad_nanos: warm_batch_time.mad,
            warm_batch_min_nanos: warm_batch_time.min,
            prepared_speedup: cold_batch_time.median as f64 / warm_batch_time.median.max(1) as f64,
        });
    }
    Ok((rows, kernels))
}

/// Fault-injection lifecycle timings on one array.
fn bench_faults(
    outputs: usize,
    inputs: usize,
    batch: usize,
    iterations: usize,
    rng: &mut ChaCha8Rng,
) -> Result<FaultLifecycleReport, String> {
    let w = Matrix::random_uniform(outputs, inputs, -1.0, 1.0, rng);
    let array =
        CrossbarArray::program(&w, &DeviceModel::ideal(), rng).map_err(|e| e.to_string())?;
    let samples = Matrix::random_uniform(batch, inputs, 0.0, 1.0, rng);
    let refs: Vec<&[f64]> = (0..batch).map(|b| samples.row(b)).collect();

    let blocked = BlockedBackend::default();
    let threads = blocked.threads();
    let key = FaultKey::new(MVM_BENCH_SEED, 0);
    let fault_spec = FaultSpec::none()
        .with_stuck_on_rate(0.01)
        .with_stuck_off_rate(0.01)
        .with_variation_sigma(0.1);
    let plan = fault_spec
        .compile(outputs, inputs, key)
        .map_err(|e| e.to_string())?;
    let noop = FaultSpec::none()
        .compile(outputs, inputs, key)
        .map_err(|e| e.to_string())?;
    // What the oracle runs at deployment and at each drift epoch.
    let deploy = |plan: &FaultPlan| -> Result<Vec<Vec<f64>>, String> {
        let faulted = plan
            .apply_at_threads(&array, plan.spec().drift_time, threads)
            .map_err(|e| e.to_string())?;
        let prepared = blocked.prepare(&faulted).map_err(|e| e.to_string())?;
        blocked
            .mvm_prepared(&prepared, &faulted, &refs)
            .map_err(|e| e.to_string())
    };

    // The zero-fault bit-identity contract, through the deployment path.
    let prepared_blocked = blocked.prepare(&array).map_err(|e| e.to_string())?;
    let faulty_noop_bit_identical = blocked
        .mvm_prepared(&prepared_blocked, &array, &refs)
        .map_err(|e| e.to_string())?
        == deploy(&noop)?;

    // Both sides timed prepare-miss (fresh handle per call), so the
    // ratio isolates what fault deployment adds to a deployment.
    let blocked_cold_time = sample(iterations, || {
        let fresh = blocked.prepare(&array).expect("array shape is fixed");
        blocked
            .mvm_prepared(&fresh, &array, &refs)
            .expect("benchmark inputs are well-formed")
    });
    let faulty_time = sample(iterations, || deploy(&plan).expect("shapes match"));
    let fault_compile_time = sample(iterations, || {
        fault_spec
            .compile(outputs, inputs, key)
            .expect("spec validated above")
    });
    let fault_apply_time = sample(iterations, || {
        plan.apply_at_threads(&array, plan.spec().drift_time, threads)
            .expect("shapes match")
    });

    Ok(FaultLifecycleReport {
        outputs,
        inputs,
        batch,
        faulty_nanos: faulty_time.median,
        faulty_mad_nanos: faulty_time.mad,
        faulty_min_nanos: faulty_time.min,
        fault_overhead: faulty_time.median as f64 / blocked_cold_time.median.max(1) as f64,
        faulty_noop_bit_identical,
        fault_compile_nanos: fault_compile_time.median,
        fault_compile_mad_nanos: fault_compile_time.mad,
        fault_compile_min_nanos: fault_compile_time.min,
        fault_apply_nanos: fault_apply_time.median,
        fault_apply_mad_nanos: fault_apply_time.mad,
        fault_apply_min_nanos: fault_apply_time.min,
    })
}

/// Runs the benchmark matrix, prints one summary line per row, and
/// persists the report (default `results/BENCH_mvm.json`).
///
/// # Errors
///
/// Fails if a crossbar cannot be programmed or if any backend disagrees
/// with the naive outputs on any bit.
pub fn run_mvm_bench(quick: bool, json_out: Option<&str>) -> Result<MvmBenchReport, String> {
    // (outputs, inputs, batch, timed repeats); sizes ascending. The full
    // matrix tops out at 1024x1024 = 1,048,576 devices. The paper-shaped
    // 10x784 row with batch 61 is ragged in both register-tile
    // dimensions, so its bit-identity check covers the remainder paths.
    let sizes: &[(usize, usize, usize, usize)] = if quick {
        &[(10, 784, 61, 21), (128, 64, 32, 5), (256, 128, 64, 5)]
    } else {
        &[
            (10, 784, 61, 21),
            (256, 128, 64, 11),
            (512, 512, 128, 11),
            (1024, 1024, 256, 11),
        ]
    };
    let host_threads = xbar_linalg::par::host_threads();
    let cpu_model = crate::cpu_model();

    let mut rng = ChaCha8Rng::seed_from_u64(MVM_BENCH_SEED);
    let (mut rows, mut kernels) = (Vec::new(), Vec::new());
    for &(outputs, inputs, batch, iterations) in sizes {
        let (size_rows, size_kernels) = bench_size(outputs, inputs, batch, iterations, &mut rng)?;
        rows.extend(size_rows);
        kernels.extend(size_kernels);
    }
    let &(outputs, inputs, batch, iterations) = sizes.last().expect("matrix is non-empty");
    let faults = bench_faults(outputs, inputs, batch, iterations, &mut rng)?;

    let report = MvmBenchReport {
        quick,
        seed: MVM_BENCH_SEED,
        host_threads,
        cpu_model,
        tile_kernel: TileKernel::detect().name(),
        rows,
        kernels,
        faults,
    };
    for row in &report.rows {
        println!(
            "mvm {}x{} ({} devices) batch={} threads={}: naive {:.3} ms, blocked {:.3} ms \
             ({:.2} GMAC/s), parallel {:.3} ms ({:.2} GMAC/s; {:.2}x naive, {:.2}x blocked), \
             prepared warm/cold {:.3}/{:.3} ms ({:.2}x), bit-identical: {}",
            row.outputs,
            row.inputs,
            row.devices,
            row.batch,
            row.threads,
            row.naive_nanos as f64 / 1e6,
            row.blocked_nanos as f64 / 1e6,
            row.blocked_gmacs,
            row.parallel_nanos as f64 / 1e6,
            row.parallel_gmacs,
            row.parallel_speedup,
            row.parallel_over_blocked,
            row.warm_batch_nanos as f64 / 1e6,
            row.cold_batch_nanos as f64 / 1e6,
            row.prepared_speedup,
            row.bit_identical,
        );
    }
    for k in &report.kernels {
        println!(
            "kernel {} {}x{} batch={} threads=1: {:.3} ms ({:.2} GMAC/s), bit-identical: {}",
            k.kernel,
            k.outputs,
            k.inputs,
            k.batch,
            k.nanos as f64 / 1e6,
            k.gmacs,
            k.bit_identical,
        );
    }
    println!(
        "host: {host_threads} threads, {}, tile kernel {} (thread counts above this measure \
         oversubscription)",
        report.cpu_model, report.tile_kernel
    );
    println!(
        "faults {}x{}: faulted deploy (blocked) {:.3} ms (MAD {:.3}), overhead {:.2}x, \
         compile {:.3} ms (MAD {:.3}), apply {:.3} ms (MAD {:.3}), zero-fault bit-identical: {}",
        report.faults.outputs,
        report.faults.inputs,
        report.faults.faulty_nanos as f64 / 1e6,
        report.faults.faulty_mad_nanos as f64 / 1e6,
        report.faults.fault_overhead,
        report.faults.fault_compile_nanos as f64 / 1e6,
        report.faults.fault_compile_mad_nanos as f64 / 1e6,
        report.faults.fault_apply_nanos as f64 / 1e6,
        report.faults.fault_apply_mad_nanos as f64 / 1e6,
        report.faults.faulty_noop_bit_identical,
    );
    write_json(json_out.unwrap_or("results/BENCH_mvm.json"), &report)?;
    if let Some(bad) = report.rows.iter().find(|r| !r.bit_identical) {
        return Err(format!(
            "backend outputs diverged from naive at {}x{} threads={}",
            bad.outputs, bad.inputs, bad.threads
        ));
    }
    if let Some(bad) = report.kernels.iter().find(|k| !k.bit_identical) {
        return Err(format!(
            "tile kernel {} diverged from naive at {}x{}",
            bad.kernel, bad.outputs, bad.inputs
        ));
    }
    if !report.faults.faulty_noop_bit_identical {
        return Err("zero-fault deployment diverged from blocked outputs".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_reports_a_bit_identical_matrix() {
        let dir = std::env::temp_dir().join(format!("xbar_mvmbench_{}", std::process::id()));
        let path = dir.join("BENCH_mvm.json");
        let report = run_mvm_bench(true, path.to_str()).unwrap();

        // 3 quick sizes x 4 thread counts.
        assert_eq!(report.rows.len(), 12);
        assert!(report.host_threads >= 1);
        for row in &report.rows {
            assert!(
                row.bit_identical,
                "{}x{} t={}",
                row.outputs, row.inputs, row.threads
            );
            assert_eq!(row.devices, row.outputs * row.inputs);
            assert!(row.naive_nanos > 0 && row.blocked_nanos > 0 && row.parallel_nanos > 0);
            assert!(row.parallel_speedup > 0.0 && row.parallel_over_blocked > 0.0);
            assert!(row.blocked_gmacs > 0.0 && row.parallel_gmacs > 0.0);
            assert!(row.prepare_nanos > 0 && row.cold_batch_nanos > 0 && row.warm_batch_nanos > 0);
            assert!(row.prepared_speedup > 0.0);
            assert!(row.prepared_probe_batch >= 1 && row.prepared_probe_batch <= row.batch);
            for (min, median) in [
                (row.naive_min_nanos, row.naive_nanos),
                (row.blocked_min_nanos, row.blocked_nanos),
                (row.parallel_min_nanos, row.parallel_nanos),
                (row.prepare_min_nanos, row.prepare_nanos),
                (row.cold_batch_min_nanos, row.cold_batch_nanos),
                (row.warm_batch_min_nanos, row.warm_batch_nanos),
            ] {
                assert!(min <= median, "min {min} above median {median}");
            }
        }
        assert_eq!(
            report.rows.iter().map(|r| r.threads).collect::<Vec<_>>(),
            [1, 2, 4, 8, 1, 2, 4, 8, 1, 2, 4, 8]
        );
        assert_eq!((report.rows[0].outputs, report.rows[0].batch), (10, 61));
        // Every instance this CPU runs, on each of the 3 sizes.
        let instances = [TileKernel::Portable, TileKernel::Avx2]
            .into_iter()
            .filter(|k| k.is_supported())
            .count();
        assert_eq!(report.kernels.len(), 3 * instances);
        for k in &report.kernels {
            assert!(k.bit_identical && k.gmacs > 0.0, "{k:?}");
            assert!(k.min_nanos <= k.nanos);
        }
        assert!(report.faults.faulty_noop_bit_identical);
        assert!(report.faults.fault_overhead > 0.0);
        assert!(report.faults.fault_compile_nanos > 0 && report.faults.fault_apply_nanos > 0);

        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"host_threads\""));
        assert!(json.contains("\"cpu_model\""));
        let kernel = format!("\"tile_kernel\": \"{}\"", TileKernel::detect().name());
        assert!(json.contains(&kernel), "{kernel}");
        assert!(json.contains("\"parallel_speedup\""));
        assert!(json.contains("\"blocked_gmacs\""));
        assert!(json.contains("\"prepared_speedup\""));
        assert!(json.contains("\"fault_overhead\""));
        assert!(json.contains("\"naive_mad_nanos\""));
        assert!(json.contains("\"fault_apply_min_nanos\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
