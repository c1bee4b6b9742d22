//! `aging-scan`: Case-2 query-log collection from one large, faulty,
//! drifting victim.
//!
//! The MVM kernel dominates; fault compile + apply + prepare at every
//! drift epoch is the next share. This is where kernel work and
//! fault-compile caching must show. A round collects a fixed query log
//! from a clone of the freshly deployed oracle, so every round does the
//! same work, including the drift redeploys.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar_core::oracle::{DriftSchedule, Oracle, OracleConfig, OutputAccess};
use xbar_core::surrogate::collect_queries;
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
use xbar_linalg::Matrix;
use xbar_nn::activation::Activation;
use xbar_nn::network::SingleLayerNet;

use crate::stats::mean;
use crate::victims::uniform_matrix;
use crate::workload::{
    err, measure, median_ms, repeated_setup, secs, timed, Checks, Digest, LayerRow, Outcome, Round,
    RunConfig, Scale, SetupTimes, Trace, SETUP_REPEATS,
};

/// Workload sizes.
struct Params {
    /// The victim is `dim x dim`.
    dim: usize,
    /// Queries per `collect_queries` call.
    batch: usize,
    /// Queries per drift epoch; a round spans four epochs.
    epoch: usize,
    /// Repetitions behind each same-shape direct timing.
    direct_reps: usize,
}

const FULL: Params = Params {
    dim: 1024,
    batch: 256,
    epoch: 1024,
    direct_reps: 3,
};

const SMOKE: Params = Params {
    dim: 64,
    batch: 32,
    epoch: 64,
    direct_reps: 1,
};

impl Params {
    fn round_queries(&self) -> usize {
        4 * self.epoch
    }

    fn batches(&self) -> usize {
        self.round_queries() / self.batch
    }
}

/// Relative tolerance of the calibrated-power identity check.
const POWER_TOLERANCE: f64 = 1e-9;

/// 1%/1% stuck-on/off, σ=0.1 programming variation, drift ν=0.05.
fn fault_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_on_rate(0.01)
        .with_stuck_off_rate(0.01)
        .with_variation_sigma(0.1)
        .with_drift(0.05, 0.0, 0.0)
}

/// Drift time added per epoch.
const DRIFT_STEP: f64 = 1.0;

struct State {
    weights: Matrix,
    template: Oracle,
    pool: Matrix,
}

/// The victim's fault injection at `drift_time`.
fn injection(seed: u64, drift_time: f64) -> FaultInjection {
    let mut spec = fault_spec();
    spec.drift_time = drift_time;
    FaultInjection::new(spec, FaultKey::new(seed, 0))
}

fn config(backend: BackendSpec, seed: u64, epoch: usize) -> OracleConfig {
    OracleConfig::ideal()
        .with_access(OutputAccess::Raw)
        .with_backend(backend)
        .with_faults(injection(seed, 0.0))
        .with_drift_schedule(DriftSchedule::every(epoch as u64, DRIFT_STEP))
}

/// The victim's array before faults, rebuilt from the oracle's public
/// recipe: ideal devices programmed from stream 0 of the oracle seed.
fn pristine(weights: &Matrix, seed: u64) -> Result<CrossbarArray, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    CrossbarArray::program(weights, &DeviceModel::ideal(), &mut rng).map_err(err)
}

/// The deployed array at one drift epoch, rebuilt independently of the
/// oracle: the pristine array under the keyed fault plan at that
/// epoch's drift time.
struct EpochReference {
    /// Column 1-norms of the rebuilt array's effective weights; must
    /// equal the oracle's `true_column_norms()` bit for bit.
    norms: Vec<f64>,
    /// What calibrated power reads per unit input on each column:
    /// `Σ_i (g⁺ + g⁻ − 2 g_min) / k`. It equals the column 1-norm only
    /// where one device of each pair sits at `g_min`, which stuck-on
    /// devices and upward variation break — so power is checked
    /// against this, not against the norms.
    power_norms: Vec<f64>,
}

fn epoch_reference(weights: &Matrix, seed: u64, drift_time: f64) -> Result<EpochReference, String> {
    let (m, n) = weights.shape();
    let array = injection(seed, drift_time)
        .compile(m, n)
        .map_err(err)?
        .apply(&pristine(weights, seed)?)
        .map_err(err)?;
    let mapping = array.mapping();
    let (g_plus, g_minus) = (array.g_plus(), array.g_minus());
    let power_norms = (0..n)
        .map(|j| {
            (0..m)
                .map(|i| g_plus[(i, j)] + g_minus[(i, j)] - 2.0 * mapping.g_min)
                .sum::<f64>()
                / mapping.scale
        })
        .collect();
    Ok(EpochReference {
        norms: array.effective_weights().col_l1_norms(),
        power_norms,
    })
}

/// Whether every calibrated power equals `u · power_norms` to the
/// tolerance.
fn powers_match(pool: &Matrix, indices: &[usize], powers: &[f64], power_norms: &[f64]) -> bool {
    indices.iter().zip(powers).all(|(&row, &power)| {
        let expected: f64 = pool
            .row(row)
            .iter()
            .zip(power_norms)
            .map(|(u, n)| u * n)
            .sum();
        (power - expected).abs() <= POWER_TOLERANCE * expected.abs().max(f64::MIN_POSITIVE)
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let p = match cfg.scale {
        Scale::Full => &FULL,
        Scale::Smoke => &SMOKE,
    };
    let backend: BackendSpec = "parallel:2".parse()?;
    let indices: Vec<Vec<usize>> = (0..p.batches())
        .map(|b| (b * p.batch..(b + 1) * p.batch).collect())
        .collect();
    let (state, setups) = repeated_setup(
        SETUP_REPEATS,
        |_, times: &mut SetupTimes| -> Result<State, String> {
            let (weights, pool) = timed(&mut times.train_s, || {
                (
                    uniform_matrix(p.dim, p.dim, -1.0, 1.0, cfg.seed ^ 0x57),
                    uniform_matrix(p.round_queries(), p.dim, 0.0, 1.0, cfg.seed ^ 0x9001),
                )
            });
            let template = timed(&mut times.deploy_s, || {
                let net = SingleLayerNet::from_weights(weights.clone(), Activation::Identity);
                Oracle::new(net, &config(backend, cfg.seed, p.epoch), cfg.seed)
            })
            .map_err(err)?;
            timed(&mut times.warmup_s, || {
                collect_queries(&mut template.clone(), &pool, &indices[0]).map_err(err)
            })?;
            Ok(State {
                weights,
                template,
                pool,
            })
        },
        drop,
    )?;

    // Check references, built outside the timed set-up: the array at
    // the first and the last drift epoch of a round.
    let mut checks = Checks::default();
    let fresh = epoch_reference(&state.weights, cfg.seed, 0.0)?;
    let aged = epoch_reference(
        &state.weights,
        cfg.seed,
        (p.round_queries() / p.epoch - 1) as f64 * DRIFT_STEP,
    )?;
    checks.record(state.template.true_column_norms() == fresh.norms);
    let mut reference: Option<u64> = None;
    // Batch timings are the workload's latencies, so traced rounds are
    // the untraced ones; the layer split comes from direct timings.
    let (rounds, traced) = measure(cfg, |_, _| {
        let mut oracle = state.template.clone();
        let mut digest = Digest::default();
        let mut latencies_us = Vec::with_capacity(indices.len());
        let mut ok = true;
        for (b, batch) in indices.iter().enumerate() {
            let start = Instant::now();
            let log = collect_queries(&mut oracle, &state.pool, batch);
            latencies_us.push(secs(start) * 1e6);
            let Ok(log) = log else {
                ok = false;
                continue;
            };
            digest.floats(log.targets.as_slice());
            digest.floats(&log.powers);
            // The first batch reads the fresh deployment, the last one
            // the round's final drift epoch.
            if b == 0 {
                ok &= powers_match(&state.pool, batch, &log.powers, &fresh.power_norms);
            } else if b + 1 == indices.len() {
                ok &= oracle.true_column_norms() == aged.norms
                    && powers_match(&state.pool, batch, &log.powers, &aged.power_norms);
            }
        }
        ok &= *reference.get_or_insert(digest.value()) == digest.value();
        for _ in 0..indices.len() {
            checks.record(ok);
        }
        Ok(Round {
            wall_s: latencies_us.iter().sum::<f64>() / 1e6,
            units: indices.len() as u64,
            queries: p.round_queries() as u64,
            latencies_us,
        })
    })?;
    let trace = if cfg.trace {
        Some(breakdown(p, &state, backend, cfg.seed, traced)?)
    } else {
        None
    };
    Ok(Outcome {
        workload: "aging-scan",
        setups,
        rounds,
        attempted: checks.attempted,
        failed: checks.failed,
        trace,
        peak_rss_mib: crate::workload::peak_rss_mib()?,
    })
}

/// The per-batch table: batch timings from the rounds, split by
/// same-shape direct timings of each layer's public call.
fn breakdown(
    p: &Params,
    state: &State,
    backend: BackendSpec,
    seed: u64,
    rounds: Vec<Round>,
) -> Result<Trace, String> {
    let per_epoch = p.epoch / p.batch;
    let batches = p.batches();
    // Batch 0 prepares the fresh clone, batches starting a later drift
    // epoch redeploy (compile + apply) and prepare, the rest are steady.
    let mut steady = Vec::new();
    let mut epoch = Vec::new();
    for round in &rounds {
        for (b, &us) in round.latencies_us.iter().enumerate() {
            if b % per_epoch != 0 {
                steady.push(us / 1e3);
            } else if b > 0 {
                epoch.push(us / 1e3);
            }
        }
    }
    let steady_ms = mean(&steady);
    let epoch_ms = mean(&epoch);

    let kernel = backend.build().map_err(err)?;
    let pristine = pristine(&state.weights, seed)?;
    let injection = injection(seed, DRIFT_STEP);
    let (compile_ms, plan) = median_ms(p.direct_reps, || {
        injection.compile(p.dim, p.dim).map_err(err)
    })?;
    let (apply_ms, faulted) = median_ms(p.direct_reps, || plan.apply(&pristine).map_err(err))?;
    let (prepare_ms, prepared) =
        median_ms(p.direct_reps, || kernel.prepare(&faulted).map_err(err))?;
    let inputs: Vec<&[f64]> = (0..p.batch).map(|i| state.pool.row(i)).collect();
    let (mvm_ms, _) = median_ms(p.direct_reps, || {
        kernel
            .mvm_prepared(&prepared, &faulted, &inputs)
            .map_err(err)
    })?;
    let (power_ms, _) = median_ms(p.direct_reps, || {
        kernel
            .power_prepared(&PowerModel::default(), &prepared, &faulted, &inputs)
            .map_err(err)
    })?;

    // Shares are per average batch: every batch runs the kernel, one
    // in `per_epoch` prepares, and all but the first of those redeploy.
    let wall_ms: f64 = rounds.iter().map(|r| r.wall_s * 1e3).sum();
    let unit_ms = wall_ms / (rounds.len() * batches) as f64;
    let redeploys = (batches / per_epoch - 1) as f64 / batches as f64;
    let prepares = (batches / per_epoch) as f64 / batches as f64;
    let overhead_ms = steady_ms - mvm_ms - power_ms;
    let macs = (p.batch * p.dim * p.dim) as f64;
    let rows = vec![
        LayerRow::part("crossbar.mvm_ms", mvm_ms, "ms", mvm_ms),
        LayerRow::part("crossbar.power_ms", power_ms, "ms", power_ms),
        LayerRow::part("core.batch_overhead_ms", overhead_ms, "ms", overhead_ms),
        LayerRow::part(
            "crossbar.prepare_ms",
            prepare_ms,
            "ms",
            prepare_ms * prepares,
        ),
        LayerRow::part(
            "faults.compile_ms",
            compile_ms,
            "ms",
            compile_ms * redeploys,
        ),
        LayerRow::part("faults.apply_ms", apply_ms, "ms", apply_ms * redeploys),
        LayerRow::info("core.steady_batch_ms", steady_ms, "ms"),
        LayerRow::info("core.epoch_batch_ms", epoch_ms, "ms"),
        LayerRow::info("crossbar.mvm_gmacs", macs / (mvm_ms * 1e6), "GMAC/s"),
    ];
    // What the named layers leave of the average batch is epoch work
    // they do not explain, reported per redeploy.
    Ok(Trace::with_residual(
        "batch",
        "ms",
        unit_ms,
        ("faults.epoch_unattributed_ms", 1.0 / redeploys),
        rows,
        rounds,
        steady_ms * 1e6 / p.batch as f64,
    ))
}
