//! What every workload shares: run settings, the set-up and round
//! sampler, the outcome each workload reports, and small helpers.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["campaign", "aging-scan", "serve-solo", "serve-bulk"];

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Untraced rounds (and as many traced ones) per run at least, however
/// short `--seconds` is.
pub const MIN_ROUNDS: usize = 5;

/// Workload sizes: `Full` is the benchmark; `Smoke` shrinks every
/// workload (a 64x64 aging victim, short chains, few requests) so the
/// tests can drive all four end to end in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Smoke,
}

impl Scale {
    /// The `--scale` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every victim, pool, design and session seed derives from.
    pub seed: u64,
    /// Wall time untraced rounds keep starting for (twice that on
    /// traced runs, which alternate traced and untraced rounds).
    pub seconds: f64,
    /// Whether to add traced rounds and the per-layer breakdown.
    pub trace: bool,
    /// Workload sizes.
    pub scale: Scale,
    /// Scratch directory for journals; removed after the run.
    pub work_dir: PathBuf,
}

/// Wall time of one set-up, split into its stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Victim training or weight generation, plus input pools.
    pub train_s: f64,
    /// Programming victims onto crossbars, and starting the server.
    pub deploy_s: f64,
    /// Untimed work run before the first timed round.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// Workload start to first timed round.
    pub fn total(&self) -> f64 {
        self.train_s + self.deploy_s + self.warmup_s
    }
}

/// One timed round of fixed work.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round's work.
    pub wall_s: f64,
    /// Operations completed: trials, query batches, or requests.
    pub units: u64,
    /// Oracle queries answered.
    pub queries: u64,
    /// Latency of every operation of the round, in microseconds.
    pub latencies_us: Vec<f64>,
}

/// One row of a traced per-layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Metric name, e.g. `core.probe_ms`.
    pub name: &'static str,
    /// The metric's own value.
    pub value: f64,
    /// The metric's unit.
    pub unit: &'static str,
    /// What the row contributes to the traced time of one operation,
    /// in [`Trace::time_unit`]; `None` for rows outside the add-up
    /// (counts, rates, ratios).
    pub share: Option<f64>,
}

impl LayerRow {
    /// A row inside the add-up.
    pub fn part(name: &'static str, value: f64, unit: &'static str, share: f64) -> LayerRow {
        LayerRow {
            name,
            value,
            unit,
            share: Some(share),
        }
    }

    /// A row outside the add-up.
    pub fn info(name: &'static str, value: f64, unit: &'static str) -> LayerRow {
        LayerRow {
            name,
            value,
            unit,
            share: None,
        }
    }
}

/// The traced rounds of a run and their per-layer breakdown.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The operation the table breaks down: `trial`, `batch` or `request`.
    pub unit: &'static str,
    /// Time unit of [`Trace::unit_time`] and of every row's share.
    pub time_unit: &'static str,
    /// Traced time of one operation.
    pub unit_time: f64,
    /// Layer rows, the residual last; the shares of the rows inside
    /// the add-up sum to [`Trace::unit_time`].
    pub rows: Vec<LayerRow>,
    /// The traced rounds, for the tracing overhead.
    pub rounds: Vec<Round>,
    /// Oracle evaluation time per query, timed from outside.
    pub ns_per_query: f64,
}

impl Trace {
    /// Builds a trace whose residual row takes up whatever of
    /// `unit_time` the other rows' shares leave unexplained. The
    /// residual is named `residual.0`; its value is its share times
    /// `residual.1` (1 when the residual occurs once per operation).
    pub fn with_residual(
        unit: &'static str,
        time_unit: &'static str,
        unit_time: f64,
        residual: (&'static str, f64),
        mut rows: Vec<LayerRow>,
        rounds: Vec<Round>,
        ns_per_query: f64,
    ) -> Trace {
        let explained: f64 = rows.iter().filter_map(|r| r.share).sum();
        let share = unit_time - explained;
        rows.push(LayerRow::part(
            residual.0,
            share * residual.1,
            time_unit,
            share,
        ));
        Trace {
            unit,
            time_unit,
            unit_time,
            rows,
            rounds,
            ns_per_query,
        }
    }

    /// The residual row's share of the unit time.
    pub fn residual_frac(&self) -> f64 {
        let residual = self.rows.last().and_then(|r| r.share).unwrap_or(0.0);
        residual / self.unit_time
    }
}

/// Everything one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Every set-up's stage times.
    pub setups: Vec<SetupTimes>,
    /// Untraced timed rounds.
    pub rounds: Vec<Round>,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The traced rounds, when asked for.
    pub trace: Option<Trace>,
    /// Peak resident set size of the process.
    pub peak_rss_mib: f64,
}

/// Correctness bookkeeping of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Failed or mismatched operations.
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs `setup` `repeats` times, handing every result but the last to
/// `teardown`, and returns the last result with every run's times.
pub fn repeated_setup<S>(
    repeats: usize,
    mut setup: impl FnMut(usize, &mut SetupTimes) -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for k in 0..repeats.max(1) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let mut t = SetupTimes::default();
        last = Some(setup(k, &mut t)?);
        times.push(t);
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Runs `round` until `seconds` of wall time have passed since the
/// phase began, and at least `min_rounds` times. Every round starts
/// from a trimmed heap (see [`release_free_memory`]).
fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        release_free_memory();
        rounds.push(round(rounds.len())?);
    }
    Ok(rounds)
}

/// The timed rounds of a run, as `(untraced, traced)`. `round` gets
/// the round index and whether to trace it. On traced runs, traced and
/// untraced rounds alternate for twice the time, so both halves see the
/// same machine and `trace.overhead_frac` measures the tracing, not a
/// drift in host speed between two phases.
pub fn measure(
    cfg: &RunConfig,
    mut round: impl FnMut(usize, bool) -> Result<Round, String>,
) -> Result<(Vec<Round>, Vec<Round>), String> {
    if !cfg.trace {
        let rounds = timed_rounds(cfg.seconds, MIN_ROUNDS, |r| round(r, false))?;
        return Ok((rounds, Vec::new()));
    }
    let rounds = timed_rounds(2.0 * cfg.seconds, 2 * MIN_ROUNDS, |r| round(r, r % 2 == 1))?;
    let (traced, untraced): (Vec<_>, Vec<_>) = rounds
        .into_iter()
        .enumerate()
        .partition(|(r, _)| r % 2 == 1);
    let strip = |rounds: Vec<(usize, Round)>| rounds.into_iter().map(|(_, round)| round).collect();
    Ok((strip(untraced), strip(traced)))
}

/// Hands the C allocator's free pages back to the kernel.
///
/// Each round's worker threads are new threads, and glibc gives a new
/// thread whichever arena is free when it starts, so which arenas end
/// up holding a round's freed memory varies from run to run; without a
/// trim, the peak RSS of otherwise identical runs differs by whole
/// retained buffers. Trimming before each round makes the peak the
/// memory a round actually holds.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and touches no live
        // allocation: it only returns unused pages of glibc's heaps to
        // the kernel, and may be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A library error as the workloads' error type, a message.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f`, adding its wall time to `slot` (seconds).
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f`, in milliseconds; `f`'s last result
/// is returned alongside.
pub fn median_ms<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = std::hint::black_box(f()?);
        times.push(secs(start) * 1e3);
        last = Some(out);
    }
    Ok((crate::stats::median(&times), last.expect("reps >= 1")))
}

/// Order-sensitive 64-bit digest of exact float bit patterns (FNV-1a
/// over 64-bit words): equal digests mean bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in floats by their bit patterns.
    pub fn floats(&mut self, xs: &[f64]) {
        for &x in xs {
            self.0 = (self.0 ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `base/<pid>-<tag>` afresh.
    pub fn create(base: &Path, tag: &str) -> Result<WorkDir, String> {
        let dir = base.join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes the shared base only once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_row_makes_the_table_add_up() {
        let rows = vec![
            LayerRow::part("a", 2.0, "ms", 2.0),
            LayerRow::part("b", 8.0, "ms", 8.0 * 3.0 / 16.0),
            LayerRow::info("count", 128.0, "count"),
        ];
        let trace = Trace::with_residual(
            "batch",
            "ms",
            10.0,
            ("rest", 16.0 / 3.0),
            rows,
            Vec::new(),
            1.0,
        );
        let total: f64 = trace.rows.iter().filter_map(|r| r.share).sum();
        assert!((total - trace.unit_time).abs() < 1e-12);
        let last = trace.rows.last().unwrap();
        assert_eq!(last.name, "rest");
        assert!((last.share.unwrap() - 6.5).abs() < 1e-12);
        assert!((last.value - 6.5 * 16.0 / 3.0).abs() < 1e-12);
        assert!((trace.residual_frac() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn rounds_run_at_least_the_minimum() {
        let rounds = timed_rounds(0.0, 3, |i| {
            Ok(Round {
                units: i as u64,
                ..Round::default()
            })
        })
        .unwrap();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[2].units, 2);
    }

    #[test]
    fn traced_runs_alternate_traced_and_untraced_rounds() {
        let cfg = |trace| RunConfig {
            seed: 0,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
            work_dir: PathBuf::new(),
        };
        let round = |r: usize, traced: bool| {
            Ok(Round {
                units: r as u64,
                queries: u64::from(traced),
                ..Round::default()
            })
        };
        let (untraced, traced) = measure(&cfg(false), round).unwrap();
        assert_eq!(untraced.len(), MIN_ROUNDS);
        assert!(traced.is_empty() && untraced.iter().all(|r| r.queries == 0));
        let (untraced, traced) = measure(&cfg(true), round).unwrap();
        assert_eq!((untraced.len(), traced.len()), (MIN_ROUNDS, MIN_ROUNDS));
        assert!(untraced.iter().all(|r| r.queries == 0 && r.units % 2 == 0));
        assert!(traced.iter().all(|r| r.queries == 1 && r.units % 2 == 1));
    }

    #[test]
    fn digest_sees_every_bit() {
        let digest = |xs: &[f64]| {
            let mut d = Digest::default();
            d.floats(xs);
            d.value()
        };
        assert_eq!(digest(&[1.0, 2.0]), digest(&[1.0, 2.0]));
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_ne!(
            digest(&[1.0]),
            digest(&[f64::from_bits(1.0f64.to_bits() + 1)])
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
