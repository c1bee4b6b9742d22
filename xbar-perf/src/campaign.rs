//! `campaign`: the paper's Case-1 pipeline plus Bayesian norm recovery,
//! run as a grid of trials on `xbar_runtime::run_campaign`.
//!
//! Many small arrays: each trial programs a paper victim, probes its
//! column 1-norms through power, runs five pixel attacks at three
//! strengths and scores them, then samples the norms by MCMC from a
//! random power design. MCMC, probe and evaluation dominate while the
//! large-array kernel and the service are absent, so this workload is
//! the target for MCMC, probe and runtime work and the control for
//! kernel and serve changes.

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::probe_column_norms;
use xbar_crossbar::backend::BackendSpec;
use xbar_crossbar::power::PowerModel;
use xbar_infer::{
    estimate_noise_sigma, random_design, run_chains, ChainConfig, Kernel, NormPosterior,
    PowerObservations, Prior,
};
use xbar_runtime::{
    permanent_error, run_campaign, Campaign, ExecutorConfig, NullSink, TrialContext, TrialRunner,
};

use crate::stats::mean;
use crate::victims::{train_victim, Victim, PAPER_VICTIMS};
use crate::workload::{
    err, measure, repeated_setup, secs, timed, Checks, Digest, LayerRow, Outcome, Round, RunConfig,
    Scale, SetupTimes, Trace, SETUP_REPEATS,
};

/// Power-measurement noise of every deployment.
const POWER_NOISE: f64 = 0.02;

/// Worker threads of the campaign executor. One: on a shared 2-core
/// host, a round that keeps both cores busy waits on whichever core the
/// host slows, and times about twice as unsteadily as one thread does.
const THREADS: usize = 1;

/// Workload sizes.
struct Params {
    /// Samples generated per victim (85% train, 15% attack set).
    samples: usize,
    /// Attack strengths every pixel method runs at.
    strengths: &'static [f64],
    /// Repeated readings behind the noise estimate.
    noise_repeats: usize,
    /// Power queries of the inference design.
    design_queries: usize,
    /// MCMC schedule: burn-in, recorded draws, thinning, chains.
    burn_in: usize,
    draws: usize,
    thin: usize,
    chains: usize,
}

const FULL: Params = Params {
    samples: 800,
    strengths: &[2.0, 4.0, 8.0],
    noise_repeats: 24,
    design_queries: 128,
    burn_in: 2000,
    draws: 1000,
    thin: 2,
    chains: 2,
};

const SMOKE: Params = Params {
    samples: 200,
    strengths: &[4.0],
    noise_repeats: 8,
    design_queries: 32,
    burn_in: 50,
    draws: 25,
    thin: 2,
    chains: 2,
};

/// The 16 inputs inference runs over: a 4x4 grid across rows and
/// columns {6, 10, 14, 18} of a 28-wide raster (central digit pixels;
/// valid indices of the 3072-input objects victims too).
fn inference_subset() -> Vec<usize> {
    (6..22)
        .step_by(4)
        .flat_map(|r| (6..22).step_by(4).map(move |c| r * 28 + c))
        .collect()
}

/// One trial: which victim it attacks.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TrialSpec {
    victim: u64,
}

/// What a trial produced: a digest of every float it computed (probed
/// norms, attacked accuracies, noise estimate, posterior draws) and
/// its query count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct TrialOutput {
    digest: u64,
    queries: u64,
}

/// Where one trial spent its time (seconds); stages are timed only on
/// traced runs.
#[derive(Debug, Clone, Copy, Default)]
struct TrialTimes {
    total: f64,
    program: f64,
    probe: f64,
    attack: f64,
    eval: f64,
    collect: f64,
    mcmc: f64,
    probe_queries: u64,
    queries: u64,
    eval_samples: u64,
}

/// Adds the time since the last mark to a stage when tracing.
struct Lap(Option<Instant>);

impl Lap {
    fn mark(&mut self, stage: &mut f64) {
        if let Some(last) = self.0.as_mut() {
            let now = Instant::now();
            *stage += (now - *last).as_secs_f64();
            *last = now;
        }
    }
}

struct Runner<'a> {
    victims: &'a [Victim],
    params: &'a Params,
    backend: BackendSpec,
    trace: bool,
    times: Mutex<Vec<TrialTimes>>,
}

impl<'a> Runner<'a> {
    fn new(victims: &'a [Victim], params: &'a Params, backend: BackendSpec, trace: bool) -> Self {
        Runner {
            victims,
            params,
            backend,
            trace,
            times: Mutex::new(Vec::new()),
        }
    }

    fn take_times(&self) -> Vec<TrialTimes> {
        std::mem::take(&mut *self.times.lock().expect("trial times lock"))
    }
}

impl TrialRunner for Runner<'_> {
    type Spec = TrialSpec;
    type Output = TrialOutput;

    fn run(&self, spec: &TrialSpec, ctx: &TrialContext) -> Result<TrialOutput, String> {
        let start = Instant::now();
        let mut lap = Lap(self.trace.then_some(start));
        let mut t = TrialTimes::default();
        let p = self.params;
        let victim = usize::try_from(spec.victim)
            .ok()
            .and_then(|i| self.victims.get(i))
            .ok_or_else(|| permanent_error("no such victim"))?;
        let key =
            ctx.campaign_seed ^ (ctx.trial_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut oracle = Oracle::new(victim.net.clone(), &deploy_config(self.backend), key ^ 0xA1)
            .map_err(err)?;
        lap.mark(&mut t.program);

        let norms = probe_column_norms(&mut oracle, 1.0, 1).map_err(err)?;
        t.probe_queries = oracle.query_count() as u64;
        lap.mark(&mut t.probe);

        let mut digest = Digest::default();
        digest.floats(&norms);
        let mut rng = ctx.rng();
        let resources = PixelAttackResources::full(&norms, &victim.net, victim.loss);
        for method in PixelAttackMethod::all() {
            for &strength in p.strengths {
                let adv = single_pixel_attack_batch(
                    method,
                    &victim.test_inputs,
                    &victim.test_targets,
                    resources,
                    strength,
                    &mut rng,
                )
                .map_err(err)?;
                lap.mark(&mut t.attack);
                let accuracy = oracle
                    .eval_accuracy(&adv, &victim.test_labels)
                    .map_err(err)?;
                lap.mark(&mut t.eval);
                digest.floats(&[accuracy]);
                t.eval_samples += adv.rows() as u64;
            }
        }

        let n = oracle.num_inputs();
        let subset = inference_subset();
        let sigma =
            estimate_noise_sigma(&mut oracle, &vec![0.5; n], p.noise_repeats).map_err(err)?;
        let design = random_design(p.design_queries, n, Some(&subset), key ^ 0xB2).map_err(err)?;
        let obs = PowerObservations::collect(&mut oracle, &design).map_err(err)?;
        lap.mark(&mut t.collect);

        let priors = vec![Prior::normal(1.0, 0.5).map_err(err)?; subset.len()];
        let model =
            NormPosterior::new(&obs, &subset, priors, (sigma * 1.2).max(1e-6)).map_err(err)?;
        let schedule = ChainConfig::new(p.burn_in, p.draws, p.thin).map_err(err)?;
        // Chains run on the trial's own thread, so the workload stays
        // on the executor's worker threads.
        let chains = run_chains(
            &model,
            &Kernel::EllipticalSlice,
            &schedule,
            key ^ 0xC3,
            p.chains,
            1,
        )
        .map_err(err)?;
        lap.mark(&mut t.mcmc);

        digest.floats(&[sigma]);
        for draw in chains.iter().flat_map(|c| &c.draws) {
            digest.floats(draw);
        }
        t.queries = oracle.query_count() as u64;
        t.total = secs(start);
        self.times.lock().expect("trial times lock").push(t);
        Ok(TrialOutput {
            digest: digest.value(),
            queries: t.queries,
        })
    }
}

fn deploy_config(backend: BackendSpec) -> OracleConfig {
    OracleConfig::ideal()
        .with_access(OutputAccess::None)
        .with_backend(backend)
        .with_power(PowerModel::default().with_noise(POWER_NOISE))
}

/// Trains the four paper victims, programs each on the production
/// kernel to check its deployed predictions equal the float network's
/// (ideal devices), and warms up with one trial per victim.
fn setup(
    cfg: &RunConfig,
    p: &Params,
    backend: BackendSpec,
    times: &mut SetupTimes,
    checks: &mut Checks,
) -> Result<Vec<Victim>, String> {
    let victims = timed(&mut times.train_s, || {
        PAPER_VICTIMS
            .iter()
            .zip(0u64..)
            .map(|(&(data, head), i)| train_victim(data, head, p.samples, cfg.seed.wrapping_add(i)))
            .collect::<Result<Vec<_>, _>>()
    })?;
    timed(&mut times.deploy_s, || -> Result<(), String> {
        for victim in &victims {
            let oracle =
                Oracle::new(victim.net.clone(), &deploy_config(backend), cfg.seed).map_err(err)?;
            let deployed = oracle
                .eval_predict_batch(&victim.test_inputs)
                .map_err(err)?;
            let float = victim.net.predict_batch(&victim.test_inputs).map_err(err)?;
            checks.record(deployed == float);
        }
        Ok(())
    })?;
    timed(&mut times.warmup_s, || -> Result<(), String> {
        let runner = Runner::new(&victims, p, backend, false);
        for victim in 0..victims.len() as u64 {
            let ctx = TrialContext {
                trial_index: 0,
                campaign_seed: cfg.seed,
                attempt: 1,
            };
            runner.run(&TrialSpec { victim }, &ctx)?;
        }
        Ok(())
    })?;
    Ok(victims)
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let p = match cfg.scale {
        Scale::Full => &FULL,
        Scale::Smoke => &SMOKE,
    };
    let backend: BackendSpec = "blocked".parse()?;
    let naive: BackendSpec = "naive".parse()?;
    let mut checks = Checks::default();
    let (victims, setups) = repeated_setup(
        SETUP_REPEATS,
        |_, times| setup(cfg, p, backend, times, &mut checks),
        drop,
    )?;

    let mut campaign = Campaign::new("xbar-perf-campaign", cfg.seed);
    for victim in 0..victims.len() as u64 {
        campaign.push_trial(TrialSpec { victim });
    }
    let journal = cfg.work_dir.join("campaign-journal.jsonl");
    let executor = ExecutorConfig::with_threads(THREADS);
    let replayer = Runner::new(&victims, p, naive, false);
    let plain = Runner::new(&victims, p, backend, false);
    let traced = Runner::new(&victims, p, backend, true);
    let mut reference: Option<Vec<Option<TrialOutput>>> = None;
    let mut replays = Vec::new();
    let mut traced_times = Vec::new();

    let (rounds, traced_rounds) = measure(cfg, |r, trace| {
        let runner = if trace { &traced } else { &plain };
        let start = Instant::now();
        let report = run_campaign(
            runner,
            &campaign,
            &executor,
            Some(&journal),
            false,
            &mut NullSink,
        )
        .map_err(err)?;
        let wall_s = secs(start);
        let times = runner.take_times();

        // Every round does identical work, so outputs must repeat
        // exactly. Each round also picks one trial to replay on the
        // naive kernel after the timed rounds; stride 5 cycles through
        // the victims' trials from round to round.
        let expected = reference.get_or_insert_with(|| report.outputs.clone());
        for (got, want) in report.outputs.iter().zip(expected.iter()) {
            checks.record(got.is_some() && got == want);
        }
        replays.push(r * 5 % campaign.len());

        // A trial's latency depends on the victim it attacks, digits or
        // objects. Every round runs two of each, so a round's median
        // always falls midway between its slower digits trial and its
        // faster objects trial, never on one mode or the other.
        let round = Round {
            wall_s,
            units: campaign.len() as u64,
            queries: times.iter().map(|t| t.queries).sum(),
            latencies_us: times.iter().map(|t| t.total * 1e6).collect(),
        };
        if trace {
            traced_times.extend(times);
        }
        Ok(round)
    })?;
    // The peak of set-up and the timed rounds, read before the replays
    // add the reference kernel's buffers: whether those land on freed
    // heap or grow it varies from run to run.
    let peak_rss_mib = crate::workload::peak_rss_mib()?;

    // Each picked trial replayed serially on the naive reference kernel
    // must match the rounds' output bit for bit.
    let expected = reference.unwrap_or_default();
    for i in replays {
        let ctx = TrialContext {
            trial_index: i,
            campaign_seed: campaign.seed,
            attempt: 1,
        };
        let replay = replayer.run(&campaign.trials[i], &ctx).ok();
        checks.record(replay.is_some() && expected.get(i) == Some(&replay));
    }
    let trace = cfg
        .trace
        .then(|| breakdown(p, traced_rounds, &traced_times));
    Ok(Outcome {
        workload: "campaign",
        setups,
        rounds,
        attempted: checks.attempted,
        failed: checks.failed,
        trace,
        peak_rss_mib,
    })
}

/// The per-trial table. The unit time is thread-time per trial
/// (threads × round wall / trials), so idle workers and executor
/// overhead land in `campaign.residual_ms` with in-trial glue.
fn breakdown(p: &Params, rounds: Vec<Round>, times: &[TrialTimes]) -> Trace {
    let ms =
        |f: fn(&TrialTimes) -> f64| mean(&times.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>());
    let count =
        |f: fn(&TrialTimes) -> u64| mean(&times.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let trials: u64 = rounds.iter().map(|r| r.units).sum();
    let unit_ms = THREADS as f64 * wall * 1e3 / trials as f64;
    let trial_ms = ms(|t| t.total);
    let probe_ms = ms(|t| t.probe);
    let mcmc_ms = ms(|t| t.mcmc);
    let probe_queries = count(|t| t.probe_queries);
    let steps = (p.chains as u64 * (p.burn_in + p.draws * p.thin) as u64) as f64;
    let probe_ns_per_query = probe_ms * 1e6 / probe_queries;
    // Every stage runs once per trial, so its share is its value.
    let stage = |name, value| LayerRow::part(name, value, "ms", value);
    let rows = vec![
        stage("core.program_ms", ms(|t| t.program)),
        stage("core.probe_ms", probe_ms),
        stage("core.attack_ms", ms(|t| t.attack)),
        stage("core.eval_ms", ms(|t| t.eval)),
        stage("infer.collect_ms", ms(|t| t.collect)),
        stage("infer.mcmc_ms", mcmc_ms),
        LayerRow::info("runtime.trial_ms", trial_ms, "ms"),
        LayerRow::info(
            "runtime.busy_frac",
            trial_ms * trials as f64 / (THREADS as f64 * wall * 1e3),
            "fraction",
        ),
        LayerRow::info("core.probe_ns_per_query", probe_ns_per_query, "ns"),
        LayerRow::info("infer.mcmc_step_ns", mcmc_ms * 1e6 / steps, "ns"),
        LayerRow::info("core.queries_per_trial", count(|t| t.queries), "count"),
        LayerRow::info(
            "core.eval_samples_per_trial",
            count(|t| t.eval_samples),
            "count",
        ),
    ];
    Trace::with_residual(
        "trial",
        "ms",
        unit_ms,
        ("campaign.residual_ms", 1.0),
        rows,
        rounds,
        probe_ns_per_query,
    )
}
