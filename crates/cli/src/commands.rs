//! The `xbar` subcommand implementations.

use crate::args::{ArgsError, ParsedArgs};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::DeError;
use std::collections::BTreeMap;
use xbar_core::blackbox::{run_blackbox_attack, BlackBoxConfig};
use xbar_core::oracle::{Oracle, OracleConfig, OutputAccess};
use xbar_core::persist;
use xbar_core::pixel_attack::{single_pixel_attack_batch, PixelAttackMethod, PixelAttackResources};
use xbar_core::probe::{probe_column_norms, probe_norms_compressed};
use xbar_core::recovery::{recover_columns_by_basis_probes, relative_error};
use xbar_core::report::{ascii_heatmap, fmt, format_table};
use xbar_data::synth::digits::DigitsConfig;
use xbar_data::synth::objects::ObjectsConfig;
use xbar_data::Dataset;
use xbar_nn::activation::Activation;
use xbar_nn::loss::Loss;
use xbar_nn::metrics::accuracy;
use xbar_nn::network::SingleLayerNet;
use xbar_nn::train::{train, SgdConfig};

/// Any error a subcommand can produce.
pub type CliError = Box<dyn std::error::Error>;

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns the subcommand's failure, or an [`ArgsError`] for an unknown
/// command.
pub fn dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    // `--help` anywhere after a known command prints its usage and runs
    // nothing.
    if args.flag("help") && print_command_help(&args.command) {
        return Ok(());
    }
    // An option the command's usage does not list is refused before
    // anything runs, so a typo cannot fall back to a default silently.
    if let Some((_, usage)) = COMMAND_USAGE.iter().find(|(name, _)| *name == args.command) {
        let unknown = args
            .option_names()
            .filter(|name| *name != "help" && !usage_lists(usage, name))
            .min();
        if let Some(name) = unknown {
            return Err(Box::new(ArgsError::UnknownOption {
                name: name.to_string(),
                command: args.command.clone(),
            }));
        }
    }
    // Only `trace`, `bench`, `faults`, `lifetime`, `infer` and `serve`
    // take positional arguments (their action, plus the trace path).
    if args.command != "trace"
        && args.command != "bench"
        && args.command != "faults"
        && args.command != "lifetime"
        && args.command != "infer"
        && args.command != "serve"
    {
        args.expect_no_positionals()?;
    }
    match args.command.as_str() {
        "train" => cmd_train(args),
        "probe" => cmd_probe(args),
        "attack" => cmd_attack(args),
        "blackbox" => cmd_blackbox(args),
        "recover" => cmd_recover(args),
        "campaign" => cmd_campaign(args),
        "bench" => cmd_bench(args),
        "faults" => cmd_faults(args),
        "lifetime" => cmd_lifetime(args),
        "infer" => cmd_infer(args),
        "serve" => cmd_serve(args),
        "trace" => cmd_trace(args),
        "help" => {
            print_help();
            Ok(())
        }
        other => Err(Box::new(ArgsError::Malformed {
            token: other.to_string(),
        })),
    }
}

/// Whether a usage block lists the option `--name`.
fn usage_lists(usage: &str, name: &str) -> bool {
    usage.split("--").skip(1).any(|rest| {
        rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .next()
            == Some(name)
    })
}

/// The usage block of every subcommand, in `xbar help` order. A command
/// accepts exactly the `--options` its block names (plus `--help`).
const COMMAND_USAGE: &[(&str, &str)] = &[
    (
        "train",
        "  train     train a victim and save it
            --out FILE [--dataset digits|objects] [--head linear|softmax]
            [--samples N] [--epochs N] [--seed S]",
    ),
    (
        "probe",
        "  probe     deploy a model on a crossbar and probe its column 1-norms
            --model FILE [--seed S] [--compressed-queries K]",
    ),
    (
        "attack",
        "  attack    run the Fig.4 single-pixel attacks against a deployed model
            --model FILE [--strength X] [--dataset ...] [--samples N] [--seed S]",
    ),
    (
        "blackbox",
        "  blackbox  run the Fig.5 surrogate pipeline against a deployed model
            --model FILE --queries Q [--lambda L] [--eps E]
            [--access label|raw] [--dataset ...] [--samples N] [--seed S]",
    ),
    (
        "recover",
        "  recover   recover the weights of a linear model via basis probes
            --model FILE [--seed S]",
    ),
    (
        "campaign",
        "  campaign  regenerate a paper figure: its experiment grid on the
            parallel campaign runtime (checkpointed and resumable;
            writes results/FIGURE.json)
            --figure table1|fig3|fig4|fig5|multipixel|recovery|ablations|multilayer
            [--threads N] [--resume] [--journal FILE] [--out FILE]
            [--quick] [--trace FILE] [--progress stderr|none]
            [--progress-every N]
            [--backend naive|blocked|parallel[:N]]
                (fig4, fig5, multipixel, recovery, ablations)
            [--faults SPEC.json] [--transients FLIP[,JITTER]]
                (fig4, fig5, ablations)",
    ),
    (
        "bench",
        "  bench     micro-benchmarks
            mvm [--quick] [--out FILE]   size x threads backend matrix:
                                         naive vs blocked vs parallel
                                         batched MVM, prepared-handle
                                         hit/miss cost, faulted deploy
                                         (plan apply + prepare + MVM)
                                         overhead (bit-identity checked;
                                         writes results/BENCH_mvm.json)
            serve [--quick] [--out FILE] campaign-service throughput and
                                         latency at 1/8/64 concurrent
                                         sessions (writes
                                         results/BENCH_serve.json)",
    ),
    (
        "serve",
        "  serve     multi-tenant attack-campaign service (NDJSON over TCP)
            host --model FILE [--name NAME] [--addr HOST:PORT]
                 [--max-sessions N] [--max-inflight N]
                 [--journal FILE] [--seed S]
                 [--backend naive|blocked|parallel[:N]]
                 [--access none|label|raw] [--power-noise X]
                 [--read-sigma X] [--metrics FILE] [--metrics-every MS]
            serve the model until a client sends the shutdown op;
            --journal makes sessions resumable across restarts;
            --metrics appends periodic telemetry snapshots as JSONL
            drive --addr HOST:PORT --dim N [--sessions N] [--queries Q]
                  [--victim NAME] [--seed S] [--shutdown]
            scripted multi-session client: concurrent budgeted
            sessions plus a same-seed determinism check
            stats [--addr HOST:PORT] [--prom]
            scrape a running service's live metrics: per-victim
            request and library counters, gauges and latency
            histograms
            (--prom prints Prometheus text exposition instead)",
    ),
    (
        "faults",
        "  faults    deterministic device fault injection
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--backend naive|blocked|parallel[:N]]
                  [--trace FILE] [--progress stderr|none]
                  [--progress-every N]
            attack-success-vs-fault-rate robustness curves over stuck-at,
            variation, drift and line-resistance axes (writes
            results/faults-sweep.json; bit-identical at any thread count)",
    ),
    (
        "lifetime",
        "  lifetime  device-lifetime robustness
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--backend naive|blocked|parallel[:N]]
                  [--recalibrate never|every:N|stale:X] [--trace FILE]
                  [--progress stderr|none] [--progress-every N]
            (drift time x transient rate x defense) cross-sweep with
            probe recalibration; failed cells are journaled and skipped
            (writes results/lifetime-sweep.json)",
    ),
    (
        "infer",
        "  infer     Bayesian weight recovery from the power side channel
            sweep [--quick] [--threads N] [--out FILE] [--resume]
                  [--journal FILE] [--backend naive|blocked|parallel[:N]]
                  [--trace FILE] [--progress stderr|none]
                  [--progress-every N]
            MCMC posterior over column 1-norms from noisy power
            readings, swept over query budget x noise x chain count;
            reports coverage, credible-interval widths, split-R-hat
            convergence and posterior-guided attack bands (writes
            results/infer-sweep.json; bit-identical at any thread count)",
    ),
    (
        "trace",
        "  trace     inspect an xbar-obs JSONL trace file written by a
            campaign or sweep
            summarize FILE   per-campaign counters and histograms
                             (count, p50/p90/p99, max; spans in ns);
                             also reads the service's metrics snapshot
                             files (last snapshot wins — counters are
                             cumulative)",
    ),
    ("help", "  help      this message"),
];

/// The header `xbar help` and every per-command usage print first.
const USAGE_HEADER: &str = "xbar — power side-channel attacks on NVM crossbar neural networks\n\nUSAGE: xbar <command> [--option value]...\n\n";

/// Prints usage for every subcommand.
pub fn print_help() {
    println!("{USAGE_HEADER}COMMANDS:");
    for (_, usage) in COMMAND_USAGE {
        println!("{usage}");
    }
}

/// Prints one subcommand's usage (`xbar <command> ... --help`), or
/// returns `false` if `command` is unknown.
fn print_command_help(command: &str) -> bool {
    match COMMAND_USAGE.iter().find(|(name, _)| *name == command) {
        Some((_, usage)) => {
            println!("{USAGE_HEADER}{usage}");
            true
        }
        None => false,
    }
}

/// Reads a fault-spec JSON file into a validated [`xbar_faults::FaultSpec`].
fn load_fault_spec(path: &str) -> Result<xbar_faults::FaultSpec, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read fault spec {path}: {e}"))?;
    xbar_faults::FaultSpec::from_json_str(&text)
        .map_err(|e| -> CliError { format!("fault spec {path}: {e}").into() })
}

/// Parses `--transients "FLIP[,JITTER]"` into a validated
/// [`xbar_faults::TransientSpec`]. A single number sets only the
/// read-disturb flip rate; a second, comma-separated number sets the
/// transient jitter sigma.
fn parse_transients(text: &str) -> Result<xbar_faults::TransientSpec, CliError> {
    let mut parts = text.splitn(2, ',');
    let flip: f64 =
        parts.next().unwrap_or("").trim().parse().map_err(|_| {
            format!("--transients: bad flip rate in {text:?} (expected FLIP[,JITTER])")
        })?;
    let jitter: f64 = match parts.next() {
        Some(j) => j
            .trim()
            .parse()
            .map_err(|_| format!("--transients: bad jitter sigma in {text:?}"))?,
        None => 0.0,
    };
    let spec = xbar_faults::TransientSpec::none()
        .with_flip_rate(flip)
        .with_jitter_sigma(jitter);
    spec.validate()
        .map_err(|e| -> CliError { format!("--transients {text:?}: {e}").into() })?;
    Ok(spec)
}

/// Parses `--recalibrate never|every:N|stale:X` into a
/// [`xbar_core::probe::RecalibrationPolicy`].
fn parse_recalibrate(text: &str) -> Result<xbar_core::probe::RecalibrationPolicy, CliError> {
    use xbar_core::probe::RecalibrationPolicy;
    if text == "never" {
        return Ok(RecalibrationPolicy::never());
    }
    if let Some(n) = text.strip_prefix("every:") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("--recalibrate: bad query count in {text:?}"))?;
        if n == 0 {
            return Err(format!("--recalibrate: every:N needs N > 0, got {text:?}").into());
        }
        return Ok(RecalibrationPolicy::every(n));
    }
    if let Some(x) = text.strip_prefix("stale:") {
        let x: f64 = x
            .parse()
            .map_err(|_| format!("--recalibrate: bad staleness threshold in {text:?}"))?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("--recalibrate: stale:X needs X > 0, got {text:?}").into());
        }
        return Ok(RecalibrationPolicy::on_staleness(x));
    }
    Err(format!("--recalibrate: expected never|every:N|stale:X, got {text:?}").into())
}

/// Parses `--backend naive|blocked|parallel[:THREADS]` into a
/// [`xbar_crossbar::backend::BackendSpec`] — the one place the grammar
/// lives, shared by `campaign`, the sweeps, and `serve host`. The
/// `default` kind applies when the flag is absent.
fn backend_spec(
    args: &ParsedArgs,
    default: xbar_crossbar::backend::BackendKind,
) -> Result<xbar_crossbar::backend::BackendSpec, CliError> {
    match args.get("backend") {
        None => Ok(xbar_crossbar::backend::BackendSpec::new(default)),
        Some(raw) => raw
            .parse()
            .map_err(|e: String| -> CliError { format!("--backend: {e}").into() }),
    }
}

/// Parses the executor options shared by `campaign` and `faults sweep`.
/// The journal is always kept (it is what `--resume` reads); the default
/// path is per campaign so grids don't clobber each other.
fn campaign_options(
    args: &ParsedArgs,
    default_journal: &str,
) -> Result<xbar_bench::figures::CampaignOptions, CliError> {
    use xbar_bench::figures::{CampaignOptions, ProgressMode};

    let mut opts = CampaignOptions::new(args.flag("quick"));
    opts.threads = args.get_or("threads", 0usize)?;
    opts.resume = args.flag("resume");
    opts.json_out = args.get("out").map(str::to_string);
    opts.trace = args
        .get("trace")
        .filter(|t| !t.is_empty())
        .map(std::path::PathBuf::from);
    opts.progress = args.get_or("progress", ProgressMode::Stderr)?;
    opts.progress_every = args.get_or("progress-every", 1usize)?.max(1);
    // Pure execution detail: results are bit-identical across backends.
    opts.backend = backend_spec(args, xbar_crossbar::backend::BackendKind::Naive)?;
    let journal = args
        .get("journal")
        .filter(|j| !j.is_empty())
        .map(str::to_string)
        .unwrap_or_else(|| default_journal.to_string());
    opts.journal = Some(journal.into());
    Ok(opts)
}

fn cmd_campaign(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_bench::figures::{OracleFlags, FIGURES};

    let name = args.require("figure")?;
    let figure = FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!(
            "unknown figure {name:?} (expected one of: {})",
            names.join(", ")
        )
    })?;
    // A flag the figure's trials would silently ignore is refused.
    let faults = figure.flags == OracleFlags::All;
    for (flag, applies) in [
        ("backend", figure.flags != OracleFlags::None),
        ("faults", faults),
        ("transients", faults),
    ] {
        if !applies && args.get(flag).is_some() {
            return Err(format!("--{flag} does not apply to figure {name}").into());
        }
    }
    let mut opts = campaign_options(args, &format!("results/{name}-journal.jsonl"))?;
    // Optional device faults, injected into every trial's deployed
    // crossbar under the (campaign_seed, trial_index) key.
    opts.faults = args.get("faults").map(load_fault_spec).transpose()?;
    // Optional per-query transient faults, keyed additionally by the
    // global query index.
    opts.transients = args.get("transients").map(parse_transients).transpose()?;
    (figure.run)(&opts).map_err(|e| -> CliError { e.into() })
}

fn cmd_bench(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("mvm") => {
            xbar_bench::mvmbench::run_mvm_bench(args.flag("quick"), args.get("out"))?;
            Ok(())
        }
        Some("serve") => {
            xbar_bench::servebench::run_serve_bench(args.flag("quick"), args.get("out"))?;
            Ok(())
        }
        Some(other) => Err(format!("unknown bench {other:?} (expected: mvm, serve)").into()),
        None => Err("usage: xbar bench mvm|serve [--quick] [--out FILE]".into()),
    }
}

/// Parses `--access none|label|raw` into an [`OutputAccess`].
fn parse_output_access(text: &str) -> Result<OutputAccess, CliError> {
    match text {
        "none" => Ok(OutputAccess::None),
        "label" => Ok(OutputAccess::LabelOnly),
        "raw" => Ok(OutputAccess::Raw),
        other => Err(Box::new(ArgsError::BadValue {
            name: "access",
            value: other.to_string(),
        })),
    }
}

fn cmd_serve(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("host") => cmd_serve_host(args),
        Some("drive") => cmd_serve_drive(args),
        Some("stats") => cmd_serve_stats(args),
        Some(other) => {
            Err(format!("unknown serve action {other:?} (expected: host, drive, stats)").into())
        }
        None => Err("usage: xbar serve host --model FILE [--addr HOST:PORT] | \
             xbar serve drive --addr HOST:PORT --dim N | \
             xbar serve stats [--addr HOST:PORT] [--prom]"
            .into()),
    }
}

/// `xbar serve host`: deploy a saved model behind the campaign service
/// and serve it until a client sends the `shutdown` op.
fn cmd_serve_host(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_crossbar::backend::BackendKind;
    use xbar_crossbar::device::DeviceModel;
    use xbar_crossbar::power::PowerModel;
    use xbar_serve::{ServeConfig, Server, VictimRegistry};

    // Validate every option before touching the filesystem or network.
    let model_path = args.require("model")?.to_string();
    let name = args.get("name").unwrap_or("victim").to_string();
    let seed: u64 = args.get_or("seed", 1)?;
    let access = parse_output_access(args.get("access").unwrap_or("none"))?;
    let power_noise: f64 = args.get_or("power-noise", 0.0)?;
    let device = DeviceModel {
        read_sigma: args.get_or("read-sigma", 0.0)?,
        ..DeviceModel::ideal()
    };
    let metrics = args
        .get("metrics")
        .filter(|m| !m.is_empty())
        .map(std::path::PathBuf::from);
    let metrics_every =
        std::time::Duration::from_millis(args.get_or("metrics-every", 1000u64)?.max(1));
    let backend = backend_spec(args, BackendKind::Blocked)?;
    let net = persist::load_network(&model_path)?;
    let cfg = OracleConfig::ideal()
        .with_access(access)
        .with_device(device)
        .with_backend(backend)
        .with_power(PowerModel::default().with_noise(power_noise));
    let oracle = Oracle::new(net, &cfg, seed)?;
    let dim = oracle.num_inputs();

    let mut registry = VictimRegistry::new();
    registry.insert(&name, oracle)?;
    let config = ServeConfig {
        max_sessions: args.get_or("max-sessions", 256usize)?,
        max_inflight: args.get_or("max-inflight", 4096usize)?,
        journal: args
            .get("journal")
            .filter(|j| !j.is_empty())
            .map(std::path::PathBuf::from),
        metrics,
        metrics_every,
    };
    let server = Server::start(
        args.get("addr").unwrap_or("127.0.0.1:7878"),
        registry,
        config,
    )?;
    println!(
        "serving victim {name:?} ({dim} inputs) on {} — send the shutdown op to stop",
        server.local_addr()
    );
    server.run_until_shutdown();
    println!("campaign service drained and stopped");
    Ok(())
}

/// `xbar serve drive`: a scripted multi-session client for smoke tests —
/// drives N concurrent budgeted sessions, then replays one seed twice
/// and checks the served streams are bit-identical.
fn cmd_serve_drive(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_serve::Client;

    let addr = args.require("addr")?.to_string();
    let dim: usize = args.get_or("dim", 0usize)?;
    if dim == 0 {
        return Err("serve drive: --dim N (the victim's input dimension) is required".into());
    }
    let sessions: usize = args.get_or("sessions", 4usize)?.max(1);
    let queries: usize = args.get_or("queries", 8usize)?.max(1);
    let victim = args.get("victim").unwrap_or("victim").to_string();
    let base_seed: u64 = args.get_or("seed", 100)?;

    let input = |s: usize, q: usize| -> Vec<f64> {
        (0..dim)
            .map(|j| (((s * 131 + q * 17 + j) as f64) * 0.013).sin())
            .collect()
    };

    let start = std::time::Instant::now();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let (addr, victim) = (&addr, &victim);
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                    // Seed-scoped ids: sessions persist server-side
                    // (resumable), so repeated drives against one
                    // server must not collide unless they share --seed.
                    let id = format!("drive-{base_seed}-{s}");
                    let budget = queries as u64;
                    client
                        .hello(
                            &id,
                            Some(victim),
                            Some(base_seed + 1 + s as u64),
                            Some(budget),
                        )
                        .map_err(|e| e.to_string())?;
                    for q in 0..queries {
                        client
                            .query(&id, std::slice::from_ref(&input(s, q)))
                            .map_err(|e| e.to_string())?;
                    }
                    // The budget is exactly spent: one more must bounce.
                    if client
                        .query(&id, std::slice::from_ref(&input(s, 0)))
                        .is_ok()
                    {
                        return Err(format!("session {id} exceeded its budget"));
                    }
                    client.close(&id).map_err(|e| e.to_string())?;
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle
                .join()
                .map_err(|_| -> CliError { "drive session thread panicked".into() })??;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed();
    let total = sessions * queries;
    println!(
        "drove {sessions} sessions x {queries} queries ({total} total) in {:.1} ms \
         ({:.0} q/s aggregate)",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    // Determinism spot-check: the same seed served twice must yield
    // bit-identical records, whichever connection evaluated its queries.
    let mut client = Client::connect(addr.as_str())?;
    let probes: Vec<Vec<f64>> = (0..2).map(|q| input(0, q)).collect();
    let check_a = format!("drive-{base_seed}-check-a");
    let check_b = format!("drive-{base_seed}-check-b");
    client.hello(&check_a, Some(&victim), Some(base_seed), None)?;
    let a = client.query(&check_a, &probes)?;
    client.close(&check_a)?;
    client.hello(&check_b, Some(&victim), Some(base_seed), None)?;
    let b = client.query(&check_b, &probes)?;
    client.close(&check_b)?;
    if a != b {
        return Err("determinism check failed: same-seed sessions diverged".into());
    }
    println!("determinism check: same-seed sessions bit-identical");

    if args.flag("shutdown") {
        client.shutdown_server()?;
        println!("asked the server to drain and stop");
    }
    Ok(())
}

/// `xbar serve stats`: scrape the live metrics of a running
/// service. Read-only — consumes no budget, admitted even when the
/// session table is full or the server is draining.
fn cmd_serve_stats(args: &ParsedArgs) -> Result<(), CliError> {
    use xbar_serve::Client;

    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr)?;
    if args.flag("prom") {
        print!("{}", client.stats_prometheus()?);
        return Ok(());
    }
    let stats = client.stats()?;
    print!("{}", render_metrics(&snapshot_scopes(&stats)?));
    Ok(())
}

fn cmd_faults(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let opts = campaign_options(args, "results/faults-sweep-journal.jsonl")?;
            xbar_bench::faultsweep::run_fault_sweep(&opts).map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown faults action {other:?} (expected: sweep)").into()),
        None => {
            Err("usage: xbar faults sweep [--quick] [--threads N] [--out FILE] [--resume]".into())
        }
    }
}

fn cmd_lifetime(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let mut opts = campaign_options(args, "results/lifetime-sweep-journal.jsonl")?;
            // Failing cells are journaled and skipped in the
            // aggregation instead of aborting the sweep.
            opts.tolerate_failures = true;
            let policy = args
                .get("recalibrate")
                .map(parse_recalibrate)
                .transpose()?
                .unwrap_or(xbar_core::probe::RecalibrationPolicy::every(1));
            xbar_bench::lifetimesweep::run_lifetime_sweep(&opts, &policy)
                .map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown lifetime action {other:?} (expected: sweep)").into()),
        None => Err(
            "usage: xbar lifetime sweep [--quick] [--threads N] [--out FILE] [--resume] \
             [--recalibrate never|every:N|stale:X]"
                .into(),
        ),
    }
}

fn cmd_infer(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("sweep") => {
            let opts = campaign_options(args, "results/infer-sweep-journal.jsonl")?;
            xbar_bench::infersweep::run_infer_sweep(&opts).map_err(|e| -> CliError { e.into() })
        }
        Some(other) => Err(format!("unknown infer action {other:?} (expected: sweep)").into()),
        None => {
            Err("usage: xbar infer sweep [--quick] [--threads N] [--out FILE] [--resume]".into())
        }
    }
}

fn cmd_trace(args: &ParsedArgs) -> Result<(), CliError> {
    match args.positional(0) {
        Some("summarize") => match args.positional(1) {
            Some(path) => {
                print!("{}", summarize_trace(path)?);
                Ok(())
            }
            None => Err("usage: xbar trace summarize <trace.jsonl>".into()),
        },
        Some(other) => Err(format!("unknown trace action {other:?} (expected: summarize)").into()),
        None => Err("usage: xbar trace summarize <trace.jsonl>".into()),
    }
}

/// Reads field `key` of a trace or stats record, refusing a missing or
/// mistyped value.
fn read_field<T: serde::Deserialize>(record: &serde::Value, key: &str) -> Result<T, DeError> {
    T::deserialize(record.get(key).unwrap_or(&serde::Value::Null)).map_err(|e| e.in_field(key))
}

/// The entries of the object section `kind` of an encoded scope, each
/// decoded as a `T` (none if the section is absent). A mistyped section
/// or entry is an error naming it.
fn entries<'v, T: serde::Deserialize>(
    json: &'v serde::Value,
    kind: &str,
) -> Result<Vec<(&'v String, T)>, DeError> {
    let Some(section) = json.get(kind) else {
        return Ok(Vec::new());
    };
    let fields = section.as_object().ok_or_else(|| {
        DeError::custom(format!("expected object, found {}", section.type_name())).in_field(kind)
    })?;
    fields
        .iter()
        .map(|(name, value)| {
            T::deserialize(value)
                .map(|decoded| (name, decoded))
                .map_err(|e| e.in_field(name).in_field(kind))
        })
        .collect()
}

/// One scope's metrics read back from a campaign trace or a service
/// stats snapshot: what [`xbar_obs::ScopeMetrics`] encodes, keyed by
/// the names as read.
#[derive(Default)]
struct ScopeTables {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, xbar_obs::Histogram>,
}

impl ScopeTables {
    /// Folds in one encoded scope — a snapshot section (`counters`,
    /// `gauges`, `histograms`) or a trace record (`counters`, `values`,
    /// `spans`): counters add, gauges overwrite, histograms merge
    /// (decoded by `Histogram`'s strict `Deserialize`).
    fn absorb(&mut self, json: &serde::Value) -> Result<(), DeError> {
        for (name, total) in entries::<u64>(json, "counters")? {
            let counter = self.counters.entry(name.clone()).or_default();
            *counter = counter.saturating_add(total);
        }
        for (name, level) in entries::<f64>(json, "gauges")? {
            self.gauges.insert(name.clone(), level);
        }
        for kind in ["histograms", "values", "spans"] {
            for (name, read) in entries::<xbar_obs::Histogram>(json, kind)? {
                self.histograms
                    .entry(name.clone())
                    .or_default()
                    .merge(&read);
            }
        }
        Ok(())
    }
}

/// Renders scoped metrics as counter, gauge and histogram tables
/// (histograms with count / p50 / p90 / p99 / max; timing histograms
/// are in nanoseconds). The one renderer behind `xbar serve stats` and
/// `xbar trace summarize`, for campaign traces and service snapshots
/// alike.
fn render_metrics(scopes: &[(String, ScopeTables)]) -> String {
    let mut counter_rows: Vec<Vec<String>> = Vec::new();
    let mut gauge_rows: Vec<Vec<String>> = Vec::new();
    let mut histogram_rows: Vec<Vec<String>> = Vec::new();
    for (scope, tables) in scopes {
        for (name, total) in &tables.counters {
            counter_rows.push(vec![scope.clone(), name.clone(), total.to_string()]);
        }
        for (name, level) in &tables.gauges {
            gauge_rows.push(vec![scope.clone(), name.clone(), fmt(*level, 1)]);
        }
        for (name, h) in &tables.histograms {
            histogram_rows.push(vec![
                scope.clone(),
                name.clone(),
                h.count().to_string(),
                fmt(h.quantile(0.50), 1),
                fmt(h.quantile(0.90), 1),
                fmt(h.quantile(0.99), 1),
                h.max().to_string(),
            ]);
        }
    }
    let mut out = String::new();
    for (title, header, rows) in [
        (
            "counters",
            &["scope", "counter", "total"][..],
            &counter_rows,
        ),
        ("gauges", &["scope", "gauge", "value"][..], &gauge_rows),
        (
            "histograms",
            &["scope", "histogram", "count", "p50", "p90", "p99", "max"][..],
            &histogram_rows,
        ),
    ] {
        if !rows.is_empty() {
            out.push_str(&format!("--- {title} ---\n"));
            out.push_str(&format_table(header, rows));
            out.push('\n');
        }
    }
    if out.is_empty() {
        out.push_str("no metrics recorded yet\n");
    }
    out
}

/// Reads a service stats snapshot (the `Serialize` encoding of
/// [`xbar_obs::MetricsSnapshot`]) into one table set per victim.
fn snapshot_scopes(stats: &serde::Value) -> Result<Vec<(String, ScopeTables)>, DeError> {
    let Some(serde::Value::Object(victims)) = stats.get("victims") else {
        return Err(DeError::custom("stats snapshot has no victims section"));
    };
    victims
        .iter()
        .map(|(victim, section)| {
            let mut tables = ScopeTables::default();
            tables.absorb(section).map_err(|e| e.in_field(victim))?;
            Ok((victim.clone(), tables))
        })
        .collect()
}

/// Summarizes an `xbar-obs` JSONL trace and/or the `xbar-serve-metrics`
/// snapshot records written by `serve host --metrics`. Each campaign
/// section becomes one scope whose totals are recomputed from its trial
/// records (so a trace whose run was killed before the `end` line still
/// summarizes); snapshots are cumulative, so only the last one is
/// rendered. A trace of another format version, or a line whose
/// metrics do not decode, is refused with its line number.
fn summarize_trace(path: &str) -> Result<String, CliError> {
    use serde::Value;
    use xbar_obs::trace::{TRACE_FORMAT_VERSION, TRACE_KIND};

    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let mut out = String::new();
    let mut campaigns: Vec<(String, ScopeTables)> = Vec::new();
    let (mut trials_ok, mut trials_failed) = (0usize, 0usize);
    // Snapshots are cumulative: keep only the last one.
    let mut serve_snapshots = 0usize;
    let mut serve_scopes: Option<Vec<(String, ScopeTables)>> = None;

    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = format!("trace {path} line {}", line_no + 1);
        let at_err = |e: DeError| format!("{at}: {e}");
        let record = serde_json::parse_value(line).map_err(|e| format!("{at}: {e}"))?;
        match record.get("kind").and_then(Value::as_str) {
            Some(TRACE_KIND) => {
                let version: u64 = read_field(&record, "format_version").map_err(at_err)?;
                if version != u64::from(TRACE_FORMAT_VERSION) {
                    return Err(format!(
                        "{at}: trace format version {version} is not supported \
                         (this xbar reads version {TRACE_FORMAT_VERSION}; re-run the \
                         campaign with --trace to regenerate it)"
                    )
                    .into());
                }
                let name: String = read_field(&record, "campaign").map_err(at_err)?;
                let seed: u64 = read_field(&record, "campaign_seed").map_err(at_err)?;
                let trials: u64 = read_field(&record, "total_trials").map_err(at_err)?;
                out.push_str(&format!(
                    "campaign: {name} (seed {seed}, {trials} trials)\n"
                ));
                campaigns.push((name, ScopeTables::default()));
            }
            Some("trial") => {
                let Some((_, tables)) = campaigns.last_mut() else {
                    return Err(format!("{at}: trial record before any xbar-trace header").into());
                };
                match record.get("status").and_then(Value::as_str) {
                    Some("ok") => trials_ok += 1,
                    _ => trials_failed += 1,
                }
                tables.absorb(&record).map_err(at_err)?;
            }
            Some(kind) if kind == xbar_serve::METRICS_RECORD_KIND => {
                serve_snapshots += 1;
                if let Some(stats) = record.get("stats") {
                    serve_scopes = Some(
                        snapshot_scopes(stats)
                            .map_err(|e| e.in_field("stats"))
                            .map_err(at_err)?,
                    );
                }
            }
            // `end` totals are recomputed from the trial records above.
            _ => {}
        }
    }
    if campaigns.is_empty() && serve_snapshots == 0 {
        return Err(format!("trace {path} has no xbar-trace header").into());
    }
    if !campaigns.is_empty() {
        let trials = trials_ok + trials_failed;
        out.push_str(&format!(
            "trials recorded: {trials} ({trials_ok} ok, {trials_failed} failed)\n"
        ));
    }
    let mut scopes = campaigns;
    if let Some(serve_scopes) = serve_scopes {
        out.push_str(&format!(
            "serve-metrics snapshots: {serve_snapshots} (rendering the last — counters are cumulative)\n"
        ));
        scopes.extend(serve_scopes);
    }
    out.push('\n');
    out.push_str(&render_metrics(&scopes));
    Ok(out)
}

fn load_dataset(args: &ParsedArgs) -> Result<Dataset, CliError> {
    let kind = args.get("dataset").unwrap_or("digits");
    let samples: usize = args.get_or("samples", 1000)?;
    let seed: u64 = args.get_or("seed", 0)?;
    match kind {
        "digits" => Ok(DigitsConfig::default()
            .num_samples(samples)
            .seed(seed)
            .generate()),
        "objects" => Ok(ObjectsConfig::default()
            .num_samples(samples)
            .seed(seed)
            .generate()),
        other => Err(Box::new(ArgsError::BadValue {
            name: "dataset",
            value: other.to_string(),
        })),
    }
}

fn cmd_train(args: &ParsedArgs) -> Result<(), CliError> {
    let out = args.require("out")?.to_string();
    let head = args.get("head").unwrap_or("softmax");
    let seed: u64 = args.get_or("seed", 0)?;
    let (activation, loss, lr) = match head {
        "linear" => (Activation::Identity, Loss::Mse, 0.01),
        "softmax" => (Activation::Softmax, Loss::CrossEntropy, 0.05),
        other => {
            return Err(Box::new(ArgsError::BadValue {
                name: "head",
                value: other.to_string(),
            }))
        }
    };
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net =
        SingleLayerNet::new_random(ds.num_features(), ds.num_classes(), activation, &mut rng);
    let sgd = SgdConfig {
        learning_rate: lr,
        epochs: args.get_or("epochs", 25)?,
        ..SgdConfig::default()
    };
    let report = train(&mut net, &split.train, loss, &sgd, &mut rng)?;
    let test_acc = accuracy(
        &net.predict_batch(split.test.inputs())?,
        split.test.labels(),
    );
    println!(
        "trained {head} head: loss {:.4} -> {:.4}, test accuracy {test_acc:.3}",
        report.initial_loss, report.final_loss
    );
    persist::save_network(&out, &net)?;
    println!("saved model to {out}");
    Ok(())
}

fn cmd_probe(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut oracle = Oracle::new(
        net,
        &OracleConfig::ideal().with_access(OutputAccess::None),
        seed,
    )?;
    let compressed: usize = args.get_or("compressed-queries", 0)?;
    let norms = if compressed > 0 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC5);
        probe_norms_compressed(&mut oracle, compressed, 1e-2, &mut rng)?
    } else {
        probe_column_norms(&mut oracle, 1.0, 1)?
    };
    println!(
        "probed {} columns with {} power queries",
        norms.len(),
        oracle.query_count()
    );
    // Render as a heatmap when the dimension is a known image shape.
    let n = norms.len();
    let shape = match n {
        784 => Some(xbar_data::ImageShape::new(28, 28, 1)),
        3072 => Some(xbar_data::ImageShape::new(32, 32, 3)),
        _ => None,
    };
    if let Some(shape) = shape {
        println!("{}", ascii_heatmap(&norms, shape, 0));
    }
    let top = xbar_linalg::vec_ops::top_k_indices(&norms, 5);
    println!("top-5 columns by probed 1-norm: {top:?}");
    Ok(())
}

fn cmd_attack(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let strength: f64 = args.get_or("strength", 4.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let loss = match net.activation() {
        Activation::Softmax => Loss::CrossEntropy,
        _ => Loss::Mse,
    };
    let mut oracle = Oracle::new(
        net.clone(),
        &OracleConfig::ideal().with_access(OutputAccess::None),
        seed,
    )?;
    let norms = probe_column_norms(&mut oracle, 1.0, 1)?;
    let clean = oracle.eval_accuracy(split.test.inputs(), split.test.labels())?;
    let targets = split.test.one_hot_targets();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA7);
    let mut rows = Vec::new();
    for method in PixelAttackMethod::all() {
        let adv = single_pixel_attack_batch(
            method,
            split.test.inputs(),
            &targets,
            PixelAttackResources::full(&norms, &net, loss),
            strength,
            &mut rng,
        )?;
        let acc = oracle.eval_accuracy(&adv, split.test.labels())?;
        rows.push(vec![
            method.paper_label().to_string(),
            fmt(acc, 3),
            fmt(clean - acc, 3),
        ]);
    }
    println!("clean accuracy {clean:.3}; single-pixel attacks at strength {strength}:");
    println!(
        "{}",
        format_table(&["method", "accuracy", "degradation"], &rows)
    );
    Ok(())
}

fn cmd_blackbox(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    let queries: usize = args.get_or("queries", 200)?;
    let lambda: f64 = args.get_or("lambda", 0.0)?;
    let eps: f64 = args.get_or("eps", 0.1)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let access = match args.get("access").unwrap_or("label") {
        "label" => OutputAccess::LabelOnly,
        "raw" => OutputAccess::Raw,
        other => {
            return Err(Box::new(ArgsError::BadValue {
                name: "access",
                value: other.to_string(),
            }))
        }
    };
    let ds = load_dataset(args)?;
    let split = ds.split_frac(0.85)?;
    let mut oracle = Oracle::new(net, &OracleConfig::ideal().with_access(access), seed)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBB);
    let mut cfg = BlackBoxConfig::default()
        .with_num_queries(queries)
        .with_power_weight(lambda)
        .with_fgsm_eps(eps);
    cfg.surrogate.sgd.epochs = (38_400 / queries).clamp(60, 2000);
    let (out, _) = run_blackbox_attack(&mut oracle, &split.train, &split.test, &cfg, &mut rng)?;
    println!(
        "queries {queries}, power λ {lambda}: surrogate acc {:.3}, oracle {:.3} -> {:.3} (degradation {:.3})",
        out.surrogate_test_accuracy,
        out.oracle_clean_accuracy,
        out.oracle_adversarial_accuracy,
        out.degradation()
    );
    Ok(())
}

fn cmd_recover(args: &ParsedArgs) -> Result<(), CliError> {
    let net = persist::load_network(args.require("model")?)?;
    if net.activation() != Activation::Identity {
        println!(
            "note: model head is {}; basis-probe recovery assumes a linear head",
            net.activation().name()
        );
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let mut oracle = Oracle::new(
        net.clone(),
        &OracleConfig::ideal().with_access(OutputAccess::Raw),
        seed,
    )?;
    let recovered = recover_columns_by_basis_probes(&mut oracle, 1.0)?;
    let err = relative_error(&recovered, net.weights())?;
    println!(
        "recovered {}x{} weights in {} queries; relative error {err:.2e}",
        recovered.rows(),
        recovered.cols(),
        oracle.query_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|t| t.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("xbar-cli-test-{name}-{}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn unknown_command_rejected() {
        let args = parse(&["frobnicate"]);
        assert!(dispatch(&args).is_err());
    }

    #[test]
    fn options_outside_the_usage_are_refused() {
        let model = tmp("unknown-option-model");
        for (tokens, option) in [
            (
                vec!["campaign", "--figure", "fig4", "--retries", "2"],
                "--retries",
            ),
            (vec!["train", "--out", &model, "--epoch", "3"], "--epoch"),
            (
                vec!["faults", "sweep", "--progress", "none", "--thread", "4"],
                "--thread",
            ),
            // `trace` takes no option, whatever its usage prose mentions.
            (
                vec!["trace", "summarize", &model, "--trace", "x.jsonl"],
                "--trace",
            ),
            (
                vec!["trace", "summarize", &model, "--metrics", "m.jsonl"],
                "--metrics",
            ),
        ] {
            let err = dispatch(&parse(&tokens)).unwrap_err().to_string();
            assert!(err.contains(&format!("unknown option {option} ")), "{err}");
        }
        // Refused before anything ran: no model was written.
        assert!(!std::path::Path::new(&model).exists());
        // `--help` is always accepted.
        assert!(dispatch(&parse(&["train", "--help"])).is_ok());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&parse(&["help"])).is_ok());
    }

    #[test]
    fn train_probe_attack_recover_pipeline() {
        let model = tmp("model");
        // Small sizes keep the test fast.
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "5",
        ]))
        .unwrap();
        dispatch(&parse(&["probe", "--model", &model])).unwrap();
        dispatch(&parse(&[
            "probe",
            "--model",
            &model,
            "--compressed-queries",
            "100",
        ]))
        .unwrap();
        dispatch(&parse(&[
            "attack",
            "--model",
            &model,
            "--samples",
            "200",
            "--strength",
            "3",
        ]))
        .unwrap();
        dispatch(&parse(&["recover", "--model", &model])).unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn blackbox_pipeline() {
        let model = tmp("bb-model");
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "5",
        ]))
        .unwrap();
        dispatch(&parse(&[
            "blackbox",
            "--model",
            &model,
            "--queries",
            "40",
            "--lambda",
            "1.0",
            "--samples",
            "200",
        ]))
        .unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn campaign_argument_validation() {
        // Missing --figure.
        assert!(dispatch(&parse(&["campaign"])).is_err());
        // Unknown figure; the error lists all eight.
        let err = dispatch(&parse(&["campaign", "--figure", "fig9"])).unwrap_err();
        for figure in xbar_bench::figures::FIGURES {
            assert!(err.to_string().contains(figure.name), "{err}");
        }
        // Flags a figure's trials would ignore are refused, naming the
        // figure, before any work starts.
        let refused = |figure: &str, flag: &str, value: &str| {
            let err = dispatch(&parse(&["campaign", "--figure", figure, flag, value])).unwrap_err();
            let err = err.to_string();
            assert!(err.contains(flag) && err.contains(figure), "{err}");
        };
        for figure in ["table1", "fig3", "multipixel", "recovery", "multilayer"] {
            refused(figure, "--faults", "unread.json");
            refused(figure, "--transients", "0.01");
        }
        for figure in ["table1", "fig3", "multilayer"] {
            refused(figure, "--backend", "blocked");
        }
        // Bad thread count.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--threads",
            "lots",
        ]))
        .is_err());
        // Unknown evaluation backend.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--backend",
            "quantum",
        ]))
        .is_err());
        // Malformed backend specs: a non-numeric thread count, and a
        // thread suffix on a kind that takes none.
        for bad in ["parallel:x", "parallel:-1", "naive:2", "blocked:4", ""] {
            let err =
                dispatch(&parse(&["campaign", "--figure", "fig4", "--backend", bad])).unwrap_err();
            assert!(err.to_string().contains("--backend"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn unwritable_out_path_is_an_error() {
        // A directory cannot be created under a regular file, so the
        // artifact cannot be written and the command must fail.
        let file = tmp("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let out = format!("{file}/bench-mvm.json");
        let err = dispatch(&parse(&["bench", "mvm", "--quick", "--out", &out])).unwrap_err();
        assert!(err.to_string().contains("cannot create directory"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn bench_mvm_quick_writes_report() {
        let out = tmp("bench-mvm.json");
        dispatch(&parse(&["bench", "mvm", "--quick", "--out", &out])).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"bit_identical\": true"), "{text}");
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn bench_argument_validation() {
        // Missing and unknown bench actions are rejected.
        assert!(dispatch(&parse(&["bench"])).is_err());
        assert!(dispatch(&parse(&["bench", "frobnicate"])).is_err());
    }

    #[test]
    fn serve_argument_validation() {
        // Missing and unknown serve actions are rejected.
        assert!(dispatch(&parse(&["serve"])).is_err());
        assert!(dispatch(&parse(&["serve", "frobnicate"])).is_err());
        // host: missing model and malformed options fail before any
        // socket is opened or file is read.
        assert!(dispatch(&parse(&["serve", "host"])).is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--access",
            "quantum",
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--seed",
            "lots",
        ]))
        .is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--metrics-every",
            "lots",
        ]))
        .is_err());
        // A malformed backend spec is rejected before the model file is
        // even read — the error names the flag, not the missing file.
        let err = dispatch(&parse(&[
            "serve",
            "host",
            "--model",
            "/nonexistent/m.json",
            "--backend",
            "parallel:x",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--backend"), "{err}");
        // stats: an unresolvable address fails without hanging.
        assert!(dispatch(&parse(&["serve", "stats", "--addr", "not an addr"])).is_err());
        // drive: missing address / dimension and malformed counts fail
        // before any connection attempt.
        assert!(dispatch(&parse(&["serve", "drive"])).is_err());
        assert!(dispatch(&parse(&["serve", "drive", "--addr", "127.0.0.1:1"])).is_err());
        assert!(dispatch(&parse(&[
            "serve",
            "drive",
            "--addr",
            "127.0.0.1:1",
            "--dim",
            "3",
            "--sessions",
            "lots",
        ]))
        .is_err());
    }

    #[test]
    fn output_access_parsing() {
        assert!(matches!(
            parse_output_access("none"),
            Ok(OutputAccess::None)
        ));
        assert!(matches!(
            parse_output_access("label"),
            Ok(OutputAccess::LabelOnly)
        ));
        assert!(matches!(parse_output_access("raw"), Ok(OutputAccess::Raw)));
        assert!(parse_output_access("quantum").is_err());
    }

    #[test]
    fn serve_host_drive_round_trip() {
        // Train a tiny victim, host it on an ephemeral port in a
        // background thread, and drive it with the scripted client —
        // the out-of-process CI smoke, in-process.
        let model = tmp("serve-model");
        dispatch(&parse(&[
            "train",
            "--out",
            &model,
            "--head",
            "linear",
            "--samples",
            "200",
            "--epochs",
            "2",
        ]))
        .unwrap();
        let net = persist::load_network(&model).unwrap();
        let dim = net.weights().cols();

        let mut registry = xbar_serve::VictimRegistry::new();
        let oracle = Oracle::new(
            net,
            &OracleConfig::ideal().with_access(OutputAccess::None),
            1,
        )
        .unwrap();
        registry.insert("victim", oracle).unwrap();
        let server =
            xbar_serve::Server::start("127.0.0.1:0", registry, xbar_serve::ServeConfig::default())
                .unwrap();
        let addr = server.local_addr().to_string();
        let host = std::thread::spawn(move || server.run_until_shutdown());

        dispatch(&parse(&[
            "serve",
            "drive",
            "--addr",
            &addr,
            "--dim",
            &dim.to_string(),
            "--sessions",
            "3",
            "--queries",
            "4",
        ]))
        .unwrap();
        // Scrape the live metrics both ways, then stop the server.
        dispatch(&parse(&["serve", "stats", "--addr", &addr])).unwrap();
        dispatch(&parse(&["serve", "stats", "--addr", &addr, "--prom"])).unwrap();
        let mut client = xbar_serve::Client::connect(addr.as_str()).unwrap();
        client.shutdown_server().unwrap();
        host.join().unwrap();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn serve_stats_renders_a_snapshot() {
        use xbar_obs::{names, MetricsRegistry};

        let registry = MetricsRegistry::new(2);
        registry
            .shard(0)
            .counter_add("toy", names::SERVE_QUERIES, 40);
        for ns in [10, 95, 95, 200] {
            registry.shard(1).record("toy", names::SERVE_REQUEST_NS, ns);
        }
        registry.gauge_set("_server", names::SERVE_ATTACHED_SESSIONS, 3.0);
        let snapshot = registry.snapshot();
        let stats = serde::Serialize::serialize(&snapshot);
        let rendered = render_metrics(&snapshot_scopes(&stats).unwrap());
        for needle in [
            "--- counters ---",
            "serve.queries",
            "40",
            "serve.attached_sessions",
            "3.0",
            "serve.request_ns",
            "p50",
        ] {
            assert!(rendered.contains(needle), "{needle}: {rendered}");
        }
        // The read-back histogram renders the recorded quantiles.
        let h = snapshot
            .scope("toy")
            .unwrap()
            .histogram(names::SERVE_REQUEST_NS)
            .unwrap();
        assert!(rendered.contains(&fmt(h.quantile(0.9), 1)), "{rendered}");
        // Degenerate shapes degrade gracefully instead of panicking.
        let empty = serde_json::parse_value(r#"{"victims":{}}"#).unwrap();
        assert!(render_metrics(&snapshot_scopes(&empty).unwrap()).contains("no metrics"));
        let hostile = serde_json::parse_value(r#"{"something":"else"}"#).unwrap();
        assert!(snapshot_scopes(&hostile).is_err());
    }

    #[test]
    fn faults_argument_validation() {
        // Missing and unknown faults actions are rejected.
        assert!(dispatch(&parse(&["faults"])).is_err());
        assert!(dispatch(&parse(&["faults", "frobnicate"])).is_err());
        // Bad executor options are rejected before any work starts.
        assert!(dispatch(&parse(&["faults", "sweep", "--threads", "lots"])).is_err());
    }

    #[test]
    fn lifetime_argument_validation() {
        // Missing and unknown lifetime actions are rejected.
        assert!(dispatch(&parse(&["lifetime"])).is_err());
        assert!(dispatch(&parse(&["lifetime", "frobnicate"])).is_err());
        // Bad executor and recalibration options fail before any work.
        assert!(dispatch(&parse(&["lifetime", "sweep", "--threads", "lots"])).is_err());
        assert!(dispatch(&parse(&["lifetime", "sweep", "--recalibrate", "sometimes"])).is_err());
    }

    #[test]
    fn help_flag_prints_usage_and_runs_nothing() {
        // These would start a full sweep (or fail validation) if
        // `--help` did not short-circuit before any work.
        for tokens in [
            &["lifetime", "sweep", "--help"][..],
            &["lifetime", "sweep", "--help", "--recalibrate", "sometimes"],
            &["faults", "sweep", "--threads", "lots", "--help"],
            &["train", "--help"],
            &["lifetime", "--help"],
        ] {
            assert!(dispatch(&parse(tokens)).is_ok(), "{tokens:?}");
        }
        assert!(COMMAND_USAGE
            .iter()
            .any(|(name, usage)| *name == "lifetime" && usage.contains("sweep")));
        // An unknown command stays an error, help flag or not.
        assert!(dispatch(&parse(&["frobnicate", "--help"])).is_err());
    }

    #[test]
    fn infer_argument_validation() {
        // Missing and unknown infer actions are rejected.
        assert!(dispatch(&parse(&["infer"])).is_err());
        assert!(dispatch(&parse(&["infer", "frobnicate"])).is_err());
        // Bad executor options are rejected before any work starts.
        assert!(dispatch(&parse(&["infer", "sweep", "--threads", "lots"])).is_err());
        assert!(dispatch(&parse(&["infer", "sweep", "--backend", "quantum"])).is_err());
    }

    #[test]
    fn transient_spec_parsing() {
        let spec = parse_transients("0.02").unwrap();
        assert_eq!(spec.flip_rate, 0.02);
        assert_eq!(spec.jitter_sigma, 0.0);
        let spec = parse_transients("0.02, 0.1").unwrap();
        assert_eq!(spec.flip_rate, 0.02);
        assert_eq!(spec.jitter_sigma, 0.1);
        // Malformed numbers and out-of-domain rates are rejected.
        assert!(parse_transients("").is_err());
        assert!(parse_transients("lots").is_err());
        assert!(parse_transients("0.02,many").is_err());
        assert!(parse_transients("1.5").is_err());
        assert!(parse_transients("0.02,-0.1").is_err());
        // A bad --transients value fails the campaign command early.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--transients",
            "lots",
        ]))
        .is_err());
    }

    #[test]
    fn recalibration_policy_parsing() {
        assert_eq!(
            parse_recalibrate("never").unwrap(),
            xbar_core::probe::RecalibrationPolicy::never()
        );
        let every = parse_recalibrate("every:500").unwrap();
        assert_eq!(every.every_queries, 500);
        let stale = parse_recalibrate("stale:2.5").unwrap();
        assert_eq!(stale.staleness_threshold, 2.5);
        // Unknown shapes and out-of-domain values are rejected.
        assert!(parse_recalibrate("sometimes").is_err());
        assert!(parse_recalibrate("every:0").is_err());
        assert!(parse_recalibrate("every:lots").is_err());
        assert!(parse_recalibrate("stale:0").is_err());
        assert!(parse_recalibrate("stale:NaN").is_err());
    }

    #[test]
    fn fault_spec_loading() {
        let path = tmp("fault-spec.json");
        std::fs::write(&path, r#"{"stuck_on_rate": 0.02, "variation_sigma": 0.1}"#).unwrap();
        let spec = load_fault_spec(&path).unwrap();
        assert_eq!(spec.stuck_on_rate, 0.02);
        assert_eq!(spec.variation_sigma, 0.1);
        assert_eq!(spec.stuck_off_rate, 0.0);
        // Unknown keys, invalid rates and missing files are rejected.
        std::fs::write(&path, r#"{"stuck_rate": 0.02}"#).unwrap();
        assert!(load_fault_spec(&path).is_err());
        std::fs::write(&path, r#"{"stuck_on_rate": 1.5}"#).unwrap();
        assert!(load_fault_spec(&path).is_err());
        assert!(load_fault_spec("/nonexistent/spec.json").is_err());
        // A bad --faults file fails the campaign command early.
        assert!(dispatch(&parse(&[
            "campaign",
            "--figure",
            "fig4",
            "--faults",
            "/nonexistent/spec.json",
        ]))
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_reads_a_trace() {
        use std::time::Duration;
        use xbar_obs::{names, MetricsShard, TraceWriter};

        let path = tmp("trace.jsonl");
        let shard = MetricsShard::new();
        shard.counter_add("t", names::ORACLE_QUERY, 40);
        shard.counter_add("t", names::PROBE_MEASUREMENT, 8);
        shard.record("t", names::XBAR_BATCH_OCCUPANCY, 16);
        shard.record("t", names::SPAN_PROBE, 2_000_000);
        let metrics = shard.take_scope("t");
        let mut writer = TraceWriter::create(std::path::Path::new(&path)).unwrap();
        writer.campaign_header("test-campaign", 9, 2).unwrap();
        for trial in 0..2 {
            writer
                .trial(trial, true, Duration::from_millis(2), &metrics)
                .unwrap();
        }
        writer
            .end(2, 0, 0, Duration::from_millis(3), &metrics)
            .unwrap();
        drop(writer);

        dispatch(&parse(&["trace", "summarize", &path])).unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("campaign: test-campaign"), "{summary}");
        assert!(
            summary.contains("trials recorded: 2 (2 ok, 0 failed)"),
            "{summary}"
        );
        // Counters sum over the trial records; values and spans render
        // as histograms.
        let row = |name: &str| {
            summary
                .lines()
                .find(|line| line.contains(name))
                .unwrap_or_else(|| panic!("no {name} row: {summary}"))
                .split('|')
                .map(str::trim)
                .filter(|cell| !cell.is_empty())
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(row("oracle.query"), "test-campaign oracle.query 80");
        assert!(row("xbar.batch_occupancy").starts_with("test-campaign xbar.batch_occupancy 2 "));
        assert!(
            row("| probe ").starts_with("test-campaign probe 2 "),
            "{summary}"
        );
        assert!(summary.contains("p50"), "{summary}");

        // A version-1 trace is refused with a clear error.
        std::fs::write(
            &path,
            "{\"kind\":\"xbar-trace\",\"format_version\":1,\"campaign\":\"old\"}\n",
        )
        .unwrap();
        let err = summarize_trace(&path).unwrap_err().to_string();
        assert!(err.contains("format version 1"), "{err}");

        // Unknown action and missing path are rejected.
        assert!(dispatch(&parse(&["trace", "frobnicate", &path])).is_err());
        assert!(dispatch(&parse(&["trace", "summarize"])).is_err());
        assert!(dispatch(&parse(&["trace"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_reads_serve_metrics_snapshots() {
        let path = tmp("serve-metrics.jsonl");
        // Two cumulative snapshots; no xbar-trace header. The summary
        // must accept the headerless file and render only the LAST
        // snapshot (counters are cumulative, not deltas).
        std::fs::write(
            &path,
            concat!(
                "{\"kind\":\"xbar-serve-metrics\",\"seq\":0,\"stats\":{\"victims\":{\
                 \"toy\":{\"counters\":{\"serve.requests\":3}}}}}\n",
                "{\"kind\":\"xbar-serve-metrics\",\"seq\":1,\"stats\":{\"victims\":{\
                 \"toy\":{\"counters\":{\"serve.requests\":9,\"serve.queries\":40},\
                 \"gauges\":{\"serve.draining\":0.0},\
                 \"histograms\":{\"serve.request_ns\":{\"count\":9,\"sum\":1755,\
                 \"min\":190,\"max\":200,\"p50\":197.5,\"p90\":200.0,\"p99\":200.0,\
                 \"p999\":200.0,\"buckets\":[[215.26948230495083,9]]}}}}}}\n",
            ),
        )
        .unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("serve-metrics snapshots: 2"), "{summary}");
        assert!(summary.contains("serve.queries"), "{summary}");
        assert!(summary.contains("40"), "{summary}");
        assert!(summary.contains("serve.request_ns"), "{summary}");
        assert!(!summary.contains("campaign:"), "{summary}");
        // Through the CLI too.
        dispatch(&parse(&["trace", "summarize", &path])).unwrap();

        // A mixed file — trial trace plus serve snapshots — renders
        // both planes.
        let mut mixed = std::fs::read_to_string(&path).unwrap();
        mixed.insert_str(
            0,
            "{\"kind\":\"xbar-trace\",\"format_version\":2,\"campaign\":\"mixed\",\
             \"campaign_seed\":7,\"total_trials\":1}\n{\"kind\":\"trial\",\"status\":\"ok\",\
             \"counters\":{\"serve.sessions\":2}}\n",
        );
        std::fs::write(&path, mixed).unwrap();
        let summary = summarize_trace(&path).unwrap();
        assert!(summary.contains("campaign: mixed"), "{summary}");
        assert!(summary.contains("serve.sessions"), "{summary}");
        assert!(summary.contains("serve.request_ns"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_refuses_malformed_histograms() {
        use std::time::Duration;
        use xbar_obs::{names, MetricsShard, TraceWriter};

        let path = tmp("corrupt-trace.jsonl");
        let shard = MetricsShard::new();
        shard.record("t", names::SPAN_PROBE, 2_000);
        let metrics = shard.take_scope("t");
        let mut writer = TraceWriter::create(std::path::Path::new(&path)).unwrap();
        writer.campaign_header("corrupt", 1, 1).unwrap();
        writer
            .trial(0, true, Duration::from_millis(1), &metrics)
            .unwrap();
        drop(writer);
        let clean = std::fs::read_to_string(&path).unwrap();
        assert!(summarize_trace(&path).is_ok());

        // One corrupted trial line: a missing field, a mistyped field,
        // or a count that disagrees with the buckets.
        for (from, to) in [
            ("\"count\":1,", ""),
            ("\"max\":2000", "\"max\":\"2000\""),
            ("\"count\":1,", "\"count\":2,"),
        ] {
            assert!(clean.contains(from), "{from} not in {clean}");
            std::fs::write(&path, clean.replacen(from, to, 1)).unwrap();
            let err = summarize_trace(&path).unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("trace {path} line 2: spans: probe: ")),
                "{err}"
            );
        }

        // The same holds for a serve metrics snapshot line.
        std::fs::write(
            &path,
            "{\"kind\":\"xbar-serve-metrics\",\"seq\":0,\"stats\":{\"victims\":{\"toy\":\
             {\"histograms\":{\"serve.request_ns\":{\"count\":3}}}}}}\n",
        )
        .unwrap();
        let err = summarize_trace(&path).unwrap_err().to_string();
        assert!(
            err.starts_with(&format!(
                "trace {path} line 1: stats: toy: histograms: serve.request_ns: "
            )),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summarize_rejects_non_traces() {
        let path = tmp("not-a-trace.jsonl");
        std::fs::write(&path, "{\"kind\":\"something-else\"}\n").unwrap();
        assert!(dispatch(&parse(&["trace", "summarize", &path])).is_err());
        std::fs::remove_file(&path).ok();
        // Missing file.
        assert!(dispatch(&parse(&["trace", "summarize", "/nonexistent/x.jsonl"])).is_err());
    }

    #[test]
    fn positionals_rejected_outside_trace() {
        assert!(dispatch(&parse(&["train", "stray"])).is_err());
        assert!(dispatch(&parse(&["campaign", "stray", "--figure", "fig4"])).is_err());
    }

    #[test]
    fn bad_option_values_rejected() {
        let model = tmp("bad-model");
        assert!(dispatch(&parse(&["train", "--out", &model, "--head", "quantum"])).is_err());
        assert!(dispatch(&parse(&["train", "--out", &model, "--dataset", "imagenet"])).is_err());
        assert!(dispatch(&parse(&["probe"])).is_err()); // missing --model
        std::fs::remove_file(&model).ok();
    }
}
