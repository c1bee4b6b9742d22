//! Well-known metric names used by the instrumented crates.
//!
//! Names are dotted `layer.event` strings wrapped in one typed handle
//! per metric kind — [`CounterName`], [`HistogramName`], [`GaugeName`]
//! — so recording a counter under a histogram's name does not compile.
//! Instrumentation sites use these constants rather than string
//! literals so that aggregation code (the campaign executor's
//! per-trial totals, `xbar trace summarize`, the service's `stats` op)
//! and the emitting code cannot drift apart. Registries key metrics by
//! the handles' `&'static str`s, so recording on an existing key
//! allocates nothing.

/// The name of a monotone counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterName(pub &'static str);

/// The name of a last-write-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GaugeName(pub &'static str);

/// The name and class of a [`crate::Histogram`].
///
/// A *value* histogram records a deterministic quantity (batch sizes,
/// queue depths): its content is a pure function of the work done. A
/// *timing* histogram records wall-clock nanoseconds (span durations,
/// request latencies); only its `count` is deterministic. Campaign
/// traces file the two classes under `values` and `spans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistogramName {
    /// The dotted name.
    pub name: &'static str,
    /// Whether the histogram records wall-clock nanoseconds.
    pub timing: bool,
}

impl HistogramName {
    /// A value-class histogram name.
    pub const fn value(name: &'static str) -> Self {
        HistogramName {
            name,
            timing: false,
        }
    }

    /// A timing-class histogram name (also the name of a span).
    pub const fn timing(name: &'static str) -> Self {
        HistogramName { name, timing: true }
    }
}

/// One oracle query answered: a budgeted query (`Oracle::query` /
/// `Oracle::query_batch` / `Oracle::one_hot_powers`) or a keyed
/// observation
/// (`Oracle::observe_batch_keyed`, the service's evaluation path).
pub const ORACLE_QUERY: CounterName = CounterName("oracle.query");

/// One oracle query answered by the power-only one-hot path
/// (`Oracle::one_hot_powers` without transients): its power read from
/// the prepared handle's line conductances, with no row materialised
/// and no forward pass. Each also counts under [`ORACLE_QUERY`].
pub const ORACLE_POWER_ONLY: CounterName = CounterName("oracle.power_only");

/// One power-probe measurement (basis or random input) issued by the
/// probing routines in `xbar-core`.
pub const PROBE_MEASUREMENT: CounterName = CounterName("probe.measurement");

/// One analog matrix-vector product evaluated on the crossbar.
pub const XBAR_ANALOG_MVM: CounterName = CounterName("xbar.analog_mvm");

/// One total-supply-current / power-model readout of the crossbar.
pub const XBAR_POWER_READ: CounterName = CounterName("xbar.power_read");

/// One iterative IR-drop nodal solve.
pub const XBAR_IR_DROP_SOLVE: CounterName = CounterName("xbar.ir_drop_solve");

/// One batched evaluation call (`EvalBackend::mvm_prepared` and
/// friends), regardless of how many samples the batch carried.
pub const XBAR_MVM_BATCH: CounterName = CounterName("xbar.mvm_batch");

/// Value histogram: number of samples in each batched evaluation
/// call — the batch occupancy.
pub const XBAR_BATCH_OCCUPANCY: HistogramName = HistogramName::value("xbar.batch_occupancy");

/// One fault plan compiled from a `FaultSpec` (`FaultSpec::compile`).
/// A deployment compiles its plan once: a drifting oracle re-times the
/// same plan at every drift epoch instead of recompiling it, so this
/// counts once per deployment, not once per epoch.
pub const XBAR_FAULT_PLAN_COMPILE: CounterName = CounterName("xbar.fault_plan_compile");

/// One fault plan applied to a programmed array (one faulted copy
/// materialised).
pub const XBAR_FAULT_APPLY: CounterName = CounterName("xbar.fault_apply");

/// Devices pinned to a rail (stuck-at-on/off) by an applied fault plan,
/// counted once per application.
pub const XBAR_FAULT_STUCK_DEVICES: CounterName = CounterName("xbar.fault_stuck_devices");

/// One per-query transient perturbation materialised (a read-disturbed
/// copy of the deployed array for a single query).
pub const XBAR_TRANSIENT_APPLY: CounterName = CounterName("xbar.transient_apply");

/// Devices flipped to a rail by per-query read-disturb transients,
/// summed over every perturbed query.
pub const XBAR_TRANSIENT_FLIPS: CounterName = CounterName("xbar.transient_flips");

/// One drift epoch advanced by the oracle's drift schedule (the
/// deployment's compiled fault plan re-applied at a later `drift_time`).
pub const ORACLE_DRIFT_ADVANCE: CounterName = CounterName("oracle.drift_advance");

/// One prepared-cache lookup that found the current generation's
/// handle (once per batch chunk an oracle evaluates).
pub const ORACLE_PREPARED_HIT: CounterName = CounterName("oracle.prepared_hit");

/// One prepared handle built for the deployed array: on first use, or
/// by a drift redeployment, which installs the handle with the array.
pub const ORACLE_PREPARED_MISS: CounterName = CounterName("oracle.prepared_miss");

/// Span: one drift redeployment — the compiled fault plan re-applied to
/// the pristine array and the new generation's handle prepared.
pub const SPAN_ORACLE_REDEPLOY: HistogramName = HistogramName::timing("oracle.redeploy");

/// One recalibration of a cached column-norm estimate (a fresh probe
/// issued because a recalibration policy declared the estimate stale).
pub const PROBE_RECALIBRATION: CounterName = CounterName("probe.recalibration");

/// One gradient-sign (FGSM/FGV) batch crafted.
pub const ATTACK_FGSM_BATCH: CounterName = CounterName("attack.fgsm_batch");

/// One PGD step applied to a batch.
pub const ATTACK_PGD_STEP: CounterName = CounterName("attack.pgd_step");

/// One candidate pixel examined by the single-pixel attack search.
pub const ATTACK_PIXEL_STEP: CounterName = CounterName("attack.pixel_step");

/// Span: one campaign trial (`runner.run`).
pub const SPAN_TRIAL: HistogramName = HistogramName::timing("trial");

/// Span: probing the column norms of the victim.
pub const SPAN_PROBE: HistogramName = HistogramName::timing("probe");

/// Span: collecting the surrogate's training queries from the oracle.
pub const SPAN_COLLECT_QUERIES: HistogramName = HistogramName::timing("blackbox.collect_queries");

/// Span: training the surrogate network.
pub const SPAN_TRAIN_SURROGATE: HistogramName = HistogramName::timing("blackbox.train_surrogate");

/// Span: crafting adversarial examples from the surrogate.
pub const SPAN_CRAFT: HistogramName = HistogramName::timing("blackbox.craft");

/// Span: evaluating the oracle on clean and adversarial inputs.
pub const SPAN_EVALUATE: HistogramName = HistogramName::timing("blackbox.evaluate");

/// Span: compiling a fault plan — drawing every per-device decision
/// (`FaultSpec::compile`).
pub const SPAN_FAULT_COMPILE: HistogramName = HistogramName::timing("faults.compile");

/// Span: materialising a faulted copy of a programmed array
/// (`FaultPlan::apply` / `FaultPlan::apply_at` /
/// `FaultPlan::apply_at_threads`).
pub const SPAN_FAULT_APPLY: HistogramName = HistogramName::timing("faults.apply");

/// Span: one fault-robustness sweep trial (deploy faulted oracle, probe,
/// attack, evaluate).
pub const SPAN_FAULT_TRIAL: HistogramName = HistogramName::timing("faults.sweep_trial");

/// Span: one device-lifetime sweep trial (deploy decaying oracle, probe,
/// recalibrate, attack, evaluate).
pub const SPAN_LIFETIME_TRIAL: HistogramName = HistogramName::timing("lifetime.sweep_trial");

/// One power observation collected for posterior inference
/// (`xbar-infer`), through either the budgeted or the keyed oracle
/// entry point.
pub const INFER_OBSERVATION: CounterName = CounterName("infer.observation");

/// One MCMC transition applied (any kernel), summed across chains.
pub const INFER_MCMC_STEP: CounterName = CounterName("infer.mcmc_step");

/// One exact likelihood (or posterior) density evaluation spent by an
/// MCMC chain (its initial state and every evaluated proposal), summed
/// across chains. Proposals an elliptical slice screen rejects are
/// counted by [`INFER_ESS_SCREENED`] instead, so the two sum to the
/// proposal count plus one per chain.
pub const INFER_LIKELIHOOD_EVAL: CounterName = CounterName("infer.likelihood_eval");

/// One elliptical slice proposal rejected by the model's exact-outcome
/// screen without a likelihood evaluation, summed across chains.
pub const INFER_ESS_SCREENED: CounterName = CounterName("infer.ess_screened");

/// One MCMC chain run to completion.
pub const INFER_CHAIN: CounterName = CounterName("infer.chain");

/// Span: a multi-chain posterior sampling run (`run_chains`), covering
/// every chain and the join.
pub const SPAN_INFER_CHAINS: HistogramName = HistogramName::timing("infer.chains");

/// Span: one posterior-inference sweep trial (collect observations,
/// sample chains, summarise, attack, evaluate).
pub const SPAN_INFER_TRIAL: HistogramName = HistogramName::timing("infer.sweep_trial");

// --- Campaign service (`xbar serve`), recorded per victim and
// scraped via the `stats` op ---

/// One fresh attack session admitted by the campaign service.
pub const SERVE_SESSIONS: CounterName = CounterName("serve.sessions");

/// Client requests handled (any op, any outcome). Rejected requests
/// also count under `serve.reject.<code>`, one counter per rejection
/// code (named next to the codes, in `xbar-serve`).
pub const SERVE_REQUESTS: CounterName = CounterName("serve.requests");

/// Oracle queries answered on behalf of a victim.
pub const SERVE_QUERIES: CounterName = CounterName("serve.queries");

/// Timing histogram: end-to-end per-request latency, from line parse
/// to response write.
pub const SERVE_REQUEST_NS: HistogramName = HistogramName::timing("serve.request_ns");

/// Timing histogram: time a connection handler spent evaluating one
/// query request (one keyed batch on the victim oracle).
pub const SERVE_EVAL_NS: HistogramName = HistogramName::timing("serve.eval_ns");

/// Timing histogram: time to decode one request line into a typed
/// request (recorded for every non-blank line that fits the length
/// bound, including lines that fail to decode).
pub const SERVE_DECODE_NS: HistogramName = HistogramName::timing("serve.decode_ns");

/// Timing histogram: time to encode one response line.
pub const SERVE_ENCODE_NS: HistogramName = HistogramName::timing("serve.encode_ns");

/// Timing histogram: latency of each durable session-journal write.
pub const SERVE_JOURNAL_WRITE_NS: HistogramName = HistogramName::timing("serve.journal_write_ns");

/// Gauge: attached sessions in the session table, sampled at
/// scrape time.
pub const SERVE_ATTACHED_SESSIONS: GaugeName = GaugeName("serve.attached_sessions");

/// Gauge: 1 while the server is draining (shutdown requested),
/// else 0.
pub const SERVE_DRAINING: GaugeName = GaugeName("serve.draining");
