//! Well-known event names used by the instrumented crates.
//!
//! Names are dotted `layer.event` strings. Instrumentation sites use
//! these constants rather than string literals so that aggregation code
//! (the campaign executor's per-trial totals, `xbar trace summarize`)
//! and the emitting code cannot drift apart.

/// One oracle query consumed against the attacker's budget
/// (`Oracle::query` / `Oracle::query_batch`).
pub const ORACLE_QUERY: &str = "oracle.query";

/// A calibrated power reading returned to the attacker, recorded as an
/// observation (value series) so traces carry the power totals.
pub const ORACLE_POWER: &str = "oracle.power";

/// One power-probe measurement (basis or random input) issued by the
/// probing routines in `xbar-core`.
pub const PROBE_MEASUREMENT: &str = "probe.measurement";

/// One analog matrix-vector product evaluated on the crossbar.
pub const XBAR_ANALOG_MVM: &str = "xbar.analog_mvm";

/// One total-supply-current / power-model readout of the crossbar.
pub const XBAR_POWER_READ: &str = "xbar.power_read";

/// One iterative IR-drop nodal solve.
pub const XBAR_IR_DROP_SOLVE: &str = "xbar.ir_drop_solve";

/// One batched evaluation call (`EvalBackend::mvm_prepared` and
/// friends), regardless of how many samples the batch carried.
pub const XBAR_MVM_BATCH: &str = "xbar.mvm_batch";

/// Observation (value series): number of samples in each batched
/// evaluation call — the batch occupancy summary.
pub const XBAR_BATCH_OCCUPANCY: &str = "xbar.batch_occupancy";

/// One fault plan compiled from a `FaultSpec` (`FaultSpec::compile`).
/// A deployment compiles its plan once: a drifting oracle re-times the
/// same plan at every drift epoch instead of recompiling it, so this
/// counts once per deployment, not once per epoch.
pub const XBAR_FAULT_PLAN_COMPILE: &str = "xbar.fault_plan_compile";

/// One fault plan applied to a programmed array (one faulted copy
/// materialised).
pub const XBAR_FAULT_APPLY: &str = "xbar.fault_apply";

/// Devices pinned to a rail (stuck-at-on/off) by an applied fault plan,
/// counted once per application.
pub const XBAR_FAULT_STUCK_DEVICES: &str = "xbar.fault_stuck_devices";

/// Observation (value series): fraction of devices a fault plan marks
/// stuck, recorded once per compilation.
pub const XBAR_FAULT_STUCK_FRACTION: &str = "xbar.fault_stuck_fraction";

/// One per-query transient perturbation materialised (a read-disturbed
/// copy of the deployed array for a single query).
pub const XBAR_TRANSIENT_APPLY: &str = "xbar.transient_apply";

/// Devices flipped to a rail by per-query read-disturb transients,
/// summed over every perturbed query.
pub const XBAR_TRANSIENT_FLIPS: &str = "xbar.transient_flips";

/// One drift epoch advanced by the oracle's drift schedule (the
/// deployment's compiled fault plan re-applied at a later `drift_time`).
pub const ORACLE_DRIFT_ADVANCE: &str = "oracle.drift_advance";

/// One recalibration of a cached column-norm estimate (a fresh probe
/// issued because a recalibration policy declared the estimate stale).
pub const PROBE_RECALIBRATION: &str = "probe.recalibration";

/// One gradient-sign (FGSM/FGV) batch crafted.
pub const ATTACK_FGSM_BATCH: &str = "attack.fgsm_batch";

/// One PGD step applied to a batch.
pub const ATTACK_PGD_STEP: &str = "attack.pgd_step";

/// One candidate pixel examined by the single-pixel attack search.
pub const ATTACK_PIXEL_STEP: &str = "attack.pixel_step";

/// Span: a full campaign trial (`runner.run`, final attempt).
pub const SPAN_TRIAL: &str = "trial";

/// Span: probing the column norms of the victim.
pub const SPAN_PROBE: &str = "probe";

/// Span: collecting the surrogate's training queries from the oracle.
pub const SPAN_COLLECT_QUERIES: &str = "blackbox.collect_queries";

/// Span: training the surrogate network.
pub const SPAN_TRAIN_SURROGATE: &str = "blackbox.train_surrogate";

/// Span: crafting adversarial examples from the surrogate.
pub const SPAN_CRAFT: &str = "blackbox.craft";

/// Span: evaluating the oracle on clean and adversarial inputs.
pub const SPAN_EVALUATE: &str = "blackbox.evaluate";

/// Span: compiling a fault plan — drawing every per-device decision
/// (`FaultSpec::compile`).
pub const SPAN_FAULT_COMPILE: &str = "faults.compile";

/// Span: materialising a faulted copy of a programmed array
/// (`FaultPlan::apply` / `FaultPlan::apply_at`).
pub const SPAN_FAULT_APPLY: &str = "faults.apply";

/// Span: one fault-robustness sweep trial (deploy faulted oracle, probe,
/// attack, evaluate).
pub const SPAN_FAULT_TRIAL: &str = "faults.sweep_trial";

/// Span: one device-lifetime sweep trial (deploy decaying oracle, probe,
/// recalibrate, attack, evaluate).
pub const SPAN_LIFETIME_TRIAL: &str = "lifetime.sweep_trial";

/// One power observation collected for posterior inference
/// (`xbar-infer`), through either the budgeted or the keyed oracle
/// entry point.
pub const INFER_OBSERVATION: &str = "infer.observation";

/// One MCMC transition applied (any kernel), summed across chains.
pub const INFER_MCMC_STEP: &str = "infer.mcmc_step";

/// One likelihood (or posterior) density evaluation spent by an MCMC
/// transition, summed across chains.
pub const INFER_LIKELIHOOD_EVAL: &str = "infer.likelihood_eval";

/// One MCMC chain run to completion.
pub const INFER_CHAIN: &str = "infer.chain";

/// Span: a multi-chain posterior sampling run (`run_chains`), covering
/// every chain and the join.
pub const SPAN_INFER_CHAINS: &str = "infer.chains";

/// Span: one posterior-inference sweep trial (collect observations,
/// sample chains, summarise, attack, evaluate).
pub const SPAN_INFER_TRIAL: &str = "infer.sweep_trial";

/// One attack session admitted by the campaign service (`xbar serve`),
/// counting resumes as well as fresh sessions.
pub const SERVE_SESSIONS: &str = "serve.sessions";

/// A session turned away by admission control (session table full).
pub const SERVE_ADMISSION_REJECT: &str = "serve.admission_reject";

/// Observation (value series): evaluation-queue depth sampled each time
/// the campaign service enqueues a job.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

/// Span: one client request handled by the campaign service, from parse
/// to response write.
pub const SPAN_SERVE_REQUEST: &str = "serve.request";

// --- Live metrics plane (crate::metrics, scraped via the `stats` op) ---
//
// These name the campaign service's *live* metrics, keyed by victim in
// a [`crate::MetricsRegistry`] rather than by trial. Counters and
// histogram bucket totals are deterministic for a deterministic
// workload; `*_ns` histograms carry wall-clock timing.

/// Live counter: client requests handled (any op, any outcome).
pub const SERVE_REQUESTS: &str = "serve.requests";

/// Live counter: oracle queries answered on behalf of a victim.
pub const SERVE_QUERIES: &str = "serve.queries";

/// Live counter name prefix: rejected requests, one counter per
/// rejection code (`serve.reject.busy`, `serve.reject.session_table_full`,
/// ...).
pub const SERVE_REJECT_PREFIX: &str = "serve.reject.";

/// Live histogram (ns): end-to-end per-request latency, from line parse
/// to response write.
pub const SERVE_REQUEST_NS: &str = "serve.request_ns";

/// Live histogram (ns): time a query job waited in the evaluation queue
/// before a worker picked it up.
pub const SERVE_QUEUE_WAIT_NS: &str = "serve.queue_wait_ns";

/// Live histogram (ns): time a worker spent evaluating one query job
/// (one keyed batch on the victim oracle).
pub const SERVE_EVAL_NS: &str = "serve.eval_ns";

/// Live histogram (ns): latency of each durable session-journal write.
pub const SERVE_JOURNAL_WRITE_NS: &str = "serve.journal_write_ns";

/// Live gauge: query jobs currently in flight (enqueued, not yet
/// answered), sampled at scrape time.
pub const SERVE_INFLIGHT: &str = "serve.inflight";

/// Live gauge: attached sessions in the session table, sampled at
/// scrape time.
pub const SERVE_ATTACHED_SESSIONS: &str = "serve.attached_sessions";

/// Live gauge: 1 while the server is draining (shutdown requested),
/// else 0.
pub const SERVE_DRAINING: &str = "serve.draining";
