//! The oracle: the victim network deployed on a crossbar, wrapped in a
//! query-counted interface exposing exactly what the threat model allows.

use crate::{AttackError, Result};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use xbar_crossbar::array::CrossbarArray;
use xbar_crossbar::backend::{BackendKind, BackendSpec, EvalBackend, PreparedEval, RngStreams};
use xbar_crossbar::device::DeviceModel;
use xbar_crossbar::power::PowerModel;
use xbar_faults::{FaultInjection, FaultPlan, TransientInjection};
use xbar_linalg::{vec_ops, Matrix};
use xbar_nn::network::SingleLayerNet;

/// A schedule on which the oracle's hardware decays: every
/// `interval_queries` queries the fault plan's `drift_time` advances by
/// `time_step` and the array is redeployed from the pristine
/// programming by re-timing the deployment's compiled fault plan
/// (stuck-at and variation decisions stay fixed, so only the drift
/// factors move — monotonically toward `g_min`).
///
/// Epochs are a pure function of a query's *global index*
/// (`epoch = index / interval_queries`), never of batch boundaries or
/// issue order within a batch, so drifting campaigns keep the oracle's
/// bit-identity across backends, threads, and batch splits.
///
/// The schedule is inert when `interval_queries` is zero
/// ([`DriftSchedule::never`], the default) or when the oracle carries
/// no [`FaultInjection`] with a non-zero `drift_nu` — the drift model's
/// parameters live in the fault spec; the schedule only advances its
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftSchedule {
    /// Queries per drift epoch; zero disables the schedule.
    pub interval_queries: u64,
    /// How far `drift_time` advances per epoch.
    pub time_step: f64,
}

impl Default for DriftSchedule {
    fn default() -> Self {
        DriftSchedule::never()
    }
}

impl DriftSchedule {
    /// The inert schedule: the hardware never ages.
    pub const fn never() -> Self {
        DriftSchedule {
            interval_queries: 0,
            time_step: 0.0,
        }
    }

    /// Advance `drift_time` by `time_step` every `interval_queries`
    /// queries.
    pub const fn every(interval_queries: u64, time_step: f64) -> Self {
        DriftSchedule {
            interval_queries,
            time_step,
        }
    }

    /// Whether the schedule ever advances the clock.
    pub fn is_active(&self) -> bool {
        self.interval_queries > 0 && self.time_step > 0.0
    }

    /// The drift epoch global query `index` falls in.
    pub fn epoch(&self, index: u64) -> u64 {
        if self.is_active() {
            index / self.interval_queries
        } else {
            0
        }
    }
}

/// The noise key of one evaluated query: which per-entity noise stream
/// the draws come from (`seed`) and the query's position in that stream
/// (`index`).
///
/// This is exactly the `(oracle seed, global query index)` pair the
/// oracle keys its own queries by — lifted into a value so a
/// multi-tenant service can evaluate queries belonging to *different*
/// sessions in one batch: sample `i` of the batch draws from
/// `keys[i]`'s stream and from nothing else, so a query's result is a
/// pure function of its key and the deployed hardware, never of its
/// batch-mates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryKey {
    /// The noise-stream seed (a session's seed, or the oracle's own).
    pub seed: u64,
    /// The global query index within that seed's stream.
    pub index: u64,
}

impl QueryKey {
    /// Pairs a stream seed with a global query index.
    pub const fn new(seed: u64, index: u64) -> Self {
        QueryKey { seed, index }
    }
}

/// What the attacker can see of the network's output per query.
///
/// Power is always observable (that is the premise of the paper); this
/// enum controls the *digital* output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutputAccess {
    /// Case 1 of the paper: no output access at all.
    None,
    /// Case 2, label-only rows of Fig. 5: only the argmax label.
    LabelOnly,
    /// Case 2, raw-output rows of Fig. 5: the full output vector.
    Raw,
}

/// Configuration of the deployed oracle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Device model used when programming the crossbar.
    pub device: DeviceModel,
    /// Power measurement channel.
    pub power: PowerModel,
    /// Output access granted to the attacker.
    pub access: OutputAccess,
    /// Optional hard cap on the number of queries.
    pub query_budget: Option<usize>,
    /// Evaluation backend used for batched queries and evaluation.
    /// Backends are bit-identical by contract, so this is a pure
    /// performance knob (kind, tile sizes, and — for the parallel
    /// kernel — thread count).
    pub backend: BackendSpec,
    /// Optional device faults injected at deployment: the spec is
    /// compiled under its key and applied to the freshly programmed
    /// array, so queries, evaluation, and
    /// [`Oracle::true_column_norms`] all see the faulted hardware.
    pub faults: Option<FaultInjection>,
    /// Optional per-query transient faults (read-disturb flips and
    /// conductance jitter): every attacker query reads a transiently
    /// perturbed copy of the deployed array, keyed by the query's
    /// global index. Evaluation-side methods are unaffected.
    pub transients: Option<TransientInjection>,
    /// Schedule on which the deployed hardware's conductance drift
    /// advances. Requires `faults` with a non-zero `drift_nu` to have
    /// any effect.
    pub drift: DriftSchedule,
}

impl OracleConfig {
    /// The paper's idealised setting: ideal devices, noiseless power,
    /// raw-output access, unlimited queries.
    pub fn ideal() -> Self {
        OracleConfig {
            device: DeviceModel::ideal(),
            power: PowerModel::default(),
            access: OutputAccess::Raw,
            query_budget: None,
            backend: BackendSpec::new(BackendKind::Naive),
            faults: None,
            transients: None,
            drift: DriftSchedule::never(),
        }
    }

    /// Builder-style setter for the output access level.
    #[must_use]
    pub fn with_access(mut self, access: OutputAccess) -> Self {
        self.access = access;
        self
    }

    /// Builder-style setter for the device model.
    #[must_use]
    pub fn with_device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Builder-style setter for the power model.
    #[must_use]
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Builder-style setter for the query budget.
    #[must_use]
    pub fn with_query_budget(mut self, budget: usize) -> Self {
        self.query_budget = Some(budget);
        self
    }

    /// Builder-style setter for the evaluation backend. Accepts either
    /// a bare [`BackendKind`] (default tile sizes, auto threads) or a
    /// full [`BackendSpec`].
    #[must_use]
    pub fn with_backend(mut self, backend: impl Into<BackendSpec>) -> Self {
        self.backend = backend.into();
        self
    }

    /// Builder-style setter for deployment-time fault injection.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder-style setter for per-query transient faults.
    #[must_use]
    pub fn with_transients(mut self, transients: TransientInjection) -> Self {
        self.transients = Some(transients);
        self
    }

    /// Builder-style setter for the drift schedule.
    #[must_use]
    pub fn with_drift_schedule(mut self, drift: DriftSchedule) -> Self {
        self.drift = drift;
        self
    }

    /// The transient injection, if one is configured and non-empty.
    fn active_transients(&self) -> Option<TransientInjection> {
        self.transients.filter(|t| !t.spec.is_empty())
    }
}

/// Everything one query revealed, across both channels (the digital
/// output — gated by [`OutputAccess`] — and the always-on power side
/// channel). This is the typed response shape shared by every query
/// entry point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Raw output vector, if [`OutputAccess::Raw`].
    pub output: Option<Vec<f64>>,
    /// Predicted label, if [`OutputAccess::LabelOnly`] or raw.
    pub label: Option<usize>,
    /// Calibrated power observation in weight units (see
    /// [`Oracle::query`] for the calibration).
    pub power: f64,
}

/// One query's worth of observations, plus its bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// Global index of this query (0-based, monotone across the
    /// oracle's lifetime; not reset by
    /// [`Oracle::reset_query_count`]).
    pub index: u64,
    /// What the query revealed.
    pub observation: Observation,
}

/// One prepared evaluation session: the built backend plus the
/// [`PreparedEval`] handle it materialised for one conductance
/// generation of the deployed array.
struct PreparedSession {
    backend: Box<dyn EvalBackend>,
    prepared: PreparedEval,
}

/// Lazily built, generation-checked cache of the oracle's
/// [`PreparedSession`] — the piece that lets `query_batch`,
/// `observe_batch_keyed`, and `eval_predict_batch` amortise the
/// `O(M·N)` weight materialisation across batches. A drift
/// redeployment re-seeds it with the new generation's session. Shared via `Arc` so
/// concurrent keyed observers on an `Arc<Oracle>` (the serve
/// connection handlers) reuse one handle without holding the lock across evaluation.
///
/// Clones start empty: a cloned oracle re-prepares on first use, which
/// costs one materialisation and can never alias another oracle's
/// state.
struct PreparedCache {
    slot: Mutex<Option<Arc<PreparedSession>>>,
}

impl Default for PreparedCache {
    fn default() -> Self {
        PreparedCache {
            slot: Mutex::new(None),
        }
    }
}

impl Clone for PreparedCache {
    fn clone(&self) -> Self {
        PreparedCache::default()
    }
}

impl std::fmt::Debug for PreparedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let generation = self
            .slot
            .lock()
            .ok()
            .and_then(|slot| slot.as_ref().map(|s| s.prepared.generation()));
        f.debug_struct("PreparedCache")
            .field("generation", &generation)
            .finish()
    }
}

/// The victim: a trained [`SingleLayerNet`] programmed onto a
/// [`CrossbarArray`], exposing queries according to an [`OracleConfig`].
///
/// Inference runs on the *crossbar* (i.e. on the as-programmed, possibly
/// non-ideal weights), not on the floating-point network — the network is
/// kept only for white-box baselines and evaluation.
#[derive(Debug, Clone)]
pub struct Oracle {
    net: SingleLayerNet,
    xbar: CrossbarArray,
    /// The as-programmed array before any fault plan — kept so an
    /// active [`DriftSchedule`] can re-apply the plan at a later
    /// `drift_time`.
    pristine: CrossbarArray,
    /// The deployment's compiled fault plan, held only with an active
    /// [`DriftSchedule`]: each drift epoch re-times it against
    /// `pristine` (stuck-at and variation decisions stay fixed; only the
    /// drift factors advance). Clones and session views share it.
    plan: Option<Arc<FaultPlan>>,
    config: OracleConfig,
    query_count: usize,
    queries_issued: u64,
    drift_epoch: u64,
    seed: u64,
    /// Cached prepared-evaluation session for the deployed array's
    /// current conductance generation (see [`PreparedCache`]).
    prepared: PreparedCache,
}

impl Oracle {
    /// Deploys a trained network onto a crossbar.
    ///
    /// `seed` drives the oracle's internal noise streams (programming
    /// variation, read noise, measurement noise); the attacker has no
    /// influence over or knowledge of it. Programming draws from the
    /// seed's stream 0; query `q` draws from stream `q + 1`, so a
    /// query's noise depends only on the seed and the query's global
    /// index — never on batch boundaries or thread scheduling.
    ///
    /// If the config carries a [`FaultInjection`], the compiled fault
    /// plan is applied to the freshly programmed array here, once — the
    /// oracle *is* the faulted hardware from then on. This is the
    /// deployment's only compilation: with an active [`DriftSchedule`]
    /// the plan is kept and re-timed at each epoch. Fault draws are
    /// keyed by the injection's own `(campaign_seed, trial_index)` key,
    /// not by `seed`, so they are independent of the oracle's noise
    /// streams.
    ///
    /// # Errors
    ///
    /// Propagates crossbar programming, fault-spec, and configuration
    /// errors.
    pub fn new(net: SingleLayerNet, config: &OracleConfig, seed: u64) -> Result<Self> {
        config.power.validate()?;
        if let Some(transients) = &config.transients {
            transients.spec.validate()?;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pristine = CrossbarArray::program(net.weights(), &config.device, &mut rng)?;
        let mut xbar = pristine.clone();
        let mut plan = None;
        if let Some(injection) = &config.faults {
            let compiled = injection.compile(xbar.num_outputs(), xbar.num_inputs())?;
            // The same apply a drift epoch runs, on the backend's threads.
            xbar = compiled.apply_at_threads(
                &xbar,
                injection.spec.drift_time,
                config.backend.worker_threads(),
            )?;
            if config.drift.is_active() {
                plan = Some(Arc::new(compiled));
            }
        }
        config.backend.validate()?;
        Ok(Oracle {
            net,
            xbar,
            pristine,
            plan,
            config: *config,
            query_count: 0,
            queries_issued: 0,
            drift_epoch: 0,
            seed,
            prepared: PreparedCache::default(),
        })
    }

    /// The oracle's configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Input dimension `N`.
    pub fn num_inputs(&self) -> usize {
        self.net.num_inputs()
    }

    /// Output dimension `M`.
    pub fn num_outputs(&self) -> usize {
        self.net.num_outputs()
    }

    /// Queries consumed so far.
    pub fn query_count(&self) -> usize {
        self.query_count
    }

    /// Global queries issued over the oracle's lifetime. Unlike
    /// [`Oracle::query_count`], this is never reset — it is the clock
    /// the drift schedule and staleness-based recalibration policies
    /// read.
    pub fn queries_issued(&self) -> u64 {
        self.queries_issued
    }

    /// The effective `drift_time` of the currently deployed array: the
    /// fault spec's base time plus the elapsed schedule epochs. Zero
    /// when no fault injection is configured.
    pub fn drift_time(&self) -> f64 {
        match &self.config.faults {
            Some(injection) => {
                injection.spec.drift_time + self.drift_epoch as f64 * self.config.drift.time_step
            }
            None => 0.0,
        }
    }

    /// Resets the query counter (e.g. between experiment repetitions).
    pub fn reset_query_count(&mut self) {
        self.query_count = 0;
    }

    /// The true column 1-norms of the *deployed* (as-programmed) weights —
    /// ground truth for probe-fidelity experiments.
    pub fn true_column_norms(&self) -> Vec<f64> {
        self.xbar.effective_weights().col_l1_norms()
    }

    /// Consumes `count` queries against the budget, all-or-nothing, and
    /// returns the global index of the first one.
    fn consume_queries(&mut self, count: usize) -> Result<u64> {
        if let Some(budget) = self.config.query_budget {
            if self.query_count + count > budget {
                return Err(AttackError::QueryBudgetExhausted { budget });
            }
        }
        let base = self.queries_issued;
        self.query_count += count;
        self.queries_issued += count as u64;
        xbar_obs::count(xbar_obs::names::ORACLE_QUERY, count as u64);
        Ok(base)
    }

    /// The noise RNG for global query `index`: stream `index + 1` of the
    /// oracle seed (stream 0 programmed the crossbar). Within one
    /// query's stream, power-measurement noise draws come first, then
    /// forward read noise — matching [`Oracle::query`]'s order.
    fn stream_rng(seed: u64, index: u64) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(index + 1);
        rng
    }

    /// Whether queries can change the deployed array (active schedule
    /// with a fault injection to re-apply) — exactly when the oracle
    /// holds its compiled plan.
    fn drifting(&self) -> bool {
        self.plan.is_some()
    }

    /// Redeploys the array if global query `index` falls in a later
    /// drift epoch than the currently deployed one. The deployment's
    /// compiled plan is re-applied to the pristine programming at the
    /// advanced `drift_time`: its stuck-at and variation decisions stay
    /// fixed while the drift factors decay — bit-identical to
    /// recompiling the spec at that time under the same key.
    ///
    /// The apply and the new generation's prepared handle both run on
    /// the backend's worker threads ([`BackendSpec::worker_threads`]),
    /// and the handle is installed with the array, so the epoch's first
    /// query hits the cache.
    fn advance_drift_to(&mut self, index: u64) -> Result<()> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        let epoch = self.config.drift.epoch(index);
        if epoch <= self.drift_epoch {
            return Ok(());
        }
        let _span = xbar_obs::span(xbar_obs::names::SPAN_ORACLE_REDEPLOY);
        let advanced = epoch - self.drift_epoch;
        self.drift_epoch = epoch;
        let threads = self.config.backend.worker_threads();
        // Drop the old generation's handle before building the new one.
        self.prepared = PreparedCache::default();
        self.xbar = plan.apply_at_threads(&self.pristine, self.drift_time(), threads)?;
        self.prepared_session()?;
        xbar_obs::count(xbar_obs::names::ORACLE_DRIFT_ADVANCE, advanced);
        Ok(())
    }

    /// Calibrates one raw power measurement to weight units, given the
    /// sum of the query's input elements.
    fn calibrate(&self, raw: f64, input_sum: f64) -> f64 {
        let mapping = self.xbar.mapping();
        let m = self.xbar.num_outputs() as f64;
        let baseline = 2.0 * m * mapping.g_min * input_sum;
        (raw / self.config.power.v_dd - baseline) / mapping.scale
    }

    /// One attacker query: runs the input on the crossbar and returns what
    /// the access level allows, plus the power observation. Equivalent to
    /// `query_batch(&[u])` — batch boundaries never change results.
    ///
    /// The power observation is *calibrated to weight units*: the raw
    /// measured power `P = V_dd · i_total` is mapped through the known
    /// hardware constants (`V_dd`, the mapping scale `k`, `g_min`, `M`) to
    /// `(P/V_dd − 2 M g_min Σ_j u_j)/k = Σ_j u_j ‖W[:,j]‖₁` (exactly, for
    /// ideal devices; plus scaled measurement noise otherwise). This is
    /// the standard Kerckhoffs assumption that the accelerator design —
    /// but not its weights — is public.
    ///
    /// # Errors
    ///
    /// * [`AttackError::QueryBudgetExhausted`] once the budget is spent.
    /// * [`Oracle::check_inputs`]'s errors on a malformed input.
    pub fn query(&mut self, u: &[f64]) -> Result<QueryRecord> {
        let mut records = self.query_batch(&[u])?;
        Ok(records.pop().expect("batch of one yields one record"))
    }

    /// Checks a batch of query inputs before anything is consumed: each
    /// sample must have [`Oracle::num_inputs`] elements, all finite.
    ///
    /// # Errors
    ///
    /// * [`AttackError::InputLength`] for the first sample of the wrong
    ///   length.
    /// * [`AttackError::NonFiniteInput`] for the first NaN or infinite
    ///   element, naming its sample and position.
    pub fn check_inputs<U: AsRef<[f64]>>(&self, inputs: &[U]) -> Result<()> {
        let expected = self.num_inputs();
        for (sample, u) in inputs.iter().enumerate() {
            let u = u.as_ref();
            if u.len() != expected {
                return Err(AttackError::InputLength {
                    sample,
                    expected,
                    got: u.len(),
                });
            }
            if let Some(element) = u.iter().position(|x| !x.is_finite()) {
                return Err(AttackError::NonFiniteInput { sample, element });
            }
        }
        Ok(())
    }

    /// A batch of attacker queries, evaluated by the configured
    /// [`BackendKind`].
    ///
    /// Bit-identical to issuing the same inputs through [`Oracle::query`]
    /// one at a time, in order, for every backend and at any batch
    /// partitioning: query `q`'s noise comes from the seed's stream
    /// `q + 1` alone, and the blocked backend's kernels reduce in the
    /// same floating-point order as the per-vector path.
    ///
    /// Budget accounting is all-or-nothing: if fewer than `inputs.len()`
    /// queries remain, no query is consumed.
    ///
    /// # Errors
    ///
    /// * [`AttackError::QueryBudgetExhausted`] if the batch does not fit
    ///   in the remaining budget.
    /// * [`Oracle::check_inputs`]'s errors on malformed inputs (checked
    ///   up front; no queries are consumed).
    pub fn query_batch(&mut self, inputs: &[&[f64]]) -> Result<Vec<QueryRecord>> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        self.check_inputs(inputs)?;
        let base = self.consume_queries(inputs.len())?;
        self.split_at_epochs(inputs.len(), base, |oracle, range, q| {
            oracle.query_chunk(&inputs[range], q)
        })
    }

    /// Runs `run(oracle, range, first_index)` over the `count` consumed
    /// queries whose first has global index `base`, and concatenates the
    /// results. The deployed array is a pure function of each query's
    /// global index, so a drifting oracle splits the queries at
    /// drift-epoch boundaries and redeploys before each run: a batch
    /// spanning an epoch stays bit-identical to the same queries issued
    /// one at a time.
    fn split_at_epochs<T>(
        &mut self,
        count: usize,
        base: u64,
        mut run: impl FnMut(&Self, Range<usize>, u64) -> Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        if !self.drifting() {
            return run(self, 0..count, base);
        }
        let mut out = Vec::with_capacity(count);
        let mut start = 0usize;
        while start < count {
            let q = base + start as u64;
            self.advance_drift_to(q)?;
            let boundary = (self.config.drift.epoch(q) + 1) * self.config.drift.interval_queries;
            let end = count.min((boundary - base) as usize);
            out.extend(run(self, start..end, q)?);
            start = end;
        }
        Ok(out)
    }

    /// Evaluates one epoch-homogeneous chunk of queries whose first
    /// sample has global index `base`.
    fn query_chunk(&self, inputs: &[&[f64]], base: u64) -> Result<Vec<QueryRecord>> {
        let keys: Vec<QueryKey> = (0..inputs.len())
            .map(|i| QueryKey::new(self.seed, base + i as u64))
            .collect();
        let observations = self.observe_keyed_unchecked(inputs, &keys)?;
        Ok(observations
            .into_iter()
            .enumerate()
            .map(|(i, observation)| QueryRecord {
                index: base + i as u64,
                observation,
            })
            .collect())
    }

    /// The calibrated power of each one-hot query `beta · e_j`, one per
    /// entry of `columns`, in order: the Case-1 probe reading, without
    /// materialising the rows or running the forward pass.
    ///
    /// Each value is bit-identical to the power [`Oracle::query_batch`]
    /// returns for the materialised row, at any [`OutputAccess`], and
    /// the accounting is the same: the queries are consumed
    /// all-or-nothing, take consecutive global indices, count as
    /// `oracle.query`, and a drifting oracle splits them at the same
    /// epoch boundaries. Without transients, the exact reading of
    /// `beta · e_j` is the one nonzero term of the handle's line
    /// conductance dot (see `one_hot_dot`), the calibration sum of the
    /// row is `beta`, and the measurement noise comes first in the
    /// query's stream (`Oracle::stream_rng`), so skipping the forward
    /// pass and its read draws moves no power bit. Such queries count
    /// as `oracle.power_only`. With transients active each query reads
    /// its own perturbed array, so it is evaluated as a batch of one
    /// over one reused row; so is every query of a zero `beta`, whose
    /// row sums to a zero of either sign.
    ///
    /// # Errors
    ///
    /// Nothing is consumed on error.
    ///
    /// * [`AttackError::InvalidParameter`] (`columns`) for a column
    ///   outside `0..num_inputs()`.
    /// * [`AttackError::NonFiniteInput`] for a NaN or infinite `beta`,
    ///   as [`Oracle::check_inputs`] reports the first row.
    /// * [`AttackError::QueryBudgetExhausted`] if the queries do not fit
    ///   in the remaining budget.
    pub fn one_hot_powers(&mut self, columns: &[usize], beta: f64) -> Result<Vec<f64>> {
        let Some(&first) = columns.first() else {
            return Ok(Vec::new());
        };
        let n = self.num_inputs();
        if columns.iter().any(|&j| j >= n) {
            return Err(AttackError::InvalidParameter { name: "columns" });
        }
        if !beta.is_finite() {
            return Err(AttackError::NonFiniteInput {
                sample: 0,
                element: first,
            });
        }
        let base = self.consume_queries(columns.len())?;
        let mut row = vec![0.0; n];
        self.split_at_epochs(columns.len(), base, |oracle, range, q| {
            oracle.one_hot_chunk(&columns[range], beta, q, &mut row)
        })
    }

    /// [`Oracle::one_hot_powers`] for one epoch-homogeneous chunk whose
    /// first query has global index `base`; `row` is all zeros on entry
    /// and on return.
    fn one_hot_chunk(
        &self,
        columns: &[usize],
        beta: f64,
        base: u64,
        row: &mut [f64],
    ) -> Result<Vec<f64>> {
        let indices = (base..).zip(columns);
        if self.config.active_transients().is_some() || beta == 0.0 {
            return indices
                .map(|(q, &j)| {
                    row[j] = beta;
                    let record = self.query_chunk(&[&*row], q);
                    row[j] = 0.0;
                    Ok(record?[0].observation.power)
                })
                .collect();
        }
        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, columns.len() as u64);
        xbar_obs::count(xbar_obs::names::ORACLE_POWER_ONLY, columns.len() as u64);
        let session = self.prepared_session()?;
        let conductances = session.prepared.line_conductances();
        let power = &self.config.power;
        Ok(indices
            .map(|(q, &j)| {
                let exact = one_hot_dot(conductances, j, beta, row);
                let measured = power.v_dd * exact;
                let raw = if power.noise_sigma > 0.0 {
                    power.corrupt(measured, &mut Self::stream_rng(self.seed, q))
                } else {
                    measured
                };
                // A one-hot row with a nonzero `beta` sums to `beta`.
                self.calibrate(raw, beta)
            })
            .collect())
    }

    /// A session's private view of this deployed oracle: the **same
    /// hardware** (network, programmed and faulted arrays,
    /// configuration), but noise drawn from `seed`'s streams instead of
    /// the deployment seed's, fresh query counters, and its own
    /// `budget`.
    ///
    /// This is the multi-tenant primitive behind `xbar serve`: one
    /// victim crossbar is deployed once, and every attack session forks
    /// a view whose query stream is keyed by
    /// `(session seed, session query index)` — so a session's
    /// [`QueryRecord`]s are a pure function of its own seed and indices,
    /// bit-identical no matter what other sessions do to the shared
    /// hardware.
    ///
    /// The view restarts the drift clock at the deployment's current
    /// epoch's base spec; session views are intended for non-drifting
    /// deployments (a served, aging victim would couple sessions through
    /// the shared clock — see [`Oracle::observe_batch_keyed`]).
    pub fn session_view(&self, seed: u64, budget: Option<usize>) -> Oracle {
        let mut config = self.config;
        config.query_budget = budget;
        Oracle {
            net: self.net.clone(),
            xbar: self.xbar.clone(),
            pristine: self.pristine.clone(),
            plan: self.plan.clone(),
            config,
            query_count: 0,
            queries_issued: 0,
            drift_epoch: 0,
            seed,
            prepared: PreparedCache::default(),
        }
    }

    /// Evaluates a batch of queries whose noise keys are supplied by the
    /// caller instead of this oracle's own counter — the cross-session
    /// serving entry point.
    ///
    /// Sample `i` draws its noise from `keys[i]`'s stream exactly as a
    /// [`Oracle::query_batch`] call would for its own
    /// `(seed, global index)` pair, so filling one batch with unrelated
    /// sessions' pending queries returns, for each session, bit-identical
    /// observations to that session issuing the same queries alone
    /// through its [`Oracle::session_view`]. Budget accounting, query
    /// counting, and [`QueryRecord`] indexing are the caller's job (the
    /// session manager's, in `xbar serve`); each answered sample still
    /// counts one [`xbar_obs::names::ORACLE_QUERY`] in the ambient
    /// recording scope.
    ///
    /// Takes `&self`: keyed observation never mutates the deployed
    /// hardware.
    ///
    /// # Errors
    ///
    /// * [`AttackError::InvalidParameter`] if `keys.len() !=
    ///   inputs.len()`, or if the oracle has an active
    ///   [`DriftSchedule`] — a drifting deployment's hardware is a
    ///   function of *its own* query clock, which cross-session keying
    ///   cannot reproduce.
    /// * [`Oracle::check_inputs`]'s errors on malformed inputs.
    pub fn observe_batch_keyed(
        &self,
        inputs: &[&[f64]],
        keys: &[QueryKey],
    ) -> Result<Vec<Observation>> {
        if keys.len() != inputs.len() {
            return Err(AttackError::InvalidParameter { name: "keys" });
        }
        if self.drifting() {
            return Err(AttackError::InvalidParameter {
                name: "drift (keyed observation requires a non-drifting oracle)",
            });
        }
        self.check_inputs(inputs)?;
        xbar_obs::count(xbar_obs::names::ORACLE_QUERY, inputs.len() as u64);
        self.observe_keyed_unchecked(inputs, keys)
    }

    /// The prepared-evaluation session for the deployed array's current
    /// conductance generation, building (and caching) it on first use.
    ///
    /// The cache key is [`CrossbarArray::generation`]: re-programming,
    /// fault application, and drift-time advance all replace `self.xbar`
    /// with a fresh generation — so a stale session can never be
    /// returned, only rebuilt. Each lookup counts one
    /// `oracle.prepared_hit` or `oracle.prepared_miss`. Works under
    /// `&self` so concurrent keyed observers on an `Arc<Oracle>` (the
    /// serve connection handlers) share one handle.
    fn prepared_session(&self) -> Result<Arc<PreparedSession>> {
        let mut slot = self
            .prepared
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(session) = slot.as_ref() {
            if session.prepared.generation() == self.xbar.generation() {
                xbar_obs::count(xbar_obs::names::ORACLE_PREPARED_HIT, 1);
                return Ok(Arc::clone(session));
            }
        }
        xbar_obs::count(xbar_obs::names::ORACLE_PREPARED_MISS, 1);
        let backend = self.config.backend.build()?;
        let prepared = backend.prepare(&self.xbar)?;
        let session = Arc::new(PreparedSession { backend, prepared });
        *slot = Some(Arc::clone(&session));
        Ok(session)
    }

    /// The shared evaluation core: sample `i`'s noise (and transient
    /// perturbation) is keyed by `keys[i]`. Inputs are assumed validated
    /// and the deployed array assumed current for every key.
    fn observe_keyed_unchecked(
        &self,
        inputs: &[&[f64]],
        keys: &[QueryKey],
    ) -> Result<Vec<Observation>> {
        let transients = self.config.active_transients();
        let session = self.prepared_session()?;
        let noisy_power = self.config.power.noise_sigma > 0.0;
        let needs_forward = self.config.access != OutputAccess::None;
        let noisy_read = needs_forward && self.xbar.device().read_sigma > 0.0;

        let (powers, raw_outputs) = if noisy_power && noisy_read {
            // Both noise sources share each query's stream (power draws
            // first, then read draws), so the stages cannot be split
            // into separate batch calls — run per sample. Without
            // transients the exact reading comes from the cached
            // handle's line conductances (the sum `total_current`
            // forms); a transient sample is its own fresh generation and
            // measures its perturbed array directly.
            let power = &self.config.power;
            let mut powers = Vec::with_capacity(inputs.len());
            let mut outs = Vec::with_capacity(inputs.len());
            for (i, u) in inputs.iter().enumerate() {
                let mut rng = Self::stream_rng(keys[i].seed, keys[i].index);
                let (raw, out) = match transients {
                    Some(injection) => {
                        let perturbed = injection.perturbed(&self.xbar, keys[i].index);
                        let raw = power.measure(&perturbed, u, &mut rng)?;
                        (raw, perturbed.noisy_mvm(u, &mut rng)?)
                    }
                    None => {
                        xbar_obs::count(xbar_obs::names::XBAR_POWER_READ, 1);
                        let exact = vec_ops::dot(session.prepared.line_conductances(), u);
                        let raw = power.corrupt(power.v_dd * exact, &mut rng);
                        (raw, self.xbar.noisy_mvm(u, &mut rng)?)
                    }
                };
                powers.push(self.calibrate(raw, u.iter().sum()));
                outs.push(out);
            }
            (powers, Some(outs))
        } else {
            let power = &self.config.power;
            let raws = if noisy_power {
                self.keyed_eval(&session, transients, inputs, keys, |b, p, a, x, s| {
                    b.noisy_power_prepared(power, p, a, x, s)
                })?
            } else {
                self.keyed_eval(&session, transients, inputs, keys, |b, p, a, x, _| {
                    b.power_prepared(power, p, a, x)
                })?
            };
            let powers = raws
                .iter()
                .zip(inputs)
                .map(|(&raw, u)| self.calibrate(raw, u.iter().sum()))
                .collect();
            let outs = if !needs_forward {
                None
            } else if noisy_read {
                Some(
                    self.keyed_eval(&session, transients, inputs, keys, |b, p, a, x, s| {
                        b.noisy_mvm_prepared(p, a, x, s)
                    })?,
                )
            } else {
                Some(
                    self.keyed_eval(&session, transients, inputs, keys, |b, p, a, x, _| {
                        b.mvm_prepared(p, a, x)
                    })?,
                )
            };
            (powers, outs)
        };

        let mut out_iter = raw_outputs.map(|mut rows| {
            for row in &mut rows {
                self.net.activation().apply_row(row);
            }
            rows.into_iter()
        });
        let mut observations = Vec::with_capacity(inputs.len());
        for power in powers {
            let mut next_output = || {
                out_iter
                    .as_mut()
                    .expect("forward ran")
                    .next()
                    .expect("one output row per query")
            };
            let (output, label) = match self.config.access {
                OutputAccess::None => (None, None),
                OutputAccess::LabelOnly => {
                    let y = next_output();
                    (None, Some(vec_ops::argmax(&y)))
                }
                OutputAccess::Raw => {
                    let y = next_output();
                    let label = vec_ops::argmax(&y);
                    (Some(y), Some(label))
                }
            };
            observations.push(Observation {
                output,
                label,
                power,
            });
        }
        Ok(observations)
    }

    /// One keyed batch call, `call(backend, handle, array, inputs,
    /// streams)`, with sample `i`'s noise stream keyed by `keys[i]`.
    ///
    /// Without transients the whole batch goes to the cached session in
    /// one call. With transients each sample reads its own perturbed
    /// array — a fresh conductance generation that can never hit the
    /// cached handle — so every sample is prepared and evaluated as a
    /// batch of one under its key's index, which holds for the
    /// arbitrary per-sample keys of a mixed-session batch. Backends are
    /// bit-identical per sample by contract, so both shapes yield the
    /// same floats.
    fn keyed_eval<T>(
        &self,
        session: &PreparedSession,
        transients: Option<TransientInjection>,
        inputs: &[&[f64]],
        keys: &[QueryKey],
        call: impl Fn(
            &dyn EvalBackend,
            &PreparedEval,
            &CrossbarArray,
            &[&[f64]],
            RngStreams<'_>,
        ) -> xbar_crossbar::Result<Vec<T>>,
    ) -> Result<Vec<T>> {
        let backend = session.backend.as_ref();
        let Some(injection) = transients else {
            let mut streams = |i: usize| Self::stream_rng(keys[i].seed, keys[i].index);
            return Ok(call(
                backend,
                &session.prepared,
                &self.xbar,
                inputs,
                &mut streams,
            )?);
        };
        let mut out = Vec::with_capacity(inputs.len());
        for (input, key) in inputs.iter().zip(keys) {
            let perturbed = injection.perturbed(&self.xbar, key.index);
            let prepared = backend.prepare(&perturbed)?;
            let mut stream = |_: usize| Self::stream_rng(key.seed, key.index);
            out.extend(call(backend, &prepared, &perturbed, &[input], &mut stream)?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Evaluation-side methods (free for the experimenter, not the
    // attacker: they do not consume queries).
    // ------------------------------------------------------------------

    /// Deployed-model predictions for a batch (noiseless crossbar read).
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn eval_predict_batch(&self, inputs: &Matrix) -> Result<Vec<usize>> {
        if inputs.rows() == 0 {
            return Ok(Vec::new());
        }
        let session = self.prepared_session()?;
        let rows: Vec<&[f64]> = (0..inputs.rows()).map(|i| inputs.row(i)).collect();
        let mut outs = session
            .backend
            .mvm_prepared(&session.prepared, &self.xbar, &rows)?;
        Ok(outs
            .iter_mut()
            .map(|y| {
                self.net.activation().apply_row(y);
                vec_ops::argmax(y)
            })
            .collect())
    }

    /// Deployed-model accuracy on a labelled set.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors.
    pub fn eval_accuracy(&self, inputs: &Matrix, labels: &[usize]) -> Result<f64> {
        let preds = self.eval_predict_batch(inputs)?;
        Ok(xbar_nn::metrics::accuracy(&preds, labels))
    }
}

/// `dot(conductances, beta · e_j)`, bit for bit, with `row` as scratch
/// (all zeros on entry and on return).
///
/// In the `-0.0`-seeded ascending sum every term but the `j`th is a
/// product with `+0.0`, a signed zero that leaves a nonzero finite
/// partial sum unchanged, so a nonzero product `conductances[j] * beta`
/// is the sum. A zero product's sign depends on its neighbours, so that
/// case runs the dot itself.
fn one_hot_dot(conductances: &[f64], j: usize, beta: f64, row: &mut [f64]) -> f64 {
    let product = conductances[j] * beta;
    if product != 0.0 {
        return product;
    }
    row[j] = beta;
    let exact = vec_ops::dot(conductances, row);
    row[j] = 0.0;
    exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_nn::activation::Activation;

    fn toy_oracle(access: OutputAccess) -> Oracle {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.0], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        Oracle::new(net, &OracleConfig::ideal().with_access(access), 3).unwrap()
    }

    fn power(o: &mut Oracle, u: &[f64]) -> f64 {
        o.query(u).unwrap().observation.power
    }

    #[test]
    fn prepared_session_is_cached_and_invalidated_by_redeployment() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};

        // Stable hardware: consecutive batches share one session (same
        // Arc, no re-materialisation).
        let oracle = toy_oracle(OutputAccess::Raw);
        let s1 = oracle.prepared_session().unwrap();
        let s2 = oracle.prepared_session().unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.prepared.generation(), oracle.xbar.generation());

        // A clone starts with an empty cache but an identical array
        // generation (clones are the same conductances).
        let cloned = oracle.clone();
        let s3 = cloned.prepared_session().unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3));
        assert_eq!(s3.prepared.generation(), s1.prepared.generation());

        // Drift redeployment replaces the array (fresh generation), so
        // the cached session is rebuilt — never served stale.
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.02,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let cfg = OracleConfig::ideal()
            .with_device(device)
            .with_backend(BackendSpec::new(BackendKind::Blocked))
            .with_faults(FaultInjection::new(
                FaultSpec::none().with_drift(0.1, 0.05, 1.0),
                FaultKey::new(7, 0),
            ))
            .with_drift_schedule(DriftSchedule::every(2, 10.0));
        let mut o = Oracle::new(net, &cfg, 1).unwrap();
        let u = [0.8, 0.5, 0.9];
        o.query(&u).unwrap();
        let before = o.prepared_session().unwrap().prepared.generation();
        assert_eq!(before, o.xbar.generation());
        for _ in 0..4 {
            o.query(&u).unwrap();
        }
        let after = o.prepared_session().unwrap().prepared.generation();
        assert_eq!(after, o.xbar.generation());
        assert_ne!(before, after, "drift redeployment must rebuild the session");
    }

    #[test]
    fn raw_access_reveals_everything() {
        let mut o = toy_oracle(OutputAccess::Raw);
        let rec = o.query(&[1.0, 0.0, 0.0]).unwrap();
        let out = rec.observation.output.unwrap();
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!((out[1] - 0.25).abs() < 1e-12);
        assert_eq!(rec.observation.label, Some(0));
        assert_eq!(rec.index, 0);
        assert_eq!(o.query_count(), 1);
    }

    #[test]
    fn label_only_hides_raw_outputs() {
        let mut o = toy_oracle(OutputAccess::LabelOnly);
        let rec = o.query(&[1.0, 0.0, 0.0]).unwrap();
        assert!(rec.observation.output.is_none());
        assert_eq!(rec.observation.label, Some(0));
    }

    #[test]
    fn no_access_reveals_only_power() {
        let mut o = toy_oracle(OutputAccess::None);
        let rec = o.query(&[1.0, 0.0, 0.0]).unwrap();
        assert!(rec.observation.output.is_none());
        assert!(rec.observation.label.is_none());
        assert!(rec.observation.power > 0.0);
    }

    #[test]
    fn calibrated_power_equals_weighted_column_norms() {
        // The central identity: power(u) = Σ_j u_j ‖W[:,j]‖₁ in weight
        // units, for the ideal crossbar.
        let mut o = toy_oracle(OutputAccess::None);
        let norms = o.true_column_norms();
        for j in 0..3 {
            let mut e = vec![0.0; 3];
            e[j] = 1.0;
            let p = power(&mut o, &e);
            assert!(
                (p - norms[j]).abs() < 1e-9,
                "column {j}: {p} vs {}",
                norms[j]
            );
        }
        // Linearity in the input.
        let p = power(&mut o, &[0.5, 0.25, 1.0]);
        let want = 0.5 * norms[0] + 0.25 * norms[1] + 1.0 * norms[2];
        assert!((p - want).abs() < 1e-9);
    }

    #[test]
    fn calibration_cancels_gmin_offset() {
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[0.8, -0.4], &[0.2, 0.6]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.07,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let cfg = OracleConfig::ideal().with_device(device);
        let mut o = Oracle::new(net.clone(), &cfg, 5).unwrap();
        let norms = net.weights().col_l1_norms();
        for j in 0..2 {
            let mut e = vec![0.0; 2];
            e[j] = 1.0;
            let p = power(&mut o, &e);
            assert!((p - norms[j]).abs() < 1e-9, "column {j}");
        }
    }

    #[test]
    fn query_budget_enforced() {
        let net =
            SingleLayerNet::from_weights(Matrix::from_rows(&[&[1.0, 0.5]]), Activation::Identity);
        let cfg = OracleConfig::ideal().with_query_budget(2);
        let mut o = Oracle::new(net, &cfg, 1).unwrap();
        assert!(o.query(&[1.0, 0.0]).is_ok());
        assert!(o.query(&[0.0, 1.0]).is_ok());
        assert!(matches!(
            o.query(&[1.0, 1.0]),
            Err(AttackError::QueryBudgetExhausted { budget: 2 })
        ));
        o.reset_query_count();
        assert!(o.query(&[1.0, 0.0]).is_ok());
    }

    #[test]
    fn batch_budget_is_all_or_nothing() {
        let net =
            SingleLayerNet::from_weights(Matrix::from_rows(&[&[1.0, 0.5]]), Activation::Identity);
        let cfg = OracleConfig::ideal().with_query_budget(3);
        let mut o = Oracle::new(net, &cfg, 1).unwrap();
        let u = [1.0, 0.0];
        assert!(o.query_batch(&[&u, &u]).is_ok());
        // Two more would overflow the budget of 3: nothing is consumed.
        assert!(matches!(
            o.query_batch(&[&u, &u]),
            Err(AttackError::QueryBudgetExhausted { budget: 3 })
        ));
        assert_eq!(o.query_count(), 2);
        assert!(o.query(&u).is_ok());
    }

    #[test]
    fn batch_matches_sequential_queries_at_any_split() {
        // Noisy power AND noisy reads: the strongest equivalence claim.
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let cfg = OracleConfig::ideal()
            .with_power(PowerModel::default().with_noise(0.05))
            .with_device(DeviceModel::ideal().with_read_sigma(0.01));
        let inputs: Vec<Vec<f64>> = (0..7)
            .map(|i| (0..3).map(|j| ((i * 3 + j) as f64 * 0.21).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();

        let mut seq = Oracle::new(net.clone(), &cfg, 42).unwrap();
        let one_by_one: Vec<QueryRecord> = refs.iter().map(|u| seq.query(u).unwrap()).collect();

        for backend in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Blocked).with_threads(3),
        ] {
            let cfg_b = cfg.with_backend(backend);
            // One big batch.
            let mut o = Oracle::new(net.clone(), &cfg_b, 42).unwrap();
            assert_eq!(o.query_batch(&refs).unwrap(), one_by_one, "{backend}");
            // An uneven split.
            let mut o = Oracle::new(net.clone(), &cfg_b, 42).unwrap();
            let mut split = o.query_batch(&refs[..2]).unwrap();
            split.extend(o.query_batch(&refs[2..5]).unwrap());
            split.extend(o.query_batch(&refs[5..]).unwrap());
            assert_eq!(split, one_by_one, "{backend} split");
        }
    }

    #[test]
    fn both_noise_power_from_the_prepared_handle_matches_per_vector_measure() {
        // Read noise plus power noise with raw outputs: each sample's
        // exact reading comes from the cached handle's line
        // conductances. Both backends, batched or one query at a time,
        // must reproduce the per-vector `PowerModel::measure` +
        // `noisy_mvm` reference on the same streams, bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = SingleLayerNet::from_weights(
            Matrix::random_uniform(5, 40, -1.0, 1.0, &mut rng),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            read_sigma: 0.01,
            ..DeviceModel::ideal()
        };
        let cfg = OracleConfig::ideal()
            .with_access(OutputAccess::Raw)
            .with_device(device)
            .with_power(PowerModel::default().with_noise(0.05).with_averages(2));
        let inputs: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..40)
                    .map(|j| ((i * 40 + j) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let bits = |records: &[QueryRecord]| -> Vec<(u64, u64, Vec<u64>)> {
            records
                .iter()
                .map(|r| {
                    let obs = &r.observation;
                    let output = obs.output.as_ref().expect("raw access");
                    (
                        r.index,
                        obs.power.to_bits(),
                        output.iter().map(|y| y.to_bits()).collect(),
                    )
                })
                .collect()
        };

        let reference = Oracle::new(net.clone(), &cfg, 99).unwrap();
        let want: Vec<QueryRecord> = refs
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let mut rng = Oracle::stream_rng(99, i as u64);
                let raw = cfg.power.measure(&reference.xbar, u, &mut rng).unwrap();
                let mut output = reference.xbar.noisy_mvm(u, &mut rng).unwrap();
                reference.net.activation().apply_row(&mut output);
                QueryRecord {
                    index: i as u64,
                    observation: Observation {
                        label: Some(vec_ops::argmax(&output)),
                        output: Some(output),
                        power: reference.calibrate(raw, u.iter().sum()),
                    },
                }
            })
            .collect();
        for backend in [BackendKind::Naive, BackendKind::Blocked] {
            let cfg_b = cfg.with_backend(backend);
            let mut batched = Oracle::new(net.clone(), &cfg_b, 99).unwrap();
            assert_eq!(
                bits(&batched.query_batch(&refs).unwrap()),
                bits(&want),
                "{backend}"
            );
            let mut single = Oracle::new(net.clone(), &cfg_b, 99).unwrap();
            let one_by_one: Vec<QueryRecord> =
                refs.iter().map(|u| single.query(u).unwrap()).collect();
            assert_eq!(bits(&one_by_one), bits(&want), "{backend} one at a time");
        }
    }

    #[test]
    fn blocked_backend_is_bit_identical_on_noiseless_batches() {
        let mut naive = toy_oracle(OutputAccess::Raw);
        // `blocked` is the tiled kernel on exactly one thread.
        assert_eq!(
            OracleConfig::ideal()
                .with_backend(BackendKind::Blocked)
                .backend
                .threads,
            1
        );
        let mut blocked = {
            let net = SingleLayerNet::from_weights(
                Matrix::from_rows(&[&[1.0, -0.5, 0.0], &[0.25, 0.5, -1.0]]),
                Activation::Identity,
            );
            Oracle::new(
                net,
                &OracleConfig::ideal().with_backend(BackendKind::Blocked),
                3,
            )
            .unwrap()
        };
        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![0.1 * i as f64, 0.3, 1.0 - 0.2 * i as f64])
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        assert_eq!(
            naive.query_batch(&refs).unwrap(),
            blocked.query_batch(&refs).unwrap()
        );
    }

    #[test]
    fn single_query_equals_batch_of_one() {
        // The compat contract the removed `query_power` wrapper relied
        // on: `query(u)` is exactly `query_batch(&[u])`, noise included.
        let cfg = OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.1));
        let net =
            SingleLayerNet::from_weights(Matrix::from_rows(&[&[1.0, -0.5]]), Activation::Identity);
        let mut a = Oracle::new(net.clone(), &cfg, 17).unwrap();
        let mut b = Oracle::new(net, &cfg, 17).unwrap();
        for i in 0..4 {
            let u = [0.5 + 0.1 * i as f64, 0.25];
            assert_eq!(
                a.query(&u).unwrap(),
                b.query_batch(&[&u]).unwrap()[0].clone()
            );
        }
    }

    #[test]
    fn fault_injection_changes_deployment_deterministically() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.0], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let injection = FaultInjection::new(
            FaultSpec::none().with_stuck_off_rate(0.4),
            FaultKey::new(99, 1),
        );
        let cfg = OracleConfig::ideal().with_faults(injection);
        let faulted = Oracle::new(net.clone(), &cfg, 3).unwrap();
        let pristine = Oracle::new(net.clone(), &OracleConfig::ideal(), 3).unwrap();
        // The faulted deployment's ground truth differs...
        assert_ne!(faulted.true_column_norms(), pristine.true_column_norms());
        // ...but is reproducible given the same injection key.
        let again = Oracle::new(net.clone(), &cfg, 3).unwrap();
        assert_eq!(faulted.true_column_norms(), again.true_column_norms());
        // An empty spec deploys bit-identically to no injection at all.
        let noop = OracleConfig::ideal()
            .with_faults(FaultInjection::new(FaultSpec::none(), FaultKey::new(99, 1)));
        let noop_oracle = Oracle::new(net, &noop, 3).unwrap();
        assert_eq!(
            noop_oracle.true_column_norms(),
            pristine.true_column_norms()
        );
    }

    #[test]
    fn transient_queries_are_split_invariant_and_keyed() {
        use xbar_faults::{FaultKey, TransientInjection, TransientSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let spec = TransientSpec::none()
            .with_flip_rate(0.2)
            .with_jitter_sigma(0.1);
        let cfg = OracleConfig::ideal()
            .with_device(device)
            .with_transients(TransientInjection::new(spec, FaultKey::new(5, 3)));
        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..3).map(|j| ((i * 3 + j) as f64 * 0.37).cos()).collect())
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();

        let mut seq = Oracle::new(net.clone(), &cfg, 42).unwrap();
        let one_by_one: Vec<QueryRecord> = refs.iter().map(|u| seq.query(u).unwrap()).collect();
        for backend in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Blocked).with_threads(2),
        ] {
            let mut o = Oracle::new(net.clone(), &cfg.with_backend(backend), 42).unwrap();
            let mut split = o.query_batch(&refs[..4]).unwrap();
            split.extend(o.query_batch(&refs[4..]).unwrap());
            assert_eq!(split, one_by_one, "{backend}");
        }
        // The same input at two different global indices reads two
        // different transient perturbations.
        let mut o = Oracle::new(net.clone(), &cfg, 42).unwrap();
        let a = o.query(refs[0]).unwrap().observation.power;
        let b = o.query(refs[0]).unwrap().observation.power;
        assert_ne!(a, b);
        // An empty transient spec deploys bit-identically to none.
        let noop = cfg.with_transients(TransientInjection::new(
            TransientSpec::none(),
            FaultKey::new(5, 3),
        ));
        let mut plain =
            Oracle::new(net.clone(), &OracleConfig::ideal().with_device(device), 7).unwrap();
        let mut wrapped = Oracle::new(net, &noop, 7).unwrap();
        assert_eq!(
            plain.query_batch(&refs).unwrap(),
            wrapped.query_batch(&refs).unwrap()
        );
    }

    #[test]
    fn drift_schedule_ages_the_array_split_invariantly() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.02,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let injection = FaultInjection::new(
            FaultSpec::none().with_drift(0.1, 0.05, 1.0),
            FaultKey::new(77, 0),
        );
        let cfg = OracleConfig::ideal()
            .with_device(device)
            .with_faults(injection)
            .with_drift_schedule(DriftSchedule::every(3, 50.0));
        // The same input at every query, so the power trend isolates
        // the hardware's decay.
        let u = vec![0.8, 0.5, 0.9];
        let refs: Vec<&[f64]> = (0..8).map(|_| u.as_slice()).collect();

        let mut seq = Oracle::new(net.clone(), &cfg, 42).unwrap();
        assert_eq!(seq.drift_time(), 1.0);
        let one_by_one: Vec<QueryRecord> = refs.iter().map(|u| seq.query(u).unwrap()).collect();
        // 8 queries at 3 per epoch: the deployed array has aged twice.
        assert_eq!(seq.drift_time(), 1.0 + 2.0 * 50.0);
        assert_eq!(seq.queries_issued(), 8);

        // One big batch spanning both epoch boundaries is bit-identical
        // — each drift redeployment bumps the array generation, so the
        // cached prepared session is rebuilt rather than reused stale.
        for backend in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Blocked).with_threads(2),
        ] {
            let mut o = Oracle::new(net.clone(), &cfg.with_backend(backend), 42).unwrap();
            assert_eq!(o.query_batch(&refs).unwrap(), one_by_one, "{backend}");
        }

        // Power on a fixed input decays as the hardware drifts toward
        // g_min (columns lose conductance, so less current flows).
        let early = one_by_one[0].observation.power;
        let late = one_by_one[7].observation.power;
        assert!(
            late < early,
            "power should decay under drift: {early} -> {late}"
        );

        // Without a fault injection the schedule is inert.
        let inert = OracleConfig::ideal()
            .with_device(device)
            .with_drift_schedule(DriftSchedule::every(3, 50.0));
        let mut o = Oracle::new(net, &inert, 42).unwrap();
        for u in &refs {
            o.query(u).unwrap();
        }
        assert_eq!(o.drift_time(), 0.0);
    }

    #[test]
    fn drift_epochs_retime_the_plan_compiled_at_deployment() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2, 0.7], &[0.25, 0.5, -1.0, -0.3]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.02,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let spec = FaultSpec::none()
            .with_stuck_on_rate(0.1)
            .with_stuck_off_rate(0.1)
            .with_variation_sigma(0.1)
            .with_drift(0.1, 0.2, 0.0);
        let key = FaultKey::new(31, 4);
        let (interval, step, epochs) = (2u64, 25.0, 5u64);
        let cfg = OracleConfig::ideal()
            .with_device(device)
            .with_faults(FaultInjection::new(spec, key))
            .with_drift_schedule(DriftSchedule::every(interval, step));
        let seed = 8;

        // Each epoch's deployed array, rebuilt by compiling the spec at
        // that epoch's drift time and applying it to the pristine array.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pristine = CrossbarArray::program(net.weights(), &device, &mut rng).unwrap();
        let expected: Vec<Vec<f64>> = (0..=epochs)
            .map(|epoch| {
                let at = FaultSpec {
                    drift_time: epoch as f64 * step,
                    ..spec
                };
                FaultInjection::new(at, key)
                    .compile(2, 4)
                    .unwrap()
                    .apply(&pristine)
                    .unwrap()
                    .effective_weights()
                    .col_l1_norms()
            })
            .collect();

        let shard = Arc::new(xbar_obs::MetricsShard::new());
        let u = [0.8, 0.5, 0.9, 0.1];
        let seen = xbar_obs::with_scope(&shard, "drift", || {
            let mut o = Oracle::new(net, &cfg, seed).unwrap();
            let mut seen = vec![o.true_column_norms()];
            o.query(&u).unwrap();
            // After each round the last query issued is the first of
            // the next epoch.
            for _ in 0..epochs {
                for _ in 0..interval {
                    o.query(&u).unwrap();
                }
                seen.push(o.true_column_norms());
            }
            seen
        });
        assert_eq!(seen, expected);
        let observed = shard.take_scope("drift");
        assert_eq!(
            observed.counter(xbar_obs::names::XBAR_FAULT_PLAN_COMPILE),
            1
        );
        assert_eq!(
            observed.counter(xbar_obs::names::ORACLE_DRIFT_ADVANCE),
            epochs
        );
        // One handle for the first query, then one per redeployment.
        assert_eq!(
            observed.counter(xbar_obs::names::ORACLE_PREPARED_MISS),
            epochs + 1
        );
        assert_eq!(
            observed
                .histogram(xbar_obs::names::SPAN_ORACLE_REDEPLOY)
                .map(xbar_obs::Histogram::count),
            Some(epochs)
        );
    }

    #[test]
    fn drift_redeployment_installs_the_new_generations_handle() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = SingleLayerNet::from_weights(
            Matrix::random_uniform(7, 61, -1.0, 1.0, &mut rng),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.02,
            g_max: 1.0,
            ..DeviceModel::ideal()
        };
        let spec = FaultSpec::none()
            .with_stuck_off_rate(0.05)
            .with_variation_sigma(0.1)
            .with_drift(0.1, 0.2, 0.0);
        let u: Vec<f64> = (0..61).map(|j| (j % 7) as f64 / 7.0).collect();
        for backend in [
            BackendSpec::new(BackendKind::Naive),
            BackendSpec::new(BackendKind::Blocked),
            BackendSpec::new(BackendKind::Blocked).with_threads(3),
        ] {
            let cfg = OracleConfig::ideal()
                .with_device(device)
                .with_backend(backend)
                .with_faults(FaultInjection::new(spec, FaultKey::new(3, 1)))
                .with_drift_schedule(DriftSchedule::every(2, 40.0));
            let mut o = Oracle::new(net.clone(), &cfg, 9).unwrap();
            for _ in 0..3 {
                o.query(&u).unwrap();
                o.query(&u).unwrap();
                // The next query starts an epoch: the redeployment runs
                // first and leaves its handle in the cache.
                o.advance_drift_to(o.queries_issued()).unwrap();
                let cached = o.prepared.slot.lock().unwrap().clone().unwrap();
                let fresh = backend.build().unwrap().prepare(&o.xbar).unwrap();
                assert_eq!(cached.prepared.generation(), o.xbar.generation());
                assert_eq!(
                    cached.prepared.generation(),
                    fresh.generation(),
                    "{backend}"
                );
                for (a, b) in [
                    (
                        cached.prepared.weights().as_slice(),
                        fresh.weights().as_slice(),
                    ),
                    (
                        cached.prepared.line_conductances(),
                        fresh.line_conductances(),
                    ),
                ] {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{backend}");
                }
            }
        }
    }

    #[test]
    fn query_indices_are_global_and_survive_resets() {
        let mut o = toy_oracle(OutputAccess::None);
        assert_eq!(o.query(&[1.0, 0.0, 0.0]).unwrap().index, 0);
        o.reset_query_count();
        let recs = o
            .query_batch(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]])
            .unwrap();
        assert_eq!(recs[0].index, 1);
        assert_eq!(recs[1].index, 2);
        assert_eq!(o.query_count(), 2);
    }

    #[test]
    fn batch_rejects_malformed_inputs_without_consuming() {
        let mut o = toy_oracle(OutputAccess::None);
        let good = [1.0, 0.0, 0.0];
        let bad = [1.0, 0.0];
        assert!(o.query_batch(&[&good, &bad]).is_err());
        assert_eq!(o.query_count(), 0);
        // A non-finite element (`1e999` decodes to +inf) is refused by
        // sample and position, before any budget is spent.
        let inf = [0.0, f64::INFINITY, 0.0];
        assert!(matches!(
            o.query_batch(&[&good, &inf]),
            Err(AttackError::NonFiniteInput {
                sample: 1,
                element: 1
            })
        ));
        assert!(o.query_batch(&[&[f64::NAN, 0.0, 0.0]]).is_err());
        assert_eq!(o.query_count(), 0);
        assert!(o.query_batch(&[]).unwrap().is_empty());
        assert_eq!(o.query_count(), 0);
    }

    #[test]
    fn eval_does_not_consume_queries() {
        let o = toy_oracle(OutputAccess::None);
        let inputs = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        let preds = o.eval_predict_batch(&inputs).unwrap();
        assert_eq!(preds, vec![0, 0]);
        assert_eq!(o.query_count(), 0);
        let acc = o.eval_accuracy(&inputs, &[0, 0]).unwrap();
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn noisy_power_is_noisy_but_centred() {
        let net =
            SingleLayerNet::from_weights(Matrix::from_rows(&[&[1.0, -0.5]]), Activation::Identity);
        let cfg = OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.05));
        let mut o = Oracle::new(net.clone(), &cfg, 11).unwrap();
        let norms = net.weights().col_l1_norms();
        let n = 2000;
        let mean: f64 = (0..n).map(|_| power(&mut o, &[1.0, 0.0])).sum::<f64>() / n as f64;
        assert!((mean - norms[0]).abs() < 0.02, "{mean} vs {}", norms[0]);
        // Individual readings vary.
        let a = power(&mut o, &[1.0, 0.0]);
        let b = power(&mut o, &[1.0, 0.0]);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let make = || {
            let net = SingleLayerNet::from_weights(
                Matrix::from_rows(&[&[1.0, -0.5]]),
                Activation::Identity,
            );
            let cfg = OracleConfig::ideal().with_power(PowerModel::default().with_noise(0.1));
            Oracle::new(net, &cfg, 42).unwrap()
        };
        let mut a = make();
        let mut b = make();
        for _ in 0..5 {
            assert_eq!(power(&mut a, &[0.5, 0.5]), power(&mut b, &[0.5, 0.5]));
        }
    }

    /// A deployment whose configuration exercises every noise source a
    /// served victim can carry (noisy power, noisy reads, transient
    /// faults, permanent faults) — the hardest case for keyed-batch
    /// equivalence.
    fn serveable_oracle(access: OutputAccess, backend: impl Into<BackendSpec>) -> Oracle {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec, TransientInjection, TransientSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let device = DeviceModel {
            g_min: 0.05,
            g_max: 1.0,
            read_sigma: 0.01,
            ..DeviceModel::ideal()
        };
        let cfg = OracleConfig::ideal()
            .with_access(access)
            .with_device(device)
            .with_backend(backend)
            .with_power(PowerModel::default().with_noise(0.05))
            .with_faults(FaultInjection::new(
                FaultSpec::none().with_stuck_off_rate(0.1),
                FaultKey::new(31, 4),
            ))
            .with_transients(TransientInjection::new(
                TransientSpec::none()
                    .with_flip_rate(0.1)
                    .with_jitter_sigma(0.05),
                FaultKey::new(31, 4),
            ));
        Oracle::new(net, &cfg, 1234).unwrap()
    }

    fn probe_inputs(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..3).map(|j| ((i * 3 + j) as f64 * 0.29).sin()).collect())
            .collect()
    }

    #[test]
    fn keyed_batch_matches_session_view_queries() {
        // The serve contract: a session's results through
        // `observe_batch_keyed` on the shared deployment must be
        // bit-identical to the same session querying its own
        // `session_view` directly — for every access level, backend,
        // and noise/transient combination.
        for access in [
            OutputAccess::None,
            OutputAccess::LabelOnly,
            OutputAccess::Raw,
        ] {
            for backend in [
                BackendSpec::new(BackendKind::Naive),
                BackendSpec::new(BackendKind::Blocked),
                BackendSpec::new(BackendKind::Blocked).with_threads(2),
            ] {
                let deployed = serveable_oracle(access, backend);
                let inputs = probe_inputs(5);
                let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
                for session_seed in [7u64, 8, 9] {
                    let mut solo = deployed.session_view(session_seed, None);
                    let direct = solo.query_batch(&refs).unwrap();
                    let keys: Vec<QueryKey> = (0..refs.len() as u64)
                        .map(|i| QueryKey::new(session_seed, i))
                        .collect();
                    let keyed = deployed.observe_batch_keyed(&refs, &keys).unwrap();
                    for (rec, obs) in direct.iter().zip(&keyed) {
                        assert_eq!(&rec.observation, obs, "{access:?} {backend} {session_seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn keyed_batch_is_order_and_mix_invariant() {
        // A batch mixing sessions in arbitrary order returns,
        // per key, the same floats as each session served alone.
        let deployed = serveable_oracle(OutputAccess::Raw, BackendKind::Blocked);
        let inputs = probe_inputs(6);
        let refs: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        // Solo baselines: session 100 asks queries 0..3 on inputs 0..3,
        // session 200 asks queries 0..3 on inputs 3..6.
        let base_a = deployed
            .observe_batch_keyed(
                &refs[..3],
                &[
                    QueryKey::new(100, 0),
                    QueryKey::new(100, 1),
                    QueryKey::new(100, 2),
                ],
            )
            .unwrap();
        let base_b = deployed
            .observe_batch_keyed(
                &refs[3..],
                &[
                    QueryKey::new(200, 0),
                    QueryKey::new(200, 1),
                    QueryKey::new(200, 2),
                ],
            )
            .unwrap();
        // One interleaved batch, sessions shuffled together.
        let mixed = deployed
            .observe_batch_keyed(
                &[refs[3], refs[0], refs[4], refs[1], refs[5], refs[2]],
                &[
                    QueryKey::new(200, 0),
                    QueryKey::new(100, 0),
                    QueryKey::new(200, 1),
                    QueryKey::new(100, 1),
                    QueryKey::new(200, 2),
                    QueryKey::new(100, 2),
                ],
            )
            .unwrap();
        assert_eq!(mixed[1], base_a[0]);
        assert_eq!(mixed[3], base_a[1]);
        assert_eq!(mixed[5], base_a[2]);
        assert_eq!(mixed[0], base_b[0]);
        assert_eq!(mixed[2], base_b[1]);
        assert_eq!(mixed[4], base_b[2]);
    }

    #[test]
    fn session_view_shares_hardware_but_not_noise_or_budget() {
        let deployed = serveable_oracle(OutputAccess::None, BackendKind::Naive);
        let mut a = deployed.session_view(1, Some(2));
        let mut b = deployed.session_view(2, Some(2));
        // Same deployed (faulted) hardware: identical ground truth.
        assert_eq!(a.true_column_norms(), deployed.true_column_norms());
        assert_eq!(b.true_column_norms(), deployed.true_column_norms());
        // Different seeds draw different noise on the same query.
        let u = [0.4, -0.2, 0.8];
        let pa = a.query(&u).unwrap().observation.power;
        let pb = b.query(&u).unwrap().observation.power;
        assert_ne!(pa, pb);
        // Budgets are per view, independent of the deployment's.
        assert!(a.query(&u).is_ok());
        assert!(matches!(
            a.query(&u),
            Err(AttackError::QueryBudgetExhausted { budget: 2 })
        ));
        assert!(b.query(&u).is_ok());
    }

    #[test]
    fn keyed_batch_rejects_mismatch_and_drift() {
        let deployed = serveable_oracle(OutputAccess::None, BackendKind::Naive);
        let u = [0.1, 0.2, 0.3];
        // keys.len() != inputs.len()
        assert!(matches!(
            deployed.observe_batch_keyed(&[&u], &[]),
            Err(AttackError::InvalidParameter { .. })
        ));
        // Wrong input dimension.
        assert!(deployed
            .observe_batch_keyed(&[&[0.1, 0.2]], &[QueryKey::new(1, 0)])
            .is_err());
        // A drifting deployment cannot serve keyed batches: its
        // hardware is a function of its own query clock.
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let cfg = OracleConfig::ideal()
            .with_faults(FaultInjection::new(
                FaultSpec::none().with_drift(0.1, 0.05, 1.0),
                FaultKey::new(1, 0),
            ))
            .with_drift_schedule(DriftSchedule::every(3, 50.0));
        let drifting = Oracle::new(net, &cfg, 5).unwrap();
        assert!(matches!(
            drifting.observe_batch_keyed(&[&u], &[QueryKey::new(1, 0)]),
            Err(AttackError::InvalidParameter { .. })
        ));
    }

    /// Every float as its bit pattern.
    fn bit_vec(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The powers `query_batch` returns for the materialised rows
    /// `beta · e_j`.
    fn materialised_powers(o: &mut Oracle, columns: &[usize], beta: f64) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = columns
            .iter()
            .map(|&j| {
                let mut row = vec![0.0; o.num_inputs()];
                row[j] = beta;
                row
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        o.query_batch(&refs)
            .unwrap()
            .into_iter()
            .map(|r| r.observation.power)
            .collect()
    }

    #[test]
    fn one_hot_dot_returns_dots_bits() {
        let cases: [(&[f64], f64); 7] = [
            // A zero line total: the product is -0.0, the dot +0.0
            // unless the zero term is the only one.
            (&[0.0, 0.3, 0.7], -2.5),
            (&[0.3, 0.7, 0.0], -2.5),
            (&[0.0], -2.5),
            (&[0.0], 2.5),
            // A product that underflows to zero.
            (&[1e-200, 0.5], -1e-200),
            (&[0.25, 0.5, 1.5], -0.37),
            (&[0.25, 0.5, 1.5], 1.0),
        ];
        for (conductances, beta) in cases {
            let mut row = vec![0.0; conductances.len()];
            for j in 0..conductances.len() {
                let got = one_hot_dot(conductances, j, beta, &mut row);
                let mut one_hot = vec![0.0; conductances.len()];
                one_hot[j] = beta;
                let want = vec_ops::dot(conductances, &one_hot);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{conductances:?} j={j} β={beta}"
                );
                assert!(row.iter().all(|&x| x.to_bits() == 0), "row restored");
            }
        }
    }

    #[test]
    fn one_hot_powers_read_zero_line_totals_bit_for_bit() {
        use xbar_faults::{FaultInjection, FaultKey, FaultSpec};
        // Every device stuck off at `g_min = 0`: each line total is zero.
        let dead = OracleConfig::ideal()
            .with_access(OutputAccess::None)
            .with_faults(FaultInjection::new(
                FaultSpec::none().with_stuck_off_rate(1.0),
                FaultKey::new(3, 0),
            ));
        let wide = Matrix::from_rows(&[&[1.0, -0.5, 0.2, 0.9], &[0.25, 0.5, -1.0, 0.0]]);
        let single = Matrix::from_rows(&[&[0.8], &[-0.3]]);
        for (w, columns) in [(wide, vec![0, 2, 3]), (single, vec![0, 0])] {
            let net = SingleLayerNet::from_weights(w, Activation::Identity);
            for beta in [-2.5, -1.0, 1.0] {
                let mut fast = Oracle::new(net.clone(), &dead, 4).unwrap();
                let mut reference = Oracle::new(net.clone(), &dead, 4).unwrap();
                let got = fast.one_hot_powers(&columns, beta).unwrap();
                let want = materialised_powers(&mut reference, &columns, beta);
                assert_eq!(bit_vec(&got), bit_vec(&want), "β={beta} {columns:?}");
                assert!(got.iter().all(|&p| p == 0.0));
            }
        }
    }

    #[test]
    fn one_hot_powers_account_like_query_batch() {
        use xbar_faults::{FaultKey, TransientInjection, TransientSpec};
        let net = SingleLayerNet::from_weights(
            Matrix::from_rows(&[&[1.0, -0.5, 0.2], &[0.25, 0.5, -1.0]]),
            Activation::Identity,
        );
        let cfg = OracleConfig::ideal().with_query_budget(5);
        let mut o = Oracle::new(net.clone(), &cfg, 3).unwrap();
        // Refusals consume nothing.
        assert!(matches!(
            o.one_hot_powers(&[0, 3], 1.0),
            Err(AttackError::InvalidParameter { name: "columns" })
        ));
        assert!(matches!(
            o.one_hot_powers(&[2, 0], f64::NAN),
            Err(AttackError::NonFiniteInput {
                sample: 0,
                element: 2
            })
        ));
        assert!(matches!(
            o.one_hot_powers(&[0; 6], 1.0),
            Err(AttackError::QueryBudgetExhausted { budget: 5 })
        ));
        assert_eq!(o.query_count(), 0);
        assert!(o.one_hot_powers(&[], 1.0).unwrap().is_empty());

        // Each answered query counts once as a query; without
        // transients every one is also a power-only read.
        let transients = TransientInjection::new(
            TransientSpec::none().with_flip_rate(0.1),
            FaultKey::new(2, 0),
        );
        for (cfg, power_only) in [
            (OracleConfig::ideal(), 4),
            (OracleConfig::ideal().with_transients(transients), 0),
        ] {
            let shard = Arc::new(xbar_obs::MetricsShard::new());
            xbar_obs::with_scope(&shard, "scan", || {
                let mut o = Oracle::new(net.clone(), &cfg, 3).unwrap();
                o.one_hot_powers(&[0, 1, 2, 1], -0.5).unwrap();
                assert_eq!(o.query_count(), 4);
                assert_eq!(o.query(&[0.1, 0.2, 0.3]).unwrap().index, 4);
            });
            let observed = shard.take_scope("scan");
            assert_eq!(observed.counter(xbar_obs::names::ORACLE_QUERY), 5);
            assert_eq!(observed.counter(xbar_obs::names::XBAR_POWER_READ), 5);
            assert_eq!(
                observed.counter(xbar_obs::names::ORACLE_POWER_ONLY),
                power_only
            );
        }
    }
}
