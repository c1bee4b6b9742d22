//! The one recording model: histograms, per-scope metrics, and the
//! sharded registry that campaign trials and the campaign service both
//! record into.
//!
//! A [`MetricsShard`] maps a *scope* — a served victim, a campaign —
//! to its [`ScopeMetrics`]: counters, gauges, and log-bucketed
//! [`Histogram`]s keyed by the typed static names of
//! [`crate::names`]. Each recording thread holds its own shard, so the
//! hot path takes only an uncontended lock; a campaign gives every
//! trial a fresh shard, and the service one shard per worker
//! and per handler group inside a [`MetricsRegistry`].
//!
//! Merging shards is well-defined because every piece of state is a
//! commutative monoid:
//!
//! * counters add;
//! * histograms hold counts in a *fixed, global* log-spaced bucket
//!   layout, so [`Histogram::merge`] is element-wise addition —
//!   associative, commutative, and bit-identical to having recorded
//!   every value into a single histogram (values are integers, so even
//!   the running `sum` is exact until it saturates at `u64::MAX`);
//! * gauges are last-write-wins and, by convention, only ever set on
//!   shard 0 (via [`MetricsRegistry::gauge_set`]), so the merge never
//!   has to arbitrate between shards.
//!
//! Counters and value histograms are *deterministic* — a pure function
//! of the work done. Timing histograms (spans, latencies) carry
//! wall-clock nanoseconds; only their counts are deterministic.
//! Consumers that diff snapshots across runs, like the cross-worker
//! e2e test in `xbar-serve`, compare the former and only sanity-check
//! the latter.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::names::{CounterName, GaugeName, HistogramName};

/// The scope used for server-wide metrics that belong to no
/// particular victim (in-flight gauges, drain state, request errors
/// that never resolved a victim).
pub const SERVER_SCOPE: &str = "_server";

/// Growth factor between consecutive histogram bucket bounds
/// (`2^(1/4)`, ~19% relative width — quantile estimates are within one
/// bucket of the exact order statistic, i.e. within this factor).
pub const BUCKET_GROWTH: f64 = 1.189_207_115_002_721;

/// Number of log-spaced buckets: 4 per octave over 44 octaves covers
/// `1` to `2^44` (~4.9 hours when values are nanoseconds). Values of 0
/// land in the first bucket; larger values clamp into the last.
pub const NUM_BUCKETS: usize = 4 * 44;

/// The shared bucket upper bounds (`le` bounds, inclusive). One global
/// layout — never parameterised per histogram — is what makes
/// [`Histogram::merge`] total: any two histograms can merge.
fn bucket_bounds() -> &'static [f64; NUM_BUCKETS] {
    static BOUNDS: OnceLock<[f64; NUM_BUCKETS]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [0.0; NUM_BUCKETS];
        let mut bound = 1.0f64;
        for slot in bounds.iter_mut() {
            *slot = bound;
            bound *= BUCKET_GROWTH;
        }
        bounds
    })
}

/// Index of the bucket whose `(prev_bound, bound]` range contains
/// `value` (bucket 0 also absorbs 0; the last bucket absorbs overflow).
fn bucket_index(value: f64) -> usize {
    bucket_bounds()
        .partition_point(|bound| *bound < value)
        .min(NUM_BUCKETS - 1)
}

/// A fixed-layout log-spaced histogram over non-negative integer
/// values (by convention nanoseconds, sample counts, byte counts, …).
///
/// Tracks exact `count`, `sum`, `min`, `max` alongside the bucket
/// counts; quantiles ([`Histogram::quantile`]) are estimated from the
/// buckets and are within one bucket's relative error
/// ([`BUCKET_GROWTH`]) of the exact order statistic.
///
/// Everything is integer state, so [`Histogram::merge`] is exactly
/// associative and commutative, and merging per-shard histograms is
/// bit-identical to recording every value into one histogram — the
/// contract the property tests in `tests/proptest_metrics.rs` pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value as f64)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the buckets.
    ///
    /// The estimate is the geometric midpoint of the bucket holding the
    /// exact order statistic `sorted[ceil(q·count) - 1]`, clamped to
    /// the exact `[min, max]`; it is therefore within a factor of
    /// [`BUCKET_GROWTH`] of the exact value. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            cumulative += bucket_count;
            if cumulative >= rank {
                let bounds = bucket_bounds();
                let hi = bounds[i];
                let lo = if i == 0 {
                    hi / BUCKET_GROWTH
                } else {
                    bounds[i - 1]
                };
                let estimate = (lo * hi).sqrt();
                return estimate.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Folds `other` into `self` — element-wise bucket addition plus
    /// exact min/max/sum/count merges. Associative, commutative, and
    /// equal to single-histogram recording of the union of values.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(le_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        let bounds = bucket_bounds();
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| (bounds[i], count))
            .collect()
    }
}

/// The encoded form of a [`Histogram`], field for field.
#[derive(Serialize, Deserialize)]
struct HistogramJson {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    buckets: Vec<(f64, u64)>,
}

/// The snapshot and trace encoding. `count`, `sum`, `min`, `max` and
/// the `[le, count]` pairs of the non-empty `buckets` are deterministic
/// for a deterministic workload; `p50`/`p90`/`p99`/`p999` are bucket
/// estimates. An empty histogram encodes with all-zero scalars and no
/// buckets.
impl Serialize for Histogram {
    fn serialize(&self) -> Value {
        HistogramJson {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets: self.nonzero_buckets(),
        }
        .serialize()
    }
}

/// The one decoder of the [`Serialize`] encoding, so read-back
/// histograms merge exactly like recorded ones. Every field must be
/// present and of its type (the quantiles are recomputed from the
/// buckets). Bucket bounds must be shared bounds in ascending order,
/// `count` must equal the bucket total, and `min ≤ max` (all scalars 0
/// when empty).
impl Deserialize for Histogram {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let json = HistogramJson::deserialize(value)?;
        let bounds = bucket_bounds();
        let mut histogram = Histogram::new();
        let mut next = 0;
        for &(le, count) in &json.buckets {
            let i = bounds.partition_point(|bound| *bound < le);
            if i < next || bounds.get(i) != Some(&le) {
                return Err(
                    DeError::custom(format!("{le} is not an ascending bucket bound"))
                        .in_field("buckets"),
                );
            }
            histogram.counts[i] = count;
            histogram.count = histogram
                .count
                .checked_add(count)
                .ok_or_else(|| DeError::custom("bucket total overflows").in_field("buckets"))?;
            next = i + 1;
        }
        if json.count != histogram.count {
            return Err(DeError::custom(format!(
                "{} differs from the bucket total {}",
                json.count, histogram.count
            ))
            .in_field("count"));
        }
        let scalars = (json.sum, json.min, json.max);
        if json.count == 0 {
            if scalars != (0, 0, 0) {
                return Err(DeError::custom(format!(
                    "an empty histogram has sum, min, max {scalars:?}"
                )));
            }
        } else if json.min > json.max {
            return Err(DeError::custom(format!(
                "min {} above max {}",
                json.min, json.max
            )));
        } else {
            (histogram.sum, histogram.min, histogram.max) = scalars;
        }
        Ok(histogram)
    }
}

/// Every metric one scope recorded: the trace record of a campaign
/// trial, or one victim's section of a service snapshot.
///
/// Maps are keyed by the typed static names of [`crate::names`] and
/// iterate in name order, so every encoding is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScopeMetrics {
    /// Counter totals.
    pub counters: BTreeMap<CounterName, u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<GaugeName, f64>,
    /// Value and timing histograms.
    pub histograms: BTreeMap<HistogramName, Histogram>,
}

impl ScopeMetrics {
    /// The counter `name`, or 0 if it never fired.
    pub fn counter(&self, name: CounterName) -> u64 {
        self.counters.get(&name).copied().unwrap_or(0)
    }

    /// The gauge `name`, if it was ever set.
    pub fn gauge(&self, name: GaugeName) -> Option<f64> {
        self.gauges.get(&name).copied()
    }

    /// The histogram `name`, if it recorded anything.
    pub fn histogram(&self, name: HistogramName) -> Option<&Histogram> {
        self.histograms.get(&name)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge, and a
    /// gauge already present keeps its level (gauges have one writer).
    pub fn merge(&mut self, other: &ScopeMetrics) {
        for (name, delta) in &other.counters {
            *self.counters.entry(*name).or_insert(0) += delta;
        }
        for (name, level) in &other.gauges {
            self.gauges.entry(*name).or_insert(*level);
        }
        for (name, histogram) in &other.histograms {
            self.histograms.entry(*name).or_default().merge(histogram);
        }
    }

    fn counters_value(&self) -> Value {
        Value::Object(
            self.counters
                .iter()
                .map(|(name, total)| (name.0.to_owned(), Value::U64(*total)))
                .collect(),
        )
    }

    fn histograms_value(&self, keep: impl Fn(&HistogramName) -> bool) -> Value {
        Value::Object(
            self.histograms
                .iter()
                .filter(|(name, _)| keep(name))
                .map(|(name, histogram)| (name.name.to_owned(), histogram.serialize()))
                .collect(),
        )
    }

    /// The campaign-trace encoding: the fields `counters`, `values`
    /// (value histograms) and `spans` (timing histograms), in that
    /// order, that close a trace record.
    pub fn trace_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("counters".to_owned(), self.counters_value()),
            (
                "values".to_owned(),
                self.histograms_value(|name| !name.timing),
            ),
            (
                "spans".to_owned(),
                self.histograms_value(|name| name.timing),
            ),
        ]
    }
}

/// The service-snapshot encoding: `{"counters": {..}, "gauges": {..},
/// "histograms": {name: Histogram}}`.
impl Serialize for ScopeMetrics {
    fn serialize(&self) -> Value {
        let gauges = self
            .gauges
            .iter()
            .map(|(name, level)| (name.0.to_owned(), Value::F64(*level)))
            .collect();
        Value::Object(vec![
            ("counters".to_owned(), self.counters_value()),
            ("gauges".to_owned(), Value::Object(gauges)),
            ("histograms".to_owned(), self.histograms_value(|_| true)),
        ])
    }
}

/// One shard of the metrics registry: a mutex-guarded map from scope
/// (a victim, a campaign) to its [`ScopeMetrics`].
///
/// Each recording thread holds its own shard, so the lock is
/// uncontended in the steady state. Recording on a scope and name
/// already present allocates nothing. All methods take `&self`.
#[derive(Debug, Default)]
pub struct MetricsShard {
    scopes: Mutex<BTreeMap<String, ScopeMetrics>>,
}

impl MetricsShard {
    /// An empty shard.
    pub fn new() -> Self {
        MetricsShard::default()
    }

    /// The shard's scopes. A panic while the lock is held poisons it,
    /// but no update leaves a half-written entry (each is a map insert
    /// or whole-value adds), so recover the map rather than lose the
    /// shard's telemetry.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, ScopeMetrics>> {
        self.scopes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with<R>(&self, scope: &str, f: impl FnOnce(&mut ScopeMetrics) -> R) -> R {
        let mut scopes = self.lock();
        if !scopes.contains_key(scope) {
            scopes.insert(scope.to_owned(), ScopeMetrics::default());
        }
        f(scopes.get_mut(scope).expect("inserted above"))
    }

    /// Adds `delta` to the counter `name` of `scope`.
    pub fn counter_add(&self, scope: &str, name: CounterName, delta: u64) {
        self.with(scope, |m| *m.counters.entry(name).or_insert(0) += delta);
    }

    /// Sets the gauge `name` of `scope` to `value`.
    pub fn gauge_set(&self, scope: &str, name: GaugeName, value: f64) {
        self.with(scope, |m| {
            m.gauges.insert(name, value);
        });
    }

    /// Records `value` into the histogram `name` of `scope`.
    pub fn record(&self, scope: &str, name: HistogramName, value: u64) {
        self.with(scope, |m| {
            m.histograms.entry(name).or_default().record(value)
        });
    }

    /// Removes and returns everything recorded under `scope` (empty if
    /// nothing was).
    pub fn take_scope(&self, scope: &str) -> ScopeMetrics {
        self.lock().remove(scope).unwrap_or_default()
    }
}

/// The sharded metrics registry.
///
/// Construction fixes the shard count; recording sites obtain an
/// `Arc<MetricsShard>` via [`MetricsRegistry::shard`] (indices wrap, so
/// any worker/connection ordinal is a valid pick) and record into it
/// without touching any global lock. [`MetricsRegistry::snapshot`]
/// merges all shards into one coherent [`MetricsSnapshot`]; because
/// counter addition and [`Histogram::merge`] are associative and
/// commutative, the merged deterministic fields are independent of how
/// work was spread over shards.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Arc<MetricsShard>>,
}

impl MetricsRegistry {
    /// A registry with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            shards: (0..shards.max(1))
                .map(|_| Arc::new(MetricsShard::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard for ordinal `index` (wraps modulo the shard count).
    pub fn shard(&self, index: usize) -> Arc<MetricsShard> {
        Arc::clone(&self.shards[index % self.shards.len()])
    }

    /// Sets a gauge on shard 0 — the convention that keeps gauges
    /// single-writer so the shard merge never arbitrates between stale
    /// copies.
    pub fn gauge_set(&self, scope: &str, name: GaugeName, value: f64) {
        self.shards[0].gauge_set(scope, name, value);
    }

    /// Merges every shard into one coherent snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut scopes: BTreeMap<String, ScopeMetrics> = BTreeMap::new();
        for shard in &self.shards {
            for (scope, metrics) in shard.lock().iter() {
                match scopes.get_mut(scope) {
                    Some(merged) => merged.merge(metrics),
                    None => {
                        scopes.insert(scope.clone(), metrics.clone());
                    }
                }
            }
        }
        MetricsSnapshot { scopes }
    }
}

/// A coherent point-in-time merge of every shard's metrics, by scope.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    scopes: BTreeMap<String, ScopeMetrics>,
}

/// `{"victims": {scope: ScopeMetrics}}`, scopes in name order.
impl Serialize for MetricsSnapshot {
    fn serialize(&self) -> Value {
        let victims = self
            .scopes
            .iter()
            .map(|(scope, metrics)| (scope.clone(), metrics.serialize()))
            .collect();
        Value::Object(vec![("victims".to_owned(), Value::Object(victims))])
    }
}

impl MetricsSnapshot {
    /// The metrics of `scope`, if it recorded anything.
    pub fn scope(&self, scope: &str) -> Option<&ScopeMetrics> {
        self.scopes.get(scope)
    }

    /// The snapshot in Prometheus text exposition format. Metric names
    /// are sanitised (`serve.request_ns` → `xbar_serve_request_ns`),
    /// the scope becomes a `victim` label, counters gain `_total`, and
    /// histograms emit cumulative `_bucket{le=...}` series plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        enum Series<'a> {
            Counter(u64),
            Gauge(f64),
            Histogram(&'a Histogram),
        }

        // Group by metric name so each gets exactly one # TYPE header.
        let mut by_name: BTreeMap<&str, Vec<(&str, Series)>> = BTreeMap::new();
        for (scope, metrics) in &self.scopes {
            for (name, total) in &metrics.counters {
                by_name
                    .entry(name.0)
                    .or_default()
                    .push((scope, Series::Counter(*total)));
            }
            for (name, level) in &metrics.gauges {
                by_name
                    .entry(name.0)
                    .or_default()
                    .push((scope, Series::Gauge(*level)));
            }
            for (name, histogram) in &metrics.histograms {
                by_name
                    .entry(name.name)
                    .or_default()
                    .push((scope, Series::Histogram(histogram)));
            }
        }
        let mut out = String::new();
        for (name, series) in by_name {
            let cleaned: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let base = format!("xbar_{cleaned}");
            let kind = match series[0].1 {
                Series::Counter(_) => "counter",
                Series::Gauge(_) => "gauge",
                Series::Histogram(_) => "histogram",
            };
            let suffix = if kind == "counter" { "_total" } else { "" };
            out.push_str(&format!("# TYPE {base}{suffix} {kind}\n"));
            for (victim, series) in &series {
                match series {
                    Series::Counter(total) => {
                        out.push_str(&format!("{base}_total{{victim=\"{victim}\"}} {total}\n"));
                    }
                    Series::Gauge(level) => {
                        out.push_str(&format!("{base}{{victim=\"{victim}\"}} {level}\n"));
                    }
                    Series::Histogram(histogram) => {
                        let mut cumulative = 0u64;
                        for (le, count) in histogram.nonzero_buckets() {
                            cumulative += count;
                            out.push_str(&format!(
                                "{base}_bucket{{victim=\"{victim}\",le=\"{le}\"}} {cumulative}\n"
                            ));
                        }
                        let count = histogram.count();
                        let sum = histogram.sum();
                        out.push_str(&format!(
                            "{base}_bucket{{victim=\"{victim}\",le=\"+Inf\"}} {count}\n\
                             {base}_sum{{victim=\"{victim}\"}} {sum}\n\
                             {base}_count{{victim=\"{victim}\"}} {count}\n"
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1.0), 0);
        let mut last = 0;
        for v in [2u64, 10, 1000, 1 << 20, 1 << 43] {
            let idx = bucket_index(v as f64);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX as f64), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_exact_scalars() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 1000, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1018);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 254.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).map(|i| i * 7 + 13).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let estimate = h.quantile(q);
            let ratio = estimate / exact;
            assert!(
                (1.0 / BUCKET_GROWTH..=BUCKET_GROWTH).contains(&ratio),
                "q={q}: estimate {estimate} vs exact {exact} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn empty_histogram_is_clean() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let rendered = serde_json::to_string(&h).unwrap();
        assert!(rendered.contains("\"count\":0"), "{rendered}");
        assert!(rendered.contains("\"buckets\":[]"), "{rendered}");
        assert!(!rendered.contains("null"), "{rendered}");
    }

    #[test]
    fn merge_equals_single_recording() {
        let values: Vec<u64> = (0..200).map(|i| (i * i + 1) as u64).collect();
        let mut single = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            single.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, single);
        assert_eq!(ba, single);
    }

    #[test]
    fn histogram_decoder_is_strict() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 90, 70_000] {
            h.record(v);
        }
        let text = serde_json::to_string(&h).unwrap();
        let decode = |text: &str| serde_json::from_str::<Histogram>(text);
        assert_eq!(decode(&text).unwrap(), h);
        for (from, to) in [
            ("\"count\":5", "\"count\":6"),
            ("\"count\":5,", ""),
            ("\"sum\":70096", "\"sum\":\"70096\""),
            ("\"min\":0", "\"min\":null"),
            ("[1.0,1]", "[1.5,1]"),
            ("\"p50\":", "\"p5\":"),
        ] {
            assert!(text.contains(from), "{from} not in {text}");
            let corrupted = text.replacen(from, to, 1);
            assert!(decode(&corrupted).is_err(), "accepted {corrupted}");
        }
        let empty = serde_json::to_string(&Histogram::new()).unwrap();
        assert_eq!(decode(&empty).unwrap(), Histogram::new());
        assert!(decode(&empty.replacen("\"max\":0", "\"max\":4", 1)).is_err());
    }

    #[test]
    fn registry_merges_shards_deterministically() {
        let registry = MetricsRegistry::new(3);
        for i in 0..30u64 {
            let shard = registry.shard(i as usize);
            shard.counter_add("mnist", names::SERVE_QUERIES, 1);
            shard.record("mnist", names::SERVE_REQUEST_NS, 100 + i);
        }
        registry.gauge_set(SERVER_SCOPE, names::SERVE_ATTACHED_SESSIONS, 4.0);
        let snapshot = registry.snapshot();
        let mnist = snapshot.scope("mnist").unwrap();
        assert_eq!(mnist.counter(names::SERVE_QUERIES), 30);
        let h = mnist.histogram(names::SERVE_REQUEST_NS).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (30, 100, 129));
        let server = snapshot.scope(SERVER_SCOPE).unwrap();
        assert_eq!(server.gauge(names::SERVE_ATTACHED_SESSIONS), Some(4.0));
        // The same workload recorded on one shard snapshots identically
        // (modulo nothing: all state is a commutative monoid).
        let solo = MetricsRegistry::new(1);
        for i in 0..30u64 {
            let shard = solo.shard(0);
            shard.counter_add("mnist", names::SERVE_QUERIES, 1);
            shard.record("mnist", names::SERVE_REQUEST_NS, 100 + i);
        }
        solo.gauge_set(SERVER_SCOPE, names::SERVE_ATTACHED_SESSIONS, 4.0);
        assert_eq!(solo.snapshot(), snapshot);
    }

    #[test]
    fn a_panic_inside_a_shard_update_leaves_the_shard_usable() {
        let registry = MetricsRegistry::new(1);
        let shard = registry.shard(0);
        shard.counter_add("mnist", names::SERVE_QUERIES, 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.with("mnist", |_| panic!("recording failed"));
        }));
        assert!(panicked.is_err());
        assert!(shard.scopes.is_poisoned());
        shard.counter_add("mnist", names::SERVE_QUERIES, 3);
        shard.record("mnist", names::SERVE_REQUEST_NS, 7);
        let snapshot = registry.snapshot();
        let mnist = snapshot.scope("mnist").unwrap();
        assert_eq!(mnist.counter(names::SERVE_QUERIES), 5);
        assert_eq!(mnist.histogram(names::SERVE_REQUEST_NS).unwrap().count(), 1);
        assert_eq!(shard.take_scope("mnist").counter(names::SERVE_QUERIES), 5);
    }

    #[test]
    fn take_scope_drains_one_scope() {
        let shard = MetricsShard::new();
        shard.counter_add("a", names::ORACLE_QUERY, 2);
        shard.counter_add("b", names::ORACLE_QUERY, 5);
        assert_eq!(shard.take_scope("a").counter(names::ORACLE_QUERY), 2);
        assert!(shard.take_scope("a").is_empty());
        assert_eq!(shard.take_scope("b").counter(names::ORACLE_QUERY), 5);
    }

    #[test]
    fn snapshot_json_groups_by_victim() {
        let registry = MetricsRegistry::new(2);
        registry.shard(0).counter_add("a", names::SERVE_REQUESTS, 2);
        registry.shard(1).counter_add("b", names::SERVE_REQUESTS, 3);
        registry.shard(0).record("a", names::SERVE_REQUEST_NS, 50);
        registry.gauge_set(SERVER_SCOPE, names::SERVE_ATTACHED_SESSIONS, 0.0);
        let rendered = serde_json::to_string(&registry.snapshot()).unwrap();
        assert!(rendered.starts_with("{\"victims\":{\"_server\":{\"counters\":{},\"gauges\":{\"serve.attached_sessions\":0.0},\"histograms\":{}},\"a\":{\"counters\":{\"serve.requests\":2}"), "{rendered}");
        assert!(
            rendered.contains("\"b\":{\"counters\":{\"serve.requests\":3}"),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"serve.request_ns\":{\"count\":1"),
            "{rendered}"
        );
    }

    #[test]
    fn trace_json_files_values_and_spans_apart() {
        let shard = MetricsShard::new();
        shard.counter_add("t", names::ORACLE_QUERY, 7);
        shard.record("t", names::XBAR_BATCH_OCCUPANCY, 16);
        shard.record("t", names::SPAN_PROBE, 1_000);
        let fields = shard.take_scope("t").trace_fields();
        let rendered = serde_json::to_string(&Value::Object(fields)).unwrap();
        assert!(rendered.starts_with("{\"counters\":{\"oracle.query\":7},\"values\":{\"xbar.batch_occupancy\":{\"count\":1,\"sum\":16,"), "{rendered}");
        assert!(
            rendered.contains("\"spans\":{\"probe\":{\"count\":1,\"sum\":1000,"),
            "{rendered}"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let registry = MetricsRegistry::new(1);
        let shard = registry.shard(0);
        shard.counter_add("mnist", names::SERVE_QUERIES, 7);
        for v in [10u64, 20, 20, 4000] {
            shard.record("mnist", names::SERVE_REQUEST_NS, v);
        }
        registry.gauge_set(SERVER_SCOPE, names::SERVE_ATTACHED_SESSIONS, 2.0);
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("# TYPE xbar_serve_queries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("xbar_serve_queries_total{victim=\"mnist\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE xbar_serve_request_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("xbar_serve_request_ns_count{victim=\"mnist\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("xbar_serve_request_ns_bucket{victim=\"mnist\",le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE xbar_serve_attached_sessions gauge"),
            "{text}"
        );
        assert!(
            text.contains("xbar_serve_attached_sessions{victim=\"_server\"} 2"),
            "{text}"
        );
        // Bucket series are cumulative and end at the total count.
        let last_bucket = text
            .lines()
            .rfind(|l| l.starts_with("xbar_serve_request_ns_bucket"))
            .unwrap();
        assert!(last_bucket.ends_with(" 4"), "{last_bucket}");
    }
}
