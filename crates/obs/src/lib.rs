//! # xbar-obs
//!
//! The observability layer with one recording model: counters, gauges
//! and log-bucketed histograms, recorded per scope into a sharded
//! registry. Campaign trials, the campaign service and every
//! instrumented library call record into it. Its only dependencies are
//! the in-repo `serde` and `serde_json` shims, which carry every
//! encoding it writes.
//!
//! ## Architecture
//!
//! * [`names`] holds the typed static metric names —
//!   [`CounterName`], [`HistogramName`] (value or timing class) and
//!   [`GaugeName`] — so a kind clash fails to compile and recording on
//!   an existing key allocates nothing.
//! * [`MetricsShard`] maps a scope key (a served victim, a campaign) to
//!   its [`ScopeMetrics`]; [`MetricsRegistry`] shards recording across
//!   threads and merges the shards into a [`MetricsSnapshot`] on scrape
//!   (the campaign service's `stats` op). [`Histogram`] has one fixed
//!   bucket layout, so any two histograms merge exactly.
//! * [`scope`] carries the ambient `(shard, key)` pair through a thread
//!   so instrumentation sites ([`count`], [`observe`], [`span`]) need
//!   no plumbing. With no scope installed they are a thread-local read
//!   and an `Option` check, so un-observed code pays near-zero
//!   overhead. A span records its wall-clock duration into a timing
//!   histogram.
//! * The campaign executor (`xbar-runtime`) gives each trial a fresh
//!   shard, and [`TraceWriter`] appends each finished trial's
//!   [`ScopeMetrics`] to a JSON Lines trace.
//! * [`Histogram`], [`ScopeMetrics`] and [`MetricsSnapshot`] encode
//!   through `serde::Serialize` (traces, `stats` replies, metrics
//!   files); [`Histogram`]'s strict `Deserialize` is the one decoder of
//!   that format, used by `xbar trace summarize` and `xbar serve stats`. The service gives each
//!   evaluation worker its own shard, installed as the ambient scope of
//!   the job's victim, so library counters show up in `stats`.
//!
//! ## Determinism contract
//!
//! Counters and value histograms depend only on the work performed
//! and are attributed to the scope that performed it, so they are
//! bit-identical across thread counts, backends and scheduling orders.
//! Timing histograms (spans, latencies) carry wall-clock nanoseconds:
//! only their counts are deterministic. Traces file value histograms
//! under `values` and timing histograms under `spans`, so consumers can
//! diff traces while ignoring the timing fields.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod scope;
pub mod trace;

pub use metrics::{Histogram, MetricsRegistry, MetricsShard, MetricsSnapshot, ScopeMetrics};
pub use names::{CounterName, GaugeName, HistogramName};
pub use scope::{count, observe, span, with_scope, SpanGuard};
pub use trace::TraceWriter;
