//! The service's live-telemetry glue: shard layout and gauge refresh.
//!
//! The registry itself lives in [`xbar_obs::metrics`]; this module
//! decides *who records where* so the hot path never takes a shared
//! lock:
//!
//! * shard 0 — gauges (single-writer by convention) and the session
//!   manager's journal-write timings (already serialised by the session
//!   lock);
//! * the remaining [`HANDLER_SHARDS`] — connection handlers, assigned
//!   round-robin (request latency, decode/encode and evaluation time,
//!   request/query/rejection counters, and the library counters
//!   recorded while the shard is the handler's ambient `xbar-obs`
//!   scope).
//!
//! Because counters and histogram merges are commutative
//! ([`xbar_obs::Histogram::merge`]), a scrape's deterministic fields
//! are identical however the work was spread over shards — the
//! repeated-run e2e test pins exactly this.

use std::sync::Arc;

use xbar_obs::metrics::SERVER_SCOPE;
use xbar_obs::{names, MetricsRegistry, MetricsShard};

/// The `kind` tag stamped on every periodic metrics-snapshot record the
/// server appends to its `--metrics` JSONL file.
pub const METRICS_RECORD_KIND: &str = "xbar-serve-metrics";

/// Number of shards reserved for connection handlers.
pub const HANDLER_SHARDS: usize = 4;

/// The server's shard plan: one registry holding the server shard and
/// the fixed handler shards, with accessors that encode the layout
/// above.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A registry laid out as above.
    pub fn new() -> Self {
        ServeMetrics {
            registry: Arc::new(MetricsRegistry::new(1 + HANDLER_SHARDS)),
        }
    }

    /// The underlying registry (for snapshots and gauges).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Shard 0: gauges and session-journal timings.
    pub fn server_shard(&self) -> Arc<MetricsShard> {
        self.registry.shard(0)
    }

    /// The shard for connection-handler ordinal `index` (round-robin
    /// over the handler shards).
    pub fn handler_shard(&self, index: usize) -> Arc<MetricsShard> {
        self.registry.shard(1 + (index % HANDLER_SHARDS))
    }

    /// Refreshes the point-in-time gauges ahead of a scrape or a
    /// periodic snapshot.
    pub fn refresh_gauges(&self, attached_sessions: usize, draining: bool) {
        for (name, level) in [
            (names::SERVE_ATTACHED_SESSIONS, attached_sessions as f64),
            (names::SERVE_DRAINING, if draining { 1.0 } else { 0.0 }),
        ] {
            self.registry.gauge_set(SERVER_SCOPE, name, level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_separates_writers() {
        let metrics = ServeMetrics::new();
        assert_eq!(metrics.registry().num_shards(), 1 + HANDLER_SHARDS);
        // Handlers never share a shard with shard 0.
        for h in 0..10 {
            assert!(!Arc::ptr_eq(
                &metrics.handler_shard(h),
                &metrics.server_shard()
            ));
        }
        // Ordinals wrap instead of panicking.
        assert!(Arc::ptr_eq(
            &metrics.handler_shard(1),
            &metrics.handler_shard(1 + HANDLER_SHARDS)
        ));
    }

    #[test]
    fn gauge_refresh_overwrites() {
        let metrics = ServeMetrics::new();
        metrics.refresh_gauges(5, false);
        metrics.refresh_gauges(2, true);
        let snapshot = metrics.registry().snapshot();
        let server = snapshot.scope(SERVER_SCOPE).expect("server scope");
        assert_eq!(server.gauge(names::SERVE_ATTACHED_SESSIONS), Some(2.0));
        assert_eq!(server.gauge(names::SERVE_DRAINING), Some(1.0));
    }
}
