//! The thread-local recording scope.
//!
//! A scope binds a [`MetricsShard`] and a scope key (a victim, a
//! campaign) to the current thread so that instrumentation sites deep
//! in the crossbar / attack code can record with no plumbing: they
//! call the free functions [`count`], [`observe`] and [`span`], which
//! look up the ambient scope and record into its shard. With no scope
//! installed the functions are a thread-local read plus an `Option`
//! check — effectively free — which is what lets the hot paths stay
//! instrumented unconditionally. Under a scope, recording on a key
//! already present allocates nothing.
//!
//! Scopes nest (a stack per thread); the innermost wins. A scope is
//! installed with [`with_scope`] and removed when the closure returns,
//! including on panic.
//!
//! Scopes do **not** cross thread boundaries: work spawned onto other
//! threads (e.g. any `xbar_linalg::par` fan-out) is not
//! observed. The instrumented call sites in this workspace all run on
//! the thread that owns the scope, so per-trial counters stay
//! thread-count-invariant.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crate::names::{CounterName, HistogramName};
use crate::MetricsShard;

struct ActiveScope {
    shard: Arc<MetricsShard>,
    key: String,
}

thread_local! {
    static SCOPES: RefCell<Vec<Rc<ActiveScope>>> = const { RefCell::new(Vec::new()) };
}

/// Pops the scope pushed by [`with_scope`], also on unwind.
struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        SCOPES.with(|scopes| {
            scopes.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `shard` installed as the current thread's recording
/// scope, recording under the scope key `key`.
pub fn with_scope<R>(shard: &Arc<MetricsShard>, key: &str, f: impl FnOnce() -> R) -> R {
    let scope = Rc::new(ActiveScope {
        shard: Arc::clone(shard),
        key: key.to_owned(),
    });
    SCOPES.with(|scopes| scopes.borrow_mut().push(scope));
    let _pop = PopOnDrop;
    f()
}

fn with_active<R>(f: impl FnOnce(&Rc<ActiveScope>) -> R) -> Option<R> {
    SCOPES.with(|scopes| scopes.borrow().last().map(f))
}

/// Adds `delta` to counter `name` in the ambient scope (no-op without
/// a scope).
pub fn count(name: CounterName, delta: u64) {
    with_active(|scope| scope.shard.counter_add(&scope.key, name, delta));
}

/// Records `value` into histogram `name` in the ambient scope (no-op
/// without a scope).
pub fn observe(name: HistogramName, value: u64) {
    with_active(|scope| scope.shard.record(&scope.key, name, value));
}

/// Opens a span named `name` in the ambient scope; when the returned
/// guard drops, the span's wall-clock nanoseconds are recorded into the
/// timing histogram `name` of the scope it opened in. Without a scope
/// the guard is inert.
pub fn span(name: HistogramName) -> SpanGuard {
    SpanGuard {
        open: with_active(|scope| (Rc::clone(scope), Instant::now())),
        name,
    }
}

/// Closes its span on drop. Returned by [`span`].
pub struct SpanGuard {
    open: Option<(Rc<ActiveScope>, Instant)>,
    name: HistogramName,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((scope, started)) = self.open.take() {
            let nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            scope.shard.record(&scope.key, self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{ORACLE_QUERY, SPAN_PROBE, XBAR_BATCH_OCCUPANCY};

    #[test]
    fn events_without_a_scope_are_dropped() {
        count(ORACLE_QUERY, 1);
        observe(XBAR_BATCH_OCCUPANCY, 1);
        drop(span(SPAN_PROBE));
    }

    #[test]
    fn scope_routes_events_to_its_shard_and_key() {
        let shard = Arc::new(MetricsShard::new());
        with_scope(&shard, "t7", || {
            count(ORACLE_QUERY, 2);
            observe(XBAR_BATCH_OCCUPANCY, 4);
            let _span = span(SPAN_PROBE);
        });
        let metrics = shard.take_scope("t7");
        assert_eq!(metrics.counter(ORACLE_QUERY), 2);
        assert_eq!(metrics.histogram(XBAR_BATCH_OCCUPANCY).unwrap().sum(), 4);
        assert_eq!(metrics.histogram(SPAN_PROBE).unwrap().count(), 1);
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = Arc::new(MetricsShard::new());
        let inner = Arc::new(MetricsShard::new());
        with_scope(&outer, "o", || {
            count(ORACLE_QUERY, 1);
            let span_opened_outside = span(SPAN_PROBE);
            with_scope(&inner, "i", || {
                count(ORACLE_QUERY, 10);
                // A span records into the scope it opened in.
                drop(span_opened_outside);
            });
            count(ORACLE_QUERY, 1);
        });
        let outer = outer.take_scope("o");
        assert_eq!(outer.counter(ORACLE_QUERY), 2);
        assert_eq!(outer.histogram(SPAN_PROBE).unwrap().count(), 1);
        let inner = inner.take_scope("i");
        assert_eq!(inner.counter(ORACLE_QUERY), 10);
        assert!(inner.histogram(SPAN_PROBE).is_none());
    }

    #[test]
    fn scope_pops_on_panic() {
        let shard = Arc::new(MetricsShard::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scope(&shard, "p", || panic!("boom"))
        }));
        assert!(result.is_err());
        // The scope is gone: this count goes nowhere.
        count(ORACLE_QUERY, 1);
        assert!(shard.take_scope("p").is_empty());
    }

    #[test]
    fn scope_is_per_thread() {
        let shard = Arc::new(MetricsShard::new());
        with_scope(&shard, "t", || {
            std::thread::scope(|scope| {
                scope.spawn(|| count(ORACLE_QUERY, 5));
            });
            count(ORACLE_QUERY, 1);
        });
        assert_eq!(shard.take_scope("t").counter(ORACLE_QUERY), 1);
    }
}
