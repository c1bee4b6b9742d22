//! Recording is allocation-free on the hot path: once a scope and key
//! exist, `count`, `observe` and `span` under an installed scope touch
//! only the shard's existing entries. Measured with a counting global
//! allocator that tallies bytes per thread, so the test harness's other
//! threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xbar_obs::names::{ORACLE_QUERY, SPAN_PROBE, XBAR_BATCH_OCCUPANCY};
use xbar_obs::{count, observe, span, with_scope, MetricsShard};

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a const-initialised thread-local tally, which
// itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

fn record_everything() {
    count(ORACLE_QUERY, 1);
    observe(XBAR_BATCH_OCCUPANCY, 8);
    let _span = span(SPAN_PROBE);
}

#[test]
fn recording_on_existing_keys_allocates_nothing() {
    let shard = Arc::new(MetricsShard::new());
    with_scope(&shard, "victim", || {
        // The first touch creates the scope and its three keys.
        record_everything();
        let before = allocated();
        for _ in 0..1000 {
            record_everything();
        }
        assert_eq!(allocated() - before, 0, "bytes allocated while recording");
    });
    let metrics = shard.take_scope("victim");
    assert_eq!(metrics.counter(ORACLE_QUERY), 1001);
    assert_eq!(metrics.histogram(SPAN_PROBE).unwrap().count(), 1001);
}

#[test]
fn recording_without_a_scope_allocates_nothing() {
    let before = allocated();
    for _ in 0..1000 {
        record_everything();
    }
    assert_eq!(allocated() - before, 0, "bytes allocated without a scope");
}
