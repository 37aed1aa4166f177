//! Streaming a traced run into the tiered store must not allocate per
//! event. A counting global allocator watches a multi-hour 405B/16K
//! run under production fault rates: event names live inline, chunks
//! are folded and thinned in place, so the heap is touched per evicted
//! chunk and per tower merge, never per appended event.
//!
//! This file holds a single test so no other test's allocations are
//! counted.

use cluster_model::faults::{FaultRates, FaultTimeline};
use parallelism_core::query::TraceQuery;
use parallelism_core::run::{CheckpointPolicy, RunSimulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use trace_analysis::tiered::TierConfig;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn streaming_a_traced_run_allocates_per_chunk_not_per_event() {
    const HORIZON_S: u64 = 6 * 3600;
    let q = TraceQuery {
        model: "405b".into(),
        gpus: 16_384,
        horizon_s: HORIZON_S,
        seed: 7,
        ..TraceQuery::default()
    };
    let step = q.to_step().unwrap();
    let timeline = FaultTimeline::generate(
        FaultRates::llama3_production(),
        q.gpus,
        8,
        HORIZON_S as f64,
        q.seed,
    )
    .unwrap();
    let sim = RunSimulator::new(step, timeline, CheckpointPolicy::llama3_production()).unwrap();
    let cfg = TierConfig {
        tier0_events: 256,
        ..TierConfig::default()
    };

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let traced = sim.simulate_traced(cfg).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let appended = traced.store.appended();
    assert!(appended > 50_000, "only {appended} events appended");
    traced.store.check_integrity().unwrap();
    println!("{appended} events appended, {allocations} allocations");
    assert!(
        allocations < appended / 16,
        "{allocations} allocations for {appended} appended events: \
         something allocates per event again"
    );
}
