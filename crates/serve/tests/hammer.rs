//! The concurrent-hammer test: N threads fire the *same* search query
//! at one shared [`Dispatcher`] simultaneously. Request coalescing
//! must collapse the herd onto exactly one computation, every thread
//! must receive byte-identical responses, and the shared memo layer
//! must have taken real hits.

use parallelism_core::query::{Query, SearchQuery, TraceMode, TraceQuery};
use serve::Dispatcher;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;

/// Fires `query` from [`THREADS`] barrier-synchronized threads at one
/// shared dispatcher and returns every thread's wire rendering.
fn hammer(dispatcher: &Arc<Dispatcher>, query: &Query) -> Vec<String> {
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let dispatcher = Arc::clone(dispatcher);
            let query = query.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                dispatcher.dispatch(&query).expect("dispatch").render_wire()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect()
}

#[test]
fn hammered_search_computes_once_and_answers_identically() {
    let dispatcher = Arc::new(Dispatcher::new());
    let query = Query::Search(SearchQuery {
        model: "8b".into(),
        gpus: 8,
        seq: 8192,
        layers: 4,
        budget: 131_072,
        max_cp: 2,
        ..SearchQuery::default()
    });

    let responses = hammer(&dispatcher, &query);

    // Exactly one computation; everyone else coalesced onto its flight
    // or hit the response cache, depending on arrival time.
    let s = dispatcher.stats();
    assert_eq!(s.queries, THREADS as u64);
    assert_eq!(
        s.searches_computed, 1,
        "the herd must collapse to one search"
    );
    assert_eq!(
        s.coalesced + s.response_hits,
        THREADS as u64 - 1,
        "every non-leader must be served without recomputing"
    );

    // Byte-identical answers for every thread.
    for r in &responses[1..] {
        assert_eq!(r, &responses[0]);
    }
    assert!(responses[0].starts_with("llama3sim/1 ok search"));

    // The shared memo layer underneath did real work: the one search
    // that ran scored many candidates against the process-global
    // collective-cost cache.
    assert!(
        s.cost.hits > 0,
        "shared collective-cost cache took no hits during the search"
    );
}

#[test]
fn hammered_trace_computes_once_and_answers_identically() {
    // The tiered-trace path runs a full fault-priced walk — the most
    // expensive deterministic kind — so the herd collapsing onto one
    // flight matters most here. A stats-mode query keeps the wire body
    // small while still exercising the whole store build.
    let dispatcher = Arc::new(Dispatcher::new());
    let query = Query::Trace(TraceQuery {
        model: "8b".into(),
        gpus: 8,
        horizon_s: 3_600,
        tier0: 256,
        mode: TraceMode::Stats,
        ..TraceQuery::default()
    });

    let responses = hammer(&dispatcher, &query);

    let s = dispatcher.stats();
    assert_eq!(s.queries, THREADS as u64);
    assert_eq!(
        s.coalesced + s.response_hits,
        THREADS as u64 - 1,
        "every non-leader must be served from the flight or the cache"
    );
    for r in &responses[1..] {
        assert_eq!(r, &responses[0]);
    }
    assert!(responses[0].starts_with("llama3sim/1 ok trace"));
    assert!(
        responses[0].contains("\"resident_events\""),
        "stats body missing: {}",
        responses[0]
    );
}
