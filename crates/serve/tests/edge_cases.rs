//! Std-thread edge-case battery for the coalescing substrate: the
//! timing-dependent cousins of the deterministic interleave battery
//! (`crates/interleave/tests/dispatcher_protocol.rs`). The model
//! checker proves the protocol over bounded schedules on the facade
//! types; these tests drive the *production* `std::sync` build through
//! the same hazards — leader panic mid-flight, eviction racing
//! publication, and mixed-kind coalescing on a live [`Dispatcher`] —
//! under real preemption, where every interleaving must be safe even
//! though none is chosen.

use parallelism_core::query::{Query, SearchQuery, TraceMode, TraceQuery};
use serve::{BoundedFifoCache, Dispatcher, FlightMap, FlightOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// A leader that panics *while followers are parked on its flight*:
/// the channel handshake guarantees the flight is open and computing
/// before any follower dispatches, so every follower either observes
/// [`FlightOutcome::LeaderFailed`] (the unwind published the failure
/// marker) or arrives after the unwind cleared the key and leads a
/// fresh healthy flight. Nobody hangs, and the retry contract holds.
#[test]
fn leader_panic_mid_flight_unblocks_followers_and_frees_the_key() {
    let map = Arc::new(FlightMap::<String>::new());
    let (in_flight_tx, in_flight_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();

    let leader = {
        let map = Arc::clone(&map);
        thread::spawn(move || {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                map.run_or_follow(9, || -> String {
                    in_flight_tx.send(()).expect("main thread is waiting");
                    release_rx.recv().expect("main thread releases");
                    panic!("leader dies mid-flight");
                })
            }));
            assert!(unwound.is_err(), "the leader's own panic propagates");
        })
    };

    in_flight_rx.recv().expect("leader entered the flight");
    let followers: Vec<_> = (0..4)
        .map(|_| {
            let map = Arc::clone(&map);
            thread::spawn(move || map.run_or_follow(9, || "healthy".to_string()))
        })
        .collect();
    release_tx.send(()).expect("leader is blocked on release");
    leader.join().expect("leader thread contained its panic");

    for f in followers {
        match f.join().expect("follower thread ok") {
            // Parked on the doomed flight: the unwind woke it with the
            // failure marker, and a single re-dispatch must succeed.
            FlightOutcome::LeaderFailed => match map.run_or_follow(9, || "healthy".to_string()) {
                FlightOutcome::Led(v) | FlightOutcome::Followed(v) => assert_eq!(v, "healthy"),
                FlightOutcome::LeaderFailed => panic!("retry after failure must succeed"),
            },
            // Arrived after the unwind cleared the key.
            FlightOutcome::Led(v) | FlightOutcome::Followed(v) => assert_eq!(v, "healthy"),
        }
    }
    assert_eq!(map.open(), 0, "no flight leaks past its leader");
}

/// Publication racing FIFO eviction on a deliberately tiny cache:
/// leaders publish into a 2-entry [`BoundedFifoCache`] while rival
/// keys churn it. Whatever the interleaving, a cache read returns
/// either nothing or the complete, correct value for its key — never
/// a torn or cross-keyed entry — and the flight table drains.
#[test]
fn eviction_racing_publication_never_serves_a_wrong_value() {
    let map = Arc::new(FlightMap::<String>::new());
    let cache = Arc::new(Mutex::new(BoundedFifoCache::<String>::new(2)));
    let expected = |key: u64| format!("value-{key}");

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let (map, cache) = (Arc::clone(&map), Arc::clone(&cache));
            thread::spawn(move || {
                // 8 threads over 4 keys: every key sees coalescing,
                // and cap 2 forces eviction under every schedule.
                for round in 0..50u64 {
                    let key = (i + round) % 4;
                    if let Some(hit) = cache.lock().unwrap().get(key) {
                        assert_eq!(hit, expected(key), "cache served a torn entry");
                        continue;
                    }
                    let outcome = map.run_or_follow(key, || {
                        let value = expected(key);
                        cache.lock().unwrap().insert(key, value.clone());
                        value
                    });
                    match outcome {
                        FlightOutcome::Led(v) | FlightOutcome::Followed(v) => {
                            assert_eq!(v, expected(key));
                        }
                        FlightOutcome::LeaderFailed => panic!("no leader panics here"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread ok");
    }
    assert_eq!(map.open(), 0, "every flight cleared");
    let cache = cache.lock().unwrap();
    assert!(cache.len() <= 2, "eviction kept the bound");
}

/// Same-key coalescing across *kinds* on a live dispatcher: three
/// threads ask the identical trace question while three ask the
/// identical search question. Each kind computes exactly once (the
/// leader fills the response cache inside the flight, so late
/// arrivals hit the cache instead of recomputing) and every answer
/// within a kind is byte-identical.
#[test]
fn concurrent_same_key_trace_and_search_compute_once_each() {
    let d = Arc::new(Dispatcher::new());
    let trace_q = Query::Trace(TraceQuery {
        model: "8b".into(),
        gpus: 8,
        horizon_s: 3600,
        tier0: 256,
        mode: TraceMode::Stats,
        ..TraceQuery::default()
    });
    let search_q = Query::Search(SearchQuery {
        model: "8b".into(),
        gpus: 8,
        seq: 8192,
        layers: 4,
        budget: 131_072,
        max_cp: 2,
        ..SearchQuery::default()
    });

    let handles: Vec<_> = (0..6)
        .map(|i| {
            let d = Arc::clone(&d);
            let q = if i % 2 == 0 {
                trace_q.clone()
            } else {
                search_q.clone()
            };
            thread::spawn(move || (i % 2, d.dispatch(&q).expect("dispatch ok").render_wire()))
        })
        .collect();
    let mut by_kind: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for h in handles {
        let (kind, wire) = h.join().expect("dispatch thread ok");
        by_kind[kind].push(wire);
    }
    for answers in &by_kind {
        assert_eq!(answers.len(), 3);
        assert!(
            answers.iter().all(|a| a == &answers[0]),
            "answers within a kind must be byte-identical"
        );
    }

    let s = d.stats();
    assert_eq!(s.queries, 6);
    assert_eq!(s.searches_computed, 1, "the search funnel ran exactly once");
    // Of the six dispatches, two led; the other four either coalesced
    // onto an open flight or hit the response cache the leader filled.
    assert_eq!(s.coalesced + s.response_hits, 4, "stats: {s:?}");
}
