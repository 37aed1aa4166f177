//! Exhaustive interleaving checks of the serve coalescing protocol.
//!
//! These tests only exist under `--features interleave_check`: the
//! feature swaps `interleave::sync` to the instrumented shims, and
//! cargo feature unification rebuilds `serve` and `collectives` (dev
//! dependencies of this crate) against them — so the flights, caches
//! and condvars being explored here are the *production* types, not a
//! model of them.
//!
//! Each test drives a protocol scenario through every schedule up to
//! preemption bound 2–3 and asserts the contract properties from
//! `serve::coalesce`:
//!
//! * deadlock freedom (the explorer reports any all-blocked state),
//! * no lost notifications (`timeout_executions == 0`: no follower
//!   ever needed its bounded `wait_timeout` fallback),
//! * byte-identical coalesced responses (leader and followers return
//!   the same value), and
//! * with the response cache in front (`serve::cached_run_or_follow`),
//!   one computation per key in every schedule.
//!
//! The `broken_*` tests are the mutation check: deliberately wrong
//! protocol variants must make the explorer produce a failure with a
//! minimal replayable schedule — proving the battery would catch a
//! real regression in the flight protocol.

#![cfg(feature = "interleave_check")]

use collectives::ShardedCache;
use interleave::check::{spawn, Explorer, FailureKind};
use interleave::sync::{lock_or_recover, Condvar, Mutex};
use serve::{cached_run_or_follow, BoundedFifoCache, CachedOutcome, FlightMap, FlightOutcome};
use std::sync::Arc;

/// Renders an outcome for byte-comparison across threads.
fn outcome_value(o: FlightOutcome<String>) -> String {
    match o {
        FlightOutcome::Led(v) | FlightOutcome::Followed(v) => v,
        FlightOutcome::LeaderFailed => "LEADER_FAILED".to_string(),
    }
}

#[test]
fn coalescing_two_threads_identical_bytes() {
    // Two concurrent requests for one key: every interleaving must end
    // with both threads holding byte-identical responses, exactly one
    // computation unless the flights never overlapped, no deadlock and
    // no lost notification.
    let report = Explorer::new(3).check(|| {
        let map = Arc::new(FlightMap::<String>::new());
        let computed = Arc::new(Mutex::new(0u32));
        let (m2, c2) = (Arc::clone(&map), Arc::clone(&computed));
        let t = spawn(move || {
            let v = outcome_value(m2.run_or_follow(42, || {
                *lock_or_recover(&c2) += 1;
                "response-bytes".to_string()
            }));
            assert_eq!(v, "response-bytes");
        });
        let v = outcome_value(map.run_or_follow(42, || {
            *lock_or_recover(&computed) += 1;
            "response-bytes".to_string()
        }));
        assert_eq!(v, "response-bytes");
        t.join().expect("no panic in the second requester");
        let n = *lock_or_recover(&computed);
        assert!(
            n == 1 || n == 2,
            "at most one computation per flight window"
        );
        assert_eq!(map.open(), 0, "every flight must be cleared");
    });
    report.assert_ok();
    assert_eq!(
        report.timeout_executions, 0,
        "a follower needed its timeout fallback: a notification was lost"
    );
}

#[test]
fn coalescing_three_threads_identical_bytes() {
    // Three requesters, preemption bound 2: the follower queue can hold
    // two parked threads when the leader publishes; notify_all must
    // wake both.
    let report = Explorer::new(2).max_executions(50_000).check(|| {
        let map = Arc::new(FlightMap::<String>::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let map = Arc::clone(&map);
                spawn(move || {
                    let v = outcome_value(map.run_or_follow(7, || "shared".to_string()));
                    assert_eq!(v, "shared");
                })
            })
            .collect();
        let v = outcome_value(map.run_or_follow(7, || "shared".to_string()));
        assert_eq!(v, "shared");
        for h in handles {
            h.join().expect("requester ok");
        }
        assert_eq!(map.open(), 0);
    });
    report.assert_ok();
    assert_eq!(report.timeout_executions, 0, "lost notification");
}

#[test]
fn leader_panic_frees_followers_and_the_key() {
    // The leader-panic race from ISSUE 9: under every schedule the
    // follower must observe either the healthy value (it led, or it
    // followed a flight that resolved before the panicking leader's —
    // impossible here with one flight, but the contract allows it) or
    // `LeaderFailed` — never a hang. The key must be reusable after.
    let report = Explorer::new(2).check(|| {
        let map = Arc::new(FlightMap::<String>::new());
        let m2 = Arc::clone(&map);
        let leader = spawn(move || {
            let _ = m2.run_or_follow(9, || -> String { panic!("leader died mid-flight") });
        });
        let follower_saw = match map.run_or_follow(9, || "healthy".to_string()) {
            FlightOutcome::Led(v) | FlightOutcome::Followed(v) => v,
            FlightOutcome::LeaderFailed => {
                // Re-dispatch, as the Dispatcher does: the panicked
                // leader's unwind cleared the flight, so the retry
                // leads a healthy one.
                outcome_value(map.run_or_follow(9, || "healthy".to_string()))
            }
        };
        assert_eq!(follower_saw, "healthy");
        // Which thread led is schedule-dependent: if the panicking
        // closure actually led, its thread unwound (join reports the
        // panic); if it coalesced onto the healthy flight first, it
        // returned normally. Both are correct — what may never happen
        // is a hang or a stale flight.
        if let Err(err) = leader.join() {
            assert!(err.contains("leader died"), "got: {err}");
        }
        assert_eq!(map.open(), 0, "the unwind path must clear the flight");
    });
    report.assert_ok();
    assert_eq!(report.timeout_executions, 0, "lost notification");
}

#[test]
fn eviction_races_publication_coherently() {
    // The cache-eviction race: one thread leads a flight that inserts
    // into a capacity-1 response cache (as `Dispatcher::cached_dispatch`
    // does inside the flight); a second thread concurrently inserts a
    // different key, evicting the first. Every interleaving must leave
    // the cache internally consistent (len == 1, the surviving entry
    // intact) and both threads with correct values.
    let report = Explorer::new(2).check(|| {
        let cache = Arc::new(Mutex::new(BoundedFifoCache::<String>::new(1)));
        let map = Arc::new(FlightMap::<String>::new());
        let c2 = Arc::clone(&cache);
        let evictor = spawn(move || {
            lock_or_recover(&c2).insert(2, "evictor".to_string());
        });
        let led = outcome_value(map.run_or_follow(1, || {
            let v = "published".to_string();
            lock_or_recover(&cache).insert(1, v.clone());
            v
        }));
        assert_eq!(led, "published");
        evictor.join().expect("evictor ok");
        let cache = lock_or_recover(&cache);
        assert_eq!(
            cache.len(),
            1,
            "capacity-1 cache holds exactly the survivor"
        );
        let survivor_coherent = match (cache.get(1), cache.get(2)) {
            (Some(v), None) => v == "published",
            (None, Some(v)) => v == "evictor",
            _ => false,
        };
        assert!(survivor_coherent, "torn cache state");
    });
    report.assert_ok();
    assert_eq!(report.timeout_executions, 0, "lost notification");
}

#[test]
fn sharded_cache_same_key_race_is_consistent() {
    // Two threads racing `get_or_insert_with` on one key of the
    // process-global memo structure: both must observe the same pure
    // value under every schedule, and the losing insert is harmless.
    let report = Explorer::new(2).check(|| {
        let cache = Arc::new(ShardedCache::<u64, u64>::new());
        let c2 = Arc::clone(&cache);
        let t = spawn(move || {
            assert_eq!(c2.get_or_insert_with(5, || 25), 25);
        });
        assert_eq!(cache.get_or_insert_with(5, || 25), 25);
        t.join().expect("racer ok");
        assert_eq!(cache.len(), 1);
    });
    report.assert_ok();
}

#[test]
fn trace_query_racing_search_query_distinct_keys() {
    // The ISSUE's "same-key trace query racing a search query" shape:
    // two *different* canonical keys in flight at once (a trace and a
    // search hash never collide) plus one coalescing follower on the
    // search key. Flights must stay independent: no cross-key wakeup,
    // no deadlock, both values correct.
    let report = Explorer::new(2).max_executions(50_000).check(|| {
        let map = Arc::new(FlightMap::<String>::new());
        const TRACE_KEY: u64 = 0x7ace;
        const SEARCH_KEY: u64 = 0x5ea7c4;
        let (m2, m3) = (Arc::clone(&map), Arc::clone(&map));
        let trace = spawn(move || {
            let v = outcome_value(m2.run_or_follow(TRACE_KEY, || "trace-bytes".to_string()));
            assert_eq!(v, "trace-bytes");
        });
        let search_follower = spawn(move || {
            let v = outcome_value(m3.run_or_follow(SEARCH_KEY, || "search-bytes".to_string()));
            assert_eq!(v, "search-bytes");
        });
        let v = outcome_value(map.run_or_follow(SEARCH_KEY, || "search-bytes".to_string()));
        assert_eq!(v, "search-bytes");
        trace.join().expect("trace ok");
        search_follower.join().expect("search follower ok");
        assert_eq!(map.open(), 0);
    });
    report.assert_ok();
    assert_eq!(report.timeout_executions, 0, "lost notification");
}

/// One requester's path through the response cache and the flight
/// table, counting computations: the shape `Dispatcher::cached_dispatch`
/// runs for every cacheable query.
type CachedDispatch =
    fn(&Mutex<BoundedFifoCache<String>>, &FlightMap<Result<String, String>>, &Mutex<u32>) -> String;

const CACHED_KEY: u64 = 0xcac4e;

fn cached_dispatch(
    responses: &Mutex<BoundedFifoCache<String>>,
    flights: &FlightMap<Result<String, String>>,
    computed: &Mutex<u32>,
) -> String {
    let outcome = cached_run_or_follow(responses, flights, CACHED_KEY, || {
        *lock_or_recover(computed) += 1;
        Ok("response-bytes".to_string())
    });
    match outcome {
        CachedOutcome::Hit(r) | CachedOutcome::Computed(r) | CachedOutcome::Followed(r) => {
            r.unwrap_or_else(|e| e)
        }
        CachedOutcome::LeaderFailed => "LEADER_FAILED".to_string(),
    }
}

/// Two requesters for one cacheable key: whatever the schedule, both
/// get the same bytes and the answer is computed exactly once, because
/// it stays in the response cache once the first flight closes.
fn computes_once_scenario(dispatch: CachedDispatch) {
    let responses = Arc::new(Mutex::new(BoundedFifoCache::<String>::new(4)));
    let flights = Arc::new(FlightMap::<Result<String, String>>::new());
    let computed = Arc::new(Mutex::new(0u32));
    let (r2, f2, c2) = (
        Arc::clone(&responses),
        Arc::clone(&flights),
        Arc::clone(&computed),
    );
    let t = spawn(move || assert_eq!(dispatch(&r2, &f2, &c2), "response-bytes"));
    assert_eq!(dispatch(&responses, &flights, &computed), "response-bytes");
    t.join().expect("no panic in the second requester");
    let n = *lock_or_recover(&computed);
    assert_eq!(
        n, 1,
        "computed {n} times: a caller led a second flight after the first closed"
    );
    assert_eq!(flights.open(), 0, "every flight must be cleared");
}

#[test]
fn cached_dispatch_computes_once_in_every_schedule() {
    let report = Explorer::new(2)
        .max_executions(50_000)
        .check(|| computes_once_scenario(cached_dispatch));
    report.assert_ok();
    assert_eq!(report.timeout_executions, 0, "lost notification");
}

// ---------------------------------------------------------------------
// Mutation checks: broken protocol variants the battery must catch.
// ---------------------------------------------------------------------

/// The cache-then-flight composition without the leader's re-check: a
/// caller that misses the cache just before the first leader fills it,
/// and opens its flight just after that flight closes, computes again.
fn broken_cached_dispatch(
    responses: &Mutex<BoundedFifoCache<String>>,
    flights: &FlightMap<Result<String, String>>,
    computed: &Mutex<u32>,
) -> String {
    if let Some(hit) = lock_or_recover(responses).get(CACHED_KEY) {
        return hit;
    }
    let outcome = flights.run_or_follow(CACHED_KEY, || {
        *lock_or_recover(computed) += 1;
        let v = "response-bytes".to_string();
        lock_or_recover(responses).insert(CACHED_KEY, v.clone());
        Ok(v)
    });
    match outcome {
        FlightOutcome::Led(r) | FlightOutcome::Followed(r) => r.unwrap_or_else(|e| e),
        FlightOutcome::LeaderFailed => "LEADER_FAILED".to_string(),
    }
}

#[test]
fn broken_cache_recheck_is_caught_with_replayable_schedule() {
    let report = Explorer::new(2).check(|| computes_once_scenario(broken_cached_dispatch));
    let failure = report
        .failure
        .expect("the second computation must be found");
    assert!(
        matches!(&failure.kind, FailureKind::Panic(m) if m.contains("computed 2 times")),
        "{failure}"
    );
    let replayed = Explorer::new(2)
        .replay(&failure.schedule, || {
            computes_once_scenario(broken_cached_dispatch)
        })
        .expect("the minimized schedule must reproduce the second computation");
    assert_eq!(replayed.kind, failure.kind);
}

/// A deliberately broken flight: the follower samples the slot, drops
/// the lock, and parks *unboundedly* without re-checking — the exact
/// lost-wakeup bug `FlightMap::await_resolved`'s predicate loop and
/// LOCK002 exist to prevent.
struct BrokenFlight {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl BrokenFlight {
    fn new() -> BrokenFlight {
        BrokenFlight {
            ready: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn publish(&self) {
        *lock_or_recover(&self.ready) = true;
        self.cv.notify_all();
    }

    fn broken_await(&self) {
        let sampled = *lock_or_recover(&self.ready); // guard dropped here
        if !sampled {
            let g = lock_or_recover(&self.ready);
            // No re-check, no bound: the publish can land in the gap
            // above, and this parks forever.
            let _g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[test]
fn broken_follower_wait_is_caught_with_minimal_schedule() {
    // The flight is built *inside* the body: the explorer re-runs the
    // closure once per schedule, and each execution must start from
    // fresh state.
    fn body() {
        let flight = Arc::new(BrokenFlight::new());
        let f2 = Arc::clone(&flight);
        let leader = spawn(move || f2.publish());
        flight.broken_await();
        leader.join().expect("leader ok");
    }
    let report = Explorer::new(2).check(body);
    let failure = report.failure.expect("the lost wakeup must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    // The minimized schedule must replay: this is what gets committed
    // as a regression input when the checker finds a real protocol bug.
    let replayed = Explorer::new(2)
        .replay(&failure.schedule, body)
        .expect("minimized schedule must reproduce the deadlock");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
    assert!(
        failure.schedule.len() <= 6,
        "shrinker left a non-minimal schedule: {:?}",
        failure.schedule
    );
}

#[test]
fn lock_order_inversion_in_protocol_shape_is_caught() {
    // A flights→slot / slot→flights inversion — the hierarchy violation
    // LOCK001 flags statically — must also be caught dynamically.
    let report = Explorer::new(2).check(|| {
        let flights = Arc::new(Mutex::new(0u32));
        let slot = Arc::new(Mutex::new(0u32));
        let (f2, s2) = (Arc::clone(&flights), Arc::clone(&slot));
        let t = spawn(move || {
            let _f = lock_or_recover(&f2);
            let _s = lock_or_recover(&s2);
        });
        {
            // Inverted: slot before flights.
            let _s = lock_or_recover(&slot);
            let _f = lock_or_recover(&flights);
        }
        let _ = t.join();
    });
    assert!(
        matches!(
            report.failure,
            Some(ref f) if f.kind == FailureKind::Deadlock
        ),
        "the inversion deadlock must be found: {:?}",
        report.failure
    );
}

#[test]
fn exploration_of_the_protocol_is_deterministic() {
    let run = || {
        let report = Explorer::new(2).check(|| {
            let map = Arc::new(FlightMap::<String>::new());
            let m2 = Arc::clone(&map);
            let t = spawn(move || {
                let _ = m2.run_or_follow(3, || "x".to_string());
            });
            let _ = map.run_or_follow(3, || "x".to_string());
            t.join().expect("ok");
        });
        (
            report.executions,
            report.timeout_executions,
            report.complete,
        )
    };
    let first = run();
    assert!(first.2, "the frontier must be exhausted");
    for _ in 0..2 {
        assert_eq!(run(), first, "same protocol, same exploration");
    }
}
