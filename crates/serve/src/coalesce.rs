//! Request coalescing and bounded caching, factored out of the
//! dispatcher so the protocol itself is a checkable unit.
//!
//! [`FlightMap`] implements leader/follower coalescing: the first
//! thread to ask for a key becomes the **leader** and computes; every
//! identical request arriving while the flight is open parks as a
//! **follower** and receives a clone of the leader's value. Three
//! properties the interleave battery verifies exhaustively (see
//! `crates/interleave/tests/dispatcher_protocol.rs` and DESIGN.md §13):
//!
//! * **Deadlock freedom.** Followers wait in a predicate loop with a
//!   bounded [`Condvar::wait_timeout`] fallback, and the slot lock is
//!   never held while touching the flight table (lock hierarchy:
//!   `flights` before `slot`, never the reverse).
//! * **No lost notifications.** The leader publishes under the slot
//!   lock and notifies while the slot is already resolved, so a
//!   follower either sees the resolved slot before parking or is woken
//!   by the notify; the bounded timeout is a safety net the model
//!   proves is never needed (`timeout_executions == 0`).
//! * **Panic containment.** The leader arms a drop guard *before*
//!   computing: if the computation panics, the unwind publishes
//!   [`Slot::Failed`] and clears the flight, so followers observe
//!   [`FlightOutcome::LeaderFailed`] — an error they can re-dispatch
//!   on — instead of hanging on a flight nobody will ever finish.
//!
//! [`BoundedFifoCache`] is the dispatcher's newest-in-wins response
//! cache, factored here so eviction can race publication under the
//! model checker.
//!
//! [`Condvar::wait_timeout`]: interleave::sync::Condvar::wait_timeout

use interleave::sync::{lock_or_recover, Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Follower park quantum: long enough that the timeout fires only if a
/// wakeup was genuinely lost (the predicate loop makes a spurious fire
/// harmless), short enough that even that worst case only adds latency.
const FOLLOWER_WAIT: Duration = Duration::from_millis(50);

/// State of one in-flight computation.
enum Slot<V> {
    /// The leader is still computing.
    Pending,
    /// The leader published a value; followers clone it.
    Ready(V),
    /// The leader panicked; followers must re-dispatch.
    Failed,
}

/// One open flight: the slot plus the condvar followers park on.
struct Flight<V> {
    slot: Mutex<Slot<V>>,
    cv: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Flight<V> {
        Flight {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
        }
    }

    /// Resolves the slot and wakes every follower. Idempotent in the
    /// direction that matters: a `Ready` result is never downgraded to
    /// `Failed` (the drop guard also runs on the normal path).
    fn publish(&self, value: Option<V>) {
        let mut slot = lock_or_recover(&self.slot);
        if let Slot::Pending = *slot {
            *slot = match value {
                Some(v) => Slot::Ready(v),
                None => Slot::Failed,
            };
        }
        drop(slot);
        self.cv.notify_all();
    }

    /// Parks until the slot resolves. Predicate loop + bounded timeout:
    /// under the model checker the timeout transition only fires when a
    /// wakeup was lost, and the battery asserts it never is; in
    /// production it bounds the cost of any missed wakeup to one
    /// [`FOLLOWER_WAIT`] of latency.
    fn await_resolved(&self) -> Option<V> {
        let mut slot = lock_or_recover(&self.slot);
        loop {
            match &*slot {
                Slot::Ready(v) => return Some(v.clone()),
                Slot::Failed => return None,
                Slot::Pending => {
                    let (g, _timed_out) = self
                        .cv
                        .wait_timeout(slot, FOLLOWER_WAIT)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot = g;
                }
            }
        }
    }
}

/// How [`FlightMap::run_or_follow`] resolved a request.
pub enum FlightOutcome<V> {
    /// This thread led the flight and computed the value.
    Led(V),
    /// This thread coalesced onto another thread's flight.
    Followed(V),
    /// The flight's leader panicked before publishing. The caller
    /// should treat this as a transient error and re-dispatch (the
    /// retry will lead its own flight or follow a healthy one).
    LeaderFailed,
}

/// Removes the flight from the map and resolves its slot on drop —
/// armed before the leader computes, disarmed never: running on the
/// normal path too makes publication exactly-once by construction.
struct PublishGuard<'a, V: Clone> {
    map: &'a FlightMap<V>,
    key: u64,
    flight: &'a Arc<Flight<V>>,
    value: Option<V>,
}

impl<V: Clone> Drop for PublishGuard<'_, V> {
    fn drop(&mut self) {
        // Clear the flight *before* publishing: a request arriving
        // after the publish starts a fresh flight (probably hitting
        // the response cache first) rather than following a resolved
        // one. Hierarchy: `flights` strictly before `slot`.
        lock_or_recover(&self.map.flights).remove(&self.key);
        self.flight.publish(self.value.take());
    }
}

/// The coalescing flight table: at most one computation per key is in
/// flight at any time.
pub struct FlightMap<V> {
    flights: Mutex<HashMap<u64, Arc<Flight<V>>>>,
}

impl<V: Clone> Default for FlightMap<V> {
    fn default() -> FlightMap<V> {
        FlightMap::new()
    }
}

impl<V: Clone> FlightMap<V> {
    /// An empty flight table.
    pub fn new() -> FlightMap<V> {
        FlightMap {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Leads a new flight for `key` (running `compute`) or follows the
    /// one already open. If the leader panics, its unwind publishes the
    /// failure marker — the panic itself propagates to the leader's
    /// caller, while followers get [`FlightOutcome::LeaderFailed`].
    pub fn run_or_follow<F: FnOnce() -> V>(&self, key: u64, compute: F) -> FlightOutcome<V> {
        let (flight, leader) = {
            let mut flights = lock_or_recover(&self.flights);
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight::new());
                    flights.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            return match flight.await_resolved() {
                Some(v) => FlightOutcome::Followed(v),
                None => FlightOutcome::LeaderFailed,
            };
        }
        let mut guard = PublishGuard {
            map: self,
            key,
            flight: &flight,
            value: None,
        };
        let value = compute();
        guard.value = Some(value.clone());
        drop(guard);
        FlightOutcome::Led(value)
    }

    /// Number of currently open flights (followers may still hold
    /// references to resolved ones; those no longer count).
    pub fn open(&self) -> usize {
        lock_or_recover(&self.flights).len()
    }
}

/// How [`cached_run_or_follow`] answered.
pub enum CachedOutcome<V> {
    /// The response cache held the answer, either before the flight or
    /// on the leader's re-check inside it.
    Hit(V),
    /// This thread led the flight and computed the answer.
    Computed(V),
    /// This thread coalesced onto another thread's flight.
    Followed(V),
    /// The flight's leader panicked; re-dispatch.
    LeaderFailed,
}

/// The response cache composed with coalescing: one computation per key
/// while the answer stays cached.
///
/// A caller can miss the cache just before a leader inserts, then reach
/// [`FlightMap::run_or_follow`] just after that leader's flight closes,
/// and so lead a second flight. The leader therefore checks the cache
/// again before computing. The leader inserts before its flight closes,
/// so the re-check always sees the first leader's answer.
pub fn cached_run_or_follow<T: Clone, E: Clone>(
    responses: &Mutex<BoundedFifoCache<T>>,
    flights: &FlightMap<Result<T, E>>,
    key: u64,
    compute: impl FnOnce() -> Result<T, E>,
) -> CachedOutcome<Result<T, E>> {
    if let Some(hit) = lock_or_recover(responses).get(key) {
        return CachedOutcome::Hit(Ok(hit));
    }
    let mut rechecked_hit = false;
    let outcome = flights.run_or_follow(key, || {
        if let Some(hit) = lock_or_recover(responses).get(key) {
            rechecked_hit = true;
            return Ok(hit);
        }
        let result = compute();
        if let Ok(value) = &result {
            lock_or_recover(responses).insert(key, value.clone());
        }
        result
    });
    match outcome {
        FlightOutcome::Led(result) if rechecked_hit => CachedOutcome::Hit(result),
        FlightOutcome::Led(result) => CachedOutcome::Computed(result),
        FlightOutcome::Followed(result) => CachedOutcome::Followed(result),
        FlightOutcome::LeaderFailed => CachedOutcome::LeaderFailed,
    }
}

/// A bounded FIFO-eviction map: newest-in wins, oldest-in evicted.
/// Insertion order — not recency — decides eviction, which keeps the
/// structure O(1) without an access queue; the workloads this backs
/// (response memoization) are insert-once/read-many.
pub struct BoundedFifoCache<V> {
    entries: HashMap<u64, V>,
    order: VecDeque<u64>,
    cap: usize,
}

impl<V: Clone> BoundedFifoCache<V> {
    /// An empty cache evicting beyond `cap` entries.
    pub fn new(cap: usize) -> BoundedFifoCache<V> {
        BoundedFifoCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Clone of the cached value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        self.entries.get(&key).cloned()
    }

    /// Inserts (or replaces) `key`, evicting the oldest insertions
    /// beyond capacity.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.entries.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn leader_computes_followers_share() {
        let map = Arc::new(FlightMap::new());
        let computed = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (map, computed, barrier) = (
                    Arc::clone(&map),
                    Arc::clone(&computed),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    match map.run_or_follow(7, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        "value".to_string()
                    }) {
                        FlightOutcome::Led(v) | FlightOutcome::Followed(v) => v,
                        FlightOutcome::LeaderFailed => panic!("no leader panicked"),
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread ok"), "value");
        }
        // Coalescing is timing-dependent here (this is exactly what the
        // interleave battery pins down deterministically); the invariant
        // that always holds is one computation per open flight window.
        assert!(computed.load(Ordering::Relaxed) >= 1);
        assert_eq!(map.open(), 0, "every flight must be cleared");
    }

    #[test]
    fn leader_panic_publishes_failure_and_clears_flight() {
        let map = FlightMap::<String>::new();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            map.run_or_follow(1, || -> String { panic!("leader died") })
        }));
        assert!(panicked.is_err(), "the leader's own panic propagates");
        assert_eq!(map.open(), 0, "the unwind path must clear the flight");
        // The key is free again: a retry leads a fresh, healthy flight.
        match map.run_or_follow(1, || "retry".to_string()) {
            FlightOutcome::Led(v) => assert_eq!(v, "retry"),
            _ => panic!("retry must lead"),
        }
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let mut c = BoundedFifoCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1), None, "oldest insertion evicted");
        assert_eq!(c.get(2), Some("b"));
        assert_eq!(c.get(3), Some("c"));
        // Replacement does not double-count capacity.
        c.insert(2, "b2");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2), Some("b2"));
        assert_eq!(c.get(3), Some("c"));
    }
}
