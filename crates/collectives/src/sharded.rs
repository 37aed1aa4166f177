//! A sharded, process-wide concurrent memo table.
//!
//! The simulator's memo layers (collective costs here, pre-flight
//! verdicts in `parallelism_core::search`) started life thread-local:
//! each sweep worker warmed a private table, and a concurrent server
//! re-priced identical group shapes once per connection thread. This
//! module is the shared replacement: a `HashMap` split over `N`
//! [`RwLock`] shards (readers never contend with each other; writers
//! contend only within one shard) plus hit/miss counters so cache
//! effectiveness is observable from the `stats` query and the serve
//! benchmark.
//!
//! Values must be cheap to clone (the cached types are `Copy`-sized:
//! durations, booleans) and lookups must be *pure* with respect to the
//! key — two threads racing to insert the same key must compute the
//! same value, so the losing insert is harmless. Every memo layer in
//! the repo satisfies this by construction (keys carry every input of
//! the computation, floats by bit pattern).

use interleave::sync::{read_or_recover, write_or_recover, AtomicU64, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::Ordering;

/// Observable state of one memo layer: lifetime hit/miss counters and
/// the current entry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that missed (the caller computed and inserted).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups, `0.0` when the cache was never queried.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of shards. A power of two comfortably above the machine's
/// core count keeps writer contention negligible without bloating the
/// table.
const SHARDS: usize = 32;

/// A concurrent map sharded over [`SHARDS`] `RwLock`-protected
/// `HashMap`s, with hit/miss accounting.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        ShardedCache::new()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// An empty cache.
    pub fn new() -> ShardedCache<K, V> {
        ShardedCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % SHARDS]
    }

    /// Looks `key` up, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        // A panic on another thread must not wedge the daemon: every
        // lock in this module recovers from poisoning (sound because
        // each map operation is a single atomic statement; see the
        // `interleave::sync` module docs).
        let hit = read_or_recover(self.shard(key)).get(key).cloned();
        match hit {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `key → value`. Racing inserts of the same key are
    /// harmless when lookups are pure (both threads computed the same
    /// value).
    pub fn insert(&self, key: K, value: V) {
        write_or_recover(self.shard(&key)).insert(key, value);
    }

    /// Looks `key` up; on a miss, computes the value with `compute`,
    /// inserts it and returns it. `compute` runs outside any lock, so
    /// concurrent missers may compute redundantly but never deadlock —
    /// request-level coalescing is the server's job, not the cache's.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| read_or_recover(shard).len())
            .sum()
    }

    /// `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every shard (counters are preserved; see
    /// [`ShardedCache::reset_stats`]).
    pub fn clear(&self) {
        for shard in &self.shards {
            write_or_recover(shard).clear();
        }
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// A snapshot of the counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn get_insert_and_stats_account_correctly() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get_or_insert_with(2, || 20), 20);
        assert_eq!(c.get_or_insert_with(2, || unreachable!()), 20);
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits, 2); // get(&1) after insert + the memoized get_or_insert
        assert_eq!(s.misses, 2); // the first get(&1) + the first get_or_insert probe
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        c.clear();
        assert!(c.is_empty());
        c.reset_stats();
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                entries: 0
            }
        );
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let c: ShardedCache<u64, u64> = ShardedCache::new();
        let threads = 8u64;
        let barrier = Barrier::new(threads as usize);
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = &c;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..256u64 {
                        // Pure: every thread computes the same value.
                        let v = c.get_or_insert_with(k, || k * k);
                        assert_eq!(v, k * k, "thread {t} saw a torn value");
                    }
                });
            }
        });
        assert_eq!(c.len(), 256);
        let s = c.stats();
        assert!(s.hits > 0, "{s:?}");
        assert!(s.misses >= 256, "{s:?}");
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let c: ShardedCache<u8, u8> = ShardedCache::new();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}
