//! Per-rank memory accounting.
//!
//! The simulator tracks allocation and release *events* on named pools
//! (one pool per GPU rank in practice) against the simulated timeline,
//! then replays them to produce peak usage and a usage timeline. This is
//! the machinery behind the gradient-memory-lifetime study (Fig 4) and
//! the balanced-pipeline memory comparison (Fig 10).

use crate::time::SimTime;
use std::fmt;

/// Identifies a memory pool (typically one GPU rank's HBM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

impl fmt::Display for PoolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool{}", self.0)
    }
}

/// One allocation (+) or release (−) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// The pool affected.
    pub pool: PoolId,
    /// When the event takes effect.
    pub at: SimTime,
    /// Signed byte delta.
    pub delta: i64,
}

/// A point on a pool's usage timeline: usage in bytes from `at` until the
/// next point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSample {
    /// Instant the usage changed.
    pub at: SimTime,
    /// Usage in bytes from this instant.
    pub bytes: u64,
}

/// Collects memory events and computes per-pool peaks and timelines.
///
/// ```
/// use sim_engine::memory::{MemoryTracker, PoolId};
/// use sim_engine::time::SimTime;
///
/// let mut m = MemoryTracker::new(1);
/// let p = PoolId(0);
/// m.record(p, SimTime::from_nanos(0), 100);
/// m.record(p, SimTime::from_nanos(10), 50);
/// m.record(p, SimTime::from_nanos(20), -120);
/// assert_eq!(m.peak(p), 150);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    events: Vec<MemEvent>,
    pools: usize,
    /// Baseline bytes counted into every query (e.g. parameters resident
    /// for the whole step), per pool.
    baseline: Vec<u64>,
}

impl MemoryTracker {
    /// Creates a tracker for `pools` pools, all with zero baseline.
    pub fn new(pools: usize) -> Self {
        MemoryTracker {
            events: Vec::new(),
            pools,
            baseline: vec![0; pools],
        }
    }

    /// Number of pools.
    pub fn pool_count(&self) -> usize {
        self.pools
    }

    /// Sets a constant baseline (bytes resident for the entire timeline)
    /// for one pool.
    ///
    /// # Panics
    /// Panics if `pool` is out of range.
    pub fn set_baseline(&mut self, pool: PoolId, bytes: u64) {
        self.baseline[pool.0 as usize] = bytes;
    }

    /// The baseline of one pool.
    pub fn baseline(&self, pool: PoolId) -> u64 {
        self.baseline[pool.0 as usize]
    }

    /// Records a signed delta on `pool` at time `at`.
    ///
    /// # Panics
    /// Panics if `pool` is out of range.
    pub fn record(&mut self, pool: PoolId, at: SimTime, delta: i64) {
        assert!((pool.0 as usize) < self.pools, "unknown {pool}");
        if delta != 0 {
            self.events.push(MemEvent { pool, at, delta });
        }
    }

    /// Peak usage of one pool in bytes (baseline included).
    ///
    /// Events at the same instant are netted before the peak is sampled,
    /// so a free and an alloc at the same time do not create a phantom
    /// spike regardless of recording order.
    pub fn peak(&self, pool: PoolId) -> u64 {
        self.timeline(pool)
            .iter()
            .map(|s| s.bytes)
            .max()
            .unwrap_or(self.baseline(pool))
    }

    /// Peak usage across all pools: `(pool, bytes)` of the highest pool.
    pub fn global_peak(&self) -> (PoolId, u64) {
        (0..self.pools as u32)
            .map(|p| (PoolId(p), self.peak(PoolId(p))))
            .max_by_key(|&(_, b)| b)
            .unwrap_or((PoolId(0), 0))
    }

    /// Peak usage of every pool, indexed by pool id.
    pub fn peaks(&self) -> Vec<u64> {
        (0..self.pools as u32)
            .map(|p| self.peak(PoolId(p)))
            .collect()
    }

    /// Usage timeline of one pool: steps sorted by time, same-instant
    /// events netted, baseline included. The first sample is at
    /// [`SimTime::ZERO`] with the baseline.
    pub fn timeline(&self, pool: PoolId) -> Vec<MemSample> {
        let mut evs: Vec<&MemEvent> = self.events.iter().filter(|e| e.pool == pool).collect();
        evs.sort_by_key(|e| e.at);
        let mut out = vec![MemSample {
            at: SimTime::ZERO,
            bytes: self.baseline(pool),
        }];
        let mut cur = self.baseline(pool) as i64;
        let mut i = 0;
        while i < evs.len() {
            let t = evs[i].at;
            let mut net = 0i64;
            while i < evs.len() && evs[i].at == t {
                net += evs[i].delta;
                i += 1;
            }
            cur += net;
            assert!(cur >= 0, "{pool} usage went negative at {t}");
            if t == SimTime::ZERO {
                out[0].bytes = cur as u64;
            } else {
                out.push(MemSample {
                    at: t,
                    bytes: cur as u64,
                });
            }
        }
        out
    }

    /// Final (end-of-timeline) usage of one pool.
    pub fn final_usage(&self, pool: PoolId) -> u64 {
        self.timeline(pool).last().map(|s| s.bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn peak_and_timeline() {
        let mut m = MemoryTracker::new(2);
        let p = PoolId(0);
        m.record(p, t(0), 100);
        m.record(p, t(5), 200);
        m.record(p, t(9), -250);
        m.record(p, t(12), 10);
        assert_eq!(m.peak(p), 300);
        assert_eq!(m.final_usage(p), 60);
        let tl = m.timeline(p);
        assert_eq!(
            tl,
            vec![
                MemSample {
                    at: t(0),
                    bytes: 100
                },
                MemSample {
                    at: t(5),
                    bytes: 300
                },
                MemSample {
                    at: t(9),
                    bytes: 50
                },
                MemSample {
                    at: t(12),
                    bytes: 60
                },
            ]
        );
    }

    #[test]
    fn same_instant_events_are_netted() {
        let mut m = MemoryTracker::new(1);
        let p = PoolId(0);
        m.record(p, t(0), 100);
        // Free-then-alloc at the same instant, recorded alloc-first: must
        // not register a 200-byte phantom peak.
        m.record(p, t(4), 100);
        m.record(p, t(4), -100);
        assert_eq!(m.peak(p), 100);
    }

    #[test]
    fn baseline_included() {
        let mut m = MemoryTracker::new(1);
        let p = PoolId(0);
        m.set_baseline(p, 1000);
        m.record(p, t(3), 500);
        m.record(p, t(6), -500);
        assert_eq!(m.peak(p), 1500);
        assert_eq!(m.final_usage(p), 1000);
        assert_eq!(m.timeline(p)[0].bytes, 1000);
    }

    #[test]
    fn global_peak_picks_largest_pool() {
        let mut m = MemoryTracker::new(3);
        m.record(PoolId(0), t(0), 10);
        m.record(PoolId(1), t(0), 30);
        m.record(PoolId(2), t(0), 20);
        assert_eq!(m.global_peak(), (PoolId(1), 30));
    }

    #[test]
    fn empty_pool_peak_is_baseline() {
        let mut m = MemoryTracker::new(1);
        m.set_baseline(PoolId(0), 7);
        assert_eq!(m.peak(PoolId(0)), 7);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_usage_panics() {
        let mut m = MemoryTracker::new(1);
        m.record(PoolId(0), t(0), -1);
        let _ = m.peak(PoolId(0));
    }

    #[test]
    fn out_of_order_recording_is_sorted() {
        let mut m = MemoryTracker::new(1);
        let p = PoolId(0);
        m.record(p, t(10), -50);
        m.record(p, t(0), 100);
        m.record(p, t(5), 25);
        assert_eq!(m.peak(p), 125);
        assert_eq!(m.final_usage(p), 75);
    }
}
