//! Property tests for the decimation algebra behind [`TieredTrace`]:
//! the window-aggregate monoid, tier monotonicity, and zoom-level lane
//! ordering. Each property runs a fixed battery of deterministic,
//! seed-derived cases with greedy shrinking (vendored proptest).

use proptest::prelude::*;
use trace_analysis::tiered::{
    category_index, TierConfig, TieredTrace, WindowStats, CATEGORIES, NUM_CATEGORIES,
};
use trace_analysis::TraceEvent;

/// Materializes `(rank, gap, duration, category)` draws as a
/// time-ordered event stream (starts are cumulative gaps, like a real
/// emitter's per-step lanes).
fn events_from(raw: &[(u32, u64, u64, usize)]) -> Vec<TraceEvent> {
    let mut clock = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(rank, gap, dur, cat))| {
            clock += gap;
            TraceEvent {
                rank,
                name: format!("e{i}").into(),
                category: CATEGORIES[cat % NUM_CATEGORIES],
                start_ns: clock,
                duration_ns: dur,
            }
        })
        .collect()
}

fn filled(events: &[TraceEvent], cfg: TierConfig) -> TieredTrace {
    let mut store = TieredTrace::new(cfg);
    for e in events {
        store.append(e.clone());
    }
    store
}

/// One draw of raw event material: enough to overflow tiny towers but
/// cheap enough for a 48-case battery.
fn raw_events() -> impl Strategy<Value = Vec<(u32, u64, u64, usize)>> {
    prop::collection::vec((0u32..6, 0u64..300, 1u64..1000, 0usize..6), 3..240)
}

proptest! {
    #[test]
    fn merge_is_associative_on_adjacent_splits(
        raw in raw_events(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        let events = events_from(&raw);
        let n = events.len();
        let (i, j) = (a.index(n).min(b.index(n)), a.index(n).max(b.index(n)));
        let w = |lo: usize, hi: usize| WindowStats::from_run(lo as u64, events[lo..hi].iter());
        let (wa, wb, wc) = (w(0, i), w(i, j), w(j, n));
        let left = wa.merge(&wb).merge(&wc);
        let right = wa.merge(&wb.merge(&wc));
        prop_assert_eq!(&left, &right);
        // And the fold equals folding the raw events directly — the
        // property that makes tower aggregates exact at every tier.
        prop_assert_eq!(&left, &w(0, n));
    }

    #[test]
    fn tier_merges_are_monotone_and_conserve_sums(
        raw in raw_events(),
        tier0_pow in 3u32..6,
        chunk in 1usize..6,
    ) {
        let events = events_from(&raw);
        let store = filled(&events, TierConfig::tiny(1 << tier0_pow, chunk));
        prop_assert_eq!(store.check_integrity(), Ok(()));

        // Resident windows in global (oldest → newest) order tile the
        // evicted raw-index region, so consecutive windows are adjacent.
        let mut windows: Vec<WindowStats> = Vec::new();
        store.for_each_window(|_, w| windows.push(w.clone()));
        for pair in windows.windows(2) {
            let (wa, wb) = (&pair[0], &pair[1]);
            prop_assert_eq!(wa.first_index + wa.events, wb.first_index);
            let merged = wa.merge(wb);
            // Child stats stay within the merged parent's bounds: sums
            // add exactly, extrema are contained.
            prop_assert_eq!(merged.events, wa.events + wb.events);
            prop_assert_eq!(merged.start_ns, wa.start_ns.min(wb.start_ns));
            prop_assert_eq!(merged.end_ns, wa.end_ns.max(wb.end_ns));
            prop_assert!(merged.max_duration_ns >= wa.max_duration_ns.max(wb.max_duration_ns));
            prop_assert_eq!(merged.busy_total_ns(), wa.busy_total_ns() + wb.busy_total_ns());
            for (rank, r) in &merged.per_rank {
                let child_gap = [wa, wb]
                    .iter()
                    .filter_map(|w| w.per_rank.get(rank).map(|c| c.max_gap_ns))
                    .max()
                    .unwrap_or(0);
                prop_assert!(r.max_gap_ns >= child_gap);
            }
        }

        // Busy time is conserved exactly across the whole tower, no
        // matter how deep the cascade went.
        let totals = store.rank_totals();
        let mut expect = std::collections::BTreeMap::new();
        for e in &events {
            expect.entry(e.rank).or_insert([0u64; NUM_CATEGORIES])
                [category_index(e.category)] += e.duration_ns;
        }
        prop_assert_eq!(totals, expect);
    }

    #[test]
    fn sampled_lanes_are_time_monotone_at_every_zoom(
        raw in raw_events(),
        zoom in 0u32..8,
        tier0_pow in 3u32..6,
        chunk in 1usize..6,
    ) {
        let events = events_from(&raw);
        let store = filled(&events, TierConfig::tiny(1 << tier0_pow, chunk));
        let t = store.sampled(zoom);
        prop_assert!(t.len() <= events.len());
        for rank in t.ranks() {
            let mut last = 0u64;
            for e in t.events_for_rank(rank) {
                prop_assert!(
                    e.start_ns >= last,
                    "rank {rank} lane goes back in time at zoom {zoom}: {} after {last}",
                    e.start_ns
                );
                last = e.start_ns;
            }
        }
        // Decimating further can only drop events, never add them.
        prop_assert!(store.sampled(zoom + 1).len() <= t.len());
    }
}
