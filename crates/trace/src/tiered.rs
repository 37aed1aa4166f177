//! Tiered trace storage: RRD-style tower sampling for multi-day runs.
//!
//! A 24 h 16K-GPU run emits far too many events to retain at full
//! resolution, but the simulator's bit-exact determinism means lossy
//! storage is safe: any decimated region can be re-derived exactly by
//! replaying from a nearby checkpoint. [`TieredTrace`] exploits this:
//!
//! * **Tier 0** holds the last `B` events at full resolution (a bounded
//!   ring).
//! * **Tier k ≥ 1** holds a deterministic `1/2^k` decimation of an older
//!   region — exactly the events whose global append index is a
//!   multiple of `2^k` — plus exact per-window aggregates
//!   ([`WindowStats`]: busy time per rank per category, event counts,
//!   max idle lag) computed from full-resolution data *before* the
//!   events were thinned and merged losslessly upward ever since.
//!
//! Total storage is `O(B · log N)` for an `N`-event run. Because the
//! decimation rule is a pure function of the global append index, a
//! window rematerialized by replay ([`ReplaySource`]) decimates to the
//! byte-identical view the store would have produced had it kept
//! everything — the replay-exactness property oracle 9 verifies.

use crate::format::{EventCategory, Trace, TraceEvent};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Number of [`EventCategory`] variants (the width of per-category
/// aggregate arrays).
pub const NUM_CATEGORIES: usize = 6;

/// All categories, in aggregate-array index order.
pub const CATEGORIES: [EventCategory; NUM_CATEGORIES] = [
    EventCategory::Compute,
    EventCategory::TpComm,
    EventCategory::CpComm,
    EventCategory::PpComm,
    EventCategory::DpComm,
    EventCategory::Other,
];

/// Index of a category in per-category aggregate arrays.
pub fn category_index(cat: EventCategory) -> usize {
    match cat {
        EventCategory::Compute => 0,
        EventCategory::TpComm => 1,
        EventCategory::CpComm => 2,
        EventCategory::PpComm => 3,
        EventCategory::DpComm => 4,
        EventCategory::Other => 5,
    }
}

/// Per-rank aggregate over one window of consecutive events.
///
/// The fields form a monoid under [`RankWindowStats`] concatenation of
/// *adjacent* windows (same event stream, left window strictly before
/// the right in append order), which is what makes tier-k aggregates
/// exactly equal to the fold of their tier-(k−1) constituents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankWindowStats {
    /// Events on this rank inside the window.
    pub events: u64,
    /// Busy nanoseconds by category (index via [`category_index`]).
    /// Sums of full-resolution durations — exact at every tier.
    pub busy_ns: [u64; NUM_CATEGORIES],
    /// Start of this rank's first event in the window.
    pub first_start_ns: u64,
    /// End of this rank's *last* event in append order (not the max
    /// end — using the last event keeps the merge associative even for
    /// overlapping lanes).
    pub last_end_ns: u64,
    /// Largest idle gap between consecutive events of this rank
    /// (`next.start − prev.end`, floored at zero) — the "max lag".
    pub max_gap_ns: u64,
}

impl RankWindowStats {
    /// Total busy nanoseconds across all categories.
    pub fn busy_total_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Busy nanoseconds for one category.
    pub fn busy(&self, cat: EventCategory) -> u64 {
        self.busy_ns[category_index(cat)]
    }

    /// Communication nanoseconds (all four comm categories).
    pub fn comm_ns(&self) -> u64 {
        self.busy_ns[1] + self.busy_ns[2] + self.busy_ns[3] + self.busy_ns[4]
    }

    /// Folds the next event of this rank (append order).
    fn fold(&mut self, ev: &TraceEvent) {
        if self.events == 0 {
            self.first_start_ns = ev.start_ns;
        } else {
            let gap = ev.start_ns.saturating_sub(self.last_end_ns);
            self.max_gap_ns = self.max_gap_ns.max(gap);
        }
        self.events += 1;
        self.busy_ns[category_index(ev.category)] += ev.duration_ns;
        self.last_end_ns = ev.start_ns + ev.duration_ns;
    }

    fn merge(&self, later: &RankWindowStats) -> RankWindowStats {
        let mut busy = self.busy_ns;
        for (b, l) in busy.iter_mut().zip(later.busy_ns.iter()) {
            *b += l;
        }
        let boundary_gap = later.first_start_ns.saturating_sub(self.last_end_ns);
        RankWindowStats {
            events: self.events + later.events,
            busy_ns: busy,
            first_start_ns: self.first_start_ns,
            last_end_ns: later.last_end_ns,
            max_gap_ns: self.max_gap_ns.max(later.max_gap_ns).max(boundary_gap),
        }
    }
}

/// Exact aggregate over a window of consecutive events.
///
/// Computed from full-resolution events when a chunk leaves tier 0 and
/// merged pairwise as windows migrate to coarser tiers; every numeric
/// field stays exact (integer sums, min/max) at every tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStats {
    /// Global append index of the window's first event.
    pub first_index: u64,
    /// Number of full-resolution events folded in (the window covers
    /// raw indices `first_index .. first_index + events`).
    pub events: u64,
    /// Earliest event start in the window.
    pub start_ns: u64,
    /// Latest event end in the window.
    pub end_ns: u64,
    /// Longest single event duration.
    pub max_duration_ns: u64,
    /// Per-rank aggregates.
    pub per_rank: BTreeMap<u32, RankWindowStats>,
}

impl WindowStats {
    /// The empty window anchored at `first_index` (merge identity).
    pub fn empty(first_index: u64) -> WindowStats {
        WindowStats {
            first_index,
            events: 0,
            start_ns: u64::MAX,
            end_ns: 0,
            max_duration_ns: 0,
            per_rank: BTreeMap::new(),
        }
    }

    /// Folds a run of consecutive events (in append order) starting at
    /// global index `first_index`.
    pub fn from_run<'a>(
        first_index: u64,
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) -> WindowStats {
        let mut w = WindowStats::empty(first_index);
        for ev in events {
            w.fold_event(ev);
        }
        w
    }

    fn fold_event(&mut self, ev: &TraceEvent) {
        self.fold_window_fields(ev);
        self.per_rank.entry(ev.rank).or_default().fold(ev);
    }

    /// Folds an event into the window-wide fields only.
    fn fold_window_fields(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.start_ns = self.start_ns.min(ev.start_ns);
        self.end_ns = self.end_ns.max(ev.start_ns + ev.duration_ns);
        self.max_duration_ns = self.max_duration_ns.max(ev.duration_ns);
    }

    /// [`WindowStats::from_run`] with the per-rank fold done in `table`,
    /// a dense rank-indexed scratch array, instead of a map lookup per
    /// event. The result is identical (each rank still folds its own
    /// events in append order); only the rank map is built once per
    /// window. Ranks spread wider than four times the event count fall
    /// back to `from_run`, so the table stays within a small multiple
    /// of the chunk.
    fn from_events_dense<'a>(
        first_index: u64,
        events: impl Iterator<Item = &'a TraceEvent> + Clone,
        table: &mut Vec<RankWindowStats>,
    ) -> WindowStats {
        let (mut n, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
        for ev in events.clone() {
            n += 1;
            lo = lo.min(ev.rank);
            hi = hi.max(ev.rank);
        }
        if n == 0 || (hi - lo) as usize >= 4 * n {
            return WindowStats::from_run(first_index, events);
        }
        table.clear();
        table.resize((hi - lo) as usize + 1, RankWindowStats::default());
        let mut w = WindowStats::empty(first_index);
        for ev in events {
            w.fold_window_fields(ev);
            table[(ev.rank - lo) as usize].fold(ev);
        }
        for (rank, r) in (lo..).zip(table.iter()) {
            if r.events > 0 {
                w.per_rank.insert(rank, r.clone());
            }
        }
        w
    }

    /// Merges this window with the adjacent `later` window (the one
    /// covering the immediately following events in append order). The
    /// operation is associative over any adjacent split of one event
    /// stream, so folding windows pairwise up the tower yields the same
    /// aggregate as folding the raw events directly.
    pub fn merge(&self, later: &WindowStats) -> WindowStats {
        let mut w = self.clone();
        w.absorb(later);
        w
    }

    /// [`WindowStats::merge`] in place: `self` becomes the merge of
    /// itself and the adjacent `later` window, reusing its rank map.
    fn absorb(&mut self, later: &WindowStats) {
        if later.events == 0 {
            return;
        }
        if self.events == 0 {
            let first_index = self.first_index;
            *self = later.clone();
            self.first_index = first_index;
            return;
        }
        for (rank, rb) in &later.per_rank {
            match self.per_rank.get_mut(rank) {
                Some(ra) => *ra = ra.merge(rb),
                None => {
                    self.per_rank.insert(*rank, rb.clone());
                }
            }
        }
        self.events += later.events;
        self.start_ns = self.start_ns.min(later.start_ns);
        self.end_ns = self.end_ns.max(later.end_ns);
        self.max_duration_ns = self.max_duration_ns.max(later.max_duration_ns);
    }

    /// Total busy nanoseconds across ranks and categories.
    pub fn busy_total_ns(&self) -> u64 {
        self.per_rank.values().map(|r| r.busy_total_ns()).sum()
    }
}

/// Rematerialized full-resolution events for one time window, each
/// tagged with its global append index (the decimation key).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayedWindow {
    /// `(global index, event)` pairs, in append order.
    pub events: Vec<(u64, TraceEvent)>,
}

/// A deterministic source that can re-derive full-resolution events for
/// a time window — for the run simulator, by replaying the priced walk
/// from the nearest checkpoint anchor.
pub trait ReplaySource {
    /// Returns every event whose `start_ns` lies in `[t0_ns, t1_ns)`,
    /// in append order, with global append indices attached.
    fn replay(&self, t0_ns: u64, t1_ns: u64) -> ReplayedWindow;
}

/// A [`ReplaySource`] backed by a full-resolution event slice — the
/// model reference used by tests and oracles.
pub struct SliceReplay<'a> {
    events: &'a [TraceEvent],
}

impl<'a> SliceReplay<'a> {
    /// Wraps a full-resolution event list (append order, index 0 first).
    pub fn new(events: &'a [TraceEvent]) -> SliceReplay<'a> {
        SliceReplay { events }
    }
}

impl ReplaySource for SliceReplay<'_> {
    fn replay(&self, t0_ns: u64, t1_ns: u64) -> ReplayedWindow {
        ReplayedWindow {
            events: self
                .events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.start_ns >= t0_ns && e.start_ns < t1_ns)
                .map(|(i, e)| (i as u64, e.clone()))
                .collect(),
        }
    }
}

/// A time window extracted from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowView {
    /// `(global index, event)` pairs with `start_ns` in `[t0, t1)`, in
    /// append order, decimated to `stride_of_zoom(zoom)` or the stored
    /// resolution, whichever is coarser.
    pub events: Vec<(u64, TraceEvent)>,
    /// The coarsest stride among regions overlapping the window (after
    /// applying the requested zoom). `stride == 1 << zoom` means the
    /// window came back at the requested resolution.
    pub stride: u64,
    /// `true` if the events were rematerialized by replay rather than
    /// read from storage.
    pub rematerialized: bool,
}

impl WindowView {
    /// The events as a [`Trace`] (for chrome export etc.).
    pub fn to_trace(&self) -> Trace {
        let mut t = Trace::new();
        for (_, ev) in &self.events {
            t.push(ev.clone());
        }
        t
    }
}

/// Capacity knobs for a [`TieredTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Full-resolution events retained in tier 0 (`B`). Normalized up
    /// to at least two chunks.
    pub tier0_events: usize,
    /// Events per half-window (`C`): tier 0 evicts `2C` events at a
    /// time, so tier-k windows span `C · 2^k` raw events.
    pub chunk: usize,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            tier0_events: 4096,
            chunk: 64,
        }
    }
}

impl TierConfig {
    /// A deliberately tiny store (used by tests to force deep towers on
    /// small traces).
    pub fn tiny(tier0_events: usize, chunk: usize) -> TierConfig {
        TierConfig {
            tier0_events,
            chunk,
        }
    }

    fn normalized(self) -> TierConfig {
        let chunk = self.chunk.max(1);
        TierConfig {
            tier0_events: self.tier0_events.max(2 * chunk),
            chunk,
        }
    }
}

/// One decimated tier: level `k` holds events whose global index is a
/// multiple of `2^k`, plus the exact aggregates of the windows they
/// came from. Events and windows always tile the same raw-index region.
#[derive(Debug, Clone, Default)]
struct Tier {
    events: VecDeque<(u64, TraceEvent)>,
    windows: VecDeque<WindowStats>,
}

/// Summary of one tier's residency, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSummary {
    /// Tier level (0 = full resolution).
    pub level: u32,
    /// Decimation stride `2^level`.
    pub stride: u64,
    /// Resident (decimated) events.
    pub events: usize,
    /// Resident aggregate windows (0 for tier 0).
    pub windows: usize,
    /// Raw append-index range covered, `[start, end)`.
    pub raw_range: (u64, u64),
}

/// The tiered store. Append events with [`TieredTrace::append`]; read
/// back with [`TieredTrace::sampled`] (whole retained timeline at a
/// zoom), [`TieredTrace::window`] /
/// [`TieredTrace::window_with_replay`] (random seek), and
/// [`TieredTrace::window_stats`] / [`TieredTrace::rank_totals`]
/// (exact aggregates).
#[derive(Debug, Clone)]
pub struct TieredTrace {
    cfg: TierConfig,
    /// Tier 0: newest events at full resolution.
    tier0: VecDeque<(u64, TraceEvent)>,
    /// Tiers 1.. in `tiers[k-1]`; higher levels cover older regions.
    tiers: Vec<Tier>,
    appended: u64,
    /// Scratch for folding evicted chunks: a dense per-rank table,
    /// reused so an eviction does not allocate one. It carries no state
    /// from one eviction to the next.
    rank_table: Vec<RankWindowStats>,
}

impl Default for TieredTrace {
    fn default() -> TieredTrace {
        TieredTrace::new(TierConfig::default())
    }
}

impl TieredTrace {
    /// Creates an empty store.
    pub fn new(cfg: TierConfig) -> TieredTrace {
        TieredTrace {
            cfg: cfg.normalized(),
            tier0: VecDeque::new(),
            tiers: Vec::new(),
            appended: 0,
            rank_table: Vec::new(),
        }
    }

    /// The (normalized) configuration.
    pub fn config(&self) -> TierConfig {
        self.cfg
    }

    /// Appends one event (global index = number appended so far).
    pub fn append(&mut self, ev: TraceEvent) {
        self.tier0.push_back((self.appended, ev));
        self.appended += 1;
        self.rebalance();
    }

    /// Appends every event of a [`Trace`] in order.
    pub fn extend_from_trace(&mut self, trace: &Trace) {
        for ev in &trace.events {
            self.append(ev.clone());
        }
    }

    /// Total events ever appended (the full-resolution count `N`).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Events currently resident across all tiers — the memory bound,
    /// `O(B · log N)`.
    pub fn resident_events(&self) -> usize {
        self.tier0.len() + self.tiers.iter().map(|t| t.events.len()).sum::<usize>()
    }

    /// Aggregate windows currently resident.
    pub fn resident_windows(&self) -> usize {
        self.tiers.iter().map(|t| t.windows.len()).sum()
    }

    /// Number of tiers including tier 0.
    pub fn num_tiers(&self) -> usize {
        1 + self.tiers.len()
    }

    /// Per-tier residency summaries, coarsest (oldest) first.
    pub fn tier_summaries(&self) -> Vec<TierSummary> {
        let mut out = Vec::new();
        for (i, t) in self.tiers.iter().enumerate().rev() {
            let level = (i + 1) as u32;
            let range = match (t.windows.front(), t.windows.back()) {
                (Some(a), Some(b)) => (a.first_index, b.first_index + b.events),
                _ => (0, 0),
            };
            out.push(TierSummary {
                level,
                stride: 1u64 << level,
                events: t.events.len(),
                windows: t.windows.len(),
                raw_range: range,
            });
        }
        let t0_range = match (self.tier0.front(), self.tier0.back()) {
            (Some((a, _)), Some((b, _))) => (*a, *b + 1),
            _ => (self.appended, self.appended),
        };
        out.push(TierSummary {
            level: 0,
            stride: 1,
            events: self.tier0.len(),
            windows: 0,
            raw_range: t0_range,
        });
        out
    }

    /// End timestamp of the newest retained event (ns).
    pub fn span_ns(&self) -> u64 {
        self.tier0
            .back()
            .map(|(_, e)| e.start_ns + e.duration_ns)
            .unwrap_or(0)
    }

    /// The whole retained timeline at a zoom level, as a [`Trace`]:
    /// events whose global index is a multiple of `2^zoom`, oldest
    /// first. Regions stored coarser than the requested zoom come back
    /// at their stored resolution (their indices already satisfy the
    /// filter).
    pub fn sampled(&self, zoom: u32) -> Trace {
        let stride = stride_of_zoom(zoom);
        let mut t = Trace::new();
        for (idx, ev) in self.iter_retained() {
            if idx.is_multiple_of(stride) {
                t.push(ev.clone());
            }
        }
        t
    }

    /// Iterates retained `(index, event)` pairs oldest → newest.
    fn iter_retained(&self) -> impl Iterator<Item = (u64, &TraceEvent)> {
        self.tiers
            .iter()
            .rev()
            .flat_map(|t| t.events.iter())
            .chain(self.tier0.iter())
            .map(|(i, e)| (*i, e))
    }

    /// Visits every resident aggregate window, oldest first, with its
    /// tier level. Used by the conformance oracles to verify that
    /// tier-k aggregates recompose from full-resolution reference data.
    pub fn for_each_window(&self, mut f: impl FnMut(u32, &WindowStats)) {
        for (i, t) in self.tiers.iter().enumerate().rev() {
            let level = (i + 1) as u32;
            for w in &t.windows {
                f(level, w);
            }
        }
    }

    /// Extracts the events with `start_ns` in `[t0_ns, t1_ns)` from
    /// storage at the requested zoom. Regions stored coarser than
    /// `2^zoom` come back at their stored resolution;
    /// [`WindowView::stride`] reports the coarsest stride involved, so
    /// `view.stride > 1 << zoom` means a [`ReplaySource`] is needed for
    /// full fidelity (see [`TieredTrace::window_with_replay`]).
    pub fn window(&self, t0_ns: u64, t1_ns: u64, zoom: u32) -> WindowView {
        let want = stride_of_zoom(zoom);
        let mut events = Vec::new();
        let mut stride = want;
        for (i, t) in self.tiers.iter().enumerate().rev() {
            let level = (i + 1) as u32;
            let region_stride = 1u64 << level;
            if Self::region_overlaps(t.windows.front(), t.windows.back(), t0_ns, t1_ns) {
                stride = stride.max(region_stride);
            }
            collect_in_window(t.events.iter(), t0_ns, t1_ns, want, &mut events);
        }
        collect_in_window(self.tier0.iter(), t0_ns, t1_ns, want, &mut events);
        WindowView {
            events,
            stride,
            rematerialized: false,
        }
    }

    fn region_overlaps(
        front: Option<&WindowStats>,
        back: Option<&WindowStats>,
        t0_ns: u64,
        t1_ns: u64,
    ) -> bool {
        match (front, back) {
            (Some(a), Some(b)) => a.start_ns < t1_ns && t0_ns < b.end_ns,
            _ => false,
        }
    }

    /// Like [`TieredTrace::window`], but when the stored resolution is
    /// coarser than the requested zoom, rematerializes the window by
    /// deterministic replay and decimates it with the same global-index
    /// rule — producing exactly what the store would have held had it
    /// never evicted. Replay cost is bounded by the source's anchor
    /// spacing (one checkpoint interval for the run simulator), not by
    /// run length.
    pub fn window_with_replay(
        &self,
        t0_ns: u64,
        t1_ns: u64,
        zoom: u32,
        replay: &dyn ReplaySource,
    ) -> WindowView {
        let stored = self.window(t0_ns, t1_ns, zoom);
        let want = stride_of_zoom(zoom);
        if stored.stride <= want {
            return stored;
        }
        let rep = replay.replay(t0_ns, t1_ns);
        let events = rep
            .events
            .into_iter()
            .filter(|(idx, _)| idx.is_multiple_of(want))
            .collect();
        WindowView {
            events,
            stride: want,
            rematerialized: true,
        }
    }

    /// Exact aggregate stats for the stored structures overlapping
    /// `[t0_ns, t1_ns)`: whole tier windows whose time extent
    /// intersects the range (window-granularity coverage — the
    /// returned `start_ns`/`end_ns` report what was actually folded)
    /// plus tier-0 events with `start_ns` inside it. `None` if nothing
    /// overlaps.
    pub fn window_stats(&self, t0_ns: u64, t1_ns: u64) -> Option<WindowStats> {
        let mut acc: Option<WindowStats> = None;
        let mut fold = |w: WindowStats| {
            acc = Some(match acc.take() {
                Some(a) => a.merge(&w),
                None => w,
            });
        };
        for t in self.tiers.iter().rev() {
            for w in &t.windows {
                if w.start_ns < t1_ns && t0_ns < w.end_ns {
                    fold(w.clone());
                }
            }
        }
        let mut t0_stats: Option<WindowStats> = None;
        for (idx, ev) in &self.tier0 {
            if ev.start_ns >= t0_ns && ev.start_ns < t1_ns {
                let s = t0_stats.get_or_insert_with(|| WindowStats::empty(*idx));
                s.fold_event(ev);
            }
        }
        if let Some(s) = t0_stats {
            fold(s);
        }
        acc
    }

    /// Exact per-rank busy time by category over the *entire* run
    /// (everything ever appended, including evicted regions — the
    /// aggregates were folded from full-resolution data before
    /// decimation). This is what feeds the slow-rank localizer on
    /// week-long runs.
    pub fn rank_totals(&self) -> BTreeMap<u32, [u64; NUM_CATEGORIES]> {
        let mut totals: BTreeMap<u32, [u64; NUM_CATEGORIES]> = BTreeMap::new();
        self.for_each_window(|_, w| {
            for (rank, r) in &w.per_rank {
                let t = totals.entry(*rank).or_insert([0; NUM_CATEGORIES]);
                for (a, b) in t.iter_mut().zip(r.busy_ns.iter()) {
                    *a += b;
                }
            }
        });
        for (_, ev) in &self.tier0 {
            let t = totals.entry(ev.rank).or_insert([0; NUM_CATEGORIES]);
            t[category_index(ev.category)] += ev.duration_ns;
        }
        totals
    }

    /// Verifies the internal tower invariants; returns a description of
    /// the first violation. Used by the fuzzer.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut expected_next: Option<u64> = None;
        for (i, t) in self.tiers.iter().enumerate().rev() {
            let level = (i + 1) as u32;
            let stride = 1u64 << level;
            let mut ev_iter = t.events.iter().peekable();
            for w in &t.windows {
                if let Some(e) = expected_next {
                    if w.first_index != e {
                        return Err(format!(
                            "tier {level}: window starts at {} but previous region ended at {e}",
                            w.first_index
                        ));
                    }
                }
                let span = self.cfg.chunk as u64 * stride;
                if w.events != span {
                    return Err(format!(
                        "tier {level}: window at {} spans {} raw events, expected {span}",
                        w.first_index, w.events
                    ));
                }
                expected_next = Some(w.first_index + w.events);
                while let Some((idx, _)) = ev_iter.peek() {
                    if *idx >= w.first_index + w.events {
                        break;
                    }
                    if *idx < w.first_index {
                        return Err(format!(
                            "tier {level}: event index {idx} precedes its window"
                        ));
                    }
                    if !idx.is_multiple_of(stride) {
                        return Err(format!(
                            "tier {level}: event index {idx} not a multiple of stride {stride}"
                        ));
                    }
                    ev_iter.next();
                }
            }
            if ev_iter.next().is_some() {
                return Err(format!("tier {level}: events outside any window"));
            }
        }
        let mut want = match expected_next {
            Some(e) => e,
            None => match self.tier0.front() {
                Some((i, _)) => *i,
                None => 0,
            },
        };
        for (idx, _) in &self.tier0 {
            if *idx != want {
                return Err(format!("tier 0: expected index {want}, found {idx}"));
            }
            want += 1;
        }
        if want != self.appended {
            return Err(format!(
                "retained indices end at {want} but {} events were appended",
                self.appended
            ));
        }
        Ok(())
    }

    /// Evicts tier-0 overflow into the tower and cascades coarser tiers.
    fn rebalance(&mut self) {
        let b = self.cfg.tier0_events;
        let c = self.cfg.chunk;
        while self.tier0.len() > b {
            // Fold the oldest 2C full-resolution events' exact window
            // where they lie, then move them into tier 1 thinned to
            // stride 2. (`b >= 2C`, so tier 0 holds a whole chunk.)
            let n = (2 * c).min(self.tier0.len());
            let first_index = self.tier0.front().map_or(0, |(i, _)| *i);
            let w = WindowStats::from_events_dense(
                first_index,
                self.tier0.range(..n).map(|(_, e)| e),
                &mut self.rank_table,
            );
            if self.tiers.is_empty() {
                self.tiers.push(Tier::default());
            }
            let t1 = &mut self.tiers[0];
            t1.events.extend(
                self.tier0
                    .drain(..n)
                    .filter(|(idx, _)| idx.is_multiple_of(2)),
            );
            t1.windows.push_back(w);
            self.cascade();
        }
    }

    /// Window capacity per tier: each tier retains about one tier-0's
    /// worth of history at its own granularity before promoting.
    fn max_windows(&self) -> usize {
        (self.cfg.tier0_events / (2 * self.cfg.chunk)).max(2)
    }

    fn cascade(&mut self) {
        let cap = self.max_windows();
        let mut k = 0;
        while k < self.tiers.len() {
            if self.tiers[k].windows.len() <= cap {
                k += 1;
                continue;
            }
            // Merge the two oldest windows of tier k+1 (level k+1) into
            // one tier k+2 window; halve their events. (`cap >= 2`, so
            // the tier holds at least three windows here.)
            if k + 1 == self.tiers.len() {
                self.tiers.push(Tier::default());
            }
            let (lower, upper) = self.tiers.split_at_mut(k + 1);
            let (tier, up) = (&mut lower[k], &mut upper[0]);
            let (Some(mut merged), Some(wb)) = (tier.windows.pop_front(), tier.windows.pop_front())
            else {
                break;
            };
            merged.absorb(&wb);
            let end = merged.first_index + merged.events;
            let next_stride = 1u64 << (k + 2);
            let n = tier.events.iter().take_while(|(idx, _)| *idx < end).count();
            up.events.extend(
                tier.events
                    .drain(..n)
                    .filter(|(idx, _)| idx.is_multiple_of(next_stride)),
            );
            up.windows.push_back(merged);
        }
    }
}

/// Decimation stride for a zoom level: `2^zoom`, saturating.
pub fn stride_of_zoom(zoom: u32) -> u64 {
    1u64.checked_shl(zoom).unwrap_or(u64::MAX)
}

fn collect_in_window<'a>(
    events: impl Iterator<Item = &'a (u64, TraceEvent)>,
    t0_ns: u64,
    t1_ns: u64,
    stride: u64,
    out: &mut Vec<(u64, TraceEvent)>,
) {
    for (idx, ev) in events {
        if ev.start_ns >= t0_ns && ev.start_ns < t1_ns && idx.is_multiple_of(stride) {
            out.push((*idx, ev.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            rank: (i % 4) as u32,
            name: format!("e{i}").into(),
            category: if i.is_multiple_of(3) {
                EventCategory::Compute
            } else {
                EventCategory::DpComm
            },
            start_ns: i * 100,
            duration_ns: 50 + (i % 7) * 10,
        }
    }

    fn filled(n: u64, cfg: TierConfig) -> (TieredTrace, Vec<TraceEvent>) {
        let mut store = TieredTrace::new(cfg);
        let mut reference = Vec::new();
        for i in 0..n {
            let e = ev(i);
            reference.push(e.clone());
            store.append(e);
        }
        (store, reference)
    }

    #[test]
    fn small_trace_stays_full_resolution() {
        let (store, reference) = filled(100, TierConfig::default());
        assert_eq!(store.num_tiers(), 1);
        assert_eq!(store.resident_events(), 100);
        let t = store.sampled(0);
        assert_eq!(t.events, reference);
    }

    #[test]
    fn eviction_builds_tower_with_log_memory() {
        let (store, _) = filled(100_000, TierConfig::tiny(64, 8));
        store.check_integrity().unwrap();
        assert!(store.num_tiers() >= 4, "tiers {}", store.num_tiers());
        // O(B log N): far below full resolution.
        assert!(
            store.resident_events() < 64 * store.num_tiers() + 64,
            "resident {} tiers {}",
            store.resident_events(),
            store.num_tiers()
        );
        assert_eq!(store.appended(), 100_000);
    }

    #[test]
    fn sampled_events_match_reference_at_their_indices() {
        let (store, reference) = filled(5_000, TierConfig::tiny(64, 8));
        for zoom in 0..6 {
            let stride = 1u64 << zoom;
            let t = store.sampled(zoom);
            assert!(!t.is_empty());
            // Every sampled event is byte-identical to the reference at
            // some index that satisfies the stride rule; indices ascend.
            let mut last = None;
            for e in &t.events {
                let idx = e.start_ns / 100;
                assert!(idx.is_multiple_of(stride) || idx >= store.appended() - 64);
                assert_eq!(e, &reference[idx as usize]);
                assert!(last.map(|l| l < idx).unwrap_or(true));
                last = Some(idx);
            }
        }
    }

    #[test]
    fn totals_are_conserved_exactly() {
        let (store, reference) = filled(10_000, TierConfig::tiny(32, 4));
        let totals = store.rank_totals();
        let mut expect: BTreeMap<u32, [u64; NUM_CATEGORIES]> = BTreeMap::new();
        for e in &reference {
            expect.entry(e.rank).or_insert([0; NUM_CATEGORIES])[category_index(e.category)] +=
                e.duration_ns;
        }
        assert_eq!(totals, expect);
    }

    #[test]
    fn window_with_replay_rematerializes_exactly() {
        let (store, reference) = filled(10_000, TierConfig::tiny(32, 4));
        let replay = SliceReplay::new(&reference);
        // An old region long since decimated.
        let (t0, t1) = (100 * 100, 300 * 100);
        let stored = store.window(t0, t1, 0);
        assert!(stored.stride > 1, "old region should be decimated");
        let full = store.window_with_replay(t0, t1, 0, &replay);
        assert!(full.rematerialized);
        let expect: Vec<(u64, TraceEvent)> = reference
            .iter()
            .enumerate()
            .filter(|(_, e)| e.start_ns >= t0 && e.start_ns < t1)
            .map(|(i, e)| (i as u64, e.clone()))
            .collect();
        assert_eq!(full.events, expect);
        // A recent window needs no replay.
        let span = store.span_ns();
        let recent = store.window_with_replay(span - 1000, span, 0, &replay);
        assert!(!recent.rematerialized);
    }

    #[test]
    fn window_stats_fold_matches_reference() {
        // Dense ranks, and ranks with gaps, fold through the rank
        // table; ranks spread far wider than a chunk fall back to the
        // map fold.
        for spread in [1, 3, 1 << 24] {
            let mut store = TieredTrace::new(TierConfig::tiny(32, 4));
            let mut reference = Vec::new();
            for i in 0..4_096 {
                let mut e = ev(i);
                e.rank *= spread;
                reference.push(e.clone());
                store.append(e);
            }
            let mut checked = 0;
            store.for_each_window(|_, w| {
                let lo = w.first_index as usize;
                let hi = (w.first_index + w.events) as usize;
                let expect = WindowStats::from_run(w.first_index, reference[lo..hi].iter());
                assert_eq!(w, &expect);
                checked += 1;
            });
            assert!(checked > 4);
        }
    }

    #[test]
    fn merge_is_associative_on_adjacent_splits() {
        let reference: Vec<TraceEvent> = (0..48).map(ev).collect();
        let w = |lo: usize, hi: usize| WindowStats::from_run(lo as u64, reference[lo..hi].iter());
        let a = w(0, 7);
        let b = w(7, 20);
        let c = w(20, 48);
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&b.merge(&c)), w(0, 48));
    }

    #[test]
    fn empty_store_is_sane() {
        let store = TieredTrace::default();
        assert_eq!(store.resident_events(), 0);
        assert!(store.sampled(0).is_empty());
        assert!(store.window_stats(0, u64::MAX).is_none());
        store.check_integrity().unwrap();
        assert_eq!(store.span_ns(), 0);
    }
}
