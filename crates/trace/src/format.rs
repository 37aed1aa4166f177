//! Performance-trace data model.
//!
//! A [`Trace`] is a flat list of per-rank timed events, mirroring what a
//! production profiler (Kineto et al.) collects: compute kernels and
//! communication collectives, each tagged with the parallelism dimension
//! it belongs to. The §6.1 slow-rank analysis consumes these.
//!
//! Event names are [`EventName`]s: a name of up to
//! [`INLINE_NAME_BYTES`] bytes lives inside the event itself, so
//! emitting, cloning and dropping an event costs no heap traffic. A
//! 24 h 16K-GPU run streams ~226 k events, every one named.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

/// Longest name, in bytes, an [`EventName`] stores inline.
pub const INLINE_NAME_BYTES: usize = 22;

/// An event name: an immutable UTF-8 string that stores names of up to
/// [`INLINE_NAME_BYTES`] bytes inline and longer ones on the heap.
///
/// It dereferences to `str`, and it compares and prints (`Debug` and
/// `Display`) exactly as the `String` with the same contents would.
/// It is as large as a `String`.
#[derive(Clone)]
pub struct EventName(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME_BYTES],
    },
    Heap(Box<str>),
}

impl EventName {
    /// A name holding `s`.
    pub fn new(s: &str) -> EventName {
        EventName::joined(s, "")
    }

    /// `prefix` followed by `n` in decimal (`step14399`), written
    /// without the formatting machinery or a heap allocation: the run
    /// walk names every step this way.
    pub fn numbered(prefix: &str, n: u64) -> EventName {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = n;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        EventName::joined(
            prefix,
            std::str::from_utf8(&digits[i..]).unwrap_or_default(),
        )
    }

    /// `a` followed by `b`: inline when it fits, else one boxed `str`.
    fn joined(a: &str, b: &str) -> EventName {
        let len = a.len() + b.len();
        if len > INLINE_NAME_BYTES {
            return EventName(Repr::Heap([a, b].concat().into_boxed_str()));
        }
        let mut bytes = [0; INLINE_NAME_BYTES];
        bytes[..a.len()].copy_from_slice(a.as_bytes());
        bytes[a.len()..len].copy_from_slice(b.as_bytes());
        EventName(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The inline bytes are two whole `str`s copied in by
            // `joined`, so they are valid UTF-8.
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).unwrap_or_default()
            }
            Repr::Heap(s) => s,
        }
    }

    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

impl Deref for EventName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for EventName {
    fn eq(&self, other: &EventName) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for EventName {}

impl PartialEq<&str> for EventName {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for EventName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for EventName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for EventName {
    fn from(s: &str) -> EventName {
        EventName::new(s)
    }
}

impl From<String> for EventName {
    fn from(s: String) -> EventName {
        if s.len() <= INLINE_NAME_BYTES {
            EventName::new(&s)
        } else {
            EventName(Repr::Heap(s.into_boxed_str()))
        }
    }
}

/// Which subsystem an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventCategory {
    /// GPU compute kernels.
    Compute,
    /// Tensor-parallel collectives.
    TpComm,
    /// Context-parallel collectives.
    CpComm,
    /// Pipeline-parallel point-to-point.
    PpComm,
    /// Data-parallel (FSDP) collectives.
    DpComm,
    /// Anything else (host, memory ops, ...).
    Other,
}

/// One timed event on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global rank the event executed on.
    pub rank: u32,
    /// Event name (kernel or collective label).
    pub name: EventName,
    /// Subsystem.
    pub category: EventCategory,
    /// Start timestamp in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds. For a collective this is the *observed*
    /// duration on this rank: time from the rank's call until the
    /// collective completed — early arrivers therefore record *longer*
    /// durations (they wait), and the slowest rank records the shortest.
    pub duration_ns: u64,
}

/// A collection of events across ranks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// All events, in no particular order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All distinct ranks appearing in the trace, ascending.
    pub fn ranks(&self) -> Vec<u32> {
        let mut r: Vec<u32> = self.events.iter().map(|e| e.rank).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Total event time per rank for one category, in nanoseconds.
    pub fn total_by_rank(&self, category: EventCategory) -> BTreeMap<u32, u64> {
        let mut totals = BTreeMap::new();
        for e in &self.events {
            if e.category == category {
                *totals.entry(e.rank).or_insert(0) += e.duration_ns;
            }
        }
        totals
    }

    /// Total time of one category on one rank.
    pub fn rank_total(&self, rank: u32, category: EventCategory) -> u64 {
        self.events
            .iter()
            .filter(|e| e.rank == rank && e.category == category)
            .map(|e| e.duration_ns)
            .sum()
    }

    /// All events on one rank, in push order. Emitters append per-rank
    /// lanes in timestamp order, so conformance checkers iterate this to
    /// verify monotone, non-overlapping lanes.
    pub fn events_for_rank(&self, rank: u32) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// End timestamp of the last event (ns), or 0 for an empty trace.
    pub fn span_ns(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.start_ns + e.duration_ns)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: u32, cat: EventCategory, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            rank,
            name: "e".into(),
            category: cat,
            start_ns: start,
            duration_ns: dur,
        }
    }

    #[test]
    fn totals_by_rank() {
        let mut t = Trace::new();
        t.push(ev(0, EventCategory::Compute, 0, 10));
        t.push(ev(0, EventCategory::Compute, 10, 5));
        t.push(ev(1, EventCategory::Compute, 0, 7));
        t.push(ev(0, EventCategory::TpComm, 15, 3));
        let totals = t.total_by_rank(EventCategory::Compute);
        assert_eq!(totals[&0], 15);
        assert_eq!(totals[&1], 7);
        assert_eq!(t.rank_total(0, EventCategory::TpComm), 3);
        assert_eq!(t.rank_total(1, EventCategory::TpComm), 0);
    }

    #[test]
    fn ranks_and_span() {
        let mut t = Trace::new();
        t.push(ev(3, EventCategory::Other, 5, 10));
        t.push(ev(1, EventCategory::Other, 0, 2));
        t.push(ev(3, EventCategory::Other, 20, 1));
        assert_eq!(t.ranks(), vec![1, 3]);
        assert_eq!(t.span_ns(), 21);
    }

    #[test]
    fn names_up_to_the_inline_capacity_stay_inline() {
        assert_eq!(
            std::mem::size_of::<EventName>(),
            std::mem::size_of::<String>()
        );
        let fits = "x".repeat(INLINE_NAME_BYTES);
        let name = EventName::new(&fits);
        assert!(name.is_inline());
        assert_eq!(name, fits.as_str());
        assert!(EventName::new("").is_inline());
        assert_eq!(EventName::new(""), "");
        for n in [0, 7, 10, 14_399, u64::MAX] {
            assert_eq!(EventName::numbered("step", n), format!("step{n}").as_str());
        }
        // "step" plus 18 digits fills the inline capacity exactly.
        assert!(EventName::numbered("step", 999_999_999_999_999_999).is_inline());
        assert!(!EventName::numbered("step", u64::MAX).is_inline());
        assert_eq!(
            EventName::numbered("a-long-prefix-of-twenty", 5),
            "a-long-prefix-of-twenty5"
        );
    }

    #[test]
    fn names_longer_than_the_inline_capacity_spill_to_the_heap() {
        let long = "layer17.attention.qkv_proj.all_gather";
        assert!(long.len() > INLINE_NAME_BYTES);
        for name in [
            EventName::new(long),
            EventName::from(long.to_string()),
            EventName::numbered("layer17.attention.qkv_proj.all_gather", 3),
        ] {
            assert!(!name.is_inline());
            assert!(name.starts_with(long), "{name}");
        }
        assert_eq!(EventName::new(long).len(), long.len());
    }

    #[test]
    fn multi_byte_names_round_trip() {
        // 2-, 3- and 4-byte code points, inline and spilled; a
        // code point that would straddle the inline capacity spills
        // whole.
        let straddle = format!("{}ü", "a".repeat(21));
        for s in [
            "µs",
            "§6.1 ↔ rank",
            "ランク七",
            "🦙 step",
            "ü".repeat(11).as_str(),
            "€".repeat(8).as_str(),
            straddle.as_str(),
        ] {
            let name = EventName::new(s);
            assert_eq!(name.as_str(), s);
            assert_eq!(name.is_inline(), s.len() <= INLINE_NAME_BYTES, "{s}");
            assert_eq!(EventName::from(s.to_string()), name);
        }
        let step = EventName::numbered("schritt·", 7);
        assert!(step.is_inline());
        assert_eq!(step, "schritt·7");
    }

    #[test]
    fn debug_display_and_eq_match_string() {
        let cases = [
            "",
            "step7",
            "layer \"q\" \\ proj\n",
            "tab\there",
            "ünïcödé ↔ 🦙",
            "a-name-that-is-definitely-longer-than-the-inline-capacity",
        ];
        for a in cases {
            let (na, sa) = (EventName::new(a), a.to_string());
            assert_eq!(format!("{na:?}"), format!("{sa:?}"));
            assert_eq!(format!("{na}"), sa);
            assert_eq!(format!("{na:>8}|"), format!("{sa:>8}|"));
            for b in cases {
                assert_eq!(na == EventName::new(b), sa == b, "{a:?} vs {b:?}");
            }
        }
        let ev = |name: &str| TraceEvent {
            rank: 0,
            name: name.into(),
            category: EventCategory::Compute,
            start_ns: 0,
            duration_ns: 1,
        };
        assert_eq!(ev("step1"), ev("step1"));
        assert_ne!(ev("step1"), ev("step2"));
        assert_eq!(
            format!("{:?}", ev("step1")),
            "TraceEvent { rank: 0, name: \"step1\", category: Compute, start_ns: 0, duration_ns: 1 }"
        );
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.span_ns(), 0);
        assert!(t.ranks().is_empty());
    }
}
