//! # trace-analysis
//!
//! Performance-trace tooling for the `llama3-parallelism` workspace:
//! the trace data model, Chrome-trace export for visual inspection,
//! synthetic trace generation, the §6.1 top-down slow-rank
//! localization that finds the root-cause straggler across parallelism
//! dimensions (Fig 8), and the tiered (RRD-style tower-sampling) trace
//! store that keeps multi-day run timelines in `O(log N)` memory with
//! exact replay-backed random seek.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod format;
pub mod report;
pub mod slowrank;
pub mod synth;
pub mod tiered;

pub use format::{EventCategory, EventName, Trace, TraceEvent};
pub use report::{auto_report, AutoReport};
pub use slowrank::{
    locate_slow_rank, locate_slow_rank_tiered, DimGroups, GroupStructure, RankTotals,
    SlowRankReport,
};
pub use synth::{synth_trace, SynthSpec};
pub use tiered::{
    ReplaySource, ReplayedWindow, SliceReplay, TierConfig, TieredTrace, WindowStats, WindowView,
};
