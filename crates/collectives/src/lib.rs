//! # collectives
//!
//! Communication substrate: process groups, α–β collective cost models,
//! and step-wise ring algorithms that can be priced under contention on
//! the fluid network.
//!
//! ```
//! use collectives::{CommCostModel, ProcessGroup};
//! use cluster_model::TopologySpec;
//!
//! let model = CommCostModel::new(TopologySpec::llama3_production(16));
//! let tp_group = ProcessGroup::contiguous(0, 8);
//! let t = model.all_gather(&tp_group, 64 << 20);
//! assert!(t.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod cost;
pub mod group;
pub mod sharded;

pub use cost::{cost_cache_stats, Algorithm, CommCostModel};
pub use group::{GroupShape, ProcessGroup};
/// The checkable lock facade every process-wide memo locks through
/// (see [`sharded`]), for memo layers built above this crate.
pub use interleave::sync;
pub use sharded::{CacheStats, ShardedCache};
