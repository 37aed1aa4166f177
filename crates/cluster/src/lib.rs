//! # cluster-model
//!
//! Hardware substrate for the `llama3-parallelism` workspace: GPU
//! roofline cost models, hierarchical (NVLink + RoCE leaf/spine) network
//! topology, and performance-variation (DVFS) models.
//!
//! ```
//! use cluster_model::{Cluster, Dtype, KernelCost};
//!
//! let cluster = Cluster::llama3(16384);
//! let gemm = KernelCost::gemm(8192, 8192, 8192, Dtype::Bf16);
//! let t = cluster.gpu.gemm_time(gemm, Dtype::Bf16);
//! assert!(t.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod gpu;
pub mod jitter;
pub mod power;
pub mod topology;

pub use faults::{ClusterHealth, FaultEvent, FaultKind, FaultRates, FaultScope, FaultTimeline};
pub use gpu::{Dtype, GpuSpec, KernelCost};
pub use jitter::{JitterKind, JitterModel};
pub use power::{rank_by_cluster_throughput, PowerSizedCluster};
pub use topology::{Cluster, FluidTopology, GlobalRank, PathClass, TopologySpec};
