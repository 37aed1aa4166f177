//! # parallelism-core
//!
//! The paper's primary contribution: 4D parallelism for Llama 3
//! pre-training. This crate combines the substrate crates into the
//! training-system model — the `[TP, CP, PP, DP]` mesh, FSDP ZeRO
//! modes, tensor parallelism, the flexible pipeline schedules of §3,
//! the all-gather context parallelism of §4, the §5.1 configuration
//! planner, and the full-step simulator that reproduces the paper's
//! end-to-end numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod costs;
pub mod cp;
pub mod fsdp;
pub mod infer;
pub mod memory_opt;
pub mod mesh;
pub mod multimodal;
pub mod planner;
pub mod pp;
pub mod query;
pub mod run;
pub mod search;
pub mod step;
pub mod tp;

pub use analyze::{analyze_step, Diagnostic, Report, RuleId, Severity};
pub use cp::{AllGatherCp, CpSharding, RingCp};
pub use fsdp::ZeroMode;
pub use infer::{
    simulate_replica, InferCosts, InferPlan, InferReport, InferSpec, InferenceModel, ReplicaResult,
    RequestOutcome,
};
pub use memory_opt::{policy_tradeoff, ActivationPolicy};
pub use mesh::{Coord4, Dim, Mesh4D};
pub use multimodal::{EncoderSharding, MultimodalReport, MultimodalStep};
pub use planner::{plan, Plan, PlanError, PlannerInput};
pub use pp::{BalancePolicy, PpSchedule, ScheduleKind, StageAssignment};
pub use query::{
    AnalyzeMode, InferQuery, InferResponse, Query, QueryError, Response, SearchQuery,
    StatsResponse, TraceMode, TraceQuery, TraceResponse, QUERY_API_VERSION,
};
pub use run::{
    CheckpointPolicy, GoodputLoss, GoodputReport, RunAnchor, RunReplay, RunSimulator, RunTrace,
};
pub use search::{
    finish_search, search, search_outcomes, verdict_cache_stats, ConfigPoint, FunnelCounts,
    SearchOutcomes, SearchPoint, SearchReport, SearchSpec,
};
pub use sim_engine::error::SimError;
pub use step::{
    ExposedComm, SimFidelity, SimOptions, StepModel, StepOutcome, StepReport, Workload,
};
pub use tp::TpPlan;
pub use workload::traffic::{Request, TrafficShape, TrafficSpec};
