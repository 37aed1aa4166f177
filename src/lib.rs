//! # llama3-parallelism
//!
//! A simulator-based reproduction of **"Scaling Llama 3 Training with
//! Efficient Parallelism Strategies"** (ISCA '25): the 4D parallelism
//! stack (FSDP/ZeRO, tensor parallelism, flexible pipeline schedules,
//! all-gather context parallelism), the §5.1 configuration planner, the
//! §6 debugging methodology (top-down slow-rank localization, bitwise
//! numerical parity), and the experiment harness regenerating every
//! table and figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! stable module names. Start with [`core`] (the paper's contribution)
//! and the `repro` binary in `bench-harness`.
//!
//! ```
//! use llama3_parallelism::core::planner::{plan, PlannerInput};
//!
//! // Reproduce Table 2's short-context row.
//! let plan = plan(&PlannerInput::llama3_405b(16_384, 8_192))?;
//! assert_eq!(plan.config.mesh().to_string(), "tp8·cp1·pp16·dp128 (16384 GPUs)");
//! # Ok::<(), llama3_parallelism::core::planner::PlanError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Deterministic simulation engine (timing graphs, fluid network,
/// memory tracking).
pub use sim_engine as sim;

/// GPU and network hardware models.
pub use cluster_model as cluster;

/// Collective-communication cost models and algorithms.
pub use collectives;

/// Transformer / multimodal model descriptions and accounting.
pub use llm_model as model;

/// Synthetic document-masked workload generation.
pub use workload;

/// The paper's contribution: 4D parallelism, schedules, planner, step
/// simulator.
pub use parallelism_core as core;

/// Real-arithmetic substrate for the §6.2 numerical methodology.
pub use numerics;

/// Traces, Chrome-trace export and slow-rank localization.
pub use trace_analysis as trace;

/// Simulation-as-a-service: the shared query dispatcher (memo layer,
/// coalescing) and the `llama3sim serve` HTTP daemon + client.
pub use serve;

/// The one-stop import for simulator users: the step/run/search
/// entrypoints, their option builders, the pre-flight analyzer, and
/// the configuration types every example needs.
///
/// Prefer these re-exports over deep module paths
/// (`llama3_parallelism::core::planner::...`): the deep paths are kept
/// for backward compatibility but are considered deprecated import
/// surface — `rustc` ignores deprecation attributes on `pub use`
/// items, so the steering lives here and in the module docs rather
/// than in compiler warnings. `examples/` imports everything
/// simulation-related from this prelude.
///
/// ```
/// use llama3_parallelism::prelude::*;
///
/// let plan = plan(&PlannerInput::llama3_405b(16_384, 8_192))?;
/// assert_eq!(plan.config.mesh().num_gpus(), 16_384);
/// # Ok::<(), PlanError>(())
/// ```
pub mod prelude {
    pub use cluster_model::faults::{
        ClusterHealth, FaultEvent, FaultKind, FaultRates, FaultTimeline,
    };
    pub use cluster_model::gpu::GpuSpec;
    pub use cluster_model::jitter::{JitterKind, JitterModel};
    pub use cluster_model::topology::{Cluster, TopologySpec};
    pub use collectives::{cost_cache_stats, CacheStats, CommCostModel, ProcessGroup};
    pub use llm_model::masks::MaskSpec;
    pub use llm_model::{ModelLayout, TransformerConfig, VitConfig};
    pub use parallelism_core::analyze::{
        analyze_step, Diagnostic, Report as AnalyzeReport, RuleId, Severity,
    };
    pub use parallelism_core::cp::{relative_hfu, AllGatherCp, CpSharding};
    pub use parallelism_core::infer::{
        InferCosts, InferPlan, InferReport, InferSpec, InferenceModel, RequestOutcome,
    };
    pub use parallelism_core::multimodal::{
        production_multimodal, EncoderSharding, MultimodalReport, MultimodalStep,
    };
    pub use parallelism_core::planner::{plan, Plan, PlanError, PlannerInput};
    pub use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
    pub use parallelism_core::pp::schedule::{PpSchedule, ScheduleKind};
    pub use parallelism_core::pp::sim::{PpProgram, PpTiming, TableCosts};
    pub use parallelism_core::query::{
        AnalyzeMode, InferQuery, InferResponse, Query, QueryError, Response, SearchQuery,
        StatsResponse, TraceMode, TraceQuery, TraceResponse, QUERY_API_VERSION,
    };
    pub use parallelism_core::run::{
        CheckpointPolicy, GoodputLoss, GoodputReport, RunAnchor, RunReplay, RunSimulator, RunTrace,
    };
    pub use parallelism_core::search::{
        search, verdict_cache_stats, ConfigPoint, FunnelCounts, SearchPoint, SearchReport,
        SearchSpec,
    };
    pub use parallelism_core::step::{
        ExposedComm, SimFidelity, SimOptions, StepModel, StepOutcome, StepReport,
    };
    pub use parallelism_core::{Mesh4D, SimError, Workload, ZeroMode};
    pub use serve::{Dispatcher, ServeClient, Server};
    pub use sim_engine::time::{SimDuration, SimTime};
    pub use trace_analysis::chrome::to_chrome_json;
    pub use trace_analysis::slowrank::{locate_slow_rank, locate_slow_rank_tiered};
    pub use trace_analysis::synth::{synth_trace, SynthSpec};
    pub use trace_analysis::tiered::{TierConfig, TieredTrace, WindowStats, WindowView};
    pub use workload::traffic::{Request, TrafficShape, TrafficSpec};
    pub use workload::{DocLengthDist, DocumentSampler};
}
