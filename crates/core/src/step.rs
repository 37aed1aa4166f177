//! Full training-step composition: lowering (cluster × mesh × model ×
//! schedule × workload) to timings, memory and the paper's headline
//! metrics (TFLOPs/GPU, bubble ratio, exposed-communication breakdown).
//!
//! Two granularities are provided:
//!
//! * [`StepModel::estimate`] — a closed-form estimate used by the §5.1
//!   planner to score candidate configurations;
//! * [`StepModel::run`] — a timing simulation of the pipeline
//!   schedule (compiled once into a [`PpProgram`], then linear passes
//!   timing up to [`LANES`] simulated DP replicas each) with per-stage
//!   costs, P2P transfers and memory replay, used by the experiment
//!   harness (Figs 9, 10, §7.3).
//!
//! The simulation collapses symmetric dimensions: all DP replicas are
//! identical up to data, TP peers run in lock-step (TP communication is
//! priced into stage time — it is fully exposed, §5.2), and CP peers
//! appear as the *slowest-rank* stage time plus a recorded sync-wait
//! share (§7.3.2).

use crate::cp::{AllGatherCp, CpSharding};
use crate::fsdp::{self, ZeroMode};
use crate::mesh::{Dim, Mesh4D};
use crate::pp::balance::StageAssignment;
use crate::pp::schedule::{PpSchedule, ScheduleKind};
use crate::pp::sim::{PpProgram, PpTiming, Shape, TableCosts, LANES};
use crate::tp::TpPlan;
use cluster_model::faults::ClusterHealth;
use cluster_model::gpu::{Dtype, KernelCost};
use cluster_model::jitter::JitterModel;
use cluster_model::topology::{Cluster, GlobalRank};
use collectives::CommCostModel;
use llm_model::layers::LayerKind;
use llm_model::masks::MaskSpec;
use llm_model::memory as mem;
use llm_model::{ModelLayout, PrecisionPolicy};
use sim_engine::error::SimError;
use sim_engine::time::SimDuration;
use std::sync::Arc;
use trace_analysis::{EventCategory, Trace, TraceEvent};

/// A fully specified training-step configuration.
#[derive(Debug, Clone)]
pub struct StepModel {
    /// Hardware.
    pub cluster: Cluster,
    /// The 4D mesh.
    pub mesh: Mesh4D,
    /// Model layout (already includes frozen/multimodal structure).
    pub layout: ModelLayout,
    /// Layer-to-stage assignment (defines `v`).
    pub assignment: StageAssignment,
    /// Pipeline schedule family.
    pub schedule: ScheduleKind,
    /// FSDP mode.
    pub zero: ZeroMode,
    /// Sequences per DP group per step (`bs`).
    pub bs: u32,
    /// Sequence length.
    pub seq: u64,
    /// Representative attention mask for every sequence.
    pub mask: MaskSpec,
    /// Whether activation recomputation is enabled (§6.3 lets Llama 3
    /// turn it off; on = 1/3 more compute, far less activation memory).
    pub recompute: bool,
}

/// How many DP replicas the step simulation times.
///
/// All DP replicas execute the same program on identical hardware, so a
/// jitter-free step is fully determined by one representative
/// TP×CP×PP slice plus the DP collective terms — that is
/// [`SimFidelity::Folded`], and it makes step simulation O(slice)
/// instead of O(cluster). [`SimFidelity::Full`] times every DP replica:
/// the pipeline is compiled once ([`crate::pp::sim::PpProgram`]) and
/// each replica is one lane of a linear pass over it with its own
/// per-rank compute scales, up to [`LANES`] replicas per pass; the
/// exposed DP collective starts when the slowest replica finishes. It
/// exists to validate the folding identity and to host per-rank
/// jitter/straggler injection, where replicas genuinely differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimFidelity {
    /// One representative DP replica + DP collective terms (exact for
    /// jitter-free configurations, and the default).
    #[default]
    Folded,
    /// Every DP replica timed explicitly, one lane each.
    Full,
}

/// Which kind of workload a simulation request prices.
///
/// Training and inference share the model, cluster, collective and
/// memory machinery; this enum is the single switch the query, serve
/// and search layers thread through instead of hardcoding training
/// (the implicit assumption the wire protocol carried before v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workload {
    /// Pre-training steps: forward + backward + optimizer, scored by
    /// (step time, peak HBM).
    #[default]
    Training,
    /// Serving traffic: prefill/decode continuous batching, scored by
    /// (p99 TTFT, peak HBM).
    Inference,
}

impl Workload {
    /// Stable lowercase tag used on the wire.
    pub fn tag(self) -> &'static str {
        match self {
            Workload::Training => "train",
            Workload::Inference => "infer",
        }
    }

    /// Parses a [`Self::tag`] back to a workload.
    pub fn parse(s: &str) -> Option<Workload> {
        [Workload::Training, Workload::Inference]
            .into_iter()
            .find(|w| w.tag() == s)
    }
}

/// Options for [`StepModel::run`] — the one knob set for healthy,
/// jittered, faulted and traced step simulation.
///
/// The default (`SimOptions::default()`) is a healthy, jitter-free,
/// folded simulation.
///
/// ```
/// use parallelism_core::step::SimOptions;
/// use cluster_model::jitter::{JitterKind, JitterModel};
///
/// let opts = SimOptions::default()
///     .jitter(JitterModel::new(JitterKind::Static, 0.05, 42))
///     .step(3)
///     .trace(true);
/// assert!(opts.wants_full());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOptions {
    /// How many DP replicas to time. Requests with per-rank
    /// variation (jitter, throttled ranks) are promoted to
    /// [`SimFidelity::Full`] automatically — folding is invalid once
    /// replicas differ.
    pub fidelity: SimFidelity,
    /// Per-rank performance variation (`None` = no jitter).
    pub jitter: Option<JitterModel>,
    /// Training-step index sampled by transient jitter.
    pub step: u64,
    /// Degraded-cluster state: thermally throttled ranks slow their
    /// compute via the jitter multiplier path; degraded node links
    /// stretch inter-node communication (P2P transfers and the exposed
    /// DP collectives) by the inverse of the worst capacity scale —
    /// matching the fluid model's behaviour for a ring crossing the
    /// degraded link (§8.2).
    pub health: ClusterHealth,
    /// Also produce a pipeline execution trace (one compute event per
    /// stage-micro-batch per pipeline rank), read off the pass that
    /// timed the step. It shows the critical DP replica, the one whose
    /// pipeline ends last, with its jitter, throttling and stretched
    /// P2P; its last event ends `exposed.dp` before `step_time`.
    pub trace: bool,
}

impl SimOptions {
    /// Healthy, jitter-free, folded, no trace.
    pub fn new() -> SimOptions {
        SimOptions::default()
    }

    /// Sets the simulation fidelity.
    pub fn fidelity(mut self, fidelity: SimFidelity) -> SimOptions {
        self.fidelity = fidelity;
        self
    }

    /// Enables per-rank performance variation.
    pub fn jitter(mut self, jitter: JitterModel) -> SimOptions {
        self.jitter = Some(jitter);
        self
    }

    /// Sets the training-step index sampled by transient jitter.
    pub fn step(mut self, step: u64) -> SimOptions {
        self.step = step;
        self
    }

    /// Injects a degraded-cluster state (from
    /// [`cluster_model::faults::FaultTimeline::health_at`] or built by
    /// hand).
    pub fn faults(mut self, health: ClusterHealth) -> SimOptions {
        self.health = health;
        self
    }

    /// Requests a pipeline execution trace alongside the report.
    pub fn trace(mut self, trace: bool) -> SimOptions {
        self.trace = trace;
        self
    }

    /// `true` when the request needs the full (per-replica) timing:
    /// explicit [`SimFidelity::Full`], jitter, or throttled ranks.
    pub fn wants_full(&self) -> bool {
        self.fidelity == SimFidelity::Full
            || self.jitter.is_some_and(|j| j.amplitude > 0.0)
            || !self.health.throttled.is_empty()
    }

    /// Inter-node communication stretch factor implied by the degraded
    /// links (1.0 when healthy).
    fn comm_stretch(&self) -> f64 {
        1.0 / self.health.worst_link_scale()
    }
}

/// What [`StepModel::run`] returns: the step report plus the optional
/// execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Step-level metrics.
    pub report: StepReport,
    /// Pipeline execution trace, present iff [`SimOptions::trace`] was
    /// requested.
    pub trace: Option<Trace>,
}

/// Exposed-communication breakdown of one step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExposedComm {
    /// Tensor-parallel collectives (always exposed).
    pub tp: SimDuration,
    /// Context-parallel all-gather/reduce-scatter, transfer portion.
    pub cp: SimDuration,
    /// Portion of `cp` that is waiting for the slowest CP rank.
    pub cp_sync_wait: SimDuration,
    /// Data-parallel exposed portion (first all-gather + last
    /// reduce-scatter; the rest overlaps, §7.3.1).
    pub dp: SimDuration,
}

/// Step-level report.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// End-to-end step time.
    pub step_time: SimDuration,
    /// Model FLOPs per GPU per second, in TFLOPs (the paper's §7.3
    /// metric).
    pub tflops_per_gpu: f64,
    /// Per-PP-rank bubble ratio (idle over compute).
    pub bubble_ratio: Vec<f64>,
    /// Per-PP-rank peak memory in bytes.
    pub peak_memory: Vec<u64>,
    /// Exposed communication breakdown.
    pub exposed: ExposedComm,
    /// Tokens processed per step (global).
    pub tokens: u64,
}

impl StepReport {
    /// The worst bubble ratio across pipeline ranks.
    pub fn max_bubble_ratio(&self) -> f64 {
        self.bubble_ratio.iter().copied().fold(0.0, f64::max)
    }

    /// The largest per-rank peak memory.
    pub fn max_peak_memory(&self) -> u64 {
        self.peak_memory.iter().copied().max().unwrap_or(0)
    }
}

/// Per-stage forward/backward times and communication components.
#[derive(Debug, Clone)]
struct StageTimes {
    /// The costs a pipeline pass binds: per-stage forward and backward
    /// times and the inter-stage P2P time.
    costs: TableCosts,
    /// Exposed TP time already folded into fwd+bwd, kept for reporting.
    tp_total: SimDuration,
    /// Exposed CP time folded in, kept for reporting.
    cp_total: SimDuration,
    /// CP slowest-rank wait folded in, kept for reporting.
    cp_wait: SimDuration,
}

/// One layer kind's share of a step. Layers of one kind cost the same
/// wherever they sit, so a step prices each kind once.
#[derive(Debug, Clone, Copy)]
struct KindCost {
    /// Forward time of one micro-batch, TP and CP communication folded
    /// in.
    fwd: SimDuration,
    /// Backward time of one micro-batch, recomputation included.
    bwd: SimDuration,
    /// Exposed TP time in `fwd + bwd`.
    tp: SimDuration,
    /// Exposed CP time in `fwd + bwd`.
    cp: SimDuration,
    /// CP slowest-rank wait in `fwd + bwd`.
    cp_wait: SimDuration,
    /// Model FLOPs of one whole sequence, forward plus backward.
    flops: f64,
    /// Parameters.
    params: u64,
    /// Activation bytes per token.
    act_bytes_per_token: u64,
}

/// A step's distinct layer kinds with their prices, in first-seen
/// order. A step has a handful (three for a text model), so a lookup
/// is a short scan.
struct LayerCosts(Vec<(LayerKind, KindCost)>);

impl LayerCosts {
    /// The price of `kind`.
    fn of(&self, kind: LayerKind) -> &KindCost {
        let priced = self.0.iter().find(|(k, _)| *k == kind);
        // lint: allow(unwrap) — `StepModel::layer_costs` prices every kind of the layout and the stage assignment
        &priced.expect("every layer kind is priced").1
    }
}

impl StepModel {
    /// Number of micro-batches (`mbs = 1` sequence per micro-batch, the
    /// Llama 3 setting).
    pub fn nmb(&self) -> u32 {
        self.bs
    }

    /// Builds the pipeline schedule for this step.
    ///
    /// # Panics
    /// Panics if the schedule parameters are invalid (the fields are
    /// validated at construction in practice). Prefer
    /// [`StepModel::schedule`] in fallible contexts.
    pub fn build_schedule(&self) -> PpSchedule {
        // lint: allow(unwrap) — the panic is this method's documented contract
        self.schedule().expect("valid schedule parameters")
    }

    /// Builds the pipeline schedule for this step, reporting invalid
    /// parameters as [`SimError::InvalidSchedule`].
    pub fn schedule(&self) -> Result<PpSchedule, SimError> {
        PpSchedule::build(self.schedule, self.mesh.pp(), self.assignment.v, self.nmb())
            .map_err(|e| SimError::InvalidSchedule(e.to_string()))
    }

    /// The compiled program of [`StepModel::schedule`], shared through
    /// the process-wide program memo (see [`crate::pp::sim`]), which is
    /// keyed by the schedule's shape: a hit builds no schedule, and a
    /// miss builds it once to compile it. The program is built whether
    /// or not the schedule can execute; the pre-flight rules read it
    /// either way, and only a complete one is timed. It also carries
    /// each rank's peak in-flight count, which a step's peak memory
    /// reads.
    pub fn program(&self) -> Result<Arc<PpProgram>, SimError> {
        Ok(PpProgram::shared(self.shape(), || self.schedule())?.0)
    }

    fn comm_model(&self) -> CommCostModel {
        CommCostModel::new(self.cluster.topology.clone())
    }

    /// The program memo's key for this step's schedule.
    fn shape(&self) -> Shape {
        Shape {
            kind: self.schedule,
            pp: self.mesh.pp(),
            v: self.assignment.v,
            nmb: self.nmb(),
        }
    }

    /// Prices each distinct layer kind of the layout and the stage
    /// assignment once; `frozen` and each `image_tokens` make kinds of
    /// their own. Each kind gets its per-micro-batch forward and
    /// backward times, with TP and CP communication folded in (both are
    /// exposed), its model FLOPs, parameters and activation bytes.
    fn layer_costs(&self) -> LayerCosts {
        let cfg = &self.layout.cfg;
        let gpu = &self.cluster.gpu;
        let comm = self.comm_model();
        let tp = TpPlan::new(self.mesh.tp(), true);
        let tp_group = self.mesh.group_of(GlobalRank(0), Dim::Tp);
        let cp_group = self.mesh.group_of(GlobalRank(0), Dim::Cp);
        let cp = self.mesh.cp();
        let sharding = CpSharding::new(cp);
        let tokens = self.seq / cp as u64; // per rank, mbs = 1

        // CP attention pairs: the slowest CP rank gates the stage
        // (§7.3.2); the fastest rank's idle time at the next collective
        // is the "waiting for the slowest rank" share a trace shows.
        let pairs_all = sharding.all_rank_pairs(self.seq, &self.mask);
        // lint: allow(unwrap) — all_rank_pairs returns one entry per CP rank, cp ≥ 1
        let max_pairs = *pairs_all.iter().max().expect("cp ≥ 1");
        // lint: allow(unwrap)
        let min_pairs = *pairs_all.iter().min().expect("cp ≥ 1");

        // K/V are already TP-sharded (each TP rank holds its slice of
        // the KV heads), so the CP all-gather moves only 1/tp of the
        // full K/V — together with GQA this is what keeps the exposed
        // CP cost at the §7.3.2 single-digit percentage.
        let agcp = AllGatherCp::new(cp);
        let cp_ag = if cp > 1 {
            comm.all_gather(
                &cp_group,
                agcp.kv_bytes_per_rank(cfg, self.seq) / self.mesh.tp() as u64,
            )
        } else {
            SimDuration::ZERO
        };
        let recompute_factor = if self.recompute { 1.0 } else { 0.0 };

        let attn_time = |pairs: u128| {
            let cost = llm_model::flops::attention_kernel_fwd(cfg, tokens, self.seq, pairs);
            // Heads split across TP.
            gpu.attention_time(
                KernelCost {
                    flops: crate::costs::linear_shard(cost.flops, self.mesh.tp() as f64),
                    bytes: crate::costs::linear_shard(cost.bytes, self.mesh.tp() as f64),
                    launches: cost.launches,
                },
                Dtype::Bf16,
            )
        };

        let price = |layer: LayerKind| {
            let zero = SimDuration::ZERO;
            // (fwd, bwd, exposed TP, exposed CP, CP wait)
            let (fwd, bwd, tp_exposed, cp_exposed, cp_wait) = match layer {
                LayerKind::SelfAttention { frozen } => {
                    // Dense parts (projections, FFN, norms) scale by
                    // 1/tp; the attention kernel is mask-aware and
                    // gated by the slowest CP rank.
                    let dense = llm_model::flops::attention_projections_fwd(cfg, tokens)
                        .merge(llm_model::flops::ffn_fwd(cfg, tokens))
                        .merge(llm_model::flops::norms_fwd(cfg, tokens));
                    let dense_t = gpu.gemm_time(tp.shard_cost(dense), Dtype::Bf16);
                    let attn_max = attn_time(max_pairs);
                    let attn_min = attn_time(min_pairs);
                    let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                    let lf = dense_t + attn_max + tp_t + cp_ag;
                    let bwd_factor = if frozen { 1 } else { 2 };
                    let lb = (dense_t + attn_max) * bwd_factor
                        + tp_t
                        + cp_ag // KV-grad reduce-scatter mirrors the AG
                        + (dense_t + attn_max).scale(recompute_factor);
                    let wait = (attn_max.saturating_sub(attn_min)) * (1 + bwd_factor);
                    (lf, lb, tp_t * 2, cp_ag * 2, wait)
                }
                LayerKind::CrossAttention { image_tokens } => {
                    let spec = llm_model::CrossAttentionSpec { image_tokens };
                    let cost = spec.layer_fwd(cfg, tokens);
                    let t = gpu.gemm_time(tp.shard_cost(cost), Dtype::Bf16);
                    let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                    let lb = t * 2 + tp_t + t.scale(recompute_factor);
                    (t + tp_t, lb, tp_t * 2, zero, zero)
                }
                LayerKind::Embedding => {
                    let t = gpu.gemm_time(
                        tp.shard_cost(llm_model::flops::embedding_fwd(cfg, tokens)),
                        Dtype::Bf16,
                    );
                    (t, t, zero, zero, zero)
                }
                LayerKind::OutputHead => {
                    let t = gpu.gemm_time(
                        tp.shard_cost(llm_model::flops::output_head_fwd(cfg, tokens)),
                        Dtype::Bf16,
                    );
                    let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                    (t + tp_t, t * 2 + tp_t, tp_t * 2, zero, zero)
                }
            };
            KindCost {
                fwd,
                bwd,
                tp: tp_exposed,
                cp: cp_exposed,
                cp_wait,
                flops: layer.fwd_cost(cfg, self.seq, self.seq, &self.mask).flops
                    + layer.bwd_cost(cfg, self.seq, self.seq, &self.mask).flops,
                params: layer.params(cfg),
                act_bytes_per_token: layer.activation_bytes_per_token(cfg),
            }
        };

        let mut kinds = LayerCosts(Vec::with_capacity(4));
        let layers = self.layout.layers.iter();
        for &layer in layers.chain(self.assignment.stages.iter().flatten()) {
            if !kinds.0.iter().any(|(k, _)| *k == layer) {
                kinds.0.push((layer, price(layer)));
            }
        }
        kinds
    }

    /// Per-stage forward/backward times for one micro-batch, with TP
    /// and CP communication folded in (both are exposed): each stage
    /// sums its layers' kind prices in layer order.
    fn stage_times(&self, layers: &LayerCosts) -> StageTimes {
        let num_stages = self.assignment.stages.len();
        let mut fwd = Vec::with_capacity(num_stages);
        let mut bwd = Vec::with_capacity(num_stages);
        let mut tp_total = SimDuration::ZERO;
        let mut cp_total = SimDuration::ZERO;
        let mut cp_wait = SimDuration::ZERO;
        for stage in &self.assignment.stages {
            let mut f = SimDuration::ZERO;
            let mut b = SimDuration::ZERO;
            for &layer in stage {
                let c = layers.of(layer);
                f += c.fwd;
                b += c.bwd;
                tp_total += c.tp;
                cp_total += c.cp;
                cp_wait += c.cp_wait;
            }
            fwd.push(f);
            bwd.push(b);
        }
        StageTimes {
            costs: TableCosts {
                fwd,
                bwd,
                p2p: self.stage_p2p_time(),
            },
            tp_total,
            cp_total,
            cp_wait,
        }
    }

    /// Public view of the costs a pass over this step's pipeline
    /// program binds: per-stage forward/backward times for one
    /// micro-batch (TP and CP communication folded in) and the P2P time
    /// of the inter-stage boundary activation. Each distinct layer kind
    /// is priced once, and each stage sums its layers' prices in layer
    /// order. Used by the multimodal composer to overlay encoder work
    /// on the text pipeline (§3.2).
    pub fn stage_costs(&self) -> TableCosts {
        self.stage_times(&self.layer_costs()).costs
    }

    /// P2P time of the inter-stage boundary activation for one
    /// micro-batch.
    fn stage_p2p_time(&self) -> SimDuration {
        let tokens = self.seq / self.mesh.cp() as u64;
        let bytes = mem::boundary_activation_bytes_per_token(&self.layout.cfg) * tokens
            / self.mesh.tp() as u64;
        let comm = self.comm_model();
        // Adjacent PP ranks are stride tp·cp apart — inter-node in
        // production meshes.
        let stride = self.mesh.stride(Dim::Pp);
        let dst = stride.min(self.cluster.num_gpus() - 1);
        comm.p2p(GlobalRank(0), GlobalRank(dst), bytes)
    }

    /// Exposed DP time: the first parameter all-gather and last
    /// gradient reduce-scatter (§7.3.1); everything else overlaps.
    fn dp_exposed(&self) -> SimDuration {
        let fsdp_group = self.mesh.fsdp_group_of(GlobalRank(0));
        if fsdp_group.is_singleton() {
            return SimDuration::ZERO;
        }
        let comm = self.comm_model();
        let policy = PrecisionPolicy::llama3();
        // One stage's parameter shard on this rank.
        let params_stage0: u64 = self.assignment.stages[0]
            .iter()
            .map(|l| l.params(&self.layout.cfg))
            .sum::<u64>()
            / self.mesh.tp() as u64;
        let (ag_bytes, rs_bytes) = fsdp::comm_bytes_per_step(params_stage0, policy, self.zero, 1);
        comm.all_gather(&fsdp_group, ag_bytes / fsdp_group.len() as u64)
            + comm.reduce_scatter(&fsdp_group, rs_bytes / fsdp_group.len() as u64)
    }

    /// A sound lower bound on the folded step time, in closed form over
    /// the stage costs; no schedule is built. For every schedule the
    /// pipeline program can run:
    ///
    /// `step_time ≥ max_r (Σ_{s<r} (fwd[s] + bwd[s] + 2·p2p) + work(r)) + dp_exposed`
    ///
    /// where `work(r)` is the summed cost of pipeline rank `r`'s own
    /// ops, `nmb · Σ_c (fwd + bwd)` over its `v` stages:
    ///
    /// * *serial rank stream* — rank `r` runs its ops one after another;
    /// * *fill chain* — every op on rank `r` waits for its micro-batch's
    ///   forward to cross stages `0..r`, one P2P hop each;
    /// * *drain chain* — rank `r`'s last op is a backward (each forward's
    ///   own backward runs later on the same rank), and its micro-batch's
    ///   backward must then cross stages `r−1..0`;
    /// * the exposed DP collective starts when the pipeline drains.
    ///
    /// Unscaled program durations are the stage costs bit for bit, so
    /// the sums are exact in integer nanoseconds.
    pub fn step_time_bound(&self) -> SimDuration {
        let t = self.stage_costs();
        let pp = self.mesh.pp();
        let mut hops = SimDuration::ZERO;
        let mut bound = SimDuration::ZERO;
        for r in 0..pp {
            let per_mb: SimDuration = (0..self.assignment.v)
                .map(|c| {
                    let s = (c * pp + r) as usize;
                    t.fwd[s] + t.bwd[s]
                })
                .sum();
            bound = bound.max(hops + per_mb * u64::from(self.nmb()));
            let r = r as usize;
            hops += t.fwd[r] + t.bwd[r] + t.p2p * 2;
        }
        bound + self.dp_exposed()
    }

    /// Total model FLOPs of one step across the cluster (forward +
    /// backward, frozen layers counted at reduced backward cost) — the
    /// numerator of TFLOPs/GPU.
    pub fn model_flops_per_step(&self) -> f64 {
        self.model_flops(&self.layer_costs())
    }

    /// [`StepModel::model_flops_per_step`] summed in layer order from
    /// the kind prices.
    fn model_flops(&self, layers: &LayerCosts) -> f64 {
        let seqs_per_step = self.bs as u64 * self.mesh.dp() as u64;
        let mut per_seq = 0.0f64;
        for &layer in &self.layout.layers {
            per_seq += layers.of(layer).flops;
        }
        per_seq * seqs_per_step as f64
    }

    /// The unified simulation entrypoint: healthy, jittered, faulted
    /// and traced simulation are all the same code path, selected by
    /// [`SimOptions`].
    ///
    /// Requests with per-rank variation (jitter or
    /// throttled ranks) are automatically promoted to
    /// [`SimFidelity::Full`]; degraded links stretch inter-node
    /// communication (P2P and exposed DP) by `1 / worst_link_scale`.
    ///
    /// # Errors
    /// [`SimError::InvalidSchedule`] for bad schedule parameters,
    /// [`SimError::Deadlock`] if the schedule's op order cannot execute.
    pub fn run(&self, opts: &SimOptions) -> Result<StepOutcome, SimError> {
        let stretch = opts.comm_stretch();
        if !(stretch.is_finite() && stretch >= 1.0) {
            return Err(SimError::InvalidValue(format!(
                "link capacity scales must be in (0, 1], implied stretch {stretch}"
            )));
        }
        let (jitter, health) = (opts.jitter.as_ref(), &opts.health);
        let stride = (self.mesh.stride(Dim::Pp), self.mesh.stride(Dim::Dp));
        // Pipeline rank `r` of replica `d` is the global rank at mesh
        // coordinate (tp 0, cp 0, pp r, dp d).
        let scale = |d: u32, r: u32| {
            let rank = r * stride.0 + d * stride.1;
            let j = jitter.map_or(1.0, |j| j.multiplier(rank, opts.step));
            j * health.compute_multiplier(rank)
        };
        let vary = jitter.is_some() || !health.throttled.is_empty();
        let (replicas, scale) = if opts.wants_full() {
            let scale = vary.then_some(&scale as &dyn Fn(u32, u32) -> f64);
            (self.mesh.dp(), scale)
        } else {
            (1, None)
        };
        self.program_report(replicas, stretch, scale, opts.trace)
    }

    /// Times the step on the compiled pipeline program: one lane per
    /// simulated DP replica (`replicas` of them, up to [`LANES`] per
    /// pass), with pipeline rank `r` of replica `d` computing
    /// `scale(d, r)×` slower (`None` = no scaling). The exposed DP
    /// collective joins each pipeline rank across replicas, so it starts
    /// when the slowest replica's rank finishes: `step_time = max over
    /// replicas of the pipeline makespan + dp_exposed`. Bubbles are
    /// measured per replica against its own makespan (the DP collective
    /// is communication, not bubble), and each rank reports its worst
    /// replica. With `trace`, the trace is the critical replica's
    /// one-lane timing on this same program (see [`time_replicas`]).
    fn program_report(
        &self,
        replicas: u32,
        comm_stretch: f64,
        scale: Option<&dyn Fn(u32, u32) -> f64>,
        trace: bool,
    ) -> Result<StepOutcome, SimError> {
        let layers = self.layer_costs();
        let mut times = self.stage_times(&layers);
        let mut dp_cost = self.dp_exposed();
        if comm_stretch != 1.0 {
            times.costs.p2p = times.costs.p2p.scale(comm_stretch);
            dp_cost = dp_cost.scale(comm_stretch);
        }
        let (program, built) = PpProgram::shared(self.shape(), || self.schedule())?;
        program.ensure_complete()?;
        let mut one = PpTiming::default();
        let (makespan, bubbles) = time_replicas(
            &program,
            &times.costs,
            replicas,
            self.mesh.pp(),
            scale,
            &mut one,
            trace,
        );
        let report = self.report_from(
            makespan + dp_cost,
            bubbles,
            &times,
            dp_cost,
            &layers,
            &program,
        );
        let trace = if trace {
            // A memo miss already built the schedule; a hit builds it
            // here, for the op names only.
            let sched = match built {
                Some(sched) => sched,
                None => self.schedule()?,
            };
            Some(pipeline_trace(&sched, &program, &one))
        } else {
            None
        };
        Ok(StepOutcome { report, trace })
    }

    fn report_from(
        &self,
        step_time: SimDuration,
        bubble_ratio: Vec<f64>,
        times: &StageTimes,
        dp_exposed: SimDuration,
        layers: &LayerCosts,
        program: &PpProgram,
    ) -> StepReport {
        let nmb = self.nmb() as u64;
        let exposed = ExposedComm {
            tp: times.tp_total * nmb / self.mesh.pp() as u64,
            cp: times.cp_total * nmb / self.mesh.pp() as u64,
            cp_sync_wait: times.cp_wait * nmb / self.mesh.pp() as u64,
            dp: dp_exposed,
        };
        let tokens = self.seq * self.bs as u64 * self.mesh.dp() as u64;
        let flops = self.model_flops(layers);
        let tflops_per_gpu = crate::costs::tflops_per_gpu(
            flops,
            step_time.as_secs_f64().max(1e-12),
            self.cluster.num_gpus() as f64,
        );
        StepReport {
            step_time,
            tflops_per_gpu,
            bubble_ratio,
            peak_memory: self
                .memory_components_of(layers, |r| program.peak_in_flight(r))
                .iter()
                .map(MemoryComponents::total)
                .collect(),
            exposed,
            tokens,
        }
    }

    /// Per-PP-rank peak memory: parameter state under the ZeRO mode
    /// plus activation residency replayed from the schedule's in-flight
    /// micro-batches (§6.3 buffer-release factor applied when
    /// recomputation is off; recomputation keeps only boundary
    /// activations).
    pub fn peak_memory(&self) -> Vec<u64> {
        self.memory_components()
            .iter()
            .map(MemoryComponents::total)
            .collect()
    }

    /// The per-PP-rank breakdown [`StepModel::peak_memory`] is composed
    /// from, exposed so conformance checkers can re-derive the
    /// high-water mark independently: `total = state_bytes +
    /// act_bytes_per_stage_mb × peak_in_flight`, where
    /// `peak_in_flight` must equal the schedule's own
    /// [`PpSchedule::peak_in_flight`](crate::pp::schedule::PpSchedule::peak_in_flight).
    pub fn memory_components(&self) -> Vec<MemoryComponents> {
        let sched = self.build_schedule();
        self.memory_components_of(&self.layer_costs(), |r| sched.peak_in_flight(r))
    }

    /// [`StepModel::memory_components`] from the kind prices, with rank
    /// `r`'s peak in-flight count `peak_in_flight(r)` (the schedule's,
    /// or the program's copy of it).
    fn memory_components_of(
        &self,
        layers: &LayerCosts,
        peak_in_flight: impl Fn(u32) -> u32,
    ) -> Vec<MemoryComponents> {
        let cfg = &self.layout.cfg;
        let policy = PrecisionPolicy::llama3();
        let tokens = self.seq / self.mesh.cp() as u64;
        let fsdp_n = (self.mesh.dp() * self.mesh.cp()) as u64;
        (0..self.mesh.pp())
            .map(|rank| {
                // The rank's layers across its chunks.
                let (mut params, mut act_bytes, mut count) = (0u64, 0u64, 0u64);
                for chunk in 0..self.assignment.v {
                    for &layer in self.assignment.stage(rank, chunk) {
                        let c = layers.of(layer);
                        params += c.params;
                        act_bytes += c.act_bytes_per_token;
                        count += 1;
                    }
                }
                let params = params / self.mesh.tp() as u64;
                let state_bytes = fsdp::state_bytes_per_rank(params, policy, self.zero, fsdp_n)
                    // FP32 gradient accumulators live unsharded at the
                    // backward peak even under ZeRO-2 (§6.2).
                    .max(params * (policy.param_bytes + policy.grad_bytes));
                // Mean activation bytes per stage-micro-batch on this
                // rank.
                let per_token = if self.recompute {
                    // Only boundary activations are kept.
                    mem::boundary_activation_bytes_per_token(cfg) * count
                } else {
                    (act_bytes as f64 * crate::planner::ACT_RELEASE_FACTOR) as u64
                };
                MemoryComponents {
                    state_bytes,
                    act_bytes_per_stage_mb: per_token * tokens
                        / self.mesh.tp() as u64
                        / self.assignment.v as u64,
                    peak_in_flight: peak_in_flight(rank),
                }
            })
            .collect()
    }
}

/// Times `replicas` DP replicas on `program` under `costs`: replica
/// `d`'s pipeline rank `r` computes `scale(d, r)×` slower (`None` = no
/// scaling).
/// Chunks of [`LANES`] replicas share a pass; a short last chunk takes
/// the narrowest of 1, 2, 4 and [`LANES`] lanes that holds it, since
/// lanes cost even when spare. On the probe-size 405B step (`dp = 2`,
/// 672 ops) one 2-lane pass took 3.4–3.8 µs, two 1-lane passes
/// 4.4–4.7 µs and one 8-lane pass 9.8–10.4 µs (release build, 2-core
/// Xeon, best of 15, two runs). Returns the slowest replica's makespan
/// and each rank's worst bubble ratio.
///
/// One-lane passes run in `one`. With `trace`, `one` ends holding the
/// critical replica's timing, starts included: the replica whose
/// pipeline ends last, the lowest index on ties. A single replica's
/// pass already is that timing; otherwise the critical replica is
/// rerun on one lane under its own scales.
fn time_replicas(
    program: &PpProgram,
    costs: &TableCosts,
    replicas: u32,
    pp: u32,
    scale: Option<&dyn Fn(u32, u32) -> f64>,
    one: &mut PpTiming,
    trace: bool,
) -> (SimDuration, Vec<f64>) {
    let mut timer = ReplicaTimer {
        program,
        costs,
        pp,
        scale,
        scales: Vec::new(),
        makespan: SimDuration::ZERO,
        critical: 0,
        bubbles: vec![0.0; pp as usize],
    };
    let mut wide = PpTiming::<LANES>::default();
    for first in (0..replicas).step_by(LANES) {
        let live = (replicas - first).min(LANES as u32) as usize;
        match live {
            1 => timer.pass(first, live, one),
            2 => timer.pass(first, live, &mut PpTiming::<2>::default()),
            3 | 4 => timer.pass(first, live, &mut PpTiming::<4>::default()),
            _ => timer.pass(first, live, &mut wide),
        }
    }
    if trace && replicas > 1 {
        timer.pass(timer.critical, 1, one);
    }
    (timer.makespan, timer.bubbles)
}

/// The running worst of [`time_replicas`]'s passes.
struct ReplicaTimer<'a> {
    program: &'a PpProgram,
    costs: &'a TableCosts,
    pp: u32,
    scale: Option<&'a dyn Fn(u32, u32) -> f64>,
    /// Lane `k`'s per-rank scales at `k * pp..`; empty when unscaled.
    scales: Vec<f64>,
    makespan: SimDuration,
    /// The first replica whose pipeline ends at `makespan`.
    critical: u32,
    bubbles: Vec<f64>,
}

impl ReplicaTimer<'_> {
    /// Times replicas `first..first + live` in one `L`-lane pass. Spare
    /// lanes repeat the last live replica and are ignored.
    fn pass<const L: usize>(&mut self, first: u32, live: usize, t: &mut PpTiming<L>) {
        let mut width = 0;
        if let Some(scale) = self.scale {
            width = self.pp as usize;
            self.scales.clear();
            for k in 0..L {
                let d = first + k.min(live - 1) as u32;
                self.scales.extend((0..self.pp).map(|r| scale(d, r)));
            }
        }
        let scales = &self.scales;
        self.program.run_lanes(
            self.costs,
            std::array::from_fn(|k| &scales[k * width..(k + 1) * width]),
            t,
        );
        for lane in 0..live {
            if t.makespan[lane] > self.makespan {
                self.makespan = t.makespan[lane];
                self.critical = first + lane as u32;
            }
            for (r, b) in (0..self.pp).zip(self.bubbles.iter_mut()) {
                *b = b.max(t.bubble_ratio(lane, r));
            }
        }
    }
}

/// The pipeline trace of a one-lane pass `t` over `program`, compiled
/// from `sched`: one compute event per op, rank by rank in program
/// order, on its pipeline rank and named by the op (`F1.3`, `B0.2`).
fn pipeline_trace(sched: &PpSchedule, program: &PpProgram, t: &PpTiming) -> Trace {
    let events = (0..)
        .zip(&sched.ranks)
        .flat_map(|(rank, ops)| {
            ops.iter()
                .zip(program.rank_ops(rank))
                .map(move |(op, i)| TraceEvent {
                    rank,
                    name: op.to_string().into(),
                    category: EventCategory::Compute,
                    start_ns: t.start[i].as_nanos(),
                    duration_ns: t.end[i][0].saturating_since(t.start[i]).as_nanos(),
                })
        })
        .collect();
    Trace { events }
}

/// One PP rank's peak-memory breakdown (see
/// [`StepModel::memory_components`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryComponents {
    /// Parameter/optimizer/gradient state bytes under the ZeRO mode.
    pub state_bytes: u64,
    /// Mean activation bytes held per in-flight stage-micro-batch.
    pub act_bytes_per_stage_mb: u64,
    /// Peak concurrently-live micro-batches from the schedule replay.
    pub peak_in_flight: u32,
}

impl MemoryComponents {
    /// The recomposed peak:
    /// `state + act_per_stage_mb × peak_in_flight`.
    pub fn total(&self) -> u64 {
        self.state_bytes + self.act_bytes_per_stage_mb * self.peak_in_flight as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::balance::BalancePolicy;
    use llm_model::TransformerConfig;

    /// Default-options run, unwrapped to the report.
    trait RunDefault {
        fn pipe_sim(&self) -> StepReport;
    }
    impl RunDefault for StepModel {
        fn pipe_sim(&self) -> StepReport {
            self.run(&SimOptions::default()).unwrap().report
        }
    }

    /// A scaled-down 405B on a small cluster (the §7.1 experimental
    /// setup): 28 full-dimension layers, pp = 4, one layer per virtual
    /// stage (v = 7), bs = 12.
    fn scaled_step(schedule: ScheduleKind, balance: BalancePolicy, recompute: bool) -> StepModel {
        let cfg = TransformerConfig::llama3_405b_scaled(28);
        let layout = ModelLayout::text(cfg);
        let mesh = Mesh4D::new(8, 1, 4, 2);
        let assignment = StageAssignment::build(&layout, 4, 7, balance);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule,
            zero: ZeroMode::Zero1,
            bs: 12,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute,
        }
    }

    #[test]
    fn simulate_runs_and_reports() {
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let r = m.pipe_sim();
        assert!(r.step_time > SimDuration::ZERO);
        assert!(r.tflops_per_gpu > 50.0, "tflops {}", r.tflops_per_gpu);
        assert!(r.tflops_per_gpu < 600.0, "tflops {}", r.tflops_per_gpu);
        assert_eq!(r.bubble_ratio.len(), 4);
        assert_eq!(r.peak_memory.len(), 4);
        assert_eq!(r.tokens, 8192 * 12 * 2);
    }

    #[test]
    fn fig9_schedule_ordering() {
        // AFAB ≥ flexible(nc 6) ≥ 1F1B(nc 4) in throughput; reversed in
        // peak memory (Fig 9).
        let t = |k| scaled_step(k, BalancePolicy::Uniform, false).pipe_sim();
        let r_1f1b = t(ScheduleKind::Flexible { nc: 4 });
        let r_flex = t(ScheduleKind::Flexible { nc: 6 });
        let r_afab = t(ScheduleKind::AllFwdAllBwd);
        // Fig 9a separates AFAB and flexible by < 0.3%; we only require
        // them within a few percent of each other, both above 1F1B.
        let ratio = r_afab.tflops_per_gpu / r_flex.tflops_per_gpu;
        assert!(
            (0.93..1.10).contains(&ratio),
            "afab {} vs flex {}",
            r_afab.tflops_per_gpu,
            r_flex.tflops_per_gpu
        );
        assert!(
            r_flex.tflops_per_gpu > r_1f1b.tflops_per_gpu,
            "flex {} ≤ 1f1b {}",
            r_flex.tflops_per_gpu,
            r_1f1b.tflops_per_gpu
        );
        assert!(r_afab.tflops_per_gpu > r_1f1b.tflops_per_gpu);
        assert!(r_1f1b.max_peak_memory() < r_flex.max_peak_memory());
        assert!(r_flex.max_peak_memory() < r_afab.max_peak_memory());
    }

    #[test]
    fn balanced_pipeline_lowers_peak_memory_and_raises_tflops() {
        // Fig 10: drop one layer from the first and last rank.
        let uni = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        )
        .pipe_sim();
        let bal = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::DropFirstAndLast,
            false,
        )
        .pipe_sim();
        assert!(
            bal.max_peak_memory() < uni.max_peak_memory(),
            "balanced {} vs uniform {}",
            bal.max_peak_memory(),
            uni.max_peak_memory()
        );
        assert!(bal.tflops_per_gpu > uni.tflops_per_gpu);
    }

    #[test]
    fn recomputation_trades_memory_for_throughput() {
        let off = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        )
        .pipe_sim();
        let on = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            true,
        )
        .pipe_sim();
        assert!(on.max_peak_memory() < off.max_peak_memory());
        assert!(on.tflops_per_gpu < off.tflops_per_gpu);
    }

    #[test]
    fn first_rank_holds_most_memory() {
        // §3.1.2: warm-up imbalance makes rank 0 the OOM risk.
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let mem = m.peak_memory();
        assert!(mem[0] >= mem[3], "{mem:?}");
    }

    #[test]
    fn document_mask_increases_cp_sync_wait() {
        let mut m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        m.mesh = Mesh4D::new(8, 4, 4, 2);
        m.cluster = Cluster::llama3(m.mesh.num_gpus());
        m.seq = 32768;
        let causal = m.pipe_sim();
        m.mask = MaskSpec::document(vec![
            16384, 1024, 1024, 2048, 512, 512, 1024, 1024, 512, 4096, 512, 3072, 1024,
        ]);
        let doc = m.pipe_sim();
        assert!(doc.exposed.cp_sync_wait > causal.exposed.cp_sync_wait);
    }

    /// A small jitter-free step for one of the three Llama 3 scales.
    fn folding_case(cfg: TransformerConfig, mesh: Mesh4D, v: u32, bs: u32) -> StepModel {
        let layout = ModelLayout::text(cfg);
        let assignment = StageAssignment::build(&layout, mesh.pp(), v, BalancePolicy::Uniform);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::Flexible { nc: 4 },
            zero: ZeroMode::Zero1,
            bs,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute: false,
        }
    }

    #[test]
    fn folded_equals_full_8b() {
        let m = folding_case(
            TransformerConfig::llama3_8b(),
            Mesh4D::new(4, 1, 2, 4),
            4,
            8,
        );
        assert_eq!(
            m.run(&SimOptions::default()).unwrap().report,
            m.run(&SimOptions::new().fidelity(SimFidelity::Full))
                .unwrap()
                .report
        );
    }

    #[test]
    fn folded_equals_full_70b() {
        let m = folding_case(
            TransformerConfig::llama3_70b(),
            Mesh4D::new(4, 1, 4, 2),
            5,
            8,
        );
        assert_eq!(
            m.run(&SimOptions::default()).unwrap().report,
            m.run(&SimOptions::new().fidelity(SimFidelity::Full))
                .unwrap()
                .report
        );
    }

    #[test]
    fn folded_equals_full_405b_scaled_with_cp() {
        let m = folding_case(
            TransformerConfig::llama3_405b_scaled(28),
            Mesh4D::new(4, 2, 4, 2),
            7,
            12,
        );
        assert_eq!(
            m.run(&SimOptions::default()).unwrap().report,
            m.run(&SimOptions::new().fidelity(SimFidelity::Full))
                .unwrap()
                .report
        );
    }

    #[test]
    fn zero_amplitude_jitter_matches_folded() {
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let jittered = m
            .run(
                &SimOptions::new()
                    .fidelity(SimFidelity::Full)
                    .jitter(JitterModel::none()),
            )
            .unwrap()
            .report;
        assert_eq!(jittered, m.pipe_sim());
    }

    #[test]
    fn static_jitter_slows_the_step() {
        use cluster_model::jitter::JitterKind;
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let baseline = m.pipe_sim();
        let j = JitterModel::new(JitterKind::Static, 0.10, 42);
        let jittered = m.run(&SimOptions::new().jitter(j)).unwrap().report;
        assert!(
            jittered.step_time > baseline.step_time,
            "jittered {:?} ≤ baseline {:?}",
            jittered.step_time,
            baseline.step_time
        );
        // The slowdown is bounded by the amplitude (compute scales by at
        // most 1.1; transfers and DP collectives are unscaled).
        let ratio = jittered.step_time.as_secs_f64() / baseline.step_time.as_secs_f64();
        assert!(ratio < 1.12, "slowdown {ratio} exceeds amplitude bound");
    }

    #[test]
    fn throttled_rank_slows_the_whole_step() {
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let baseline = m.pipe_sim();
        let throttled = m
            .run(&SimOptions::new().faults(ClusterHealth::healthy().throttle(0, 1.15)))
            .unwrap()
            .report;
        assert!(throttled.step_time > baseline.step_time);
        let ratio = throttled.step_time.as_secs_f64() / baseline.step_time.as_secs_f64();
        assert!(ratio < 1.17, "slowdown {ratio} exceeds throttle bound");
        // A rank outside the lowered slice's jitter mapping still exists;
        // throttling a rank that maps to no pipeline rank leaves the step
        // unchanged.
        let elsewhere = m
            .run(&SimOptions::new().faults(ClusterHealth::healthy().throttle(3, 1.15)))
            .unwrap()
            .report;
        assert!(elsewhere.step_time <= throttled.step_time);
    }

    #[test]
    fn degraded_link_stretches_communication() {
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let baseline = m.pipe_sim();
        let degraded = m
            .run(&SimOptions::new().faults(ClusterHealth::healthy().degrade_node(0, 0.25)))
            .unwrap()
            .report;
        assert!(
            degraded.step_time > baseline.step_time,
            "degraded {:?} ≤ baseline {:?}",
            degraded.step_time,
            baseline.step_time
        );
        // 4× stretch applies to exposed DP exactly.
        assert_eq!(degraded.exposed.dp, baseline.exposed.dp.scale(4.0));
        // Degradation alone stays on the folded path (replicas identical).
        let full = m
            .run(
                &SimOptions::new()
                    .fidelity(SimFidelity::Full)
                    .faults(ClusterHealth::healthy().degrade_node(0, 0.25)),
            )
            .unwrap()
            .report;
        assert_eq!(degraded, full);
    }

    #[test]
    fn trace_rides_along_with_any_run() {
        let m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        let plain = m.run(&SimOptions::default()).unwrap();
        assert!(plain.trace.is_none());
        let traced = m.run(&SimOptions::new().trace(true)).unwrap();
        let trace = traced.trace.expect("trace requested");
        assert!(!trace.events.is_empty());
        assert_eq!(traced.report, plain.report);
        // A degraded link (capacity 0.25) keeps the folded path and
        // stretches every P2P transfer 4×, in the trace as in the
        // report: rank 1's first forward starts that long after rank
        // 0's ends, and the last event ends `exposed.dp` before the
        // step does.
        let degraded = SimOptions::new().faults(ClusterHealth::healthy().degrade_node(0, 0.25));
        let stretched = m.run(&degraded.clone().trace(true)).unwrap();
        let report = m.run(&degraded).unwrap().report;
        assert_eq!(stretched.report, report);
        let stretched = stretched.trace.expect("trace requested");
        assert_eq!(
            SimDuration::from_nanos(stretched.span_ns()) + report.exposed.dp,
            report.step_time
        );
        let p2p = m.stage_p2p_time();
        for (trace, gap) in [(&trace, p2p), (&stretched, p2p.scale(4.0))] {
            let at = |rank, name: &str| {
                let e = trace
                    .events
                    .iter()
                    .find(|e| e.rank == rank && *e.name == *name);
                e.expect("op traced")
            };
            let (sent, received) = (at(0, "F0.0"), at(1, "F0.0"));
            assert_eq!(
                received.start_ns - (sent.start_ns + sent.duration_ns),
                gap.as_nanos()
            );
        }
    }

    #[test]
    fn invalid_schedule_surfaces_as_error() {
        let mut m = scaled_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        );
        m.schedule = ScheduleKind::Flexible { nc: 99 }; // nc > nmb
        match m.run(&SimOptions::default()) {
            Err(SimError::InvalidSchedule(msg)) => assert!(msg.contains("nc")),
            other => panic!("expected InvalidSchedule, got {other:?}"),
        }
    }
}
