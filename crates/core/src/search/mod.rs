//! Auto-parallelism search: the Pareto planner over the 4D config
//! space.
//!
//! Where [`crate::planner`] applies the paper's §5.1 *reasoning*
//! (greedy, rule-guided: smallest PP per TP, CP only when the batch is
//! exhausted) as a policy over this module's candidates, this module
//! searches the whole configuration space — `tp × cp × pp × dp × nmb ×
//! ZeRO mode × recompute × schedule` — and reports the full Pareto
//! frontier over (step time, peak HBM), with the head of the frontier
//! optionally refined by the [`crate::run::RunSimulator`] goodput
//! model. Both share the enumerator, the step builder, the memory rule
//! and the folded scoring, so the paper's production configurations
//! fall out as frontier points and the planner's single answer leads
//! the frontier of its own space.
//!
//! The search is a staged funnel:
//!
//! 1. **Admission** — pure arithmetic: divisibility of the mesh into
//!    the cluster, `gbs % dp == 0`, `pp ≤ layers`,
//!    `seq % 2·cp == 0`. No model is built.
//! 2. **Memory and bound** — the static memory rule
//!    ([`crate::analyze::memory::admitted_bounds`], µs-cheap, depends
//!    on every axis, shared with the planner) rejects each admitted
//!    candidate whose worst rank exceeds the HBM admission budget. Every
//!    survivor gets a [`PruneKey`]: the sound step-time lower bound
//!    [`StepModel::step_time_bound`] and its exact peak memory.
//! 3. **Bounded walk** — survivors are visited in `(bound, enumeration
//!    index)` order, in fixed waves of [`WAVE`]. A candidate is
//!    *pruned* — no analysis, no folded run — when an earlier wave
//!    scored a point faster than its bound with no more memory: that
//!    point strictly dominates it, so it can never reach the frontier.
//!    The rest of the wave runs the graph-shaped pre-flight rules
//!    (deadlock, race, collective ordering; any error rejects) and then
//!    the folded fast simulation ([`crate::step::StepModel::run`] at
//!    [`crate::step::SimFidelity::Folded`]), in parallel on scoped
//!    threads. The graph-shaped verdicts are **memoized by their true
//!    inputs** — deadlock and race by the schedule shape `(kind, pp, v,
//!    nmb)`, TP/CP collectives by mesh + schedule (their stream
//!    derivations read neither ZeRO nor recompute), FSDP collectives by
//!    mesh + schedule + ZeRO — in process-wide memos. The wave size is
//!    a constant, so the walk, its counts and the report are
//!    bit-identical for any thread count. `score_one` is the unpruned,
//!    unmemoized per-candidate specification; the conformance oracle
//!    `oracle_search_frontier` pins [`search`] against it.
//! 4. **Goodput refinement** (optional) — the first
//!    [`SearchSpec::goodput_head`] frontier points are re-run through
//!    the seeded fault-timeline goodput simulation.
//!
//! Determinism: enumeration order is fixed, scoring is pure, the fault
//! timeline is seeded, and no wall-clock or hash-map iteration enters
//! the report — two runs of [`search`] on the same [`SearchSpec`]
//! produce bit-identical [`SearchReport`]s.

use crate::analyze;
use crate::fsdp::ZeroMode;
use crate::infer::{InferPlan, InferSpec, InferenceModel};
use crate::mesh::Mesh4D;
use crate::planner::{PlanError, PlannerInput};
use crate::pp::balance::{BalancePolicy, StageAssignment};
use crate::pp::schedule::{PpSchedule, ScheduleKind};
use crate::run::{CheckpointPolicy, RunSimulator};
use crate::step::{SimOptions, StepModel, Workload};
use cluster_model::faults::{FaultRates, FaultTimeline};
use cluster_model::gpu::GpuSpec;
use cluster_model::topology::{Cluster, TopologySpec};
use collectives::{CacheStats, ShardedCache};
use llm_model::masks::MaskSpec;
use llm_model::{ModelLayout, TransformerConfig};
use sim_engine::time::SimDuration;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::LazyLock;
use workload::traffic::{TrafficShape, TrafficSpec};

/// What to search: the planning problem plus the bounds of the
/// configuration space and the funnel options.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The planning problem (cluster, model, token budget, sequence
    /// length) — same shape the §5.1 planner takes.
    pub input: PlannerInput,
    /// Largest TP degree to enumerate. `0` means "the node size"
    /// (§5.1: TP never leaves NVLink).
    pub max_tp: u32,
    /// Largest CP degree to enumerate (power-of-two sweep).
    pub max_cp: u32,
    /// Largest PP degree to enumerate. `0` means "up to the layer
    /// count".
    pub max_pp: u32,
    /// ZeRO modes to enumerate per mesh, in report order.
    pub zero_modes: Vec<ZeroMode>,
    /// Activation-recompute choices to enumerate per mesh.
    pub recompute: Vec<bool>,
    /// Number of leading frontier points to refine with the goodput
    /// simulation. `0` disables refinement.
    pub goodput_head: usize,
    /// Horizon of the goodput fault timeline, seconds.
    pub goodput_horizon_s: f64,
    /// Seed of the goodput fault timeline.
    pub seed: u64,
    /// Scoring threads. `0` means "available parallelism". The report
    /// is bit-identical for any value.
    pub threads: usize,
    /// Which workload the funnel scores. [`Workload::Training`] ranks
    /// configurations by (step time, peak HBM); [`Workload::Inference`]
    /// enumerates `tp × pp × replicas` serving meshes and ranks them by
    /// (p99 TTFT, peak HBM) under a common seeded steady probe trace.
    pub workload: Workload,
}

impl SearchSpec {
    /// A spec with default space bounds and funnel options for a
    /// *training* planning problem.
    pub fn training(input: PlannerInput) -> SearchSpec {
        SearchSpec {
            input,
            max_tp: 0,
            max_cp: 64,
            max_pp: 0,
            zero_modes: vec![ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3],
            recompute: vec![false, true],
            goodput_head: 0,
            goodput_horizon_s: 24.0 * 3600.0,
            seed: 0x0060_01D9,
            threads: 0,
            workload: Workload::Training,
        }
    }

    /// The Llama 3 405B production search problem (16 M-token budget,
    /// H100 cluster).
    pub fn llama3_405b(ngpu: u32, seq: u64) -> SearchSpec {
        SearchSpec::training(PlannerInput::llama3_405b(ngpu, seq))
    }

    /// The Llama 3 70B search problem on the same cluster recipe.
    pub fn llama3_70b(ngpu: u32, seq: u64) -> SearchSpec {
        SearchSpec::training(PlannerInput {
            ngpu,
            gpus_per_node: 8,
            token_budget: 16 * 1024 * 1024,
            seq,
            model: TransformerConfig::llama3_70b(),
            gpu: GpuSpec::h100_sxm_hbm3(),
        })
    }

    /// The Llama 3 8B search problem on the same cluster recipe.
    pub fn llama3_8b(ngpu: u32, seq: u64) -> SearchSpec {
        SearchSpec::training(PlannerInput {
            ngpu,
            gpus_per_node: 8,
            token_budget: 16 * 1024 * 1024,
            seq,
            model: TransformerConfig::llama3_8b(),
            gpu: GpuSpec::h100_sxm_hbm3(),
        })
    }

    /// Selects the inference workload: the funnel ranks `tp × pp ×
    /// replicas` serving meshes by (p99 TTFT, peak HBM).
    pub fn inference(mut self) -> SearchSpec {
        self.workload = Workload::Inference;
        self
    }

    /// Sets the CP bound.
    pub fn max_cp(mut self, max_cp: u32) -> SearchSpec {
        self.max_cp = max_cp;
        self
    }

    /// Sets the scoring thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> SearchSpec {
        self.threads = threads;
        self
    }

    /// Enables goodput refinement of the first `head` frontier points.
    pub fn goodput_head(mut self, head: usize) -> SearchSpec {
        self.goodput_head = head;
        self
    }

    /// Effective TP bound.
    fn tp_bound(&self) -> u32 {
        let b = if self.max_tp == 0 {
            self.input.gpus_per_node
        } else {
            self.max_tp
        };
        b.min(self.input.ngpu)
    }

    /// Effective PP bound.
    fn pp_bound(&self) -> u32 {
        let layers = u32::try_from(self.input.model.num_layers).unwrap_or(u32::MAX);
        if self.max_pp == 0 {
            layers
        } else {
            self.max_pp.min(layers)
        }
    }

    /// Builds the [`StepModel`] for one enumerated configuration.
    /// Returns `None` when the configuration is not admissible for
    /// this spec (it did not come from [`enumerate_configs`]).
    pub fn build_step(&self, cfg: &ConfigPoint) -> Option<StepModel> {
        let model_parallel = cfg.tp as u64 * cfg.cp as u64 * cfg.pp as u64;
        let total = model_parallel.checked_mul(cfg.dp as u64)?;
        if total != u64::from(self.input.ngpu) {
            return None;
        }
        let layout = ModelLayout::text(self.input.model.clone());
        let v = u32::try_from(self.input.model.num_layers.div_ceil(cfg.pp as u64)).ok()?;
        let assignment = StageAssignment::build(&layout, cfg.pp, v, BalancePolicy::Uniform);
        Some(StepModel {
            cluster: Cluster {
                gpu: self.input.gpu.clone(),
                topology: TopologySpec::llama3_production(
                    self.input.ngpu.div_ceil(self.input.gpus_per_node),
                ),
            },
            mesh: Mesh4D::new(cfg.tp, cfg.cp, cfg.pp, cfg.dp),
            layout,
            assignment,
            schedule: cfg.schedule,
            zero: cfg.zero,
            bs: u32::try_from(cfg.nmb).ok()?,
            seq: self.input.seq,
            mask: MaskSpec::Causal,
            recompute: cfg.recompute,
        })
    }
}

/// One enumerated configuration: the 4D mesh plus the per-mesh
/// choices. `nmb` is the micro-batch count per replica per step
/// (micro-batch size 1, as in the paper's production recipe), fully
/// determined by the token budget once `dp` is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigPoint {
    /// Tensor parallelism.
    pub tp: u32,
    /// Context parallelism.
    pub cp: u32,
    /// Pipeline parallelism.
    pub pp: u32,
    /// Data parallelism (derived: `ngpu / (tp·cp·pp)`).
    pub dp: u32,
    /// Micro-batches per replica per step (= `gbs / dp`).
    pub nmb: u64,
    /// ZeRO sharding mode.
    pub zero: ZeroMode,
    /// Pipeline schedule family.
    pub schedule: ScheduleKind,
    /// Activation recompute on the backward pass.
    pub recompute: bool,
}

impl ConfigPoint {
    /// The configuration's 4D mesh.
    pub fn mesh(&self) -> Mesh4D {
        Mesh4D::new(self.tp, self.cp, self.pp, self.dp)
    }
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sched = match self.schedule {
            ScheduleKind::AllFwdAllBwd => "afab".to_string(),
            ScheduleKind::Interleaved1F1B => "1f1b".to_string(),
            ScheduleKind::Flexible { nc } => format!("flex{nc}"),
        };
        let zero = match self.zero {
            ZeroMode::Zero1 => "zero1",
            ZeroMode::Zero2 => "zero2",
            ZeroMode::Zero3 => "zero3",
        };
        write!(
            f,
            "tp{}·cp{}·pp{}·dp{} nmb{} {zero} {sched}{}",
            self.tp,
            self.cp,
            self.pp,
            self.dp,
            self.nmb,
            if self.recompute { " +rc" } else { "" }
        )
    }
}

/// One scored configuration: the objectives the frontier is built
/// over, plus secondary metrics for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPoint {
    /// The configuration.
    pub config: ConfigPoint,
    /// End-to-end step time (objective 1, minimized).
    pub step_time: SimDuration,
    /// Worst per-rank peak HBM in bytes (objective 2, minimized).
    pub peak_memory: u64,
    /// Model TFLOPs per GPU.
    pub tflops_per_gpu: f64,
    /// Worst per-PP-rank bubble ratio.
    pub bubble_ratio: f64,
    /// Goodput (objective 3, maximized), present iff this point was
    /// refined through the fault-timeline run simulation.
    pub goodput: Option<f64>,
}

/// How many candidates each funnel stage saw and passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunnelCounts {
    /// `(tp, cp, pp)` tuples visited by the enumerator.
    pub meshes_enumerated: usize,
    /// Tuples that passed the arithmetic admission stage.
    pub meshes_admitted: usize,
    /// Admitted meshes × ZeRO × recompute × schedule variants.
    pub candidates: usize,
    /// Candidates rejected by the static pre-flight analyzer.
    pub rejected_preflight: usize,
    /// Candidates the bounded walk skipped: an already-scored point
    /// strictly dominates each of them.
    pub pruned: usize,
    /// Candidates scored by the folded simulation.
    pub scored: usize,
    /// Frontier points refined with the goodput simulation.
    pub refined: usize,
}

/// What [`search`] returns: funnel statistics, the Pareto frontier in
/// (step time ↑, peak memory ↑) order, and the argmax points.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Funnel statistics.
    pub counts: FunnelCounts,
    /// The Pareto frontier over (step time, peak HBM), sorted by step
    /// time ascending (ties: memory, then enumeration order).
    pub frontier: Vec<SearchPoint>,
    /// The fastest configuration (first frontier point).
    pub best_step_time: Option<SearchPoint>,
    /// The leanest configuration (lowest peak HBM on the frontier).
    pub best_memory: Option<SearchPoint>,
    /// The highest-goodput refined configuration, if refinement ran.
    pub best_goodput: Option<SearchPoint>,
}

impl SearchReport {
    /// `true` when some frontier point runs on the given 4D mesh
    /// (any ZeRO/schedule/recompute variant).
    pub fn frontier_contains_mesh(&self, tp: u32, cp: u32, pp: u32, dp: u32) -> bool {
        self.frontier.iter().any(|p| {
            p.config.tp == tp && p.config.cp == cp && p.config.pp == pp && p.config.dp == dp
        })
    }

    /// Human-readable multi-line summary.
    pub fn render_human(&self) -> String {
        let c = &self.counts;
        let mut out = format!(
            "funnel: {} meshes → {} admitted → {} candidates → {} scored \
             ({} preflight-rejected, {} pruned, {} goodput-refined)\n",
            c.meshes_enumerated,
            c.meshes_admitted,
            c.candidates,
            c.scored,
            c.rejected_preflight,
            c.pruned,
            c.refined
        );
        out.push_str(&format!(
            "frontier ({} points, step time ↑):\n",
            self.frontier.len()
        ));
        for p in &self.frontier {
            out.push_str(&format!(
                "  {:<44} step {:>9.3} ms  mem {:>6.1} GiB  {:>5.0} TFLOPs{}\n",
                p.config.to_string(),
                p.step_time.as_millis_f64(),
                p.peak_memory as f64 / (1u64 << 30) as f64,
                p.tflops_per_gpu,
                match p.goodput {
                    Some(g) => format!("  goodput {:.3}", g),
                    None => String::new(),
                }
            ));
        }
        for (label, p) in [
            ("fastest", &self.best_step_time),
            ("leanest", &self.best_memory),
            ("best-goodput", &self.best_goodput),
        ] {
            if let Some(p) = p {
                out.push_str(&format!("argmax {label}: {}\n", p.config));
            }
        }
        out
    }
}

/// Enumerates the admissible configuration space of a spec in the
/// fixed deterministic order: `tp ↑, cp ↑, pp ↑` (powers of two), then
/// ZeRO modes and recompute choices in spec order, then schedule
/// variants. Returns the configurations plus the count of `(tp, cp,
/// pp)` tuples visited.
pub fn enumerate_configs(spec: &SearchSpec) -> (Vec<ConfigPoint>, usize) {
    let input = &spec.input;
    let gbs = input.token_budget.checked_div(input.seq).unwrap_or(0);
    let mut out = Vec::new();
    let mut visited = 0usize;
    for tp in powers_of_two_up_to(spec.tp_bound()) {
        for cp in powers_of_two_up_to(spec.max_cp) {
            for pp in powers_of_two_up_to(spec.pp_bound()) {
                visited += 1;
                let model_parallel = tp as u64 * cp as u64 * pp as u64;
                if model_parallel > u64::from(input.ngpu)
                    || !u64::from(input.ngpu).is_multiple_of(model_parallel)
                {
                    continue;
                }
                let dp = (u64::from(input.ngpu) / model_parallel) as u32;
                if gbs == 0 || !gbs.is_multiple_of(u64::from(dp)) {
                    continue;
                }
                let nmb = gbs / u64::from(dp);
                if nmb == 0
                    || nmb > u64::from(u32::MAX)
                    || !input.seq.is_multiple_of(2 * u64::from(cp))
                {
                    continue;
                }
                for &zero in &spec.zero_modes {
                    for &recompute in &spec.recompute {
                        for schedule in schedule_variants(pp, nmb) {
                            out.push(ConfigPoint {
                                tp,
                                cp,
                                pp,
                                dp,
                                nmb,
                                zero,
                                schedule,
                                recompute,
                            });
                        }
                    }
                }
            }
        }
    }
    (out, visited)
}

/// The schedule families enumerated for a `(pp, nmb)` shape: the
/// all-forward-all-backward baseline, and — when the pipeline is deep
/// enough to interleave — the paper's flexible schedule at `nc = pp`
/// and the deeper `nc = 2·pp` variant (§3.1.3's tunable knob).
fn schedule_variants(pp: u32, nmb: u64) -> Vec<ScheduleKind> {
    let mut v = vec![ScheduleKind::AllFwdAllBwd];
    if pp > 1 && u64::from(pp) <= nmb {
        v.push(ScheduleKind::Flexible { nc: pp });
        if u64::from(2 * pp) <= nmb {
            v.push(ScheduleKind::Flexible { nc: 2 * pp });
        }
    }
    v
}

fn powers_of_two_up_to(max: u32) -> impl Iterator<Item = u32> {
    (0..31u32).map(|s| 1u32 << s).take_while(move |&p| p <= max)
}

/// What the funnel did with one admitted candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Rejected by a pre-flight rule (or, for the inference workload,
    /// by the HBM fit).
    Rejected,
    /// Skipped by the bounded walk: an earlier wave scored a point
    /// faster than the candidate's bound with no more memory.
    Pruned,
    /// Scored by the folded simulation.
    Scored(SearchPoint),
}

/// What the bounded walk orders and prunes a candidate by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneKey {
    /// [`StepModel::step_time_bound`]: no folded run of the candidate
    /// is faster.
    pub bound: SimDuration,
    /// The candidate's peak memory, `max(StepModel::peak_memory())` —
    /// exactly the `peak_memory` scoring would report.
    pub memory: u64,
}

/// One admitted candidate and what the funnel did with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: ConfigPoint,
    /// The walk key, present iff the candidate passed the memory rule
    /// and entered the bounded walk (never for the inference
    /// workload, which is not walked).
    pub key: Option<PruneKey>,
    /// The candidate's fate.
    pub outcome: Outcome,
}

/// Pass 1 of the funnel for one candidate: `None` when the memory rule
/// ([`analyze::memory::admitted_bounds`], shared with the planner)
/// rejects it, else its walk key. The rule's per-rank bounds minus
/// their staging buffers are `StepModel::peak_memory()`.
pub fn prune_key(step: &StepModel, sched: &PpSchedule) -> Option<PruneKey> {
    let bounds = analyze::memory::admitted_bounds(step, sched)?;
    Some(PruneKey {
        bound: step.step_time_bound(),
        memory: bounds
            .iter()
            .map(|b| b.total() - b.comm_bytes)
            .max()
            .unwrap_or(0),
    })
}

/// Candidates per wave of the bounded walk. A constant, not an option:
/// pruning only reads points scored in earlier waves, so a fixed wave
/// size makes the walk — and every count — independent of the thread
/// count.
pub const WAVE: usize = 8;

/// The bounded walk over candidates `0..keys.len()`: visits those with
/// a key in `(bound, index)` order, [`WAVE`] at a time, prunes each one
/// an earlier wave's scored point strictly dominates, and hands the
/// rest of the wave to `resolve` (one [`Outcome::Rejected`] or
/// [`Outcome::Scored`] per index, in order). Candidates without a key
/// are [`Outcome::Rejected`].
fn walk(
    keys: &[Option<PruneKey>],
    mut resolve: impl FnMut(&[usize]) -> Vec<Outcome>,
) -> Vec<Outcome> {
    let mut order: Vec<(PruneKey, usize)> = keys
        .iter()
        .enumerate()
        .filter_map(|(i, k)| k.map(|k| (k, i)))
        .collect();
    order.sort_by_key(|&(k, i)| (k.bound, i));
    let mut out = vec![Outcome::Rejected; keys.len()];
    let mut scored: Vec<(SimDuration, u64)> = Vec::new();
    for wave in order.chunks(WAVE) {
        let mut live = Vec::with_capacity(wave.len());
        for &(k, i) in wave {
            if scored.iter().any(|&(t, m)| t < k.bound && m <= k.memory) {
                out[i] = Outcome::Pruned;
            } else {
                live.push(i);
            }
        }
        for (i, o) in live.iter().zip(resolve(&live)) {
            if let Outcome::Scored(p) = &o {
                scored.push((p.step_time, p.peak_memory));
            }
            out[*i] = o;
        }
    }
    out
}

/// Runs the memory rule, the pre-flight rules and then the folded run
/// over one candidate, unmemoized and unpruned. Pure: depends only on
/// `spec` and `cfg`.
///
/// This is the *specification* of the per-candidate funnel — one full
/// [`analyze::analyze_step`] pass, rejecting on any error or on the
/// admission budget's `MEM002`, then the folded run. [`search`]
/// computes the same verdicts through [`prune_key`] and the memoized
/// [`Resolver`]; the conformance search-frontier oracle checks the two
/// agree.
pub fn score_one(spec: &SearchSpec, cfg: &ConfigPoint) -> Outcome {
    let Some(step) = spec.build_step(cfg) else {
        return Outcome::Rejected;
    };
    let report = analyze::analyze_step(&step);
    if report.has_errors()
        || report
            .diagnostics
            .iter()
            .any(|d| d.rule == analyze::RuleId::Mem002)
    {
        return Outcome::Rejected;
    }
    score_survivor(spec, cfg).map_or(Outcome::Rejected, Outcome::Scored)
}

/// The folded run of a candidate that passed the pre-flight rules:
/// the point every search report and the planner print.
pub(crate) fn score_survivor(spec: &SearchSpec, cfg: &ConfigPoint) -> Option<SearchPoint> {
    let report = spec
        .build_step(cfg)?
        .run(&SimOptions::default())
        .ok()?
        .report;
    Some(SearchPoint {
        config: *cfg,
        step_time: report.step_time,
        peak_memory: report.max_peak_memory(),
        tflops_per_gpu: report.tflops_per_gpu,
        bubble_ratio: report.max_bubble_ratio(),
        goodput: None,
    })
}

/// `(schedule-kind tag, nc)` — a totally ordered stand-in for
/// [`ScheduleKind`] usable inside memo keys.
fn kind_tag(k: ScheduleKind) -> (u8, u32) {
    match k {
        ScheduleKind::AllFwdAllBwd => (0, 0),
        ScheduleKind::Interleaved1F1B => (1, 0),
        ScheduleKind::Flexible { nc } => (2, nc),
    }
}

/// Memo key of the schedule-shaped rules (deadlock, race): the compiled
/// pipeline program is fully determined by `(kind, pp, v, nmb)` — ZeRO
/// and recompute never enter it.
type SchedKey = ((u8, u32), u32, u32, u64);

/// Memo key of the TP/CP collective verdict: mesh + schedule shape
/// (`dp` and `nmb` follow from `(tp, cp, pp)` under a fixed spec; the
/// stream derivations read neither ZeRO nor recompute).
type TpCpKey = (u32, u32, u32, (u8, u32));

/// Memo key of the FSDP collective verdict: [`TpCpKey`] plus the ZeRO
/// mode (the stream derivation reads `m.zero` but not `m.recompute`).
type FsdpKey = (u32, u32, u32, u8, (u8, u32));

fn sched_key(spec: &SearchSpec, c: &ConfigPoint) -> SchedKey {
    let v = u32::try_from(spec.input.model.num_layers.div_ceil(c.pp as u64)).unwrap_or(u32::MAX);
    (kind_tag(c.schedule), c.pp, v, c.nmb)
}

fn tp_cp_key(c: &ConfigPoint) -> TpCpKey {
    (c.tp, c.cp, c.pp, kind_tag(c.schedule))
}

fn fsdp_key(c: &ConfigPoint) -> FsdpKey {
    let zero = match c.zero {
        ZeroMode::Zero1 => 1u8,
        ZeroMode::Zero2 => 2,
        ZeroMode::Zero3 => 3,
    };
    (c.tp, c.cp, c.pp, zero, kind_tag(c.schedule))
}

/// `true` when no diagnostic is error-severity — the same predicate
/// [`analyze::Report::has_errors`] rejects on.
fn clean(diags: &[analyze::Diagnostic]) -> bool {
    !diags.iter().any(|d| d.severity == analyze::Severity::Error)
}

/// The process-wide verdict memos of the graph-shaped pre-flight
/// rules, shared by every search on every thread (CLI sweeps and serve
/// clients alike). Keys are the per-spec fingerprint plus the shape
/// keys above; verdicts are pure booleans, so cross-call sharing
/// cannot change any report.
static SCHED_VERDICTS: LazyLock<ShardedCache<(u64, SchedKey), bool>> =
    LazyLock::new(ShardedCache::new);
static TP_CP_VERDICTS: LazyLock<ShardedCache<(u64, TpCpKey), bool>> =
    LazyLock::new(ShardedCache::new);
static FSDP_VERDICTS: LazyLock<ShardedCache<(u64, FsdpKey), bool>> =
    LazyLock::new(ShardedCache::new);

/// Snapshot of the shared verdict memos, in `(schedule-shape, TP/CP,
/// FSDP)` order.
pub fn verdict_cache_stats() -> [CacheStats; 3] {
    [
        SCHED_VERDICTS.stats(),
        TP_CP_VERDICTS.stats(),
        FSDP_VERDICTS.stats(),
    ]
}

/// Empties the shared verdict memos (counters preserved). Verdicts are
/// pure, so clearing only costs recomputation.
pub fn clear_verdict_caches() {
    SCHED_VERDICTS.clear();
    TP_CP_VERDICTS.clear();
    FSDP_VERDICTS.clear();
}

/// Fingerprint of every [`SearchSpec`] input the verdict shapes are
/// conditioned on. `{:?}` of an `f64` is shortest-roundtrip, so
/// distinct planning problems always produce distinct strings.
fn spec_fingerprint(spec: &SearchSpec) -> u64 {
    use std::hash::Hasher;
    let mut h = std::hash::DefaultHasher::new();
    h.write(format!("{:?}", spec.input).as_bytes());
    h.finish()
}

/// `f` over `items` on up to `threads` scoped threads, in contiguous
/// chunks re-joined in order, so the result is the sequential map's.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| s.spawn(|| chunk.iter().map(&f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            // lint: allow(unwrap) — propagating a worker panic is the intended behaviour
            .flat_map(|h| h.join().expect("search worker thread panicked"))
            .collect()
    })
}

/// The spec a [`Resolver`] settles candidates of, its verdict-memo
/// fingerprint and its thread count.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    spec: &'a SearchSpec,
    sig: u64,
    threads: usize,
}

/// Resolves one verdict family for `cands` into `local`: keys already
/// there are skipped, the rest are looked up in the shared memo
/// (counting hits and misses), and only the misses are evaluated — in
/// sorted key order, over the context's threads — and published for
/// later searches.
fn resolve_verdicts<K: Copy + Ord + std::hash::Hash + Send + Sync>(
    cx: Ctx<'_>,
    global: &ShardedCache<(u64, K), bool>,
    local: &mut HashMap<K, bool>,
    cands: &[ConfigPoint],
    key: impl Fn(&ConfigPoint) -> K,
    eval: impl Fn(&StepModel, &PpSchedule) -> bool + Sync,
) {
    let mut misses: BTreeMap<K, ConfigPoint> = BTreeMap::new();
    for c in cands {
        let k = key(c);
        if local.contains_key(&k) || misses.contains_key(&k) {
            continue;
        }
        match global.get(&(cx.sig, k)) {
            Some(v) => {
                local.insert(k, v);
            }
            None => {
                misses.insert(k, *c);
            }
        }
    }
    let misses: Vec<(K, ConfigPoint)> = misses.into_iter().collect();
    let fresh = par_map(&misses, cx.threads, |(_, c)| {
        cx.spec
            .build_step(c)
            .and_then(|step| step.schedule().ok().map(|sched| eval(&step, &sched)))
            .unwrap_or(false)
    });
    for (&(k, _), v) in misses.iter().zip(fresh) {
        global.insert((cx.sig, k), v);
        local.insert(k, v);
    }
}

/// Settles the candidates the walk does not prune: the graph-shaped
/// pre-flight verdicts through the shared memos (each distinct shape
/// once per process), then the folded run of every candidate that
/// passes them.
struct Resolver<'a> {
    cx: Ctx<'a>,
    sched: HashMap<SchedKey, bool>,
    tp_cp: HashMap<TpCpKey, bool>,
    fsdp: HashMap<FsdpKey, bool>,
}

impl<'a> Resolver<'a> {
    fn new(spec: &'a SearchSpec) -> Resolver<'a> {
        let threads = match spec.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Resolver {
            cx: Ctx {
                spec,
                sig: spec_fingerprint(spec),
                threads,
            },
            sched: HashMap::new(),
            tp_cp: HashMap::new(),
            fsdp: HashMap::new(),
        }
    }

    fn resolve(&mut self, cands: &[ConfigPoint]) -> Vec<Outcome> {
        let cx = self.cx;
        let spec = cx.spec;
        resolve_verdicts(
            cx,
            &SCHED_VERDICTS,
            &mut self.sched,
            cands,
            |c| sched_key(spec, c),
            |_, sched| {
                let program = analyze::compile(sched);
                clean(&analyze::deadlock::check_program(sched, &program))
                    && clean(&analyze::race::check_program(sched, &program))
            },
        );
        resolve_verdicts(
            cx,
            &TP_CP_VERDICTS,
            &mut self.tp_cp,
            cands,
            tp_cp_key,
            |step, sched| clean(&analyze::collective::check_step_tp_cp(step, sched)),
        );
        resolve_verdicts(
            cx,
            &FSDP_VERDICTS,
            &mut self.fsdp,
            cands,
            fsdp_key,
            |step, sched| clean(&analyze::collective::check_step_fsdp(step, sched)),
        );
        let passed = |c: &ConfigPoint| {
            self.sched[&sched_key(spec, c)] && self.tp_cp[&tp_cp_key(c)] && self.fsdp[&fsdp_key(c)]
        };
        par_map(cands, cx.threads, |c| {
            passed(c)
                .then(|| score_survivor(spec, c))
                .flatten()
                .map_or(Outcome::Rejected, Outcome::Scored)
        })
    }
}

/// The Pareto frontier over (step time, peak memory), both minimized.
/// Input order is the enumeration order; output is sorted by step time
/// ascending (ties: memory, then input order). Points with exactly
/// equal objectives are all kept — neither dominates the other.
fn pareto_frontier(points: &[SearchPoint]) -> Vec<SearchPoint> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by_key(|&i| (points[i].step_time.as_nanos(), points[i].peak_memory, i));
    let mut frontier = Vec::new();
    let mut best_mem = u64::MAX;
    let mut best_key: Option<(u64, u64)> = None;
    for i in idx {
        let key = (points[i].step_time.as_nanos(), points[i].peak_memory);
        if key.1 < best_mem {
            best_mem = key.1;
            best_key = Some(key);
            frontier.push(points[i].clone());
        } else if best_key == Some(key) {
            // Exact objective tie with the frontier point that set
            // `best_mem` — mutually non-dominating, keep both.
            frontier.push(points[i].clone());
        }
    }
    frontier
}

/// Everything funnel stages 1–3 produce for one spec: every admitted
/// candidate, in enumeration order, with its fate.
///
/// Splitting the funnel here lets a caller time stages 1–3
/// ([`search_outcomes`]) apart from stage 4 ([`finish_search`]), as
/// `perfbench`'s per-layer breakdown does (`search.outcomes_ms`,
/// `search.finish_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcomes {
    /// `(tp, cp, pp)` tuples visited by the enumerator.
    pub meshes_enumerated: usize,
    /// Tuples that passed the arithmetic admission stage.
    pub meshes_admitted: usize,
    /// Admitted candidates in enumeration order.
    pub candidates: Vec<Candidate>,
}

/// Distinct consecutive `(tp, cp, pp)` meshes of candidates in
/// enumeration order.
fn count_meshes<'a>(configs: impl Iterator<Item = &'a ConfigPoint>) -> usize {
    let mut meshes: Vec<(u32, u32, u32)> = configs.map(|c| (c.tp, c.cp, c.pp)).collect();
    meshes.dedup();
    meshes.len()
}

/// Runs funnel stages 1–3 (enumeration, admission, the memory rule and
/// bound, the bounded walk) and returns the deterministic outcome set.
/// [`search`] is this plus [`finish_search`].
///
/// # Errors
/// Returns [`PlanError::BadInput`] for a malformed spec (zero
/// sequence, token budget not a multiple of the sequence length, empty
/// ZeRO/recompute axes).
pub fn search_outcomes(spec: &SearchSpec) -> Result<SearchOutcomes, PlanError> {
    let input = &spec.input;
    if input.ngpu == 0 || input.gpus_per_node == 0 {
        return Err(PlanError::BadInput(
            "cluster must have GPUs and a node size".into(),
        ));
    }
    if spec.workload == Workload::Inference {
        return infer_outcomes(spec);
    }
    if input.seq == 0 || !input.token_budget.is_multiple_of(input.seq) {
        return Err(PlanError::BadInput(format!(
            "sequence length {} must divide the token budget {}",
            input.seq, input.token_budget
        )));
    }
    if spec.zero_modes.is_empty() || spec.recompute.is_empty() {
        return Err(PlanError::BadInput(
            "ZeRO-mode and recompute axes must be non-empty".into(),
        ));
    }

    // Stage 1: enumeration + admission (pure arithmetic).
    let (admitted, meshes_enumerated) = enumerate_configs(spec);

    // Stage 2 (serial): the memory rule and the walk key. A mesh's
    // ZeRO × recompute variants share its (at most three) schedules,
    // so each is built once per mesh.
    let mut schedules: HashMap<SchedKey, Option<PpSchedule>> = HashMap::new();
    let mut mesh = None;
    let keys: Vec<Option<PruneKey>> = admitted
        .iter()
        .map(|c| {
            if mesh != Some((c.tp, c.cp, c.pp)) {
                mesh = Some((c.tp, c.cp, c.pp));
                schedules.clear();
            }
            let step = spec.build_step(c)?;
            let sched = schedules
                .entry(sched_key(spec, c))
                .or_insert_with(|| step.schedule().ok())
                .as_ref()?;
            prune_key(&step, sched)
        })
        .collect();
    drop(schedules);

    // Stage 3: the bounded walk.
    let mut resolver = Resolver::new(spec);
    let outcomes = walk(&keys, |live| {
        let cands: Vec<ConfigPoint> = live.iter().map(|&i| admitted[i]).collect();
        resolver.resolve(&cands)
    });

    Ok(SearchOutcomes {
        meshes_enumerated,
        meshes_admitted: count_meshes(admitted.iter()),
        candidates: admitted
            .into_iter()
            .zip(keys)
            .zip(outcomes)
            .map(|((config, key), outcome)| Candidate {
                config,
                key,
                outcome,
            })
            .collect(),
    })
}

/// The inference funnel: enumerates `tp × pp` serving shards (powers of
/// two; TP capped at the NVLink domain, PP at the layer count), fills
/// the cluster with replicas, rejects plans whose weights or KV blocks
/// overflow HBM ([`InferCosts::new`]'s verdict — the stage-2 analogue),
/// and scores survivors by simulating the *same* seeded steady probe
/// trace on each. The [`SearchPoint`] objectives are repurposed:
/// `step_time` is the p99 TTFT and `peak_memory` the peak per-GPU HBM
/// (weights + resident KV), so [`finish_search`]'s Pareto machinery
/// ranks serving meshes unchanged; `tflops_per_gpu` carries output
/// tokens/s per GPU and `bubble_ratio` the SLO miss fraction.
///
/// The probe trace offers ~0.05 requests/s per GPU (capped at 512
/// requests) so every candidate sees identical load; candidates differ
/// only in how they spend the same `ngpu` GPUs: fewer, wider replicas
/// prefill faster, more, narrower replicas queue less.
fn infer_outcomes(spec: &SearchSpec) -> Result<SearchOutcomes, PlanError> {
    let input = &spec.input;

    // Stage 1: enumeration + admission. `dp` carries the replica count;
    // cp/nmb/zero/schedule/recompute are fixed at their degenerate
    // serving values so [`ConfigPoint`] renders meaningfully.
    let mut admitted: Vec<ConfigPoint> = Vec::new();
    let mut visited = 0usize;
    for tp in powers_of_two_up_to(spec.tp_bound().min(input.gpus_per_node)) {
        for pp in powers_of_two_up_to(spec.pp_bound()) {
            visited += 1;
            let shards = tp as u64 * pp as u64;
            if shards > u64::from(input.ngpu) || !u64::from(input.ngpu).is_multiple_of(shards) {
                continue;
            }
            admitted.push(ConfigPoint {
                tp,
                cp: 1,
                pp,
                dp: (u64::from(input.ngpu) / shards) as u32,
                nmb: 1,
                zero: ZeroMode::Zero1,
                schedule: ScheduleKind::AllFwdAllBwd,
                recompute: false,
            });
        }
    }
    let meshes_admitted = admitted.len();

    // The common probe trace, generated once and shared by-reference.
    let rps = f64::from(input.ngpu) * 0.05;
    let horizon_s = (512.0 / rps).min(600.0);
    let trace = TrafficSpec::serving_day(
        TrafficShape::Steady,
        (rps * 86_400.0).round() as u64,
        spec.seed,
    )
    .horizon_s(horizon_s)
    .generate();

    // Stages 2–3: HBM-fit rejection and probe-trace scoring. The space
    // is tiny (≤ tens of candidates), so candidates run serially and
    // each simulation parallelizes internally over replicas.
    let candidates = admitted
        .into_iter()
        .map(|c| {
            let plan = InferPlan::new(c.tp, c.pp, c.dp);
            let ispec = InferSpec::new(
                input.model.clone(),
                input.gpu.clone(),
                input.gpus_per_node,
                plan,
            )
            .threads(spec.threads);
            let point = InferenceModel::new(ispec).ok().map(|m| {
                let report = m.simulate(&trace);
                SearchPoint {
                    config: c,
                    step_time: report.ttft[2],
                    peak_memory: report.peak_hbm_bytes,
                    tflops_per_gpu: report.tokens_per_s / f64::from(input.ngpu),
                    bubble_ratio: 1.0 - report.slo_attainment,
                    goodput: None,
                }
            });
            Candidate {
                config: c,
                key: None,
                outcome: point.map_or(Outcome::Rejected, Outcome::Scored),
            }
        })
        .collect();

    Ok(SearchOutcomes {
        meshes_enumerated: visited,
        meshes_admitted,
        candidates,
    })
}

/// Funnel stage 4 plus reporting: builds the Pareto frontier of an
/// outcome set, optionally goodput-refines its head, and assembles the
/// deterministic [`SearchReport`]. `spec` supplies the refinement
/// knobs and must be the spec the outcomes describe.
///
/// # Errors
/// Returns [`PlanError::BadInput`] when the goodput fault timeline
/// cannot be generated.
pub fn finish_search(spec: &SearchSpec, out: &SearchOutcomes) -> Result<SearchReport, PlanError> {
    let input = &spec.input;
    let mut rejected_preflight = 0usize;
    let mut pruned = 0usize;
    let mut scored = Vec::new();
    for c in &out.candidates {
        match &c.outcome {
            Outcome::Rejected => rejected_preflight += 1,
            Outcome::Pruned => pruned += 1,
            Outcome::Scored(p) => scored.push(p.clone()),
        }
    }

    let mut frontier = pareto_frontier(&scored);

    // Stage 4: goodput refinement of the frontier head. The fault
    // timeline is generated once (seeded) and shared by every refined
    // point; refinement only annotates — frontier membership and order
    // are fixed by stage 3. Inference frontiers skip refinement: their
    // goodput analogue (SLO-gated tokens/s) is already priced in
    // stage 3 and the fault-timeline run model is a training-step
    // construct.
    let head = if spec.workload == Workload::Inference {
        0
    } else {
        spec.goodput_head.min(frontier.len())
    };
    let mut refined = 0usize;
    if head > 0 {
        let timeline = FaultTimeline::generate(
            FaultRates::llama3_production(),
            input.ngpu,
            input.gpus_per_node,
            spec.goodput_horizon_s,
            spec.seed,
        )
        .map_err(|e| PlanError::BadInput(format!("goodput timeline: {e}")))?;
        for p in frontier.iter_mut().take(head) {
            let Some(step) = spec.build_step(&p.config) else {
                continue;
            };
            let Ok(sim) = RunSimulator::new(
                step,
                timeline.clone(),
                CheckpointPolicy::llama3_production(),
            ) else {
                continue;
            };
            if let Ok(report) = sim.simulate() {
                p.goodput = Some(report.goodput);
                refined += 1;
            }
        }
    }

    let best_step_time = frontier.first().cloned();
    let best_memory = frontier.iter().min_by_key(|p| p.peak_memory).cloned();
    let best_goodput = frontier
        .iter()
        .filter(|p| p.goodput.is_some())
        .max_by(|a, b| {
            a.goodput
                .partial_cmp(&b.goodput)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned();

    Ok(SearchReport {
        counts: FunnelCounts {
            meshes_enumerated: out.meshes_enumerated,
            meshes_admitted: out.meshes_admitted,
            candidates: out.candidates.len(),
            rejected_preflight,
            pruned,
            scored: scored.len(),
            refined,
        },
        frontier,
        best_step_time,
        best_memory,
        best_goodput,
    })
}

/// Runs the staged search funnel and returns the deterministic
/// [`SearchReport`] — [`search_outcomes`] followed by
/// [`finish_search`].
///
/// # Errors
/// Returns [`PlanError::BadInput`] for a malformed spec or an
/// ungenerable goodput fault timeline.
pub fn search(spec: &SearchSpec) -> Result<SearchReport, PlanError> {
    let outcomes = search_outcomes(spec)?;
    finish_search(spec, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small search problem (4-layer 8B variant, 8 GPUs) that runs
    /// quickly in debug builds.
    fn small_spec() -> SearchSpec {
        let mut spec = SearchSpec::llama3_8b(8, 8_192);
        spec.input.model = spec.input.model.with_layers(4);
        spec.input.token_budget = 16 * 8_192; // gbs = 16
        spec.max_cp = 2;
        spec
    }

    #[test]
    fn small_search_produces_a_consistent_funnel() {
        let report = search(&small_spec()).unwrap();
        let c = report.counts;
        assert!(c.meshes_enumerated >= c.meshes_admitted);
        assert_eq!(c.candidates, c.scored + c.pruned + c.rejected_preflight);
        assert!(c.pruned > 0, "{c:?}");
        assert!(!report.frontier.is_empty());
        // Frontier is sorted by step time and strictly improves memory
        // except at exact objective ties.
        for w in report.frontier.windows(2) {
            assert!(w[0].step_time <= w[1].step_time);
            let tie = w[0].step_time == w[1].step_time && w[0].peak_memory == w[1].peak_memory;
            assert!(w[1].peak_memory < w[0].peak_memory || tie, "{w:?}");
        }
        assert_eq!(report.best_step_time.as_ref(), report.frontier.first());
        let human = report.render_human();
        assert!(human.contains("frontier"), "{human}");
    }

    #[test]
    fn report_is_bit_identical_across_runs_and_thread_counts() {
        let base = search(&small_spec()).unwrap();
        let again = search(&small_spec()).unwrap();
        assert_eq!(base, again);
        for threads in [1, 2, 5] {
            let t = search(&small_spec().threads(threads)).unwrap();
            assert_eq!(base, t, "threads={threads}");
        }
    }

    #[test]
    #[ignore = "release-scale acceptance run; exercised by `llama3sim search` in scripts/check.sh"]
    fn recovers_llama3_405b_table2_mesh() {
        // Table 2 short-context row: 405B on 16K GPUs at seq 8192 uses
        // tp8·cp1·pp16·dp128. With cp pinned to 1 — as the §5.1 planner
        // pins it whenever the sequence fits without context parallelism
        // — the frontier must contain that mesh. (Unrestricted, cp ≥ 4
        // points dominate it: halving DP doubles the micro-batch count
        // and shrinks the pipeline bubble faster than the extra CP
        // all-gathers cost.)
        let spec = SearchSpec::llama3_405b(16_384, 8_192).max_cp(1);
        let report = search(&spec).unwrap();
        assert!(
            report.frontier_contains_mesh(8, 1, 16, 128),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn goodput_refinement_annotates_the_head() {
        let mut spec = small_spec();
        spec.goodput_head = 2;
        spec.goodput_horizon_s = 3_600.0;
        let report = search(&spec).unwrap();
        let head = report.counts.refined;
        assert!(head >= 1, "{:?}", report.counts);
        assert!(report.frontier[0].goodput.is_some());
        assert!(report.best_goodput.is_some());
        // Refinement never reorders the frontier.
        let mut plain = spec.clone();
        plain.goodput_head = 0;
        let unrefined = search(&plain).unwrap();
        let meshes: Vec<_> = report.frontier.iter().map(|p| p.config).collect();
        let plain_meshes: Vec<_> = unrefined.frontier.iter().map(|p| p.config).collect();
        assert_eq!(meshes, plain_meshes);
    }

    /// Checks every candidate of `spec` that runs: the step-time bound
    /// never exceeds the folded step time, and where the memory rule
    /// admits the candidate, its walk key carries that bound and the
    /// reported peak memory. Returns the number checked.
    fn check_bounds(spec: &SearchSpec) -> usize {
        let (configs, _) = enumerate_configs(spec);
        let mut checked = 0;
        for c in &configs {
            let step = spec.build_step(c).unwrap();
            let Ok(run) = step.run(&SimOptions::default()) else {
                continue;
            };
            let bound = step.step_time_bound();
            assert!(
                bound <= run.report.step_time,
                "{c}: {bound:?} vs {:?}",
                run.report.step_time
            );
            if let Some(key) = prune_key(&step, &step.schedule().unwrap()) {
                assert_eq!(key.bound, bound, "{c}");
                assert_eq!(key.memory, run.report.max_peak_memory(), "{c}");
            }
            checked += 1;
        }
        checked
    }

    #[test]
    #[ignore = "release-scale: every runnable 405B/16K candidate; run by scripts/check.sh"]
    fn full_space_bound_is_sound() {
        let spec = SearchSpec::llama3_405b(16_384, 8_192);
        assert!(check_bounds(&spec) >= 1_000);
    }

    #[test]
    fn verdict_memos_are_shared_across_searches() {
        // A layer count no other test uses, so this spec's keys are
        // fresh even when the whole suite runs in parallel.
        let mut spec = small_spec();
        spec.input.model = spec.input.model.with_layers(6);
        let before = verdict_cache_stats();
        let first = search(&spec).unwrap();
        let warmed = verdict_cache_stats();
        // First sweep of a fresh spec misses and populates.
        assert!(warmed[0].misses > before[0].misses, "{warmed:?}");
        assert!(warmed[0].entries > 0);
        let second = search(&spec).unwrap();
        let after = verdict_cache_stats();
        // The identical re-run resolves from the shared memo...
        for (w, a) in warmed.iter().zip(&after) {
            assert!(a.hits > w.hits, "no sharing: {warmed:?} -> {after:?}");
        }
        // ...and sharing cannot change the report.
        assert_eq!(first, second);
    }

    #[test]
    fn inference_search_ranks_serving_meshes() {
        let spec = small_spec().inference();
        let report = search(&spec).unwrap();
        let c = report.counts;
        assert!(c.meshes_admitted > 1, "{c:?}");
        assert_eq!(c.candidates, c.scored + c.rejected_preflight);
        assert_eq!(c.pruned, 0, "inference is not walked");
        assert_eq!(c.refined, 0, "inference skips goodput refinement");
        assert!(!report.frontier.is_empty());
        for p in &report.frontier {
            // Serving meshes: no CP, dp carries the replica count, and
            // the whole cluster is spent.
            assert_eq!(p.config.cp, 1);
            assert_eq!(p.config.tp * p.config.pp * p.config.dp, spec.input.ngpu);
            assert!(p.step_time > SimDuration::ZERO, "p99 TTFT must be positive");
            assert!(p.peak_memory > 0);
            assert!(p.goodput.is_none());
        }
        // Bit-identical across runs and thread counts.
        assert_eq!(report, search(&spec.clone().threads(1)).unwrap());
        assert_eq!(report, search(&spec.clone().threads(3)).unwrap());
    }

    #[test]
    fn bad_input_is_rejected() {
        let mut spec = small_spec();
        spec.input.seq = 1_000_000;
        assert!(matches!(search(&spec), Err(PlanError::BadInput(_))));
        let mut empty = small_spec();
        empty.zero_modes.clear();
        assert!(matches!(search(&empty), Err(PlanError::BadInput(_))));
    }

    #[test]
    fn build_step_rejects_foreign_configs() {
        let spec = small_spec();
        let (configs, _) = enumerate_configs(&spec);
        let mut bogus = configs[0];
        bogus.dp += 1;
        assert!(spec.build_step(&bogus).is_none());
        assert!(spec.build_step(&configs[0]).is_some());
    }
}
