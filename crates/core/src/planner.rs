//! The §5.1 parallelism-configuration planner.
//!
//! Given a cluster, a model and a phase's token budget / sequence
//! length, the planner reproduces the paper's reasoning:
//!
//! 1. **TP** never leaves the node (inter-host TP puts fully exposed
//!    collectives on the slow fabric, §5.1).
//! 2. **PP** must be large enough to fit memory, but every extra rank
//!    inflates the bubble `(pp − 1)/nmb/v`.
//! 3. **CP** replaces DP when long sequences shrink the global batch
//!    below `bs ≥ pp` — and no further, since its all-gather is
//!    exposed (`cp = 16` at 131 K).
//! 4. **ZeRO mode and schedule** follow the §3.1.3 rule.
//!
//! The planner is a *policy* over the auto-parallelism search's own
//! machinery, not a second model: its candidates are
//! [`enumerate_configs`]'s, its steps are [`SearchSpec::build_step`]'s,
//! memory is admitted by the search's one rule
//! ([`analyze::memory::admitted_bounds`]), and each TP degree's pick is
//! scored with the folded simulation every report prints. The policy
//! only filters and orders the enumerated points; Table 2 falls out of
//! the scoring, and the search over the same space agrees with it.

use crate::analyze;
use crate::fsdp::{self, ZeroMode};
use crate::pp::schedule::ScheduleKind;
use crate::search::{enumerate_configs, score_survivor, ConfigPoint, SearchPoint, SearchSpec};
use cluster_model::gpu::GpuSpec;
use llm_model::TransformerConfig;
use std::fmt;

/// Fraction of HBM usable for model state + activations (the rest is
/// fragmentation, NCCL buffers, CUDA context).
pub const HBM_BUDGET_FRACTION: f64 = 0.85;

/// The admission budget of an accelerator with `capacity` bytes of
/// HBM: [`HBM_BUDGET_FRACTION`] of it, in bytes. Every memory
/// admission — the planner, the search, `MEM002`, serving plans — reads
/// the budget here.
pub fn hbm_budget(capacity: u64) -> u64 {
    (capacity as f64 * HBM_BUDGET_FRACTION) as u64
}

/// Fraction of naïve saved-activation bytes that remain after the §6.3
/// memory optimizations (early release of PP boundary tensors, custom
/// autograd checkpoints).
pub const ACT_RELEASE_FACTOR: f64 = 0.5;

/// Planner input.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerInput {
    /// Total GPUs.
    pub ngpu: u32,
    /// GPUs per node (NVLink island size).
    pub gpus_per_node: u32,
    /// Tokens per global batch (16 M for Llama 3 text phases).
    pub token_budget: u64,
    /// Sequence length.
    pub seq: u64,
    /// The model.
    pub model: TransformerConfig,
    /// The accelerator (for HBM capacity).
    pub gpu: GpuSpec,
}

impl PlannerInput {
    /// The Llama 3 405B production planning problem for a given phase.
    pub fn llama3_405b(ngpu: u32, seq: u64) -> PlannerInput {
        PlannerInput {
            ngpu,
            gpus_per_node: 8,
            token_budget: 16 * 1024 * 1024,
            seq,
            model: TransformerConfig::llama3_405b(),
            gpu: GpuSpec::h100_sxm_hbm3(),
        }
    }
}

/// A planned configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen configuration: one of [`enumerate_configs`]'s points,
    /// with ZeRO mode and schedule by the §3.1.3 rule.
    pub config: ConfigPoint,
    /// Worst per-rank peak memory of the folded run, bytes.
    pub peak_memory: u64,
    /// TFLOPs per GPU of the folded run.
    pub tflops_per_gpu: f64,
    /// Step-by-step reasoning, for humans.
    pub reasoning: Vec<String>,
}

/// Planner failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No (tp, pp, cp) combination fits memory and batch constraints.
    Infeasible(String),
    /// Input was malformed.
    BadInput(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Infeasible(m) => write!(f, "no feasible configuration: {m}"),
            PlanError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for sim_engine::error::SimError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::Infeasible(m) => sim_engine::error::SimError::Infeasible(m),
            PlanError::BadInput(m) => sim_engine::error::SimError::InvalidValue(m),
        }
    }
}

/// The §5.1 "2D or 3D parallelism" analysis: with FSDP ZeRO-3 every
/// parameter is all-gathered (2 BF16 bytes) per forward traversal while
/// contributing `2 × tokens` FLOPs, so the achievable arithmetic
/// intensity is `2 × tokens_per_rank / 2 = tokens_per_rank` FLOPs per
/// byte. If that falls below the hardware's compute/bandwidth ratio,
/// ZeRO-3 communication cannot be hidden and 3D parallelism (PP instead
/// of parameter resharding) wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeRO3Analysis {
    /// FLOPs available per communicated byte (`tokens per rank`).
    pub arithmetic_intensity: f64,
    /// Hardware peak FLOPs over network bandwidth, the break-even line
    /// (≈ 19.8 K for an H100 on a 50 GB/s NIC, §5.1).
    pub hardware_ratio: f64,
}

impl ZeRO3Analysis {
    /// Evaluates the trade-off for `tokens_per_rank` tokens of compute
    /// per parameter traversal on `gpu` with `nic_bandwidth` bytes/s.
    pub fn evaluate(tokens_per_rank: u64, gpu: &GpuSpec, nic_bandwidth: f64) -> ZeRO3Analysis {
        ZeRO3Analysis {
            // 2 FLOPs per token per parameter over 2 bytes per param.
            arithmetic_intensity: tokens_per_rank as f64,
            hardware_ratio: gpu.peak_bf16_flops / nic_bandwidth,
        }
    }

    /// `true` when ZeRO-3's all-gathers can hide behind compute —
    /// i.e. 2D parallelism is viable.
    pub fn zero3_hideable(&self) -> bool {
        self.arithmetic_intensity >= self.hardware_ratio
    }
}

/// `true` when `c` is the point the policy runs on its mesh: ZeRO mode
/// and schedule by the §3.1.3 rule — the flexible schedule at
/// `nc = pp` once `nmb ≥ 2·pp`, all-forward-all-backward otherwise
/// (always at `pp = 1`, where no schedule interleaves) — and no
/// activation recompute.
fn follows_rule(c: &ConfigPoint) -> bool {
    let schedule = if c.pp > 1 && c.nmb >= 2 * u64::from(c.pp) {
        ScheduleKind::Flexible { nc: c.pp }
    } else {
        ScheduleKind::AllFwdAllBwd
    };
    c.zero == fsdp::recommended_zero_mode(c.nmb, u64::from(c.pp))
        && c.schedule == schedule
        && !c.recompute
}

/// The configuration the policy runs on the `(tp, cp, pp)` mesh of
/// `spec`'s space, if that mesh is admissible.
pub fn rule_config(spec: &SearchSpec, tp: u32, cp: u32, pp: u32) -> Option<ConfigPoint> {
    enumerate_configs(spec)
        .0
        .into_iter()
        .find(|c| (c.tp, c.cp, c.pp) == (tp, cp, pp) && follows_rule(c))
}

/// Runs the §5.1 planning policy over the search's candidates.
///
/// For each TP degree up to the node size, ascending, the policy visits
/// PP ascending and then CP ascending, with CP held at 1 unless the
/// batch dimension is exhausted. The first point with `nmb ≥ pp` that
/// passes the memory rule is the TP degree's pick; a memory reject
/// moves on to the next PP (§5.1: larger PP, not larger CP). Each pick
/// is scored with the folded simulation, and a later TP degree wins
/// only by more than 0.1 %. If no point reaches `nmb ≥ pp`, a second
/// pass relaxes it to `nmb ≥ 1`.
///
/// # Errors
/// Returns [`PlanError`] if the input is malformed or no configuration
/// satisfies memory and batch-size constraints.
pub fn plan(input: &PlannerInput) -> Result<Plan, PlanError> {
    if input.seq == 0 || !input.token_budget.is_multiple_of(input.seq) {
        return Err(PlanError::BadInput(format!(
            "sequence length {} must divide the token budget {}",
            input.seq, input.token_budget
        )));
    }
    let gbs = input.token_budget / input.seq;
    let budget = hbm_budget(input.gpu.hbm_capacity);

    // CP is admitted only when the batch dimension is exhausted even at
    // tp = node size: bs ≥ pp at (tp = node, cp = 1) ⟺ gbs·node ≥ ngpu
    // (§5.1: "we can only replace DP with CP" — and only once the long
    // context forces it).
    let cp_unlocked = gbs * u64::from(input.gpus_per_node) < u64::from(input.ngpu);

    let spec = SearchSpec::training(input.clone());
    let mut points: Vec<ConfigPoint> = enumerate_configs(&spec)
        .0
        .into_iter()
        .filter(|c| follows_rule(c) && (cp_unlocked || c.cp == 1))
        .collect();
    points.sort_by_key(|c| (c.tp, c.pp, c.cp));

    let mut rejected_memory = 0u32;
    let mut best = None;
    for require_bs_ge_pp in [true, false] {
        for tp_points in points.chunk_by(|a, b| a.tp == b.tp) {
            let mut full_pp = None;
            let pick = tp_points.iter().find(|c| {
                if full_pp == Some(c.pp) || (require_bs_ge_pp && c.nmb < u64::from(c.pp)) {
                    return false;
                }
                let fits = spec.build_step(c).is_some_and(|step| {
                    step.schedule().is_ok_and(|sched| {
                        analyze::memory::admitted_bounds(&step, &sched).is_some()
                    })
                });
                if !fits {
                    rejected_memory += 1;
                    full_pp = Some(c.pp);
                }
                fits
            });
            let Some(point) = pick.and_then(|c| score_survivor(&spec, c)) else {
                continue;
            };
            if best
                .as_ref()
                .is_none_or(|b: &SearchPoint| point.tflops_per_gpu > b.tflops_per_gpu * 1.001)
            {
                best = Some(point);
            }
        }
        if best.is_some() {
            break;
        }
    }

    let Some(best) = best else {
        return Err(PlanError::Infeasible(format!(
            "model {} does not fit {} GPUs with ≤ {:.0} GiB usable HBM each \
             ({rejected_memory} candidates exceeded memory)",
            input.model.name,
            input.ngpu,
            budget as f64 / (1u64 << 30) as f64
        )));
    };
    let c = best.config;
    let bs = c.nmb;
    let reasoning = vec![
        format!(
            "token budget {} at seq {} gives gbs = {gbs} sequences",
            input.token_budget, input.seq
        ),
        format!(
            "tp = {}: TP stays on NVLink (node size {}); larger TP exposes collectives, smaller TP starves bs ≥ pp or memory",
            c.tp, input.gpus_per_node
        ),
        format!(
            "pp = {}: smallest pipeline fitting {:.1} GiB within the {:.1} GiB budget without inflating the bubble",
            c.pp,
            best.peak_memory as f64 / (1u64 << 30) as f64,
            budget as f64 / (1u64 << 30) as f64
        ),
        if c.cp > 1 {
            format!(
                "cp = {}: restores bs = {bs} ≥ pp at seq {} while keeping exposed CP all-gathers minimal",
                c.cp, input.seq
            )
        } else {
            format!("cp = 1: bs = {bs} ≥ pp without sharding the sequence")
        },
        format!("dp = {}: the remaining GPUs", c.dp),
        format!(
            "§3.1.3 rule at bs = {bs}, pp = {}: {} with {:?}",
            c.pp,
            match c.zero {
                ZeroMode::Zero1 => "ZeRO-1 + 1F1B (bs ≥ 2·pp)",
                ZeroMode::Zero2 => "ZeRO-2 + all-forward-all-backward (bs < 2·pp)",
                ZeroMode::Zero3 => "ZeRO-3",
            },
            c.schedule
        ),
        format!("simulated {:.0} TFLOPs/GPU", best.tflops_per_gpu),
    ];

    Ok(Plan {
        config: c,
        peak_memory: best.peak_memory,
        tflops_per_gpu: best.tflops_per_gpu,
        reasoning,
    })
}

/// Re-materializes the planned step and runs the static pre-flight
/// analysis over it. The policy admits memory by the analyzer's own
/// rule, so a planner-produced plan reports no errors and no `MEM002`
/// warning; this is the hook plans from external sources go through
/// before simulation.
///
/// Returns `None` if the plan's configuration is inadmissible for
/// `input` (i.e. the plan did not come from [`plan`] on the same input).
pub fn preflight(input: &PlannerInput, p: &Plan) -> Option<crate::analyze::Report> {
    let step = SearchSpec::training(input.clone()).build_step(&p.config)?;
    Some(crate::analyze::analyze_step(&step))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_short_context_row() {
        // 405B, 16K GPUs, 16M tokens, seq 8192 ⇒ tp 8, cp 1, pp 16,
        // dp 128.
        let plan = plan(&PlannerInput::llama3_405b(16_384, 8_192)).unwrap();
        assert_eq!(plan.config.mesh().tp(), 8, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().cp(), 1, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().pp(), 16, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().dp(), 128, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.nmb, 16);
    }

    #[test]
    fn table_2_long_context_row() {
        // seq 131072 ⇒ tp 8, cp 16, pp 16, dp 8.
        let plan = plan(&PlannerInput::llama3_405b(16_384, 131_072)).unwrap();
        assert_eq!(plan.config.mesh().tp(), 8, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().cp(), 16, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().pp(), 16, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.mesh().dp(), 8, "{:#?}", plan.reasoning);
        assert_eq!(plan.config.nmb, 16);
    }

    #[test]
    fn planned_configurations_pass_preflight() {
        let input = PlannerInput::llama3_405b(16_384, 8_192);
        let p = plan(&input).unwrap();
        let report = preflight(&input, &p).expect("planned mesh is admissible");
        // The policy admits by the analyzer's own memory rule: no
        // error, and no MEM002 either.
        assert!(!report.has_errors(), "{}", report.render_human());
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| d.rule != crate::analyze::RuleId::Mem002),
            "{}",
            report.render_human()
        );
        // A plan whose configuration cannot come from this input is
        // rejected.
        let mut bogus = p.clone();
        bogus.config.dp += 1;
        assert!(preflight(&input, &bogus).is_none());
    }

    #[test]
    fn zero_mode_follows_bs_rule() {
        let p = plan(&PlannerInput::llama3_405b(16_384, 8_192)).unwrap();
        // bs = 16 = pp < 2·pp ⇒ ZeRO-2 + AFAB.
        assert_eq!(p.config.zero, ZeroMode::Zero2);
        assert_eq!(p.config.schedule, ScheduleKind::AllFwdAllBwd);
    }

    #[test]
    fn smaller_model_needs_less_model_parallelism() {
        let mut input = PlannerInput::llama3_405b(1_024, 8_192);
        input.model = TransformerConfig::llama3_8b();
        let p = plan(&input).unwrap();
        assert!(p.config.mesh().model_parallel() <= 16, "{:#?}", p.reasoning);
    }

    #[test]
    fn higher_hbm_capacity_allows_smaller_tp() {
        // §8.1: more HBM widens the hyper-parameter space (tp 8 → 4
        // gave ~10 % on 2K GPUs).
        let base = PlannerInput::llama3_405b(2_048, 8_192);
        let p8 = plan(&base).unwrap();
        let mut roomy = base.clone();
        roomy.gpu = roomy.gpu.with_hbm_capacity(4 * 80 * (1 << 30));
        let p4 = plan(&roomy).unwrap();
        assert!(
            p4.config.tp <= p8.config.tp,
            "roomy {} vs base {}",
            p4.config,
            p8.config
        );
        assert!(p4.tflops_per_gpu >= p8.tflops_per_gpu);
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        let mut input = PlannerInput::llama3_405b(64, 8_192);
        input.gpu = input.gpu.with_hbm_capacity(8 << 30);
        assert!(matches!(plan(&input), Err(PlanError::Infeasible(_))));
    }

    #[test]
    fn bad_input_rejected() {
        let mut input = PlannerInput::llama3_405b(16_384, 8_192);
        input.seq = 1_000_000; // does not divide the budget
        assert!(matches!(plan(&input), Err(PlanError::BadInput(_))));
    }

    #[test]
    fn zero3_analysis_matches_section_5_1() {
        // §5.1: with bs = 1 and seq = 8192, arithmetic intensity is
        // (2 × 8K)/2 = 8K FLOPs/byte — far below the H100's
        // 989 TFLOPs / 50 GB/s ≈ 19.8K, so ZeRO-3 2D is rejected.
        let gpu = GpuSpec::h100_sxm_hbm3();
        let a = ZeRO3Analysis::evaluate(8_192, &gpu, 50e9);
        assert!((a.hardware_ratio - 19_780.0).abs() < 100.0, "{a:?}");
        assert!(!a.zero3_hideable());
        // A hypothetical 10× faster fabric would flip the verdict.
        let fast = ZeRO3Analysis::evaluate(8_192, &gpu, 500e9);
        assert!(fast.zero3_hideable() || fast.hardware_ratio > 8_192.0 * 0.99);
        // And enough tokens per rank always hides it.
        assert!(ZeRO3Analysis::evaluate(1 << 20, &gpu, 50e9).zero3_hideable());
    }

    #[test]
    fn reasoning_is_populated() {
        let p = plan(&PlannerInput::llama3_405b(16_384, 8_192)).unwrap();
        assert!(p.reasoning.len() >= 5);
        assert!(p.reasoning.iter().any(|r| r.contains("tp = 8")));
    }
}
