//! Static peak-memory bound vs HBM capacity (`MEM001`/`MEM002`).
//!
//! Re-derives `StepModel::memory_components`' per-PP-rank peak with
//! full per-component attribution — parameters, gradients (including
//! the unsharded FP32-accumulator floor of §6.2), optimizer state,
//! activations (per-stage-micro-batch bytes × the schedule's peak
//! in-flight count) — and adds the communication staging buffers the
//! step model prices but does not count: the p2p boundary activation
//! (send + receive) and the ZeRO-3 unsharded parameter gather buffer.
//!
//! Severity policy: a rank whose bound exceeds [`cluster HBM
//! capacity`](cluster_model::gpu::GpuSpec::hbm_capacity) is an error
//! (`MEM001`, the plan OOMs); a plan that fits physically but exceeds
//! the shared HBM admission budget ([`hbm_budget`]) on its worst rank
//! is a warning (`MEM002`). The planner and the search admit a plan by
//! one rule, [`admitted_bounds`]: exactly the plans on which this check
//! is silent.

use super::{Diagnostic, RuleId};
use crate::fsdp;
use crate::mesh::Dim;
use crate::planner::{hbm_budget, HBM_BUDGET_FRACTION};
use crate::pp::schedule::PpSchedule;
use crate::step::StepModel;
use llm_model::memory as mem;
use llm_model::PrecisionPolicy;

/// Cap on reported over-subscribed ranks (the first names the defect;
/// a uniformly oversized plan would otherwise emit `pp` copies).
const MAX_OVER_RANKS: usize = 4;

/// One pipeline rank's statically bounded peak memory, attributed by
/// component. `total()` equals
/// `StepModel::memory_components()[pp_rank].total() + comm_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankMemoryBound {
    /// Pipeline rank.
    pub pp_rank: u32,
    /// The representative global rank (tp = cp = dp = 0 coordinates).
    pub global_rank: u32,
    /// Resident parameter bytes.
    pub param_bytes: u64,
    /// Resident gradient bytes, including the unsharded FP32
    /// accumulators that dominate the backward peak under ZeRO-2/3.
    pub grad_bytes: u64,
    /// Resident optimizer-state bytes.
    pub optim_bytes: u64,
    /// Activation bytes at the schedule's in-flight peak.
    pub act_bytes: u64,
    /// Communication staging buffers (p2p boundary send/recv, ZeRO-3
    /// parameter gather).
    pub comm_bytes: u64,
}

impl RankMemoryBound {
    /// The rank's total static bound.
    pub fn total(&self) -> u64 {
        self.param_bytes + self.grad_bytes + self.optim_bytes + self.act_bytes + self.comm_bytes
    }
}

/// Computes every pipeline rank's static bound.
pub fn rank_bounds(m: &StepModel, sched: &PpSchedule) -> Vec<RankMemoryBound> {
    let cfg = &m.layout.cfg;
    let policy = PrecisionPolicy::llama3();
    let tokens = m.seq / m.mesh.cp() as u64;
    let fsdp_n = (m.mesh.dp() * m.mesh.cp()) as u64;
    let boundary = mem::boundary_activation_bytes_per_token(cfg) * tokens / m.mesh.tp() as u64;
    (0..m.mesh.pp())
        .map(|rank| {
            let layers = m.assignment.rank_layers(rank);
            let params: u64 =
                layers.iter().map(|l| l.params(cfg)).sum::<u64>() / m.mesh.tp() as u64;
            let bd = fsdp::state_breakdown_per_rank(params, policy, m.zero, fsdp_n);
            // The FP32 gradient accumulators live unsharded at the
            // backward peak even when the ZeRO mode shards gradients
            // (§6.2) — attribute the floor delta to gradients.
            let floor = params * (policy.param_bytes + policy.grad_bytes);
            let grad_bytes = bd.grad_bytes + floor.saturating_sub(bd.total());
            let act_per_stage_mb: u64 = {
                let total: u64 = layers
                    .iter()
                    .map(|l| l.activation_bytes_per_token(cfg))
                    .sum();
                let per_token = if m.recompute {
                    mem::boundary_activation_bytes_per_token(cfg) * layers.len() as u64
                } else {
                    (total as f64 * crate::planner::ACT_RELEASE_FACTOR) as u64
                };
                per_token * tokens / m.mesh.tp() as u64 / m.assignment.v as u64
            };
            // Staging: the inter-stage boundary activation held in both
            // a send and a receive buffer, plus ZeRO-3's transient
            // unsharded gather of the largest chunk's parameters.
            let gather = if m.zero.shards_params() && fsdp_n > 1 {
                (0..sched.v)
                    .map(|c| {
                        let stage = sched.stage_of(rank, c);
                        m.assignment.stages[stage as usize]
                            .iter()
                            .map(|l| l.params(cfg))
                            .sum::<u64>()
                            / m.mesh.tp() as u64
                            * policy.param_bytes
                    })
                    .max()
                    .unwrap_or(0)
            } else {
                0
            };
            RankMemoryBound {
                pp_rank: rank,
                global_rank: rank * m.mesh.stride(Dim::Pp),
                param_bytes: bd.param_bytes,
                grad_bytes,
                optim_bytes: bd.optim_bytes,
                act_bytes: act_per_stage_mb * sched.peak_in_flight(rank) as u64,
                comm_bytes: 2 * boundary + gather,
            }
        })
        .collect()
}

/// The one memory rule of the planner and the search: a plan is
/// admitted when every rank's static bound fits the HBM admission
/// budget ([`hbm_budget`]) — exactly when [`check_step`] reports
/// neither `MEM001` nor `MEM002`. Returns the bounds of an admitted
/// plan.
pub fn admitted_bounds(m: &StepModel, sched: &PpSchedule) -> Option<Vec<RankMemoryBound>> {
    let budget = hbm_budget(m.cluster.gpu.hbm_capacity);
    let bounds = rank_bounds(m, sched);
    bounds.iter().all(|b| b.total() <= budget).then_some(bounds)
}

fn gib(bytes: u64) -> String {
    format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
}

fn attribution(b: &RankMemoryBound, capacity: u64, peak_in_flight: u32) -> Vec<String> {
    vec![
        format!("parameters:      {}", gib(b.param_bytes)),
        format!("gradients+accum: {}", gib(b.grad_bytes)),
        format!("optimizer:       {}", gib(b.optim_bytes)),
        format!(
            "activations:     {} ({} in-flight stage-micro-batches)",
            gib(b.act_bytes),
            peak_in_flight
        ),
        format!("comm buffers:    {}", gib(b.comm_bytes)),
        format!(
            "total:           {} of {} HBM",
            gib(b.total()),
            gib(capacity)
        ),
    ]
}

/// Checks every rank's bound against HBM capacity and the admission
/// budget.
pub fn check_step(m: &StepModel, sched: &PpSchedule) -> Vec<Diagnostic> {
    let capacity = m.cluster.gpu.hbm_capacity;
    let bounds = rank_bounds(m, sched);
    let mut diags = Vec::new();
    let over: Vec<&RankMemoryBound> = bounds.iter().filter(|b| b.total() > capacity).collect();
    for b in over.iter().take(MAX_OVER_RANKS) {
        diags.push(
            Diagnostic::error(
                RuleId::Mem001,
                format!(
                    "static peak-memory bound {} exceeds HBM capacity {} on pipeline rank {} \
                     (global rank {})",
                    gib(b.total()),
                    gib(capacity),
                    b.pp_rank,
                    b.global_rank
                ),
            )
            .at_rank(b.global_rank)
            .with_witness(attribution(b, capacity, sched.peak_in_flight(b.pp_rank))),
        );
    }
    if over.len() > MAX_OVER_RANKS {
        diags.push(Diagnostic::error(
            RuleId::Mem001,
            format!(
                "{} more over-subscribed ranks suppressed",
                over.len() - MAX_OVER_RANKS
            ),
        ));
    }
    if over.is_empty() {
        let budget = hbm_budget(capacity);
        if let Some(worst) = bounds.iter().max_by_key(|b| b.total()) {
            if worst.total() > budget {
                diags.push(
                    Diagnostic::warning(
                        RuleId::Mem002,
                        format!(
                            "worst rank's bound {} exceeds the {}% HBM admission budget ({}) \
                             on pipeline rank {}",
                            gib(worst.total()),
                            (HBM_BUDGET_FRACTION * 100.0) as u32,
                            gib(budget),
                            worst.pp_rank
                        ),
                    )
                    .at_rank(worst.global_rank)
                    .with_witness(attribution(
                        worst,
                        capacity,
                        sched.peak_in_flight(worst.pp_rank),
                    )),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsdp::ZeroMode;
    use crate::mesh::Mesh4D;
    use crate::pp::balance::{BalancePolicy, StageAssignment};
    use crate::pp::schedule::ScheduleKind;
    use cluster_model::topology::Cluster;
    use llm_model::masks::MaskSpec;
    use llm_model::{ModelLayout, TransformerConfig};

    fn step() -> StepModel {
        let cfg = TransformerConfig::llama3_405b_scaled(28);
        let layout = ModelLayout::text(cfg);
        let mesh = Mesh4D::new(8, 1, 4, 2);
        let assignment = StageAssignment::build(&layout, 4, 7, BalancePolicy::Uniform);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::Flexible { nc: 4 },
            zero: ZeroMode::Zero1,
            bs: 12,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute: false,
        }
    }

    #[test]
    fn bound_recomposes_memory_components_plus_comm() {
        for zero in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
            let mut m = step();
            m.zero = zero;
            let sched = m.schedule().unwrap();
            let bounds = rank_bounds(&m, &sched);
            let mc = m.memory_components();
            assert_eq!(bounds.len(), mc.len());
            for (b, c) in bounds.iter().zip(&mc) {
                assert_eq!(
                    b.total() - b.comm_bytes,
                    c.total(),
                    "{zero:?} rank {} state+act must match the simulator's accounting",
                    b.pp_rank
                );
            }
        }
    }

    #[test]
    fn fitting_plan_is_clean_or_warned_but_not_erred() {
        let m = step();
        let sched = m.schedule().unwrap();
        let diags = check_step(&m, &sched);
        assert!(diags.iter().all(|d| d.rule != RuleId::Mem001), "{diags:?}");
    }

    #[test]
    fn shrunk_hbm_triggers_mem001_on_rank_zero() {
        let mut m = step();
        // §3.1.2: rank 0 holds the most in-flight activations, so it is
        // the first to over-subscribe a shrunken HBM.
        m.cluster.gpu = m.cluster.gpu.with_hbm_capacity(1 << 30);
        let sched = m.schedule().unwrap();
        let diags = check_step(&m, &sched);
        let first = diags.iter().find(|d| d.rule == RuleId::Mem001).unwrap();
        assert_eq!(first.rank, Some(0));
        assert!(first.witness.iter().any(|w| w.contains("activations")));
        assert!(first.witness.iter().any(|w| w.contains("total")));
    }
}
