//! Fully sharded data parallelism (FSDP) — ZeRO-1/2/3 sharding modes.
//!
//! The paper's in-house FSDP supports the three DeepSpeed ZeRO sharding
//! levels (§2.1):
//!
//! * **ZeRO-1** shards optimizer state only; parameters and gradients
//!   stay unsharded. One parameter all-gather and one gradient
//!   reduce-scatter per step, both overlappable (§5.2).
//! * **ZeRO-2** additionally shards gradients: the gradient buffer is
//!   reduce-scattered after the *last consecutive micro-batch* of each
//!   virtual stage, trading extra communication for lower gradient
//!   residency (Fig 4).
//! * **ZeRO-3** additionally shards parameters: every pipeline stage
//!   forward/backward must all-gather its parameters first — the extra
//!   per-stage communication that rules it out for 3D parallelism
//!   (§5.1).
//!
//! §3.1.3's production rule: ZeRO-1 + 1F1B when `bs ≥ 2·pp`, ZeRO-2 +
//! all-forward-all-backward when `bs < 2·pp` —
//! [`recommended_zero_mode`].

use llm_model::memory::PrecisionPolicy;

/// FSDP sharding level, following the ZeRO definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZeroMode {
    /// Shard optimizer state only.
    Zero1,
    /// Shard optimizer state and gradients.
    Zero2,
    /// Shard optimizer state, gradients and parameters.
    Zero3,
}

impl ZeroMode {
    /// `true` if gradients are stored sharded between uses.
    pub fn shards_grads(self) -> bool {
        !matches!(self, ZeroMode::Zero1)
    }

    /// `true` if parameters are stored sharded between uses.
    pub fn shards_params(self) -> bool {
        matches!(self, ZeroMode::Zero3)
    }
}

/// Per-rank persistent training-state memory under a ZeRO mode.
///
/// `params` is the parameter count owned by this rank's model-parallel
/// shard (i.e. already divided by TP and restricted to this PP stage);
/// `fsdp_n` is the FSDP group size (dp × cp, §4).
///
/// Gradient residency under ZeRO-2 varies over the step (Fig 4); this
/// returns the *persistent floor* (sharded size). The step simulator
/// adds the transient unsharded buffers on top.
pub fn state_bytes_per_rank(
    params: u64,
    policy: PrecisionPolicy,
    mode: ZeroMode,
    fsdp_n: u64,
) -> u64 {
    state_breakdown_per_rank(params, policy, mode, fsdp_n).total()
}

/// Per-component view of [`state_bytes_per_rank`], used by the static
/// memory analyzer to attribute an over-subscribed rank's bytes to
/// parameters, gradients and optimizer state separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateBreakdown {
    /// Resident parameter bytes (sharded under ZeRO-3).
    pub param_bytes: u64,
    /// Resident gradient bytes (sharded under ZeRO-2/3).
    pub grad_bytes: u64,
    /// Resident optimizer-state bytes (always sharded).
    pub optim_bytes: u64,
}

impl StateBreakdown {
    /// Sum of the components — equal to [`state_bytes_per_rank`].
    pub fn total(&self) -> u64 {
        self.param_bytes + self.grad_bytes + self.optim_bytes
    }
}

/// The component breakdown behind [`state_bytes_per_rank`]; the sum of
/// the returned fields is exactly that function's value.
pub fn state_breakdown_per_rank(
    params: u64,
    policy: PrecisionPolicy,
    mode: ZeroMode,
    fsdp_n: u64,
) -> StateBreakdown {
    assert!(fsdp_n > 0, "FSDP group cannot be empty");
    let shard = |b: u64| b.div_ceil(fsdp_n);
    let param_bytes = params * policy.param_bytes;
    let grad_bytes = params * policy.grad_bytes;
    let optim_bytes = params * policy.optim_bytes;
    match mode {
        ZeroMode::Zero1 => StateBreakdown {
            param_bytes,
            grad_bytes,
            optim_bytes: shard(optim_bytes),
        },
        ZeroMode::Zero2 => StateBreakdown {
            param_bytes,
            grad_bytes: shard(grad_bytes),
            optim_bytes: shard(optim_bytes),
        },
        ZeroMode::Zero3 => StateBreakdown {
            param_bytes: shard(param_bytes),
            grad_bytes: shard(grad_bytes),
            optim_bytes: shard(optim_bytes),
        },
    }
}

/// Communication bytes per rank per step attributable to FSDP, split
/// into `(all_gather_bytes, reduce_scatter_bytes)`.
///
/// * ZeRO-1/2: one parameter all-gather + one gradient reduce-scatter
///   per step. (ZeRO-2 splits the reduce-scatter into one call per
///   virtual stage, same total bytes, more launches — the launch count
///   is handled by the step simulator.)
/// * ZeRO-3: parameters all-gathered before every forward *and* every
///   backward traversal of the stage (`2 × stage_visits`), plus the
///   gradient reduce-scatter.
///
/// `stage_visits` is the number of forward passes over this rank's
/// parameters per step (micro-batch count × virtual stages for PP).
pub fn comm_bytes_per_step(
    params: u64,
    policy: PrecisionPolicy,
    mode: ZeroMode,
    stage_visits: u64,
) -> (u64, u64) {
    let param_bytes = params * policy.param_bytes;
    // Gradients are reduce-scattered in the accumulation dtype (§6.2:
    // FP32 for the DP reduce-scatter).
    let grad_bytes = params * policy.grad_bytes;
    match mode {
        ZeroMode::Zero1 | ZeroMode::Zero2 => (param_bytes, grad_bytes),
        ZeroMode::Zero3 => (param_bytes * 2 * stage_visits.max(1), grad_bytes),
    }
}

/// Checkpoint shard bytes each rank persists: its `1/fsdp_n` share of
/// parameters and optimizer state (gradients are not checkpointed —
/// they are recomputed from data after a restore). Every ZeRO mode
/// checkpoints the same sharded layout: ranks dump the shards they own
/// under ZeRO-3, and ZeRO-1/2 distributed checkpointing partitions the
/// write identically to avoid `fsdp_n` redundant copies.
pub fn checkpoint_bytes_per_rank(params: u64, policy: PrecisionPolicy, fsdp_n: u64) -> u64 {
    assert!(fsdp_n > 0, "FSDP group cannot be empty");
    (params * (policy.param_bytes + policy.optim_bytes)).div_ceil(fsdp_n)
}

/// The §3.1.3 production rule for combining FSDP with pipeline
/// parallelism: ZeRO-1 with the 1F1B schedule when `bs ≥ 2·pp` (enough
/// micro-batches to keep gradients resident cheaply), ZeRO-2 with
/// all-forward-all-backward when `bs < 2·pp`.
pub fn recommended_zero_mode(bs: u64, pp: u64) -> ZeroMode {
    if bs >= 2 * pp {
        ZeroMode::Zero1
    } else {
        ZeroMode::Zero2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn zero_levels_strictly_shrink_state() {
        let p = PrecisionPolicy::llama3();
        let params = 100 * MB;
        let z1 = state_bytes_per_rank(params, p, ZeroMode::Zero1, 64);
        let z2 = state_bytes_per_rank(params, p, ZeroMode::Zero2, 64);
        let z3 = state_bytes_per_rank(params, p, ZeroMode::Zero3, 64);
        assert!(z1 > z2);
        assert!(z2 > z3);
    }

    #[test]
    fn zero1_keeps_full_params_and_grads() {
        let p = PrecisionPolicy::llama3();
        let params = 10 * MB;
        let z1 = state_bytes_per_rank(params, p, ZeroMode::Zero1, 8);
        assert_eq!(z1, params * 2 + params * 4 + (params * 12).div_ceil(8));
    }

    #[test]
    fn fsdp_group_of_one_changes_nothing() {
        let p = PrecisionPolicy::llama3();
        let params = MB;
        for mode in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
            assert_eq!(
                state_bytes_per_rank(params, p, mode, 1),
                params * p.state_bytes_per_param()
            );
        }
    }

    #[test]
    fn zero3_pays_per_stage_all_gathers() {
        let p = PrecisionPolicy::llama3();
        let params = 10 * MB;
        let (ag1, rs1) = comm_bytes_per_step(params, p, ZeroMode::Zero1, 32);
        let (ag3, rs3) = comm_bytes_per_step(params, p, ZeroMode::Zero3, 32);
        assert_eq!(ag1, params * 2);
        assert_eq!(ag3, params * 2 * 2 * 32);
        assert_eq!(rs1, rs3);
    }

    #[test]
    fn breakdown_recomposes_state_bytes() {
        let p = PrecisionPolicy::llama3();
        for params in [1, 1_000_003, 10 * MB] {
            for mode in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
                for n in [1, 2, 64] {
                    let b = state_breakdown_per_rank(params, p, mode, n);
                    assert_eq!(b.total(), state_bytes_per_rank(params, p, mode, n));
                }
            }
        }
        // ZeRO-2 shards grads but not params.
        let b = state_breakdown_per_rank(8 * MB, p, ZeroMode::Zero2, 8);
        assert_eq!(b.param_bytes, 8 * MB * 2);
        assert_eq!(b.grad_bytes, MB * 4);
    }

    #[test]
    fn production_rule_matches_section_3_1_3() {
        assert_eq!(recommended_zero_mode(32, 16), ZeroMode::Zero1);
        assert_eq!(recommended_zero_mode(33, 16), ZeroMode::Zero1);
        assert_eq!(recommended_zero_mode(31, 16), ZeroMode::Zero2);
        assert_eq!(recommended_zero_mode(12, 16), ZeroMode::Zero2);
    }

    #[test]
    fn grad_reduce_scatter_uses_fp32_bytes() {
        // §6.2: FP32 accumulation for the DP reduce-scatter of grads.
        let p = PrecisionPolicy::llama3();
        let (_, rs) = comm_bytes_per_step(MB, p, ZeroMode::Zero1, 1);
        assert_eq!(rs, MB * 4);
    }

    #[test]
    fn sharding_predicates() {
        assert!(!ZeroMode::Zero1.shards_grads());
        assert!(ZeroMode::Zero2.shards_grads());
        assert!(!ZeroMode::Zero2.shards_params());
        assert!(ZeroMode::Zero3.shards_params());
    }
}
