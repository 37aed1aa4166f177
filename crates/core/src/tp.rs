//! Tensor parallelism with sequence parallelism (TP/SP).
//!
//! Following Megatron-LM (§2.1), each transformer layer's GEMMs are
//! split across the TP group, with sequence parallelism sharding the
//! sequence-dependent operations between them. The communication
//! pattern per layer is four collectives on the critical path (§5.2):
//! an all-gather before and a reduce-scatter after each of the
//! attention and FFN blocks. These are *fully exposed* — the paper's
//! reason for pinning TP to NVLink.

use cluster_model::gpu::{Dtype, KernelCost};
use collectives::{CommCostModel, ProcessGroup};
use llm_model::TransformerConfig;
use sim_engine::time::SimDuration;

/// Number of exposed collectives per transformer layer under TP+SP:
/// all-gather + reduce-scatter around attention, and around the FFN.
pub const COLLECTIVES_PER_LAYER: u64 = 4;

/// Tensor-parallel execution plan for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TpPlan {
    /// TP degree.
    pub tp: u32,
    /// Whether sequence parallelism shards the non-GEMM regions
    /// (always on in Llama 3 training; exposed for ablations).
    pub sequence_parallel: bool,
}

impl TpPlan {
    /// Creates a plan.
    ///
    /// # Panics
    /// Panics if `tp == 0`.
    pub fn new(tp: u32, sequence_parallel: bool) -> TpPlan {
        assert!(tp > 0, "tp must be positive");
        TpPlan {
            tp,
            sequence_parallel,
        }
    }

    /// Scales a full-layer kernel cost down to this rank's shard:
    /// flops and bytes divide by `tp`; the launch count is unchanged
    /// (every rank launches every kernel — the §8.1 CPU-overhead
    /// concern gets *worse* with TP, not better).
    pub fn shard_cost(&self, full: KernelCost) -> KernelCost {
        KernelCost {
            flops: crate::costs::linear_shard(full.flops, self.tp as f64),
            bytes: crate::costs::linear_shard(full.bytes, self.tp as f64),
            launches: full.launches,
        }
    }

    /// Bytes moved by **one** TP+SP collective for `tokens` tokens of
    /// hidden activations: with SP, each collective carries the
    /// activation shard `tokens × hidden / tp` per rank (BF16).
    pub fn collective_bytes_per_rank(&self, cfg: &TransformerConfig, tokens: u64) -> u64 {
        if self.tp == 1 {
            return 0;
        }
        let full = tokens * cfg.hidden_dim * Dtype::Bf16.bytes();
        full.div_ceil(self.tp as u64)
    }

    /// Total exposed TP communication time for one layer's forward pass
    /// over `tokens` tokens on `group`.
    pub fn layer_fwd_comm(
        &self,
        cfg: &TransformerConfig,
        tokens: u64,
        group: &ProcessGroup,
        comm: &CommCostModel,
    ) -> SimDuration {
        if self.tp == 1 || group.is_singleton() {
            return SimDuration::ZERO;
        }
        let per_rank = self.collective_bytes_per_rank(cfg, tokens);
        // Two all-gathers + two reduce-scatters (symmetric ring cost).
        comm.all_gather(group, per_rank) * COLLECTIVES_PER_LAYER
    }

    /// Exposed TP communication for one layer's backward pass — the
    /// mirrored collectives, same volume.
    pub fn layer_bwd_comm(
        &self,
        cfg: &TransformerConfig,
        tokens: u64,
        group: &ProcessGroup,
        comm: &CommCostModel,
    ) -> SimDuration {
        self.layer_fwd_comm(cfg, tokens, group, comm)
    }

    /// Per-rank parameter count of a full-model `params` total under
    /// this TP degree (embedding/head and layers all split).
    pub fn shard_params(&self, params: u64) -> u64 {
        params.div_ceil(self.tp as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_model::topology::TopologySpec;

    fn setup() -> (TransformerConfig, CommCostModel, ProcessGroup) {
        (
            TransformerConfig::llama3_405b(),
            CommCostModel::new(TopologySpec::llama3_production(2)),
            ProcessGroup::contiguous(0, 8),
        )
    }

    #[test]
    fn shard_divides_work_not_launches() {
        let plan = TpPlan::new(8, true);
        let full = KernelCost {
            flops: 800.0,
            bytes: 80.0,
            launches: 3,
        };
        let s = plan.shard_cost(full);
        assert_eq!(s.flops, 100.0);
        assert_eq!(s.bytes, 10.0);
        assert_eq!(s.launches, 3);
    }

    #[test]
    fn tp1_has_no_communication() {
        let (cfg, comm, _) = setup();
        let plan = TpPlan::new(1, true);
        let g1 = ProcessGroup::contiguous(0, 1);
        assert_eq!(
            plan.layer_fwd_comm(&cfg, 8192, &g1, &comm),
            SimDuration::ZERO
        );
        assert_eq!(plan.collective_bytes_per_rank(&cfg, 8192), 0);
    }

    #[test]
    fn comm_scales_with_tokens() {
        let (cfg, comm, g) = setup();
        let plan = TpPlan::new(8, true);
        let t1 = plan.layer_fwd_comm(&cfg, 1024, &g, &comm);
        let t8 = plan.layer_fwd_comm(&cfg, 8192, &g, &comm);
        assert!(t8 > t1);
        assert!(t8.as_secs_f64() / t1.as_secs_f64() > 4.0);
    }

    #[test]
    fn smaller_tp_reduces_comm_but_raises_memory() {
        // §8.1: TP 8 → 4 cuts exposed comm per rank (same volume over a
        // smaller group with fewer ring steps) at the cost of 2× params
        // per rank.
        let (cfg, comm, _) = setup();
        let tp8 = TpPlan::new(8, true);
        let tp4 = TpPlan::new(4, true);
        let g8 = ProcessGroup::contiguous(0, 8);
        let g4 = ProcessGroup::contiguous(0, 4);
        let c8 = tp8.layer_fwd_comm(&cfg, 8192, &g8, &comm);
        let c4 = tp4.layer_fwd_comm(&cfg, 8192, &g4, &comm);
        assert!(c4 < c8, "tp4 comm {c4} should beat tp8 comm {c8}");
        assert!(tp4.shard_params(1000) > tp8.shard_params(1000));
    }

    #[test]
    fn four_collectives_per_layer() {
        let (cfg, comm, g) = setup();
        let plan = TpPlan::new(8, true);
        let one = comm.all_gather(&g, plan.collective_bytes_per_rank(&cfg, 4096));
        let layer = plan.layer_fwd_comm(&cfg, 4096, &g, &comm);
        assert_eq!(layer, one * COLLECTIVES_PER_LAYER);
    }

    #[test]
    fn backward_mirrors_forward() {
        let (cfg, comm, g) = setup();
        let plan = TpPlan::new(8, true);
        assert_eq!(
            plan.layer_fwd_comm(&cfg, 4096, &g, &comm),
            plan.layer_bwd_comm(&cfg, 4096, &g, &comm)
        );
    }
}
