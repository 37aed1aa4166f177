//! Cluster-level power budgeting (§8.2).
//!
//! "These large clusters are constrained by the total amount of power
//! available in a data center region rather than the number of AI
//! accelerators that can be procured. Therefore, an accelerator's
//! effective performance per unit of power consumption is as
//! important as, or even more important than, its absolute
//! performance." This module sizes a cluster under a power envelope
//! and compares accelerator choices by deliverable cluster throughput.

use crate::gpu::{Dtype, GpuSpec, KernelCost};

/// Fraction of datacenter power that reaches accelerators (the rest is
/// cooling, hosts, network — a typical PUE-and-overheads allowance).
pub const ACCELERATOR_POWER_FRACTION: f64 = 0.6;

/// A cluster sized to a power envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSizedCluster {
    /// The accelerator chosen.
    pub gpu: GpuSpec,
    /// Accelerators that fit the envelope (rounded down to full
    /// 8-GPU nodes).
    pub num_gpus: u64,
    /// Sustained cluster throughput in FLOP/s on a large-GEMM
    /// workload.
    pub cluster_flops: f64,
}

impl PowerSizedCluster {
    /// Sizes a cluster of `gpu` under `datacenter_watts`.
    ///
    /// # Panics
    /// Panics if the budget does not fit at least one 8-GPU node.
    pub fn size(gpu: GpuSpec, datacenter_watts: f64) -> PowerSizedCluster {
        let usable = datacenter_watts * ACCELERATOR_POWER_FRACTION;
        let nodes = (usable / (gpu.tdp_watts * 8.0)).floor() as u64;
        assert!(nodes > 0, "power budget below one node");
        let num_gpus = nodes * 8;
        let bench = KernelCost::gemm(16384, 16384, 16384, Dtype::Bf16);
        let t = gpu.gemm_time(bench, Dtype::Bf16);
        let per_gpu = bench.flops / t.as_secs_f64();
        PowerSizedCluster {
            gpu,
            num_gpus,
            cluster_flops: per_gpu * num_gpus as f64,
        }
    }

    /// Deliverable exaFLOP/s.
    pub fn cluster_eflops(&self) -> f64 {
        self.cluster_flops / 1e18
    }
}

/// Compares accelerator candidates under one power envelope, best
/// (highest cluster throughput) first.
pub fn rank_by_cluster_throughput(
    candidates: Vec<GpuSpec>,
    datacenter_watts: f64,
) -> Vec<PowerSizedCluster> {
    let mut sized: Vec<PowerSizedCluster> = candidates
        .into_iter()
        .map(|g| PowerSizedCluster::size(g, datacenter_watts))
        .collect();
    // total_cmp keeps the sort panic-free even if a candidate's
    // throughput degenerates to NaN (it sorts last).
    sized.sort_by(|a, b| b.cluster_flops.total_cmp(&a.cluster_flops));
    sized
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUNDRED_MW: f64 = 100e6;

    #[test]
    fn power_budget_caps_gpu_count() {
        let c = PowerSizedCluster::size(GpuSpec::h100_sxm_hbm3(), HUNDRED_MW);
        // 60 MW usable / 700 W ≈ 85.7K GPUs, node-rounded.
        assert!(c.num_gpus > 80_000 && c.num_gpus < 90_000, "{}", c.num_gpus);
        assert!(c.num_gpus.is_multiple_of(8));
    }

    #[test]
    fn perf_per_watt_decides_under_fixed_power() {
        // Under a fixed envelope the better Perf/Watt part wins even
        // though fewer absolute units differ: H100 at 700 W still beats
        // A100 at 400 W because its Perf/Watt is higher.
        let ranked = rank_by_cluster_throughput(
            vec![GpuSpec::a100_sxm(), GpuSpec::h100_sxm_hbm3()],
            HUNDRED_MW,
        );
        assert_eq!(ranked[0].gpu.name, "H100-SXM-HBM3");
        assert!(ranked[0].cluster_flops > ranked[1].cluster_flops);
        // But the A100 cluster holds MORE accelerators — procurement
        // count is not the constraint, power is (§8.2).
        assert!(ranked[1].num_gpus > ranked[0].num_gpus);
    }

    #[test]
    fn a_derated_h100_can_beat_the_full_power_part_per_watt() {
        // A hypothetical 500 W H100 at 85 % speed: worse per unit,
        // better per watt — and therefore better per datacenter.
        let mut derated = GpuSpec::h100_sxm_hbm3();
        derated.name = "H100-derated-500W".to_string();
        derated.tdp_watts = 500.0;
        derated.max_gemm_efficiency *= 0.85;
        let ranked =
            rank_by_cluster_throughput(vec![GpuSpec::h100_sxm_hbm3(), derated], HUNDRED_MW);
        assert_eq!(ranked[0].gpu.name, "H100-derated-500W");
    }

    #[test]
    #[should_panic(expected = "below one node")]
    fn tiny_budget_panics() {
        PowerSizedCluster::size(GpuSpec::h100_sxm_hbm3(), 1_000.0);
    }
}
