//! GPU accelerator cost model.
//!
//! Kernels are priced with a roofline model: a kernel with `flops`
//! floating-point work and `bytes` of HBM traffic takes
//! `max(flops / (peak · eff), bytes / hbm_bw)` plus a fixed launch
//! overhead. This reproduces the qualitative behaviour §8.1 of the paper
//! relies on — parallelism shrinks per-GPU GEMM shapes, lowering
//! arithmetic intensity until kernels become memory-bound or
//! launch-bound.

use sim_engine::time::SimDuration;

/// Floating-point element width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 16-bit brain float — the paper's compute/communication format.
    Bf16,
    /// 32-bit IEEE float — used for gradient accumulation (§6.2).
    Fp32,
}

impl Dtype {
    /// Element size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Dtype::Bf16 => 2,
            Dtype::Fp32 => 4,
        }
    }
}

/// Abstract cost of a kernel before it is priced on a specific GPU.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Floating point operations.
    pub flops: f64,
    /// HBM bytes moved (reads + writes).
    pub bytes: f64,
    /// Number of distinct kernel launches (each pays launch overhead).
    pub launches: u32,
}

impl KernelCost {
    /// A kernel with no work (zero time, zero launches).
    pub const ZERO: KernelCost = KernelCost {
        flops: 0.0,
        bytes: 0.0,
        launches: 0,
    };

    /// Component-wise sum.
    pub fn merge(self, other: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
            launches: self.launches + other.launches,
        }
    }

    /// Scales flops and bytes (not launches) by `f`.
    pub fn scale(self, f: f64) -> KernelCost {
        KernelCost {
            flops: self.flops * f,
            bytes: self.bytes * f,
            launches: self.launches,
        }
    }

    /// Cost of a GEMM `C[m,n] += A[m,k] · B[k,n]`, counting one launch
    /// and reads/writes of all three operands in `dtype`.
    pub fn gemm(m: u64, n: u64, k: u64, dtype: Dtype) -> KernelCost {
        let e = dtype.bytes() as f64;
        KernelCost {
            flops: 2.0 * m as f64 * n as f64 * k as f64,
            bytes: e * ((m * k) as f64 + (k * n) as f64 + (m * n) as f64),
            launches: 1,
        }
    }
}

/// A GPU model: peak throughput, memory system and launch overheads.
///
/// All bandwidth figures are *bytes per second*; capacities are bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"H100-SXM-HBM3"`.
    pub name: String,
    /// Peak dense BF16 throughput in FLOP/s (no sparsity).
    pub peak_bf16_flops: f64,
    /// Peak dense FP32 throughput in FLOP/s.
    pub peak_fp32_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bandwidth: f64,
    /// HBM capacity in bytes.
    pub hbm_capacity: u64,
    /// Fraction of peak a well-tuned large GEMM achieves (tensor-core
    /// efficiency ceiling).
    pub max_gemm_efficiency: f64,
    /// Fraction of peak a fused attention kernel achieves when fully
    /// compute-bound (FlashAttention-class kernels run below GEMM
    /// efficiency because of softmax/rescaling work).
    pub max_attention_efficiency: f64,
    /// Fixed CPU-side cost to prepare and launch one kernel (§8.1's
    /// "ensure sufficient CPU performance" concern).
    pub kernel_launch_overhead: SimDuration,
    /// Board power in watts, for Perf/Watt studies (§8.2).
    pub tdp_watts: f64,
}

impl GpuSpec {
    /// NVIDIA H100 SXM with HBM3 — the Llama 3 production trainer
    /// (§7.3: 700 W TDP, 80 GB HBM3, 989 TFLOPs BF16).
    ///
    /// The efficiency ceilings are *effective end-to-end* values
    /// (sustained kernel throughput including launch gaps, wave
    /// quantization and non-overlapped epilogues), calibrated once so
    /// the production Table 2 configuration reproduces the paper's
    /// ≈ 400 TFLOPs/GPU; isolated microbenchmark GEMMs would show
    /// ~0.75–0.85.
    pub fn h100_sxm_hbm3() -> GpuSpec {
        GpuSpec {
            name: "H100-SXM-HBM3".to_string(),
            peak_bf16_flops: 989e12,
            peak_fp32_flops: 67e12,
            hbm_bandwidth: 3.35e12,
            hbm_capacity: 80 * (1 << 30),
            max_gemm_efficiency: 0.60,
            max_attention_efficiency: 0.45,
            kernel_launch_overhead: SimDuration::from_nanos(3_000),
            tdp_watts: 700.0,
        }
    }

    /// H100 with HBM2e — the lower-memory-bandwidth part used for the
    /// CP scalability study (§7.2, Figs 11–12).
    pub fn h100_hbm2e() -> GpuSpec {
        GpuSpec {
            name: "H100-HBM2e".to_string(),
            peak_bf16_flops: 989e12,
            peak_fp32_flops: 67e12,
            hbm_bandwidth: 2.0e12,
            hbm_capacity: 80 * (1 << 30),
            max_gemm_efficiency: 0.60,
            max_attention_efficiency: 0.45,
            kernel_launch_overhead: SimDuration::from_nanos(3_000),
            tdp_watts: 700.0,
        }
    }

    /// NVIDIA A100 SXM 80 GB, used as a contrast point in hardware
    /// recommendation studies.
    pub fn a100_sxm() -> GpuSpec {
        GpuSpec {
            name: "A100-SXM-80GB".to_string(),
            peak_bf16_flops: 312e12,
            peak_fp32_flops: 19.5e12,
            hbm_bandwidth: 2.039e12,
            hbm_capacity: 80 * (1 << 30),
            max_gemm_efficiency: 0.82,
            max_attention_efficiency: 0.6,
            kernel_launch_overhead: SimDuration::from_nanos(3_000),
            tdp_watts: 400.0,
        }
    }

    /// Returns a copy with a different HBM capacity — the §8.1 "higher
    /// HBM capacity can improve performance" what-if.
    pub fn with_hbm_capacity(mut self, bytes: u64) -> GpuSpec {
        self.hbm_capacity = bytes;
        self
    }

    /// Peak FLOP/s for `dtype`.
    pub fn peak_flops(&self, dtype: Dtype) -> f64 {
        match dtype {
            Dtype::Bf16 => self.peak_bf16_flops,
            Dtype::Fp32 => self.peak_fp32_flops,
        }
    }

    /// Prices a GEMM-class kernel (dense tensor-core work) in `dtype`.
    pub fn gemm_time(&self, cost: KernelCost, dtype: Dtype) -> SimDuration {
        self.kernel_time(cost, self.peak_flops(dtype) * self.max_gemm_efficiency)
    }

    /// Prices an attention-class kernel in `dtype`.
    pub fn attention_time(&self, cost: KernelCost, dtype: Dtype) -> SimDuration {
        self.kernel_time(cost, self.peak_flops(dtype) * self.max_attention_efficiency)
    }

    /// Prices a purely memory-bound (element-wise) kernel.
    pub fn elementwise_time(&self, bytes: f64, launches: u32) -> SimDuration {
        self.kernel_time(
            KernelCost {
                flops: 0.0,
                bytes,
                launches,
            },
            f64::INFINITY,
        )
    }

    fn kernel_time(&self, cost: KernelCost, effective_flops: f64) -> SimDuration {
        let compute_s = if cost.flops > 0.0 {
            cost.flops / effective_flops
        } else {
            0.0
        };
        let memory_s = cost.bytes / self.hbm_bandwidth;
        let busy = compute_s.max(memory_s);
        SimDuration::from_secs_f64(busy) + self.kernel_launch_overhead * u64::from(cost.launches)
    }

    /// Hardware FLOPs utilization achieved by a kernel of `cost` that ran
    /// for `elapsed` at `dtype` peak — the §7.2 HFU metric.
    pub fn hfu(&self, cost: KernelCost, elapsed: SimDuration, dtype: Dtype) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        cost.flops / elapsed.as_secs_f64() / self.peak_flops(dtype)
    }

    /// Achieved FLOP/s per watt for a kernel of `cost` over `elapsed`.
    pub fn flops_per_watt(&self, cost: KernelCost, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        cost.flops / elapsed.as_secs_f64() / self.tdp_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_cost_counts_flops_and_bytes() {
        let c = KernelCost::gemm(128, 256, 512, Dtype::Bf16);
        assert_eq!(c.flops, 2.0 * 128.0 * 256.0 * 512.0);
        assert_eq!(
            c.bytes,
            2.0 * (128.0 * 512.0 + 512.0 * 256.0 + 128.0 * 256.0)
        );
        assert_eq!(c.launches, 1);
    }

    #[test]
    fn large_gemm_is_compute_bound() {
        let gpu = GpuSpec::h100_sxm_hbm3();
        let c = KernelCost::gemm(8192, 8192, 8192, Dtype::Bf16);
        let t = gpu.gemm_time(c, Dtype::Bf16);
        let expected = c.flops / (gpu.peak_bf16_flops * gpu.max_gemm_efficiency);
        // Within launch overhead of the pure-compute roofline.
        assert!((t.as_secs_f64() - expected).abs() < 5e-6, "{t}");
        // HFU near the efficiency ceiling.
        let hfu = gpu.hfu(c, t, Dtype::Bf16);
        assert!(
            hfu > gpu.max_gemm_efficiency * 0.9 && hfu <= gpu.max_gemm_efficiency,
            "hfu={hfu}"
        );
    }

    #[test]
    fn tiny_gemm_is_launch_or_memory_bound() {
        let gpu = GpuSpec::h100_sxm_hbm3();
        let c = KernelCost::gemm(64, 64, 64, Dtype::Bf16);
        let t = gpu.gemm_time(c, Dtype::Bf16);
        let hfu = gpu.hfu(c, t, Dtype::Bf16);
        assert!(hfu < 0.01, "tiny GEMM should waste the GPU, hfu={hfu}");
    }

    #[test]
    fn lower_hbm_bandwidth_slows_memory_bound_kernels() {
        let hbm3 = GpuSpec::h100_sxm_hbm3();
        let hbm2e = GpuSpec::h100_hbm2e();
        let t3 = hbm3.elementwise_time(1e9, 1);
        let t2e = hbm2e.elementwise_time(1e9, 1);
        assert!(t2e > t3);
        // But an enormous compute-bound GEMM is unaffected.
        let big = KernelCost::gemm(16384, 16384, 16384, Dtype::Bf16);
        assert_eq!(
            hbm3.gemm_time(big, Dtype::Bf16),
            hbm2e.gemm_time(big, Dtype::Bf16)
        );
    }

    #[test]
    fn merge_and_scale() {
        let a = KernelCost {
            flops: 10.0,
            bytes: 4.0,
            launches: 1,
        };
        let b = KernelCost {
            flops: 5.0,
            bytes: 2.0,
            launches: 2,
        };
        let m = a.merge(b);
        assert_eq!(m.flops, 15.0);
        assert_eq!(m.launches, 3);
        let s = a.scale(2.0);
        assert_eq!(s.flops, 20.0);
        assert_eq!(s.launches, 1);
    }

    #[test]
    fn launch_overhead_dominates_many_small_kernels() {
        // §8.1: a sequence of lightweight kernels becomes CPU/launch
        // bound. 1000 launches of nothing ≈ 3 ms on H100's 3 us overhead.
        let gpu = GpuSpec::h100_sxm_hbm3();
        let t = gpu.elementwise_time(0.0, 1000);
        assert_eq!(t, SimDuration::from_micros(3000));
    }

    #[test]
    fn dtype_peaks_differ() {
        let gpu = GpuSpec::h100_sxm_hbm3();
        assert!(gpu.peak_flops(Dtype::Bf16) > gpu.peak_flops(Dtype::Fp32));
        assert_eq!(Dtype::Bf16.bytes(), 2);
        assert_eq!(Dtype::Fp32.bytes(), 4);
    }

    #[test]
    fn perf_per_watt() {
        let h100 = GpuSpec::h100_sxm_hbm3();
        let a100 = GpuSpec::a100_sxm();
        let c = KernelCost::gemm(8192, 8192, 8192, Dtype::Bf16);
        let th = h100.gemm_time(c, Dtype::Bf16);
        let ta = a100.gemm_time(c, Dtype::Bf16);
        assert!(h100.flops_per_watt(c, th) > a100.flops_per_watt(c, ta));
    }
}
