//! Fig 14: document-mask workload imbalance across 8 K GPUs during
//! long-context training.
//!
//! Each of the 512 CP groups (8192 ranks / cp 16) receives its own
//! packed 131 K sequence; the document mask gives every CP rank a
//! different attention workload. The paper measures a 1.44× gap between
//! the slowest and fastest rank's total compute, driven entirely by
//! attention kernel time.

use crate::configs::doc_mask;
use crate::report::Table;
use cluster_model::gpu::{Dtype, GpuSpec, KernelCost};
use llm_model::flops;
use llm_model::TransformerConfig;
use parallelism_core::cp::CpSharding;
use sim_engine::stats::Summary;

/// Per-rank `(attention_seconds, total_compute_seconds)` for the whole
/// population of `groups × cp` ranks.
pub fn rank_times(groups: usize, cp: u32, seq: u64, seed: u64) -> Vec<(f64, f64)> {
    let cfg = TransformerConfig::llama3_405b();
    let gpu = GpuSpec::h100_sxm_hbm3();
    let sharding = CpSharding::new(cp);
    let tokens = seq / cp as u64;
    // Non-attention (dense) work per rank is mask-independent.
    let dense = flops::attention_projections_fwd(&cfg, tokens)
        .merge(flops::ffn_fwd(&cfg, tokens))
        .merge(flops::norms_fwd(&cfg, tokens));
    let dense_t = gpu.gemm_time(dense, Dtype::Bf16).as_secs_f64() * 3.0; // fwd + bwd
    let mut out = Vec::with_capacity(groups * cp as usize);
    for g in 0..groups {
        let mask = doc_mask(seq, seed + g as u64);
        for r in 0..cp {
            let pairs = sharding.rank_pairs(seq, &mask, r);
            let cost = flops::attention_kernel_fwd(&cfg, tokens, seq, pairs);
            let attn = gpu
                .attention_time(
                    KernelCost {
                        launches: 2,
                        ..cost
                    },
                    Dtype::Bf16,
                )
                .as_secs_f64()
                * 3.0;
            out.push((attn, attn + dense_t));
        }
    }
    out
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let cp = 16u32;
    let groups = 512usize; // 8192 ranks
    let times = rank_times(groups, cp, 131_072, 42);
    let attn: Vec<f64> = times.iter().map(|t| t.0).collect();
    let total: Vec<f64> = times.iter().map(|t| t.1).collect();
    let s_attn = Summary::of(&attn).expect("non-empty");
    let s_total = Summary::of(&total).expect("non-empty");

    let mut t = Table::new(
        "Fig 14 — per-rank compute distribution, 8192 ranks, cp=16, seq=131K, doc mask mean 1K; paper: slowest/fastest total ≈ 1.44×, gap entirely attention",
        &["metric", "min", "p50", "p99", "max", "max/min"],
    );
    let fmt_row = |name: &str, s: &Summary| -> Vec<String> {
        vec![
            name.to_string(),
            format!("{:.1} ms", s.min * 1e3),
            format!("{:.1} ms", s.p50 * 1e3),
            format!("{:.1} ms", s.p99 * 1e3),
            format!("{:.1} ms", s.max * 1e3),
            format!("{:.2}×", s.max_over_min()),
        ]
    };
    t.row(&fmt_row("attention kernels", &s_attn));
    t.row(&fmt_row("total compute", &s_total));

    // Dense work is identical everywhere: verify the gap is all
    // attention, as the paper observes.
    let dense_spread = (s_total.max - s_total.min) - (s_attn.max - s_attn.min);
    format!(
        "{}\nnon-attention contribution to the gap: {:.3} ms (≈ 0 — imbalance is entirely attention, as in the paper)\n",
        t.render(),
        dense_spread * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_compute_gap_in_paper_range() {
        let times = rank_times(128, 16, 131_072, 7);
        let total: Vec<f64> = times.iter().map(|t| t.1).collect();
        let s = Summary::of(&total).unwrap();
        let ratio = s.max_over_min();
        // Paper: 1.44×. The synthetic corpus lands in the same band.
        assert!((1.15..2.2).contains(&ratio), "slowest/fastest = {ratio:.2}");
    }

    #[test]
    fn gap_is_entirely_attention() {
        let times = rank_times(64, 16, 131_072, 9);
        let attn_spread = {
            let v: Vec<f64> = times.iter().map(|t| t.0).collect();
            let s = Summary::of(&v).unwrap();
            s.max - s.min
        };
        let total_spread = {
            let v: Vec<f64> = times.iter().map(|t| t.1).collect();
            let s = Summary::of(&v).unwrap();
            s.max - s.min
        };
        assert!((attn_spread - total_spread).abs() < 1e-9);
    }

    #[test]
    fn longer_doc_tail_means_more_imbalance_than_fixed_docs() {
        use llm_model::masks::MaskSpec;
        use parallelism_core::cp::CpSharding;
        let s = CpSharding::new(16);
        let fixed = s.imbalance(131_072, &MaskSpec::document(vec![1024; 128]));
        let sampled = s.imbalance(131_072, &crate::configs::doc_mask(131_072, 3));
        assert!(sampled > fixed);
    }
}
