//! Context parallelism (§4): all-gather CP attention and the
//! ring-attention baseline.
//!
//! CP shards each sequence along its length. Llama 3 uses a
//! **zig-zag** sharding: the sequence is cut into `2·cp` chunks and
//! rank `i` owns chunks `i` and `2·cp − 1 − i`, which balances causal
//! attention work across ranks (Fig 7a). Before attention, K and V are
//! all-gathered across the CP group — a deliberately *exposed*
//! collective whose cost is `O(seq)` against `O(seq²)` compute, and
//! which is small because GQA makes K/V tensors much narrower than Q.
//!
//! The module also models a TransformerEngine-style **ring** attention
//! (the §7.2 baseline): `cp` iterations of chunked attention overlapped
//! with neighbor P2P, paying per-step kernel-launch fragmentation and
//! log-sum-exp merge overheads — the effects behind Fig 13's crossover.

use cluster_model::gpu::{Dtype, GpuSpec, KernelCost};
use collectives::{CommCostModel, ProcessGroup};
use llm_model::flops;
use llm_model::masks::MaskSpec;
use llm_model::TransformerConfig;
use sim_engine::time::SimDuration;

/// Zig-zag sharding of a sequence across `cp` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpSharding {
    /// CP degree.
    pub cp: u32,
}

impl CpSharding {
    /// Creates the sharding.
    ///
    /// # Panics
    /// Panics if `cp == 0`.
    pub fn new(cp: u32) -> CpSharding {
        assert!(cp > 0, "cp must be positive");
        CpSharding { cp }
    }

    /// The two query ranges `(start, end)` owned by `rank`: chunks `i`
    /// and `2·cp − 1 − i` of `2·cp` equal chunks.
    ///
    /// # Panics
    /// Panics if `rank ≥ cp` or `seq` is not divisible by `2·cp`.
    pub fn chunk_ranges(&self, seq: u64, rank: u32) -> [(u64, u64); 2] {
        assert!(rank < self.cp, "rank out of range");
        let chunks = 2 * self.cp as u64;
        assert!(
            seq.is_multiple_of(chunks),
            "seq {seq} not divisible by 2·cp = {chunks}"
        );
        let w = seq / chunks;
        let lo = rank as u64;
        let hi = chunks - 1 - rank as u64;
        [(lo * w, (lo + 1) * w), (hi * w, (hi + 1) * w)]
    }

    /// Tokens owned per rank.
    pub fn tokens_per_rank(&self, seq: u64) -> u64 {
        seq / self.cp as u64
    }

    /// Attended (query, key) pairs assigned to `rank` under `mask`
    /// (after the all-gather every rank holds all keys, so a rank's
    /// work is exactly its query chunks' rows of the mask).
    pub fn rank_pairs(&self, seq: u64, mask: &MaskSpec, rank: u32) -> u128 {
        self.chunk_ranges(seq, rank)
            .iter()
            .map(|&(s, e)| mask.attended_pairs_in(seq, s, e))
            .sum()
    }

    /// Pair counts for every rank.
    pub fn all_rank_pairs(&self, seq: u64, mask: &MaskSpec) -> Vec<u128> {
        (0..self.cp)
            .map(|r| self.rank_pairs(seq, mask, r))
            .collect()
    }

    /// Work-imbalance factor: max over mean of per-rank pairs — 1.0 is
    /// perfectly balanced. Zig-zag gives exactly 1.0 for the full
    /// causal mask; document masks drive it above 1 (Fig 11's "lower
    /// relative HFU for block causal" and Fig 14's slow ranks).
    pub fn imbalance(&self, seq: u64, mask: &MaskSpec) -> f64 {
        let pairs = self.all_rank_pairs(seq, mask);
        // lint: allow(unwrap) — all_rank_pairs returns one entry per CP rank, cp ≥ 1
        let max = *pairs.iter().max().expect("cp > 0") as f64;
        let mean = pairs.iter().sum::<u128>() as f64 / pairs.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Timing breakdown of one CP attention layer (forward).
#[derive(Debug, Clone, PartialEq)]
pub struct CpAttnBreakdown {
    /// Exposed all-gather (or summed ring-P2P residue) time.
    pub comm: SimDuration,
    /// Per-rank attention compute time.
    pub compute: Vec<SimDuration>,
    /// Extra per-step overheads (merges, fragmented launches).
    pub overhead: SimDuration,
}

impl CpAttnBreakdown {
    /// The layer's critical-path time: exposed comm + the slowest
    /// rank's compute + overheads. ("All parallel algorithms on CP ...
    /// must wait for the slowest CP rank", §7.3.2.)
    pub fn total(&self) -> SimDuration {
        let max_compute = self
            .compute
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        self.comm + max_compute + self.overhead
    }
}

/// All-gather based CP attention (the paper's design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllGatherCp {
    /// Sharding (CP degree).
    pub sharding: CpSharding,
}

impl AllGatherCp {
    /// Creates the model.
    pub fn new(cp: u32) -> AllGatherCp {
        AllGatherCp {
            sharding: CpSharding::new(cp),
        }
    }

    /// Bytes each rank contributes to the K/V all-gather: its local
    /// tokens × `kv_dim` × 2 tensors, BF16. GQA keeps this small
    /// relative to Q (§4).
    pub fn kv_bytes_per_rank(&self, cfg: &TransformerConfig, seq: u64) -> u64 {
        self.sharding.tokens_per_rank(seq) * cfg.kv_dim() * 2 * Dtype::Bf16.bytes()
    }

    /// Forward timing of one CP attention layer on `group`.
    pub fn layer_fwd(
        &self,
        cfg: &TransformerConfig,
        seq: u64,
        mask: &MaskSpec,
        gpu: &GpuSpec,
        comm: &CommCostModel,
        group: &ProcessGroup,
    ) -> CpAttnBreakdown {
        let cp = self.sharding.cp;
        let local = self.sharding.tokens_per_rank(seq);
        let ag = if cp == 1 {
            SimDuration::ZERO
        } else {
            comm.all_gather(group, self.kv_bytes_per_rank(cfg, seq))
        };
        let compute = (0..cp)
            .map(|r| {
                let pairs = self.sharding.rank_pairs(seq, mask, r);
                // Each rank runs one fused kernel per owned chunk over
                // the *gathered* K/V.
                let cost = flops::attention_kernel_fwd(cfg, local, seq, pairs);
                let cost = KernelCost {
                    launches: 2,
                    ..cost
                };
                gpu.attention_time(cost, Dtype::Bf16)
            })
            .collect();
        // Document-mask bookkeeping (computing KV seqlens, padding Q) is
        // an elementwise pass over the local tokens.
        let overhead = match mask {
            MaskSpec::Document { .. } => gpu.elementwise_time((local * cfg.q_dim() * 2) as f64, 1),
            _ => SimDuration::ZERO,
        };
        CpAttnBreakdown {
            comm: ag,
            compute,
            overhead,
        }
    }

    /// Backward timing: reduce-scatter of K/V gradients plus ~2× the
    /// forward attention compute.
    pub fn layer_bwd(
        &self,
        cfg: &TransformerConfig,
        seq: u64,
        mask: &MaskSpec,
        gpu: &GpuSpec,
        comm: &CommCostModel,
        group: &ProcessGroup,
    ) -> CpAttnBreakdown {
        let fwd = self.layer_fwd(cfg, seq, mask, gpu, comm, group);
        let rs = if self.sharding.cp == 1 {
            SimDuration::ZERO
        } else {
            comm.reduce_scatter(group, self.kv_bytes_per_rank(cfg, seq))
        };
        CpAttnBreakdown {
            comm: rs,
            compute: fwd.compute.iter().map(|c| *c * 2).collect(),
            overhead: fwd.overhead,
        }
    }
}

/// TransformerEngine-style ring CP attention (§7.2 baseline): `cp`
/// iterations, each computing partial attention on one K/V block while
/// P2P-exchanging the next, then merging partials via log-sum-exp
/// rescaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RingCp {
    /// Sharding (CP degree).
    pub sharding: CpSharding,
}

impl RingCp {
    /// Creates the model.
    pub fn new(cp: u32) -> RingCp {
        RingCp {
            sharding: CpSharding::new(cp),
        }
    }

    /// Forward timing of one ring-attention layer on `group`.
    ///
    /// Only the full causal mask is supported — the §7.2 TE branch
    /// "does not support variable sequence lengths", which is precisely
    /// why Llama 3 needed the all-gather design.
    ///
    /// # Panics
    /// Panics if `mask` is a document mask.
    pub fn layer_fwd(
        &self,
        cfg: &TransformerConfig,
        seq: u64,
        mask: &MaskSpec,
        gpu: &GpuSpec,
        comm: &CommCostModel,
        group: &ProcessGroup,
    ) -> CpAttnBreakdown {
        assert!(
            !matches!(mask, MaskSpec::Document { .. }),
            "ring attention baseline does not support document masks (§7.2)"
        );
        let cp = self.sharding.cp as u64;
        let local = self.sharding.tokens_per_rank(seq);
        if cp == 1 {
            let pairs = mask.attended_pairs(seq);
            let t = gpu.attention_time(
                flops::attention_kernel_fwd(cfg, seq, seq, pairs),
                Dtype::Bf16,
            );
            return CpAttnBreakdown {
                comm: SimDuration::ZERO,
                compute: vec![t],
                overhead: SimDuration::ZERO,
            };
        }
        // Total work is balanced by the zig-zag assignment; each of the
        // cp steps computes 1/cp of a rank's pairs over a K/V block of
        // seq/cp tokens, in its own (fragmented) kernel.
        let total_pairs = mask.attended_pairs(seq);
        let pairs_per_rank = total_pairs / cp as u128;
        let pairs_per_step = pairs_per_rank / cp as u128;
        let step_cost = KernelCost {
            flops: crate::costs::attention_pair_flops(
                flops::FLOPS_PER_PAIR_PER_HEADDIM,
                cfg.head_dim as f64,
                cfg.num_heads as f64,
                pairs_per_step as f64,
            ),
            bytes: (local * cfg.q_dim() * 2 + (seq / cp) * cfg.kv_dim() * 2) as f64
                * Dtype::Bf16.bytes() as f64,
            // Two kernels per step (the rank's two zig-zag chunks).
            launches: 2,
        };
        let step_compute = gpu.attention_time(step_cost, Dtype::Bf16);
        // P2P of the next K/V block, overlapped with compute.
        let kv_block = (seq / cp) * cfg.kv_dim() * 2 * Dtype::Bf16.bytes();
        let ranks = group.ranks();
        let p2p = comm.p2p(ranks[0], ranks[1 % ranks.len()], kv_block);
        let step_time = step_compute.max(p2p);
        // Log-sum-exp merge of partial outputs: one FP32 accumulator
        // update over the local output per step.
        let merge_bytes = (local * cfg.q_dim()) as f64 * Dtype::Fp32.bytes() as f64;
        let merge = gpu.elementwise_time(merge_bytes, 2);
        let compute_total = step_time * cp + SimDuration::ZERO;
        CpAttnBreakdown {
            comm: SimDuration::ZERO,
            compute: vec![compute_total; self.sharding.cp as usize],
            overhead: merge * cp,
        }
    }
}

/// Relative hardware FLOPs utilization of a CP attention layer against
/// the single-GPU FlashAttention baseline (Figs 11 and 13):
/// `HFU(CP) / HFU(single) = T_single / (cp × T_cp)`.
pub fn relative_hfu(
    cfg: &TransformerConfig,
    seq: u64,
    mask: &MaskSpec,
    gpu: &GpuSpec,
    cp_time: SimDuration,
    cp: u32,
) -> f64 {
    let pairs = mask.attended_pairs(seq);
    let single = gpu.attention_time(
        flops::attention_kernel_fwd(cfg, seq, seq, pairs),
        Dtype::Bf16,
    );
    single.as_secs_f64() / (cp as f64 * cp_time.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_model::topology::TopologySpec;

    fn setup(cp: u32) -> (TransformerConfig, GpuSpec, CommCostModel, ProcessGroup) {
        (
            TransformerConfig::llama3_405b(),
            GpuSpec::h100_hbm2e(),
            CommCostModel::new(TopologySpec::llama3_production(1)),
            ProcessGroup::contiguous(0, cp),
        )
    }

    #[test]
    fn zigzag_chunks_cover_sequence() {
        let s = CpSharding::new(4);
        let mut covered = [false; 16];
        for r in 0..4 {
            for (lo, hi) in s.chunk_ranges(16, r) {
                for t in lo..hi {
                    assert!(!covered[t as usize], "token {t} double-owned");
                    covered[t as usize] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn zigzag_balances_causal_mask_exactly() {
        // Fig 7a: chunk i pairs with chunk 2cp−1−i so every rank does
        // the same causal work.
        let s = CpSharding::new(4);
        let pairs = s.all_rank_pairs(4096, &MaskSpec::Causal);
        assert!(pairs.windows(2).all(|w| w[0] == w[1]), "{pairs:?}");
        assert!((s.imbalance(4096, &MaskSpec::Causal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn naive_contiguous_sharding_would_be_imbalanced() {
        // Contrast: contiguous half-splits give the last rank ~3× the
        // work — the reason zig-zag exists.
        let seq = 4096u64;
        let causal = MaskSpec::Causal;
        let first_half = causal.attended_pairs_in(seq, 0, seq / 2);
        let second_half = causal.attended_pairs_in(seq, seq / 2, seq);
        assert!(second_half > first_half * 2);
    }

    #[test]
    fn document_mask_creates_imbalance() {
        let s = CpSharding::new(4);
        // One long document spanning most of the sequence plus tiny
        // ones: ranks owning the long doc's tail do far more work.
        let mask = MaskSpec::document(vec![3072, 256, 256, 256, 256]);
        let imb = s.imbalance(4096, &mask);
        assert!(imb > 1.1, "imbalance {imb}");
    }

    #[test]
    fn kv_bytes_shrink_with_gqa() {
        let cfg = TransformerConfig::llama3_405b();
        let ag = AllGatherCp::new(4);
        let kv = ag.kv_bytes_per_rank(&cfg, 8192);
        let q_bytes = 8192 / 4 * cfg.q_dim() * Dtype::Bf16.bytes();
        // K+V together are 8× smaller than Q (GQA 16: 2×q_dim/16).
        assert_eq!(kv * 8, q_bytes);
    }

    #[test]
    fn relative_hfu_rises_with_sequence_length() {
        // Fig 11 observation (1): O(seq) comm vs O(seq²) compute.
        let (cfg, gpu, comm, group) = setup(2);
        let ag = AllGatherCp::new(2);
        let rel: Vec<f64> = [4096u64, 16384, 65536]
            .iter()
            .map(|&seq| {
                let b = ag.layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
                relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, b.total(), 2)
            })
            .collect();
        assert!(rel[0] < rel[1] && rel[1] < rel[2], "{rel:?}");
        assert!(rel[2] > 0.90, "long-seq rel HFU {rel:?}");
    }

    #[test]
    fn block_causal_has_lower_relative_hfu() {
        // Fig 11 observation (2).
        let (cfg, gpu, comm, group) = setup(4);
        let ag = AllGatherCp::new(4);
        let seq = 32768;
        let causal = ag.layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
        let doc_mask = MaskSpec::document(
            // mean ≈ 1K with one long outlier.
            vec![
                16384, 1024, 1024, 2048, 512, 512, 1024, 1024, 512, 4096, 512, 3072, 1024,
            ],
        );
        let doc = ag.layer_fwd(&cfg, seq, &doc_mask, &gpu, &comm, &group);
        let rel_causal = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, causal.total(), 4);
        let rel_doc = relative_hfu(&cfg, seq, &doc_mask, &gpu, doc.total(), 4);
        assert!(rel_doc < rel_causal, "doc {rel_doc} vs causal {rel_causal}");
    }

    #[test]
    fn cp2_beats_cp4_at_short_sequences() {
        let (cfg, gpu, comm, _) = setup(4);
        let seq = 4096;
        let g2 = ProcessGroup::contiguous(0, 2);
        let g4 = ProcessGroup::contiguous(0, 4);
        let b2 = AllGatherCp::new(2).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &g2);
        let b4 = AllGatherCp::new(4).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &g4);
        let r2 = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, b2.total(), 2);
        let r4 = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, b4.total(), 4);
        assert!(r2 > r4, "cp2 {r2} vs cp4 {r4}");
    }

    #[test]
    fn ring_suffers_fragmentation_at_large_cp_small_seq() {
        // Fig 13: all-gather CP beats TE at cp = 4, seq 4–8 K.
        let (cfg, gpu, comm, group) = setup(4);
        let seq = 4096;
        let ag = AllGatherCp::new(4).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
        let ring = RingCp::new(4).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
        assert!(
            ring.total() > ag.total(),
            "ring {} vs all-gather {}",
            ring.total(),
            ag.total()
        );
    }

    #[test]
    fn both_designs_converge_at_long_sequences() {
        // Fig 13: both > 95% relative HFU at seq ≥ 64 K.
        let (cfg, gpu, comm, group) = setup(2);
        let seq = 131_072;
        let ag = AllGatherCp::new(2).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
        let ring = RingCp::new(2).layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
        let r_ag = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, ag.total(), 2);
        let r_ring = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, ring.total(), 2);
        assert!(r_ag > 0.93, "all-gather {r_ag}");
        assert!(r_ring > 0.93, "ring {r_ring}");
    }

    #[test]
    #[should_panic(expected = "document masks")]
    fn ring_rejects_document_masks() {
        let (cfg, gpu, comm, group) = setup(2);
        RingCp::new(2).layer_fwd(
            &cfg,
            4096,
            &MaskSpec::document(vec![2048, 2048]),
            &gpu,
            &comm,
            &group,
        );
    }

    #[test]
    fn backward_includes_kv_grad_reduce_scatter() {
        let (cfg, gpu, comm, group) = setup(4);
        let ag = AllGatherCp::new(4);
        let bwd = ag.layer_bwd(&cfg, 8192, &MaskSpec::Causal, &gpu, &comm, &group);
        let fwd = ag.layer_fwd(&cfg, 8192, &MaskSpec::Causal, &gpu, &comm, &group);
        assert!(bwd.comm > SimDuration::ZERO);
        assert!(bwd.total() > fwd.total());
    }
}
