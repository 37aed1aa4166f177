//! FLOPs and byte accounting for transformer layers.
//!
//! Costs are expressed as [`KernelCost`] (flops, HBM bytes, kernel
//! launches) for a *full, unsharded* layer processing `tokens` tokens;
//! the parallelism layer scales them for TP/CP sharding. Attention work
//! is mask-aware: it is proportional to the number of attended
//! (query, key) pairs, so document masks (§4) reduce and *unbalance*
//! attention FLOPs exactly as in the paper.

use crate::config::TransformerConfig;
use crate::masks::MaskSpec;
use cluster_model::gpu::{Dtype, KernelCost};

/// FLOPs per attended (query, key) pair per head: 2 for `Q·Kᵀ` and 2 for
/// `P·V` per head-dim element.
pub const FLOPS_PER_PAIR_PER_HEADDIM: f64 = 4.0;

/// Forward cost of the four attention projections (Q, K, V, O) for
/// `tokens` tokens.
pub fn attention_projections_fwd(cfg: &TransformerConfig, tokens: u64) -> KernelCost {
    let h = cfg.hidden_dim;
    KernelCost::gemm(tokens, cfg.q_dim() + 2 * cfg.kv_dim(), h, Dtype::Bf16)
        .merge(KernelCost::gemm(tokens, h, cfg.q_dim(), Dtype::Bf16))
}

/// Forward cost of the fused attention kernel itself for a workload of
/// `pairs` attended (query, key) pairs across all of `cfg`'s heads.
///
/// Bytes model a FlashAttention-style kernel: Q/K/V read once, output
/// written once (the score matrix never hits HBM).
pub fn attention_kernel_fwd(
    cfg: &TransformerConfig,
    tokens: u64,
    kv_tokens: u64,
    pairs: u128,
) -> KernelCost {
    let e = Dtype::Bf16.bytes() as f64;
    KernelCost {
        flops: FLOPS_PER_PAIR_PER_HEADDIM
            * cfg.head_dim as f64
            * cfg.num_heads as f64
            * pairs as f64,
        bytes: e
            * (tokens as f64 * cfg.q_dim() as f64 * 2.0
                + kv_tokens as f64 * cfg.kv_dim() as f64 * 2.0),
        launches: 1,
    }
}

/// Forward cost of one SwiGLU FFN for `tokens` tokens (gate+up fused,
/// elementwise SiLU·mul, down projection).
pub fn ffn_fwd(cfg: &TransformerConfig, tokens: u64) -> KernelCost {
    let h = cfg.hidden_dim;
    let f = cfg.ffn_dim;
    let e = Dtype::Bf16.bytes() as f64;
    KernelCost::gemm(tokens, 2 * f, h, Dtype::Bf16)
        .merge(KernelCost::gemm(tokens, h, f, Dtype::Bf16))
        .merge(KernelCost {
            // SiLU(gate) ⊙ up: read 2f, write f per token.
            flops: 2.0 * tokens as f64 * f as f64,
            bytes: e * 3.0 * tokens as f64 * f as f64,
            launches: 1,
        })
}

/// Forward cost of the two RMSNorms and two residual adds of a layer.
pub fn norms_fwd(cfg: &TransformerConfig, tokens: u64) -> KernelCost {
    let e = Dtype::Bf16.bytes() as f64;
    let h = cfg.hidden_dim as f64;
    KernelCost {
        flops: 8.0 * tokens as f64 * h,
        bytes: e * 8.0 * tokens as f64 * h,
        launches: 4,
    }
}

/// Forward cost of one full self-attention transformer layer for
/// `tokens` query tokens attending `kv_tokens` keys with `pairs`
/// attended pairs.
pub fn self_attention_layer_fwd(
    cfg: &TransformerConfig,
    tokens: u64,
    kv_tokens: u64,
    pairs: u128,
) -> KernelCost {
    attention_projections_fwd(cfg, tokens)
        .merge(attention_kernel_fwd(cfg, tokens, kv_tokens, pairs))
        .merge(ffn_fwd(cfg, tokens))
        .merge(norms_fwd(cfg, tokens))
}

/// Convenience: one self-attention layer under `mask` at `seq`, for one
/// sequence (queries = keys = `seq`).
pub fn layer_fwd_with_mask(cfg: &TransformerConfig, seq: u64, mask: &MaskSpec) -> KernelCost {
    self_attention_layer_fwd(cfg, seq, seq, mask.attended_pairs(seq))
}

/// Forward cost of the input embedding (a gather: bytes only).
pub fn embedding_fwd(cfg: &TransformerConfig, tokens: u64) -> KernelCost {
    let e = Dtype::Bf16.bytes() as f64;
    KernelCost {
        flops: 0.0,
        bytes: e * tokens as f64 * cfg.hidden_dim as f64 * 2.0,
        launches: 1,
    }
}

/// Forward cost of the output head (final norm + logits GEMM +
/// softmax/cross-entropy pass over the vocabulary).
pub fn output_head_fwd(cfg: &TransformerConfig, tokens: u64) -> KernelCost {
    let e = Dtype::Bf16.bytes() as f64;
    KernelCost::gemm(tokens, cfg.vocab_size, cfg.hidden_dim, Dtype::Bf16).merge(KernelCost {
        flops: 5.0 * tokens as f64 * cfg.vocab_size as f64,
        bytes: e * 2.0 * tokens as f64 * cfg.vocab_size as f64,
        launches: 2,
    })
}

/// Backward cost from a forward cost.
///
/// A trainable region computes both input gradients and weight
/// gradients (≈ 2× forward flops); a frozen region (§3.2.2: the text
/// model's self-attention layers in multimodal training) computes input
/// gradients only (≈ 1× forward).
pub fn backward(fwd: KernelCost, frozen: bool) -> KernelCost {
    let factor = if frozen { 1.0 } else { 2.0 };
    KernelCost {
        flops: fwd.flops * factor,
        bytes: fwd.bytes * factor,
        launches: fwd.launches * if frozen { 1 } else { 2 },
    }
}

/// Total model FLOPs for one token's forward **and** backward pass —
/// the numerator of the paper's TFLOPs/GPU metric (§7.3). Attention
/// FLOPs use the causal mask at `seq`.
pub fn model_flops_per_token(cfg: &TransformerConfig, seq: u64) -> f64 {
    let mask = MaskSpec::Causal;
    let fwd_layer = layer_fwd_with_mask(cfg, seq, &mask);
    let fwd = fwd_layer.flops * cfg.num_layers as f64 + output_head_fwd(cfg, seq).flops;
    // fwd + bwd(2×fwd) = 3× forward, normalized per token.
    3.0 * fwd / seq as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransformerConfig {
        TransformerConfig::llama3_405b()
    }

    #[test]
    fn linear_flops_match_six_nd_rule() {
        // fwd+bwd linear flops per token ≈ 6 × params (ignoring
        // attention pairs and vocab softmax).
        let c = cfg();
        let seq = 8192;
        let per_token = model_flops_per_token(&c, seq);
        let six_nd = 6.0 * c.total_params() as f64;
        let ratio = per_token / six_nd;
        // Attention adds a noticeable but bounded overhead at 8K.
        assert!((1.0..1.35).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn attention_kernel_scales_with_pairs() {
        let c = cfg();
        let causal = MaskSpec::Causal.attended_pairs(8192);
        let doc = MaskSpec::document(vec![1024; 8]).attended_pairs(8192);
        let a = attention_kernel_fwd(&c, 8192, 8192, causal);
        let b = attention_kernel_fwd(&c, 8192, 8192, doc);
        assert!(a.flops > b.flops * 6.0, "causal ≫ doc-masked work");
        // Bytes are identical: same tensors move regardless of mask.
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn backward_doubles_trainable_halves_frozen() {
        let c = cfg();
        let fwd = ffn_fwd(&c, 1024);
        let bw = backward(fwd, false);
        let bw_frozen = backward(fwd, true);
        assert_eq!(bw.flops, 2.0 * fwd.flops);
        assert_eq!(bw_frozen.flops, fwd.flops);
    }

    #[test]
    fn output_head_dominated_by_vocab_gemm() {
        let c = cfg();
        let head = output_head_fwd(&c, 8192);
        let expected_gemm = 2.0 * 8192.0 * c.vocab_size as f64 * c.hidden_dim as f64;
        assert!(head.flops >= expected_gemm);
        assert!(head.flops < expected_gemm * 1.1);
    }

    #[test]
    fn layer_flops_per_token_roughly_six_times_layer_params_over_three() {
        // One layer fwd ≈ 2 × layer_params flops per token (+ attention).
        let c = cfg();
        let fwd = layer_fwd_with_mask(&c, 8192, &MaskSpec::Causal);
        let per_token = fwd.flops / 8192.0;
        let two_p = 2.0 * c.layer_params() as f64;
        assert!(per_token > two_p);
        assert!(per_token < two_p * 1.5);
    }

    #[test]
    fn embedding_is_memory_only() {
        let e = embedding_fwd(&cfg(), 1000);
        assert_eq!(e.flops, 0.0);
        assert!(e.bytes > 0.0);
    }

    #[test]
    fn attention_projection_flops() {
        let c = cfg();
        let p = attention_projections_fwd(&c, 100);
        let expect = 2.0
            * 100.0
            * ((c.q_dim() + 2 * c.kv_dim()) as f64 * c.hidden_dim as f64
                + c.q_dim() as f64 * c.hidden_dim as f64);
        assert!((p.flops - expect).abs() / expect < 1e-12);
    }
}
