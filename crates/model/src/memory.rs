//! Memory accounting: parameters, gradients, optimizer state and
//! activations.
//!
//! Sizes are for *unsharded* quantities; the parallelism layer divides
//! them across FSDP shards, TP ranks and pipeline stages. The numbers
//! follow the paper's precision policy (§6.2): BF16 parameters for
//! compute and communication, FP32 gradient accumulators, and FP32
//! Adam optimizer state.

use crate::config::TransformerConfig;

/// Bytes used per parameter by each training-state component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionPolicy {
    /// Bytes per parameter for the compute copy of weights (BF16 = 2).
    pub param_bytes: u64,
    /// Bytes per parameter for the gradient buffer. The paper uses
    /// FP32 accumulation for DP reduce-scatter and PP micro-batch
    /// accumulation (§6.2) — 4 bytes.
    pub grad_bytes: u64,
    /// Bytes per parameter of optimizer state: FP32 master weight +
    /// two FP32 Adam moments = 12.
    pub optim_bytes: u64,
}

impl PrecisionPolicy {
    /// The Llama 3 policy: BF16 params, FP32 grads, FP32 Adam state.
    pub fn llama3() -> PrecisionPolicy {
        PrecisionPolicy {
            param_bytes: 2,
            grad_bytes: 4,
            optim_bytes: 12,
        }
    }

    /// A fully-BF16 policy (used as the "before" point when
    /// demonstrating why FP32 accumulation is needed).
    pub fn all_bf16() -> PrecisionPolicy {
        PrecisionPolicy {
            param_bytes: 2,
            grad_bytes: 2,
            optim_bytes: 12,
        }
    }

    /// Total training-state bytes per parameter.
    pub fn state_bytes_per_param(&self) -> u64 {
        self.param_bytes + self.grad_bytes + self.optim_bytes
    }
}

/// Activation bytes saved for backward, per token, for one transformer
/// layer, unsharded (TP/SP divides this by the TP degree).
///
/// Counts the tensors a FlashAttention-based layer keeps: both norm
/// outputs, Q/K/V, the attention output, the three FFN intermediates
/// and the two block outputs, all in BF16. The attention score matrix
/// never materializes.
pub fn activation_bytes_per_token(cfg: &TransformerConfig) -> u64 {
    let h = cfg.hidden_dim;
    let elems =
        // ln1 out + ln2 out + residual streams saved at block outputs.
        4 * h
        // q, k, v
        + cfg.q_dim() + 2 * cfg.kv_dim()
        // attention output (pre-O-projection)
        + cfg.q_dim()
        // gate, up, silu·mul
        + 3 * cfg.ffn_dim;
    2 * elems
}

/// Activation bytes per token held by the input-embedding stage (its
/// BF16 output only).
pub fn embedding_activation_bytes_per_token(cfg: &TransformerConfig) -> u64 {
    2 * cfg.hidden_dim
}

/// Activation bytes per token held by the output head: the final-norm
/// input/output plus BF16 logits over the vocabulary — the §7.1.2
/// "128 K vocabulary ⇒ large output module on the last PP rank" term.
pub fn output_head_activation_bytes_per_token(cfg: &TransformerConfig) -> u64 {
    2 * (2 * cfg.hidden_dim + cfg.vocab_size)
}

/// Bytes of the boundary activation passed between pipeline stages,
/// per token (one BF16 hidden vector).
pub fn boundary_activation_bytes_per_token(cfg: &TransformerConfig) -> u64 {
    2 * cfg.hidden_dim
}

/// KV-cache bytes per resident token for **one** transformer layer:
/// one BF16 key plus one BF16 value vector at the (GQA-reduced) KV
/// width. This is the quantity paged by the inference engine — a KV
/// block of `B` tokens costs `B ×` this on every layer it spans.
pub fn kv_cache_bytes_per_token_per_layer(cfg: &TransformerConfig) -> u64 {
    2 * 2 * cfg.kv_dim()
}

/// KV-cache bytes per resident token across the whole (unsharded)
/// model — the §8.1-style capacity figure: resident sequences × mean
/// context × this must fit in what HBM the weights leave free.
pub fn kv_cache_bytes_per_token(cfg: &TransformerConfig) -> u64 {
    cfg.num_layers * kv_cache_bytes_per_token_per_layer(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_policy_totals_18_bytes() {
        let p = PrecisionPolicy::llama3();
        assert_eq!(p.state_bytes_per_param(), 18);
    }

    #[test]
    fn activation_magnitude_for_405b() {
        // ≈ 0.5 MB per token per layer unsharded for the 405B shape,
        // matching the back-of-envelope in the design doc.
        let b = activation_bytes_per_token(&TransformerConfig::llama3_405b());
        assert!((400_000..700_000).contains(&b), "got {b} bytes/token/layer");
    }

    #[test]
    fn head_activation_dominated_by_logits() {
        let cfg = TransformerConfig::llama3_405b();
        let head = output_head_activation_bytes_per_token(&cfg);
        assert!(head > 2 * cfg.vocab_size);
        // Head activations dwarf a regular layer's boundary tensor.
        assert!(head > 7 * boundary_activation_bytes_per_token(&cfg));
    }

    #[test]
    fn state_bytes_scale_with_model() {
        let cfg = TransformerConfig::llama3_405b();
        let p = PrecisionPolicy::llama3();
        let total = cfg.total_params() * p.state_bytes_per_param();
        // 405B × 18 B ≈ 7.3 TB of training state before sharding —
        // the §5.1 argument for why the model cannot fit without
        // 3D/4D parallelism.
        assert!(total > 7_000_000_000_000);
    }

    #[test]
    fn kv_cache_reflects_gqa_compression() {
        // 405B: 128 q-heads but only 8 KV heads, so the cache is 16×
        // smaller than an MHA cache would be.
        let cfg = TransformerConfig::llama3_405b();
        let per_layer = kv_cache_bytes_per_token_per_layer(&cfg);
        assert_eq!(per_layer, 4 * cfg.kv_dim());
        assert_eq!(per_layer * 16, 4 * cfg.q_dim());
        assert_eq!(kv_cache_bytes_per_token(&cfg), cfg.num_layers * per_layer);
    }

    #[test]
    fn bf16_policy_smaller_than_llama3_policy() {
        assert!(
            PrecisionPolicy::all_bf16().state_bytes_per_param()
                < PrecisionPolicy::llama3().state_bytes_per_param()
        );
    }
}
