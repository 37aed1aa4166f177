//! Transformer model configurations.
//!
//! Describes the dense Llama 3 architecture family: pre-norm
//! transformer blocks with grouped-query attention (GQA), SwiGLU feed
//! forward networks, untied input embedding and output head. The
//! scaled-down variants used in the paper's §7.1 pipeline experiments
//! (same dimensions as 405B, fewer layers) are provided too.

/// Dimensions of a dense GQA transformer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransformerConfig {
    /// Human-readable name.
    pub name: String,
    /// Model (hidden) dimension.
    pub hidden_dim: u64,
    /// Number of query heads.
    pub num_heads: u64,
    /// Number of key/value heads (GQA: `num_kv_heads < num_heads`).
    pub num_kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// SwiGLU intermediate dimension.
    pub ffn_dim: u64,
    /// Vocabulary size (128 K for Llama 3, §7.1.2).
    pub vocab_size: u64,
    /// Number of transformer layers.
    pub num_layers: u64,
}

impl TransformerConfig {
    /// Llama 3 405B: 126 layers (reduced from 128 for pipeline balance,
    /// §3.1.2), hidden 16384, 128 query heads, 8 KV heads.
    pub fn llama3_405b() -> TransformerConfig {
        TransformerConfig {
            name: "llama3-405b".to_string(),
            hidden_dim: 16384,
            num_heads: 128,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_dim: 53248,
            vocab_size: 128_256,
            num_layers: 126,
        }
    }

    /// Llama 3 70B.
    pub fn llama3_70b() -> TransformerConfig {
        TransformerConfig {
            name: "llama3-70b".to_string(),
            hidden_dim: 8192,
            num_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_dim: 28672,
            vocab_size: 128_256,
            num_layers: 80,
        }
    }

    /// Llama 3 8B.
    pub fn llama3_8b() -> TransformerConfig {
        TransformerConfig {
            name: "llama3-8b".to_string(),
            hidden_dim: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            ffn_dim: 14336,
            vocab_size: 128_256,
            num_layers: 32,
        }
    }

    /// The §7.1 scaled-down 405B: identical dimensions, `layers` layers
    /// (26 balanced / 28 unbalanced in the paper's experiments).
    pub fn llama3_405b_scaled(layers: u64) -> TransformerConfig {
        let mut cfg = TransformerConfig::llama3_405b();
        cfg.name = format!("llama3-405b-{layers}L");
        cfg.num_layers = layers;
        cfg
    }

    /// Returns a copy with a different layer count (model co-design
    /// experiments, §3.1.2).
    pub fn with_layers(mut self, layers: u64) -> TransformerConfig {
        self.num_layers = layers;
        self
    }

    /// KV projection width (`num_kv_heads × head_dim`).
    pub fn kv_dim(&self) -> u64 {
        self.num_kv_heads * self.head_dim
    }

    /// Query projection width (`num_heads × head_dim`).
    pub fn q_dim(&self) -> u64 {
        self.num_heads * self.head_dim
    }

    /// GQA group size: query heads per KV head.
    ///
    /// # Panics
    /// Panics if `num_kv_heads` does not divide `num_heads`.
    pub fn gqa_group(&self) -> u64 {
        assert!(
            self.num_kv_heads > 0 && self.num_heads.is_multiple_of(self.num_kv_heads),
            "kv heads must divide query heads"
        );
        self.num_heads / self.num_kv_heads
    }

    /// Parameter count of one transformer layer's attention block
    /// (Q, K, V, O projections; norms excluded).
    pub fn attention_params(&self) -> u64 {
        let h = self.hidden_dim;
        // Q: h×q_dim, O: q_dim×h, K and V: h×kv_dim each.
        2 * h * self.q_dim() + 2 * h * self.kv_dim()
    }

    /// Parameter count of one SwiGLU FFN (gate, up, down projections).
    pub fn ffn_params(&self) -> u64 {
        3 * self.hidden_dim * self.ffn_dim
    }

    /// Parameter count of one full transformer layer (attention + FFN +
    /// two RMSNorm weights).
    pub fn layer_params(&self) -> u64 {
        self.attention_params() + self.ffn_params() + 2 * self.hidden_dim
    }

    /// Input-embedding parameter count.
    pub fn embedding_params(&self) -> u64 {
        self.vocab_size * self.hidden_dim
    }

    /// Output-head parameter count (untied from the embedding, plus the
    /// final norm).
    pub fn output_head_params(&self) -> u64 {
        self.vocab_size * self.hidden_dim + self.hidden_dim
    }

    /// Total parameter count.
    pub fn total_params(&self) -> u64 {
        self.num_layers * self.layer_params() + self.embedding_params() + self.output_head_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_405b_parameter_count() {
        let cfg = TransformerConfig::llama3_405b();
        let total = cfg.total_params();
        // ~405B within a few percent (126-layer production configuration).
        assert!(
            (395e9..415e9).contains(&(total as f64)),
            "got {:.1}B",
            total as f64 / 1e9
        );
    }

    #[test]
    fn llama3_70b_parameter_count() {
        let total = TransformerConfig::llama3_70b().total_params();
        assert!(
            (68e9..73e9).contains(&(total as f64)),
            "got {:.1}B",
            total as f64 / 1e9
        );
    }

    #[test]
    fn llama3_8b_parameter_count() {
        let total = TransformerConfig::llama3_8b().total_params();
        assert!(
            (7.5e9..8.5e9).contains(&(total as f64)),
            "got {:.2}B",
            total as f64 / 1e9
        );
    }

    #[test]
    fn gqa_group_size() {
        assert_eq!(TransformerConfig::llama3_405b().gqa_group(), 16);
        assert_eq!(TransformerConfig::llama3_8b().gqa_group(), 4);
    }

    #[test]
    fn kv_smaller_than_q_under_gqa() {
        let cfg = TransformerConfig::llama3_405b();
        assert!(cfg.kv_dim() < cfg.q_dim());
        assert_eq!(cfg.q_dim(), cfg.hidden_dim);
    }

    #[test]
    fn scaled_model_keeps_dimensions() {
        let full = TransformerConfig::llama3_405b();
        let scaled = TransformerConfig::llama3_405b_scaled(26);
        assert_eq!(scaled.num_layers, 26);
        assert_eq!(scaled.hidden_dim, full.hidden_dim);
        assert_eq!(scaled.layer_params(), full.layer_params());
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_gqa_panics() {
        let mut cfg = TransformerConfig::llama3_8b();
        cfg.num_kv_heads = 5;
        cfg.gqa_group();
    }
}
