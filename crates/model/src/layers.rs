//! Layer-level model layout.
//!
//! A [`ModelLayout`] is the ordered list of layers a network executes —
//! the unit the pipeline-parallel planner assigns to stages. Text
//! models are `[Embedding, SelfAttention × L, OutputHead]`; multimodal
//! models interleave cross-attention layers among frozen self-attention
//! layers (§3.2).

use crate::config::TransformerConfig;
use crate::flops;
use crate::masks::MaskSpec;
use crate::memory;
use crate::multimodal::CrossAttentionSpec;
use cluster_model::gpu::KernelCost;

/// One layer of a model, as seen by the pipeline planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Token embedding (first pipeline rank only).
    Embedding,
    /// A transformer self-attention layer. `frozen` marks layers that
    /// compute no weight gradients (§3.2 multimodal pre-training).
    SelfAttention {
        /// Whether the layer's weights are frozen.
        frozen: bool,
    },
    /// A cross-attention layer attending `image_tokens` image keys.
    CrossAttention {
        /// Image (KV) tokens visible per text token.
        image_tokens: u64,
    },
    /// Final norm + vocabulary projection + loss (last rank only).
    OutputHead,
}

impl LayerKind {
    /// `true` if the layer trains (computes weight gradients).
    pub fn trainable(self) -> bool {
        !matches!(self, LayerKind::SelfAttention { frozen: true })
    }

    /// Parameter count of this layer.
    pub fn params(self, cfg: &TransformerConfig) -> u64 {
        match self {
            LayerKind::Embedding => cfg.embedding_params(),
            LayerKind::SelfAttention { .. } => cfg.layer_params(),
            LayerKind::CrossAttention { image_tokens } => {
                CrossAttentionSpec { image_tokens }.layer_params(cfg)
            }
            LayerKind::OutputHead => cfg.output_head_params(),
        }
    }

    /// Forward cost for `tokens` query tokens of a sequence of length
    /// `seq` under `mask` (self-attention layers are mask-aware;
    /// other layers depend only on the token count).
    pub fn fwd_cost(
        self,
        cfg: &TransformerConfig,
        tokens: u64,
        seq: u64,
        mask: &MaskSpec,
    ) -> KernelCost {
        match self {
            LayerKind::Embedding => flops::embedding_fwd(cfg, tokens),
            LayerKind::SelfAttention { .. } => {
                // Price `tokens` worth of queries at the mask's mean
                // per-query density for a sequence of `seq`.
                let pairs = if tokens == seq {
                    mask.attended_pairs(seq)
                } else {
                    let scale = tokens as f64 / seq as f64;
                    (mask.attended_pairs(seq) as f64 * scale) as u128
                };
                flops::self_attention_layer_fwd(cfg, tokens, seq, pairs)
            }
            LayerKind::CrossAttention { image_tokens } => {
                CrossAttentionSpec { image_tokens }.layer_fwd(cfg, tokens)
            }
            LayerKind::OutputHead => flops::output_head_fwd(cfg, tokens),
        }
    }

    /// Backward cost corresponding to [`LayerKind::fwd_cost`].
    pub fn bwd_cost(
        self,
        cfg: &TransformerConfig,
        tokens: u64,
        seq: u64,
        mask: &MaskSpec,
    ) -> KernelCost {
        flops::backward(self.fwd_cost(cfg, tokens, seq, mask), !self.trainable())
    }

    /// Activation bytes per token this layer pins for its backward.
    pub fn activation_bytes_per_token(self, cfg: &TransformerConfig) -> u64 {
        match self {
            LayerKind::Embedding => memory::embedding_activation_bytes_per_token(cfg),
            LayerKind::SelfAttention { .. } | LayerKind::CrossAttention { .. } => {
                memory::activation_bytes_per_token(cfg)
            }
            LayerKind::OutputHead => memory::output_head_activation_bytes_per_token(cfg),
        }
    }
}

/// An ordered full-model layer list plus its base transformer config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelLayout {
    /// Base transformer dimensions.
    pub cfg: TransformerConfig,
    /// Layers in execution order.
    pub layers: Vec<LayerKind>,
}

impl ModelLayout {
    /// Standard text model: embedding, `cfg.num_layers` self-attention
    /// layers, output head.
    pub fn text(cfg: TransformerConfig) -> ModelLayout {
        let mut layers = vec![LayerKind::Embedding];
        layers.extend(std::iter::repeat_n(
            LayerKind::SelfAttention { frozen: false },
            cfg.num_layers as usize,
        ));
        layers.push(LayerKind::OutputHead);
        ModelLayout { cfg, layers }
    }

    /// Multimodal text stack (§3.2): frozen self-attention layers with
    /// one trainable cross-attention layer inserted after every
    /// `self_per_cross` self-attention layers.
    ///
    /// # Panics
    /// Panics if `self_per_cross == 0`.
    pub fn multimodal_text(
        cfg: TransformerConfig,
        self_per_cross: u64,
        image_tokens: u64,
    ) -> ModelLayout {
        assert!(
            self_per_cross > 0,
            "need at least one self layer per cross layer"
        );
        let mut layers = vec![LayerKind::Embedding];
        for i in 0..cfg.num_layers {
            layers.push(LayerKind::SelfAttention { frozen: true });
            if (i + 1) % self_per_cross == 0 {
                layers.push(LayerKind::CrossAttention { image_tokens });
            }
        }
        layers.push(LayerKind::OutputHead);
        ModelLayout { cfg, layers }
    }

    /// Total parameters across the layout.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params(&self.cfg)).sum()
    }

    /// Number of layers of each interesting kind:
    /// `(self_attention, cross_attention)`.
    pub fn attention_layer_counts(&self) -> (usize, usize) {
        let sa = self
            .layers
            .iter()
            .filter(|l| matches!(l, LayerKind::SelfAttention { .. }))
            .count();
        let ca = self
            .layers
            .iter()
            .filter(|l| matches!(l, LayerKind::CrossAttention { .. }))
            .count();
        (sa, ca)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_layout_shape() {
        let m = ModelLayout::text(TransformerConfig::llama3_405b());
        assert_eq!(m.layers.len(), 128); // 1 + 126 + 1
        assert_eq!(m.layers[0], LayerKind::Embedding);
        assert_eq!(*m.layers.last().unwrap(), LayerKind::OutputHead);
        assert_eq!(m.total_params(), m.cfg.total_params());
    }

    #[test]
    fn multimodal_ratio_4_to_1() {
        // §3.2.2: 4 self-attention layers per cross-attention layer.
        let m = ModelLayout::multimodal_text(TransformerConfig::llama3_70b(), 4, 2304);
        let (sa, ca) = m.attention_layer_counts();
        assert_eq!(sa, 80);
        assert_eq!(ca, 20);
        // Frozen self-attention, trainable cross-attention.
        assert!(m
            .layers
            .iter()
            .filter(|l| matches!(l, LayerKind::SelfAttention { .. }))
            .all(|l| !l.trainable()));
        assert!(m
            .layers
            .iter()
            .filter(|l| matches!(l, LayerKind::CrossAttention { .. }))
            .all(|l| l.trainable()));
    }

    #[test]
    fn frozen_layer_backward_is_cheaper() {
        let cfg = TransformerConfig::llama3_70b();
        let mask = MaskSpec::Causal;
        let frozen = LayerKind::SelfAttention { frozen: true }.bwd_cost(&cfg, 200, 200, &mask);
        let live = LayerKind::SelfAttention { frozen: false }.bwd_cost(&cfg, 200, 200, &mask);
        assert!((live.flops / frozen.flops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn head_activation_heavier_than_embedding_and_boundary() {
        let cfg = TransformerConfig::llama3_405b();
        let head = LayerKind::OutputHead.activation_bytes_per_token(&cfg);
        assert!(head > LayerKind::Embedding.activation_bytes_per_token(&cfg) * 7);
        assert!(head > memory::boundary_activation_bytes_per_token(&cfg) * 7);
    }

    #[test]
    fn fwd_cost_scales_with_mask() {
        let cfg = TransformerConfig::llama3_8b();
        let causal = LayerKind::SelfAttention { frozen: false }.fwd_cost(
            &cfg,
            8192,
            8192,
            &MaskSpec::Causal,
        );
        let doc = LayerKind::SelfAttention { frozen: false }.fwd_cost(
            &cfg,
            8192,
            8192,
            &MaskSpec::document(vec![1024; 8]),
        );
        assert!(causal.flops > doc.flops);
    }
}
