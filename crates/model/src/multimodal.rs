//! Multimodal (vision) model components.
//!
//! Mirrors the §3.2 architecture: a ViT image encoder whose output
//! tokens feed cross-attention blocks interleaved among the (frozen)
//! text-model self-attention layers. During multimodal pre-training the
//! encoder and cross-attention layers train while self-attention layers
//! stay frozen.

use crate::config::TransformerConfig;
use crate::flops;
use cluster_model::gpu::{Dtype, KernelCost};

/// ViT image-encoder configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VitConfig {
    /// Human-readable name.
    pub name: String,
    /// Input image resolution (square), pixels.
    pub image_size: u64,
    /// Patch size, pixels.
    pub patch_size: u64,
    /// Encoder hidden dimension.
    pub hidden_dim: u64,
    /// Number of attention heads.
    pub num_heads: u64,
    /// MLP intermediate dimension.
    pub ffn_dim: u64,
    /// Number of encoder layers.
    pub num_layers: u64,
}

impl VitConfig {
    /// The initial encoder: 448×448 input (≈ 1 K image tokens, §3.2.2).
    pub fn vit_448() -> VitConfig {
        VitConfig {
            name: "vit-h14-448".to_string(),
            image_size: 448,
            patch_size: 14,
            hidden_dim: 1280,
            num_heads: 16,
            ffn_dim: 5120,
            num_layers: 32,
        }
    }

    /// The upgraded encoder that triggered the Option 2 → Option 3
    /// resharding (§3.2.1): 672×672 input (≈ 3 K image tokens †) and a
    /// deeper stack.
    ///
    /// † (672/14)² = 2304 patch tokens; the paper quotes "3 K" including
    /// auxiliary tokens — we use the patch count plus a register pad.
    pub fn vit_672_deep() -> VitConfig {
        VitConfig {
            name: "vit-h14-672-deep".to_string(),
            image_size: 672,
            patch_size: 14,
            hidden_dim: 1280,
            num_heads: 16,
            ffn_dim: 5120,
            num_layers: 48,
        }
    }

    /// Image tokens produced per image.
    pub fn tokens_per_image(&self) -> u64 {
        let side = self.image_size / self.patch_size;
        side * side
    }

    /// Parameters of one encoder layer (full attention + MLP).
    pub fn layer_params(&self) -> u64 {
        let h = self.hidden_dim;
        4 * h * h + 2 * h * self.ffn_dim + 2 * h
    }

    /// Total encoder parameters (patch embed + layers).
    pub fn total_params(&self) -> u64 {
        let patch_embed = 3 * self.patch_size * self.patch_size * self.hidden_dim;
        patch_embed + self.num_layers * self.layer_params()
    }

    /// Forward cost of encoding `images` images (full bidirectional
    /// attention over the patch tokens of each image).
    pub fn encode_fwd(&self, images: u64) -> KernelCost {
        let t = self.tokens_per_image();
        let tokens = images * t;
        let h = self.hidden_dim;
        // Per layer: QKVO projections + full attention + MLP.
        let proj = KernelCost::gemm(tokens, 4 * h, h, Dtype::Bf16);
        let pairs = images as u128 * (t as u128 * t as u128);
        let attn = KernelCost {
            flops: flops::FLOPS_PER_PAIR_PER_HEADDIM
                * (h / self.num_heads) as f64
                * self.num_heads as f64
                * pairs as f64,
            bytes: 2.0 * 4.0 * tokens as f64 * h as f64,
            launches: 1,
        };
        let mlp = KernelCost::gemm(tokens, self.ffn_dim, h, Dtype::Bf16).merge(KernelCost::gemm(
            tokens,
            h,
            self.ffn_dim,
            Dtype::Bf16,
        ));
        let per_layer = proj.merge(attn).merge(mlp);
        let mut total = KernelCost::ZERO;
        for _ in 0..self.num_layers {
            total = total.merge(per_layer);
        }
        total
    }
}

/// Cross-attention block: queries from the text stream, keys/values
/// from the image-encoder output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CrossAttentionSpec {
    /// Image (KV) tokens visible to each text token.
    pub image_tokens: u64,
}

impl CrossAttentionSpec {
    /// Forward cost of one cross-attention layer over `text_tokens`
    /// query tokens, with the text model's dimensions.
    ///
    /// Every text token attends all `image_tokens` keys, so the pair
    /// count is `text_tokens × image_tokens` — this is why
    /// cross-attention forward FLOPs dwarf self-attention's when the
    /// image sequence (1.2 K–3 K) is much longer than the text sequence
    /// (< 200 tokens), §3.2.2.
    pub fn layer_fwd(&self, cfg: &TransformerConfig, text_tokens: u64) -> KernelCost {
        let pairs = text_tokens as u128 * self.image_tokens as u128;
        // Q from text, K/V projected from image tokens, plus FFN on text.
        let h = cfg.hidden_dim;
        let q_proj = KernelCost::gemm(text_tokens, cfg.q_dim() + h, h, Dtype::Bf16);
        let kv_proj = KernelCost::gemm(self.image_tokens, 2 * cfg.kv_dim(), h, Dtype::Bf16);
        let attn = flops::attention_kernel_fwd(cfg, text_tokens, self.image_tokens, pairs);
        let ffn = flops::ffn_fwd(cfg, text_tokens);
        q_proj.merge(kv_proj).merge(attn).merge(ffn)
    }

    /// Parameters of one cross-attention layer (Q/O on text width, K/V
    /// from image features, plus FFN and norms/gates).
    pub fn layer_params(&self, cfg: &TransformerConfig) -> u64 {
        cfg.layer_params() // same projective structure as a text layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_counts_match_paper() {
        // §3.2.2: ~1.2K tokens at 448², ~3K at 672².
        assert_eq!(VitConfig::vit_448().tokens_per_image(), 1024);
        assert_eq!(VitConfig::vit_672_deep().tokens_per_image(), 2304);
    }

    #[test]
    fn deeper_encoder_costs_more() {
        let small = VitConfig::vit_448().encode_fwd(8);
        let big = VitConfig::vit_672_deep().encode_fwd(8);
        // ~2.25× tokens and 1.5× layers, plus superlinear attention: > 3×.
        assert!(
            big.flops > small.flops * 3.0,
            "{} vs {}",
            big.flops,
            small.flops
        );
    }

    #[test]
    fn cross_attention_dwarfs_self_attention_on_short_text() {
        // §3.2.2 challenge 2: text < 200 tokens, image KV 1.2K–3K.
        let cfg = TransformerConfig::llama3_70b();
        let text_tokens = 200;
        let cross = CrossAttentionSpec { image_tokens: 2304 };
        let cross_cost = cross.layer_fwd(&cfg, text_tokens);
        let self_pairs = crate::masks::MaskSpec::Causal.attended_pairs(text_tokens);
        let self_cost = flops::self_attention_layer_fwd(&cfg, text_tokens, text_tokens, self_pairs);
        assert!(cross_cost.flops > self_cost.flops);
    }

    #[test]
    fn vit_params_plausible() {
        // ViT-H/14-class encoder: several hundred M params.
        let p = VitConfig::vit_448().total_params();
        assert!((400e6..900e6).contains(&(p as f64)), "{p}");
    }

    #[test]
    fn encoder_cost_linear_in_images() {
        let v = VitConfig::vit_448();
        let one = v.encode_fwd(1);
        let four = v.encode_fwd(4);
        assert!((four.flops / one.flops - 4.0).abs() < 1e-9);
    }
}
