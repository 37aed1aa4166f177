//! Multimodal pipeline parallelism — the §3.2 case study.
//!
//! Llama 3's multimodal model couples a trainable ViT image encoder to
//! the frozen text model through trainable cross-attention layers. Two
//! scaling problems arise: where to *shard the encoder* (three options,
//! Fig 6) and how to *wrap heterogeneous layers into virtual stages*
//! (§3.2.2). This module prices all of it on the simulator so the
//! production story — Option 2's encoder growing to 33 % of step
//! latency after the 448² → 672² resolution bump, recovered to ~8 % by
//! Option 3 — can be regenerated.

use crate::mesh::Mesh4D;
use crate::pp::balance::{BalancePolicy, StageAssignment};
use crate::pp::schedule::ScheduleKind;
use crate::pp::sim::{PpProgram, PpTiming};
use crate::step::StepModel;
use cluster_model::gpu::Dtype;
use cluster_model::topology::{Cluster, GlobalRank};
use collectives::CommCostModel;
use llm_model::masks::MaskSpec;
use llm_model::multimodal::VitConfig;
use llm_model::{ModelLayout, TransformerConfig};
use sim_engine::time::SimDuration;

/// How the image encoder is sharded relative to the text pipeline
/// (Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncoderSharding {
    /// Option 1: the encoder runs on the first PP rank inside the text
    /// pipeline, per micro-batch; outputs ride the P2P chain.
    WithFirstStage,
    /// Option 2: the encoder pre-processes the whole batch on the
    /// first PP rank, broadcasts image tokens, then the text pipeline
    /// runs; encoder backward follows after an all-reduce.
    PreprocessOnFirstRank,
    /// Option 3: the encoder is replicated on every PP rank, each
    /// processing `bs/pp` of the images in parallel; outputs are
    /// all-gathered before the text pipeline.
    ReplicatedAcrossRanks,
}

/// Multimodal training-step description.
#[derive(Debug, Clone)]
pub struct MultimodalStep {
    /// Hardware.
    pub cluster: Cluster,
    /// Mesh for the text model (the encoder uses 2D FSDP+TP, §2.2).
    pub mesh: Mesh4D,
    /// The (frozen) text model.
    pub text: TransformerConfig,
    /// The image encoder.
    pub vit: VitConfig,
    /// Self-attention layers per cross-attention layer (4:1 in
    /// production, §3.2.2).
    pub self_per_cross: u64,
    /// Text tokens per sequence (< 200 in pre-training).
    pub text_tokens: u64,
    /// Images per sequence.
    pub images_per_seq: u64,
    /// Sequences per DP group per step.
    pub bs: u32,
    /// Encoder sharding choice.
    pub sharding: EncoderSharding,
}

/// Multimodal step report.
#[derive(Debug, Clone, PartialEq)]
pub struct MultimodalReport {
    /// End-to-end step time.
    pub step_time: SimDuration,
    /// Wall-clock share of the step attributable to the image encoder
    /// (compute + its broadcast/all-gather), on the critical path.
    pub encoder_share: f64,
    /// Model TFLOPs per GPU.
    pub tflops_per_gpu: f64,
}

impl MultimodalStep {
    fn image_tokens(&self) -> u64 {
        self.vit.tokens_per_image() * self.images_per_seq
    }

    /// The text-model step (cross-attention layers included, encoder
    /// excluded).
    fn text_step(&self) -> StepModel {
        let layout = ModelLayout::multimodal_text(
            self.text.clone(),
            self.self_per_cross,
            self.image_tokens(),
        );
        // §3.2.2 Option 1 wrapping: group n self + 1 cross per virtual
        // stage — one group per stage keeps stages balanced.
        let groups = layout
            .layers
            .len()
            .saturating_sub(2)
            .div_ceil(self.self_per_cross as usize + 1) as u32;
        let v = groups.div_ceil(self.mesh.pp()).max(1);
        let assignment = StageAssignment::build(&layout, self.mesh.pp(), v, BalancePolicy::Uniform);
        StepModel {
            cluster: self.cluster.clone(),
            mesh: self.mesh,
            layout,
            assignment,
            schedule: ScheduleKind::AllFwdAllBwd,
            zero: crate::fsdp::ZeroMode::Zero2,
            bs: self.bs,
            seq: self.text_tokens,
            mask: MaskSpec::Causal,
            recompute: false,
        }
    }

    /// Encoder forward time for `images` images on one rank (encoder
    /// is TP-sharded within the node like the text model).
    fn encoder_fwd(&self, images: u64) -> SimDuration {
        if images == 0 {
            return SimDuration::ZERO;
        }
        let cost = self.vit.encode_fwd(images);
        let sharded = cluster_model::gpu::KernelCost {
            flops: cost.flops / self.mesh.tp() as f64,
            bytes: cost.bytes / self.mesh.tp() as f64,
            launches: cost.launches,
        };
        self.cluster.gpu.gemm_time(sharded, Dtype::Bf16)
    }

    /// Bytes of the encoder output for `images` images (BF16 image
    /// tokens in the encoder's hidden width).
    fn encoder_output_bytes(&self, images: u64) -> u64 {
        images * self.vit.tokens_per_image() * self.vit.hidden_dim * 2
    }

    /// Simulates the step under the configured sharding.
    pub fn simulate(&self) -> MultimodalReport {
        let step = self.text_step();
        let mut costs = step.stage_costs();
        let sched = step.build_schedule();
        let comm = CommCostModel::new(self.cluster.topology.clone());
        let pp_group = self.mesh.group_of(GlobalRank(0), crate::mesh::Dim::Pp);
        let nmb = self.bs as u64;
        let images_total = nmb * self.images_per_seq;

        let mut pre = SimDuration::ZERO;
        let mut post = SimDuration::ZERO;
        let encoder_critical;

        match self.sharding {
            EncoderSharding::WithFirstStage => {
                // Per micro-batch, the first stage runs the encoder
                // inline (forward and backward).
                let ef = self.encoder_fwd(self.images_per_seq);
                let eb = ef * 2;
                costs.fwd[0] += ef;
                costs.bwd[0] += eb;
                // Everything the first stage does for the encoder is on
                // the pipeline critical path for warm-up micro-batches;
                // count the serial share conservatively as the per-mb
                // cost times micro-batches (stage 0 is the bottleneck
                // rank in this option).
                encoder_critical = (ef + eb) * nmb;
            }
            EncoderSharding::PreprocessOnFirstRank => {
                // Whole-batch encode on rank 0, broadcast tokens, text
                // pipeline, all-reduce image-token grads, encoder
                // backward.
                let ef = self.encoder_fwd(images_total);
                let eb = ef * 2;
                let bytes = self.encoder_output_bytes(images_total);
                let bcast = comm.broadcast(&pp_group, bytes);
                let ar = comm.all_reduce(&pp_group, bytes);
                pre = ef + bcast;
                post = ar + eb;
                encoder_critical = pre + post;
            }
            EncoderSharding::ReplicatedAcrossRanks => {
                // Each PP rank encodes bs/pp of the images in parallel;
                // outputs all-gathered.
                let per_rank = images_total.div_ceil(self.mesh.pp() as u64);
                let ef = self.encoder_fwd(per_rank);
                let eb = ef * 2;
                let ag = comm.all_gather(&pp_group, self.encoder_output_bytes(per_rank));
                pre = ef + ag;
                post = eb;
                encoder_critical = pre + post;
            }
        }

        let mut sim = PpTiming::default();
        // lint: allow(unwrap) — the schedule was built by PpSchedule::build above
        let program = PpProgram::compile(&sched).expect("valid schedule");
        program.run(&costs, &[], &mut sim);
        let step_time = pre + sim.makespan[0] + post;

        // FLOPs: text model (frozen-aware, via the step model) plus
        // encoder forward+backward on every image of every DP replica.
        let text_flops = step.model_flops_per_step();
        let enc_flops = self
            .vit
            .encode_fwd(images_total * self.mesh.dp() as u64)
            .flops
            * 3.0;
        let tflops_per_gpu = (text_flops + enc_flops)
            / step_time.as_secs_f64().max(1e-12)
            / self.cluster.num_gpus() as f64
            / 1e12;

        MultimodalReport {
            step_time,
            encoder_share: encoder_critical.as_secs_f64() / step_time.as_secs_f64().max(1e-12),
            tflops_per_gpu,
        }
    }
}

/// How heterogeneous text-model layers wrap into PP virtual stages
/// (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageWrapping {
    /// Option 1: `n` self-attention layers + 1 cross-attention layer
    /// per virtual stage — balanced stages, fewer of them (larger
    /// bubble ratio). The production choice.
    GroupedSelfPlusCross,
    /// Option 2: homogeneous stages (either self-attention layers or
    /// one cross-attention layer) — more virtual stages (smaller
    /// bubble) but imbalanced stage times.
    Homogeneous,
}

/// Per-virtual-stage forward times under a wrapping choice, plus the
/// resulting stage count — the §3.2.2 trade-off in numbers.
///
/// # Panics
/// Panics if `step.self_per_cross` is zero.
pub fn wrapping_stage_profile(
    step: &MultimodalStep,
    wrapping: StageWrapping,
) -> (usize, Vec<SimDuration>) {
    let cfg = &step.text;
    let gpu = &step.cluster.gpu;
    let tp = step.mesh.tp() as f64;
    let tokens = step.text_tokens;
    let image_tokens = step.image_tokens();
    let self_fwd = {
        let pairs = MaskSpec::Causal.attended_pairs(tokens);
        let cost = llm_model::flops::self_attention_layer_fwd(cfg, tokens, tokens, pairs);
        gpu.gemm_time(
            cluster_model::gpu::KernelCost {
                flops: cost.flops / tp,
                bytes: cost.bytes / tp,
                launches: cost.launches,
            },
            Dtype::Bf16,
        )
    };
    let cross_fwd = {
        let cost = llm_model::CrossAttentionSpec { image_tokens }.layer_fwd(cfg, tokens);
        gpu.gemm_time(
            cluster_model::gpu::KernelCost {
                flops: cost.flops / tp,
                bytes: cost.bytes / tp,
                launches: cost.launches,
            },
            Dtype::Bf16,
        )
    };
    let n = step.self_per_cross as usize;
    let groups = (cfg.num_layers as usize).div_ceil(n);
    match wrapping {
        StageWrapping::GroupedSelfPlusCross => {
            // One (n self + 1 cross) group per stage.
            (groups, vec![self_fwd * n as u64 + cross_fwd; groups])
        }
        StageWrapping::Homogeneous => {
            // Alternating [n-self] and [cross] stages: twice the stage
            // count, alternating heavy/light times.
            let mut times = Vec::with_capacity(groups * 2);
            for _ in 0..groups {
                times.push(self_fwd * n as u64);
                times.push(cross_fwd);
            }
            (groups * 2, times)
        }
    }
}

/// Summary of a wrapping option: stage count, bubble-ratio estimate,
/// and stage-time imbalance (max/mean).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrappingReport {
    /// Virtual stages produced.
    pub stages: usize,
    /// Analytic bubble ratio `(pp − 1)/nmb/v`.
    pub bubble_ratio: f64,
    /// Stage-time imbalance: slowest stage over mean stage time (the
    /// pipeline runs at the pace of its slowest stage).
    pub imbalance: f64,
}

/// Evaluates a §3.2.2 wrapping option for `step`.
pub fn evaluate_wrapping(step: &MultimodalStep, wrapping: StageWrapping) -> WrappingReport {
    let (stages, times) = wrapping_stage_profile(step, wrapping);
    let v = (stages as u32).div_ceil(step.mesh.pp()).max(1);
    let bubble = (step.mesh.pp() as f64 - 1.0) / step.bs as f64 / v as f64;
    let mean = times.iter().map(|t| t.as_secs_f64()).sum::<f64>() / times.len().max(1) as f64;
    let max = times.iter().map(|t| t.as_secs_f64()).fold(0.0, f64::max);
    WrappingReport {
        stages,
        bubble_ratio: bubble,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
    }
}

/// The production multimodal configuration scaffold: frozen 70B-class
/// text model, 4:1 self:cross ratio, ~200 text tokens per sequence.
pub fn production_multimodal(vit: VitConfig, sharding: EncoderSharding) -> MultimodalStep {
    let mesh = Mesh4D::new(8, 1, 8, 4);
    MultimodalStep {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        text: TransformerConfig::llama3_70b(),
        vit,
        self_per_cross: 4,
        text_tokens: 192,
        images_per_seq: 1,
        bs: 16,
        sharding,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_growth_inflates_option2_share() {
        // §3.2.1: after the 448² → 672² + deeper-encoder change, the
        // Option 2 encoder consumed up to 33 % of step latency.
        let small =
            production_multimodal(VitConfig::vit_448(), EncoderSharding::PreprocessOnFirstRank)
                .simulate();
        let big = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::PreprocessOnFirstRank,
        )
        .simulate();
        assert!(big.encoder_share > small.encoder_share * 1.8);
        assert!(
            big.encoder_share > 0.20 && big.encoder_share < 0.55,
            "expected ≈ 33 %, got {:.1} %",
            big.encoder_share * 100.0
        );
    }

    #[test]
    fn option3_recovers_throughput() {
        // §3.2.1: replicating the encoder across PP ranks cut the
        // encoder share from 33 % to ~8 % and recovered TFLOPs.
        let opt2 = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::PreprocessOnFirstRank,
        )
        .simulate();
        let opt3 = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::ReplicatedAcrossRanks,
        )
        .simulate();
        assert!(
            opt3.encoder_share < 0.15,
            "option 3 share {:.1} %",
            opt3.encoder_share * 100.0
        );
        assert!(opt3.encoder_share < opt2.encoder_share / 2.5);
        assert!(opt3.tflops_per_gpu > opt2.tflops_per_gpu);
        assert!(opt3.step_time < opt2.step_time);
    }

    #[test]
    fn option1_overloads_the_first_rank() {
        // Option 1 piles the encoder onto stage 0, creating pipeline
        // imbalance: slower than option 3.
        let opt1 =
            production_multimodal(VitConfig::vit_672_deep(), EncoderSharding::WithFirstStage)
                .simulate();
        let opt3 = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::ReplicatedAcrossRanks,
        )
        .simulate();
        assert!(opt1.step_time > opt3.step_time);
    }

    #[test]
    fn frozen_text_layers_cut_text_flops() {
        // Frozen self-attention computes input grads only — the §3.2.2
        // imbalance driver.
        let step =
            production_multimodal(VitConfig::vit_448(), EncoderSharding::ReplicatedAcrossRanks);
        let frozen_layout = ModelLayout::multimodal_text(step.text.clone(), 4, step.image_tokens());
        let live_layout = ModelLayout::text(step.text.clone());
        let (sa_frozen, ca) = frozen_layout.attention_layer_counts();
        assert_eq!(sa_frozen, 80);
        assert_eq!(ca, 20);
        let (sa_live, _) = live_layout.attention_layer_counts();
        assert_eq!(sa_live, 80);
    }

    #[test]
    fn wrapping_tradeoff_matches_section_3_2_2() {
        // Option 1 (grouped): fewer stages, larger bubble, balanced.
        // Option 2 (homogeneous): more stages, smaller bubble,
        // imbalanced.
        let step = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::ReplicatedAcrossRanks,
        );
        let grouped = evaluate_wrapping(&step, StageWrapping::GroupedSelfPlusCross);
        let homo = evaluate_wrapping(&step, StageWrapping::Homogeneous);
        assert!(homo.stages > grouped.stages);
        assert!(homo.bubble_ratio <= grouped.bubble_ratio);
        assert!(
            homo.imbalance > grouped.imbalance * 1.2,
            "homogeneous {} vs grouped {}",
            homo.imbalance,
            grouped.imbalance
        );
        // Grouped stages are near-perfectly balanced.
        assert!(grouped.imbalance < 1.01);
    }

    #[test]
    fn one_cross_layer_outweighs_one_self_layer() {
        // §3.2.2: a cross-attention layer costs more forward FLOPs
        // than a self-attention layer (image KV projections over 2.3K
        // tokens plus 192×2304 attended pairs vs 192 causal tokens) —
        // the heterogeneity that makes homogeneous wrapping imbalanced.
        let step = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::ReplicatedAcrossRanks,
        );
        let (_, times) = wrapping_stage_profile(&step, StageWrapping::Homogeneous);
        let per_self_layer = times[0] / step.self_per_cross;
        // At 192 text tokens both layers are weight-read bound on the
        // roofline, compressing the gap; the cross layer is still
        // strictly more expensive.
        assert!(
            times[1] > per_self_layer,
            "cross {} vs self {}",
            times[1],
            per_self_layer
        );
    }

    #[test]
    fn reports_are_consistent() {
        let r = production_multimodal(VitConfig::vit_448(), EncoderSharding::ReplicatedAcrossRanks)
            .simulate();
        assert!(r.step_time > SimDuration::ZERO);
        assert!(r.tflops_per_gpu > 0.0);
        assert!((0.0..=1.0).contains(&r.encoder_share));
    }
}
