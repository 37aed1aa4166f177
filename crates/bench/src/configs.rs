
//! Shared experiment configurations.

use cluster_model::topology::Cluster;
use llm_model::masks::MaskSpec;
use llm_model::{ModelLayout, TransformerConfig};
use parallelism_core::fsdp::ZeroMode;
use parallelism_core::mesh::Mesh4D;
use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
use parallelism_core::pp::schedule::ScheduleKind;
use parallelism_core::step::StepModel;
use workload::{DocLengthDist, DocumentSampler};

/// The §7.1 scaled-down 405B pipeline testbed: full 405B dimensions,
/// 28 layers (26 when balanced), pp = 4, one layer per virtual stage,
/// bs = 12, seq 8192 on 64 GPUs.
pub fn scaled_405b_step(
    schedule: ScheduleKind,
    balance: BalancePolicy,
    recompute: bool,
) -> StepModel {
    let cfg = TransformerConfig::llama3_405b_scaled(28);
    let layout = ModelLayout::text(cfg);
    let mesh = Mesh4D::new(8, 1, 4, 2);
    let assignment = StageAssignment::build(&layout, 4, 7, balance);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule,
        zero: ZeroMode::Zero1,
        bs: 12,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute,
    }
}

/// The production short-context step (Table 2 row 1): 405B, 16 K GPUs,
/// tp 8 / cp 1 / pp 16 / dp 128, bs 16, seq 8192.
pub fn production_short_context(bs: u32) -> StepModel {
    // The co-design starts from a 128-layer model and drops one layer
    // from the first and last rank, shipping 126 (§3.1.2).
    let cfg = TransformerConfig::llama3_405b().with_layers(128);
    let layout = ModelLayout::text(cfg);
    let mesh = Mesh4D::new(8, 1, 16, 128);
    let assignment = StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
    let schedule = if bs as u64 >= 2 * 16 {
        ScheduleKind::Flexible { nc: 16 }
    } else {
        ScheduleKind::AllFwdAllBwd
    };
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule,
        zero: parallelism_core::fsdp::recommended_zero_mode(bs as u64, 16),
        bs,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute: false,
    }
}

/// The production long-context step (Table 2 row 2): 405B, 16 K GPUs,
/// tp 8 / cp 16 / pp 16 / dp 8, bs 16, seq 131072, document-masked.
pub fn production_long_context(seed: u64) -> StepModel {
    let cfg = TransformerConfig::llama3_405b().with_layers(128);
    let layout = ModelLayout::text(cfg);
    let mesh = Mesh4D::new(8, 16, 16, 8);
    let assignment = StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
    // The long-context phase trains on *long* documents (that is its
    // purpose); the §7.2 microbenchmarks' mean-1K corpus does not apply
    // here. A heavy-tailed 4K-mean distribution produces sequences
    // where a single document spans a large part of the 131K window —
    // the "full long sequence without an eos_id" case of §4.
    let mut sampler = DocumentSampler::new(
        DocLengthDist::LogNormal {
            mean: 4096.0,
            sigma: 1.4,
        },
        seed,
    );
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: ScheduleKind::AllFwdAllBwd,
        zero: ZeroMode::Zero2,
        bs: 16,
        seq: 131_072,
        mask: sampler.pack_sequence(131_072),
        recompute: false,
    }
}

/// An 8 K-GPU 405B short-context step (tp 8 / cp 1 / pp 16 / dp 64,
/// bs 16, seq 8192) — the folded-vs-full fidelity comparison
/// configuration of the determinism tests and the `perfbench`
/// `train_step` workload.
pub fn production_8k_gpu_step(bs: u32) -> StepModel {
    let cfg = TransformerConfig::llama3_405b().with_layers(128);
    let layout = ModelLayout::text(cfg);
    let mesh = Mesh4D::new(8, 1, 16, 64);
    let assignment = StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
    let schedule = if bs as u64 >= 2 * 16 {
        ScheduleKind::Flexible { nc: 16 }
    } else {
        ScheduleKind::AllFwdAllBwd
    };
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule,
        zero: parallelism_core::fsdp::recommended_zero_mode(bs as u64, 16),
        bs,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute: false,
    }
}

/// A document mask with the §7.2 mean length of ~1 K tokens.
pub fn doc_mask(seq: u64, seed: u64) -> MaskSpec {
    let mut sampler = DocumentSampler::new(
        DocLengthDist::LogNormal {
            mean: 1024.0,
            sigma: 1.2,
        },
        seed,
    );
    sampler.pack_sequence(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallelism_core::step::SimOptions;

    #[test]
    fn configs_simulate() {
        let r = scaled_405b_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        )
        .run(&SimOptions::default()).expect("valid step config").report;
        assert!(r.tflops_per_gpu > 100.0);
    }

    #[test]
    fn production_configs_have_table2_meshes() {
        assert_eq!(
            production_short_context(16).mesh.to_string(),
            "tp8·cp1·pp16·dp128 (16384 GPUs)"
        );
        assert_eq!(
            production_long_context(1).mesh.to_string(),
            "tp8·cp16·pp16·dp8 (16384 GPUs)"
        );
    }
}
