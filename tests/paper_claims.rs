//! Integration tests pinning the paper's headline claims across the
//! whole stack.

use llama3_parallelism::core::planner::{plan, PlannerInput};
use llama3_parallelism::core::pp::schedule::{PpSchedule, ScheduleKind};
use llama3_parallelism::model::{MaskSpec, TransformerConfig};
use llama3_parallelism::numerics::attention::{attention_direct, cp_allgather_attention};
use llama3_parallelism::numerics::tensor::Matrix;
use llama3_parallelism::trace::slowrank::locate_slow_rank;
use llama3_parallelism::trace::synth::{synth_trace, SynthSpec};

#[test]
fn table_2_is_reproduced_by_the_planner() {
    let short = plan(&PlannerInput::llama3_405b(16_384, 8_192)).expect("plannable");
    assert_eq!(
        (
            short.config.tp,
            short.config.cp,
            short.config.pp,
            short.config.dp
        ),
        (8, 1, 16, 128)
    );
    let long = plan(&PlannerInput::llama3_405b(16_384, 131_072)).expect("plannable");
    assert_eq!(
        (
            long.config.tp,
            long.config.cp,
            long.config.pp,
            long.config.dp
        ),
        (8, 16, 16, 8)
    );
    // Both phases keep bs = 16 — CP preserves the pipeline's feed.
    assert_eq!(short.config.nmb, 16);
    assert_eq!(long.config.nmb, 16);
}

#[test]
fn flexible_pp_supports_arbitrary_batch_sizes() {
    // §3.1.1: the original interleaved 1F1B requires nmb % pp == 0;
    // the flexible schedule removes the constraint.
    assert!(PpSchedule::build(ScheduleKind::Interleaved1F1B, 8, 4, 30).is_err());
    for nmb in [1u32, 3, 7, 13, 30, 100] {
        let nc = nmb.min(8);
        let s = PpSchedule::build(ScheduleKind::Flexible { nc }, 8, 4, nmb)
            .expect("flexible accepts any nmb");
        s.assert_well_formed();
    }
}

#[test]
fn model_co_design_ships_126_layers() {
    // §3.1.2: the 405B model has 126 layers, down from 128, so the
    // first and last pipeline rank carry one layer less.
    assert_eq!(TransformerConfig::llama3_405b().num_layers, 126);
}

#[test]
fn all_gather_cp_preserves_bitwise_attention_semantics() {
    // §4: the all-gather design computes every output row with exactly
    // the single-GPU arithmetic — document masks included.
    let q = Matrix::random(64, 16, 0.5, 1);
    let k = Matrix::random(64, 16, 0.5, 2);
    let v = Matrix::random(64, 16, 0.5, 3);
    let mask = MaskSpec::document(vec![3, 3, 8, 2, 48]); // §4's example, extended
    let reference = attention_direct(&q, &k, &v, &mask, 0);
    for cp in [2usize, 4, 8] {
        assert!(cp_allgather_attention(&q, &k, &v, &mask, cp).bitwise_eq(&reference));
    }
}

#[test]
fn fig8_localization_survives_the_full_mesh_path() {
    // Mesh → group structure → synthetic trace → localization.
    use llama3_parallelism::core::mesh::Mesh4D;
    let mesh = Mesh4D::new(4, 2, 2, 2);
    let structure = mesh.group_structure();
    for culprit in [0u32, 7, 13, 31] {
        let trace = synth_trace(&SynthSpec {
            num_ranks: mesh.num_gpus(),
            rounds: 4,
            base_compute_ns: 60_000,
            straggler: Some((culprit, 1.7)),
            structure: structure.clone(),
            seed: 11 + culprit as u64,
        });
        assert_eq!(locate_slow_rank(&trace, &structure).culprit, Some(culprit));
    }
}

#[test]
fn gqa_keeps_cp_all_gather_small() {
    // §4: K/V are 16× narrower than Q on the 405B, so the CP
    // all-gather moves little data relative to the attention compute.
    let cfg = TransformerConfig::llama3_405b();
    assert_eq!(cfg.q_dim() / cfg.kv_dim(), 16);
}
