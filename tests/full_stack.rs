//! End-to-end integration: workload generation → planning → step
//! simulation → trace-style analysis, exercising every crate together.

use llama3_parallelism::cluster::Cluster;
use llama3_parallelism::core::fsdp::recommended_zero_mode;
use llama3_parallelism::core::planner::{plan, PlannerInput};
use llama3_parallelism::core::pp::balance::{BalancePolicy, StageAssignment};
use llama3_parallelism::core::pp::schedule::ScheduleKind;
use llama3_parallelism::core::step::StepModel;
use llama3_parallelism::core::SimOptions;
use llama3_parallelism::model::{ModelLayout, TransformerConfig};
use llama3_parallelism::workload::{llama3_405b_phases, DocLengthDist, DocumentSampler, PhaseKind};

/// Builds a step from a planner result and a sampled workload, then
/// simulates it.
fn simulate_phase(ngpu: u32, seq: u64, seed: u64) -> llama3_parallelism::core::step::StepReport {
    let input = PlannerInput::llama3_405b(ngpu, seq);
    let planned = plan(&input).expect("plannable");
    let mut sampler = DocumentSampler::new(
        DocLengthDist::LogNormal {
            mean: 2048.0,
            sigma: 1.2,
        },
        seed,
    );
    let cfg = TransformerConfig::llama3_405b().with_layers(128);
    let layout = ModelLayout::text(cfg);
    let c = planned.config;
    let assignment = StageAssignment::build(&layout, c.pp, 8, BalancePolicy::DropFirstAndLast);
    StepModel {
        cluster: Cluster::llama3(c.mesh().num_gpus()),
        mesh: c.mesh(),
        layout,
        assignment,
        schedule: c.schedule,
        zero: c.zero,
        bs: c.nmb as u32,
        seq,
        mask: sampler.pack_sequence(seq),
        recompute: false,
    }
    .run(&SimOptions::default())
    .expect("valid step config")
    .report
}

#[test]
fn both_text_phases_run_through_the_full_stack() {
    let phases = llama3_405b_phases();
    for phase in phases.iter().filter(|p| p.kind != PhaseKind::Multimodal) {
        let report = simulate_phase(phase.ngpu, phase.seq, 17);
        assert!(
            report.tflops_per_gpu > 250.0 && report.tflops_per_gpu < 550.0,
            "{}: {} TFLOPs",
            phase.name,
            report.tflops_per_gpu
        );
        assert_eq!(report.tokens, phase.token_budget);
        // Fits the H100.
        assert!(report.max_peak_memory() < 80 * (1 << 30));
    }
}

#[test]
fn long_context_pays_cp_but_keeps_throughput() {
    let short = simulate_phase(16_384, 8_192, 3);
    let long = simulate_phase(16_384, 131_072, 3);
    // CP communication appears only in the long phase.
    assert!(short.exposed.cp.is_zero());
    assert!(!long.exposed.cp.is_zero());
    // Throughput within ~25 % of the short phase (paper: 380 vs 400).
    assert!(long.tflops_per_gpu > short.tflops_per_gpu * 0.75);
}

#[test]
fn zero_mode_rule_composes_with_planner_output() {
    let c = plan(&PlannerInput::llama3_405b(16_384, 8_192))
        .unwrap()
        .config;
    assert_eq!(c.zero, recommended_zero_mode(c.nmb, c.pp as u64));
    match c.schedule {
        ScheduleKind::AllFwdAllBwd => assert!(c.nmb < 2 * c.pp as u64),
        ScheduleKind::Flexible { .. } | ScheduleKind::Interleaved1F1B => {
            assert!(c.nmb >= 2 * c.pp as u64)
        }
    }
}

#[test]
fn multimodal_phase_runs_through_the_composer() {
    use llama3_parallelism::core::multimodal::{production_multimodal, EncoderSharding};
    use llama3_parallelism::model::VitConfig;
    let r = production_multimodal(VitConfig::vit_448(), EncoderSharding::ReplicatedAcrossRanks)
        .simulate();
    assert!(r.tflops_per_gpu > 0.0);
    assert!(r.encoder_share < 0.25);
}
