//! Every layer of the stack must be bit-for-bit reproducible: same
//! seeds, same results — the property the whole experiment harness
//! rests on.

use llama3_parallelism::core::mesh::Mesh4D;
use llama3_parallelism::core::planner::{plan, PlannerInput};
use llama3_parallelism::trace::synth::{synth_trace, SynthSpec};
use llama3_parallelism::workload::{DocLengthDist, DocumentSampler, GlobalBatch};

#[test]
fn workload_generation_is_seed_deterministic() {
    let make = || {
        let mut s = DocumentSampler::new(
            DocLengthDist::LogNormal {
                mean: 1024.0,
                sigma: 1.2,
            },
            99,
        );
        GlobalBatch::sampled(8192, 32, &mut s)
    };
    assert_eq!(make(), make());
}

#[test]
fn planner_is_deterministic() {
    let input = PlannerInput::llama3_405b(16_384, 8_192);
    let a = plan(&input).unwrap();
    let b = plan(&input).unwrap();
    assert_eq!(a.mesh, b.mesh);
    assert_eq!(a.est_memory, b.est_memory);
    assert_eq!(a.reasoning, b.reasoning);
}

#[test]
fn step_simulation_is_deterministic() {
    use llama3_parallelism::cluster::Cluster;
    use llama3_parallelism::core::fsdp::ZeroMode;
    use llama3_parallelism::core::pp::balance::{BalancePolicy, StageAssignment};
    use llama3_parallelism::core::pp::schedule::ScheduleKind;
    use llama3_parallelism::core::step::StepModel;
    use llama3_parallelism::core::SimOptions;
    use llama3_parallelism::model::{MaskSpec, ModelLayout, TransformerConfig};

    let make = || {
        let layout = ModelLayout::text(TransformerConfig::llama3_405b_scaled(28));
        let mesh = Mesh4D::new(8, 2, 4, 2);
        let assignment = StageAssignment::build(&layout, 4, 7, BalancePolicy::Uniform);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::Flexible { nc: 4 },
            zero: ZeroMode::Zero1,
            bs: 8,
            seq: 16_384,
            mask: MaskSpec::document(vec![4096; 4]),
            recompute: false,
        }
        .run(&SimOptions::default()).expect("valid step config").report
    };
    let a = make();
    let b = make();
    assert_eq!(a.step_time, b.step_time);
    assert_eq!(a.peak_memory, b.peak_memory);
    assert_eq!(a.exposed, b.exposed);
}

/// DP-symmetry folding is exact: the folded 8K-GPU 405B step reports
/// bit-for-bit what the full-fidelity simulation of every rank does.
#[test]
fn folded_and_full_8k_gpu_reports_are_identical() {
    use bench_harness::configs::production_8k_gpu_step;
    use llama3_parallelism::core::step::{SimFidelity, SimOptions};

    let step = production_8k_gpu_step(16);
    let folded = step.run(&SimOptions::new()).expect("valid step").report;
    let full = step
        .run(&SimOptions::new().fidelity(SimFidelity::Full))
        .expect("valid step")
        .report;
    assert_eq!(folded, full);
}

/// A small 4D step shared by the fault/goodput determinism tests.
fn fault_test_step(
    cfg: llama3_parallelism::model::TransformerConfig,
    mesh: Mesh4D,
    v: u32,
    bs: u32,
) -> llama3_parallelism::prelude::StepModel {
    use llama3_parallelism::prelude::*;
    let layout = ModelLayout::text(cfg);
    let assignment = StageAssignment::build(&layout, mesh.pp(), v, BalancePolicy::Uniform);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: ScheduleKind::Flexible { nc: 4 },
        zero: ZeroMode::Zero1,
        bs,
        seq: 8192,
        mask: llama3_parallelism::model::MaskSpec::Causal,
        recompute: false,
    }
}

#[test]
fn fault_timeline_is_seed_deterministic() {
    use llama3_parallelism::prelude::*;
    let make = |seed| {
        FaultTimeline::generate(FaultRates::llama3_production(), 1024, 8, 86_400.0, seed)
            .expect("valid timeline")
    };
    assert_eq!(make(7).events(), make(7).events());
    assert_ne!(make(7).events(), make(8).events());
}

#[test]
fn goodput_report_is_seed_deterministic() {
    use llama3_parallelism::prelude::*;
    let report = |seed| {
        let step = fault_test_step(
            llama3_parallelism::model::TransformerConfig::llama3_405b_scaled(28),
            Mesh4D::new(8, 1, 4, 2),
            7,
            12,
        );
        // High rates so the small 64-GPU test cluster actually faults.
        let rates = FaultRates {
            gpu_fail_per_gpu_hour: 2e-2,
            thermal_per_gpu_hour: 4e-2,
            ..FaultRates::llama3_production()
        };
        let timeline = FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, 43_200.0, seed)
            .expect("valid timeline");
        RunSimulator::new(step, timeline, CheckpointPolicy::llama3_production())
            .expect("valid run")
            .simulate()
            .expect("simulates")
    };
    // Byte-identical: every f64 field must match exactly, not just
    // approximately.
    assert_eq!(report(3), report(3));
    assert_ne!(report(3), report(4));
}

#[test]
fn trace_synthesis_is_deterministic() {
    let mesh = Mesh4D::new(2, 2, 2, 2);
    let spec = SynthSpec {
        num_ranks: mesh.num_gpus(),
        rounds: 3,
        base_compute_ns: 10_000,
        straggler: Some((5, 1.5)),
        structure: mesh.group_structure(),
        seed: 4,
    };
    assert_eq!(synth_trace(&spec), synth_trace(&spec));
}
