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
    assert_eq!(a.config, b.config);
    assert_eq!(a.peak_memory, b.peak_memory);
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
        .run(&SimOptions::default())
        .expect("valid step config")
        .report
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

/// Jittered full-fidelity 8K-GPU steps (`dp = 64`, past every oracle
/// case) keep their exact step time and bubble-ratio bits: transient
/// 5 % jitter at three `(seed, step)` pairs, with the step time in
/// nanoseconds and each pipeline rank's bubble ratio as `f64` bits.
/// Traced and untraced runs both match the pins, and each trace shows
/// the replica that set the step time: its last event ends exactly
/// `exposed.dp` before the pinned step time.
#[test]
fn jittered_full_8k_gpu_reports_are_pinned() {
    use bench_harness::configs::production_8k_gpu_step;
    use llama3_parallelism::core::step::SimOptions;
    use llama3_parallelism::prelude::{JitterKind, JitterModel};

    const PINS: [(u64, u64, u64, [u64; 16]); 3] = [
        (
            1,
            1,
            6_158_673_961,
            [
                0x3fd60e2f54fa6b46,
                0x3fc6c3a397c75110,
                0x3fc70ae93943bb67,
                0x3fc6cb03946ada3e,
                0x3fc75f3f6d872c6b,
                0x3fc6a47d356e86ff,
                0x3fc753e78dc6a16e,
                0x3fc72c3940a36591,
                0x3fc770b2ab54a3ae,
                0x3fc69bda2a511c9a,
                0x3fc6f7a263053328,
                0x3fc6f6ab8cf86dfd,
                0x3fc6f937b789d6a7,
                0x3fc72096a6d6ff93,
                0x3fc71c462b156db3,
                0x3fccfb28028554a3,
            ],
        ),
        (
            2,
            7,
            6_154_555_971,
            [
                0x3fd64f18d313d47a,
                0x3fc6ce3728b9d462,
                0x3fc6eaa3e668ca76,
                0x3fc6184a09fc9e10,
                0x3fc70c5e46384370,
                0x3fc6efb80130e458,
                0x3fc6ee79e8ba8494,
                0x3fc72463292479c7,
                0x3fc76ce5e6c19c80,
                0x3fc67affdfc136f5,
                0x3fc6f04427b016e1,
                0x3fc6d72e21c251ba,
                0x3fc782572ea45a86,
                0x3fc732afbe0b0d85,
                0x3fc779dde600a785,
                0x3fcd5f4839e45aa3,
            ],
        ),
        (
            3,
            42,
            6_156_030_541,
            [
                0x3fd63a957a7d7cfa,
                0x3fc6d5a84b1bcf34,
                0x3fc6eaeca978b42c,
                0x3fc7ab9fd59a3f95,
                0x3fc6776ee21e8573,
                0x3fc6b3956294477e,
                0x3fc718c8f53ac425,
                0x3fc679752413108a,
                0x3fc6e9e70074b0d3,
                0x3fc639621f8a8a42,
                0x3fc6feaa7e7c63ce,
                0x3fc6fad9b30a794e,
                0x3fc6a25565f49e42,
                0x3fc74dff80d48fc6,
                0x3fc6fe4fb6b98dd2,
                0x3fcdd7f366b4c18e,
            ],
        ),
    ];
    let step = production_8k_gpu_step(16);
    assert_eq!(step.mesh.dp(), 64);
    for (seed, index, step_ns, bubbles) in PINS {
        let jitter = JitterModel::new(JitterKind::Transient, 0.05, seed);
        let opts = SimOptions::new().jitter(jitter).step(index);
        for traced in [false, true] {
            let outcome = step.run(&opts.clone().trace(traced)).expect("valid step");
            let report = outcome.report;
            let bits: Vec<u64> = report.bubble_ratio.iter().map(|b| b.to_bits()).collect();
            assert_eq!(
                (report.step_time.as_nanos(), bits.as_slice()),
                (step_ns, &bubbles[..]),
                "seed {seed}, step {index}, traced {traced}"
            );
            if traced {
                let end = outcome.trace.expect("trace requested").span_ns();
                assert_eq!(
                    end + report.exposed.dp.as_nanos(),
                    step_ns,
                    "seed {seed}, step {index}: trace end + exposed dp"
                );
            }
        }
    }
}

/// The 8K-GPU step at `bs = 32` runs flexible 1F1B (`nmb = 2·pp`),
/// where the loss turn-around (a last-stage backward waiting on its own
/// forward) is on the critical path; the `bs = 16` pins above run
/// all-forward-all-backward, where it never is. The healthy folded run
/// and one jittered full run keep their exact step time in nanoseconds
/// and each rank's bubble ratio as `f64` bits.
#[test]
fn one_f_one_b_8k_gpu_reports_are_pinned() {
    use bench_harness::configs::production_8k_gpu_step;
    use llama3_parallelism::core::step::SimOptions;
    use llama3_parallelism::prelude::{JitterKind, JitterModel};

    // Healthy, every middle rank idles alike.
    let mut folded = [0x3fb24e0acab8d093; 16];
    (folded[0], folded[15]) = (0x3fccb8534fd27647, 0x3fbdfcfc7cb9233e);
    let jittered = [
        0x3fd0cb7281d6bf7a,
        0x3fbb4ff73d65bf90,
        0x3fbb950c534fe4b6,
        0x3fbb7d6e1515dad7,
        0x3fbbb000c641aad8,
        0x3fba9b14cafb25e4,
        0x3fbbf8b021ff9967,
        0x3fbbd4388e528e73,
        0x3fbc245e767f76b6,
        0x3fb96c7ba83628ce,
        0x3fbb0b66ea05ffc3,
        0x3fbb3540c6da2d78,
        0x3fbb0394fd99d782,
        0x3fbcb799bdc42b99,
        0x3fba60df3e40dbc0,
        0x3fc3262e90bc7d45,
    ];
    let step = production_8k_gpu_step(32);
    let jitter = JitterModel::new(JitterKind::Transient, 0.05, 1);
    for (opts, step_ns, bubbles) in [
        (SimOptions::new(), 11_087_608_467, &folded[..]),
        (
            SimOptions::new().jitter(jitter).step(1),
            11_526_208_078,
            &jittered[..],
        ),
    ] {
        let report = step.run(&opts).expect("valid step").report;
        let bits: Vec<u64> = report.bubble_ratio.iter().map(|b| b.to_bits()).collect();
        assert_eq!(
            (report.step_time.as_nanos(), bits.as_slice()),
            (step_ns, bubbles),
            "{opts:?}"
        );
    }
}

/// The traced healthy `bs = 32` 8K-GPU step keeps every compute
/// event: an FNV-1a digest of each event's `(rank, start, end)` in
/// nanoseconds, in trace order, is pinned. Whole-step pins miss a
/// change in which cost an op pays when it leaves every rank's compute
/// total and the makespan alone (stage 0's forward and backward cost
/// slots swapped, say); the per-event times do not. Under the §3.1.2
/// co-design stage 0 holds only the embedding, whose forward and
/// backward cost the same, so such a swap is invisible there; the
/// step is also pinned with a uniform layer split, which gives stage 0
/// a transformer layer too.
#[test]
fn one_f_one_b_8k_gpu_traces_are_pinned() {
    use bench_harness::configs::production_8k_gpu_step;
    use llama3_parallelism::core::step::SimOptions;
    use llama3_parallelism::prelude::{BalancePolicy, StageAssignment};
    use llama3_parallelism::trace::EventCategory;

    for (balance, pin) in [
        (BalancePolicy::DropFirstAndLast, 0xa5af_0756_cc55_7930_u64),
        (BalancePolicy::Uniform, 0xb34e_e762_2764_fb1e),
    ] {
        let mut step = production_8k_gpu_step(32);
        step.assignment = StageAssignment::build(&step.layout, 16, 8, balance);
        let outcome = step
            .run(&SimOptions::new().trace(true))
            .expect("valid step");
        let trace = outcome.trace.expect("trace requested");
        let mut events = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for e in &trace.events {
            assert_eq!(e.category, EventCategory::Compute);
            events += 1;
            for word in [u64::from(e.rank), e.start_ns, e.start_ns + e.duration_ns] {
                for b in word.to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!((events, digest), (8192, pin), "{balance:?}");
    }
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
