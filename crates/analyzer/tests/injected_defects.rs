//! Mutation tests: each of the four defect classes the pre-flight
//! analyzer exists to catch is injected into an otherwise-healthy plan,
//! and the analysis must flag it with **exactly** the intended rule and
//! a witness naming the right rank and op. No simulation runs anywhere
//! in this file — every catch is static.

use analyzer::analyze::{collective, deadlock, race};
use analyzer::{analyze_step, RuleId, Severity};
use cluster_model::topology::Cluster;
use llm_model::masks::MaskSpec;
use llm_model::{ModelLayout, TransformerConfig};
use parallelism_core::fsdp::ZeroMode;
use parallelism_core::mesh::Mesh4D;
use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
use parallelism_core::pp::schedule::{PpOp, PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::PpProgram;
use parallelism_core::step::StepModel;

/// A healthy 64-GPU step (tp 4 / cp 2 / pp 2 / dp 2) that passes every
/// rule before mutation.
fn healthy_step() -> StepModel {
    let cfg = TransformerConfig::llama3_405b_scaled(28);
    let layout = ModelLayout::text(cfg);
    let mesh = Mesh4D::new(4, 2, 2, 2);
    let assignment = StageAssignment::build(&layout, 2, 7, BalancePolicy::Uniform);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: ScheduleKind::Flexible { nc: 2 },
        zero: ZeroMode::Zero3,
        bs: 4,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute: true,
    }
}

#[test]
fn healthy_baseline_has_no_errors() {
    let report = analyze_step(&healthy_step());
    assert!(!report.has_errors(), "{}", report.render_human());
}

/// Defect 1: moving rank 0's first backward before its forward turns
/// the p2p send/recv pairing into a cycle
/// `F(s0) → B(s0) → B(s1) → F(s1) → F(s0)` — a real pipeline deadlock.
#[test]
fn b_before_f_swap_is_caught_by_dead001() {
    let mut sched = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
    let r0 = &mut sched.ranks[0];
    let f = r0
        .iter()
        .position(|o| *o == PpOp::Forward { chunk: 0, mb: 0 })
        .unwrap();
    let b = r0
        .iter()
        .position(|o| *o == PpOp::Backward { chunk: 0, mb: 0 })
        .unwrap();
    r0.swap(f, b);

    let diags = deadlock::check_schedule(&sched);
    assert!(!diags.is_empty(), "the cycle went undetected");
    for d in &diags {
        assert_eq!(
            d.rule,
            RuleId::Dead001,
            "unexpected rule: {}",
            d.render_human()
        );
    }
    let cycle = &diags[0];
    assert_eq!(cycle.severity, Severity::Error);
    assert_eq!(cycle.rank, Some(0));
    assert_eq!(cycle.op.as_deref(), Some("B0.0"));
    assert!(cycle.witness.iter().any(|w| w.contains("rank 0: B0.0")));
    assert!(cycle.witness.iter().any(|w| w.contains("rank 1: F0.0")));
}

/// Defect 2: one member of the first TP group enqueues an extra
/// all-gather — the static image of the one-bad-rank NCCL hang.
#[test]
fn extra_all_gather_is_caught_by_coll001() {
    let m = healthy_step();
    let sched = m.schedule().unwrap();
    let mut plan = collective::extract_plan(&m, &sched);
    let gs = &mut plan.groups[0];
    let victim = gs.streams[1].0 .0;
    let dup = collective::CollOp {
        kind: collective::CollKind::AllGather,
        ..gs.streams[1].1[0].clone()
    };
    gs.streams[1].1.insert(0, dup);

    let diags = collective::check_plan(&plan);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, RuleId::Coll001);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.rank, Some(victim), "witness must name the divergent rank");
    assert!(d.message.contains("tp group"), "{}", d.message);
    assert!(d
        .witness
        .iter()
        .any(|w| w.contains(&format!("rank {victim}"))));
}

/// Defect 3: disabling recomputation and shrinking HBM leaves an
/// activation plan that cannot fit — the analyzer must bound it
/// statically and name the first over-subscribed rank.
#[test]
fn oversized_activation_plan_is_caught_by_mem001() {
    let mut m = healthy_step();
    m.recompute = false;
    m.bs = 12;
    m.cluster.gpu = m.cluster.gpu.with_hbm_capacity(8 << 30);

    let report = analyze_step(&m);
    assert!(report.has_errors());
    for d in report.errors() {
        assert_eq!(
            d.rule,
            RuleId::Mem001,
            "unexpected rule: {}",
            d.render_human()
        );
    }
    let first = report.errors().next().unwrap();
    // Rank 0 holds the deepest in-flight activation stack, so it is
    // named first; its global rank is 0 at tp=cp=dp=0 coordinates.
    assert_eq!(first.rank, Some(0));
    assert!(
        first.message.contains("pipeline rank 0"),
        "{}",
        first.message
    );
    assert!(first.witness.iter().any(|w| w.contains("activations")));
    assert!(first.witness.iter().any(|w| w.contains("total")));
}

/// Defect 4: rank 1 runs its forward `F[1.0]` twice. Only the second
/// copy waits for rank 0's activation, so the first reads `act[0.0]`
/// with no ordering against the write — the outcome would depend on
/// runtime scheduling. The schedule still executes, so no deadlock rule
/// fires.
#[test]
fn duplicated_forward_is_caught_by_race001() {
    let mut sched = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 1).unwrap();
    sched.ranks[1].insert(0, PpOp::Forward { chunk: 0, mb: 0 });

    let program = PpProgram::build(&sched);
    assert!(deadlock::check_program(&sched, &program).is_empty());
    let diags = race::check_program(&sched, &program);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, RuleId::Race001);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.rank, Some(0));
    assert!(d.message.contains("read/write"), "{}", d.message);
    assert!(d.message.contains("act[0.0]"), "{}", d.message);
    assert!(d
        .witness
        .iter()
        .any(|w| w == "rank 0 F[0.0] writes act[0.0]"));
    assert!(d
        .witness
        .iter()
        .any(|w| w == "rank 1 F[1.0] reads act[0.0]"));
}
