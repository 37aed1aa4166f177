//! Mutation-style validation of the invariant checkers: a scratch
//! reimplementation of the classic 1F1B schedule with a parameterized
//! warm-up count. With the correct count it passes the full checker
//! battery; with a deliberately injected off-by-one (the `<=`-style
//! bug that issues one extra leading forward) the completeness checker
//! catches the duplicated micro-batch, and a hand-swapped
//! backward-before-forward is caught as well. This is the evidence
//! that the checkers detect real schedule-generator bugs rather than
//! merely blessing the shipped generator.

use conformance::invariants::{
    check_phase_counts, check_schedule_completeness, check_schedule_executes,
};
use parallelism_core::pp::schedule::{PpOp, PpSchedule, ScheduleKind};

/// Scratch classic 1F1B (v = 1, nc = pp): `warmup + 1 + extra_warmup`
/// leading forwards, steady (backward, forward) alternation, trailing
/// backward drain. `extra_warmup = 0` is the correct schedule;
/// `extra_warmup = 1` models an off-by-one in the warm-up loop bound
/// (the steady region still starts where the correct schedule would,
/// so the first steady forward gets issued twice).
fn scratch_1f1b(pp: u32, nmb: u32, extra_warmup: u32) -> PpSchedule {
    assert!(nmb >= pp, "keep the main region full for the phase law");
    let mut ranks = Vec::new();
    for r in 0..pp {
        let w = pp - r - 1;
        let first_steady = (w + 1).min(nmb);
        let lead = (w + 1 + extra_warmup).min(nmb);
        let mut ops = Vec::new();
        for mb in 0..lead {
            ops.push(PpOp::Forward { chunk: 0, mb });
        }
        for mb in first_steady..nmb {
            ops.push(PpOp::Backward {
                chunk: 0,
                mb: mb - first_steady,
            });
            ops.push(PpOp::Forward { chunk: 0, mb });
        }
        for mb in (nmb - first_steady)..nmb {
            ops.push(PpOp::Backward { chunk: 0, mb });
        }
        ranks.push(ops);
    }
    PpSchedule {
        pp,
        v: 1,
        nmb,
        nc: pp,
        kind: ScheduleKind::Flexible { nc: pp },
        ranks,
    }
}

#[test]
fn correct_scratch_1f1b_passes_every_checker() {
    for (pp, nmb) in [(2u32, 4u32), (4, 8), (4, 16), (8, 8)] {
        let s = scratch_1f1b(pp, nmb, 0);
        check_schedule_completeness(&s).unwrap_or_else(|e| panic!("pp={pp} nmb={nmb}: {e}"));
        check_phase_counts(&s).unwrap_or_else(|e| panic!("pp={pp} nmb={nmb}: {e}"));
        check_schedule_executes(&s).unwrap_or_else(|e| panic!("pp={pp} nmb={nmb}: {e}"));
    }
}

#[test]
fn warmup_off_by_one_is_caught_by_completeness() {
    let s = scratch_1f1b(4, 8, 1);
    let err = check_schedule_completeness(&s)
        .expect_err("one extra warm-up forward must fail completeness");
    // Rank 0 issues 9 forwards for 8 micro-batches: either the op
    // count or the duplicate forward is named, both point at the bug.
    assert!(
        err.contains("rank 0"),
        "error does not name the offending rank: {err}"
    );
    assert!(
        err.contains("ops, expected") || err.contains("duplicate"),
        "error does not describe the surplus forward: {err}"
    );
}

#[test]
fn warmup_off_by_one_also_breaks_the_phase_law() {
    // The surplus forward never drains, so the in-flight profile ends
    // above zero — the phase checker flags that before it even gets to
    // comparing the leading-forward count against warmup+1.
    let s = scratch_1f1b(4, 8, 1);
    let err = check_phase_counts(&s).expect_err("phase law must reject the extra forward");
    assert!(
        err.contains("still in flight") || err.contains("leading forwards"),
        "unexpected message: {err}"
    );
}

#[test]
fn backward_before_forward_is_caught() {
    let mut s = scratch_1f1b(4, 8, 0);
    // The last rank's schedule starts F0, B0, ... — swapping the first
    // two ops puts B0 before its own forward.
    let last = s.ranks.len() - 1;
    s.ranks[last].swap(0, 1);
    let err = check_schedule_completeness(&s).expect_err("B before F must fail");
    assert!(
        err.contains("before its forward"),
        "unexpected message: {err}"
    );
    let err = check_phase_counts(&s).expect_err("profile must dip negative");
    assert!(
        err.contains("backward without forward") || err.contains("does not start with a forward"),
        "unexpected message: {err}"
    );
}

#[test]
fn dropped_drain_op_is_caught() {
    let mut s = scratch_1f1b(4, 8, 0);
    s.ranks[0].pop();
    let err = check_schedule_completeness(&s).expect_err("missing backward must fail");
    assert!(err.contains("ops, expected"), "unexpected message: {err}");
    let err = check_phase_counts(&s).expect_err("in-flight profile must not end at zero");
    assert!(err.contains("still in flight"), "unexpected message: {err}");
}
