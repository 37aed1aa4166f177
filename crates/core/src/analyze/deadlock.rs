//! Static pipeline-deadlock detection (`DEAD001`/`DEAD002`).
//!
//! Reads the schedule's compiled [`PpProgram`] — the dependencies the
//! simulator times — with no simulation. Each op waits for the previous
//! op on its rank (program order on one compute stream) and for its
//! data producer: `F(stage, mb)` with `stage > 0` for `F(stage−1, mb)`
//! (activation receive), `B(stage, mb)` with `stage < last` for
//! `B(stage+1, mb)` (gradient receive), and `B(last, mb)` for the local
//! `F(last, mb)` (loss turn-around).
//!
//! * `DEAD002` — the producers compilation cannot resolve: waits on an
//!   op no rank schedules.
//! * `DEAD001` — the ops Kahn's order leaves out, when they hold a
//!   cycle. The witness is the first cycle a depth-first search finds
//!   over the stuck ops, visiting each op's stream edge before its
//!   data edge.
//!
//! The step-end DP gradient sync every rank enters after its final op
//! has no successors, so it can stall but never close a cycle: every
//! schedule deadlock is a cycle among the compute ops above.

use super::{op_at, Diagnostic, RuleId};
use crate::pp::schedule::{PpOp, PpSchedule};
use crate::pp::sim::PpProgram;

/// Cap on reported dangling-wait diagnostics (one broken schedule can
/// dangle hundreds of waits; the first few identify the defect).
const MAX_DANGLING: usize = 8;

/// Compiles `sched` and checks it: see [`check_program`].
pub fn check_schedule(sched: &PpSchedule) -> Vec<Diagnostic> {
    check_program(sched, &PpProgram::build(sched))
}

/// Checks `program`, compiled from `sched`, for dangling waits and
/// wait-for cycles.
///
/// Returns up to [`MAX_DANGLING`] `DEAD002` errors for waits on
/// producers no rank schedules, then one `DEAD001` error (with the full
/// cycle as witness) for the first cycle found. A schedule produced by
/// [`PpSchedule::build`] yields no diagnostics.
pub fn check_program(sched: &PpSchedule, program: &PpProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if program.is_complete() {
        return diags;
    }
    let last_stage = sched.num_stages() - 1;
    for i in program.unresolved().take(MAX_DANGLING) {
        let (rank, op) = op_at(sched, program, i);
        let stage = sched.stage_of(rank, op.chunk());
        let mb = op.mb();
        let wanted = match op {
            PpOp::Forward { .. } => format!("the forward of stage {} mb {mb}", stage - 1),
            PpOp::Backward { .. } if stage < last_stage => {
                format!("the backward of stage {} mb {mb}", stage + 1)
            }
            PpOp::Backward { .. } => format!("the local forward of stage {stage} mb {mb}"),
        };
        diags.push(
            Diagnostic::error(
                RuleId::Dead002,
                format!(
                    "{op} waits for {wanted}, which no rank schedules — the wait never completes"
                ),
            )
            .at_rank(rank)
            .at_op(op.to_string()),
        );
    }
    let dangling = program.unresolved().count();
    if dangling > MAX_DANGLING {
        diags.push(Diagnostic::error(
            RuleId::Dead002,
            format!("{} more dangling waits suppressed", dangling - MAX_DANGLING),
        ));
    }

    if let Some(cycle) = find_cycle(program) {
        let witness = cycle
            .iter()
            .map(|&i| {
                let (rank, op) = op_at(sched, program, i);
                format!("rank {rank}: {op}")
            })
            .collect();
        let (rank, op) = op_at(sched, program, cycle[0]);
        diags.push(
            Diagnostic::error(
                RuleId::Dead001,
                format!(
                    "cross-rank wait-for cycle of {} ops — the pipeline deadlocks at the first \
                     op of the cycle",
                    cycle.len()
                ),
            )
            .at_rank(rank)
            .at_op(op.to_string())
            .with_witness(witness),
        );
    }
    diags
}

/// Iterative three-colour DFS over the ops Kahn's order left out, in
/// program order; returns the first cycle found as an op path (each op
/// waits for the next, and the last waits for the first). An op that
/// runs waits only on ops that run, so it is never on a cycle and the
/// search starts out treating it as finished.
fn find_cycle(program: &PpProgram) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::Black; program.len()];
    for i in program.stuck() {
        colour[i] = Colour::White;
    }
    // Stack frames: (op, next edge: 0 = stream, 1 = data). The stack
    // is the grey chain, so a back edge unwinds into a cycle witness.
    for root in 0..program.len() {
        if colour[root] != Colour::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = Colour::Grey;
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            if top.1 < 2 {
                let edge = top.1;
                top.1 += 1;
                let waited = if edge == 0 {
                    program.stream_pred(node)
                } else {
                    program.data_pred(node)
                };
                let Some(next) = waited else {
                    continue;
                };
                match colour[next] {
                    Colour::White => {
                        colour[next] = Colour::Grey;
                        stack.push((next, 0));
                    }
                    Colour::Grey => {
                        let start = stack
                            .iter()
                            .position(|&(n, _)| n == next)
                            // lint: allow(unwrap) — grey nodes are on the stack by the DFS invariant
                            .expect("grey nodes are on the stack");
                        // Stack order already reads "each op waits for
                        // the next, and the last waits for the first".
                        return Some(stack[start..].iter().map(|&(n, _)| n).collect());
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::schedule::ScheduleKind;

    #[test]
    fn built_schedules_are_clean_across_families() {
        for kind in [
            ScheduleKind::AllFwdAllBwd,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::Flexible { nc: 3 },
            ScheduleKind::Flexible { nc: 6 },
        ] {
            let s = PpSchedule::build(kind, 4, 2, 8).unwrap();
            let diags = check_schedule(&s);
            assert!(diags.is_empty(), "{kind:?}: {diags:?}");
        }
    }

    #[test]
    fn b_before_f_swap_creates_p2p_cycle() {
        // pp = 2, v = 1: stage 0 on rank 0, stage 1 on rank 1. Moving
        // rank 0's first backward before its forward closes the loop
        //   F(s0) →(program) B(s0) →(grad recv) B(s1)
        //        →(local) F(s1) →(act recv) F(s0).
        let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
        let r0 = &mut s.ranks[0];
        let fpos = r0
            .iter()
            .position(|o| *o == PpOp::Forward { chunk: 0, mb: 0 })
            .unwrap();
        let bpos = r0
            .iter()
            .position(|o| *o == PpOp::Backward { chunk: 0, mb: 0 })
            .unwrap();
        r0.swap(fpos, bpos);
        let diags = check_schedule(&s);
        let cycle = diags
            .iter()
            .find(|d| d.rule == RuleId::Dead001)
            .expect("cycle detected");
        assert!(cycle.witness.iter().any(|w| w.contains("rank 0: B0.0")));
        assert!(cycle.witness.iter().any(|w| w.contains("rank 1: F0.0")));
    }

    #[test]
    fn missing_producer_is_a_dangling_wait() {
        let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
        // Drop rank 0's forward of mb 1: rank 1's F(stage 1, mb 1)
        // waits forever.
        s.ranks[0].retain(|o| *o != PpOp::Forward { chunk: 0, mb: 1 });
        let diags = check_schedule(&s);
        let d = diags
            .iter()
            .find(|d| d.rule == RuleId::Dead002)
            .expect("dangling wait");
        assert_eq!(d.rank, Some(1));
        assert!(d.message.contains("stage 0 mb 1"), "{}", d.message);
    }
}
