//! Write-race detection over the compiled pipeline program (`RACE001`).
//!
//! Two ops touching the same **buffer lane** — one stage-micro-batch's
//! activation or gradient buffer — with at least one write must be
//! ordered by the program's happens-before relation, or their outcome
//! depends on runtime scheduling. Happens-before is the transitive
//! closure of the [`PpProgram`]'s stream and data edges. That is the
//! engine's own ordering: a P2P transfer sits alone on its link stream
//! and only adds latency to the edge it carries. The check is purely
//! structural — nothing is timed.
//!
//! Every writer of a lane runs the lane's own stage, so all of them
//! share one rank's FIFO stream: two writes are always ordered, and
//! every race is a read/write pair.

use super::{op_at, Diagnostic, RuleId};
use crate::pp::schedule::PpSchedule;
use crate::pp::sim::PpProgram;
use std::fmt;

/// Cap on reported races (one systematic scheduling bug would otherwise
/// emit thousands of identical findings).
const MAX_RACES: usize = 8;

/// One logical buffer in the pipeline's memory plan. The derived
/// order (activations before gradients, then stage, then micro-batch)
/// fixes the report order of [`check_program`] deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// The activation buffer of `(stage, mb)`.
    Act {
        /// Global stage index.
        stage: u32,
        /// Micro-batch.
        mb: u32,
    },
    /// The gradient buffer of `(stage, mb)`.
    Grad {
        /// Global stage index.
        stage: u32,
        /// Micro-batch.
        mb: u32,
    },
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Act { stage, mb } => write!(f, "act[{stage}.{mb}]"),
            Lane::Grad { stage, mb } => write!(f, "grad[{stage}.{mb}]"),
        }
    }
}

/// Two conflicting accesses the program leaves unordered: ops `a < b`
/// (program indices) both touch `lane`, and at least one writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// The lane both ops touch.
    pub lane: Lane,
    /// The earlier op in program order.
    pub a: usize,
    /// `true` when `a` writes the lane.
    pub a_writes: bool,
    /// The later op in program order.
    pub b: usize,
    /// `true` when `b` writes the lane.
    pub b_writes: bool,
}

/// Checks `program`, compiled from `sched`, for unordered conflicting
/// accesses: up to [`MAX_RACES`] `RACE001` errors, in lane order, plus
/// a count of the rest. A program that cannot run is already rejected
/// by `DEAD001`/`DEAD002` and yields no race findings.
pub fn check_program(sched: &PpSchedule, program: &PpProgram) -> Vec<Diagnostic> {
    let races = unordered_pairs(sched, program);
    let describe = |i: usize| {
        let (rank, op) = op_at(sched, program, i);
        let stage = sched.stage_of(rank, op.chunk());
        let dir = if op.is_forward() { 'F' } else { 'B' };
        (rank, format!("rank {rank} {dir}[{stage}.{}]", op.mb()))
    };
    let touch = |writes: bool| if writes { "writes" } else { "reads" };
    let mut diags: Vec<Diagnostic> = races
        .iter()
        .take(MAX_RACES)
        .map(|r| {
            let lane = r.lane;
            let (rank, da) = describe(r.a);
            let (_, db) = describe(r.b);
            Diagnostic::error(
                RuleId::Race001,
                format!(
                    "unordered read/write on {lane}: {da} and {db} have no ordering edge — \
                     the result depends on runtime scheduling"
                ),
            )
            .at_rank(rank)
            .at_op(da.clone())
            .with_witness(vec![
                format!("{da} {} {lane}", touch(r.a_writes)),
                format!("{db} {} {lane}", touch(r.b_writes)),
            ])
        })
        .collect();
    if races.len() > MAX_RACES {
        diags.push(Diagnostic::error(
            RuleId::Race001,
            format!(
                "{} more unordered pairs suppressed",
                races.len() - MAX_RACES
            ),
        ));
    }
    diags
}

/// Every pair of conflicting accesses `program` leaves unordered, in
/// lane order and then program order; empty when the program cannot
/// run.
///
/// Exact, with O(ops) extra memory beyond the pairs themselves. Most
/// pairs are ordered by a direct edge or a one-hop path, checked first.
/// Each remaining pair is ordered iff the op earlier in Kahn's order
/// happens before the later one. That is decided by one vector-clock
/// column per rank `r`, computed along Kahn's order: `col[i]` counts
/// the ops of rank `r` that happen before or at op `i`, and op `x` of
/// rank `r` happens before `y` iff `col[y]` exceeds `x`'s position on
/// its rank. Columns are computed one at a time, only for the ranks
/// some unresolved pair needs.
pub fn unordered_pairs(sched: &PpSchedule, program: &PpProgram) -> Vec<Race> {
    if !program.is_complete() {
        return Vec::new();
    }
    let n = program.len();
    let stages = sched.num_stages() as usize;
    let nmb = sched.nmb as usize;
    // Every copy of each `(direction, stage, mb)` op, in program order:
    // a CSR list over `slot = (backward·stages + stage)·nmb + mb`.
    let slot_of = |i: usize| {
        let (rank, op) = op_at(sched, program, i);
        let stage = sched.stage_of(rank, op.chunk()) as usize;
        (usize::from(!op.is_forward()) * stages + stage) * nmb + op.mb() as usize
    };
    let mut heads = vec![0u32; 2 * stages * nmb + 1];
    for i in 0..n {
        heads[slot_of(i) + 1] += 1;
    }
    for k in 1..heads.len() {
        heads[k] += heads[k - 1];
    }
    let mut copies = vec![0u32; n];
    let mut fill = heads.clone();
    for i in 0..n {
        let k = slot_of(i);
        copies[fill[k] as usize] = i as u32;
        fill[k] += 1;
    }
    drop(fill);
    let of = |backward: bool, stage: usize, mb: usize| {
        let k = (usize::from(backward) * stages + stage) * nmb + mb;
        &copies[heads[k] as usize..heads[k + 1] as usize]
    };

    let mut topo = vec![0u32; n];
    for (k, &i) in program.order().iter().enumerate() {
        topo[i as usize] = k as u32;
    }
    let pos = |i: usize| i - program.rank_ops(program.rank_of(i)).start;
    // Conflicting pairs no short path orders: (earlier, later) in
    // Kahn's order, then the pair as reported.
    let mut pending: Vec<(usize, usize, Race)> = Vec::new();
    let mut members: Vec<(u32, bool)> = Vec::new();
    // Lanes in `Lane` order. A forward writes its activation and reads
    // the previous stage's; a backward writes its gradient and reads
    // its activation and the next stage's gradient.
    for (grad, stage, mb) in [false, true]
        .into_iter()
        .flat_map(|g| (0..stages).flat_map(move |s| (0..nmb).map(move |m| (g, s, m))))
    {
        members.clear();
        let (stage32, mb32) = (stage as u32, mb as u32);
        let (lane, writers, readers, more_readers) = if grad {
            let prev = if stage > 0 {
                of(true, stage - 1, mb)
            } else {
                &[]
            };
            let lane = Lane::Grad {
                stage: stage32,
                mb: mb32,
            };
            (lane, of(true, stage, mb), prev, &[][..])
        } else {
            let next = if stage + 1 < stages {
                of(false, stage + 1, mb)
            } else {
                &[]
            };
            let lane = Lane::Act {
                stage: stage32,
                mb: mb32,
            };
            (lane, of(false, stage, mb), next, of(true, stage, mb))
        };
        members.extend(writers.iter().map(|&i| (i, true)));
        members.extend(readers.iter().chain(more_readers).map(|&i| (i, false)));
        members.sort_unstable();
        for (k, &(a, a_writes)) in members.iter().enumerate() {
            for &(b, b_writes) in &members[k + 1..] {
                let (a, b) = (a as usize, b as usize);
                let (x, y) = if topo[a] < topo[b] { (a, b) } else { (b, a) };
                let near = program.rank_of(x) == program.rank_of(y)
                    || program.data_pred(y).is_some_and(|d| {
                        d == x || (program.rank_of(d) == program.rank_of(x) && pos(d) >= pos(x))
                    });
                if (a_writes || b_writes) && !near {
                    let race = Race {
                        lane,
                        a,
                        a_writes,
                        b,
                        b_writes,
                    };
                    pending.push((x, y, race));
                }
            }
        }
    }
    if pending.is_empty() {
        return Vec::new();
    }

    let mut ranks: Vec<u32> = pending.iter().map(|p| program.rank_of(p.0)).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut ordered = vec![false; pending.len()];
    let mut col = vec![0u32; n];
    for r in ranks {
        for &i in program.order() {
            let i = i as usize;
            let from = |p: Option<usize>| p.map_or(0, |p| col[p]);
            let mut c = from(program.stream_pred(i)).max(from(program.data_pred(i)));
            if program.rank_of(i) == r {
                c = c.max(pos(i) as u32 + 1);
            }
            col[i] = c;
        }
        for (k, &(x, y, _)) in pending.iter().enumerate() {
            if program.rank_of(x) == r {
                ordered[k] = col[y] as usize > pos(x);
            }
        }
    }
    pending
        .into_iter()
        .zip(ordered)
        .filter(|(_, ordered)| !ordered)
        .map(|((_, _, race), _)| race)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::schedule::{PpOp, ScheduleKind};

    fn check(sched: &PpSchedule) -> Vec<Diagnostic> {
        check_program(sched, &PpProgram::build(sched))
    }

    #[test]
    fn built_schedules_are_race_free() {
        for kind in [
            ScheduleKind::AllFwdAllBwd,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::Flexible { nc: 3 },
        ] {
            let sched = PpSchedule::build(kind, 4, 2, 8).unwrap();
            let diags = check(&sched);
            assert!(diags.is_empty(), "{kind:?}: {diags:?}");
        }
    }

    /// Rank 0 runs `B0.0` twice. When its first copy follows `B0.1`,
    /// a three-op path through rank 1 (`B[1.0]` → `B[1.1]` → `B[0.1]`)
    /// orders it after the gradient it reads; right after `B0.0` nothing
    /// does.
    #[test]
    fn a_path_through_another_rank_orders_the_pair() {
        let base = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
        let b0 = PpOp::Backward { chunk: 0, mb: 0 };
        let b1 = PpOp::Backward { chunk: 0, mb: 1 };
        let f = |mb| PpOp::Forward { chunk: 0, mb };
        let mut ordered = base.clone();
        ordered.ranks[0] = vec![f(0), f(1), b1, b0, b0];
        assert!(check(&ordered).is_empty());
        let mut racy = base;
        racy.ranks[0] = vec![f(0), f(1), b0, b0, b1];
        let races = unordered_pairs(&racy, &PpProgram::build(&racy));
        assert_eq!(
            races,
            [Race {
                lane: Lane::Grad { stage: 1, mb: 0 },
                a: 2,
                a_writes: false,
                b: 7,
                b_writes: true,
            }]
        );
    }
}
