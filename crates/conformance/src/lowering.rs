//! The engine reference for pipeline schedules.
//!
//! [`lower_pp`] lowers a schedule onto the timing-graph engine: each
//! pipeline rank gets a compute stream, and every cross-stage
//! activation (or gradient) transfer becomes a point-to-point op on its
//! own link stream, so transfers overlap with compute and with each
//! other — exposing P2P only where the schedule actually has to wait
//! for data (Fig 3). The simulator times schedules with
//! [`PpProgram`](parallelism_core::pp::sim::PpProgram) instead; oracles
//! 1 and 12 check the program against this lowering.

use parallelism_core::pp::sim::PpCostModel;
use parallelism_core::pp::{PpOp, PpSchedule};
use sim_engine::graph::{ExecutedGraph, GraphError, OpId, StreamId, TaskGraph};
use sim_engine::time::SimDuration;

/// Metadata attached to each op in the lowered graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpSimOp {
    /// Forward compute of `(stage, mb)` on `rank`.
    Forward {
        /// Pipeline rank.
        rank: u32,
        /// Global stage index.
        stage: u32,
        /// Micro-batch.
        mb: u32,
    },
    /// Backward compute of `(stage, mb)` on `rank`.
    Backward {
        /// Pipeline rank.
        rank: u32,
        /// Global stage index.
        stage: u32,
        /// Micro-batch.
        mb: u32,
    },
    /// P2P transfer between adjacent ranks.
    Transfer,
}

/// Graph capacity (ops, streams) needed to lower one copy of `schedule`:
/// 2 compute ops per (stage, micro-batch) plus up to 2 transfers each;
/// one compute stream per rank plus one link stream per transfer.
pub fn lowering_capacity(schedule: &PpSchedule) -> (usize, usize) {
    let ops = schedule.num_stages() as usize * schedule.nmb as usize * 4;
    (ops, schedule.pp as usize + ops / 2)
}

/// Handle to one pipeline instance lowered into a task graph by
/// [`lower_pp`].
#[derive(Debug, Clone)]
pub struct PpLowering {
    /// One compute stream per pipeline rank, in rank order.
    pub compute_streams: Vec<StreamId>,
}

/// `d` scaled by `scale`, rounded as `PpProgram::run` rounds it: a
/// scale of exactly 1 leaves the duration untouched.
fn scaled(d: SimDuration, scale: f64) -> SimDuration {
    if scale == 1.0 {
        d
    } else {
        d.scale(scale)
    }
}

/// Lowers one instance of `schedule` under `costs` into `g`, which may
/// already hold other instances (the full-fidelity step reference adds
/// one per DP replica plus cross-replica DP collectives).
///
/// The compute ops come first, rank-major in program order, so on an
/// empty graph compute op `i` is the program's op `i`. A schedule that
/// runs one op twice has only the last copy wired, as in the program.
///
/// `rank_scale[r]` multiplies rank `r`'s *compute* durations (per-rank
/// jitter/straggler injection); an empty slice means no scaling, and
/// transfers are never scaled. `meta` wraps each op's [`PpSimOp`] into
/// the graph's metadata type, letting callers tag ops with a replica
/// index.
pub fn lower_pp<M>(
    g: &mut TaskGraph<M>,
    schedule: &PpSchedule,
    costs: &dyn PpCostModel,
    rank_scale: &[f64],
    mut meta: impl FnMut(PpSimOp) -> M,
) -> PpLowering {
    let pp = schedule.pp;
    let last_stage = schedule.num_stages() - 1;
    let compute_streams = g.add_streams(pp as usize);

    // First pass: create compute ops in per-rank program order.
    let mut fwd_ids: Vec<Vec<Option<OpId>>> =
        vec![vec![None; schedule.nmb as usize]; schedule.num_stages() as usize];
    let mut bwd_ids: Vec<Vec<Option<OpId>>> =
        vec![vec![None; schedule.nmb as usize]; schedule.num_stages() as usize];
    for (ppr, ops) in schedule.ranks.iter().enumerate() {
        let stream = compute_streams[ppr];
        let scale = rank_scale.get(ppr).copied().unwrap_or(1.0);
        for op in ops {
            let stage = schedule.stage_of(ppr as u32, op.chunk());
            let (kind, dur, ids) = match op {
                PpOp::Forward { mb, .. } => (
                    PpSimOp::Forward {
                        rank: ppr as u32,
                        stage,
                        mb: *mb,
                    },
                    costs.fwd(stage, *mb),
                    &mut fwd_ids,
                ),
                PpOp::Backward { mb, .. } => (
                    PpSimOp::Backward {
                        rank: ppr as u32,
                        stage,
                        mb: *mb,
                    },
                    costs.bwd(stage, *mb),
                    &mut bwd_ids,
                ),
            };
            let id = g.add_op(meta(kind), scaled(dur, scale), [stream], []);
            ids[stage as usize][op.mb() as usize] = Some(id);
        }
    }

    // Second pass: wire data dependencies. A transfer that takes time
    // is an op on its own link stream (async send) between producer and
    // consumer. An edge whose producer or consumer no rank schedules is
    // left out, so such a schedule executes here while the program
    // reports it stuck; the references lower only schedules whose every
    // producer is scheduled.
    let mut wire =
        |g: &mut TaskGraph<M>, to: Option<OpId>, from: Option<OpId>, dur: SimDuration| {
            let (Some(to), Some(from)) = (to, from) else {
                return;
            };
            if dur.is_zero() {
                g.add_dep(to, from);
            } else {
                let link = g.add_stream();
                let t = g.add_op(meta(PpSimOp::Transfer), dur, [link], []);
                g.add_dep(t, from);
                g.add_dep(to, t);
            }
        };
    for stage in 0..schedule.num_stages() {
        for mb in 0..schedule.nmb as usize {
            let s = stage as usize;
            let (f, b) = (fwd_ids[s][mb], bwd_ids[s][mb]);
            if stage > 0 {
                wire(g, f, fwd_ids[s - 1][mb], costs.p2p(stage - 1));
            }
            if stage == last_stage {
                wire(g, b, f, SimDuration::ZERO);
            } else {
                wire(g, b, bwd_ids[s + 1][mb], costs.p2p(stage));
            }
        }
    }

    PpLowering { compute_streams }
}

/// Lowers `schedule` alone onto an empty graph and executes it.
///
/// # Errors
/// The engine's [`GraphError::Deadlock`], naming every unexecuted op,
/// transfers included.
pub fn execute_pp(
    schedule: &PpSchedule,
    costs: &dyn PpCostModel,
    rank_scale: &[f64],
) -> Result<ExecutedGraph<PpSimOp>, GraphError> {
    let (ops, streams) = lowering_capacity(schedule);
    let mut g: TaskGraph<PpSimOp> = TaskGraph::with_capacity(ops, streams);
    lower_pp(&mut g, schedule, costs, rank_scale, |op| op);
    g.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{engine_deadlock_matches_program, program_vs_engine};
    use parallelism_core::pp::sim::{simulate_pp, PpProgram, TableCosts, UniformCosts};
    use parallelism_core::pp::ScheduleKind;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// The compiled program reproduces the engine's start and end of
    /// every compute op bit for bit, for every schedule family, with
    /// zero and non-zero P2P, imbalanced stages, and unit or
    /// non-uniform per-rank scales; and the compute ops are the graph's
    /// first ops, in program order.
    #[test]
    fn program_matches_engine_op_for_op() {
        let kinds = [
            ScheduleKind::AllFwdAllBwd,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::Flexible { nc: 1 },
            ScheduleKind::Flexible { nc: 3 },
            ScheduleKind::Flexible { nc: 8 },
        ];
        for kind in kinds {
            for (pp, v) in [(1u32, 2u32), (2, 1), (4, 2), (3, 3)] {
                let nmb = 8 * pp;
                let s = PpSchedule::build(kind, pp, v, nmb).unwrap();
                let stages = (pp * v) as usize;
                for p2p in [0, 7] {
                    let costs = TableCosts {
                        fwd: (0..stages).map(|i| us(90 + 13 * i as u64)).collect(),
                        bwd: (0..stages).map(|i| us(170 + 29 * i as u64)).collect(),
                        p2p: us(p2p),
                    };
                    let program = PpProgram::compile(&s, &costs).unwrap();
                    assert_eq!(program.len(), stages * nmb as usize * 2);
                    let skewed: Vec<f64> = (0..pp).map(|r| 1.0 + 0.037 * f64::from(r)).collect();
                    for scales in [&[][..], &skewed] {
                        let ctx = format!("{kind:?} pp={pp} v={v} p2p={p2p} scales={scales:?}");
                        program_vs_engine(&s, &costs, scales)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    }
                }
            }
        }
    }

    /// A hand-broken schedule — rank 0 runs micro-batch 0's backward
    /// before the forward it depends on — is a deadlock. The program
    /// names exactly the compute ops the engine leaves unexecuted; with
    /// P2P time the engine also names the transfers between them.
    #[test]
    fn broken_schedule_reports_the_engine_deadlock() {
        for p2p in [0, 5] {
            let costs = UniformCosts {
                fwd: us(100),
                bwd: us(200),
                p2p: us(p2p),
            };
            let mut s = PpSchedule::build(ScheduleKind::Flexible { nc: 2 }, 2, 1, 4).unwrap();
            let b0 = s.ranks[0]
                .iter()
                .position(|op| matches!(op, PpOp::Backward { mb: 0, .. }))
                .unwrap();
            let op = s.ranks[0].remove(b0);
            s.ranks[0].insert(0, op);
            let GraphError::Deadlock(engine) = execute_pp(&s, &costs, &[]).unwrap_err();
            let GraphError::Deadlock(stuck) = simulate_pp(&s, &costs).unwrap_err();
            assert!(!stuck.is_empty());
            assert_eq!(engine.len() > stuck.len(), p2p > 0, "p2p {p2p}");
            assert_eq!(
                PpProgram::compile(&s, &costs).unwrap_err(),
                GraphError::Deadlock(stuck)
            );
            engine_deadlock_matches_program(&s, &costs).unwrap();
        }
    }
}
