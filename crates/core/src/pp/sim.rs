//! Timing pipeline schedules.
//!
//! [`PpProgram`] is the one pipeline dependency structure: a schedule
//! and its costs compiled once into flat per-compute-op arrays. Timing
//! runs it as a linear pass per set of per-rank compute scales
//! ([`simulate_pp`], the folded step, the full-fidelity step with one
//! pass per DP replica, and the pipeline trace), the pre-flight
//! deadlock and race rules read its edges and its Kahn order, and a
//! schedule whose op order cannot execute is reported from the ops that
//! order leaves out. The conformance crate lowers the same schedule
//! onto the timing-graph engine, with every cross-stage transfer as an
//! op on its own link stream (Fig 3), and checks the program against it.

use super::schedule::{PpOp, PpSchedule};
use sim_engine::graph::{GraphError, OpId};
use sim_engine::time::{SimDuration, SimTime};
use std::ops::Range;

/// Per-op costs of a pipeline schedule.
pub trait PpCostModel {
    /// Forward compute time of global stage `stage` for micro-batch `mb`.
    fn fwd(&self, stage: u32, mb: u32) -> SimDuration;
    /// Backward compute time of global stage `stage` for micro-batch `mb`.
    fn bwd(&self, stage: u32, mb: u32) -> SimDuration;
    /// P2P time for the activation/gradient between stage `s` and `s+1`
    /// (zero-cost models are allowed).
    fn p2p(&self, from_stage: u32) -> SimDuration;
}

/// A uniform cost model: every stage costs the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformCosts {
    /// Forward time per stage per micro-batch.
    pub fwd: SimDuration,
    /// Backward time per stage per micro-batch.
    pub bwd: SimDuration,
    /// P2P time between adjacent stages.
    pub p2p: SimDuration,
}

impl UniformCosts {
    /// Every op and transfer free. The static analyses compile with it:
    /// which op waits on which does not depend on durations.
    pub const FREE: UniformCosts = UniformCosts {
        fwd: SimDuration::ZERO,
        bwd: SimDuration::ZERO,
        p2p: SimDuration::ZERO,
    };
}

impl PpCostModel for UniformCosts {
    fn fwd(&self, _stage: u32, _mb: u32) -> SimDuration {
        self.fwd
    }
    fn bwd(&self, _stage: u32, _mb: u32) -> SimDuration {
        self.bwd
    }
    fn p2p(&self, _from_stage: u32) -> SimDuration {
        self.p2p
    }
}

/// Per-stage table-driven cost model (used for imbalanced stages:
/// embedding/output-head heavy first/last stages, §3.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TableCosts {
    /// Forward time per stage.
    pub fwd: Vec<SimDuration>,
    /// Backward time per stage.
    pub bwd: Vec<SimDuration>,
    /// P2P time between adjacent stages.
    pub p2p: SimDuration,
}

impl PpCostModel for TableCosts {
    fn fwd(&self, stage: u32, _mb: u32) -> SimDuration {
        self.fwd[stage as usize]
    }
    fn bwd(&self, stage: u32, _mb: u32) -> SimDuration {
        self.bwd[stage as usize]
    }
    fn p2p(&self, _from_stage: u32) -> SimDuration {
        self.p2p
    }
}

/// Result of simulating a pipeline schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PpSimResult {
    /// End-to-end time of the pipelined batch.
    pub makespan: SimDuration,
    /// Per-rank total compute (forward + backward) time.
    pub compute: Vec<SimDuration>,
    /// Per-rank idle time within the makespan.
    pub idle: Vec<SimDuration>,
    /// Per-rank completion times of each op, in schedule order
    /// (`(start_ns, end_ns)` pairs) — used for memory replay.
    pub op_times: Vec<Vec<(u64, u64)>>,
}

impl PpSimResult {
    /// Per-rank bubble ratio: idle time over compute time (§3.1.1's
    /// definition of bubble ratio as idle over fwd+bwd compute).
    pub fn bubble_ratio(&self, rank: u32) -> f64 {
        let c = self.compute[rank as usize];
        if c.is_zero() {
            return 0.0;
        }
        self.idle[rank as usize].as_secs_f64() / c.as_secs_f64()
    }

    /// Worst bubble ratio across ranks.
    pub fn max_bubble_ratio(&self) -> f64 {
        (0..self.compute.len() as u32)
            .map(|r| self.bubble_ratio(r))
            .fold(0.0, f64::max)
    }
}

/// Simulates `schedule` under `costs`: compiles it into a
/// [`PpProgram`] and runs one unscaled pass.
///
/// # Errors
/// Returns [`GraphError::Deadlock`] (see [`PpProgram::compile`]) if the
/// schedule's per-rank op orders cannot execute — the validation
/// §3.1.1's flexible schedule generator is tested against.
pub fn simulate_pp(
    schedule: &PpSchedule,
    costs: &dyn PpCostModel,
) -> Result<PpSimResult, GraphError> {
    let program = PpProgram::compile(schedule, costs)?;
    let mut t = PpTiming::default();
    program.run(&[], &mut t);
    let op_times = (0..schedule.pp)
        .map(|r| {
            program
                .rank_ops(r)
                .map(|i| (t.start[i].as_nanos(), t.end[i].as_nanos()))
                .collect()
        })
        .collect();
    let idle = t
        .compute
        .iter()
        .map(|&c| t.makespan.saturating_sub(c))
        .collect();
    Ok(PpSimResult {
        makespan: t.makespan,
        compute: t.compute,
        idle,
        op_times,
    })
}

/// "No such op" in [`PpProgram`]'s predecessor arrays.
const NONE: u32 = u32::MAX;

/// A pipeline schedule and its costs compiled into flat per-compute-op
/// arrays, timed by one linear pass per set of per-rank compute scales.
///
/// Ops are numbered rank-major in program order: rank 0's ops in the
/// order it runs them, then rank 1's, and so on. Each op waits on at
/// most two others: the previous op on its rank's compute stream, and
/// its data producer (the previous stage's forward, the next stage's
/// backward, or — for the last stage's backward — its own forward).
/// When a schedule runs one op twice, only the last copy is wired. A
/// P2P transfer has a link of its own, so it adds exactly its duration
/// to that one edge. A pass over a topological order is therefore
/// exact:
///
/// `end = max(end[stream pred], end[data pred] + latency) + scaled(base, rank scale)`
///
/// in integer nanoseconds, and it equals the event engine's timing of
/// the same schedule with each transfer as an op on its own link
/// stream, bit for bit, without building or executing a graph. The
/// same reasoning makes the program's happens-before relation the
/// engine's: a transfer never changes which ops reach which.
#[derive(Debug, Clone)]
pub struct PpProgram {
    pp: u32,
    /// First op of each rank, plus the op count at index `pp`.
    rank_start: Vec<u32>,
    /// Pipeline rank running the op.
    rank: Vec<u32>,
    /// Index of the op's base duration in `bases`.
    base: Vec<u32>,
    /// Distinct `(rank, unscaled compute duration)` pairs. A pass
    /// scales each once, not once per op: the ops of one stage and
    /// direction usually share a cost.
    bases: Vec<(u32, SimDuration)>,
    /// Previous op on the same compute stream, or [`NONE`].
    stream_pred: Vec<u32>,
    /// Op producing this op's input, or [`NONE`].
    data_pred: Vec<u32>,
    /// P2P time on the data edge (zero for the loss turn-around).
    latency: Vec<SimDuration>,
    /// Ops whose producer no rank schedules, in program order. They,
    /// and every op that waits on them, never run.
    unresolved: Vec<u32>,
    /// Kahn's topological order of the ops that can run: every op when
    /// the schedule executes, fewer when it deadlocks.
    order: Vec<u32>,
}

/// Per-op times of one [`PpProgram::run`] pass. The buffers are reused
/// by the next pass, so timing many DP replicas allocates nothing after
/// the first.
#[derive(Debug, Clone, Default)]
pub struct PpTiming {
    /// Start of each compute op, by program index.
    pub start: Vec<SimTime>,
    /// End of each compute op, by program index.
    pub end: Vec<SimTime>,
    /// Per-rank total compute time.
    pub compute: Vec<SimDuration>,
    /// End of the last compute op: the pipeline makespan. A transfer
    /// is never last, since every transfer feeds a compute op.
    pub makespan: SimDuration,
    /// Scaled duration of each of the program's distinct base costs.
    dur: Vec<SimDuration>,
}

impl PpTiming {
    /// Rank `rank`'s bubble ratio in this pass: idle time within the
    /// makespan over compute time (0 when the rank computed nothing).
    pub fn bubble_ratio(&self, rank: u32) -> f64 {
        let c = self.compute[rank as usize];
        if c.is_zero() {
            return 0.0;
        }
        self.makespan.saturating_sub(c).as_secs_f64() / c.as_secs_f64()
    }
}

impl PpProgram {
    /// Compiles `schedule` under `costs`.
    ///
    /// # Errors
    /// Returns [`GraphError::Deadlock`] if the op orders admit no
    /// execution, naming the [stuck](Self::stuck) compute ops: those on
    /// a wait cycle, those waiting on a producer no rank schedules, and
    /// every op queued behind either.
    pub fn compile(
        schedule: &PpSchedule,
        costs: &dyn PpCostModel,
    ) -> Result<PpProgram, GraphError> {
        let p = PpProgram::build(schedule, costs);
        if p.is_complete() {
            Ok(p)
        } else {
            Err(GraphError::Deadlock(
                p.stuck().map(OpId::from_index).collect(),
            ))
        }
    }

    /// Compiles `schedule` under `costs` whether or not it can execute:
    /// missing and duplicated ops are accepted, and an op order that
    /// deadlocks leaves its stuck ops out of [`order`](Self::order).
    /// The pre-flight rules read such programs; only a
    /// [complete](Self::is_complete) one may be [run](Self::run).
    pub fn build(schedule: &PpSchedule, costs: &dyn PpCostModel) -> PpProgram {
        let n: usize = schedule.ranks.iter().map(Vec::len).sum();
        let stages = schedule.num_stages() as usize;
        let nmb = schedule.nmb as usize;
        let mut p = PpProgram {
            pp: schedule.pp,
            rank_start: Vec::with_capacity(schedule.ranks.len() + 1),
            rank: Vec::with_capacity(n),
            base: Vec::with_capacity(n),
            bases: Vec::new(),
            stream_pred: Vec::with_capacity(n),
            data_pred: vec![NONE; n],
            latency: vec![SimDuration::ZERO; n],
            unresolved: Vec::new(),
            order: Vec::with_capacity(n),
        };

        // Compute ops in per-rank program order; the last copy of each
        // `(stage, mb)` op is the one wired below.
        let mut fwd_ids = vec![NONE; stages * nmb];
        let mut bwd_ids = vec![NONE; stages * nmb];
        // Latest entry of `bases` per (stage, direction).
        let mut last_base = vec![NONE; stages * 2];
        for (ppr, ops) in schedule.ranks.iter().enumerate() {
            let first = p.rank.len() as u32;
            p.rank_start.push(first);
            for op in ops {
                let i = p.rank.len() as u32;
                let stage = schedule.stage_of(ppr as u32, op.chunk());
                let mb = op.mb();
                let (dur, slot, key) = match op {
                    PpOp::Forward { .. } => (costs.fwd(stage, mb), &mut fwd_ids, 2 * stage),
                    PpOp::Backward { .. } => (costs.bwd(stage, mb), &mut bwd_ids, 2 * stage + 1),
                };
                slot[stage as usize * nmb + mb as usize] = i;
                let b = &mut last_base[key as usize];
                if *b == NONE || p.bases[*b as usize] != (ppr as u32, dur) {
                    *b = p.bases.len() as u32;
                    p.bases.push((ppr as u32, dur));
                }
                p.base.push(*b);
                p.rank.push(ppr as u32);
                p.stream_pred.push(if i == first { NONE } else { i - 1 });
            }
        }
        p.rank_start.push(n as u32);

        // Data edges, with the P2P time of the transfer each one
        // crosses, in program order so unresolved producers are listed
        // in that order.
        let mut i = 0u32;
        for (ppr, ops) in schedule.ranks.iter().enumerate() {
            for op in ops {
                let stage = schedule.stage_of(ppr as u32, op.chunk()) as usize;
                let slot = stage * nmb + op.mb() as usize;
                let (own, input) = match op {
                    PpOp::Forward { .. } => (
                        fwd_ids[slot],
                        (stage > 0).then(|| (fwd_ids[slot - nmb], costs.p2p(stage as u32 - 1))),
                    ),
                    PpOp::Backward { .. } if stage == stages - 1 => {
                        (bwd_ids[slot], Some((fwd_ids[slot], SimDuration::ZERO)))
                    }
                    PpOp::Backward { .. } => (
                        bwd_ids[slot],
                        Some((bwd_ids[slot + nmb], costs.p2p(stage as u32))),
                    ),
                };
                match input {
                    Some((NONE, _)) if own == i => p.unresolved.push(i),
                    Some((producer, latency)) if own == i => {
                        p.data_pred[i as usize] = producer;
                        p.latency[i as usize] = latency;
                    }
                    _ => {}
                }
                i += 1;
            }
        }

        // Kahn's algorithm. Every op has at most one stream successor
        // (the next op on its rank); data successors go in a CSR arena.
        // An unresolved op keeps one wait that nothing meets.
        let mut unmet: Vec<u8> = (0..n)
            .map(|i| u8::from(p.stream_pred[i] != NONE) + u8::from(p.data_pred[i] != NONE))
            .collect();
        for &i in &p.unresolved {
            unmet[i as usize] += 1;
        }
        let mut heads = vec![0u32; n + 1];
        for &d in &p.data_pred {
            if d != NONE {
                heads[d as usize + 1] += 1;
            }
        }
        for i in 0..n {
            heads[i + 1] += heads[i];
        }
        let mut succ = vec![0u32; heads[n] as usize];
        let mut fill = heads[..n].to_vec();
        for (i, &d) in p.data_pred.iter().enumerate() {
            if d != NONE {
                succ[fill[d as usize] as usize] = i as u32;
                fill[d as usize] += 1;
            }
        }
        p.order
            .extend((0..n as u32).filter(|&i| unmet[i as usize] == 0));
        let mut next = 0;
        while let Some(&i) = p.order.get(next) {
            next += 1;
            let i = i as usize;
            let stream_succ = (i + 1 < n && p.stream_pred[i + 1] == i as u32).then_some(i + 1);
            let data_succ = succ[heads[i] as usize..heads[i + 1] as usize]
                .iter()
                .map(|&j| j as usize);
            for j in stream_succ.into_iter().chain(data_succ) {
                unmet[j] -= 1;
                if unmet[j] == 0 {
                    p.order.push(j as u32);
                }
            }
        }
        p
    }

    /// `true` when every op runs: the schedule executes.
    pub fn is_complete(&self) -> bool {
        self.order.len() == self.rank.len()
    }

    /// Kahn's topological order of the ops that can run (all of them
    /// when [complete](Self::is_complete)), as program indices.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The ops that never run, in program order: those waiting on an
    /// [unresolved](Self::unresolved) producer or on a cycle.
    pub fn stuck(&self) -> impl Iterator<Item = usize> + '_ {
        let mut runs = vec![false; self.rank.len()];
        for &i in &self.order {
            runs[i as usize] = true;
        }
        (0..self.rank.len()).filter(move |&i| !runs[i])
    }

    /// Ops waiting on a producer no rank schedules, in program order.
    pub fn unresolved(&self) -> impl Iterator<Item = usize> + '_ {
        self.unresolved.iter().map(|&i| i as usize)
    }

    /// The pipeline rank running op `i`.
    pub fn rank_of(&self, i: usize) -> u32 {
        self.rank[i]
    }

    /// The previous op on op `i`'s compute stream.
    pub fn stream_pred(&self, i: usize) -> Option<usize> {
        (self.stream_pred[i] != NONE).then_some(self.stream_pred[i] as usize)
    }

    /// The op producing op `i`'s input.
    pub fn data_pred(&self, i: usize) -> Option<usize> {
        (self.data_pred[i] != NONE).then_some(self.data_pred[i] as usize)
    }

    /// Number of compute ops.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// `true` for a schedule with no ops.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Program indices of rank `rank`'s ops, in the order it runs them.
    pub fn rank_ops(&self, rank: u32) -> Range<usize> {
        self.rank_start[rank as usize] as usize..self.rank_start[rank as usize + 1] as usize
    }

    /// Times one pass into `t`. `rank_scale[r]` multiplies rank `r`'s
    /// compute durations (per-rank jitter or throttling); an empty
    /// slice means no scaling, and transfers are never scaled.
    pub fn run(&self, rank_scale: &[f64], t: &mut PpTiming) {
        let n = self.rank.len();
        t.dur.clear();
        t.dur.extend(
            self.bases
                .iter()
                .map(|&(r, d)| scaled(d, rank_scale.get(r as usize).copied().unwrap_or(1.0))),
        );
        t.start.clear();
        t.start.resize(n, SimTime::ZERO);
        t.end.clear();
        t.end.resize(n, SimTime::ZERO);
        t.compute.clear();
        t.compute.resize(self.pp as usize, SimDuration::ZERO);
        let mut last = SimTime::ZERO;
        for &i in &self.order {
            let i = i as usize;
            let mut start = match self.stream_pred[i] {
                NONE => SimTime::ZERO,
                s => t.end[s as usize],
            };
            let d = self.data_pred[i];
            if d != NONE {
                start = start.max(t.end[d as usize] + self.latency[i]);
            }
            let r = self.rank[i] as usize;
            let end = start + t.dur[self.base[i] as usize];
            t.start[i] = start;
            t.end[i] = end;
            t.compute[r] += end.saturating_since(start);
            last = last.max(end);
        }
        t.makespan = last.saturating_since(SimTime::ZERO);
    }
}

fn scaled(d: SimDuration, scale: f64) -> SimDuration {
    // Exact when unscaled: the DP-folding identity relies on a 1.0
    // multiplier reproducing the duration bit-for-bit.
    if scale == 1.0 {
        d
    } else {
        d.scale(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::schedule::ScheduleKind;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn uniform(p2p_us: u64) -> UniformCosts {
        UniformCosts {
            fwd: us(100),
            bwd: us(200),
            p2p: us(p2p_us),
        }
    }

    /// Every schedule family must execute without deadlock across a
    /// sweep of shapes — the core §3.1.1 guarantee.
    #[test]
    fn schedules_are_deadlock_free_across_shapes() {
        for pp in [2u32, 3, 4] {
            for v in [1u32, 2, 3] {
                for nmb in [1u32, 2, 5, 8, 12] {
                    for nc in 1..=nmb {
                        let s =
                            PpSchedule::build(ScheduleKind::Flexible { nc }, pp, v, nmb).unwrap();
                        s.assert_well_formed();
                        let r = simulate_pp(&s, &uniform(5));
                        assert!(
                            r.is_ok(),
                            "deadlock at pp={pp} v={v} nmb={nmb} nc={nc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_pipeline_bound() {
        // Makespan is at least (fwd+bwd)·nmb·v (one rank's work) and
        // approaches it as nmb grows.
        let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 32).unwrap();
        let r = simulate_pp(&s, &uniform(0)).unwrap();
        let work = us(300) * (32 * 2) as u64;
        assert!(r.makespan >= work);
        assert!(r.makespan.as_secs_f64() < work.as_secs_f64() * 1.25);
    }

    #[test]
    fn measured_bubble_tracks_analytic_formula() {
        // Bubble ratio ≈ (pp−1)/nmb/v for the interleaved schedule
        // with zero-cost P2P.
        for (pp, v, nmb) in [(4u32, 2u32, 16u32), (4, 2, 32), (8, 2, 32)] {
            let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, pp, v, nmb).unwrap();
            let r = simulate_pp(&s, &uniform(0)).unwrap();
            let analytic = s.analytic_bubble_ratio();
            let measured = r.bubble_ratio(0);
            assert!(
                (measured - analytic).abs() < analytic * 0.8 + 0.02,
                "pp={pp} v={v} nmb={nmb}: measured {measured}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn more_microbatches_shrink_bubble() {
        let cost = uniform(0);
        let small = simulate_pp(
            &PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 8).unwrap(),
            &cost,
        )
        .unwrap();
        let large = simulate_pp(
            &PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 32).unwrap(),
            &cost,
        )
        .unwrap();
        assert!(large.max_bubble_ratio() < small.max_bubble_ratio());
    }

    #[test]
    fn exposed_p2p_slows_1f1b_and_extra_warmup_hides_it() {
        // Fig 3: with significant P2P cost, nc > pp (extra warm-up
        // micro-batches) reduces the makespan versus nc = pp.
        let cost = uniform(60); // P2P comparable to compute
        let nmb = 12;
        let classic = simulate_pp(
            &PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, nmb).unwrap(),
            &cost,
        )
        .unwrap();
        let extra = simulate_pp(
            &PpSchedule::build(ScheduleKind::Flexible { nc: 6 }, 4, 2, nmb).unwrap(),
            &cost,
        )
        .unwrap();
        assert!(
            extra.makespan < classic.makespan,
            "extra-warmup {} should beat classic {}",
            extra.makespan,
            classic.makespan
        );
    }

    #[test]
    fn afab_fastest_but_memory_heaviest_with_exposed_p2p() {
        // Fig 9's ordering: AFAB ≥ flexible ≥ 1F1B in throughput;
        // reverse in memory.
        let cost = uniform(60);
        let nmb = 12;
        let s_1f1b = PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, nmb).unwrap();
        let s_flex = PpSchedule::build(ScheduleKind::Flexible { nc: 6 }, 4, 2, nmb).unwrap();
        let s_afab = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 4, 2, nmb).unwrap();
        let t_1f1b = simulate_pp(&s_1f1b, &cost).unwrap().makespan;
        let t_flex = simulate_pp(&s_flex, &cost).unwrap().makespan;
        let t_afab = simulate_pp(&s_afab, &cost).unwrap().makespan;
        assert!(t_afab <= t_flex, "afab {t_afab} vs flex {t_flex}");
        assert!(t_flex < t_1f1b, "flex {t_flex} vs 1f1b {t_1f1b}");
        assert!(s_1f1b.peak_in_flight(0) < s_flex.peak_in_flight(0));
        assert!(s_flex.peak_in_flight(0) < s_afab.peak_in_flight(0));
    }

    #[test]
    fn heavy_last_stage_creates_bubbles_on_others() {
        // §3.1.2: an unbalanced heavy last stage (output head) slows
        // the whole pipeline.
        let pp = 4u32;
        let v = 1u32;
        let nmb = 16;
        let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, pp, v, nmb).unwrap();
        let stages = (pp * v) as usize;
        let mut fwd = vec![us(100); stages];
        let mut bwd = vec![us(200); stages];
        fwd[stages - 1] = us(180);
        bwd[stages - 1] = us(360);
        let heavy = TableCosts {
            fwd,
            bwd,
            p2p: SimDuration::ZERO,
        };
        let balanced = uniform(0);
        let r_heavy = simulate_pp(&s, &heavy).unwrap();
        let r_bal = simulate_pp(&s, &balanced).unwrap();
        assert!(r_heavy.makespan > r_bal.makespan);
        // Rank 0 idles waiting on the heavy tail.
        assert!(r_heavy.bubble_ratio(0) > r_bal.bubble_ratio(0));
    }

    #[test]
    fn single_microbatch_serializes() {
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 1 }, 4, 1, 1).unwrap();
        let r = simulate_pp(&s, &uniform(0)).unwrap();
        // 4 forwards then 4 backwards in sequence.
        assert_eq!(r.makespan, us(100) * 4 + us(200) * 4);
    }

    /// Re-running a program reuses the timing buffers and gives the
    /// same answer; a scale of exactly 1 is the unscaled pass.
    #[test]
    fn passes_are_repeatable_and_unit_scale_is_exact() {
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 3 }, 4, 2, 8).unwrap();
        let program = PpProgram::compile(&s, &uniform(5)).unwrap();
        let (mut a, mut b) = (PpTiming::default(), PpTiming::default());
        program.run(&[], &mut a);
        program.run(&[1.3, 1.0, 1.1, 1.2], &mut b);
        assert!(b.makespan > a.makespan);
        program.run(&[1.0; 4], &mut b);
        assert_eq!((a.start, a.end, a.compute), (b.start, b.end, b.compute));
    }

    /// A schedule missing a producer compiles to a deadlock naming the
    /// compute ops that can never start, instead of panicking. Rank 0
    /// drops `F0.1`, so rank 1's `F0.1` waits forever, with every op
    /// queued behind it on rank 1 and every backward on rank 0.
    #[test]
    fn missing_producer_is_a_deadlock() {
        let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
        s.ranks[0].retain(|op| *op != PpOp::Forward { chunk: 0, mb: 1 });
        for p2p in [0, 5] {
            let program = PpProgram::build(&s, &uniform(p2p));
            assert_eq!(program.unresolved().collect::<Vec<_>>(), [4]);
            // Rank 0 runs F0.0 B0.0 B0.1 (ops 0-2); rank 1 runs F0.0
            // F0.1 B0.0 B0.1 (ops 3-6).
            let stuck = [1, 2, 4, 5, 6].map(OpId::from_index).to_vec();
            assert_eq!(program.stuck().collect::<Vec<_>>(), [1, 2, 4, 5, 6]);
            let expected = GraphError::Deadlock(stuck);
            assert_eq!(PpProgram::compile(&s, &uniform(p2p)).unwrap_err(), expected);
            assert_eq!(simulate_pp(&s, &uniform(p2p)).unwrap_err(), expected);
        }
    }
}
