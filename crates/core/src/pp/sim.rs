//! Timing pipeline schedules.
//!
//! [`PpProgram`] is the one pipeline dependency structure: a schedule's
//! shape compiled once into flat per-compute-op arrays — which op waits
//! on which, and which `(stage, direction)` cost each op pays. Costs
//! bind when it runs: a pass takes a [`TableCosts`] and one or more
//! sets of per-rank compute scales and times the program into a
//! [`PpTiming`], the one timing result: the folded step, the
//! full-fidelity step with up to [`LANES`] DP replicas per pass, its
//! critical replica's trace, and every caller that times a bare
//! schedule. The pre-flight deadlock and race rules read the same
//! program's edges and its Kahn order, and a schedule whose op order
//! cannot execute is reported from the ops that order leaves out
//! ([`PpProgram::compile`]'s error). The conformance crate lowers the
//! same schedule onto the timing-graph engine, with every cross-stage
//! transfer as an op on its own link stream (Fig 3), and checks the
//! program against it.
//!
//! A program is a pure function of its schedule's shape (kind with
//! `nc`, `pp`, `v`, `nmb`), so every step, pre-flight verdict and
//! analysis of one shape shares one:
//! [`StepModel::program`](crate::step::StepModel::program) serves it
//! from a process-wide memo of at most [`PROGRAM_MEMO_OPS`] ops, most
//! recently used first ([`program_cache_stats`] counts its traffic).
//! The memo is keyed by the shape, not by a schedule: a hit builds no
//! schedule, and only a miss builds the shape's schedule, once, to
//! compile it. A program also carries each rank's peak in-flight
//! micro-batch count ([`PpProgram::peak_in_flight`]), so a step's peak
//! memory needs no schedule either. Deadlocking shapes are memoized
//! like any other. A schedule built any other way (an edited copy, say)
//! is compiled on its own with [`PpProgram::compile`] or
//! [`PpProgram::build`].

use super::schedule::{PpOp, PpSchedule, ScheduleKind};
use collectives::sync::{lock_or_recover, Mutex};
use collectives::CacheStats;
use sim_engine::graph::{GraphError, OpId};
use sim_engine::time::{SimDuration, SimTime};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::{Arc, LazyLock};

/// The costs a [`PpProgram`] pass binds: per-stage forward and backward
/// compute times for one micro-batch (imbalanced first/last stages
/// carry the embedding and output head, §3.1.2) and the P2P time of
/// every cross-stage transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCosts {
    /// Forward time per stage.
    pub fwd: Vec<SimDuration>,
    /// Backward time per stage.
    pub bwd: Vec<SimDuration>,
    /// P2P time between adjacent stages.
    pub p2p: SimDuration,
}

impl TableCosts {
    /// `stages` stages that each cost `fwd` forward and `bwd` backward.
    pub fn uniform(stages: u32, fwd: SimDuration, bwd: SimDuration, p2p: SimDuration) -> Self {
        TableCosts {
            fwd: vec![fwd; stages as usize],
            bwd: vec![bwd; stages as usize],
            p2p,
        }
    }
}

/// "No such op" in [`PpProgram`]'s `data` words (the low 31 bits).
const NONE: u32 = u32::MAX >> 1;
/// Set in a `slot` word when the op is the first on its rank, so it
/// has no stream predecessor; every other op waits on op `i − 1`.
const FIRST: u32 = 1 << 31;
/// Set in a `data` word when the data edge crosses a link and so pays
/// P2P time (not the loss turn-around).
const CROSSES: u32 = 1 << 31;

/// A pipeline schedule's shape compiled into flat per-compute-op
/// arrays, timed under a [`TableCosts`] by linear passes over sets of
/// per-rank compute scales ([`run`](Self::run) for one,
/// [`run_lanes`](Self::run_lanes) for several at once). Nothing in it
/// depends on a cost, so one program serves every cost binding.
///
/// Ops are numbered rank-major in program order: rank 0's ops in the
/// order it runs them, then rank 1's, and so on. Each op waits on at
/// most two others: the previous op on its rank's compute stream, and
/// its data producer (the previous stage's forward, the next stage's
/// backward, or — for the last stage's backward — its own forward).
/// When a schedule runs one op twice, only the last copy is wired. A
/// P2P transfer has a link of its own, so it adds exactly the bound
/// P2P time to a data edge that crosses a link, and nothing to the loss
/// turn-around. A pass over a topological order is therefore exact:
///
/// `end = max(end[stream pred], end[data pred] + hop) + scaled(cost, rank scale)`
///
/// with `hop` the edge's P2P time (zero on the turn-around) and `cost`
/// the op's `(stage, direction)` cost, in integer nanoseconds. It
/// equals the event engine's timing of the same schedule with each
/// transfer as an op on its own link stream, bit for bit, without
/// building or executing a graph. The
/// same reasoning makes the program's happens-before relation the
/// engine's: a transfer never changes which ops reach which.
///
/// # Layout
///
/// Four `u32` words per op, 16 bytes: one record of its rank, its cost
/// slot with a first-on-rank bit (the stream predecessor is otherwise
/// `i − 1`) and its data producer with a crosses-a-link bit, so a pass
/// loads an op's waits and slot together; and its place in Kahn's
/// order. Per rank there are two words more (where the rank's ops
/// start, its peak in-flight count), per cost slot one (how many ops
/// pay the slot), and one per op the schedule leaves unresolved. The
/// rank is stored, not derived from the slot, because the race rule
/// asks for it in its inner loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpProgram {
    pp: u32,
    /// Global stage count; a pass binds `2 · stages` cost slots.
    stages: u32,
    /// First op of each rank, plus the op count at index `pp`.
    rank_start: Vec<u32>,
    /// Each rank's peak in-flight micro-batch count, as
    /// [`PpSchedule::peak_in_flight`] replays it.
    peak_in_flight: Vec<u32>,
    /// Each op's rank, cost slot and data producer, in program order.
    ops: Vec<Op>,
    /// Ops paying each cost slot. A pass prices each rank's compute
    /// from these counts rather than per op.
    slot_ops: Vec<u32>,
    /// Ops whose producer no rank schedules, in program order. They,
    /// and every op that waits on them, never run.
    unresolved: Vec<u32>,
    /// Kahn's topological order of the ops that can run: every op when
    /// the schedule executes, fewer when it deadlocks.
    order: Vec<u32>,
}

/// One compute op of a [`PpProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    /// Pipeline rank running the op.
    rank: u32,
    /// The op's cost slot — `2·stage` for a forward, `2·stage + 1` for
    /// a backward — with [`FIRST`] set on the first op of each rank.
    slot: u32,
    /// Op producing this op's input, or [`NONE`], with [`CROSSES`] set
    /// when the edge pays P2P time.
    data: u32,
}

/// The most ops the process-wide program memo holds, summed over its
/// programs (16 bytes each, see [`PpProgram`]'s layout); a program
/// larger than this is built each time and never stored. It holds the
/// 405B / 8K-GPU production step's program (4,096 ops at `bs = 16`,
/// 8,192 at `bs = 32`). The bound is set by memory, not by hit rate:
/// on perfbench an unbounded memo raised `peak_rss_mib` by 15–21 % on
/// `train_step`, `search` and `daemon`, past the benchmark's 10 %
/// bound; at this budget each stayed within 4 %.
pub const PROGRAM_MEMO_OPS: usize = 16_384;

/// A schedule's shape: what [`PpSchedule::build`] builds it from, and
/// the program memo's key. Compared exactly, field by field (the kind
/// carries `nc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) kind: ScheduleKind,
    pub(crate) pp: u32,
    pub(crate) v: u32,
    pub(crate) nmb: u32,
}

impl Shape {
    /// The shape `schedule` was built from.
    pub(crate) fn of(schedule: &PpSchedule) -> Shape {
        Shape {
            kind: schedule.kind,
            pp: schedule.pp,
            v: schedule.v,
            nmb: schedule.nmb,
        }
    }
}

/// The program memo: programs most recently used first, within
/// [`PROGRAM_MEMO_OPS`], with lifetime hit and miss counts. Every
/// update leaves it valid, so a guard poisoned by a panicking thread is
/// taken as it is.
#[derive(Default)]
struct Programs {
    mru: Vec<(Shape, Arc<PpProgram>)>,
    hits: u64,
    misses: u64,
}

/// The process-wide program memo behind [`PpProgram::shared`].
struct ProgramMemo {
    programs: Mutex<Programs>,
}

static MEMO: LazyLock<ProgramMemo> = LazyLock::new(|| ProgramMemo {
    programs: Mutex::new(Programs::default()),
});

/// The program memo's lifetime hits and misses, and the programs it
/// holds now.
pub fn program_cache_stats() -> CacheStats {
    let p = lock_or_recover(&MEMO.programs);
    CacheStats {
        hits: p.hits,
        misses: p.misses,
        entries: p.mru.len(),
    }
}

/// Empties the program memo (counters kept). Programs are pure
/// functions of their shapes, so this only costs rebuilding them.
pub(crate) fn clear_program_cache() {
    lock_or_recover(&MEMO.programs).mru.clear();
}

/// Most DP replicas one full-fidelity [`PpProgram::run_lanes`] pass
/// times at once; one op's eight lane ends fill a 64-byte cache line.
pub const LANES: usize = 8;

/// Per-op times of one pass over `L` lanes, each lane one set of
/// per-rank compute scales (one DP replica). [`PpProgram::run`] is the
/// one-lane pass; the buffers are reused by the next pass, so timing
/// many DP replicas allocates nothing after the first.
#[derive(Debug, Clone)]
pub struct PpTiming<const L: usize = 1> {
    /// Start of each compute op, by program index. Only one-lane
    /// passes fill it; wider passes leave it empty.
    pub start: Vec<SimTime>,
    /// End of each compute op in each lane, by program index.
    pub end: Vec<[SimTime; L]>,
    /// Per-rank total compute time in each lane.
    pub compute: Vec<[SimDuration; L]>,
    /// End of each lane's last compute op: its pipeline makespan. A
    /// transfer is never last, since every transfer feeds a compute op.
    pub makespan: [SimDuration; L],
    /// Scaled duration of each of the program's cost slots, per lane.
    dur: Vec<[SimDuration; L]>,
}

impl<const L: usize> Default for PpTiming<L> {
    fn default() -> Self {
        PpTiming {
            start: Vec::new(),
            end: Vec::new(),
            compute: Vec::new(),
            makespan: [SimDuration::ZERO; L],
            dur: Vec::new(),
        }
    }
}

impl<const L: usize> PpTiming<L> {
    /// Rank `rank`'s bubble ratio in lane `lane`: idle time within the
    /// lane's makespan over its compute time (0 when the rank computed
    /// nothing).
    pub fn bubble_ratio(&self, lane: usize, rank: u32) -> f64 {
        let c = self.compute[rank as usize][lane];
        if c.is_zero() {
            return 0.0;
        }
        self.makespan[lane].saturating_sub(c).as_secs_f64() / c.as_secs_f64()
    }
}

impl PpProgram {
    /// Compiles `schedule`: [`build`](Self::build), then
    /// [`ensure_complete`](Self::ensure_complete).
    ///
    /// # Errors
    /// Returns [`GraphError::Deadlock`] if the op orders admit no
    /// execution, naming the [stuck](Self::stuck) compute ops: those on
    /// a wait cycle, those waiting on a producer no rank schedules, and
    /// every op queued behind either.
    pub fn compile(schedule: &PpSchedule) -> Result<PpProgram, GraphError> {
        let p = PpProgram::build(schedule);
        p.ensure_complete()?;
        Ok(p)
    }

    /// The program of `shape`'s schedule, built whether or not it can
    /// execute (as [`build`](Self::build)) and shared through the
    /// process-wide memo: the first call for a shape builds it, later
    /// calls return the same program until it is evicted. A hit builds
    /// no schedule. A miss calls `schedule` once for the schedule
    /// [`PpSchedule::build`] makes of `shape` (or its error, returned
    /// as is), compiles it and hands it back with the program, so a
    /// caller that needs the schedule too never builds it twice. The
    /// memo's lock is never held while a program is built; two threads
    /// missing on one shape both build it, and one copy is kept.
    /// [`StepModel::program`](crate::step::StepModel::program) is the
    /// public way in.
    pub(crate) fn shared<S: Borrow<PpSchedule>, E>(
        shape: Shape,
        schedule: impl FnOnce() -> Result<S, E>,
    ) -> Result<(Arc<PpProgram>, Option<S>), E> {
        {
            let mut memo = lock_or_recover(&MEMO.programs);
            if let Some(k) = memo.mru.iter().position(|(s, _)| *s == shape) {
                memo.hits += 1;
                memo.mru[..=k].rotate_right(1);
                return Ok((Arc::clone(&memo.mru[0].1), None));
            }
            memo.misses += 1;
        }
        let built = schedule()?;
        debug_assert_eq!(
            Shape::of(built.borrow()),
            shape,
            "a schedule of another shape"
        );
        let program = Arc::new(PpProgram::build(built.borrow()));
        if program.len() <= PROGRAM_MEMO_OPS {
            let mut memo = lock_or_recover(&MEMO.programs);
            if !memo.mru.iter().any(|(s, _)| *s == shape) {
                memo.mru.insert(0, (shape, Arc::clone(&program)));
                while memo.mru.iter().map(|(_, p)| p.len()).sum::<usize>() > PROGRAM_MEMO_OPS {
                    memo.mru.pop();
                }
            }
        }
        Ok((program, Some(built)))
    }

    /// Compiles `schedule` whether or not it can execute: missing and
    /// duplicated ops are accepted, and an op order that deadlocks
    /// leaves its stuck ops out of [`order`](Self::order). The
    /// pre-flight rules read such programs; only a
    /// [complete](Self::is_complete) one may be [run](Self::run).
    pub fn build(schedule: &PpSchedule) -> PpProgram {
        let n: usize = schedule.ranks.iter().map(Vec::len).sum();
        let stages = schedule.num_stages() as usize;
        let nmb = schedule.nmb as usize;
        let mut p = PpProgram {
            pp: schedule.pp,
            stages: schedule.num_stages(),
            rank_start: Vec::with_capacity(schedule.ranks.len() + 1),
            peak_in_flight: (0..schedule.ranks.len() as u32)
                .map(|r| schedule.peak_in_flight(r))
                .collect(),
            ops: Vec::with_capacity(n),
            slot_ops: vec![0; 2 * stages],
            unresolved: Vec::new(),
            order: Vec::with_capacity(n),
        };

        // Compute ops in per-rank program order; the last copy of each
        // `(stage, mb)` op is the one wired below.
        let mut fwd_ids = vec![NONE; stages * nmb];
        let mut bwd_ids = vec![NONE; stages * nmb];
        for (ppr, ops) in schedule.ranks.iter().enumerate() {
            let first = p.ops.len() as u32;
            p.rank_start.push(first);
            for op in ops {
                let i = p.ops.len() as u32;
                let stage = schedule.stage_of(ppr as u32, op.chunk());
                let (ids, slot) = match op {
                    PpOp::Forward { .. } => (&mut fwd_ids, 2 * stage),
                    PpOp::Backward { .. } => (&mut bwd_ids, 2 * stage + 1),
                };
                ids[stage as usize * nmb + op.mb() as usize] = i;
                p.slot_ops[slot as usize] += 1;
                p.ops.push(Op {
                    rank: ppr as u32,
                    slot: if i == first { slot | FIRST } else { slot },
                    data: NONE,
                });
            }
        }
        p.rank_start.push(n as u32);

        // Data edges, and whether each crosses a link, in program order
        // so unresolved producers are listed in that order.
        let mut i = 0u32;
        for (ppr, ops) in schedule.ranks.iter().enumerate() {
            for op in ops {
                let stage = schedule.stage_of(ppr as u32, op.chunk()) as usize;
                let slot = stage * nmb + op.mb() as usize;
                let (own, input) = match op {
                    PpOp::Forward { .. } => (
                        fwd_ids[slot],
                        (stage > 0).then(|| (fwd_ids[slot - nmb], CROSSES)),
                    ),
                    PpOp::Backward { .. } if stage == stages - 1 => {
                        (bwd_ids[slot], Some((fwd_ids[slot], 0)))
                    }
                    PpOp::Backward { .. } => (bwd_ids[slot], Some((bwd_ids[slot + nmb], CROSSES))),
                };
                match input {
                    Some((NONE, _)) if own == i => p.unresolved.push(i),
                    Some((producer, crosses)) if own == i => {
                        p.ops[i as usize].data = producer | crosses
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
            .map(|i| u8::from(p.ops[i].slot & FIRST == 0) + u8::from(p.ops[i].data != NONE))
            .collect();
        for &i in &p.unresolved {
            unmet[i as usize] += 1;
        }
        let mut heads = vec![0u32; n + 1];
        for &Op { data: d, .. } in &p.ops {
            if d != NONE {
                heads[(d & !CROSSES) as usize + 1] += 1;
            }
        }
        for i in 0..n {
            heads[i + 1] += heads[i];
        }
        let mut succ = vec![0u32; heads[n] as usize];
        let mut fill = heads[..n].to_vec();
        for (i, &Op { data: d, .. }) in p.ops.iter().enumerate() {
            if d != NONE {
                let d = (d & !CROSSES) as usize;
                succ[fill[d] as usize] = i as u32;
                fill[d] += 1;
            }
        }
        p.order
            .extend((0..n as u32).filter(|&i| unmet[i as usize] == 0));
        let mut next = 0;
        while let Some(&i) = p.order.get(next) {
            next += 1;
            let i = i as usize;
            let stream_succ = (i + 1 < n && p.ops[i + 1].slot & FIRST == 0).then_some(i + 1);
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
        self.order.len() == self.ops.len()
    }

    /// `Ok` when the program is [complete](Self::is_complete).
    ///
    /// # Errors
    /// [`GraphError::Deadlock`] naming the [stuck](Self::stuck) ops.
    pub fn ensure_complete(&self) -> Result<(), GraphError> {
        if self.is_complete() {
            Ok(())
        } else {
            Err(GraphError::Deadlock(
                self.stuck().map(OpId::from_index).collect(),
            ))
        }
    }

    /// Kahn's topological order of the ops that can run (all of them
    /// when [complete](Self::is_complete)), as program indices.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The ops that never run, in program order: those waiting on an
    /// [unresolved](Self::unresolved) producer or on a cycle.
    pub fn stuck(&self) -> impl Iterator<Item = usize> + '_ {
        let mut runs = vec![false; self.ops.len()];
        for &i in &self.order {
            runs[i as usize] = true;
        }
        (0..self.ops.len()).filter(move |&i| !runs[i])
    }

    /// Ops waiting on a producer no rank schedules, in program order.
    pub fn unresolved(&self) -> impl Iterator<Item = usize> + '_ {
        self.unresolved.iter().map(|&i| i as usize)
    }

    /// The pipeline rank running op `i`.
    pub fn rank_of(&self, i: usize) -> u32 {
        self.ops[i].rank
    }

    /// The previous op on op `i`'s compute stream.
    pub fn stream_pred(&self, i: usize) -> Option<usize> {
        (self.ops[i].slot & FIRST == 0).then(|| i - 1)
    }

    /// The op producing op `i`'s input.
    pub fn data_pred(&self, i: usize) -> Option<usize> {
        let d = self.ops[i].data & !CROSSES;
        (d != NONE).then_some(d as usize)
    }

    /// Number of compute ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for a schedule with no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Rank `rank`'s peak in-flight micro-batch count: the schedule's
    /// [`PpSchedule::peak_in_flight`], recorded when the program was
    /// built.
    pub fn peak_in_flight(&self, rank: u32) -> u32 {
        self.peak_in_flight[rank as usize]
    }

    /// Program indices of rank `rank`'s ops, in the order it runs them.
    pub fn rank_ops(&self, rank: u32) -> Range<usize> {
        self.rank_start[rank as usize] as usize..self.rank_start[rank as usize + 1] as usize
    }

    /// Times one pass under `costs` into `t`. `rank_scale[r]`
    /// multiplies rank `r`'s compute durations (per-rank jitter or
    /// throttling); an empty slice means no scaling, and transfers are
    /// never scaled. The one-lane instance of
    /// [`run_lanes`](Self::run_lanes), and the only one that records op
    /// starts.
    pub fn run(&self, costs: &TableCosts, rank_scale: &[f64], t: &mut PpTiming) {
        self.run_lanes(costs, [rank_scale], t);
    }

    /// Times `L` passes under `costs` at once into `t`, lane `k` under
    /// per-rank compute scales `rank_scale[k]` (as in [`run`](Self::run)).
    /// `costs` needs an entry for each of the schedule's stages. Each
    /// lane scales each `(stage, direction)` cost once; the walk over
    /// [`order`](Self::order) loads each op's edges and cost slot once
    /// for all lanes, and each lane does exactly the integer operations
    /// of a one-lane pass, so lane `k` equals `run(costs, rank_scale[k])`
    /// bit for bit.
    ///
    /// Per-rank compute is each slot's scaled cost times the ops paying
    /// it, which is the sum of those ops' durations short of saturating
    /// `u64` nanoseconds. The makespan is the latest of each rank's
    /// last op: a rank's ends never decrease along its stream.
    pub fn run_lanes<const L: usize>(
        &self,
        costs: &TableCosts,
        rank_scale: [&[f64]; L],
        t: &mut PpTiming<L>,
    ) {
        debug_assert!(self.is_complete(), "only a complete program runs");
        let pp = self.pp as usize;
        t.dur.clear();
        for s in 0..self.stages as usize {
            // Stage `s` runs on rank `s mod pp` (interleaved placement).
            let r = s % pp;
            for d in [costs.fwd[s], costs.bwd[s]] {
                t.dur
                    .push(rank_scale.map(|sc| scaled(d, sc.get(r).copied().unwrap_or(1.0))));
            }
        }
        // Nothing is cleared: the pass follows a topological order of
        // every op, so each end is written before an op reads it.
        let n = self.ops.len();
        t.end.resize(n, [SimTime::ZERO; L]);
        t.start.resize(if L == 1 { n } else { 0 }, SimTime::ZERO);
        for &i in &self.order {
            let i = i as usize;
            let Op { slot, data: d, .. } = self.ops[i];
            let mut start = if slot & FIRST == 0 {
                t.end[i - 1]
            } else {
                [SimTime::ZERO; L]
            };
            if d != NONE {
                let ready = &t.end[(d & !CROSSES) as usize];
                let hop = if d & CROSSES == 0 {
                    SimDuration::ZERO
                } else {
                    costs.p2p
                };
                for (s, &e) in start.iter_mut().zip(ready) {
                    *s = (*s).max(e + hop);
                }
            }
            let dur = &t.dur[(slot & !FIRST) as usize];
            t.end[i] = std::array::from_fn(|k| start[k] + dur[k]);
            if L == 1 {
                t.start[i] = start[0];
            }
        }
        t.compute.clear();
        t.compute.resize(pp, [SimDuration::ZERO; L]);
        for (s, (dur, &ops)) in t.dur.iter().zip(&self.slot_ops).enumerate() {
            for (c, &d) in t.compute[(s / 2) % pp].iter_mut().zip(dur) {
                *c += d * u64::from(ops);
            }
        }
        let mut last = [SimTime::ZERO; L];
        for r in 0..self.pp {
            if let Some(i) = self.rank_ops(r).last() {
                for (l, &e) in last.iter_mut().zip(&t.end[i]) {
                    *l = (*l).max(e);
                }
            }
        }
        t.makespan = last.map(|e| e.saturating_since(SimTime::ZERO));
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

    /// 100 µs forward and 200 µs backward on each of `s`'s stages.
    fn uniform(s: &PpSchedule, p2p_us: u64) -> TableCosts {
        TableCosts::uniform(s.num_stages(), us(100), us(200), us(p2p_us))
    }

    /// One unscaled pass over `s` under `costs`.
    fn timed(s: &PpSchedule, costs: &TableCosts) -> Result<PpTiming, GraphError> {
        let mut t = PpTiming::default();
        PpProgram::compile(s)?.run(costs, &[], &mut t);
        Ok(t)
    }

    fn makespan(s: &PpSchedule, costs: &TableCosts) -> SimDuration {
        timed(s, costs).unwrap().makespan[0]
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
                        let r = PpProgram::compile(&s);
                        assert!(r.is_ok(), "deadlock at pp={pp} v={v} nmb={nmb} nc={nc}");
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
        let makespan = makespan(&s, &uniform(&s, 0));
        let work = us(300) * (32 * 2) as u64;
        assert!(makespan >= work);
        assert!(makespan.as_secs_f64() < work.as_secs_f64() * 1.25);
    }

    #[test]
    fn measured_bubble_tracks_analytic_formula() {
        // Bubble ratio ≈ (pp−1)/nmb/v for the interleaved schedule
        // with zero-cost P2P.
        for (pp, v, nmb) in [(4u32, 2u32, 16u32), (4, 2, 32), (8, 2, 32)] {
            let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, pp, v, nmb).unwrap();
            let r = timed(&s, &uniform(&s, 0)).unwrap();
            let analytic = s.analytic_bubble_ratio();
            let measured = r.bubble_ratio(0, 0);
            assert!(
                (measured - analytic).abs() < analytic * 0.8 + 0.02,
                "pp={pp} v={v} nmb={nmb}: measured {measured}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn more_microbatches_shrink_bubble() {
        let max_bubble = |nmb| {
            let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, nmb).unwrap();
            let t = timed(&s, &uniform(&s, 0)).unwrap();
            (0..4).map(|r| t.bubble_ratio(0, r)).fold(0.0, f64::max)
        };
        assert!(max_bubble(32) < max_bubble(8));
    }

    #[test]
    fn exposed_p2p_slows_1f1b_and_extra_warmup_hides_it() {
        // Fig 3: with significant P2P cost, nc > pp (extra warm-up
        // micro-batches) reduces the makespan versus nc = pp.
        let cost = TableCosts::uniform(8, us(100), us(200), us(60)); // P2P comparable to compute
        let nmb = 12;
        let classic = makespan(
            &PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, nmb).unwrap(),
            &cost,
        );
        let extra = makespan(
            &PpSchedule::build(ScheduleKind::Flexible { nc: 6 }, 4, 2, nmb).unwrap(),
            &cost,
        );
        assert!(
            extra < classic,
            "extra-warmup {extra} should beat classic {classic}"
        );
    }

    #[test]
    fn afab_fastest_but_memory_heaviest_with_exposed_p2p() {
        // Fig 9's ordering: AFAB ≥ flexible ≥ 1F1B in throughput;
        // reverse in memory.
        let cost = TableCosts::uniform(8, us(100), us(200), us(60));
        let nmb = 12;
        let s_1f1b = PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, nmb).unwrap();
        let s_flex = PpSchedule::build(ScheduleKind::Flexible { nc: 6 }, 4, 2, nmb).unwrap();
        let s_afab = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 4, 2, nmb).unwrap();
        let t_1f1b = makespan(&s_1f1b, &cost);
        let t_flex = makespan(&s_flex, &cost);
        let t_afab = makespan(&s_afab, &cost);
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
        let balanced = uniform(&s, 0);
        let r_heavy = timed(&s, &heavy).unwrap();
        let r_bal = timed(&s, &balanced).unwrap();
        assert!(r_heavy.makespan > r_bal.makespan);
        // Rank 0 idles waiting on the heavy tail.
        assert!(r_heavy.bubble_ratio(0, 0) > r_bal.bubble_ratio(0, 0));
    }

    #[test]
    fn single_microbatch_serializes() {
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 1 }, 4, 1, 1).unwrap();
        // 4 forwards then 4 backwards in sequence.
        assert_eq!(makespan(&s, &uniform(&s, 0)), us(100) * 4 + us(200) * 4);
    }

    /// Re-running a program reuses the timing buffers and gives the
    /// same answer; a scale of exactly 1 is the unscaled pass.
    #[test]
    fn passes_are_repeatable_and_unit_scale_is_exact() {
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 3 }, 4, 2, 8).unwrap();
        let (program, costs) = (PpProgram::compile(&s).unwrap(), uniform(&s, 5));
        let (mut a, mut b) = (PpTiming::default(), PpTiming::default());
        program.run(&costs, &[], &mut a);
        program.run(&costs, &[1.3, 1.0, 1.1, 1.2], &mut b);
        assert!(b.makespan[0] > a.makespan[0]);
        program.run(&costs, &[1.0; 4], &mut b);
        assert_eq!((a.start, a.end, a.compute), (b.start, b.end, b.compute));
    }

    /// An `L`-lane pass is `L` one-lane passes, bit for bit, at every
    /// lane width the full step uses (2, 4 and [`LANES`]): every op's
    /// end, each lane's makespan, per-rank compute and bubble ratios.
    /// Lane sets: all exactly 1.0 (against the unscaled pass, the
    /// folding identity), distinct jittered replicas, and a partial
    /// chunk whose spare lanes repeat its last live one. One buffer
    /// per width serves every program, so nothing leaks between passes
    /// over different shapes.
    #[test]
    fn lane_pass_equals_one_lane_passes() {
        let kinds = [
            ScheduleKind::AllFwdAllBwd,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::Flexible { nc: 2 },
            ScheduleKind::Flexible { nc: 4 },
        ];
        let (mut two, mut four, mut wide) = (
            PpTiming::<2>::default(),
            PpTiming::<4>::default(),
            PpTiming::<LANES>::default(),
        );
        let mut one = PpTiming::default();
        for kind in kinds {
            for (pp, v, nmb) in [(4u32, 2u32, 8u32), (3, 1, 6), (2, 3, 4)] {
                let s = PpSchedule::build(kind, pp, v, nmb).unwrap();
                let stages = (pp * v) as usize;
                let costs = TableCosts {
                    fwd: (0..stages).map(|i| us(90 + 13 * i as u64)).collect(),
                    bwd: (0..stages).map(|i| us(170 + 29 * i as u64)).collect(),
                    p2p: us(7),
                };
                let program = PpProgram::compile(&s).unwrap();
                let jitter =
                    |d: usize, r: u32| 1.0 + 0.05 * ((d * 7 + r as usize * 3) % 11) as f64 / 11.0;
                let unit = vec![1.0; pp as usize];
                let replicas: Vec<Vec<f64>> = (0..LANES)
                    .map(|d| (0..pp).map(|r| jitter(d, r)).collect())
                    .collect();
                let jittered: Vec<&[f64]> = replicas.iter().map(Vec::as_slice).collect();
                let partial: Vec<&[f64]> = (0..LANES).map(|k| jittered[k.min(2)]).collect();
                let cases = [
                    ("unit", vec![&unit[..]; LANES], vec![&[][..]; LANES]),
                    ("jittered", jittered.clone(), jittered),
                    ("partial", partial.clone(), partial),
                ];
                for (label, lanes, singles) in cases {
                    let ctx = format!("{kind:?} pp={pp} v={v} {label}");
                    let (p, c) = (&program, &costs);
                    check_lanes(p, c, &lanes, &singles, &mut two, &mut one, &ctx);
                    check_lanes(p, c, &lanes, &singles, &mut four, &mut one, &ctx);
                    check_lanes(p, c, &lanes, &singles, &mut wide, &mut one, &ctx);
                }
            }
        }
    }

    /// Runs the first `L` of `lanes` in one pass of `program` under
    /// `costs` and checks lane `k` against a one-lane pass under
    /// `singles[k]`.
    fn check_lanes<const L: usize>(
        program: &PpProgram,
        costs: &TableCosts,
        lanes: &[&[f64]],
        singles: &[&[f64]],
        t: &mut PpTiming<L>,
        one: &mut PpTiming,
        ctx: &str,
    ) {
        program.run_lanes(costs, std::array::from_fn(|k| lanes[k]), t);
        assert!(t.start.is_empty());
        for (k, &scales) in singles[..L].iter().enumerate() {
            let ctx = format!("{ctx} lane {k} of {L}");
            program.run(costs, scales, one);
            for i in 0..program.len() {
                assert_eq!(t.end[i][k], one.end[i][0], "{ctx}: op {i}");
            }
            assert_eq!(t.makespan[k], one.makespan[0], "{ctx}");
            for r in 0..program.pp {
                assert_eq!(
                    t.compute[r as usize][k], one.compute[r as usize][0],
                    "{ctx}: rank {r}"
                );
                assert_eq!(
                    t.bubble_ratio(k, r).to_bits(),
                    one.bubble_ratio(0, r).to_bits(),
                    "{ctx}: rank {r}"
                );
            }
        }
    }

    /// A schedule missing a producer compiles to a deadlock naming the
    /// compute ops that can never start, instead of panicking. Rank 0
    /// drops `F0.1`, so rank 1's `F0.1` waits forever, with every op
    /// queued behind it on rank 1 and every backward on rank 0.
    #[test]
    fn missing_producer_is_a_deadlock() {
        let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
        s.ranks[0].retain(|op| *op != PpOp::Forward { chunk: 0, mb: 1 });
        let program = PpProgram::build(&s);
        assert_eq!(program.unresolved().collect::<Vec<_>>(), [4]);
        // Rank 0 runs F0.0 B0.0 B0.1 (ops 0-2); rank 1 runs F0.0 F0.1
        // B0.0 B0.1 (ops 3-6).
        let stuck = [1, 2, 4, 5, 6].map(OpId::from_index).to_vec();
        assert_eq!(program.stuck().collect::<Vec<_>>(), [1, 2, 4, 5, 6]);
        let expected = GraphError::Deadlock(stuck);
        assert_eq!(PpProgram::compile(&s).unwrap_err(), expected);
    }
}
