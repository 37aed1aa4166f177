//! Deterministic timing-graph execution.
//!
//! A training step (or any distributed program) is lowered to a directed
//! graph of *ops*. Each op occupies one or more FIFO *streams* — a stream
//! models an exclusive hardware queue such as a GPU compute stream, a
//! communication channel, or a CPU launch thread. Ops placed on the same
//! stream execute in the order they were added (program order).
//!
//! An op with several streams models a *collective*: it begins only when
//! every participating stream has reached it, runs for its duration on all
//! of them simultaneously, and completes everywhere at the same instant.
//! The per-stream gap between "stream became ready" and "collective
//! started" is recorded as *sync wait* — this is exactly the "waiting for
//! the slowest rank to join the collective" quantity analysed in §7.3.2 of
//! the paper.
//!
//! Dependencies may point at ops added *later* in program order (via
//! [`TaskGraph::add_dep`]); this is how pipeline-parallel receives are
//! wired to sends issued by other ranks. A schedule whose program orders
//! and dependencies admit no complete execution is reported as a
//! [`GraphError::Deadlock`], which the pipeline-schedule validators rely
//! on to reject broken schedules.
//!
//! Start times are fully determined by the graph — there are no
//! scheduling choices — so execution is deterministic and independent of
//! wall-clock time or hash-map iteration order.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifies a FIFO stream within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// The index of this stream in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// Identifies an op within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The index of this op in creation order.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the `index`-th op added to a graph. Programs that time
    /// a graph without building it name their ops this way.
    pub fn from_index(index: usize) -> OpId {
        OpId(index as u32)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Errors produced while executing a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Execution stalled with ops remaining: the program deadlocks.
    ///
    /// Carries the ids of the ops that could not run. Pipeline-schedule
    /// validators use this to reject schedules whose send/recv ordering
    /// can never complete.
    Deadlock(Vec<OpId>),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Deadlock(ops) => {
                write!(f, "deadlock with {} ops unexecuted", ops.len())
            }
        }
    }
}

impl std::error::Error for GraphError {}

struct OpNode<M> {
    meta: M,
    duration: SimDuration,
    streams: Vec<StreamId>,
    deps: Vec<OpId>,
}

/// A buildable, executable timing graph.
///
/// `M` is caller-supplied metadata attached to each op (a label, an op
/// class, a rank, ...) and returned in the [`OpRecord`]s of the resulting
/// [`ExecutedGraph`].
///
/// ```
/// use sim_engine::graph::TaskGraph;
/// use sim_engine::time::SimDuration;
///
/// let mut g: TaskGraph<&str> = TaskGraph::new();
/// let s = g.add_stream();
/// let a = g.add_op("a", SimDuration::from_micros(3), [s], []);
/// let _b = g.add_op("b", SimDuration::from_micros(2), [s], [a]);
/// let run = g.execute()?;
/// assert_eq!(run.makespan(), SimDuration::from_micros(5));
/// # Ok::<(), sim_engine::graph::GraphError>(())
/// ```
pub struct TaskGraph<M> {
    ops: Vec<OpNode<M>>,
    stream_programs: Vec<Vec<OpId>>,
}

impl<M> Default for TaskGraph<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TaskGraph<M> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph {
            ops: Vec::new(),
            stream_programs: Vec::new(),
        }
    }

    /// Creates an empty graph with preallocated op and stream arenas.
    ///
    /// Lowering code that knows its op count up front (pipeline
    /// schedules, step simulation) should use this to avoid repeated
    /// reallocation while building large graphs.
    pub fn with_capacity(ops: usize, streams: usize) -> Self {
        TaskGraph {
            ops: Vec::with_capacity(ops),
            stream_programs: Vec::with_capacity(streams),
        }
    }

    /// Adds a new FIFO stream and returns its id.
    pub fn add_stream(&mut self) -> StreamId {
        // lint: allow(unwrap) — a u32 id-space overflow is unrecoverable by the caller
        let id = StreamId(u32::try_from(self.stream_programs.len()).expect("too many streams"));
        self.stream_programs.push(Vec::new());
        id
    }

    /// Adds `n` streams, returning their ids in order.
    pub fn add_streams(&mut self, n: usize) -> Vec<StreamId> {
        (0..n).map(|_| self.add_stream()).collect()
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.stream_programs.len()
    }

    /// Number of ops created so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Adds an op occupying every stream in `streams` (program order on
    /// each stream is `add_op` call order) that waits for every op in
    /// `deps`. Further dependencies — including on ops added later — can
    /// be wired with [`TaskGraph::add_dep`].
    ///
    /// # Panics
    ///
    /// Panics if a stream or dependency id is invalid, `streams` is empty,
    /// or a stream is repeated — these are programming errors in the
    /// lowering code. (Deadlocks, which are *simulated-program* errors,
    /// are reported by [`TaskGraph::execute`] instead.)
    pub fn add_op(
        &mut self,
        meta: M,
        duration: SimDuration,
        streams: impl IntoIterator<Item = StreamId>,
        deps: impl IntoIterator<Item = OpId>,
    ) -> OpId {
        // lint: allow(unwrap) — a u32 id-space overflow is unrecoverable by the caller
        let id = OpId(u32::try_from(self.ops.len()).expect("too many ops"));
        let streams: Vec<StreamId> = streams.into_iter().collect();
        assert!(!streams.is_empty(), "{id} has no streams");
        for (i, s) in streams.iter().enumerate() {
            assert!(
                s.index() < self.stream_programs.len(),
                "{id} references unknown {s}"
            );
            assert!(!streams[..i].contains(s), "{id} lists {s} more than once");
        }
        let deps: Vec<OpId> = deps.into_iter().collect();
        for d in &deps {
            assert!(d.0 < id.0, "{id} constructor dep {d} must already exist");
        }
        for s in &streams {
            self.stream_programs[s.index()].push(id);
        }
        self.ops.push(OpNode {
            meta,
            duration,
            streams,
            deps,
        });
        id
    }

    /// The metadata of `op`.
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn op_meta(&self, op: OpId) -> &M {
        &self.ops[op.index()].meta
    }

    /// The streams `op` occupies, in the order they were given to
    /// [`TaskGraph::add_op`].
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn op_streams(&self, op: OpId) -> &[StreamId] {
        &self.ops[op.index()].streams
    }

    /// Every dependency of `op` wired so far — constructor deps followed
    /// by [`TaskGraph::add_dep`] edges, in insertion order. Static
    /// analyses (write-race detection) walk these edges without
    /// executing the graph.
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn op_deps(&self, op: OpId) -> &[OpId] {
        &self.ops[op.index()].deps
    }

    /// The FIFO program of one stream: its ops in program (execution)
    /// order. Two ops sharing a stream are totally ordered by their
    /// positions here.
    ///
    /// # Panics
    /// Panics if the id is invalid.
    pub fn stream_program(&self, stream: StreamId) -> &[OpId] {
        &self.stream_programs[stream.index()]
    }

    /// Iterates every op id in creation order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Makes `op` wait for `dep`. Unlike constructor deps, `dep` may have
    /// been added after `op` — this is how a pipeline receive is wired to
    /// a send that appears later in global creation order.
    ///
    /// # Panics
    ///
    /// Panics if either id is invalid.
    pub fn add_dep(&mut self, op: OpId, dep: OpId) {
        assert!(op.index() < self.ops.len(), "unknown {op}");
        assert!(dep.index() < self.ops.len(), "unknown dep {dep}");
        self.ops[op.index()].deps.push(dep);
    }

    /// Executes the graph, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Deadlock`] if the per-stream program orders
    /// and the dependency edges admit no complete execution (e.g. a
    /// dependency cycle, or a receive ordered before the only op that
    /// could satisfy it on the same stream).
    pub fn execute(self) -> Result<ExecutedGraph<M>, GraphError> {
        let n = self.ops.len();
        let stream_count = self.stream_programs.len();

        // Reversed dependency edges ("who waits on me") in a flat CSR
        // arena: heads[i]..heads[i+1] indexes into `dependents`.
        let mut unmet: Vec<u32> = vec![0; n];
        let mut heads: Vec<u32> = vec![0; n + 1];
        for (i, op) in self.ops.iter().enumerate() {
            unmet[i] = op.deps.len() as u32;
            for d in &op.deps {
                heads[d.index() + 1] += 1;
            }
        }
        for i in 0..n {
            heads[i + 1] += heads[i];
        }
        let mut dependents: Vec<OpId> = vec![OpId(0); heads[n] as usize];
        let mut fill: Vec<u32> = heads[..n].to_vec();
        for (i, op) in self.ops.iter().enumerate() {
            for d in &op.deps {
                dependents[fill[d.index()] as usize] = OpId(i as u32);
                fill[d.index()] += 1;
            }
        }

        // Per-stream cursors into the (immutable) program vectors replace
        // the per-execute queue copies; flat start/finish/sync arenas
        // replace the Vec<Option<..>> churn of take-and-rebuild.
        let mut stream_cursor: Vec<u32> = vec![0; stream_count];
        let mut stream_free: Vec<SimTime> = vec![SimTime::ZERO; stream_count];
        let mut stream_busy: Vec<SimDuration> = vec![SimDuration::ZERO; stream_count];
        let mut executed: Vec<bool> = vec![false; n];
        let mut starts: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut finish: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut sync_waits: Vec<Vec<SimDuration>> = (0..n).map(|_| Vec::new()).collect();

        // Event-driven worklist. An op is runnable iff its dep count hit
        // zero AND it is at the front of all its streams. It is (re)pushed
        // exactly when either condition may newly hold: when its last dep
        // finishes, and when it becomes the front of a stream. A popped op
        // that is not yet runnable is simply dropped — the missing event
        // will push it again — so an empty worklist with unexecuted ops
        // remaining means no event can ever fire again: deadlock.
        let mut worklist: Vec<OpId> = (0..n as u32)
            .map(OpId)
            .filter(|id| unmet[id.index()] == 0)
            .collect();
        let mut done = 0usize;
        let mut makespan_end = SimTime::ZERO;

        while let Some(id) = worklist.pop() {
            let i = id.index();
            if executed[i] || unmet[i] != 0 {
                continue;
            }
            let node = &self.ops[i];
            let at_front = node.streams.iter().all(|s| {
                let prog = &self.stream_programs[s.index()];
                prog.get(stream_cursor[s.index()] as usize) == Some(&id)
            });
            if !at_front {
                continue;
            }

            let dep_ready = node
                .deps
                .iter()
                .map(|d| finish[d.index()])
                .max()
                .unwrap_or(SimTime::ZERO);
            let start = node
                .streams
                .iter()
                .map(|s| stream_free[s.index()])
                .chain(std::iter::once(dep_ready))
                .max()
                // lint: allow(unwrap) — the chained once() makes the iterator non-empty
                .expect("op has at least one stream");
            let end = start + node.duration;
            let mut sync_wait = Vec::with_capacity(node.streams.len());
            for s in &node.streams {
                let local_ready = stream_free[s.index()].max(dep_ready);
                sync_wait.push(start.saturating_since(local_ready));
            }
            for s in &node.streams {
                let si = s.index();
                stream_free[si] = end;
                stream_busy[si] += node.duration;
                stream_cursor[si] += 1;
                if let Some(front) = self.stream_programs[si].get(stream_cursor[si] as usize) {
                    worklist.push(*front);
                }
            }
            starts[i] = start;
            finish[i] = end;
            sync_waits[i] = sync_wait;
            executed[i] = true;
            done += 1;
            makespan_end = makespan_end.max(end);
            for &dep in &dependents[heads[i] as usize..heads[i + 1] as usize] {
                let j = dep.index();
                unmet[j] -= 1;
                if unmet[j] == 0 {
                    worklist.push(dep);
                }
            }
        }

        if done != n {
            let stuck: Vec<OpId> = executed
                .iter()
                .enumerate()
                .filter(|(_, e)| !**e)
                .map(|(i, _)| OpId(i as u32))
                .collect();
            return Err(GraphError::Deadlock(stuck));
        }

        let mut records: Vec<OpRecord<M>> = Vec::with_capacity(n);
        for (i, node) in self.ops.into_iter().enumerate() {
            records.push(OpRecord {
                id: OpId(i as u32),
                meta: node.meta,
                streams: node.streams,
                deps: node.deps,
                start: starts[i],
                end: finish[i],
                sync_wait: std::mem::take(&mut sync_waits[i]),
            });
        }
        let makespan = makespan_end.saturating_since(SimTime::ZERO);
        Ok(ExecutedGraph {
            records,
            stream_count,
            stream_busy,
            makespan,
        })
    }
}

/// Timing record of one executed op.
#[derive(Debug, Clone)]
pub struct OpRecord<M> {
    /// The op's id.
    pub id: OpId,
    /// Caller metadata.
    pub meta: M,
    /// Streams the op occupied.
    pub streams: Vec<StreamId>,
    /// Every dependency the op waited on — constructor deps followed by
    /// [`TaskGraph::add_dep`] wiring, in insertion order. Retained so
    /// external validators can re-check causality (each dep's `end` must
    /// not exceed this op's `start`) and acyclicity on the executed
    /// graph.
    pub deps: Vec<OpId>,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
    /// Per participating stream (parallel to `streams`): how long that
    /// stream sat idle between becoming ready for this op and the op
    /// actually starting — i.e. time spent waiting for slower peers.
    pub sync_wait: Vec<SimDuration>,
}

impl<M> OpRecord<M> {
    /// The op's duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Largest per-stream sync wait.
    pub fn max_sync_wait(&self) -> SimDuration {
        self.sync_wait
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The result of executing a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct ExecutedGraph<M> {
    records: Vec<OpRecord<M>>,
    stream_count: usize,
    stream_busy: Vec<SimDuration>,
    makespan: SimDuration,
}

impl<M> ExecutedGraph<M> {
    /// Total simulated time from zero to the last op end.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// All op records, indexed by [`OpId`].
    pub fn records(&self) -> &[OpRecord<M>] {
        &self.records
    }

    /// The record for a specific op.
    pub fn record(&self, id: OpId) -> &OpRecord<M> {
        &self.records[id.index()]
    }

    /// Number of streams in the executed graph.
    pub fn stream_count(&self) -> usize {
        self.stream_count
    }

    /// Total busy time of one stream (sum of durations of its ops).
    /// Precomputed during execution, so this is O(1).
    pub fn stream_busy(&self, stream: StreamId) -> SimDuration {
        self.stream_busy[stream.index()]
    }

    /// Idle time of one stream within the makespan.
    pub fn stream_idle(&self, stream: StreamId) -> SimDuration {
        self.makespan.saturating_sub(self.stream_busy(stream))
    }

    /// Sum of durations of ops selected by `pred`.
    pub fn total_where(&self, mut pred: impl FnMut(&OpRecord<M>) -> bool) -> SimDuration {
        self.records
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.duration())
            .sum()
    }

    /// Sum of max sync waits of ops selected by `pred` — the "waiting for
    /// the slowest participant" share of those ops.
    pub fn sync_wait_where(&self, mut pred: impl FnMut(&OpRecord<M>) -> bool) -> SimDuration {
        self.records
            .iter()
            .filter(|r| pred(r))
            .map(|r| r.max_sync_wait())
            .sum()
    }

    /// Consumes the run and returns the records.
    pub fn into_records(self) -> Vec<OpRecord<M>> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn sequential_ops_on_one_stream() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let s = g.add_stream();
        g.add_op(0, us(3), [s], []);
        g.add_op(1, us(2), [s], []);
        let run = g.execute().unwrap();
        assert_eq!(run.makespan(), us(5));
        assert_eq!(run.records()[1].start, SimTime::from_nanos(3_000));
    }

    #[test]
    fn independent_streams_run_in_parallel() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        g.add_op(0, us(3), [a], []);
        g.add_op(1, us(4), [b], []);
        let run = g.execute().unwrap();
        assert_eq!(run.makespan(), us(4));
    }

    #[test]
    fn dependency_across_streams() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        let x = g.add_op(0, us(3), [a], []);
        g.add_op(1, us(2), [b], [x]);
        let run = g.execute().unwrap();
        assert_eq!(run.records()[1].start.as_nanos(), 3_000);
        assert_eq!(run.makespan(), us(5));
    }

    #[test]
    fn forward_dependency_via_add_dep() {
        // Receive is first in stream b's program but waits on a send added
        // later (on stream a).
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        let recv = g.add_op("recv", us(1), [b], []);
        let send = g.add_op("send", us(2), [a], []);
        g.add_dep(recv, send);
        let run = g.execute().unwrap();
        assert_eq!(run.record(recv).start.as_nanos(), 2_000);
    }

    #[test]
    fn records_retain_dependency_edges() {
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        let recv = g.add_op("recv", us(1), [b], []);
        let send = g.add_op("send", us(2), [a], []);
        g.add_dep(recv, send);
        let run = g.execute().unwrap();
        assert_eq!(run.record(recv).deps, vec![send]);
        assert!(run.record(send).deps.is_empty());
        assert!(run.record(recv).start >= run.record(send).end);
    }

    #[test]
    fn collective_waits_for_slowest_and_records_skew() {
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        g.add_op("fast", us(1), [a], []);
        g.add_op("slow", us(5), [b], []);
        let c = g.add_op("coll", us(2), [a, b], []);
        let run = g.execute().unwrap();
        let rec = run.record(c);
        assert_eq!(rec.start.as_nanos(), 5_000);
        assert_eq!(rec.end.as_nanos(), 7_000);
        assert_eq!(rec.sync_wait, vec![us(4), us(0)]);
        assert_eq!(rec.max_sync_wait(), us(4));
    }

    #[test]
    fn fifo_order_is_program_order() {
        // Op 1 is added before op 2 on the same stream; even though op 2
        // has no deps it must wait behind op 1's dependency chain.
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        let slow = g.add_op(0, us(10), [b], []);
        g.add_op(1, us(1), [a], [slow]);
        g.add_op(2, us(1), [a], []);
        let run = g.execute().unwrap();
        assert_eq!(run.records()[1].start.as_nanos(), 10_000);
        assert_eq!(run.records()[2].start.as_nanos(), 11_000);
    }

    #[test]
    fn dependency_cycle_deadlocks() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let s = g.add_stream();
        let t = g.add_stream();
        let a = g.add_op(0, us(1), [s], []);
        let b = g.add_op(1, us(1), [t], []);
        g.add_dep(a, b);
        g.add_dep(b, a);
        match g.execute() {
            Err(GraphError::Deadlock(stuck)) => assert_eq!(stuck.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn recv_ordered_before_its_send_on_same_stream_deadlocks() {
        // Stream s program: [recv, send]; recv waits on send, which can
        // never reach the front. This is the canonical broken pipeline
        // schedule.
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let s = g.add_stream();
        let recv = g.add_op("recv", us(1), [s], []);
        let send = g.add_op("send", us(1), [s], []);
        g.add_dep(recv, send);
        assert!(matches!(g.execute(), Err(GraphError::Deadlock(_))));
    }

    #[test]
    fn partial_deadlock_reports_only_stuck_ops() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let s = g.add_stream();
        let t = g.add_stream();
        g.add_op(0, us(1), [s], []); // runs fine
        let a = g.add_op(1, us(1), [t], []);
        let b = g.add_op(2, us(1), [t], []);
        g.add_dep(a, b); // a before b on t, but a waits for b
        match g.execute() {
            Err(GraphError::Deadlock(stuck)) => {
                assert_eq!(stuck, vec![a, b]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn busy_idle_accounting() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        g.add_op(0, us(3), [a], []);
        g.add_op(1, us(7), [b], []);
        let run = g.execute().unwrap();
        assert_eq!(run.stream_busy(StreamId(0)), us(3));
        assert_eq!(run.stream_idle(StreamId(0)), us(4));
        assert_eq!(run.stream_idle(StreamId(1)), us(0));
    }

    #[test]
    fn total_and_sync_wait_filters() {
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        g.add_op("comp", us(4), [a], []);
        g.add_op("comp", us(1), [b], []);
        g.add_op("coll", us(2), [a, b], []);
        let run = g.execute().unwrap();
        assert_eq!(run.total_where(|r| r.meta == "comp"), us(5));
        assert_eq!(run.total_where(|r| r.meta == "coll"), us(2));
        // Stream b waited 3us for stream a to reach the collective.
        assert_eq!(run.sync_wait_where(|r| r.meta == "coll"), us(3));
    }

    #[test]
    #[should_panic(expected = "no streams")]
    fn empty_streams_panics() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        g.add_op(0, us(1), [], []);
    }

    #[test]
    fn zero_duration_ops() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let s = g.add_stream();
        for i in 0..100 {
            g.add_op(i, SimDuration::ZERO, [s], []);
        }
        let run = g.execute().unwrap();
        assert_eq!(run.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn introspection_reflects_structure_before_execution() {
        let mut g: TaskGraph<&str> = TaskGraph::new();
        let a = g.add_stream();
        let b = g.add_stream();
        let recv = g.add_op("recv", us(1), [b], []);
        let send = g.add_op("send", us(2), [a], []);
        g.add_dep(recv, send);
        assert_eq!(*g.op_meta(recv), "recv");
        assert_eq!(g.op_streams(recv), &[b]);
        assert_eq!(g.op_deps(recv), &[send]);
        assert!(g.op_deps(send).is_empty());
        assert_eq!(g.stream_program(a), &[send]);
        assert_eq!(g.stream_program(b), &[recv]);
        assert_eq!(g.op_ids().collect::<Vec<_>>(), vec![recv, send]);
    }

    #[test]
    fn diamond_dependency_timing() {
        let mut g: TaskGraph<u32> = TaskGraph::new();
        let streams = g.add_streams(3);
        let root = g.add_op(0, us(1), [streams[0]], []);
        let l = g.add_op(1, us(5), [streams[1]], [root]);
        let r = g.add_op(2, us(3), [streams[2]], [root]);
        let join = g.add_op(3, us(1), [streams[0]], [l, r]);
        let run = g.execute().unwrap();
        assert_eq!(run.record(join).start.as_nanos(), 6_000);
        assert_eq!(run.makespan(), us(7));
    }
}
