//! Differential oracles: run the fast path and the reference path on
//! the same input and demand equivalence.
//!
//! The generic entry point is [`assert_equivalent`]; the twelve
//! concrete oracles cover every fast path added so far. They keep the
//! numbers they were introduced under; numbers 4 (the retired
//! `simulate*` wrappers vs `StepModel::run`) and 7 (the retired guided
//! search vs the exhaustive one) are not reused, and number 11 is the
//! serve crate's:
//!
//! 1. [`oracle_folded_vs_full`] — DP-symmetry folding vs the full
//!    step, and `StepModel::run` vs [`reference_step_report`] (every
//!    replica lowered into one engine-executed task graph) under
//!    jitter, throttled ranks and degraded links, traced and untraced:
//!    the trace is the reference's critical replica, event for event;
//!    [`program_vs_engine`] checks a compiled pipeline program under a
//!    cost binding against the engine op by op.
//! 2. [`oracle_memoized_costs`] — the process-global collective cost
//!    cache vs pricing uncached.
//! 3. [`oracle_fluid_fast_path`] — the disjoint-single-link fluid
//!    shortcut vs the general max-min event loop.
//! 5. [`oracle_goodput_recomposition`] — `RunSimulator::simulate` vs an
//!    independent step-by-step walk of the same fault timeline.
//! 6. [`oracle_search_frontier`] — the bounded auto-parallelism
//!    search walk vs unpruned, unmemoized scoring plus a
//!    quadratic-dominance frontier, across thread counts and `max_cp`
//!    narrowing.
//! 8. [`oracle_run_trace_replay`] — `RunSimulator::simulate_traced`'s
//!    tiered store + anchored replay vs an `O(N)` full-resolution
//!    capture of the same run: bit-identical goodput report,
//!    byte-identical rematerialized windows.
//! 9. [`oracle_tiered_trace`] — the tiered (tower-sampling) trace
//!    store vs full-resolution references on a step trace: (a) every
//!    rematerialized window byte-identical to the reference slice,
//!    (b) every stored tier-k aggregate equal to the direct fold of
//!    its raw events and to the merge of its tier-(k−1) halves,
//!    (c) tier-fed slow-rank verdicts identical to full-trace
//!    verdicts.
//! 10. [`oracle_continuous_batching`] — the inference engine's
//!     continuous-batching replica loop vs an independent naive
//!     rewalk of the same admission/prefill/decode policy:
//!     bit-identical outcomes, tokens conserved, no KV block leaked
//!     (`free == capacity` after draining), and the fleet-level
//!     `simulate` bit-identical on a re-run and to a manual
//!     shard-and-fold.
//! 12. [`oracle_pipeline_rules`] — the pre-flight `DEAD001`/`DEAD002`
//!     and `RACE001` rules, read off the compiled pipeline program, vs
//!     execution and a brute-force closure over the [`lower_pp`] graph
//!     on a battery of swapped, duplicated, dropped and moved ops.
//! 13. [`oracle_collective_streams`] — `COLL001` deriving one stream
//!     per (family, pp coordinate) vs the per-member
//!     `check_plan(&extract_plan(..))`, diagnostic for diagnostic.
//! 14. [`oracle_step_time_bound`] — the search walk's key vs the folded
//!     run: the step-time bound never exceeds the step time, the
//!     pruning memory is the reported peak memory, and a key exists
//!     exactly when the memory analyzer is silent.
//! 15. [`oracle_planner_vs_search`] — the §5.1 planner vs the search
//!     over its own space: the plan is an enumerated point, its numbers
//!     are the unpruned scoring's bit for bit, and its mesh leads the
//!     frontier of the search over the planner's space.

use crate::invariants::CheckResult;
use crate::lowering::{execute_pp, lower_pp, lowering_capacity, PpSimOp};
use cluster_model::faults::ClusterHealth;
use cluster_model::jitter::{JitterKind, JitterModel};
use collectives::cost::{clear_cost_cache, CommCostModel};
use parallelism_core::analyze::race::{self, Lane, Race};
use parallelism_core::analyze::{self, collective, deadlock, RuleId};
use parallelism_core::costs::tflops_per_gpu;
use parallelism_core::infer::{
    simulate_replica, InferCosts, InferenceModel, ReplicaResult, RequestOutcome,
};
use parallelism_core::planner::plan;
use parallelism_core::pp::sim::{PpProgram, PpTiming, TableCosts};
use parallelism_core::pp::PpSchedule;
use parallelism_core::run::{GoodputLoss, GoodputReport, RunSimulator};
use parallelism_core::search::{
    enumerate_configs, prune_key, score_one, search, search_outcomes, Outcome, SearchSpec,
};
use parallelism_core::step::{ExposedComm, SimFidelity, SimOptions, StepModel, StepReport};
use parallelism_core::Dim;
use parallelism_core::Request;
use sim_engine::fluid::{FluidNet, Transfer, TransferOutcome};
use sim_engine::graph::{ExecutedGraph, GraphError, OpId, TaskGraph};
use sim_engine::time::{SimDuration, SimTime};
use trace_analysis::synth::{synth_trace, SynthSpec};
use trace_analysis::tiered::{SliceReplay, TierConfig, TieredTrace, WindowStats};
use trace_analysis::{locate_slow_rank, locate_slow_rank_tiered, EventCategory, Trace, TraceEvent};

/// Structural approximate equality with field-naming error messages.
///
/// `tol` is a *relative* tolerance; `tol == 0.0` demands bit-identical
/// values. Implementations return the offending field path so a fuzz
/// counterexample explains itself.
pub trait ApproxEq {
    /// Compares `self` to `other` within relative tolerance `tol`.
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult;
}

fn field(name: &str, r: CheckResult) -> CheckResult {
    r.map_err(|e| format!("{name}: {e}"))
}

impl ApproxEq for f64 {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        // Infinities compare equal to themselves at any tolerance.
        if self == other {
            return Ok(());
        }
        let diff = (self - other).abs();
        let scale = self.abs().max(other.abs()).max(1.0);
        if diff <= tol * scale {
            Ok(())
        } else {
            Err(format!("{self} vs {other} (|Δ| = {diff:e}, tol = {tol:e})"))
        }
    }
}

impl ApproxEq for u64 {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        if self == other {
            return Ok(());
        }
        if tol > 0.0 {
            return (*self as f64).approx_eq(&(*other as f64), tol);
        }
        Err(format!("{self} vs {other}"))
    }
}

impl ApproxEq for u32 {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        u64::from(*self).approx_eq(&u64::from(*other), tol)
    }
}

impl ApproxEq for SimDuration {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        if tol > 0.0 {
            return self.as_secs_f64().approx_eq(&other.as_secs_f64(), tol);
        }
        if self == other {
            Ok(())
        } else {
            Err(format!("{} ns vs {} ns", self.as_nanos(), other.as_nanos()))
        }
    }
}

impl<T: ApproxEq> ApproxEq for Vec<T> {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        if self.len() != other.len() {
            return Err(format!("length {} vs {}", self.len(), other.len()));
        }
        for (i, (a, b)) in self.iter().zip(other).enumerate() {
            field(&format!("[{i}]"), a.approx_eq(b, tol))?;
        }
        Ok(())
    }
}

impl ApproxEq for ExposedComm {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        field("tp", self.tp.approx_eq(&other.tp, tol))?;
        field("cp", self.cp.approx_eq(&other.cp, tol))?;
        field(
            "cp_sync_wait",
            self.cp_sync_wait.approx_eq(&other.cp_sync_wait, tol),
        )?;
        field("dp", self.dp.approx_eq(&other.dp, tol))
    }
}

impl ApproxEq for StepReport {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        field("step_time", self.step_time.approx_eq(&other.step_time, tol))?;
        field(
            "tflops_per_gpu",
            self.tflops_per_gpu.approx_eq(&other.tflops_per_gpu, tol),
        )?;
        field(
            "bubble_ratio",
            self.bubble_ratio.approx_eq(&other.bubble_ratio, tol),
        )?;
        field(
            "peak_memory",
            self.peak_memory.approx_eq(&other.peak_memory, tol),
        )?;
        field("exposed", self.exposed.approx_eq(&other.exposed, tol))?;
        field("tokens", self.tokens.approx_eq(&other.tokens, tol))
    }
}

impl ApproxEq for GoodputLoss {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        field(
            "checkpoint_s",
            self.checkpoint_s.approx_eq(&other.checkpoint_s, tol),
        )?;
        field("detect_s", self.detect_s.approx_eq(&other.detect_s, tol))?;
        field("restart_s", self.restart_s.approx_eq(&other.restart_s, tol))?;
        field("rework_s", self.rework_s.approx_eq(&other.rework_s, tol))?;
        field(
            "degraded_s",
            self.degraded_s.approx_eq(&other.degraded_s, tol),
        )
    }
}

impl ApproxEq for GoodputReport {
    fn approx_eq(&self, other: &Self, tol: f64) -> CheckResult {
        field(
            "wall_time_s",
            self.wall_time_s.approx_eq(&other.wall_time_s, tol),
        )?;
        field(
            "productive_s",
            self.productive_s.approx_eq(&other.productive_s, tol),
        )?;
        field("goodput", self.goodput.approx_eq(&other.goodput, tol))?;
        field(
            "steps_completed",
            self.steps_completed.approx_eq(&other.steps_completed, tol),
        )?;
        field("restarts", self.restarts.approx_eq(&other.restarts, tol))?;
        field("loss", self.loss.approx_eq(&other.loss, tol))?;
        field(
            "healthy_step_s",
            self.healthy_step_s.approx_eq(&other.healthy_step_s, tol),
        )?;
        field(
            "checkpoint_bytes_per_rank",
            self.checkpoint_bytes_per_rank
                .approx_eq(&other.checkpoint_bytes_per_rank, tol),
        )?;
        field(
            "checkpoint_write_s",
            self.checkpoint_write_s
                .approx_eq(&other.checkpoint_write_s, tol),
        )?;
        field(
            "checkpoint_interval_s",
            self.checkpoint_interval_s
                .approx_eq(&other.checkpoint_interval_s, tol),
        )?;
        field(
            "young_daly_interval_s",
            self.young_daly_interval_s
                .approx_eq(&other.young_daly_interval_s, tol),
        )?;
        field("mtbf_s", self.mtbf_s.approx_eq(&other.mtbf_s, tol))
    }
}

/// Asserts `a ≈ b` within relative tolerance `tol`, prefixing any
/// violation with `label` and the full field path.
pub fn assert_equivalent<T: ApproxEq>(label: &str, a: &T, b: &T, tol: f64) -> CheckResult {
    field(label, a.approx_eq(b, tol))
}

/// The option sets oracle 1 runs a step under, named for error
/// messages: healthy at both fidelities, static and transient jitter,
/// throttled ranks, a degraded node alone (which keeps the folded
/// path), and a degraded node with throttling and transient jitter.
/// `seed` picks the jitter streams, the step index and the throttled
/// ranks, so every spec exercises different replicas.
fn oracle_step_options(m: &StepModel, seed: u64) -> Vec<(&'static str, SimOptions)> {
    let (pp, dp) = (u64::from(m.mesh.pp()), u64::from(m.mesh.dp()));
    let rank =
        |r: u64, d: u64| r as u32 * m.mesh.stride(Dim::Pp) + d as u32 * m.mesh.stride(Dim::Dp);
    let throttled = ClusterHealth::healthy()
        .throttle(rank(seed % pp, (seed / 7) % dp), 1.25)
        .throttle(rank(0, dp - 1), 1.1);
    let transient = JitterModel::new(JitterKind::Transient, 0.05, seed);
    vec![
        ("healthy", SimOptions::new()),
        (
            "healthy full",
            SimOptions::new().fidelity(SimFidelity::Full),
        ),
        (
            "static jitter",
            SimOptions::new().jitter(JitterModel::new(JitterKind::Static, 0.05, seed)),
        ),
        (
            "transient jitter",
            SimOptions::new().jitter(transient).step(1 + seed % 5),
        ),
        (
            "throttled ranks",
            SimOptions::new().faults(throttled.clone()),
        ),
        (
            "degraded node",
            SimOptions::new().faults(ClusterHealth::healthy().degrade_node(0, 0.5)),
        ),
        (
            "degraded node + throttled + transient jitter",
            SimOptions::new()
                .jitter(transient)
                .step(2 + seed % 3)
                .faults(throttled.degrade_node(0, 0.6)),
        ),
    ]
}

/// The independent reference for a step's pipeline timing: every DP
/// replica's pipeline lowered into one [`TaskGraph`] with [`lower_pp`]
/// and executed by the event engine.
///
/// Pipeline rank `r` of replica `d` is the global rank at mesh
/// coordinate `(tp 0, cp 0, pp r, dp d)`; its compute runs slower by
/// that rank's jitter multiplier at `opts.step` times its throttle
/// multiplier. Degraded links stretch the P2P transfers by
/// `1 / worst_link_scale`. One op per pipeline rank spans that rank's
/// compute stream in every replica and lasts the exposed DP collective
/// time, so it starts when the slowest replica's rank finishes. That
/// duration is priced outside the pipeline, so it is taken from
/// `report.exposed.dp`. Step time, TFLOPs/GPU and per-rank bubbles
/// (worst replica, each against its own pipeline makespan) come from
/// the executed graph; every other field is copied from `report`.
///
/// Also returns the critical replica's compute records as a trace, in
/// op order: the replica whose pipeline ends last (the
/// lowest index on ties), each record on its pipeline rank and named
/// `F{chunk}.{mb}` or `B{chunk}.{mb}`.
pub fn reference_step_report(
    m: &StepModel,
    opts: &SimOptions,
    report: &StepReport,
) -> Result<(StepReport, Trace), String> {
    let sched = m.schedule().map_err(|e| e.to_string())?;
    let mut costs = m.stage_costs();
    let stretch = 1.0 / opts.health.worst_link_scale();
    if stretch != 1.0 {
        costs.p2p = costs.p2p.scale(stretch);
    }
    let (dp, pp) = (m.mesh.dp(), m.mesh.pp());
    let (ops, streams) = lowering_capacity(&sched);
    let mut g: TaskGraph<(u32, PpSimOp)> =
        TaskGraph::with_capacity(ops * dp as usize + pp as usize, streams * dp as usize);
    let mut replicas = Vec::with_capacity(dp as usize);
    for d in 0..dp {
        let scales: Vec<f64> = (0..pp)
            .map(|r| {
                let rank = r * m.mesh.stride(Dim::Pp) + d * m.mesh.stride(Dim::Dp);
                let j = opts.jitter.map_or(1.0, |j| j.multiplier(rank, opts.step));
                j * opts.health.compute_multiplier(rank)
            })
            .collect();
        replicas.push(lower_pp(&mut g, &sched, &costs, &scales, |op| (d, op)));
    }
    for r in 0..pp as usize {
        let streams: Vec<_> = replicas.iter().map(|l| l.compute_streams[r]).collect();
        g.add_op(
            (u32::MAX, PpSimOp::Transfer),
            report.exposed.dp,
            streams,
            [],
        );
    }
    let run = g.execute().map_err(|e| format!("reference graph: {e}"))?;

    let pp = pp as usize;
    let mut compute = vec![SimDuration::ZERO; dp as usize * pp];
    let mut local_end = vec![SimTime::ZERO; dp as usize];
    for rec in run.records() {
        if let (d, PpSimOp::Forward { rank, .. } | PpSimOp::Backward { rank, .. }) = rec.meta {
            compute[d as usize * pp + rank as usize] += rec.duration();
            local_end[d as usize] = local_end[d as usize].max(rec.end);
        }
    }
    let bubble_ratio = (0..pp)
        .map(|r| {
            (0..dp as usize)
                .map(|d| {
                    let c = compute[d * pp + r];
                    if c.is_zero() {
                        return 0.0;
                    }
                    let makespan = local_end[d].saturating_since(SimTime::ZERO);
                    makespan.saturating_sub(c).as_secs_f64() / c.as_secs_f64()
                })
                .fold(0.0, f64::max)
        })
        .collect();
    let latest = local_end.iter().max().copied().unwrap_or_default();
    let critical = local_end.iter().position(|&e| e == latest).unwrap_or(0) as u32;
    let events = run
        .records()
        .iter()
        .filter_map(|rec| {
            let (rank, name) = match rec.meta {
                (d, PpSimOp::Forward { rank, stage, mb }) if d == critical => {
                    (rank, format!("F{}.{mb}", stage / sched.pp))
                }
                (d, PpSimOp::Backward { rank, stage, mb }) if d == critical => {
                    (rank, format!("B{}.{mb}", stage / sched.pp))
                }
                _ => return None,
            };
            Some(TraceEvent {
                rank,
                name: name.into(),
                category: EventCategory::Compute,
                start_ns: rec.start.as_nanos(),
                duration_ns: rec.duration().as_nanos(),
            })
        })
        .collect();
    let step_time = run.makespan();
    let reference = StepReport {
        step_time,
        tflops_per_gpu: tflops_per_gpu(
            m.model_flops_per_step(),
            step_time.as_secs_f64().max(1e-12),
            f64::from(m.cluster.num_gpus()),
        ),
        bubble_ratio,
        ..report.clone()
    };
    Ok((reference, Trace { events }))
}

/// Oracle 1 — step pipeline timing. A jitter-free, healthy step must
/// produce *bit-identical* reports under [`SimFidelity::Folded`] and
/// [`SimFidelity::Full`] (the folding identity is exact, not
/// approximate). Under every option set `oracle_step_options` builds
/// from `seed` (jitter, throttled ranks, degraded links):
///
/// * `run` equals [`reference_step_report`] bit for bit;
/// * a traced run reports bit for bit what the untraced run does;
/// * its trace is the reference's critical replica, event for event
///   on (rank, name, start, duration);
/// * its last event ends `exposed.dp` before `step_time`.
///
/// Folded and full steps share one compiled pipeline program, so the
/// engine-executed joint graph is what keeps this oracle independent
/// of it.
pub fn oracle_folded_vs_full(m: &StepModel, seed: u64) -> CheckResult {
    let run = |opts: &SimOptions| m.run(opts).map_err(|e| format!("run failed: {e}"));
    let folded = run(&SimOptions::new().fidelity(SimFidelity::Folded))?.report;
    let full = run(&SimOptions::new().fidelity(SimFidelity::Full))?.report;
    assert_equivalent("folded vs full", &folded, &full, 0.0)?;
    for (label, opts) in oracle_step_options(m, seed) {
        let checked = || -> CheckResult {
            let report = run(&opts)?.report;
            let (reference, critical) = reference_step_report(m, &opts, &report)?;
            assert_equivalent("run vs reference", &report, &reference, 0.0)?;
            let traced = run(&opts.clone().trace(true))?;
            assert_equivalent("traced vs untraced", &traced.report, &report, 0.0)?;
            let trace = traced.trace.ok_or("run(trace: true) produced no trace")?;
            let (got, want) = (&trace.events, &critical.events);
            if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
                return Err(format!(
                    "trace event {i}: {:?}, critical replica's record {:?}",
                    got.get(i),
                    want.get(i)
                ));
            }
            let end = SimDuration::from_nanos(trace.span_ns()) + report.exposed.dp;
            assert_equivalent("trace end + exposed dp", &end, &report.step_time, 0.0)
        };
        field(label, checked())?;
    }
    Ok(())
}

/// The lowest layer of oracle 1: `program`, compiled from `schedule`,
/// vs the engine on one pipeline under one cost binding. `schedule` is
/// lowered with [`lower_pp`] under `costs` and per-rank compute scales
/// `rank_scale`, executed, and every compute op's `(start, end)` must
/// equal a pass of `program` under the same binding bit for bit
/// (program index `i` is the graph's op `i`). Returns the executed
/// graph for further invariant checks.
pub fn program_vs_engine(
    schedule: &PpSchedule,
    program: &PpProgram,
    costs: &TableCosts,
    rank_scale: &[f64],
) -> Result<ExecutedGraph<PpSimOp>, String> {
    let mut t = PpTiming::default();
    program.run(costs, rank_scale, &mut t);
    let [makespan] = t.makespan;
    let run =
        execute_pp(schedule, costs, rank_scale).map_err(|e| format!("graph execution: {e:?}"))?;
    for (i, rec) in run.records()[..program.len()].iter().enumerate() {
        let [end] = t.end[i];
        if matches!(rec.meta, PpSimOp::Transfer) {
            return Err(format!(
                "graph op {i} is a transfer, program op {i} is compute"
            ));
        }
        if (rec.start, rec.end) != (t.start[i], end) {
            return Err(format!(
                "op {i} ({:?}): engine [{}, {}) ns vs program [{}, {}) ns",
                rec.meta,
                rec.start.as_nanos(),
                rec.end.as_nanos(),
                t.start[i].as_nanos(),
                end.as_nanos()
            ));
        }
    }
    if run.makespan() != makespan {
        return Err(format!(
            "makespan: engine {} ns vs program {} ns",
            run.makespan().as_nanos(),
            makespan.as_nanos()
        ));
    }
    Ok(run)
}

/// Oracle 2 — memoized collective costs. Pricing the same collectives
/// with the process-global cache enabled and disabled must be
/// bit-identical; the cache may never change a cost, only skip
/// recomputing it. Exercises all five collective entry points over the
/// given groups and byte sizes.
pub fn oracle_memoized_costs(
    model: &CommCostModel,
    groups: &[collectives::ProcessGroup],
    byte_sizes: &[u64],
) -> CheckResult {
    let uncached = model.clone().with_caching(false);
    let cached = model.clone().with_caching(true);
    clear_cost_cache();
    for g in groups {
        for &bytes in byte_sizes {
            let pairs = [
                (
                    "all_gather",
                    cached.all_gather(g, bytes),
                    uncached.all_gather(g, bytes),
                ),
                (
                    "reduce_scatter",
                    cached.reduce_scatter(g, bytes),
                    uncached.reduce_scatter(g, bytes),
                ),
                (
                    "all_reduce",
                    cached.all_reduce(g, bytes),
                    uncached.all_reduce(g, bytes),
                ),
                (
                    "broadcast",
                    cached.broadcast(g, bytes),
                    uncached.broadcast(g, bytes),
                ),
            ];
            for (name, c, u) in pairs {
                assert_equivalent(&format!("{name}({g}, {bytes})"), &c, &u, 0.0)?;
            }
            // Re-query through the now-warm cache: the hit must also match.
            assert_equivalent(
                &format!("all_gather({g}, {bytes}) cache hit"),
                &cached.all_gather(g, bytes),
                &uncached.all_gather(g, bytes),
                0.0,
            )?;
        }
    }
    Ok(())
}

/// Oracle 3 — the fluid solver's disjoint-single-link fast path vs the
/// general max-min event loop on the *same* transfer set. The general
/// path is forced by appending a zero-byte transfer routed over two
/// links: it changes no rate (zero demand) but defeats the
/// single-link-disjointness gate. Finish times may differ only by the
/// event loop's nanosecond rounding, bounded here at 1 µs.
pub fn oracle_fluid_fast_path(link_bps: &[f64], transfer_bytes: &[f64]) -> CheckResult {
    if link_bps.len() < 2 || transfer_bytes.len() > link_bps.len() {
        return Err(format!(
            "need ≥ 2 links and one transfer per link, got {} links / {} transfers",
            link_bps.len(),
            transfer_bytes.len()
        ));
    }
    let mut net = FluidNet::new();
    let links: Vec<_> = link_bps.iter().map(|&bps| net.add_link(bps)).collect();
    let make_transfers = || -> Vec<Transfer> {
        transfer_bytes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| Transfer {
                route: vec![links[i]],
                bytes,
                start: SimTime::ZERO,
            })
            .collect()
    };
    let fast = net
        .run(make_transfers())
        .map_err(|e| format!("fast path failed: {e:?}"))?;
    let mut with_sentinel = make_transfers();
    with_sentinel.push(Transfer {
        route: vec![links[0], links[1]],
        bytes: 0.0,
        start: SimTime::ZERO,
    });
    let general = net
        .run(with_sentinel)
        .map_err(|e| format!("general path failed: {e:?}"))?;
    let finish = |outcomes: &[TransferOutcome], id: usize| {
        outcomes
            .iter()
            .find(|o| o.id.0 as usize == id)
            .map(|o| o.finish.as_nanos() as f64 / 1e9)
    };
    for (i, &bytes) in transfer_bytes.iter().enumerate() {
        let (Some(f), Some(g)) = (finish(&fast, i), finish(&general, i)) else {
            return Err(format!("transfer {i} missing from an outcome set"));
        };
        if (f - g).abs() > 1e-6 {
            return Err(format!(
                "transfer {i} ({bytes} bytes over link {i}): fast path finishes at {f} s, \
                 general max-min at {g} s"
            ));
        }
    }
    Ok(())
}

/// Oracle 5 — `RunSimulator` day totals vs an independent naive
/// recomposition of the same `FaultTimeline`: walk the horizon one step
/// at a time, pricing degraded steps, checkpoint stalls and
/// fatal-fault outages directly from the timeline, with no code shared
/// with `RunSimulator::simulate`. Totals must agree to float-rounding
/// tolerance.
pub fn oracle_goodput_recomposition(sim: &RunSimulator) -> CheckResult {
    let reference = sim
        .simulate()
        .map_err(|e| format!("RunSimulator::simulate failed: {e}"))?;
    let naive = naive_goodput(sim).map_err(|e| format!("naive recomposition failed: {e}"))?;
    assert_equivalent("goodput vs naive recomposition", &reference, &naive, 1e-9)
}

/// Oracle 6 — the bounded search walk vs exhaustive enumeration. The
/// [`search`] funnel takes three shortcuts the reference here refuses:
/// the graph-shaped rules are memoized by shape, a candidate is
/// rejected at the first failing rule family, and the bounded walk
/// prunes candidates an earlier-scored point dominates without
/// analyzing or running them. The reference instead scores **every**
/// admitted candidate — running the full analyzer and treating any
/// error as rejection — and recomputes the frontier by quadratic
/// pairwise dominance. The funnel must agree:
///
/// * `rejected_preflight + pruned + scored == candidates`;
/// * a funnel rejection is a reference rejection, and every scored
///   point is bit-identical to the reference's;
/// * every pruned candidate's walk key is dominated by a reference
///   point (faster than its bound, no more memory), and a pruned
///   candidate the reference scores is strictly dominated;
/// * the frontier is the reference frontier, as a multiset of
///   `(config, step time, peak memory)`;
/// * the whole report, counts included, is identical at 1, 2 and 8
///   threads.
///
/// Meant for small grids; refuses above 1024 candidates.
pub fn oracle_search_frontier(spec: &SearchSpec) -> CheckResult {
    let report = search(spec).map_err(|e| format!("search failed: {e}"))?;
    let outcomes = search_outcomes(spec).map_err(|e| format!("search failed: {e}"))?;

    let (admitted, _) = enumerate_configs(spec);
    if admitted.len() > 1024 {
        return Err(format!(
            "the exhaustive reference is quadratic; {} candidates is too many",
            admitted.len()
        ));
    }
    // The unmemoized, unpruned reference: `None` = rejected.
    let reference: Vec<Option<(u64, u64)>> = admitted
        .iter()
        .map(|cfg| match score_one(spec, cfg) {
            Outcome::Scored(p) => Some((p.step_time.as_nanos(), p.peak_memory)),
            _ => None,
        })
        .collect();
    let scored: Vec<(String, u64, u64)> = admitted
        .iter()
        .zip(&reference)
        .filter_map(|(c, r)| r.map(|(t, m)| (c.to_string(), t, m)))
        .collect();

    let c = &report.counts;
    if c.candidates != admitted.len() || outcomes.candidates.len() != admitted.len() {
        return Err(format!(
            "funnel saw {} candidates, enumeration yields {}",
            c.candidates,
            admitted.len()
        ));
    }
    if c.rejected_preflight + c.pruned + c.scored != c.candidates {
        return Err(format!("funnel counts do not add up: {c:?}"));
    }
    for ((cand, cfg), r) in outcomes.candidates.iter().zip(&admitted).zip(&reference) {
        if cand.config != *cfg {
            return Err(format!(
                "funnel order: {} where enumeration has {cfg}",
                cand.config
            ));
        }
        match (&cand.outcome, r) {
            (Outcome::Rejected, None) => {}
            (Outcome::Scored(p), Some((t, m)))
                if p.step_time.as_nanos() == *t && p.peak_memory == *m => {}
            (Outcome::Pruned, r) => {
                let key = cand
                    .key
                    .ok_or_else(|| format!("{cfg}: pruned without a walk key"))?;
                let (bound, memory) = (key.bound.as_nanos(), key.memory);
                if !scored.iter().any(|q| q.1 < bound && q.2 <= memory) {
                    return Err(format!(
                        "{cfg}: pruned, but no reference point beats bound {bound} ns at ≤ {memory} B"
                    ));
                }
                if let Some((t, m)) = r {
                    if !scored.iter().any(|q| q.1 < *t && q.2 <= *m) {
                        return Err(format!(
                            "{cfg}: pruned, but no reference point dominates it"
                        ));
                    }
                }
            }
            (o, r) => {
                return Err(format!("{cfg}: funnel says {o:?}, reference says {r:?}"));
            }
        }
    }

    // A point survives iff nothing is ≤ in both objectives and < in at
    // least one; exact-objective duplicates are mutually non-dominating
    // and all survive, matching the funnel's tie handling.
    let dominated = |p: &(String, u64, u64)| {
        scored
            .iter()
            .any(|q| q.1 <= p.1 && q.2 <= p.2 && (q.1 < p.1 || q.2 < p.2))
    };
    let mut frontier_ref: Vec<(String, u64, u64)> =
        scored.iter().filter(|p| !dominated(p)).cloned().collect();
    let mut funnel: Vec<(String, u64, u64)> = report
        .frontier
        .iter()
        .map(|p| (p.config.to_string(), p.step_time.as_nanos(), p.peak_memory))
        .collect();
    let key = |p: &(String, u64, u64)| (p.1, p.2, p.0.clone());
    frontier_ref.sort_by_key(key);
    funnel.sort_by_key(key);
    if frontier_ref != funnel {
        let missing: Vec<&String> = frontier_ref
            .iter()
            .filter(|p| !funnel.contains(p))
            .map(|p| &p.0)
            .collect();
        let spurious: Vec<&String> = funnel
            .iter()
            .filter(|p| !frontier_ref.contains(p))
            .map(|p| &p.0)
            .collect();
        return Err(format!(
            "frontier mismatch: exhaustive reference has {} points, funnel has {}; \
             dropped by pruning: {missing:?}; not on the true frontier: {spurious:?}",
            frontier_ref.len(),
            funnel.len()
        ));
    }

    for threads in [1, 2, 8] {
        let again = search(&spec.clone().threads(threads))
            .map_err(|e| format!("search at {threads} threads failed: {e}"))?;
        if again != report {
            return Err(format!(
                "report differs at {threads} threads: {:?}",
                again.counts
            ));
        }
    }
    Ok(())
}

/// Oracle 8 — tiered run tracing vs the plain walk. Simulating with
/// `simulate_traced` (streaming into the bounded tower, recording
/// anchors) must leave the goodput report *bit-identical* to
/// `simulate()`, and every window rematerialized through the anchored
/// replay path must be byte-identical to the corresponding slice of an
/// `O(N)` full-resolution capture of the same run.
pub fn oracle_run_trace_replay(sim: &RunSimulator, cfg: TierConfig) -> CheckResult {
    let plain = sim
        .simulate()
        .map_err(|e| format!("simulate failed: {e}"))?;
    let traced = sim
        .simulate_traced(cfg)
        .map_err(|e| format!("simulate_traced failed: {e}"))?;
    assert_equivalent("traced vs plain report", &traced.report, &plain, 0.0)?;
    let (reference, full_report) = sim
        .trace_events()
        .map_err(|e| format!("trace_events failed: {e}"))?;
    assert_equivalent("full-capture vs plain report", &full_report, &plain, 0.0)?;
    if traced.store.appended() != reference.len() as u64 {
        return Err(format!(
            "store saw {} events, full capture has {}",
            traced.store.appended(),
            reference.len()
        ));
    }
    traced
        .store
        .check_integrity()
        .map_err(|e| format!("tower integrity: {e}"))?;

    let span = traced.store.span_ns();
    let replay = traced.replayer(sim);
    for (t0, t1) in [
        (0, span / 5),
        (span / 2, span / 2 + span / 7),
        (span - span / 6, span + 1),
    ] {
        if t0 >= t1 {
            continue;
        }
        let view = traced.store.window_with_replay(t0, t1, 0, &replay);
        // lint: allow(trace-vec) — oracle reference slice
        let expected: Vec<(u64, TraceEvent)> = reference
            .iter()
            .filter(|(_, e)| e.start_ns >= t0 && e.start_ns < t1)
            .cloned()
            .collect();
        if view.events != expected {
            return Err(format!(
                "window [{t0}, {t1}) ns: rematerialized {} events, reference slice has {} \
                 (rematerialized: {})",
                view.events.len(),
                expected.len(),
                view.rematerialized
            ));
        }
    }
    Ok(())
}

/// Oracle 9 — the tiered trace store vs full-resolution references on
/// the config's step trace (and synthetic slow-rank traces on its
/// mesh). Three claims, all exact:
///
/// * **(a) replay exactness** — any `window_with_replay` seek at zoom 0
///   is byte-identical to the reference slice of the full trace;
/// * **(b) aggregate recomposition** — every resident tier-k window
///   equals both the direct fold of its raw events and the merge of
///   its two tier-(k−1) halves;
/// * **(c) verdict parity** — `locate_slow_rank_tiered` on the bounded
///   store returns the same report as `locate_slow_rank` on the full
///   trace, straggler or not.
pub fn oracle_tiered_trace(m: &StepModel) -> CheckResult {
    let outcome = m
        .run(&SimOptions::new().trace(true))
        .map_err(|e| format!("traced step run failed: {e}"))?;
    let trace = outcome.trace.ok_or("run(trace: true) produced no trace")?;
    if trace.events.is_empty() {
        return Err("step trace is empty".into());
    }
    // A deliberately tiny tower so even short step traces evict and
    // build several tiers.
    let cfg = TierConfig::tiny(16, 2);
    let mut store = TieredTrace::new(cfg);
    for ev in &trace.events {
        store.append(ev.clone());
    }
    store
        .check_integrity()
        .map_err(|e| format!("tower integrity: {e}"))?;
    tiered_replay_exactness(&store, &trace.events)?;
    tiered_aggregate_recomposition(&store, &trace.events)?;
    tiered_verdict_parity(m)
}

/// Oracle 9a: window seeks against the full-resolution reference.
fn tiered_replay_exactness(store: &TieredTrace, events: &[TraceEvent]) -> CheckResult {
    let span = events
        .iter()
        .map(|e| e.start_ns + e.duration_ns)
        .max()
        .unwrap_or(0);
    let replay = SliceReplay::new(events);
    let windows = [
        (0, span / 3),
        (span / 3, 2 * span / 3),
        (span.saturating_sub(span / 5), span + 1),
        (0, span + 1),
    ];
    for (t0, t1) in windows {
        if t0 >= t1 {
            continue;
        }
        let view = store.window_with_replay(t0, t1, 0, &replay);
        // lint: allow(trace-vec) — oracle reference slice
        let expected: Vec<(u64, TraceEvent)> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.start_ns >= t0 && e.start_ns < t1)
            .map(|(i, e)| (i as u64, e.clone()))
            .collect();
        if view.events != expected {
            return Err(format!(
                "window [{t0}, {t1}) ns: rematerialized view has {} events, reference slice \
                 has {} (rematerialized: {})",
                view.events.len(),
                expected.len(),
                view.rematerialized
            ));
        }
    }
    Ok(())
}

/// Oracle 9b: every stored aggregate window recomposes from raw data.
fn tiered_aggregate_recomposition(store: &TieredTrace, events: &[TraceEvent]) -> CheckResult {
    let mut err: Option<String> = None;
    let mut windows = 0u32;
    store.for_each_window(|level, w| {
        if err.is_some() {
            return;
        }
        windows += 1;
        let lo = w.first_index as usize;
        let hi = lo + w.events as usize;
        if hi > events.len() {
            err = Some(format!(
                "tier {level} window at {lo} claims {} raw events past the stream end",
                w.events
            ));
            return;
        }
        let direct = WindowStats::from_run(w.first_index, &events[lo..hi]);
        if direct != *w {
            err = Some(format!(
                "tier {level} window at raw index {lo}: stored aggregate differs from the \
                 direct fold of its {} raw events",
                w.events
            ));
            return;
        }
        // The tier-(k−1) recomposition: a tier-k window is the merge of
        // the two half-span windows it was promoted from.
        let mid = lo + (hi - lo) / 2;
        let first = WindowStats::from_run(w.first_index, &events[lo..mid]);
        let second = WindowStats::from_run(mid as u64, &events[mid..hi]);
        if first.merge(&second) != *w {
            err = Some(format!(
                "tier {level} window at raw index {lo}: merge of its tier-{} halves differs \
                 from the stored aggregate",
                level - 1
            ));
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if store.appended() > 4 * store.config().tier0_events as u64 && windows == 0 {
        return Err("eviction happened but no aggregate windows are resident".into());
    }
    Ok(())
}

/// Oracle 9c: slow-rank verdict parity on this config's mesh.
fn tiered_verdict_parity(m: &StepModel) -> CheckResult {
    let structure = m.mesh.group_structure();
    if structure.dims.is_empty() {
        // A 1×1×1×1 mesh has no groups to analyze; nothing to compare.
        return Ok(());
    }
    let n = m.mesh.num_gpus();
    for straggler in [None, Some((n / 2, 2.5))] {
        let spec = SynthSpec {
            num_ranks: n,
            rounds: 3,
            base_compute_ns: 80_000,
            straggler,
            structure: structure.clone(),
            seed: 17,
        };
        let trace = synth_trace(&spec);
        let full = locate_slow_rank(&trace, &structure);
        let mut store = TieredTrace::new(TierConfig::tiny(32, 4));
        store.extend_from_trace(&trace);
        let tiered = locate_slow_rank_tiered(&store, &structure);
        if full != tiered {
            return Err(format!(
                "straggler {straggler:?}: full-trace verdict (culprit {:?}, confidence {:.3}) \
                 differs from tier-fed verdict (culprit {:?}, confidence {:.3})",
                full.culprit, full.confidence, tiered.culprit, tiered.confidence
            ));
        }
    }
    Ok(())
}

/// Oracle 10 — continuous batching vs an independent naive rewalk.
/// Four claims, all exact:
///
/// * **(a) rewalk parity** — [`simulate_replica`]'s result on every
///   shard is bit-identical to [`naive_continuous_batching`], a
///   from-scratch reimplementation of the documented policy (FIFO
///   head-of-line admission with whole-lifetime block reservation,
///   serial prefill with priority over decode, one token per resident
///   sequence per decode iteration) sharing no state machinery with
///   the engine — it recomputes resident KV from per-sequence contexts
///   instead of maintaining a running counter, and walks the queue by
///   index instead of a `VecDeque`;
/// * **(b) conservation** — every admissible request completes with
///   exactly the trace's token counts, every inadmissible one is
///   dropped, and every replica ends with `free == capacity` (no KV
///   block leaked);
/// * **(c) determinism** — `simulate` run twice on the same trace is
///   bit-identical (whatever the thread count);
/// * **(d) fold parity** — manually sharding round-robin by id and
///   folding the per-replica results reproduces `simulate`'s report.
pub fn oracle_continuous_batching(model: &InferenceModel, requests: &[Request]) -> CheckResult {
    let report = model.simulate(requests);
    if model.simulate(requests) != report {
        return Err("same-trace re-simulation diverged".into());
    }

    let capacity = model.costs.block_capacity();
    let replicas = model.spec.plan.replicas as usize;
    let mut shards: Vec<Vec<Request>> = vec![Vec::new(); replicas];
    for r in requests {
        shards[(r.id % replicas as u64) as usize].push(*r);
    }
    let mut results: Vec<ReplicaResult> = Vec::with_capacity(replicas);
    for (i, shard) in shards.iter().enumerate() {
        let fast = simulate_replica(&model.costs, model.spec.max_batch, shard);
        let naive = naive_continuous_batching(&model.costs, model.spec.max_batch, shard);
        if fast != naive {
            return Err(format!(
                "replica {i}: engine and naive rewalk diverge ({} vs {} outcomes, \
                 {} vs {} decode iters, free {} vs {})",
                fast.outcomes.len(),
                naive.outcomes.len(),
                fast.decode_iters,
                naive.decode_iters,
                fast.free_blocks_end,
                naive.free_blocks_end
            ));
        }
        if fast.free_blocks_end != capacity {
            return Err(format!(
                "replica {i}: {} of {capacity} blocks leaked after draining",
                capacity - fast.free_blocks_end
            ));
        }
        let inadmissible = shard
            .iter()
            .filter(|r| model.costs.blocks_needed(r) > capacity)
            .count() as u64;
        if fast.dropped != inadmissible
            || fast.outcomes.len() as u64 + fast.dropped != shard.len() as u64
        {
            return Err(format!(
                "replica {i}: {} completed + {} dropped vs {} offered \
                 ({inadmissible} inadmissible)",
                fast.outcomes.len(),
                fast.dropped,
                shard.len()
            ));
        }
        let expected: u64 = shard
            .iter()
            .filter(|r| model.costs.blocks_needed(r) <= capacity)
            .map(|r| r.output_tokens)
            .sum();
        let generated: u64 = fast.outcomes.iter().map(|o| o.output_tokens).sum();
        if generated != expected {
            return Err(format!(
                "replica {i}: generated {generated} tokens, admissible requests carry {expected}"
            ));
        }
        for o in &fast.outcomes {
            if o.first_token_ns <= o.arrival_ns || o.finish_ns < o.first_token_ns {
                return Err(format!(
                    "replica {i}: request {} timing is not causal \
                     (arrival {}, first token {}, finish {})",
                    o.id, o.arrival_ns, o.first_token_ns, o.finish_ns
                ));
            }
        }
        results.push(fast);
    }
    if model.fold(requests.len() as u64, &results) != report {
        return Err("manual shard-and-fold diverges from simulate".into());
    }
    Ok(())
}

/// The independent continuous-batching rewalk used by
/// [`oracle_continuous_batching`]. Implements the policy documented on
/// [`simulate_replica`] from scratch: the waiting queue is an index
/// window over the time-ordered shard (not a `VecDeque`), resident KV
/// tokens are re-summed from per-sequence contexts every decode
/// iteration (not maintained incrementally), and completed sequences
/// are filtered into a fresh vector (not removed in place).
pub fn naive_continuous_batching(
    costs: &InferCosts,
    max_batch: usize,
    requests: &[Request],
) -> ReplicaResult {
    #[derive(Clone, Copy)]
    struct Seq {
        idx: usize,
        context: u64,
        remaining: u64,
    }
    let batch_cap = max_batch.max(1);
    let capacity = costs.block_capacity();
    let mut outcomes: Vec<RequestOutcome> = Vec::new();
    let mut resident: Vec<Seq> = Vec::new();
    let mut first_token = vec![0u64; requests.len()];
    let mut head = 0usize; // next request not yet admitted or dropped
    let mut arrived = 0usize; // requests[head..arrived] is the FIFO queue
    let mut now = 0u64;
    let mut free = capacity;
    let mut dropped = 0u64;
    let mut peak_blocks = 0u64;
    let mut decode_iters = 0u64;
    let mut busy = SimDuration::ZERO;

    while head < requests.len() || !resident.is_empty() {
        while arrived < requests.len() && requests[arrived].arrival_ns <= now {
            arrived += 1;
        }

        let mut n_admit = 0usize;
        while head + n_admit < arrived && resident.len() + n_admit < batch_cap {
            let need = costs.blocks_needed(&requests[head + n_admit]);
            if need > free {
                break;
            }
            free -= need;
            n_admit += 1;
        }
        peak_blocks = peak_blocks.max(capacity - free);

        if n_admit > 0 {
            let mut t = SimDuration::ZERO;
            for r in &requests[head..head + n_admit] {
                t += costs.prefill_time(r.prompt_tokens);
            }
            now += t.as_nanos();
            busy += t;
            for i in head..head + n_admit {
                let r = &requests[i];
                first_token[i] = now;
                if r.output_tokens == 1 {
                    free += costs.blocks_needed(r);
                    outcomes.push(RequestOutcome {
                        id: r.id,
                        arrival_ns: r.arrival_ns,
                        prompt_tokens: r.prompt_tokens,
                        output_tokens: r.output_tokens,
                        first_token_ns: now,
                        finish_ns: now,
                    });
                } else {
                    resident.push(Seq {
                        idx: i,
                        context: r.prompt_tokens + 1,
                        remaining: r.output_tokens - 1,
                    });
                }
            }
            head += n_admit;
            continue;
        }

        if !resident.is_empty() {
            let kv_tokens: u64 = resident.iter().map(|s| s.context).sum();
            let t = costs.decode_iter_time(resident.len() as u64, kv_tokens);
            now += t.as_nanos();
            busy += t;
            decode_iters += 1;
            let mut survivors: Vec<Seq> = Vec::with_capacity(resident.len());
            for mut s in resident {
                s.remaining -= 1;
                s.context += 1;
                if s.remaining == 0 {
                    let r = &requests[s.idx];
                    free += costs.blocks_needed(r);
                    outcomes.push(RequestOutcome {
                        id: r.id,
                        arrival_ns: r.arrival_ns,
                        prompt_tokens: r.prompt_tokens,
                        output_tokens: r.output_tokens,
                        first_token_ns: first_token[s.idx],
                        finish_ns: now,
                    });
                } else {
                    survivors.push(s);
                }
            }
            resident = survivors;
            continue;
        }

        if head < arrived {
            // The head request can never fit: drop, as the engine does.
            head += 1;
            dropped += 1;
            continue;
        }

        now = now.max(requests[arrived].arrival_ns);
    }

    ReplicaResult {
        outcomes,
        dropped,
        peak_blocks,
        free_blocks_end: free,
        decode_iters,
        busy,
    }
}

/// Independent step-by-step recomposition used by
/// [`oracle_goodput_recomposition`]. Deliberately re-derives every
/// quantity (step pricing, checkpoint cadence, outage arithmetic) from
/// the public `StepModel`/`FaultTimeline`/`CheckpointPolicy` APIs
/// rather than calling into `RunSimulator`'s loop.
pub fn naive_goodput(sim: &RunSimulator) -> Result<GoodputReport, String> {
    let base = sim
        .step
        .run(&SimOptions::default())
        .map_err(|e| e.to_string())?
        .report;
    let healthy = base.step_time.as_secs_f64();
    if healthy <= 0.0 {
        return Err("healthy step time must be positive".into());
    }
    let dp_exposed = base.exposed.dp.as_secs_f64();
    let bytes = sim.checkpoint_bytes_per_rank();
    let write_s = bytes as f64 / sim.policy.write_bandwidth;
    let read_s = bytes as f64 / sim.policy.read_bandwidth;
    let every = (sim.policy.interval_s / healthy).round().max(1.0) as u64;
    let horizon = sim.timeline.horizon_s();
    let fatals: Vec<f64> = sim.timeline.fatal_events().map(|e| e.start_s).collect();

    let mut t = 0.0f64;
    let mut committed = 0u64;
    let mut restarts = 0u32;
    let mut loss = GoodputLoss::default();
    let mut since_ckpt = 0u64;
    let mut since_ckpt_wall = 0.0f64;
    let mut since_ckpt_degraded = 0.0f64;
    let mut next_fatal = 0usize;

    while t < horizon {
        let health = sim.timeline.health_at(t);
        let step_s = healthy * health.worst_compute_multiplier()
            + dp_exposed * (1.0 / health.worst_link_scale() - 1.0);
        if next_fatal < fatals.len() && fatals[next_fatal] <= t + step_s {
            let f = fatals[next_fatal];
            next_fatal += 1;
            loss.rework_s += since_ckpt_wall + (f - t).max(0.0);
            since_ckpt = 0;
            since_ckpt_wall = 0.0;
            since_ckpt_degraded = 0.0;
            loss.detect_s += sim.policy.detect_s;
            loss.restart_s += sim.policy.reschedule_s + read_s;
            t = t.max(f) + sim.policy.detect_s + sim.policy.reschedule_s + read_s;
            restarts += 1;
            while next_fatal < fatals.len() && fatals[next_fatal] <= t {
                next_fatal += 1;
            }
            continue;
        }
        t += step_s;
        since_ckpt += 1;
        since_ckpt_wall += step_s;
        since_ckpt_degraded += step_s - healthy;
        if since_ckpt >= every {
            t += write_s;
            loss.checkpoint_s += write_s;
            committed += since_ckpt;
            loss.degraded_s += since_ckpt_degraded;
            since_ckpt = 0;
            since_ckpt_wall = 0.0;
            since_ckpt_degraded = 0.0;
        }
    }
    committed += since_ckpt;
    loss.degraded_s += since_ckpt_degraded;

    let productive = committed as f64 * healthy;
    let mtbf = sim.timeline.mtbf_s();
    Ok(GoodputReport {
        wall_time_s: t,
        productive_s: productive,
        goodput: productive / t.max(f64::MIN_POSITIVE),
        steps_completed: committed,
        restarts,
        loss,
        healthy_step_s: healthy,
        checkpoint_bytes_per_rank: bytes,
        checkpoint_write_s: write_s,
        checkpoint_interval_s: every as f64 * healthy,
        young_daly_interval_s: if mtbf.is_finite() {
            (2.0 * write_s * mtbf).sqrt()
        } else {
            f64::INFINITY
        },
        mtbf_s: mtbf,
    })
}

/// The edits oracle 12 applies to one op of one rank, in battery order.
const SCHEDULE_EDITS: [&str; 7] = [
    "swap with next",
    "swap with opposite",
    "drop",
    "duplicate",
    "duplicate to end",
    "move to front",
    "move to back",
];

/// `base` with edit `SCHEDULE_EDITS[edit]` applied to op `i` of rank
/// `rank`, or `None` when the edit leaves the schedule unchanged.
fn mutate_schedule(base: &PpSchedule, rank: usize, i: usize, edit: usize) -> Option<PpSchedule> {
    let ops = &base.ranks[rank];
    let n = ops.len();
    let mut edited = ops.clone();
    match edit {
        0 if i + 1 < n => edited.swap(i, i + 1),
        0 => {}
        1 => edited.swap(i, (i + n / 2) % n),
        2 => {
            edited.remove(i);
        }
        3 => edited.insert(i + 1, ops[i]),
        4 => edited.push(ops[i]),
        5 => {
            let op = edited.remove(i);
            edited.insert(0, op);
        }
        _ => {
            let op = edited.remove(i);
            edited.push(op);
        }
    }
    (edited != *ops).then(|| {
        let mut s = base.clone();
        s.ranks[rank] = edited;
        s
    })
}

/// Largest schedule (in compute ops) oracle 12 checks `RACE001`
/// against the brute-force closure; its reference is quadratic.
const RACE_REFERENCE_MAX_OPS: usize = 512;

/// Oracle 12 — the pipeline rules vs execution and a brute-force
/// reference, over a battery of broken schedules. `base` (a built
/// schedule) must get no `DEAD*`/`RACE001` finding. Then every edit
/// of [`SCHEDULE_EDITS`] is applied to every op of every rank — at
/// most `max_mutants` of them, evenly spaced — and each mutant goes
/// through [`check_pipeline_rules`]. Returns the number of mutants
/// checked.
pub fn oracle_pipeline_rules(base: &PpSchedule, max_mutants: usize) -> Result<usize, String> {
    let program = PpProgram::build(base);
    let findings = [
        deadlock::check_program(base, &program),
        race::check_program(base, &program),
    ]
    .concat();
    if let Some(d) = findings.first() {
        return Err(format!("built schedule: {}", d.render_human()));
    }
    let slots: Vec<(usize, usize, usize)> = (0..base.ranks.len())
        .flat_map(|r| {
            (0..base.ranks[r].len())
                .flat_map(move |i| (0..SCHEDULE_EDITS.len()).map(move |e| (r, i, e)))
        })
        .collect();
    let stride = slots.len().div_ceil(max_mutants.max(1)).max(1);
    let mut checked = 0;
    for &(r, i, e) in slots.iter().step_by(stride) {
        if let Some(s) = mutate_schedule(base, r, i, e) {
            check_pipeline_rules(&s)
                .map_err(|err| format!("rank {r} op {i} {}: {err}", SCHEDULE_EDITS[e]))?;
            checked += 1;
        }
    }
    Ok(checked)
}

/// One schedule of oracle 12, on one compiled program: `DEAD001` or
/// `DEAD002` fires exactly when the program cannot run; a deadlock with
/// every producer scheduled names the ops the engine leaves unexecuted
/// with zero and with non-zero P2P ([`engine_deadlock_matches_program`]);
/// and on a schedule that runs, with at most [`RACE_REFERENCE_MAX_OPS`]
/// ops, `RACE001`'s unordered pairs are exactly those of a brute-force
/// reachability closure over the [`lower_pp`] task graph.
pub fn check_pipeline_rules(s: &PpSchedule) -> CheckResult {
    let program = PpProgram::build(s);
    let dead = deadlock::check_program(s, &program);
    let rejected = dead
        .iter()
        .any(|d| matches!(d.rule, RuleId::Dead001 | RuleId::Dead002));
    let runs = program.is_complete();
    if runs == rejected {
        return Err(format!(
            "the program {} but the analyzer reports {:?}",
            if runs { "runs" } else { "deadlocks" },
            dead.iter().map(|d| d.render_human()).collect::<Vec<_>>()
        ));
    }
    if !runs && program.unresolved().next().is_none() {
        // The lowering does depend on P2P: a zero-cost edge gets no
        // transfer op.
        let stuck: Vec<OpId> = program.stuck().map(OpId::from_index).collect();
        let us = SimDuration::from_micros;
        for p2p in [0, 5] {
            let costs = TableCosts::uniform(s.num_stages(), us(3), us(7), us(p2p));
            engine_deadlock_matches_program(s, &stuck, &costs)
                .map_err(|e| format!("p2p {p2p} µs: {e}"))?;
        }
    }
    if rejected || program.len() > RACE_REFERENCE_MAX_OPS {
        return Ok(());
    }
    let got = race::unordered_pairs(s, &program);
    let want = reference_races(s);
    if got != want {
        return Err(format!("RACE001 pairs {got:?}, brute force {want:?}"));
    }
    Ok(())
}

/// A deadlocked schedule whose every producer is scheduled: `stuck`,
/// the [stuck](PpProgram::stuck) ops of its compiled program (the op
/// set of [`PpProgram::compile`]'s `GraphError::Deadlock`), must equal
/// the compute ops the engine leaves unexecuted when it runs the
/// [`lower_pp`] graph under `costs`. The engine also names the stuck
/// transfers; the program has none to name.
pub fn engine_deadlock_matches_program(
    s: &PpSchedule,
    stuck: &[OpId],
    costs: &TableCosts,
) -> CheckResult {
    if stuck.is_empty() {
        return Err("the program runs the schedule".into());
    }
    let run = execute_pp(s, costs, &[]);
    let Err(GraphError::Deadlock(engine)) = run else {
        return Err(format!(
            "the engine runs the schedule, the program leaves {stuck:?} stuck"
        ));
    };
    // Compute ops come first in the lowering, in program order.
    let n = s.ranks.iter().map(Vec::len).sum::<usize>();
    let compute: Vec<_> = engine.into_iter().filter(|op| op.index() < n).collect();
    if compute != stuck {
        return Err(format!(
            "program names stuck ops {stuck:?}, the engine {compute:?}"
        ));
    }
    Ok(())
}

/// Every unordered conflicting pair of compute ops in `s`'s
/// [`lower_pp`] graph (with transfers), by the full transitive closure
/// of its dependency and FIFO-stream edges. Sorted like
/// [`race::unordered_pairs`]: by lane, then by the two op ids. The
/// graph must be acyclic.
fn reference_races(s: &PpSchedule) -> Vec<Race> {
    let us = SimDuration::from_micros(1);
    let costs = TableCosts::uniform(s.num_stages(), us, us, us);
    let (ops, streams) = lowering_capacity(s);
    let mut g: TaskGraph<PpSimOp> = TaskGraph::with_capacity(ops, streams);
    lower_pp(&mut g, s, &costs, &[], |op| op);
    let n = g.op_count();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut last_on_stream: Vec<Option<usize>> = vec![None; g.stream_count()];
    for op in g.op_ids() {
        for st in g.op_streams(op) {
            preds[op.index()].extend(last_on_stream[st.index()]);
            last_on_stream[st.index()] = Some(op.index());
        }
        preds[op.index()].extend(g.op_deps(op).iter().map(|d| d.index()));
    }
    // ancestors[i]: bitset of every op with a path to op i.
    fn close(i: usize, preds: &[Vec<usize>], ancestors: &mut [Vec<u64>], done: &mut [bool]) {
        if done[i] {
            return;
        }
        // Acyclic, so no op below `i` needs `i`'s set while it is out.
        let mut set = std::mem::take(&mut ancestors[i]);
        for &p in &preds[i] {
            close(p, preds, ancestors, done);
            for (t, f) in set.iter_mut().zip(&ancestors[p]) {
                *t |= f;
            }
            set[p / 64] |= 1 << (p % 64);
        }
        ancestors[i] = set;
        done[i] = true;
    }
    let mut ancestors = vec![vec![0u64; n.div_ceil(64)]; n];
    let mut done = vec![false; n];
    for i in 0..n {
        close(i, &preds, &mut ancestors, &mut done);
    }
    let reaches = |a: usize, b: usize| ancestors[b][a / 64] >> (a % 64) & 1 == 1;

    let last = s.num_stages() - 1;
    let mut touches: Vec<(Lane, usize, bool)> = Vec::new();
    for op in g.op_ids() {
        let i = op.index();
        match *g.op_meta(op) {
            PpSimOp::Forward { stage, mb, .. } => {
                touches.push((Lane::Act { stage, mb }, i, true));
                if stage > 0 {
                    touches.push((
                        Lane::Act {
                            stage: stage - 1,
                            mb,
                        },
                        i,
                        false,
                    ));
                }
            }
            PpSimOp::Backward { stage, mb, .. } => {
                touches.push((Lane::Grad { stage, mb }, i, true));
                touches.push((Lane::Act { stage, mb }, i, false));
                if stage < last {
                    touches.push((
                        Lane::Grad {
                            stage: stage + 1,
                            mb,
                        },
                        i,
                        false,
                    ));
                }
            }
            PpSimOp::Transfer => {}
        }
    }
    touches.sort_unstable();
    let mut races = Vec::new();
    for members in touches.chunk_by(|x, y| x.0 == y.0) {
        for (k, &(lane, a, a_writes)) in members.iter().enumerate() {
            for &(_, b, b_writes) in &members[k + 1..] {
                if (a_writes || b_writes) && !reaches(a, b) && !reaches(b, a) {
                    races.push(Race {
                        lane,
                        a,
                        a_writes,
                        b,
                        b_writes,
                    });
                }
            }
        }
    }
    races
}

/// Oracle 13 — `COLL001` as the search and the analyzer run it
/// ([`collective::check_step`]: one stream derivation per (family, pp
/// coordinate)) vs the per-member reference
/// `check_plan(&extract_plan(..))`, which derives and compares every
/// member's stream. The two must report the same diagnostics in the
/// same order: rule, message, rank, op and witness.
pub fn oracle_collective_streams(m: &StepModel) -> CheckResult {
    let sched = m.schedule().map_err(|e| format!("schedule build: {e}"))?;
    let lines = |d: Vec<analyze::Diagnostic>| -> Vec<String> {
        d.iter().map(analyze::Diagnostic::to_json_line).collect()
    };
    let fast = lines(collective::check_step(m, &sched));
    let reference = lines(collective::check_plan(&collective::extract_plan(m, &sched)));
    if fast != reference {
        return Err(format!(
            "COLL001 per pp coordinate {fast:?} vs per member {reference:?}"
        ));
    }
    Ok(())
}

/// Oracle 14 — the search walk's key vs the folded run. The bound must
/// not exceed the folded step time (else pruning could drop a frontier
/// point). A plan gets a walk key exactly when the memory analyzer
/// ([`analyze::memory::check_step`]) is silent — neither `MEM001` nor
/// `MEM002` — and the key's bound is the step's bound and its memory
/// the reported `max_peak_memory()` (else pruning could compare the
/// wrong objective).
pub fn oracle_step_time_bound(m: &StepModel) -> CheckResult {
    let sched = m.schedule().map_err(|e| format!("schedule build: {e}"))?;
    let report = m
        .run(&SimOptions::default())
        .map_err(|e| format!("folded run: {e}"))?
        .report;
    let bound = m.step_time_bound();
    if bound > report.step_time {
        return Err(format!(
            "step-time bound {bound} exceeds the folded step time {}",
            report.step_time
        ));
    }
    let mem = analyze::memory::check_step(m, &sched);
    match prune_key(m, &sched) {
        Some(_) if !mem.is_empty() => Err(format!(
            "walk key, but the memory analyzer reports {:?}",
            mem.iter().map(|d| d.rule).collect::<Vec<_>>()
        )),
        None if mem.is_empty() => Err("no walk key, but the memory analyzer is silent".into()),
        Some(key) if key.bound != bound => Err(format!(
            "walk key bound {} vs step_time_bound {bound}",
            key.bound
        )),
        Some(key) if key.memory != report.max_peak_memory() => Err(format!(
            "walk key memory {} vs reported peak memory {}",
            key.memory,
            report.max_peak_memory()
        )),
        _ => Ok(()),
    }
}

/// Oracle 15 — the §5.1 planner vs the search over its own space. The
/// planner is a policy over the search's candidates, so for the
/// training search `spec` (default axes, as [`SearchSpec::training`]
/// builds them):
///
/// * the plan's configuration is one [`enumerate_configs`] yields;
/// * its TFLOPs and peak memory are [`score_one`]'s, bit for bit — one
///   cost model and one memory rule;
/// * the plan's mesh is the mesh of the fastest frontier point of the
///   search with `max_cp` = the plan's cp, and so on that frontier.
pub fn oracle_planner_vs_search(spec: &SearchSpec) -> CheckResult {
    let p = plan(&spec.input).map_err(|e| format!("plan failed: {e}"))?;
    let c = p.config;
    if !enumerate_configs(spec).0.contains(&c) {
        return Err(format!("planned {c} is not an enumerated configuration"));
    }
    match score_one(spec, &c) {
        Outcome::Scored(q)
            if q.tflops_per_gpu.to_bits() == p.tflops_per_gpu.to_bits()
                && q.peak_memory == p.peak_memory => {}
        o => {
            return Err(format!(
                "planned {c}: {} TFLOPs at {} B, but the search scores {o:?}",
                p.tflops_per_gpu, p.peak_memory
            ))
        }
    }
    let report = search(&spec.clone().max_cp(c.cp)).map_err(|e| format!("search failed: {e}"))?;
    match &report.best_step_time {
        Some(best) if best.config.mesh() == c.mesh() => Ok(()),
        best => Err(format!(
            "planned mesh {} does not lead the cp ≤ {} frontier (fastest: {:?}):\n{}",
            c.mesh(),
            c.cp,
            best.as_ref().map(|b| b.config.to_string()),
            report.render_human()
        )),
    }
}
