//! Non-panicking invariant checkers.
//!
//! Each `check_*` function validates one structural property and
//! returns `Err(message)` instead of panicking, so the fuzz driver can
//! catch violations, shrink the failing configuration, and report it.
//! The messages name the offending rank/op/value — they are meant to be
//! pasted into a bug report as-is.

use collectives::ProcessGroup;
use parallelism_core::fsdp::{self, ZeroMode};
use parallelism_core::pp::schedule::{warmup_microbatches, PpOp, PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::PpProgram;
use parallelism_core::step::{StepModel, StepReport};
use sim_engine::graph::{ExecutedGraph, GraphError, StreamId};
use std::collections::HashMap;
use trace_analysis::Trace;

/// Outcome of one invariant check: `Err` carries a human-readable
/// description of the violation.
pub type CheckResult = Result<(), String>;

/// Per-micro-batch completeness: on every rank each `(chunk, mb)` pair
/// appears exactly once as a forward and once as a backward, the op
/// count is `2 · v · nmb`, and no backward precedes its own forward.
/// This is the non-panicking twin of `PpSchedule::assert_well_formed`.
pub fn check_schedule_completeness(s: &PpSchedule) -> CheckResult {
    let total = (s.v * s.nmb) as usize;
    for (ppr, ops) in s.ranks.iter().enumerate() {
        if ops.len() != 2 * total {
            return Err(format!(
                "rank {ppr}: {} ops, expected 2·v·nmb = {}",
                ops.len(),
                2 * total
            ));
        }
        let mut fwd_seen = vec![false; total];
        let mut bwd_seen = vec![false; total];
        for op in ops {
            let idx = (op.chunk() * s.nmb + op.mb()) as usize;
            if idx >= total {
                return Err(format!("rank {ppr}: {op} outside chunk/mb bounds"));
            }
            match op {
                PpOp::Forward { .. } => {
                    if fwd_seen[idx] {
                        return Err(format!("rank {ppr}: duplicate {op}"));
                    }
                    fwd_seen[idx] = true;
                }
                PpOp::Backward { .. } => {
                    if bwd_seen[idx] {
                        return Err(format!("rank {ppr}: duplicate {op}"));
                    }
                    if !fwd_seen[idx] {
                        return Err(format!("rank {ppr}: {op} before its forward"));
                    }
                    bwd_seen[idx] = true;
                }
            }
        }
        if !fwd_seen.iter().all(|&b| b) {
            return Err(format!("rank {ppr}: missing forwards"));
        }
        if !bwd_seen.iter().all(|&b| b) {
            return Err(format!("rank {ppr}: missing backwards"));
        }
    }
    Ok(())
}

/// Warm-up / steady / cool-down accounting against the §3.1.1 closed
/// form. For every rank the in-flight profile must stay non-negative,
/// end at zero, and peak at `peak_in_flight`; for full-main-region
/// 1F1B-family schedules (`nc_eff ≥ pp`, `nmb % nc_eff == 0`) the
/// leading-forward count must equal
/// `min(warmup_microbatches(pp, ppr, v, nc) + 1, v·nmb)`, the trailing
/// backwards must mirror it, and the steady pairs must account for the
/// rest.
pub fn check_phase_counts(s: &PpSchedule) -> CheckResult {
    let total = s.v * s.nmb;
    let nc_eff = s.nc.min(s.nmb);
    let full_main = !matches!(s.kind, ScheduleKind::AllFwdAllBwd)
        && nc_eff >= s.pp
        && s.nmb.is_multiple_of(nc_eff);
    for ppr in 0..s.pp {
        let profile = s.in_flight_profile(ppr);
        if let Some(&neg) = profile.iter().find(|&&c| c < 0) {
            return Err(format!(
                "rank {ppr}: in-flight count dips to {neg} (backward without forward)"
            ));
        }
        match profile.last() {
            Some(&last) if last != 0 => {
                return Err(format!(
                    "rank {ppr}: {last} micro-batches still in flight at end of step"
                ));
            }
            None => return Err(format!("rank {ppr}: empty op list")),
            _ => {}
        }
        let peak = profile.iter().copied().max().unwrap_or(0);
        if peak != s.peak_in_flight(ppr) as i64 {
            return Err(format!(
                "rank {ppr}: profile peak {peak} != peak_in_flight() = {}",
                s.peak_in_flight(ppr)
            ));
        }
        let (lead, steady, trail) = s.phase_counts(ppr);
        if lead == 0 {
            return Err(format!(
                "rank {ppr}: schedule does not start with a forward"
            ));
        }
        if full_main {
            let expected_lead = (warmup_microbatches(s.pp, ppr, s.v, nc_eff) + 1).min(total);
            if lead != expected_lead {
                return Err(format!(
                    "rank {ppr}: {lead} leading forwards, expected warmup+1 = {expected_lead} \
                     (pp={}, v={}, nc={nc_eff})",
                    s.pp, s.v
                ));
            }
            if trail != lead {
                return Err(format!(
                    "rank {ppr}: cool-down of {trail} backwards does not mirror \
                     warm-up of {lead} forwards"
                ));
            }
            if lead + steady + trail + steady != 2 * total {
                return Err(format!(
                    "rank {ppr}: phases ({lead}, {steady}, {trail}) do not cover 2·v·nmb = {}",
                    2 * total
                ));
            }
        }
    }
    Ok(())
}

/// No-deadlock: compiles `s` into a [`PpProgram`] and returns it,
/// converting a [`GraphError::Deadlock`] into a message naming the
/// stuck-op count. Executing reads no cost: only the op orders decide
/// it.
pub fn check_schedule_executes(s: &PpSchedule) -> Result<PpProgram, String> {
    PpProgram::compile(s).map_err(|e| match e {
        GraphError::Deadlock(stuck) => format!(
            "schedule (pp={}, v={}, nmb={}, nc={}) deadlocks with {} ops stuck",
            s.pp,
            s.v,
            s.nmb,
            s.nc,
            stuck.len()
        ),
    })
}

/// Executed-graph causality and accounting: every op ends no earlier
/// than it starts, starts no earlier than each of its dependencies
/// ends (which also certifies acyclicity — the start times are a
/// topological order), per-stream op sequences respect FIFO program
/// order without overlap, the recorded per-stream busy totals match the
/// op durations, and the makespan equals the last op end.
pub fn check_executed_graph<M>(run: &ExecutedGraph<M>) -> CheckResult {
    let records = run.records();
    let mut stream_last_end = vec![None::<(usize, u64)>; run.stream_count()];
    let mut stream_busy = vec![0u128; run.stream_count()];
    let mut stream_ids = vec![None::<StreamId>; run.stream_count()];
    let mut max_end = 0u64;
    for (i, rec) in records.iter().enumerate() {
        if rec.id.index() != i {
            return Err(format!("record {i} carries id {}", rec.id));
        }
        let (start, end) = (rec.start.as_nanos(), rec.end.as_nanos());
        if end < start {
            return Err(format!("{}: end {end} before start {start}", rec.id));
        }
        for dep in &rec.deps {
            let Some(dep_rec) = records.get(dep.index()) else {
                return Err(format!("{}: unknown dependency {dep}", rec.id));
            };
            if dep_rec.end.as_nanos() > start {
                return Err(format!(
                    "{}: starts at {start} ns before its dependency {dep} ends at {} ns",
                    rec.id,
                    dep_rec.end.as_nanos()
                ));
            }
        }
        for s in &rec.streams {
            if s.index() >= run.stream_count() {
                return Err(format!("{}: unknown {s}", rec.id));
            }
            if let Some((prev, prev_end)) = stream_last_end[s.index()] {
                if start < prev_end {
                    return Err(format!(
                        "{s}: {} starts at {start} ns overlapping op{prev} ending at {prev_end} ns",
                        rec.id
                    ));
                }
            }
            stream_last_end[s.index()] = Some((i, end));
            stream_busy[s.index()] += u128::from(end - start);
            stream_ids[s.index()] = Some(*s);
        }
        max_end = max_end.max(end);
    }
    for (si, &busy) in stream_busy.iter().enumerate() {
        // Streams that ran no ops cannot be named from outside the
        // engine; both sides of the comparison are zero by construction.
        let Some(sid) = stream_ids[si] else { continue };
        let recorded = run.stream_busy(sid).as_nanos();
        if u128::from(recorded) != busy {
            return Err(format!(
                "stream{si}: recorded busy {recorded} ns != summed op durations {busy} ns"
            ));
        }
    }
    if run.makespan().as_nanos() != max_end {
        return Err(format!(
            "makespan {} ns != last op end {max_end} ns",
            run.makespan().as_nanos()
        ));
    }
    Ok(())
}

/// Memory high-water vs the analytical model: the per-rank
/// `peak_memory()` must recompose exactly from the exposed
/// [`MemoryComponents`](parallelism_core::step::MemoryComponents), and
/// the in-flight factor must equal the schedule's own replayed
/// `peak_in_flight`.
pub fn check_memory_model(m: &StepModel) -> CheckResult {
    let sched = m.build_schedule();
    check_schedule_completeness(&sched)?;
    let components = m.memory_components();
    let peaks = m.peak_memory();
    if components.len() != peaks.len() || peaks.len() != m.mesh.pp() as usize {
        return Err(format!(
            "memory vectors sized {} / {} for pp = {}",
            components.len(),
            peaks.len(),
            m.mesh.pp()
        ));
    }
    for (rank, (c, &peak)) in components.iter().zip(&peaks).enumerate() {
        if c.total() != peak {
            return Err(format!(
                "rank {rank}: peak_memory {peak} != state {} + act {} × in-flight {}",
                c.state_bytes, c.act_bytes_per_stage_mb, c.peak_in_flight
            ));
        }
        let replayed = sched.peak_in_flight(rank as u32);
        if c.peak_in_flight != replayed {
            return Err(format!(
                "rank {rank}: memory model holds {} in-flight micro-batches, \
                 schedule replay says {replayed}",
                c.peak_in_flight
            ));
        }
    }
    Ok(())
}

/// Collective byte conservation over one ring round set: walking the
/// group's ring edges, every member must appear exactly once as sender
/// and once as receiver per round, per-member totals must match
/// [`ProcessGroup::ring_traffic_per_rank`], and the group-wide bytes
/// sent must equal the bytes received.
pub fn check_ring_conservation(group: &ProcessGroup, bytes_per_rank: u64) -> CheckResult {
    let n = group.len() as u64;
    let rounds = n.saturating_sub(1);
    let mut sent: HashMap<u32, u64> = HashMap::new();
    let mut received: HashMap<u32, u64> = HashMap::new();
    for (src, dst) in group.ring_edges() {
        if src == dst {
            return Err(format!("{group}: self-loop ring edge at rank {}", src.0));
        }
        *sent.entry(src.0).or_insert(0) += rounds * bytes_per_rank;
        *received.entry(dst.0).or_insert(0) += rounds * bytes_per_rank;
    }
    let expected = group.ring_traffic_per_rank(bytes_per_rank);
    for &rank in group.ranks() {
        let s = sent.get(&rank.0).copied().unwrap_or(0);
        let r = received.get(&rank.0).copied().unwrap_or(0);
        if (s, r) != expected {
            return Err(format!(
                "{group}: rank {} moves ({s}, {r}) bytes, ring model says {expected:?}",
                rank.0
            ));
        }
    }
    let total_sent: u64 = sent.values().sum();
    let total_received: u64 = received.values().sum();
    if total_sent != total_received {
        return Err(format!(
            "{group}: {total_sent} bytes sent but {total_received} received"
        ));
    }
    Ok(())
}

/// FSDP byte conservation: the gradient reduce-scatter volume is the
/// full FP32 gradient buffer under every ZeRO mode, and the parameter
/// all-gather volume is exactly `2 × stage_visits` times the ZeRO-1
/// volume under ZeRO-3 (parameters re-gathered before each forward and
/// backward traversal).
pub fn check_fsdp_conservation(
    params: u64,
    policy: llm_model::memory::PrecisionPolicy,
    stage_visits: u64,
) -> CheckResult {
    let (ag1, rs1) = fsdp::comm_bytes_per_step(params, policy, ZeroMode::Zero1, stage_visits);
    for mode in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
        let (ag, rs) = fsdp::comm_bytes_per_step(params, policy, mode, stage_visits);
        if rs != params * policy.grad_bytes {
            return Err(format!(
                "{mode:?}: reduce-scatter moves {rs} bytes, gradients hold {}",
                params * policy.grad_bytes
            ));
        }
        if rs != rs1 {
            return Err(format!(
                "{mode:?}: reduce-scatter volume {rs} differs from ZeRO-1's {rs1}"
            ));
        }
        let expected_ag = match mode {
            ZeroMode::Zero1 | ZeroMode::Zero2 => ag1,
            ZeroMode::Zero3 => ag1 * 2 * stage_visits.max(1),
        };
        if ag != expected_ag {
            return Err(format!(
                "{mode:?}: all-gather moves {ag} bytes, expected {expected_ag}"
            ));
        }
    }
    Ok(())
}

/// Monotone, non-overlapping trace lanes: within each `(rank,
/// category)` lane, events ordered by start must not overlap, and no
/// `start + duration` may overflow. The trace span must equal the last
/// event end.
pub fn check_trace_monotone(trace: &Trace) -> CheckResult {
    let mut max_end = 0u64;
    for rank in trace.ranks() {
        let mut lanes: HashMap<_, Vec<(u64, u64)>> = HashMap::new();
        for ev in trace.events_for_rank(rank) {
            let Some(end) = ev.start_ns.checked_add(ev.duration_ns) else {
                return Err(format!(
                    "rank {rank}: event '{}' overflows u64 at start {} + dur {}",
                    ev.name, ev.start_ns, ev.duration_ns
                ));
            };
            lanes
                .entry(ev.category)
                .or_default()
                .push((ev.start_ns, end));
            max_end = max_end.max(end);
        }
        for (cat, mut lane) in lanes {
            lane.sort_unstable();
            for w in lane.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(format!(
                        "rank {rank} {cat:?}: event at {} ns starts before the previous \
                         one ends at {} ns",
                        w[1].0, w[0].1
                    ));
                }
            }
        }
    }
    if trace.span_ns() != max_end {
        return Err(format!(
            "trace span {} ns != last event end {max_end} ns",
            trace.span_ns()
        ));
    }
    Ok(())
}

/// Step-report sanity against its own model: positive finite step time
/// and throughput, finite non-negative per-PP-rank bubble ratios
/// (idle over compute — legitimately above 1 when `pp > nmb`), the peak
/// memory vector identical to a fresh `peak_memory()` evaluation, and
/// the token count equal to `seq × bs × dp`.
pub fn check_step_report(m: &StepModel, r: &StepReport) -> CheckResult {
    if r.step_time.is_zero() {
        return Err("step time is zero".into());
    }
    if !(r.tflops_per_gpu.is_finite() && r.tflops_per_gpu > 0.0) {
        return Err(format!("non-physical TFLOPs/GPU: {}", r.tflops_per_gpu));
    }
    if r.bubble_ratio.len() != m.mesh.pp() as usize {
        return Err(format!(
            "{} bubble ratios for pp = {}",
            r.bubble_ratio.len(),
            m.mesh.pp()
        ));
    }
    for (rank, &b) in r.bubble_ratio.iter().enumerate() {
        if !(b.is_finite() && b >= 0.0) {
            return Err(format!("rank {rank}: non-physical bubble ratio {b}"));
        }
    }
    if r.peak_memory != m.peak_memory() {
        return Err("report peak memory differs from the analytical model".into());
    }
    let tokens = m.seq * m.bs as u64 * m.mesh.dp() as u64;
    if r.tokens != tokens {
        return Err(format!(
            "report counts {} tokens, seq × bs × dp = {tokens}",
            r.tokens
        ));
    }
    Ok(())
}
