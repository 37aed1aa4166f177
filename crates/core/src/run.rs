//! Multi-day run composition: many training steps under a fault
//! timeline with a checkpoint/restart policy, yielding goodput — the
//! fraction of wall time converted into training progress.
//!
//! The paper's production context (and the Llama 3 report's 466
//! interruptions over 54 days on 16K GPUs) makes delivered throughput a
//! function of three policies, all modelled here:
//!
//! * **Checkpointing** — periodic state writes whose cost follows the
//!   FSDP shard layout: every rank writes its own `1/fsdp_n` shard of
//!   the heaviest pipeline stage's parameter + optimizer state, so the
//!   write time is `shard_bytes / write_bandwidth` regardless of
//!   cluster size.
//! * **Restart** — a fatal fault (GPU fail-stop, node loss) costs
//!   detection, rescheduling onto spares, a checkpoint read, and the
//!   *rework* of every step since the last checkpoint.
//! * **Degraded running** — transient faults (thermal throttles,
//!   degraded links) do not abort the job but stretch each step: a
//!   throttled rank gates the whole synchronized step (§8.1), and a
//!   degraded link stretches the exposed DP communication by the
//!   inverse of its capacity scale (§8.2).
//!
//! [`RunSimulator::simulate`] walks the timeline step by step
//! (analytically pricing each step from the healthy baseline — no
//! per-step task-graph lowering, so a 24-hour 16K-GPU run simulates in
//! well under a second) and reports the [`GoodputReport`] breakdown,
//! including the Young/Daly optimal checkpoint interval
//! `sqrt(2 · write_time · MTBF)` next to the configured one.
//!
//! [`RunSimulator::simulate_traced`] runs the *same* walk while
//! streaming per-step timeline events (one compute event per pipeline
//! rank per step, DP-stretch events under degraded links, checkpoint /
//! detect / restart markers) into a bounded [`TieredTrace`] tower
//! instead of an unbounded event list, recording a [`RunAnchor`] at
//! every point where the walk's state collapses to four words (after
//! each checkpoint commit and restart). Because the walk is a pure
//! function of that state, [`RunReplay`] can rematerialize any time
//! window at full resolution by re-walking from the nearest anchor —
//! bounded work (≲ one checkpoint interval), exact by construction.

use crate::fsdp;
use crate::step::{SimOptions, StepModel};
use cluster_model::faults::FaultTimeline;
use llm_model::PrecisionPolicy;
use sim_engine::error::SimError;
use trace_analysis::tiered::{ReplaySource, ReplayedWindow, TierConfig, TieredTrace};
use trace_analysis::{EventCategory, EventName, TraceEvent};

/// Checkpoint/restart policy for a long-running job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Target seconds of training between checkpoints (the simulator
    /// rounds to a whole number of steps, at least one).
    pub interval_s: f64,
    /// Per-rank storage write bandwidth (bytes/s) for checkpoint
    /// shards.
    pub write_bandwidth: f64,
    /// Per-rank storage read bandwidth (bytes/s) on restore.
    pub read_bandwidth: f64,
    /// Time from a fatal fault to its detection (health-check +
    /// NCCL-timeout lag).
    pub detect_s: f64,
    /// Time to swap in spares and relaunch the job.
    pub reschedule_s: f64,
}

impl CheckpointPolicy {
    /// Production-flavoured defaults: 15-minute checkpoints, 1 GB/s
    /// per-rank distributed checkpoint I/O, two-minute detection,
    /// five-minute reschedule.
    pub fn llama3_production() -> CheckpointPolicy {
        CheckpointPolicy {
            interval_s: 900.0,
            write_bandwidth: 1e9,
            read_bandwidth: 1e9,
            detect_s: 120.0,
            reschedule_s: 300.0,
        }
    }

    /// Same policy with a different checkpoint interval.
    pub fn with_interval(mut self, interval_s: f64) -> CheckpointPolicy {
        self.interval_s = interval_s;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if !(self.interval_s > 0.0 && self.interval_s.is_finite()) {
            return Err(SimError::InvalidValue(
                "checkpoint interval must be positive".into(),
            ));
        }
        if self.write_bandwidth <= 0.0 || self.read_bandwidth <= 0.0 {
            return Err(SimError::InvalidValue(
                "checkpoint bandwidths must be positive".into(),
            ));
        }
        if self.detect_s < 0.0 || self.reschedule_s < 0.0 {
            return Err(SimError::InvalidValue(
                "detect/reschedule times must be >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// Wall time lost to each cause, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GoodputLoss {
    /// Checkpoint write stalls.
    pub checkpoint_s: f64,
    /// Failure-detection lag.
    pub detect_s: f64,
    /// Reschedule plus checkpoint restore.
    pub restart_s: f64,
    /// Re-executing steps lost since the last checkpoint (includes the
    /// partially executed step the fault interrupted).
    pub rework_s: f64,
    /// Extra step time from running degraded (throttles, slow links)
    /// on steps that ultimately counted.
    pub degraded_s: f64,
}

impl GoodputLoss {
    /// Total lost wall time.
    pub fn total_s(&self) -> f64 {
        self.checkpoint_s + self.detect_s + self.restart_s + self.rework_s + self.degraded_s
    }
}

/// The outcome of a [`RunSimulator::simulate`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputReport {
    /// Total simulated wall time (may exceed the horizon by the tail of
    /// the last step or outage).
    pub wall_time_s: f64,
    /// Healthy-equivalent training time delivered: completed steps ×
    /// healthy step time.
    pub productive_s: f64,
    /// Effective-training-time ratio: `productive_s / wall_time_s`.
    pub goodput: f64,
    /// Steps whose work survived to the end of the run.
    pub steps_completed: u64,
    /// Number of job restarts (fatal faults).
    pub restarts: u32,
    /// Per-cause lost-time breakdown.
    pub loss: GoodputLoss,
    /// The healthy (fault-free) step time, seconds.
    pub healthy_step_s: f64,
    /// Checkpoint shard size per rank, bytes (FSDP shard of the
    /// heaviest pipeline stage).
    pub checkpoint_bytes_per_rank: u64,
    /// One checkpoint write stall, seconds.
    pub checkpoint_write_s: f64,
    /// The configured checkpoint interval rounded to whole steps,
    /// seconds.
    pub checkpoint_interval_s: f64,
    /// Young/Daly optimal interval `sqrt(2 · write · MTBF)`, seconds
    /// (`INFINITY` for a fault-free timeline).
    pub young_daly_interval_s: f64,
    /// Mean time between fatal faults for this cluster size, seconds.
    pub mtbf_s: f64,
}

impl GoodputReport {
    /// The paper-style effective-training-time ratio (alias for
    /// [`GoodputReport::goodput`]).
    pub fn effective_training_time_ratio(&self) -> f64 {
        self.goodput
    }
}

/// Composes a [`StepModel`], a [`FaultTimeline`] and a
/// [`CheckpointPolicy`] into a multi-day run simulation.
pub struct RunSimulator {
    /// The training step being repeated.
    pub step: StepModel,
    /// The fault schedule.
    pub timeline: FaultTimeline,
    /// Checkpoint/restart policy.
    pub policy: CheckpointPolicy,
}

impl RunSimulator {
    /// Creates a run simulator.
    ///
    /// # Errors
    /// Rejects invalid policies and a timeline generated for a
    /// different cluster size than the step model's.
    pub fn new(
        step: StepModel,
        timeline: FaultTimeline,
        policy: CheckpointPolicy,
    ) -> Result<RunSimulator, SimError> {
        policy.validate()?;
        if timeline.num_gpus() != step.cluster.num_gpus() {
            return Err(SimError::InvalidShape(format!(
                "fault timeline generated for {} GPUs but the step model runs on {}",
                timeline.num_gpus(),
                step.cluster.num_gpus()
            )));
        }
        Ok(RunSimulator {
            step,
            timeline,
            policy,
        })
    }

    /// Checkpoint shard bytes each rank writes: the heaviest pipeline
    /// stage's parameter + optimizer state, divided across TP and the
    /// FSDP group. Gradients are not checkpointed.
    pub fn checkpoint_bytes_per_rank(&self) -> u64 {
        let cfg = &self.step.layout.cfg;
        let policy = PrecisionPolicy::llama3();
        let heaviest: u64 = (0..self.step.mesh.pp())
            .map(|rank| {
                self.step
                    .assignment
                    .rank_layers(rank)
                    .iter()
                    .map(|l| l.params(cfg))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
            / self.step.mesh.tp() as u64;
        let fsdp_n = (self.step.mesh.dp() * self.step.mesh.cp()) as u64;
        fsdp::checkpoint_bytes_per_rank(heaviest, policy, fsdp_n)
    }

    /// Prices the step model once — the only expensive part of a run
    /// simulation. Replays reuse the result, which is what makes a
    /// [`RunReplay`] seek bounded.
    fn pricing(&self) -> Result<RunPricing, SimError> {
        let base = self.step.run(&SimOptions::default())?.report;
        let healthy_step_s = base.step_time.as_secs_f64();
        if healthy_step_s <= 0.0 {
            return Err(SimError::InvalidValue(
                "healthy step time must be positive".into(),
            ));
        }
        let ckpt_bytes = self.checkpoint_bytes_per_rank();
        Ok(RunPricing {
            healthy_step_s,
            dp_exposed_s: base.exposed.dp.as_secs_f64(),
            ckpt_bytes,
            write_s: ckpt_bytes as f64 / self.policy.write_bandwidth,
            read_s: ckpt_bytes as f64 / self.policy.read_bandwidth,
            ckpt_every: (self.policy.interval_s / healthy_step_s).round().max(1.0) as u64,
        })
    }

    /// The shared timeline walk. One code path serves plain goodput
    /// simulation, traced simulation, and window replay — so the
    /// events a replay regenerates are byte-identical to the events the
    /// original traced walk streamed out, and [`RunSimulator::simulate`]
    /// and [`RunSimulator::simulate_traced`] agree bit for bit on the
    /// [`GoodputReport`].
    ///
    /// Walks from `start` (whose pending-work counters are zero by
    /// construction — anchors sit just after a checkpoint commit or
    /// restart) until the horizon, or until the walk clock passes
    /// `stop_after_ns` (every event emitted in an iteration starts at
    /// or after the iteration's clock, so stopping there loses nothing
    /// before the stop time).
    fn walk(
        &self,
        p: &RunPricing,
        fatal_times: &[f64],
        start: RunAnchor,
        stop_after_ns: Option<u64>,
        sink: Option<&mut dyn FnMut(u64, TraceEvent)>,
        mut anchors: Option<&mut Vec<RunAnchor>>,
    ) -> WalkAccounting {
        let horizon = self.timeline.horizon_s();
        let pp = self.step.mesh.pp();
        let mut health = HealthCursor::new(&self.timeline, start.t_s, horizon);
        let mut out = Emitter {
            sink,
            next: start.event_index,
        };

        let mut t = start.t_s;
        let mut fi = start.fault_index;
        let mut step_idx = start.step_index;
        let mut steps_committed = 0u64;
        let mut restarts = 0u32;
        let mut loss = GoodputLoss::default();
        // Work since the last checkpoint — lost wholesale on a fault.
        let mut pending_steps = 0u64;
        let mut pending_wall = 0.0f64;
        let mut pending_degraded = 0.0f64;

        if let Some(a) = anchors.as_deref_mut() {
            a.push(RunAnchor {
                t_s: t,
                fault_index: fi,
                step_index: step_idx,
                event_index: out.next,
            });
        }

        while t < horizon {
            if let Some(stop) = stop_after_ns {
                if ns(t) >= stop {
                    break;
                }
            }
            let (compute_s, dp_extra_s) = health.step_costs(t, p);
            let step_s = compute_s + dp_extra_s;
            if fi < fatal_times.len() && fatal_times[fi] <= t + step_s {
                // A fatal fault lands during this step (or landed during
                // the preceding checkpoint write): everything since the
                // last checkpoint is rework.
                let f = fatal_times[fi];
                fi += 1;
                loss.rework_s += pending_wall + (f - t).max(0.0);
                pending_steps = 0;
                pending_wall = 0.0;
                pending_degraded = 0.0;
                loss.detect_s += self.policy.detect_s;
                loss.restart_s += self.policy.reschedule_s + p.read_s;
                let down_at = t.max(f);
                out.emit(|| other_event("detect", down_at, self.policy.detect_s));
                out.emit(|| {
                    other_event(
                        "restart",
                        down_at + self.policy.detect_s,
                        self.policy.reschedule_s + p.read_s,
                    )
                });
                t = down_at + self.policy.detect_s + self.policy.reschedule_s + p.read_s;
                restarts += 1;
                // Faults striking while the job is already down fold
                // into the same outage.
                while fi < fatal_times.len() && fatal_times[fi] <= t {
                    fi += 1;
                }
                if let Some(a) = anchors.as_deref_mut() {
                    a.push(RunAnchor {
                        t_s: t,
                        fault_index: fi,
                        step_index: step_idx,
                        event_index: out.next,
                    });
                }
                continue;
            }
            out.step(step_idx, pp, t, compute_s, dp_extra_s);
            step_idx += 1;
            t += step_s;
            pending_steps += 1;
            pending_wall += step_s;
            pending_degraded += step_s - p.healthy_step_s;
            if pending_steps >= p.ckpt_every {
                out.emit(|| other_event("checkpoint", t, p.write_s));
                t += p.write_s;
                loss.checkpoint_s += p.write_s;
                steps_committed += pending_steps;
                loss.degraded_s += pending_degraded;
                pending_steps = 0;
                pending_wall = 0.0;
                pending_degraded = 0.0;
                if let Some(a) = anchors.as_deref_mut() {
                    a.push(RunAnchor {
                        t_s: t,
                        fault_index: fi,
                        step_index: step_idx,
                        event_index: out.next,
                    });
                }
            }
        }
        // Steps computed but not yet checkpointed still count at the
        // horizon — the run ends, it does not crash.
        steps_committed += pending_steps;
        loss.degraded_s += pending_degraded;
        WalkAccounting {
            wall_time_s: t,
            steps_committed,
            restarts,
            loss,
        }
    }

    fn report_from(&self, p: &RunPricing, acc: WalkAccounting) -> GoodputReport {
        let productive_s = acc.steps_committed as f64 * p.healthy_step_s;
        let mtbf_s = self.timeline.mtbf_s();
        let young_daly = if mtbf_s.is_finite() {
            (2.0 * p.write_s * mtbf_s).sqrt()
        } else {
            f64::INFINITY
        };
        GoodputReport {
            wall_time_s: acc.wall_time_s,
            productive_s,
            goodput: productive_s / acc.wall_time_s.max(f64::MIN_POSITIVE),
            steps_completed: acc.steps_committed,
            restarts: acc.restarts,
            loss: acc.loss,
            healthy_step_s: p.healthy_step_s,
            checkpoint_bytes_per_rank: p.ckpt_bytes,
            checkpoint_write_s: p.write_s,
            checkpoint_interval_s: p.ckpt_every as f64 * p.healthy_step_s,
            young_daly_interval_s: young_daly,
            mtbf_s,
        }
    }

    fn fatal_times(&self) -> Vec<f64> {
        self.timeline.fatal_events().map(|e| e.start_s).collect()
    }

    /// Simulates the timeline's whole horizon and reports goodput.
    ///
    /// # Errors
    /// Propagates step-model errors (invalid schedule, deadlock).
    pub fn simulate(&self) -> Result<GoodputReport, SimError> {
        let p = self.pricing()?;
        let fatal = self.fatal_times();
        let acc = self.walk(&p, &fatal, RunAnchor::start(), None, None, None);
        Ok(self.report_from(&p, acc))
    }

    /// Simulates the whole horizon while streaming the run timeline into
    /// a bounded [`TieredTrace`] tower, recording replay anchors. The
    /// returned [`GoodputReport`] is bit-identical to
    /// [`RunSimulator::simulate`]'s (same walk, same arithmetic).
    ///
    /// # Errors
    /// Propagates step-model errors (invalid schedule, deadlock).
    pub fn simulate_traced(&self, cfg: TierConfig) -> Result<RunTrace, SimError> {
        let p = self.pricing()?;
        let fatal = self.fatal_times();
        let mut store = TieredTrace::new(cfg);
        let mut anchors = Vec::new();
        let acc = self.walk(
            &p,
            &fatal,
            RunAnchor::start(),
            None,
            Some(&mut |_, ev| store.append(ev)),
            Some(&mut anchors),
        );
        let report = self.report_from(&p, acc);
        Ok(RunTrace {
            store,
            anchors,
            report,
            pricing: p,
            fatal_times: fatal,
        })
    }

    /// Captures the complete full-resolution event stream with global
    /// indices — `O(N)` memory, for conformance oracles and smoke
    /// diffs, not production storage.
    ///
    /// # Errors
    /// Propagates step-model errors (invalid schedule, deadlock).
    // lint: allow(trace-vec) — the documented O(N) reference capture
    pub fn trace_events(&self) -> Result<(Vec<(u64, TraceEvent)>, GoodputReport), SimError> {
        let p = self.pricing()?;
        let fatal = self.fatal_times();
        let mut events = Vec::new();
        let acc = self.walk(
            &p,
            &fatal,
            RunAnchor::start(),
            None,
            Some(&mut |idx, ev| events.push((idx, ev))),
            None,
        );
        Ok((events, self.report_from(&p, acc)))
    }
}

/// Seconds → integer nanoseconds (timestamps).
fn ns(t_s: f64) -> u64 {
    (t_s * 1e9).round().max(0.0) as u64
}

/// Seconds → integer nanoseconds (durations).
fn ns_dur(d_s: f64) -> u64 {
    (d_s * 1e9).round().max(0.0) as u64
}

/// A run-level marker (checkpoint, detect, restart) on rank 0.
fn other_event(name: &str, start_s: f64, duration_s: f64) -> TraceEvent {
    TraceEvent {
        rank: 0,
        name: EventName::new(name),
        category: EventCategory::Other,
        start_ns: ns(start_s),
        duration_ns: ns_dur(duration_s),
    }
}

/// The walk's event output. It numbers every event the walk emits and,
/// when the walk is traced, builds the event and hands it to the sink;
/// an untraced walk ([`RunSimulator::simulate`]) builds no events.
struct Emitter<'s> {
    sink: Option<&'s mut dyn FnMut(u64, TraceEvent)>,
    /// Global append index of the next event.
    next: u64,
}

impl Emitter<'_> {
    fn emit(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink(self.next, ev());
        }
        self.next += 1;
    }

    /// One synchronized training step starting at `t_s`: a compute
    /// event on every pipeline rank (replica-0 lanes, matching the
    /// step-level trace's rank convention), plus a DP-stretch event per
    /// rank when a degraded link exposes extra DP communication. The
    /// step's name is built once and copied onto each rank's event.
    fn step(&mut self, step_idx: u64, pp: u32, t_s: f64, compute_s: f64, dp_extra_s: f64) {
        let lanes = if dp_extra_s > 0.0 { 2 } else { 1 };
        if let Some(sink) = self.sink.as_deref_mut() {
            let mut idx = self.next;
            let mut lane = |name: &EventName, category, start_ns, duration_ns| {
                for rank in 0..pp {
                    sink(
                        idx,
                        TraceEvent {
                            rank,
                            name: name.clone(),
                            category,
                            start_ns,
                            duration_ns,
                        },
                    );
                    idx += 1;
                }
            };
            lane(
                &EventName::numbered("step", step_idx),
                EventCategory::Compute,
                ns(t_s),
                ns_dur(compute_s),
            );
            if lanes == 2 {
                lane(
                    &EventName::new("dp_wait"),
                    EventCategory::DpComm,
                    ns(t_s + compute_s),
                    ns_dur(dp_extra_s),
                );
            }
        }
        self.next += lanes * u64::from(pp);
    }
}

/// The walk's view of cluster health: the priced cost of one step at
/// the walk clock. Health is constant between consecutive
/// [`FaultTimeline::transient_boundaries`] (every transient event is
/// active on a half-open `[start, end)`), so the cursor rescans the
/// fault list only when the clock crosses a boundary, not every step.
struct HealthCursor<'a> {
    timeline: &'a FaultTimeline,
    /// Transient boundaries after the walk's start, ascending.
    boundaries: Vec<f64>,
    /// Index of the first boundary after the segment `costs` holds.
    next: usize,
    /// `(compute_s, dp_extra_s)` of the current segment, once priced.
    costs: Option<(f64, f64)>,
}

impl<'a> HealthCursor<'a> {
    fn new(timeline: &'a FaultTimeline, t0: f64, horizon: f64) -> HealthCursor<'a> {
        HealthCursor {
            timeline,
            boundaries: timeline.transient_boundaries(t0, horizon),
            next: 0,
            costs: None,
        }
    }

    /// `(compute_s, dp_extra_s)` of a step starting at `t` (never
    /// earlier than the previous call's `t`): the worst throttle gates
    /// the synchronized step (§8.1); degraded links stretch the exposed
    /// DP communication (§8.2).
    fn step_costs(&mut self, t: f64, p: &RunPricing) -> (f64, f64) {
        while self.next < self.boundaries.len() && self.boundaries[self.next] <= t {
            self.next += 1;
            self.costs = None;
        }
        *self.costs.get_or_insert_with(|| {
            let health = self.timeline.health_at(t);
            (
                p.healthy_step_s * health.worst_compute_multiplier(),
                p.dp_exposed_s * (1.0 / health.worst_link_scale() - 1.0),
            )
        })
    }
}

/// Pre-priced quantities of one run: the healthy step time, exposed DP
/// communication, and checkpoint I/O costs. Derived once from the step
/// model; replays reuse it instead of re-lowering the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPricing {
    healthy_step_s: f64,
    dp_exposed_s: f64,
    ckpt_bytes: u64,
    write_s: f64,
    read_s: f64,
    ckpt_every: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct WalkAccounting {
    wall_time_s: f64,
    steps_committed: u64,
    restarts: u32,
    loss: GoodputLoss,
}

/// A point where the walk's entire state collapses to four words: wall
/// clock, next-fatal-fault cursor, step counter, event counter — and
/// the pending-work counters are all zero. Recorded at the start of the
/// run, after every checkpoint commit, and after every restart.
/// Replaying from an anchor regenerates the exact event stream the
/// original walk produced from that point on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunAnchor {
    /// Wall time at the anchor, seconds.
    pub t_s: f64,
    /// Index of the next unconsumed fatal fault.
    pub fault_index: usize,
    /// Steps walked so far (including ones later lost to rework).
    pub step_index: u64,
    /// Events emitted so far (the next event's global index).
    pub event_index: u64,
}

impl RunAnchor {
    fn start() -> RunAnchor {
        RunAnchor {
            t_s: 0.0,
            fault_index: 0,
            step_index: 0,
            event_index: 0,
        }
    }
}

/// The outcome of [`RunSimulator::simulate_traced`]: the bounded tiered
/// store, the replay anchors, and the goodput report.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The tiered timeline store (`O(B · log N)` resident events).
    pub store: TieredTrace,
    /// Replay anchors, in time order (first is the run start).
    pub anchors: Vec<RunAnchor>,
    /// The goodput report — bit-identical to
    /// [`RunSimulator::simulate`]'s.
    pub report: GoodputReport,
    pricing: RunPricing,
    fatal_times: Vec<f64>,
}

impl RunTrace {
    /// A [`ReplaySource`] that rematerializes any window of this run by
    /// re-walking from the nearest anchor at or before the window —
    /// bounded work: at most one checkpoint interval of steps before
    /// the window plus the window itself, never the whole run.
    ///
    /// `sim` must be the simulator that produced this trace.
    pub fn replayer<'a>(&'a self, sim: &'a RunSimulator) -> RunReplay<'a> {
        RunReplay {
            sim,
            pricing: self.pricing,
            fatal_times: &self.fatal_times,
            anchors: &self.anchors,
        }
    }
}

/// Deterministic window rematerializer for a traced run. See
/// [`RunTrace::replayer`].
pub struct RunReplay<'a> {
    sim: &'a RunSimulator,
    pricing: RunPricing,
    fatal_times: &'a [f64],
    anchors: &'a [RunAnchor],
}

impl ReplaySource for RunReplay<'_> {
    fn replay(&self, t0_ns: u64, t1_ns: u64) -> ReplayedWindow {
        let start = self
            .anchors
            .iter()
            .rev()
            .find(|a| ns(a.t_s) <= t0_ns)
            .copied()
            .unwrap_or(RunAnchor::start());
        let mut events = Vec::new();
        self.sim.walk(
            &self.pricing,
            self.fatal_times,
            start,
            Some(t1_ns),
            Some(&mut |idx, ev| {
                if ev.start_ns >= t0_ns && ev.start_ns < t1_ns {
                    events.push((idx, ev));
                }
            }),
            None,
        );
        ReplayedWindow { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh4D;
    use crate::pp::balance::{BalancePolicy, StageAssignment};
    use crate::pp::schedule::ScheduleKind;
    use crate::ZeroMode;
    use cluster_model::faults::FaultRates;
    use cluster_model::topology::Cluster;
    use llm_model::masks::MaskSpec;
    use llm_model::{ModelLayout, TransformerConfig};

    const DAY_S: f64 = 24.0 * 3600.0;

    fn small_step() -> StepModel {
        let cfg = TransformerConfig::llama3_405b_scaled(28);
        let layout = ModelLayout::text(cfg);
        let mesh = Mesh4D::new(8, 1, 4, 2);
        let assignment = StageAssignment::build(&layout, 4, 7, BalancePolicy::Uniform);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::Flexible { nc: 4 },
            zero: ZeroMode::Zero1,
            bs: 12,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute: false,
        }
    }

    fn sim_with(rates: FaultRates, seed: u64) -> GoodputReport {
        let step = small_step();
        let tl = FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, DAY_S, seed).unwrap();
        RunSimulator::new(step, tl, CheckpointPolicy::llama3_production())
            .unwrap()
            .simulate()
            .unwrap()
    }

    #[test]
    fn fault_free_run_loses_only_checkpoint_time() {
        let r = sim_with(FaultRates::none(), 1);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.loss.detect_s, 0.0);
        assert_eq!(r.loss.restart_s, 0.0);
        assert_eq!(r.loss.rework_s, 0.0);
        assert_eq!(r.loss.degraded_s, 0.0);
        assert!(r.goodput > 0.95, "goodput {}", r.goodput);
        assert!(r.goodput <= 1.0);
        assert_eq!(r.young_daly_interval_s, f64::INFINITY);
        // Wall ≈ productive + losses.
        let accounted = r.productive_s + r.loss.total_s();
        assert!(
            (r.wall_time_s - accounted).abs() < r.healthy_step_s + 1e-6,
            "wall {} vs accounted {accounted}",
            r.wall_time_s
        );
    }

    #[test]
    fn faults_reduce_goodput_and_are_attributed() {
        // The test cluster is only 64 GPUs, so production per-GPU-hour
        // rates would give ≈0 events/day; scale them up so a single day
        // sees many events.
        let mut rates = FaultRates::llama3_production();
        rates.gpu_fail_per_gpu_hour = 2e-2;
        rates.thermal_per_gpu_hour = 4e-2;
        let faulty = sim_with(rates, 7);
        let clean = sim_with(FaultRates::none(), 7);
        assert!(faulty.restarts > 0);
        assert!(faulty.goodput < clean.goodput);
        assert!(faulty.loss.rework_s > 0.0);
        assert!(faulty.loss.detect_s > 0.0);
        assert!(faulty.loss.degraded_s > 0.0);
        assert!(faulty.young_daly_interval_s.is_finite());
        let accounted = faulty.productive_s + faulty.loss.total_s();
        assert!(
            (faulty.wall_time_s - accounted).abs() < faulty.healthy_step_s + 1e-6,
            "wall {} vs accounted {accounted}",
            faulty.wall_time_s
        );
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = sim_with(FaultRates::llama3_production(), 5);
        let b = sim_with(FaultRates::llama3_production(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn longer_checkpoint_interval_trades_overhead_for_rework() {
        let step = small_step();
        let rates = FaultRates {
            gpu_fail_per_gpu_hour: 2e-2, // ≈30 failures/day on 64 GPUs
            ..FaultRates::none()
        };
        let tl = FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, DAY_S, 3).unwrap();
        let run = |interval| {
            RunSimulator::new(
                step.clone(),
                tl.clone(),
                CheckpointPolicy::llama3_production().with_interval(interval),
            )
            .unwrap()
            .simulate()
            .unwrap()
        };
        let short = run(60.0);
        let long = run(7200.0);
        assert!(short.loss.checkpoint_s > long.loss.checkpoint_s);
        assert!(short.loss.rework_s < long.loss.rework_s);
    }

    #[test]
    fn mismatched_cluster_size_is_rejected() {
        let step = small_step();
        let tl = FaultTimeline::generate(FaultRates::none(), 8, 8, DAY_S, 0).unwrap();
        assert!(matches!(
            RunSimulator::new(step, tl, CheckpointPolicy::llama3_production()),
            Err(SimError::InvalidShape(_))
        ));
    }

    #[test]
    fn bad_policy_is_rejected() {
        let step = small_step();
        let tl = FaultTimeline::generate(FaultRates::none(), step.cluster.num_gpus(), 8, DAY_S, 0)
            .unwrap();
        let mut p = CheckpointPolicy::llama3_production();
        p.interval_s = 0.0;
        assert!(RunSimulator::new(step, tl, p).is_err());
    }

    #[test]
    fn traced_run_matches_plain_simulation_and_replays_exactly() {
        let mut rates = FaultRates::llama3_production();
        rates.gpu_fail_per_gpu_hour = 2e-2;
        rates.thermal_per_gpu_hour = 4e-2;
        rates.link_degrade_per_gpu_hour = 4e-2;
        let step = small_step();
        let tl =
            FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, DAY_S / 4.0, 11).unwrap();
        let sim = RunSimulator::new(step, tl, CheckpointPolicy::llama3_production()).unwrap();

        let plain = sim.simulate().unwrap();
        let traced = sim
            .simulate_traced(trace_analysis::TierConfig::tiny(256, 16))
            .unwrap();
        // Same walk → bit-identical goodput report.
        assert_eq!(plain, traced.report);

        let (reference, ref_report) = sim.trace_events().unwrap();
        assert_eq!(plain, ref_report);
        assert_eq!(traced.store.appended(), reference.len() as u64);
        assert!(traced.store.resident_events() < reference.len());
        assert!(traced.anchors.len() > 2);

        // Every rematerialized window is byte-identical to the
        // corresponding slice of the full-resolution reference.
        let replay = traced.replayer(&sim);
        let span = traced.store.span_ns();
        for (t0, t1) in [
            (0, span / 7),
            (span / 3, span / 3 + span / 10),
            (span - span / 9, span),
        ] {
            let view = traced.store.window_with_replay(t0, t1, 0, &replay);
            let expect: Vec<(u64, TraceEvent)> = reference
                .iter()
                .filter(|(_, e)| e.start_ns >= t0 && e.start_ns < t1)
                .cloned()
                .collect();
            assert_eq!(view.events, expect, "window [{t0}, {t1})");
            assert!(!view.events.is_empty());
        }
        traced.store.check_integrity().unwrap();
    }

    #[test]
    fn health_cursor_prices_like_health_at_at_every_instant() {
        let mut rates = FaultRates::llama3_production();
        rates.thermal_per_gpu_hour = 4e-2;
        rates.link_degrade_per_gpu_hour = 4e-2;
        let tl = FaultTimeline::generate(rates, 64, 8, DAY_S, 5).unwrap();
        let p = RunPricing {
            healthy_step_s: 1.7,
            dp_exposed_s: 0.3,
            ckpt_bytes: 0,
            write_s: 0.0,
            read_s: 0.0,
            ckpt_every: 1,
        };
        let bounds = tl.transient_boundaries(0.0, DAY_S);
        assert!(bounds.len() > 20, "{} boundaries", bounds.len());
        // A cursor started mid-run, probed on, just before and just
        // after every boundary, in increasing order.
        let t0 = bounds[3] - 1.0;
        let mut probes: Vec<f64> = bounds
            .iter()
            .flat_map(|&b| [b - 1e-3, b, b + 1e-3])
            .filter(|&t| t >= t0)
            .collect();
        probes.sort_by(f64::total_cmp);
        let mut cursor = HealthCursor::new(&tl, t0, DAY_S);
        let mut prices = Vec::new();
        for t in probes {
            let h = tl.health_at(t);
            let want = (
                p.healthy_step_s * h.worst_compute_multiplier(),
                p.dp_exposed_s * (1.0 / h.worst_link_scale() - 1.0),
            );
            assert_eq!(cursor.step_costs(t, &p), want, "t = {t}");
            prices.push(want);
        }
        prices.dedup();
        assert!(prices.len() > 20, "health changes {} times", prices.len());
    }

    #[test]
    fn checkpoint_bytes_follow_fsdp_shards() {
        let step = small_step();
        let tl = FaultTimeline::generate(FaultRates::none(), step.cluster.num_gpus(), 8, DAY_S, 0)
            .unwrap();
        let sim = RunSimulator::new(step, tl, CheckpointPolicy::llama3_production()).unwrap();
        let bytes = sim.checkpoint_bytes_per_rank();
        assert!(bytes > 0);
        // Doubling the FSDP group halves the shard (indirectly: a mesh
        // with dp=4 writes half of what dp=2 writes per rank).
        let mut bigger = small_step();
        bigger.mesh = Mesh4D::new(8, 1, 4, 4);
        bigger.cluster = Cluster::llama3(bigger.mesh.num_gpus());
        let tl2 =
            FaultTimeline::generate(FaultRates::none(), bigger.cluster.num_gpus(), 8, DAY_S, 0)
                .unwrap();
        let sim2 = RunSimulator::new(bigger, tl2, CheckpointPolicy::llama3_production()).unwrap();
        assert_eq!(sim2.checkpoint_bytes_per_rank(), bytes / 2);
    }
}
