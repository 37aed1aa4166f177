//! `train_step`: full-fidelity steps of the 405B / 8K-GPU production
//! step, jittered with a seeded `JitterModel` and a new step index on
//! each call, plus a phase of folded steps of the same model. Schedule
//! lowering and the task-graph engine do almost all the work.

use crate::span::Tracer;
use crate::{stats, sys, MemoCounts, Op, Outcome, Size};
use bench_harness::configs::{production_8k_gpu_step, scaled_405b_step};
use cluster_model::jitter::{JitterKind, JitterModel};
use parallelism_core::pp::balance::BalancePolicy;
use parallelism_core::pp::schedule::ScheduleKind;
use parallelism_core::step::{SimFidelity, SimOptions, StepModel, StepReport};

/// Per-rank jitter amplitude of the full-fidelity steps.
const JITTER_AMPLITUDE: f64 = 0.05;

pub struct State {
    model: StepModel,
    jitter: JitterModel,
    /// The first answer: the jitter-free folded report.
    reference: StepReport,
    /// Steps per slice, full and folded; each batch is timed as a phase.
    batch: (usize, usize),
    /// Next jitter step index.
    step: u64,
    full_rates: Vec<f64>,
    folded_rates: Vec<f64>,
}

fn model(size: Size) -> StepModel {
    match size {
        Size::Main => production_8k_gpu_step(16),
        Size::Probe => scaled_405b_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::DropFirstAndLast,
            false,
        ),
    }
}

fn run(model: &StepModel, opts: &SimOptions) -> Option<StepReport> {
    model.run(opts).ok().map(|o| o.report)
}

fn sane(r: &StepReport) -> bool {
    r.step_time.as_nanos() > 0 && r.tflops_per_gpu.is_finite() && r.tflops_per_gpu > 0.0
}

pub fn setup(seed: u64, size: Size) -> State {
    let model = model(size);
    let reference = run(&model, &SimOptions::new()).expect("the production step simulates");
    State {
        model,
        jitter: JitterModel::new(JitterKind::Transient, JITTER_AMPLITUDE, seed),
        reference,
        batch: match size {
            Size::Main => (1, 100),
            Size::Probe => (200, 400),
        },
        step: 0,
        full_rates: Vec::new(),
        folded_rates: Vec::new(),
    }
}

impl State {
    fn jittered(&mut self) -> Option<StepReport> {
        self.step += 1;
        run(
            &self.model,
            &SimOptions::new().jitter(self.jitter).step(self.step),
        )
    }
}

impl Op for State {
    fn slice(&mut self, out: &mut Outcome) {
        let (reports, c) = sys::cost(|| {
            (0..self.batch.0)
                .map(|_| self.jittered())
                .collect::<Vec<_>>()
        });
        self.full_rates.push(self.batch.0 as f64 / c.cpu_s);
        for r in reports {
            out.op(r.as_ref().is_some_and(sane), || {
                "train_step: a jittered full step failed".into()
            });
        }

        let (reports, c) = sys::cost(|| {
            (0..self.batch.1)
                .map(|_| run(&self.model, &SimOptions::new()))
                .collect::<Vec<_>>()
        });
        self.folded_rates.push(self.batch.1 as f64 / c.cpu_s);
        for r in reports {
            out.op(r.as_ref() == Some(&self.reference), || {
                "train_step: a folded step differs from the first answer".into()
            });
        }
    }

    fn finish(self: Box<Self>, out: &mut Outcome) {
        // With jitter off, the full lowering must reproduce the folded
        // report exactly.
        let full = run(&self.model, &SimOptions::new().fidelity(SimFidelity::Full));
        out.op(full.as_ref() == Some(&self.reference), || {
            "train_step: the jitter-free full report differs from the folded one".into()
        });
        out.set("full_steps_per_s", stats::median(&self.full_rates));
        out.set("folded_steps_per_s", stats::median(&self.folded_rates));
    }
}

pub fn traced(seed: u64, out: &mut Outcome, tr: &mut Tracer) {
    const ROUNDS: usize = 4;
    const FOLDED: usize = 50;
    const FULL: usize = 6;
    let memo0 = MemoCounts::now();
    let mut s = tr.time("train_step.setup", || setup(seed, Size::Main));

    // Folded steps first, as a fresh process meets them, in rounds that
    // alternate an untraced batch with a traced one: the untraced
    // batches are the baseline of the tracing overhead.
    let (mut untraced, mut folded) = (sys::Cost::default(), sys::Cost::default());
    for _ in 0..ROUNDS {
        let (_, c) = sys::cost(|| {
            for _ in 0..FOLDED {
                let r = run(&s.model, &SimOptions::new());
                out.op(r.as_ref() == Some(&s.reference), || {
                    "train_step: a folded step differs".into()
                });
            }
        });
        untraced.add(&c);
        let (_, c) = sys::cost(|| {
            for _ in 0..FOLDED {
                let r = tr.time("step.run_folded", || run(&s.model, &SimOptions::new()));
                out.op(r.as_ref() == Some(&s.reference), || {
                    "train_step: a traced folded step differs".into()
                });
            }
        });
        folded.add(&c);
    }
    let (_, full) = sys::cost(|| {
        for _ in 0..FULL {
            let r = tr.time("step.run_full", || s.jittered());
            out.op(r.as_ref().is_some_and(sane), || {
                "train_step: a traced full step failed".into()
            });
        }
    });
    // The two calls every run makes before the engine starts.
    for _ in 0..ROUNDS * FOLDED {
        let sched = tr.time("pp.schedule", || s.model.schedule());
        out.op(sched.is_ok(), || {
            "train_step: schedule lowering failed".into()
        });
        tr.time("step.stage_costs", || s.model.stage_costs());
    }
    MemoCounts::now().since(&memo0).record(out);

    let med = |name: &str| stats::median(&tr.durations_ms(name));
    let (schedule, stage_costs) = (med("pp.schedule"), med("step.stage_costs"));
    out.set("pp.schedule_ms", schedule);
    out.set("step.stage_costs_ms", stage_costs);
    out.set("step.run_full_ms", med("step.run_full"));
    out.set("step.run_folded_ms", med("step.run_folded"));
    out.set(
        "step.engine_full_ms",
        med("step.run_full") - schedule - stage_costs,
    );
    out.set(
        "step.engine_folded_ms",
        med("step.run_folded") - schedule - stage_costs,
    );
    out.set(
        "proc.minflt_per_full_step",
        full.minflt as f64 / FULL as f64,
    );
    let folded_steps = 2 * ROUNDS * FOLDED;
    out.set(
        "proc.minflt_per_folded_step",
        (untraced.minflt + folded.minflt) as f64 / folded_steps as f64,
    );
    let mut both = full;
    both.add(&folded);
    both.add(&untraced);
    out.set("proc.sys_share", both.sys_share());
    out.set(
        "trace.overhead_pct",
        crate::overhead_pct(folded.cpu_s, untraced.cpu_s),
    );
}

/// Counts that repeat exactly at one seed: the collective-cost memo
/// traffic of a cold folded step and a jittered full step, and the
/// reports' integer fields.
pub fn counts(seed: u64) -> Vec<(&'static str, u64)> {
    crate::clear_memos();
    let memo0 = MemoCounts::now();
    let mut s = setup(seed, Size::Main);
    let jittered = s.jittered().expect("the jittered full step runs");
    let memo = MemoCounts::now().since(&memo0);
    vec![
        ("collectives.cost_hits", memo.cost.0),
        ("collectives.cost_misses", memo.cost.1),
        ("folded.step_time_ns", s.reference.step_time.as_nanos()),
        ("full.step_time_ns", jittered.step_time.as_nanos()),
        ("full.tokens", jittered.tokens),
    ]
}
