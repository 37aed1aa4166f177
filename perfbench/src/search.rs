//! `search`: a cold exhaustive 405B / 16K search limited to cp ≤ 2.
//! The funnel stages, the pre-flight analyzer and the memos dominate;
//! the engine runs only many small folded graphs.
//!
//! The candidate set is fixed by the spec, so the seed does not change
//! the searched space: it picks the candidates of the traced
//! per-candidate breakdown.

use crate::span::Tracer;
use crate::{stats, sys, MemoCounts, Op, Outcome, Size, SplitMix};
use parallelism_core::analyze_step;
use parallelism_core::fsdp::ZeroMode;
use parallelism_core::search::{
    enumerate_configs, finish_search, search_outcomes, ConfigPoint, SearchReport, SearchSpec,
};
use parallelism_core::step::{SimOptions, StepModel};

/// Candidates timed one by one in the traced run.
const SAMPLE: usize = 12;

pub struct State {
    spec: SearchSpec,
    configs: Vec<ConfigPoint>,
    /// Each candidate's step model, as the funnel builds it.
    steps: Vec<Option<StepModel>>,
    /// The first repetition's report; later ones must equal it.
    first: Option<SearchReport>,
    /// Slices per cold search: the full search runs every other cycle,
    /// the probe every cycle.
    every: usize,
    slices: usize,
    rates: Vec<f64>,
}

fn spec(seed: u64, size: Size) -> SearchSpec {
    let mut spec = SearchSpec::llama3_405b(16_384, 8192).threads(1);
    spec.seed = seed;
    match size {
        Size::Main => spec.max_cp(2),
        // The §5.1 planner's short-context space, one ZeRO mode, no
        // recompute: a few dozen candidates.
        Size::Probe => {
            spec.zero_modes = vec![ZeroMode::Zero1];
            spec.recompute = vec![false];
            spec.max_cp(1)
        }
    }
}

/// One cold search: memos emptied, funnel stages 1–3, then stage 4.
fn cold_search(spec: &SearchSpec) -> Option<SearchReport> {
    crate::clear_memos();
    let outcomes = search_outcomes(spec).ok()?;
    finish_search(spec, &outcomes).ok()
}

pub fn setup(seed: u64, size: Size) -> State {
    let spec = spec(seed, size);
    let (configs, _) = enumerate_configs(&spec);
    let steps = configs.iter().map(|c| spec.build_step(c)).collect();
    State {
        spec,
        configs,
        steps,
        first: None,
        every: match size {
            Size::Main => 2,
            Size::Probe => 1,
        },
        slices: 0,
        rates: Vec::new(),
    }
}

impl Op for State {
    fn slice(&mut self, out: &mut Outcome) {
        self.slices += 1;
        if !self.slices.is_multiple_of(self.every) {
            return;
        }
        let (report, c) = sys::cost(|| cold_search(&self.spec));
        let Some(report) = report else {
            out.op(false, || "search: the cold search failed".into());
            return;
        };
        self.rates.push(report.counts.candidates as f64 / c.cpu_s);
        let ok = report.counts.candidates == self.configs.len()
            && !report.frontier.is_empty()
            && self.first.as_ref().is_none_or(|f| *f == report);
        out.op(ok, || {
            "search: the report differs between repetitions".into()
        });
        self.first.get_or_insert(report);
    }

    fn finish(self: Box<Self>, out: &mut Outcome) {
        out.op(self.steps.iter().all(Option::is_some), || {
            "search: an enumerated candidate does not build".into()
        });
        out.set("search_candidates_per_s", stats::median(&self.rates));
    }
}

pub fn traced(seed: u64, out: &mut Outcome, tr: &mut Tracer) {
    let span = tr.begin("search.setup");
    let spec = spec(seed, Size::Main);
    let (configs, _) = tr.time("search.enumerate", || enumerate_configs(&spec));
    tr.end(span);

    let (untraced, plain) = sys::cost(|| cold_search(&spec));
    let memo0 = MemoCounts::now();
    let ((outcomes, report), traced) = sys::cost(|| {
        crate::clear_memos();
        let outcomes = tr.time("search.outcomes", || search_outcomes(&spec));
        let report = outcomes
            .as_ref()
            .ok()
            .and_then(|o| tr.time("search.finish", || finish_search(&spec, o)).ok());
        (outcomes, report)
    });
    MemoCounts::now().since(&memo0).record(out);
    let ok = outcomes.is_ok() && report.is_some() && report == untraced;
    out.op(ok, || "search: traced and untraced reports differ".into());

    // Where one candidate's time goes: model construction, the
    // unmemoized pre-flight analyzer, and the folded scoring run.
    let mut rng = SplitMix(seed);
    let mut score = sys::Cost::default();
    for _ in 0..SAMPLE {
        let c = &configs[rng.below(configs.len())];
        let Some(step) = tr.time("search.build_step", || spec.build_step(c)) else {
            out.op(false, || format!("search: candidate {c} does not build"));
            continue;
        };
        let clean = !tr.time("analyze.step", || analyze_step(&step)).has_errors();
        if clean {
            let (r, c) = sys::cost(|| tr.time("search.score", || step.run(&SimOptions::new())));
            score.add(&c);
            out.op(r.is_ok(), || {
                "search: scoring a clean candidate failed".into()
            });
        }
    }

    if let Some(r) = &report {
        let k = &r.counts;
        for (name, v) in [
            ("search.meshes", k.meshes_enumerated),
            ("search.admitted", k.meshes_admitted),
            ("search.candidates", k.candidates),
            ("search.preflight_rejected", k.rejected_preflight),
            ("search.scored", k.scored),
        ] {
            out.set(name, v as f64);
        }
        out.set(
            "search.scored_share",
            k.scored as f64 / k.candidates.max(1) as f64,
        );
    }
    let med = |name: &str| stats::median(&tr.durations_ms(name));
    out.set("search.enumerate_ms", tr.total_ms("search.enumerate"));
    out.set("search.outcomes_ms", tr.total_ms("search.outcomes"));
    out.set("search.finish_ms", tr.total_ms("search.finish"));
    out.set("search.build_step_ms", med("search.build_step"));
    out.set("analyze.step_ms", med("analyze.step"));
    out.set("search.score_ms", med("search.score"));
    let scored = tr.durations_ms("search.score").len().max(1);
    out.set(
        "proc.minflt_per_folded_step",
        score.minflt as f64 / scored as f64,
    );
    out.set("proc.sys_share", traced.sys_share());
    out.set(
        "trace.overhead_pct",
        crate::overhead_pct(traced.cpu_s, plain.cpu_s),
    );
}

/// Counts that repeat exactly at one seed: the funnel stages, the memo
/// hits and misses of a cold single-threaded search, and the frontier
/// size.
pub fn counts(seed: u64) -> Vec<(&'static str, u64)> {
    let spec = spec(seed, Size::Main);
    crate::clear_memos();
    let memo0 = MemoCounts::now();
    let r = cold_search(&spec).expect("the search runs");
    let m = MemoCounts::now().since(&memo0);
    let k = r.counts;
    vec![
        ("search.meshes", k.meshes_enumerated as u64),
        ("search.admitted", k.meshes_admitted as u64),
        ("search.candidates", k.candidates as u64),
        ("search.preflight_rejected", k.rejected_preflight as u64),
        ("search.scored", k.scored as u64),
        ("search.frontier", r.frontier.len() as u64),
        ("verdict.sched_hits", m.sched.0),
        ("verdict.sched_misses", m.sched.1),
        ("verdict.tp_cp_hits", m.tp_cp.0),
        ("verdict.tp_cp_misses", m.tp_cp.1),
        ("verdict.fsdp_hits", m.fsdp.0),
        ("verdict.fsdp_misses", m.fsdp.1),
        ("collectives.cost_hits", m.cost.0),
        ("collectives.cost_misses", m.cost.1),
    ]
}
