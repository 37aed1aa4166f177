//! The simulator's benchmark: four workloads, each printing every
//! end-to-end metric, and a traced run giving the per-layer breakdown.
//! See README.md for why each workload exists, which layer metric
//! should move which end-to-end metric, and how to read host noise.

pub mod daemon;
pub mod search;
pub mod serve_day;
pub mod span;
pub mod stats;
pub mod sys;
pub mod train_step;

use span::Tracer;
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`. Every workload reports all of
/// them: its own operation at full size, the other three at probe size.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("full_steps_per_s", "1/s"),
    ("folded_steps_per_s", "1/s"),
    ("search_candidates_per_s", "1/s"),
    ("sim_requests_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_cpu_us", "us"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::pp and core::step
    ("pp.schedule_ms", "ms"),
    ("step.stage_costs_ms", "ms"),
    ("step.run_full_ms", "ms"),
    ("step.run_folded_ms", "ms"),
    ("step.engine_full_ms", "ms"),
    ("step.engine_folded_ms", "ms"),
    ("proc.minflt_per_full_step", "count"),
    ("proc.minflt_per_folded_step", "count"),
    ("proc.sys_share", "ratio"),
    // core::search
    ("search.enumerate_ms", "ms"),
    ("search.outcomes_ms", "ms"),
    ("search.finish_ms", "ms"),
    ("search.meshes", "count"),
    ("search.admitted", "count"),
    ("search.candidates", "count"),
    ("search.preflight_rejected", "count"),
    ("search.scored", "count"),
    ("search.scored_share", "ratio"),
    ("search.build_step_ms", "ms"),
    ("analyze.step_ms", "ms"),
    ("search.score_ms", "ms"),
    // memos
    ("verdict.sched_hits", "count"),
    ("verdict.sched_misses", "count"),
    ("verdict.tp_cp_hits", "count"),
    ("verdict.tp_cp_misses", "count"),
    ("verdict.fsdp_hits", "count"),
    ("verdict.fsdp_misses", "count"),
    ("collectives.cost_hits", "count"),
    ("collectives.cost_misses", "count"),
    // workload::traffic and core::infer
    ("traffic.generate_ms", "ms"),
    ("infer.costs_ms", "ms"),
    ("infer.replica_ms", "ms"),
    ("infer.replica_max_ms", "ms"),
    ("infer.fold_ms", "ms"),
    ("infer.requests", "count"),
    ("infer.decode_iters", "count"),
    ("infer.kv_peak_blocks", "count"),
    ("infer.dropped", "count"),
    // core::query, serve::dispatch, serve::http
    ("query.parse_us", "us"),
    ("query.hash_us", "us"),
    ("query.render_us", "us"),
    ("dispatch.infer_hit_us", "us"),
    ("dispatch.infer_miss_us", "us"),
    ("dispatch.trace_miss_us", "us"),
    ("dispatch.stats_us", "us"),
    ("http.io_us", "us"),
    ("dispatch.queries", "count"),
    ("dispatch.response_hits", "count"),
    ("dispatch.coalesced", "count"),
    ("dispatch.hit_ratio", "ratio"),
    ("gen.late_ms", "ms"),
    // core::run and trace::tiered
    ("trace.run_ms", "ms"),
    ("trace.window_ms", "ms"),
    // host diagnostics, never gated
    ("proc.runq_wait_ms", "ms"),
    ("host.steal_ms", "ms"),
    ("proc.wall_over_cpu", "ratio"),
    // the traced end-to-end value against the untraced one
    ("trace.overhead_pct", "%"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainStep,
    Search,
    ServeDay,
    Daemon,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainStep,
        Workload::Search,
        Workload::ServeDay,
        Workload::Daemon,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainStep => "train_step",
            Workload::Search => "search",
            Workload::ServeDay => "serve_day",
            Workload::Daemon => "daemon",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How big a workload's inputs are: `Main` when the run is that
/// workload, `Probe` when it only supplies the workload's end-to-end
/// metrics inside another workload's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Main,
    Probe,
}

/// What one run attempted, what failed, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Sets a metric; the name must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn metrics(&self) -> &[(&'static str, f64)] {
        &self.metrics
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, in declaration order.
    pub fn to_json(&self) -> String {
        let mut fields = Vec::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.get(name) {
                let v = if v.is_finite() { v } else { f64::MAX };
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        out
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Empties every process-global memo (collective costs and the three
/// pre-flight verdict caches) so the next operation starts cold.
pub fn clear_memos() {
    collectives::cost::clear_cost_cache();
    parallelism_core::search::clear_verdict_caches();
}

/// Memo hit/miss counters, as a snapshot whose difference across a
/// phase gives that phase's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCounts {
    pub cost: (u64, u64),
    pub sched: (u64, u64),
    pub tp_cp: (u64, u64),
    pub fsdp: (u64, u64),
}

impl MemoCounts {
    pub fn now() -> MemoCounts {
        let c = collectives::cost_cache_stats();
        let [s, t, f] = parallelism_core::search::verdict_cache_stats();
        MemoCounts {
            cost: (c.hits, c.misses),
            sched: (s.hits, s.misses),
            tp_cp: (t.hits, t.misses),
            fsdp: (f.hits, f.misses),
        }
    }

    pub fn since(&self, before: &MemoCounts) -> MemoCounts {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        MemoCounts {
            cost: d(self.cost, before.cost),
            sched: d(self.sched, before.sched),
            tp_cp: d(self.tp_cp, before.tp_cp),
            fsdp: d(self.fsdp, before.fsdp),
        }
    }

    pub fn record(&self, out: &mut Outcome) {
        for (name, v) in [
            ("collectives.cost_hits", self.cost.0),
            ("collectives.cost_misses", self.cost.1),
            ("verdict.sched_hits", self.sched.0),
            ("verdict.sched_misses", self.sched.1),
            ("verdict.tp_cp_hits", self.tp_cp.0),
            ("verdict.tp_cp_misses", self.tp_cp.1),
            ("verdict.fsdp_hits", self.fsdp.0),
            ("verdict.fsdp_misses", self.fsdp.1),
        ] {
            out.set(name, v as f64);
        }
    }
}

/// One workload's operation, set up and ready to measure.
pub trait Op {
    /// One slice of measurement: a fixed amount of the operation, its
    /// outputs checked, its samples kept.
    fn slice(&mut self, out: &mut Outcome);
    /// Checks that need no timing, then sets this workload's
    /// end-to-end metrics from the samples of every slice.
    fn finish(self: Box<Self>, out: &mut Outcome);
}

/// What a user pays before the first answer (memos start empty):
/// builds the workload's inputs at `size`.
fn setup(w: Workload, seed: u64, size: Size) -> Box<dyn Op> {
    clear_memos();
    match w {
        Workload::TrainStep => Box::new(train_step::setup(seed, size)),
        Workload::Search => Box::new(search::setup(seed, size)),
        Workload::ServeDay => Box::new(serve_day::setup(seed, size)),
        Workload::Daemon => Box::new(daemon::setup(seed, size)),
    }
}

/// Wall seconds one measurement cycle takes, roughly; `--seconds`
/// divided by it gives the cycle count.
const SECONDS_PER_CYCLE: f64 = 2.0;
/// Fewest cycles per run. Probe slices are sized so that this many
/// cycles give each probe enough samples.
pub const MIN_CYCLES: usize = 8;

/// Runs one workload untraced. Its set-up runs [`SETUP_REPS`] times;
/// the other three operations are set up once at probe size. Then each
/// cycle runs one slice of every operation, so each metric samples the
/// host over the whole run rather than over one stretch of it.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut own = None;
    for _ in 0..SETUP_REPS {
        drop(own.take());
        let (op, cost) = sys::cost(|| setup(w, seed, Size::Main));
        setups.push(cost.cpu_s);
        own = Some(op);
    }
    out.set("setup_s", stats::median(&setups));
    let mut ops: Vec<(Workload, Box<dyn Op>, f64)> =
        own.into_iter().map(|op| (w, op, 0.0)).collect();
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        ops.push((other, setup(other, seed, Size::Probe), 0.0));
    }
    let cycles = ((seconds / SECONDS_PER_CYCLE).round() as usize).max(MIN_CYCLES);
    for _ in 0..cycles {
        for (_, op, wall_s) in &mut ops {
            let ((), c) = sys::cost(|| op.slice(&mut out));
            *wall_s += c.wall_s;
        }
    }
    for (name, op, wall_s) in ops {
        println!("{} slices: {wall_s:.2} s over {cycles} cycles", name.name());
        op.finish(&mut out);
    }
    out.set("peak_rss_mib", sys::peak_rss_mib());
    out
}

/// Runs one workload traced. Every per-layer metric is reported; the
/// layers this workload never calls read 0.
pub fn run_traced(w: Workload, seed: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
    clear_memos();
    match w {
        Workload::TrainStep => train_step::traced(seed, &mut out, tr),
        Workload::Search => search::traced(seed, &mut out, tr),
        Workload::ServeDay => serve_day::traced(seed, &mut out, tr),
        Workload::Daemon => daemon::traced(seed, &mut out, tr),
    }
    out
}

/// Overhead of a traced phase over its untraced twin of the same work,
/// in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced.max(1e-12) - 1.0) * 100.0
}

/// A small seeded generator (SplitMix64) for the benchmark's own
/// choices: query order, window positions, sampled candidates.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
