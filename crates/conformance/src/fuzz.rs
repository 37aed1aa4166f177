//! Seeded random configuration sampling with greedy shrinking.
//!
//! [`CaseSpec`] is a flattened, fully-owned description of one fuzz
//! case: mesh shape, virtual stages, schedule family, ZeRO mode, batch
//! geometry and accelerator. It is `Copy`, `Debug` and reconstructible
//! from a literal, which is what makes counterexamples shrinkable and
//! emittable as ready-to-paste `#[test]` functions.
//!
//! [`TraceOpSpec`] is the second case family: a seeded script of
//! append/seek/zoom/stream operations driven against a [`TieredTrace`]
//! and cross-checked, after every operation, against a full-resolution
//! model store. [`InferCaseSpec`] is the third: a seeded serving
//! scenario (traffic shape, arrival rate, mesh, KV paging, batch cap)
//! whose continuous-batching simulation is cross-checked against the
//! independent naive rewalk of conformance oracle 10. Each family
//! implements [`FuzzFamily`], and one generic [`sweep`] samples,
//! checks and shrinks all three through [`minimize_with`].
//!
//! Sampling draws from the vendored proptest [`TestRng`] (xoshiro256++)
//! so a `(seed, case index)` pair replays exactly. Every drawn spec is
//! passed through [`CaseSpec::normalized`], which repairs the
//! cross-field constraints (the Llama 3 cluster wants a multiple of 8
//! GPUs, interleaved schedules want `bs % pp == 0`, `nc ≤ bs`, CP wants
//! `seq % (2·cp) == 0`) rather than rejection-sampling them, so no draw
//! is wasted. A final memory-repair ladder shrinks the footprint of
//! specs whose static peak-memory bound over-subscribes the
//! accelerator, so every normalized spec also passes the pre-flight
//! analyzer with zero errors — which [`CaseSpec::check`] asserts.

use crate::invariants::{
    check_executed_graph, check_fsdp_conservation, check_memory_model, check_phase_counts,
    check_ring_conservation, check_schedule_completeness, check_schedule_executes,
    check_step_report, check_trace_monotone,
};
use crate::oracles::{
    oracle_collective_streams, oracle_continuous_batching, oracle_fluid_fast_path,
    oracle_folded_vs_full, oracle_pipeline_rules, oracle_step_time_bound, program_vs_engine,
};
use cluster_model::{Cluster, GlobalRank, GpuSpec};
use llm_model::{MaskSpec, ModelLayout, PrecisionPolicy, TransformerConfig};
use parallelism_core::infer::{InferPlan, InferSpec, InferenceModel};
use parallelism_core::pp::sim::TableCosts;
use parallelism_core::query::{self, FuzzQuery};
use parallelism_core::step::{SimOptions, StepModel};
use parallelism_core::{
    BalancePolicy, Dim, Mesh4D, ScheduleKind, StageAssignment, TrafficShape, TrafficSpec, ZeroMode,
};
use proptest::test_runner::TestRng;
use sim_engine::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt;
use trace_analysis::tiered::{
    category_index, SliceReplay, TierConfig, TieredTrace, CATEGORIES, NUM_CATEGORIES,
};
use trace_analysis::TraceEvent;

/// Accelerator choice for a fuzz case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuChoice {
    /// H100 SXM with HBM3 (the Llama 3 production part).
    H100Hbm3,
    /// H100 with HBM2e (the paper's supplementary-cluster part).
    H100Hbm2e,
    /// A100 SXM.
    A100,
}

impl GpuChoice {
    /// All variants, in sampling order.
    pub const ALL: [GpuChoice; 3] = [GpuChoice::H100Hbm3, GpuChoice::H100Hbm2e, GpuChoice::A100];

    /// The concrete accelerator spec.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuChoice::H100Hbm3 => GpuSpec::h100_sxm_hbm3(),
            GpuChoice::H100Hbm2e => GpuSpec::h100_hbm2e(),
            GpuChoice::A100 => GpuSpec::a100_sxm(),
        }
    }

    fn literal(self) -> &'static str {
        match self {
            GpuChoice::H100Hbm3 => "GpuChoice::H100Hbm3",
            GpuChoice::H100Hbm2e => "GpuChoice::H100Hbm2e",
            GpuChoice::A100 => "GpuChoice::A100",
        }
    }
}

/// One fuzz case: everything needed to rebuild a [`StepModel`] from a
/// literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseSpec {
    /// Accelerator.
    pub gpu: GpuChoice,
    /// Body layers per (stage, chunk); total layers = `pp · v · this`.
    pub layers_per_stage: u32,
    /// Tensor-parallel width.
    pub tp: u32,
    /// Context-parallel width.
    pub cp: u32,
    /// Pipeline depth.
    pub pp: u32,
    /// Data-parallel replicas.
    pub dp: u32,
    /// Virtual stages (interleaving chunks) per pipeline rank.
    pub v: u32,
    /// Sequences per DP replica per step (= micro-batches).
    pub bs: u32,
    /// Sequence length.
    pub seq: u64,
    /// Pipeline schedule family.
    pub kind: ScheduleKind,
    /// FSDP sharding mode.
    pub zero: ZeroMode,
    /// Activation recomputation on/off.
    pub recompute: bool,
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} mesh [{}, {}, {}, {}] v={} layers/stage={} bs={} seq={} {:?} {:?} recompute={}",
            self.gpu,
            self.tp,
            self.cp,
            self.pp,
            self.dp,
            self.v,
            self.layers_per_stage,
            self.bs,
            self.seq,
            self.kind,
            self.zero,
            self.recompute
        )
    }
}

impl CaseSpec {
    /// Repairs cross-field constraints so the spec always builds:
    /// positive dimensions, a multiple-of-8 GPU count (TP doubles until
    /// it fits), `seq` divisible by `2·cp`, and a schedule kind valid
    /// for `(bs, pp)`.
    ///
    /// A memory-repair ladder then shrinks over-subscribed specs until
    /// the static peak-memory bound ([`fits_hbm`](CaseSpec::fits_hbm))
    /// fits the accelerator, in a fixed order from cheapest to most
    /// invasive: enable recomputation, drop to one layer per stage,
    /// drop to one virtual stage, shard everything (ZeRO-3), then
    /// double TP up to 8. The ladder is idempotent — a fitting spec is
    /// returned untouched — so normal forms stay stable under
    /// re-normalization.
    pub fn normalized(mut self) -> CaseSpec {
        for d in [
            &mut self.layers_per_stage,
            &mut self.tp,
            &mut self.cp,
            &mut self.pp,
            &mut self.dp,
            &mut self.v,
            &mut self.bs,
        ] {
            *d = (*d).max(1);
        }
        while !(self.tp * self.cp * self.pp * self.dp).is_multiple_of(8) {
            self.tp *= 2;
        }
        self.seq = if self.seq < 8192 { 4096 } else { 8192 };
        self.kind = match self.kind {
            ScheduleKind::Interleaved1F1B if !self.bs.is_multiple_of(self.pp) => {
                ScheduleKind::Flexible {
                    nc: self.pp.min(self.bs),
                }
            }
            ScheduleKind::Flexible { nc } => ScheduleKind::Flexible {
                nc: nc.clamp(1, self.bs),
            },
            k => k,
        };
        if !self.fits_hbm() {
            self.recompute = true;
        }
        if !self.fits_hbm() {
            self.layers_per_stage = 1;
        }
        if !self.fits_hbm() {
            self.v = 1;
        }
        if !self.fits_hbm() {
            self.zero = ZeroMode::Zero3;
        }
        while !self.fits_hbm() && self.tp < 8 {
            self.tp *= 2;
        }
        self
    }

    /// `true` when every pipeline rank's static peak-memory bound (the
    /// pre-flight analyzer's `MEM001` quantity) fits the accelerator's
    /// HBM capacity.
    pub fn fits_hbm(&self) -> bool {
        let m = self.build();
        let Ok(sched) = m.schedule() else {
            // Structural defects are repaired by the caller; memory is
            // not the blocker here.
            return true;
        };
        let capacity = m.cluster.gpu.hbm_capacity;
        parallelism_core::analyze::memory::rank_bounds(&m, &sched)
            .iter()
            .all(|b| b.total() <= capacity)
    }

    /// A seed derived from every field of the spec (FNV-1a over its
    /// display form), for the jitter and throttling the oracles inject.
    pub fn seed(&self) -> u64 {
        self.to_string()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Materializes the spec as a [`StepModel`]. Infallible for
    /// normalized specs.
    pub fn build(&self) -> StepModel {
        let layers = self.pp * self.v * self.layers_per_stage;
        let cfg = TransformerConfig::llama3_405b_scaled(u64::from(layers));
        let layout = ModelLayout::text(cfg);
        let assignment = StageAssignment::build(&layout, self.pp, self.v, BalancePolicy::Uniform);
        let mesh = Mesh4D::new(self.tp, self.cp, self.pp, self.dp);
        let mut cluster = Cluster::llama3(mesh.num_gpus());
        cluster.gpu = self.gpu.spec();
        StepModel {
            cluster,
            mesh,
            layout,
            assignment,
            schedule: self.kind,
            zero: self.zero,
            bs: self.bs,
            seq: self.seq,
            mask: MaskSpec::Causal,
            recompute: self.recompute,
        }
    }

    /// Renders this spec as a ready-to-paste `#[test]` function that
    /// reproduces the failure by calling [`CaseSpec::check`].
    pub fn as_test_snippet(&self, seed: u64, case: u64, shrink_steps: u32) -> String {
        let kind = match self.kind {
            ScheduleKind::AllFwdAllBwd => "ScheduleKind::AllFwdAllBwd".to_string(),
            ScheduleKind::Interleaved1F1B => "ScheduleKind::Interleaved1F1B".to_string(),
            ScheduleKind::Flexible { nc } => format!("ScheduleKind::Flexible {{ nc: {nc} }}"),
        };
        format!(
            r#"// Found by `llama3sim fuzz --seed {seed:#x}` (case {case}, {shrink_steps} shrink steps).
#[test]
fn conformance_counterexample_seed_{seed:x}_case_{case}() {{
    use conformance::fuzz::{{CaseSpec, FuzzFamily, GpuChoice}};
    use parallelism_core::{{ScheduleKind, ZeroMode}};
    let spec = CaseSpec {{
        gpu: {gpu},
        layers_per_stage: {layers_per_stage},
        tp: {tp},
        cp: {cp},
        pp: {pp},
        dp: {dp},
        v: {v},
        bs: {bs},
        seq: {seq},
        kind: {kind},
        zero: ZeroMode::{zero:?},
        recompute: {recompute},
    }};
    if let Err(msg) = spec.check() {{
        panic!("conformance violation: {{msg}}");
    }}
}}
"#,
            gpu = self.gpu.literal(),
            layers_per_stage = self.layers_per_stage,
            tp = self.tp,
            cp = self.cp,
            pp = self.pp,
            dp = self.dp,
            v = self.v,
            bs = self.bs,
            seq = self.seq,
            zero = self.zero,
            recompute = self.recompute,
        )
    }
}

impl FuzzFamily for CaseSpec {
    const HEARTBEAT: u64 = 500;

    /// Draws one spec from the shared fuzz stream and normalizes it.
    fn sample(rng: &mut TestRng) -> CaseSpec {
        let bs = 1 + rng.below(12) as u32;
        let kind = match rng.below(3) {
            0 => ScheduleKind::AllFwdAllBwd,
            1 => ScheduleKind::Interleaved1F1B,
            _ => ScheduleKind::Flexible {
                nc: 1 + rng.below(u64::from(bs)) as u32,
            },
        };
        let spec = CaseSpec {
            gpu: GpuChoice::ALL[rng.below(GpuChoice::ALL.len() as u64) as usize],
            layers_per_stage: 1 + rng.below(2) as u32,
            tp: 1 << rng.below(4),
            cp: 1 + rng.below(2) as u32,
            pp: 1 << rng.below(3),
            dp: 1 << rng.below(3),
            v: 1 + rng.below(3) as u32,
            bs,
            seq: 4096 << rng.below(2),
            kind,
            zero: match rng.below(3) {
                0 => ZeroMode::Zero1,
                1 => ZeroMode::Zero2,
                _ => ZeroMode::Zero3,
            },
            recompute: rng.below(2) == 1,
        };
        spec.normalized()
    }

    /// Runs the full conformance battery on this spec: the pre-flight
    /// static analyzer (which must report zero errors on a normalized
    /// spec), schedule invariants, no-deadlock execution, the pipeline
    /// rules on 16 broken variants of the schedule (oracle 12), one
    /// compiled pipeline program vs the engine op by op under two cost
    /// bindings, executed-graph causality, memory recomposition,
    /// step-report sanity, trace monotonicity, ring/FSDP byte
    /// conservation, and the cheap differential oracles (folding and
    /// the joint-graph step reference under jitter seeded by
    /// [`CaseSpec::seed`], traced vs untraced runs, fluid fast path).
    /// The goodput and memoization oracles run in the
    /// grid tests instead — they price a whole training day and clear
    /// the process-global cost cache, which would dominate a
    /// multi-thousand-case sweep.
    fn check(&self) -> Result<(), String> {
        let ctx = |label: &'static str| {
            let spec = *self;
            move |e: String| format!("[{spec}] {label}: {e}")
        };
        let m = self.build();
        let report = parallelism_core::analyze::analyze_step(&m);
        if report.has_errors() {
            return Err(ctx("pre-flight analysis")(report.error_summary()));
        }
        let sched = m
            .schedule()
            .map_err(|e| ctx("schedule build")(e.to_string()))?;
        check_schedule_completeness(&sched).map_err(ctx("completeness"))?;
        check_phase_counts(&sched).map_err(ctx("phase counts"))?;

        let program = check_schedule_executes(&sched).map_err(ctx("deadlock"))?;
        oracle_pipeline_rules(&sched, 16).map_err(ctx("oracle pipeline-rules"))?;
        // One compiled program vs the engine under two cost bindings: a
        // uniform table with P2P time, and the model's own stage costs
        // with a different compute scale per rank.
        let us = SimDuration::from_micros;
        let uniform = TableCosts::uniform(sched.num_stages(), us(120), us(240), us(15));
        program_vs_engine(&sched, &program, &uniform, &[])
            .map_err(ctx("program vs engine, uniform costs"))?;
        let seed = self.seed();
        let scales: Vec<f64> = (0..u64::from(self.pp))
            .map(|r| 1.0 + ((seed >> (r % 8 * 8)) & 0xff) as f64 / 2560.0)
            .collect();
        let run = program_vs_engine(&sched, &program, &m.stage_costs(), &scales)
            .map_err(ctx("program vs engine, stage costs"))?;
        check_executed_graph(&run).map_err(ctx("executed graph"))?;

        check_memory_model(&m).map_err(ctx("memory model"))?;
        oracle_collective_streams(&m).map_err(ctx("oracle collective-streams"))?;
        oracle_step_time_bound(&m).map_err(ctx("oracle step-time bound"))?;
        let outcome = m
            .run(&SimOptions::new().trace(true))
            .map_err(|e| ctx("step run")(e.to_string()))?;
        check_step_report(&m, &outcome.report).map_err(ctx("step report"))?;
        let trace = outcome
            .trace
            .ok_or_else(|| ctx("trace")("run(trace: true) produced no trace".into()))?;
        check_trace_monotone(&trace).map_err(ctx("trace"))?;

        for dim in [Dim::Tp, Dim::Cp, Dim::Pp, Dim::Dp] {
            let group = m.mesh.group_of(GlobalRank(0), dim);
            check_ring_conservation(&group, 1 << 20).map_err(ctx("ring conservation"))?;
        }
        check_fsdp_conservation(
            u64::from(self.layers_per_stage) * 1_000_003,
            PrecisionPolicy::llama3(),
            u64::from(self.v),
        )
        .map_err(ctx("fsdp conservation"))?;

        oracle_folded_vs_full(&m, seed).map_err(ctx("oracle folded-vs-full"))?;
        oracle_fluid_fast_path(
            &[25e9, 50e9, 100e9, 200e9],
            &[
                f64::from(self.bs) * 1e6,
                self.seq as f64 * 512.0,
                f64::from(self.tp * self.pp) * 3e6,
            ],
        )
        .map_err(ctx("oracle fluid-fast-path"))?;
        Ok(())
    }

    /// Strictly-smaller candidate specs for greedy shrinking: each
    /// parallelism dimension halved, the batch and virtual-stage counts
    /// halved, and the categorical knobs reset to their simplest value.
    /// Every candidate is re-normalized; candidates equal to `self` are
    /// dropped, so shrinking always terminates.
    fn shrink(&self) -> Vec<CaseSpec> {
        let mut out = Vec::new();
        let mut push = |c: CaseSpec| {
            let c = c.normalized();
            if c != *self && !out.contains(&c) {
                out.push(c);
            }
        };
        push(CaseSpec {
            tp: self.tp / 2,
            ..*self
        });
        push(CaseSpec {
            cp: self.cp / 2,
            ..*self
        });
        push(CaseSpec {
            pp: self.pp / 2,
            ..*self
        });
        push(CaseSpec {
            dp: self.dp / 2,
            ..*self
        });
        push(CaseSpec {
            v: self.v / 2,
            ..*self
        });
        push(CaseSpec {
            bs: self.bs / 2,
            ..*self
        });
        push(CaseSpec {
            layers_per_stage: 1,
            ..*self
        });
        push(CaseSpec { seq: 4096, ..*self });
        if let ScheduleKind::Flexible { nc } = self.kind {
            push(CaseSpec {
                kind: ScheduleKind::Flexible { nc: nc / 2 },
                ..*self
            });
        }
        push(CaseSpec {
            kind: ScheduleKind::AllFwdAllBwd,
            ..*self
        });
        push(CaseSpec {
            gpu: GpuChoice::H100Hbm3,
            ..*self
        });
        push(CaseSpec {
            zero: ZeroMode::Zero1,
            ..*self
        });
        push(CaseSpec {
            recompute: false,
            ..*self
        });
        out
    }
}

/// Greedily minimizes a failing spec of any case family: repeatedly
/// replaces it with the first `shrink` candidate for which `fails`
/// still holds, until no candidate fails. Returns the minimal spec and
/// the number of accepted shrink steps. The input must itself satisfy
/// `fails`.
pub fn minimize_with<S: Clone>(
    mut spec: S,
    shrink: impl Fn(&S) -> Vec<S>,
    fails: impl Fn(&S) -> bool,
) -> (S, u32) {
    let mut steps = 0u32;
    // Dimensions only shrink, so this terminates; the bound is a
    // safety net against a pathological shrink cycle.
    'outer: for _ in 0..10_000 {
        for cand in shrink(&spec) {
            if fails(&cand) {
                spec = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (spec, steps)
}

/// One fuzz case family: how to draw a case, check it and shrink a
/// failing one.
pub trait FuzzFamily: Copy + fmt::Display {
    /// Clean cases between two `progress` calls of [`sweep`].
    const HEARTBEAT: u64;
    /// Draws one normalized case from the shared fuzz stream.
    fn sample(rng: &mut TestRng) -> Self;
    /// Runs the family's invariants and oracles on the case.
    ///
    /// # Errors
    /// The first violation, naming the case.
    fn check(&self) -> Result<(), String>;
    /// Strictly-smaller candidate cases for greedy shrinking.
    fn shrink(&self) -> Vec<Self>;
}

/// A failing case from [`sweep`], greedily minimized.
#[derive(Debug, Clone)]
pub struct Counterexample<S> {
    /// Index of the failing case in the sweep.
    pub case: u64,
    /// The original (pre-shrink) violation message.
    pub message: String,
    /// The greedily minimized failing spec.
    pub min_spec: S,
    /// The minimized spec's violation message.
    pub min_message: String,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
}

/// Runs a seeded sweep of family `S`: samples `cases` specs, checks
/// each, and on the first violation greedily shrinks it via
/// [`minimize_with`]. Returns `None` on a clean sweep. `progress` is
/// called with the clean-case count every [`FuzzFamily::HEARTBEAT`]
/// cases. The sweep is a pure function of `args`.
pub fn sweep<S: FuzzFamily>(
    args: &FuzzQuery,
    mut progress: impl FnMut(u64),
) -> Option<Counterexample<S>> {
    let FuzzQuery { cases, seed } = *args;
    let mut rng = TestRng::new(seed);
    for case in 0..cases {
        let spec = S::sample(&mut rng);
        if let Err(message) = spec.check() {
            let (min_spec, shrink_steps) = minimize_with(spec, S::shrink, |c| c.check().is_err());
            let min_message = min_spec
                .check()
                .expect_err("minimize must preserve the failure");
            return Some(Counterexample {
                case,
                message,
                min_spec,
                min_message,
                shrink_steps,
            });
        }
        if (case + 1).is_multiple_of(S::HEARTBEAT) {
            progress(case + 1);
        }
    }
    None
}

/// One tiered-trace fuzz case: a seeded script of append/seek/zoom/
/// stream operations, replayed deterministically from `(seed, ops)`
/// against a [`TieredTrace`] with the given tower geometry and checked
/// after every operation against a full-resolution model store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOpSpec {
    /// Seed for both event content and operation choices.
    pub seed: u64,
    /// Operations in the script.
    pub ops: u32,
    /// Tier-0 capacity (full-resolution ring), in events.
    pub tier0: u32,
    /// Events per half-window (`C` in the tower).
    pub chunk: u32,
    /// Distinct ranks events land on.
    pub ranks: u32,
}

impl fmt::Display for TraceOpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace seed={:#x} ops={} tier0={} chunk={} ranks={}",
            self.seed, self.ops, self.tier0, self.chunk, self.ranks
        )
    }
}

impl TraceOpSpec {
    /// Repairs cross-field constraints: positive knobs, tier 0 at least
    /// two chunks wide (mirroring the store's own normalization so the
    /// spec literal matches the geometry that actually ran).
    pub fn normalized(mut self) -> TraceOpSpec {
        self.ops = self.ops.clamp(1, 64);
        self.chunk = self.chunk.clamp(1, 64);
        self.ranks = self.ranks.clamp(1, 64);
        self.tier0 = self.tier0.max(2 * self.chunk);
        self
    }
}

impl FuzzFamily for TraceOpSpec {
    const HEARTBEAT: u64 = 500;

    /// Draws one spec from the shared fuzz stream and normalizes it.
    fn sample(rng: &mut TestRng) -> TraceOpSpec {
        TraceOpSpec {
            seed: rng.next_u64(),
            ops: 1 + rng.below(24) as u32,
            tier0: 1 << (3 + rng.below(4)),
            chunk: 1 + rng.below(8) as u32,
            ranks: 1 + rng.below(6) as u32,
        }
        .normalized()
    }

    /// Runs the op script against a [`TieredTrace`] and a full-resolution
    /// model store, checking after every operation:
    ///
    /// * **seek** — `window_with_replay` is byte-identical (events *and*
    ///   global indices) to the model slice decimated by the zoom rule,
    ///   at the requested stride;
    /// * **zoom/stream** — `sampled(z)` is a byte-identical subsequence
    ///   of the model store with per-rank lanes time-monotone;
    /// * **always** — the tower invariants ([`TieredTrace::check_integrity`])
    ///   hold, and at the end per-rank busy time is conserved exactly,
    ///   the appended count matches, and residency stays within the
    ///   `O(B · log N)` bound.
    fn check(&self) -> Result<(), String> {
        let ctx = |label: &'static str| {
            let spec = *self;
            move |e: String| format!("[{spec}] {label}: {e}")
        };
        let mut rng = TestRng::new(self.seed);
        let mut store =
            TieredTrace::new(TierConfig::tiny(self.tier0 as usize, self.chunk as usize));
        // lint: allow(trace-vec) — the fuzzer's full-resolution model store
        let mut reference: Vec<TraceEvent> = Vec::new();
        let mut clock: u64 = 0;
        for op in 0..self.ops {
            match rng.below(4) {
                // Append a burst of time-ordered events.
                0 | 1 => {
                    let burst = 1 + rng.below(96);
                    for _ in 0..burst {
                        clock += rng.below(200);
                        let ev = TraceEvent {
                            rank: rng.below(u64::from(self.ranks)) as u32,
                            name: format!("e{}", reference.len()).into(),
                            category: CATEGORIES[rng.below(NUM_CATEGORIES as u64) as usize],
                            start_ns: clock,
                            duration_ns: 1 + rng.below(1_000),
                        };
                        reference.push(ev.clone());
                        store.append(ev);
                    }
                }
                // Seek: a random time window at a random zoom must come
                // back byte-identical to the decimated model slice.
                2 => {
                    let span = clock + 1;
                    let (a, b) = (rng.below(span), rng.below(span));
                    let (t0, t1) = (a.min(b), a.max(b) + 1);
                    let zoom = rng.below(4) as u32;
                    let stride = 1u64 << zoom;
                    let view =
                        store.window_with_replay(t0, t1, zoom, &SliceReplay::new(&reference));
                    // lint: allow(trace-vec) — model slice for byte-compare
                    let expect: Vec<(u64, TraceEvent)> = reference
                        .iter()
                        .enumerate()
                        .filter(|(i, e)| {
                            e.start_ns >= t0
                                && e.start_ns < t1
                                && (*i as u64).is_multiple_of(stride)
                        })
                        .map(|(i, e)| (i as u64, e.clone()))
                        .collect();
                    if view.events != expect {
                        return Err(ctx("seek")(format!(
                            "op {op}: window [{t0}, {t1}) zoom {zoom} returned {} events, \
                             model slice has {} (rematerialized: {})",
                            view.events.len(),
                            expect.len(),
                            view.rematerialized
                        )));
                    }
                    if view.stride != stride {
                        return Err(ctx("seek")(format!(
                            "op {op}: window [{t0}, {t1}) zoom {zoom} claims stride {}, want {stride}",
                            view.stride
                        )));
                    }
                }
                // Zoom/stream: the whole retained timeline at a zoom.
                _ => {
                    let zoom = rng.below(6) as u32;
                    let t = store.sampled(zoom);
                    let mut it = reference.iter();
                    for e in &t.events {
                        if !it.any(|r| r == e) {
                            return Err(ctx("zoom")(format!(
                                "op {op}: sampled({zoom}) event {:?} on rank {} is not a \
                                 subsequence match of the model store",
                                e.name, e.rank
                            )));
                        }
                    }
                    for rank in t.ranks() {
                        let mut last = 0u64;
                        for e in t.events_for_rank(rank) {
                            if e.start_ns < last {
                                return Err(ctx("zoom")(format!(
                                    "op {op}: sampled({zoom}) rank {rank} lane goes back in \
                                     time ({} after {last})",
                                    e.start_ns
                                )));
                            }
                            last = e.start_ns;
                        }
                    }
                }
            }
            store.check_integrity().map_err(ctx("integrity"))?;
        }

        if store.appended() != reference.len() as u64 {
            return Err(ctx("count")(format!(
                "store says {} appended, model has {}",
                store.appended(),
                reference.len()
            )));
        }
        let mut expect: BTreeMap<u32, [u64; NUM_CATEGORIES]> = BTreeMap::new();
        for e in &reference {
            expect.entry(e.rank).or_insert([0; NUM_CATEGORIES])[category_index(e.category)] +=
                e.duration_ns;
        }
        if store.rank_totals() != expect {
            return Err(ctx("conservation")(
                "per-rank busy totals diverged from the model store".to_string(),
            ));
        }
        // O(B · log N): each tier holds at most a tier-0's worth of
        // windows (max_windows, with cascade slack) of `chunk` events.
        let cfg = store.config();
        let per_tier = ((cfg.tier0_events / (2 * cfg.chunk)).max(2) + 2) * cfg.chunk;
        let bound = cfg.tier0_events + store.num_tiers() * per_tier;
        if store.resident_events() > bound {
            return Err(ctx("memory")(format!(
                "{} resident events exceeds the O(B log N) bound {bound} \
                 ({} appended, {} tiers)",
                store.resident_events(),
                store.appended(),
                store.num_tiers()
            )));
        }
        Ok(())
    }

    /// Strictly-smaller candidates for greedy shrinking: every knob
    /// halved, re-normalized, duplicates dropped.
    fn shrink(&self) -> Vec<TraceOpSpec> {
        let mut out = Vec::new();
        let mut push = |c: TraceOpSpec| {
            let c = c.normalized();
            if c != *self && !out.contains(&c) {
                out.push(c);
            }
        };
        push(TraceOpSpec {
            ops: self.ops / 2,
            ..*self
        });
        push(TraceOpSpec {
            tier0: self.tier0 / 2,
            ..*self
        });
        push(TraceOpSpec {
            chunk: self.chunk / 2,
            ..*self
        });
        push(TraceOpSpec {
            ranks: self.ranks / 2,
            ..*self
        });
        push(TraceOpSpec {
            seed: self.seed / 2,
            ..*self
        });
        out
    }
}

/// One inference fuzz case: a seeded serving scenario (traffic shape,
/// arrival rate, horizon, mesh, KV paging, batch cap) for the 8B model
/// on H100, replayed deterministically and cross-checked by
/// [`oracle_continuous_batching`] — engine vs naive rewalk, token and
/// block conservation, same-seed bit-identical re-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferCaseSpec {
    /// Seed for the arrival trace (times and sampled lengths).
    pub seed: u64,
    /// Traffic shape the arrival process follows.
    pub shape: TrafficShape,
    /// Offered load, scaled down by the horizon.
    pub requests_per_day: u64,
    /// Simulated wall-clock horizon in seconds.
    pub horizon_s: u32,
    /// Tensor-parallel degree per replica (power of two, ≤ 8).
    pub tp: u32,
    /// Pipeline stages per replica.
    pub pp: u32,
    /// Independent replicas behind round-robin routing.
    pub replicas: u32,
    /// KV-block granularity in tokens.
    pub block_tokens: u64,
    /// Per-replica resident-sequence cap.
    pub max_batch: u32,
}

impl fmt::Display for InferCaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "infer seed={:#x} {} rpd={} horizon={}s mesh tp{}·pp{}·x{} block={} batch={}",
            self.seed,
            self.shape.tag(),
            self.requests_per_day,
            self.horizon_s,
            self.tp,
            self.pp,
            self.replicas,
            self.block_tokens,
            self.max_batch
        )
    }
}

impl InferCaseSpec {
    /// Repairs cross-field constraints: positive knobs, `tp` rounded
    /// down to a power of two within the NVLink domain, and rates and
    /// horizons clamped to the range the sweep prices in milliseconds
    /// per case. Idempotent.
    pub fn normalized(mut self) -> InferCaseSpec {
        self.tp = self.tp.clamp(1, 8);
        while !self.tp.is_power_of_two() {
            self.tp -= 1;
        }
        self.pp = self.pp.clamp(1, 4);
        self.replicas = self.replicas.clamp(1, 8);
        self.block_tokens = self.block_tokens.clamp(1, 128);
        self.max_batch = self.max_batch.clamp(1, 512);
        self.requests_per_day = self.requests_per_day.clamp(100, 200_000);
        self.horizon_s = self.horizon_s.clamp(60, 900);
        self
    }
}

impl FuzzFamily for InferCaseSpec {
    const HEARTBEAT: u64 = 10;

    /// Draws one spec from the shared fuzz stream and normalizes it.
    fn sample(rng: &mut TestRng) -> InferCaseSpec {
        InferCaseSpec {
            seed: rng.next_u64(),
            shape: TrafficShape::ALL[rng.below(TrafficShape::ALL.len() as u64) as usize],
            requests_per_day: 1_000 + rng.below(200_000),
            horizon_s: 60 + rng.below(840) as u32,
            tp: 1 << rng.below(3),
            pp: 1 << rng.below(2),
            replicas: 1 + rng.below(4) as u32,
            block_tokens: 1 << rng.below(7),
            max_batch: 1 + rng.below(64) as u32,
        }
        .normalized()
    }

    /// Materializes the serving scenario and runs conformance oracle 10
    /// on it; also asserts the seeded arrival trace itself regenerates
    /// bit-identically.
    fn check(&self) -> Result<(), String> {
        let ctx = |label: &'static str| {
            let spec = *self;
            move |e: String| format!("[{spec}] {label}: {e}")
        };
        let traffic = TrafficSpec::serving_day(self.shape, self.requests_per_day, self.seed)
            .horizon_s(f64::from(self.horizon_s));
        let trace = traffic.generate();
        if traffic.generate() != trace {
            return Err(ctx("traffic")("same-seed regeneration diverged".into()));
        }
        let spec = InferSpec::new(
            TransformerConfig::llama3_8b(),
            GpuSpec::h100_sxm_hbm3(),
            8,
            InferPlan::new(self.tp, self.pp, self.replicas),
        )
        .block_tokens(self.block_tokens)
        .max_batch(self.max_batch as usize)
        .threads(1);
        let model = InferenceModel::new(spec).map_err(ctx("model build"))?;
        oracle_continuous_batching(&model, &trace).map_err(ctx("oracle continuous-batching"))
    }

    /// Strictly-smaller candidates for greedy shrinking: every knob
    /// halved, the shape reset to steady, re-normalized, duplicates
    /// dropped.
    fn shrink(&self) -> Vec<InferCaseSpec> {
        let mut out = Vec::new();
        let mut push = |c: InferCaseSpec| {
            let c = c.normalized();
            if c != *self && !out.contains(&c) {
                out.push(c);
            }
        };
        push(InferCaseSpec {
            requests_per_day: self.requests_per_day / 2,
            ..*self
        });
        push(InferCaseSpec {
            horizon_s: self.horizon_s / 2,
            ..*self
        });
        push(InferCaseSpec {
            tp: self.tp / 2,
            ..*self
        });
        push(InferCaseSpec {
            pp: self.pp / 2,
            ..*self
        });
        push(InferCaseSpec {
            replicas: self.replicas / 2,
            ..*self
        });
        push(InferCaseSpec {
            block_tokens: self.block_tokens / 2,
            ..*self
        });
        push(InferCaseSpec {
            max_batch: self.max_batch / 2,
            ..*self
        });
        push(InferCaseSpec {
            shape: TrafficShape::Steady,
            ..*self
        });
        push(InferCaseSpec {
            seed: self.seed / 2,
            ..*self
        });
        out
    }
}

/// The structured result of a seeded sweep: what ran and the first
/// (shrunk) violation, if any. This is the data the query API's fuzz
/// response is built from.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Cases swept (the full count on a clean sweep; sweeping stops at
    /// the first violation).
    pub cases: u64,
    /// The sweep seed.
    pub seed: u64,
    /// The first violation, already minimized; `None` on a clean sweep.
    pub counterexample: Option<Counterexample<CaseSpec>>,
}

impl SweepOutcome {
    /// Converts into the wire-level query response payload (shared by
    /// the CLI and the serve dispatcher so both render identically).
    pub fn into_response(self) -> query::FuzzResponse {
        query::FuzzResponse {
            cases: self.cases,
            seed: self.seed,
            counterexample: self.counterexample.map(|ce| query::Counterexample {
                case: ce.case,
                message: ce.message,
                min_display: ce.min_spec.to_string(),
                min_message: ce.min_message,
                shrink_steps: ce.shrink_steps,
                snippet: ce
                    .min_spec
                    .as_test_snippet(self.seed, ce.case, ce.shrink_steps),
            }),
        }
    }
}

/// Runs the seeded [`CaseSpec`] sweep: the full invariant + oracle
/// battery on `cases` random specs, the first violation greedily
/// shrunk. `progress` is called with the clean-case count every 500
/// cases (the CLI prints a heartbeat; the server passes a no-op).
pub fn run_sweep(args: &FuzzQuery, progress: impl FnMut(u64)) -> SweepOutcome {
    SweepOutcome {
        cases: args.cases,
        seed: args.seed,
        counterexample: sweep(args, progress),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_normalized() {
        let mut a = TestRng::new(0xC0FFEE);
        let mut b = TestRng::new(0xC0FFEE);
        for _ in 0..50 {
            let sa = CaseSpec::sample(&mut a);
            let sb = CaseSpec::sample(&mut b);
            assert_eq!(sa, sb);
            assert_eq!((sa.tp * sa.cp * sa.pp * sa.dp) % 8, 0);
            assert!(sa.seq.is_multiple_of(u64::from(2 * sa.cp)));
            if let ScheduleKind::Flexible { nc } = sa.kind {
                assert!(nc >= 1 && nc <= sa.bs);
            }
            if sa.kind == ScheduleKind::Interleaved1F1B {
                assert_eq!(sa.bs % sa.pp, 0);
            }
        }
    }

    #[test]
    fn sampled_specs_pass_the_battery() {
        let mut rng = TestRng::new(7);
        for _ in 0..4 {
            let spec = CaseSpec::sample(&mut rng);
            spec.check().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn normalization_repairs_memory_oversubscription() {
        // tp = 1 with Zero1 leaves 6 × 3.2B-parameter layers' state
        // unsharded on every pipeline rank — far past 80 GiB. The
        // ladder must repair it without breaking normal form.
        let over = CaseSpec {
            gpu: GpuChoice::A100,
            layers_per_stage: 2,
            tp: 1,
            cp: 1,
            pp: 8,
            dp: 1,
            v: 3,
            bs: 8,
            seq: 8192,
            kind: ScheduleKind::AllFwdAllBwd,
            zero: ZeroMode::Zero1,
            recompute: false,
        };
        assert!(!over.fits_hbm(), "test premise: the raw spec must not fit");
        let repaired = over.normalized();
        assert!(repaired.fits_hbm(), "ladder failed to repair: {repaired}");
        assert_eq!(repaired, repaired.normalized(), "normal form unstable");
    }

    #[test]
    fn shrink_candidates_are_normalized_and_distinct() {
        let spec = CaseSpec {
            gpu: GpuChoice::A100,
            layers_per_stage: 2,
            tp: 4,
            cp: 2,
            pp: 4,
            dp: 4,
            v: 2,
            bs: 8,
            seq: 8192,
            kind: ScheduleKind::Flexible { nc: 4 },
            zero: ZeroMode::Zero3,
            recompute: true,
        }
        .normalized();
        let candidates = spec.shrink();
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_ne!(*c, spec);
            assert_eq!(*c, c.normalized(), "candidate not in normal form: {c}");
        }
    }

    #[test]
    fn trace_sampling_is_deterministic_and_normalized() {
        let mut a = TestRng::new(0xBEEF);
        let mut b = TestRng::new(0xBEEF);
        for _ in 0..50 {
            let sa = TraceOpSpec::sample(&mut a);
            let sb = TraceOpSpec::sample(&mut b);
            assert_eq!(sa, sb);
            assert_eq!(sa, sa.normalized(), "normal form unstable: {sa}");
            assert!(sa.ops >= 1 && sa.chunk >= 1 && sa.ranks >= 1);
            assert!(sa.tier0 >= 2 * sa.chunk);
        }
    }

    #[test]
    fn sampled_trace_specs_pass_the_battery() {
        let mut rng = TestRng::new(5);
        for _ in 0..25 {
            let spec = TraceOpSpec::sample(&mut rng);
            spec.check().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn trace_shrink_candidates_are_normalized_and_distinct() {
        let spec = TraceOpSpec {
            seed: 0xFACE,
            ops: 16,
            tier0: 64,
            chunk: 8,
            ranks: 4,
        }
        .normalized();
        let candidates = spec.shrink();
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_ne!(*c, spec);
            assert_eq!(*c, c.normalized(), "candidate not in normal form: {c}");
        }
    }

    #[test]
    fn minimize_with_drives_trace_specs_to_a_local_minimum() {
        // A synthetic failure predicate: minimize_with must converge to
        // a spec where no shrink candidate still "fails".
        let fails = |s: &TraceOpSpec| s.ops >= 4 && s.tier0 >= 16;
        let start = TraceOpSpec {
            seed: 0x1234_5678,
            ops: 64,
            tier0: 64,
            chunk: 8,
            ranks: 6,
        }
        .normalized();
        assert!(fails(&start));
        let (min, steps) = minimize_with(start, TraceOpSpec::shrink, fails);
        assert!(fails(&min), "minimize left the failing set: {min}");
        assert!(steps > 0);
        assert!(min.shrink().iter().all(|c| !fails(c)), "not minimal: {min}");
        assert_eq!(min.ops, 4);
        assert_eq!(min.tier0, 16);
    }

    #[test]
    fn infer_sampling_is_deterministic_and_normalized() {
        let mut a = TestRng::new(0xCAFE);
        let mut b = TestRng::new(0xCAFE);
        for _ in 0..50 {
            let sa = InferCaseSpec::sample(&mut a);
            let sb = InferCaseSpec::sample(&mut b);
            assert_eq!(sa, sb);
            assert_eq!(sa, sa.normalized(), "normal form unstable: {sa}");
            assert!(sa.tp.is_power_of_two() && sa.tp <= 8);
            assert!(sa.pp >= 1 && sa.replicas >= 1 && sa.max_batch >= 1);
            assert!(sa.block_tokens >= 1);
        }
    }

    #[test]
    fn sampled_infer_specs_pass_the_battery() {
        let mut rng = TestRng::new(13);
        for _ in 0..3 {
            let spec = InferCaseSpec::sample(&mut rng);
            spec.check().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn infer_shrink_candidates_are_normalized_and_distinct() {
        let spec = InferCaseSpec {
            seed: 0xFEED,
            shape: TrafficShape::Bursty,
            requests_per_day: 80_000,
            horizon_s: 600,
            tp: 4,
            pp: 2,
            replicas: 4,
            block_tokens: 32,
            max_batch: 64,
        }
        .normalized();
        let candidates = spec.shrink();
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_ne!(*c, spec);
            assert_eq!(*c, c.normalized(), "candidate not in normal form: {c}");
        }
    }

    #[test]
    fn snippet_round_trips_the_spec() {
        let spec = CaseSpec::sample(&mut TestRng::new(11));
        let snippet = spec.as_test_snippet(0xC0FFEE, 3, 2);
        assert!(snippet.contains("fn conformance_counterexample_seed_c0ffee_case_3"));
        assert!(snippet.contains(&format!("tp: {}", spec.tp)));
        assert!(snippet.contains(&format!("seq: {}", spec.seq)));
        assert!(snippet.contains("spec.check()"));
    }
}
