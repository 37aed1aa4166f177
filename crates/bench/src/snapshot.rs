//! Library entry points for the snapshot subcommands (`llama3sim
//! bench|goodput|search|infer|trace`).
//!
//! `bench` only prints its wall-clock spot timings. Each other runner
//! prints its human-readable summary to stdout, writes the
//! machine-readable [`Report`](crate::report::Report) envelope into the
//! working directory (`BENCH_goodput.json`, `BENCH_search.json`,
//! `BENCH_infer.json`, `BENCH_trace.json`), and returns a process exit
//! code. The envelopes hold deterministic values only, so a re-run
//! reproduces them byte for byte; timing is the `perfbench` harness's,
//! with repeats and spread. With `--json` the envelope is also printed
//! to stdout, after the human text, so scripted callers need not
//! re-read the file.

use crate::configs::production_8k_gpu_step;
use crate::experiments::goodput as goodput_exp;
use crate::report::Report;
use parallelism_core::planner::{plan, PlannerInput};
use parallelism_core::query::{
    BenchResponse, GoodputResponse, InferQuery, InferResponse, Response, SearchQuery, TraceQuery,
    TraceResponse,
};
use parallelism_core::search::{SearchReport, SearchSpec};
use parallelism_core::step::{SimFidelity, SimOptions};
use parallelism_core::TrafficShape;
use sim_engine::fluid::{FluidNet, Transfer};
use sim_engine::time::SimTime;
use std::time::Instant;

/// Median wall-clock milliseconds of `iters` runs of `f`.
fn time_ms<T>(iters: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(iters as usize);
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], last.unwrap())
}

/// Writes `report` to `path`, prints the `wrote {path}` confirmation
/// line and, with `json`, the envelope itself. Returns the exit code.
pub fn emit(report: &Report, path: &str, json: bool) -> i32 {
    if let Err(e) = report.write(path) {
        eprintln!("error: writing {path}: {e}");
        return 1;
    }
    println!("wrote {path}");
    if json {
        print!("{}", report.render_json());
    }
    0
}

/// Measures the `bench` numbers: wall-clock timings of the simulator's
/// hot paths. This is the computation behind `Query::Bench`; the
/// payload is inherently wall-clock, so the serve dispatcher computes
/// it fresh on every dispatch.
pub fn measure_perf() -> BenchResponse {
    // 1. Planning throughput: the full §5.1 sweep at production scale.
    let (plan_ms, p) = time_ms(5, || {
        plan(&PlannerInput::llama3_405b(16_384, 8_192)).expect("405B@16K must be plannable")
    });

    // 2. Folded vs full step simulation on the 8 K-GPU 405B step.
    let step = production_8k_gpu_step(16);
    let folded_opts = SimOptions::new().fidelity(SimFidelity::Folded);
    let full_opts = SimOptions::new().fidelity(SimFidelity::Full);
    let (folded_ms, folded) = time_ms(5, || step.run(&folded_opts).expect("valid step").report);
    let (full_ms, full) = time_ms(3, || step.run(&full_opts).expect("valid step").report);

    // 3. Fluid solver on 1 024 transfers, one per link (the disjoint
    //    single-link fast path).
    let mut net = FluidNet::new();
    let links: Vec<_> = (0..1024).map(|_| net.add_link(50e9)).collect();
    let transfers: Vec<Transfer> = links
        .iter()
        .enumerate()
        .map(|(i, &l)| Transfer {
            route: vec![l],
            bytes: (1 + i as u64 % 64) as f64 * (1 << 20) as f64,
            start: SimTime::from_nanos(i as u64 * 100),
        })
        .collect();
    let (fluid_ms, outcomes) = time_ms(9, || net.run(transfers.clone()).expect("valid transfers"));

    BenchResponse {
        plan_ms,
        plan_mesh: p.mesh.to_string(),
        folded_ms,
        full_ms,
        identical: folded == full,
        fluid_ms,
        fluid_outcomes: outcomes.len(),
    }
}

/// Runs the seeded 24-hour 16 K-GPU 405B goodput simulation under
/// production fault rates and flattens the report into the query
/// response. This is the computation behind `Query::Goodput`.
///
/// # Panics
/// Panics if the simulated day exceeds the 60 s interactivity budget —
/// the snapshot's acceptance bar.
pub fn measure_goodput() -> GoodputResponse {
    let t0 = Instant::now();
    let run = goodput_exp::production_run(900.0).expect("production run must build");
    let report = run.simulate().expect("production run must simulate");
    let sim_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The acceptance bar: a full simulated day at 16 K GPUs must be
    // interactive, not an overnight job.
    assert!(
        sim_ms < 60_000.0,
        "24 h goodput sim took {sim_ms:.0} ms (budget 60 s)"
    );

    GoodputResponse {
        sim_wall_ms: sim_ms,
        seed: goodput_exp::SEED,
        wall_time_s: report.wall_time_s,
        goodput: report.goodput,
        steps_completed: report.steps_completed,
        restarts: report.restarts,
        healthy_step_s: report.healthy_step_s,
        loss_checkpoint_s: report.loss.checkpoint_s,
        loss_detect_s: report.loss.detect_s,
        loss_restart_s: report.loss.restart_s,
        loss_rework_s: report.loss.rework_s,
        loss_degraded_s: report.loss.degraded_s,
        checkpoint_bytes_per_rank: report.checkpoint_bytes_per_rank,
        checkpoint_write_s: report.checkpoint_write_s,
        checkpoint_interval_s: report.checkpoint_interval_s,
        young_daly_interval_s: report.young_daly_interval_s,
        mtbf_s: report.mtbf_s,
    }
}

/// Builds the `BENCH_goodput.json` envelope from a measured run.
pub fn goodput_envelope(r: &GoodputResponse) -> Report {
    Report::new("goodput")
        .config_str("run_config", "llama3-405b @ 16384 GPUs, production fault rates")
        .config("seed", format!("{}", r.seed))
        .config("horizon_s", format!("{:.1}", r.wall_time_s))
        .metric("goodput", format!("{:.6}", r.goodput))
        .metric("effective_training_time_ratio", format!("{:.6}", r.goodput))
        .metric("steps_completed", r.steps_completed)
        .metric("restarts", r.restarts)
        .metric("healthy_step_s", format!("{:.6}", r.healthy_step_s))
        .metric("loss_checkpoint_s", format!("{:.3}", r.loss_checkpoint_s))
        .metric("loss_detect_s", format!("{:.3}", r.loss_detect_s))
        .metric("loss_restart_s", format!("{:.3}", r.loss_restart_s))
        .metric("loss_rework_s", format!("{:.3}", r.loss_rework_s))
        .metric("loss_degraded_s", format!("{:.3}", r.loss_degraded_s))
        .metric("checkpoint_bytes_per_rank", r.checkpoint_bytes_per_rank)
        .metric("checkpoint_write_s", format!("{:.3}", r.checkpoint_write_s))
        .metric(
            "checkpoint_interval_s",
            format!("{:.1}", r.checkpoint_interval_s),
        )
        .metric(
            "young_daly_interval_s",
            format!("{:.1}", r.young_daly_interval_s),
        )
        .metric("mtbf_s", format!("{:.1}", r.mtbf_s))
}

/// Builds the `BENCH_search.json` envelope from a finished search.
/// `frontier_matches` is whether a `--guided` run's frontier equals the
/// exhaustive re-run's; the caller appends the `expect` metric if one
/// was asked.
pub fn search_envelope(
    q: &SearchQuery,
    spec: &SearchSpec,
    report: &SearchReport,
    frontier_matches: Option<bool>,
) -> Report {
    let mut envelope = Report::new("search")
        .config_str("model", format!("llama3-{}", q.model))
        .config_str("workload", spec.workload.tag())
        .config("gpus", q.gpus)
        .config("seq", q.seq)
        .config("goodput_head", q.goodput_head)
        .config("seed", spec.seed)
        .config("max_cp", spec.max_cp)
        .config("zero_modes", spec.zero_modes.len());
    if q.layers > 0 {
        envelope = envelope.config("layers", q.layers);
    }
    if q.budget > 0 {
        envelope = envelope.config("token_budget", q.budget);
    }
    envelope = envelope
        .metric_str("strategy", if q.guided { "guided" } else { "exhaustive" })
        .metric(
            "descent_steps",
            report.guided.map_or(0, |g| g.descent_steps),
        )
        .metric(
            "candidates_verified",
            report
                .guided
                .map_or(report.counts.candidates, |g| g.candidates_verified),
        )
        .metric(
            "evals_saved_pct",
            format!("{:.2}", report.guided.map_or(0.0, |g| g.evals_saved_pct)),
        )
        .metric("meshes_enumerated", report.counts.meshes_enumerated)
        .metric("meshes_admitted", report.counts.meshes_admitted)
        .metric("candidates", report.counts.candidates)
        .metric("rejected_preflight", report.counts.rejected_preflight)
        .metric("scored", report.counts.scored)
        .metric("refined", report.counts.refined)
        .metric("frontier_len", report.frontier.len());
    if let Some(matches) = frontier_matches {
        envelope = envelope.metric("frontier_matches_exhaustive", matches);
    }
    if let Some(best) = &report.best_step_time {
        envelope = envelope
            .metric_str("best_config", best.config.to_string())
            .metric("best_step_time_ms", format!("{:.3}", best.step_time.as_millis_f64()))
            .metric("best_tflops_per_gpu", format!("{:.1}", best.tflops_per_gpu));
    }
    if let Some(lean) = &report.best_memory {
        envelope = envelope
            .metric_str("leanest_config", lean.config.to_string())
            .metric("leanest_peak_gib", format!("{:.2}", lean.peak_memory as f64 / (1u64 << 30) as f64));
    }
    if let Some(g) = &report.best_goodput {
        envelope = envelope
            .metric_str("best_goodput_config", g.config.to_string())
            .metric("best_goodput", format!("{:.6}", g.goodput.unwrap_or(0.0)));
    }
    envelope
}

/// Computes one infer query directly (the same computation the serve
/// dispatcher caches): resolve the mesh, generate the seeded trace,
/// simulate to drain.
fn compute_infer(q: &InferQuery) -> Result<InferResponse, String> {
    let model = q.to_model().map_err(|e| e.message)?;
    let requests = q.traffic_spec().generate();
    let report = model.simulate(&requests);
    Ok(InferResponse {
        model: q.model.clone(),
        plan: model.spec.plan,
        traffic: q.traffic,
        offered: requests.len() as u64,
        report,
    })
}

/// Builds the `BENCH_infer.json` envelope from one or more simulated
/// traffic shapes. Per shape: offered/completed/dropped counts,
/// fleet tokens/sec, p50/p99 TTFT and TPOT, SLO attainment and
/// goodput — the serving analogue of the training snapshot's step
/// time + goodput pair.
pub fn infer_envelope(q: &InferQuery, rows: &[InferResponse]) -> Report {
    let mut envelope = Report::new("infer")
        .config_str("model", format!("llama3-{}", q.model))
        .config("gpus", q.gpus)
        .config("requests_per_day", q.requests_per_day)
        .config("horizon_s", q.horizon_s)
        .config("seed", q.seed)
        .config("block_tokens", q.block)
        .config("max_batch", q.max_batch)
        .config("slo_ttft_ms", q.slo_ttft_ms)
        .config("slo_tpot_ms", q.slo_tpot_ms);
    if let Some(first) = rows.first() {
        envelope = envelope.config_str(
            "plan",
            format!(
                "tp{}·pp{}·x{}",
                first.plan.tp, first.plan.pp, first.plan.replicas
            ),
        );
    }
    for r in rows {
        let tag = r.traffic.tag();
        envelope = envelope
            .metric(format!("{tag}_offered"), r.offered)
            .metric(format!("{tag}_completed"), r.report.completed)
            .metric(format!("{tag}_dropped"), r.report.dropped)
            .metric(format!("{tag}_tokens_per_s"), format!("{:.1}", r.report.tokens_per_s))
            .metric(
                format!("{tag}_ttft_p50_ms"),
                format!("{:.3}", r.report.ttft[0].as_millis_f64()),
            )
            .metric(
                format!("{tag}_ttft_p99_ms"),
                format!("{:.3}", r.report.ttft[2].as_millis_f64()),
            )
            .metric(
                format!("{tag}_tpot_p99_ms"),
                format!("{:.3}", r.report.tpot[2].as_millis_f64()),
            )
            .metric(
                format!("{tag}_slo_attainment"),
                format!("{:.4}", r.report.slo_attainment),
            )
            .metric(
                format!("{tag}_goodput_tokens_per_s"),
                format!("{:.1}", r.report.goodput_tokens_per_s),
            )
            .metric(
                format!("{tag}_peak_hbm_gib"),
                format!("{:.2}", r.report.peak_hbm_bytes as f64 / (1u64 << 30) as f64),
            );
    }
    envelope
}

/// The `infer` subcommand: price a serving workload (or, with `grid`,
/// the full three-shape traffic envelope) and write `BENCH_infer.json`;
/// `json` also prints the envelope.
pub fn run_infer(query: &InferQuery, grid: bool, json: bool) -> i32 {
    let shapes: Vec<TrafficShape> = if grid {
        TrafficShape::ALL.to_vec()
    } else {
        vec![query.traffic]
    };
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(shapes.len());
    for shape in shapes {
        let q = InferQuery {
            traffic: shape,
            ..query.clone()
        };
        match compute_infer(&q) {
            Ok(r) => {
                println!("{}", Response::Infer(Box::new(r.clone())).render_human());
                println!();
                // Grid runs double as the thread-invariance smoke: the
                // first shape is re-simulated single-threaded and must
                // reproduce the report bit-identically.
                if grid && rows.is_empty() {
                    let serial = InferQuery { threads: 1, ..q.clone() };
                    match compute_infer(&serial) {
                        Ok(s) if s.report == r.report => {
                            println!("thread-invariance check: serial re-simulation bit-identical");
                            println!();
                        }
                        Ok(_) => {
                            eprintln!("error: infer: threads=1 re-simulation diverged from threads={}", q.threads);
                            return 1;
                        }
                        Err(e) => {
                            eprintln!("error: infer: {e}");
                            return 1;
                        }
                    }
                }
                rows.push(r);
            }
            Err(e) => {
                eprintln!("error: infer: {e}");
                return 1;
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("simulated in {wall_ms:.0} ms");
    let code = i32::from(rows.iter().all(|r| r.report.completed == 0));
    emit(&infer_envelope(query, &rows), "BENCH_infer.json", json).max(code)
}

/// Builds the `BENCH_trace.json` envelope from a trace response. The
/// envelope can be golden-pinned byte-for-byte.
pub fn trace_envelope(q: &TraceQuery, r: &TraceResponse) -> Report {
    let mut envelope = Report::new("trace")
        .config_str("model", format!("llama3-{}", q.model))
        .config("gpus", q.gpus)
        .config("seq", q.seq)
        .config("horizon_s", q.horizon_s)
        .config("seed", q.seed)
        .config("tier0_events", q.tier0)
        .config("zoom", q.zoom)
        .config_str("mode", r.mode.tag());
    if let Some((t0, t1)) = q.window {
        envelope = envelope.config_str("window_s", format!("{t0},{t1}"));
    }
    envelope
        .metric("events_appended", r.appended)
        .metric("events_resident", r.resident)
        .metric("tiers", r.tiers)
        .metric(
            "compression",
            format!("{:.1}", r.appended as f64 / (r.resident.max(1)) as f64),
        )
        .metric("ok", r.ok)
}
