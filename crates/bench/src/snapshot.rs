//! Library entry points for the snapshot subcommands (`llama3sim
//! goodput|search|infer|trace`).
//!
//! Each runner prints its human-readable summary to stdout, writes the
//! machine-readable [`Report`](crate::report::Report) envelope into the
//! working directory (`BENCH_goodput.json`, `BENCH_search.json`,
//! `BENCH_infer.json`, `BENCH_trace.json`), and returns a process exit
//! code. Answers and envelopes hold deterministic values only, so a
//! re-run reproduces them byte for byte; timing is the `perfbench`
//! harness's, with repeats and spread. With `--json` the envelope is
//! also printed to stdout, after the human text, so scripted callers
//! need not re-read the file.

use crate::cli::{out, outln};
use crate::experiments::goodput as goodput_exp;
use crate::report::Report;
use parallelism_core::query::{
    GoodputResponse, InferQuery, InferResponse, SearchQuery, TraceQuery, TraceResponse,
};
use parallelism_core::search::{SearchReport, SearchSpec};
use parallelism_core::SimError;

/// Writes `report` to `path`, prints the `wrote {path}` confirmation
/// line and, with `json`, the envelope itself. Returns the exit code.
pub fn emit(report: &Report, path: &str, json: bool) -> i32 {
    if let Err(e) = report.write(path) {
        eprintln!("error: writing {path}: {e}");
        return 1;
    }
    outln(format_args!("wrote {path}"));
    if json {
        out(report.render_json());
    }
    0
}

/// Runs the seeded 24-hour 16 K-GPU 405B goodput simulation under
/// production fault rates: the deterministic computation behind
/// `Query::Goodput`. Errs only if the production run fails to simulate.
pub fn measure_goodput() -> Result<GoodputResponse, SimError> {
    let report = goodput_exp::production_run(900.0)?.simulate()?;
    Ok(GoodputResponse {
        seed: goodput_exp::SEED,
        report,
    })
}

/// Builds the `BENCH_goodput.json` envelope from a measured run.
pub fn goodput_envelope(g: &GoodputResponse) -> Report {
    let r = &g.report;
    Report::new("goodput")
        .config_str("run_config", "llama3-405b @ 16384 GPUs, production fault rates")
        .config("seed", format!("{}", g.seed))
        .config("horizon_s", format!("{:.1}", r.wall_time_s))
        .metric("goodput", format!("{:.6}", r.goodput))
        .metric("effective_training_time_ratio", format!("{:.6}", r.goodput))
        .metric("steps_completed", r.steps_completed)
        .metric("restarts", r.restarts)
        .metric("healthy_step_s", format!("{:.6}", r.healthy_step_s))
        .metric("loss_checkpoint_s", format!("{:.3}", r.loss.checkpoint_s))
        .metric("loss_detect_s", format!("{:.3}", r.loss.detect_s))
        .metric("loss_restart_s", format!("{:.3}", r.loss.restart_s))
        .metric("loss_rework_s", format!("{:.3}", r.loss.rework_s))
        .metric("loss_degraded_s", format!("{:.3}", r.loss.degraded_s))
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
/// The caller appends the `expect` metric if one was asked.
pub fn search_envelope(q: &SearchQuery, spec: &SearchSpec, report: &SearchReport) -> Report {
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
        .metric("meshes_enumerated", report.counts.meshes_enumerated)
        .metric("meshes_admitted", report.counts.meshes_admitted)
        .metric("candidates", report.counts.candidates)
        .metric("rejected_preflight", report.counts.rejected_preflight)
        .metric("pruned", report.counts.pruned)
        .metric("scored", report.counts.scored)
        .metric("refined", report.counts.refined)
        .metric("frontier_len", report.frontier.len());
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
