//! Goodput under faults: a 24-hour production 405B run on 16 K GPUs
//! with the paper-scale failure rates, swept across checkpoint
//! intervals and compared against the Young/Daly optimum.
//!
//! The Llama 3 herd paper reports 466 job interruptions over a 54-day
//! production run on 16,384 GPUs — roughly one fatal fault every 2.8
//! hours. At that MTBF the checkpoint interval is a real trade: too
//! short and the run drowns in checkpoint writes, too long and every
//! restart rewinds a large window of un-checkpointed work.

use crate::configs::production_short_context;
use crate::report::{pct, Table};
use cluster_model::faults::{FaultRates, FaultTimeline};
use parallelism_core::run::{CheckpointPolicy, GoodputReport, RunSimulator};
use parallelism_core::SimError;

/// The simulated horizon: one day of production training.
pub const HORIZON_S: f64 = 24.0 * 3600.0;

/// Fixed seed so the experiment (and its JSON snapshot) is
/// reproducible byte-for-byte.
pub const SEED: u64 = 0x0060_01D9;

/// Builds the 24-hour 16 K-GPU 405B goodput simulation with the given
/// checkpoint interval.
pub fn production_run(interval_s: f64) -> Result<RunSimulator, SimError> {
    let step = production_short_context(16);
    let timeline = FaultTimeline::generate(
        FaultRates::llama3_production(),
        step.cluster.num_gpus(),
        8,
        HORIZON_S,
        SEED,
    )?;
    RunSimulator::new(
        step,
        timeline,
        CheckpointPolicy::llama3_production().with_interval(interval_s),
    )
}

/// Simulates one day at the given checkpoint interval.
pub fn simulate_interval(interval_s: f64) -> Result<GoodputReport, SimError> {
    production_run(interval_s)?.simulate()
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let intervals_s: [f64; 5] = [300.0, 900.0, 1800.0, 3600.0, 7200.0];
    let reports: Vec<GoodputReport> = intervals_s
        .iter()
        .map(|&i| simulate_interval(i).expect("production goodput run must simulate"))
        .collect();
    let base = &reports[0];

    let mut head = Table::new(
        "§6 — 24 h of 405B on 16K GPUs under production fault rates",
        &["metric", "value"],
    );
    head.row(&[
        "MTBF (fatal)".to_string(),
        format!("{:.2} h", base.mtbf_s / 3600.0),
    ]);
    head.row(&[
        "healthy step time".to_string(),
        format!("{:.2} s", base.healthy_step_s),
    ]);
    head.row(&[
        "checkpoint shard / rank".to_string(),
        format!(
            "{:.2} GiB",
            base.checkpoint_bytes_per_rank as f64 / (1u64 << 30) as f64
        ),
    ]);
    head.row(&[
        "checkpoint write time".to_string(),
        format!("{:.1} s", base.checkpoint_write_s),
    ]);
    head.row(&[
        "Young/Daly optimal interval".to_string(),
        format!("{:.0} s", base.young_daly_interval_s),
    ]);

    let mut t = Table::new(
        "checkpoint-interval sweep (same fault timeline, same seed)",
        &[
            "interval",
            "goodput",
            "steps",
            "restarts",
            "ckpt loss",
            "rework loss",
            "restart+detect",
            "degraded",
        ],
    );
    for (interval, r) in intervals_s.iter().zip(&reports) {
        t.row(&[
            format!("{:.0} s", interval),
            pct(r.goodput),
            r.steps_completed.to_string(),
            r.restarts.to_string(),
            format!("{:.0} s", r.loss.checkpoint_s),
            format!("{:.0} s", r.loss.rework_s),
            format!("{:.0} s", r.loss.detect_s + r.loss.restart_s),
            format!("{:.0} s", r.loss.degraded_s),
        ]);
    }

    let best = intervals_s
        .iter()
        .zip(&reports)
        .max_by(|a, b| a.1.goodput.total_cmp(&b.1.goodput))
        .expect("non-empty sweep");
    format!(
        "{}{}\nbest swept interval: {:.0} s (goodput {}); Young/Daly predicts {:.0} s\n",
        head.render(),
        t.render(),
        best.0,
        pct(best.1.goodput),
        base.young_daly_interval_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_goodput_is_high_but_not_perfect() {
        let r = simulate_interval(900.0).expect("simulates");
        // One day at a ~2.9 h MTBF: several restarts, but the run must
        // still spend the vast majority of its time training.
        assert!(r.restarts >= 1, "expected at least one fatal fault: {r:?}");
        assert!(
            r.goodput > 0.80 && r.goodput < 0.999,
            "goodput {:.4}",
            r.goodput
        );
        assert!(r.effective_training_time_ratio() > 0.80);
    }

    #[test]
    fn report_mentions_young_daly() {
        let r = run();
        assert!(r.contains("Young/Daly"), "{r}");
    }
}
