//! §7.3 end-to-end performance: 405B on 16 K GPUs at 8 K and 131 K
//! sequence lengths.
//!
//! Paper targets: 400 TFLOPs/GPU (8 K) and 380 TFLOPs/GPU (131 K);
//! bubble ratio 5 % at `bs = 2·pp` and 12 % at `bs = pp`; CP exposed
//! latency 7.64 % of the step with 65.75 % of it waiting for the
//! slowest CP rank, bounding any overlap scheme's gain at 2.62 %.

use crate::configs::{production_long_context, production_short_context};
use crate::report::{pct, Table};
use parallelism_core::SimOptions;

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut t = Table::new(
        "§7.3 — end-to-end 405B on 16K GPUs",
        &[
            "phase",
            "TFLOPs/GPU",
            "paper",
            "mid-rank bubble",
            "paper bubble",
        ],
    );
    let short = production_short_context(16)
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    let short_2pp = production_short_context(32)
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    let long = production_long_context(11)
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    // Rank 8 sits mid-pipeline: full stages, none of the light
    // first/last stages whose small compute inflates idle/compute.
    let mid = 8usize;
    t.row(&[
        "8K seq, bs=pp".to_string(),
        format!("{:.0}", short.tflops_per_gpu),
        "400".to_string(),
        pct(short.bubble_ratio[mid]),
        "12 %".to_string(),
    ]);
    t.row(&[
        "8K seq, bs=2pp".to_string(),
        format!("{:.0}", short_2pp.tflops_per_gpu),
        "-".to_string(),
        pct(short_2pp.bubble_ratio[mid]),
        "5 %".to_string(),
    ]);
    t.row(&[
        "131K seq, cp=16".to_string(),
        format!("{:.0}", long.tflops_per_gpu),
        "380".to_string(),
        pct(long.bubble_ratio[mid]),
        "-".to_string(),
    ]);

    // §7.3.2 CP-exposure analysis.
    let step_s = long.step_time.as_secs_f64();
    let cp_exposed = long.exposed.cp.as_secs_f64() + long.exposed.cp_sync_wait.as_secs_f64();
    let wait_share = long.exposed.cp_sync_wait.as_secs_f64() / cp_exposed.max(1e-12);
    let upper_bound = (cp_exposed * (1.0 - wait_share)) / step_s;
    let mut cp_table = Table::new(
        "§7.3.2 — long-context CP exposure analysis",
        &["metric", "measured", "paper"],
    );
    cp_table.row(&[
        "CP exposed / step".to_string(),
        pct(cp_exposed / step_s),
        "7.64 %".to_string(),
    ]);
    cp_table.row(&[
        "of which waiting for slowest CP rank".to_string(),
        pct(wait_share),
        "65.75 %".to_string(),
    ]);
    cp_table.row(&[
        "upper bound for ring/overlap schemes".to_string(),
        pct(upper_bound),
        "2.62 %".to_string(),
    ]);
    format!("{}{}", t.render(), cp_table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_context_tflops_near_paper() {
        // Paper: 400 TFLOPs/GPU; calibrated model lands within ~12 %.
        let r = production_short_context(16)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        assert!(
            (350.0..460.0).contains(&r.tflops_per_gpu),
            "TFLOPs {}",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn long_context_tflops_near_paper() {
        // Paper: 380 TFLOPs/GPU.
        let r = production_long_context(11)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        assert!(
            (330.0..430.0).contains(&r.tflops_per_gpu),
            "TFLOPs {}",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn mid_rank_bubbles_match_paper_shape() {
        // Paper: 12 % at bs = pp, 5 % at bs = 2·pp.
        let bs_pp = production_short_context(16)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let bs_2pp = production_short_context(32)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        assert!(
            (0.08..0.20).contains(&bs_pp.bubble_ratio[8]),
            "bs=pp mid bubble {}",
            bs_pp.bubble_ratio[8]
        );
        assert!(
            (0.03..0.11).contains(&bs_2pp.bubble_ratio[8]),
            "bs=2pp mid bubble {}",
            bs_2pp.bubble_ratio[8]
        );
    }

    #[test]
    fn long_context_slightly_below_short() {
        let s = production_short_context(16)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let l = production_long_context(11)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        assert!(l.tflops_per_gpu < s.tflops_per_gpu * 1.05);
        assert!(
            l.tflops_per_gpu > s.tflops_per_gpu * 0.7,
            "long {} vs short {}",
            l.tflops_per_gpu,
            s.tflops_per_gpu
        );
    }

    #[test]
    fn doubling_bs_roughly_halves_the_bubble() {
        let bs_pp = production_short_context(16)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let bs_2pp = production_short_context(32)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let r = bs_2pp.bubble_ratio[8] / bs_pp.bubble_ratio[8];
        assert!((0.3..0.8).contains(&r), "ratio {r}");
    }

    #[test]
    fn cp_exposure_single_digit_share_with_dominant_sync_wait() {
        let long = production_long_context(11)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let step = long.step_time.as_secs_f64();
        let cp = long.exposed.cp.as_secs_f64() + long.exposed.cp_sync_wait.as_secs_f64();
        let share = cp / step;
        assert!((0.01..0.2).contains(&share), "CP share {share}");
        let wait = long.exposed.cp_sync_wait.as_secs_f64() / cp;
        // Paper: 65.75 % of CP exposure is waiting for the slowest rank.
        assert!((0.4..0.85).contains(&wait), "sync-wait share {wait}");
    }

    #[test]
    fn report_renders() {
        assert!(run().contains("7.3.2"));
    }
}
