//! Fig 10: balanced vs imbalanced pipeline (drop one layer from the
//! first and last rank) and the recomputation ablation.

use crate::configs::scaled_405b_step;
use crate::report::{gib, Table};
use parallelism_core::pp::balance::BalancePolicy;
use parallelism_core::pp::schedule::ScheduleKind;
use parallelism_core::SimOptions;

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let kind = ScheduleKind::Flexible { nc: 4 };
    let uni = scaled_405b_step(kind, BalancePolicy::Uniform, false);
    let bal = scaled_405b_step(kind, BalancePolicy::DropFirstAndLast, false);
    let uni_rc = scaled_405b_step(kind, BalancePolicy::Uniform, true);

    let mut per_rank = Table::new(
        "Fig 10a — peak memory per PP rank (paper: rank 0 highest; balance flattens and cuts the max by ~5 GB)",
        &["pp rank", "no balance", "balance", "saved"],
    );
    let mu = uni.peak_memory();
    let mb = bal.peak_memory();
    for r in 0..mu.len() {
        per_rank.row(&[
            r.to_string(),
            gib(mu[r]),
            gib(mb[r]),
            gib(mu[r].saturating_sub(mb[r])),
        ]);
    }

    let mut thr = Table::new(
        "Fig 10b — training throughput (paper: balance +6.5 % TFLOPs; turning recompute off +17.5 %)",
        &["configuration", "TFLOPs/GPU", "max peak memory"],
    );
    let r_uni = uni
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    let r_bal = bal
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    let r_rc = uni_rc
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;
    thr.row(&[
        "no balance + recompute".to_string(),
        format!("{:.1}", r_rc.tflops_per_gpu),
        gib(r_rc.max_peak_memory()),
    ]);
    thr.row(&[
        "no balance".to_string(),
        format!("{:.1}", r_uni.tflops_per_gpu),
        gib(r_uni.max_peak_memory()),
    ]);
    thr.row(&[
        "balance".to_string(),
        format!("{:.1}", r_bal.tflops_per_gpu),
        gib(r_bal.max_peak_memory()),
    ]);
    let gain_balance = r_bal.tflops_per_gpu / r_uni.tflops_per_gpu - 1.0;
    let gain_recompute = r_bal.tflops_per_gpu / r_rc.tflops_per_gpu - 1.0;
    format!(
        "{}{}\nbalance gain: {:.1} % (paper 6.5 %)   balance-vs-recompute gain: {:.1} % (paper 17.5 %)\n",
        per_rank.render(),
        thr.render(),
        gain_balance * 100.0,
        gain_recompute * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank0_is_heaviest_without_balance() {
        let mem = scaled_405b_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        )
        .peak_memory();
        let max = *mem.iter().max().unwrap();
        assert_eq!(mem[0], max, "{mem:?}");
    }

    #[test]
    fn balance_cuts_max_memory_and_raises_tflops() {
        let kind = ScheduleKind::Flexible { nc: 4 };
        let uni = scaled_405b_step(kind, BalancePolicy::Uniform, false)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let bal = scaled_405b_step(kind, BalancePolicy::DropFirstAndLast, false)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        assert!(bal.max_peak_memory() < uni.max_peak_memory());
        assert!(bal.tflops_per_gpu > uni.tflops_per_gpu);
    }

    #[test]
    fn avoiding_recompute_is_the_bigger_win() {
        // Paper: +6.5 % from balance alone, +17.5 % once balance lets
        // recomputation be turned off.
        let kind = ScheduleKind::Flexible { nc: 4 };
        let rc = scaled_405b_step(kind, BalancePolicy::Uniform, true)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let bal = scaled_405b_step(kind, BalancePolicy::DropFirstAndLast, false)
            .run(&SimOptions::default())
            .expect("valid step config")
            .report;
        let gain = bal.tflops_per_gpu / rc.tflops_per_gpu - 1.0;
        assert!(gain > 0.08, "gain vs recompute {:.3}", gain);
    }

    #[test]
    fn report_renders() {
        assert!(run().contains("Fig 10a"));
    }
}
