//! Table 2: parallelism dimensions for 405B pre-training on 16 K GPUs.

use crate::report::{gib, Table};
use cluster_model::gpu::GpuSpec;
use parallelism_core::planner::{plan, PlannerInput, ZeRO3Analysis};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Table 2 — 405B, 16M tokens/step, 16K GPUs (paper: tp8/cp1/pp16/dp128 and tp8/cp16/pp16/dp8)",
        &["seq", "gbs", "TP", "CP", "PP", "DP", "bs", "zero/schedule", "est mem", "paper"],
    );
    for (seq, paper) in [(8_192u64, "8/1/16/128"), (131_072, "8/16/16/8")] {
        let p = plan(&PlannerInput::llama3_405b(16_384, seq)).expect("plannable");
        t.row(&[
            seq.to_string(),
            (16 * 1024 * 1024 / seq).to_string(),
            p.config.tp.to_string(),
            p.config.cp.to_string(),
            p.config.pp.to_string(),
            p.config.dp.to_string(),
            p.config.nmb.to_string(),
            format!("{:?}/{:?}", p.config.zero, p.config.schedule),
            gib(p.peak_memory),
            paper.to_string(),
        ]);
        out.push_str(&format!("\nreasoning for seq {seq}:\n"));
        for r in &p.reasoning {
            out.push_str(&format!("  - {r}\n"));
        }
    }
    // §5.1's "2D or 3D" side analysis.
    let a = ZeRO3Analysis::evaluate(8_192, &GpuSpec::h100_sxm_hbm3(), 50e9);
    out.push_str(&format!(
        "
§5.1 2D-vs-3D: ZeRO-3 arithmetic intensity at bs=1/seq=8K is {:.0} FLOPs/byte          vs hardware ratio {:.0} — {}; hence 3D parallelism (paper reaches the same verdict).
",
        a.arithmetic_intensity,
        a.hardware_ratio,
        if a.zero3_hideable() { "hideable" } else { "NOT hideable" }
    ));
    format!("{}{}", t.render(), out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reproduces_both_rows() {
        use parallelism_core::planner::{plan, PlannerInput};
        let short = plan(&PlannerInput::llama3_405b(16_384, 8_192)).unwrap();
        let long = plan(&PlannerInput::llama3_405b(16_384, 131_072)).unwrap();
        assert_eq!(
            short.config.mesh().to_string(),
            "tp8·cp1·pp16·dp128 (16384 GPUs)"
        );
        assert_eq!(
            long.config.mesh().to_string(),
            "tp8·cp16·pp16·dp8 (16384 GPUs)"
        );
        let report = super::run();
        assert!(report.contains("reasoning for seq 8192"));
        assert!(report.contains("reasoning for seq 131072"));
    }
}
