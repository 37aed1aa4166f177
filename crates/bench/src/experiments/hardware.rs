//! §8 hardware-recommendation ablations: HBM capacity (TP 8 → 4),
//! DVFS determinism, and network oversubscription.

use crate::report::{pct, Table};
use cluster_model::jitter::{JitterKind, JitterModel};
use cluster_model::topology::{GlobalRank, TopologySpec};
use collectives::algorithms::{ring_all_gather_flows, run_stepped};
use collectives::ProcessGroup;
use parallelism_core::analyze::memory::admitted_bounds;
use parallelism_core::planner::rule_config;
use parallelism_core::search::SearchSpec;
use parallelism_core::{SimOptions, StepModel};
use sim_engine::time::SimTime;

/// One row of the §8.1 HBM-capacity what-if.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmPoint {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Achieved TFLOPs per GPU.
    pub tflops: f64,
    /// The largest per-rank peak memory, bytes.
    pub peak_bytes: u64,
    /// Admitted by the planner's and the search's one memory rule
    /// ([`admitted_bounds`]) on the 80 GB part.
    pub fits: bool,
}

/// The two §8.1 steps, 405B on 2K GPUs at tp·cp1·pp16: TP 8, then TP 4.
fn hbm_steps() -> [(u32, StepModel); 2] {
    let spec = SearchSpec::llama3_405b(2_048, 8_192);
    [8, 4].map(|tp| {
        let step = rule_config(&spec, tp, 1, 16)
            .and_then(|c| spec.build_step(&c))
            .expect("tp·cp1·pp16 admissible");
        (tp, step)
    })
}

/// §8.1 HBM-capacity what-if: TP 8 vs TP 4 on 2 K GPUs, memory
/// permitting. Returns the TP 8 row, then the TP 4 row.
pub fn hbm_tp_ablation() -> [HbmPoint; 2] {
    hbm_steps().map(|(tp, step)| HbmPoint {
        tp,
        tflops: step
            .run(&SimOptions::default())
            .expect("valid step config")
            .report
            .tflops_per_gpu,
        peak_bytes: step.peak_memory().into_iter().max().unwrap_or(0),
        fits: step
            .schedule()
            .is_ok_and(|sched| admitted_bounds(&step, &sched).is_some()),
    })
}

fn run_hbm() -> String {
    let [tp8, tp4] = hbm_tp_ablation();
    let mut t = Table::new(
        "§8.1 — HBM capacity: TP 8 → 4 on 2K GPUs (paper: ~10 % end-to-end gain when memory allows)",
        &["tp", "TFLOPs/GPU", "peak memory", "fits 80 GB?"],
    );
    for (p, note) in [(tp8, ""), (tp4, " (needs the bigger-HBM part)")] {
        t.row(&[
            p.tp.to_string(),
            format!("{:.0}", p.tflops),
            crate::report::gib(p.peak_bytes),
            format!("{}{note}", p.fits),
        ]);
    }
    format!(
        "{}\ntp4 gain: {:.1} % (paper ≈ 10 %)\n",
        t.render(),
        (tp4.tflops / tp8.tflops - 1.0) * 100.0
    )
}

fn run_dvfs() -> String {
    let mut t = Table::new(
        "§8.1 — DVFS determinism: synchronized slowdown vs cluster size (5 % jitter amplitude); paper: transient slowdowns accumulate through fine-grain sync",
        &["sync'd accelerators", "static (deterministic DVFS)", "transient (non-deterministic)"],
    );
    let stat = JitterModel::new(JitterKind::Static, 0.05, 42);
    let trans = JitterModel::new(JitterKind::Transient, 0.05, 42);
    for n in [8u32, 64, 512, 4096] {
        t.row(&[
            n.to_string(),
            pct(stat.synchronized_slowdown(n, 32) - 1.0),
            pct(trans.synchronized_slowdown(n, 32) - 1.0),
        ]);
    }
    t.render()
}

/// Ring over all 32 GPUs of two leaves, ordered so every ring edge
/// crosses the spine — 16 concurrent flows per spine direction, the
/// worst case an outer parallelism dimension can create.
fn spine_stress_group() -> ProcessGroup {
    let mut ranks = Vec::new();
    for g in 0..16u32 {
        ranks.push(GlobalRank(g)); // leaf 0 (nodes 0–1)
        ranks.push(GlobalRank(16 + g)); // leaf 1 (nodes 2–3)
    }
    ProcessGroup::new(ranks)
}

fn spine_stress_bandwidth(factor: f64) -> f64 {
    let topo = TopologySpec {
        nodes_per_leaf: 2,
        ..TopologySpec::llama3_production(4)
    }
    .with_oversubscription(factor);
    let ft = topo.build_fluid();
    let group = spine_stress_group();
    let flows = ring_all_gather_flows(&group, 32 << 20);
    run_stepped(&ft, &group, &flows, SimTime::ZERO, &[])
        .expect("fluid ok")
        .algorithm_bandwidth
}

fn run_network() -> String {
    let mut t = Table::new(
        "§8.2 — spine oversubscription under a leaf-crossing ring (32 flows across 2 leaves); paper: size upper tiers to the parallelism dimensions that cross them",
        &["oversubscription", "achieved AG bandwidth (GB/s)", "slowdown vs 1:1"],
    );
    let base_bw = spine_stress_bandwidth(1.0);
    for factor in [1.0f64, 2.0, 4.0, 8.0] {
        let bw = spine_stress_bandwidth(factor);
        t.row(&[
            format!("{factor:.0}:1"),
            format!("{:.1}", bw / 1e9),
            format!("{:.2}×", base_bw / bw.max(1.0)),
        ]);
    }
    t.render()
}

fn run_perf_per_watt() -> String {
    use cluster_model::gpu::{Dtype, GpuSpec, KernelCost};
    let mut t = Table::new(
        "§8.2 — Perf/Watt: power-constrained clusters care about GFLOP/s per watt, not absolute speed",
        &["accelerator", "TDP", "large-GEMM TFLOPs", "GFLOP/s per watt"],
    );
    for gpu in [GpuSpec::h100_sxm_hbm3(), GpuSpec::a100_sxm()] {
        let c = KernelCost::gemm(16384, 16384, 16384, Dtype::Bf16);
        let time = gpu.gemm_time(c, Dtype::Bf16);
        let tflops = c.flops / time.as_secs_f64() / 1e12;
        t.row(&[
            gpu.name.clone(),
            format!("{:.0} W", gpu.tdp_watts),
            format!("{tflops:.0}"),
            format!("{:.1}", gpu.flops_per_watt(c, time) / 1e9),
        ]);
    }
    t.render()
}

fn run_degraded_link() -> String {
    // §8.2 "ensure robust network performance": one degraded link in a
    // ring slows the whole collective to the degraded pace.
    use sim_engine::fluid::FluidNet;
    use sim_engine::fluid::Transfer;
    let mut t = Table::new(
        "§8.2 — one slow link gates the whole ring (8-flow ring all-gather step)",
        &["slow-link speed", "step completion vs healthy"],
    );
    let run_ring = |slow_frac: f64| -> f64 {
        let mut net = FluidNet::new();
        let links: Vec<_> = (0..8)
            .map(|i| net.add_link(if i == 3 { 50e9 * slow_frac } else { 50e9 }))
            .collect();
        let transfers: Vec<Transfer> = (0..8)
            .map(|i| Transfer {
                route: vec![links[i]],
                bytes: 256e6,
                start: SimTime::ZERO,
            })
            .collect();
        net.run(transfers)
            .expect("fluid ok")
            .iter()
            .map(|o| o.finish.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let healthy = run_ring(1.0);
    for frac in [1.0f64, 0.5, 0.25, 0.1] {
        t.row(&[
            format!("{:.0} %", frac * 100.0),
            format!("{:.2}×", run_ring(frac) / healthy),
        ]);
    }
    t.render()
}

/// Runs all §8 ablations.
pub fn run() -> String {
    format!(
        "{}{}{}{}{}",
        run_hbm(),
        run_dvfs(),
        run_network(),
        run_perf_per_watt(),
        run_degraded_link()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tp4_gains_when_memory_allows() {
        let [tp8, tp4] = hbm_tp_ablation();
        assert!(tp4.tflops > tp8.tflops * 1.02, "tp4 {tp4:?} vs tp8 {tp8:?}");
        assert!(tp4.peak_bytes > tp8.peak_bytes, "tp4 must cost memory");
    }

    #[test]
    fn fits_column_is_the_one_memory_rule() {
        let table = run_hbm();
        for (tp, step) in hbm_steps() {
            let admitted = admitted_bounds(&step, &step.schedule().unwrap()).is_some();
            let row = table
                .lines()
                .find(|l| l.starts_with(&format!("| {tp} ")))
                .unwrap_or_else(|| panic!("no tp {tp} row in\n{table}"));
            let fits = row.split('|').nth(4).unwrap().trim();
            assert!(
                fits.starts_with(&admitted.to_string()),
                "tp {tp}: the rule says {admitted}, the column says {fits:?}"
            );
        }
    }

    #[test]
    fn transient_jitter_hurts_more_at_scale() {
        let trans = JitterModel::new(JitterKind::Transient, 0.05, 1);
        let small = trans.synchronized_slowdown(8, 32);
        let large = trans.synchronized_slowdown(4096, 32);
        assert!(large > small);
    }

    #[test]
    fn oversubscription_degrades_cross_leaf_bandwidth() {
        let report = run_network();
        assert!(report.contains("8:1"));
        assert!(
            spine_stress_bandwidth(8.0) < spine_stress_bandwidth(1.0) * 0.6,
            "8:1 should clearly degrade the leaf-crossing ring"
        );
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("8.1"));
        assert!(r.contains("8.2"));
    }
}
