//! A step prices each distinct layer kind once and sums the prices per
//! stage. This pins that against the per-layer pricing it replaced,
//! kept here as the reference: every layer of every stage priced on
//! its own, every FLOP and byte summed layer by layer. The two must
//! agree bit for bit on stage costs, exposed TP/CP time, TFLOPs/GPU,
//! model FLOPs, memory components and the search's step-time bound.
//!
//! Cases: the 64-config oracle grid; layouts that mix trainable and
//! frozen self-attention with cross-attention at two image-token
//! counts, with recomputation on and off; and `cp = 2` under a
//! document mask.

use cluster_model::gpu::{Dtype, KernelCost};
use cluster_model::topology::{Cluster, GlobalRank};
use collectives::CommCostModel;
use conformance::grid::config_grid;
use llm_model::layers::LayerKind;
use llm_model::masks::MaskSpec;
use llm_model::memory as mem;
use llm_model::{ModelLayout, PrecisionPolicy, TransformerConfig};
use parallelism_core::fsdp;
use parallelism_core::mesh::{Dim, Mesh4D};
use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
use parallelism_core::pp::sim::TableCosts;
use parallelism_core::step::{MemoryComponents, SimOptions, StepModel, StepReport};
use parallelism_core::{AllGatherCp, CpSharding, ScheduleKind, TpPlan, ZeroMode};
use sim_engine::time::SimDuration;

/// What the per-layer walk gives for one step.
struct Reference {
    costs: TableCosts,
    tp_total: SimDuration,
    cp_total: SimDuration,
    cp_wait: SimDuration,
    flops: f64,
    memory: Vec<MemoryComponents>,
}

impl Reference {
    /// Prices every layer of `m` on its own.
    fn of(m: &StepModel) -> Reference {
        let cfg = &m.layout.cfg;
        let gpu = &m.cluster.gpu;
        let comm = CommCostModel::new(m.cluster.topology.clone());
        let tp = TpPlan::new(m.mesh.tp(), true);
        let tp_group = m.mesh.group_of(GlobalRank(0), Dim::Tp);
        let cp_group = m.mesh.group_of(GlobalRank(0), Dim::Cp);
        let cp = m.mesh.cp();
        let tokens = m.seq / cp as u64;
        let pairs_all = CpSharding::new(cp).all_rank_pairs(m.seq, &m.mask);
        let max_pairs = *pairs_all.iter().max().expect("cp ≥ 1");
        let min_pairs = *pairs_all.iter().min().expect("cp ≥ 1");
        let cp_ag = if cp > 1 {
            comm.all_gather(
                &cp_group,
                AllGatherCp::new(cp).kv_bytes_per_rank(cfg, m.seq) / m.mesh.tp() as u64,
            )
        } else {
            SimDuration::ZERO
        };
        let recompute_factor = if m.recompute { 1.0 } else { 0.0 };
        let attn_time = |pairs: u128| {
            let cost = llm_model::flops::attention_kernel_fwd(cfg, tokens, m.seq, pairs);
            let shard = |x| parallelism_core::costs::linear_shard(x, m.mesh.tp() as f64);
            gpu.attention_time(
                KernelCost {
                    flops: shard(cost.flops),
                    bytes: shard(cost.bytes),
                    launches: cost.launches,
                },
                Dtype::Bf16,
            )
        };

        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let mut tp_total = SimDuration::ZERO;
        let mut cp_total = SimDuration::ZERO;
        let mut cp_wait = SimDuration::ZERO;
        for stage in &m.assignment.stages {
            let (mut f, mut b) = (SimDuration::ZERO, SimDuration::ZERO);
            for layer in stage {
                match *layer {
                    LayerKind::SelfAttention { frozen } => {
                        let dense = llm_model::flops::attention_projections_fwd(cfg, tokens)
                            .merge(llm_model::flops::ffn_fwd(cfg, tokens))
                            .merge(llm_model::flops::norms_fwd(cfg, tokens));
                        let dense_t = gpu.gemm_time(tp.shard_cost(dense), Dtype::Bf16);
                        let attn_max = attn_time(max_pairs);
                        let attn_min = attn_time(min_pairs);
                        let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                        let bwd_factor = if frozen { 1 } else { 2 };
                        f += dense_t + attn_max + tp_t + cp_ag;
                        b += (dense_t + attn_max) * bwd_factor
                            + tp_t
                            + cp_ag
                            + (dense_t + attn_max).scale(recompute_factor);
                        tp_total += tp_t * 2;
                        cp_total += cp_ag * 2;
                        cp_wait += (attn_max.saturating_sub(attn_min)) * (1 + bwd_factor);
                    }
                    LayerKind::CrossAttention { image_tokens } => {
                        let cost =
                            llm_model::CrossAttentionSpec { image_tokens }.layer_fwd(cfg, tokens);
                        let t = gpu.gemm_time(tp.shard_cost(cost), Dtype::Bf16);
                        let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                        f += t + tp_t;
                        b += t * 2 + tp_t + t.scale(recompute_factor);
                        tp_total += tp_t * 2;
                    }
                    LayerKind::Embedding => {
                        let cost = llm_model::flops::embedding_fwd(cfg, tokens);
                        let t = gpu.gemm_time(tp.shard_cost(cost), Dtype::Bf16);
                        f += t;
                        b += t;
                    }
                    LayerKind::OutputHead => {
                        let cost = llm_model::flops::output_head_fwd(cfg, tokens);
                        let t = gpu.gemm_time(tp.shard_cost(cost), Dtype::Bf16);
                        let tp_t = tp.layer_fwd_comm(cfg, tokens, &tp_group, &comm);
                        f += t + tp_t;
                        b += t * 2 + tp_t;
                        tp_total += tp_t * 2;
                    }
                }
            }
            fwd.push(f);
            bwd.push(b);
        }
        let p2p_bytes = mem::boundary_activation_bytes_per_token(cfg) * tokens / m.mesh.tp() as u64;
        let dst = m.mesh.stride(Dim::Pp).min(m.cluster.num_gpus() - 1);
        let p2p = comm.p2p(GlobalRank(0), GlobalRank(dst), p2p_bytes);

        let mut per_seq = 0.0f64;
        for layer in &m.layout.layers {
            let fwd = layer.fwd_cost(cfg, m.seq, m.seq, &m.mask).flops;
            let bwd = layer.bwd_cost(cfg, m.seq, m.seq, &m.mask).flops;
            per_seq += fwd + bwd;
        }
        let flops = per_seq * (m.bs as u64 * m.mesh.dp() as u64) as f64;

        let sched = m.schedule().expect("valid schedule");
        let policy = PrecisionPolicy::llama3();
        let fsdp_n = (m.mesh.dp() * m.mesh.cp()) as u64;
        let memory = (0..m.mesh.pp())
            .map(|rank| {
                let layers = m.assignment.rank_layers(rank);
                let params: u64 =
                    layers.iter().map(|l| l.params(cfg)).sum::<u64>() / m.mesh.tp() as u64;
                let state_bytes = fsdp::state_bytes_per_rank(params, policy, m.zero, fsdp_n)
                    .max(params * (policy.param_bytes + policy.grad_bytes));
                let total: u64 = layers
                    .iter()
                    .map(|l| l.activation_bytes_per_token(cfg))
                    .sum();
                let per_token = if m.recompute {
                    mem::boundary_activation_bytes_per_token(cfg) * layers.len() as u64
                } else {
                    (total as f64 * parallelism_core::planner::ACT_RELEASE_FACTOR) as u64
                };
                MemoryComponents {
                    state_bytes,
                    act_bytes_per_stage_mb: per_token * tokens
                        / m.mesh.tp() as u64
                        / m.assignment.v as u64,
                    peak_in_flight: sched.peak_in_flight(rank),
                }
            })
            .collect();
        Reference {
            costs: TableCosts { fwd, bwd, p2p },
            tp_total,
            cp_total,
            cp_wait,
            flops,
            memory,
        }
    }

    /// The step-time bound in closed form over the reference costs.
    fn bound(&self, m: &StepModel, dp_exposed: SimDuration) -> SimDuration {
        let (t, pp) = (&self.costs, m.mesh.pp());
        let mut hops = SimDuration::ZERO;
        let mut bound = SimDuration::ZERO;
        for r in 0..pp {
            let per_mb: SimDuration = (0..m.assignment.v)
                .map(|c| {
                    let s = (c * pp + r) as usize;
                    t.fwd[s] + t.bwd[s]
                })
                .sum();
            bound = bound.max(hops + per_mb * u64::from(m.nmb()));
            let r = r as usize;
            hops += t.fwd[r] + t.bwd[r] + t.p2p * 2;
        }
        bound + dp_exposed
    }
}

/// Checks every per-kind figure of `m` against the per-layer walk and
/// returns the folded report.
fn check(m: &StepModel, ctx: &str) -> StepReport {
    let r = Reference::of(m);
    assert_eq!(m.stage_costs(), r.costs, "{ctx}: stage costs");
    let flops = m.model_flops_per_step();
    assert_eq!(flops.to_bits(), r.flops.to_bits(), "{ctx}: model flops");
    assert_eq!(m.memory_components(), r.memory, "{ctx}: memory components");

    let report = m.run(&SimOptions::default()).expect("runs").report;
    let (nmb, pp) = (u64::from(m.nmb()), u64::from(m.mesh.pp()));
    let exposed = &report.exposed;
    assert_eq!(exposed.tp, r.tp_total * nmb / pp, "{ctx}: exposed tp");
    assert_eq!(exposed.cp, r.cp_total * nmb / pp, "{ctx}: exposed cp");
    assert_eq!(exposed.cp_sync_wait, r.cp_wait * nmb / pp, "{ctx}: cp wait");
    let tflops = parallelism_core::costs::tflops_per_gpu(
        r.flops,
        report.step_time.as_secs_f64().max(1e-12),
        m.cluster.num_gpus() as f64,
    );
    assert_eq!(
        report.tflops_per_gpu.to_bits(),
        tflops.to_bits(),
        "{ctx}: tflops"
    );
    let peaks: Vec<u64> = r.memory.iter().map(MemoryComponents::total).collect();
    assert_eq!(report.peak_memory, peaks, "{ctx}: peak memory");
    assert_eq!(
        m.step_time_bound(),
        r.bound(m, exposed.dp),
        "{ctx}: step-time bound"
    );
    report
}

#[test]
fn kind_prices_equal_per_layer_prices_across_grid() {
    let grid = config_grid();
    assert_eq!(grid.len(), 64);
    for spec in &grid {
        check(&spec.build(), &spec.to_string());
    }
}

/// A 16-layer body mixing trainable and frozen self-attention with
/// cross-attention layers at two image-token counts, so a price table
/// that confused kinds differing only in `frozen` or `image_tokens`
/// would misprice some stage.
fn mixed_layout() -> ModelLayout {
    let cfg = TransformerConfig::llama3_405b_scaled(16);
    let mut layers = vec![LayerKind::Embedding];
    for i in 0..cfg.num_layers {
        layers.push(LayerKind::SelfAttention { frozen: i % 3 != 0 });
        if i % 4 == 3 {
            let image_tokens = if i % 8 == 3 { 1_600 } else { 6_400 };
            layers.push(LayerKind::CrossAttention { image_tokens });
        }
    }
    layers.push(LayerKind::OutputHead);
    ModelLayout { cfg, layers }
}

/// A step over `layout` on a `[tp, cp, pp, dp]` mesh, `v = 2`.
fn step(layout: ModelLayout, mesh: Mesh4D, mask: MaskSpec, recompute: bool) -> StepModel {
    let assignment = StageAssignment::build(&layout, mesh.pp(), 2, BalancePolicy::Uniform);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: ScheduleKind::Flexible { nc: 2 },
        zero: ZeroMode::Zero1,
        bs: 8,
        seq: 8192,
        mask,
        recompute,
    }
}

/// Also checks that the document mask at `cp = 2` makes the CP ranks'
/// attention work differ, so the CP wait share is exercised.
#[test]
fn kind_prices_equal_per_layer_prices_on_mixed_layouts() {
    let document = MaskSpec::document(vec![4096, 1024, 512, 512, 2048]);
    let multimodal =
        ModelLayout::multimodal_text(TransformerConfig::llama3_405b_scaled(16), 4, 1_600);
    let mut cases = 0;
    for layout in [mixed_layout(), multimodal] {
        for recompute in [false, true] {
            for (mesh, mask) in [
                (Mesh4D::new(2, 1, 2, 2), MaskSpec::Causal),
                (Mesh4D::new(2, 2, 2, 1), MaskSpec::Causal),
                (Mesh4D::new(2, 2, 2, 1), document.clone()),
                (Mesh4D::new(1, 2, 4, 2), document.clone()),
            ] {
                let ctx = format!(
                    "{} layers, {mesh:?}, {mask:?}, recompute {recompute}",
                    layout.layers.len()
                );
                let documents = mask != MaskSpec::Causal;
                let report = check(&step(layout.clone(), mesh, mask, recompute), &ctx);
                if documents {
                    assert!(report.exposed.cp_sync_wait > SimDuration::ZERO, "{ctx}");
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 16);
}
