//! The analytic step-cost model, generic over [`Scalar`].
//!
//! Two callers share this module:
//!
//! * The **exact path** — `step.rs`, `tp.rs`, `cp.rs` and
//!   `pp/schedule.rs` instantiate the primitive expressions (re-exported
//!   from [`numerics::costs`]) at the float type. The expressions use
//!   the exact operation order of the code they replaced, so the
//!   exhaustive search remains bit-identical to the pre-refactor
//!   arithmetic.
//! * The **guided path** — `search::guided` instantiates the
//!   [`surrogate_step`] model at [`numerics::Dual`] to descend the cost
//!   gradient over a continuous relaxation of `(tp, cp, pp, dp, nmb)`.
//!   The surrogate composes the same α–β/roofline/bubble expressions
//!   but replaces integer byte rounding (`div_ceil`) and per-rank graph
//!   replay with their continuous counterparts: the discrete configs it
//!   proposes are re-verified by the exact simulator, so surrogate
//!   error costs at most extra candidate evaluations, never wrong
//!   frontier points.
//!
//! Repo rule (enforced by `llama3sim lint`'s LINT004): no direct
//! float arithmetic in this module — every quantity is an `S` and every
//! constant enters through [`Scalar::lit`].

pub use numerics::costs::{
    attention_pair_flops, bubble_ratio, kernel_busy_s, linear_shard, ring_transfer_s,
    tflops_per_gpu, transfer_s,
};
use numerics::scalar::Scalar;

/// Everything the surrogate model needs about the cluster and the
/// model, lifted to `S` (constants — zero derivative under duals).
/// Built from a `SearchSpec` by `search::guided`; field meanings mirror
/// the exact model's sources (`GpuSpec`, `TopologySpec`,
/// `llm_model::flops`/`memory`, `PrecisionPolicy`).
#[derive(Debug, Clone, Copy)]
pub struct SurrogateConsts<S> {
    /// GPUs in the cluster.
    pub ngpu: S,
    /// GPUs per node (the NVLink domain size).
    pub gpus_per_node: S,
    /// Sequence length (tokens).
    pub seq: S,
    /// Transformer layer count.
    pub layers: S,
    /// Total model parameters.
    pub params_total: S,

    /// Effective GEMM throughput, FLOP/s (peak × efficiency ceiling).
    pub gemm_eff_flops: S,
    /// Effective attention-kernel throughput, FLOP/s.
    pub attn_eff_flops: S,
    /// HBM bandwidth, bytes/s.
    pub hbm_bw: S,
    /// Kernel launch overhead, seconds.
    pub kernel_launch_s: S,

    /// Effective NVLink bandwidth (× protocol efficiency), bytes/s.
    pub nv_bw: S,
    /// Effective NIC bandwidth (× protocol efficiency), bytes/s.
    pub nic_bw: S,
    /// NVLink hop latency, seconds.
    pub nv_lat_s: S,
    /// Network hop latency, seconds.
    pub net_lat_s: S,
    /// Collective launch overhead, seconds.
    pub coll_launch_s: S,

    /// Dense (projections + FFN + norms) flops per token per layer.
    pub dense_flops_per_token: S,
    /// Dense HBM bytes per token per layer (activation-proportional).
    pub dense_bytes_per_token: S,
    /// Dense HBM bytes per layer independent of tokens (weights).
    pub dense_bytes_fixed: S,
    /// Dense kernel launches per layer.
    pub dense_launches: S,
    /// Attention kernel flops per attended (query, key) pair.
    pub attn_flops_per_pair: S,
    /// Attention HBM bytes per local query token.
    pub attn_bytes_per_q_token: S,
    /// Attention HBM bytes per gathered key/value token.
    pub attn_bytes_per_kv_token: S,
    /// Attention kernel launches per layer.
    pub attn_launches: S,
    /// Attended pairs of the full (unsharded) sequence under the mask.
    pub pairs_total: S,

    /// Output-head (vocabulary projection) flops per token.
    pub head_flops_per_token: S,
    /// Output-head HBM bytes per token (logits traffic).
    pub head_bytes_per_token: S,
    /// Output-head HBM bytes independent of tokens (the weight read).
    pub head_bytes_fixed: S,
    /// Output-head kernel launches.
    pub head_launches: S,

    /// Bytes per token carried by one TP+SP collective (hidden × BF16).
    pub tp_coll_bytes_per_token: S,
    /// TP+SP collectives per layer (forward).
    pub tp_colls_per_layer: S,
    /// K/V all-gather bytes per local token (2 tensors × kv_dim × BF16).
    pub kv_ag_bytes_per_token: S,
    /// Boundary activation bytes per token (kept under recompute).
    pub boundary_bytes_per_token: S,
    /// Full activation bytes per token per layer (recompute off).
    pub act_bytes_per_token: S,
    /// §6.3 buffer-release factor applied when recompute is off.
    pub act_release: S,

    /// Resident parameter bytes per parameter.
    pub param_bytes: S,
    /// Resident gradient bytes per parameter.
    pub grad_bytes: S,
    /// Resident optimizer bytes per parameter.
    pub optim_bytes: S,
}

impl<S: Scalar> SurrogateConsts<S> {
    /// Re-expresses the constants at another scalar type — e.g. lifting
    /// the float constants into duals, where they carry zero derivative.
    pub fn lift<T: Scalar>(&self) -> SurrogateConsts<T> {
        SurrogateConsts {
            ngpu: T::lit(self.ngpu.value()),
            gpus_per_node: T::lit(self.gpus_per_node.value()),
            seq: T::lit(self.seq.value()),
            layers: T::lit(self.layers.value()),
            params_total: T::lit(self.params_total.value()),
            gemm_eff_flops: T::lit(self.gemm_eff_flops.value()),
            attn_eff_flops: T::lit(self.attn_eff_flops.value()),
            hbm_bw: T::lit(self.hbm_bw.value()),
            kernel_launch_s: T::lit(self.kernel_launch_s.value()),
            nv_bw: T::lit(self.nv_bw.value()),
            nic_bw: T::lit(self.nic_bw.value()),
            nv_lat_s: T::lit(self.nv_lat_s.value()),
            net_lat_s: T::lit(self.net_lat_s.value()),
            coll_launch_s: T::lit(self.coll_launch_s.value()),
            dense_flops_per_token: T::lit(self.dense_flops_per_token.value()),
            dense_bytes_per_token: T::lit(self.dense_bytes_per_token.value()),
            dense_bytes_fixed: T::lit(self.dense_bytes_fixed.value()),
            dense_launches: T::lit(self.dense_launches.value()),
            attn_flops_per_pair: T::lit(self.attn_flops_per_pair.value()),
            attn_bytes_per_q_token: T::lit(self.attn_bytes_per_q_token.value()),
            attn_bytes_per_kv_token: T::lit(self.attn_bytes_per_kv_token.value()),
            attn_launches: T::lit(self.attn_launches.value()),
            pairs_total: T::lit(self.pairs_total.value()),
            head_flops_per_token: T::lit(self.head_flops_per_token.value()),
            head_bytes_per_token: T::lit(self.head_bytes_per_token.value()),
            head_bytes_fixed: T::lit(self.head_bytes_fixed.value()),
            head_launches: T::lit(self.head_launches.value()),
            tp_coll_bytes_per_token: T::lit(self.tp_coll_bytes_per_token.value()),
            tp_colls_per_layer: T::lit(self.tp_colls_per_layer.value()),
            kv_ag_bytes_per_token: T::lit(self.kv_ag_bytes_per_token.value()),
            boundary_bytes_per_token: T::lit(self.boundary_bytes_per_token.value()),
            act_bytes_per_token: T::lit(self.act_bytes_per_token.value()),
            act_release: T::lit(self.act_release.value()),
            param_bytes: T::lit(self.param_bytes.value()),
            grad_bytes: T::lit(self.grad_bytes.value()),
            optim_bytes: T::lit(self.optim_bytes.value()),
        }
    }
}

/// A point of the continuous relaxation: the 4D mesh plus the
/// micro-batch count, all real-valued and ≥ 1.
#[derive(Debug, Clone, Copy)]
pub struct RelaxedMesh<S> {
    /// Tensor parallel degree.
    pub tp: S,
    /// Context parallel degree.
    pub cp: S,
    /// Pipeline parallel degree.
    pub pp: S,
    /// Data parallel degree.
    pub dp: S,
    /// Micro-batches per replica per step.
    pub nmb: S,
}

/// The per-mesh discrete choices, encoded as indicator constants so
/// one generic expression prices every variant.
#[derive(Debug, Clone, Copy)]
pub struct VariantKnobs<S> {
    /// 1 when activation recompute is on, else 0.
    pub recompute: S,
    /// 1 when gradients are sharded between uses (ZeRO-2/3), else 0.
    pub grad_sharded: S,
    /// 1 when parameters are sharded between uses (ZeRO-3), else 0.
    pub param_sharded: S,
    /// `true` for the all-forward-all-backward schedule (every
    /// micro-batch in flight); `false` for the flexible 1F1B family.
    pub afab: bool,
    /// Flexible-schedule chunk multiplier (`nc = nc_mult · pp`).
    pub nc_mult: S,
}

/// What the surrogate prices a relaxed configuration at.
#[derive(Debug, Clone, Copy)]
pub struct SurrogatePrice<S> {
    /// End-to-end step time, seconds.
    pub time_s: S,
    /// Worst per-rank peak HBM, bytes.
    pub mem_bytes: S,
}

/// Continuous hierarchical all-gather time (the α–β model of
/// `collectives::cost`): `n` ranks contributing `bytes_per_rank`,
/// `ranks_per_node` of them per NVLink domain. Degenerates to the
/// intra-node ring when the group fits one node and to zero as
/// `n → 1`.
pub fn all_gather_time_s<S: Scalar>(
    c: &SurrogateConsts<S>,
    n: S,
    ranks_per_node: S,
    bytes_per_rank: S,
) -> S {
    let one = S::lit(1.0);
    let zero = S::lit(0.0);
    // 0 when n ≤ 1 (no collective), 1 when n ≥ 2; linear in between so
    // the relaxation stays continuous.
    let gate = (n - one).max(zero).min(one);
    let m = (n / ranks_per_node).max(one);
    let k = n / m;
    let inter =
        ring_transfer_s(m - one, bytes_per_rank, c.nic_bw) + c.net_lat_s * (m - one) * S::lit(2.0);
    let intra = ring_transfer_s(k - one, bytes_per_rank * m, c.nv_bw) + c.nv_lat_s * (k - one);
    gate * (c.coll_launch_s + inter + intra)
}

/// One layer's dense (projections + FFN + norms) kernel time on a TP
/// shard, per micro-batch.
fn dense_time_s<S: Scalar>(c: &SurrogateConsts<S>, tokens: S, tp: S) -> S {
    let flops = linear_shard(c.dense_flops_per_token * tokens, tp);
    let bytes = linear_shard(c.dense_bytes_fixed + c.dense_bytes_per_token * tokens, tp);
    kernel_busy_s(flops, c.gemm_eff_flops, bytes, c.hbm_bw) + c.kernel_launch_s * c.dense_launches
}

/// One layer's attention kernel time on a TP shard per micro-batch:
/// pairs split evenly across CP (zig-zag balance) and heads across TP.
fn attn_time_s<S: Scalar>(c: &SurrogateConsts<S>, tokens: S, tp: S, cp: S) -> S {
    let pairs = c.pairs_total / cp;
    let flops = linear_shard(c.attn_flops_per_pair * pairs, tp);
    let bytes = linear_shard(
        c.attn_bytes_per_q_token * tokens + c.attn_bytes_per_kv_token * c.seq,
        tp,
    );
    kernel_busy_s(flops, c.attn_eff_flops, bytes, c.hbm_bw) + c.kernel_launch_s * c.attn_launches
}

/// The full surrogate: prices a relaxed `(mesh, variant)` the way
/// `StepModel::estimate` prices a discrete one — per-layer roofline
/// compute, exposed TP/CP collectives, the analytic pipeline bubble,
/// and the exposed FSDP all-gather/reduce-scatter — plus the peak-HBM
/// composition of `StepModel::memory_components`.
pub fn surrogate_step<S: Scalar>(
    c: &SurrogateConsts<S>,
    x: &RelaxedMesh<S>,
    k: &VariantKnobs<S>,
) -> SurrogatePrice<S> {
    let one = S::lit(1.0);
    let two = S::lit(2.0);

    let tokens = c.seq / x.cp;
    // Chunks per rank: one layer per virtual stage, as the enumerator
    // assigns them.
    let v = c.layers / x.pp;

    // --- per-micro-batch work on one rank ---------------------------
    let dense = dense_time_s(c, tokens, x.tp);
    let attn = attn_time_s(c, tokens, x.tp, x.cp);
    // TP group always fits the NVLink domain (§5.1 pins TP to a node).
    let tp_bytes = linear_shard(c.tp_coll_bytes_per_token * tokens, x.tp);
    let tp_comm = all_gather_time_s(c, x.tp, x.tp, tp_bytes) * c.tp_colls_per_layer;
    // CP peers sit stride-tp apart: gpn/tp of them share a node.
    let cp_rpn = (c.gpus_per_node / x.tp).max(one).min(x.cp);
    let cp_bytes = linear_shard(c.kv_ag_bytes_per_token * tokens, x.tp);
    let cp_comm = all_gather_time_s(c, x.cp, cp_rpn, cp_bytes);

    let fwd_layer = dense + attn + tp_comm + cp_comm;
    let bwd_layer = (dense + attn) * (two + k.recompute) + tp_comm + cp_comm;
    let per_mb = (fwd_layer + bwd_layer) * v;

    // --- terminal-stage imbalance ------------------------------------
    // The output head rides on top of the last rank's regular layer
    // stack (uniform stage assignment), so its per-micro-batch cost is
    // *not* divided by pp: the steady-state pipeline rate is gated by
    // that heavy rank and every other rank idles for the difference.
    // Without this term the surrogate prices deep pipelines as free
    // and sends the whole verification budget to pp = max.
    let head_flops = linear_shard(c.head_flops_per_token * tokens, x.tp);
    let head_bytes =
        linear_shard(c.head_bytes_fixed + c.head_bytes_per_token * tokens, x.tp);
    let head = kernel_busy_s(head_flops, c.gemm_eff_flops, head_bytes, c.hbm_bw)
        + c.kernel_launch_s * c.head_launches;
    // Forward (1×) + backward (2×) plus the head's own TP collectives.
    let head_mb = head * (one + two) + tp_comm * two;

    // --- pipeline + data parallel -----------------------------------
    let bubble = bubble_ratio(x.pp, x.nmb, v);
    // Exposed stage-boundary P2P: each warm-up hop ships one
    // micro-batch's boundary activations between stages (inter-node —
    // with TP pinned to the node, consecutive stages never share one).
    // Extra warm-up chunks overlap it away (§3.1: `nc = 2·pp` hides
    // P2P that `nc = pp` exposes), so the exposure ramps down linearly
    // in the chunk multiplier and vanishes at `nc_mult = 2`. Small
    // (~per-mille of the step), but it is what orders the flexible-`nc`
    // variants of one mesh the way the folded simulator does.
    let zero = S::lit(0.0);
    let hop_s = ring_transfer_s(one, c.boundary_bytes_per_token * tokens, c.nic_bw)
        + c.net_lat_s;
    let p2p_exposed =
        hop_s * (x.pp - one) * (two - k.nc_mult).max(zero).min(two);
    let fsdp_n = x.dp * x.cp;
    // An FSDP group touches every node of its PP slice.
    let fsdp_nodes = (c.ngpu / (x.pp * c.gpus_per_node)).max(one).min(fsdp_n);
    let fsdp_rpn = fsdp_n / fsdp_nodes;
    let params_rank = c.params_total / (x.pp * x.tp);
    // ZeRO-3 all-gathers parameters before forward and backward.
    let ag_bytes = params_rank * c.param_bytes * (one + k.param_sharded);
    let rs_bytes = params_rank * c.grad_bytes;
    let dp_comm = all_gather_time_s(c, fsdp_n, fsdp_rpn, linear_shard(ag_bytes, fsdp_n))
        + all_gather_time_s(c, fsdp_n, fsdp_rpn, linear_shard(rs_bytes, fsdp_n));

    let time_s = (per_mb + head_mb) * x.nmb * (one + bubble) + dp_comm + p2p_exposed;

    // --- peak memory -------------------------------------------------
    // Sharding denominators: fsdp_n when the component is sharded, 1
    // when it is not — continuous in the indicator knob.
    let p_den = one + k.param_sharded * (fsdp_n - one);
    let g_den = one + k.grad_sharded * (fsdp_n - one);
    let state = params_rank
        * (c.param_bytes / p_den + c.grad_bytes / g_den + c.optim_bytes / fsdp_n);
    // FP32 accumulators live unsharded at the backward peak (§6.2).
    let state = state.max(params_rank * (c.param_bytes + c.grad_bytes));
    let act_per_token =
        k.recompute * c.boundary_bytes_per_token + (one - k.recompute) * c.act_bytes_per_token * c.act_release;
    let per_stage_mb = linear_shard(act_per_token * tokens, x.tp);
    let peak_in_flight = if k.afab {
        v * x.nmb
    } else {
        // §3.1.1 warm-up depth of rank 0, capped by the total in
        // flight: (v−1)·nc + 2(pp−1) + 1.
        (v * x.nmb).min((v - one) * k.nc_mult * x.pp + two * (x.pp - one) + one)
    };
    let mem_bytes = state + per_stage_mb * peak_in_flight;

    SurrogatePrice { time_s, mem_bytes }
}

/// The scalarized descent objective: `ln(time) + λ·ln(mem)` (a
/// weighted-geometric sweep of λ traces the (time, memory) Pareto
/// frontier) plus a soft out-of-memory barrier that turns on as peak
/// memory approaches the HBM capacity.
pub fn guided_objective<S: Scalar>(p: &SurrogatePrice<S>, lambda: S, hbm_capacity: S) -> S {
    let x = (p.mem_bytes / hbm_capacity - S::lit(0.95)) * S::lit(24.0);
    // softplus(x) = smooth_max(x, 0; 1): ≈ 0 well under budget, linear
    // in the overshoot above it.
    let oom_barrier = x.smooth_max(S::lit(0.0), 1.0);
    p.time_s.ln() + lambda * p.mem_bytes.ln() + oom_barrier
}

#[cfg(test)]
mod tests {
    #![allow(clippy::excessive_precision)]
    use super::*;

    // Test-only: plain-float consts resembling the 405B/16K problem.
    // lint: allow(f64) — test fixtures may use literal floats freely.
    fn consts() -> SurrogateConsts<f64> {
        SurrogateConsts {
            ngpu: 16384.0,
            gpus_per_node: 8.0,
            seq: 8192.0,
            layers: 126.0,
            params_total: 405e9,
            gemm_eff_flops: 989e12 * 0.6,
            attn_eff_flops: 989e12 * 0.45,
            hbm_bw: 3.35e12,
            kernel_launch_s: 3e-6,
            nv_bw: 450e9 * 0.8,
            nic_bw: 50e9 * 0.8,
            nv_lat_s: 700e-9,
            net_lat_s: 4e-6,
            coll_launch_s: 8e-6,
            dense_flops_per_token: 6.0 * 3.2e9,
            dense_bytes_per_token: 2.0 * 16384.0 * 10.0,
            dense_bytes_fixed: 2.0 * 3.2e9,
            dense_launches: 10.0,
            attn_flops_per_pair: 4.0 * 128.0 * 128.0,
            attn_bytes_per_q_token: 2.0 * 16384.0,
            attn_bytes_per_kv_token: 2.0 * 2048.0,
            attn_launches: 2.0,
            pairs_total: 8192.0 * 8193.0 / 2.0,
            head_flops_per_token: 2.0 * 16384.0 * 128256.0,
            head_bytes_per_token: 2.0 * 128256.0,
            head_bytes_fixed: 2.0 * 16384.0 * 128256.0,
            head_launches: 1.0,
            tp_coll_bytes_per_token: 2.0 * 16384.0,
            tp_colls_per_layer: 4.0,
            kv_ag_bytes_per_token: 2.0 * 2.0 * 1024.0,
            boundary_bytes_per_token: 2.0 * 16384.0,
            act_bytes_per_token: 2.0 * 16384.0 * 17.0,
            act_release: 0.5,
            param_bytes: 2.0,
            grad_bytes: 4.0,
            optim_bytes: 12.0,
        }
    }

    fn mesh(tp: f64, cp: f64, pp: f64) -> RelaxedMesh<f64> {
        let c = consts();
        let dp = c.ngpu / (tp * cp * pp);
        let gbs = 2048.0;
        RelaxedMesh {
            tp,
            cp,
            pp,
            dp,
            nmb: gbs / dp,
        }
    }

    fn knobs() -> VariantKnobs<f64> {
        VariantKnobs {
            recompute: 0.0,
            grad_sharded: 0.0,
            param_sharded: 0.0,
            afab: false,
            nc_mult: 1.0,
        }
    }

    #[test]
    fn deeper_pipelines_shrink_memory_but_add_bubble() {
        let c = consts();
        let shallow = surrogate_step(&c, &mesh(8.0, 1.0, 4.0), &knobs());
        let deep = surrogate_step(&c, &mesh(8.0, 1.0, 16.0), &knobs());
        assert!(deep.mem_bytes < shallow.mem_bytes);
        // Fewer layers per rank but proportionally fewer micro-batches
        // per pipeline flush: bubble grows.
        let b_shallow = bubble_ratio(4.0, mesh(8.0, 1.0, 4.0).nmb, 126.0 / 4.0);
        let b_deep = bubble_ratio(16.0, mesh(8.0, 1.0, 16.0).nmb, 126.0 / 16.0);
        assert!(b_deep > b_shallow);
    }

    #[test]
    fn recompute_trades_memory_for_time() {
        let c = consts();
        let mut rc = knobs();
        rc.recompute = 1.0;
        let plain = surrogate_step(&c, &mesh(8.0, 1.0, 16.0), &knobs());
        let recomputed = surrogate_step(&c, &mesh(8.0, 1.0, 16.0), &rc);
        assert!(recomputed.mem_bytes < plain.mem_bytes);
        assert!(recomputed.time_s > plain.time_s);
    }

    #[test]
    fn zero3_shards_state_but_pays_all_gathers() {
        let c = consts();
        let mut z3 = knobs();
        z3.grad_sharded = 1.0;
        z3.param_sharded = 1.0;
        let z1 = surrogate_step(&c, &mesh(8.0, 1.0, 16.0), &knobs());
        let z3p = surrogate_step(&c, &mesh(8.0, 1.0, 16.0), &z3);
        assert!(z3p.mem_bytes <= z1.mem_bytes);
        assert!(z3p.time_s > z1.time_s);
    }

    #[test]
    fn afab_holds_every_microbatch_in_flight() {
        let c = consts();
        let mut afab = knobs();
        afab.afab = true;
        // Plenty of micro-batches so the flexible warm-up cap binds.
        let mut m = mesh(8.0, 1.0, 16.0);
        m.nmb = 64.0;
        let flex = surrogate_step(&c, &m, &knobs());
        let all = surrogate_step(&c, &m, &afab);
        assert!(all.mem_bytes > flex.mem_bytes);
    }

    #[test]
    fn all_gather_gates_off_for_singleton_groups() {
        let c = consts();
        assert_eq!(all_gather_time_s(&c, 1.0, 1.0, 1e6), 0.0);
        assert!(all_gather_time_s(&c, 8.0, 8.0, 1e6) > 0.0);
        // Crossing nodes costs more than staying inside one.
        let intra = all_gather_time_s(&c, 8.0, 8.0, 1e6);
        let inter = all_gather_time_s(&c, 8.0, 1.0, 1e6);
        assert!(inter > intra);
    }

    #[test]
    fn objective_barrier_activates_near_capacity() {
        let cap = 80.0 * (1u64 << 30) as f64;
        let lean = SurrogatePrice {
            time_s: 1.0,
            mem_bytes: 0.5 * cap,
        };
        let oom = SurrogatePrice {
            time_s: 1.0,
            mem_bytes: 1.2 * cap,
        };
        let d = guided_objective(&oom, 0.0, cap) - guided_objective(&lean, 0.0, cap);
        assert!(d > 1.0, "barrier too weak: {d}");
    }
}
