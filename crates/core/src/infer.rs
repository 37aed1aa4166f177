//! Inference workload: prefill/decode phase split, paged KV-cache
//! accounting, and continuous batching over seeded serving traffic.
//!
//! Training and inference price the *same* transformer on the same
//! roofline GPU model; what changes is the workload shape:
//!
//! - **Prefill** is a compute-bound full-sequence forward pass — the
//!   training forward with causal attention, minus the backward pass,
//!   plus only one token of output-head work (only the last position's
//!   logits are needed).
//! - **Decode** is a memory-bandwidth-bound single-token step: every
//!   iteration re-reads the resident weights and the KV cache of every
//!   resident sequence, so its cost is affine in (batch, resident KV
//!   tokens) and almost never compute-limited.
//!
//! The KV cache is paged in fixed-size blocks of [`InferSpec::block_tokens`]
//! tokens. A request reserves `ceil((prompt + output) / block)` blocks at
//! admission and frees all of them on completion, so no request can run
//! out of cache mid-flight and "no block leaked" is checkable as
//! `free == capacity` once the replica drains (conformance oracle 10).
//!
//! Continuous batching follows the iteration-level policy of
//! vLLM-class servers, simplified to be exactly reproducible by an
//! independent rewalk: admission is FIFO with head-of-line blocking,
//! prefill has priority over decode, admitted prompts prefill serially,
//! and one decode iteration advances every resident sequence by one
//! token. Replicas are independent (requests are routed round-robin by
//! arrival index), so the simulation parallelizes over replicas and is
//! bit-identical for any thread count.

use cluster_model::gpu::{Dtype, GpuSpec, KernelCost};
use cluster_model::topology::TopologySpec;
use collectives::{CommCostModel, ProcessGroup};
use llm_model::{flops, memory, TransformerConfig};
use sim_engine::time::SimDuration;
use workload::traffic::Request;

use crate::mesh::Mesh4D;
use crate::planner::hbm_budget;
use crate::tp::{TpPlan, COLLECTIVES_PER_LAYER};

use std::collections::VecDeque;

/// A tensor/pipeline-parallel serving mesh: `tp × pp` GPUs per model
/// replica, `replicas` independent replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InferPlan {
    /// Tensor-parallel degree within a replica (NVLink domain).
    pub tp: u32,
    /// Pipeline stages within a replica.
    pub pp: u32,
    /// Independent model replicas served behind round-robin routing.
    pub replicas: u32,
}

impl InferPlan {
    /// Creates a plan.
    ///
    /// # Panics
    /// Panics if any degree is zero.
    pub fn new(tp: u32, pp: u32, replicas: u32) -> InferPlan {
        assert!(
            tp > 0 && pp > 0 && replicas > 0,
            "plan degrees must be positive"
        );
        InferPlan { tp, pp, replicas }
    }

    /// Total GPUs across all replicas.
    pub fn gpus(&self) -> u32 {
        self.tp * self.pp * self.replicas
    }

    /// The equivalent 4D mesh: TP innermost, no CP, replicas on the DP
    /// axis — inference reuses the training group machinery unchanged.
    pub fn mesh(&self) -> Mesh4D {
        Mesh4D::new(self.tp, 1, self.pp, self.replicas)
    }

    /// Picks the smallest `tp × pp` (TP first, capped at the NVLink
    /// domain) whose per-GPU weight shard leaves at least 10% of the
    /// HBM budget free for KV cache, then fills `ngpu` with replicas.
    pub fn auto(
        cfg: &TransformerConfig,
        gpu: &GpuSpec,
        ngpu: u32,
        gpus_per_node: u32,
    ) -> Option<InferPlan> {
        let budget = hbm_budget(gpu.hbm_capacity);
        let mut tp_cap = 1u32;
        while tp_cap * 2 <= gpus_per_node.max(1) {
            tp_cap *= 2;
        }
        for shards in (0..=20u32).map(|e| 1u32 << e) {
            if shards > ngpu {
                break;
            }
            let tp = shards.min(tp_cap);
            let pp = shards / tp;
            let worst = (0..pp)
                .map(|s| stage_weight_bytes(cfg, tp, pp, s))
                .max()
                .unwrap_or(u64::MAX);
            if worst + budget / 10 <= budget {
                return Some(InferPlan::new(tp, pp, ngpu / shards));
            }
        }
        None
    }
}

/// Transformer layers assigned to pipeline stage `s` (early stages take
/// the remainder).
pub fn stage_layers(cfg: &TransformerConfig, pp: u32, s: u32) -> u64 {
    let base = cfg.num_layers / pp as u64;
    base + u64::from((s as u64) < cfg.num_layers % pp as u64)
}

/// BF16 weight bytes resident on one GPU of stage `s` under `tp × pp`.
pub fn stage_weight_bytes(cfg: &TransformerConfig, tp: u32, pp: u32, s: u32) -> u64 {
    let mut params = stage_layers(cfg, pp, s) * cfg.layer_params();
    if s == 0 {
        params += cfg.embedding_params();
    }
    if s == pp - 1 {
        params += cfg.output_head_params();
    }
    (params * 2).div_ceil(tp as u64)
}

/// Full inference-scenario specification: model, hardware, mesh, KV
/// paging and SLO targets.
#[derive(Debug, Clone, PartialEq)]
pub struct InferSpec {
    /// Transformer shape being served.
    pub model: TransformerConfig,
    /// GPU model.
    pub gpu: GpuSpec,
    /// GPUs per node (the NVLink/TP domain).
    pub gpus_per_node: u32,
    /// Serving mesh.
    pub plan: InferPlan,
    /// KV-block granularity in tokens.
    pub block_tokens: u64,
    /// Max resident sequences per replica per decode iteration.
    pub max_batch: usize,
    /// Time-to-first-token SLO.
    pub slo_ttft: SimDuration,
    /// Time-per-output-token SLO.
    pub slo_tpot: SimDuration,
    /// Simulation threads across replicas (`0` = available
    /// parallelism). Never affects results.
    pub threads: usize,
}

impl InferSpec {
    /// A spec with production-flavoured defaults: 16-token KV blocks,
    /// 256-sequence batches, 2 s TTFT / 100 ms TPOT SLOs.
    pub fn new(
        model: TransformerConfig,
        gpu: GpuSpec,
        gpus_per_node: u32,
        plan: InferPlan,
    ) -> InferSpec {
        InferSpec {
            model,
            gpu,
            gpus_per_node,
            plan,
            block_tokens: 16,
            max_batch: 256,
            slo_ttft: SimDuration::from_millis(2_000),
            slo_tpot: SimDuration::from_millis(100),
            threads: 0,
        }
    }

    /// Sets the KV-block size in tokens.
    pub fn block_tokens(mut self, block_tokens: u64) -> InferSpec {
        self.block_tokens = block_tokens;
        self
    }

    /// Sets the per-replica batch cap.
    pub fn max_batch(mut self, max_batch: usize) -> InferSpec {
        self.max_batch = max_batch;
        self
    }

    /// Sets the simulation thread count (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> InferSpec {
        self.threads = threads;
        self
    }

    /// Sets the SLO targets.
    pub fn slo(mut self, ttft: SimDuration, tpot: SimDuration) -> InferSpec {
        self.slo_ttft = ttft;
        self.slo_tpot = tpot;
        self
    }
}

/// Affine time model `α + β · bytes` fitted to two anchor evaluations
/// of the exact collective cost — keeps the per-iteration hot loop free
/// of cost-model lookups while matching it to first order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AffineComm {
    alpha_ns: f64,
    beta_ns_per_byte: f64,
}

impl AffineComm {
    const SMALL: u64 = 4 << 10;
    const BIG: u64 = 4 << 20;

    fn fit(f: impl Fn(u64) -> SimDuration) -> AffineComm {
        let small = f(AffineComm::SMALL).as_nanos() as f64;
        let big = f(AffineComm::BIG).as_nanos() as f64;
        let beta = (big - small) / (AffineComm::BIG - AffineComm::SMALL) as f64;
        AffineComm {
            alpha_ns: (small - beta * AffineComm::SMALL as f64).max(0.0),
            beta_ns_per_byte: beta.max(0.0),
        }
    }

    const NONE: AffineComm = AffineComm {
        alpha_ns: 0.0,
        beta_ns_per_byte: 0.0,
    };

    fn at(&self, bytes: f64) -> f64 {
        self.alpha_ns + self.beta_ns_per_byte * bytes
    }
}

/// Per-stage decode coefficients, all per-GPU (TP-sharded).
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageDecode {
    /// Weight bytes re-read every iteration.
    weight_bytes: f64,
    /// GEMV flops per resident sequence (2 × stage matmul params / tp).
    flops_per_seq: f64,
    /// Attention flops per resident KV token.
    flops_per_kv_token: f64,
    /// KV bytes read per resident KV token.
    bytes_per_kv_token: f64,
    /// Kernel launches per iteration (one fused launch per layer —
    /// CUDA-graph-style capture; per-kernel launches would dominate).
    launches: u32,
    /// TP collectives per iteration.
    collectives: f64,
}

/// Pre-computed pricing for one replica of an [`InferSpec`]: closed-form
/// prefill latency per prompt and an O(pp) decode-iteration cost, both
/// derived from the training engine's kernel and collective models.
#[derive(Debug, Clone, PartialEq)]
pub struct InferCosts {
    model: TransformerConfig,
    gpu: GpuSpec,
    tp: TpPlan,
    pp: u32,
    block_tokens: u64,
    layers: Vec<u64>,
    weights: Vec<u64>,
    /// KV bytes one block occupies on one GPU of each stage.
    block_bytes: Vec<u64>,
    capacity: u64,
    decode: Vec<StageDecode>,
    ag: AffineComm,
    p2p: AffineComm,
}

impl InferCosts {
    /// Builds the cost table, or explains why the plan cannot serve the
    /// model (weights alone overflow the HBM budget, or no KV block
    /// fits on the tightest stage).
    pub fn new(spec: &InferSpec) -> Result<InferCosts, String> {
        let cfg = &spec.model;
        let plan = spec.plan;
        let tp = TpPlan::new(plan.tp, true);
        let budget = hbm_budget(spec.gpu.hbm_capacity);
        let kv_layer = memory::kv_cache_bytes_per_token_per_layer(cfg);

        let layers: Vec<u64> = (0..plan.pp)
            .map(|s| stage_layers(cfg, plan.pp, s))
            .collect();
        let weights: Vec<u64> = (0..plan.pp)
            .map(|s| stage_weight_bytes(cfg, plan.tp, plan.pp, s))
            .collect();
        let block_bytes: Vec<u64> = layers
            .iter()
            .map(|&l| (spec.block_tokens * kv_layer * l).div_ceil(plan.tp as u64))
            .collect();

        // Logical KV blocks span every layer; capacity is set by the
        // stage with the least HBM left after its weight shard.
        let mut capacity = u64::MAX;
        for s in 0..plan.pp as usize {
            if weights[s] > budget {
                return Err(format!(
                    "stage {s} weights need {:.1} GiB of the {:.1} GiB HBM budget",
                    weights[s] as f64 / (1u64 << 30) as f64,
                    budget as f64 / (1u64 << 30) as f64,
                ));
            }
            capacity = capacity.min((budget - weights[s]) / block_bytes[s].max(1));
        }
        if capacity == 0 {
            return Err("weights fit but no KV block does; raise pp/tp or shrink blocks".into());
        }

        // Collective cost anchors on the production topology.
        let nodes = plan.gpus().div_ceil(spec.gpus_per_node.max(1)).max(1);
        let comm = CommCostModel::new(TopologySpec::llama3_production(nodes));
        let tp_group = ProcessGroup::contiguous(0, plan.tp);
        let ag = if plan.tp > 1 {
            AffineComm::fit(|b| comm.all_gather(&tp_group, b))
        } else {
            AffineComm::NONE
        };
        let p2p = if plan.pp > 1 {
            let boundary = ProcessGroup::contiguous(0, plan.tp * 2);
            let src = boundary.ranks()[0];
            let dst = boundary.ranks()[plan.tp as usize];
            AffineComm::fit(|b| comm.p2p(src, dst, b))
        } else {
            AffineComm::NONE
        };

        let decode = (0..plan.pp as usize)
            .map(|s| {
                // The stage-0 embedding lookup is a gather — bytes, not
                // flops — and its bytes are inside `weight_bytes`.
                let mut matmul_params = layers[s] * (cfg.attention_params() + cfg.ffn_params());
                if s == plan.pp as usize - 1 {
                    matmul_params += cfg.output_head_params();
                }
                StageDecode {
                    weight_bytes: weights[s] as f64,
                    flops_per_seq: 2.0 * matmul_params as f64 / plan.tp as f64,
                    flops_per_kv_token: flops::FLOPS_PER_PAIR_PER_HEADDIM
                        * cfg.head_dim as f64
                        * cfg.num_heads as f64
                        * layers[s] as f64
                        / plan.tp as f64,
                    bytes_per_kv_token: (kv_layer * layers[s]) as f64 / plan.tp as f64,
                    launches: layers[s] as u32 + 1,
                    collectives: COLLECTIVES_PER_LAYER as f64 * layers[s] as f64,
                }
            })
            .collect();

        Ok(InferCosts {
            model: cfg.clone(),
            gpu: spec.gpu.clone(),
            tp,
            pp: plan.pp,
            block_tokens: spec.block_tokens,
            layers,
            weights,
            block_bytes,
            capacity,
            decode,
            ag,
            p2p,
        })
    }

    /// Total KV blocks one replica can hold.
    pub fn block_capacity(&self) -> u64 {
        self.capacity
    }

    /// Blocks a request reserves for its whole lifetime.
    pub fn blocks_needed(&self, r: &Request) -> u64 {
        (r.prompt_tokens + r.output_tokens).div_ceil(self.block_tokens)
    }

    /// Peak per-GPU HBM use when `peak_blocks` blocks were resident:
    /// the worst stage's weights plus its share of the blocks.
    pub fn peak_hbm_bytes(&self, peak_blocks: u64) -> u64 {
        (0..self.pp as usize)
            .map(|s| self.weights[s] + peak_blocks * self.block_bytes[s])
            .max()
            .unwrap_or(0)
    }

    /// End-to-end latency of one prompt's prefill across the pipeline:
    /// compute-bound causal forward over `prompt` tokens, one token of
    /// output-head work, exposed TP collectives, and `pp − 1` boundary
    /// hand-offs.
    pub fn prefill_time(&self, prompt: u64) -> SimDuration {
        let cfg = &self.model;
        let pairs = prompt as u128 * (prompt as u128 + 1) / 2;
        let lin = flops::attention_projections_fwd(cfg, prompt)
            .merge(flops::ffn_fwd(cfg, prompt))
            .merge(flops::norms_fwd(cfg, prompt));
        let attn = flops::attention_kernel_fwd(cfg, prompt, prompt, pairs);
        let layer = self.gpu.gemm_time(self.tp.shard_cost(lin), Dtype::Bf16)
            + self
                .gpu
                .attention_time(self.tp.shard_cost(attn), Dtype::Bf16);
        let shard_bytes = self.tp.collective_bytes_per_rank(cfg, prompt) as f64;
        let layer_comm_ns = COLLECTIVES_PER_LAYER as f64 * self.ag.at(shard_bytes);

        let mut total = SimDuration::ZERO;
        for (s, &l) in self.layers.iter().enumerate() {
            total = total + layer * l + SimDuration::from_secs_f64(layer_comm_ns * l as f64 * 1e-9);
            if s == 0 {
                total += self.gpu.gemm_time(
                    self.tp.shard_cost(flops::embedding_fwd(cfg, prompt)),
                    Dtype::Bf16,
                );
            }
            if s == self.pp as usize - 1 {
                total += self.gpu.gemm_time(
                    self.tp.shard_cost(flops::output_head_fwd(cfg, 1)),
                    Dtype::Bf16,
                );
            }
        }
        let boundary = (prompt * memory::boundary_activation_bytes_per_token(cfg)) as f64;
        total + SimDuration::from_secs_f64((self.pp - 1) as f64 * self.p2p.at(boundary) * 1e-9)
    }

    /// Time for one decode iteration advancing `batch` resident
    /// sequences whose contexts total `kv_tokens` tokens. Each stage is
    /// the roofline max of GEMV compute and (weights + KV) bandwidth;
    /// stages execute serially (no decode micro-batching), plus TP
    /// collectives and `pp − 1` single-token hand-offs.
    ///
    /// This is the reference price. [`simulate_replica`] pays it as
    /// [`decode_batch_time`](Self::decode_batch_time) once per decode
    /// run plus [`decode_roofline_time`](Self::decode_roofline_time)
    /// per iteration; every term is rounded to whole nanoseconds on its
    /// own, so the two sums are equal exactly.
    pub fn decode_iter_time(&self, batch: u64, kv_tokens: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let hidden_shard = (batch * 2 * self.model.hidden_dim).div_ceil(self.tp.tp as u64) as f64;
        for d in &self.decode {
            let cost = KernelCost {
                flops: d.flops_per_seq * batch as f64 + d.flops_per_kv_token * kv_tokens as f64,
                bytes: d.weight_bytes + d.bytes_per_kv_token * kv_tokens as f64,
                launches: d.launches,
            };
            let comm_ns = if self.tp.tp > 1 {
                d.collectives * self.ag.at(hidden_shard)
            } else {
                0.0
            };
            total = total
                + self.gpu.gemm_time(cost, Dtype::Bf16)
                + SimDuration::from_secs_f64(comm_ns * 1e-9);
        }
        let boundary = (batch * memory::boundary_activation_bytes_per_token(&self.model)) as f64;
        total + SimDuration::from_secs_f64((self.pp - 1) as f64 * self.p2p.at(boundary) * 1e-9)
    }

    /// The terms of [`decode_iter_time`](Self::decode_iter_time) that
    /// depend on `batch` alone: every stage's kernel launches and TP
    /// collectives, and the `pp − 1` hand-offs.
    fn decode_batch_time(&self, batch: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let hidden_shard = (batch * 2 * self.model.hidden_dim).div_ceil(self.tp.tp as u64) as f64;
        for d in &self.decode {
            let comm_ns = if self.tp.tp > 1 {
                d.collectives * self.ag.at(hidden_shard)
            } else {
                0.0
            };
            total = total
                + self.gpu.kernel_launch_overhead * u64::from(d.launches)
                + SimDuration::from_secs_f64(comm_ns * 1e-9);
        }
        let boundary = (batch * memory::boundary_activation_bytes_per_token(&self.model)) as f64;
        total + SimDuration::from_secs_f64((self.pp - 1) as f64 * self.p2p.at(boundary) * 1e-9)
    }

    /// The rest of [`decode_iter_time`](Self::decode_iter_time): each
    /// stage's launch-free roofline over its GEMV flops and its weight
    /// and KV bytes.
    fn decode_roofline_time(&self, batch: u64, kv_tokens: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for d in &self.decode {
            let cost = KernelCost {
                flops: d.flops_per_seq * batch as f64 + d.flops_per_kv_token * kv_tokens as f64,
                bytes: d.weight_bytes + d.bytes_per_kv_token * kv_tokens as f64,
                launches: 0,
            };
            total += self.gpu.gemm_time(cost, Dtype::Bf16);
        }
        total
    }
}

/// Per-request timing produced by the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestOutcome {
    /// Arrival index from the trace.
    pub id: u64,
    /// Arrival instant (ns).
    pub arrival_ns: u64,
    /// Prompt length (tokens).
    pub prompt_tokens: u64,
    /// Tokens generated (equals the request's `output_tokens`).
    pub output_tokens: u64,
    /// Simulated time the prefill pass finished — the first output token.
    pub first_token_ns: u64,
    /// Simulated time the last output token was generated.
    pub finish_ns: u64,
}

impl RequestOutcome {
    /// Time to first token.
    pub fn ttft(&self) -> SimDuration {
        SimDuration::from_nanos(self.first_token_ns - self.arrival_ns)
    }

    /// Mean time per output token after the first (`None` for
    /// single-token outputs).
    pub fn tpot(&self) -> Option<SimDuration> {
        (self.output_tokens > 1).then(|| {
            SimDuration::from_nanos(
                (self.finish_ns - self.first_token_ns) / (self.output_tokens - 1),
            )
        })
    }
}

/// One replica's simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaResult {
    /// Completed requests in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests whose lifetime KV need exceeds the whole cache — never
    /// admissible, dropped at the head of the queue.
    pub dropped: u64,
    /// High-water mark of resident KV blocks.
    pub peak_blocks: u64,
    /// Free blocks after draining (equals capacity iff nothing leaked).
    pub free_blocks_end: u64,
    /// Decode iterations executed.
    pub decode_iters: u64,
    /// Time the replica spent computing (prefill + decode).
    pub busy: SimDuration,
}

/// One resident sequence inside the continuous-batching loop.
struct Active {
    idx: usize,
    context: u64,
    remaining: u64,
    blocks: u64,
}

/// Runs one replica's continuous-batching loop over its time-ordered
/// request slice. Deterministic and single-threaded; the policy is
/// deliberately simple enough for conformance to re-walk naively.
///
/// Decode iterations run in bulk: from a decode step up to the first
/// completion (or, with an empty queue, up to the iteration after which
/// the next arrival is visible) admission cannot change, so the walk
/// prices those iterations in a tight loop and settles each sequence's
/// context once. Every iteration still pays exactly
/// [`InferCosts::decode_iter_time`], so the result is bit-identical to
/// stepping one iteration at a time.
pub fn simulate_replica(
    costs: &InferCosts,
    max_batch: usize,
    requests: &[Request],
) -> ReplicaResult {
    let max_batch = max_batch.max(1);
    let capacity = costs.block_capacity();
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut active: Vec<Active> = Vec::new();
    let mut first_token = vec![0u64; requests.len()];
    let mut now = 0u64;
    let mut next = 0usize;
    let mut free = capacity;
    let mut kv_tokens = 0u64;
    let mut dropped = 0u64;
    let mut peak_blocks = 0u64;
    let mut decode_iters = 0u64;
    let mut busy = SimDuration::ZERO;

    while next < requests.len() || !waiting.is_empty() || !active.is_empty() {
        while next < requests.len() && requests[next].arrival_ns <= now {
            waiting.push_back(next);
            next += 1;
        }

        // Admission: FIFO with head-of-line blocking, whole-lifetime
        // block reservation.
        let mut admitted: Vec<usize> = Vec::new();
        while let Some(&i) = waiting.front() {
            if active.len() + admitted.len() >= max_batch {
                break;
            }
            let need = costs.blocks_needed(&requests[i]);
            if need > free {
                break;
            }
            free -= need;
            waiting.pop_front();
            admitted.push(i);
        }
        peak_blocks = peak_blocks.max(capacity - free);

        if !admitted.is_empty() {
            // Prefill iteration: admitted prompts run serially and all
            // emit their first token when the batch completes.
            let mut t = SimDuration::ZERO;
            for &i in &admitted {
                t += costs.prefill_time(requests[i].prompt_tokens);
            }
            now += t.as_nanos();
            busy += t;
            for &i in &admitted {
                let r = &requests[i];
                first_token[i] = now;
                if r.output_tokens == 1 {
                    free += costs.blocks_needed(r);
                    outcomes.push(RequestOutcome {
                        id: r.id,
                        arrival_ns: r.arrival_ns,
                        prompt_tokens: r.prompt_tokens,
                        output_tokens: r.output_tokens,
                        first_token_ns: now,
                        finish_ns: now,
                    });
                } else {
                    kv_tokens += r.prompt_tokens + 1;
                    active.push(Active {
                        idx: i,
                        context: r.prompt_tokens + 1,
                        remaining: r.output_tokens - 1,
                        blocks: costs.blocks_needed(r),
                    });
                }
            }
            continue;
        }

        // A decode run: nothing is admitted until the first resident
        // sequence finishes (after `run` iterations) or, with an empty
        // queue, until the next arrival is visible, so the batch stays
        // fixed and only the resident KV grows. Each iteration keeps
        // its own price.
        if let Some(run) = active.iter().map(|a| a.remaining).min() {
            let batch = active.len() as u64;
            let arrival = if waiting.is_empty() {
                requests.get(next).map_or(u64::MAX, |r| r.arrival_ns)
            } else {
                u64::MAX
            };
            let fixed = costs.decode_batch_time(batch);
            let start = now;
            let mut k = 0;
            while k < run && now < arrival {
                let t = fixed + costs.decode_roofline_time(batch, kv_tokens);
                debug_assert_eq!(t, costs.decode_iter_time(batch, kv_tokens));
                now += t.as_nanos();
                kv_tokens += batch;
                k += 1;
            }
            busy += SimDuration::from_nanos(now - start);
            decode_iters += k;
            active.retain_mut(|a| {
                a.remaining -= k;
                a.context += k;
                if a.remaining > 0 {
                    return true;
                }
                let r = &requests[a.idx];
                kv_tokens -= a.context;
                free += a.blocks;
                outcomes.push(RequestOutcome {
                    id: r.id,
                    arrival_ns: r.arrival_ns,
                    prompt_tokens: r.prompt_tokens,
                    output_tokens: r.output_tokens,
                    first_token_ns: first_token[a.idx],
                    finish_ns: now,
                });
                false
            });
            continue;
        }

        if let Some(&i) = waiting.front() {
            // Nothing resident, nothing admitted: the head request can
            // never fit — drop it rather than deadlock the queue.
            debug_assert!(costs.blocks_needed(&requests[i]) > capacity);
            waiting.pop_front();
            dropped += 1;
            continue;
        }

        // Idle: jump to the next arrival.
        now = now.max(requests[next].arrival_ns);
    }

    ReplicaResult {
        outcomes,
        dropped,
        peak_blocks,
        free_blocks_end: free,
        decode_iters,
        busy,
    }
}

/// Fleet-level serving metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReport {
    /// Requests offered by the trace.
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped as never-admissible.
    pub dropped: u64,
    /// Prompt tokens prefilled across completed requests.
    pub prompt_tokens: u64,
    /// Output tokens generated across completed requests.
    pub generated_tokens: u64,
    /// Output tokens per second over the makespan, fleet-wide.
    pub tokens_per_s: f64,
    /// TTFT percentiles (p50, p95, p99).
    pub ttft: [SimDuration; 3],
    /// TPOT percentiles (p50, p95, p99) over multi-token outputs.
    pub tpot: [SimDuration; 3],
    /// Fraction of completed requests meeting both SLOs.
    pub slo_attainment: f64,
    /// Output tokens per second counting only SLO-met requests — the
    /// serving analogue of training goodput.
    pub goodput_tokens_per_s: f64,
    /// Peak per-GPU HBM across the fleet (weights + resident KV).
    pub peak_hbm_bytes: u64,
    /// KV blocks one replica can hold.
    pub block_capacity: u64,
    /// High-water mark of resident KV blocks on the busiest replica.
    pub peak_blocks: u64,
    /// Blocks still reserved after draining, summed over replicas
    /// (must be zero; asserted by conformance oracle 10).
    pub leaked_blocks: u64,
    /// Decode iterations executed, summed over replicas.
    pub decode_iters: u64,
    /// Last completion instant across the fleet.
    pub makespan: SimDuration,
}

/// Index into a sorted sample vector for percentile `p` (nearest-rank).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The unified inference workload: a spec plus its pre-computed cost
/// table. This is the entry point the query/serve/search layers use.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceModel {
    /// The scenario being simulated.
    pub spec: InferSpec,
    /// Pricing derived from the spec.
    pub costs: InferCosts,
}

impl InferenceModel {
    /// Builds the model, or explains why the plan cannot serve it.
    pub fn new(spec: InferSpec) -> Result<InferenceModel, String> {
        let costs = InferCosts::new(&spec)?;
        Ok(InferenceModel { spec, costs })
    }

    /// Routes `requests` round-robin across replicas (by arrival
    /// index), simulates every replica to drain, and folds the results
    /// in replica order — bit-identical for any thread count.
    pub fn simulate(&self, requests: &[Request]) -> InferReport {
        let replicas = self.spec.plan.replicas as usize;
        let mut shards: Vec<Vec<Request>> = vec![Vec::new(); replicas];
        for r in requests {
            shards[(r.id % replicas as u64) as usize].push(*r);
        }

        let threads = if self.spec.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.spec.threads
        }
        .clamp(1, replicas);
        let (costs, max_batch) = (&self.costs, self.spec.max_batch);
        let walk = |chunk: &[Vec<Request>]| {
            chunk
                .iter()
                .map(|reqs| simulate_replica(costs, max_batch, reqs))
                .collect::<Vec<_>>()
        };
        // The caller's thread walks the first chunk, so one thread
        // spawns nothing.
        let chunk_len = replicas.div_ceil(threads);
        let (head, rest) = shards.split_at(chunk_len);
        let results: Vec<ReplicaResult> = std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .chunks(chunk_len)
                .map(|chunk| s.spawn(move || walk(chunk)))
                .collect();
            let mut results = walk(head);
            for h in handles {
                // lint: allow(unwrap) — a panicking replica worker is a simulator bug
                results.extend(h.join().expect("replica thread"));
            }
            results
        });

        self.fold(requests.len() as u64, &results)
    }

    /// Assembles the fleet report from per-replica results.
    pub fn fold(&self, offered: u64, results: &[ReplicaResult]) -> InferReport {
        let mut ttft: Vec<u64> = Vec::new();
        let mut tpot: Vec<u64> = Vec::new();
        let mut prompt_tokens = 0u64;
        let mut generated = 0u64;
        let mut completed = 0u64;
        let mut dropped = 0u64;
        let mut slo_met = 0u64;
        let mut slo_tokens = 0u64;
        let mut peak_blocks = 0u64;
        let mut leaked = 0u64;
        let mut decode_iters = 0u64;
        let mut makespan_ns = 0u64;
        for r in results {
            dropped += r.dropped;
            peak_blocks = peak_blocks.max(r.peak_blocks);
            leaked += self.costs.block_capacity() - r.free_blocks_end;
            decode_iters += r.decode_iters;
            for o in &r.outcomes {
                completed += 1;
                prompt_tokens += o.prompt_tokens;
                generated += o.output_tokens;
                makespan_ns = makespan_ns.max(o.finish_ns);
                let t = o.ttft();
                ttft.push(t.as_nanos());
                let mut met = t <= self.spec.slo_ttft;
                if let Some(p) = o.tpot() {
                    tpot.push(p.as_nanos());
                    met = met && p <= self.spec.slo_tpot;
                }
                if met {
                    slo_met += 1;
                    slo_tokens += o.output_tokens;
                }
            }
        }
        ttft.sort_unstable();
        tpot.sort_unstable();
        let makespan_s = (makespan_ns as f64 / 1e9).max(1e-9);
        let pct = |v: &[u64]| {
            [
                SimDuration::from_nanos(percentile(v, 0.50)),
                SimDuration::from_nanos(percentile(v, 0.95)),
                SimDuration::from_nanos(percentile(v, 0.99)),
            ]
        };
        InferReport {
            requests: offered,
            completed,
            dropped,
            prompt_tokens,
            generated_tokens: generated,
            tokens_per_s: generated as f64 / makespan_s,
            ttft: pct(&ttft),
            tpot: pct(&tpot),
            slo_attainment: if completed > 0 {
                slo_met as f64 / completed as f64
            } else {
                0.0
            },
            goodput_tokens_per_s: slo_tokens as f64 / makespan_s,
            peak_hbm_bytes: self.costs.peak_hbm_bytes(peak_blocks),
            block_capacity: self.costs.block_capacity(),
            peak_blocks,
            leaked_blocks: leaked,
            decode_iters,
            makespan: SimDuration::from_nanos(makespan_ns),
        }
    }
}

impl InferReport {
    /// Multi-line human rendering used by the CLI and the serve wire.
    pub fn render_human(&self) -> String {
        let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
        let mut s = String::new();
        s.push_str(&format!(
            "requests {} completed {} dropped {}\n",
            self.requests, self.completed, self.dropped
        ));
        s.push_str(&format!(
            "tokens prefill {} generate {}  throughput {:.0} tok/s\n",
            self.prompt_tokens, self.generated_tokens, self.tokens_per_s
        ));
        s.push_str(&format!(
            "ttft p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms\n",
            self.ttft[0].as_millis_f64(),
            self.ttft[1].as_millis_f64(),
            self.ttft[2].as_millis_f64()
        ));
        s.push_str(&format!(
            "tpot p50 {:.1} ms  p95 {:.1} ms  p99 {:.1} ms\n",
            self.tpot[0].as_millis_f64(),
            self.tpot[1].as_millis_f64(),
            self.tpot[2].as_millis_f64()
        ));
        s.push_str(&format!(
            "slo attainment {:.1}%  goodput {:.0} tok/s\n",
            self.slo_attainment * 100.0,
            self.goodput_tokens_per_s
        ));
        s.push_str(&format!(
            "kv blocks {}/{} peak  hbm peak {:.1} GiB  decode iters {}\n",
            self.peak_blocks,
            self.block_capacity,
            gib(self.peak_hbm_bytes),
            self.decode_iters
        ));
        s.push_str(&format!("makespan {:.1} s", self.makespan.as_secs_f64()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::traffic::{TrafficShape, TrafficSpec};

    fn spec_8b(replicas: u32) -> InferSpec {
        InferSpec::new(
            TransformerConfig::llama3_8b(),
            GpuSpec::h100_sxm_hbm3(),
            8,
            InferPlan::new(1, 1, replicas),
        )
    }

    fn small_traffic(n_per_day: u64, seed: u64) -> Vec<Request> {
        TrafficSpec::serving_day(TrafficShape::Steady, n_per_day, seed)
            .horizon_s(1800.0)
            .generate()
    }

    #[test]
    fn auto_plan_fits_every_model() {
        let gpu = GpuSpec::h100_sxm_hbm3();
        let p405 = InferPlan::auto(&TransformerConfig::llama3_405b(), &gpu, 16384, 8).unwrap();
        assert!(
            p405.tp * p405.pp >= 16,
            "405B needs ≥ 16 shards, got {p405:?}"
        );
        let p8 = InferPlan::auto(&TransformerConfig::llama3_8b(), &gpu, 8, 8).unwrap();
        assert_eq!((p8.tp, p8.pp, p8.replicas), (1, 1, 8));
        assert!(InferenceModel::new(InferSpec::new(
            TransformerConfig::llama3_405b(),
            gpu,
            8,
            p405
        ))
        .is_ok());
    }

    #[test]
    fn stage_split_conserves_layers_and_weights() {
        let cfg = TransformerConfig::llama3_405b();
        for pp in [1u32, 2, 4, 16] {
            let total: u64 = (0..pp).map(|s| stage_layers(&cfg, pp, s)).sum();
            assert_eq!(total, cfg.num_layers);
        }
        // pp=1, tp=1 stage holds the whole model.
        assert_eq!(stage_weight_bytes(&cfg, 1, 1, 0), cfg.total_params() * 2);
    }

    #[test]
    fn overflowing_plan_is_rejected_with_reason() {
        let spec = InferSpec::new(
            TransformerConfig::llama3_405b(),
            GpuSpec::h100_sxm_hbm3(),
            8,
            InferPlan::new(1, 1, 1),
        );
        let err = InferCosts::new(&spec).unwrap_err();
        assert!(err.contains("GiB"), "{err}");
    }

    #[test]
    fn prefill_scales_superlinearly_decode_is_bandwidth_bound() {
        let costs = InferCosts::new(&spec_8b(1)).unwrap();
        let p1 = costs.prefill_time(1024);
        let p4 = costs.prefill_time(4096);
        // Causal attention makes 4× tokens cost more than 4×.
        assert!(p4 > p1 * 4, "p1={p1} p4={p4}");

        // Decode floor: re-reading 8B BF16 weights at HBM speed.
        let d = costs.decode_iter_time(1, 1024);
        let weight_read = TransformerConfig::llama3_8b().total_params() as f64 * 2.0 / 3.35e12;
        assert!(d.as_secs_f64() > weight_read);
        assert!(d.as_secs_f64() < weight_read * 3.0);
        // KV growth raises decode cost.
        assert!(costs.decode_iter_time(64, 2_000_000) > costs.decode_iter_time(64, 10_000));
    }

    #[test]
    fn replica_conserves_tokens_and_blocks() {
        let spec = spec_8b(1);
        let costs = InferCosts::new(&spec).unwrap();
        let reqs = small_traffic(40_000, 7);
        let res = simulate_replica(&costs, spec.max_batch, &reqs);
        assert_eq!(res.dropped, 0);
        assert_eq!(res.outcomes.len(), reqs.len());
        assert_eq!(res.free_blocks_end, costs.block_capacity());
        let generated: u64 = res.outcomes.iter().map(|o| o.output_tokens).sum();
        assert_eq!(generated, reqs.iter().map(|r| r.output_tokens).sum::<u64>());
        for o in &res.outcomes {
            assert!(o.first_token_ns > o.arrival_ns);
            assert!(o.finish_ns >= o.first_token_ns);
        }
    }

    #[test]
    fn hoisted_decode_price_equals_the_reference() {
        // The replica walk pays `decode_batch_time` once per run and
        // `decode_roofline_time` per iteration; in release builds no
        // assertion compares them with `decode_iter_time`, this does.
        let gpu = GpuSpec::h100_sxm_hbm3();
        let plans = [
            (TransformerConfig::llama3_405b(), 16_384),
            (TransformerConfig::llama3_8b(), 64),
        ];
        for (cfg, ngpu) in plans {
            let plan = InferPlan::auto(&cfg, &gpu, ngpu, 8).unwrap();
            let costs = InferCosts::new(&InferSpec::new(cfg, gpu.clone(), 8, plan)).unwrap();
            for batch in [1u64, 2, 3, 7, 31, 64, 129, 255, 256] {
                let fixed = costs.decode_batch_time(batch);
                for kv in [0u64, 1, 17, 4_096, 65_537, 1_000_003, 33_554_432] {
                    assert_eq!(
                        fixed + costs.decode_roofline_time(batch, kv),
                        costs.decode_iter_time(batch, kv),
                        "{plan:?} batch {batch} kv {kv}"
                    );
                }
            }
        }
    }

    #[test]
    fn never_admissible_request_is_dropped_not_deadlocked() {
        let spec = spec_8b(1).block_tokens(16);
        let costs = InferCosts::new(&spec).unwrap();
        let huge = Request {
            id: 0,
            arrival_ns: 0,
            prompt_tokens: costs.block_capacity() * 16 + 1,
            output_tokens: 1,
        };
        let ok = Request {
            id: 1,
            arrival_ns: 1,
            prompt_tokens: 128,
            output_tokens: 4,
        };
        let res = simulate_replica(&costs, spec.max_batch, &[huge, ok]);
        assert_eq!(res.dropped, 1);
        assert_eq!(res.outcomes.len(), 1);
        assert_eq!(res.outcomes[0].id, 1);
        assert_eq!(res.free_blocks_end, costs.block_capacity());
    }

    #[test]
    fn simulate_is_bit_identical_across_thread_counts() {
        let reqs = small_traffic(60_000, 1);
        let one = InferenceModel::new(spec_8b(4).threads(1))
            .unwrap()
            .simulate(&reqs);
        let many = InferenceModel::new(spec_8b(4).threads(7))
            .unwrap()
            .simulate(&reqs);
        assert_eq!(one, many);
        assert_eq!(one.leaked_blocks, 0);
        assert_eq!(one.completed + one.dropped, reqs.len() as u64);
        assert!(one.tokens_per_s > 0.0);
    }

    #[test]
    fn slo_attainment_responds_to_targets() {
        let reqs = small_traffic(60_000, 3);
        let lax = InferenceModel::new(spec_8b(2)).unwrap().simulate(&reqs);
        let strict = InferenceModel::new(
            spec_8b(2).slo(SimDuration::from_micros(1), SimDuration::from_micros(1)),
        )
        .unwrap()
        .simulate(&reqs);
        assert!(lax.slo_attainment > strict.slo_attainment);
        assert_eq!(strict.slo_attainment, 0.0);
        assert!(lax.goodput_tokens_per_s <= lax.tokens_per_s + 1e-9);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn peak_hbm_includes_weights_and_blocks() {
        let costs = InferCosts::new(&spec_8b(1)).unwrap();
        let w = costs.peak_hbm_bytes(0);
        assert_eq!(w, TransformerConfig::llama3_8b().total_params() * 2);
        assert!(costs.peak_hbm_bytes(10) > w);
        let budget = hbm_budget(80 << 30);
        assert!(costs.peak_hbm_bytes(costs.block_capacity()) <= budget);
    }
}
