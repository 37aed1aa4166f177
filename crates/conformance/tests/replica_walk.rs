//! Hand-built shards that pin the replica walk's bulk decode runs to the
//! naive one-iteration-at-a-time rewalk of oracle 10. Each shard aims at
//! one boundary of a decode run: an arrival that cuts a run short while
//! the queue is empty, a head-of-line-blocked head with arrivals queued
//! behind it, a batch cap of one, single-token outputs, and plans whose
//! TP collective or P2P hand-off is absent.

use cluster_model::gpu::GpuSpec;
use conformance::oracles::naive_continuous_batching;
use llm_model::TransformerConfig;
use parallelism_core::infer::{simulate_replica, InferCosts, InferPlan, InferSpec, ReplicaResult};
use parallelism_core::Request;

const MS: u64 = 1_000_000;

fn spec_8b(tp: u32, pp: u32) -> InferSpec {
    InferSpec::new(
        TransformerConfig::llama3_8b(),
        GpuSpec::h100_sxm_hbm3(),
        8,
        InferPlan::new(tp, pp, 1),
    )
}

/// A shard from `(arrival_ns, prompt, output)` triples, ids in order.
fn shard(reqs: &[(u64, u64, u64)]) -> Vec<Request> {
    reqs.iter()
        .enumerate()
        .map(
            |(id, &(arrival_ns, prompt_tokens, output_tokens))| Request {
                id: id as u64,
                arrival_ns,
                prompt_tokens,
                output_tokens,
            },
        )
        .collect()
}

/// Walks `requests` with the engine and the naive rewalk, asserts they
/// agree bit for bit, and returns the engine's result.
fn walk(spec: &InferSpec, requests: &[Request]) -> (InferCosts, ReplicaResult) {
    let costs = InferCosts::new(spec).expect("the plan serves 8B");
    let fast = simulate_replica(&costs, spec.max_batch, requests);
    let naive = naive_continuous_batching(&costs, spec.max_batch, requests);
    assert_eq!(fast, naive, "bulk walk and naive rewalk diverge");
    assert_eq!(
        fast.free_blocks_end,
        costs.block_capacity(),
        "blocks leaked"
    );
    (costs, fast)
}

fn outcome(r: &ReplicaResult, id: u64) -> parallelism_core::infer::RequestOutcome {
    *r.outcomes
        .iter()
        .find(|o| o.id == id)
        .expect("request completed")
}

#[test]
fn an_arrival_cuts_a_decode_run_short_when_the_queue_is_empty() {
    // Request 0 decodes for ~500 iterations; request 1 arrives a few
    // iterations in. The run must stop at the first iteration boundary
    // after the arrival, so request 1 prefills long before 0 finishes.
    let spec = spec_8b(1, 1);
    let requests = shard(&[(0, 128, 500), (40 * MS, 64, 20), (41 * MS, 64, 3)]);
    let (costs, r) = walk(&spec, &requests);
    let long = outcome(&r, 0);
    let cut_in = outcome(&r, 1);
    assert!(cut_in.first_token_ns < long.finish_ns);
    // Admitted at the next boundary: at most one decode iteration of
    // waiting, then the serial prefill of what has arrived by then.
    let bound =
        costs.decode_iter_time(1, 128 + 500).as_nanos() + 2 * costs.prefill_time(64).as_nanos();
    assert!(
        cut_in.first_token_ns - cut_in.arrival_ns <= bound,
        "request 1 waited {} ns, bound {bound} ns",
        cut_in.first_token_ns - cut_in.arrival_ns
    );
}

#[test]
fn a_head_of_line_blocked_head_holds_later_arrivals_behind_it() {
    // 65,536-token blocks leave a handful of blocks per replica: the
    // residents fill them, the head needs two, and the one-block
    // requests arriving behind it must wait for it although they fit.
    let spec = spec_8b(1, 1).block_tokens(65_536);
    let cap = InferCosts::new(&spec).expect("fits").block_capacity();
    assert!(
        (3..=16).contains(&cap),
        "capacity {cap} outside the shard's design range"
    );
    let mut reqs: Vec<(u64, u64, u64)> = (0..cap).map(|i| (0, 256, 30 + 40 * i)).collect();
    reqs.push((MS, 70_000, 10)); // the head: two blocks
    reqs.extend((0..4).map(|i| (2 * MS + i * 10 * MS, 128, 5 + i)));
    let requests = shard(&reqs);
    let (_, r) = walk(&spec, &requests);
    let head = outcome(&r, cap);
    for id in cap + 1..cap + 5 {
        assert!(
            outcome(&r, id).first_token_ns >= head.first_token_ns,
            "request {id} overtook the head"
        );
    }
    assert!(r.peak_blocks <= cap);
}

#[test]
fn a_batch_cap_of_one_decodes_one_sequence_per_iteration() {
    let spec = spec_8b(1, 1).max_batch(1);
    let requests = shard(&[
        (0, 512, 40),
        (MS, 32, 7),
        (MS, 16, 1),
        (3 * MS, 300, 25),
        (90 * MS, 8, 2),
    ]);
    let (_, r) = walk(&spec, &requests);
    let tokens_after_first: u64 = requests.iter().map(|q| q.output_tokens - 1).sum();
    assert_eq!(r.decode_iters, tokens_after_first);
    let ids: Vec<u64> = r.outcomes.iter().map(|o| o.id).collect();
    assert_eq!(
        ids,
        [0, 1, 2, 3, 4],
        "one at a time completes in arrival order"
    );
}

#[test]
fn single_token_outputs_finish_at_prefill() {
    let spec = spec_8b(1, 1);
    let only_prefill = shard(&[(0, 100, 1), (0, 200, 1), (5 * MS, 50, 1)]);
    let (_, r) = walk(&spec, &only_prefill);
    assert_eq!(r.decode_iters, 0);
    assert!(r.outcomes.iter().all(|o| o.first_token_ns == o.finish_ns));

    let mixed = shard(&[
        (0, 100, 1),
        (0, 200, 9),
        (MS, 50, 1),
        (2 * MS, 70, 4),
        (2 * MS, 10, 1),
    ]);
    walk(&spec, &mixed);
}

#[test]
fn plans_with_and_without_tp_collectives_and_p2p_hand_offs_agree() {
    // tp=1 has no TP collective and pp=1 no hand-off (`AffineComm::NONE`);
    // the others price both, so every hoisted term is exercised.
    let requests = shard(&[
        (0, 256, 60),
        (2 * MS, 1024, 12),
        (2 * MS, 64, 1),
        (30 * MS, 128, 90),
        (31 * MS, 512, 33),
        (400 * MS, 16, 5),
    ]);
    for (tp, pp) in [(1, 1), (1, 2), (2, 1), (2, 2), (8, 4)] {
        let (_, r) = walk(&spec_8b(tp, pp), &requests);
        assert_eq!(r.outcomes.len(), requests.len(), "tp{tp} pp{pp}");
    }
}
