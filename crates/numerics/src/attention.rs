//! Real (CPU) softmax attention with document masks.
//!
//! Three implementations of the same mathematical function:
//!
//! * [`attention_direct`] — row-at-a-time reference (one softmax pass
//!   per query over all its keys);
//! * [`attention_blockwise`] — FlashAttention/RingAttention-style
//!   streaming over key blocks with running-max log-sum-exp rescaling;
//! * [`cp_allgather_attention`] — the paper's CP design: queries
//!   zig-zag-sharded across ranks, every rank holding the *gathered*
//!   K/V and computing its rows independently.
//!
//! The numerical punchline (§4 + §6.2): all-gather CP is **bitwise
//! identical** to the single-GPU reference, because each output row's
//! arithmetic is untouched by the sharding. Blockwise/ring merging is
//! *not* bitwise identical — its partial-result rescaling reorders the
//! sums — which is precisely the kind of benign, order-induced gap the
//! §6.2 methodology must distinguish from real bugs.

use crate::tensor::Matrix;
use llm_model::masks::MaskSpec;

/// Row-reference attention: `softmax(Q Kᵀ / √d + mask) · V`.
///
/// `q_offset` is the global position of `q`'s first row (queries may be
/// a shard of a longer sequence); keys/values always start at global
/// position 0.
///
/// # Panics
/// Panics on dimension mismatches or when a query row attends no keys.
pub fn attention_direct(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &MaskSpec,
    q_offset: u64,
) -> Matrix {
    assert_eq!(q.cols(), k.cols(), "head-dim mismatch");
    assert_eq!(k.rows(), v.rows(), "K/V length mismatch");
    let d = q.cols();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for i in 0..q.rows() {
        let qpos = q_offset + i as u64;
        // Scores for allowed keys.
        let mut max_score = f32::NEG_INFINITY;
        let mut scores: Vec<(usize, f32)> = Vec::new();
        for j in 0..k.rows() {
            if !mask.allows(qpos, j as u64) {
                continue;
            }
            let mut s = 0.0f32;
            for c in 0..d {
                s += q.get(i, c) * k.get(j, c);
            }
            let s = s * scale;
            max_score = max_score.max(s);
            scores.push((j, s));
        }
        assert!(
            !scores.is_empty(),
            "query {qpos} attends no keys under the mask"
        );
        let mut denom = 0.0f32;
        let mut acc = vec![0.0f32; v.cols()];
        for &(j, s) in &scores {
            let w = (s - max_score).exp();
            denom += w;
            for (c, a) in acc.iter_mut().enumerate() {
                *a += w * v.get(j, c);
            }
        }
        for (c, a) in acc.iter().enumerate() {
            out.set(i, c, a / denom);
        }
    }
    out
}

/// Streaming attention over key blocks of `block` rows, merging partial
/// results with running-max log-sum-exp rescaling (the FlashAttention /
/// RingAttention merge the paper cites [7, 8]).
///
/// # Panics
/// Panics on dimension mismatches, `block == 0`, or a query row that
/// attends no keys.
pub fn attention_blockwise(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &MaskSpec,
    q_offset: u64,
    block: usize,
) -> Matrix {
    assert!(block > 0, "block size must be positive");
    assert_eq!(q.cols(), k.cols(), "head-dim mismatch");
    assert_eq!(k.rows(), v.rows(), "K/V length mismatch");
    let d = q.cols();
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for i in 0..q.rows() {
        let qpos = q_offset + i as u64;
        let mut running_max = f32::NEG_INFINITY;
        let mut running_denom = 0.0f32;
        let mut acc = vec![0.0f32; v.cols()];
        let mut any = false;
        let mut j0 = 0;
        while j0 < k.rows() {
            let j1 = (j0 + block).min(k.rows());
            // Block-local pass.
            let mut blk_max = f32::NEG_INFINITY;
            let mut blk: Vec<(usize, f32)> = Vec::new();
            for j in j0..j1 {
                if !mask.allows(qpos, j as u64) {
                    continue;
                }
                let mut s = 0.0f32;
                for c in 0..d {
                    s += q.get(i, c) * k.get(j, c);
                }
                let s = s * scale;
                blk_max = blk_max.max(s);
                blk.push((j, s));
            }
            if !blk.is_empty() {
                any = true;
                let new_max = running_max.max(blk_max);
                let rescale = if running_max.is_finite() {
                    (running_max - new_max).exp()
                } else {
                    0.0
                };
                running_denom *= rescale;
                for a in &mut acc {
                    *a *= rescale;
                }
                for &(j, s) in &blk {
                    let w = (s - new_max).exp();
                    running_denom += w;
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += w * v.get(j, c);
                    }
                }
                running_max = new_max;
            }
            j0 = j1;
        }
        assert!(any, "query {qpos} attends no keys under the mask");
        for (c, a) in acc.iter().enumerate() {
            out.set(i, c, a / running_denom);
        }
    }
    out
}

/// The zig-zag query ranges of rank `r` among `cp` ranks for `seq`
/// rows: chunks `r` and `2·cp − 1 − r` of `2·cp`.
///
/// # Panics
/// Panics unless `2·cp` divides `seq`.
pub fn zigzag_ranges(seq: usize, cp: usize, r: usize) -> [(usize, usize); 2] {
    assert!(cp > 0 && r < cp, "bad rank");
    let chunks = 2 * cp;
    assert!(seq.is_multiple_of(chunks), "seq must be divisible by 2·cp");
    let w = seq / chunks;
    [
        (r * w, (r + 1) * w),
        ((chunks - 1 - r) * w, (chunks - r) * w),
    ]
}

/// All-gather CP attention: each of `cp` ranks computes
/// [`attention_direct`] over its zig-zag query chunks with the full
/// (gathered) K/V; outputs are reassembled in sequence order.
///
/// # Panics
/// Panics on dimension mismatches or if `2·cp` does not divide the
/// sequence length.
pub fn cp_allgather_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    mask: &MaskSpec,
    cp: usize,
) -> Matrix {
    let seq = q.rows();
    let mut out = Matrix::zeros(seq, v.cols());
    for r in 0..cp {
        for (lo, hi) in zigzag_ranges(seq, cp, r) {
            let q_shard = q.row_slice(lo, hi);
            let part = attention_direct(&q_shard, k, v, mask, lo as u64);
            for i in 0..part.rows() {
                for c in 0..part.cols() {
                    out.set(lo + i, c, part.get(i, c));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qkv(seq: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        (
            Matrix::random(seq, d, 0.5, seed),
            Matrix::random(seq, d, 0.5, seed + 1),
            Matrix::random(seq, d, 0.5, seed + 2),
        )
    }

    #[test]
    fn full_mask_matches_manual_softmax_for_single_query() {
        let q = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let k = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let v = Matrix::from_vec(2, 1, vec![10.0, 20.0]);
        let out = attention_direct(&q, &k, &v, &MaskSpec::Full, 0);
        let s0 = 1.0 / (2f32).sqrt();
        let w0 = (0.0f32).exp(); // after max subtraction: s0 is max
        let w1 = (0.0 - s0).exp();
        let expect = (w0 * 10.0 + w1 * 20.0) / (w0 + w1);
        assert!((out.get(0, 0) - expect).abs() < 1e-6);
    }

    #[test]
    fn causal_first_token_attends_only_itself() {
        let (q, k, v) = qkv(8, 4, 1);
        let out = attention_direct(&q, &k, &v, &MaskSpec::Causal, 0);
        for c in 0..4 {
            assert_eq!(out.get(0, c), v.get(0, c));
        }
    }

    #[test]
    fn document_mask_blocks_cross_document_attention() {
        let (q, k, v) = qkv(8, 4, 2);
        let mask = MaskSpec::document(vec![4, 4]);
        let out = attention_direct(&q, &k, &v, &mask, 0);
        // Token 4 starts doc 2: attends only itself.
        for c in 0..4 {
            assert_eq!(out.get(4, c), v.get(4, c));
        }
        // And differs from the causal result for the same row.
        let causal = attention_direct(&q, &k, &v, &MaskSpec::Causal, 0);
        assert!(out.max_abs_diff(&causal) > 1e-4);
    }

    #[test]
    fn cp_allgather_is_bitwise_identical_to_single_gpu() {
        // The all-gather design's numerical selling point: sharding
        // queries does not change any row's arithmetic.
        let (q, k, v) = qkv(32, 8, 3);
        for mask in [MaskSpec::Causal, MaskSpec::document(vec![3, 3, 8, 2, 16])] {
            let single = attention_direct(&q, &k, &v, &mask, 0);
            for cp in [1usize, 2, 4, 8] {
                let sharded = cp_allgather_attention(&q, &k, &v, &mask, cp);
                assert!(
                    sharded.bitwise_eq(&single),
                    "cp={cp} mask={mask:?} not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn blockwise_merge_is_order_induced_not_buggy() {
        // Ring-style merging changes bits but stays numerically close —
        // the benign half of the §6.2 dichotomy.
        let (q, k, v) = qkv(64, 8, 4);
        let direct = attention_direct(&q, &k, &v, &MaskSpec::Causal, 0);
        let blockwise = attention_blockwise(&q, &k, &v, &MaskSpec::Causal, 0, 16);
        assert!(!blockwise.bitwise_eq(&direct), "expected ulp-level gap");
        assert!(blockwise.max_rel_diff(&direct) < 1e-4);
    }

    #[test]
    fn blockwise_with_full_block_is_close_to_direct() {
        let (q, k, v) = qkv(16, 4, 5);
        let direct = attention_direct(&q, &k, &v, &MaskSpec::Causal, 0);
        let blockwise = attention_blockwise(&q, &k, &v, &MaskSpec::Causal, 0, 16);
        assert!(blockwise.max_rel_diff(&direct) < 1e-5);
    }

    #[test]
    fn zigzag_ranges_partition() {
        let mut covered = [false; 32];
        for r in 0..4 {
            for (lo, hi) in zigzag_ranges(32, 4, r) {
                for (i, c) in covered.iter_mut().enumerate().take(hi).skip(lo) {
                    assert!(!*c, "token {i} double-owned");
                    *c = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn q_offset_shards_match_full_computation() {
        let (q, k, v) = qkv(16, 4, 6);
        let full = attention_direct(&q, &k, &v, &MaskSpec::Causal, 0);
        let top = attention_direct(&q.row_slice(0, 8), &k, &v, &MaskSpec::Causal, 0);
        let bottom = attention_direct(&q.row_slice(8, 16), &k, &v, &MaskSpec::Causal, 8);
        assert!(Matrix::vstack(&[top, bottom]).bitwise_eq(&full));
    }

    #[test]
    #[should_panic(expected = "attends no keys")]
    fn empty_row_panics() {
        // A full-mask... use a doc mask where query 0 is fine but craft
        // an impossible case: Full mask with zero keys cannot happen, so
        // use a document mask query beyond... use causal with q_offset
        // such that mask.allows fails for all: impossible for causal.
        // Use Document with q in doc 2 but only doc-1 keys gathered is
        // not expressible here; instead trigger via an all-false custom
        // situation: Document mask where the query's doc starts after
        // the available keys.
        let q = Matrix::zeros(1, 2);
        let k = Matrix::zeros(2, 2);
        let v = Matrix::zeros(2, 2);
        // Query at global position 4 (doc 2 starting at 4), keys 0..2.
        let mask = MaskSpec::document(vec![4, 4]);
        attention_direct(&q, &k, &v, &mask, 4);
    }
}
