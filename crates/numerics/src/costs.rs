//! Closed-form cost primitives.
//!
//! These are the innermost real-arithmetic expressions of the α–β
//! collective model and the roofline kernel model, written once and
//! shared by the collective cost model and the step model. Each keeps
//! the exact operation order of the code it replaced, so prices stay
//! bit-identical. Each is `#[inline]` so callers in other crates can
//! fold it into their own arithmetic.

/// Wire time of moving `bytes` over a link of effective bandwidth
/// `bw` (bytes/s): `bytes / bw`.
#[inline]
pub fn transfer_s(bytes: f64, bw: f64) -> f64 {
    bytes / bw
}

/// Serial ring-phase wire time: `steps` steps each moving `bytes`
/// over effective bandwidth `bw`, i.e. `steps · bytes / bw`.
#[inline]
pub fn ring_transfer_s(steps: f64, bytes: f64, bw: f64) -> f64 {
    steps * bytes / bw
}

/// Roofline busy time of a kernel: `max(flops / eff_flops,
/// bytes / hbm_bw)` — compute-bound or memory-bound, whichever
/// dominates. Launch overhead is layered on by the caller (it is a
/// count, not real arithmetic).
#[inline]
pub fn kernel_busy_s(flops: f64, eff_flops: f64, bytes: f64, hbm_bw: f64) -> f64 {
    (flops / eff_flops).max(bytes / hbm_bw)
}

/// Shards a linear quantity (flops, bytes) evenly over `ways` ranks.
#[inline]
pub fn linear_shard(x: f64, ways: f64) -> f64 {
    x / ways
}

/// The paper's closed-form pipeline-bubble ratio estimate
/// `(pp − 1) / nmb / v` (§3.1.1).
#[inline]
pub fn bubble_ratio(pp: f64, nmb: f64, v: f64) -> f64 {
    (pp - 1.0) / nmb / v
}

/// Model TFLOPs per GPU: `flops / seconds / ngpus / 1e12`.
#[inline]
pub fn tflops_per_gpu(flops: f64, seconds: f64, ngpus: f64) -> f64 {
    flops / seconds / ngpus / 1e12
}

/// Attention kernel flops from the attended-pair count:
/// `flops_per_pair_per_headdim · head_dim · num_heads · pairs`.
#[inline]
pub fn attention_pair_flops(
    flops_per_pair_per_headdim: f64,
    head_dim: f64,
    num_heads: f64,
    pairs: f64,
) -> f64 {
    flops_per_pair_per_headdim * head_dim * num_heads * pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expressions_match_plain_float_arithmetic() {
        assert_eq!(transfer_s(8e9, 4e9), 8e9 / 4e9);
        assert_eq!(ring_transfer_s(7.0, 1e6, 5e10), 7.0 * 1e6 / 5e10);
        assert_eq!(
            kernel_busy_s(1e15, 5e14, 1e9, 3e12),
            (1e15f64 / 5e14).max(1e9 / 3e12)
        );
        assert_eq!(linear_shard(100.0, 8.0), 12.5);
        assert_eq!(bubble_ratio(16.0, 128.0, 8.0), 15.0 / 128.0 / 8.0);
        assert_eq!(
            tflops_per_gpu(1e18, 2.0, 1024.0),
            1e18 / 2.0 / 1024.0 / 1e12
        );
        assert_eq!(
            attention_pair_flops(4.0, 128.0, 64.0, 1e8),
            4.0 * 128.0 * 64.0 * 1e8
        );
    }
}
