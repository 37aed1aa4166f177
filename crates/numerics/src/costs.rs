//! Closed-form cost primitives, generic over [`Scalar`].
//!
//! These are the innermost real-arithmetic expressions of the α–β
//! collective model and the roofline kernel model, written once so the
//! exhaustive search prices them in plain floats and the guided search
//! differentiates them with [`crate::dual::Dual`]. Call sites that
//! need today's bit-identical float behaviour instantiate them at the
//! float type; the expressions use the exact operation order of the
//! code they replaced.
//!
//! Repo rule (enforced by `llama3sim lint`'s LINT004): no
//! direct float arithmetic in this module — every quantity is an `S`
//! and every constant enters through [`Scalar::lit`], so the two
//! pricing paths cannot silently diverge.

use crate::scalar::Scalar;

/// Wire time of moving `bytes` over a link of effective bandwidth
/// `bw` (bytes/s): `bytes / bw`.
pub fn transfer_s<S: Scalar>(bytes: S, bw: S) -> S {
    bytes / bw
}

/// Serial ring-phase wire time: `steps` steps each moving `bytes`
/// over effective bandwidth `bw`, i.e. `steps · bytes / bw`.
pub fn ring_transfer_s<S: Scalar>(steps: S, bytes: S, bw: S) -> S {
    steps * bytes / bw
}

/// Roofline busy time of a kernel: `max(flops / eff_flops,
/// bytes / hbm_bw)` — compute-bound or memory-bound, whichever
/// dominates. Launch overhead is layered on by the caller (it is a
/// count, not real arithmetic).
pub fn kernel_busy_s<S: Scalar>(flops: S, eff_flops: S, bytes: S, hbm_bw: S) -> S {
    (flops / eff_flops).max(bytes / hbm_bw)
}

/// Shards a linear quantity (flops, bytes) evenly over `ways` ranks.
pub fn linear_shard<S: Scalar>(x: S, ways: S) -> S {
    x / ways
}

/// The paper's closed-form pipeline-bubble ratio estimate
/// `(pp − 1) / nmb / v` (§3.1.1).
pub fn bubble_ratio<S: Scalar>(pp: S, nmb: S, v: S) -> S {
    (pp - S::lit(1.0)) / nmb / v
}

/// Model TFLOPs per GPU: `flops / seconds / ngpus / 1e12`.
pub fn tflops_per_gpu<S: Scalar>(flops: S, seconds: S, ngpus: S) -> S {
    flops / seconds / ngpus / S::lit(1e12)
}

/// Attention kernel flops from the attended-pair count:
/// `flops_per_pair_per_headdim · head_dim · num_heads · pairs`.
pub fn attention_pair_flops<S: Scalar>(
    flops_per_pair_per_headdim: S,
    head_dim: S,
    num_heads: S,
    pairs: S,
) -> S {
    flops_per_pair_per_headdim * head_dim * num_heads * pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::Dual;

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

    #[test]
    fn duals_differentiate_the_same_expressions() {
        // ∂/∂bytes transfer = 1/bw.
        let t = transfer_s(Dual::<1>::var(8e9, 0), Dual::constant(4e9));
        assert!((t.d[0] - 1.0 / 4e9).abs() < 1e-24);
        // Compute-bound roofline: sensitive to flops, not bytes.
        let busy = kernel_busy_s(
            Dual::<2>::var(1e15, 0),
            Dual::constant(5e14),
            Dual::<2>::var(1e9, 1),
            Dual::constant(3e12),
        );
        assert!(busy.d[0] > 0.0 && busy.d[1] == 0.0);
        // ∂/∂pp bubble = 1/(nmb·v).
        let b = bubble_ratio(
            Dual::<1>::var(16.0, 0),
            Dual::constant(128.0),
            Dual::constant(8.0),
        );
        assert!((b.d[0] - 1.0 / (128.0 * 8.0)).abs() < 1e-15);
    }
}
