//! Property tests for the numerics substrate.

use llm_model::masks::MaskSpec;
use numerics::attention::{attention_direct, cp_allgather_attention};
use numerics::bf16::Bf16;
use numerics::gemm::{gemm, gemm_k_split, gemm_matched_chunks, GemmPrecision};
use numerics::reduce::{reduce, reduce_exact, ReduceOrder, ReducePrecision};
use numerics::tensor::Matrix;
use proptest::prelude::*;

proptest! {
    /// BF16 round-trip through f32 is idempotent (a BF16 value
    /// re-quantizes to itself), and quantization error is within half a
    /// ulp of the 8-bit significand.
    #[test]
    fn bf16_roundtrip_idempotent(v in -1e30f32..1e30) {
        let q = Bf16::from_f32(v);
        prop_assert_eq!(Bf16::from_f32(q.to_f32()).to_bits(), q.to_bits());
        if v.is_normal() && v.abs() > 1e-30 {
            let rel = ((q.to_f32() - v) / v).abs();
            prop_assert!(rel <= 1.0 / 256.0, "v={v}, rel={rel}");
        }
    }

    /// ulp distance is a symmetric pseudo-metric with identity.
    #[test]
    fn ulp_distance_metric(a in any::<u16>(), b in any::<u16>()) {
        let x = Bf16::from_bits(a);
        let y = Bf16::from_bits(b);
        prop_assert_eq!(x.ulp_distance(y), y.ulp_distance(x));
        prop_assert_eq!(x.ulp_distance(x), if x.to_f32().is_nan() { u16::MAX } else { 0 });
    }

    /// The matched-order reference is always bitwise equal to the
    /// rank-order partial-sum reduction — the §6.2 guarantee the
    /// methodology rests on — for every precision and chunk count.
    #[test]
    fn matched_order_always_bitwise(seed in 0u64..500, chunks in 1usize..8) {
        let a = Matrix::random(4, 32, 1.0, seed);
        let b = Matrix::random(32, 4, 1.0, seed + 1000);
        for p in [GemmPrecision::Fp32, GemmPrecision::Bf16InputsFp32Acc, GemmPrecision::Bf16All] {
            let parallel = gemm_k_split(&a, &b, chunks, p)
                .into_iter()
                .reduce(|acc, x| acc.add(&x))
                .unwrap();
            let matched = gemm_matched_chunks(&a, &b, chunks, p);
            prop_assert!(parallel.bitwise_eq(&matched));
        }
    }

    /// Chunked GEMMs stay numerically close to the monolithic result.
    #[test]
    fn chunking_error_is_bounded(seed in 0u64..200, chunks in 2usize..8) {
        let a = Matrix::random(4, 64, 1.0, seed);
        let b = Matrix::random(64, 4, 1.0, seed + 31);
        let mono = gemm(&a, &b, GemmPrecision::Fp32);
        let chunked = gemm_matched_chunks(&a, &b, chunks, GemmPrecision::Fp32);
        prop_assert!(chunked.max_abs_diff(&mono) < 1e-3);
    }

    /// All reduction orders/precisions stay within BF16-scale error of
    /// the f64 oracle, and FP32 is never worse than BF16.
    #[test]
    fn reduction_error_ordering(n in 2usize..24, seed in 0u64..100) {
        let parts: Vec<Matrix> = (0..n).map(|i| Matrix::random(4, 4, 1.0, seed + i as u64)).collect();
        let oracle = reduce_exact(&parts);
        for order in [ReduceOrder::Sequential, ReduceOrder::Tree] {
            let f32r = reduce(&parts, order, ReducePrecision::Fp32);
            let bf16r = reduce(&parts, order, ReducePrecision::Bf16);
            prop_assert!(f32r.max_abs_diff(&oracle) <= bf16r.max_abs_diff(&oracle) + 1e-6);
        }
    }

    /// All-gather CP attention is bitwise-identical to single-GPU for
    /// arbitrary document packings and CP degrees.
    #[test]
    fn cp_attention_bitwise_for_any_packing(
        seed in 0u64..100,
        cp_pow in 0u32..3,
        lens_seed in prop::collection::vec(1u64..16, 1..6),
    ) {
        let cp = 1usize << cp_pow;
        // Make seq divisible by 2·cp by padding the last doc.
        let chunks = 2 * cp as u64;
        let raw: u64 = lens_seed.iter().sum();
        let seq = raw.div_ceil(chunks) * chunks;
        let mut lens = lens_seed.clone();
        if seq > raw {
            lens.push(seq - raw);
        }
        let mask = MaskSpec::document(lens);
        let q = Matrix::random(seq as usize, 8, 0.5, seed);
        let k = Matrix::random(seq as usize, 8, 0.5, seed + 1);
        let v = Matrix::random(seq as usize, 8, 0.5, seed + 2);
        let single = attention_direct(&q, &k, &v, &mask, 0);
        let sharded = cp_allgather_attention(&q, &k, &v, &mask, cp);
        prop_assert!(sharded.bitwise_eq(&single));
    }
}
