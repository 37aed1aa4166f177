//! The §6.2 numerical-debugging methodology on real arithmetic: decide
//! whether a parallel implementation's deviation is an accumulation-
//! order effect or a bug, and see why gradients accumulate in FP32.
//!
//! ```sh
//! cargo run --release --example numerics_parity
//! ```

use llama3_parallelism::model::MaskSpec;
use llama3_parallelism::numerics::attention::{
    attention_blockwise, attention_direct, cp_allgather_attention,
};
use llama3_parallelism::numerics::gemm::{
    gemm, gemm_k_range, gemm_k_split, gemm_matched_chunks, GemmPrecision,
};
use llama3_parallelism::numerics::parity::diagnose;
use llama3_parallelism::numerics::tensor::Matrix;
use llama3_parallelism::numerics::training::{AccumPrecision, Regression};

fn main() {
    let p = GemmPrecision::Bf16InputsFp32Acc;
    let a = Matrix::random(8, 96, 1.0, 1);
    let b = Matrix::random(96, 8, 1.0, 2);
    let mono = gemm(&a, &b, p);
    let matched = gemm_matched_chunks(&a, &b, 4, p);

    // A correct tensor-parallel GEMM: K split over 4 "ranks", partial
    // sums reduced in rank order.
    let parallel = gemm_k_split(&a, &b, 4, p)
        .into_iter()
        .reduce(|acc, part| acc.add(&part))
        .expect("4 ranks");
    println!("correct TP GEMM : {}", diagnose(&parallel, &matched, &mono));

    // A buggy one: rank 0 drops its last K column.
    let mut parts = gemm_k_split(&a, &b, 4, p);
    parts[0] = gemm_k_range(&a, &b, 0, 23, p);
    let buggy = parts
        .into_iter()
        .reduce(|acc, part| acc.add(&part))
        .expect("4 ranks");
    println!("buggy TP GEMM   : {}", diagnose(&buggy, &matched, &mono));

    // CP attention is bitwise clean; ring merging is order-induced.
    let q = Matrix::random(64, 16, 0.5, 3);
    let k = Matrix::random(64, 16, 0.5, 4);
    let v = Matrix::random(64, 16, 0.5, 5);
    let mask = MaskSpec::document(vec![20, 12, 32]);
    let single = attention_direct(&q, &k, &v, &mask, 0);
    let cp = cp_allgather_attention(&q, &k, &v, &mask, 4);
    let ring = attention_blockwise(&q, &k, &v, &mask, 0, 16);
    println!(
        "all-gather CP attention bitwise-equal to single GPU: {}",
        cp.bitwise_eq(&single)
    );
    println!(
        "ring attention bitwise-equal: {} (max rel diff {:.1e} — benign)",
        ring.bitwise_eq(&single),
        ring.max_rel_diff(&single)
    );

    // FP32 gradient accumulation vs BF16, against an f64 oracle.
    let problem = Regression::new(512, 8, 64, 7);
    let oracle = problem.train(60, 0.5, AccumPrecision::Fp64);
    for (name, precision) in [
        ("FP32", AccumPrecision::Fp32),
        ("BF16", AccumPrecision::Bf16),
    ] {
        let run = problem.train(60, 0.5, precision);
        println!(
            "{name} gradient accumulation: max loss-curve gap vs oracle = {:.2e}",
            run.max_loss_gap(&oracle)
        );
    }
    println!("\nthis is why §6.2 accumulates DP reduce-scatter and PP micro-batch grads in FP32.");
}
