//! §6.2: numerical issues in 4D parallelism — the bitwise-parity
//! methodology and FP32 gradient accumulation, demonstrated with real
//! arithmetic.

use crate::report::Table;
use llm_model::masks::MaskSpec;
use numerics::attention::{attention_blockwise, attention_direct, cp_allgather_attention};
use numerics::gemm::{gemm, gemm_k_split, gemm_matched_chunks, GemmPrecision};
use numerics::parity::diagnose;
use numerics::tensor::Matrix;
use numerics::training::{AccumPrecision, Regression};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut out = String::new();

    // 1. The TP-GEMM parity decision procedure.
    let a = Matrix::random(8, 96, 1.0, 60);
    let b = Matrix::random(96, 8, 1.0, 61);
    let mono = gemm(&a, &b, GemmPrecision::Bf16InputsFp32Acc);
    let matched = gemm_matched_chunks(&a, &b, 4, GemmPrecision::Bf16InputsFp32Acc);
    let parallel = gemm_k_split(&a, &b, 4, GemmPrecision::Bf16InputsFp32Acc)
        .into_iter()
        .reduce(|acc, p| acc.add(&p))
        .expect("chunks");
    let verdict = diagnose(&parallel, &matched, &mono);
    out.push_str(&format!(
        "\n§6.2 parity check (TP-style K-split GEMM, 4 ranks): {verdict}\n"
    ));

    // 2. CP attention is bitwise clean; ring merging is order-induced.
    let q = Matrix::random(64, 16, 0.5, 70);
    let k = Matrix::random(64, 16, 0.5, 71);
    let v = Matrix::random(64, 16, 0.5, 72);
    let mask = MaskSpec::document(vec![20, 12, 32]);
    let single = attention_direct(&q, &k, &v, &mask, 0);
    let cp = cp_allgather_attention(&q, &k, &v, &mask, 4);
    let ring = attention_blockwise(&q, &k, &v, &mask, 0, 16);
    out.push_str(&format!(
        "all-gather CP attention vs single GPU: bitwise equal = {}\n",
        cp.bitwise_eq(&single)
    ));
    out.push_str(&format!(
        "ring/blockwise attention vs single GPU: bitwise equal = {}, max rel diff = {:.2e} (order-induced)\n",
        ring.bitwise_eq(&single),
        ring.max_rel_diff(&single)
    ));

    // 3. FP32 gradient accumulation closes the loss-curve gap.
    let problem = Regression::new(512, 8, 64, 2);
    let oracle = problem.train(60, 0.5, AccumPrecision::Fp64);
    let mut t = Table::new(
        "§6.2 — gradient accumulation precision vs f64 oracle (64 micro-batches, 60 steps)",
        &["accumulator", "final loss", "max loss gap vs oracle"],
    );
    for (name, p) in [
        ("FP32 (production)", AccumPrecision::Fp32),
        ("BF16", AccumPrecision::Bf16),
    ] {
        let run = problem.train(60, 0.5, p);
        t.row(&[
            name.to_string(),
            format!("{:.3e}", run.final_loss()),
            format!("{:.3e}", run.max_loss_gap(&oracle)),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_contains_the_three_demonstrations() {
        let r = super::run();
        assert!(r.contains("order-induced gap"), "{r}");
        assert!(r.contains("bitwise equal = true"), "{r}");
        assert!(r.contains("FP32 (production)"), "{r}");
    }
}
