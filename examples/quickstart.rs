//! Quickstart: plan a 4D parallelism configuration for Llama 3 405B
//! and simulate one training step.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use llama3_parallelism::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Plan: 16K H100s, 16M tokens per step, 8K sequences — the
    //    paper's short-context phase.
    let input = PlannerInput::llama3_405b(16_384, 8_192);
    let plan = plan(&input)?;
    println!("planned configuration: {}", plan.config);
    for line in &plan.reasoning {
        println!("  - {line}");
    }

    // 2. Build the planned step with the search's step builder and
    //    simulate it.
    let step = SearchSpec::training(input)
        .build_step(&plan.config)
        .expect("the plan is one of the search's configurations");
    let report = step
        .run(&SimOptions::default())
        .expect("valid step config")
        .report;

    println!("\nsimulated one training step:");
    println!("  step time        : {}", report.step_time);
    println!(
        "  TFLOPs per GPU   : {:.0} (paper: ~400)",
        report.tflops_per_gpu
    );
    println!(
        "  tokens per second: {:.1} M",
        report.tokens as f64 / report.step_time.as_secs_f64() / 1e6
    );
    println!(
        "  mid-rank bubble  : {:.1} % (paper: 12 % at bs = pp)",
        report.bubble_ratio[8] * 100.0
    );
    println!(
        "  peak memory      : {:.1} GiB of 80 GiB HBM",
        report.max_peak_memory() as f64 / (1u64 << 30) as f64
    );
    println!(
        "  exposed TP comm  : {} per rank per step",
        report.exposed.tp
    );
    Ok(())
}
