//! The §3.2 multimodal case study as a runnable scenario: compare the
//! three image-encoder sharding options before and after the encoder
//! grows from 448² to 672².
//!
//! ```sh
//! cargo run --release --example multimodal_sharding
//! ```

use llama3_parallelism::prelude::*;

fn main() {
    for (label, vit) in [
        ("initial encoder (448², 32 layers)", VitConfig::vit_448()),
        (
            "upgraded encoder (672², 48 layers)",
            VitConfig::vit_672_deep(),
        ),
    ] {
        println!("\n{label}:");
        for (name, sharding) in [
            (
                "option 1 — encoder on first PP rank, in-pipeline",
                EncoderSharding::WithFirstStage,
            ),
            (
                "option 2 — whole-batch preprocess on rank 0",
                EncoderSharding::PreprocessOnFirstRank,
            ),
            (
                "option 3 — encoder replicated across PP ranks",
                EncoderSharding::ReplicatedAcrossRanks,
            ),
        ] {
            let r = production_multimodal(vit.clone(), sharding).simulate();
            println!(
                "  {name:<48} encoder {:>5.1} % of step, {:>6.1} TFLOPs/GPU, step {}",
                r.encoder_share * 100.0,
                r.tflops_per_gpu,
                r.step_time
            );
        }
    }
    println!(
        "\npaper narrative: option 2 worked until the resolution bump pushed the \
         encoder to 33 % of step latency; switching to option 3 cut it to ~8 % \
         and recovered the lost TFLOPs."
    );
}
