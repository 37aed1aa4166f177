//! Long-context training with context parallelism: how the all-gather
//! CP design scales from 8K to 131K sequences, and what document masks
//! do to the balance across CP ranks (§4, §7.2, §7.3.2).
//!
//! ```sh
//! cargo run --release --example long_context
//! ```

use llama3_parallelism::prelude::*;

fn main() {
    let cfg = TransformerConfig::llama3_405b();
    let gpu = GpuSpec::h100_sxm_hbm3();
    let comm = CommCostModel::new(TopologySpec::llama3_production(1));

    println!("CP attention scaling (causal mask, relative HFU vs one GPU):");
    for cp in [2u32, 4, 8] {
        let group = ProcessGroup::contiguous(0, cp);
        let ag = AllGatherCp::new(cp);
        print!("  cp={cp}:");
        for seq in [8_192u64, 32_768, 131_072] {
            let b = ag.layer_fwd(&cfg, seq, &MaskSpec::Causal, &gpu, &comm, &group);
            let rel = relative_hfu(&cfg, seq, &MaskSpec::Causal, &gpu, b.total(), cp);
            print!("  seq {seq:>6} → {:>5.1} %", rel * 100.0);
        }
        println!();
    }

    // The paper's §4 headline: a 3.89× attention latency reduction on
    // four GPUs versus one.
    let seq = 131_072;
    let single = AllGatherCp::new(1)
        .layer_fwd(
            &cfg,
            seq,
            &MaskSpec::Causal,
            &gpu,
            &comm,
            &ProcessGroup::contiguous(0, 1),
        )
        .total();
    let four = AllGatherCp::new(4)
        .layer_fwd(
            &cfg,
            seq,
            &MaskSpec::Causal,
            &gpu,
            &comm,
            &ProcessGroup::contiguous(0, 4),
        )
        .total();
    println!(
        "\nattention latency reduction on 4 GPUs vs 1 at 131K: {:.2}× (paper: 3.89×)",
        single.as_secs_f64() / four.as_secs_f64()
    );

    // Document masks unbalance the zig-zag sharding.
    println!("\ndocument-mask imbalance across cp=16 ranks at 131K (5 sampled sequences):");
    let sharding = CpSharding::new(16);
    let mut sampler = DocumentSampler::new(
        DocLengthDist::LogNormal {
            mean: 4096.0,
            sigma: 1.4,
        },
        7,
    );
    for i in 0..5 {
        let mask = sampler.pack_sequence(seq);
        let docs = match &mask {
            MaskSpec::Document { doc_lens } => doc_lens.len(),
            _ => 0,
        };
        println!(
            "  sequence {i}: {docs:>3} documents, slowest/mean attention work = {:.2}×",
            sharding.imbalance(seq, &mask)
        );
    }
    println!("\nthe slowest CP rank gates every all-gather — the §7.3.2 waiting effect.");
}
