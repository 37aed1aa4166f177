//! The §6.1 debugging workflow end to end: inject a straggler into a
//! 4D mesh, collect a trace, export it for chrome://tracing, and run
//! the top-down localization.
//!
//! ```sh
//! cargo run --release --example debug_slow_rank
//! ```

use llama3_parallelism::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small 4D mesh: tp 4 × cp 2 × pp 2 × dp 2 = 32 ranks.
    let mesh = Mesh4D::new(4, 2, 2, 2);
    let structure = mesh.group_structure();
    let culprit = 13u32;
    println!(
        "mesh {} — injecting a 1.8× straggler at rank {culprit}",
        mesh
    );

    let spec = SynthSpec {
        num_ranks: mesh.num_gpus(),
        rounds: 4,
        base_compute_ns: 80_000,
        straggler: Some((culprit, 1.8)),
        structure: structure.clone(),
        seed: 3,
    };
    let trace = synth_trace(&spec);
    println!(
        "collected {} trace events across {} ranks",
        trace.len(),
        mesh.num_gpus()
    );

    // Export for visual inspection.
    let json = to_chrome_json(&trace)?;
    let path = std::env::temp_dir().join("llama3_parallelism_trace.json");
    std::fs::write(&path, json)?;
    println!(
        "chrome trace written to {} (open in chrome://tracing)",
        path.display()
    );

    // Top-down localization, outermost dimension first.
    let report = locate_slow_rank(&trace, &structure);
    for step in &report.steps {
        println!(
            "  [{}] decisive group: {:?}, survivors: {:?}",
            step.dim, step.picked_group, step.survivors
        );
    }
    match report.culprit {
        Some(r) => println!(
            "localized culprit: rank {r} (confidence {:.2})",
            report.confidence
        ),
        None => println!(
            "no clear slow rank (best candidate rank {} at confidence {:.2})",
            report.suspect, report.confidence
        ),
    }
    assert_eq!(
        report.culprit,
        Some(culprit),
        "localization must find the straggler"
    );
    println!("matches the injected straggler ✓");
    Ok(())
}
