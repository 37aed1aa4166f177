//! Serving traffic: generate a diurnal request trace, pick a serving
//! mesh, and price a continuous-batching day on the simulator.
//!
//! ```sh
//! cargo run --release --example serving_traffic
//! ```

use llama3_parallelism::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Traffic: a seeded diurnal day, compressed to a 10-minute
    //    horizon so the example runs instantly. Same seed, same trace.
    let traffic = TrafficSpec::serving_day(TrafficShape::Diurnal, 50_000, 1).horizon_s(600.0);
    let requests = traffic.generate();
    println!("trace: {} requests over {}s", requests.len(), 600);

    // 2. Mesh: let the planner pick the smallest tp×pp that fits the
    //    weights with KV headroom, then fill 64 GPUs with replicas.
    let cfg = TransformerConfig::llama3_70b();
    let gpu = GpuSpec::h100_sxm_hbm3();
    let plan = InferPlan::auto(&cfg, &gpu, 64, 8).ok_or("model does not fit")?;
    println!(
        "mesh: tp{}·pp{}·x{} ({} GPUs)",
        plan.tp,
        plan.pp,
        plan.replicas,
        plan.gpus()
    );

    // 3. Simulate: prefill/decode continuous batching with paged KV
    //    accounting, bit-identical for any thread count.
    let model = InferenceModel::new(InferSpec::new(cfg, gpu, 8, plan))?;
    let report = model.simulate(&requests);
    println!(
        "completed {}/{} ({} dropped), {:.0} tok/s",
        report.completed, report.requests, report.dropped, report.tokens_per_s
    );
    println!(
        "TTFT p50/p95/p99: {} / {} / {}",
        report.ttft[0], report.ttft[1], report.ttft[2]
    );
    println!(
        "TPOT p50/p95/p99: {} / {} / {}",
        report.tpot[0], report.tpot[1], report.tpot[2]
    );
    println!(
        "SLO attainment {:.1}%, goodput {:.0} tok/s, peak HBM {:.1} GiB",
        report.slo_attainment * 100.0,
        report.goodput_tokens_per_s,
        report.peak_hbm_bytes as f64 / (1u64 << 30) as f64
    );
    Ok(())
}
