//! Statistical validation of the fault-injection generator: per-kind
//! event counts must match the configured Poisson rates, and the
//! stream must be exactly reproducible per seed.

use cluster_model::{FaultKind, FaultRates, FaultTimeline};

const GPUS: u32 = 512;
const HOURS: f64 = 24.0;
const SEEDS: u64 = 32;

/// Distinct per-kind rates so a kind mix-up in the generator shows up
/// as a rate mismatch, not just a total-count error.
fn rates() -> FaultRates {
    FaultRates {
        gpu_fail_per_gpu_hour: 2e-4,
        node_loss_per_gpu_hour: 1e-4,
        link_degrade_per_gpu_hour: 3e-4,
        thermal_per_gpu_hour: 4e-4,
        ..FaultRates::llama3_production()
    }
}

fn rate_of(r: &FaultRates, kind: FaultKind) -> f64 {
    match kind {
        FaultKind::GpuFailStop => r.gpu_fail_per_gpu_hour,
        FaultKind::NodeLoss => r.node_loss_per_gpu_hour,
        FaultKind::LinkDegrade => r.link_degrade_per_gpu_hour,
        FaultKind::ThermalThrottle => r.thermal_per_gpu_hour,
    }
}

#[test]
fn event_counts_match_poisson_rates_within_4_sigma() {
    let r = rates();
    let mut counts = [0u64; FaultKind::ALL.len()];
    for seed in 0..SEEDS {
        let tl =
            FaultTimeline::generate(r, GPUS, 8, HOURS * 3600.0, seed).expect("timeline generates");
        for ev in tl.events() {
            let ki = FaultKind::ALL
                .iter()
                .position(|&k| k == ev.kind)
                .expect("known kind");
            counts[ki] += 1;
        }
    }
    for (ki, &kind) in FaultKind::ALL.iter().enumerate() {
        // Sum of independent Poisson draws is Poisson: λ = rate ×
        // GPUs × hours × seeds, σ = √λ. A correct generator stays
        // within ±4σ (~6·10⁻⁵ false-failure probability per kind).
        let lambda = rate_of(&r, kind) * f64::from(GPUS) * HOURS * SEEDS as f64;
        let sigma = lambda.sqrt();
        let observed = counts[ki] as f64;
        assert!(
            (observed - lambda).abs() <= 4.0 * sigma,
            "{kind:?}: observed {observed} events, expected {lambda:.1} ± {:.1}",
            4.0 * sigma
        );
    }
}

#[test]
fn same_seed_reproduces_the_exact_timeline() {
    let r = rates();
    for seed in [0u64, 1, 0xC0FFEE] {
        let a = FaultTimeline::generate(r, GPUS, 8, HOURS * 3600.0, seed).unwrap();
        let b = FaultTimeline::generate(r, GPUS, 8, HOURS * 3600.0, seed).unwrap();
        assert_eq!(
            format!("{:?}", a.events()),
            format!("{:?}", b.events()),
            "seed {seed} produced two different timelines"
        );
    }
}

#[test]
fn different_seeds_produce_different_timelines() {
    let r = rates();
    let a = FaultTimeline::generate(r, GPUS, 8, HOURS * 3600.0, 1).unwrap();
    let b = FaultTimeline::generate(r, GPUS, 8, HOURS * 3600.0, 2).unwrap();
    assert_ne!(
        format!("{:?}", a.events()),
        format!("{:?}", b.events()),
        "seeds 1 and 2 produced identical event streams"
    );
}
