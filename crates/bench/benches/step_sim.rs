//! Criterion benches: full-step simulation and planning throughput.

use bench_harness::configs::{
    production_long_context, production_short_context, scaled_405b_step,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use parallelism_core::planner::{plan, PlannerInput};
use parallelism_core::pp::balance::BalancePolicy;
use parallelism_core::pp::schedule::ScheduleKind;
use parallelism_core::step::{SimFidelity, SimOptions};

fn bench_step_simulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_simulate");
    g.sample_size(20);
    let scaled = scaled_405b_step(
        ScheduleKind::Flexible { nc: 4 },
        BalancePolicy::DropFirstAndLast,
        false,
    );
    let opts = SimOptions::default();
    g.bench_function("scaled_405b_pp4", |b| {
        b.iter(|| black_box(scaled.run(&opts).unwrap().report.tflops_per_gpu))
    });
    let short = production_short_context(16);
    g.bench_function("production_16k_gpus_8k_seq", |b| {
        b.iter(|| black_box(short.run(&opts).unwrap().report.tflops_per_gpu))
    });
    let long = production_long_context(11);
    g.bench_function("production_16k_gpus_131k_seq", |b| {
        b.iter(|| black_box(long.run(&opts).unwrap().report.tflops_per_gpu))
    });
    g.finish();
}

/// DP-symmetry folding: the same step at both fidelities. Folded times
/// one representative pipeline; Full runs one pass of the compiled
/// pipeline program per DP replica, so the gap widens linearly with dp.
fn bench_fidelity(c: &mut Criterion) {
    let mut g = c.benchmark_group("fidelity");
    g.sample_size(10);
    let step = scaled_405b_step(
        ScheduleKind::Flexible { nc: 4 },
        BalancePolicy::DropFirstAndLast,
        false,
    );
    let folded = SimOptions::new().fidelity(SimFidelity::Folded);
    let full = SimOptions::new().fidelity(SimFidelity::Full);
    g.bench_function("scaled_405b_folded", |b| {
        b.iter(|| black_box(step.run(&folded).unwrap().report.step_time))
    });
    g.bench_function("scaled_405b_full", |b| {
        b.iter(|| black_box(step.run(&full).unwrap().report.step_time))
    });
    g.finish();
}

fn bench_planner(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    g.bench_function("llama3_405b_16k_gpus", |b| {
        b.iter(|| {
            let p = plan(&PlannerInput::llama3_405b(black_box(16_384), 8_192)).unwrap();
            black_box(p.mesh.num_gpus())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_step_simulate, bench_fidelity, bench_planner);
criterion_main!(benches);
