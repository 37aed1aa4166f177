//! Folded steps of one `StepModel` compile its pipeline program once
//! and build no schedule. After a warm-up, 100 folded 405B / 8K-GPU
//! steps (tp 8, cp 1, pp 16, dp 64, v 8, bs 16: a 4,096-op program)
//! must all be served by the program memo, each allocating less than
//! one build of its schedule does, and a counting global allocator
//! pins how often each step touches the heap, so a step that builds
//! its schedule or recompiles its program fails here.
//!
//! This file holds a single test so no other test's allocations or
//! memo traffic are counted.

use cluster_model::topology::Cluster;
use llm_model::masks::MaskSpec;
use llm_model::{ModelLayout, TransformerConfig};
use parallelism_core::fsdp::recommended_zero_mode;
use parallelism_core::mesh::Mesh4D;
use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
use parallelism_core::pp::schedule::ScheduleKind;
use parallelism_core::pp::sim::program_cache_stats;
use parallelism_core::step::{SimOptions, StepModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap allocations one warm folded step of this model may
/// make: its layer-kind prices, stage costs, the mesh groups they are
/// priced on, the pass's timing buffers and the report. A warm folded
/// step made 127 before programs were shared, and 114 while it still
/// built its schedule to key the memo and read peak in-flight counts.
const ALLOCATIONS_PER_STEP: u64 = 21;

/// The 405B / 8K-GPU production step at `bs = 16`
/// (all-forward-all-backward).
fn production_8k_gpu_step() -> StepModel {
    let layout = ModelLayout::text(TransformerConfig::llama3_405b().with_layers(128));
    let mesh = Mesh4D::new(8, 1, 16, 64);
    let assignment = StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: ScheduleKind::AllFwdAllBwd,
        zero: recommended_zero_mode(16, 16),
        bs: 16,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute: false,
    }
}

#[test]
fn warm_folded_steps_share_one_program() {
    const STEPS: u64 = 100;
    let step = production_8k_gpu_step();
    let opts = SimOptions::new();
    let first = step.run(&opts).expect("valid step").report;
    assert_eq!(step.program().expect("valid schedule").len(), 4096);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let schedule = step.schedule().expect("valid schedule");
    let per_schedule = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    drop(schedule);

    let memo = program_cache_stats();
    let (mut total, mut most) = (0, 0);
    for _ in 0..STEPS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = step.run(&opts).expect("valid step").report;
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report, first);
        (total, most) = (total + made, most.max(made));
    }
    let after = program_cache_stats();

    assert_eq!(after.misses, memo.misses, "a warm folded step compiled");
    assert_eq!(
        after.hits - memo.hits,
        STEPS,
        "a folded step bypassed the memo"
    );
    println!(
        "{} allocations per warm folded step (at most {most}); one schedule build makes {per_schedule}",
        total as f64 / STEPS as f64
    );
    assert!(
        most < per_schedule,
        "a warm folded step made {most} allocations, as many as building its schedule ({per_schedule})"
    );
    assert!(
        total <= ALLOCATIONS_PER_STEP * STEPS,
        "{total} allocations over {STEPS} warm folded steps, \
         pinned at {ALLOCATIONS_PER_STEP} per step"
    );
}
