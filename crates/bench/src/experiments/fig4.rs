//! Fig 4: gradient-memory lifetime under PP schedule × ZeRO mode.
//!
//! * 1F1B + ZeRO-1: gradients stay resident per virtual stage until the
//!   single end-of-step reduce-scatter.
//! * All-forward-all-backward: identical behaviour for ZeRO-1/2 (all
//!   backwards are consecutive).
//! * 1F1B + ZeRO-2: the gradient buffer is reduce-scattered after the
//!   last consecutive micro-batch of each virtual-stage round, cutting
//!   residency at the price of more collectives (§3.1.3).

use crate::report::Table;
use parallelism_core::fsdp::ZeroMode;
use parallelism_core::pp::schedule::{PpOp, PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::{PpProgram, PpTiming, TableCosts};
use sim_engine::memory::{MemoryTracker, PoolId};
use sim_engine::time::SimDuration;

/// One gradient-buffer unit per virtual stage; returns the peak number
/// of unsharded gradient buffers resident on rank 0 and the timeline
/// sample count.
pub fn grad_memory_profile(kind: ScheduleKind, zero: ZeroMode) -> (u64, Vec<(u64, u64)>) {
    let pp = 4u32;
    let v = 4u32;
    let nmb = 8u32;
    let sched = PpSchedule::build(kind, pp, v, nmb).expect("valid schedule");
    let us = SimDuration::from_micros;
    let costs = TableCosts::uniform(pp * v, us(100), us(200), SimDuration::ZERO);
    let program = PpProgram::compile(&sched).expect("deadlock-free");
    let mut sim = PpTiming::default();
    program.run(&costs, &[], &mut sim);
    let rank = 0;
    let ops = &sched.ranks[rank as usize];

    let mut tracker = MemoryTracker::new(1);
    let pool = PoolId(0);
    let mut live = vec![false; v as usize];
    // Count backwards per chunk to find each chunk's final backward
    // (ZeRO-1 frees at optimizer time = end of step) and, for ZeRO-2,
    // the last *consecutive* backward of each round.
    let mut seen_bwd = vec![0u32; v as usize];
    let ends = program.rank_ops(rank).map(|i| sim.end[i][0]);
    let end_of_step = ends.max().unwrap_or_default();
    for (op, i) in ops.iter().zip(program.rank_ops(rank)) {
        let (start, end) = (sim.start[i], sim.end[i][0]);
        if let PpOp::Backward { chunk, mb } = op {
            let c = *chunk as usize;
            if !live[c] {
                live[c] = true;
                tracker.record(pool, start, 1);
            }
            seen_bwd[c] += 1;
            let reshard = match zero {
                // ZeRO-2: reduce-scatter after the last micro-batch of
                // each nc-round for this chunk.
                ZeroMode::Zero2 | ZeroMode::Zero3 => (*mb + 1) % sched.nc == 0 || *mb + 1 == nmb,
                // ZeRO-1: a single reduce-scatter at step end.
                ZeroMode::Zero1 => false,
            };
            if reshard {
                tracker.record(pool, end, -1);
                live[c] = false;
            }
        }
    }
    for (c, l) in live.iter().enumerate() {
        if *l {
            tracker.record(pool, end_of_step, -1);
            let _ = c;
        }
    }
    let peak = tracker.peak(pool);
    let timeline = tracker
        .timeline(pool)
        .into_iter()
        .map(|s| (s.at.as_nanos(), s.bytes))
        .collect();
    (peak, timeline)
}

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut t = Table::new(
        "Fig 4 — peak unsharded gradient buffers on rank 0 (pp=4, v=4, nmb=8); paper: Z1 holds all stages, 1F1B+Z2 reshards per round",
        &["schedule", "zero", "peak grad buffers", "memory events"],
    );
    for (name, kind, zero) in [
        ("1F1B", ScheduleKind::Interleaved1F1B, ZeroMode::Zero1),
        ("all-F-all-B", ScheduleKind::AllFwdAllBwd, ZeroMode::Zero1),
        ("all-F-all-B", ScheduleKind::AllFwdAllBwd, ZeroMode::Zero2),
        ("1F1B", ScheduleKind::Interleaved1F1B, ZeroMode::Zero2),
    ] {
        let (peak, timeline) = grad_memory_profile(kind, zero);
        t.row(&[
            name.to_string(),
            format!("{zero:?}"),
            peak.to_string(),
            timeline.len().to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero1_keeps_all_stage_grads_resident() {
        let (peak, _) = grad_memory_profile(ScheduleKind::Interleaved1F1B, ZeroMode::Zero1);
        assert_eq!(peak, 4, "all v=4 chunks resident");
    }

    #[test]
    fn zero2_1f1b_reshards_early() {
        let (peak_z2, _) = grad_memory_profile(ScheduleKind::Interleaved1F1B, ZeroMode::Zero2);
        let (peak_z1, _) = grad_memory_profile(ScheduleKind::Interleaved1F1B, ZeroMode::Zero1);
        assert!(
            peak_z2 < peak_z1,
            "ZeRO-2 residency {peak_z2} should be below ZeRO-1 {peak_z1}"
        );
    }

    #[test]
    fn afab_gives_each_chunk_one_accumulation_window() {
        // Fig 4b: in all-forward-all-backward each chunk's backwards
        // are consecutive, so ZeRO-2 resharding never holds more than
        // one unsharded buffer — at or below the 1F1B+Z2 residency.
        let (afab_z2, _) = grad_memory_profile(ScheduleKind::AllFwdAllBwd, ZeroMode::Zero2);
        let (f1b_z2, _) = grad_memory_profile(ScheduleKind::Interleaved1F1B, ZeroMode::Zero2);
        assert!(afab_z2 <= f1b_z2);
        // ZeRO-1 keeps everything until the end regardless of schedule.
        let (afab_z1, _) = grad_memory_profile(ScheduleKind::AllFwdAllBwd, ZeroMode::Zero1);
        let (f1b_z1, _) = grad_memory_profile(ScheduleKind::Interleaved1F1B, ZeroMode::Zero1);
        assert_eq!(afab_z1, f1b_z1);
    }

    #[test]
    fn report_renders() {
        assert!(run().contains("peak grad buffers"));
    }
}
