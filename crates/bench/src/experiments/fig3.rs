//! Fig 3: exposed P2P bubbles in 1F1B, hidden by extra warm-up
//! micro-batches (`nc > pp`).

use crate::report::Table;
use parallelism_core::pp::schedule::{PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::{PpProgram, PpTiming, UniformCosts};
use sim_engine::time::SimDuration;

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let pp = 4u32;
    let v = 2u32;
    let nmb = 12u32;
    let fwd = SimDuration::from_micros(100);
    let bwd = SimDuration::from_micros(200);
    let mut t = Table::new(
        "Fig 3 — makespan vs nc as P2P cost grows (pp=4, v=2, nmb=12); paper: extra warm-up micro-batches hide exposed P2P",
        &["p2p/fwd", "nc=4 (1F1B)", "nc=6", "nc=8", "nc=12", "best nc"],
    );
    for p2p_ratio in [0.0f64, 0.2, 0.6, 1.0] {
        let p2p = fwd.scale(p2p_ratio);
        let costs = UniformCosts { fwd, bwd, p2p };
        let mut cells = vec![format!("{p2p_ratio:.1}")];
        let mut best = (0u32, SimDuration::MAX);
        for nc in [4u32, 6, 8, 12] {
            let sched = PpSchedule::build(ScheduleKind::Flexible { nc }, pp, v, nmb)
                .expect("valid schedule");
            let mut r = PpTiming::default();
            PpProgram::compile(&sched, &costs)
                .expect("deadlock-free")
                .run(&[], &mut r);
            let [makespan] = r.makespan;
            if makespan < best.1 {
                best = (nc, makespan);
            }
            cells.push(format!("{makespan}"));
        }
        cells.push(best.0.to_string());
        t.row(&cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expensive_p2p_prefers_larger_nc() {
        // With costly P2P, some nc > pp beats nc = pp (Fig 3b).
        let costs = UniformCosts {
            fwd: SimDuration::from_micros(100),
            bwd: SimDuration::from_micros(200),
            p2p: SimDuration::from_micros(60),
        };
        let make = |nc| {
            let s = PpSchedule::build(ScheduleKind::Flexible { nc }, 4, 2, 12).unwrap();
            let mut r = PpTiming::default();
            PpProgram::compile(&s, &costs).unwrap().run(&[], &mut r);
            r.makespan[0]
        };
        assert!(make(6) < make(4));
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("best nc"));
    }
}
