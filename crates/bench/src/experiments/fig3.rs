//! Fig 3: exposed P2P bubbles in 1F1B, hidden by extra warm-up
//! micro-batches (`nc > pp`).

use crate::report::Table;
use parallelism_core::pp::schedule::{PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::{PpProgram, PpTiming, TableCosts};
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
    // One program per nc; each P2P cost is a binding of it.
    let programs = [4u32, 6, 8, 12].map(|nc| {
        let sched =
            PpSchedule::build(ScheduleKind::Flexible { nc }, pp, v, nmb).expect("valid schedule");
        (nc, PpProgram::compile(&sched).expect("deadlock-free"))
    });
    let mut r = PpTiming::default();
    for p2p_ratio in [0.0f64, 0.2, 0.6, 1.0] {
        let costs = TableCosts::uniform(pp * v, fwd, bwd, fwd.scale(p2p_ratio));
        let mut cells = vec![format!("{p2p_ratio:.1}")];
        let mut best = (0u32, SimDuration::MAX);
        for (nc, program) in &programs {
            program.run(&costs, &[], &mut r);
            let [makespan] = r.makespan;
            if makespan < best.1 {
                best = (*nc, makespan);
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
        let us = SimDuration::from_micros;
        let costs = TableCosts::uniform(8, us(100), us(200), us(60));
        let make = |nc| {
            let s = PpSchedule::build(ScheduleKind::Flexible { nc }, 4, 2, 12).unwrap();
            let mut r = PpTiming::default();
            PpProgram::compile(&s).unwrap().run(&costs, &[], &mut r);
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
