//! Visualize pipeline schedules: render the paper's Fig 2 configuration
//! (3 ranks, 2 virtual stages, 6 micro-batches, nc = 3) as an ASCII
//! timeline and export a production step's schedule to chrome://tracing.
//!
//! ```sh
//! cargo run --release --example schedule_timeline
//! ```

use llama3_parallelism::prelude::*;

fn render_ascii(sched: &PpSchedule, program: &PpProgram, t: &PpTiming) {
    let span = t.makespan[0].as_nanos().max(1);
    let width = 96usize;
    for (rank, ops) in (0..).zip(&sched.ranks) {
        let mut row = vec![' '; width];
        for (op, i) in ops.iter().zip(program.rank_ops(rank)) {
            let (start, end) = (t.start[i].as_nanos(), t.end[i][0].as_nanos());
            let a = (start as u128 * width as u128 / span as u128) as usize;
            let b = ((end as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
            let ch = if op.is_forward() {
                char::from_digit(op.chunk(), 10).unwrap_or('F')
            } else {
                // Backwards rendered as letters: a = chunk 0, b = chunk 1…
                (b'a' + op.chunk() as u8) as char
            };
            for cell in row.iter_mut().take(b).skip(a) {
                *cell = ch;
            }
        }
        println!("rank {rank} |{}|", row.iter().collect::<String>());
    }
    println!(
        "         digits = forward (chunk id), letters = backward (a = chunk 0); width = {}",
        t.makespan[0]
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig 2: a 6-layer model on 3 ranks, v = 2, 6 micro-batches, nc = 3.
    println!("Fig 2 schedule (pp=3, v=2, nmb=6, nc=3), 1F1B with warm-up:\n");
    let sched = PpSchedule::build(ScheduleKind::Flexible { nc: 3 }, 3, 2, 6)?;
    let us = SimDuration::from_micros;
    let costs = TableCosts::uniform(sched.num_stages(), us(100), us(200), us(10));
    let program = PpProgram::compile(&sched)?;
    let mut t = PpTiming::default();
    program.run(&costs, &[], &mut t);
    render_ascii(&sched, &program, &t);
    println!(
        "\nbubble ratios per rank: {:?}",
        (0..3)
            .map(|r| format!("{:.1} %", t.bubble_ratio(0, r) * 100.0))
            .collect::<Vec<_>>()
    );

    // The same pipeline as all-forward-all-backward, for contrast.
    println!("\nall-forward-all-backward on the same problem:\n");
    let afab = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 3, 2, 6)?;
    let afab_program = PpProgram::compile(&afab)?;
    afab_program.run(&costs, &[], &mut t);
    render_ascii(&afab, &afab_program, &t);

    // Export a production-scale step to chrome://tracing.
    use bench_support::production_short_context;
    mod bench_support {
        // A local copy of the production config to keep the example
        // self-contained with the facade crate only.
        use llama3_parallelism::prelude::*;

        pub fn production_short_context() -> StepModel {
            let cfg = TransformerConfig::llama3_405b().with_layers(128);
            let layout = ModelLayout::text(cfg);
            let mesh = Mesh4D::new(8, 1, 16, 128);
            let assignment =
                StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
            StepModel {
                cluster: Cluster::llama3(mesh.num_gpus()),
                mesh,
                layout,
                assignment,
                schedule: ScheduleKind::AllFwdAllBwd,
                zero: ZeroMode::Zero2,
                bs: 16,
                seq: 8192,
                mask: MaskSpec::Causal,
                recompute: false,
            }
        }
    }
    let outcome = production_short_context().run(&SimOptions::new().trace(true))?;
    let (report, trace) = (outcome.report, outcome.trace.expect("trace requested"));
    let path = std::env::temp_dir().join("llama3_production_step.json");
    std::fs::write(&path, to_chrome_json(&trace)?)?;
    println!(
        "\nproduction 405B step ({} events, {:.0} TFLOPs/GPU) exported to {}",
        trace.len(),
        report.tflops_per_gpu,
        path.display()
    );
    Ok(())
}
