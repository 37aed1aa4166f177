//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones, and the spans are written to `perfbench/out/`.

use perfbench::span::Tracer;
use perfbench::{run_traced, run_untraced, sys, unit_of, Workload};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (want train_step|search|serve_day|daemon)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (want 0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    sys::single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let host = sys::HostSnap::now();
    let out = if args.trace {
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut out = run_traced(args.workload, args.seed, &mut tr);
        let d = host.diag();
        out.set("proc.runq_wait_ms", d.runq_wait_ms);
        out.set("host.steal_ms", d.steal_ms);
        out.set("proc.wall_over_cpu", d.wall_over_cpu);
        println!("{name}: spans by name (count, total ms, self ms)");
        for (span, n, total, own) in tr.summary() {
            println!("  {span:<24} {n:>6} {total:>12.3} {own:>12.3}");
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{name}-seed{}.spans.jsonl", args.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl())) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
        if let Some(o) = out.get("trace.overhead_pct") {
            println!("tracing overhead: {o:+.2}% (traced against untraced)");
        }
        out
    } else {
        let out = run_untraced(args.workload, args.seed, args.seconds);
        let d = host.diag();
        println!(
            "host: runq wait {:.1} ms, steal {:.1} ms, wall/cpu {:.3}",
            d.runq_wait_ms, d.steal_ms, d.wall_over_cpu
        );
        out
    };
    for (metric, value) in out.metrics() {
        println!(
            "{name:<10} {metric:<28} {value:>16.6} {}",
            unit_of(metric).unwrap_or("")
        );
    }
    println!(
        "{name:<10} attempted {} failed {}",
        out.attempted, out.failed
    );
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
