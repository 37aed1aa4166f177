//! `llama3sim` — the multi-command CLI.
//!
//! Every subcommand is a thin front end over the versioned query API
//! ([`parallelism_core::query`]): flags parse into a [`Query`], a
//! shared [`serve::Dispatcher`] executes it, and the payload prints
//! through the same [`Response`] renderers the HTTP daemon serves —
//! so `llama3sim search ...` and `POST /v1/query` are byte-identical
//! by construction. Every answer is a pure function of its query, and
//! the CLI prints no timings: wall-clock lives in `perfbench/`.
//!
//! There is one grammar. A query's flags come from its field table:
//! wire key `k` is flag `--k` (with `_` written as `-`) and takes
//! exactly the wire value, a `bool` key is a bare switch, and a `mode`
//! key is one bare switch per variant (`trace --stats|--smoke`,
//! `analyze --list|--grid`). The few CLI-only flags — `--json`,
//! `infer --grid` and the `serve` options — only shape how a result is
//! printed or served, and live on [`bench_harness::cli::Flags`].
//! `llama3sim --help` prints every subcommand's flags, generated from
//! those same tables.

use analyzer::NAMED_CONFIGS;
use bench_harness::cli::{out, outln, CliFlag, Flags, JSON};
use bench_harness::snapshot::{
    emit, goodput_envelope, infer_envelope, search_envelope, trace_envelope,
};
use conformance::fuzz::run_sweep;
use parallelism_core::query::{
    AnalyzeMode, FuzzQuery, InferQuery, Query, Record, Response, SearchQuery, TraceQuery,
};
use parallelism_core::TrafficShape;
use serve::cli::ServeArgs;
use serve::Dispatcher;

/// One subcommand: its summary, its flags and its runner.
struct Command {
    name: &'static str,
    about: &'static str,
    /// The query flags' usage lines, from the query's field table.
    query_flags: fn() -> Vec<(String, String)>,
    /// The CLI-only flags.
    cli_flags: &'static [CliFlag],
    run: fn(&[String]) -> Result<i32, String>,
}

const ANALYZE_JSON: CliFlag = CliFlag {
    help: "one JSON object per diagnostic instead of text",
    ..JSON
};
const LINT_JSON: CliFlag = CliFlag {
    help: "one JSON object per finding instead of text",
    ..JSON
};
const INFER_GRID: CliFlag = CliFlag {
    name: "grid",
    value: None,
    help: "sweep all three traffic shapes into one envelope",
};

const COMMANDS: [Command; 8] = [
    Command {
        name: "analyze",
        about: "pre-flight static analysis (no simulation)",
        query_flags: AnalyzeMode::usage,
        cli_flags: &[ANALYZE_JSON],
        run: run_analyze,
    },
    Command {
        name: "fuzz",
        about: "seeded conformance fuzz sweep",
        query_flags: FuzzQuery::usage,
        cli_flags: &[],
        run: run_fuzz,
    },
    Command {
        name: "goodput",
        about: "seeded 24 h goodput snapshot -> BENCH_goodput.json",
        query_flags: Vec::new,
        cli_flags: &[JSON],
        run: run_goodput,
    },
    Command {
        name: "search",
        about: "Pareto auto-parallelism search -> BENCH_search.json",
        query_flags: SearchQuery::usage,
        cli_flags: &[JSON],
        run: run_search,
    },
    Command {
        name: "infer",
        about: "continuous-batching serving simulation -> BENCH_infer.json",
        query_flags: InferQuery::usage,
        cli_flags: &[INFER_GRID, JSON],
        run: run_infer_cmd,
    },
    Command {
        name: "trace",
        about: "tiered-trace export of a simulated multi-day run (chrome-trace JSON)",
        query_flags: TraceQuery::usage,
        cli_flags: &[JSON],
        run: run_trace,
    },
    Command {
        name: "serve",
        about: "HTTP daemon exposing the query API -> POST /v1/query",
        query_flags: Vec::new,
        cli_flags: &ServeArgs::FLAGS,
        run: |rest| Ok(serve::cli::run(&ServeArgs::parse(rest)?)),
    },
    Command {
        name: "lint",
        about: "static analysis of the workspace sources (exit 1 on findings)",
        query_flags: Vec::new,
        cli_flags: &[LINT_JSON],
        run: run_lint,
    },
];

/// One command's usage block: the summary, then a line per flag.
fn command_usage(c: &Command) -> String {
    let mut out = format!("  {:<9} {}\n", c.name, c.about);
    let cli = c.cli_flags.iter().map(CliFlag::usage);
    for (flags, help) in (c.query_flags)().into_iter().chain(cli) {
        out.push_str(&format!("            {flags:<24} {help}\n"));
    }
    out
}

fn usage() -> String {
    let mut out = "usage: llama3sim <command> [flags]\n\ncommands:\n".to_string();
    for c in &COMMANDS {
        out.push_str(&command_usage(c));
    }
    out
}

fn run_analyze(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch(&ANALYZE_JSON);
    let mode = f.query(AnalyzeMode::from_args)?;
    let list = mode == AnalyzeMode::List;
    let response = match Dispatcher::new().dispatch(&Query::Analyze(mode)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("\nnamed configs:");
            for (name, desc) in NAMED_CONFIGS {
                eprintln!("  {name:<22} {desc}");
            }
            return Ok(2);
        }
    };
    let Response::Analyze(payload) = &response else {
        return Err("analyze dispatch returned a non-analyze response".to_string());
    };
    if json && !list {
        let jsonl = payload.render_jsonl();
        if !jsonl.is_empty() {
            outln(jsonl);
        }
    } else {
        outln(response.render_human());
    }
    Ok(response.exit_code())
}

fn run_fuzz(rest: &[String]) -> Result<i32, String> {
    let query = Flags::new(rest).query(FuzzQuery::from_args)?;
    // The heartbeat streams to stderr mid-sweep, which a one-shot
    // dispatch cannot carry, so the CLI drives the sweep itself and
    // renders through the same response type the dispatcher returns.
    let outcome = run_sweep(&query, |clean| {
        eprintln!("conformance fuzz: {clean}/{} cases clean", query.cases);
    });
    let payload = outcome.into_response();
    if let Some(diag) = payload.render_diagnostics() {
        eprintln!("{diag}");
    }
    let response = Response::Fuzz(payload);
    outln(response.render_human());
    Ok(response.exit_code())
}

fn run_goodput(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch(&JSON);
    f.finish()?;
    let response = Dispatcher::new()
        .dispatch(&Query::Goodput)
        .map_err(|e| e.to_string())?;
    let Response::Goodput(r) = &response else {
        return Err("goodput dispatch returned a non-goodput response".to_string());
    };
    outln(format_args!("{}\n", response.render_human()));
    Ok(emit(&goodput_envelope(r), "BENCH_goodput.json", json))
}

fn run_search(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch(&JSON);
    let query = f.query(SearchQuery::from_args)?;
    let response = match Dispatcher::new().dispatch(&Query::Search(query.clone())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            // A plan-level failure keeps the search exit code; anything
            // else (bad model name, bad flags) is a usage error.
            return Ok(if e.to_string().starts_with("search failed") {
                1
            } else {
                2
            });
        }
    };
    let Response::Search(r) = &response else {
        return Err("search dispatch returned a non-search response".to_string());
    };
    outln(response.render_human());

    let spec = query.to_spec().map_err(|e| e.to_string())?;
    let mut envelope = search_envelope(&query, &spec, &r.report);
    let mut code = 0;
    if let Some((tp, cp, pp, dp)) = query.expect {
        let hit = r.expect_hit == Some(true);
        envelope = envelope.metric("expected_mesh_on_frontier", hit);
        if hit {
            outln(format_args!(
                "expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is on the frontier"
            ));
        } else {
            eprintln!("error: expected mesh tp{tp}·cp{cp}·pp{pp}·dp{dp} is NOT on the frontier");
            code = 1;
        }
    }
    Ok(emit(&envelope, "BENCH_search.json", json).max(code))
}

fn run_infer_cmd(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let grid = f.switch(&INFER_GRID);
    let json = f.switch(&JSON);
    let query = f.query(InferQuery::from_args)?;
    let shapes = if grid {
        TrafficShape::ALL.to_vec()
    } else {
        vec![query.traffic]
    };
    let d = Dispatcher::new();
    let mut rows = Vec::with_capacity(shapes.len());
    for traffic in shapes {
        let q = InferQuery {
            traffic,
            ..query.clone()
        };
        let response = match d.dispatch(&Query::Infer(q.clone())) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: infer: {e}");
                return Ok(1);
            }
        };
        outln(format_args!("{}\n", response.render_human()));
        let Response::Infer(r) = response else {
            return Err("infer dispatch returned a non-infer response".to_string());
        };
        // Grid runs double as the thread-invariance smoke: the first
        // shape is re-simulated single-threaded, on a fresh dispatcher
        // (`canonical_hash` ignores `threads`, so `d` would answer from
        // its cache), and must reproduce the report bit-identically.
        if grid && rows.is_empty() {
            let serial = Dispatcher::new().dispatch(&Query::Infer(InferQuery { threads: 1, ..q }));
            if !matches!(&serial, Ok(Response::Infer(s)) if s.report == r.report) {
                let threads = query.threads;
                eprintln!("error: infer: threads=1 re-simulation diverged from threads={threads}");
                return Ok(1);
            }
            outln("thread-invariance check: serial re-simulation bit-identical\n");
        }
        rows.push(*r);
    }
    let code = i32::from(rows.iter().all(|r| r.report.completed == 0));
    Ok(emit(&infer_envelope(&query, &rows), "BENCH_infer.json", json).max(code))
}

fn run_trace(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch(&JSON);
    let query = f.query(TraceQuery::from_args)?;
    let response = match Dispatcher::new().dispatch(&Query::Trace(query.clone())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(2);
        }
    };
    let Response::Trace(r) = &response else {
        return Err("trace dispatch returned a non-trace response".to_string());
    };
    outln(response.render_human());
    let code = emit(&trace_envelope(&query, r), "BENCH_trace.json", json);
    Ok(code.max(response.exit_code()))
}

fn run_lint(rest: &[String]) -> Result<i32, String> {
    let mut f = Flags::new(rest);
    let json = f.switch(&LINT_JSON);
    f.finish()?;
    let report = lint::lint_repo(&lint::repo_root());
    for d in &report.diagnostics {
        if json {
            outln(d.to_json_line());
        } else {
            outln(d.render_human());
        }
    }
    if report.clean() {
        eprintln!("lint: {} library sources clean", report.files);
        Ok(0)
    } else {
        eprintln!(
            "lint: {} violation(s) across {} library sources",
            report.diagnostics.len(),
            report.files
        );
        Ok(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        None => {
            eprint!("{}", usage());
            2
        }
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            out(usage());
            0
        }
        Some((cmd, rest)) => match COMMANDS.iter().find(|c| c.name == cmd) {
            None => {
                eprint!("llama3sim: unknown command {cmd:?}\n\n{}", usage());
                2
            }
            Some(c) => (c.run)(rest).unwrap_or_else(|e| {
                eprint!(
                    "llama3sim {cmd}: {e}\n\nusage: llama3sim {cmd} [flags]\n{}",
                    command_usage(c)
                );
                2
            }),
        },
    };
    std::process::exit(code);
}
