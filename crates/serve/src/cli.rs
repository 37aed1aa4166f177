//! The `llama3sim serve` subcommand: the long-running daemon plus its
//! two batteries-included harnesses.
//!
//! * default — bind `--addr` and serve until killed;
//! * `--self-test` — ephemeral port, a handful of queries over a real
//!   socket verified byte-identical against direct dispatch, clean
//!   shutdown (the `scripts/check.sh` smoke test);
//! * `--bench` — replay the mixed grid + search workload from
//!   `--clients` concurrent connections and write `BENCH_serve.json`.

use crate::client::ServeClient;
use crate::dispatch::Dispatcher;
use crate::http::Server;
use bench_harness::cli::{CliFlag, Flags, JSON};
use bench_harness::report::Report;
use bench_harness::snapshot::emit;
use parallelism_core::query::{AnalyzeMode, InferQuery, Query, Response, SearchQuery};
use parallelism_core::TrafficShape;
use std::sync::Arc;
use std::time::Instant;

/// Parsed options for the `serve` subcommand.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Listen address for daemon mode.
    pub addr: String,
    /// Run the socket-level self-test and exit.
    pub self_test: bool,
    /// Run the concurrent benchmark and write `BENCH_serve.json`.
    pub bench: bool,
    /// Concurrent client connections for `--bench`.
    pub clients: usize,
    /// Also print the benchmark JSON envelope to stdout.
    pub json: bool,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            addr: "127.0.0.1:4157".to_string(),
            self_test: false,
            bench: false,
            clients: 32,
            json: false,
        }
    }
}

impl ServeArgs {
    /// The subcommand's flags, in usage order.
    pub const FLAGS: [CliFlag; 5] = [
        CliFlag {
            name: "addr",
            value: Some("HOST:PORT"),
            help: "listen address for daemon mode",
        },
        CliFlag {
            name: "self-test",
            value: None,
            help: "socket smoke over an ephemeral port, then exit",
        },
        CliFlag {
            name: "bench",
            value: None,
            help: "replay the mixed workload -> BENCH_serve.json",
        },
        CliFlag {
            name: "clients",
            value: Some("N"),
            help: "concurrent connections for --bench",
        },
        JSON,
    ];

    /// Parses [`ServeArgs::FLAGS`].
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let [addr, self_test, bench, clients, json] = &ServeArgs::FLAGS;
        let mut f = Flags::new(args);
        let mut parsed = ServeArgs::default();
        if let Some(a) = f.opt(addr)? {
            parsed.addr = a;
        }
        parsed.self_test = f.switch(self_test);
        parsed.bench = f.switch(bench);
        if let Some(c) = f.opt_num(clients)? {
            parsed.clients = c;
        }
        parsed.json = f.switch(json);
        f.finish()?;
        if parsed.self_test && parsed.bench {
            return Err("--self-test and --bench are mutually exclusive".to_string());
        }
        if parsed.clients == 0 {
            return Err("--clients must be at least 1".to_string());
        }
        Ok(parsed)
    }
}

/// Runs the subcommand; returns the process exit code (daemon mode
/// never returns).
pub fn run(args: &ServeArgs) -> i32 {
    if args.self_test {
        return self_test();
    }
    if args.bench {
        return bench(args.clients, args.json);
    }
    serve_forever(&args.addr)
}

fn serve_forever(addr: &str) -> i32 {
    let dispatcher = Arc::new(Dispatcher::new());
    let server = match Server::start(addr, dispatcher) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!(
        "llama3sim serve: listening on {} (POST /v1/query, GET /v1/stats, GET /healthz)",
        server.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The self-test queries: cheap, deterministic, and covering the
/// catalog, the grid, the search and the inference paths.
fn self_test_queries() -> Vec<Query> {
    vec![
        Query::Analyze(AnalyzeMode::List),
        Query::Analyze(AnalyzeMode::GridIndex(0)),
        Query::Search(small_search(2)),
        Query::Infer(small_infer()),
    ]
}

fn small_search(max_cp: u32) -> SearchQuery {
    SearchQuery {
        model: "8b".into(),
        gpus: 8,
        seq: 8192,
        layers: 4,
        budget: 131_072,
        max_cp,
        ..SearchQuery::default()
    }
}

/// A five-minute 8B serving slice — cheap enough for the self-test,
/// real enough to exercise admission, prefill and decode.
fn small_infer() -> InferQuery {
    InferQuery {
        model: "8b".into(),
        gpus: 8,
        traffic: TrafficShape::Steady,
        requests_per_day: 20_000,
        horizon_s: 300,
        seed: 7,
        ..InferQuery::default()
    }
}

fn self_test() -> i32 {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server = match Server::start("127.0.0.1:0", dispatcher) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind an ephemeral port: {e}");
            return 1;
        }
    };
    let addr = server.addr().to_string();
    let mut client = match ServeClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    match client.healthz() {
        Ok((200, body)) if body == "ok\n" => {}
        other => {
            eprintln!("error: healthz: unexpected {other:?}");
            return 1;
        }
    }
    let reference = Dispatcher::new();
    let queries = self_test_queries();
    for q in &queries {
        let wire = q.to_wire();
        let (status, body) = match client.query(&wire) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {wire}: {e}");
                return 1;
            }
        };
        let expected = match reference.dispatch(q) {
            Ok(r) => r.render_wire(),
            Err(e) => Response::render_wire_error(&e),
        };
        if status != 200 || body != expected {
            eprintln!("error: {wire}: HTTP {status}, response diverges from direct dispatch");
            return 1;
        }
    }
    drop(client);
    server.stop();
    println!(
        "serve self-test: {} queries on {addr} byte-identical to direct dispatch; clean shutdown",
        queries.len()
    );
    0
}

/// The mixed benchmark workload every client replays, in order: one
/// wide search (the herd coalesces onto a single funnel run), the full
/// 64-config conformance grid, two narrower searches (frontier reuse)
/// and a `threads` variant (canonical-hash normalization).
fn mixed_workload() -> Vec<String> {
    let mut lines = vec![Query::Search(small_search(4)).to_wire()];
    for i in 0..64 {
        lines.push(Query::Analyze(AnalyzeMode::GridIndex(i)).to_wire());
    }
    lines.push(Query::Search(small_search(2)).to_wire());
    lines.push(Query::Search(small_search(1)).to_wire());
    let mut threaded = small_search(4);
    threaded.threads = 2;
    lines.push(Query::Search(threaded).to_wire());
    lines
}

fn bench(clients: usize, json: bool) -> i32 {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server = match Server::start("127.0.0.1:0", Arc::clone(&dispatcher)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind an ephemeral port: {e}");
            return 1;
        }
    };
    let addr = server.addr().to_string();
    let workload = mixed_workload();
    let per_client = workload.len();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            let workload = workload.clone();
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut c = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
                let mut lat = Vec::with_capacity(workload.len());
                for line in &workload {
                    let t = Instant::now();
                    let (status, _body) = c.query(line).map_err(|e| format!("{line}: {e}"))?;
                    if status != 200 {
                        return Err(format!("{line}: HTTP {status}"));
                    }
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(lat)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    for h in handles {
        match h.join() {
            Ok(Ok(l)) => latencies.extend(l),
            Ok(Err(e)) => {
                eprintln!("error: bench client: {e}");
                return 1;
            }
            Err(_) => {
                eprintln!("error: bench client panicked");
                return 1;
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.stop();

    latencies.sort_by(f64::total_cmp);
    let total = latencies.len();
    let pct = |p: f64| {
        let idx = ((total as f64 * p).ceil() as usize).saturating_sub(1);
        latencies[idx.min(total - 1)]
    };
    let (p50, p99) = (pct(0.50), pct(0.99));
    let qps = total as f64 / (wall_ms / 1e3).max(1e-9);
    let s = dispatcher.stats();
    let response_hit_rate = s.response_hits as f64 / (s.queries.max(1)) as f64;

    println!("serve bench: {clients} clients x {per_client} requests on {addr}");
    println!("total                       {total:9} requests in {wall_ms:9.0} ms");
    println!("qps                         {qps:9.1}");
    println!("p50 latency                 {p50:9.2} ms");
    println!("p99 latency                 {p99:9.2} ms");
    println!("coalesced in-flight         {:9}", s.coalesced);
    println!(
        "response-cache hits         {:9}   ({:.1}% of queries)",
        s.response_hits,
        response_hit_rate * 100.0
    );
    println!("searches computed           {:9}", s.searches_computed);
    println!("frontier reuses             {:9}", s.frontier_reuses);
    println!("cost-cache hit rate         {:9.4}", s.cost.hit_rate());

    let envelope = Report::new("serve")
        .config("clients", clients)
        .config("requests_per_client", per_client)
        .config_str(
            "workload",
            "64-config conformance grid + mixed-max_cp 8b searches",
        )
        .metric("wall_ms", format!("{wall_ms:.3}"))
        .metric("requests", total)
        .metric("qps", format!("{qps:.1}"))
        .metric("p50_ms", format!("{p50:.3}"))
        .metric("p99_ms", format!("{p99:.3}"))
        .metric("queries", s.queries)
        .metric("coalesced", s.coalesced)
        .metric("response_cache_hits", s.response_hits)
        .metric("response_hit_rate", format!("{response_hit_rate:.4}"))
        .metric("searches_computed", s.searches_computed)
        .metric("frontier_reuses", s.frontier_reuses)
        .metric("cost_cache_hit_rate", format!("{:.4}", s.cost.hit_rate()));
    emit(&envelope, "BENCH_serve.json", json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_the_surface() {
        let a = ServeArgs::parse(&args(&["--addr", "127.0.0.1:9000", "--bench", "--clients", "8", "--json"])).unwrap();
        assert_eq!(a.addr, "127.0.0.1:9000");
        assert!(a.bench && a.json && !a.self_test);
        assert_eq!(a.clients, 8);
        assert!(ServeArgs::parse(&args(&["--self-test", "--bench"])).is_err());
        assert!(ServeArgs::parse(&args(&["--clients", "0"])).is_err());
        assert!(ServeArgs::parse(&args(&["--port", "1"])).is_err());
        let d = ServeArgs::parse(&args(&[])).unwrap();
        assert_eq!(d.clients, 32);
        assert!(!d.self_test && !d.bench);
    }

    #[test]
    fn workload_is_mixed_and_parseable() {
        let w = mixed_workload();
        assert_eq!(w.len(), 68);
        for line in &w {
            Query::parse_wire(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // The threads variant canonicalizes onto the wide search.
        let wide = Query::parse_wire(&w[0]).unwrap();
        let threaded = Query::parse_wire(&w[67]).unwrap();
        assert_ne!(w[0], w[67]);
        assert_eq!(wide.canonical_hash(), threaded.canonical_hash());
    }
}
