//! The serve conformance oracle (oracle 11; the others live in
//! `conformance::oracles`): for every config in the 64-point
//! conformance grid, the HTTP daemon's response must be byte-identical
//! to a direct `Dispatcher::dispatch` — both on a cold cache (first
//! pass computes every config) and on the shared warm cache (second
//! pass must serve memoized responses, still identical) — and so must
//! every reply to concurrent clients replaying a mixed grid + search
//! workload.
//!
//! It lives here rather than in `crates/conformance` because the
//! dependency arrow points the other way: serve sits above conformance
//! in the workspace layering.

use parallelism_core::query::{AnalyzeMode, Query, SearchQuery};
use parallelism_core::Workload;
use serve::{Dispatcher, ServeClient, Server};
use std::sync::{Arc, Barrier};

const GRID_CONFIGS: usize = 64;

#[test]
fn oracle_serve_matches_direct_dispatch_cold_and_warm() {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server =
        Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let mut client = ServeClient::connect(&addr).expect("connect");

    // The reference dispatcher is cold and independent: byte-equality
    // against it proves the server's caches never change an answer.
    let reference = Dispatcher::new();

    let mut first_pass = Vec::with_capacity(GRID_CONFIGS);
    for i in 0..GRID_CONFIGS {
        let query = Query::Analyze(AnalyzeMode::GridIndex(i));
        let (status, body) = client.query(&query.to_wire()).expect("query");
        assert_eq!(status, 200, "grid {i}");
        let direct = reference
            .dispatch(&query)
            .expect("direct dispatch")
            .render_wire();
        assert_eq!(
            body, direct,
            "grid {i}: served response diverges from direct dispatch"
        );
        first_pass.push(body);
    }
    let cold = dispatcher.stats();
    assert_eq!(cold.queries, GRID_CONFIGS as u64);
    assert_eq!(cold.response_hits, 0, "first pass must compute cold");

    // Second pass: every config again, now against the warm shared
    // cache. Same bytes, and all served from the response memo.
    for (i, expected) in first_pass.iter().enumerate() {
        let query = Query::Analyze(AnalyzeMode::GridIndex(i));
        let (status, body) = client.query(&query.to_wire()).expect("query");
        assert_eq!(status, 200, "grid {i} (warm)");
        assert_eq!(
            &body, expected,
            "grid {i}: warm response diverges from cold"
        );
    }
    let warm = dispatcher.stats();
    assert_eq!(warm.queries, 2 * GRID_CONFIGS as u64);
    assert_eq!(
        warm.response_hits, GRID_CONFIGS as u64,
        "second pass must be served from the shared response cache"
    );

    server.stop();
}

/// Concurrent socket clients replaying [`mixed_workload`].
const CLIENTS: usize = 8;

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

/// The mixed workload every client replays, in order: one wide search
/// (the herd coalesces onto a single funnel run), the full 64-config
/// conformance grid, two narrower searches, a `threads` variant
/// (canonical-hash normalization) and a serving-mesh search.
fn mixed_workload() -> Vec<Query> {
    let mut queries = vec![Query::Search(small_search(4))];
    queries.extend((0..GRID_CONFIGS).map(|i| Query::Analyze(AnalyzeMode::GridIndex(i))));
    queries.push(Query::Search(small_search(2)));
    queries.push(Query::Search(small_search(1)));
    queries.push(Query::Search(SearchQuery {
        threads: 2,
        ..small_search(4)
    }));
    queries.push(Query::Search(SearchQuery {
        model: "8b".into(),
        gpus: 64,
        workload: Workload::Inference,
        ..SearchQuery::default()
    }));
    queries
}

#[test]
fn workload_is_mixed_and_parseable() {
    let w: Vec<String> = mixed_workload().iter().map(Query::to_wire).collect();
    assert_eq!(w.len(), 69);
    for line in &w {
        Query::parse_wire(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    // The threads variant canonicalizes onto the wide search.
    let wide = Query::parse_wire(&w[0]).unwrap();
    let threaded = Query::parse_wire(&w[67]).unwrap();
    assert_ne!(w[0], w[67]);
    assert_eq!(wide.canonical_hash(), threaded.canonical_hash());
}

/// Concurrent clients on one daemon: every reply to the mixed workload
/// is HTTP 200 and byte-identical to a cold direct dispatch, and each
/// distinct search runs its funnel once for the whole herd.
#[test]
fn concurrent_clients_replay_the_mixed_workload_byte_identically() {
    let dispatcher = Arc::new(Dispatcher::new());
    let mut server =
        Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let reference = Dispatcher::new();
    let workload: Arc<Vec<(String, String)>> = Arc::new(
        mixed_workload()
            .iter()
            .map(|q| {
                let direct = reference
                    .dispatch(q)
                    .expect("direct dispatch")
                    .render_wire();
                (q.to_wire(), direct)
            })
            .collect(),
    );

    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, workload, start) = (addr.clone(), Arc::clone(&workload), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                start.wait();
                for (line, direct) in workload.iter() {
                    let (status, body) = client.query(line).expect("query");
                    assert_eq!(status, 200, "client {c}: {line}");
                    assert_eq!(
                        &body, direct,
                        "client {c}: {line} diverges from direct dispatch"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    server.stop();

    let s = dispatcher.stats();
    assert_eq!(s.queries, (CLIENTS * workload.len()) as u64);
    // Four distinct searches; the `threads` variant coalesces onto the
    // wide one.
    assert_eq!(
        s.searches_computed, 4,
        "each distinct search must run once for the herd"
    );
}
