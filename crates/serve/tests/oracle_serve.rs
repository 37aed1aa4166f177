//! The serve conformance oracle (oracle 11; the others live in
//! `conformance::oracles`): for every config in the 64-point
//! conformance grid, the HTTP daemon's response must be byte-identical
//! to a direct `Dispatcher::dispatch` — both on a cold cache (first
//! pass computes every config) and on the shared warm cache (second
//! pass must serve memoized responses, still identical) — and so must
//! every reply to concurrent clients replaying a mixed grid + search
//! workload, and every search reply narrowed from a wider one.
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

#[test]
fn narrowed_search_replies_equal_a_direct_dispatch() {
    // A dispatcher that answered a wider `max_cp` derives the narrower
    // reply from the cached outcomes: for training that replays the
    // bounded walk, and the serving enumerator has no CP axis at all.
    // Either way the bytes must equal a fresh dispatcher's.
    let infer = |max_cp| SearchQuery {
        model: "8b".into(),
        gpus: 64,
        max_cp,
        workload: Workload::Inference,
        ..SearchQuery::default()
    };
    for (wide, narrow) in [
        (infer(4), infer(2)),
        (small_search(4), small_search(2)),
        (small_search(4), small_search(1)),
    ] {
        let reused = Dispatcher::new();
        reused.dispatch(&Query::Search(wide)).expect("wide search");
        let narrow = Query::Search(narrow);
        let derived = reused
            .dispatch(&narrow)
            .expect("narrowed search")
            .render_wire();
        assert_eq!(reused.stats().frontier_reuses, 1, "{}", narrow.to_wire());
        let direct = Dispatcher::new()
            .dispatch(&narrow)
            .expect("direct search")
            .render_wire();
        assert_eq!(derived, direct, "{}", narrow.to_wire());
    }
}

/// The mixed workload every client replays, in order: one wide search
/// (the herd coalesces onto a single funnel run), the full 64-config
/// conformance grid, two narrower searches (frontier reuse) and a
/// `threads` variant (canonical-hash normalization).
fn mixed_workload() -> Vec<Query> {
    let mut queries = vec![Query::Search(small_search(4))];
    queries.extend((0..GRID_CONFIGS).map(|i| Query::Analyze(AnalyzeMode::GridIndex(i))));
    queries.push(Query::Search(small_search(2)));
    queries.push(Query::Search(small_search(1)));
    queries.push(Query::Search(SearchQuery {
        threads: 2,
        ..small_search(4)
    }));
    queries
}

#[test]
fn workload_is_mixed_and_parseable() {
    let w: Vec<String> = mixed_workload().iter().map(Query::to_wire).collect();
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

/// Concurrent clients on one daemon: every reply to the mixed workload
/// is HTTP 200 and byte-identical to a cold direct dispatch, the wide
/// search runs the funnel once for the whole herd, and the two narrower
/// searches reuse its frontier.
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
    assert_eq!(
        s.searches_computed, 1,
        "the wide search must run once for the herd"
    );
    assert_eq!(
        s.frontier_reuses, 2,
        "each narrower search reuses the wide frontier once"
    );
}
