//! The serve conformance oracle (oracle 11, numbered after the ten in
//! `conformance::oracles`): for every config in the 64-point
//! conformance grid, the HTTP daemon's response must be byte-identical
//! to a direct `Dispatcher::dispatch` — both on a cold cache (first
//! pass computes every config) and on the shared warm cache (second
//! pass must serve memoized responses, still identical).
//!
//! It lives here rather than in `crates/conformance` because the
//! dependency arrow points the other way: serve sits above conformance
//! in the workspace layering.

use parallelism_core::query::{AnalyzeMode, Query};
use serve::{Dispatcher, ServeClient, Server};
use std::sync::Arc;

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
        assert_eq!(body, direct, "grid {i}: served response diverges from direct dispatch");
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
        assert_eq!(&body, expected, "grid {i}: warm response diverges from cold");
    }
    let warm = dispatcher.stats();
    assert_eq!(warm.queries, 2 * GRID_CONFIGS as u64);
    assert_eq!(
        warm.response_hits, GRID_CONFIGS as u64,
        "second pass must be served from the shared response cache"
    );

    server.stop();
}
