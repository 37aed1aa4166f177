//! The shared query dispatcher: one computation per distinct question.
//!
//! Every front end — the CLI subcommands, the HTTP daemon, the tests —
//! answers a [`Query`] through [`Dispatcher::dispatch`], which layers
//! two reuse mechanisms over the raw computations:
//!
//! 1. **Response cache.** Every answer but `stats` is a pure function
//!    of its query, memoized by [`Query::canonical_hash`] in a bounded
//!    FIFO map, so a repeated question is a lookup.
//! 2. **In-flight coalescing.** Identical queries arriving while the
//!    first is still computing block on one shared flight instead of
//!    recomputing: a thundering herd of N clients costs one search.
//!    The canonical hash normalizes the `threads` execution hint away
//!    first. The leader re-checks the response cache before computing,
//!    so a caller that missed the cache just before the previous
//!    leader filled it does not compute again.
//!
//! A search is answered like every other kind: a miss runs [`search`]
//! (funnel stages 1–4) on the query's own spec.
//!
//! `stats` reads live counters, so it is the one kind computed fresh on
//! every dispatch and never cached or coalesced. No answer carries
//! wall-clock: timing is measured outside, by `perfbench/`.
//!
//! Underneath all of this sit the process-global memo layers (the
//! collective-cost cache and the three pre-flight verdict caches), so
//! even a *cold* dispatcher warm-starts from whatever earlier queries
//! priced.

use crate::coalesce::{cached_run_or_follow, BoundedFifoCache, CachedOutcome, FlightMap};
use analyzer::{analyze_grid, analyze_step, named_step, NAMED_CONFIGS};
use bench_harness::snapshot::measure_goodput;
use cluster_model::faults::{FaultRates, FaultTimeline};
use collectives::cost_cache_stats;
use conformance::fuzz::run_sweep;
use conformance::grid::config_grid;
use interleave::sync::{AtomicU64, Mutex};
use parallelism_core::query::{
    AnalyzeMode, AnalyzeResponse, InferQuery, InferResponse, Query, QueryError, Response,
    SearchQuery, SearchResponse, StatsResponse, TraceMode, TraceQuery, TraceResponse,
};
use parallelism_core::run::{CheckpointPolicy, RunSimulator, RunTrace};
use parallelism_core::search::{search, verdict_cache_stats};
use std::sync::atomic::Ordering;
use trace_analysis::chrome::to_chrome_json;
use trace_analysis::tiered::{TierConfig, WindowStats, CATEGORIES};

/// Bounded response cache: newest-in wins, oldest-in evicted.
const RESPONSE_CACHE_CAP: usize = 256;

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    coalesced: AtomicU64,
    response_hits: AtomicU64,
    searches_computed: AtomicU64,
}

/// The concurrent query dispatcher. Cheap to share behind an
/// [`Arc`](std::sync::Arc);
/// all interior state is synchronized (on the `interleave::sync`
/// facade, so the coalescing protocol is model-checkable — see
/// DESIGN.md §13 for the lock hierarchy these fields occupy).
pub struct Dispatcher {
    flights: FlightMap<Result<Response, QueryError>>,
    responses: Mutex<BoundedFifoCache<Response>>,
    counters: Counters,
}

impl Default for Dispatcher {
    fn default() -> Dispatcher {
        Dispatcher::new()
    }
}

impl Dispatcher {
    /// A fresh dispatcher with empty caches and zeroed counters. The
    /// process-global memo layers underneath are shared regardless.
    pub fn new() -> Dispatcher {
        Dispatcher {
            flights: FlightMap::new(),
            responses: Mutex::new(BoundedFifoCache::new(RESPONSE_CACHE_CAP)),
            counters: Counters::default(),
        }
    }

    /// Answers one query. `stats` reads the live counters; every other
    /// kind is served from the response cache when possible, coalesced
    /// onto an identical in-flight computation otherwise.
    ///
    /// # Errors
    /// A client-class [`QueryError`] on an unanswerable query (unknown
    /// config name, out-of-range grid index, unknown model, unplannable
    /// search); a server-class one when a simulation fails or the
    /// computation panics twice.
    pub fn dispatch(&self, query: &Query) -> Result<Response, QueryError> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        match query {
            Query::Stats => Ok(Response::Stats(self.stats())),
            _ => self.cached_dispatch(query),
        }
    }

    /// The cached path: response cache, then coalescing, then
    /// computation ([`cached_run_or_follow`]). A follower whose leader
    /// panicked re-dispatches once (the retry leads its own flight or
    /// follows a healthy one) and reports a server-side [`QueryError`]
    /// if the flight fails again.
    fn cached_dispatch(&self, query: &Query) -> Result<Response, QueryError> {
        let key = query.canonical_hash();
        for _attempt in 0..2 {
            let outcome =
                cached_run_or_follow(&self.responses, &self.flights, key, || self.compute(query));
            match outcome {
                CachedOutcome::Hit(result) => {
                    self.counters.response_hits.fetch_add(1, Ordering::Relaxed);
                    return result;
                }
                CachedOutcome::Computed(result) => return result,
                CachedOutcome::Followed(result) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    return result;
                }
                // Loop for the single retry; the panicked leader's own
                // unwind already cleared the flight.
                CachedOutcome::LeaderFailed => continue,
            }
        }
        Err(QueryError::server(
            "computation panicked twice; giving up (see server logs)",
        ))
    }

    /// Runs the underlying computation for a query.
    fn compute(&self, query: &Query) -> Result<Response, QueryError> {
        match query {
            Query::Analyze(mode) => Ok(Response::Analyze(compute_analyze(mode)?)),
            Query::Fuzz(f) => Ok(Response::Fuzz(run_sweep(f, |_| {}).into_response())),
            Query::Goodput => measure_goodput()
                .map(Response::Goodput)
                .map_err(|e| QueryError::server(format!("goodput: {e}"))),
            Query::Search(s) => self.compute_search(s),
            // `dispatch` answers `stats` live; the arm keeps this total.
            Query::Stats => Ok(Response::Stats(self.stats())),
            Query::Trace(t) => Ok(Response::Trace(compute_trace(t)?)),
            Query::Infer(i) => Ok(Response::Infer(Box::new(compute_infer(i)?))),
        }
    }

    /// The search path: one cold funnel on the query's own spec.
    fn compute_search(&self, q: &SearchQuery) -> Result<Response, QueryError> {
        let spec = q.to_spec()?;
        self.counters
            .searches_computed
            .fetch_add(1, Ordering::Relaxed);
        let report = search(&spec).map_err(|e| QueryError::new(format!("search failed: {e}")))?;
        let expect_hit = q
            .expect
            .map(|(tp, cp, pp, dp)| report.frontier_contains_mesh(tp, cp, pp, dp));
        Ok(Response::Search(Box::new(SearchResponse {
            report,
            expect: q.expect,
            expect_hit,
        })))
    }

    /// A snapshot of the dispatcher counters plus every shared memo
    /// layer underneath it.
    pub fn stats(&self) -> StatsResponse {
        let [sched, tp_cp, fsdp] = verdict_cache_stats();
        StatsResponse {
            queries: self.counters.queries.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            response_hits: self.counters.response_hits.load(Ordering::Relaxed),
            searches_computed: self.counters.searches_computed.load(Ordering::Relaxed),
            cost: cost_cache_stats(),
            sched,
            tp_cp,
            fsdp,
        }
    }
}

/// GPUs per node for trace fault timelines: the paper's 8-GPU hosts,
/// matching the goodput experiment.
const TRACE_GPUS_PER_NODE: u32 = 8;

/// Seconds → integer nanoseconds for window bounds.
fn secs_ns(t_s: u64) -> u64 {
    t_s.saturating_mul(1_000_000_000)
}

/// Wire tag of a category in the stats envelope (same spelling as the
/// chrome export's `cat` field).
fn cat_tag(c: trace_analysis::EventCategory) -> &'static str {
    use trace_analysis::EventCategory;
    match c {
        EventCategory::Compute => "compute",
        EventCategory::TpComm => "tp_comm",
        EventCategory::CpComm => "cp_comm",
        EventCategory::PpComm => "pp_comm",
        EventCategory::DpComm => "dp_comm",
        EventCategory::Other => "other",
    }
}

/// Computes a trace query: plan the step via §5.1, simulate the run
/// while streaming its timeline into the tiered tower, then render the
/// requested view. Fully deterministic, so the response is cacheable.
fn compute_trace(q: &TraceQuery) -> Result<TraceResponse, QueryError> {
    let step = q.to_step()?;
    let timeline = FaultTimeline::generate(
        FaultRates::llama3_production(),
        q.gpus,
        TRACE_GPUS_PER_NODE,
        q.horizon_s as f64,
        q.seed,
    )
    .map_err(|e| QueryError::new(format!("trace: {e}")))?;
    let sim = RunSimulator::new(step, timeline, CheckpointPolicy::llama3_production())
        .map_err(|e| QueryError::new(format!("trace: {e}")))?;
    let cfg = TierConfig {
        tier0_events: q.tier0 as usize,
        ..TierConfig::default()
    };
    let traced = sim
        .simulate_traced(cfg)
        .map_err(|e| QueryError::server(format!("trace: {e}")))?;

    let (ok, body) = match q.mode {
        TraceMode::Chrome => (true, render_trace_chrome(q, &sim, &traced)?),
        TraceMode::Stats => (true, render_trace_stats(q, &traced)),
        TraceMode::Smoke => render_trace_smoke(q, &sim, &traced)?,
    };
    Ok(TraceResponse {
        mode: q.mode,
        appended: traced.store.appended(),
        resident: traced.store.resident_events() as u64,
        tiers: traced.store.num_tiers() as u32,
        ok,
        body,
    })
}

/// Chrome-trace JSON of the retained timeline (or a seek window,
/// rematerialized by bounded replay when storage is coarser than the
/// requested zoom). Both paths go through [`to_chrome_json`], the
/// workspace's single chrome exporter.
fn render_trace_chrome(
    q: &TraceQuery,
    sim: &RunSimulator,
    traced: &RunTrace,
) -> Result<String, QueryError> {
    let trace = match q.window {
        Some((t0, t1)) => traced
            .store
            .window_with_replay(secs_ns(t0), secs_ns(t1), q.zoom, &traced.replayer(sim))
            .to_trace(),
        None => traced.store.sampled(q.zoom),
    };
    to_chrome_json(&trace).map_err(|e| QueryError::server(format!("trace: chrome export: {e}")))
}

/// Renders one per-category busy array as a JSON object, chrome-export
/// category spelling, fixed order.
fn busy_json(busy: &[u64]) -> String {
    let fields: Vec<String> = CATEGORIES
        .iter()
        .zip(busy.iter())
        .map(|(c, ns)| format!("\"{}\":{ns}", cat_tag(*c)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The deterministic stats JSON envelope: tier residency plus exact
/// run-wide and windowed aggregates.
fn render_trace_stats(q: &TraceQuery, traced: &RunTrace) -> String {
    let store = &traced.store;
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"model\":\"{}\",\"gpus\":{},\"seq\":{},\"horizon_s\":{},\"seed\":{}",
        q.model, q.gpus, q.seq, q.horizon_s, q.seed
    ));
    out.push_str(&format!(
        ",\"appended\":{},\"resident_events\":{},\"resident_windows\":{},\"span_ns\":{}",
        store.appended(),
        store.resident_events(),
        store.resident_windows(),
        store.span_ns()
    ));
    out.push_str(",\"tiers\":[");
    for (i, t) in store.tier_summaries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"level\":{},\"stride\":{},\"events\":{},\"windows\":{},\"raw_range\":[{},{}]}}",
            t.level, t.stride, t.events, t.windows, t.raw_range.0, t.raw_range.1
        ));
    }
    out.push(']');
    let mut busy = [0u64; CATEGORIES.len()];
    for totals in store.rank_totals().values() {
        for (b, t) in busy.iter_mut().zip(totals.iter()) {
            *b += t;
        }
    }
    out.push_str(&format!(",\"busy_ns\":{}", busy_json(&busy)));
    out.push_str(",\"window\":");
    match q.window {
        Some((t0, t1)) => match store.window_stats(secs_ns(t0), secs_ns(t1)) {
            Some(w) => out.push_str(&window_stats_json(t0, t1, &w)),
            None => out.push_str("null"),
        },
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

fn window_stats_json(t0_s: u64, t1_s: u64, w: &WindowStats) -> String {
    let mut busy = [0u64; CATEGORIES.len()];
    let mut max_gap = 0u64;
    for r in w.per_rank.values() {
        for (b, t) in busy.iter_mut().zip(r.busy_ns.iter()) {
            *b += t;
        }
        max_gap = max_gap.max(r.max_gap_ns);
    }
    format!(
        "{{\"t0_s\":{t0_s},\"t1_s\":{t1_s},\"events\":{},\"start_ns\":{},\"end_ns\":{},\
         \"max_duration_ns\":{},\"ranks\":{},\"max_gap_ns\":{max_gap},\"busy_ns\":{}}}",
        w.events,
        w.start_ns,
        w.end_ns,
        w.max_duration_ns,
        w.per_rank.len(),
        busy_json(&busy)
    )
}

/// The self-checking smoke: capture a full-resolution reference
/// (`O(N)`, deliberately — the thing the tower avoids), seek three
/// windows through the tower's bounded-replay path, and diff each
/// against the reference byte-for-byte. Reports resident vs
/// full-resolution event counts so CI logs show the `O(log N)` claim.
fn render_trace_smoke(
    q: &TraceQuery,
    sim: &RunSimulator,
    traced: &RunTrace,
) -> Result<(bool, String), QueryError> {
    let (reference, full_report) = sim
        .trace_events()
        .map_err(|e| QueryError::server(format!("trace: {e}")))?;
    let store = &traced.store;
    let mut ok = true;
    let mut out = String::new();
    out.push_str(&format!(
        "trace smoke: model={} gpus={} seq={} horizon={}s seed={:#x}\n",
        q.model, q.gpus, q.seq, q.horizon_s, q.seed
    ));
    out.push_str(&format!(
        "full-resolution events: {}\nresident events:        {} ({} tiers, {:.1}x compression)\n",
        reference.len(),
        store.resident_events(),
        store.num_tiers(),
        reference.len() as f64 / store.resident_events().max(1) as f64
    ));

    let reports_match = full_report == traced.report;
    ok &= reports_match;
    out.push_str(&format!(
        "goodput report parity:  {}\n",
        if reports_match { "ok" } else { "MISMATCH" }
    ));

    let span = store.span_ns();
    let windows = [
        (0, span / 7),
        (span / 3, span / 3 + span / 10),
        (span - span / 9, span),
    ];
    let replay = traced.replayer(sim);
    for (t0, t1) in windows {
        let view = store.window_with_replay(t0, t1, 0, &replay);
        let expected: Vec<(u64, trace_analysis::TraceEvent)> = reference
            .iter()
            .filter(|(_, e)| e.start_ns >= t0 && e.start_ns < t1)
            .cloned()
            .collect();
        let exact = view.events == expected;
        ok &= exact;
        out.push_str(&format!(
            "window [{:.0}s, {:.0}s): {} events{}, replay diff: {}\n",
            t0 as f64 / 1e9,
            t1 as f64 / 1e9,
            view.events.len(),
            if view.rematerialized {
                " (rematerialized)"
            } else {
                ""
            },
            if exact { "ok" } else { "MISMATCH" }
        ));
    }

    let integrity = store.check_integrity();
    ok &= integrity.is_ok();
    match integrity {
        Ok(()) => out.push_str("tower integrity:        ok\n"),
        Err(e) => out.push_str(&format!("tower integrity:        FAIL ({e})\n")),
    }
    out.push_str(if ok { "smoke: PASS" } else { "smoke: FAIL" });
    Ok((ok, out))
}

/// Computes an infer query: resolve the serving mesh, generate the
/// seeded arrival trace, and run the continuous-batching simulation.
/// Fully deterministic (the `threads` hint never changes results), so
/// the response is cacheable and coalescable.
fn compute_infer(q: &InferQuery) -> Result<InferResponse, QueryError> {
    let model = q.to_model()?;
    let requests = q.traffic_spec().generate();
    let report = model.simulate(&requests);
    Ok(InferResponse {
        model: q.model.clone(),
        plan: model.spec.plan,
        traffic: q.traffic,
        offered: requests.len() as u64,
        report,
    })
}

/// Computes an analyze query against the named catalog or the
/// conformance grid.
fn compute_analyze(mode: &AnalyzeMode) -> Result<AnalyzeResponse, QueryError> {
    match mode {
        AnalyzeMode::List => Ok(AnalyzeResponse::List(
            NAMED_CONFIGS
                .iter()
                .map(|&(name, desc)| (name.to_string(), desc.to_string()))
                .collect(),
        )),
        AnalyzeMode::Config(name) => {
            let step = named_step(name)
                .ok_or_else(|| QueryError::new(format!("unknown config `{name}`")))?;
            Ok(AnalyzeResponse::Config {
                name: name.clone(),
                report: analyze_step(&step),
            })
        }
        AnalyzeMode::Grid => Ok(AnalyzeResponse::Grid(
            analyze_grid()
                .into_iter()
                .map(|(spec, report)| (spec.to_string(), report))
                .collect(),
        )),
        AnalyzeMode::GridIndex(i) => {
            let grid = config_grid();
            let spec = grid.get(*i).ok_or_else(|| {
                QueryError::new(format!(
                    "grid index {i} out of range (the grid has {} configs)",
                    grid.len()
                ))
            })?;
            Ok(AnalyzeResponse::Config {
                name: spec.to_string(),
                report: analyze_step(&spec.build()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_search(max_cp: u32) -> Query {
        Query::Search(SearchQuery {
            model: "8b".into(),
            gpus: 8,
            seq: 8192,
            layers: 4,
            budget: 131_072,
            max_cp,
            ..SearchQuery::default()
        })
    }

    #[test]
    fn response_cache_hits_on_repeat() {
        let d = Dispatcher::new();
        let q = Query::Analyze(AnalyzeMode::GridIndex(0));
        let first = d.dispatch(&q).unwrap();
        let second = d.dispatch(&q).unwrap();
        assert_eq!(first.render_wire(), second.render_wire());
        let s = d.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.response_hits, 1);
    }

    #[test]
    fn goodput_is_cached_like_any_pure_answer() {
        let d = Dispatcher::new();
        let first = d.dispatch(&Query::Goodput).unwrap();
        let second = d.dispatch(&Query::Goodput).unwrap();
        assert_eq!(first.render_wire(), second.render_wire());
        assert_eq!(d.stats().response_hits, 1);
    }

    #[test]
    fn narrower_max_cp_computes_its_own_funnel() {
        let d = Dispatcher::new();
        let wide = d.dispatch(&small_search(4)).unwrap();
        let narrow = d.dispatch(&small_search(2)).unwrap();
        assert_eq!(d.stats().searches_computed, 2);
        // After a wider search, the narrow answer is a cold dispatcher's.
        let cold = Dispatcher::new().dispatch(&small_search(2)).unwrap();
        assert_eq!(narrow.render_wire(), cold.render_wire());
        assert_ne!(wide.render_wire(), narrow.render_wire());
    }

    #[test]
    fn trace_responses_are_cached_and_smoke_passes() {
        let d = Dispatcher::new();
        let q = Query::Trace(TraceQuery {
            model: "8b".into(),
            gpus: 8,
            horizon_s: 3600,
            tier0: 256,
            mode: TraceMode::Stats,
            ..TraceQuery::default()
        });
        let first = d.dispatch(&q).unwrap();
        let second = d.dispatch(&q).unwrap();
        assert_eq!(first.render_wire(), second.render_wire());
        assert_eq!(d.stats().response_hits, 1);
        match &first {
            Response::Trace(r) => {
                assert!(r.ok);
                assert!(r.body.starts_with('{'), "stats body is JSON: {}", r.body);
                assert!(r.appended > 0);
                assert!(r.resident <= r.appended);
            }
            other => panic!("expected a trace response, got {}", other.kind()),
        }

        let smoke = d
            .dispatch(&Query::Trace(TraceQuery {
                model: "8b".into(),
                gpus: 8,
                horizon_s: 3600,
                tier0: 256,
                mode: TraceMode::Smoke,
                ..TraceQuery::default()
            }))
            .unwrap();
        match smoke {
            Response::Trace(r) => {
                assert!(r.ok, "smoke self-check failed:\n{}", r.body);
                assert!(r.body.ends_with("smoke: PASS"), "{}", r.body);
            }
            other => panic!("expected a trace response, got {}", other.kind()),
        }
    }

    #[test]
    fn infer_responses_are_cached_and_thread_normalized() {
        let d = Dispatcher::new();
        let base = InferQuery {
            model: "8b".into(),
            gpus: 8,
            traffic: parallelism_core::TrafficShape::Steady,
            requests_per_day: 20_000,
            horizon_s: 300,
            seed: 7,
            ..InferQuery::default()
        };
        let first = d.dispatch(&Query::Infer(base.clone())).unwrap();
        match &first {
            Response::Infer(r) => {
                assert!(r.report.completed > 0);
                assert_eq!(r.report.leaked_blocks, 0);
            }
            other => panic!("expected an infer response, got {}", other.kind()),
        }
        let second = d.dispatch(&Query::Infer(base.clone())).unwrap();
        assert_eq!(first.render_wire(), second.render_wire());
        // The `threads` execution hint canonicalizes onto the same
        // cache entry — and the result is identical anyway.
        let threaded = InferQuery { threads: 3, ..base };
        let third = d.dispatch(&Query::Infer(threaded)).unwrap();
        assert_eq!(first.render_wire(), third.render_wire());
        assert_eq!(d.stats().response_hits, 2);
    }

    #[test]
    fn errors_are_reported_not_cached() {
        let d = Dispatcher::new();
        let q = Query::Analyze(AnalyzeMode::Config("no_such_config".into()));
        let err = d.dispatch(&q).unwrap_err();
        assert_eq!(err.message, "unknown config `no_such_config`");
        let err2 = d.dispatch(&q).unwrap_err();
        assert_eq!(err, err2);
        assert_eq!(d.stats().response_hits, 0);
        let bad_index = d
            .dispatch(&Query::Analyze(AnalyzeMode::GridIndex(64)))
            .unwrap_err();
        assert!(bad_index.message.contains("out of range"));
    }
}
