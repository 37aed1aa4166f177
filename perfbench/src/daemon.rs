//! `daemon`: an in-process `serve::Server` on loopback, driven open-loop
//! at a fixed rate over two keep-alive connections, each query timed
//! from when it was due to be sent.
//!
//! - Reads repeat queries from a working set smaller than the 256-entry
//!   response cache.
//! - Writes are distinct small 8B `infer` queries: each misses,
//!   computes, and inserts into the cache, evicting in FIFO order, so
//!   some reads fall out of the cache.
//! - Rare `trace` window seeks (a fault-priced day streamed into the
//!   tiered store, then a window rematerialized) and `stats` reads.
//!
//! HTTP I/O, wire parse and render, the response cache and coalescing
//! dominate; simulation runs only on misses.

use crate::span::Tracer;
use crate::{stats, sys, Op, Outcome, Size, SplitMix};
use cluster_model::faults::{FaultRates, FaultTimeline};
use parallelism_core::query::{InferQuery, Query, Response, TraceMode, TraceQuery};
use parallelism_core::run::{CheckpointPolicy, RunSimulator};
use serve::{Dispatcher, ServeClient, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace_analysis::chrome::to_chrome_json;
use trace_analysis::tiered::TierConfig;
use workload::traffic::TrafficShape;

/// Offered load, queries per second.
const RATE_QPS: f64 = 250.0;
/// Fewest queries behind a latency percentile: 1% of them is at least
/// 10, so p99 has at least 10 samples beyond it.
const MIN_QUERIES: usize = 1100;
/// Distinct queries in the read working set (the cache holds 256).
const READ_SET: usize = 48;
/// Every block of 100 consecutive queries sends 40 reads and 57 writes,
/// shuffled by the seed, plus two trace seeks 50 queries (200 ms)
/// apart, so seeks never overlap, and one stats read.
const BLOCK: usize = 100;
const READS_PER_BLOCK: usize = 40;
const TRACE_SLOTS: [usize; 2] = [0, 50];
const STATS_SLOT: usize = 25;
/// Arrival window of a write's 8B serving slice, seconds: long enough
/// that a write costs a few milliseconds, so the median query does.
const WRITE_HORIZON_S: u64 = 900;
/// A trace seek prices a fault-timeline day of the 405B / 16K run
/// (about 230 k events streamed through a 256-event tier 0) and
/// exports a one-minute window of it.
const TRACE_HORIZON_S: u64 = 86_400;
const TRACE_WINDOW_S: u64 = 60;
/// Every `SAMPLE_EVERY`-th answered query is kept and compared byte for
/// byte with a direct dispatch after the timed phases.
const SAMPLE_EVERY: usize = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Trace,
    Stats,
}

struct Planned {
    kind: Kind,
    query: Query,
    wire: String,
}

/// One query as the load generator saw it.
struct Sent {
    /// From when it was due to when its answer arrived; infinite when
    /// it failed, so a failure misses any latency limit.
    latency_s: f64,
    /// From when it was due to when it was sent.
    late_s: f64,
    body: Option<String>,
}

pub struct State {
    // Connections close before the server stops (fields drop in order).
    clients: Vec<ServeClient>,
    _server: Server,
    dispatcher: Arc<Dispatcher>,
    reads: Vec<Query>,
    rng: SplitMix,
    /// Kinds still to send from the current block, last first.
    block: Vec<Kind>,
    seed: u64,
    /// Distinct writes and trace seeks issued so far.
    issued: u64,
    /// Queries per slice.
    per_slice: usize,
    /// Every query's latency, infinite for a failed one.
    latency_ms: Vec<f64>,
    cpu_s: f64,
    /// Served answers kept for the byte-identity check.
    samples: Vec<(Query, String)>,
}

fn infer_query(seed: u64) -> Query {
    Query::Infer(InferQuery {
        model: "8b".into(),
        gpus: 8,
        traffic: TrafficShape::Steady,
        requests_per_day: 20_000,
        horizon_s: WRITE_HORIZON_S,
        seed,
        threads: 1,
        ..InferQuery::default()
    })
}

fn trace_query(seed: u64, t0: u64) -> TraceQuery {
    TraceQuery {
        model: "405b".into(),
        gpus: 16_384,
        horizon_s: TRACE_HORIZON_S,
        seed,
        tier0: 256,
        window: Some((t0, t0 + TRACE_WINDOW_S)),
        mode: TraceMode::Chrome,
        ..TraceQuery::default()
    }
}

/// Per-run seed space: reads, writes and traces never share a key.
fn key(seed: u64, class: u64, i: u64) -> u64 {
    (seed << 24) ^ (class << 56) ^ i
}

impl State {
    /// The kinds of the next [`BLOCK`] queries, last first.
    fn next_block(&mut self) -> Vec<Kind> {
        let mut mixed: Vec<Kind> = (0..BLOCK - TRACE_SLOTS.len() - 1)
            .map(|i| {
                if i < READS_PER_BLOCK {
                    Kind::Read
                } else {
                    Kind::Write
                }
            })
            .collect();
        for i in (1..mixed.len()).rev() {
            let j = self.rng.below(i + 1);
            mixed.swap(i, j);
        }
        let mut block: Vec<Kind> = (0..BLOCK)
            .map(|slot| match slot {
                _ if TRACE_SLOTS.contains(&slot) => Kind::Trace,
                STATS_SLOT => Kind::Stats,
                _ => mixed.pop().expect("97 mixed slots"),
            })
            .collect();
        block.reverse();
        block
    }

    /// The next `n` queries of the seeded open-loop schedule.
    fn plan(&mut self, n: usize) -> Vec<Planned> {
        (0..n)
            .map(|_| {
                if self.block.is_empty() {
                    self.block = self.next_block();
                }
                let kind = self.block.pop().expect("a refilled block");
                let query = match kind {
                    Kind::Read => self.reads[self.rng.below(self.reads.len())].clone(),
                    Kind::Write => {
                        self.issued += 1;
                        infer_query(key(self.seed, 2, self.issued))
                    }
                    Kind::Trace => {
                        self.issued += 1;
                        let t0 = self.rng.below((TRACE_HORIZON_S - TRACE_WINDOW_S) as usize) as u64;
                        Query::Trace(trace_query(key(self.seed, 3, self.issued), t0))
                    }
                    Kind::Stats => Query::Stats,
                };
                let wire = query.to_wire();
                Planned { kind, query, wire }
            })
            .collect()
    }
}

fn connect(addr: &str) -> ServeClient {
    ServeClient::connect(addr).expect("loopback connection to the in-process server")
}

/// Sends `plan` open-loop at [`RATE_QPS`], one worker thread per
/// connection; a worker takes the next query as soon as it is free.
/// With tracers, each round trip is recorded as a span.
fn open_loop(
    clients: &mut [ServeClient],
    plan: &[Planned],
    tracers: Option<&mut [Tracer]>,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let mut sent: Vec<(usize, Sent)> = std::thread::scope(|sc| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers)
            .map(|(client, mut tr)| {
                let next = &next;
                sc.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / RATE_QPS);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = Instant::now();
                        let span = tr.as_mut().map(|t| t.begin(span_name(p.kind)));
                        let answer = match p.kind {
                            Kind::Stats => client.stats(),
                            _ => client.query(&p.wire),
                        };
                        if let (Some(t), Some(id)) = (tr.as_mut(), span) {
                            t.end(id);
                        }
                        let done = Instant::now();
                        let body = match answer {
                            Ok((200, body)) => Some(body),
                            _ => None,
                        };
                        let latency_s = if body.is_some() {
                            (done - due).as_secs_f64()
                        } else {
                            f64::INFINITY
                        };
                        let late_s = sent_at.saturating_duration_since(due).as_secs_f64();
                        out.push((
                            i,
                            Sent {
                                latency_s,
                                late_s,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load-generator thread"))
            .collect()
    });
    sent.sort_by_key(|(i, _)| *i);
    sent.into_iter().map(|(_, s)| s).collect()
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Read => "http.read",
        Kind::Write => "http.write",
        Kind::Trace => "http.trace",
        Kind::Stats => "http.stats",
    }
}

pub fn setup(seed: u64, size: Size) -> State {
    let dispatcher = Arc::new(Dispatcher::new());
    let server =
        Server::start("127.0.0.1:0", Arc::clone(&dispatcher)).expect("bind a loopback port");
    let addr = server.addr().to_string();
    let mut clients = vec![connect(&addr), connect(&addr)];
    let reads: Vec<Query> = (0..READ_SET as u64)
        .map(|i| infer_query(key(seed, 1, i)))
        .collect();
    for (i, q) in reads.iter().enumerate() {
        let answer = clients[i % 2].query(&q.to_wire());
        assert!(
            matches!(answer, Ok((200, _))),
            "warming the read set: {answer:?}"
        );
    }
    State {
        clients,
        _server: server,
        dispatcher,
        reads,
        rng: SplitMix(seed),
        block: Vec::new(),
        seed,
        issued: 0,
        per_slice: match size {
            Size::Main => 300,
            Size::Probe => MIN_QUERIES.div_ceil(crate::MIN_CYCLES),
        },
        latency_ms: Vec::new(),
        cpu_s: 0.0,
        samples: Vec::new(),
    }
}

impl Op for State {
    fn slice(&mut self, out: &mut Outcome) {
        let plan = self.plan(self.per_slice);
        let (sent, c) = sys::cost(|| open_loop(&mut self.clients, &plan, None));
        self.cpu_s += c.cpu_s;
        for (p, r) in plan.into_iter().zip(sent) {
            out.op(r.body.is_some(), || {
                format!("daemon: query failed: {}", p.wire)
            });
            self.latency_ms.push(r.latency_s * 1e3);
            // Every SAMPLE_EVERY-th answer, and the first trace seek, is
            // kept for the byte-identity check; `stats` bodies carry
            // live counters and are not compared.
            let first_trace = p.kind == Kind::Trace
                && !self
                    .samples
                    .iter()
                    .any(|(q, _)| matches!(q, Query::Trace(_)));
            let keep = p.kind != Kind::Stats
                && (self.latency_ms.len().is_multiple_of(SAMPLE_EVERY) || first_trace);
            if let (true, Some(body)) = (keep, r.body) {
                self.samples.push((p.query, body));
            }
        }
    }

    /// Latency percentiles over every slice's queries; then the kept
    /// bodies against a fresh dispatcher's direct answers, as
    /// `serve --self-test` checks.
    fn finish(self: Box<Self>, out: &mut Outcome) {
        let completed = self.latency_ms.iter().filter(|l| l.is_finite()).count();
        out.set("query_p50_ms", stats::percentile(&self.latency_ms, 0.50));
        out.set("query_p99_ms", stats::percentile(&self.latency_ms, 0.99));
        out.set("query_cpu_us", self.cpu_s * 1e6 / completed.max(1) as f64);
        let reference = Dispatcher::new();
        for (q, body) in &self.samples {
            let expected = reference.dispatch(q).map(|r| r.render_wire());
            out.op(expected.as_deref() == Ok(body.as_str()), || {
                format!(
                    "daemon: served body differs from direct dispatch for {}",
                    q.to_wire()
                )
            });
        }
    }
}

pub fn traced(seed: u64, out: &mut Outcome, tr: &mut Tracer) {
    let mut s = tr.time("daemon.setup", || setup(seed, Size::Main));

    // The open loop untraced, then with a span per round trip.
    let plan = s.plan(MIN_QUERIES);
    let untraced = open_loop(&mut s.clients, &plan, None);
    let plan = s.plan(MIN_QUERIES);
    let stats0 = s.dispatcher.stats();
    let mut workers = vec![tr.fork(1), tr.fork(2)];
    let sent = open_loop(&mut s.clients, &plan, Some(&mut workers));
    let stats1 = s.dispatcher.stats();
    for w in workers {
        tr.absorb(w);
    }
    for (p, r) in plan.iter().zip(&sent) {
        out.op(r.body.is_some(), || {
            format!("daemon: query failed: {}", p.wire)
        });
    }
    let p50 = |v: &[Sent]| stats::median(&v.iter().map(|r| r.latency_s).collect::<Vec<_>>());
    out.set(
        "trace.overhead_pct",
        crate::overhead_pct(p50(&sent), p50(&untraced)),
    );
    let late_ms: Vec<f64> = sent.iter().map(|r| r.late_s * 1e3).collect();
    out.set("gen.late_ms", stats::percentile(&late_ms, 0.99));
    let queries = stats1.queries - stats0.queries;
    let hits = stats1.response_hits - stats0.response_hits;
    out.set("dispatch.queries", queries as f64);
    out.set("dispatch.response_hits", hits as f64);
    out.set(
        "dispatch.coalesced",
        (stats1.coalesced - stats0.coalesced) as f64,
    );
    out.set("dispatch.hit_ratio", hits as f64 / queries.max(1) as f64);

    // The same layers called directly, without HTTP: wire parse,
    // canonical hash, dispatch (split by kind and cache outcome) and
    // render, on a dispatcher warmed with the read set.
    let direct = Dispatcher::new();
    for q in &s.reads {
        let _ = direct.dispatch(q);
    }
    let plan = s.plan(MIN_QUERIES / 2);
    for p in &plan {
        let q = tr.time("query.parse", || Query::parse_wire(&p.wire));
        let Ok(q) = q else {
            out.op(false, || {
                format!("daemon: wire line does not parse: {}", p.wire)
            });
            continue;
        };
        tr.time("query.hash", || q.canonical_hash());
        let hits0 = direct.stats().response_hits;
        let id = tr.begin("dispatch");
        let r = direct.dispatch(&q);
        tr.end(id);
        let hit = direct.stats().response_hits > hits0;
        tr.rename(
            id,
            match (p.kind, hit) {
                (Kind::Stats, _) => "dispatch.stats",
                (Kind::Trace, _) => "dispatch.trace_miss",
                (_, true) => "dispatch.infer_hit",
                (_, false) => "dispatch.infer_miss",
            },
        );
        match r {
            Ok(r) => {
                tr.time("query.render", || r.render_wire());
            }
            Err(e) => out.op(false, || format!("daemon: direct dispatch failed: {e}")),
        }
    }

    // HTTP I/O: round trips of warm reads minus their direct cost. The
    // writes above evicted the read set, so the first pass re-warms it.
    for name in ["http.read_warm", "http.read_hit"] {
        for q in &s.reads {
            let wire = q.to_wire();
            let r = tr.time(name, || s.clients[0].query(&wire));
            out.op(matches!(r, Ok((200, _))), || "daemon: a read failed".into());
        }
    }

    // A trace seek's layers: the fault-priced run streamed into the
    // tiered store, then the window rematerialized by replay.
    let q = trace_query(key(seed, 4, 0), TRACE_HORIZON_S / 3);
    let run = tr.begin("trace.run");
    let step = q.to_step().expect("the 405B trace step plans");
    let timeline = FaultTimeline::generate(
        FaultRates::llama3_production(),
        q.gpus,
        8,
        q.horizon_s as f64,
        q.seed,
    )
    .expect("fault timeline");
    let sim = RunSimulator::new(step, timeline, CheckpointPolicy::llama3_production())
        .expect("run simulator");
    let traced = sim.simulate_traced(TierConfig {
        tier0_events: q.tier0 as usize,
        ..TierConfig::default()
    });
    tr.end(run);
    let chrome = traced.ok().and_then(|t| {
        let (t0, t1) = q.window.expect("a seek window");
        tr.time("trace.window", || {
            let view = t.store.window_with_replay(
                t0 * 1_000_000_000,
                t1 * 1_000_000_000,
                q.zoom,
                &t.replayer(&sim),
            );
            to_chrome_json(&view.to_trace()).ok()
        })
    });
    let served = direct.dispatch(&Query::Trace(q));
    let same = matches!((&served, &chrome), (Ok(Response::Trace(r)), Some(c)) if r.body == *c);
    out.op(same, || {
        "daemon: direct trace seek differs from the dispatched one".into()
    });

    let us = |name: &str| stats::median(&tr.durations_ms(name)) * 1e3;
    let direct_hit_us =
        us("query.parse") + us("query.hash") + us("dispatch.infer_hit") + us("query.render");
    for (metric, span) in [
        ("query.parse_us", "query.parse"),
        ("query.hash_us", "query.hash"),
        ("query.render_us", "query.render"),
        ("dispatch.infer_hit_us", "dispatch.infer_hit"),
        ("dispatch.infer_miss_us", "dispatch.infer_miss"),
        ("dispatch.trace_miss_us", "dispatch.trace_miss"),
        ("dispatch.stats_us", "dispatch.stats"),
    ] {
        out.set(metric, us(span));
    }
    out.set("http.io_us", us("http.read_hit") - direct_hit_us);
    out.set("trace.run_ms", tr.total_ms("trace.run"));
    out.set("trace.window_ms", tr.total_ms("trace.window"));
}
