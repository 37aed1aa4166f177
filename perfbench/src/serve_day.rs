//! `serve_day`: a 405B / 16K continuous-batching diurnal serving slice
//! at 1 M requests/day. The replica walk, KV paging and the percentile
//! fold dominate; no training-side layer runs, so this workload is the
//! control for every training-side optimisation.

use crate::span::Tracer;
use crate::{stats, sys, Op, Outcome, Size};
use parallelism_core::infer::{simulate_replica, InferCosts, InferReport, InferenceModel};
use parallelism_core::query::InferQuery;
use workload::traffic::{Request, TrafficShape};

pub struct State {
    model: InferenceModel,
    trace: Vec<Request>,
    first: Option<InferReport>,
    rates: Vec<f64>,
}

fn query(seed: u64, size: Size) -> InferQuery {
    InferQuery {
        model: "405b".into(),
        gpus: 16_384,
        traffic: TrafficShape::Diurnal,
        requests_per_day: 1_000_000,
        horizon_s: match size {
            Size::Main => 4 * 3600,
            Size::Probe => 3600,
        },
        seed,
        threads: 1,
        ..InferQuery::default()
    }
}

/// Conservation checks every priced slice must pass.
fn conserved(r: &InferReport) -> bool {
    r.completed + r.dropped == r.requests && r.leaked_blocks == 0
}

pub fn setup(seed: u64, size: Size) -> State {
    let q = query(seed, size);
    State {
        model: q.to_model().expect("the 405B/16K serving plan fits"),
        trace: q.traffic_spec().generate(),
        first: None,
        rates: Vec::new(),
    }
}

impl Op for State {
    /// One serving simulation.
    fn slice(&mut self, out: &mut Outcome) {
        let (r, c) = sys::cost(|| self.model.simulate(&self.trace));
        self.rates.push(r.requests as f64 / c.cpu_s);
        let ok = conserved(&r)
            && r.requests == self.trace.len() as u64
            && self.first.as_ref().is_none_or(|f| *f == r);
        out.op(ok, || {
            format!(
                "serve_day: {} offered, {} completed, {} dropped, {} leaked blocks",
                r.requests, r.completed, r.dropped, r.leaked_blocks
            )
        });
        self.first.get_or_insert(r);
    }

    fn finish(self: Box<Self>, out: &mut Outcome) {
        out.set("sim_requests_per_s", stats::median(&self.rates));
    }
}

pub fn traced(seed: u64, out: &mut Outcome, tr: &mut Tracer) {
    let q = query(seed, Size::Main);
    let span = tr.begin("serve_day.setup");
    let model = q.to_model().expect("the 405B/16K serving plan fits");
    let spec = q.traffic_spec();
    let trace = tr.time("traffic.generate", || spec.generate());
    let costs = tr.time("infer.costs", || InferCosts::new(&model.spec));
    tr.end(span);
    out.op(costs.as_ref() == Ok(&model.costs), || {
        "serve_day: cost tables differ".into()
    });

    let (plain, untraced) = sys::cost(|| model.simulate(&trace));

    // The same simulation, one replica at a time: requests routed by
    // arrival index, replicas walked in order, then folded.
    let (report, traced) = sys::cost(|| {
        let replicas = model.spec.plan.replicas as usize;
        let mut shards: Vec<Vec<Request>> = vec![Vec::new(); replicas];
        for r in &trace {
            shards[(r.id % replicas as u64) as usize].push(*r);
        }
        let results: Vec<_> = shards
            .iter()
            .map(|reqs| {
                tr.time("infer.replica", || {
                    simulate_replica(&model.costs, model.spec.max_batch, reqs)
                })
            })
            .collect();
        tr.time("infer.fold", || model.fold(trace.len() as u64, &results))
    });
    out.op(conserved(&report) && report == plain, || {
        "serve_day: the replica-by-replica walk differs from simulate()".into()
    });

    let replica_ms = tr.durations_ms("infer.replica");
    out.set("traffic.generate_ms", tr.total_ms("traffic.generate"));
    out.set("infer.costs_ms", tr.total_ms("infer.costs"));
    out.set("infer.replica_ms", stats::median(&replica_ms));
    out.set("infer.replica_max_ms", stats::max(&replica_ms));
    out.set("infer.fold_ms", tr.total_ms("infer.fold"));
    out.set("infer.requests", report.requests as f64);
    out.set("infer.decode_iters", report.decode_iters as f64);
    out.set("infer.kv_peak_blocks", report.peak_blocks as f64);
    out.set("infer.dropped", report.dropped as f64);
    out.set(
        "trace.overhead_pct",
        crate::overhead_pct(traced.cpu_s, untraced.cpu_s),
    );
}

/// Counts that repeat exactly at one seed: offered, completed and
/// dropped requests, decode iterations and the KV high-water mark.
pub fn counts(seed: u64) -> Vec<(&'static str, u64)> {
    let s = setup(seed, Size::Main);
    let r = s.model.simulate(&s.trace);
    vec![
        ("infer.requests", r.requests),
        ("infer.completed", r.completed),
        ("infer.dropped", r.dropped),
        ("infer.decode_iters", r.decode_iters),
        ("infer.kv_peak_blocks", r.peak_blocks),
        ("infer.leaked_blocks", r.leaked_blocks),
    ]
}
