//! The shared pipeline-program memo and the compact program layout.
//!
//! - Accessors: every [`PpProgram`] accessor equals a reference read
//!   straight off the schedule, over the fuzz battery's shapes and
//!   broken variants of each; each rank's peak in-flight count also
//!   over the 405B / 8K-GPU step's programs, one of them past the
//!   memo's budget.
//! - Eviction: more shapes than [`PROGRAM_MEMO_OPS`] holds, stepped in
//!   turn so the memo evicts, each step equal to a timing on a freshly
//!   built program, bit for bit.
//! - Concurrency: a search on four threads equals one on a single
//!   thread, with the memo cold and warm.

use cluster_model::{Cluster, JitterKind, JitterModel};
use conformance::fuzz::{CaseSpec, FuzzFamily};
use conformance::grid::config_grid;
use llm_model::masks::MaskSpec;
use llm_model::{ModelLayout, TransformerConfig};
use parallelism_core::fsdp::recommended_zero_mode;
use parallelism_core::mesh::Mesh4D;
use parallelism_core::pp::balance::{BalancePolicy, StageAssignment};
use parallelism_core::pp::sim::{PpProgram, PpTiming, PROGRAM_MEMO_OPS};
use parallelism_core::pp::{PpOp, PpSchedule};
use parallelism_core::search::{clear_verdict_caches, search, SearchSpec};
use parallelism_core::step::{SimOptions, StepModel};
use parallelism_core::{ScheduleKind, ZeroMode};
use proptest::test_runner::TestRng;
use std::collections::{HashMap, HashSet};

/// What a program's accessors must return, read off the schedule: for
/// each op in rank-major program order, its rank, stream predecessor
/// and wired data producer; the ops whose producer is missing; and the
/// ops that run (those whose every wait is met, to a fixpoint); and
/// each rank's peak in-flight count.
struct Reference {
    rank: Vec<u32>,
    stream_pred: Vec<Option<usize>>,
    data_pred: Vec<Option<usize>>,
    unresolved: Vec<usize>,
    runs: Vec<bool>,
    peak_in_flight: Vec<u32>,
}

impl Reference {
    fn of(s: &PpSchedule) -> Reference {
        let ops: Vec<(u32, PpOp)> = (0..)
            .zip(&s.ranks)
            .flat_map(|(r, ops)| ops.iter().map(move |&op| (r, op)))
            .collect();
        let stage = |(r, op): (u32, PpOp)| s.stage_of(r, op.chunk());
        // The last copy of the op with direction `fwd` at `stage`, `mb`.
        let last = |fwd: bool, st: u32, mb: u32| {
            ops.iter().rposition(|&(r, op)| {
                op.is_forward() == fwd && op.mb() == mb && stage((r, op)) == st
            })
        };
        let last_stage = s.num_stages() - 1;
        let (mut data_pred, mut unresolved) = (Vec::new(), Vec::new());
        for (i, &(r, op)) in ops.iter().enumerate() {
            let st = stage((r, op));
            let wired = last(op.is_forward(), st, op.mb()) == Some(i);
            let input = match op {
                PpOp::Forward { .. } if st == 0 => None,
                PpOp::Forward { mb, .. } => Some(last(true, st - 1, mb)),
                PpOp::Backward { mb, .. } if st == last_stage => Some(last(true, st, mb)),
                PpOp::Backward { mb, .. } => Some(last(false, st + 1, mb)),
            };
            data_pred.push(match input {
                Some(Some(p)) if wired => Some(p),
                Some(None) if wired => {
                    unresolved.push(i);
                    None
                }
                _ => None,
            });
        }
        let rank: Vec<u32> = ops.iter().map(|&(r, _)| r).collect();
        let stream_pred: Vec<Option<usize>> = (0..ops.len())
            .map(|i| (i > 0 && rank[i - 1] == rank[i]).then(|| i - 1))
            .collect();
        let mut runs = vec![false; ops.len()];
        loop {
            let mut changed = false;
            for i in 0..ops.len() {
                let met = |p: Option<usize>| p.is_none_or(|p| runs[p]);
                if !runs[i] && !unresolved.contains(&i) && met(stream_pred[i]) && met(data_pred[i])
                {
                    runs[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Reference {
            rank,
            stream_pred,
            data_pred,
            unresolved,
            runs,
            peak_in_flight: (0..)
                .zip(&s.ranks)
                .map(|(r, _)| s.peak_in_flight(r))
                .collect(),
        }
    }

    /// Checks every accessor of `p`, built from a schedule of `ranks`
    /// ranks, against `self`.
    fn check(&self, p: &PpProgram, ranks: u32, ctx: &str) {
        let n = self.rank.len();
        assert_eq!(p.len(), n, "{ctx}");
        for i in 0..n {
            assert_eq!(p.rank_of(i), self.rank[i], "{ctx}: rank of op {i}");
            assert_eq!(p.stream_pred(i), self.stream_pred[i], "{ctx}: op {i}");
            assert_eq!(p.data_pred(i), self.data_pred[i], "{ctx}: op {i}");
        }
        assert_eq!(p.unresolved().collect::<Vec<_>>(), self.unresolved, "{ctx}");
        let stuck: Vec<usize> = (0..n).filter(|&i| !self.runs[i]).collect();
        assert_eq!(p.stuck().collect::<Vec<_>>(), stuck, "{ctx}");
        assert_eq!(p.is_complete(), stuck.is_empty(), "{ctx}");
        // The order holds exactly the ops that run, each after both of
        // its waits.
        let mut place = vec![usize::MAX; n];
        for (k, &i) in p.order().iter().enumerate() {
            assert_eq!(place[i as usize], usize::MAX, "{ctx}: op {i} twice");
            place[i as usize] = k;
        }
        for i in 0..n {
            assert_eq!(place[i] != usize::MAX, self.runs[i], "{ctx}: op {i}");
            for pred in [self.stream_pred[i], self.data_pred[i]]
                .into_iter()
                .flatten()
            {
                if self.runs[i] {
                    assert!(place[pred] < place[i], "{ctx}: op {i} before {pred}");
                }
            }
        }
        let mut next = 0;
        for r in 0..ranks {
            let ops = p.rank_ops(r);
            assert_eq!(ops.start, next, "{ctx}: rank {r}");
            assert!(ops.clone().all(|i| self.rank[i] == r), "{ctx}: rank {r}");
            next = ops.end;
            let peak = self.peak_in_flight[r as usize];
            assert_eq!(p.peak_in_flight(r), peak, "{ctx}: rank {r} in flight");
        }
        assert_eq!(next, n, "{ctx}");
    }
}

/// `s` with one op of `rank` edited in place, as oracle 12's battery
/// does: dropped, duplicated, moved to the front, or swapped with the
/// op after it.
fn broken(s: &PpSchedule, rank: usize, i: usize) -> Vec<PpSchedule> {
    let ops = &s.ranks[rank];
    let mut edits = Vec::new();
    for edit in 0..4 {
        let mut e = ops.clone();
        match edit {
            0 => {
                e.remove(i);
            }
            1 => e.insert(i + 1, ops[i]),
            2 => {
                let op = e.remove(i);
                e.insert(0, op);
            }
            _ if i + 1 < e.len() => e.swap(i, i + 1),
            _ => continue,
        }
        let mut b = s.clone();
        b.ranks[rank] = e;
        edits.push(b);
    }
    edits
}

#[test]
fn compact_program_accessors_match_the_schedule() {
    let mut rng = TestRng::new(0x5eed);
    let (mut shapes, mut checked, mut stuck, mut dangling) = (HashSet::new(), 0, 0, 0);
    for _ in 0..48 {
        let c = CaseSpec::sample(&mut rng);
        if !shapes.insert((format!("{:?}", c.kind), c.pp, c.v, c.bs)) {
            continue;
        }
        let s = PpSchedule::build(c.kind, c.pp, c.v, c.bs).expect("normalized spec");
        let mut variants = vec![s.clone()];
        for rank in 0..s.ranks.len() {
            let n = s.ranks[rank].len();
            for i in [0, n / 3, n - 1] {
                variants.extend(broken(&s, rank, i));
            }
        }
        for (k, v) in variants.iter().enumerate() {
            let ctx = format!(
                "{:?} pp {} v {} nmb {} variant {k}",
                c.kind, c.pp, c.v, c.bs
            );
            let program = PpProgram::build(v);
            Reference::of(v).check(&program, c.pp, &ctx);
            checked += 1;
            stuck += usize::from(!program.is_complete());
            dangling += usize::from(program.unresolved().next().is_some());
        }
    }
    assert!(shapes.len() >= 12, "only {} shapes", shapes.len());
    assert!(checked >= 200, "only {checked} schedules");
    // Both ways a broken schedule fails are covered: a missing producer
    // and a wait cycle.
    assert!(
        dangling > 0 && stuck > dangling,
        "{stuck} stuck, {dangling} dangling"
    );

    // The production step's programs, from the memo and built afresh;
    // at `bs = 72` (18,432 ops) the memo builds one and keeps none.
    for bs in [16, 24, 32, 48, 72] {
        let m = production_8k_gpu_step(bs);
        let s = m.schedule().expect("valid schedule");
        let (shared, fresh) = (m.program().expect("valid schedule"), PpProgram::build(&s));
        assert_eq!(bs == 72, shared.len() > PROGRAM_MEMO_OPS, "bs {bs}");
        for r in 0..m.mesh.pp() {
            let peak = s.peak_in_flight(r);
            assert_eq!(shared.peak_in_flight(r), peak, "bs {bs}: rank {r} shared");
            assert_eq!(fresh.peak_in_flight(r), peak, "bs {bs}: rank {r} fresh");
        }
    }
}

/// The 405B / 8K-GPU production step (tp 8, cp 1, pp 16, dp 64, v 8)
/// at `bs` sequences per replica: all-forward-all-backward below
/// `bs = 32`, flexible with `nc = 16` from there.
fn production_8k_gpu_step(bs: u32) -> StepModel {
    let layout = ModelLayout::text(TransformerConfig::llama3_405b().with_layers(128));
    let mesh = Mesh4D::new(8, 1, 16, 64);
    let assignment = StageAssignment::build(&layout, 16, 8, BalancePolicy::DropFirstAndLast);
    StepModel {
        cluster: Cluster::llama3(mesh.num_gpus()),
        mesh,
        layout,
        assignment,
        schedule: if bs >= 32 {
            ScheduleKind::Flexible { nc: 16 }
        } else {
            ScheduleKind::AllFwdAllBwd
        },
        zero: recommended_zero_mode(u64::from(bs), 16),
        bs,
        seq: 8192,
        mask: MaskSpec::Causal,
        recompute: false,
    }
}

#[test]
fn evicting_memo_serves_what_a_fresh_program_times() {
    let mut steps: Vec<StepModel> = config_grid().iter().map(CaseSpec::build).collect();
    steps.extend([16, 24, 32, 48].map(production_8k_gpu_step));
    let shapes: HashMap<String, usize> = steps
        .iter()
        .map(|m| {
            let s = m.schedule().expect("valid schedule");
            let n = s.ranks.iter().map(Vec::len).sum();
            (
                format!("{:?} pp {} v {} nmb {}", s.kind, s.pp, s.v, s.nmb),
                n,
            )
        })
        .collect();
    let ops: usize = shapes.values().sum();
    assert!(
        ops > PROGRAM_MEMO_OPS,
        "{ops} ops fit the memo: nothing evicts"
    );

    // The reference: each step timed once on a program built for it
    // alone, and one jittered full-fidelity run.
    let jitter = JitterModel::new(JitterKind::Transient, 0.05, 3);
    let full = SimOptions::new().jitter(jitter).step(2);
    let mut t = PpTiming::default();
    let reference: Vec<_> = steps
        .iter()
        .map(|m| {
            let sched = m.schedule().expect("valid schedule");
            let fresh = PpProgram::compile(&sched).expect("the schedule runs");
            fresh.run(&m.stage_costs(), &[], &mut t);
            let bubbles: Vec<u64> = (0..m.mesh.pp())
                .map(|r| t.bubble_ratio(0, r).to_bits())
                .collect();
            (
                fresh,
                t.makespan[0],
                bubbles,
                m.run(&full).expect("runs").report,
            )
        })
        .collect();

    // Three rounds in turn, forward then backward, so most lookups
    // follow an eviction.
    for round in 0..3 {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..steps.len()).collect()
        } else {
            (0..steps.len()).rev().collect()
        };
        for k in order {
            let (m, (fresh, makespan, bubbles, jittered)) = (&steps[k], &reference[k]);
            let ctx = format!("round {round}, step {k}");
            assert_eq!(*m.program().expect("valid schedule"), *fresh, "{ctx}");
            let report = m.run(&SimOptions::new()).expect("runs").report;
            assert_eq!(report.step_time, *makespan + report.exposed.dp, "{ctx}");
            let bits: Vec<u64> = report.bubble_ratio.iter().map(|b| b.to_bits()).collect();
            assert_eq!(&bits, bubbles, "{ctx}");
            assert_eq!(&m.run(&full).expect("runs").report, jittered, "{ctx}");
        }
    }
}

#[test]
fn searches_agree_across_threads_with_the_memo_cold_and_warm() {
    let mut spec = SearchSpec::llama3_8b(256, 8_192);
    spec.input.model = spec.input.model.with_layers(8);
    spec.input.token_budget = 256 * 8_192;
    spec.zero_modes = vec![ZeroMode::Zero1];
    let (one, four) = (spec.clone().threads(1), spec.threads(4));
    clear_verdict_caches();
    let cold_one = search(&one).expect("searches");
    clear_verdict_caches();
    let cold_four = search(&four).expect("searches");
    let warm_four = search(&four).expect("searches");
    let warm_one = search(&one).expect("searches");
    assert!(cold_one.counts.scored > 1, "{:?}", cold_one.counts);
    assert_eq!(cold_four, cold_one);
    assert_eq!(warm_four, cold_one);
    assert_eq!(warm_one, cold_one);
}
