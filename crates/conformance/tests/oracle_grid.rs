//! Runs the differential oracles over the deterministic
//! ≥ 50-configuration grid from `conformance::grid` (the search-funnel
//! oracle over small exhaustive search spaces instead — its reference
//! is quadratic; the run-trace replay
//! oracle over 8-GPU fault-boosted runs — its reference capture is
//! `O(N)` in run length; the pipeline-rules oracle over every family
//! at small shapes — its race reference is quadratic).

use cluster_model::{FaultRates, FaultTimeline};
use collectives::CommCostModel;
use conformance::fuzz::{CaseSpec, GpuChoice};
use conformance::grid::config_grid;
use conformance::oracles::{
    check_pipeline_rules, oracle_collective_streams, oracle_fluid_fast_path, oracle_folded_vs_full,
    oracle_goodput_recomposition, oracle_memoized_costs, oracle_pipeline_rules,
    oracle_planner_vs_search, oracle_run_trace_replay, oracle_search_frontier,
    oracle_step_time_bound, oracle_tiered_trace,
};
use parallelism_core::analyze::{deadlock, RuleId};
use parallelism_core::pp::schedule::{PpOp, PpSchedule, ScheduleKind};
use parallelism_core::pp::sim::{PpProgram, LANES};
use parallelism_core::search::{enumerate_configs, SearchSpec};
use parallelism_core::{CheckpointPolicy, Dim, RunSimulator, ZeroMode};
use sim_engine::graph::GraphError;
use trace_analysis::tiered::TierConfig;

#[test]
fn folded_matches_full_across_grid() {
    let grid = config_grid();
    assert!(grid.len() >= 50);
    for spec in &grid {
        oracle_folded_vs_full(&spec.build(), spec.seed())
            .unwrap_or_else(|e| panic!("[{spec}] {e}"));
    }
}

/// Oracle 1 past the grid's `dp ≤ 4`: a `dp = 20` mesh is timed as
/// two full lane passes and a four-lane tail, and every option set must
/// still match the engine-lowered reference of all twenty replicas.
#[test]
fn folded_matches_full_on_a_wide_dp_mesh() {
    let spec = CaseSpec {
        gpu: GpuChoice::ALL[0],
        layers_per_stage: 1,
        tp: 2,
        cp: 1,
        pp: 2,
        dp: 20,
        v: 2,
        bs: 8,
        seq: 4096,
        kind: ScheduleKind::Flexible { nc: 2 },
        zero: ZeroMode::Zero1,
        recompute: false,
    }
    .normalized();
    assert_eq!((spec.tp, spec.cp, spec.pp, spec.dp), (2, 1, 2, 20));
    assert_eq!(spec.dp as usize % LANES, 4);
    oracle_folded_vs_full(&spec.build(), spec.seed()).unwrap_or_else(|e| panic!("[{spec}] {e}"));
}

#[test]
fn memoized_costs_match_uncached_across_grid() {
    let grid = config_grid();
    assert!(grid.len() >= 50);
    for spec in &grid {
        let m = spec.build();
        let model = CommCostModel::new(m.cluster.topology.clone());
        let groups: Vec<_> = [Dim::Tp, Dim::Cp, Dim::Pp, Dim::Dp]
            .into_iter()
            .map(|d| m.mesh.group_of(cluster_model::GlobalRank(0), d))
            .collect();
        oracle_memoized_costs(&model, &groups, &[1 << 16, 1 << 20, 1 << 24])
            .unwrap_or_else(|e| panic!("[{spec}] {e}"));
    }
}

#[test]
fn fluid_fast_path_matches_general_across_grid() {
    // 50 parameterized nets: link speeds and transfer sizes scaled per
    // index, plus a zero-byte and a link-saturating transfer in the mix.
    for i in 0..50u32 {
        let base = 12.5e9 * f64::from(1 + i % 7);
        let links = [base, base * 2.0, base * 4.0, base * 0.5];
        let bytes = [
            1e6 * f64::from(1 + i),
            64.0 * f64::from(1 + i % 13),
            if i % 5 == 0 { 0.0 } else { 3e8 },
        ];
        oracle_fluid_fast_path(&links, &bytes)
            .unwrap_or_else(|e| panic!("net {i} (base {base} B/s): {e}"));
    }
}

#[test]
fn search_funnel_matches_exhaustive_reference() {
    // Small 8B search spaces whose exhaustive reference stays ≤ 256
    // candidates: every (cluster size, sequence, thread count) combo
    // must settle each candidate as the unpruned reference does (or
    // prune it under a dominating point), give the same Pareto
    // frontier as full-analyzer scoring plus quadratic dominance, and
    // the same report at 1, 2 and 8 threads.
    for (ngpu, gbs, threads) in [(8u32, 16u64, 1usize), (8, 16, 3), (16, 32, 2)] {
        let spec = small_search(ngpu, gbs).max_cp(2).threads(threads);
        let (admitted, _) = enumerate_configs(&spec);
        assert!(
            !admitted.is_empty() && admitted.len() <= 256,
            "want a small but non-trivial grid, got {} candidates",
            admitted.len()
        );
        oracle_search_frontier(&spec)
            .unwrap_or_else(|e| panic!("{ngpu} GPUs, gbs {gbs}, {threads} threads: {e}"));
    }
}

/// A small 8B search problem: 4 layers, `gbs` sequences of 8K tokens,
/// ZeRO-1 and ZeRO-3.
fn small_search(ngpu: u32, gbs: u64) -> SearchSpec {
    let mut spec = SearchSpec::llama3_8b(ngpu, 8_192);
    spec.input.model = spec.input.model.with_layers(4);
    spec.input.token_budget = gbs * 8_192;
    spec.zero_modes = vec![ZeroMode::Zero1, ZeroMode::Zero3];
    spec
}

#[test]
fn collective_streams_match_per_member_check_across_grid() {
    // Oracle 13: COLL001 with one derivation per pp coordinate reports
    // what the per-member check reports, on every grid config.
    let grid = config_grid();
    assert!(grid.len() >= 50);
    for spec in &grid {
        oracle_collective_streams(&spec.build()).unwrap_or_else(|e| panic!("[{spec}] {e}"));
    }
}

#[test]
fn step_time_bound_is_sound_across_grid() {
    // Oracle 14: the walk's bound never exceeds the folded step time,
    // a key exists exactly when the memory analyzer is silent, and its
    // memory is the reported peak, on every grid config.
    let grid = config_grid();
    assert!(grid.len() >= 50);
    for spec in &grid {
        oracle_step_time_bound(&spec.build()).unwrap_or_else(|e| panic!("[{spec}] {e}"));
    }
}

#[test]
fn planner_is_a_policy_over_the_search() {
    // Oracle 15 on both Table 2 phases (the plan leads the cp ≤ 1
    // frontier at 8K and the cp ≤ 16 one at 131K) and on a 70B and an
    // 8B problem.
    for spec in [
        SearchSpec::llama3_405b(16_384, 8_192),
        SearchSpec::llama3_405b(16_384, 131_072),
        SearchSpec::llama3_70b(8_192, 8_192),
        SearchSpec::llama3_8b(1_024, 8_192),
    ] {
        oracle_planner_vs_search(&spec)
            .unwrap_or_else(|e| panic!("{} GPUs, seq {}: {e}", spec.input.ngpu, spec.input.seq));
    }
}

#[test]
fn tiered_trace_oracle_across_grid() {
    // Oracle 9 over every grid config: replay-exact windows, aggregate
    // recomposition at every tier, slow-rank verdict parity.
    let grid = config_grid();
    assert!(grid.len() >= 50);
    for spec in &grid {
        oracle_tiered_trace(&spec.build()).unwrap_or_else(|e| panic!("[{spec}] {e}"));
    }
}

#[test]
fn run_trace_replay_matches_full_capture() {
    // Oracle 8 on fault-boosted 8-GPU runs: several seeds and two tower
    // geometries per step config, so windows land in evicted regions
    // (forcing anchored replay) as well as in tier 0.
    let rates = {
        let p = FaultRates::llama3_production();
        FaultRates {
            gpu_fail_per_gpu_hour: p.gpu_fail_per_gpu_hour * 2000.0,
            node_loss_per_gpu_hour: p.node_loss_per_gpu_hour * 2000.0,
            link_degrade_per_gpu_hour: p.link_degrade_per_gpu_hour * 2000.0,
            thermal_per_gpu_hour: p.thermal_per_gpu_hour * 2000.0,
            ..p
        }
    };
    let grid = config_grid();
    let specs: Vec<_> = grid
        .iter()
        .filter(|s| s.tp * s.cp * s.pp * s.dp == 8)
        .take(3)
        .collect();
    assert!(!specs.is_empty());
    for spec in specs {
        for seed in 0..3u64 {
            let step = spec.build();
            let timeline =
                FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, 6.0 * 3600.0, seed)
                    .expect("timeline generates");
            let sim = RunSimulator::new(
                step,
                timeline,
                CheckpointPolicy::llama3_production().with_interval(600.0),
            )
            .expect("run simulator builds");
            for cfg in [TierConfig::tiny(32, 4), TierConfig::default()] {
                oracle_run_trace_replay(&sim, cfg)
                    .unwrap_or_else(|e| panic!("[{spec}] seed {seed} cfg {cfg:?}: {e}"));
            }
        }
    }
}

#[test]
fn goodput_recomposition_matches_across_grid() {
    // ≥ 50 (step model, fault seed) combos. Rates are boosted well past
    // production so 6-hour horizons include fatal faults, degraded
    // windows and restarts, not just clean checkpoint cadence.
    let rates = {
        let p = FaultRates::llama3_production();
        FaultRates {
            gpu_fail_per_gpu_hour: p.gpu_fail_per_gpu_hour * 2000.0,
            node_loss_per_gpu_hour: p.node_loss_per_gpu_hour * 2000.0,
            link_degrade_per_gpu_hour: p.link_degrade_per_gpu_hour * 2000.0,
            thermal_per_gpu_hour: p.thermal_per_gpu_hour * 2000.0,
            ..p
        }
    };
    let grid = config_grid();
    let specs: Vec<_> = grid
        .iter()
        .filter(|s| s.tp * s.cp * s.pp * s.dp == 8)
        .take(5)
        .collect();
    assert!(specs.len() * 10 >= 50);
    let mut combos = 0u32;
    for spec in specs {
        for seed in 0..10u64 {
            let step = spec.build();
            let timeline =
                FaultTimeline::generate(rates, step.cluster.num_gpus(), 8, 6.0 * 3600.0, seed)
                    .expect("timeline generates");
            let sim = RunSimulator::new(
                step,
                timeline,
                CheckpointPolicy::llama3_production().with_interval(600.0),
            )
            .expect("run simulator builds");
            oracle_goodput_recomposition(&sim)
                .unwrap_or_else(|e| panic!("[{spec}] seed {seed}: {e}"));
            combos += 1;
        }
    }
    assert!(combos >= 50, "only {combos} goodput combos ran");
}

#[test]
fn pipeline_rules_match_execution_on_broken_schedules() {
    // Oracle 12: every edit of every op of every family at small
    // shapes. A shape a family cannot build is skipped.
    let mut mutants = 0;
    for kind in [
        ScheduleKind::AllFwdAllBwd,
        ScheduleKind::Interleaved1F1B,
        ScheduleKind::Flexible { nc: 1 },
        ScheduleKind::Flexible { nc: 2 },
        ScheduleKind::Flexible { nc: 3 },
    ] {
        for (pp, v, nmb) in [
            (2, 1, 1),
            (2, 1, 2),
            (2, 2, 2),
            (3, 1, 3),
            (2, 2, 4),
            (3, 2, 3),
            (4, 1, 4),
        ] {
            let Ok(s) = PpSchedule::build(kind, pp, v, nmb) else {
                continue;
            };
            mutants += oracle_pipeline_rules(&s, usize::MAX)
                .unwrap_or_else(|e| panic!("{kind:?} pp={pp} v={v} nmb={nmb}: {e}"));
        }
    }
    assert!(mutants >= 4000, "only {mutants} mutants");
}

#[test]
fn duplicated_forward_deadlocks_in_the_analyzer_and_the_simulator() {
    // Rank 0 runs F0.0 again after its backward. The simulator wires
    // that last copy, so rank 1's forward waits behind rank 0's
    // backward, which waits for rank 1's: four compute ops never run.
    // The error names compute ops only.
    let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 1).unwrap();
    s.ranks[0].push(PpOp::Forward { chunk: 0, mb: 0 });
    let diags = deadlock::check_schedule(&s);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, RuleId::Dead001);
    assert_eq!(
        diags[0].witness,
        [
            "rank 0: B0.0",
            "rank 1: B0.0",
            "rank 1: F0.0",
            "rank 0: F0.0"
        ]
    );
    let GraphError::Deadlock(stuck) = PpProgram::compile(&s).unwrap_err();
    assert_eq!(stuck.len(), 4);
    check_pipeline_rules(&s).unwrap();
}

#[test]
fn missing_producer_is_dead002_and_a_simulator_error() {
    // Rank 0 drops F0.1: rank 1's F0.1 waits for a forward no rank
    // schedules. The analyzer names the wait; the simulator returns a
    // deadlock instead of panicking.
    let mut s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 2, 1, 2).unwrap();
    s.ranks[0].retain(|op| *op != PpOp::Forward { chunk: 0, mb: 1 });
    let diags = deadlock::check_schedule(&s);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        diags[0].to_json_line(),
        "{\"severity\":\"error\",\"rule\":\"DEAD002\",\"rank\":1,\"op\":\"F0.1\",\
         \"message\":\"F0.1 waits for the forward of stage 0 mb 1, which no rank schedules \
         — the wait never completes\",\"witness\":[]}"
    );
    assert!(matches!(
        PpProgram::compile(&s),
        Err(GraphError::Deadlock(stuck)) if !stuck.is_empty()
    ));
    check_pipeline_rules(&s).unwrap();
}
