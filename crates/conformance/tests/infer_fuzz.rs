//! The inference fuzz battery: seeded serving scenarios (traffic shape
//! × arrival rate × mesh × KV paging × batch cap) cross-checked by
//! conformance oracle 10 — the continuous-batching engine vs the
//! independent naive rewalk, with token/block conservation and
//! same-seed determinism — and greedily shrunk on the first violation.
//! Each case prices a full serving horizon, so the battery is smaller
//! than the trace-store family's but still covers all three traffic
//! shapes many times over.

use conformance::fuzz::run_infer_sweep;
use parallelism_core::query::FuzzQuery;

#[test]
fn infer_battery_40_cases_is_clean() {
    let args = FuzzQuery { cases: 40, seed: 1 };
    let mut heartbeats = 0u32;
    let ce = run_infer_sweep(&args, |_clean| heartbeats += 1);
    if let Some(ce) = ce {
        panic!(
            "counterexample at case {} (shrunk in {} steps to [{}]):\n  {}\n  {}",
            ce.case, ce.shrink_steps, ce.min_spec, ce.message, ce.min_message
        );
    }
    assert_eq!(heartbeats, 4, "progress should tick every 10 cases");
}

#[test]
fn infer_sweep_replays_identically() {
    // Same (cases, seed) pair, same verdict — the sweep is a pure
    // function of its arguments.
    let args = FuzzQuery {
        cases: 6,
        seed: 0xBEEF,
    };
    assert!(run_infer_sweep(&args, |_| {}).is_none());
    assert!(run_infer_sweep(&args, |_| {}).is_none());
}
