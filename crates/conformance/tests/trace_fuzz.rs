//! The tiered-trace fuzz battery: 2000 seeded op scripts (random
//! append/seek/zoom/stream sequences) against the model-based reference
//! store, with greedy shrinking on the first violation. Deliberately
//! larger than the default CLI sweep — each case is orders of magnitude
//! cheaper than a step-model case, so the whole battery stays in the
//! low seconds.

use conformance::fuzz::run_trace_sweep;
use parallelism_core::query::FuzzQuery;

#[test]
fn trace_op_battery_2000_cases_is_clean() {
    let args = FuzzQuery {
        cases: 2000,
        seed: 1,
    };
    let mut heartbeats = 0u32;
    let ce = run_trace_sweep(&args, |_clean| heartbeats += 1);
    if let Some(ce) = ce {
        panic!(
            "counterexample at case {} (shrunk in {} steps to [{}]):\n  {}\n  {}",
            ce.case, ce.shrink_steps, ce.min_spec, ce.message, ce.min_message
        );
    }
    assert_eq!(heartbeats, 4, "progress should tick every 500 cases");
}

#[test]
fn trace_sweep_replays_identically() {
    // Same (cases, seed) pair, same verdict — the sweep is a pure
    // function of its arguments.
    let args = FuzzQuery {
        cases: 50,
        seed: 0xD15C,
    };
    assert!(run_trace_sweep(&args, |_| {}).is_none());
    assert!(run_trace_sweep(&args, |_| {}).is_none());
}
