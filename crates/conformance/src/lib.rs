//! # conformance
//!
//! Cross-checking layer for the simulator: the schedule generators and
//! the two timing engines carry fast paths (DP-symmetry folding,
//! memoized collective costs, the fluid disjoint-single-link shortcut)
//! whose equivalence to the slow paths must hold on *every*
//! configuration, not just the hand-picked Llama 3 points. Following
//! the simulator-validation practice of RAPID-LLM and Charon, this
//! crate treats that as a first-class subsystem with three layers:
//!
//! 1. [`invariants`] — reusable non-panicking `check_*` functions over
//!    schedules, executed task graphs, process groups, memory models
//!    and traces.
//! 2. [`oracles`] — a generic [`oracles::assert_equivalent`] harness
//!    plus the eleven differential oracles (folded vs full fidelity
//!    and traced vs untraced runs, memoized vs uncached collective
//!    costs, fluid fast path vs the general max-min solver,
//!    `RunSimulator` day totals vs an independent naive recomposition,
//!    the bounded search walk vs unpruned exhaustive scoring,
//!    tiered-trace replay and aggregates vs full-resolution references,
//!    the continuous-batching inference engine vs an independent naive
//!    rewalk, the pipeline deadlock and race rules vs execution and a
//!    brute-force closure, `COLL001` per pp coordinate vs per member,
//!    and the search's step-time bound vs the folded run).
//!    [`lowering`] holds their engine reference for pipeline
//!    schedules: the schedule lowered onto the task-graph engine.
//! 3. [`fuzz`] — seeded random `(model, mesh, schedule, options)`
//!    sampling with greedy dimension-halving shrinking, driven by
//!    `llama3sim fuzz`; counterexamples are emitted as ready-to-paste
//!    `#[test]` functions.
//!
//! Every later perf or refactor PR runs this crate (unit tests via
//! `cargo test`, the fuzz smoke stage via `scripts/check.sh`) before
//! touching the hot paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod grid;
pub mod invariants;
pub mod lowering;
pub mod oracles;
