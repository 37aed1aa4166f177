//! # analyzer
//!
//! Pre-flight static analysis of parallelism plans, packaged as the
//! library behind `llama3sim analyze`. The analysis engine itself
//! lives in [`parallelism_core::analyze`] (so the simulator's opt-in
//! pre-flight gate can use it without a dependency cycle); this crate
//! re-exports it, names the paper's production configurations, and
//! sweeps the conformance grid.
//!
//! ```
//! use analyzer::{named_step, analyze_step};
//!
//! let step = named_step("scaled_405b").expect("known config");
//! let report = analyze_step(&step);
//! assert!(!report.has_errors());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use parallelism_core::analyze::{self, analyze_step, Diagnostic, Report, RuleId, Severity};

use conformance::fuzz::CaseSpec;
use conformance::grid::config_grid;
use parallelism_core::step::StepModel;

/// The named configurations `llama3sim analyze` accepts, with one-line
/// descriptions. All are defined in `bench_harness::configs`.
pub const NAMED_CONFIGS: [(&str, &str); 4] = [
    (
        "llama3_405b_16k",
        "production short-context step: 405B, 16K GPUs, tp8/cp1/pp16/dp128, bs 16, seq 8192",
    ),
    (
        "llama3_405b_16k_long",
        "production long-context step: 405B, 16K GPUs, tp8/cp16/pp16/dp8, bs 16, seq 131072",
    ),
    (
        "llama3_405b_8k",
        "8K-GPU short-context step: 405B, tp8/cp1/pp16/dp64, bs 16, seq 8192",
    ),
    (
        "scaled_405b",
        "the §7.1 scaled-down 405B pipeline testbed: 64 GPUs, tp8/cp1/pp4/dp2, bs 12",
    ),
];

/// Resolves a configuration name to its [`StepModel`]. Names are listed
/// in [`NAMED_CONFIGS`]; unknown names return `None`.
pub fn named_step(name: &str) -> Option<StepModel> {
    use bench_harness::configs;
    use parallelism_core::pp::balance::BalancePolicy;
    use parallelism_core::pp::schedule::ScheduleKind;
    match name {
        "llama3_405b_16k" => Some(configs::production_short_context(16)),
        "llama3_405b_16k_long" => Some(configs::production_long_context(1)),
        "llama3_405b_8k" => Some(configs::production_8k_gpu_step(16)),
        "scaled_405b" => Some(configs::scaled_405b_step(
            ScheduleKind::Flexible { nc: 4 },
            BalancePolicy::Uniform,
            false,
        )),
        _ => None,
    }
}

/// Analyzes every configuration of the conformance grid (8 meshes × 4
/// schedule kinds × 2 virtual-stage counts) and returns each spec with
/// its report. Normalized grid specs must produce zero error-severity
/// diagnostics — CI fails the sweep otherwise.
pub fn analyze_grid() -> Vec<(CaseSpec, Report)> {
    config_grid()
        .into_iter()
        .map(|spec| {
            let report = analyze_step(&spec.build());
            (spec, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_config_resolves_and_passes() {
        for (name, _) in NAMED_CONFIGS {
            let step = named_step(name).unwrap_or_else(|| panic!("unknown config {name}"));
            let report = analyze_step(&step);
            assert!(
                !report.has_errors(),
                "{name} fails pre-flight:\n{}",
                report.render_human()
            );
        }
        assert!(named_step("no_such_config").is_none());
    }

    #[test]
    fn grid_sweep_is_error_free() {
        let results = analyze_grid();
        assert_eq!(results.len(), 64);
        for (spec, report) in &results {
            assert!(
                !report.has_errors(),
                "[{spec}] fails pre-flight:\n{}",
                report.render_human()
            );
        }
    }
}
