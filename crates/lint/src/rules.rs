//! The repo hygiene rules (`LINT001`, `LINT005`–`LINT007`), scanned
//! over a [`SourceModel`] so string literals and block comments cannot
//! fool the token scans. `LINT002`, `LINT003` and `LINT004` are
//! retired: they policed the deprecated `simulate*` wrappers, the
//! per-subcommand CLI argument structs and the number-generic cost
//! modules of the guided search, all gone. Their IDs are not reused.
//!
//! Each rule reports a [`Diagnostic`] whose `op` field carries the
//! 1-based `path:line` location and whose witness is the offending
//! line; the message texts are pinned by the golden lint test.

use crate::model::SourceModel;
use parallelism_core::analyze::{Diagnostic, RuleId};

/// Marker suppressing LINT001 on the same or previous line.
pub const UNWRAP_MARKER: &str = "lint: allow(unwrap)";
/// Marker suppressing LINT006 on the same or previous line.
pub const TRACE_VEC_MARKER: &str = "lint: allow(trace-vec)";

/// Crates below `parallelism-core` in the workspace layering — the
/// LINT005 target set. (`core` itself defines the protocol; `analyzer`,
/// `conformance`, `bench`, and `serve` sit above it and may speak it.)
const WIRE_FREE_CRATES: [&str; 7] = [
    "crates/sim/",
    "crates/cluster/",
    "crates/collectives/",
    "crates/model/",
    "crates/workload/",
    "crates/numerics/",
    "crates/trace/",
];

/// Tokens that betray wire-protocol knowledge in a substrate crate.
const WIRE_TOKENS: [&str; 3] = [
    "parallelism_core::query",
    "QUERY_API_VERSION",
    "llama3sim/1",
];

/// Unbounded full-resolution event buffers — the LINT006 token set.
const TRACE_VEC_TOKENS: [&str; 2] = ["Vec<TraceEvent>", "Vec<(u64, TraceEvent)>"];

/// The crate allowed to hold full-resolution buffers: the tiered store
/// itself and the `Trace` container it decimates.
const TRACE_VEC_HOME: &str = "crates/trace/src/";

/// Tokens that betray inference-engine knowledge in a substrate crate —
/// the LINT007 token set. The engine lives in `parallelism_core::infer`
/// (it prices the op graph on the training cost models); substrate
/// crates below `parallelism-core` must stay workload-agnostic. The
/// `workload` crate's traffic generator is deliberately *not* in this
/// set: arrival traces are plain data, not engine surface.
const INFER_TOKENS: [&str; 5] = [
    "parallelism_core::infer",
    "InferPlan",
    "InferSpec",
    "InferCosts",
    "InferenceModel",
];

fn finding(rule: RuleId, model: &SourceModel, idx: usize, message: &str) -> Diagnostic {
    Diagnostic::error(rule, message)
        .at_op(model.location(idx))
        .with_witness(vec![model.lines()[idx].raw.trim().to_string()])
}

/// Runs the four hygiene rules over one file, appending findings.
pub fn check_hygiene(model: &SourceModel, out: &mut Vec<Diagnostic>) {
    let path = model.path();
    let wire_free_crate = WIRE_FREE_CRATES.iter().any(|p| path.starts_with(p));
    let trace_vec_banned = !path.starts_with(TRACE_VEC_HOME);

    for (idx, line) in model.lines().iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();

        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !model.marked(idx, UNWRAP_MARKER)
        {
            out.push(finding(
                RuleId::Lint001,
                model,
                idx,
                "unwrap/expect in library code (return SimError or add \
                 `// lint: allow(unwrap)` with a reason)",
            ));
        }

        if wire_free_crate && WIRE_TOKENS.iter().any(|t| code.contains(t)) {
            out.push(finding(
                RuleId::Lint005,
                model,
                idx,
                "wire-protocol surface referenced below `parallelism-core` (the \
                 query types live in `parallelism_core::query`; substrate crates must \
                 not speak the serve protocol)",
            ));
        }

        if wire_free_crate && INFER_TOKENS.iter().any(|t| code.contains(t)) {
            out.push(finding(
                RuleId::Lint007,
                model,
                idx,
                "inference-engine surface referenced below `parallelism-core` (the \
                 serving engine lives in `parallelism_core::infer`; substrate crates \
                 stay workload-agnostic — traffic traces are plain data)",
            ));
        }

        if trace_vec_banned
            && TRACE_VEC_TOKENS.iter().any(|t| code.contains(t))
            && !model.marked(idx, TRACE_VEC_MARKER)
        {
            out.push(finding(
                RuleId::Lint006,
                model,
                idx,
                "unbounded full-resolution event buffer outside the tiered store \
                 (hold events in a `TieredTrace`, or mark a deliberate reference-capture \
                 site `// lint: allow(trace-vec)` with a reason)",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_path(path: &str, text: &str) -> Vec<Diagnostic> {
        let model = SourceModel::parse(path, text);
        let mut out = Vec::new();
        check_hygiene(&model, &mut out);
        out
    }

    fn lint_str(text: &str) -> Vec<Diagnostic> {
        lint_path("x.rs", text)
    }

    #[test]
    fn flags_unwrap_and_expect_in_lib_code() {
        let v = lint_str("fn f() {\n    let x = y.unwrap();\n    let z = w.expect(\"m\");\n}\n");
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rule, RuleId::Lint001);
        assert_eq!(v[0].op.as_deref(), Some("x.rs:2"));
        assert_eq!(v[1].op.as_deref(), Some("x.rs:3"));
        assert_eq!(v[0].witness, vec!["let x = y.unwrap();".to_string()]);
    }

    #[test]
    fn marker_on_same_or_previous_line_suppresses() {
        let v = lint_str(
            "fn f() {\n    // lint: allow(unwrap) — reason\n    let x = y.unwrap();\n    let z = w.unwrap(); // lint: allow(unwrap)\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_regions_and_comments_are_skipped() {
        let v = lint_str(
            "/// doc: calling `.unwrap()` panics\nfn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\nfn h() { format!(\"{{{}}}\", 1); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_on_bodyless_item_does_not_swallow_the_file() {
        let v = lint_str("#[cfg(test)]\nuse foo::bar;\nfn f() { y.unwrap(); }\n");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn unwrap_inside_a_string_literal_is_not_flagged() {
        // A line-based scan would flag this; the SourceModel scanner is
        // strictly more precise.
        let v = lint_str("fn f() {\n    let s = \"docs about .unwrap() calls\";\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_inside_a_block_comment_is_not_flagged() {
        let v = lint_str("fn f() {\n    /* y.unwrap()\n       z.unwrap() */\n    g();\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_wire_protocol_types_below_core_only() {
        let src = "use parallelism_core::query::Query;\nfn f() {}\n";
        let v = lint_path("crates/collectives/src/cost.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lint005);
        assert!(v[0].message.contains("wire-protocol"), "{v:?}");
        let above = lint_path("crates/analyzer/src/lib.rs", src);
        assert!(above.is_empty(), "{above:?}");
        // Doc comments mentioning the protocol are fine anywhere.
        let docs = lint_path(
            "crates/sim/src/graph.rs",
            "// rendered later via parallelism_core::query\nfn f() {}\n",
        );
        assert!(docs.is_empty(), "{docs:?}");
    }

    #[test]
    fn flags_inference_types_below_core_only() {
        let src = "use parallelism_core::infer::InferSpec;\nfn f() {}\n";
        let v = lint_path("crates/workload/src/traffic.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lint007);
        assert!(v[0].message.contains("inference-engine"), "{v:?}");
        // Core itself, and the crates above it, may use the engine.
        let home = lint_path("crates/core/src/infer.rs", src);
        assert!(home.is_empty(), "{home:?}");
        let above = lint_path(
            "crates/serve/src/dispatch.rs",
            "fn f(m: &InferenceModel) {}\n",
        );
        assert!(above.is_empty(), "{above:?}");
        // A bare type token below core is enough to fire.
        let bare = lint_path(
            "crates/sim/src/graph.rs",
            "fn f() { let c = InferCosts::new(); }\n",
        );
        assert_eq!(bare.len(), 1, "{bare:?}");
        assert_eq!(bare[0].rule, RuleId::Lint007);
        // Doc comments mentioning the engine are fine anywhere.
        let docs = lint_path(
            "crates/model/src/memory.rs",
            "// sized for parallelism_core::infer KV paging\nfn f() {}\n",
        );
        assert!(docs.is_empty(), "{docs:?}");
    }

    #[test]
    fn flags_trace_event_vectors_outside_the_trace_crate() {
        let src = "fn f() {\n    let buf: Vec<TraceEvent> = Vec::new();\n    let tagged: Vec<(u64, TraceEvent)> = Vec::new();\n}\n";
        let v = lint_path("crates/core/src/run.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].rule, RuleId::Lint006);
        assert!(v[0].message.contains("tiered store"), "{v:?}");
        // The trace crate itself is the home of the full-res container.
        let home = lint_path("crates/trace/src/tiered.rs", src);
        assert!(home.is_empty(), "{home:?}");
        // A marked reference-capture site is exempt.
        let ok = lint_str(
            "fn f() {\n    // lint: allow(trace-vec) — oracle reference\n    let buf: Vec<TraceEvent> = Vec::new();\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}
