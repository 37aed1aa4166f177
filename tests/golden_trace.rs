//! Golden-file test for the Chrome trace emitter: the exported JSON
//! for a fixed small configuration must be byte-identical to the
//! blessed snapshot in `tests/golden/`. Regenerate after an intended
//! format change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_trace
//! ```

use llama3_parallelism::prelude::*;
use llama3_parallelism::trace::chrome::to_chrome_json;
use llama3_parallelism::trace::Trace;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("chrome_trace_8b.json")
}

fn step_trace() -> Trace {
    let cfg = TransformerConfig::llama3_8b();
    let layout = ModelLayout::text(cfg);
    let assignment = StageAssignment::build(&layout, 2, 2, BalancePolicy::Uniform);
    let model = StepModel {
        cluster: Cluster::llama3(8),
        mesh: Mesh4D::new(2, 1, 2, 2),
        layout,
        assignment,
        schedule: ScheduleKind::Flexible { nc: 2 },
        zero: ZeroMode::Zero1,
        bs: 4,
        seq: 4096,
        mask: MaskSpec::Causal,
        recompute: false,
    };
    let outcome = model
        .run(&SimOptions::new().trace(true))
        .expect("simulation succeeds");
    outcome.trace.expect("trace requested")
}

fn emit_trace() -> String {
    to_chrome_json(&step_trace()).expect("emitter succeeds")
}

#[test]
fn chrome_trace_matches_golden_file() {
    let rendered = emit_trace();
    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `BLESS=1 cargo test --test golden_trace`",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "chrome trace drifted from {} (rendered {} bytes vs blessed {}); \
         if the change is intended, regenerate with BLESS=1",
        path.display(),
        rendered.len(),
        golden.len()
    );
}

#[test]
fn tiered_store_at_tier_0_exports_the_same_golden_bytes() {
    // Routing the same step trace through the tiered store and reading
    // it back at full resolution must not change a single byte of the
    // chrome export: tier 0 is a lossless ring.
    let trace = step_trace();
    let direct = to_chrome_json(&trace).expect("emitter succeeds");
    let mut store = TieredTrace::new(TierConfig::default());
    store.extend_from_trace(&trace);
    assert_eq!(
        store.resident_events() as u64,
        store.appended(),
        "the 8B step trace must fit tier 0 without eviction"
    );
    let routed = to_chrome_json(&store.sampled(0)).expect("emitter succeeds");
    assert_eq!(
        routed, direct,
        "tier-0 round trip altered the chrome export"
    );
}

#[test]
fn golden_trace_is_valid_and_deterministic() {
    let a = emit_trace();
    let b = emit_trace();
    assert_eq!(a, b, "trace emission is not deterministic");
    assert!(a.starts_with('[') && a.ends_with(']'));
    assert!(a.contains("\"ph\":\"X\""));
}
