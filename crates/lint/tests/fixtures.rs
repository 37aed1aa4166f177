//! Mutation tests of the lint rules: each fixture under `fixtures/`
//! carries a deliberately injected defect (or, for the clean fixture,
//! none), and the rules must fire — or stay silent — at exactly the
//! pinned `path:line` locations. This is the static half of the
//! contract whose dynamic half lives in
//! `crates/interleave/tests/dispatcher_protocol.rs`: the same
//! inversion, lost-wakeup, and guard-discipline bugs, caught by scan
//! here and by exhaustive interleaving there.

use parallelism_core::analyze::RuleId;

fn lint_as(path: &str, text: &str) -> Vec<parallelism_core::analyze::Diagnostic> {
    lint::lint_path(path, text)
}

#[test]
fn injected_lock_inversion_fires_lock001_with_both_sites() {
    let v = lint_as(
        "crates/serve/src/fixture.rs",
        include_str!("../fixtures/lock_inversion.rs"),
    );
    let hits: Vec<_> = v.iter().filter(|d| d.rule == RuleId::Lock001).collect();
    assert_eq!(hits.len(), 1, "{v:?}");
    assert_eq!(
        hits[0].op.as_deref(),
        Some("crates/serve/src/fixture.rs:16")
    );
    assert!(
        hits[0]
            .message
            .contains("`flights` acquired while holding `slot`"),
        "{:?}",
        hits[0]
    );
    // The witness names both sites: where the outer guard was taken
    // and where the inversion happened.
    assert!(
        hits[0].witness[0].contains("fixture.rs:13"),
        "{:?}",
        hits[0].witness
    );
    assert!(
        hits[0].witness[1].contains("fixture.rs:16"),
        "{:?}",
        hits[0].witness
    );
}

#[test]
fn injected_bare_wait_and_loopless_timeout_fire_lock002() {
    let v = lint_as(
        "crates/serve/src/fixture.rs",
        include_str!("../fixtures/bare_wait.rs"),
    );
    let hits: Vec<_> = v.iter().filter(|d| d.rule == RuleId::Lock002).collect();
    assert_eq!(hits.len(), 2, "{v:?}");
    assert_eq!(
        hits[0].op.as_deref(),
        Some("crates/serve/src/fixture.rs:15")
    );
    assert!(
        hits[0].message.contains("unbounded Condvar wait"),
        "{:?}",
        hits[0]
    );
    assert_eq!(
        hits[1].op.as_deref(),
        Some("crates/serve/src/fixture.rs:23")
    );
    assert!(
        hits[1].message.contains("outside a predicate loop"),
        "{:?}",
        hits[1]
    );
}

#[test]
fn injected_compute_under_lock_fires_lock003() {
    let v = lint_as(
        "crates/serve/src/fixture.rs",
        include_str!("../fixtures/guard_across_compute.rs"),
    );
    let hits: Vec<_> = v.iter().filter(|d| d.rule == RuleId::Lock003).collect();
    assert_eq!(hits.len(), 1, "{v:?}");
    assert_eq!(
        hits[0].op.as_deref(),
        Some("crates/serve/src/fixture.rs:13")
    );
    assert!(
        hits[0]
            .witness
            .iter()
            .any(|w| w.contains("`responses` held since")),
        "{:?}",
        hits[0].witness
    );
}

#[test]
fn the_clean_protocol_fixture_is_silent() {
    let v = lint_as(
        "crates/serve/src/fixture.rs",
        include_str!("../fixtures/clean_protocol.rs"),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn hygiene_fixture_fires_one_finding_per_rule_in_order() {
    let v = lint_as(
        "crates/collectives/src/fixture.rs",
        include_str!("../fixtures/hygiene.rs"),
    );
    let rules: Vec<RuleId> = v.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        vec![RuleId::Lint001, RuleId::Lint005, RuleId::Lint006,],
        "{v:?}"
    );
    for d in &v {
        let op = d.op.as_deref().unwrap_or("");
        assert!(
            op.starts_with("crates/collectives/src/fixture.rs:"),
            "{d:?}"
        );
        assert!(
            !d.witness.is_empty(),
            "every finding carries its line: {d:?}"
        );
    }
}
