//! Fixture: one violation per hygiene rule, in rule order, so the
//! fixture test pins every rule ID and location at once. Linted under
//! the path `crates/collectives/src/fixture.rs` (a wire-free substrate
//! crate) so LINT005 applies. LINT004 is retired with the
//! number-generic cost modules it policed; its ID is not reused.

fn unwrap_site(y: Result<u32, ()>) -> u32 {
    y.unwrap()
}

// Lines 11-17 held the LINT002 site (a deprecated `simulate_at`
// call) and the LINT003 site (a literal CLI argument struct). Both
// rules are retired with the wrappers and argument structs they
// policed; their IDs are not reused. This note keeps the findings
// below on the lines the golden lint files pin, so retiring the
// rules changes no other golden line: LINT005 stays at line 20 and
// LINT006 at line 24.

fn wire_site() {
    let q = parallelism_core::query::Query::Version;
}

fn trace_vec_site() {
    let buf: Vec<TraceEvent> = Vec::new();
}
