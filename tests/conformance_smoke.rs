//! Library-API smoke sweep of the conformance fuzz battery: a short,
//! deterministic run of the same sampler `llama3sim fuzz` drives, so
//! `cargo test` alone exercises the invariant checkers and cheap
//! oracles end-to-end. The deep sweeps stay in the CLI
//! (`scripts/check.sh` runs 200 cases; CI acceptance runs 2000).

use conformance::fuzz::{CaseSpec, FuzzFamily};
use proptest::test_runner::TestRng;

#[test]
fn short_fuzz_sweep_is_clean() {
    let mut rng = TestRng::new(1);
    for case in 0..25 {
        let spec = CaseSpec::sample(&mut rng);
        spec.check()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
