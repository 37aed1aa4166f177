#!/usr/bin/env bash
# Full local gate: release build, workspace tests, strict clippy.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check (the workspace stays rustfmt-clean)"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> run every example: each must exit 0 (they write files only under the temp dir)"
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> llama3sim lint (hygiene LINT001 + LINT005-007 + concurrency LOCK001-003: lock hierarchy, condvar discipline, no compute under a guard)"
cargo run --release -q --bin llama3sim -- lint

echo "==> interleave battery: exhaustive bounded-schedule model check of the coalescing protocol"
cargo test -q -p interleave --features interleave_check

if cargo +nightly --version >/dev/null 2>&1; then
  echo "==> ThreadSanitizer pass over the serve tests (nightly)"
  RUSTFLAGS="-Z sanitizer=thread" cargo +nightly test -q -p serve \
    -Z build-std --target x86_64-unknown-linux-gnu ||
    echo "    (tsan pass failed to build in this environment; the interleave battery above is the gating check)"
else
  echo "==> ThreadSanitizer pass skipped (no nightly toolchain installed)"
fi

echo "==> serve smoke: start, 3 queries over a socket, clean shutdown"
cargo run --release -q --bin llama3sim -- serve --self-test

echo "==> pre-flight analysis across the conformance grid (zero errors expected)"
cargo run --release -q --bin llama3sim -- analyze --grid

echo "==> conformance fuzz smoke (200 cases)"
cargo run --release -q --bin llama3sim -- fuzz --cases 200 --seed 0xC0FFEE

echo "==> trace smoke: 24 h 405B/16K run in O(log N) memory, three window seeks replay-exact vs the O(N) reference (writes BENCH_trace.json)"
cargo run --release -q --bin llama3sim -- trace --smoke

echo "==> goodput snapshot: seeded 24 h 405B/16K run under production fault rates, within a 60 s budget (writes BENCH_goodput.json)"
timeout 60 cargo run --release -q --bin llama3sim -- goodput

echo "==> infer smoke: 405B/16K continuous-batching day across all three traffic shapes, thread-count invariant, within a 60 s budget (writes BENCH_infer.json)"
timeout 60 cargo run --release -q --bin llama3sim -- infer --grid --json

echo "==> auto-parallelism search smoke: Table 2's 405B/16K mesh must be on the cp=1 frontier (writes BENCH_search.json)"
cargo run --release -q --bin llama3sim -- search --max-cp 1 --expect 8,1,16,128

echo "==> repro all: the committed repro_output.txt is its stdout, byte for byte"
cargo run --release -q -p bench-harness --bin repro -- all | diff - repro_output.txt

echo "==> full 405B/16K search: the walk's step-time bound holds on every runnable candidate"
cargo test --release -q -p parallelism-core --lib search::tests::full_space_bound_is_sound -- --ignored

echo "==> the benchmark builds and its tests pass against this workspace's API"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> committed BENCH_*.json envelopes must equal the ones regenerated above"
git diff --exit-code -- 'BENCH_*.json'

echo "==> all checks passed"
