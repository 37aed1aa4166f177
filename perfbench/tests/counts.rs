//! The counts that are deterministic by construction repeat exactly
//! across two runs at one seed, so a later count-based claim has a
//! base. These run the real workloads: use `cargo test --release`.

use perfbench::{search, serve_day, train_step};
use std::sync::{Mutex, MutexGuard};

/// The memos and their counters are process-global, and every workload
/// uses them, so these tests must not run concurrently.
static MEMOS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    MEMOS.lock().unwrap_or_else(|e| e.into_inner())
}

fn repeats(name: &str, counts: impl Fn(u64) -> Vec<(&'static str, u64)>) {
    let _memos = serial();
    let first = counts(7);
    assert!(
        first.iter().any(|(_, v)| *v > 0),
        "{name}: every count is 0: {first:?}"
    );
    assert_eq!(
        first,
        counts(7),
        "{name}: counts differ between two runs at one seed"
    );
}

#[test]
fn train_step_counts_repeat() {
    repeats("train_step", train_step::counts);
}

#[test]
fn search_counts_repeat() {
    repeats("search", search::counts);
}

#[test]
fn serve_day_counts_repeat() {
    repeats("serve_day", serve_day::counts);
}

#[test]
fn serve_day_counts_follow_the_seed() {
    let _memos = serial();
    assert_ne!(serve_day::counts(7), serve_day::counts(8));
}
