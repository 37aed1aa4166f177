//! Golden-output tests pinning the `llama3sim` CLI, and the planner's
//! `repro table2` report, byte-for-byte.
//!
//! The goldens under `tests/golden/` were captured from the CLI
//! *before* its migration onto the `parallelism_core::query` dispatch
//! path; these tests assert the migrated CLI still produces the same
//! bytes for the same fixed inputs. The CLI prints no timings, so only
//! the envelope-file notices (`wrote BENCH_*.json`) are stripped
//! before comparison — everything else must match exactly.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_cli
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs the CLI in a scratch directory (so `BENCH_*.json` side files
/// never land in the repo) and returns `(stdout, stderr, exit code)`.
fn run_cli(args: &[&str]) -> (String, String, i32) {
    let scratch = std::env::temp_dir().join(format!(
        "llama3sim_golden_{}_{}",
        std::process::id(),
        args.join("_").replace(['-', ',', '/'], "")
    ));
    fs::create_dir_all(&scratch).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_llama3sim"))
        .args(args)
        .current_dir(&scratch)
        .output()
        .expect("run llama3sim");
    let _ = fs::remove_dir_all(&scratch);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Drops the envelope-file notices, which name a side file rather
/// than the answer.
fn strip_volatile(text: &str) -> String {
    let mut kept: String = text
        .lines()
        .filter(|l| !l.starts_with("wrote BENCH"))
        .map(|l| format!("{l}\n"))
        .collect();
    if !text.ends_with('\n') {
        kept.pop();
    }
    kept
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, actual).expect("bless golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} (run with BLESS=1 to create): {e}"));
    assert_eq!(
        actual, expected,
        "output diverged from tests/golden/{name}; rerun with BLESS=1 if intentional"
    );
}

#[test]
fn analyze_list_matches_golden() {
    let (out, _err, code) = run_cli(&["analyze", "--list"]);
    assert_eq!(code, 0);
    assert_golden("analyze_list.txt", &out);
}

#[test]
fn analyze_config_matches_golden() {
    let (out, _err, code) = run_cli(&["analyze", "--config", "scaled_405b"]);
    assert_eq!(code, 0);
    assert_golden("analyze_config.txt", &out);
}

#[test]
fn analyze_config_json_matches_golden() {
    let (out, _err, code) = run_cli(&["analyze", "--config", "scaled_405b", "--json"]);
    assert_eq!(code, 0);
    assert_golden("analyze_config_json.txt", &out);
}

#[test]
fn analyze_grid_matches_golden() {
    let (out, _err, code) = run_cli(&["analyze", "--grid"]);
    assert_eq!(code, 0);
    assert_golden("analyze_grid.txt", &out);
}

#[test]
fn fuzz_matches_golden_on_stdout_and_stderr() {
    let (out, err, code) = run_cli(&["fuzz", "--cases", "3", "--seed", "1"]);
    assert_eq!(code, 0);
    assert_golden("fuzz_small.txt", &out);
    assert_golden("fuzz_small.stderr.txt", &err);
}

#[test]
fn search_matches_golden() {
    let (out, err, code) = run_cli(&[
        "search", "--model", "8b", "--gpus", "8", "--layers", "4", "--budget", "131072",
        "--max-cp", "2",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("search_8b_small.txt", &strip_volatile(&out));
}

#[test]
fn trace_chrome_matches_golden_at_two_zooms() {
    // A one-hour 8B run on 8 GPUs emits a few dozen events — small
    // enough to pin the chrome export byte-for-byte at full resolution
    // and at a 4x decimation.
    let base = ["trace", "--model", "8b", "--gpus", "8", "--horizon", "3600"];
    let (out, err, code) = run_cli(&[&base[..], &["--zoom", "0"]].concat());
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("trace_8b_zoom0.txt", &strip_volatile(&out));
    let (out, err, code) = run_cli(&[&base[..], &["--zoom", "2"]].concat());
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("trace_8b_zoom2.txt", &strip_volatile(&out));
}

#[test]
fn trace_stats_json_envelope_matches_golden() {
    let (out, err, code) = run_cli(&[
        "trace",
        "--model",
        "8b",
        "--gpus",
        "8",
        "--horizon",
        "3600",
        "--stats",
        "--json",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("trace_8b_stats_json.txt", &strip_volatile(&out));
}

#[test]
fn infer_small_serving_day_matches_golden() {
    // The same small scenario the serve self-test replays: 8B on
    // 8 GPUs, a steady 20K-requests/day trace compressed to 300 s.
    let (out, err, code) = run_cli(&[
        "infer",
        "--model",
        "8b",
        "--gpus",
        "8",
        "--traffic",
        "steady",
        "--rpd",
        "20000",
        "--horizon",
        "300",
        "--seed",
        "7",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("infer_8b_small.txt", &strip_volatile(&out));
}

#[test]
fn help_matches_golden_usage() {
    // Every flag line is generated from a query field table or a
    // CLI-only flag; this pin shows any change to one in review.
    let (out, err, code) = run_cli(&["--help"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert_golden("usage.txt", &out);
}

#[test]
fn unknown_config_is_a_usage_error() {
    let (_out, err, code) = run_cli(&["analyze", "--config", "no_such_config"]);
    assert_eq!(code, 2);
    assert!(
        err.starts_with("unknown config `no_such_config`"),
        "stderr: {err}"
    );
}

#[test]
fn repro_table2_matches_golden() {
    // The §5.1 planner's printed numbers: meshes, bs, ZeRO/schedule,
    // memory, simulated TFLOPs and the reasoning lines, as `repro
    // table2` prints them under its banner.
    assert_golden(
        "repro_table2.txt",
        &bench_harness::experiments::table2::run(),
    );
}
