//! Negative-path contract tests: the fallible constructors must reject
//! invalid inputs with `Display` messages that name the offending
//! value, so a planner or CLI user sees *what* was wrong, not just
//! that something was.

use llama3_parallelism::cluster::{JitterKind, JitterModel};
use llama3_parallelism::prelude::*;
use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn mesh_rejects_zero_dimensions_naming_the_shape() {
    let err = Mesh4D::try_new(0, 1, 1, 1).expect_err("zero TP must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("[0, 1, 1, 1]"),
        "message does not name the offending shape: {msg}"
    );
    for (tp, cp, pp, dp, needle) in [
        (2, 0, 2, 2, "[2, 0, 2, 2]"),
        (2, 2, 0, 2, "[2, 2, 0, 2]"),
        (2, 2, 2, 0, "[2, 2, 2, 0]"),
    ] {
        let msg = Mesh4D::try_new(tp, cp, pp, dp)
            .expect_err("zero dim")
            .to_string();
        assert!(msg.contains(needle), "missing {needle}: {msg}");
    }
}

#[test]
fn cluster_rejects_non_multiple_of_node_size_naming_the_count() {
    let err = Cluster::try_llama3(12).expect_err("12 GPUs is not a whole node count");
    let msg = err.to_string();
    assert!(msg.contains("12"), "message does not name the count: {msg}");
    assert!(
        msg.contains("multiple of 8"),
        "message does not state the constraint: {msg}"
    );
    let msg = Cluster::try_llama3(0)
        .expect_err("empty cluster")
        .to_string();
    assert!(msg.contains('0'), "message does not name the count: {msg}");
}

#[test]
fn jitter_rejects_bad_amplitudes_naming_the_value() {
    for (amplitude, needle) in [(-0.5, "-0.5"), (f64::NAN, "NaN"), (f64::INFINITY, "inf")] {
        let err = JitterModel::try_new(JitterKind::Static, amplitude, 7)
            .expect_err("non-physical amplitude must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "message does not name {amplitude}: {msg}"
        );
    }
    // The happy path still holds.
    assert!(JitterModel::try_new(JitterKind::Static, 0.05, 7).is_ok());
}

#[test]
fn valid_inputs_still_construct() {
    assert!(Mesh4D::try_new(8, 1, 4, 2).is_ok());
    assert!(Cluster::try_llama3(64).is_ok());
}

/// A reader that closes the pipe early (`llama3sim trace | head -c
/// 100`) ends the CLI quietly instead of panicking on the failed write.
/// The day-long 8B chrome export is ~95 KiB, more than a 64 KiB pipe
/// buffer holds, so the CLI is still writing when the pipe closes.
#[test]
fn cli_exits_quietly_when_stdout_closes_early() {
    let scratch = std::env::temp_dir().join(format!("llama3sim_epipe_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_llama3sim"))
        .args(["trace", "--model", "8b", "--gpus", "8"])
        .current_dir(&scratch)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run llama3sim");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("read the first bytes");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for llama3sim");
    let _ = std::fs::remove_dir_all(&scratch);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "CLI panicked: {stderr}");
    assert!(!stderr.contains("panicked"), "CLI panicked: {stderr}");
}
