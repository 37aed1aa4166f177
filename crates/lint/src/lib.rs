//! # lint
//!
//! Repo-local static analysis: the source hygiene rules (`LINT001`,
//! `LINT005`–`LINT007`) and the concurrency rules (`LOCK001`–`LOCK003`)
//! behind `llama3sim lint`. Dependency-free by design — the scanner is a
//! string/comment-aware token model ([`model::SourceModel`]), not a
//! full parser, so it runs in milliseconds over the whole workspace
//! and its failure modes are easy to reason about (documented per rule
//! in [`rules`] and [`locks`]).
//!
//! Findings are [`parallelism_core::analyze::Diagnostic`]s: the same
//! type the schedule analyzer emits, so `llama3sim lint` shares the
//! human and JSONL renderers (and the stable-rule-ID contract) with
//! `llama3sim analyze`. The `op` field carries the 1-based
//! `path:line` location; the witness holds the offending source lines.
//!
//! ```
//! let report = lint::lint_path(
//!     "crates/serve/src/x.rs",
//!     "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    let flights = lock_or_recover(&self.flights);\n}\n",
//! );
//! assert_eq!(report[0].rule, parallelism_core::analyze::RuleId::Lock001);
//! assert_eq!(report[0].op.as_deref(), Some("crates/serve/src/x.rs:3"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod locks;
pub mod model;
pub mod rules;

pub use locks::{CONDVAR_CLASSES, LOCK_HIERARCHY, LOCK_SCOPE};
pub use model::SourceModel;

use parallelism_core::analyze::Diagnostic;
use std::fs;
use std::path::{Path, PathBuf};

/// Sources exempt from every rule (relative to the repo root): the
/// figure-generation experiment scripts — bin-style code living in a
/// library module, where aborting on bad data is the contract.
const ALLOWED_PATHS: [&str; 1] = ["crates/bench/src/experiments"];

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files: usize,
    /// Every finding, in (path, line) order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when no rule fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints one in-memory file under its repo-relative `path` (which
/// decides which path-scoped rules apply; it need not exist on disk).
pub fn lint_path(path: &str, text: &str) -> Vec<Diagnostic> {
    let model = SourceModel::parse(path, text);
    let mut out = Vec::new();
    rules::check_hygiene(&model, &mut out);
    if locks::in_scope(path) {
        locks::check_locks(&model, &mut out);
    }
    sort_findings(&mut out);
    out
}

/// Lints every library source under `<root>/crates/*/src`.
pub fn lint_repo(root: &Path) -> LintReport {
    let mut files = Vec::new();
    collect_lib_sources(&root.join("crates"), root, &mut files);
    files.sort();
    let mut report = LintReport {
        files: files.len(),
        diagnostics: Vec::new(),
    };
    for file in &files {
        let rel = file.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(root.join(file)) {
            Ok(text) => report.diagnostics.extend(lint_path(&rel, &text)),
            Err(_) => report.diagnostics.push(
                Diagnostic::error(
                    parallelism_core::analyze::RuleId::Lint001,
                    "unreadable source file",
                )
                .at_op(rel),
            ),
        }
    }
    sort_findings(&mut report.diagnostics);
    report
}

/// Orders findings by (path, line, rule) so output is stable across
/// filesystems.
fn sort_findings(out: &mut [Diagnostic]) {
    out.sort_by_key(|d| {
        let op = d.op.clone().unwrap_or_default();
        let (path, line) = match op.rsplit_once(':') {
            Some((p, l)) => (p.to_string(), l.parse::<u64>().unwrap_or(0)),
            None => (op, 0),
        };
        (path, line, d.rule.as_str())
    });
}

/// The repository root: the nearest ancestor of the current directory
/// holding a `crates/` directory (so the tool works from any subdir).
pub fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Recursively collects `.rs` files under `crates/*/src`, skipping
/// `bin/` directories and the allow-listed sub-trees. Paths are stored
/// relative to the repo root.
pub fn collect_lib_sources(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            if ALLOWED_PATHS.contains(&rel_str.as_str()) {
                continue;
            }
            // Under crates/<name>/, only descend into src/ (skip
            // tests/, benches/, examples/, fixtures/, target/).
            let depth = rel.components().count();
            if depth == 3 && path.file_name().is_some_and(|n| n != "src") {
                continue;
            }
            collect_lib_sources(&path, root, out);
        } else if rel_str.ends_with(".rs")
            && rel_str.contains("/src/")
            && !ALLOWED_PATHS.contains(&rel_str.as_str())
        {
            out.push(rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallelism_core::analyze::RuleId;

    #[test]
    fn lint_path_combines_hygiene_and_lock_rules_in_scope() {
        let src = "fn f(&self) {\n    let slot = lock_or_recover(&self.slot);\n    let flights = lock_or_recover(&self.flights);\n    y.unwrap();\n}\n";
        let v = lint_path("crates/serve/src/x.rs", src);
        let rules: Vec<RuleId> = v.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RuleId::Lock001), "{v:?}");
        assert!(rules.contains(&RuleId::Lint001), "{v:?}");
        // Out of scope: the same inversion in a non-substrate crate
        // only trips the hygiene rule.
        let elsewhere = lint_path("crates/core/src/x.rs", src);
        assert!(
            elsewhere.iter().all(|d| d.rule != RuleId::Lock001),
            "{elsewhere:?}"
        );
    }

    #[test]
    fn findings_are_ordered_by_path_and_line() {
        let src = "fn f() {\n    b.unwrap();\n    a.unwrap();\n}\n";
        let v = lint_path("x.rs", src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].op.as_deref(), Some("x.rs:2"));
        assert_eq!(v[1].op.as_deref(), Some("x.rs:3"));
    }

    #[test]
    fn the_repo_itself_is_clean() {
        // The gating contract: `llama3sim lint` stays green over every
        // library source in the workspace. (Runs from the crate dir —
        // repo_root() climbs to the workspace.)
        let report = lint_repo(&repo_root());
        assert!(
            report.files > 40,
            "expected the full workspace, got {}",
            report.files
        );
        let rendered: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| d.render_human())
            .collect();
        assert!(report.clean(), "{}", rendered.join("\n"));
    }
}
