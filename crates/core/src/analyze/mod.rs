//! Pre-flight static analysis of parallelism plans.
//!
//! The paper attributes a large share of lost goodput to defects that
//! only surface at scale: mismatched collectives hang like a bad NCCL
//! call, PP send/recv cycles deadlock the pipeline, and memory plans
//! that exceed HBM abort minutes into a run. This module statically
//! rejects such plans in microseconds — **nothing is timed on the
//! analysis path**: the pipeline rules read the schedule's compiled
//! [`PpProgram`] — the program the simulator times, since a program
//! holds no costs until a pass binds them — and no task graph is built
//! or executed.
//!
//! Four rule families, each with stable rule IDs:
//!
//! * [`collective`] — `COLL001`: per-rank collective streams over each
//!   process group must issue identical op sequences (kind, bytes,
//!   group shape).
//! * [`deadlock`] — `DEAD001`/`DEAD002`: every producer of the PP p2p
//!   send/recv pairing must be scheduled, and every op must be in the
//!   program's Kahn order (no wait-for cycle).
//! * [`memory`] — `MEM001`/`MEM002`: an analytical per-rank peak-memory
//!   bound must fit the GPU's HBM capacity (error) and the planner's
//!   budget fraction (warning).
//! * [`race`] — `RACE001`: two ops touching the same buffer lane must
//!   be ordered by the program's happens-before relation.
//!
//! Schedule parameters that cannot even build report as `PLAN001`.
//!
//! Everything flows through one [`Diagnostic`] type rendered human-
//! readable ([`Report::render_human`]) or as JSON lines
//! ([`Report::render_jsonl`]). [`crate::step::StepModel::run`] never
//! analyzes: a caller that wants the gate runs [`analyze_step`] first
//! and refuses a plan whose report [`Report::has_errors`], as
//! [`crate::planner::preflight`] and the search do.

pub mod collective;
pub mod deadlock;
pub mod memory;
pub mod race;

use crate::pp::schedule::{PpOp, PpSchedule};
use crate::pp::sim::{PpProgram, Shape};
use crate::step::StepModel;
use std::convert::Infallible;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never blocks a run.
    Info,
    /// Likely-problematic but not provably fatal (e.g. memory above the
    /// planner's budget fraction but under physical capacity).
    Warning,
    /// The plan would hang, deadlock or OOM; the pre-flight gate
    /// rejects the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifiers for the analysis rules. The string forms
/// (`DEAD001`, ...) are part of the tool's output contract: tests and
/// CI grep for them, so they never change meaning. `LINT002`,
/// `LINT003` and `LINT004` are retired and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// Schedule/plan parameters failed validation before any analysis
    /// could run.
    Plan001,
    /// Collective streams diverge across the members of one process
    /// group — a would-be NCCL hang.
    Coll001,
    /// The cross-rank wait-for graph has a cycle — the pipeline
    /// deadlocks.
    Dead001,
    /// An op waits for a producer that no rank schedules — the wait
    /// never completes.
    Dead002,
    /// A rank's static peak-memory bound exceeds HBM capacity.
    Mem001,
    /// A rank's static peak-memory bound exceeds the planner's HBM
    /// budget fraction (but still fits physically).
    Mem002,
    /// Two accesses to the same buffer lane, at least one a write, with
    /// no ordering edge between them.
    Race001,
    /// `.unwrap()` / `.expect(` in library code (source lint).
    Lint001,
    /// Wire-protocol surface referenced below `parallelism-core`
    /// (source lint).
    Lint005,
    /// Unbounded full-resolution event buffer outside the tiered trace
    /// store (source lint).
    Lint006,
    /// Inference-engine surface referenced below `parallelism-core`
    /// (source lint).
    Lint007,
    /// Lock acquired out of order against the declared lock hierarchy
    /// (concurrency lint).
    Lock001,
    /// Condvar waited on without a predicate loop or without a bounded
    /// timeout fallback (concurrency lint).
    Lock002,
    /// Lock guard held across a call into user-supplied code
    /// (concurrency lint).
    Lock003,
}

impl RuleId {
    /// The stable string form used in rendered output.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Plan001 => "PLAN001",
            RuleId::Coll001 => "COLL001",
            RuleId::Dead001 => "DEAD001",
            RuleId::Dead002 => "DEAD002",
            RuleId::Mem001 => "MEM001",
            RuleId::Mem002 => "MEM002",
            RuleId::Race001 => "RACE001",
            RuleId::Lint001 => "LINT001",
            RuleId::Lint005 => "LINT005",
            RuleId::Lint006 => "LINT006",
            RuleId::Lint007 => "LINT007",
            RuleId::Lock001 => "LOCK001",
            RuleId::Lock002 => "LOCK002",
            RuleId::Lock003 => "LOCK003",
        }
    }

    /// One-line rule description (the catalog entry).
    pub fn description(self) -> &'static str {
        match self {
            RuleId::Plan001 => "plan parameters failed validation",
            RuleId::Coll001 => "collective streams diverge within a process group",
            RuleId::Dead001 => "cross-rank wait-for cycle (pipeline deadlock)",
            RuleId::Dead002 => "wait on a producer no rank schedules",
            RuleId::Mem001 => "static peak-memory bound exceeds HBM capacity",
            RuleId::Mem002 => "static peak-memory bound exceeds the HBM budget fraction",
            RuleId::Race001 => "unordered accesses to one buffer lane",
            RuleId::Lint001 => "unwrap/expect in library code",
            RuleId::Lint005 => "wire-protocol surface referenced below parallelism-core",
            RuleId::Lint006 => "unbounded full-resolution event buffer outside the tiered store",
            RuleId::Lint007 => "inference-engine surface referenced below parallelism-core",
            RuleId::Lock001 => "lock acquired against the declared lock hierarchy",
            RuleId::Lock002 => "condvar wait without predicate loop or bounded fallback",
            RuleId::Lock003 => "lock guard held across a call into user-supplied code",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which rule fired.
    pub rule: RuleId,
    /// The rank the finding is anchored to, when one is identifiable.
    /// Deadlock/collective findings use the schedule's pipeline-rank or
    /// global-rank numbering as stated in the message.
    pub rank: Option<u32>,
    /// The op the finding is anchored to (e.g. `F0.3`), when one is
    /// identifiable.
    pub op: Option<String>,
    /// One-sentence statement of the defect.
    pub message: String,
    /// Supporting evidence: the cycle path, the diverging op pair, the
    /// per-component memory attribution, ...
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(rule: RuleId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            rule,
            rank: None,
            op: None,
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(rule: RuleId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(rule, message)
        }
    }

    /// Anchors the diagnostic to a rank.
    pub fn at_rank(mut self, rank: u32) -> Diagnostic {
        self.rank = Some(rank);
        self
    }

    /// Anchors the diagnostic to an op.
    pub fn at_op(mut self, op: impl Into<String>) -> Diagnostic {
        self.op = Some(op.into());
        self
    }

    /// Attaches witness lines.
    pub fn with_witness(mut self, witness: Vec<String>) -> Diagnostic {
        self.witness = witness;
        self
    }

    /// The human-readable rendering:
    /// `error[DEAD001] rank 0 at B0.0: message` plus indented witness
    /// lines.
    pub fn render_human(&self) -> String {
        let mut s = format!("{}[{}]", self.severity, self.rule.as_str());
        if let Some(r) = self.rank {
            s.push_str(&format!(" rank {r}"));
        }
        if let Some(op) = &self.op {
            s.push_str(&format!(" at {op}"));
        }
        s.push_str(": ");
        s.push_str(&self.message);
        for w in &self.witness {
            s.push_str("\n    ");
            s.push_str(w);
        }
        s
    }

    /// One JSON object (a single line, no trailing newline) with the
    /// fields `severity`, `rule`, `rank`, `op`, `message`, `witness`.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"severity\":\"");
        s.push_str(&self.severity.to_string());
        s.push_str("\",\"rule\":\"");
        s.push_str(self.rule.as_str());
        s.push_str("\",\"rank\":");
        match self.rank {
            Some(r) => s.push_str(&r.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"op\":");
        match &self.op {
            Some(op) => {
                s.push('"');
                s.push_str(&json_escape(op));
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"message\":\"");
        s.push_str(&json_escape(&self.message));
        s.push_str("\",\"witness\":[");
        for (i, w) in self.witness.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(&json_escape(w));
            s.push('"');
        }
        s.push_str("]}");
        s
    }
}

/// Escapes a string for embedding in a JSON string literal (hand-rolled
/// — the workspace carries no JSON dependency).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The result of a pre-flight analysis: every diagnostic, in rule-family
/// order (plan, deadlock, collectives, memory, races).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// `true` if any error-severity diagnostic fired — the pre-flight
    /// gate's rejection condition.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// `true` when no diagnostic of any severity fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Every diagnostic rendered human-readable, one block per finding.
    pub fn render_human(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings".to_string();
        }
        self.diagnostics
            .iter()
            .map(Diagnostic::render_human)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Every diagnostic as one JSON object per line.
    pub fn render_jsonl(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::to_json_line)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// A compact one-line summary of the error diagnostics, used in
    /// the conformance fuzz harness's failure messages.
    pub fn error_summary(&self) -> String {
        let parts: Vec<String> = self
            .errors()
            .take(4)
            .map(|d| {
                let mut s = d.rule.as_str().to_string();
                if let Some(r) = d.rank {
                    s.push_str(&format!(" rank {r}"));
                }
                if let Some(op) = &d.op {
                    s.push_str(&format!(" {op}"));
                }
                s.push_str(&format!(": {}", d.message));
                s
            })
            .collect();
        let n = self.errors().count();
        let mut s = parts.join("; ");
        if n > 4 {
            s.push_str(&format!("; +{} more", n - 4));
        }
        s
    }
}

/// Runs all four analyses over one step configuration and collects the
/// findings. Never executes a timing graph — the whole pass is
/// combinatorial, so it is safe to run on plans that would hang or OOM.
pub fn analyze_step(m: &StepModel) -> Report {
    let mut report = Report::default();
    let sched = match m.schedule() {
        Ok(s) => s,
        Err(e) => {
            report
                .diagnostics
                .push(Diagnostic::error(RuleId::Plan001, e.to_string()));
            return report;
        }
    };
    let Ok((program, _)) = PpProgram::shared(Shape::of(&sched), || Ok::<_, Infallible>(&sched));
    report
        .diagnostics
        .extend(deadlock::check_program(&sched, &program));
    report.diagnostics.extend(collective::check_step(m, &sched));
    report.diagnostics.extend(memory::check_step(m, &sched));
    report
        .diagnostics
        .extend(race::check_program(&sched, &program));
    report
}

/// The rank running `program`'s op `i` and the schedule op it is.
fn op_at(sched: &PpSchedule, program: &PpProgram, i: usize) -> (u32, PpOp) {
    let rank = program.rank_of(i);
    let pos = i - program.rank_ops(rank).start;
    (rank, sched.ranks[rank as usize][pos])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic::error(RuleId::Dead001, "cycle of 4 ops")
            .at_rank(0)
            .at_op("B0.0")
            .with_witness(vec!["rank 0: B0.0".into(), "rank 1: B1.0".into()])
    }

    #[test]
    fn human_rendering_names_rule_rank_and_op() {
        let h = diag().render_human();
        assert!(h.starts_with("error[DEAD001] rank 0 at B0.0: cycle"), "{h}");
        assert!(h.contains("\n    rank 1: B1.0"));
    }

    #[test]
    fn json_line_is_wellformed_and_escaped() {
        let mut d = diag();
        d.message = "quote \" backslash \\ newline \n end".into();
        let j = d.to_json_line();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\\\"") && j.contains("\\\\") && j.contains("\\n"));
        assert!(j.contains("\"rule\":\"DEAD001\""));
        assert!(j.contains("\"rank\":0"));
        assert!(!j.contains('\n'), "JSON lines must be single lines");
    }

    #[test]
    fn report_severity_accounting() {
        let mut r = Report::default();
        assert!(r.is_clean() && !r.has_errors());
        r.diagnostics
            .push(Diagnostic::warning(RuleId::Mem002, "close to budget"));
        assert!(!r.is_clean() && !r.has_errors());
        r.diagnostics.push(diag());
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert!(r.error_summary().contains("DEAD001 rank 0 B0.0"));
        assert!(r.render_human().contains("warning[MEM002]"));
    }

    #[test]
    fn rule_ids_are_stable() {
        for (rule, s) in [
            (RuleId::Plan001, "PLAN001"),
            (RuleId::Coll001, "COLL001"),
            (RuleId::Dead001, "DEAD001"),
            (RuleId::Dead002, "DEAD002"),
            (RuleId::Mem001, "MEM001"),
            (RuleId::Mem002, "MEM002"),
            (RuleId::Race001, "RACE001"),
            (RuleId::Lint007, "LINT007"),
        ] {
            assert_eq!(rule.as_str(), s);
            assert!(!rule.description().is_empty());
        }
    }
}
