//! Automatic performance-trace analysis.
//!
//! §6.1 closes with: "An automatic tool for analyzing performance
//! traces and identifying the root cause of the slowest rank would be a
//! valuable asset for performance debugging in Llama training systems."
//! This module is that tool for simulator traces: given a trace and the
//! mesh's group structure it produces a complete diagnostic — per-rank
//! category breakdown, per-dimension group skews, the top-down
//! narrowing chain, and the culprit with supporting evidence.

use crate::format::{EventCategory, Trace};
use crate::slowrank::{locate_slow_rank, GroupStructure, SlowRankReport};
use std::fmt::Write as _;

/// A complete automatic diagnosis of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoReport {
    /// The localization result.
    pub slow_rank: SlowRankReport,
    /// Per-rank totals: `(rank, compute_ns, comm_ns_by_dim)` in rank
    /// order, where the comm vector follows the structure's dimension
    /// order.
    pub rank_totals: Vec<(u32, u64, Vec<u64>)>,
    /// For the suspect: its compute time relative to the population
    /// median (> 1 supports a genuine compute straggler).
    pub suspect_compute_ratio: f64,
    /// For the suspect: its total communication time relative to the
    /// population median (< 1 supports "everyone waits for it").
    pub suspect_comm_ratio: f64,
}

impl AutoReport {
    /// `true` when the evidence is internally consistent: the suspect
    /// computes more and waits less than the median rank.
    pub fn evidence_consistent(&self) -> bool {
        self.suspect_compute_ratio >= 1.0 && self.suspect_comm_ratio <= 1.0
    }

    /// Renders a human-readable diagnostic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "automatic trace diagnosis");
        let _ = writeln!(out, "=========================");
        for step in &self.slow_rank.steps {
            let _ = writeln!(
                out,
                "  [{}] {} -> survivors {:?}",
                step.dim,
                match step.picked_group {
                    Some(g) => format!("group {g} decisively skewed"),
                    None => "ambiguous skews, kept all candidates".to_string(),
                },
                step.survivors
            );
        }
        match self.slow_rank.culprit {
            Some(rank) => {
                let _ = writeln!(
                    out,
                    "  culprit: rank {} (confidence {:.2}, compute {:.2}x median, \
                     comm {:.2}x median{})",
                    rank,
                    self.slow_rank.confidence,
                    self.suspect_compute_ratio,
                    self.suspect_comm_ratio,
                    if self.evidence_consistent() {
                        "; evidence consistent"
                    } else {
                        "; WARNING: evidence inconsistent — inspect manually"
                    }
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  no clear slow rank (best candidate: rank {} at confidence \
                     {:.2}, below the {:.2} threshold) — skew is within noise",
                    self.slow_rank.suspect,
                    self.slow_rank.confidence,
                    crate::slowrank::CULPRIT_CONFIDENCE_THRESHOLD,
                );
            }
        }
        out
    }
}

fn median(mut v: Vec<u64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
    }
}

/// Runs the full automatic analysis.
///
/// # Panics
/// Panics if the trace is empty or the structure has no dimensions
/// (propagated from [`locate_slow_rank`]).
pub fn auto_report(trace: &Trace, structure: &GroupStructure) -> AutoReport {
    let slow_rank = locate_slow_rank(trace, structure);
    let ranks = trace.ranks();
    let dims: Vec<EventCategory> = structure.dims.iter().map(|d| d.category).collect();
    let rank_totals: Vec<(u32, u64, Vec<u64>)> = ranks
        .iter()
        .map(|&r| {
            (
                r,
                trace.rank_total(r, EventCategory::Compute),
                dims.iter().map(|&c| trace.rank_total(r, c)).collect(),
            )
        })
        .collect();
    let med_compute = median(rank_totals.iter().map(|(_, c, _)| *c).collect());
    let med_comm = median(
        rank_totals
            .iter()
            .map(|(_, _, comm)| comm.iter().sum::<u64>())
            .collect(),
    );
    let suspect = slow_rank.suspect;
    let (_, c_compute, c_comm) = rank_totals
        .iter()
        .find(|(r, _, _)| *r == suspect)
        .cloned()
        // lint: allow(unwrap) — the suspect was selected from this same trace two lines up
        .expect("suspect present in trace");
    AutoReport {
        slow_rank,
        rank_totals,
        suspect_compute_ratio: if med_compute > 0.0 {
            c_compute as f64 / med_compute
        } else {
            1.0
        },
        suspect_comm_ratio: if med_comm > 0.0 {
            c_comm.iter().sum::<u64>() as f64 / med_comm
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slowrank::DimGroups;
    use crate::synth::{synth_trace, SynthSpec};

    fn structure() -> GroupStructure {
        GroupStructure {
            dims: vec![
                DimGroups {
                    name: "cp".to_string(),
                    category: EventCategory::CpComm,
                    groups: (0..4).map(|i| vec![i, i + 4]).collect(),
                },
                DimGroups {
                    name: "tp".to_string(),
                    category: EventCategory::TpComm,
                    groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
                },
            ],
        }
    }

    #[test]
    fn report_finds_culprit_with_consistent_evidence() {
        let spec = SynthSpec {
            num_ranks: 8,
            rounds: 4,
            base_compute_ns: 100_000,
            straggler: Some((6, 2.0)),
            structure: structure(),
            seed: 1,
        };
        let trace = synth_trace(&spec);
        let report = auto_report(&trace, &spec.structure);
        assert_eq!(report.slow_rank.culprit, Some(6));
        assert!(report.suspect_compute_ratio > 1.5);
        assert!(report.suspect_comm_ratio < 1.0);
        assert!(report.evidence_consistent());
        let text = report.render();
        assert!(text.contains("culprit: rank 6"));
        assert!(text.contains("evidence consistent"));
    }

    #[test]
    fn per_rank_totals_cover_every_rank_and_dim() {
        let spec = SynthSpec {
            num_ranks: 8,
            rounds: 2,
            base_compute_ns: 50_000,
            straggler: None,
            structure: structure(),
            seed: 3,
        };
        let trace = synth_trace(&spec);
        let report = auto_report(&trace, &spec.structure);
        assert_eq!(report.rank_totals.len(), 8);
        assert!(report
            .rank_totals
            .iter()
            .all(|(_, _, comm)| comm.len() == 2));
        assert!(report
            .rank_totals
            .iter()
            .all(|(_, compute, _)| *compute > 0));
    }

    #[test]
    fn healthy_trace_renders_no_clear_slow_rank() {
        let spec = SynthSpec {
            num_ranks: 8,
            rounds: 2,
            base_compute_ns: 50_000,
            straggler: None,
            structure: structure(),
            seed: 5,
        };
        let trace = synth_trace(&spec);
        let report = auto_report(&trace, &spec.structure);
        assert_eq!(report.slow_rank.culprit, None);
        let text = report.render();
        assert!(text.contains("no clear slow rank"), "{text}");
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(vec![3, 1, 2]), 2.0);
        assert_eq!(median(vec![4, 1, 2, 3]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }
}
