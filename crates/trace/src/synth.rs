//! Synthetic trace generation for testing the slow-rank analysis.
//!
//! Generates traces with the timing structure of a real training step:
//! compute interleaved with per-dimension collectives from the
//! innermost dimension outward (TP collectives fire many times per
//! step around compute, CP around attention, DP at step end). A
//! straggler's compute slowdown then propagates exactly the way Fig 8
//! describes: its collective peers inherit the delay and *look* slow in
//! other dimensions.

use crate::format::{Trace, TraceEvent};
use crate::slowrank::GroupStructure;

/// Specification of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Number of ranks (must cover every rank in `structure`).
    pub num_ranks: u32,
    /// Rounds of (compute + collectives) to simulate.
    pub rounds: u32,
    /// Nominal compute duration per phase, nanoseconds.
    pub base_compute_ns: u64,
    /// Optional `(rank, multiplier)` straggler: that rank's compute is
    /// scaled by the multiplier (> 1).
    pub straggler: Option<(u32, f64)>,
    /// Parallelism structure (outermost dimension first).
    pub structure: GroupStructure,
    /// Seed for the deterministic tie-breaking noise.
    pub seed: u64,
}

/// Deterministic per-(rank, phase) noise in `[0, 1)`.
fn noise(seed: u64, rank: u32, phase: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(phase.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates the synthetic trace.
///
/// Each round executes, for each dimension from innermost to outermost:
/// a compute phase on every rank (straggler scaled), then that
/// dimension's collectives. Collective events record the *observed*
/// duration on each rank — wait-for-peers plus transfer — so early
/// arrivers log long events and the last arriver logs the shortest.
///
/// # Panics
/// Panics if the structure references ranks ≥ `num_ranks`.
pub fn synth_trace(spec: &SynthSpec) -> Trace {
    for dim in &spec.structure.dims {
        for g in &dim.groups {
            for &r in g {
                assert!(r < spec.num_ranks, "structure references rank {r}");
            }
        }
    }
    let n = spec.num_ranks as usize;
    let mut clock = vec![0u64; n];
    let mut trace = Trace::new();
    let transfer = (spec.base_compute_ns / 20).max(1);
    let mut phase_counter = 0u64;

    for _round in 0..spec.rounds {
        // Innermost dimension first: dims are stored outermost-first.
        for dim in spec.structure.dims.iter().rev() {
            // Compute phase.
            phase_counter += 1;
            for r in 0..spec.num_ranks {
                let mut dur = spec.base_compute_ns as f64;
                if let Some((sr, mult)) = spec.straggler {
                    if sr == r {
                        dur *= mult;
                    }
                }
                // ±0.5% deterministic noise so durations are not tied.
                dur *= 1.0 + (noise(spec.seed, r, phase_counter) - 0.5) * 0.01;
                let dur = dur.round() as u64;
                trace.push(TraceEvent {
                    rank: r,
                    name: "compute".into(),
                    category: crate::format::EventCategory::Compute,
                    start_ns: clock[r as usize],
                    duration_ns: dur,
                });
                clock[r as usize] += dur;
            }
            // Collective phase for this dimension.
            for group in &dim.groups {
                let end = group.iter().map(|&r| clock[r as usize]).max().unwrap_or(0) + transfer;
                for &r in group {
                    trace.push(TraceEvent {
                        rank: r,
                        name: format!("{}_collective", dim.name).into(),
                        category: dim.category,
                        start_ns: clock[r as usize],
                        duration_ns: end - clock[r as usize],
                    });
                    clock[r as usize] = end;
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::EventCategory;
    use crate::slowrank::DimGroups;

    fn structure() -> GroupStructure {
        GroupStructure {
            dims: vec![DimGroups {
                name: "tp".to_string(),
                category: EventCategory::TpComm,
                groups: vec![vec![0, 1], vec![2, 3]],
            }],
        }
    }

    #[test]
    fn straggler_peers_wait() {
        let spec = SynthSpec {
            num_ranks: 4,
            rounds: 2,
            base_compute_ns: 1000,
            straggler: Some((1, 2.0)),
            structure: structure(),
            seed: 0,
        };
        let t = synth_trace(&spec);
        // Rank 0 waits for rank 1: its TP time exceeds rank 1's.
        assert!(t.rank_total(0, EventCategory::TpComm) > t.rank_total(1, EventCategory::TpComm));
        // The unaffected group has near-minimal collective times.
        assert!(t.rank_total(2, EventCategory::TpComm) < t.rank_total(0, EventCategory::TpComm));
    }

    #[test]
    fn deterministic() {
        let spec = SynthSpec {
            num_ranks: 4,
            rounds: 3,
            base_compute_ns: 1000,
            straggler: None,
            structure: structure(),
            seed: 5,
        };
        assert_eq!(synth_trace(&spec), synth_trace(&spec));
    }

    #[test]
    fn event_counts() {
        let spec = SynthSpec {
            num_ranks: 4,
            rounds: 2,
            base_compute_ns: 1000,
            straggler: None,
            structure: structure(),
            seed: 5,
        };
        let t = synth_trace(&spec);
        // Per round: 4 compute + 4 collective events (1 dim).
        assert_eq!(t.len(), 2 * (4 + 4));
    }

    #[test]
    #[should_panic(expected = "references rank")]
    fn oversized_structure_panics() {
        let spec = SynthSpec {
            num_ranks: 2,
            rounds: 1,
            base_compute_ns: 1000,
            straggler: None,
            structure: structure(),
            seed: 0,
        };
        synth_trace(&spec);
    }
}
