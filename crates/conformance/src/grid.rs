//! Deterministic configuration grid for the differential-oracle tests.
//!
//! Where the fuzz sweep samples randomly, the grid pins a reproducible
//! set of ≥ 50 configurations spanning every mesh axis, schedule
//! family, ZeRO mode and accelerator, so `cargo test` exercises the
//! oracles on the same points every run. The categorical knobs (GPU,
//! precision of the layer split, sequence length, ZeRO, recompute) are
//! cycled deterministically by entry index rather than enumerated
//! exhaustively — the goal is axis coverage, not a combinatorial blow-up.

use crate::fuzz::{CaseSpec, GpuChoice};
use parallelism_core::{ScheduleKind, ZeroMode};

/// Mesh shapes `[tp, cp, pp, dp]` covered by the grid. Every product is
/// a multiple of 8 so `Cluster::llama3` accepts it unmodified.
pub const MESHES: [(u32, u32, u32, u32); 8] = [
    (1, 1, 2, 4),
    (2, 1, 2, 2),
    (4, 1, 2, 1),
    (2, 2, 2, 1),
    (1, 1, 4, 2),
    (8, 1, 1, 1),
    (2, 1, 4, 4),
    (1, 2, 2, 2),
];

/// Schedule families covered by the grid.
pub const KINDS: [ScheduleKind; 4] = [
    ScheduleKind::AllFwdAllBwd,
    ScheduleKind::Interleaved1F1B,
    ScheduleKind::Flexible { nc: 2 },
    ScheduleKind::Flexible { nc: 4 },
];

/// The deterministic oracle grid: 8 meshes × 4 schedule kinds × 2
/// virtual-stage counts = 64 normalized specs.
pub fn config_grid() -> Vec<CaseSpec> {
    let zeros = [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3];
    let mut out = Vec::new();
    for (mi, &(tp, cp, pp, dp)) in MESHES.iter().enumerate() {
        for (ki, &kind) in KINDS.iter().enumerate() {
            for v in [1, 2] {
                let i = out.len();
                out.push(
                    CaseSpec {
                        gpu: GpuChoice::ALL[i % GpuChoice::ALL.len()],
                        layers_per_stage: 1 + (i % 2) as u32,
                        tp,
                        cp,
                        pp,
                        dp,
                        v,
                        bs: 8,
                        seq: if i % 2 == 0 { 4096 } else { 8192 },
                        kind,
                        zero: zeros[(mi + ki) % zeros.len()],
                        recompute: i % 2 == 1,
                    }
                    .normalized(),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_large_normalized_and_diverse() {
        let grid = config_grid();
        assert!(grid.len() >= 50, "grid holds only {} configs", grid.len());
        for spec in &grid {
            assert_eq!(*spec, spec.normalized(), "not in normal form: {spec}");
            assert_eq!((spec.tp * spec.cp * spec.pp * spec.dp) % 8, 0);
        }
        for axis in [
            grid.iter()
                .map(|s| s.tp)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            grid.iter()
                .map(|s| s.pp)
                .collect::<std::collections::HashSet<_>>()
                .len(),
            grid.iter()
                .map(|s| s.dp)
                .collect::<std::collections::HashSet<_>>()
                .len(),
        ] {
            assert!(axis >= 3, "an axis collapses to {axis} distinct values");
        }
        let kinds: std::collections::HashSet<_> =
            grid.iter().map(|s| format!("{:?}", s.kind)).collect();
        assert!(kinds.len() >= 3);
    }

    #[test]
    fn grid_is_deterministic() {
        assert_eq!(config_grid(), config_grid());
    }
}
