//! Pipeline-parallel schedules: interleaved 1F1B, all-forward-all-
//! backward, and the paper's **flexible** schedule (§3.1.1).
//!
//! A schedule assigns every pipeline rank an ordered list of
//! forward/backward executions of `(virtual stage chunk, micro-batch)`
//! pairs. Model layers are distributed across `pp × v` stages in an
//! interleaved fashion: stage `s` lives on rank `s mod pp` as that
//! rank's chunk `s / pp` (Fig 2).
//!
//! The flexible schedule generalizes interleaved 1F1B by decoupling the
//! number of *consecutive micro-batches per virtual stage round* (`nc`)
//! from the pipeline size:
//!
//! * `nc = pp` recovers the original interleaved 1F1B;
//! * `nc > pp` inserts `nc − pp` extra warm-up micro-batches per
//!   virtual stage, hiding exposed P2P at the cost of
//!   `(nc − pp) × (v − 1)` extra in-flight activations (Fig 3);
//! * `nc ≥ nmb` degenerates into all-forward-all-backward (Fig 4b);
//! * any `nmb` is legal — no "batch size divisible by pp" constraint.

use std::fmt;

/// One pipeline operation on a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PpOp {
    /// Forward pass of `chunk` (virtual-stage index on this rank) for
    /// micro-batch `mb`.
    Forward {
        /// Virtual-stage chunk index, `0..v`.
        chunk: u32,
        /// Micro-batch index, `0..nmb`.
        mb: u32,
    },
    /// Backward pass of `chunk` for micro-batch `mb`.
    Backward {
        /// Virtual-stage chunk index, `0..v`.
        chunk: u32,
        /// Micro-batch index, `0..nmb`.
        mb: u32,
    },
}

impl PpOp {
    /// `true` for forward ops.
    pub fn is_forward(self) -> bool {
        matches!(self, PpOp::Forward { .. })
    }

    /// The op's chunk.
    pub fn chunk(self) -> u32 {
        match self {
            PpOp::Forward { chunk, .. } | PpOp::Backward { chunk, .. } => chunk,
        }
    }

    /// The op's micro-batch.
    pub fn mb(self) -> u32 {
        match self {
            PpOp::Forward { mb, .. } | PpOp::Backward { mb, .. } => mb,
        }
    }
}

impl fmt::Display for PpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpOp::Forward { chunk, mb } => write!(f, "F{chunk}.{mb}"),
            PpOp::Backward { chunk, mb } => write!(f, "B{chunk}.{mb}"),
        }
    }
}

/// Which schedule family to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// All forwards, then all backwards (GPipe-style, Fig 4b).
    AllFwdAllBwd,
    /// The original interleaved 1F1B (`nc = pp`; requires
    /// `nmb % pp == 0`, the constraint §3.1.1 removes).
    Interleaved1F1B,
    /// The paper's flexible schedule with an explicit `nc ∈ [1, nmb]`.
    Flexible {
        /// Consecutive micro-batches per virtual-stage round.
        nc: u32,
    },
}

/// A complete pipeline schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpSchedule {
    /// Pipeline size.
    pub pp: u32,
    /// Virtual stages per rank.
    pub v: u32,
    /// Number of micro-batches in the batch.
    pub nmb: u32,
    /// Effective `nc` used.
    pub nc: u32,
    /// The kind this schedule was built as.
    pub kind: ScheduleKind,
    /// Per-rank ordered op lists.
    pub ranks: Vec<Vec<PpOp>>,
}

/// Errors from schedule construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A size parameter was zero.
    ZeroParameter(&'static str),
    /// The classic interleaved 1F1B needs `nmb % pp == 0` (§3.1.1).
    BatchNotDivisible {
        /// Micro-batch count requested.
        nmb: u32,
        /// Pipeline size.
        pp: u32,
    },
    /// `nc` outside `[1, nmb]`.
    BadNc {
        /// Requested nc.
        nc: u32,
        /// Micro-batch count.
        nmb: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::ZeroParameter(p) => write!(f, "{p} must be positive"),
            ScheduleError::BatchNotDivisible { nmb, pp } => write!(
                f,
                "interleaved 1F1B requires nmb ({nmb}) divisible by pp ({pp}); use the flexible schedule"
            ),
            ScheduleError::BadNc { nc, nmb } => {
                write!(f, "nc ({nc}) must be within [1, nmb] = [1, {nmb}]")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<ScheduleError> for sim_engine::error::SimError {
    fn from(e: ScheduleError) -> Self {
        sim_engine::error::SimError::InvalidSchedule(e.to_string())
    }
}

impl PpSchedule {
    /// Builds a schedule.
    ///
    /// # Errors
    /// Returns an error for zero parameters, a classic-1F1B batch-size
    /// violation, or an out-of-range `nc`.
    pub fn build(
        kind: ScheduleKind,
        pp: u32,
        v: u32,
        nmb: u32,
    ) -> Result<PpSchedule, ScheduleError> {
        if pp == 0 {
            return Err(ScheduleError::ZeroParameter("pp"));
        }
        if v == 0 {
            return Err(ScheduleError::ZeroParameter("v"));
        }
        if nmb == 0 {
            return Err(ScheduleError::ZeroParameter("nmb"));
        }
        let nc = match kind {
            ScheduleKind::AllFwdAllBwd => nmb,
            ScheduleKind::Interleaved1F1B => {
                if !nmb.is_multiple_of(pp) {
                    return Err(ScheduleError::BatchNotDivisible { nmb, pp });
                }
                pp.min(nmb)
            }
            ScheduleKind::Flexible { nc } => {
                if nc == 0 || nc > nmb {
                    return Err(ScheduleError::BadNc { nc, nmb });
                }
                nc
            }
        };

        // 1F1B interleaving needs every round to supply at least pp
        // micro-batches in flight. The schedule therefore splits into a
        // *main* region of complete nc-rounds run 1F1B (empty when
        // nc < pp — the §3.1.1 degeneration into all-forward-all-
        // backward) and a *tail* region run round-AFAB (GPipe-style per
        // round), which accepts any remaining micro-batch count.
        let nc_eff = nc.min(nmb);
        let main_mbs = if matches!(kind, ScheduleKind::AllFwdAllBwd) || nc_eff < pp {
            0
        } else {
            (nmb / nc_eff) * nc_eff
        };

        let order_round = |mb0: u32, hi: u32| -> (Vec<PpOp>, Vec<PpOp>) {
            let mut f = Vec::new();
            let mut b = Vec::new();
            for chunk in 0..v {
                for mb in mb0..hi {
                    f.push(PpOp::Forward { chunk, mb });
                }
            }
            for chunk in (0..v).rev() {
                for mb in mb0..hi {
                    b.push(PpOp::Backward { chunk, mb });
                }
            }
            (f, b)
        };

        // Main-region global orders (complete nc-rounds).
        let mut fwd_order = Vec::new();
        let mut bwd_order = Vec::new();
        let mut mb0 = 0u32;
        while mb0 < main_mbs {
            let (f, b) = order_round(mb0, mb0 + nc_eff);
            fwd_order.extend(f);
            bwd_order.extend(b);
            mb0 += nc_eff;
        }
        // Tail rounds (round-AFAB), each at most nc micro-batches.
        let mut tail_rounds: Vec<(Vec<PpOp>, Vec<PpOp>)> = Vec::new();
        let mut mb0 = main_mbs;
        while mb0 < nmb {
            let hi = (mb0 + nc_eff).min(nmb);
            tail_rounds.push(order_round(mb0, hi));
            mb0 = hi;
        }

        let total = v * nmb;
        let main_total = v * main_mbs;
        let ranks = (0..pp)
            .map(|ppr| {
                let mut ops = Vec::with_capacity(2 * total as usize);
                let warmup = warmup_microbatches(pp, ppr, v, nc_eff).min(main_total);
                let mut fi = 0usize;
                let mut bi = 0usize;
                while fi < warmup as usize {
                    ops.push(fwd_order[fi]);
                    fi += 1;
                }
                // 1F1B steady state, then backward cool-down.
                while fi < fwd_order.len() {
                    ops.push(fwd_order[fi]);
                    fi += 1;
                    ops.push(bwd_order[bi]);
                    bi += 1;
                }
                while bi < bwd_order.len() {
                    ops.push(bwd_order[bi]);
                    bi += 1;
                }
                for (f, b) in &tail_rounds {
                    ops.extend_from_slice(f);
                    ops.extend_from_slice(b);
                }
                ops
            })
            .collect();

        Ok(PpSchedule {
            pp,
            v,
            nmb,
            nc,
            kind,
            ranks,
        })
    }

    /// Total stages (`pp × v`).
    pub fn num_stages(&self) -> u32 {
        self.pp * self.v
    }

    /// The rank hosting global stage `s` (interleaved placement).
    pub fn rank_of_stage(&self, s: u32) -> u32 {
        s % self.pp
    }

    /// The chunk index of global stage `s` on its rank.
    pub fn chunk_of_stage(&self, s: u32) -> u32 {
        s / self.pp
    }

    /// The global stage of `(rank, chunk)`.
    pub fn stage_of(&self, rank: u32, chunk: u32) -> u32 {
        chunk * self.pp + rank
    }

    /// Number of forwards rank `ppr` runs before its first backward.
    /// For 1F1B-family schedules this is the §3.1.1 warm-up count plus
    /// one (the steady state starts with a forward).
    pub fn warmup_of(&self, ppr: u32) -> u32 {
        self.ranks[ppr as usize]
            .iter()
            .take_while(|op| op.is_forward())
            .count() as u32
    }

    /// Peak in-flight forward activations on rank `ppr`: the maximum
    /// over time of (forwards executed − backwards executed).
    pub fn peak_in_flight(&self, ppr: u32) -> u32 {
        let mut cur = 0i64;
        let mut peak = 0i64;
        for op in &self.ranks[ppr as usize] {
            cur += if op.is_forward() { 1 } else { -1 };
            peak = peak.max(cur);
        }
        peak as u32
    }

    /// The in-flight activation profile of rank `ppr`: after each op,
    /// the running count of forwards executed minus backwards executed.
    /// This is the buffer-lifetime series the memory model integrates
    /// over; its maximum equals [`PpSchedule::peak_in_flight`] and a
    /// well-formed schedule ends at zero. Entries are `i64` so that a
    /// malformed schedule (a backward without a prior forward) shows up
    /// as a negative value instead of an underflow.
    pub fn in_flight_profile(&self, ppr: u32) -> Vec<i64> {
        let mut cur = 0i64;
        self.ranks[ppr as usize]
            .iter()
            .map(|op| {
                cur += if op.is_forward() { 1 } else { -1 };
                cur
            })
            .collect()
    }

    /// Warm-up / steady / cool-down phase counts of rank `ppr`'s op
    /// list: `(leading forwards, interior F/B pairs, trailing
    /// backwards)`. For full-main-region 1F1B-family schedules the
    /// leading count is `warmup_microbatches(..) + 1` and equals the
    /// trailing count; the conformance checkers verify that law.
    pub fn phase_counts(&self, ppr: u32) -> (u32, u32, u32) {
        let ops = &self.ranks[ppr as usize];
        let lead = ops.iter().take_while(|op| op.is_forward()).count();
        let trail = ops
            .iter()
            .rev()
            .take_while(|op| !op.is_forward())
            .count()
            .min(ops.len() - lead);
        let steady = ops.len() - lead - trail;
        (lead as u32, (steady / 2) as u32, trail as u32)
    }

    /// Validates structural invariants: every `(chunk, mb)` appears
    /// exactly once as forward and once as backward on each rank, and
    /// no backward precedes its own forward locally.
    ///
    /// # Panics
    /// Panics on violation (schedules are built, not parsed, so a
    /// violation is an internal bug).
    pub fn assert_well_formed(&self) {
        for (ppr, ops) in self.ranks.iter().enumerate() {
            let total = (self.v * self.nmb) as usize;
            assert_eq!(ops.len(), 2 * total, "rank {ppr} op count");
            let mut fwd_seen = vec![false; total];
            let mut bwd_seen = vec![false; total];
            for op in ops {
                let idx = (op.chunk() * self.nmb + op.mb()) as usize;
                match op {
                    PpOp::Forward { .. } => {
                        assert!(!fwd_seen[idx], "rank {ppr} duplicate {op}");
                        fwd_seen[idx] = true;
                    }
                    PpOp::Backward { .. } => {
                        assert!(!bwd_seen[idx], "rank {ppr} duplicate {op}");
                        assert!(fwd_seen[idx], "rank {ppr} has {op} before its forward");
                        bwd_seen[idx] = true;
                    }
                }
            }
            assert!(fwd_seen.iter().all(|&b| b), "rank {ppr} missing forwards");
            assert!(bwd_seen.iter().all(|&b| b), "rank {ppr} missing backwards");
        }
    }

    /// The paper's closed-form PP bubble-ratio estimate,
    /// `(pp − 1) / nmb / v` (§3.1.1). The simulator measures the real
    /// value; this is the analytical reference.
    pub fn analytic_bubble_ratio(&self) -> f64 {
        crate::costs::bubble_ratio(self.pp as f64, self.nmb as f64, self.v as f64)
    }
}

/// Warm-up micro-batch count for one rank (§3.1.1):
/// `(v − 1)·nc + 2·(pp − ppr − 1)` for interleaved schedules, or the
/// classic `pp − ppr − 1` when there is a single chunk per rank.
pub fn warmup_microbatches(pp: u32, ppr: u32, v: u32, nc: u32) -> u32 {
    assert!(ppr < pp, "rank out of range");
    if v == 1 {
        pp - ppr - 1
    } else {
        (v - 1) * nc + 2 * (pp - ppr - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_configuration() {
        // 6-layer model on 3 ranks, v = 2, 6 micro-batches, nc = 3.
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 3 }, 3, 2, 6).unwrap();
        s.assert_well_formed();
        // Rank 0 warm-up: (2−1)·3 + 2·(3−0−1) = 7 (+1 steady-state F
        // before the first backward).
        assert_eq!(warmup_microbatches(3, 0, 2, 3), 7);
        assert_eq!(warmup_microbatches(3, 2, 2, 3), 3);
        assert_eq!(s.warmup_of(0), 8);
        assert_eq!(s.warmup_of(2), 4);
        // Interleaved placement: layer/stage 0 and 3 on rank 0.
        assert_eq!(s.rank_of_stage(0), 0);
        assert_eq!(s.rank_of_stage(3), 0);
        assert_eq!(s.chunk_of_stage(3), 1);
    }

    #[test]
    fn classic_1f1b_requires_divisible_batch() {
        assert!(matches!(
            PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 10),
            Err(ScheduleError::BatchNotDivisible { .. })
        ));
        // The flexible schedule removes the constraint (§3.1.1).
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, 10).unwrap();
        s.assert_well_formed();
    }

    #[test]
    fn afab_runs_all_forwards_first() {
        let s = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 4, 2, 8).unwrap();
        s.assert_well_formed();
        for ppr in 0..4 {
            assert_eq!(s.warmup_of(ppr), 16);
            assert_eq!(s.peak_in_flight(ppr), 16);
        }
    }

    #[test]
    fn flexible_nc_below_pp_degenerates_toward_afab() {
        // §3.1.1: nc < pp degenerates into all-forward-all-backward
        // within each round.
        let s = PpSchedule::build(ScheduleKind::Flexible { nc: 2 }, 4, 2, 8).unwrap();
        s.assert_well_formed();
        // nc < pp executes each round GPipe-style: every rank's ops are
        // identical and each round's forwards all precede its backwards.
        assert!(s.ranks.iter().all(|r| *r == s.ranks[0]));
        let first_round: Vec<_> = s.ranks[0][..8].to_vec();
        assert!(first_round[..4].iter().all(|o| o.is_forward()));
        assert!(first_round[4..].iter().all(|o| !o.is_forward()));
        // In-flight memory ordering: AFAB ≥ flexible(nc=nmb) ≥ nc<pp.
        let s_full = PpSchedule::build(ScheduleKind::Flexible { nc: 8 }, 4, 2, 8).unwrap();
        let afab = PpSchedule::build(ScheduleKind::AllFwdAllBwd, 4, 2, 8).unwrap();
        assert!(afab.peak_in_flight(0) >= s_full.peak_in_flight(0));
        assert!(s_full.peak_in_flight(0) >= s.peak_in_flight(0));
    }

    #[test]
    fn extra_warmup_microbatches_increase_in_flight_memory() {
        // §3.1.1: nc > pp costs (nc − pp)·(v − 1) extra in-flight
        // warm-up micro-batches.
        let base = PpSchedule::build(ScheduleKind::Flexible { nc: 4 }, 4, 2, 12).unwrap();
        let extra = PpSchedule::build(ScheduleKind::Flexible { nc: 6 }, 4, 2, 12).unwrap();
        base.assert_well_formed();
        extra.assert_well_formed();
        let diff = extra.peak_in_flight(0) as i64 - base.peak_in_flight(0) as i64;
        assert_eq!(diff, 6 - 4);
    }

    #[test]
    fn warmup_formula_matches_megatron_at_nc_eq_pp() {
        // (pp − ppr − 1)·2 + (v − 1)·pp is Megatron-LM's interleaved
        // warm-up count.
        for pp in [2u32, 4, 8] {
            for v in [2u32, 4] {
                for ppr in 0..pp {
                    assert_eq!(
                        warmup_microbatches(pp, ppr, v, pp),
                        (pp - ppr - 1) * 2 + (v - 1) * pp
                    );
                }
            }
        }
    }

    #[test]
    fn earlier_ranks_hold_more_in_flight() {
        // The §3.1.2 imbalance: rank 0 has the largest warm-up, so the
        // highest activation residency.
        let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 16).unwrap();
        let flights: Vec<u32> = (0..4).map(|r| s.peak_in_flight(r)).collect();
        assert!(flights.windows(2).all(|w| w[0] >= w[1]), "{flights:?}");
        assert!(flights[0] > flights[3]);
    }

    #[test]
    fn single_chunk_uses_classic_warmup() {
        let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 1, 8).unwrap();
        s.assert_well_formed();
        assert_eq!(warmup_microbatches(4, 0, 1, 4), 3);
        assert_eq!(warmup_microbatches(4, 3, 1, 4), 0);
        assert_eq!(s.warmup_of(0), 4);
        // The last rank alternates 1F1B from the start.
        assert_eq!(s.warmup_of(3), 1);
    }

    #[test]
    fn arbitrary_batch_sizes_are_accepted() {
        // Flexible PP supports evolving global batch sizes (§3.1.1).
        for nmb in 1..20u32 {
            let nc = nmb.min(4);
            let s = PpSchedule::build(ScheduleKind::Flexible { nc }, 4, 2, nmb).unwrap();
            s.assert_well_formed();
        }
    }

    #[test]
    fn analytic_bubble_ratio() {
        let s = PpSchedule::build(ScheduleKind::Interleaved1F1B, 4, 2, 8).unwrap();
        assert!((s.analytic_bubble_ratio() - 3.0 / 8.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_params_rejected() {
        assert!(PpSchedule::build(ScheduleKind::AllFwdAllBwd, 0, 1, 1).is_err());
        assert!(PpSchedule::build(ScheduleKind::AllFwdAllBwd, 1, 0, 1).is_err());
        assert!(PpSchedule::build(ScheduleKind::AllFwdAllBwd, 1, 1, 0).is_err());
        assert!(matches!(
            PpSchedule::build(ScheduleKind::Flexible { nc: 9 }, 2, 2, 8),
            Err(ScheduleError::BadNc { .. })
        ));
    }
}
