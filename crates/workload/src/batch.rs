//! Global-batch construction and splitting.
//!
//! Training consumes a *global batch* of sequences each step. The data
//! pipeline (§4 "Dataloaders") hands whole sequences to DP groups — CP
//! splitting happens later and is invisible to the loader — and the
//! pipeline schedule further divides a DP group's share into
//! micro-batches.

use crate::docgen::DocumentSampler;
use llm_model::masks::MaskSpec;

/// One training step's worth of sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalBatch {
    /// Sequence length of every sequence.
    pub seq: u64,
    /// Per-sequence attention masks (one entry per sequence).
    pub sequences: Vec<MaskSpec>,
}

impl GlobalBatch {
    /// A batch of `gbs` causal-masked sequences.
    pub fn causal(seq: u64, gbs: usize) -> GlobalBatch {
        GlobalBatch {
            seq,
            sequences: vec![MaskSpec::Causal; gbs],
        }
    }

    /// A batch of `gbs` document-masked sequences drawn from `sampler`.
    pub fn sampled(seq: u64, gbs: usize, sampler: &mut DocumentSampler) -> GlobalBatch {
        GlobalBatch {
            seq,
            sequences: sampler.pack_sequences(seq, gbs),
        }
    }

    /// Global batch size in sequences.
    pub fn gbs(&self) -> usize {
        self.sequences.len()
    }

    /// Global batch size in tokens.
    pub fn tokens(&self) -> u64 {
        self.seq * self.sequences.len() as u64
    }

    /// Splits the batch across `ndp` data-parallel groups
    /// (round-robin), returning one [`DpBatch`] per group.
    ///
    /// # Panics
    /// Panics if `ndp` is zero or does not divide the batch size —
    /// Llama 3 keeps `bs = gbs / ndp` integral (§5.1).
    pub fn split_dp(&self, ndp: usize) -> Vec<DpBatch> {
        assert!(ndp > 0, "need at least one DP group");
        assert!(
            self.sequences.len().is_multiple_of(ndp),
            "gbs {} not divisible by ndp {ndp}",
            self.sequences.len()
        );
        (0..ndp)
            .map(|g| DpBatch {
                seq: self.seq,
                sequences: self
                    .sequences
                    .iter()
                    .skip(g)
                    .step_by(ndp)
                    .cloned()
                    .collect(),
            })
            .collect()
    }
}

/// One data-parallel group's share of a step.
#[derive(Debug, Clone, PartialEq)]
pub struct DpBatch {
    /// Sequence length.
    pub seq: u64,
    /// This group's sequences.
    pub sequences: Vec<MaskSpec>,
}

impl DpBatch {
    /// Batch size per DP group (`bs` in the paper's notation).
    pub fn bs(&self) -> usize {
        self.sequences.len()
    }

    /// Splits into micro-batches of `mbs` sequences each, preserving
    /// order. The final micro-batch may be smaller if `mbs` does not
    /// divide `bs` (the flexible PP schedule tolerates this; §3.1.1).
    ///
    /// # Panics
    /// Panics if `mbs == 0`.
    pub fn microbatches(&self, mbs: usize) -> Vec<MicroBatch> {
        assert!(mbs > 0, "micro-batch size must be positive");
        self.sequences
            .chunks(mbs)
            .map(|c| MicroBatch {
                seq: self.seq,
                sequences: c.to_vec(),
            })
            .collect()
    }
}

/// One micro-batch: the unit a pipeline stage executes.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBatch {
    /// Sequence length.
    pub seq: u64,
    /// Sequences in this micro-batch.
    pub sequences: Vec<MaskSpec>,
}

impl MicroBatch {
    /// Micro-batch size in sequences.
    pub fn mbs(&self) -> usize {
        self.sequences.len()
    }

    /// Tokens in the micro-batch.
    pub fn tokens(&self) -> u64 {
        self.seq * self.sequences.len() as u64
    }

    /// Total attended (query, key) pairs across the micro-batch —
    /// the attention workload this micro-batch induces.
    pub fn attended_pairs(&self) -> u128 {
        self.sequences
            .iter()
            .map(|m| m.attended_pairs(self.seq))
            .sum()
    }
}

/// Derives the global batch size in sequences from a token budget:
/// `gbs = tokens / seq` (§5.1's "16 M tokens per step").
///
/// # Panics
/// Panics if `seq` is zero or does not divide the budget.
pub fn gbs_from_token_budget(tokens: u64, seq: u64) -> usize {
    assert!(seq > 0, "sequence length must be positive");
    assert!(
        tokens.is_multiple_of(seq),
        "token budget {tokens} not divisible by seq {seq}"
    );
    (tokens / seq) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgen::DocLengthDist;

    #[test]
    fn token_budget_matches_table_2() {
        // §5.1: 16M tokens at seq 8192 ⇒ gbs 2048; at 131072 ⇒ 128.
        let budget = 16 * 1024 * 1024;
        assert_eq!(gbs_from_token_budget(budget, 8192), 2048);
        assert_eq!(gbs_from_token_budget(budget, 131_072), 128);
    }

    #[test]
    fn dp_split_partitions_everything() {
        let gb = GlobalBatch::causal(1024, 64);
        let parts = gb.split_dp(16);
        assert_eq!(parts.len(), 16);
        assert!(parts.iter().all(|p| p.bs() == 4));
        let total: usize = parts.iter().map(|p| p.bs()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn microbatch_split_with_remainder() {
        let dp = DpBatch {
            seq: 128,
            sequences: vec![MaskSpec::Causal; 10],
        };
        let mbs = dp.microbatches(4);
        assert_eq!(mbs.len(), 3);
        assert_eq!(mbs[0].mbs(), 4);
        assert_eq!(mbs[2].mbs(), 2);
    }

    #[test]
    fn sampled_batches_vary_across_groups() {
        let mut s = DocumentSampler::new(DocLengthDist::Exponential { mean: 256.0 }, 5);
        let gb = GlobalBatch::sampled(2048, 8, &mut s);
        let parts = gb.split_dp(4);
        // Different groups see different document packings (this is the
        // source of the Fig 14 imbalance).
        let pairs: Vec<u128> = parts
            .iter()
            .map(|p| {
                p.sequences
                    .iter()
                    .map(|m| m.attended_pairs(2048))
                    .sum::<u128>()
            })
            .collect();
        assert!(pairs.windows(2).any(|w| w[0] != w[1]), "{pairs:?}");
    }

    #[test]
    fn microbatch_pair_accounting() {
        let mb = MicroBatch {
            seq: 16,
            sequences: vec![MaskSpec::Causal, MaskSpec::document(vec![8, 8])],
        };
        let expect =
            MaskSpec::Causal.attended_pairs(16) + MaskSpec::document(vec![8, 8]).attended_pairs(16);
        assert_eq!(mb.attended_pairs(), expect);
        assert_eq!(mb.tokens(), 32);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_dp_split_panics() {
        GlobalBatch::causal(16, 10).split_dp(3);
    }
}
