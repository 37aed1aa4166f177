//! Training-phase schedule.
//!
//! Llama 3 pre-training proceeds through phases with different sequence
//! lengths, batch sizes and resource allocations (§2.2): short-context,
//! long-context and multimodal. The phase schedule is what forces the
//! flexibility requirements on the pipeline schedule (variable batch
//! sizes, §3.1.1) and on context parallelism (§4).

/// What the phase trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Text, short context (8 K).
    ShortContext,
    /// Text, long context (up to 131 K).
    LongContext,
    /// Multimodal: frozen text model + trainable encoder and
    /// cross-attention layers.
    Multimodal,
}

/// One pre-training phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingPhase {
    /// Phase name.
    pub name: String,
    /// What the phase trains.
    pub kind: PhaseKind,
    /// Sequence length in tokens.
    pub seq: u64,
    /// Global batch size in tokens per step.
    pub token_budget: u64,
    /// GPUs allocated to the phase.
    pub ngpu: u32,
}

impl TrainingPhase {
    /// Global batch size in sequences.
    ///
    /// # Panics
    /// Panics if `seq` does not divide the token budget.
    pub fn gbs(&self) -> usize {
        crate::batch::gbs_from_token_budget(self.token_budget, self.seq)
    }
}

/// The Llama 3 405B pre-training phase sequence (Table 2 plus the §3.2
/// multimodal stage). The token budget is 16 M tokens per step for the
/// text phases.
pub fn llama3_405b_phases() -> Vec<TrainingPhase> {
    let mib16 = 16 * 1024 * 1024;
    vec![
        TrainingPhase {
            name: "short-context".to_string(),
            kind: PhaseKind::ShortContext,
            seq: 8_192,
            token_budget: mib16,
            ngpu: 16_384,
        },
        TrainingPhase {
            name: "long-context".to_string(),
            kind: PhaseKind::LongContext,
            seq: 131_072,
            token_budget: mib16,
            ngpu: 16_384,
        },
        TrainingPhase {
            name: "multimodal".to_string(),
            kind: PhaseKind::Multimodal,
            seq: 8_192,
            token_budget: mib16 / 2,
            ngpu: 8_192,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_gbs_matches_table_2() {
        let phases = llama3_405b_phases();
        assert_eq!(phases[0].gbs(), 2048);
        assert_eq!(phases[1].gbs(), 128);
    }

    #[test]
    fn phases_change_seq_and_batch() {
        let phases = llama3_405b_phases();
        assert!(phases[1].seq > phases[0].seq);
        assert!(phases[1].gbs() < phases[0].gbs());
        // Same token budget across the text phases.
        assert_eq!(phases[0].token_budget, phases[1].token_budget);
    }
}
