//! Synthetic document-length generation.
//!
//! The paper's document mask makes attention work depend on how
//! documents pack into each training sequence (§4, §7.2 — "average
//! document length is 1 K"). Real pre-training corpora are unavailable,
//! so we substitute seeded samplers whose length distribution is the
//! only property the reproduced experiments depend on: the mix of many
//! short documents (cheap, balanced attention) and occasional
//! sequence-spanning documents (expensive, imbalanced attention).

use llm_model::masks::MaskSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Document-length distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DocLengthDist {
    /// Every document has exactly this many tokens.
    Fixed(u64),
    /// Exponential with the given mean (heavily short-document).
    Exponential {
        /// Mean document length in tokens.
        mean: f64,
    },
    /// Log-normal parameterized by the *target mean* length and the
    /// log-space standard deviation (heavy upper tail: the occasional
    /// document longer than the whole sequence, which is what makes the
    /// slowest CP rank process "the full long sequence without an
    /// eos_id", §4).
    LogNormal {
        /// Target mean document length in tokens.
        mean: f64,
        /// Log-space standard deviation (≈ 1.0–1.5 for web corpora).
        sigma: f64,
    },
}

/// Seeded generator packing documents into fixed-length sequences.
#[derive(Debug, Clone)]
pub struct DocumentSampler {
    dist: DocLengthDist,
    rng: StdRng,
}

impl DocumentSampler {
    /// Creates a sampler with an explicit seed.
    pub fn new(dist: DocLengthDist, seed: u64) -> DocumentSampler {
        DocumentSampler {
            dist,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples one raw document length (≥ 1, un-truncated).
    pub fn sample_len(&mut self) -> u64 {
        match self.dist {
            DocLengthDist::Fixed(l) => l.max(1),
            DocLengthDist::Exponential { mean } => {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln()) * mean).ceil().max(1.0) as u64
            }
            DocLengthDist::LogNormal { mean, sigma } => {
                // mean = exp(mu + sigma²/2) ⇒ mu = ln(mean) − sigma²/2.
                let mu = mean.ln() - sigma * sigma / 2.0;
                let z = standard_normal(&mut self.rng);
                (mu + sigma * z).exp().ceil().max(1.0) as u64
            }
        }
    }

    /// Packs documents into one sequence of exactly `seq` tokens,
    /// truncating the final document at the boundary (documents never
    /// straddle sequences, matching the packed-with-eos format).
    ///
    /// # Panics
    /// Panics if `seq == 0`.
    pub fn pack_sequence(&mut self, seq: u64) -> MaskSpec {
        assert!(seq > 0, "sequence length must be positive");
        let mut lens = Vec::new();
        let mut used = 0u64;
        while used < seq {
            let l = self.sample_len().min(seq - used);
            lens.push(l);
            used += l;
        }
        MaskSpec::document(lens)
    }

    /// Packs `count` independent sequences.
    pub fn pack_sequences(&mut self, seq: u64, count: usize) -> Vec<MaskSpec> {
        (0..count).map(|_| self.pack_sequence(seq)).collect()
    }
}

/// Box–Muller standard normal from a seeded RNG.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_fills_sequence_exactly() {
        let mut s = DocumentSampler::new(DocLengthDist::Exponential { mean: 1024.0 }, 7);
        for _ in 0..20 {
            let m = s.pack_sequence(8192);
            assert_eq!(m.implied_seq(), Some(8192));
        }
    }

    #[test]
    fn fixed_dist_packs_evenly() {
        let mut s = DocumentSampler::new(DocLengthDist::Fixed(1024), 0);
        let m = s.pack_sequence(8192);
        match m {
            MaskSpec::Document { doc_lens } => assert_eq!(doc_lens, vec![1024; 8]),
            other => panic!("unexpected mask {other:?}"),
        }
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut s = DocumentSampler::new(DocLengthDist::Exponential { mean: 1000.0 }, 42);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.sample_len()).sum();
        let mean = total as f64 / n as f64;
        assert!((900.0..1100.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn lognormal_mean_roughly_matches() {
        let mut s = DocumentSampler::new(
            DocLengthDist::LogNormal {
                mean: 1000.0,
                sigma: 1.2,
            },
            42,
        );
        let n = 60_000;
        let total: u64 = (0..n).map(|_| s.sample_len()).sum();
        let mean = total as f64 / n as f64;
        assert!((850.0..1200.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn lognormal_has_heavy_tail() {
        let mut s = DocumentSampler::new(
            DocLengthDist::LogNormal {
                mean: 1000.0,
                sigma: 1.2,
            },
            3,
        );
        let long = (0..50_000).filter(|_| s.sample_len() > 10_000).count();
        assert!(long > 50, "expected a heavy tail, got {long} long docs");
    }

    #[test]
    fn deterministic_by_seed() {
        let m1 =
            DocumentSampler::new(DocLengthDist::Exponential { mean: 512.0 }, 9).pack_sequence(4096);
        let m2 =
            DocumentSampler::new(DocLengthDist::Exponential { mean: 512.0 }, 9).pack_sequence(4096);
        assert_eq!(m1, m2);
        let m3 = DocumentSampler::new(DocLengthDist::Exponential { mean: 512.0 }, 10)
            .pack_sequence(4096);
        assert_ne!(m1, m3);
    }

    #[test]
    fn long_doc_truncated_to_sequence() {
        let mut s = DocumentSampler::new(DocLengthDist::Fixed(1 << 20), 0);
        let m = s.pack_sequence(4096);
        match m {
            MaskSpec::Document { doc_lens } => assert_eq!(doc_lens, vec![4096]),
            other => panic!("unexpected mask {other:?}"),
        }
    }
}
