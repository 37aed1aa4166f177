//! Attention masks and mask-aware work accounting.
//!
//! The Llama 3 document mask (§4) makes attention work input-dependent:
//! a token attends only to earlier tokens of its own document, so the
//! number of attended (query, key) pairs — which determines attention
//! FLOPs — varies with the packing of documents into the sequence. This
//! module counts attended pairs exactly for full, causal and document
//! masks, both globally and restricted to a contiguous query range (the
//! quantity needed to price one context-parallel chunk's share of the
//! work).

/// An attention mask over a packed sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MaskSpec {
    /// Every query attends every key (bidirectional; used by the ViT
    /// image encoder).
    Full,
    /// Query `q` attends keys `0..=q` (standard causal LM mask).
    Causal,
    /// Block-causal document mask: the sequence is a concatenation of
    /// documents of the given lengths; query `q` attends only earlier
    /// tokens (inclusive of itself) *within its own document*.
    Document {
        /// Document lengths; they must sum to the sequence length in use.
        doc_lens: Vec<u64>,
    },
}

impl MaskSpec {
    /// Builds a document mask, validating that lengths are positive.
    ///
    /// # Panics
    /// Panics if any document length is zero or the list is empty.
    pub fn document(doc_lens: Vec<u64>) -> MaskSpec {
        assert!(!doc_lens.is_empty(), "document mask needs documents");
        assert!(doc_lens.iter().all(|&l| l > 0), "zero-length document");
        MaskSpec::Document { doc_lens }
    }

    /// Sequence length implied by a document mask; `None` for masks that
    /// work at any length.
    pub fn implied_seq(&self) -> Option<u64> {
        match self {
            MaskSpec::Document { doc_lens } => Some(doc_lens.iter().sum()),
            _ => None,
        }
    }

    /// Number of attended (query, key) pairs over queries `[0, seq)`.
    ///
    /// # Panics
    /// Panics if a document mask's lengths do not sum to `seq`.
    pub fn attended_pairs(&self, seq: u64) -> u128 {
        self.attended_pairs_in(seq, 0, seq)
    }

    /// Number of attended pairs restricted to queries in
    /// `[q_start, q_end)`, for a sequence of length `seq`.
    ///
    /// This is the attention workload assigned to a CP rank that owns
    /// that query range (after the all-gather it holds all keys).
    ///
    /// # Panics
    /// Panics if the range is invalid, exceeds `seq`, or a document
    /// mask's lengths do not sum to `seq`.
    pub fn attended_pairs_in(&self, seq: u64, q_start: u64, q_end: u64) -> u128 {
        assert!(q_start <= q_end && q_end <= seq, "bad query range");
        match self {
            MaskSpec::Full => (q_end - q_start) as u128 * seq as u128,
            MaskSpec::Causal => {
                // Σ_{q=q_start}^{q_end-1} (q+1)
                let a = q_start as u128;
                let b = q_end as u128;
                (b * (b + 1) - a * (a + 1)) / 2
            }
            MaskSpec::Document { doc_lens } => {
                let total: u64 = doc_lens.iter().sum();
                assert_eq!(total, seq, "document lengths must sum to seq");
                let mut pairs: u128 = 0;
                let mut doc_start = 0u64;
                for &len in doc_lens {
                    let doc_end = doc_start + len;
                    let lo = q_start.max(doc_start);
                    let hi = q_end.min(doc_end);
                    if lo < hi {
                        // Positions within the document are causal.
                        let a = (lo - doc_start) as u128;
                        let b = (hi - doc_start) as u128;
                        pairs += (b * (b + 1) - a * (a + 1)) / 2;
                    }
                    doc_start = doc_end;
                }
                pairs
            }
        }
    }

    /// The widest key span any query in `[q_start, q_end)` attends —
    /// i.e. how much of the gathered KV a CP rank actually reads.
    pub fn kv_span_in(&self, seq: u64, q_start: u64, q_end: u64) -> u64 {
        assert!(q_start <= q_end && q_end <= seq, "bad query range");
        if q_start == q_end {
            return 0;
        }
        match self {
            MaskSpec::Full => seq,
            MaskSpec::Causal => q_end,
            MaskSpec::Document { doc_lens } => {
                let total: u64 = doc_lens.iter().sum();
                assert_eq!(total, seq, "document lengths must sum to seq");
                let mut span = 0u64;
                let mut doc_start = 0u64;
                for &len in doc_lens {
                    let doc_end = doc_start + len;
                    let lo = q_start.max(doc_start);
                    let hi = q_end.min(doc_end);
                    if lo < hi {
                        // Queries in this doc attend back to doc_start.
                        span = span.max(hi - doc_start);
                    }
                    doc_start = doc_end;
                }
                span
            }
        }
    }

    /// Whether query position `q` may attend key position `k`.
    ///
    /// # Panics
    /// Panics if a document mask's lengths do not cover `q` or `k`.
    pub fn allows(&self, q: u64, k: u64) -> bool {
        match self {
            MaskSpec::Full => true,
            MaskSpec::Causal => k <= q,
            MaskSpec::Document { doc_lens } => {
                if k > q {
                    return false;
                }
                let mut start = 0u64;
                for &len in doc_lens {
                    let end = start + len;
                    if q < end {
                        return k >= start;
                    }
                    start = end;
                }
                panic!("query position {q} beyond document mask")
            }
        }
    }

    /// Mask density: attended pairs over the full `seq × seq` square.
    pub fn density(&self, seq: u64) -> f64 {
        if seq == 0 {
            return 0.0;
        }
        self.attended_pairs(seq) as f64 / (seq as f64 * seq as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_pairs_closed_form() {
        let m = MaskSpec::Causal;
        assert_eq!(m.attended_pairs(1), 1);
        assert_eq!(m.attended_pairs(4), 1 + 2 + 3 + 4);
        assert_eq!(m.attended_pairs(1000), 1000 * 1001 / 2);
    }

    #[test]
    fn full_mask_pairs() {
        assert_eq!(MaskSpec::Full.attended_pairs(16), 256);
        assert_eq!(MaskSpec::Full.attended_pairs_in(16, 4, 8), 4 * 16);
    }

    #[test]
    fn causal_range_pairs() {
        let m = MaskSpec::Causal;
        // queries 2,3 attend 3 and 4 keys.
        assert_eq!(m.attended_pairs_in(8, 2, 4), 3 + 4);
        // Ranges partition the total.
        let total = m.attended_pairs(8);
        let split = m.attended_pairs_in(8, 0, 3) + m.attended_pairs_in(8, 3, 8);
        assert_eq!(total, split);
    }

    #[test]
    fn document_mask_paper_example() {
        // The §4 example: 16 tokens, documents [3, 3, 8, 2].
        let m = MaskSpec::document(vec![3, 3, 8, 2]);
        let expect: u128 = [3u128, 3, 8, 2].iter().map(|l| l * (l + 1) / 2).sum();
        assert_eq!(m.attended_pairs(16), expect);
        // Chunk 1 of 4 (tokens 4..8): tokens 4,5 are in doc 1 (positions
        // 1,2 -> 2,3 keys); tokens 6..8 are in doc 2 (positions 0,1 -> 1,2).
        assert_eq!(m.attended_pairs_in(16, 4, 8), 2 + 3 + 1 + 2);
    }

    #[test]
    fn document_mask_cheaper_than_causal() {
        let m = MaskSpec::document(vec![1024; 8]);
        let c = MaskSpec::Causal;
        let seq = 8 * 1024;
        assert!(m.attended_pairs(seq) < c.attended_pairs(seq));
        assert!(m.density(seq) < c.density(seq));
    }

    #[test]
    fn single_document_equals_causal() {
        let m = MaskSpec::document(vec![4096]);
        let c = MaskSpec::Causal;
        assert_eq!(m.attended_pairs(4096), c.attended_pairs(4096));
        assert_eq!(
            m.attended_pairs_in(4096, 1000, 2000),
            c.attended_pairs_in(4096, 1000, 2000)
        );
    }

    #[test]
    fn kv_span() {
        assert_eq!(MaskSpec::Causal.kv_span_in(16, 4, 8), 8);
        assert_eq!(MaskSpec::Full.kv_span_in(16, 4, 8), 16);
        // Doc [3,3,8,2]: queries 4..8 cross docs 1 and 2. Doc 1 spans
        // keys 3..6 (span from doc start: up to position 6−3=3... the
        // max over docs of (hi − doc_start)): doc1 hi=6, start=3 -> 3;
        // doc2 hi=8, start=6 -> 2. Widest span = 3.
        let m = MaskSpec::document(vec![3, 3, 8, 2]);
        assert_eq!(m.kv_span_in(16, 4, 8), 3);
        // A later chunk deep inside doc 2 spans from doc 2's start.
        assert_eq!(m.kv_span_in(16, 12, 14), 8);
    }

    #[test]
    fn ranges_partition_document_totals() {
        let m = MaskSpec::document(vec![5, 11, 2, 14]);
        let seq = 32;
        let total = m.attended_pairs(seq);
        let parts: u128 = (0..4)
            .map(|i| m.attended_pairs_in(seq, i * 8, (i + 1) * 8))
            .sum();
        assert_eq!(total, parts);
    }

    #[test]
    fn empty_range_is_zero() {
        assert_eq!(MaskSpec::Causal.attended_pairs_in(16, 5, 5), 0);
        assert_eq!(MaskSpec::Causal.kv_span_in(16, 5, 5), 0);
    }

    #[test]
    #[should_panic(expected = "sum to seq")]
    fn mismatched_doc_lens_panic() {
        MaskSpec::document(vec![3, 3]).attended_pairs(16);
    }
}
