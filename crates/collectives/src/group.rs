//! Process groups: ordered sets of ranks participating in a collective.

use cluster_model::topology::{GlobalRank, TopologySpec};
use std::fmt;

/// An ordered set of distinct global ranks that communicate together,
/// analogous to an NCCL communicator.
///
/// The order is meaningful: ring algorithms send from `ranks[i]` to
/// `ranks[(i + 1) % n]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessGroup {
    ranks: Vec<GlobalRank>,
}

impl ProcessGroup {
    /// Creates a group from an ordered rank list.
    ///
    /// # Panics
    /// Panics if the list is empty or contains duplicates.
    pub fn new(ranks: Vec<GlobalRank>) -> ProcessGroup {
        assert!(!ranks.is_empty(), "process group cannot be empty");
        let mut seen = ranks.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), ranks.len(), "duplicate rank in process group");
        ProcessGroup { ranks }
    }

    /// A contiguous group `[start, start + n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn contiguous(start: u32, n: u32) -> ProcessGroup {
        assert!(n > 0, "process group cannot be empty");
        ProcessGroup {
            ranks: (start..start + n).map(GlobalRank).collect(),
        }
    }

    /// A strided group: `n` ranks starting at `start`, `stride` apart.
    ///
    /// # Panics
    /// Panics if `n == 0` or `stride == 0`.
    pub fn strided(start: u32, n: u32, stride: u32) -> ProcessGroup {
        assert!(n > 0, "process group cannot be empty");
        assert!(stride > 0, "stride must be positive");
        ProcessGroup {
            ranks: (0..n).map(|i| GlobalRank(start + i * stride)).collect(),
        }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// `true` if the group has exactly one rank (collectives are no-ops).
    pub fn is_singleton(&self) -> bool {
        self.ranks.len() == 1
    }

    /// Always `false`: groups are non-empty by construction. Provided for
    /// API completeness alongside [`ProcessGroup::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The participating ranks in group order.
    pub fn ranks(&self) -> &[GlobalRank] {
        &self.ranks
    }

    /// Position of `rank` within the group, if present.
    pub fn position(&self, rank: GlobalRank) -> Option<usize> {
        self.ranks.iter().position(|&r| r == rank)
    }

    /// Iterates the ring edges `(ranks[i], ranks[i+1 mod n])`.
    /// A singleton group yields nothing.
    pub fn ring_edges(&self) -> impl Iterator<Item = (GlobalRank, GlobalRank)> + '_ {
        let n = self.ranks.len();
        (0..n)
            .filter(move |_| n > 1)
            .map(move |i| (self.ranks[i], self.ranks[(i + 1) % n]))
    }

    /// Bytes each member `(sends, receives)` in a ring all-gather (or
    /// reduce-scatter) where every rank contributes `bytes_per_rank`:
    /// `(n − 1) · bytes_per_rank` each way, zero for singletons.
    ///
    /// Because the ring is symmetric this doubles as the byte-
    /// conservation reference: summing over members, total bytes sent
    /// equals total bytes received. Conformance checkers re-derive the
    /// same totals by walking [`ProcessGroup::ring_edges`] and compare.
    pub fn ring_traffic_per_rank(&self, bytes_per_rank: u64) -> (u64, u64) {
        let each = bytes_per_rank * (self.ranks.len() as u64 - 1);
        (each, each)
    }

    /// `true` if every rank lives on the same node of `topo`.
    pub fn is_intra_node(&self, topo: &TopologySpec) -> bool {
        let node = topo.node_of(self.ranks[0]);
        self.ranks.iter().all(|&r| topo.node_of(r) == node)
    }

    /// Number of distinct nodes the group touches.
    pub fn node_span(&self, topo: &TopologySpec) -> usize {
        let mut nodes: Vec<u32> = self.ranks.iter().map(|&r| topo.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// A topology signature for cost caching: two groups with equal
    /// shapes have identical collective costs on any topology whose
    /// leaf holds `leaf_ranks` ranks (`gpus_per_node × nodes_per_leaf`).
    ///
    /// Path classes depend only on rank positions *within* the
    /// node/leaf grid, so translating a whole group by a multiple of
    /// `leaf_ranks` changes nothing — captured by keeping the first
    /// rank modulo `leaf_ranks` plus the exact offset pattern. The
    /// signature is exact (no hashing), so equal signatures can never
    /// alias groups with different costs.
    ///
    /// # Panics
    /// Panics if `leaf_ranks == 0`.
    pub fn shape(&self, leaf_ranks: u32) -> GroupShape {
        assert!(leaf_ranks > 0, "leaf_ranks must be positive");
        let start = self.ranks[0].0;
        let start_mod = start % leaf_ranks;
        let n = self.ranks.len() as u32;
        if n == 1 {
            return GroupShape::Strided {
                start_mod,
                stride: 1,
                n: 1,
            };
        }
        // Ascending arithmetic progressions (the contiguous/strided
        // constructors) get a compact signature; two-level lattices (an
        // inner run repeated at an outer stride — the dp-major ×
        // cp-minor FSDP groups) get one too; anything else keeps the
        // exact offset list.
        if self.ranks[1].0 > start {
            let stride = self.ranks[1].0 - start;
            let is_ap = self
                .ranks
                .windows(2)
                .all(|w| w[1].0 > w[0].0 && w[1].0 - w[0].0 == stride);
            if is_ap {
                return GroupShape::Strided {
                    start_mod,
                    stride,
                    n,
                };
            }
            if let Some(shape) = self.lattice_shape(start_mod, stride) {
                return shape;
            }
        }
        GroupShape::Irregular {
            start_mod,
            offsets: self
                .ranks
                .iter()
                .map(|r| i64::from(r.0) - i64::from(start))
                .collect(),
        }
    }

    /// Recognizes a two-level lattice in group order: `inner_n` ranks at
    /// `inner_stride`, repeated `outer_n` times at `outer_stride`. The
    /// five parameters reproduce every offset exactly, so the compact
    /// signature aliases precisely the rank lists an
    /// [`GroupShape::Irregular`] offset list would — no cost-cache
    /// collisions are possible. Returns `None` unless the whole list
    /// matches (callers fall back to the exact offset list).
    fn lattice_shape(&self, start_mod: u32, inner_stride: u32) -> Option<GroupShape> {
        let start = self.ranks[0].0;
        let n = self.ranks.len();
        let mut inner_n = 1usize;
        while inner_n < n
            && self.ranks[inner_n].0 > self.ranks[inner_n - 1].0
            && self.ranks[inner_n].0 - self.ranks[inner_n - 1].0 == inner_stride
        {
            inner_n += 1;
        }
        if inner_n < 2 || inner_n >= n || !n.is_multiple_of(inner_n) {
            return None;
        }
        if self.ranks[inner_n].0 <= start {
            return None;
        }
        let outer_stride = self.ranks[inner_n].0 - start;
        let expect = |k: usize| -> u64 {
            u64::from(start)
                + (k / inner_n) as u64 * u64::from(outer_stride)
                + (k % inner_n) as u64 * u64::from(inner_stride)
        };
        if self
            .ranks
            .iter()
            .enumerate()
            .any(|(k, r)| u64::from(r.0) != expect(k))
        {
            return None;
        }
        Some(GroupShape::Lattice {
            start_mod,
            inner_stride,
            inner_n: inner_n as u32,
            outer_stride,
            outer_n: (n / inner_n) as u32,
        })
    }
}

/// Translation-invariant group signature returned by
/// [`ProcessGroup::shape`]; used as part of collective cost-cache keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupShape {
    /// Ascending arithmetic progression `start + i × stride`.
    Strided {
        /// First rank modulo the leaf size.
        start_mod: u32,
        /// Rank step.
        stride: u32,
        /// Participant count.
        n: u32,
    },
    /// Two-level lattice in group order: `ranks[j·inner_n + i] =
    /// ranks[0] + j·outer_stride + i·inner_stride`. This is the shape of
    /// FSDP's dp-major × cp-minor groups when `pp > 1` separates the two
    /// strides; keeping it compact (five scalars instead of a dp·cp-long
    /// offset list) is what makes large-cluster collective checking and
    /// cost caching O(1) per group instead of O(members).
    Lattice {
        /// First rank modulo the leaf size.
        start_mod: u32,
        /// Step within an inner run.
        inner_stride: u32,
        /// Length of each inner run (≥ 2).
        inner_n: u32,
        /// Step between the starts of consecutive inner runs.
        outer_stride: u32,
        /// Number of inner runs (≥ 2).
        outer_n: u32,
    },
    /// Any other ordering; `offsets[i]` is `ranks[i] − ranks[0]`.
    Irregular {
        /// First rank modulo the leaf size.
        start_mod: u32,
        /// Signed offsets from the first rank (exact, collision-free).
        offsets: Vec<i64>,
    },
}

impl fmt::Display for ProcessGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg[")?;
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", r.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_and_strided() {
        let c = ProcessGroup::contiguous(4, 3);
        assert_eq!(c.ranks(), &[GlobalRank(4), GlobalRank(5), GlobalRank(6)]);
        let s = ProcessGroup::strided(1, 3, 8);
        assert_eq!(s.ranks(), &[GlobalRank(1), GlobalRank(9), GlobalRank(17)]);
    }

    #[test]
    fn ring_edges_wrap() {
        let g = ProcessGroup::contiguous(0, 3);
        let edges: Vec<_> = g.ring_edges().collect();
        assert_eq!(
            edges,
            vec![
                (GlobalRank(0), GlobalRank(1)),
                (GlobalRank(1), GlobalRank(2)),
                (GlobalRank(2), GlobalRank(0)),
            ]
        );
    }

    #[test]
    fn singleton_has_no_edges() {
        let g = ProcessGroup::contiguous(5, 1);
        assert!(g.is_singleton());
        assert_eq!(g.ring_edges().count(), 0);
    }

    #[test]
    fn ring_traffic_is_conserved() {
        let g = ProcessGroup::contiguous(0, 4);
        assert_eq!(g.ring_traffic_per_rank(100), (300, 300));
        let solo = ProcessGroup::contiguous(9, 1);
        assert_eq!(solo.ring_traffic_per_rank(100), (0, 0));
    }

    #[test]
    fn node_span() {
        let topo = TopologySpec::llama3_production(4);
        let intra = ProcessGroup::contiguous(0, 8);
        assert!(intra.is_intra_node(&topo));
        assert_eq!(intra.node_span(&topo), 1);
        let cross = ProcessGroup::strided(0, 4, 8);
        assert!(!cross.is_intra_node(&topo));
        assert_eq!(cross.node_span(&topo), 4);
    }

    #[test]
    fn position() {
        let g = ProcessGroup::strided(2, 4, 2);
        assert_eq!(g.position(GlobalRank(6)), Some(2));
        assert_eq!(g.position(GlobalRank(5)), None);
    }

    #[test]
    fn shape_recognizes_two_level_lattices() {
        // An FSDP dp-major × cp-minor group on a tp2·cp2·pp4·dp4 mesh:
        // inner runs of 2 at stride 2, outer stride tp·cp·pp = 16.
        let ranks: Vec<GlobalRank> = (0..4)
            .flat_map(|dp| (0..2).map(move |cp| GlobalRank(dp * 16 + cp * 2)))
            .collect();
        let g = ProcessGroup::new(ranks);
        assert_eq!(
            g.shape(8),
            GroupShape::Lattice {
                start_mod: 0,
                inner_stride: 2,
                inner_n: 2,
                outer_stride: 16,
                outer_n: 4,
            }
        );
    }

    #[test]
    fn lattice_shape_is_exact_not_a_heuristic() {
        // Perturbing one rank of a lattice must fall back to the exact
        // offset list, never alias the compact signature.
        let mut ranks: Vec<GlobalRank> = (0..3)
            .flat_map(|j| (0..2).map(move |i| GlobalRank(j * 16 + i * 2)))
            .collect();
        ranks[5] = GlobalRank(35); // was 34
        let g = ProcessGroup::new(ranks);
        assert!(
            matches!(g.shape(8), GroupShape::Irregular { .. }),
            "{:?}",
            g.shape(8)
        );
        // A full arithmetic progression stays Strided, not Lattice: the
        // inner run covers the whole list.
        let ap = ProcessGroup::strided(0, 8, 2);
        assert!(matches!(ap.shape(8), GroupShape::Strided { .. }));
    }

    #[test]
    fn lattice_shape_is_translation_invariant_per_leaf() {
        let lat = |base: u32| {
            ProcessGroup::new(
                (0..4)
                    .flat_map(|j| (0..2).map(move |i| GlobalRank(base + j * 16 + i * 2)))
                    .collect(),
            )
        };
        let leaf = 64;
        assert_eq!(lat(1).shape(leaf), lat(1 + leaf).shape(leaf));
        assert_ne!(lat(1).shape(leaf), lat(2).shape(leaf));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_rank_panics() {
        ProcessGroup::new(vec![GlobalRank(1), GlobalRank(1)]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_group_panics() {
        ProcessGroup::new(vec![]);
    }
}
