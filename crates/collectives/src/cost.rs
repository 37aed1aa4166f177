//! α–β cost models for collectives.
//!
//! Each collective is priced for a specific [`ProcessGroup`] on a
//! specific [`TopologySpec`] using ring algorithms: `(n−1)` steps, each
//! step moving one chunk across every ring edge simultaneously, gated by
//! the slowest edge. This matches NCCL's default ring behaviour closely
//! enough to reproduce the paper's comparisons (§5.2's ordering argument
//! and §7.2's achieved all-gather bandwidths).
//!
//! A hierarchical variant prices node-aware algorithms (intra-node ring
//! at NVLink speed, inter-node ring at NIC speed) used by FSDP when its
//! group spans many nodes.

use crate::group::{GroupShape, ProcessGroup};
use crate::sharded::{CacheStats, ShardedCache};
use cluster_model::topology::{GlobalRank, TopologySpec};
use numerics::costs::{ring_transfer_s, transfer_s};
use sim_engine::time::SimDuration;
use std::sync::LazyLock;

/// Which algorithm family prices a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Flat ring over the group order.
    Ring,
    /// Node-aware: intra-node phase at NVLink speed, inter-node phase at
    /// NIC speed. Falls back to ring for intra-node groups.
    Hierarchical,
}

/// Collective kind discriminant inside a [`CacheKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    AllGather,
    Broadcast,
}

/// Everything a priced collective depends on besides the group members:
/// topology constants, protocol parameters, and algorithm family.
/// Floats are keyed by bit pattern — the cache must only ever hit on
/// *exactly* the configuration that produced the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ModelSig {
    gpus_per_node: u32,
    nodes_per_leaf: u32,
    num_nodes: u32,
    nvlink_bandwidth: u64,
    nvlink_latency_ns: u64,
    nic_bandwidth: u64,
    net_latency_ns: u64,
    spine_oversubscription: u64,
    launch_overhead_ns: u64,
    bandwidth_efficiency: u64,
    algorithm: Algorithm,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    model: ModelSig,
    op: OpKind,
    group: GroupShape,
    bytes: u64,
}

/// Memoized collective costs, shared by every thread in the process.
/// Originally thread-local (each sweep worker warmed a private table);
/// promoted to a sharded concurrent cache so server connection threads
/// and planner sweeps share one warm table. Pricing is pure per key
/// (the key carries every model input, floats by bit pattern), so
/// cross-thread sharing cannot change a single priced bit.
static COST_CACHE: LazyLock<ShardedCache<CacheKey, SimDuration>> = LazyLock::new(ShardedCache::new);

/// Empties the process-wide collective cost cache.
pub fn clear_cost_cache() {
    COST_CACHE.clear();
}

/// Number of entries in the process-wide collective cost cache.
pub fn cost_cache_len() -> usize {
    COST_CACHE.len()
}

/// Hit/miss counters and entry count of the process-wide collective
/// cost cache.
pub fn cost_cache_stats() -> CacheStats {
    COST_CACHE.stats()
}

/// Prices collectives on a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCostModel {
    topo: TopologySpec,
    /// Fixed software cost to enqueue one collective (CPU + NCCL
    /// bookkeeping), paid once per call.
    pub launch_overhead: SimDuration,
    /// Fraction of the wire bandwidth a well-pipelined collective
    /// sustains (protocol efficiency).
    pub bandwidth_efficiency: f64,
    algorithm: Algorithm,
    caching: bool,
}

impl CommCostModel {
    /// Creates a cost model with production-like defaults: 8 µs launch
    /// overhead, 80 % protocol efficiency, hierarchical algorithms.
    pub fn new(topo: TopologySpec) -> CommCostModel {
        CommCostModel {
            topo,
            launch_overhead: SimDuration::from_micros(8),
            bandwidth_efficiency: 0.8,
            algorithm: Algorithm::Hierarchical,
            caching: true,
        }
    }

    /// Overrides the algorithm family.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> CommCostModel {
        self.algorithm = algorithm;
        self
    }

    /// Enables or disables collective cost memoization (on by default).
    /// Cached and uncached pricing are bit-identical; disabling only
    /// matters for benchmarking the uncached path.
    pub fn with_caching(mut self, caching: bool) -> CommCostModel {
        self.caching = caching;
        self
    }

    fn sig(&self) -> ModelSig {
        ModelSig {
            gpus_per_node: self.topo.gpus_per_node,
            nodes_per_leaf: self.topo.nodes_per_leaf,
            num_nodes: self.topo.num_nodes,
            nvlink_bandwidth: self.topo.nvlink_bandwidth.to_bits(),
            nvlink_latency_ns: self.topo.nvlink_latency.as_nanos(),
            nic_bandwidth: self.topo.nic_bandwidth.to_bits(),
            net_latency_ns: self.topo.net_latency.as_nanos(),
            spine_oversubscription: self.topo.spine_oversubscription.to_bits(),
            launch_overhead_ns: self.launch_overhead.as_nanos(),
            bandwidth_efficiency: self.bandwidth_efficiency.to_bits(),
            algorithm: self.algorithm,
        }
    }

    /// Looks up `(op, group, bytes)` under this model's signature, or
    /// prices it with `compute` and remembers the result.
    fn cached(
        &self,
        op: OpKind,
        group: &ProcessGroup,
        bytes: u64,
        compute: impl FnOnce() -> SimDuration,
    ) -> SimDuration {
        if !self.caching {
            return compute();
        }
        let leaf_ranks = self.topo.gpus_per_node * self.topo.nodes_per_leaf;
        let key = CacheKey {
            model: self.sig(),
            op,
            group: group.shape(leaf_ranks),
            bytes,
        };
        COST_CACHE.get_or_insert_with(key, compute)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &TopologySpec {
        &self.topo
    }

    /// Slowest p2p bandwidth along the group's ring edges, after
    /// protocol efficiency. `None` for singleton groups.
    fn ring_bottleneck(&self, group: &ProcessGroup) -> Option<(f64, SimDuration)> {
        group
            .ring_edges()
            .map(|(a, b)| (self.topo.p2p_bandwidth(a, b), self.topo.p2p_latency(a, b)))
            .fold(None, |acc, (bw, lat)| match acc {
                None => Some((bw, lat)),
                Some((abw, alat)) => Some((abw.min(bw), alat.max(lat))),
            })
            .map(|(bw, lat)| (bw * self.bandwidth_efficiency, lat))
    }

    /// Ring time for a per-step chunk of `chunk_bytes` over `steps`
    /// steps.
    fn ring_time(&self, group: &ProcessGroup, chunk_bytes: f64, steps: u64) -> SimDuration {
        let Some((bw, lat)) = self.ring_bottleneck(group) else {
            return SimDuration::ZERO;
        };
        let per_step = lat + SimDuration::from_secs_f64(transfer_s(chunk_bytes, bw));
        self.launch_overhead + per_step * steps
    }

    /// Splits the group into its node-major structure:
    /// `(ranks_per_node, node_count)` when perfectly rectangular.
    fn rectangular_split(&self, group: &ProcessGroup) -> Option<(u64, u64)> {
        let nodes = group.node_span(&self.topo) as u64;
        let n = group.len() as u64;
        if nodes > 1 && n.is_multiple_of(nodes) {
            Some((n / nodes, nodes))
        } else {
            None
        }
    }

    /// All-gather: every rank contributes `bytes_per_rank` and ends with
    /// `n × bytes_per_rank`.
    pub fn all_gather(&self, group: &ProcessGroup, bytes_per_rank: u64) -> SimDuration {
        let n = group.len() as u64;
        if n <= 1 {
            return SimDuration::ZERO;
        }
        self.cached(OpKind::AllGather, group, bytes_per_rank, || {
            self.all_gather_priced(group, bytes_per_rank)
        })
    }

    fn all_gather_priced(&self, group: &ProcessGroup, bytes_per_rank: u64) -> SimDuration {
        let n = group.len() as u64;
        match (self.algorithm, self.rectangular_split(group)) {
            (Algorithm::Hierarchical, Some((k, m))) if k > 1 => {
                // Phase 1: inter-node ring gathers each node-local shard
                // set across nodes (each rank moves its shard m−1 times
                // over NIC). Phase 2: intra-node all-gather of the now
                // m× larger per-rank data over NVLink.
                let nic = self.topo.nic_bandwidth * self.bandwidth_efficiency;
                let nv = self.topo.nvlink_bandwidth * self.bandwidth_efficiency;
                let inter = SimDuration::from_secs_f64(ring_transfer_s(
                    (m - 1) as f64,
                    bytes_per_rank as f64,
                    nic,
                )) + self.topo.net_latency * (m - 1) * 2;
                let intra = SimDuration::from_secs_f64(ring_transfer_s(
                    (k - 1) as f64,
                    (bytes_per_rank * m) as f64,
                    nv,
                )) + self.topo.nvlink_latency * (k - 1);
                self.launch_overhead + inter + intra
            }
            _ => self.ring_time(group, bytes_per_rank as f64, n - 1),
        }
    }

    /// Reduce-scatter: every rank contributes `n × bytes_per_rank` and
    /// ends with a reduced shard of `bytes_per_rank`. Ring cost is
    /// symmetric with all-gather.
    pub fn reduce_scatter(&self, group: &ProcessGroup, bytes_per_rank: u64) -> SimDuration {
        self.all_gather(group, bytes_per_rank)
    }

    /// All-reduce of `bytes` on every rank (ring reduce-scatter followed
    /// by ring all-gather).
    pub fn all_reduce(&self, group: &ProcessGroup, bytes: u64) -> SimDuration {
        let n = group.len() as u64;
        if n <= 1 {
            return SimDuration::ZERO;
        }
        let shard = bytes.div_ceil(n);
        // Two phases but a single launch.
        self.all_gather(group, shard) + self.reduce_scatter(group, shard) - self.launch_overhead
    }

    /// Broadcast of `bytes` from the group's first rank via a ring
    /// pipeline (cost ≈ one traversal of the slowest edge).
    pub fn broadcast(&self, group: &ProcessGroup, bytes: u64) -> SimDuration {
        let n = group.len() as u64;
        if n <= 1 {
            return SimDuration::ZERO;
        }
        self.cached(OpKind::Broadcast, group, bytes, || {
            let Some((bw, lat)) = self.ring_bottleneck(group) else {
                return SimDuration::ZERO;
            };
            self.launch_overhead
                + lat * (n - 1)
                + SimDuration::from_secs_f64(transfer_s(bytes as f64, bw))
        })
    }

    /// Point-to-point send of `bytes`.
    pub fn p2p(&self, src: GlobalRank, dst: GlobalRank, bytes: u64) -> SimDuration {
        if src == dst {
            return SimDuration::ZERO;
        }
        let bw = self.topo.p2p_bandwidth(src, dst) * self.bandwidth_efficiency;
        self.topo.p2p_latency(src, dst) + SimDuration::from_secs_f64(transfer_s(bytes as f64, bw))
    }

    /// Achieved all-gather *algorithm bandwidth* in bytes/s: output bytes
    /// per rank divided by elapsed time — the metric plotted in Fig 12.
    pub fn achieved_all_gather_bandwidth(&self, group: &ProcessGroup, bytes_per_rank: u64) -> f64 {
        let t = self.all_gather(group, bytes_per_rank);
        if t.is_zero() {
            return 0.0;
        }
        let total = bytes_per_rank * group.len() as u64;
        total as f64 / t.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost cache is process-global now, so tests that assert on
    /// entry counts (or clear the cache) must not interleave with other
    /// tests priced through it. Every pricing test takes this lock.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn model() -> CommCostModel {
        CommCostModel::new(TopologySpec::llama3_production(64))
    }

    #[test]
    fn singleton_collectives_are_free() {
        let m = model();
        let g = ProcessGroup::contiguous(0, 1);
        assert_eq!(m.all_gather(&g, 1 << 30), SimDuration::ZERO);
        assert_eq!(m.all_reduce(&g, 1 << 30), SimDuration::ZERO);
        assert_eq!(m.broadcast(&g, 1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn intra_node_all_gather_near_nvlink_speed() {
        let _serial = serial();
        let m = model();
        let g = ProcessGroup::contiguous(0, 8); // one node
        let bytes = 512u64 << 20;
        let t = m.all_gather(&g, bytes);
        let bw = m.achieved_all_gather_bandwidth(&g, bytes);
        // Ring bus bandwidth approaches nvlink × efficiency × n/(n−1).
        assert!(bw > 300e9, "achieved {bw:.3e} B/s in {t}");
        assert!(bw < 450e9);
    }

    #[test]
    fn cross_node_all_gather_is_nic_bound() {
        let _serial = serial();
        let m = model().with_algorithm(Algorithm::Ring);
        let g = ProcessGroup::strided(0, 4, 8); // 4 nodes, one GPU each
        let bw = m.achieved_all_gather_bandwidth(&g, 256 << 20);
        assert!(bw < 60e9, "achieved {bw:.3e} B/s should be NIC-bound");
    }

    #[test]
    fn hierarchical_beats_flat_ring_on_mixed_groups() {
        let _serial = serial();
        let topo = TopologySpec::llama3_production(64);
        let flat = CommCostModel::new(topo.clone()).with_algorithm(Algorithm::Ring);
        let hier = CommCostModel::new(topo).with_algorithm(Algorithm::Hierarchical);
        // 4 nodes × 8 GPUs = 32 ranks.
        let g = ProcessGroup::contiguous(0, 32);
        let bytes = 64u64 << 20;
        assert!(hier.all_gather(&g, bytes) < flat.all_gather(&g, bytes));
    }

    #[test]
    fn all_reduce_is_roughly_twice_all_gather() {
        let _serial = serial();
        let m = model().with_algorithm(Algorithm::Ring);
        let g = ProcessGroup::contiguous(0, 8);
        let bytes = 256u64 << 20;
        let ar = m.all_reduce(&g, bytes);
        let ag = m.all_gather(&g, bytes / 8);
        let ratio = ar.as_secs_f64() / ag.as_secs_f64();
        assert!((1.5..=2.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn p2p_intra_vs_inter_node() {
        let m = model();
        let intra = m.p2p(GlobalRank(0), GlobalRank(1), 1 << 30);
        let inter = m.p2p(GlobalRank(0), GlobalRank(8), 1 << 30);
        assert!(inter > intra * 5);
        assert_eq!(
            m.p2p(GlobalRank(3), GlobalRank(3), 1 << 30),
            SimDuration::ZERO
        );
    }

    #[test]
    fn all_gather_latency_term_dominates_tiny_messages() {
        let _serial = serial();
        let m = model();
        let g = ProcessGroup::contiguous(0, 8);
        let tiny = m.all_gather(&g, 16);
        // Must still pay launch overhead + per-step latency.
        assert!(tiny >= m.launch_overhead);
    }

    #[test]
    fn broadcast_scales_with_bytes_not_much_with_ranks() {
        let _serial = serial();
        let m = model();
        let g8 = ProcessGroup::contiguous(0, 8);
        let b1 = m.broadcast(&g8, 1 << 20);
        let b2 = m.broadcast(&g8, 1 << 24);
        assert!(b2 > b1);
    }

    #[test]
    fn cached_costs_bit_identical_to_uncached() {
        let _serial = serial();
        // Ring and hierarchical all-gather / reduce-scatter / all-reduce
        // on NVLink-local, leaf-local, and cross-leaf groups: caching
        // must never change a single bit of the priced duration.
        clear_cost_cache();
        let topo = TopologySpec::llama3_production(64);
        let groups = [
            ProcessGroup::contiguous(0, 8),   // one NVLink island
            ProcessGroup::contiguous(0, 32),  // 4 nodes, one leaf
            ProcessGroup::strided(0, 16, 8),  // rank 0 of 16 nodes
            ProcessGroup::strided(3, 4, 128), // cross-leaf stride
            ProcessGroup::new(vec![
                GlobalRank(0),
                GlobalRank(9),
                GlobalRank(2),
                GlobalRank(300),
            ]), // irregular
        ];
        for alg in [Algorithm::Ring, Algorithm::Hierarchical] {
            let cached = CommCostModel::new(topo.clone()).with_algorithm(alg);
            let raw = CommCostModel::new(topo.clone())
                .with_algorithm(alg)
                .with_caching(false);
            for g in &groups {
                for bytes in [1u64, 4 << 10, 64 << 20, 1 << 30] {
                    // Two passes: the second exercises actual cache hits.
                    for pass in 0..2 {
                        assert_eq!(
                            cached.all_gather(g, bytes),
                            raw.all_gather(g, bytes),
                            "all_gather {alg:?} {g} {bytes}B pass{pass}"
                        );
                        assert_eq!(
                            cached.reduce_scatter(g, bytes),
                            raw.reduce_scatter(g, bytes),
                            "reduce_scatter {alg:?} {g} {bytes}B pass{pass}"
                        );
                        assert_eq!(
                            cached.all_reduce(g, bytes),
                            raw.all_reduce(g, bytes),
                            "all_reduce {alg:?} {g} {bytes}B pass{pass}"
                        );
                        assert_eq!(
                            cached.broadcast(g, bytes),
                            raw.broadcast(g, bytes),
                            "broadcast {alg:?} {g} {bytes}B pass{pass}"
                        );
                    }
                }
            }
        }
        assert!(cost_cache_len() > 0, "cache should have been populated");
    }

    #[test]
    fn cache_hits_on_translated_groups() {
        let _serial = serial();
        // Two DP-style groups offset by exactly one leaf (128 ranks on
        // the production topology) share a shape, so the second lookup
        // must not add a cache entry — and must price identically.
        clear_cost_cache();
        let m = model();
        let leaf_ranks = 8 * 16;
        let a = ProcessGroup::strided(5, 8, 8);
        let b = ProcessGroup::strided(5 + leaf_ranks, 8, 8);
        let before = cost_cache_len();
        let ta = m.all_gather(&a, 64 << 20);
        let after_a = cost_cache_len();
        let tb = m.all_gather(&b, 64 << 20);
        let after_b = cost_cache_len();
        assert_eq!(ta, tb);
        assert_eq!(after_a, before + 1);
        assert_eq!(after_b, after_a, "translated group must hit the cache");
        // Different start alignment within the leaf is a different shape.
        let c = ProcessGroup::strided(6, 8, 8);
        m.all_gather(&c, 64 << 20);
        assert_eq!(cost_cache_len(), after_b + 1);
    }

    #[test]
    fn communication_demand_ordering_matches_section_5_2() {
        let _serial = serial();
        // TP (intra-node, per-layer, exposed) must be placed innermost:
        // verify the model prices an intra-node all-gather far cheaper
        // than the same bytes cross-node, which is the quantitative basis
        // of the [TP, CP, PP, DP] ordering.
        let m = model();
        let tp_group = ProcessGroup::contiguous(0, 8);
        let dp_group = ProcessGroup::strided(0, 8, 8);
        let bytes = 32u64 << 20;
        assert!(m.all_gather(&tp_group, bytes) < m.all_gather(&dp_group, bytes));
    }
}
