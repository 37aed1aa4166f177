//! Hierarchical cluster network topology.
//!
//! Models the training fabric the paper describes in §5.1–§5.2 and §8.2:
//! an NVLink island inside each 8-GPU node, a per-GPU RoCE NIC into a
//! leaf (rack) switch, and leaf↔spine uplinks that may be
//! oversubscribed. The topology answers two questions:
//!
//! * the *class* of the path between two ranks (NVLink vs one or more
//!   network hops) — consumed by the α–β collective cost models, and
//! * the concrete *link route* between two ranks — consumed by the
//!   fluid-flow congestion simulator.

use crate::faults::ClusterHealth;
use crate::gpu::GpuSpec;
use sim_engine::error::SimError;
use sim_engine::fluid::{FluidNet, LinkId};
use sim_engine::time::SimDuration;
use std::fmt;

/// A global GPU rank in the cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalRank(pub u32);

impl fmt::Display for GlobalRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// The locality class of a rank-to-rank path, in increasing distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathClass {
    /// Same GPU (no communication).
    Local,
    /// Same node: NVLink.
    IntraNode,
    /// Different node, same leaf switch: NIC → leaf → NIC.
    IntraLeaf,
    /// Different leaf: NIC → leaf → spine → leaf → NIC.
    CrossLeaf,
}

/// Cluster network description.
///
/// Bandwidths are bytes/second *per direction*; latencies are one-way.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// GPUs per node (8 on Grand Teton, §7.3).
    pub gpus_per_node: u32,
    /// Nodes per leaf (rack) switch.
    pub nodes_per_leaf: u32,
    /// Total number of nodes.
    pub num_nodes: u32,
    /// Per-GPU NVLink bandwidth within the node.
    pub nvlink_bandwidth: f64,
    /// NVLink hop latency.
    pub nvlink_latency: SimDuration,
    /// Per-GPU NIC bandwidth (RoCE). The paper's cluster provides
    /// 50 GB/s per GPU (§5.1).
    pub nic_bandwidth: f64,
    /// One network hop latency (NIC/switch traversal).
    pub net_latency: SimDuration,
    /// Leaf→spine oversubscription factor: 1.0 means full bisection;
    /// 2.0 means the uplinks carry half the leaf's ingress (§8.2).
    pub spine_oversubscription: f64,
}

impl TopologySpec {
    /// The Llama 3 production-like cluster: 8×H100 nodes, NVLink inside
    /// the node, 50 GB/s RoCE per GPU, full-bisection spine.
    pub fn llama3_production(num_nodes: u32) -> TopologySpec {
        TopologySpec {
            gpus_per_node: 8,
            nodes_per_leaf: 16,
            num_nodes,
            nvlink_bandwidth: 450e9,
            nvlink_latency: SimDuration::from_nanos(700),
            nic_bandwidth: 50e9,
            net_latency: SimDuration::from_micros(4),
            spine_oversubscription: 1.0,
        }
    }

    /// Same fabric with an oversubscribed spine (for §8.2 studies).
    pub fn with_oversubscription(mut self, factor: f64) -> TopologySpec {
        self.spine_oversubscription = factor;
        self
    }

    /// Total GPU count.
    pub fn num_gpus(&self) -> u32 {
        self.gpus_per_node * self.num_nodes
    }

    /// Node index of a rank.
    ///
    /// # Panics
    /// Panics if the rank is out of range.
    pub fn node_of(&self, r: GlobalRank) -> u32 {
        assert!(r.0 < self.num_gpus(), "{r} outside cluster");
        r.0 / self.gpus_per_node
    }

    /// GPU index within its node.
    pub fn local_of(&self, r: GlobalRank) -> u32 {
        assert!(r.0 < self.num_gpus(), "{r} outside cluster");
        r.0 % self.gpus_per_node
    }

    /// Leaf-switch index of a rank.
    pub fn leaf_of(&self, r: GlobalRank) -> u32 {
        self.node_of(r) / self.nodes_per_leaf
    }

    /// Classifies the path between two ranks.
    pub fn path_class(&self, a: GlobalRank, b: GlobalRank) -> PathClass {
        if a == b {
            PathClass::Local
        } else if self.node_of(a) == self.node_of(b) {
            PathClass::IntraNode
        } else if self.leaf_of(a) == self.leaf_of(b) {
            PathClass::IntraLeaf
        } else {
            PathClass::CrossLeaf
        }
    }

    /// Point-to-point bandwidth (bytes/s) between two ranks, ignoring
    /// contention.
    pub fn p2p_bandwidth(&self, a: GlobalRank, b: GlobalRank) -> f64 {
        match self.path_class(a, b) {
            PathClass::Local => f64::INFINITY,
            PathClass::IntraNode => self.nvlink_bandwidth,
            PathClass::IntraLeaf | PathClass::CrossLeaf => self.nic_bandwidth,
        }
    }

    /// Point-to-point one-way latency between two ranks.
    pub fn p2p_latency(&self, a: GlobalRank, b: GlobalRank) -> SimDuration {
        match self.path_class(a, b) {
            PathClass::Local => SimDuration::ZERO,
            PathClass::IntraNode => self.nvlink_latency,
            PathClass::IntraLeaf => self.net_latency * 2,
            PathClass::CrossLeaf => self.net_latency * 4,
        }
    }

    /// Time for a contention-free point-to-point transfer of `bytes`.
    pub fn p2p_time(&self, a: GlobalRank, b: GlobalRank, bytes: f64) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        self.p2p_latency(a, b) + SimDuration::from_secs_f64(bytes / self.p2p_bandwidth(a, b))
    }

    /// Builds a fluid-flow network mirroring this topology, together
    /// with the routing function from rank pairs to link routes.
    pub fn build_fluid(&self) -> FluidTopology {
        let mut net = FluidNet::new();
        let ngpu = self.num_gpus() as usize;
        let nnodes = self.num_nodes as usize;
        let nleaves = self.num_leaves() as usize;
        // Per-GPU NVLink port (up and down combined into one directed
        // abstraction per GPU; the zig-zag detail is below link level).
        let nv: Vec<LinkId> = (0..ngpu)
            .map(|_| net.add_link(self.nvlink_bandwidth))
            .collect();
        // Per-GPU NIC up and down.
        let nic_up: Vec<LinkId> = (0..ngpu)
            .map(|_| net.add_link(self.nic_bandwidth))
            .collect();
        let nic_down: Vec<LinkId> = (0..ngpu)
            .map(|_| net.add_link(self.nic_bandwidth))
            .collect();
        // Per-node leaf port: aggregates the node's GPUs into the leaf.
        let node_up: Vec<LinkId> = (0..nnodes)
            .map(|_| net.add_link(self.nic_bandwidth * self.gpus_per_node as f64))
            .collect();
        let node_down: Vec<LinkId> = (0..nnodes)
            .map(|_| net.add_link(self.nic_bandwidth * self.gpus_per_node as f64))
            .collect();
        // Leaf↔spine uplinks, possibly oversubscribed.
        let leaf_capacity =
            self.nic_bandwidth * self.gpus_per_node as f64 * self.nodes_per_leaf as f64
                / self.spine_oversubscription;
        let spine_up: Vec<LinkId> = (0..nleaves).map(|_| net.add_link(leaf_capacity)).collect();
        let spine_down: Vec<LinkId> = (0..nleaves).map(|_| net.add_link(leaf_capacity)).collect();
        FluidTopology {
            spec: self.clone(),
            net,
            nv,
            nic_up,
            nic_down,
            node_up,
            node_down,
            spine_up,
            spine_down,
        }
    }

    /// Number of leaf switches.
    pub fn num_leaves(&self) -> u32 {
        self.num_nodes.div_ceil(self.nodes_per_leaf)
    }
}

/// A [`TopologySpec`] lowered to fluid-network links.
#[derive(Debug, Clone)]
pub struct FluidTopology {
    /// The source spec.
    pub spec: TopologySpec,
    /// The link network (pass to [`FluidNet::run`]).
    pub net: FluidNet,
    nv: Vec<LinkId>,
    nic_up: Vec<LinkId>,
    nic_down: Vec<LinkId>,
    node_up: Vec<LinkId>,
    node_down: Vec<LinkId>,
    spine_up: Vec<LinkId>,
    spine_down: Vec<LinkId>,
}

impl FluidTopology {
    /// Applies a [`ClusterHealth`] snapshot's link degradations: every
    /// degraded node's NIC and leaf-port links are scaled to the
    /// event's capacity fraction (§8.2 — a flapped or mis-negotiated
    /// link slows every ring crossing it). Scaling is multiplicative
    /// against current capacities, so apply it to a freshly built
    /// topology; thermal throttles do not touch the network and are
    /// ignored here.
    pub fn apply_health(&mut self, health: &ClusterHealth) {
        for &(node, scale) in &health.degraded_nodes {
            let node = node as usize;
            if node >= self.node_up.len() {
                continue; // outside this fabric; nothing to degrade
            }
            self.net.scale_capacity(self.node_up[node], scale);
            self.net.scale_capacity(self.node_down[node], scale);
            let g0 = node * self.spec.gpus_per_node as usize;
            for g in g0..(g0 + self.spec.gpus_per_node as usize).min(self.nic_up.len()) {
                self.net.scale_capacity(self.nic_up[g], scale);
                self.net.scale_capacity(self.nic_down[g], scale);
            }
        }
    }

    /// The link route from rank `a` to rank `b`.
    pub fn route(&self, a: GlobalRank, b: GlobalRank) -> Vec<LinkId> {
        match self.spec.path_class(a, b) {
            PathClass::Local => vec![],
            PathClass::IntraNode => vec![self.nv[a.0 as usize], self.nv[b.0 as usize]],
            PathClass::IntraLeaf => vec![
                self.nic_up[a.0 as usize],
                self.node_up[self.spec.node_of(a) as usize],
                self.node_down[self.spec.node_of(b) as usize],
                self.nic_down[b.0 as usize],
            ],
            PathClass::CrossLeaf => vec![
                self.nic_up[a.0 as usize],
                self.node_up[self.spec.node_of(a) as usize],
                self.spine_up[self.spec.leaf_of(a) as usize],
                self.spine_down[self.spec.leaf_of(b) as usize],
                self.node_down[self.spec.node_of(b) as usize],
                self.nic_down[b.0 as usize],
            ],
        }
    }
}

/// A complete cluster: GPU model plus fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Accelerator model (identical across the cluster).
    pub gpu: GpuSpec,
    /// Network fabric.
    pub topology: TopologySpec,
}

impl Cluster {
    /// The Llama 3 production cluster shape: H100-HBM3 nodes of 8 with
    /// `num_gpus` total GPUs (must be a multiple of 8).
    ///
    /// # Panics
    /// Panics if `num_gpus` is not a positive multiple of 8.
    pub fn llama3(num_gpus: u32) -> Cluster {
        // lint: allow(unwrap) — the panic is this constructor's documented contract
        Cluster::try_llama3(num_gpus).expect("need a multiple of 8 GPUs")
    }

    /// Fallible form of [`Cluster::llama3`]: returns an error instead
    /// of panicking when `num_gpus` is not a positive multiple of 8.
    pub fn try_llama3(num_gpus: u32) -> Result<Cluster, SimError> {
        if num_gpus == 0 || !num_gpus.is_multiple_of(8) {
            return Err(SimError::InvalidShape(format!(
                "cluster size must be a positive multiple of 8, got {num_gpus}"
            )));
        }
        Ok(Cluster {
            gpu: GpuSpec::h100_sxm_hbm3(),
            topology: TopologySpec::llama3_production(num_gpus / 8),
        })
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> u32 {
        self.topology.num_gpus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TopologySpec {
        TopologySpec::llama3_production(32) // 256 GPUs, 2 leaves
    }

    #[test]
    fn rank_geometry() {
        let t = spec();
        assert_eq!(t.num_gpus(), 256);
        assert_eq!(t.node_of(GlobalRank(0)), 0);
        assert_eq!(t.node_of(GlobalRank(8)), 1);
        assert_eq!(t.local_of(GlobalRank(13)), 5);
        assert_eq!(t.leaf_of(GlobalRank(0)), 0);
        assert_eq!(t.leaf_of(GlobalRank(16 * 8)), 1);
    }

    #[test]
    fn path_classes() {
        let t = spec();
        assert_eq!(t.path_class(GlobalRank(3), GlobalRank(3)), PathClass::Local);
        assert_eq!(
            t.path_class(GlobalRank(0), GlobalRank(7)),
            PathClass::IntraNode
        );
        assert_eq!(
            t.path_class(GlobalRank(0), GlobalRank(8)),
            PathClass::IntraLeaf
        );
        assert_eq!(
            t.path_class(GlobalRank(0), GlobalRank(255)),
            PathClass::CrossLeaf
        );
    }

    #[test]
    fn nvlink_much_faster_than_nic() {
        let t = spec();
        let intra = t.p2p_time(GlobalRank(0), GlobalRank(1), 1e9);
        let inter = t.p2p_time(GlobalRank(0), GlobalRank(8), 1e9);
        assert!(inter.as_secs_f64() / intra.as_secs_f64() > 5.0);
    }

    #[test]
    fn routes_have_expected_hop_counts() {
        let ft = spec().build_fluid();
        assert!(ft.route(GlobalRank(2), GlobalRank(2)).is_empty());
        assert_eq!(ft.route(GlobalRank(0), GlobalRank(1)).len(), 2);
        assert_eq!(ft.route(GlobalRank(0), GlobalRank(8)).len(), 4);
        assert_eq!(ft.route(GlobalRank(0), GlobalRank(255)).len(), 6);
    }

    #[test]
    fn oversubscription_reduces_spine_capacity() {
        let full = spec().build_fluid();
        let over = spec().with_oversubscription(4.0).build_fluid();
        let full_spine = full.route(GlobalRank(0), GlobalRank(255))[2];
        let over_spine = over.route(GlobalRank(0), GlobalRank(255))[2];
        assert!((full.net.capacity(full_spine) / over.net.capacity(over_spine) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn p2p_zero_bytes_costs_latency_only() {
        let t = spec();
        assert_eq!(
            t.p2p_time(GlobalRank(0), GlobalRank(1), 0.0),
            t.nvlink_latency
        );
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn out_of_range_rank_panics() {
        spec().node_of(GlobalRank(256));
    }

    #[test]
    fn cluster_constructor_validates() {
        let c = Cluster::llama3(16384);
        assert_eq!(c.num_gpus(), 16384);
        assert_eq!(c.topology.num_leaves(), 128);
        assert!(Cluster::try_llama3(12).is_err());
        assert!(Cluster::try_llama3(0).is_err());
        assert_eq!(Cluster::try_llama3(16384).unwrap(), c);
    }

    #[test]
    fn apply_health_degrades_node_links() {
        use crate::faults::ClusterHealth;
        let mut ft = spec().build_fluid();
        let healthy = spec().build_fluid();
        ft.apply_health(&ClusterHealth::healthy().degrade_node(1, 0.25));
        // Node 1's links (ranks 8..16) run at a quarter capacity.
        let route = ft.route(GlobalRank(0), GlobalRank(8));
        let base = healthy.route(GlobalRank(0), GlobalRank(8));
        // nic_up of rank 0 is untouched; node_down/nic_down of node 1 scaled.
        assert_eq!(ft.net.capacity(route[0]), healthy.net.capacity(base[0]));
        assert!((ft.net.capacity(route[2]) / healthy.net.capacity(base[2]) - 0.25).abs() < 1e-12);
        assert!((ft.net.capacity(route[3]) / healthy.net.capacity(base[3]) - 0.25).abs() < 1e-12);
        // Out-of-range nodes are ignored rather than panicking.
        ft.apply_health(&ClusterHealth::healthy().degrade_node(10_000, 0.5));
    }
}
