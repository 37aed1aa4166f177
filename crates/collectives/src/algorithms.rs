//! Step-wise collective algorithms lowered to fluid-network transfers.
//!
//! Where the α–β closed forms in [`crate::cost`] assume a quiet network,
//! these builders emit the individual ring-step transfers so that the
//! max-min-fair fluid simulator can price collectives *under
//! contention* — the §3.1.3 observation that FSDP reduce-scatter
//! traffic congests pipeline P2P, and the §8.2 oversubscription studies.

use crate::group::ProcessGroup;
use cluster_model::topology::FluidTopology;
use sim_engine::fluid::{FluidError, Transfer};
use sim_engine::time::SimTime;

/// One logical flow of a stepped collective: who sends to whom, how many
/// bytes, and which algorithm step it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Sender position in the group.
    pub from_pos: usize,
    /// Receiver position in the group.
    pub to_pos: usize,
    /// Bytes moved by this flow.
    pub bytes: f64,
    /// Ring step index (flows of the same step run concurrently).
    pub step: usize,
}

/// All flows of a ring all-gather on `group` where each rank contributes
/// `bytes_per_rank`: `(n−1)` steps, each rank forwarding one chunk to
/// its ring successor.
pub fn ring_all_gather_flows(group: &ProcessGroup, bytes_per_rank: u64) -> Vec<FlowSpec> {
    let n = group.len();
    let mut flows = Vec::new();
    if n <= 1 {
        return flows;
    }
    for step in 0..n - 1 {
        for from_pos in 0..n {
            flows.push(FlowSpec {
                from_pos,
                to_pos: (from_pos + 1) % n,
                bytes: bytes_per_rank as f64,
                step,
            });
        }
    }
    flows
}

/// All flows of a ring reduce-scatter (same traffic pattern as the ring
/// all-gather, run in reverse; byte counts are identical).
pub fn ring_reduce_scatter_flows(group: &ProcessGroup, bytes_per_rank: u64) -> Vec<FlowSpec> {
    ring_all_gather_flows(group, bytes_per_rank)
}

/// Outcome of running a stepped collective on the fluid network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteppedOutcome {
    /// When the final step's slowest flow finished.
    pub finish: SimTime,
    /// Achieved algorithm bandwidth: output bytes per rank over elapsed
    /// time (bytes/s).
    pub algorithm_bandwidth: f64,
}

/// Runs a stepped collective on the fluid topology, with optional
/// concurrent background transfers sharing the fabric.
///
/// Steps are serialized: step `k+1` starts when every flow of step `k`
/// has completed (a conservative model of ring synchronization).
/// Background transfers all start at `start` and run throughout.
///
/// # Errors
/// Propagates fluid-network errors (unknown or dead links).
pub fn run_stepped(
    ft: &FluidTopology,
    group: &ProcessGroup,
    flows: &[FlowSpec],
    start: SimTime,
    background: &[Transfer],
) -> Result<SteppedOutcome, FluidError> {
    let n = group.len();
    let steps = flows.iter().map(|f| f.step + 1).max().unwrap_or(0);
    let mut now = start;
    let mut total_bytes_per_rank = 0.0;
    // Background traffic is modelled as present for the whole window:
    // re-submitted in every step's sub-simulation (fluid runs are
    // memoryless, so this approximates long-running elephant flows).
    for step in 0..steps {
        let step_flows: Vec<&FlowSpec> = flows.iter().filter(|f| f.step == step).collect();
        let mut transfers: Vec<Transfer> = step_flows
            .iter()
            .map(|f| Transfer {
                route: ft.route(group.ranks()[f.from_pos], group.ranks()[f.to_pos]),
                bytes: f.bytes,
                start: now,
            })
            .collect();
        let fg_count = transfers.len();
        transfers.extend(background.iter().map(|b| Transfer {
            route: b.route.clone(),
            bytes: b.bytes,
            start: now,
        }));
        let outcomes = ft.net.run(transfers)?;
        let step_end = outcomes
            .iter()
            .take(fg_count)
            .map(|o| o.finish)
            .max()
            .unwrap_or(now);
        total_bytes_per_rank += step_flows.iter().map(|f| f.bytes).fold(0.0f64, f64::max);
        now = step_end;
    }
    let elapsed = now.saturating_since(start).as_secs_f64();
    let out_bytes = total_bytes_per_rank + total_bytes_per_rank / (n.max(2) - 1) as f64;
    let algorithm_bandwidth = if elapsed > 0.0 {
        out_bytes / elapsed
    } else {
        0.0
    };
    Ok(SteppedOutcome {
        finish: now,
        algorithm_bandwidth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_model::topology::{GlobalRank, TopologySpec};

    #[test]
    fn all_gather_flow_count() {
        let g = ProcessGroup::contiguous(0, 4);
        let flows = ring_all_gather_flows(&g, 100);
        // (n−1) steps × n flows.
        assert_eq!(flows.len(), 3 * 4);
        assert!(flows.iter().all(|f| f.bytes == 100.0));
        assert_eq!(flows.iter().map(|f| f.step).max(), Some(2));
    }

    #[test]
    fn singleton_has_no_flows() {
        let g = ProcessGroup::contiguous(0, 1);
        assert!(ring_all_gather_flows(&g, 100).is_empty());
    }

    #[test]
    fn stepped_intra_node_all_gather_runs() {
        let topo = TopologySpec::llama3_production(2);
        let ft = topo.build_fluid();
        let g = ProcessGroup::contiguous(0, 4);
        let flows = ring_all_gather_flows(&g, 1 << 26);
        let out = run_stepped(&ft, &g, &flows, SimTime::ZERO, &[]).unwrap();
        assert!(out.finish > SimTime::ZERO);
        assert!(out.algorithm_bandwidth > 0.0);
    }

    #[test]
    fn background_traffic_slows_the_collective() {
        // The §3.1.3 effect: FSDP reduce-scatter crossing the same NICs
        // as pipeline P2P degrades it.
        let topo = TopologySpec::llama3_production(4);
        let ft = topo.build_fluid();
        // Collective across nodes (one GPU per node).
        let g = ProcessGroup::strided(0, 4, 8);
        let flows = ring_all_gather_flows(&g, 1 << 26);
        let quiet = run_stepped(&ft, &g, &flows, SimTime::ZERO, &[]).unwrap();
        // Background elephant flow sharing rank0's NIC.
        let bg = vec![Transfer {
            route: ft.route(GlobalRank(0), GlobalRank(16)),
            bytes: 1e12,
            start: SimTime::ZERO,
        }];
        let congested = run_stepped(&ft, &g, &flows, SimTime::ZERO, &bg).unwrap();
        assert!(congested.finish > quiet.finish);
    }

    #[test]
    fn reduce_scatter_mirrors_all_gather() {
        let g = ProcessGroup::contiguous(0, 8);
        assert_eq!(
            ring_all_gather_flows(&g, 7),
            ring_reduce_scatter_flows(&g, 7)
        );
    }
}
