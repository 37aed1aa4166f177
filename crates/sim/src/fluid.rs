//! Max-min-fair fluid-flow network simulation.
//!
//! Network transfers are modelled as fluid flows over capacitated links.
//! At any instant the rate of each active flow is the max-min fair
//! allocation (progressive filling): links are saturated one bottleneck
//! at a time, each flow receiving an equal share of its tightest link.
//! The simulator advances between *rate-change events* (a transfer
//! starting or finishing), which is exact for piecewise-constant rates.
//!
//! This captures the congestion phenomena the paper describes in §3.1.3
//! and §8.2 — e.g. FSDP reduce-scatter traffic degrading pipeline P2P
//! latency when both cross the same inter-node links — without modelling
//! individual packets.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifies a link in a [`FluidNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Identifies a transfer submitted to a [`FluidNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(pub u32);

/// A transfer request: `bytes` to move along `route` starting at `start`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Links traversed, in order. An empty route completes instantly.
    pub route: Vec<LinkId>,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Earliest start time.
    pub start: SimTime,
}

/// Completion record for one transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// The transfer.
    pub id: TransferId,
    /// When it finished.
    pub finish: SimTime,
    /// Average achieved bandwidth in bytes/second (0 for empty routes or
    /// zero-byte transfers).
    pub avg_bandwidth: f64,
}

/// Errors from fluid simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FluidError {
    /// A transfer referenced a link that does not exist.
    UnknownLink(LinkId),
    /// A link has non-positive capacity but carries traffic.
    DeadLink(LinkId),
}

impl fmt::Display for FluidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FluidError::UnknownLink(l) => write!(f, "unknown {l}"),
            FluidError::DeadLink(l) => write!(f, "{l} has zero capacity but carries traffic"),
        }
    }
}

impl std::error::Error for FluidError {}

/// A capacitated network carrying fluid flows.
///
/// ```
/// use sim_engine::fluid::{FluidNet, Transfer};
/// use sim_engine::time::SimTime;
///
/// let mut net = FluidNet::new();
/// let l = net.add_link(100.0); // 100 B/s
/// // Two flows share the link: each gets 50 B/s.
/// let outcomes = net.run(vec![
///     Transfer { route: vec![l], bytes: 100.0, start: SimTime::ZERO },
///     Transfer { route: vec![l], bytes: 100.0, start: SimTime::ZERO },
/// ])?;
/// assert_eq!(outcomes[0].finish.as_secs_f64(), 2.0);
/// # Ok::<(), sim_engine::fluid::FluidError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FluidNet {
    capacities: Vec<f64>, // bytes per second
}

impl FluidNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        FluidNet::default()
    }

    /// Adds a link with `bytes_per_sec` capacity and returns its id.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        // lint: allow(unwrap) — a u32 id-space overflow is unrecoverable by the caller
        let id = LinkId(u32::try_from(self.capacities.len()).expect("too many links"));
        self.capacities.push(bytes_per_sec);
        id
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.capacities.len()
    }

    /// Overwrites a link's capacity (bytes/second). Used by fault
    /// injection to degrade or restore a link in place.
    ///
    /// # Panics
    /// Panics if the link does not exist.
    pub fn set_capacity(&mut self, link: LinkId, bytes_per_sec: f64) {
        self.capacities[link.0 as usize] = bytes_per_sec;
    }

    /// Multiplies a link's capacity by `factor` — the degraded-link
    /// fault model: a NIC flap or mis-negotiated link runs at a
    /// fraction of nominal bandwidth, and every flow crossing it slows
    /// down under the max-min allocation. A factor of `0.0` kills the
    /// link (transfers routed over it then return
    /// [`FluidError::DeadLink`]).
    ///
    /// # Panics
    /// Panics if the link does not exist or `factor` is negative or
    /// non-finite.
    pub fn scale_capacity(&mut self, link: LinkId, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "capacity scale must be finite and >= 0"
        );
        self.capacities[link.0 as usize] *= factor;
    }

    /// Capacity of a link in bytes/second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacities[link.0 as usize]
    }

    /// Computes the max-min fair rate (bytes/sec) of each flow given each
    /// flow's route. Flows with empty routes get `f64::INFINITY`.
    ///
    /// # Errors
    /// Returns an error for unknown links or zero-capacity links in use.
    pub fn max_min_rates(&self, routes: &[Vec<LinkId>]) -> Result<Vec<f64>, FluidError> {
        for r in routes {
            for &l in r {
                if (l.0 as usize) >= self.capacities.len() {
                    return Err(FluidError::UnknownLink(l));
                }
                if self.capacities[l.0 as usize] <= 0.0 {
                    return Err(FluidError::DeadLink(l));
                }
            }
        }
        let n = routes.len();
        let mut rate = vec![f64::INFINITY; n];
        let mut frozen = vec![false; n];
        let mut residual = self.capacities.clone();
        // Progressive filling: find the most contended link, freeze its
        // flows at the fair share, remove its capacity, repeat.
        loop {
            // Count unfrozen flows per link.
            let mut users = vec![0u32; self.capacities.len()];
            for (i, r) in routes.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                for &l in r {
                    users[l.0 as usize] += 1;
                }
            }
            let bottleneck = users
                .iter()
                .enumerate()
                .filter(|&(_, &u)| u > 0)
                .map(|(l, &u)| (l, residual[l] / u as f64))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let Some((bl, share)) = bottleneck else {
                break; // no link has unfrozen users
            };
            for (i, r) in routes.iter().enumerate() {
                if frozen[i] || !r.contains(&LinkId(bl as u32)) {
                    continue;
                }
                frozen[i] = true;
                rate[i] = share;
                for &l in r {
                    residual[l.0 as usize] -= share;
                    if residual[l.0 as usize] < 0.0 {
                        residual[l.0 as usize] = 0.0;
                    }
                }
            }
        }
        Ok(rate)
    }

    /// Simulates `transfers` to completion and returns one outcome per
    /// transfer (same order).
    ///
    /// # Errors
    /// Returns an error for unknown or zero-capacity links.
    pub fn run(&self, transfers: Vec<Transfer>) -> Result<Vec<TransferOutcome>, FluidError> {
        // Validate up front so errors do not depend on event order.
        for t in &transfers {
            for &l in &t.route {
                if (l.0 as usize) >= self.capacities.len() {
                    return Err(FluidError::UnknownLink(l));
                }
                if self.capacities[l.0 as usize] <= 0.0 {
                    return Err(FluidError::DeadLink(l));
                }
            }
        }
        let n = transfers.len();
        let mut remaining: Vec<f64> = transfers.iter().map(|t| t.bytes.max(0.0)).collect();
        let mut finish: Vec<Option<SimTime>> = vec![None; n];
        let mut now = SimTime::ZERO;

        // Instantly complete empty-route or zero-byte transfers at start.
        for (i, t) in transfers.iter().enumerate() {
            if t.route.is_empty() || remaining[i] == 0.0 {
                finish[i] = Some(t.start);
            }
        }

        // Fast path: when every route is a single link and no link is
        // shared, flows never interact — each runs at full link capacity
        // for its whole lifetime, so the event loop (quadratic in the
        // number of rate-change events) is unnecessary. This covers the
        // common lowering of pipeline P2P traffic: one transfer per
        // dedicated point-to-point link.
        if self.transfers_are_disjoint_single_link(&transfers) {
            for (i, t) in transfers.iter().enumerate() {
                if finish[i].is_some() {
                    continue;
                }
                let rate = self.capacities[t.route[0].0 as usize];
                // Same nanosecond-grid round-up as the event loop.
                let dt_ns = (remaining[i] / rate * 1e9).ceil().max(1.0);
                finish[i] = Some(t.start + SimDuration::from_nanos(dt_ns as u64));
            }
            return Ok(Self::outcomes(&transfers, &finish));
        }

        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&i| finish[i].is_none() && transfers[i].start <= now)
                .collect();
            let pending_starts: Vec<SimTime> = (0..n)
                .filter(|&i| finish[i].is_none() && transfers[i].start > now)
                .map(|i| transfers[i].start)
                .collect();
            if active.is_empty() {
                match pending_starts.iter().min() {
                    Some(&t) => {
                        now = t;
                        continue;
                    }
                    None => break,
                }
            }
            let routes: Vec<Vec<LinkId>> =
                active.iter().map(|&i| transfers[i].route.clone()).collect();
            let rates = self.max_min_rates(&routes)?;
            // Next event: earliest completion among active flows, or the
            // next pending start, whichever comes first.
            let mut next_completion = f64::INFINITY;
            for (k, &i) in active.iter().enumerate() {
                let dt = remaining[i] / rates[k];
                if dt < next_completion {
                    next_completion = dt;
                }
            }
            // Round the completion horizon *up* to the nanosecond grid:
            // rounding down can produce a zero-length step that never
            // finishes the flow (starvation).
            let completion_ns = (next_completion * 1e9).ceil().max(1.0);
            let completion_at = if completion_ns.is_finite() {
                now + SimDuration::from_nanos(completion_ns as u64)
            } else {
                SimTime::MAX
            };
            let next_start = pending_starts.iter().min().copied();
            let horizon = match next_start {
                Some(s) if s < completion_at => s,
                _ => completion_at,
            };
            let dt = horizon.saturating_since(now).as_secs_f64();
            for (k, &i) in active.iter().enumerate() {
                remaining[i] -= rates[k] * dt;
                // Tolerate floating-point residue.
                if remaining[i] <= remaining_epsilon(transfers[i].bytes) {
                    remaining[i] = 0.0;
                    finish[i] = Some(horizon);
                }
            }
            now = horizon;
        }

        Ok(Self::outcomes(&transfers, &finish))
    }

    /// True when every non-instant transfer uses exactly one link and no
    /// link carries more than one transfer — the precondition for the
    /// `run` fast path.
    fn transfers_are_disjoint_single_link(&self, transfers: &[Transfer]) -> bool {
        let mut used = vec![false; self.capacities.len()];
        for t in transfers {
            match t.route.as_slice() {
                [] => {}
                [l] => {
                    let li = l.0 as usize;
                    if used[li] {
                        return false;
                    }
                    used[li] = true;
                }
                _ => return false,
            }
        }
        true
    }

    fn outcomes(transfers: &[Transfer], finish: &[Option<SimTime>]) -> Vec<TransferOutcome> {
        transfers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // lint: allow(unwrap) — the progress loop above terminates only when every transfer finished
                let fin = finish[i].expect("all transfers complete");
                let dt = fin.saturating_since(t.start).as_secs_f64();
                let avg = if dt > 0.0 { t.bytes / dt } else { 0.0 };
                TransferOutcome {
                    id: TransferId(i as u32),
                    finish: fin,
                    avg_bandwidth: avg,
                }
            })
            .collect()
    }
}

fn remaining_epsilon(total: f64) -> f64 {
    (total.abs() * 1e-9).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_full_bandwidth() {
        let mut net = FluidNet::new();
        let l = net.add_link(1000.0);
        let out = net
            .run(vec![Transfer {
                route: vec![l],
                bytes: 500.0,
                start: SimTime::ZERO,
            }])
            .unwrap();
        assert!((out[0].finish.as_secs_f64() - 0.5).abs() < 1e-6);
        assert!((out[0].avg_bandwidth - 1000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FluidNet::new();
        let l = net.add_link(100.0);
        let out = net
            .run(vec![
                Transfer {
                    route: vec![l],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
                Transfer {
                    route: vec![l],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
            ])
            .unwrap();
        assert!((out[0].finish.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((out[1].finish.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let mut net = FluidNet::new();
        let l = net.add_link(100.0);
        let out = net
            .run(vec![
                Transfer {
                    route: vec![l],
                    bytes: 50.0,
                    start: SimTime::ZERO,
                },
                Transfer {
                    route: vec![l],
                    bytes: 150.0,
                    start: SimTime::ZERO,
                },
            ])
            .unwrap();
        // Both run at 50 B/s. Flow 0 finishes at t=1 (50 bytes). Flow 1
        // has 100 bytes left, now alone at 100 B/s: finishes at t=2.
        assert!((out[0].finish.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((out[1].finish.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut net = FluidNet::new();
        let l = net.add_link(100.0);
        let out = net
            .run(vec![
                Transfer {
                    route: vec![l],
                    bytes: 200.0,
                    start: SimTime::ZERO,
                },
                Transfer {
                    route: vec![l],
                    bytes: 100.0,
                    start: SimTime::from_nanos(1_000_000_000),
                },
            ])
            .unwrap();
        // Flow 0 alone for 1s (100 bytes done), then shares: 100 left at
        // 50 B/s -> finishes at t=3. Flow 1: 100 bytes at 50 B/s -> t=3.
        assert!((out[0].finish.as_secs_f64() - 3.0).abs() < 1e-6);
        assert!((out[1].finish.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_respects_multi_link_bottlenecks() {
        let mut net = FluidNet::new();
        let a = net.add_link(100.0);
        let b = net.add_link(30.0);
        // Flow 0 uses a only; flow 1 uses a and b. Flow 1 is bottlenecked
        // at 30 on b; flow 0 then takes the rest of a (70).
        let rates = net.max_min_rates(&[vec![a], vec![a, b]]).unwrap();
        assert!((rates[1] - 30.0).abs() < 1e-9);
        assert!((rates[0] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let mut net = FluidNet::new();
        let a = net.add_link(100.0);
        let b = net.add_link(50.0);
        let rates = net.max_min_rates(&[vec![a], vec![b]]).unwrap();
        assert_eq!(rates, vec![100.0, 50.0]);
    }

    #[test]
    fn empty_route_completes_instantly() {
        let net = FluidNet::new();
        let out = net
            .run(vec![Transfer {
                route: vec![],
                bytes: 1e9,
                start: SimTime::from_nanos(42),
            }])
            .unwrap();
        assert_eq!(out[0].finish, SimTime::from_nanos(42));
    }

    #[test]
    fn unknown_link_is_an_error() {
        let net = FluidNet::new();
        let err = net
            .run(vec![Transfer {
                route: vec![LinkId(3)],
                bytes: 1.0,
                start: SimTime::ZERO,
            }])
            .unwrap_err();
        assert_eq!(err, FluidError::UnknownLink(LinkId(3)));
    }

    #[test]
    fn disjoint_single_link_fast_path_matches_event_loop() {
        // 64 staggered transfers on private links (fast path), plus the
        // same set with one extra flow sharing link 0 (event loop). The
        // shared set's private flows must finish at the same instants.
        let mut net = FluidNet::new();
        let links: Vec<LinkId> = (0..64).map(|i| net.add_link(100.0 + i as f64)).collect();
        let mk = |extra: bool| {
            let mut ts: Vec<Transfer> = links
                .iter()
                .enumerate()
                .map(|(i, &l)| Transfer {
                    route: vec![l],
                    bytes: 50.0 * (i + 1) as f64,
                    start: SimTime::from_nanos(1_000 * i as u64),
                })
                .collect();
            if extra {
                ts.push(Transfer {
                    route: vec![links[0], links[1]],
                    bytes: 0.0,
                    start: SimTime::ZERO,
                });
            }
            ts
        };
        let fast = net.run(mk(false)).unwrap();
        let slow = net.run(mk(true)).unwrap();
        for i in 0..64 {
            let d = (fast[i].finish.as_secs_f64() - slow[i].finish.as_secs_f64()).abs();
            assert!(d < 1e-6, "transfer {i} differs by {d}s");
        }
    }

    #[test]
    fn degraded_link_slows_crossing_flows() {
        // The §8.2 degraded-link scenario: scaling one link's capacity
        // to 25 % stretches a transfer crossing it 4×, while a flow on
        // a healthy link is unaffected.
        let mut net = FluidNet::new();
        let bad = net.add_link(100.0);
        let good = net.add_link(100.0);
        net.scale_capacity(bad, 0.25);
        assert!((net.capacity(bad) - 25.0).abs() < 1e-9);
        let out = net
            .run(vec![
                Transfer {
                    route: vec![bad],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
                Transfer {
                    route: vec![good],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
            ])
            .unwrap();
        assert!((out[0].finish.as_secs_f64() - 4.0).abs() < 1e-6);
        assert!((out[1].finish.as_secs_f64() - 1.0).abs() < 1e-6);
        // Restoring the capacity restores the rate.
        net.set_capacity(bad, 100.0);
        assert!((net.capacity(bad) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fully_failed_link_is_dead() {
        let mut net = FluidNet::new();
        let l = net.add_link(100.0);
        net.scale_capacity(l, 0.0);
        let err = net
            .run(vec![Transfer {
                route: vec![l],
                bytes: 1.0,
                start: SimTime::ZERO,
            }])
            .unwrap_err();
        assert_eq!(err, FluidError::DeadLink(l));
    }

    #[test]
    fn oversubscription_halves_effective_bandwidth() {
        // Two node-local flows funnel into one uplink at half the summed
        // capacity — the §8.2 oversubscribed-spine scenario.
        let mut net = FluidNet::new();
        let leaf0 = net.add_link(100.0);
        let leaf1 = net.add_link(100.0);
        let spine = net.add_link(100.0); // 2:1 oversubscribed
        let out = net
            .run(vec![
                Transfer {
                    route: vec![leaf0, spine],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
                Transfer {
                    route: vec![leaf1, spine],
                    bytes: 100.0,
                    start: SimTime::ZERO,
                },
            ])
            .unwrap();
        assert!((out[0].finish.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((out[0].avg_bandwidth - 50.0).abs() < 1e-3);
    }
}
