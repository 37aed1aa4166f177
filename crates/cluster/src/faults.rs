//! Deterministic fault timelines for resilience simulation.
//!
//! The paper's headline numbers come from multi-week runs on 16 K GPUs
//! where failures, stragglers and restarts — not steady-state step time
//! — determine delivered throughput. This module models the four fault
//! classes such runs observe:
//!
//! * **GPU fail-stop** — a GPU (HBM, SRAM, driver) dies; the job
//!   aborts and must restart from the last checkpoint.
//! * **Node loss** — a whole host drops (power, kernel, fabric side);
//!   also fatal to the job.
//! * **Link degradation** — a NIC flap or mis-negotiated link runs at
//!   a fraction of nominal bandwidth for a while; the job keeps
//!   running but every flow crossing the link slows down (§8.2).
//! * **Thermal throttle** — a GPU clocks down for a window; through
//!   the fine-grained synchronization of TP/CP/PP the whole cluster
//!   runs at the throttled rank's speed (§8.1).
//!
//! Rates are expressed **per GPU-hour** so a timeline scales with
//! cluster size: doubling the cluster doubles the expected event count
//! at fixed rates, which is exactly what production fleets observe.
//! Generation is a seeded Poisson process per fault class — the same
//! seed reproduces the identical timeline byte for byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_engine::error::SimError;

/// One fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A single GPU fails permanently (fatal to the job).
    GpuFailStop,
    /// A whole node drops out (fatal to the job).
    NodeLoss,
    /// A node's network link runs degraded for a window (non-fatal).
    LinkDegrade,
    /// A GPU runs thermally throttled for a window (non-fatal).
    ThermalThrottle,
}

impl FaultKind {
    /// `true` for fault classes that abort the job (restart required),
    /// `false` for ones the job survives in a degraded state.
    pub fn is_fatal(self) -> bool {
        matches!(self, FaultKind::GpuFailStop | FaultKind::NodeLoss)
    }

    /// All fault classes, in generation order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::GpuFailStop,
        FaultKind::NodeLoss,
        FaultKind::LinkDegrade,
        FaultKind::ThermalThrottle,
    ];
}

/// What a fault event affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultScope {
    /// A single global GPU rank.
    Gpu(u32),
    /// A node index (all its GPUs / its uplink).
    Node(u32),
}

/// One event on a fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Fault class.
    pub kind: FaultKind,
    /// Affected hardware.
    pub scope: FaultScope,
    /// Event start, seconds from run start.
    pub start_s: f64,
    /// Duration in seconds. Fatal events use `f64::INFINITY` — the
    /// hardware does not come back on its own; the run-level restart
    /// policy (spare swap-in) is what recovers.
    pub duration_s: f64,
    /// Class-specific severity: thermal-throttle slowdown multiplier
    /// (≥ 1), link-degrade capacity scale in `(0, 1]`, `0.0` for fatal
    /// events.
    pub severity: f64,
}

impl FaultEvent {
    /// `true` if the event is active at time `t` (fatal events are
    /// active from their start onward).
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.start_s && t < self.start_s + self.duration_s
    }

    /// End time (`INFINITY` for fatal events).
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// Per-GPU-hour fault rates plus transient-event shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// GPU fail-stop events per GPU-hour.
    pub gpu_fail_per_gpu_hour: f64,
    /// Node losses per GPU-hour (scoped to whole nodes, but rated per
    /// GPU-hour like everything else so it scales with cluster size).
    pub node_loss_per_gpu_hour: f64,
    /// Link-degradation windows per GPU-hour.
    pub link_degrade_per_gpu_hour: f64,
    /// Thermal-throttle windows per GPU-hour.
    pub thermal_per_gpu_hour: f64,
    /// Mean link-degradation window length, seconds (exponential).
    pub link_degrade_mean_s: f64,
    /// Capacity scale of a degraded link, in `(0, 1]`.
    pub link_degrade_capacity_scale: f64,
    /// Mean thermal-throttle window length, seconds (exponential).
    pub thermal_mean_s: f64,
    /// Worst-case throttle slowdown multiplier (events draw uniformly
    /// from `[1, max]`).
    pub thermal_max_slowdown: f64,
}

impl FaultRates {
    /// Paper-plausible production rates. The Llama 3 report counts 466
    /// job interruptions across a 54-day 16K-GPU snapshot (≈ 78 %
    /// hardware), which works out to ≈ 2·10⁻⁵ interruptions per
    /// GPU-hour; thermal and link events are non-fatal and somewhat
    /// more frequent.
    pub fn llama3_production() -> FaultRates {
        FaultRates {
            gpu_fail_per_gpu_hour: 1.6e-5,
            node_loss_per_gpu_hour: 3.0e-6,
            link_degrade_per_gpu_hour: 1.0e-5,
            thermal_per_gpu_hour: 2.0e-5,
            link_degrade_mean_s: 900.0,
            link_degrade_capacity_scale: 0.35,
            thermal_mean_s: 600.0,
            thermal_max_slowdown: 1.25,
        }
    }

    /// A fault-free timeline (all rates zero).
    pub fn none() -> FaultRates {
        FaultRates {
            gpu_fail_per_gpu_hour: 0.0,
            node_loss_per_gpu_hour: 0.0,
            link_degrade_per_gpu_hour: 0.0,
            thermal_per_gpu_hour: 0.0,
            link_degrade_mean_s: 1.0,
            link_degrade_capacity_scale: 1.0,
            thermal_mean_s: 1.0,
            thermal_max_slowdown: 1.0,
        }
    }

    /// Total fatal-event rate per GPU-hour.
    pub fn fatal_per_gpu_hour(&self) -> f64 {
        self.gpu_fail_per_gpu_hour + self.node_loss_per_gpu_hour
    }

    fn rate_of(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::GpuFailStop => self.gpu_fail_per_gpu_hour,
            FaultKind::NodeLoss => self.node_loss_per_gpu_hour,
            FaultKind::LinkDegrade => self.link_degrade_per_gpu_hour,
            FaultKind::ThermalThrottle => self.thermal_per_gpu_hour,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        let rates = [
            self.gpu_fail_per_gpu_hour,
            self.node_loss_per_gpu_hour,
            self.link_degrade_per_gpu_hour,
            self.thermal_per_gpu_hour,
        ];
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(SimError::InvalidValue(
                "fault rates must be finite and >= 0".into(),
            ));
        }
        if !(self.link_degrade_capacity_scale > 0.0 && self.link_degrade_capacity_scale <= 1.0) {
            return Err(SimError::InvalidValue(
                "link_degrade_capacity_scale must be in (0, 1]".into(),
            ));
        }
        if !(self.thermal_max_slowdown >= 1.0 && self.thermal_max_slowdown.is_finite()) {
            return Err(SimError::InvalidValue(
                "thermal_max_slowdown must be >= 1".into(),
            ));
        }
        if self.link_degrade_mean_s <= 0.0 || self.thermal_mean_s <= 0.0 {
            return Err(SimError::InvalidValue(
                "mean fault durations must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// A point-in-time degraded-but-operational cluster state, derived from
/// the transient events of a [`FaultTimeline`] (or built by hand for
/// targeted injection). Fatal events are *not* part of a health
/// snapshot — a cluster with a dead GPU is not running a step at all;
/// the run simulator models that as downtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterHealth {
    /// `(global rank, slowdown multiplier ≥ 1)`, sorted by rank. A
    /// throttled rank's compute runs `multiplier×` slower.
    pub throttled: Vec<(u32, f64)>,
    /// `(node index, capacity scale in (0, 1])`, sorted by node. A
    /// degraded node's network links run at `scale×` nominal bandwidth.
    pub degraded_nodes: Vec<(u32, f64)>,
}

impl ClusterHealth {
    /// A fully healthy cluster.
    pub fn healthy() -> ClusterHealth {
        ClusterHealth::default()
    }

    /// `true` when nothing is throttled or degraded.
    pub fn is_healthy(&self) -> bool {
        self.throttled.is_empty() && self.degraded_nodes.is_empty()
    }

    /// Adds (or worsens) a thermal throttle on `rank`.
    pub fn throttle(mut self, rank: u32, multiplier: f64) -> ClusterHealth {
        match self.throttled.binary_search_by_key(&rank, |e| e.0) {
            Ok(i) => self.throttled[i].1 = self.throttled[i].1.max(multiplier),
            Err(i) => self.throttled.insert(i, (rank, multiplier)),
        }
        self
    }

    /// Adds (or worsens) a link degradation on `node`.
    pub fn degrade_node(mut self, node: u32, scale: f64) -> ClusterHealth {
        match self.degraded_nodes.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => self.degraded_nodes[i].1 = self.degraded_nodes[i].1.min(scale),
            Err(i) => self.degraded_nodes.insert(i, (node, scale)),
        }
        self
    }

    /// The compute-duration multiplier of `rank` (1.0 if unthrottled).
    pub fn compute_multiplier(&self, rank: u32) -> f64 {
        match self.throttled.binary_search_by_key(&rank, |e| e.0) {
            Ok(i) => self.throttled[i].1,
            Err(_) => 1.0,
        }
    }

    /// The worst throttle multiplier anywhere in the cluster (1.0 when
    /// healthy). Because every parallelism dimension synchronizes
    /// within a step, this is the factor the whole cluster runs at
    /// (§8.1).
    pub fn worst_compute_multiplier(&self) -> f64 {
        self.throttled.iter().map(|e| e.1).fold(1.0, f64::max)
    }

    /// The worst link-capacity scale anywhere in the cluster (1.0 when
    /// healthy). One degraded link gates every ring that crosses it
    /// (§8.2).
    pub fn worst_link_scale(&self) -> f64 {
        self.degraded_nodes.iter().map(|e| e.1).fold(1.0, f64::min)
    }
}

/// A deterministic, seeded schedule of fault events over a time
/// horizon.
///
/// ```
/// use cluster_model::faults::{FaultRates, FaultTimeline};
/// let tl = FaultTimeline::generate(
///     FaultRates::llama3_production(), 16_384, 8, 24.0 * 3600.0, 7,
/// ).unwrap();
/// let again = FaultTimeline::generate(
///     FaultRates::llama3_production(), 16_384, 8, 24.0 * 3600.0, 7,
/// ).unwrap();
/// assert_eq!(tl.events(), again.events()); // same seed, same timeline
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
    rates: FaultRates,
    num_gpus: u32,
    gpus_per_node: u32,
    horizon_s: f64,
    seed: u64,
}

impl FaultTimeline {
    /// Generates a timeline: one Poisson arrival process per fault
    /// class, cluster-wide rate = per-GPU-hour rate × GPU count, with
    /// scopes, durations and severities drawn from the same seeded
    /// stream. Events are sorted by start time.
    ///
    /// # Errors
    /// Returns [`SimError::InvalidValue`]/[`SimError::InvalidShape`]
    /// for negative or non-finite rates, a non-positive horizon, or a
    /// zero-GPU cluster.
    pub fn generate(
        rates: FaultRates,
        num_gpus: u32,
        gpus_per_node: u32,
        horizon_s: f64,
        seed: u64,
    ) -> Result<FaultTimeline, SimError> {
        rates.validate()?;
        if num_gpus == 0 || gpus_per_node == 0 {
            return Err(SimError::InvalidShape(
                "cluster must have GPUs and a positive node size".into(),
            ));
        }
        if !(horizon_s > 0.0 && horizon_s.is_finite()) {
            return Err(SimError::InvalidValue("horizon must be positive".into()));
        }
        let num_nodes = num_gpus.div_ceil(gpus_per_node);
        let mut events = Vec::new();
        for (ki, kind) in FaultKind::ALL.iter().enumerate() {
            let per_sec = rates.rate_of(*kind) * num_gpus as f64 / 3600.0;
            if per_sec <= 0.0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(mix(seed, ki as u64));
            let mut t = 0.0f64;
            loop {
                t += exp_draw(&mut rng, 1.0 / per_sec);
                if t >= horizon_s {
                    break;
                }
                let (scope, duration_s, severity) = match kind {
                    FaultKind::GpuFailStop => (
                        FaultScope::Gpu(rng.gen_range(0..num_gpus)),
                        f64::INFINITY,
                        0.0,
                    ),
                    FaultKind::NodeLoss => (
                        FaultScope::Node(rng.gen_range(0..num_nodes)),
                        f64::INFINITY,
                        0.0,
                    ),
                    FaultKind::LinkDegrade => (
                        FaultScope::Node(rng.gen_range(0..num_nodes)),
                        exp_draw(&mut rng, rates.link_degrade_mean_s),
                        rates.link_degrade_capacity_scale,
                    ),
                    FaultKind::ThermalThrottle => (
                        FaultScope::Gpu(rng.gen_range(0..num_gpus)),
                        exp_draw(&mut rng, rates.thermal_mean_s),
                        1.0 + rng.gen::<f64>() * (rates.thermal_max_slowdown - 1.0),
                    ),
                };
                events.push(FaultEvent {
                    kind: *kind,
                    scope,
                    start_s: t,
                    duration_s,
                    severity,
                });
            }
        }
        events.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        Ok(FaultTimeline {
            events,
            rates,
            num_gpus,
            gpus_per_node,
            horizon_s,
            seed,
        })
    }

    /// All events, sorted by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The fatal (job-aborting) events, in time order.
    pub fn fatal_events(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(|e| e.kind.is_fatal())
    }

    /// The time horizon in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// GPU count the timeline was generated for.
    pub fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    /// The generating rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// The generating seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expected mean time between *fatal* events for this cluster size,
    /// from the rates (`INFINITY` for a fault-free configuration) —
    /// the MTBF term of the Young/Daly optimal-checkpoint-interval
    /// approximation.
    pub fn mtbf_s(&self) -> f64 {
        let per_hour = self.rates.fatal_per_gpu_hour() * self.num_gpus as f64;
        if per_hour <= 0.0 {
            f64::INFINITY
        } else {
            3600.0 / per_hour
        }
    }

    /// The degraded-but-operational cluster state at time `t`: all
    /// transient (non-fatal) events active at `t`, folded into one
    /// [`ClusterHealth`] snapshot.
    pub fn health_at(&self, t: f64) -> ClusterHealth {
        let mut health = ClusterHealth::healthy();
        for e in &self.events {
            if e.kind.is_fatal() || !e.active_at(t) {
                continue;
            }
            health = match (e.kind, e.scope) {
                (FaultKind::ThermalThrottle, FaultScope::Gpu(r)) => health.throttle(r, e.severity),
                (FaultKind::LinkDegrade, FaultScope::Node(n)) => health.degrade_node(n, e.severity),
                _ => health,
            };
        }
        health
    }

    /// Transition instants of transient events strictly inside
    /// `(t0, t1)` — the times where [`FaultTimeline::health_at`]
    /// changes — sorted and deduplicated. Walking segments between
    /// these boundaries makes piecewise-constant degraded-throughput
    /// integration exact.
    pub fn transient_boundaries(&self, t0: f64, t1: f64) -> Vec<f64> {
        let mut ts: Vec<f64> = self
            .events
            .iter()
            .filter(|e| !e.kind.is_fatal())
            .flat_map(|e| [e.start_s, e.end_s()])
            .filter(|&t| t > t0 && t < t1 && t.is_finite())
            .collect();
        ts.sort_by(f64::total_cmp);
        ts.dedup();
        ts
    }
}

/// Exponential draw with the given mean (inverse-CDF on a uniform).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]; ln of it is finite and <= 0.
    -mean * (1.0 - u).ln()
}

/// SplitMix64-style avalanche over (seed, stream).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY_S: f64 = 24.0 * 3600.0;

    fn production_timeline(seed: u64) -> FaultTimeline {
        FaultTimeline::generate(FaultRates::llama3_production(), 16_384, 8, DAY_S, seed).unwrap()
    }

    #[test]
    fn same_seed_is_byte_identical() {
        assert_eq!(production_timeline(42), production_timeline(42));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            production_timeline(1).events(),
            production_timeline(2).events()
        );
    }

    #[test]
    fn event_count_scales_with_cluster_size() {
        let rates = FaultRates::llama3_production();
        let small = FaultTimeline::generate(rates, 1_024, 8, DAY_S, 9).unwrap();
        let large = FaultTimeline::generate(rates, 16_384, 8, DAY_S, 9).unwrap();
        assert!(
            large.events().len() > small.events().len() * 4,
            "large {} vs small {}",
            large.events().len(),
            small.events().len()
        );
    }

    #[test]
    fn paper_rates_give_a_plausible_day() {
        // ≈ 2e-5 fatal per GPU-hour × 16K GPUs × 24 h ≈ 7.5 expected
        // fatal events; allow a wide band around it.
        let tl = production_timeline(3);
        let fatal = tl.fatal_events().count();
        assert!((2..=20).contains(&fatal), "fatal events: {fatal}");
        assert!(tl.mtbf_s() > 3600.0 && tl.mtbf_s() < 24.0 * 3600.0);
        // Events are sorted and inside the horizon.
        for w in tl.events().windows(2) {
            assert!(w[0].start_s <= w[1].start_s);
        }
        assert!(tl.events().iter().all(|e| e.start_s < tl.horizon_s()));
    }

    #[test]
    fn health_snapshots_reflect_active_windows() {
        let rates = FaultRates {
            thermal_per_gpu_hour: 5e-4, // frequent, long windows
            thermal_mean_s: 3600.0,
            ..FaultRates::none()
        };
        let tl = FaultTimeline::generate(rates, 4_096, 8, DAY_S, 11).unwrap();
        let throttle = tl
            .events()
            .iter()
            .find(|e| e.kind == FaultKind::ThermalThrottle)
            .expect("expected at least one throttle event");
        let mid = throttle.start_s + throttle.duration_s / 2.0;
        let h = tl.health_at(mid);
        assert!(!h.is_healthy());
        let FaultScope::Gpu(rank) = throttle.scope else {
            panic!("throttle events are GPU-scoped");
        };
        // The active window shows up on its rank at (at least) its severity.
        assert!(h.compute_multiplier(rank) >= throttle.severity);
        // This is the first event, so just before it nothing throttles that rank.
        let before = tl.health_at(f64::min(throttle.start_s, tl.events()[0].start_s) - 1.0);
        assert_eq!(before.compute_multiplier(rank), 1.0);
    }

    #[test]
    fn transient_boundaries_bracket_health_changes() {
        let rates = FaultRates {
            link_degrade_per_gpu_hour: 2e-4,
            link_degrade_mean_s: 1800.0,
            link_degrade_capacity_scale: 0.5,
            ..FaultRates::none()
        };
        let tl = FaultTimeline::generate(rates, 2_048, 8, DAY_S, 5).unwrap();
        let bounds = tl.transient_boundaries(0.0, DAY_S);
        assert!(!bounds.is_empty());
        for w in bounds.windows(2) {
            assert!(w[0] < w[1]);
            // Health is constant strictly inside a segment.
            let a = tl.health_at(w[0] + (w[1] - w[0]) * 0.25);
            let b = tl.health_at(w[0] + (w[1] - w[0]) * 0.75);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_rates_mean_no_events() {
        let tl = FaultTimeline::generate(FaultRates::none(), 16_384, 8, DAY_S, 1).unwrap();
        assert!(tl.events().is_empty());
        assert_eq!(tl.mtbf_s(), f64::INFINITY);
        assert!(tl.health_at(1000.0).is_healthy());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut bad = FaultRates::llama3_production();
        bad.gpu_fail_per_gpu_hour = -1.0;
        assert!(FaultTimeline::generate(bad, 8, 8, DAY_S, 0).is_err());
        let mut bad = FaultRates::llama3_production();
        bad.link_degrade_capacity_scale = 0.0;
        assert!(FaultTimeline::generate(bad, 8, 8, DAY_S, 0).is_err());
        let mut bad = FaultRates::llama3_production();
        bad.thermal_max_slowdown = 0.5;
        assert!(FaultTimeline::generate(bad, 8, 8, DAY_S, 0).is_err());
        assert!(FaultTimeline::generate(FaultRates::none(), 0, 8, DAY_S, 0).is_err());
        assert!(FaultTimeline::generate(FaultRates::none(), 8, 8, -1.0, 0).is_err());
    }

    #[test]
    fn health_builder_combines_overlapping_faults() {
        let h = ClusterHealth::healthy()
            .throttle(7, 1.1)
            .throttle(7, 1.3)
            .throttle(2, 1.05)
            .degrade_node(1, 0.5)
            .degrade_node(1, 0.8);
        assert_eq!(h.compute_multiplier(7), 1.3); // worst wins
        assert_eq!(h.compute_multiplier(2), 1.05);
        assert_eq!(h.compute_multiplier(0), 1.0);
        assert_eq!(h.worst_compute_multiplier(), 1.3);
        assert_eq!(h.worst_link_scale(), 0.5);
        assert!(h.throttled.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn severities_are_in_range() {
        let tl = production_timeline(21);
        for e in tl.events() {
            match e.kind {
                FaultKind::ThermalThrottle => {
                    assert!((1.0..=1.25).contains(&e.severity), "{e:?}");
                    assert!(e.duration_s.is_finite() && e.duration_s > 0.0);
                }
                FaultKind::LinkDegrade => {
                    assert!((0.0..=1.0).contains(&e.severity), "{e:?}");
                    assert!(e.duration_s.is_finite() && e.duration_s > 0.0);
                }
                FaultKind::GpuFailStop | FaultKind::NodeLoss => {
                    assert_eq!(e.severity, 0.0);
                    assert!(e.duration_s.is_infinite());
                }
            }
        }
    }
}
