//! §6.3 memory optimizations.
//!
//! "PP stage only needs forward output tensor metadata to kick off the
//! backward pass, but the conventional autograd engine is conservative
//! in releasing memory with reference counting." Llama 3 profiles the
//! allocation trace and then either checkpoints tensors in a custom
//! autograd op or resizes tensor storage manually, freeing buffers the
//! engine would otherwise pin. These optimizations are what let the
//! 405B run *without* activation recomputation.
//!
//! This module makes the policy explicit: each
//! [`ActivationPolicy`] pairs a retained-bytes fraction with a
//! recompute-time overhead, and [`policy_tradeoff`] quantifies the
//! §6.3 claim that buffer release dominates recomputation.

/// How a rank manages saved activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationPolicy {
    /// Keep every tensor autograd pins (the conservative PyTorch
    /// default the paper starts from).
    KeepAll,
    /// The §6.3 production setting: release PP boundary tensors early
    /// and resize storages the backward never reads; no recomputation.
    EarlyRelease,
    /// Selective recomputation: additionally drop cheap-to-recompute
    /// intermediates (norms, SwiGLU products) and replay them in
    /// backward.
    SelectiveRecompute,
    /// Full activation recomputation [5]: keep only stage boundaries,
    /// replay the whole forward in backward.
    FullRecompute,
}

impl ActivationPolicy {
    /// Fraction of the naïvely-saved activation bytes this policy keeps
    /// resident.
    pub fn retained_fraction(self) -> f64 {
        match self {
            ActivationPolicy::KeepAll => 1.0,
            ActivationPolicy::EarlyRelease => 0.5,
            ActivationPolicy::SelectiveRecompute => 0.3,
            ActivationPolicy::FullRecompute => 0.06,
        }
    }

    /// Extra forward-compute fraction replayed during backward.
    pub fn recompute_overhead(self) -> f64 {
        match self {
            ActivationPolicy::KeepAll | ActivationPolicy::EarlyRelease => 0.0,
            ActivationPolicy::SelectiveRecompute => 0.15,
            ActivationPolicy::FullRecompute => 1.0,
        }
    }

    /// The policies in decreasing memory order.
    pub const ALL: [ActivationPolicy; 4] = [
        ActivationPolicy::KeepAll,
        ActivationPolicy::EarlyRelease,
        ActivationPolicy::SelectiveRecompute,
        ActivationPolicy::FullRecompute,
    ];
}

/// Outcome of applying a policy to a rank whose naïve activation
/// residency is `act_bytes` and whose step spends `fwd_fraction` of its
/// compute in forward passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyTradeoff {
    /// Activation bytes retained.
    pub retained_bytes: u64,
    /// Step-time multiplier from recompute overhead (≥ 1).
    pub step_time_factor: f64,
}

/// Evaluates a policy: memory retained and the step-time factor, given
/// the forward share of compute (≈ 1/3 of a fwd+bwd step).
pub fn policy_tradeoff(
    policy: ActivationPolicy,
    act_bytes: u64,
    fwd_fraction: f64,
) -> PolicyTradeoff {
    PolicyTradeoff {
        retained_bytes: (act_bytes as f64 * policy.retained_fraction()) as u64,
        step_time_factor: 1.0 + policy.recompute_overhead() * fwd_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn policies_order_memory_monotonically() {
        let mem: Vec<u64> = ActivationPolicy::ALL
            .iter()
            .map(|p| policy_tradeoff(*p, 60 * GIB, 1.0 / 3.0).retained_bytes)
            .collect();
        assert!(mem.windows(2).all(|w| w[0] > w[1]), "{mem:?}");
    }

    #[test]
    fn early_release_is_free_in_time() {
        // The §6.3 point: buffer release halves activation residency
        // without any recompute cost — strictly better than KeepAll.
        let keep = policy_tradeoff(ActivationPolicy::KeepAll, 60 * GIB, 1.0 / 3.0);
        let release = policy_tradeoff(ActivationPolicy::EarlyRelease, 60 * GIB, 1.0 / 3.0);
        assert_eq!(release.step_time_factor, keep.step_time_factor);
        assert!(release.retained_bytes < keep.retained_bytes);
    }

    #[test]
    fn full_recompute_costs_a_third_of_the_step() {
        // Replaying the forward adds ~fwd_fraction to the step: with
        // fwd = 1/3, a 33 % slowdown — why §6.3 avoids it.
        let t = policy_tradeoff(ActivationPolicy::FullRecompute, 60 * GIB, 1.0 / 3.0);
        assert!((t.step_time_factor - 4.0 / 3.0).abs() < 1e-9);
        assert!(t.retained_bytes < 4 * GIB);
    }

    #[test]
    fn selective_sits_between() {
        let sel = policy_tradeoff(ActivationPolicy::SelectiveRecompute, 60 * GIB, 1.0 / 3.0);
        let rel = policy_tradeoff(ActivationPolicy::EarlyRelease, 60 * GIB, 1.0 / 3.0);
        let full = policy_tradeoff(ActivationPolicy::FullRecompute, 60 * GIB, 1.0 / 3.0);
        assert!(sel.retained_bytes < rel.retained_bytes);
        assert!(sel.retained_bytes > full.retained_bytes);
        assert!(sel.step_time_factor > rel.step_time_factor);
        assert!(sel.step_time_factor < full.step_time_factor);
    }

    #[test]
    fn memory_freed_can_buy_off_recomputation() {
        // The Fig 10 narrative in policy terms: if EarlyRelease fits
        // the budget, it beats SelectiveRecompute on time at acceptable
        // memory — quantify the crossover.
        let budget = 40 * GIB;
        let act = 60 * GIB;
        let release = policy_tradeoff(ActivationPolicy::EarlyRelease, act, 1.0 / 3.0);
        let selective = policy_tradeoff(ActivationPolicy::SelectiveRecompute, act, 1.0 / 3.0);
        assert!(release.retained_bytes <= budget);
        assert!(release.step_time_factor < selective.step_time_factor);
    }
}
