//! Performance-variation (DVFS) models.
//!
//! §8.1 of the paper recommends deterministic DVFS because transient,
//! uncorrelated slowdowns accumulate through the fine-grained
//! synchronization of TP/CP/PP domains. This module provides both
//! flavours: a *static* per-rank speed spread (manufacturing variation,
//! deterministic DVFS) and a *transient* model where each rank slows
//! down at different steps (non-deterministic DVFS, thermal events).
//!
//! Multipliers are ≥ 1.0 and scale op durations on the affected rank.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_engine::error::SimError;

/// How per-rank slowdowns vary over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitterKind {
    /// Every rank has a fixed multiplier for all steps (deterministic
    /// DVFS / static silicon spread).
    Static,
    /// Each rank's multiplier is redrawn every step (transient
    /// slowdowns at different times on different ranks).
    Transient,
}

/// A deterministic, seeded performance-variation model.
///
/// `amplitude` is the maximum fractional slowdown: multipliers are drawn
/// uniformly from `[1, 1 + amplitude]`.
///
/// ```
/// use cluster_model::jitter::{JitterKind, JitterModel};
/// let j = JitterModel::new(JitterKind::Static, 0.05, 42);
/// let m = j.multiplier(3, 0);
/// assert!((1.0..=1.05).contains(&m));
/// // Static jitter does not change across steps.
/// assert_eq!(m, j.multiplier(3, 17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Variation behaviour over time.
    pub kind: JitterKind,
    /// Maximum fractional slowdown (e.g. `0.05` = up to 5 % slower).
    pub amplitude: f64,
    /// RNG seed; same seed ⇒ same multipliers.
    pub seed: u64,
}

impl JitterModel {
    /// Creates a model. `amplitude` must be finite and non-negative.
    ///
    /// # Panics
    /// Panics on a negative or non-finite amplitude.
    pub fn new(kind: JitterKind, amplitude: f64, seed: u64) -> JitterModel {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "amplitude must be finite and >= 0"
        );
        JitterModel {
            kind,
            amplitude,
            seed,
        }
    }

    /// Fallible constructor: like [`JitterModel::new`] but returns an
    /// error instead of panicking on a bad amplitude.
    pub fn try_new(kind: JitterKind, amplitude: f64, seed: u64) -> Result<JitterModel, SimError> {
        if !(amplitude.is_finite() && amplitude >= 0.0) {
            return Err(SimError::InvalidValue(format!(
                "jitter amplitude must be finite and >= 0, got {amplitude}"
            )));
        }
        Ok(JitterModel {
            kind,
            amplitude,
            seed,
        })
    }

    /// A model with no variation (multiplier always exactly 1).
    pub fn none() -> JitterModel {
        JitterModel::new(JitterKind::Static, 0.0, 0)
    }

    /// The duration multiplier for `rank` at training step `step`.
    pub fn multiplier(&self, rank: u32, step: u64) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let stream = match self.kind {
            JitterKind::Static => mix(self.seed, rank as u64, 0),
            JitterKind::Transient => mix(self.seed, rank as u64, step + 1),
        };
        let mut rng = StdRng::seed_from_u64(stream);
        1.0 + rng.gen::<f64>() * self.amplitude
    }

    /// The expected cluster-level slowdown when `n` ranks synchronize
    /// every op: the mean of the per-step *maximum* multiplier across
    /// ranks, estimated over `steps` steps. For static jitter this is
    /// simply the worst rank; for transient jitter it approaches
    /// `1 + amplitude` as `n` grows — the §8.1 accumulation effect.
    pub fn synchronized_slowdown(&self, n: u32, steps: u64) -> f64 {
        if self.amplitude == 0.0 || n == 0 || steps == 0 {
            return 1.0;
        }
        let mut total = 0.0;
        for step in 0..steps {
            let worst = (0..n)
                .map(|r| self.multiplier(r, step))
                .fold(1.0f64, f64::max);
            total += worst;
        }
        total / steps as f64
    }
}

/// SplitMix64-style avalanche over (seed, a, b).
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_amplitude_is_identity() {
        let j = JitterModel::none();
        assert_eq!(j.multiplier(0, 0), 1.0);
        assert_eq!(j.synchronized_slowdown(1024, 10), 1.0);
    }

    #[test]
    fn static_jitter_is_step_invariant() {
        let j = JitterModel::new(JitterKind::Static, 0.1, 7);
        for r in 0..16 {
            assert_eq!(j.multiplier(r, 0), j.multiplier(r, 99));
        }
    }

    #[test]
    fn transient_jitter_varies_by_step() {
        let j = JitterModel::new(JitterKind::Transient, 0.1, 7);
        let same = (0..50).all(|s| j.multiplier(3, s) == j.multiplier(3, 0));
        assert!(!same, "transient jitter should vary across steps");
    }

    #[test]
    fn multipliers_within_bounds() {
        let j = JitterModel::new(JitterKind::Transient, 0.2, 11);
        for r in 0..64 {
            for s in 0..8 {
                let m = j.multiplier(r, s);
                assert!((1.0..=1.2).contains(&m), "m={m}");
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let a = JitterModel::new(JitterKind::Transient, 0.1, 3);
        let b = JitterModel::new(JitterKind::Transient, 0.1, 3);
        assert_eq!(a.multiplier(5, 9), b.multiplier(5, 9));
    }

    #[test]
    fn synchronized_slowdown_grows_with_cluster_size() {
        // §8.1: the bigger the synchronized group, the closer the cluster
        // runs to the worst-case multiplier.
        let j = JitterModel::new(JitterKind::Transient, 0.10, 21);
        let small = j.synchronized_slowdown(2, 64);
        let large = j.synchronized_slowdown(512, 64);
        assert!(large > small);
        assert!(large > 1.09, "large cluster ≈ worst case, got {large}");
    }

    #[test]
    fn transient_worse_than_static_on_average() {
        // With static jitter, the same (worst) rank gates every step; the
        // expected max of a fresh draw each step is at least as large as
        // a single draw's max only when n is big — compare equal-n:
        let amp = 0.1;
        let stat = JitterModel::new(JitterKind::Static, amp, 5).synchronized_slowdown(16, 128);
        let trans = JitterModel::new(JitterKind::Transient, amp, 5).synchronized_slowdown(16, 128);
        // Both are ≤ 1+amp; transient re-rolls so its mean max is close to
        // the static max of the same population size.
        assert!(stat <= 1.0 + amp + 1e-9);
        assert!(trans <= 1.0 + amp + 1e-9);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn negative_amplitude_panics() {
        JitterModel::new(JitterKind::Static, -0.1, 0);
    }
}
