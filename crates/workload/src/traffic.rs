//! Seeded request-arrival traffic for serving simulations.
//!
//! Inference workloads are driven by *traffic*: a time-ordered stream of
//! requests, each with an arrival instant, a prompt length and an output
//! length. Real serving traces are unavailable for the same reason real
//! pre-training corpora are (see [`crate::docgen`]), so we substitute a
//! seeded non-homogeneous Poisson process whose intensity profile is the
//! only property the reproduced experiments depend on: steady load,
//! a diurnal day/night swing, or short saturating bursts.
//!
//! Arrivals are drawn by thinning (Lewis & Shedler): candidate events at
//! the peak rate `λ_max` are accepted with probability `λ(t)/λ_max`, so
//! one seed fully determines the trace regardless of shape parameters.

use crate::docgen::{DocLengthDist, DocumentSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds in one diurnal period.
const DAY_S: f64 = 86_400.0;

/// Relative amplitude of the diurnal swing: intensity moves between
/// `(1 − A)` and `(1 + A)` times the mean rate over a day.
const DIURNAL_AMPLITUDE: f64 = 0.8;

/// Bursty shape: fraction of time spent inside a burst window.
const BURST_DUTY: f64 = 0.1;

/// Bursty shape: seconds between burst-window starts.
const BURST_PERIOD_S: f64 = 600.0;

/// Bursty shape: fraction of the mean rate carried by the quiet
/// baseline (the rest arrives inside the burst windows).
const BURST_BASELINE: f64 = 0.5;

/// Intensity profile of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficShape {
    /// Constant rate: `λ(t) = mean`.
    Steady,
    /// Sinusoidal day/night swing with the trough at t = 0 (early
    /// morning) and the peak half a day in: mean-preserving.
    Diurnal,
    /// Quiet baseline punctuated by periodic saturating bursts
    /// (mean-preserving; the burst rate is `5.5×` the mean with the
    /// default duty cycle).
    Bursty,
}

impl TrafficShape {
    /// All shapes, in wire-tag order — the bench grid iterates this.
    pub const ALL: [TrafficShape; 3] = [
        TrafficShape::Steady,
        TrafficShape::Diurnal,
        TrafficShape::Bursty,
    ];

    /// Stable lowercase tag used on the wire and in filenames.
    pub fn tag(self) -> &'static str {
        match self {
            TrafficShape::Steady => "steady",
            TrafficShape::Diurnal => "diurnal",
            TrafficShape::Bursty => "bursty",
        }
    }

    /// Parses a [`Self::tag`] back to a shape.
    pub fn parse(s: &str) -> Option<TrafficShape> {
        TrafficShape::ALL.into_iter().find(|t| t.tag() == s)
    }

    /// Intensity multiplier at time `t_s` (seconds); averages to 1.0
    /// over one period for every shape.
    pub fn relative_intensity(self, t_s: f64) -> f64 {
        match self {
            TrafficShape::Steady => 1.0,
            TrafficShape::Diurnal => {
                let phase = 2.0 * std::f64::consts::PI * t_s / DAY_S;
                1.0 - DIURNAL_AMPLITUDE * phase.cos()
            }
            TrafficShape::Bursty => {
                let in_burst = (t_s % BURST_PERIOD_S) < BURST_DUTY * BURST_PERIOD_S;
                if in_burst {
                    BURST_BASELINE + (1.0 - BURST_BASELINE) / BURST_DUTY
                } else {
                    BURST_BASELINE
                }
            }
        }
    }

    /// Peak intensity multiplier — the thinning envelope `λ_max / mean`.
    fn peak_intensity(self) -> f64 {
        match self {
            TrafficShape::Steady => 1.0,
            TrafficShape::Diurnal => 1.0 + DIURNAL_AMPLITUDE,
            TrafficShape::Bursty => BURST_BASELINE + (1.0 - BURST_BASELINE) / BURST_DUTY,
        }
    }
}

/// One serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Dense arrival index (0-based, in arrival order).
    pub id: u64,
    /// Arrival instant in simulated nanoseconds.
    pub arrival_ns: u64,
    /// Prompt (prefill) length in tokens, ≥ 1.
    pub prompt_tokens: u64,
    /// Tokens to generate (including the first token produced by the
    /// prefill pass), ≥ 1.
    pub output_tokens: u64,
}

/// Seeded traffic generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Intensity profile.
    pub shape: TrafficShape,
    /// Mean arrival rate in requests per second.
    pub mean_rps: f64,
    /// Arrival window length in seconds (requests arrive in `[0, horizon)`).
    pub horizon_s: f64,
    /// RNG seed; one seed determines the full trace.
    pub seed: u64,
    /// Prompt-length distribution (sampled lengths are clamped to
    /// `[1, max_prompt]`).
    pub prompt_dist: DocLengthDist,
    /// Output-length distribution (clamped to `[1, max_output]`).
    pub output_dist: DocLengthDist,
    /// Upper clamp on prompt lengths.
    pub max_prompt: u64,
    /// Upper clamp on output lengths.
    pub max_output: u64,
}

impl TrafficSpec {
    /// A production-flavoured spec: log-normal prompts around 1 K
    /// tokens, exponential outputs around 256, `requests_per_day`
    /// spread over a 24 h window.
    pub fn serving_day(shape: TrafficShape, requests_per_day: u64, seed: u64) -> TrafficSpec {
        TrafficSpec {
            shape,
            mean_rps: requests_per_day as f64 / DAY_S,
            horizon_s: DAY_S,
            seed,
            prompt_dist: DocLengthDist::LogNormal {
                mean: 1024.0,
                sigma: 1.2,
            },
            output_dist: DocLengthDist::Exponential { mean: 256.0 },
            max_prompt: 8192,
            max_output: 2048,
        }
    }

    /// Same spec over a shorter window, keeping the per-day rate.
    pub fn horizon_s(mut self, horizon_s: f64) -> TrafficSpec {
        self.horizon_s = horizon_s;
        self
    }

    /// Expected number of arrivals over the window.
    pub fn expected_requests(&self) -> f64 {
        // Shapes are mean-preserving only over whole periods; this is
        // the nominal figure used for sizing, not an exact count.
        self.mean_rps * self.horizon_s
    }

    /// Generates the full time-ordered trace.
    ///
    /// # Panics
    /// Panics if the rate or horizon is non-positive.
    pub fn generate(&self) -> Vec<Request> {
        assert!(self.mean_rps > 0.0, "mean_rps must be positive");
        assert!(self.horizon_s > 0.0, "horizon_s must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Independent streams for the two length samplers so changing a
        // distribution parameter never perturbs arrival times.
        let mut prompts = DocumentSampler::new(self.prompt_dist, self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut outputs = DocumentSampler::new(self.output_dist, self.seed ^ 0xD1B5_4A32_D192_ED03);
        let lambda_max = self.mean_rps * self.shape.peak_intensity();
        let mut out = Vec::with_capacity(self.expected_requests() as usize + 16);
        let mut t = 0.0f64;
        let mut id = 0u64;
        loop {
            // Next candidate at rate λ_max, thinned to λ(t).
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / lambda_max;
            if t >= self.horizon_s {
                break;
            }
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept * lambda_max >= self.mean_rps * self.shape.relative_intensity(t) {
                continue;
            }
            out.push(Request {
                id,
                arrival_ns: (t * 1e9) as u64,
                prompt_tokens: prompts.sample_len().clamp(1, self.max_prompt),
                output_tokens: outputs.sample_len().clamp(1, self.max_output),
            });
            id += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day_spec(shape: TrafficShape) -> TrafficSpec {
        TrafficSpec::serving_day(shape, 100_000, 1)
    }

    #[test]
    fn tags_round_trip() {
        for shape in TrafficShape::ALL {
            assert_eq!(TrafficShape::parse(shape.tag()), Some(shape));
        }
        assert_eq!(TrafficShape::parse("nope"), None);
    }

    #[test]
    fn arrivals_are_time_ordered_and_within_horizon() {
        for shape in TrafficShape::ALL {
            let reqs = day_spec(shape).generate();
            let horizon_ns = (86_400.0 * 1e9) as u64;
            for pair in reqs.windows(2) {
                assert!(pair[0].arrival_ns <= pair[1].arrival_ns);
            }
            assert!(reqs.iter().all(|r| r.arrival_ns < horizon_ns));
            assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64));
        }
    }

    #[test]
    fn mean_rate_is_preserved_by_every_shape() {
        for shape in TrafficShape::ALL {
            let reqs = day_spec(shape).generate();
            let n = reqs.len() as f64;
            assert!(
                (95_000.0..105_000.0).contains(&n),
                "{}: {n} arrivals for 100k expected",
                shape.tag()
            );
        }
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        let reqs = day_spec(TrafficShape::Diurnal).generate();
        // Trough is the first 4 h, peak is hours 10–14.
        let hour = |r: &Request| r.arrival_ns / 3_600_000_000_000;
        let trough = reqs.iter().filter(|r| hour(r) < 4).count();
        let peak = reqs.iter().filter(|r| (10..14).contains(&hour(r))).count();
        assert!(peak > trough * 3, "peak={peak} trough={trough}");
    }

    #[test]
    fn bursty_concentrates_arrivals() {
        let reqs = day_spec(TrafficShape::Bursty).generate();
        let in_burst = reqs
            .iter()
            .filter(|r| (r.arrival_ns as f64 / 1e9) % BURST_PERIOD_S < BURST_DUTY * BURST_PERIOD_S)
            .count();
        // 10% of the time carries ~55% of the traffic.
        assert!(in_burst * 2 > reqs.len(), "{in_burst}/{}", reqs.len());
    }

    #[test]
    fn deterministic_by_seed() {
        let a = day_spec(TrafficShape::Bursty).generate();
        let b = day_spec(TrafficShape::Bursty).generate();
        assert_eq!(a, b);
        let c = TrafficSpec::serving_day(TrafficShape::Bursty, 100_000, 2).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn lengths_are_clamped_and_positive() {
        let spec = day_spec(TrafficShape::Steady);
        let reqs = spec.generate();
        assert!(reqs
            .iter()
            .all(|r| (1..=spec.max_prompt).contains(&r.prompt_tokens)));
        assert!(reqs
            .iter()
            .all(|r| (1..=spec.max_output).contains(&r.output_tokens)));
    }
}
