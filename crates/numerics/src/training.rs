//! Miniature training loop demonstrating loss-curve divergence.
//!
//! "Determining whether a deviation in loss curves stems from an
//! implementation error or from the accumulation of small precision
//! differences across many parallel ranks" (§1) needs an end-to-end
//! demonstration: a linear model trained by gradient descent where the
//! per-micro-batch gradients are accumulated either in BF16 or in FP32
//! (§6.2's production fix), measured against an `f64` oracle.

use crate::bf16::Bf16;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gradient-accumulation precision across micro-batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumPrecision {
    /// FP32 accumulator (the paper's fix).
    Fp32,
    /// BF16 accumulator (each partial sum rounds to BF16).
    Bf16,
    /// `f64` oracle (ground truth).
    Fp64,
}

/// Result of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRun {
    /// Mean-squared-error loss after every step.
    pub losses: Vec<f64>,
}

impl TrainingRun {
    /// The final loss.
    ///
    /// # Panics
    /// Panics if the run recorded no steps.
    pub fn final_loss(&self) -> f64 {
        // lint: allow(unwrap) — the panic is this accessor's documented contract
        *self.losses.last().expect("at least one step")
    }

    /// Largest per-step absolute loss gap against a reference run.
    ///
    /// # Panics
    /// Panics if the runs have different lengths.
    pub fn max_loss_gap(&self, reference: &TrainingRun) -> f64 {
        assert_eq!(self.losses.len(), reference.losses.len());
        self.losses
            .iter()
            .zip(&reference.losses)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// A fixed synthetic least-squares problem.
#[derive(Debug, Clone)]
pub struct Regression {
    x: Matrix,
    y: Vec<f32>,
    micro_batches: usize,
}

impl Regression {
    /// Builds a seeded problem with `samples` rows, `features` columns,
    /// split into `micro_batches` for gradient accumulation.
    ///
    /// # Panics
    /// Panics unless `micro_batches` divides `samples`.
    pub fn new(samples: usize, features: usize, micro_batches: usize, seed: u64) -> Regression {
        assert!(
            micro_batches > 0 && samples.is_multiple_of(micro_batches),
            "micro-batches must divide samples"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(samples, features, |_, _| rng.gen_range(-1.0..1.0f32));
        let w_true: Vec<f32> = (0..features).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
        let y: Vec<f32> = (0..samples)
            .map(|i| {
                let clean: f32 = (0..features).map(|c| x.get(i, c) * w_true[c]).sum();
                clean + rng.gen_range(-0.01..0.01f32)
            })
            .collect();
        Regression {
            x,
            y,
            micro_batches,
        }
    }

    fn mb_rows(&self) -> usize {
        self.x.rows() / self.micro_batches
    }

    /// MSE loss of weights `w` over the whole dataset, in `f64`.
    fn loss(&self, w: &[f32]) -> f64 {
        let mut total = 0.0f64;
        for i in 0..self.x.rows() {
            let pred: f64 = (0..self.x.cols())
                .map(|c| self.x.get(i, c) as f64 * w[c] as f64)
                .sum();
            let e = pred - self.y[i] as f64;
            total += e * e;
        }
        total / self.x.rows() as f64
    }

    /// Gradient of the MSE over one micro-batch, in `f32`.
    fn mb_grad(&self, w: &[f32], mb: usize) -> Vec<f32> {
        let rows = self.mb_rows();
        let lo = mb * rows;
        let mut g = vec![0.0f32; self.x.cols()];
        for i in lo..lo + rows {
            let pred: f32 = (0..self.x.cols()).map(|c| self.x.get(i, c) * w[c]).sum();
            let e = 2.0 * (pred - self.y[i]) / self.x.rows() as f32;
            for (c, gc) in g.iter_mut().enumerate() {
                *gc += e * self.x.get(i, c);
            }
        }
        g
    }

    /// Trains for `steps` with learning rate `lr`, accumulating the
    /// micro-batch gradients in `precision`, and returns the loss
    /// trajectory.
    pub fn train(&self, steps: usize, lr: f32, precision: AccumPrecision) -> TrainingRun {
        let mut w = vec![0.0f32; self.x.cols()];
        let mut losses = Vec::with_capacity(steps);
        for _ in 0..steps {
            let grads: Vec<Vec<f32>> = (0..self.micro_batches)
                .map(|m| self.mb_grad(&w, m))
                .collect();
            let total: Vec<f32> = match precision {
                AccumPrecision::Fp32 => {
                    let mut acc = vec![0.0f32; w.len()];
                    for g in &grads {
                        for (a, v) in acc.iter_mut().zip(g) {
                            *a += *v;
                        }
                    }
                    acc
                }
                AccumPrecision::Bf16 => {
                    let mut acc = vec![Bf16::ZERO; w.len()];
                    for g in &grads {
                        for (a, v) in acc.iter_mut().zip(g) {
                            *a = *a + Bf16::from_f32(*v);
                        }
                    }
                    acc.into_iter().map(Bf16::to_f32).collect()
                }
                AccumPrecision::Fp64 => {
                    let mut acc = vec![0.0f64; w.len()];
                    for g in &grads {
                        for (a, v) in acc.iter_mut().zip(g) {
                            *a += *v as f64;
                        }
                    }
                    acc.into_iter().map(|v| v as f32).collect()
                }
            };
            for (wc, g) in w.iter_mut().zip(&total) {
                *wc -= lr * g;
            }
            losses.push(self.loss(&w));
        }
        TrainingRun { losses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_converges() {
        let p = Regression::new(256, 8, 16, 1);
        let run = p.train(60, 0.5, AccumPrecision::Fp64);
        assert!(run.final_loss() < run.losses[0] / 10.0);
        assert!(run.final_loss() < 0.01);
    }

    #[test]
    fn fp32_accumulation_tracks_oracle_closer_than_bf16() {
        // §6.2: the FP32 gradient accumulator shrinks the loss-curve
        // gap that BF16 accumulation opens across many micro-batches.
        let p = Regression::new(512, 8, 64, 2);
        let oracle = p.train(60, 0.5, AccumPrecision::Fp64);
        let fp32 = p.train(60, 0.5, AccumPrecision::Fp32);
        let bf16 = p.train(60, 0.5, AccumPrecision::Bf16);
        let gap32 = fp32.max_loss_gap(&oracle);
        let gap16 = bf16.max_loss_gap(&oracle);
        assert!(
            gap16 > gap32 * 5.0,
            "bf16 gap {gap16:.3e} should dwarf fp32 gap {gap32:.3e}"
        );
    }

    #[test]
    fn more_microbatches_widen_the_bf16_gap() {
        // The hazard accumulates along the batch dimension, which DP
        // and PP split (§6.2).
        let few = Regression::new(512, 8, 8, 3);
        let many = Regression::new(512, 8, 128, 3);
        let gap = |p: &Regression| {
            let oracle = p.train(40, 0.5, AccumPrecision::Fp64);
            p.train(40, 0.5, AccumPrecision::Bf16).max_loss_gap(&oracle)
        };
        assert!(gap(&many) > gap(&few));
    }

    #[test]
    fn deterministic_runs() {
        let p = Regression::new(128, 4, 8, 9);
        let a = p.train(10, 0.3, AccumPrecision::Bf16);
        let b = p.train(10, 0.3, AccumPrecision::Bf16);
        assert_eq!(a, b);
    }
}
