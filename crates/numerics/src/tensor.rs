//! A minimal row-major `f32` matrix.
//!
//! Deliberately simple: the numerics crate exists to study *bit-exact*
//! accumulation behaviour (§6.2), so every operation has an obvious,
//! auditable evaluation order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows × cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// A seeded uniform random matrix in `[-scale, scale)`.
    pub fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Underlying data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// A sub-matrix of whole rows `[r0, r1)`.
    ///
    /// # Panics
    /// Panics on an invalid range.
    pub fn row_slice(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 < r1 && r1 <= self.rows, "bad row range");
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        }
    }

    /// Vertical concatenation.
    ///
    /// # Panics
    /// Panics if column counts differ or `parts` is empty.
    pub fn vstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "nothing to stack");
        let cols = parts[0].cols;
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "column mismatch");
            data.extend_from_slice(&p.data);
            rows += p.rows;
        }
        Matrix { rows, cols, data }
    }

    /// Element-wise sum, left-to-right (`self + rhs`), in `f32`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// `true` iff every element is bitwise identical (`0.0 != -0.0`,
    /// NaNs compare equal to themselves bit-for-bit).
    pub fn bitwise_eq(&self, rhs: &Matrix) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Largest absolute element-wise difference.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Largest relative element-wise difference (`|a−b| / max(|a|,|b|,ε)`).
    pub fn max_rel_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1e-20))
            .fold(0.0, f32::max)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(m.transpose().get(2, 1), 5.0);
    }

    #[test]
    fn random_is_seeded() {
        assert!(Matrix::random(4, 4, 1.0, 7).bitwise_eq(&Matrix::random(4, 4, 1.0, 7)));
        assert!(!Matrix::random(4, 4, 1.0, 7).bitwise_eq(&Matrix::random(4, 4, 1.0, 8)));
    }

    #[test]
    fn slicing_and_stacking_roundtrip() {
        let m = Matrix::random(6, 3, 1.0, 1);
        let top = m.row_slice(0, 2);
        let mid = m.row_slice(2, 5);
        let bot = m.row_slice(5, 6);
        assert!(Matrix::vstack(&[top, mid, bot]).bitwise_eq(&m));
    }

    #[test]
    fn bitwise_eq_distinguishes_signed_zero() {
        let a = Matrix::from_vec(1, 1, vec![0.0]);
        let b = Matrix::from_vec(1, 1, vec![-0.0]);
        assert_eq!(a, b); // PartialEq via f32 ==
        assert!(!a.bitwise_eq(&b));
    }

    #[test]
    fn diffs() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 100.0]);
        let b = Matrix::from_vec(1, 2, vec![1.5, 100.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.max_rel_diff(&b) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        Matrix::zeros(0, 3);
    }
}
