//! Small statistics helpers used across the experiment harness.

/// Summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary of `values`. Returns `None` for an empty slice.
    ///
    /// ```
    /// use sim_engine::stats::Summary;
    /// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(s.mean, 2.5);
    /// assert_eq!(s.min, 1.0);
    /// assert_eq!(s.max, 4.0);
    /// ```
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            std_dev: var.sqrt(),
            p50: percentile_sorted(&sorted, 0.50),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }

    /// Ratio of the largest to the smallest sample (the paper's
    /// "slowest rank spends 1.44× more time than the fastest" metric).
    /// Returns `f64::INFINITY` when the minimum is zero.
    pub fn max_over_min(&self) -> f64 {
        if self.min == 0.0 {
            f64::INFINITY
        } else {
            self.max / self.min
        }
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// A fixed-width histogram over `[lo, hi)` used to print distribution
/// shapes (Fig 14) in text reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo` or at/above `hi`.
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        if v < self.lo || v >= self.hi || !v.is_finite() {
            self.outliers += 1;
            return;
        }
        let bin = ((v - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
        let last = self.counts.len() - 1;
        self.counts[bin.min(last)] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Renders an ASCII bar chart, one bin per line.
    pub fn render(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let bin_w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat((c as usize * width) / peak as usize);
            out.push_str(&format!(
                "[{:>10.3}, {:>10.3}) {:>8} {}\n",
                self.lo + bin_w * i as f64,
                self.lo + bin_w * (i + 1) as f64,
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.max_over_min() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 1.0), 40.0);
        assert!((percentile_sorted(&v, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99, 10.0, -0.1] {
            h.add(v);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.outliers(), 2);
        assert!(h.render(10).lines().count() == 5);
    }

    #[test]
    fn max_over_min_with_zero_min() {
        let s = Summary::of(&[0.0, 1.0]).unwrap();
        assert!(s.max_over_min().is_infinite());
    }
}
