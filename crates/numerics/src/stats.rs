//! Summary statistics and histogram helpers.
//!
//! Shared by the fusion-quality metrics (`wavefuse-metrics`) and the power
//! trace analysis (`wavefuse-power`).

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (`1/N` normalization). Returns `0.0` for an empty
/// slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// A fixed-bin histogram over a closed value range.
///
/// # Examples
///
/// ```
/// use wavefuse_numerics::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// for v in [0.1, 0.1, 0.6, 0.9] {
///     h.add(v);
/// }
/// assert_eq!(h.counts(), &[2, 0, 1, 1]);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one sample. Values outside `[lo, hi]` are clamped to the edge
    /// bins; NaNs are ignored.
    pub fn add(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let bins = self.counts.len();
        let t = ((v - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let idx = (t.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every sample of a slice.
    pub fn extend_from(&mut self, vs: &[f64]) {
        for &v in vs {
            self.add(v);
        }
    }

    /// Borrows the per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized bin probabilities. Returns an all-zero vector when no
    /// samples have been recorded.
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Shannon entropy of the bin distribution, in bits.
    pub fn entropy_bits(&self) -> f64 {
        entropy_bits(&self.probabilities())
    }
}

/// Shannon entropy (bits) of a probability vector. Zero entries are skipped;
/// the vector need not be exactly normalized.
pub fn entropy_bits(p: &[f64]) -> f64 {
    -p.iter()
        .filter(|&&pi| pi > 0.0)
        .map(|&pi| pi * pi.log2())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_var_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn histogram_ignores_nan() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn uniform_distribution_maximizes_entropy() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.extend_from(&[0.5, 1.5, 2.5, 3.5]);
        assert!((h.entropy_bits() - 2.0).abs() < 1e-12);

        let mut peaked = Histogram::new(0.0, 4.0, 4);
        peaked.extend_from(&[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(peaked.entropy_bits(), 0.0);
    }

    #[test]
    fn entropy_of_fair_coin() {
        assert!((entropy_bits(&[0.5, 0.5]) - 1.0).abs() < 1e-15);
    }
}
