//! Linear and logarithmic histograms for consensus-time distributions.

/// A fixed-range histogram with either linear or logarithmic binning.
///
/// # Examples
///
/// ```
/// use od_stats::Histogram;
/// let mut h = Histogram::linear(0.0, 10.0, 5);
/// h.record(3.2);
/// h.record(9.9);
/// assert_eq!(h.total(), 2);
/// assert_eq!(h.bin_counts()[1], 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    log_scale: bool,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or the bounds are non-finite.
    #[must_use]
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: bins must be positive");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "Histogram: invalid range [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            log_scale: false,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Creates a histogram with `bins` logarithmically spaced bins over
    /// `[lo, hi)` (both strictly positive).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo <= 0`, or `lo >= hi`.
    #[must_use]
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "Histogram: bins must be positive");
        assert!(
            lo > 0.0 && hi.is_finite() && lo < hi,
            "Histogram: log range requires 0 < lo < hi, got [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            log_scale: true,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let frac = if self.log_scale {
            (x.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (x - self.lo) / (self.hi - self.lo)
        };
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Counts per bin, in order.
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `(lower, upper)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "Histogram: bin index out of range");
        let n = self.counts.len() as f64;
        if self.log_scale {
            let (la, lb) = (self.lo.ln(), self.hi.ln());
            let w = (lb - la) / n;
            ((la + w * i as f64).exp(), (la + w * (i as f64 + 1.0)).exp())
        } else {
            let w = (self.hi - self.lo) / n;
            (self.lo + w * i as f64, self.lo + w * (i as f64 + 1.0))
        }
    }

    /// Observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded observations, including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning_places_values() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 5.5, 9.999] {
            h.record(x);
        }
        assert_eq!(h.bin_counts()[0], 2);
        assert_eq!(h.bin_counts()[1], 1);
        assert_eq!(h.bin_counts()[5], 1);
        assert_eq!(h.bin_counts()[9], 1);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn log_binning_is_geometric() {
        let h = Histogram::logarithmic(1.0, 100.0, 2);
        let (a0, b0) = h.bin_edges(0);
        let (a1, b1) = h.bin_edges(1);
        assert!((a0 - 1.0).abs() < 1e-9);
        assert!((b0 - 10.0).abs() < 1e-9);
        assert!((a1 - 10.0).abs() < 1e-9);
        assert!((b1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn log_binning_records() {
        let mut h = Histogram::logarithmic(1.0, 100.0, 2);
        h.record(3.0);
        h.record(30.0);
        assert_eq!(h.bin_counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "bins must be positive")]
    fn rejects_zero_bins() {
        let _ = Histogram::linear(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "log range")]
    fn log_rejects_nonpositive_lo() {
        let _ = Histogram::logarithmic(0.0, 1.0, 4);
    }
}
