//! Fixed-width bucketed histograms.
//!
//! Used for the queuing-time distributions (Figure 10b) and for compactly
//! summarizing large per-request populations in CSV output.

/// A histogram over `[lo, hi)` with equally sized buckets, plus explicit
/// underflow/overflow counters.
///
/// # Example
///
/// ```
/// use fifer_metrics::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 100.0, 10);
/// h.record(5.0);
/// h.record(15.0);
/// h.record(15.5);
/// h.record(250.0); // overflow
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.bucket_count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal buckets.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if `lo >= hi`, or if either bound is non-finite.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation. Non-finite values are counted as overflow.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if !v.is_finite() || v >= self.hi {
            self.overflow += 1;
        } else if v < self.lo {
            self.underflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((v - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound (or non-finite).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Iterator over `(bucket_midpoint, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
    }

    /// Fraction of in-range mass at or below the upper edge of bucket `i`.
    pub fn cumulative_fraction(&self, i: usize) -> f64 {
        let in_range: u64 = self.buckets.iter().sum();
        if in_range == 0 {
            return 0.0;
        }
        let below: u64 = self.buckets[..=i.min(self.buckets.len() - 1)].iter().sum();
        below as f64 / in_range as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.99);
        h.record(9.99);
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(9), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(-1.0);
        h.record(10.0);
        h.record(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn midpoints_are_centered() {
        let h = Histogram::new(0.0, 100.0, 4);
        let mids: Vec<f64> = h.iter().map(|(m, _)| m).collect();
        assert_eq!(mids, vec![12.5, 37.5, 62.5, 87.5]);
    }

    #[test]
    fn cumulative_fraction_monotone() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for v in [0.5, 1.5, 2.5, 3.5] {
            h.record(v);
        }
        let fr: Vec<f64> = (0..4).map(|i| h.cumulative_fraction(i)).collect();
        assert_eq!(fr, vec![0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn empty_cumulative_is_zero() {
        let h = Histogram::new(0.0, 1.0, 3);
        assert_eq!(h.cumulative_fraction(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_rejected() {
        let _ = Histogram::new(1.0, 0.0, 2);
    }
}
