//! Exact percentile and CDF estimation over latency samples.
//!
//! The paper reports median and P99 tail latency (Figures 9, 10a, 14) and a
//! CDF of response latency up to P95 (Figure 10a). [`Samples`] collects raw
//! observations and computes exact order statistics with linear
//! interpolation; [`Cdf`] materializes the empirical distribution for
//! plotting.

/// A growable collection of `f64` observations with exact order statistics.
///
/// Percentiles use the common linear-interpolation rule (type-7, the default
/// in R and NumPy): the `q`-th quantile of `n` sorted samples sits at rank
/// `q * (n - 1)`.
///
/// # Example
///
/// ```
/// use fifer_metrics::percentile::Samples;
///
/// let mut s: Samples = (1..=100).map(|v| v as f64).collect();
/// assert_eq!(s.percentile(50.0), 50.5);
/// assert_eq!(s.percentile(99.0), 99.01);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 100.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
    /// Materialized `(value, cumulative fraction)` pairs for the full
    /// distribution, built lazily on the first [`Samples::cdf`] call and
    /// reused (sliced) by later calls until the collection mutates.
    cdf_cache: Option<Vec<(f64, f64)>>,
}

/// Equality is over the observations (and sort state), never the derived
/// CDF cache — two collections that saw the same pushes compare equal
/// whether or not `cdf` has been called on them.
impl PartialEq for Samples {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.sorted == other.sorted
    }
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
            cdf_cache: None,
        }
    }

    /// Creates an empty collection with capacity for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
            cdf_cache: None,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored (they would poison every downstream
    /// statistic); callers that care should validate before pushing.
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            self.values.push(v);
            self.sorted = false;
            self.cdf_cache = None;
        }
    }

    /// Number of observations collected.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no observations have been collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Population standard deviation, or 0 when fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min_finite()
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .max_finite()
    }

    /// Exact `p`-th percentile (`0 ≤ p ≤ 100`) with linear interpolation.
    /// Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ensure_sorted();
        let values = &self.values;
        sorted_percentile(values.len(), p, |i| values[i])
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th percentile, the paper's tail-latency metric.
    pub fn p99(&mut self) -> f64 {
        self.percentile(99.0)
    }

    /// Builds the empirical CDF, optionally truncated at percentile
    /// `up_to_p` (Figure 10a truncates at P95).
    ///
    /// # Panics
    ///
    /// Panics if `up_to_p` is outside `[0, 100]`.
    pub fn cdf(&mut self, up_to_p: f64) -> Cdf {
        assert!((0.0..=100.0).contains(&up_to_p));
        self.ensure_sorted();
        let n = self.values.len();
        let points = self.cdf_cache.get_or_insert_with(|| {
            self.values
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
                .collect()
        });
        let keep = ((up_to_p / 100.0) * n as f64).ceil() as usize;
        Cdf {
            points: points[..keep].to_vec(),
        }
    }

    /// Borrow the raw observations (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
            self.sorted = true;
        }
    }
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `n` values in non-decreasing
/// order, read through `value_at`: type-7 linear interpolation between the
/// closest ranks, 0 when `n == 0`. [`Samples::percentile`] is this over its
/// sorted samples; callers holding sorted values in another form (integer
/// microseconds, say) get bit-identical results from the same rule.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn sorted_percentile(n: usize, p: f64, value_at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0,100]");
    if n == 0 {
        return 0.0;
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        value_at(lo)
    } else {
        let frac = rank - lo as f64;
        value_at(lo) * (1.0 - frac) + value_at(hi) * frac
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        s.extend(iter);
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

/// An empirical cumulative distribution function.
///
/// Points are `(value, cumulative_fraction)` pairs in non-decreasing value
/// order, as produced by [`Samples::cdf`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// The CDF points as `(value, cumulative fraction)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points retained.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the CDF has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Downsamples to at most `n` evenly spaced points (for compact CSV
    /// output). Returns all points when `n >= len`.
    pub fn downsample(&self, n: usize) -> Vec<(f64, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step).round() as usize])
            .collect()
    }
}

/// Extension for folding possibly-empty min/max results back to 0.
trait FiniteOr {
    fn min_finite(self) -> f64;
    fn max_finite(self) -> f64;
}

impl FiniteOr for f64 {
    fn min_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
    fn max_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_statistics_are_zero() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s = Samples::new();
        s.push(42.0);
        assert_eq!(s.percentile(0.0), 42.0);
        assert_eq!(s.percentile(50.0), 42.0);
        assert_eq!(s.percentile(100.0), 42.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s: Samples = vec![10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        // rank for p=25 over n=4 is 0.75 → 10 + 0.75*10
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn mean_and_std_dev() {
        let s: Samples = vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut s = Samples::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 1.0);
    }

    #[test]
    fn push_after_percentile_resorts() {
        let mut s = Samples::new();
        s.push(3.0);
        s.push(1.0);
        assert_eq!(s.median(), 2.0);
        s.push(100.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,100]")]
    fn percentile_rejects_out_of_range() {
        let mut s = Samples::new();
        s.push(1.0);
        let _ = s.percentile(101.0);
    }

    #[test]
    fn cdf_truncates_at_requested_percentile() {
        let mut s: Samples = (1..=100).map(|v| v as f64).collect();
        let cdf = s.cdf(95.0);
        assert_eq!(cdf.len(), 95);
        let last = cdf.points().last().unwrap();
        assert_eq!(last.0, 95.0);
        assert!((last.1 - 0.95).abs() < 1e-12);
    }

    #[test]
    fn cdf_downsample_keeps_endpoints() {
        let mut s: Samples = (1..=1000).map(|v| v as f64).collect();
        let cdf = s.cdf(100.0);
        let ds = cdf.downsample(10);
        assert_eq!(ds.len(), 10);
        assert_eq!(ds.first().unwrap().0, 1.0);
        assert_eq!(ds.last().unwrap().0, 1000.0);
    }

    #[test]
    fn repeated_cdf_calls_reuse_the_cache() {
        let mut s: Samples = (1..=100).map(|v| v as f64).collect();
        let full = s.cdf(100.0);
        assert!(s.cdf_cache.is_some());
        let truncated = s.cdf(95.0);
        assert_eq!(truncated.points(), &full.points()[..95]);
        // equality ignores the cache...
        let fresh: Samples = (1..=100).map(|v| v as f64).collect();
        assert_ne!(s.cdf_cache, fresh.cdf_cache);
        // (`s` was sorted by cdf(); sort the fresh copy the same way)
        let mut fresh = fresh;
        let _ = fresh.median();
        assert_eq!(s, fresh);
        // ...and mutation invalidates it
        s.push(0.5);
        assert!(s.cdf_cache.is_none());
        let refreshed = s.cdf(100.0);
        assert_eq!(refreshed.points()[0].0, 0.5);
        assert_eq!(refreshed.len(), 101);
    }
}
