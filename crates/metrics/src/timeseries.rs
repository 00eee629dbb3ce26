//! Time-stamped series with windowed aggregation.
//!
//! Figure 12b plots the cumulative number of containers spawned sampled over
//! 10-second intervals; Figure 7 plots arrival rates per second. Both are
//! produced from [`TimeSeries`].

use crate::time::{SimDuration, SimTime};

/// A series of `(time, value)` observations in non-decreasing time order.
///
/// # Example
///
/// ```
/// use fifer_metrics::{TimeSeries, SimTime, SimDuration};
///
/// let mut ts = TimeSeries::new();
/// ts.push(SimTime::from_secs(1), 2.0);
/// ts.push(SimTime::from_secs(3), 4.0);
/// let sums = ts.window_sums(SimDuration::from_secs(2), SimTime::from_secs(4));
/// assert_eq!(sums, vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last appended time (series must be
    /// chronological — the simulator only moves forward).
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time-series must be appended chronologically");
        }
        self.points.push((t, v));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no observations exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Sums values into consecutive windows of `width` covering `[0, end)`.
    ///
    /// Window `i` covers `[i*width, (i+1)*width)`. Observations at or past
    /// `end` are dropped. Used e.g. to turn raw arrivals into a
    /// requests-per-second envelope.
    pub fn window_sums(&self, width: SimDuration, end: SimTime) -> Vec<f64> {
        self.window_aggregate(width, end, |acc, v| acc + v, 0.0)
    }

    /// Last value at or before `t` (sample-and-hold), or `default` when no
    /// observation precedes `t`. Used to sample cumulative counters.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(mut i) => {
                // step past equal timestamps to take the latest
                while i + 1 < self.points.len() && self.points[i + 1].0 == t {
                    i += 1;
                }
                self.points[i].1
            }
            Err(0) => default,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Samples the series with sample-and-hold at `interval` ticks over
    /// `[0, end]`, producing the staircase the paper plots for cumulative
    /// counters (Figure 12b).
    pub fn sample_hold(&self, interval: SimDuration, end: SimTime, default: f64) -> Vec<f64> {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= end {
            out.push(self.value_at(t, default));
            t += interval;
        }
        out
    }

    /// Time-weighted average of a sample-and-hold signal over `[0, end]`.
    /// This is how "average number of containers" is computed (Figure 8b).
    pub fn time_weighted_mean(&self, end: SimTime, initial: f64) -> f64 {
        self.time_weighted_mean_between(SimTime::ZERO, end, initial)
    }

    /// Time-weighted average over `[from, to]` — used to exclude a warmup
    /// window from container averages.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn time_weighted_mean_between(&self, from: SimTime, to: SimTime, initial: f64) -> f64 {
        assert!(from <= to, "window must be non-empty");
        if from == to {
            return self.value_at(from, initial);
        }
        let mut area = 0.0;
        let mut last_t = from;
        let mut last_v = self.value_at(from, initial);
        for &(t, v) in &self.points {
            if t <= from {
                continue;
            }
            if t > to {
                break;
            }
            area += last_v * (t - last_t).as_secs_f64();
            last_t = t;
            last_v = v;
        }
        area += last_v * (to - last_t).as_secs_f64();
        area / (to - from).as_secs_f64()
    }

    fn window_aggregate(
        &self,
        width: SimDuration,
        end: SimTime,
        f: impl Fn(f64, f64) -> f64,
        init: f64,
    ) -> Vec<f64> {
        assert!(!width.is_zero(), "window width must be positive");
        let n = end.as_micros().div_ceil(width.as_micros());
        let mut out = vec![init; n as usize];
        for &(t, v) in &self.points {
            if t >= end {
                break;
            }
            let idx = (t.as_micros() / width.as_micros()) as usize;
            out[idx] = f(out[idx], v);
        }
        out
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            ts.push(t, v);
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn window_sums_bucket_correctly() {
        let ts: TimeSeries = vec![
            (secs(0), 1.0),
            (secs(1), 2.0),
            (secs(2), 3.0),
            (secs(5), 10.0),
        ]
        .into_iter()
        .collect();
        let sums = ts.window_sums(SimDuration::from_secs(2), secs(6));
        assert_eq!(sums, vec![3.0, 3.0, 10.0]);
    }

    #[test]
    fn observations_at_end_are_dropped() {
        let ts: TimeSeries = vec![(secs(2), 7.0)].into_iter().collect();
        let sums = ts.window_sums(SimDuration::from_secs(1), secs(2));
        assert_eq!(sums, vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "chronologically")]
    fn non_chronological_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(secs(2), 1.0);
        ts.push(secs(1), 1.0);
    }

    #[test]
    fn value_at_sample_and_hold() {
        let ts: TimeSeries = vec![(secs(1), 10.0), (secs(3), 20.0)].into_iter().collect();
        assert_eq!(ts.value_at(secs(0), 0.0), 0.0);
        assert_eq!(ts.value_at(secs(1), 0.0), 10.0);
        assert_eq!(ts.value_at(secs(2), 0.0), 10.0);
        assert_eq!(ts.value_at(secs(3), 0.0), 20.0);
        assert_eq!(ts.value_at(secs(9), 0.0), 20.0);
    }

    #[test]
    fn value_at_takes_latest_of_equal_timestamps() {
        let ts: TimeSeries = vec![(secs(1), 1.0), (secs(1), 2.0), (secs(1), 3.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.value_at(secs(1), 0.0), 3.0);
    }

    #[test]
    fn sample_hold_staircase() {
        let ts: TimeSeries = vec![(secs(1), 1.0), (secs(3), 2.0)].into_iter().collect();
        let s = ts.sample_hold(SimDuration::from_secs(1), secs(4), 0.0);
        assert_eq!(s, vec![0.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn time_weighted_mean_integrates() {
        // 0 for [0,1), 10 for [1,3), 20 for [3,4] → (0 + 20 + 20)/4 = 10
        let ts: TimeSeries = vec![(secs(1), 10.0), (secs(3), 20.0)].into_iter().collect();
        assert!((ts.time_weighted_mean(secs(4), 0.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_between_excludes_prefix() {
        // 0 for [0,10), 100 for [10,20]
        let ts: TimeSeries = vec![(secs(10), 100.0)].into_iter().collect();
        assert!((ts.time_weighted_mean_between(secs(10), secs(20), 0.0) - 100.0).abs() < 1e-9);
        assert!((ts.time_weighted_mean_between(secs(5), secs(15), 0.0) - 50.0).abs() < 1e-9);
        // degenerate window samples the value
        assert_eq!(
            ts.time_weighted_mean_between(secs(12), secs(12), 0.0),
            100.0
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_window_panics() {
        let ts = TimeSeries::new();
        let _ = ts.time_weighted_mean_between(secs(5), secs(1), 0.0);
    }

    #[test]
    fn time_weighted_mean_empty_is_initial() {
        let ts = TimeSeries::new();
        assert_eq!(ts.time_weighted_mean(secs(5), 7.0), 7.0);
        assert_eq!(ts.time_weighted_mean(SimTime::ZERO, 7.0), 7.0);
    }
}
