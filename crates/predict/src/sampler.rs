//! The paper's load-sampling scheme (§4.5).
//!
//! For a monitoring interval T = 10 s, Fifer samples the arrival rate in
//! adjacent windows of Ws = 5 s over the past 100 s, keeping the maximum
//! arrival rate of each window, and forecasts the maximum over the next
//! prediction window. [`WindowSampler`] turns raw arrival instants into
//! that window-max series.

use fifer_metrics::{SimDuration, SimTime};

/// Converts raw arrival events into per-window maximum arrival rates.
///
/// Arrivals are bucketed into 1-second cells; a window's "rate" is the
/// maximum cell count inside the window (requests/second), matching the
/// paper's "maximum arrival rate at each window".
///
/// # Example
///
/// ```
/// use fifer_metrics::{SimTime, SimDuration};
/// use fifer_predict::WindowSampler;
///
/// let mut s = WindowSampler::new(SimDuration::from_secs(5), 20);
/// for i in 0..10 {
///     s.record_arrival(SimTime::from_millis(i * 300));
/// }
/// let rates = s.window_max_rates(SimTime::from_secs(5));
/// assert_eq!(rates.len(), 1);
/// assert!(rates[0] >= 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowSampler {
    window: SimDuration,
    history_windows: usize,
    /// 1-second cell counts, indexed by absolute second.
    cells: Vec<u32>,
    /// Cells below this second are already zeroed by [`Self::compact`].
    zeroed_to: usize,
}

impl WindowSampler {
    /// Creates a sampler with `window`-wide windows keeping the last
    /// `history_windows` of them (paper: 5 s windows over the past 100 s →
    /// 20 windows).
    ///
    /// # Panics
    ///
    /// Panics if `window` is shorter than one second or `history_windows`
    /// is zero.
    pub fn new(window: SimDuration, history_windows: usize) -> Self {
        assert!(
            window >= SimDuration::from_secs(1),
            "window must be at least 1s"
        );
        assert!(history_windows > 0, "need at least one history window");
        WindowSampler {
            window,
            history_windows,
            cells: Vec::new(),
            zeroed_to: 0,
        }
    }

    /// Paper-default sampler: Ws = 5 s over the past 100 s.
    pub fn paper_default() -> Self {
        WindowSampler::new(SimDuration::from_secs(5), 20)
    }

    /// Records one arrival.
    pub fn record_arrival(&mut self, t: SimTime) {
        let sec = t.as_secs_f64() as usize;
        if self.cells.len() <= sec {
            self.cells.resize(sec + 1, 0);
        }
        self.cells[sec] += 1;
    }

    /// Window-max rate series ending at `now`, oldest first, truncated to
    /// the configured history. Partial trailing windows are included.
    pub fn window_max_rates(&self, now: SimTime) -> Vec<f64> {
        let wsec = (self.window.as_micros() / 1_000_000) as usize;
        let now_sec = now.as_secs_f64().ceil() as usize;
        let total_windows = now_sec.div_ceil(wsec);
        let start_window = total_windows.saturating_sub(self.history_windows);
        (start_window..total_windows)
            .map(|w| {
                let lo = w * wsec;
                let hi = ((w + 1) * wsec).min(now_sec);
                (lo..hi)
                    .map(|s| self.cells.get(s).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0) as f64
            })
            .collect()
    }

    /// The global maximum rate over the retained history ending at `now` —
    /// the quantity the paper's predictor consumes.
    pub fn global_max_rate(&self, now: SimTime) -> f64 {
        self.window_max_rates(now).into_iter().fold(0.0, f64::max)
    }

    /// Zeroes the cells older than twice the retained history before
    /// `now`. Indices are preserved by zeroing rather than shifting.
    ///
    /// Each cell is zeroed once: a call zeroes only the cells between the
    /// previous call's cut and its own, so a tick costs O(new seconds), not
    /// O(elapsed seconds). Arrivals are recorded at or after the latest
    /// `now`, so no cell below the cut is counted again and the cells are
    /// the same as zeroing from second 0 on every call.
    pub fn compact(&mut self, now: SimTime) {
        let cut = self.keep_from(now).min(self.cells.len());
        if self.zeroed_to < cut {
            self.cells[self.zeroed_to..cut].fill(0);
            self.zeroed_to = cut;
        }
    }

    /// The first second [`Self::compact`] keeps at `now`.
    fn keep_from(&self, now: SimTime) -> usize {
        let wsec = (self.window.as_micros() / 1_000_000) as usize;
        (now.as_secs_f64() as usize).saturating_sub(wsec * self.history_windows * 2)
    }

    /// Clears all recorded arrivals.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.zeroed_to = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl WindowSampler {
        /// The compaction as a sweep from second 0 on every call: the
        /// oracle for the watermark in [`WindowSampler::compact`].
        fn compact_full_sweep(&mut self, now: SimTime) {
            for s in 0..self.keep_from(now).min(self.cells.len()) {
                self.cells[s] = 0;
            }
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_sampler_reports_zero() {
        let s = WindowSampler::paper_default();
        assert_eq!(s.global_max_rate(secs(100)), 0.0);
        assert!(s.window_max_rates(SimTime::ZERO).is_empty());
    }

    #[test]
    fn window_max_picks_busiest_second() {
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 4);
        // second 0: 2 arrivals, second 3: 5 arrivals
        for _ in 0..2 {
            s.record_arrival(SimTime::from_millis(100));
        }
        for _ in 0..5 {
            s.record_arrival(SimTime::from_millis(3500));
        }
        let rates = s.window_max_rates(secs(5));
        assert_eq!(rates, vec![5.0]);
    }

    #[test]
    fn history_truncates_old_windows() {
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 2);
        s.record_arrival(secs(1)); // window 0 — should fall out
        s.record_arrival(secs(6)); // window 1
        s.record_arrival(secs(11)); // window 2
        let rates = s.window_max_rates(secs(15));
        assert_eq!(rates.len(), 2);
        assert_eq!(rates, vec![1.0, 1.0]);
    }

    #[test]
    fn paper_default_covers_100s() {
        let mut s = WindowSampler::paper_default();
        for sec in 0..200 {
            s.record_arrival(secs(sec) + SimDuration::from_millis(1));
        }
        let rates = s.window_max_rates(secs(200));
        assert_eq!(rates.len(), 20, "20 windows of 5s = 100s history");
        assert!(rates.iter().all(|&r| r == 1.0));
    }

    #[test]
    fn global_max_is_max_of_windows() {
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 10);
        for _ in 0..7 {
            s.record_arrival(secs(2));
        }
        for _ in 0..3 {
            s.record_arrival(secs(8));
        }
        assert_eq!(s.global_max_rate(secs(10)), 7.0);
    }

    #[test]
    fn partial_trailing_window_counts() {
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 10);
        for _ in 0..4 {
            s.record_arrival(secs(6));
        }
        // now = 7s: second window spans [5,7)
        let rates = s.window_max_rates(secs(7));
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[1], 4.0);
    }

    #[test]
    fn compact_preserves_recent_rates() {
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 2);
        for sec in 0..100 {
            s.record_arrival(secs(sec));
        }
        let before = s.window_max_rates(secs(100));
        s.compact(secs(100));
        let after = s.window_max_rates(secs(100));
        assert_eq!(before, after);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random arrival, compaction and clear sequences, monotone in time
        /// between clears, leave the same cells and window maxima as the
        /// full-sweep compaction. Gaps up to 400 s let the cut outrun the
        /// recorded cells.
        #[test]
        fn watermark_compaction_matches_the_full_sweep(
            window_s in 1u64..8,
            history in 1usize..25,
            steps in prop::collection::vec((0u64..400_000, 0u8..20), 1..300),
        ) {
            let mut fast = WindowSampler::new(SimDuration::from_secs(window_s), history);
            let mut oracle = fast.clone();
            let mut now = SimTime::ZERO;
            for (gap_ms, op) in steps {
                // mostly short gaps, so arrivals bunch into shared cells
                let gap = if op % 4 == 0 { gap_ms } else { gap_ms % 3_000 };
                now += SimDuration::from_millis(gap);
                match op {
                    0..=13 => {
                        fast.record_arrival(now);
                        oracle.record_arrival(now);
                    }
                    14..=18 => {
                        fast.compact(now);
                        oracle.compact_full_sweep(now);
                    }
                    // a cleared sampler may start over from time zero
                    _ => {
                        fast.clear();
                        oracle.clear();
                        now = SimTime::ZERO;
                    }
                }
                prop_assert_eq!(&fast.cells, &oracle.cells);
                prop_assert_eq!(fast.window_max_rates(now), oracle.window_max_rates(now));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1s")]
    fn sub_second_window_rejected() {
        let _ = WindowSampler::new(SimDuration::from_millis(500), 4);
    }
}
