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
/// The cells form a ring of twice the retained history (`2 × window ×
/// history_windows` seconds, 200 s for the paper sampler), so the sampler's
/// memory is fixed whatever the horizon. The ring asks two things of its
/// caller, and asserts both: between [`clear`](Self::clear)s, arrivals are
/// recorded in non-decreasing time, and a query's `now` is at or after the
/// latest recorded arrival. The simulator meets both: it records arrivals
/// as its event loop commits them, and queries on monitor ticks of the
/// same clock.
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
    /// 1-second cell counts: second `s` of the ring's span (the seconds
    /// up to `latest`) is counted in `cells[s % cells.len()]`.
    cells: Vec<u32>,
    /// The second of the latest recorded arrival (0 before the first).
    latest: usize,
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
        let wsec = (window.as_micros() / 1_000_000) as usize;
        WindowSampler {
            window,
            history_windows,
            cells: vec![0; 2 * wsec * history_windows],
            latest: 0,
        }
    }

    /// Paper-default sampler: Ws = 5 s over the past 100 s.
    pub fn paper_default() -> Self {
        WindowSampler::new(SimDuration::from_secs(5), 20)
    }

    /// Records one arrival, clearing the ring slots of the seconds it
    /// moves past.
    ///
    /// # Panics
    ///
    /// Panics if `t` falls in a second before the latest recorded arrival
    /// (since the last [`clear`](Self::clear)).
    pub fn record_arrival(&mut self, t: SimTime) {
        let sec = t.as_secs_f64() as usize;
        assert!(
            sec >= self.latest,
            "arrivals are recorded in time order (second {sec} after {})",
            self.latest
        );
        let ring = self.cells.len();
        if sec - self.latest >= ring {
            self.cells.fill(0);
        } else {
            for s in self.latest + 1..=sec {
                self.cells[s % ring] = 0;
            }
        }
        self.latest = sec;
        self.cells[sec % ring] += 1;
    }

    /// Window-max rate series ending at `now`, oldest first, truncated to
    /// the configured history. Partial trailing windows are included.
    ///
    /// # Panics
    ///
    /// Panics if `now` falls before the latest recorded arrival's second.
    pub fn window_max_rates(&self, now: SimTime) -> Vec<f64> {
        let now_sec = now.as_secs_f64().ceil() as usize;
        assert!(
            now_sec >= self.latest,
            "queries come at or after the latest arrival (second {})",
            self.latest
        );
        self.window_maxima(now_sec, |s| self.count(s))
    }

    /// The global maximum rate over the retained history ending at `now` —
    /// the quantity the paper's predictor consumes.
    pub fn global_max_rate(&self, now: SimTime) -> f64 {
        self.window_max_rates(now).into_iter().fold(0.0, f64::max)
    }

    /// Clears all recorded arrivals; the next may start over from time
    /// zero.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.latest = 0;
    }

    /// Arrivals counted in second `s`, which a query reads only within
    /// the history before its `now` — inside the ring's span, since `now`
    /// is at or after `latest`.
    fn count(&self, s: usize) -> u32 {
        let ring = self.cells.len();
        debug_assert!(s + ring > self.latest, "second {s} has left the ring");
        if s > self.latest {
            0
        } else {
            self.cells[s % ring]
        }
    }

    /// The maxima of the history windows before second `now_sec`, reading
    /// second `s`'s arrival count as `count(s)`.
    fn window_maxima(&self, now_sec: usize, count: impl Fn(usize) -> u32) -> Vec<f64> {
        let wsec = (self.window.as_micros() / 1_000_000) as usize;
        let total_windows = now_sec.div_ceil(wsec);
        let start_window = total_windows.saturating_sub(self.history_windows);
        (start_window..total_windows)
            .map(|w| {
                let lo = w * wsec;
                let hi = ((w + 1) * wsec).min(now_sec);
                (lo..hi).map(&count).max().unwrap_or(0) as f64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The unbounded sampler the ring replaced, as the oracle: one cell
    /// per absolute second, emptied only by `clear`.
    #[derive(Default)]
    struct Unbounded(Vec<u32>);

    impl Unbounded {
        fn record_arrival(&mut self, t: SimTime) {
            let sec = t.as_secs_f64() as usize;
            if self.0.len() <= sec {
                self.0.resize(sec + 1, 0);
            }
            self.0[sec] += 1;
        }

        /// `sampler`'s windows over these cells.
        fn window_max_rates(&self, sampler: &WindowSampler, now: SimTime) -> Vec<f64> {
            let now_sec = now.as_secs_f64().ceil() as usize;
            sampler.window_maxima(now_sec, |s| self.0.get(s).copied().unwrap_or(0))
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
    fn ring_keeps_the_recent_history() {
        // 5 s windows, 2 of them: a 20 s ring, wrapped 5 times by second 100
        let mut s = WindowSampler::new(SimDuration::from_secs(5), 2);
        assert_eq!(s.cells.len(), 20);
        for sec in 0..100 {
            for _ in 0..sec % 10 + 1 {
                s.record_arrival(secs(sec));
            }
        }
        // windows [90, 95) and [95, 100): busiest seconds 94 (5) and 99 (10)
        assert_eq!(s.window_max_rates(secs(100)), vec![5.0, 10.0]);
        // a later query reads the seconds past the latest arrival as empty
        assert_eq!(s.window_max_rates(secs(102)), vec![10.0, 0.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random arrival and clear sequences, monotone in time between
        /// clears, give the same window maxima and global maximum from the
        /// ring as from the unbounded cells, queried at the latest arrival
        /// and at later instants. Gaps up to 400 s outrun every ring drawn
        /// here (2 s to 336 s).
        #[test]
        fn ring_matches_the_unbounded_cells(
            window_s in 1u64..8,
            history in 1usize..25,
            steps in prop::collection::vec((0u64..400_000, 0u8..20), 1..300),
        ) {
            let mut ring = WindowSampler::new(SimDuration::from_secs(window_s), history);
            let mut oracle = Unbounded::default();
            let mut now = SimTime::ZERO;
            for (gap_ms, op) in steps {
                // mostly short gaps, so arrivals bunch into shared cells
                let gap = if op % 4 == 0 { gap_ms } else { gap_ms % 3_000 };
                now += SimDuration::from_millis(gap);
                if op < 19 {
                    ring.record_arrival(now);
                    oracle.record_arrival(now);
                } else {
                    // a cleared sampler may start over from time zero
                    ring.clear();
                    oracle.0.clear();
                    now = SimTime::ZERO;
                }
                for later_ms in [0, 999, gap_ms % 60_000, gap_ms] {
                    let at = now + SimDuration::from_millis(later_ms);
                    let expected = oracle.window_max_rates(&ring, at);
                    let global = expected.iter().copied().fold(0.0, f64::max);
                    prop_assert_eq!(ring.window_max_rates(at), expected);
                    prop_assert_eq!(ring.global_max_rate(at), global);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_arrival_rejected() {
        let mut s = WindowSampler::paper_default();
        s.record_arrival(secs(10));
        s.record_arrival(secs(9));
    }

    #[test]
    #[should_panic(expected = "at least 1s")]
    fn sub_second_window_rejected() {
        let _ = WindowSampler::new(SimDuration::from_millis(500), 4);
    }
}
