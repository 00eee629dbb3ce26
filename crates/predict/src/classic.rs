//! Classical (non-ML) predictors: MWA, EWMA, linear regression, logistic
//! regression (paper §4.5.1).
//!
//! These models are "continuously fitted over requests in last t-100
//! seconds for every T" — i.e. they keep a sliding window of recent rate
//! samples and refit on each forecast.

use crate::nn::math::sigmoid_f64;
use crate::predictor::LoadPredictor;
use std::collections::VecDeque;

/// Shared sliding window of recent observations.
#[derive(Debug, Clone)]
struct SlidingWindow {
    cap: usize,
    values: VecDeque<f64>,
}

impl SlidingWindow {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        SlidingWindow {
            cap,
            values: VecDeque::with_capacity(cap),
        }
    }

    fn push(&mut self, v: f64) {
        if v.is_finite() {
            if self.values.len() == self.cap {
                self.values.pop_front();
            }
            self.values.push_back(v.max(0.0));
        }
    }

    fn clear(&mut self) {
        self.values.clear();
    }

    fn as_vec(&self) -> Vec<f64> {
        self.values.iter().copied().collect()
    }
}

/// Number of 5-second windows in the paper's 100-second history.
const PAPER_WINDOW: usize = 20;

/// Moving-window average: forecast = mean of the last `k` samples.
#[derive(Debug, Clone)]
pub struct MovingWindowAverage {
    window: SlidingWindow,
}

impl MovingWindowAverage {
    /// Creates an MWA over the last `k` samples.
    pub fn new(k: usize) -> Self {
        MovingWindowAverage {
            window: SlidingWindow::new(k),
        }
    }

    /// Paper-default: 100 s of history at 5 s sampling.
    pub fn paper_default() -> Self {
        Self::new(PAPER_WINDOW)
    }
}

impl LoadPredictor for MovingWindowAverage {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
    }

    fn forecast(&mut self) -> f64 {
        let v = self.window.as_vec();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    fn name(&self) -> &'static str {
        "MWA"
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

/// Exponentially weighted moving average with smoothing factor `alpha`.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, state: None }
    }

    /// Paper-style default weighting recent load heavily (α = 0.4).
    pub fn paper_default() -> Self {
        Ewma::new(0.4)
    }
}

impl LoadPredictor for Ewma {
    fn observe(&mut self, rate: f64) {
        if !rate.is_finite() {
            return;
        }
        let rate = rate.max(0.0);
        self.state = Some(match self.state {
            None => rate,
            Some(s) => self.alpha * rate + (1.0 - self.alpha) * s,
        });
    }

    fn forecast(&mut self) -> f64 {
        self.state.unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "EWMA"
    }

    fn reset(&mut self) {
        self.state = None;
    }
}

/// Ordinary-least-squares linear trend over the sliding window,
/// extrapolated one step ahead.
#[derive(Debug, Clone)]
pub struct LinearTrend {
    window: SlidingWindow,
}

impl LinearTrend {
    /// Creates a linear-trend predictor over the last `k` samples.
    pub fn new(k: usize) -> Self {
        LinearTrend {
            window: SlidingWindow::new(k),
        }
    }

    /// Paper-default window.
    pub fn paper_default() -> Self {
        Self::new(PAPER_WINDOW)
    }

    /// Fits `y = a + b·x` over `(0..n, values)`; returns `(a, b)`.
    fn fit(values: &[f64]) -> (f64, f64) {
        let n = values.len() as f64;
        if values.len() < 2 {
            return (values.first().copied().unwrap_or(0.0), 0.0);
        }
        let xm = (n - 1.0) / 2.0;
        let ym = values.iter().sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        for (i, &y) in values.iter().enumerate() {
            let dx = i as f64 - xm;
            sxy += dx * (y - ym);
            sxx += dx * dx;
        }
        let b = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        (ym - b * xm, b)
    }
}

impl LoadPredictor for LinearTrend {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
    }

    fn forecast(&mut self) -> f64 {
        let v = self.window.as_vec();
        if v.is_empty() {
            return 0.0;
        }
        let (a, b) = Self::fit(&v);
        (a + b * v.len() as f64).max(0.0)
    }

    fn name(&self) -> &'static str {
        "Linear R."
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

/// Logistic-curve regression: fits `y = L·σ(a + b·x)` over the window by
/// gradient descent and extrapolates one step.
///
/// The ceiling `L` is taken as 1.5× the window maximum, so the model can
/// express saturating growth — the behaviour logistic regression adds over
/// a straight line in the paper's comparison.
#[derive(Debug, Clone)]
pub struct LogisticTrend {
    window: SlidingWindow,
    gd_steps: usize,
    lr: f64,
}

impl LogisticTrend {
    /// Creates a logistic-trend predictor over the last `k` samples.
    pub fn new(k: usize) -> Self {
        LogisticTrend {
            window: SlidingWindow::new(k),
            gd_steps: 400,
            lr: 1.0,
        }
    }

    /// Paper-default window.
    pub fn paper_default() -> Self {
        Self::new(PAPER_WINDOW)
    }
}

impl LoadPredictor for LogisticTrend {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
    }

    fn forecast(&mut self) -> f64 {
        let v = self.window.as_vec();
        if v.is_empty() {
            return 0.0;
        }
        let peak = v.iter().copied().fold(0.0_f64, f64::max);
        if peak == 0.0 {
            return 0.0;
        }
        let ceiling = peak * 1.5;
        let n = v.len() as f64;
        // normalize x into [0,1] and y by the ceiling so gradients are O(1)
        let xs: Vec<f64> = (0..v.len()).map(|i| i as f64 / n.max(1.0)).collect();
        let ys: Vec<f64> = v.iter().map(|&y| y / ceiling).collect();
        let (mut a, mut b) = (0.0_f64, 1.0_f64);
        for _ in 0..self.gd_steps {
            let (mut ga, mut gb) = (0.0, 0.0);
            for (&x, &yn) in xs.iter().zip(&ys) {
                let s = sigmoid_f64(a + b * x);
                let common = 2.0 * (s - yn) * s * (1.0 - s) / n;
                ga += common;
                gb += common * x;
            }
            a -= self.lr * ga;
            b -= self.lr * gb;
        }
        let x_next = 1.0;
        (ceiling * sigmoid_f64(a + b * x_next)).max(0.0)
    }

    fn name(&self) -> &'static str {
        "Logistic R."
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(p: &mut dyn LoadPredictor, vals: &[f64]) {
        for &v in vals {
            p.observe(v);
        }
    }

    #[test]
    fn mwa_is_window_mean() {
        let mut p = MovingWindowAverage::new(3);
        feed(&mut p, &[1.0, 2.0, 3.0, 4.0]);
        // window holds [2,3,4]
        assert!((p.forecast() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mwa_empty_is_zero() {
        let mut p = MovingWindowAverage::paper_default();
        assert_eq!(p.forecast(), 0.0);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut p = Ewma::new(0.5);
        feed(&mut p, &[100.0; 20]);
        assert!((p.forecast() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_recent_more_than_mwa() {
        let series: Vec<f64> = (0..20).map(|i| i as f64 * 10.0).collect();
        let mut ewma = Ewma::new(0.5);
        let mut mwa = MovingWindowAverage::new(20);
        feed(&mut ewma, &series);
        feed(&mut mwa, &series);
        assert!(ewma.forecast() > mwa.forecast());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn linear_extrapolates_ramp() {
        let mut p = LinearTrend::new(10);
        feed(&mut p, &[10.0, 20.0, 30.0, 40.0]);
        // next step on the ramp is 50
        assert!((p.forecast() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn linear_never_negative() {
        let mut p = LinearTrend::new(10);
        feed(&mut p, &[50.0, 30.0, 10.0]);
        assert!(p.forecast() >= 0.0);
    }

    #[test]
    fn linear_single_sample_is_constant() {
        let mut p = LinearTrend::new(5);
        p.observe(42.0);
        assert_eq!(p.forecast(), 42.0);
    }

    #[test]
    fn logistic_tracks_rising_load() {
        let mut p = LogisticTrend::new(20);
        feed(&mut p, &[10.0, 20.0, 40.0, 60.0, 75.0, 85.0, 90.0]);
        let f = p.forecast();
        assert!(f > 60.0, "forecast {f} should continue the rise");
        assert!(f <= 90.0 * 1.5, "forecast bounded by the ceiling");
    }

    #[test]
    fn logistic_flat_input_stays_near_level() {
        let mut p = LogisticTrend::new(20);
        feed(&mut p, &[50.0; 15]);
        let f = p.forecast();
        assert!((30.0..=75.0).contains(&f), "flat 50 forecast {f}");
    }

    #[test]
    fn logistic_all_zero_is_zero() {
        let mut p = LogisticTrend::new(10);
        feed(&mut p, &[0.0; 5]);
        assert_eq!(p.forecast(), 0.0);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut p = MovingWindowAverage::new(4);
        feed(&mut p, &[f64::NAN, 10.0, f64::INFINITY]);
        assert_eq!(p.forecast(), 10.0);
        let mut e = Ewma::new(0.5);
        feed(&mut e, &[f64::NAN, 10.0]);
        assert_eq!(e.forecast(), 10.0);
    }

    #[test]
    fn negative_observations_clamped() {
        let mut p = MovingWindowAverage::new(2);
        feed(&mut p, &[-5.0, -5.0]);
        assert_eq!(p.forecast(), 0.0);
    }

    #[test]
    fn reset_clears_all() {
        let mut l = LinearTrend::new(5);
        feed(&mut l, &[1.0, 2.0]);
        l.reset();
        assert_eq!(l.forecast(), 0.0);
    }
}
