//! Training utilities shared by the neural predictors: series
//! normalization, sliding-window dataset construction, the train/test
//! split protocol from the paper (§4.5.1: pre-train on 60% of the trace,
//! evaluate on the rest), and the fixed-epoch training hyper-parameters.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};

/// Min–max normalization of a rate series into `[0, 1]`.
///
/// The scaler is fitted on the training split and reused unchanged at
/// inference (refitting at inference would leak test data). An extra 30%
/// headroom above the training maximum keeps unseen peaks inside range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaler {
    lo: f64,
    hi: f64,
}

impl Scaler {
    /// Fits the scaler on a series.
    ///
    /// Degenerate (empty or constant) series produce an identity-like
    /// scaler around the observed value.
    pub fn fit(series: &[f64]) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in series {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Scaler { lo: 0.0, hi: 1.0 };
        }
        // headroom scales with both the span and the magnitude, so a
        // near-constant series at any level still gets usable resolution
        let span = (hi - lo).max(hi.abs() * 0.05).max(1.0);
        let hi = hi + span * 0.3;
        Scaler { lo, hi }
    }

    /// Maps a raw value into the normalized space, clamped to `[0, 1.5]`
    /// so a runaway peak cannot destabilize inference.
    pub fn transform(&self, v: f64) -> f64 {
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.5)
    }

    /// Maps a normalized value back to rate space, clamped non-negative.
    pub fn inverse(&self, v: f64) -> f64 {
        (v * (self.hi - self.lo) + self.lo).max(0.0)
    }

    /// Transforms a whole series.
    pub fn transform_series(&self, series: &[f64]) -> Vec<f64> {
        series.iter().map(|&v| self.transform(v)).collect()
    }

    /// Serializes the fitted bounds into a checkpoint (exact bit
    /// patterns).
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.f64(self.lo);
        w.f64(self.hi);
    }

    /// Restores a scaler saved by [`save_state`](Self::save_state).
    pub(crate) fn load_state(r: &mut CkptReader<'_>) -> Result<Self, CheckpointError> {
        let lo = r.f64()?;
        let hi = r.f64()?;
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return Err(CheckpointError::ModelMismatch("scaler bounds"));
        }
        Ok(Scaler { lo, hi })
    }
}

/// Splits a series at the paper's 60% train boundary.
///
/// Total on both sides: degenerate inputs split degenerately (an empty
/// series yields two empty slices; a single sample lands wholly in the
/// test side) instead of panicking, so short traces flow through the
/// evaluation plumbing — consumers must tolerate an empty train split.
pub fn train_test_split(series: &[f64]) -> (&[f64], &[f64]) {
    // cut == len·0.6 rounded down, so cut <= len always holds and
    // split_at cannot panic, whatever the series length
    let cut = series.len() * 6 / 10;
    series.split_at(cut)
}

/// Sliding-window supervised pairs: `(series[i..i+lags], series[i+lags])`.
///
/// Returns an empty vector when the series is shorter than `lags + 1`.
///
/// # Panics
///
/// Panics if `lags` is zero.
pub fn windowed_pairs(series: &[f64], lags: usize) -> Vec<(Vec<f64>, f64)> {
    assert!(lags > 0, "need at least one lag");
    if series.len() <= lags {
        return Vec::new();
    }
    (0..series.len() - lags)
        .map(|i| (series[i..i + lags].to_vec(), series[i + lags]))
        .collect()
}

/// Shared training hyper-parameters. Defaults follow §5.1: 100 epochs
/// and batch size 1 (implicit — updates are per-sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training windows.
    pub epochs: usize,
    /// Lag-window length fed to the model per prediction.
    pub lags: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            lags: 20,
            lr: 5e-3,
        }
    }
}

impl TrainConfig {
    /// A cheap configuration for unit tests (few epochs, short lags).
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 8,
            lags: 8,
            lr: 1e-2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_round_trips() {
        let s = Scaler::fit(&[10.0, 50.0, 90.0]);
        for v in [10.0, 42.0, 90.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn scaler_headroom_covers_moderate_peaks() {
        let s = Scaler::fit(&[0.0, 100.0]);
        // 120 is inside the 30% headroom
        assert!(s.transform(120.0) < 1.0);
        assert!((s.inverse(s.transform(120.0)) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn scaler_clamps_runaway_values() {
        let s = Scaler::fit(&[0.0, 10.0]);
        assert_eq!(s.transform(10_000.0), 1.5);
        assert_eq!(s.transform(-10_000.0), 0.0);
        assert!(s.inverse(-1.0) >= 0.0);
    }

    #[test]
    fn scaler_handles_degenerate_series() {
        let s = Scaler::fit(&[]);
        assert!(s.transform(0.5).is_finite());
        let c = Scaler::fit(&[7.0, 7.0, 7.0]);
        assert!(c.transform(7.0).is_finite());
        assert!((c.inverse(c.transform(7.0)) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn split_is_sixty_forty() {
        let series: Vec<f64> = (0..100).map(|v| v as f64).collect();
        let (train, test) = train_test_split(&series);
        assert_eq!(train.len(), 60);
        assert_eq!(test.len(), 40);
        assert_eq!(test[0], 60.0);
    }

    #[test]
    fn windows_align_with_targets() {
        let series = [1.0, 2.0, 3.0, 4.0, 5.0];
        let pairs = windowed_pairs(&series, 3);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (vec![1.0, 2.0, 3.0], 4.0));
        assert_eq!(pairs[1], (vec![2.0, 3.0, 4.0], 5.0));
    }

    #[test]
    fn short_series_yields_no_pairs() {
        assert!(windowed_pairs(&[1.0, 2.0], 5).is_empty());
    }

    // Edge cases for series shorter than the lag window: len 0, len 1,
    // and len lags-1 must flow through split and windowing without
    // panicking anywhere.
    #[test]
    fn empty_series_splits_and_windows_safely() {
        let (train, test) = train_test_split(&[]);
        assert!(train.is_empty() && test.is_empty());
        assert!(windowed_pairs(&[], 5).is_empty());
    }

    #[test]
    fn single_sample_splits_and_windows_safely() {
        let series = [42.0];
        let (train, test) = train_test_split(&series);
        assert!(train.is_empty());
        assert_eq!(test, &[42.0]);
        assert!(windowed_pairs(&series, 5).is_empty());
    }

    #[test]
    fn lags_minus_one_series_splits_and_windows_safely() {
        let lags = 5;
        let series: Vec<f64> = (0..lags - 1).map(|v| v as f64).collect();
        let (train, test) = train_test_split(&series);
        assert_eq!(train.len() + test.len(), series.len());
        assert!(windowed_pairs(&series, lags).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one lag")]
    fn zero_lags_rejected() {
        let _ = windowed_pairs(&[1.0], 0);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TrainConfig::default();
        assert_eq!(c.epochs, 100);
    }
}
