//! Training utilities shared by the neural predictors: series
//! normalization, sliding-window dataset construction, the train/test
//! split protocol from the paper (§4.5.1: pre-train on 60% of the trace,
//! evaluate on the rest), and the early-stopping machinery used by the
//! production pretraining path (DESIGN.md §15).

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

    /// Write-into form of [`transform_series`](Self::transform_series):
    /// reuses the caller's buffer so per-forecast normalization stays
    /// allocation-free.
    pub fn transform_series_into(&self, series: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(series.iter().map(|&v| self.transform(v)));
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

/// Splits a **normalized** series into a fit slice and a validation slice
/// for early stopping. The validation slice covers the last ~20% of
/// targets plus `lags` context samples so every target has a full lag
/// window; the fit slice holds everything before those targets.
///
/// Returns `None` when the series is too short to hold out anything —
/// a fit slice must still yield at least one training window. Callers
/// fall back to fixed-epoch training in that case, so series shorter
/// than the lag window never panic here or downstream.
///
/// # Panics
///
/// Panics if `lags` is zero.
pub fn holdout_split(series: &[f64], lags: usize) -> Option<(&[f64], &[f64])> {
    assert!(lags > 0, "need at least one lag");
    let n = series.len();
    let targets = (n / 5).max(1);
    // fit needs lags+1 samples for one window; val needs its targets plus
    // lags context samples, which overlap the fit tail
    if n < targets + lags + 1 {
        return None;
    }
    let fit = &series[..n - targets];
    let val = &series[n - targets - lags..];
    Some((fit, val))
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

/// Shared training hyper-parameters. Defaults follow §5.1: 100 epochs,
/// batch size 1 (implicit — updates are per-sample), and no early
/// stopping — `patience == 0` reproduces the paper's fixed-epoch
/// pretraining bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training windows (an upper bound when
    /// early stopping is enabled).
    pub epochs: usize,
    /// Lag-window length fed to the model per prediction.
    pub lags: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Early-stopping patience: stop after this many consecutive epochs
    /// without at least `min_delta` of validation-error improvement.
    /// `0` disables early stopping (the paper-faithful default).
    pub patience: usize,
    /// Minimum validation-error improvement that counts as progress for
    /// the patience counter. Ignored when `patience == 0`.
    pub min_delta: f64,
    /// Epochs exempt from early-stopping bookkeeping. Per-sample Adam
    /// passes through a transient in its first few epochs where the
    /// validation error rises before converging; a barely trained
    /// persistence-like epoch-1 model can therefore look like the "best"
    /// and exhaust patience before real learning starts. No best is
    /// recorded and no strikes accrue until `warmup` epochs have run.
    /// Ignored when `patience == 0`.
    pub warmup: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            lags: 20,
            lr: 5e-3,
            patience: 0,
            min_delta: 0.0,
            warmup: 0,
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
            patience: 0,
            min_delta: 0.0,
            warmup: 0,
        }
    }

    /// The production serving configuration: the paper's hyper-parameters
    /// with early stopping armed, so pretraining cuts off once the
    /// validation curve flattens instead of always paying 100 epochs.
    pub fn production() -> Self {
        TrainConfig {
            patience: 8,
            min_delta: 1e-4,
            warmup: 12,
            ..TrainConfig::default()
        }
    }

    /// Returns this configuration with early stopping armed.
    pub fn with_early_stopping(mut self, patience: usize, min_delta: f64) -> Self {
        self.patience = patience;
        self.min_delta = min_delta;
        self
    }
}

/// What [`EarlyStopper::observe`] decided about the latest epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopVerdict {
    /// The epoch set a new strict best — snapshot the weights now.
    pub new_best: bool,
    /// Patience is exhausted — stop training and restore the best
    /// snapshot.
    pub stop: bool,
}

/// Patience/min-delta early stopping over a per-epoch validation metric.
///
/// Strict improvements (`err < best`) update the best and should trigger
/// a weight snapshot; only improvements of at least `min_delta` reset the
/// patience counter, so a long tail of vanishing gains still terminates.
/// A non-finite metric counts as a strike (it can never improve on a
/// finite best).
#[derive(Debug, Clone)]
pub struct EarlyStopper {
    patience: usize,
    min_delta: f64,
    best: f64,
    strikes: usize,
}

impl EarlyStopper {
    /// Creates a stopper.
    ///
    /// # Panics
    ///
    /// Panics if `patience` is zero (a zero-patience stopper would stop
    /// after the first epoch unconditionally — disable early stopping via
    /// `TrainConfig::patience = 0` instead).
    pub fn new(patience: usize, min_delta: f64) -> Self {
        assert!(patience > 0, "early-stopping patience must be positive");
        EarlyStopper {
            patience,
            min_delta: min_delta.max(0.0),
            best: f64::INFINITY,
            strikes: 0,
        }
    }

    /// Feeds one epoch's validation error and returns the verdict.
    pub fn observe(&mut self, err: f64) -> StopVerdict {
        if err < self.best - self.min_delta {
            self.strikes = 0;
        } else {
            self.strikes += 1;
        }
        let new_best = err < self.best;
        if new_best {
            self.best = err;
        }
        StopVerdict {
            new_best,
            stop: self.strikes >= self.patience,
        }
    }

    /// Best validation error seen so far (`+inf` before any observation).
    pub fn best(&self) -> f64 {
        self.best
    }
}

/// Validation error of `predict` over a normalized slice (`lags` context
/// samples followed by the targets), evaluated in raw rate space as
/// normalized MAE — total absolute error over total actual rate, the
/// complement of [`crate::eval::accuracy`]. MAPE is deliberately NOT the
/// stopping metric: it weights low-rate troughs so heavily that a barely
/// trained persistence-like forecaster scores best and early stopping
/// fires after one epoch, while the serving metric (accuracy) keeps
/// improving for dozens more. Stopping on the metric the forecasts are
/// judged by makes the validation curve track what serving cares about.
pub(crate) fn val_error_over(
    val: &[f64],
    lags: usize,
    scaler: Scaler,
    mut predict: impl FnMut(&[f64]) -> f64,
) -> f64 {
    debug_assert!(val.len() > lags, "validation slice too short");
    let mut abs_err = 0.0;
    let mut total = 0.0;
    for i in 0..val.len() - lags {
        let y = predict(&val[i..i + lags]);
        let pred = scaler.inverse(y).max(0.0);
        let actual = scaler.inverse(val[i + lags]).max(0.0);
        abs_err += (pred - actual).abs();
        total += actual;
    }
    if total <= 0.0 {
        // an all-zero tail: any nonzero prediction is infinitely wrong
        return if abs_err == 0.0 { 0.0 } else { f64::INFINITY };
    }
    abs_err / total
}

/// Shared early-stopped training driver: runs `epoch_fn` (one training
/// pass returning the epoch's validation error) up to `epochs` times,
/// snapshots the model via [`LoadPredictor::checkpoint`] on every strict
/// best after the `warmup` exemption window, stops when `patience` epochs
/// pass without `min_delta` of improvement, and restores the best
/// snapshot. Returns the effective epoch count of the weights the model
/// ends up with.
///
/// [`LoadPredictor::checkpoint`]: crate::predictor::LoadPredictor::checkpoint
pub(crate) fn run_early_stopped<M: crate::predictor::LoadPredictor + ?Sized>(
    model: &mut M,
    cfg: TrainConfig,
    mut epoch_fn: impl FnMut(&mut M) -> f64,
) -> usize {
    let mut stopper = EarlyStopper::new(cfg.patience, cfg.min_delta);
    let mut best: Option<Vec<u8>> = None;
    let mut best_epoch = 0;
    let mut ran = 0;
    for epoch in 1..=cfg.epochs {
        let err = epoch_fn(model);
        ran = epoch;
        if epoch <= cfg.warmup {
            continue;
        }
        let verdict = stopper.observe(err);
        if verdict.new_best {
            best = model.checkpoint();
            best_epoch = epoch;
        }
        if verdict.stop {
            break;
        }
    }
    match best {
        Some(bytes) => {
            model
                .restore(&bytes)
                .expect("self-written snapshot must restore");
            best_epoch
        }
        None => ran,
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
        assert!(holdout_split(&[], 5).is_none());
    }

    #[test]
    fn single_sample_splits_and_windows_safely() {
        let series = [42.0];
        let (train, test) = train_test_split(&series);
        assert!(train.is_empty());
        assert_eq!(test, &[42.0]);
        assert!(windowed_pairs(&series, 5).is_empty());
        assert!(holdout_split(&series, 5).is_none());
    }

    #[test]
    fn lags_minus_one_series_splits_and_windows_safely() {
        let lags = 5;
        let series: Vec<f64> = (0..lags - 1).map(|v| v as f64).collect();
        let (train, test) = train_test_split(&series);
        assert_eq!(train.len() + test.len(), series.len());
        assert!(windowed_pairs(&series, lags).is_empty());
        assert!(holdout_split(&series, lags).is_none());
    }

    #[test]
    fn holdout_reserves_a_tail_with_context() {
        let series: Vec<f64> = (0..100).map(|v| v as f64).collect();
        let (fit, val) = holdout_split(&series, 10).unwrap();
        // 20 validation targets, each with a full 10-lag window
        assert_eq!(fit.len(), 80);
        assert_eq!(val.len(), 30);
        assert_eq!(val[0], 70.0);
        // fit can produce at least one training window
        assert!(fit.len() > 10);
    }

    #[test]
    fn holdout_smallest_viable_series() {
        // targets = max(1, 7/5) = 1, so 7 = 1 + 5 + 1 is the minimum
        let series: Vec<f64> = (0..7).map(|v| v as f64).collect();
        assert!(holdout_split(&series[..6], 5).is_none());
        let (fit, val) = holdout_split(&series, 5).unwrap();
        assert_eq!(fit.len(), 6);
        assert_eq!(val.len(), 6);
    }

    #[test]
    fn early_stopper_tracks_best_and_patience() {
        let mut s = EarlyStopper::new(2, 0.01);
        assert_eq!(
            s.observe(0.5),
            StopVerdict {
                new_best: true,
                stop: false
            }
        );
        // strict improvement below min_delta: snapshots but strikes
        assert_eq!(
            s.observe(0.495),
            StopVerdict {
                new_best: true,
                stop: false
            }
        );
        // second strike in a row: stop
        let v = s.observe(0.494);
        assert!(v.new_best && v.stop);
        assert_eq!(s.best(), 0.494);
    }

    #[test]
    fn early_stopper_resets_on_real_improvement() {
        let mut s = EarlyStopper::new(2, 0.01);
        s.observe(0.5);
        s.observe(0.499); // strike 1
        let v = s.observe(0.4); // real improvement: counter resets
        assert!(v.new_best && !v.stop);
        s.observe(0.4); // strike 1
        assert!(s.observe(0.4).stop); // strike 2
    }

    #[test]
    fn early_stopper_strikes_on_non_finite() {
        let mut s = EarlyStopper::new(1, 0.0);
        assert!(s.observe(f64::NAN).stop);
        assert_eq!(s.best(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn early_stopper_zero_patience_rejected() {
        let _ = EarlyStopper::new(0, 0.1);
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
