//! The [`LoadPredictor`] trait and the [`PredictorKind`] registry.

use crate::checkpoint::CheckpointError;
use std::fmt;

/// A one-step-ahead load forecaster.
///
/// The simulator feeds each monitoring interval's observed window-max
/// arrival rate via [`observe`](LoadPredictor::observe), then asks for the
/// forecast of the next interval via [`forecast`](LoadPredictor::forecast).
/// Neural models are additionally pre-trained on historical data via
/// [`pretrain`](LoadPredictor::pretrain) — the paper trains on 60% of the
/// trace (§8).
///
/// Implementations must be deterministic given the same seed/observations.
pub trait LoadPredictor {
    /// Feeds one observed rate sample (requests/second), newest last.
    fn observe(&mut self, rate: f64);

    /// Forecasts the rate of the next interval.
    ///
    /// Returns 0 when no observation has been made yet. Never returns a
    /// negative or non-finite value.
    fn forecast(&mut self) -> f64;

    /// Offline pre-training on a historical rate series. Classical models
    /// ignore this (they fit online); neural models run their full
    /// training loop.
    fn pretrain(&mut self, _series: &[f64]) {}

    /// Short model name as used in Figure 6a.
    fn name(&self) -> &'static str;

    /// Clears online state (observations), keeping trained weights.
    fn reset(&mut self);

    /// Serializes the trained state to versioned checkpoint bytes
    /// (DESIGN.md §15), or `None` for predictors without trained state
    /// worth caching (the classical family re-derives everything from
    /// observations).
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores trained state from [`checkpoint`](Self::checkpoint)
    /// bytes. Fails loud — and leaves `self` untouched — on a damaged,
    /// truncated, version-bumped, or differently-shaped checkpoint. The
    /// default (classical models) rejects every checkpoint as
    /// [`CheckpointError::Unsupported`].
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), CheckpointError> {
        Err(CheckpointError::Unsupported)
    }

    /// Arms periodic online fine-tuning over the recent observation tail
    /// (the paper's §8 "constantly retrain in the background" extension):
    /// every `every` observations, run `epochs` fine-tuning passes.
    /// Models without a retraining loop — the classical family fits
    /// online by construction — ignore this. Zero values disable.
    fn enable_online_retraining(&mut self, _every: usize, _epochs: usize) {}
}

/// Identifies one of the eight predictors compared in Figure 6a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredictorKind {
    /// Moving-window average.
    Mwa,
    /// Exponentially weighted moving average.
    Ewma,
    /// Online linear regression over the recent window.
    LinearRegression,
    /// Online logistic-curve regression over the recent window.
    LogisticRegression,
    /// Simple feed-forward network (MLP).
    SimpleFeedForward,
    /// WeaveNet-style dilated causal convolution network.
    WeaveNet,
    /// DeepAR-style autoregressive probabilistic RNN.
    DeepAr,
    /// Long short-term memory network — the model Fifer adopts.
    Lstm,
}

impl PredictorKind {
    /// All kinds in Figure 6a's x-axis order.
    pub const ALL: [PredictorKind; 8] = [
        PredictorKind::Mwa,
        PredictorKind::Ewma,
        PredictorKind::LinearRegression,
        PredictorKind::LogisticRegression,
        PredictorKind::SimpleFeedForward,
        PredictorKind::WeaveNet,
        PredictorKind::DeepAr,
        PredictorKind::Lstm,
    ];

    /// `true` for the four models that require pre-training.
    pub fn is_neural(self) -> bool {
        matches!(
            self,
            PredictorKind::SimpleFeedForward
                | PredictorKind::WeaveNet
                | PredictorKind::DeepAr
                | PredictorKind::Lstm
        )
    }

    /// `true` for the models whose
    /// [`enable_online_retraining`](LoadPredictor::enable_online_retraining)
    /// arms a retraining loop: the LSTM alone. Every other kind keeps the
    /// trait's no-op.
    pub fn retrains_online(self) -> bool {
        self == PredictorKind::Lstm
    }

    /// Instantiates the predictor with its paper-default configuration and
    /// the given weight-initialization seed.
    pub fn build(self, seed: u64) -> Box<dyn LoadPredictor + Send> {
        match self {
            PredictorKind::Mwa => Box::new(crate::classic::MovingWindowAverage::paper_default()),
            PredictorKind::Ewma => Box::new(crate::classic::Ewma::paper_default()),
            PredictorKind::LinearRegression => {
                Box::new(crate::classic::LinearTrend::paper_default())
            }
            PredictorKind::LogisticRegression => {
                Box::new(crate::classic::LogisticTrend::paper_default())
            }
            PredictorKind::SimpleFeedForward => {
                Box::new(crate::models::SimpleFfPredictor::paper_default(seed))
            }
            PredictorKind::WeaveNet => {
                Box::new(crate::models::WeaveNetPredictor::paper_default(seed))
            }
            PredictorKind::DeepAr => Box::new(crate::models::DeepArPredictor::paper_default(seed)),
            PredictorKind::Lstm => Box::new(crate::models::LstmPredictor::paper_default(seed)),
        }
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            PredictorKind::Mwa => "MWA",
            PredictorKind::Ewma => "EWMA",
            PredictorKind::LinearRegression => "Linear R.",
            PredictorKind::LogisticRegression => "Logistic R.",
            PredictorKind::SimpleFeedForward => "Simple FF.",
            PredictorKind::WeaveNet => "WeaveNet",
            PredictorKind::DeepAr => "DeepAREst",
            PredictorKind::Lstm => "LSTM",
        };
        f.write_str(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build() {
        for kind in PredictorKind::ALL {
            let mut p = kind.build(1);
            assert_eq!(p.forecast(), 0.0, "{kind}: empty forecast must be 0");
            p.observe(10.0);
            let f = p.forecast();
            assert!(f.is_finite() && f >= 0.0, "{kind}: forecast {f}");
        }
    }

    #[test]
    fn neural_flag_matches_families() {
        assert!(!PredictorKind::Mwa.is_neural());
        assert!(!PredictorKind::LogisticRegression.is_neural());
        assert!(PredictorKind::Lstm.is_neural());
        assert!(PredictorKind::WeaveNet.is_neural());
        let neural = PredictorKind::ALL.iter().filter(|k| k.is_neural()).count();
        assert_eq!(neural, 4);
    }

    /// Arming online retraining changes a kind's forecasts exactly when
    /// [`PredictorKind::retrains_online`] says it retrains.
    #[test]
    fn retrains_online_matches_the_retraining_hook() {
        let series: Vec<f64> = (0..40)
            .map(|i| 6.0 + 3.0 * (i as f64 * 0.3).sin())
            .collect();
        for kind in PredictorKind::ALL {
            let forecasts = |online: bool| -> Vec<f64> {
                let mut p = kind.build(1);
                if online {
                    p.enable_online_retraining(8, 1);
                }
                series
                    .iter()
                    .map(|&v| {
                        p.observe(v);
                        p.forecast()
                    })
                    .collect()
            };
            let moved = forecasts(true) != forecasts(false);
            assert_eq!(moved, kind.retrains_online(), "{kind}");
        }
    }

    #[test]
    fn display_matches_figure6_labels() {
        assert_eq!(PredictorKind::Lstm.to_string(), "LSTM");
        assert_eq!(PredictorKind::Ewma.to_string(), "EWMA");
        assert_eq!(PredictorKind::SimpleFeedForward.to_string(), "Simple FF.");
    }

    /// The reference oracle for a neural kind: the same paper-default
    /// model [`PredictorKind::build`] returns, driven through its original
    /// per-step-allocating NN stack.
    fn oracle(kind: PredictorKind, seed: u64) -> Box<dyn crate::models::ReferenceNn> {
        use crate::models::*;
        match kind {
            PredictorKind::SimpleFeedForward => Box::new(SimpleFfPredictor::paper_default(seed)),
            PredictorKind::WeaveNet => Box::new(WeaveNetPredictor::paper_default(seed)),
            PredictorKind::DeepAr => Box::new(DeepArPredictor::paper_default(seed)),
            PredictorKind::Lstm => Box::new(LstmPredictor::paper_default(seed)),
            classical => unreachable!("{classical} has no NN stack"),
        }
    }

    /// Every neural predictor kind, pre-trained on several seeds, forecasts
    /// bit-identically to its reference oracle. This covers the
    /// predictor-facing surface the RMs build, whichever kinds the
    /// registry RMs happen to select.
    #[test]
    fn every_neural_predictor_kind_matches_its_oracle_across_seeds() {
        // enough points for the default 20 lags to form training pairs
        let series: Vec<f64> = (0..44)
            .map(|i| 6.0 + 3.0 * (i as f64 * 0.3).sin())
            .collect();
        let feed: Vec<f64> = (0..12).map(|i| 5.0 + (i as f64 * 0.7).cos()).collect();
        for kind in PredictorKind::ALL.iter().filter(|k| k.is_neural()) {
            for seed in [1_u64, 42, 2024] {
                let mut product = kind.build(seed);
                let mut reference = oracle(*kind, seed);
                product.pretrain(&series);
                reference.reference_pretrain(&series);
                for &v in &feed {
                    product.observe(v);
                    reference.observe(v);
                    let (a, b) = (product.forecast(), reference.reference_forecast());
                    assert_eq!(a, b, "{kind} seed {seed}: forecasts diverged");
                }
            }
        }
    }

    #[test]
    fn reset_clears_observations() {
        for kind in PredictorKind::ALL {
            let mut p = kind.build(2);
            for _ in 0..5 {
                p.observe(100.0);
            }
            p.reset();
            assert_eq!(p.forecast(), 0.0, "{kind}: reset must clear history");
        }
    }
}
