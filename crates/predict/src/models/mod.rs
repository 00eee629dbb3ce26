//! The four neural predictors compared in Figure 6a, built on [`crate::nn`].
//!
//! All four share the same protocol: [`pretrain`](crate::LoadPredictor::pretrain)
//! fits a [`Scaler`](crate::train::Scaler) and runs the training loop on the
//! historical series; at runtime the model keeps a rolling lag window of
//! observations and forecasts one step ahead.

mod deepar;
mod feedforward;
mod lstm;
mod weavenet;

pub use deepar::DeepArPredictor;
pub use feedforward::SimpleFfPredictor;
pub use lstm::LstmPredictor;
pub use weavenet::WeaveNetPredictor;

use std::collections::VecDeque;

/// Test oracle for the four neural models. Each model keeps its original
/// per-step-allocating NN stack beside the product one, under
/// `#[cfg(test)]`; the product path must match it with `==` on floats.
#[cfg(test)]
pub(crate) trait ReferenceNn: crate::LoadPredictor {
    /// Fixed-epoch pretraining on the reference stack.
    fn reference_pretrain(&mut self, series: &[f64]);

    /// One-step forecast from the current lag window on the reference
    /// stack.
    fn reference_forecast(&mut self) -> f64;
}

/// Rolling lag window shared by the neural predictors.
#[derive(Debug, Clone)]
pub(crate) struct LagWindow {
    lags: usize,
    values: VecDeque<f64>,
}

impl LagWindow {
    pub(crate) fn new(lags: usize) -> Self {
        assert!(lags > 0, "need at least one lag");
        LagWindow {
            lags,
            values: VecDeque::with_capacity(lags),
        }
    }

    pub(crate) fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.values.len() == self.lags {
            self.values.pop_front();
        }
        self.values.push_back(v.max(0.0));
    }

    /// The window as a fixed-length vector, front-padded with the oldest
    /// value (or zeros when empty) so models always see `lags` inputs.
    #[cfg(test)]
    pub(crate) fn padded(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.lags);
        self.padded_into(&mut out);
        out
    }

    /// Fills `out` with the fixed-length window, front-padded with the
    /// oldest value (or zeros when empty) so models always see `lags`
    /// inputs — without allocating, since `forecast()` calls this every
    /// monitor tick.
    pub(crate) fn padded_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let pad = self.values.front().copied().unwrap_or(0.0);
        out.resize(self.lags - self.values.len(), pad);
        out.extend(self.values.iter());
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.values.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_window_pads_with_oldest() {
        let mut w = LagWindow::new(4);
        w.push(5.0);
        w.push(7.0);
        assert_eq!(w.padded(), vec![5.0, 5.0, 5.0, 7.0]);
    }

    #[test]
    fn lag_window_empty_pads_zero() {
        let w = LagWindow::new(3);
        assert_eq!(w.padded(), vec![0.0, 0.0, 0.0]);
        assert!(w.is_empty());
    }

    #[test]
    fn lag_window_evicts_oldest() {
        let mut w = LagWindow::new(2);
        for v in [1.0, 2.0, 3.0] {
            w.push(v);
        }
        assert_eq!(w.padded(), vec![2.0, 3.0]);
    }

    #[test]
    fn lag_window_rejects_non_finite_and_negative() {
        let mut w = LagWindow::new(2);
        w.push(f64::NAN);
        assert!(w.is_empty());
        w.push(-3.0);
        assert_eq!(w.padded(), vec![0.0, 0.0]);
    }
}

/// Shared integration tests: every neural model must learn an easy
/// repeating pattern better than predicting the mean.
#[cfg(test)]
mod model_tests {
    use crate::predictor::LoadPredictor;
    use crate::train::TrainConfig;
    use crate::{DeepArPredictor, LstmPredictor, SimpleFfPredictor, WeaveNetPredictor};

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 100.0 + 80.0 * (i as f64 * 0.35).sin())
            .collect()
    }

    fn eval_model(p: &mut dyn LoadPredictor) -> (f64, f64) {
        let series = sine_series(400);
        let (train, test) = crate::train::train_test_split(&series);
        p.pretrain(train);
        // warm the window with the end of train
        for &v in &train[train.len().saturating_sub(32)..] {
            p.observe(v);
        }
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for &v in test {
            preds.push(p.forecast());
            actuals.push(v);
            p.observe(v);
        }
        let model_rmse = crate::eval::rmse(&preds, &actuals);
        let mean = actuals.iter().sum::<f64>() / actuals.len() as f64;
        let baseline: Vec<f64> = vec![mean; actuals.len()];
        (model_rmse, crate::eval::rmse(&baseline, &actuals))
    }

    #[test]
    fn feedforward_beats_mean_baseline() {
        let mut p = SimpleFfPredictor::new(TrainConfig::fast(), 16, 1);
        let (model, baseline) = eval_model(&mut p);
        assert!(model < baseline, "FF rmse {model} vs baseline {baseline}");
    }

    #[test]
    fn lstm_beats_mean_baseline() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 12;
        let mut p = LstmPredictor::new(cfg, 16, 1, 2);
        let (model, baseline) = eval_model(&mut p);
        assert!(model < baseline, "LSTM rmse {model} vs baseline {baseline}");
    }

    #[test]
    fn deepar_beats_mean_baseline() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 12;
        let mut p = DeepArPredictor::new(cfg, 16, 1);
        let (model, baseline) = eval_model(&mut p);
        assert!(
            model < baseline,
            "DeepAR rmse {model} vs baseline {baseline}"
        );
    }

    #[test]
    fn weavenet_beats_mean_baseline() {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 25;
        let mut p = WeaveNetPredictor::new(cfg, 8, 1);
        let (model, baseline) = eval_model(&mut p);
        assert!(
            model < baseline,
            "WeaveNet rmse {model} vs baseline {baseline}"
        );
    }

    #[test]
    fn untrained_models_still_forecast_finitely() {
        let mut models: Vec<Box<dyn LoadPredictor>> = vec![
            Box::new(SimpleFfPredictor::paper_default(1)),
            Box::new(LstmPredictor::paper_default(1)),
            Box::new(DeepArPredictor::paper_default(1)),
            Box::new(WeaveNetPredictor::paper_default(1)),
        ];
        for m in models.iter_mut() {
            m.observe(50.0);
            let f = m.forecast();
            assert!(f.is_finite() && f >= 0.0, "{}: {f}", m.name());
        }
    }
}
