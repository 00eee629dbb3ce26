//! Simple feed-forward predictor: a 2-layer MLP over the lag window,
//! matching GluonTS's `SimpleFeedForwardEstimator` baseline in Figure 6a.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter, TAG_FEEDFORWARD};
use crate::models::LagWindow;
use crate::nn::math::tanh_slice;
use crate::nn::Dense;
use crate::predictor::LoadPredictor;
use crate::train::{windowed_pairs, Scaler, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `lags → hidden (tanh) → 1` multilayer perceptron.
#[derive(Debug, Clone)]
pub struct SimpleFfPredictor {
    cfg: TrainConfig,
    l1: Dense,
    l2: Dense,
    scaler: Scaler,
    window: LagWindow,
    trained: bool,
    /// Global Adam step, persisted across pretrain calls so optimizer
    /// moments and bias correction stay consistent on retraining.
    train_step: u64,
    /// Pretraining epochs run (checkpointed state).
    epochs_run: usize,
    /// Scratch: raw padded lag window.
    raw_buf: Vec<f64>,
    /// Scratch: normalized lag window.
    norm_buf: Vec<f64>,
    /// Scratch: hidden pre-activations.
    h_pre: Vec<f64>,
    /// Scratch: hidden post-tanh activations.
    h: Vec<f64>,
    /// Scratch: model output (length 1).
    out: Vec<f64>,
    /// Scratch: dL/dh.
    dh: Vec<f64>,
    /// Scratch: dL/dh before the tanh gate.
    dh_pre: Vec<f64>,
}

impl SimpleFfPredictor {
    /// Creates the model with `hidden` units; weight init is seeded.
    pub fn new(cfg: TrainConfig, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        SimpleFfPredictor {
            l1: Dense::new(cfg.lags, hidden, cfg.lr, &mut rng),
            l2: Dense::new(hidden, 1, cfg.lr, &mut rng),
            scaler: Scaler::fit(&[]),
            window: LagWindow::new(cfg.lags),
            cfg,
            trained: false,
            train_step: 0,
            epochs_run: 0,
            raw_buf: Vec::new(),
            norm_buf: Vec::new(),
            h_pre: vec![0.0; hidden],
            h: vec![0.0; hidden],
            out: vec![0.0; 1],
            dh: vec![0.0; hidden],
            dh_pre: vec![0.0; hidden],
        }
    }

    /// Paper-scale configuration: 32 hidden units, 100 epochs. Uses a
    /// smaller learning rate than the recurrent models: per-sample Adam at
    /// the shared default oscillates on an MLP over this many steps.
    pub fn paper_default(seed: u64) -> Self {
        let cfg = TrainConfig {
            lr: 1e-3,
            ..TrainConfig::default()
        };
        SimpleFfPredictor::new(cfg, 32, seed)
    }

    /// Scratch-buffer forward; leaves hidden activations in `self.h` for
    /// the backward pass.
    fn predict_normalized_flat(&mut self, x: &[f64]) -> f64 {
        self.l1.forward_into(x, &mut self.h_pre);
        self.h.copy_from_slice(&self.h_pre);
        tanh_slice(&mut self.h);
        self.l2.forward_into(&self.h, &mut self.out);
        self.out[0]
    }

    /// One training pass over every window pair, reusing the scratch
    /// buffers.
    fn fit_pass(&mut self, pairs: &[(Vec<f64>, f64)]) {
        for (x, y) in pairs {
            let out = self.predict_normalized_flat(x);
            let dy = [2.0 * (out - y)];
            self.l2.backward_into(&self.h, &dy, &mut self.dh);
            for (dp, (g, hv)) in self.dh_pre.iter_mut().zip(self.dh.iter().zip(&self.h)) {
                *dp = g * crate::nn::tanh_deriv(*hv);
            }
            // dL/dx of the input layer feeds nothing — skip the matvec
            self.l1.accumulate_grads(x, &self.dh_pre);
            self.apply_grads();
        }
    }

    /// Advances the global Adam step and applies accumulated gradients.
    fn apply_grads(&mut self) {
        self.train_step += 1;
        let t = self.train_step;
        self.l1.apply_grads(t);
        self.l2.apply_grads(t);
    }

    /// Serializes the model to checkpoint bytes (DESIGN.md §15).
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new(TAG_FEEDFORWARD);
        w.u64(self.cfg.epochs as u64);
        w.u64(self.cfg.lags as u64);
        w.f64(self.cfg.lr);
        w.u8(u8::from(self.trained));
        w.u64(self.train_step);
        w.u64(self.epochs_run as u64);
        self.scaler.save_state(&mut w);
        self.l1.save_state(&mut w);
        self.l2.save_state(&mut w);
        w.finish()
    }

    /// Restores a checkpoint written by a same-shaped model.
    /// Transactional: on any error, `self` is untouched.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut staged = self.clone();
        let (tag, mut r) = CkptReader::open(bytes)?;
        if tag != TAG_FEEDFORWARD {
            return Err(CheckpointError::ModelMismatch(
                "not a feedforward checkpoint",
            ));
        }
        let _epochs = r.u64()?;
        let lags = r.u64()? as usize;
        if lags != staged.cfg.lags {
            return Err(CheckpointError::ModelMismatch("lag window length"));
        }
        let _lr = r.f64()?; // informational; Adam state validates lr per buffer
        staged.trained = r.u8()? != 0;
        staged.train_step = r.u64()?;
        staged.epochs_run = r.u64()? as usize;
        staged.scaler = Scaler::load_state(&mut r)?;
        staged.l1.load_state(&mut r)?;
        staged.l2.load_state(&mut r)?;
        r.expect_end()?;
        *self = staged;
        Ok(())
    }
}

impl LoadPredictor for SimpleFfPredictor {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
    }

    fn forecast(&mut self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.padded_into(&mut self.raw_buf);
        if !self.trained {
            // untrained fallback: last observation
            return *self.raw_buf.last().expect("window is non-empty");
        }
        self.scaler
            .transform_series_into(&self.raw_buf, &mut self.norm_buf);
        let x = std::mem::take(&mut self.norm_buf);
        let y = self.predict_normalized_flat(&x);
        self.norm_buf = x;
        self.scaler.inverse(y).max(0.0)
    }

    fn pretrain(&mut self, series: &[f64]) {
        self.scaler = Scaler::fit(series);
        let norm = self.scaler.transform_series(series);
        let pairs = windowed_pairs(&norm, self.cfg.lags);
        if pairs.is_empty() {
            return;
        }
        for _ in 0..self.cfg.epochs {
            self.fit_pass(&pairs);
        }
        self.trained = true;
        self.epochs_run = self.cfg.epochs;
    }

    fn name(&self) -> &'static str {
        "Simple FF."
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.checkpoint_bytes())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.restore_bytes(bytes)
    }

    fn reset(&mut self) {
        self.window.clear();
    }
}

/// The original per-call-allocating forward and training step, kept as
/// the test oracle the scratch-buffer path is checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::models::ReferenceNn;
    use crate::nn::math::tanh;

    impl SimpleFfPredictor {
        fn predict_normalized(&self, x: &[f64]) -> f64 {
            let h: Vec<f64> = self.l1.forward(x).iter().map(|&v| tanh(v)).collect();
            self.l2.forward(&h)[0]
        }
    }

    impl ReferenceNn for SimpleFfPredictor {
        fn reference_pretrain(&mut self, series: &[f64]) {
            self.scaler = Scaler::fit(series);
            let norm = self.scaler.transform_series(series);
            let pairs = windowed_pairs(&norm, self.cfg.lags);
            if pairs.is_empty() {
                return;
            }
            for _ in 0..self.cfg.epochs {
                for (x, y) in &pairs {
                    let h_pre = self.l1.forward(x);
                    let h: Vec<f64> = h_pre.iter().map(|&v| tanh(v)).collect();
                    let out = self.l2.forward(&h)[0];
                    let dy = [2.0 * (out - y)];
                    let dh = self.l2.backward(&h, &dy);
                    let dh_pre: Vec<f64> = dh
                        .iter()
                        .zip(&h)
                        .map(|(g, hv)| g * crate::nn::tanh_deriv(*hv))
                        .collect();
                    self.l1.backward(x, &dh_pre);
                    self.apply_grads();
                }
            }
            self.trained = true;
            self.epochs_run = self.cfg.epochs;
        }

        fn reference_forecast(&mut self) -> f64 {
            if self.window.is_empty() {
                return 0.0;
            }
            let raw = self.window.padded();
            if !self.trained {
                return *raw.last().expect("window is non-empty");
            }
            let x = self.scaler.transform_series(&raw);
            self.scaler.inverse(self.predict_normalized(&x)).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ReferenceNn;

    #[test]
    fn untrained_forecasts_last_observation() {
        let mut p = SimpleFfPredictor::new(TrainConfig::fast(), 8, 1);
        p.observe(33.0);
        p.observe(44.0);
        assert_eq!(p.forecast(), 44.0);
    }

    #[test]
    fn learns_constant_series() {
        let mut p = SimpleFfPredictor::new(TrainConfig::fast(), 8, 2);
        let series = vec![80.0; 100];
        p.pretrain(&series);
        for _ in 0..10 {
            p.observe(80.0);
        }
        let f = p.forecast();
        assert!((f - 80.0).abs() < 12.0, "constant forecast {f}");
    }

    #[test]
    fn forecast_nonnegative_even_for_declines() {
        let mut p = SimpleFfPredictor::new(TrainConfig::fast(), 8, 3);
        let series: Vec<f64> = (0..120).map(|i| (120 - i) as f64).collect();
        p.pretrain(&series);
        for v in [5.0, 4.0, 3.0, 2.0, 1.0] {
            p.observe(v);
        }
        assert!(p.forecast() >= 0.0);
    }

    /// Product path vs the reference oracle: bit-identical forecasts after
    /// pretraining on the same seed and data.
    #[test]
    fn flat_path_matches_reference_oracle() {
        let series: Vec<f64> = (0..120)
            .map(|i| 60.0 + 35.0 * (i as f64 * 0.25).sin())
            .collect();
        let mut product = SimpleFfPredictor::new(TrainConfig::fast(), 8, 13);
        let mut reference = product.clone();
        product.pretrain(&series);
        reference.reference_pretrain(&series);
        for &v in &series[series.len() - 12..] {
            product.observe(v);
            reference.observe(v);
            assert_eq!(product.forecast(), reference.reference_forecast());
        }
    }

    #[test]
    fn pretrain_on_tiny_series_is_safe() {
        let mut p = SimpleFfPredictor::new(TrainConfig::fast(), 4, 4);
        p.pretrain(&[1.0, 2.0]); // shorter than lags
        p.observe(5.0);
        assert!(p.forecast().is_finite());
    }
}
