//! WeaveNet-style predictor: a stack of dilated causal convolutions with
//! ReLU activations and a dense head over the final timestep — the
//! WaveNet-family baseline in Figure 6a.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter, TAG_WEAVENET};
use crate::models::{normalize_into, LagWindow};
use crate::nn::{CausalConv1d, Dense};
use crate::predictor::LoadPredictor;
use crate::train::{Scaler, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Negative-branch slope of the leaky ReLU between conv layers. A plain
/// ReLU dies under per-sample Adam updates on this small network (every
/// unit's pre-activation can go negative at the only timestep that
/// receives gradient), collapsing the model to a constant.
const LEAK: f32 = 0.1;

fn leaky_relu(v: f32) -> f32 {
    if v >= 0.0 {
        v
    } else {
        LEAK * v
    }
}

/// Dilated-conv stack (`dilations` 1, 2, 4, …) over the lag window.
#[derive(Debug, Clone)]
pub struct WeaveNetPredictor {
    cfg: TrainConfig,
    convs: Vec<CausalConv1d>,
    head: Dense,
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
    norm_buf: Vec<f32>,
    /// Scratch: current layer input, `steps × ch` flat.
    feat_flat: Vec<f32>,
    /// Scratch: conv pre-activation output.
    conv_out: Vec<f32>,
    /// Per-layer post-ReLU activations, `steps × ch` flat each
    /// (fixed count — one reused buffer per conv layer).
    acts_flat: Vec<Vec<f32>>,
    /// Scratch: head output (length 1).
    head_out: Vec<f32>,
    /// Scratch: head input gradient (top channel count).
    dlast: Vec<f32>,
    /// Scratch: flat `steps × ch` loss gradient for the layer being
    /// backpropagated.
    dy_flat: Vec<f32>,
    /// Scratch: flat input gradient, ping-ponged with `dy_flat`.
    dx_flat: Vec<f32>,
}

impl WeaveNetPredictor {
    /// Creates the model with `channels` per conv layer. Dilations double
    /// per layer until the receptive field covers the lag window.
    pub fn new(cfg: TrainConfig, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lr = cfg.lr as f32;
        let mut convs = Vec::new();
        let mut dilation = 1;
        let mut in_ch = 1;
        while crate::nn::conv::receptive_field(
            &convs.iter().map(CausalConv1d::dilation).collect::<Vec<_>>(),
        ) < cfg.lags
        {
            convs.push(CausalConv1d::new(in_ch, channels, dilation, lr, &mut rng));
            in_ch = channels;
            dilation *= 2;
        }
        if convs.is_empty() {
            convs.push(CausalConv1d::new(1, channels, 1, lr, &mut rng));
        }
        WeaveNetPredictor {
            head: Dense::new(channels, 1, lr, &mut rng),
            acts_flat: vec![Vec::new(); convs.len()],
            convs,
            scaler: Scaler::fit(&[]),
            window: LagWindow::new(cfg.lags),
            cfg,
            trained: false,
            train_step: 0,
            epochs_run: 0,
            raw_buf: Vec::new(),
            norm_buf: Vec::new(),
            feat_flat: Vec::new(),
            conv_out: Vec::new(),
            head_out: vec![0.0; 1],
            dlast: vec![0.0; channels],
            dy_flat: Vec::new(),
            dx_flat: Vec::new(),
        }
    }

    /// Paper-scale configuration: 16 channels.
    pub fn paper_default(seed: u64) -> Self {
        WeaveNetPredictor::new(TrainConfig::default(), 16, seed)
    }

    /// Number of conv layers in the stack.
    pub fn depth(&self) -> usize {
        self.convs.len()
    }

    /// Forward pass over the flat layout: leaves each layer's post-ReLU
    /// activations in `acts_flat` for the backward pass and returns the
    /// prediction. Allocation-free in steady state.
    fn run_flat(&mut self, x: &[f32]) -> f32 {
        let steps = x.len();
        self.feat_flat.clear();
        self.feat_flat.extend_from_slice(x);
        for (l, conv) in self.convs.iter_mut().enumerate() {
            conv.forward_flat(&self.feat_flat, &mut self.conv_out);
            let act = &mut self.acts_flat[l];
            act.clear();
            act.extend(self.conv_out.iter().map(|&v| leaky_relu(v)));
            self.feat_flat.clear();
            self.feat_flat.extend_from_slice(act);
        }
        let top_ch = self.convs.last().expect("non-empty stack").out_ch();
        let last = &self.acts_flat[self.convs.len() - 1][(steps - 1) * top_ch..steps * top_ch];
        self.head.forward_into(last, &mut self.head_out);
        self.head_out[0]
    }

    /// Backward pass over the flat layout: seeds the gradient at the final
    /// timestep of the top layer, applies the leaky-ReLU gate per layer,
    /// and chains `backward_flat` down the stack ping-ponging the flat
    /// gradient buffers.
    fn backward_flat_stack(&mut self, derr: f32, steps: usize) {
        let top = self.convs.len() - 1;
        let top_ch = self.convs[top].out_ch();
        let last = &self.acts_flat[top][(steps - 1) * top_ch..steps * top_ch];
        self.head.backward_into(last, &[derr], &mut self.dlast);
        self.dy_flat.clear();
        self.dy_flat.resize(steps * top_ch, 0.0);
        self.dy_flat[(steps - 1) * top_ch..].copy_from_slice(&self.dlast);
        for l in (0..self.convs.len()).rev() {
            // leaky-ReLU gate: damp gradient on the negative branch
            for (dv, &av) in self.dy_flat.iter_mut().zip(&self.acts_flat[l]) {
                if av < 0.0 {
                    *dv *= LEAK;
                }
            }
            self.convs[l].backward_flat(&self.dy_flat, &mut self.dx_flat);
            std::mem::swap(&mut self.dy_flat, &mut self.dx_flat);
        }
    }

    /// One training pass over every window of a normalized series, sliced
    /// straight out of it, reusing the flat buffers.
    fn fit_pass(&mut self, norm: &[f32]) {
        let lags = self.cfg.lags;
        for w in norm.windows(lags + 1) {
            let (x, target) = (&w[..lags], w[lags]);
            let y = self.run_flat(x);
            let derr = 2.0 * (y - target);
            self.backward_flat_stack(derr, x.len());
            self.apply_grads();
        }
    }

    /// Advances the global Adam step and applies accumulated gradients on
    /// every conv layer and the head.
    fn apply_grads(&mut self) {
        self.train_step += 1;
        let t = self.train_step;
        for conv in self.convs.iter_mut() {
            conv.apply_grads(t);
        }
        self.head.apply_grads(t);
    }

    /// Serializes the model to checkpoint bytes (DESIGN.md §15).
    fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new(TAG_WEAVENET);
        w.u64(self.cfg.epochs as u64);
        w.u64(self.cfg.lags as u64);
        w.f64(self.cfg.lr);
        w.u8(u8::from(self.trained));
        w.u64(self.train_step);
        w.u64(self.epochs_run as u64);
        self.scaler.save_state(&mut w);
        w.u32(self.convs.len() as u32);
        for conv in &self.convs {
            conv.save_state(&mut w);
        }
        self.head.save_state(&mut w);
        w.finish()
    }

    /// Restores a checkpoint written by a same-shaped model.
    /// Transactional: on any error, `self` is untouched.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut staged = self.clone();
        let (tag, mut r) = CkptReader::open(bytes)?;
        if tag != TAG_WEAVENET {
            return Err(CheckpointError::ModelMismatch("not a WeaveNet checkpoint"));
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
        if r.u32()? as usize != staged.convs.len() {
            return Err(CheckpointError::ModelMismatch("conv stack depth"));
        }
        for conv in staged.convs.iter_mut() {
            conv.load_state(&mut r)?;
        }
        staged.head.load_state(&mut r)?;
        r.expect_end()?;
        *self = staged;
        Ok(())
    }
}

impl LoadPredictor for WeaveNetPredictor {
    fn observe(&mut self, rate: f64) {
        self.window.push(rate);
    }

    fn forecast(&mut self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.padded_into(&mut self.raw_buf);
        if !self.trained {
            return *self.raw_buf.last().expect("window is non-empty");
        }
        normalize_into(&self.scaler, &self.raw_buf, &mut self.norm_buf);
        let x = std::mem::take(&mut self.norm_buf);
        let y = self.run_flat(&x);
        self.norm_buf = x;
        self.scaler.inverse(f64::from(y)).max(0.0)
    }

    fn pretrain(&mut self, series: &[f64]) {
        self.scaler = Scaler::fit(series);
        let mut norm = Vec::new();
        normalize_into(&self.scaler, series, &mut norm);
        if norm.len() <= self.cfg.lags {
            return;
        }
        for _ in 0..self.cfg.epochs {
            self.fit_pass(&norm);
        }
        self.trained = true;
        self.epochs_run = self.cfg.epochs;
    }

    fn name(&self) -> &'static str {
        "WeaveNet"
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

/// The original `Vec<Vec>` stack, kept as the test oracle the flat path
/// is checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::models::ReferenceNn;
    use crate::train::windowed_pairs;

    impl WeaveNetPredictor {
        /// Forward pass. Returns per-layer post-ReLU activations (for
        /// backward) and the prediction.
        fn run(&mut self, x: &[f32]) -> (Vec<Vec<Vec<f32>>>, f32) {
            let mut feat: Vec<Vec<f32>> = x.iter().map(|&v| vec![v]).collect();
            let mut activations = Vec::with_capacity(self.convs.len());
            for conv in self.convs.iter_mut() {
                let pre = conv.forward(&feat);
                feat = pre
                    .iter()
                    .map(|t| t.iter().map(|&v| leaky_relu(v)).collect())
                    .collect();
                activations.push(feat.clone());
            }
            let last = feat.last().cloned().unwrap_or_default();
            let y = self.head.forward(&last)[0];
            (activations, y)
        }
    }

    impl ReferenceNn for WeaveNetPredictor {
        fn reference_pretrain(&mut self, series: &[f64]) {
            self.scaler = Scaler::fit(series);
            let norm = self.scaler.transform_series(series);
            let pairs = windowed_pairs(&norm, self.cfg.lags);
            if pairs.is_empty() {
                return;
            }
            for _ in 0..self.cfg.epochs {
                for (x, target) in &pairs {
                    let x: Vec<f32> = x.iter().map(|&v| v as f32).collect();
                    let (activations, y) = self.run(&x);
                    let derr = 2.0 * (y - *target as f32);
                    let steps = x.len();
                    let top_act = activations.last().expect("at least one conv layer");
                    let dlast = self.head.backward(&top_act[steps - 1], &[derr]);
                    // seed gradient only at the final timestep of the top layer
                    let top_ch = self.convs.last().expect("non-empty stack").out_ch();
                    let mut dy: Vec<Vec<f32>> = vec![vec![0.0; top_ch]; steps];
                    dy[steps - 1] = dlast;
                    for l in (0..self.convs.len()).rev() {
                        // leaky-ReLU gate: damp gradient on the negative branch
                        for (dt, at) in dy.iter_mut().zip(&activations[l]) {
                            for (dv, &av) in dt.iter_mut().zip(at) {
                                if av < 0.0 {
                                    *dv *= LEAK;
                                }
                            }
                        }
                        dy = self.convs[l].backward(&dy);
                    }
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
            let mut x = Vec::new();
            normalize_into(&self.scaler, &raw, &mut x);
            let (_, y) = self.run(&x);
            self.scaler.inverse(f64::from(y)).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ReferenceNn;

    #[test]
    fn depth_covers_lag_window() {
        let p = WeaveNetPredictor::new(TrainConfig::default(), 8, 1);
        // lags = 20 → dilations 1,2,4,8,16 give receptive field 32
        let dilations: Vec<usize> = p.convs.iter().map(CausalConv1d::dilation).collect();
        assert!(crate::nn::conv::receptive_field(&dilations) >= 20);
        assert_eq!(dilations, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn untrained_forecasts_last_observation() {
        let mut p = WeaveNetPredictor::new(TrainConfig::fast(), 4, 2);
        p.observe(9.0);
        assert_eq!(p.forecast(), 9.0);
    }

    #[test]
    fn learns_constant_series() {
        let mut p = WeaveNetPredictor::new(TrainConfig::fast(), 8, 3);
        p.pretrain(&vec![70.0; 90]);
        for _ in 0..10 {
            p.observe(70.0);
        }
        let f = p.forecast();
        assert!((f - 70.0).abs() < 14.0, "constant forecast {f}");
    }

    /// Product path vs the reference oracle: bit-identical forecasts after
    /// pretraining on the same seed and data.
    #[test]
    fn flat_path_matches_reference_oracle() {
        let series: Vec<f64> = (0..120)
            .map(|i| 45.0 + 28.0 * (i as f64 * 0.22).sin())
            .collect();
        let mut product = WeaveNetPredictor::new(TrainConfig::fast(), 4, 17);
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
    fn forecast_is_finite_on_noisy_input() {
        let mut p = WeaveNetPredictor::new(TrainConfig::fast(), 4, 4);
        let series: Vec<f64> = (0..100).map(|i| ((i * 37) % 97) as f64).collect();
        p.pretrain(&series);
        for &v in &series[90..] {
            p.observe(v);
        }
        let f = p.forecast();
        assert!(f.is_finite() && f >= 0.0);
    }
}
