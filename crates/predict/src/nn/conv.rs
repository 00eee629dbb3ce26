//! Dilated causal 1-D convolution for the WeaveNet-style predictor.
//!
//! A causal convolution with kernel size 2 and dilation `d` computes
//! `y[t] = W₀·x[t-d] + W₁·x[t] + b`, padding with zeros before the series
//! start. Stacking layers with dilations 1, 2, 4, … yields the
//! exponentially growing receptive field that characterizes the
//! WaveNet/WeaveNet family.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};
use crate::nn::adam::Adam;
use crate::nn::dense::clip;
use crate::nn::linalg::xavier;
use rand::Rng;

/// One dilated causal convolution layer (kernel size 2, batch size 1).
///
/// Feature maps are flat `steps × channels` row-major slices.
#[derive(Debug, Clone)]
pub struct CausalConv1d {
    in_ch: usize,
    out_ch: usize,
    dilation: usize,
    /// Weights, `out_ch × (2·in_ch)` row-major: per output channel, the
    /// `in_ch` taps at `t-d` followed by the `in_ch` taps at `t`.
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    opt_w: Adam,
    opt_b: Adam,
    /// Input of the latest `Vec<Vec>` oracle forward pass.
    #[cfg(test)]
    cache: Option<Vec<Vec<f32>>>,
    /// Input of the latest [`forward_flat`](Self::forward_flat) as
    /// `steps × in_ch`.
    cache_flat: Vec<f32>,
    /// Timesteps in `cache_flat` (0 = no flat forward pending).
    cache_steps: usize,
}

impl CausalConv1d {
    /// Creates a layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_ch`, `out_ch`, `dilation` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        dilation: usize,
        lr: f32,
        rng: &mut R,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0, "channel counts must be positive");
        assert!(dilation > 0, "dilation must be positive");
        CausalConv1d {
            in_ch,
            out_ch,
            dilation,
            w: xavier(out_ch, 2 * in_ch, rng),
            b: vec![0.0; out_ch],
            dw: vec![0.0; out_ch * 2 * in_ch],
            db: vec![0.0; out_ch],
            opt_w: Adam::new(out_ch * 2 * in_ch, lr),
            opt_b: Adam::new(out_ch, lr),
            #[cfg(test)]
            cache: None,
            cache_flat: Vec::new(),
            cache_steps: 0,
        }
    }

    /// Input channel count.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// This layer's dilation.
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Forward pass: `x` is `steps × in_ch` row-major, output written into
    /// `y` as `steps × out_ch`; caches the input for backward.
    /// Allocation-free once `y` and the cache have grown to the longest
    /// sequence seen.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the input channel count.
    pub fn forward_flat(&mut self, x: &[f32], y: &mut Vec<f32>) {
        assert_eq!(x.len() % self.in_ch, 0, "channel count mismatch");
        let steps = x.len() / self.in_ch;
        let d = self.dilation;
        y.clear();
        y.resize(steps * self.out_ch, 0.0);
        for t in 0..steps {
            let xt = &x[t * self.in_ch..(t + 1) * self.in_ch];
            let yt = &mut y[t * self.out_ch..(t + 1) * self.out_ch];
            yt.copy_from_slice(&self.b);
            let past = t
                .checked_sub(d)
                .map(|p| &x[p * self.in_ch..(p + 1) * self.in_ch]);
            for (o, yv) in yt.iter_mut().enumerate() {
                let row = &self.w[o * 2 * self.in_ch..(o + 1) * 2 * self.in_ch];
                if let Some(xp) = past {
                    for (wv, xv) in row[..self.in_ch].iter().zip(xp) {
                        *yv += wv * xv;
                    }
                }
                for (wv, xv) in row[self.in_ch..].iter().zip(xt) {
                    *yv += wv * xv;
                }
            }
        }
        self.cache_flat.clear();
        self.cache_flat.extend_from_slice(x);
        self.cache_steps = steps;
    }

    /// Backward pass over the input cached by
    /// [`forward_flat`](Self::forward_flat): accumulates weight gradients
    /// and writes dL/dx (`steps × in_ch`) into `dx`.
    ///
    /// # Panics
    ///
    /// Panics if no flat forward pass is cached or `dy` has the wrong
    /// length.
    pub fn backward_flat(&mut self, dy: &[f32], dx: &mut Vec<f32>) {
        let steps = self.cache_steps;
        assert!(steps > 0, "backward without forward");
        assert_eq!(
            dy.len(),
            steps * self.out_ch,
            "gradient sequence length mismatch"
        );
        let d = self.dilation;
        dx.clear();
        dx.resize(steps * self.in_ch, 0.0);
        for t in 0..steps {
            let dyt = &dy[t * self.out_ch..(t + 1) * self.out_ch];
            let past_t = t.checked_sub(d);
            for (o, &g) in dyt.iter().enumerate() {
                self.db[o] += g;
                let row_off = o * 2 * self.in_ch;
                if let Some(p) = past_t {
                    for c in 0..self.in_ch {
                        self.dw[row_off + c] += g * self.cache_flat[p * self.in_ch + c];
                        dx[p * self.in_ch + c] += g * self.w[row_off + c];
                    }
                }
                for c in 0..self.in_ch {
                    self.dw[row_off + self.in_ch + c] += g * self.cache_flat[t * self.in_ch + c];
                    dx[t * self.in_ch + c] += g * self.w[row_off + self.in_ch + c];
                }
            }
        }
        self.cache_steps = 0;
    }

    /// Read-only view of the trainable parameters `(w, b)`.
    pub fn weights(&self) -> (&[f32], &[f32]) {
        (&self.w, &self.b)
    }

    /// Applies accumulated gradients with Adam and zeroes accumulators.
    pub fn apply_grads(&mut self, t: u64) {
        clip(&mut self.dw, 5.0);
        clip(&mut self.db, 5.0);
        self.opt_w.step(&mut self.w, &self.dw, t);
        self.opt_b.step(&mut self.b, &self.db, t);
        self.dw.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Serializes shape, weights, bias and optimizer state. Gradient
    /// accumulators and forward caches are not saved — a checkpoint is
    /// only taken between training steps, where both are empty.
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.u32(self.in_ch as u32);
        w.u32(self.out_ch as u32);
        w.u32(self.dilation as u32);
        w.f32s(&self.w);
        w.f32s(&self.b);
        self.opt_w.save_state(w);
        self.opt_b.save_state(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// layer of identical shape; accumulators and caches are cleared.
    pub(crate) fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CheckpointError> {
        if r.u32()? as usize != self.in_ch
            || r.u32()? as usize != self.out_ch
            || r.u32()? as usize != self.dilation
        {
            return Err(CheckpointError::ModelMismatch("conv layer shape"));
        }
        r.f32s_into(&mut self.w, "conv weights")?;
        r.f32s_into(&mut self.b, "conv bias")?;
        self.opt_w.load_state(r)?;
        self.opt_b.load_state(r)?;
        self.dw.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        self.cache_flat.clear();
        self.cache_steps = 0;
        Ok(())
    }
}

/// The original `Vec<Vec>` forms (outer index = timestep, inner =
/// channel), kept as the test oracle the flat forms are checked against
/// bit for bit: same tap order per output element.
#[cfg(test)]
impl CausalConv1d {
    /// Forward pass over a whole sequence; caches the input for backward.
    ///
    /// # Panics
    ///
    /// Panics if any timestep has the wrong channel count.
    pub(crate) fn forward(&mut self, x: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let d = self.dilation;
        let mut out = Vec::with_capacity(x.len());
        for (t, xt) in x.iter().enumerate() {
            assert_eq!(xt.len(), self.in_ch, "channel count mismatch at t={t}");
            let mut yt = self.b.clone();
            let past: Option<&Vec<f32>> = t.checked_sub(d).map(|p| &x[p]);
            for (o, yv) in yt.iter_mut().enumerate() {
                let row = &self.w[o * 2 * self.in_ch..(o + 1) * 2 * self.in_ch];
                if let Some(xp) = past {
                    for (wv, xv) in row[..self.in_ch].iter().zip(xp) {
                        *yv += wv * xv;
                    }
                }
                for (wv, xv) in row[self.in_ch..].iter().zip(xt) {
                    *yv += wv * xv;
                }
            }
            out.push(yt);
        }
        self.cache = Some(x.to_vec());
        out
    }

    /// Backward pass: accumulates weight gradients and returns dL/dx per
    /// timestep.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is cached or `dy` has a different length
    /// than the cached input.
    pub(crate) fn backward(&mut self, dy: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let x = self.cache.take().expect("backward without forward");
        assert_eq!(dy.len(), x.len(), "gradient sequence length mismatch");
        let d = self.dilation;
        let mut dx = vec![vec![0.0; self.in_ch]; x.len()];
        for (t, dyt) in dy.iter().enumerate() {
            assert_eq!(dyt.len(), self.out_ch, "output channel mismatch at t={t}");
            let past_t = t.checked_sub(d);
            for (o, &g) in dyt.iter().enumerate() {
                self.db[o] += g;
                let row_off = o * 2 * self.in_ch;
                if let Some(p) = past_t {
                    for c in 0..self.in_ch {
                        self.dw[row_off + c] += g * x[p][c];
                        dx[p][c] += g * self.w[row_off + c];
                    }
                }
                for c in 0..self.in_ch {
                    self.dw[row_off + self.in_ch + c] += g * x[t][c];
                    dx[t][c] += g * self.w[row_off + self.in_ch + c];
                }
            }
        }
        dx
    }
}

/// Receptive field of a kernel-2 dilated stack with the given dilations.
pub fn receptive_field(dilations: &[usize]) -> usize {
    1 + dilations.iter().sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(vals: &[f32]) -> Vec<Vec<f32>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn causality_zero_pads_before_start() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = CausalConv1d::new(1, 1, 2, 0.01, &mut rng);
        let y = conv.forward(&seq(&[1.0, 0.0, 0.0, 0.0]));
        // with dilation 2, only y[2] sees x[0] through the past tap
        let w_past = conv.w[0];
        let w_now = conv.w[1];
        let b = conv.b[0];
        assert!((y[0][0] - (w_now + b)).abs() < 1e-12);
        assert!((y[1][0] - b).abs() < 1e-12);
        assert!((y[2][0] - (w_past + b)).abs() < 1e-12);
        assert!((y[3][0] - b).abs() < 1e-12);
    }

    #[test]
    fn output_at_t_ignores_future() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = CausalConv1d::new(1, 2, 1, 0.01, &mut rng);
        let base = conv.forward(&seq(&[0.5, 0.7, 0.0]));
        let changed = conv.forward(&seq(&[0.5, 0.7, 99.0]));
        assert_eq!(base[0], changed[0]);
        assert_eq!(base[1], changed[1]);
        assert_ne!(base[2], changed[2]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = CausalConv1d::new(2, 2, 1, 0.01, &mut rng);
        let x = vec![vec![0.3, -0.2], vec![0.5, 0.1], vec![-0.4, 0.8]];
        let loss = |conv: &mut CausalConv1d, x: &[Vec<f32>]| -> f32 {
            conv.forward(x).iter().flatten().sum()
        };
        let _ = loss(&mut conv, &x);
        let dy = vec![vec![1.0; 2]; 3];
        let dx = conv.backward(&dy);
        let h = 1.0 / 16.0;
        for t in 0..x.len() {
            for c in 0..2 {
                let mut xp = x.clone();
                xp[t][c] += h;
                let mut xm = x.clone();
                xm[t][c] -= h;
                let numeric = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * h);
                assert!(
                    (numeric - dx[t][c]).abs() < 1e-5,
                    "dx[{t}][{c}] numeric {numeric} vs {}",
                    dx[t][c]
                );
            }
        }
    }

    #[test]
    fn learns_difference_filter() {
        // target: y[t] = x[t] - x[t-1]
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = CausalConv1d::new(1, 1, 1, 0.05, &mut rng);
        let mut step = 0;
        for e in 0..400 {
            let xs: Vec<f32> = (0..6).map(|i| ((i + e) as f32 * 0.7).sin()).collect();
            let x = seq(&xs);
            let y = conv.forward(&x);
            let mut dy = Vec::new();
            for t in 0..x.len() {
                let target = if t == 0 { xs[0] } else { xs[t] - xs[t - 1] };
                dy.push(vec![2.0 * (y[t][0] - target) / x.len() as f32]);
            }
            conv.backward(&dy);
            step += 1;
            conv.apply_grads(step);
        }
        assert!((conv.w[0] - (-1.0)).abs() < 0.1, "past tap {}", conv.w[0]);
        assert!((conv.w[1] - 1.0).abs() < 0.1, "current tap {}", conv.w[1]);
    }

    /// The flat-layout path must match the `Vec<Vec>` reference path bit
    /// for bit through forward, backward and an optimizer step.
    #[test]
    fn flat_path_bit_identical_to_reference() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let mut reference = CausalConv1d::new(2, 3, 2, 0.01, &mut r1);
        let mut optimized = CausalConv1d::new(2, 3, 2, 0.01, &mut r2);
        let x: Vec<Vec<f32>> = (0..5)
            .map(|t| vec![(t as f32 * 0.9).sin(), (t as f32 * 0.4).cos()])
            .collect();
        let x_flat: Vec<f32> = x.concat();
        let y_ref = reference.forward(&x);
        let mut y_flat = Vec::new();
        optimized.forward_flat(&x_flat, &mut y_flat);
        assert_eq!(y_flat, y_ref.concat());
        let dy: Vec<Vec<f32>> = (0..5).map(|t| vec![0.1 * t as f32; 3]).collect();
        let dx_ref = reference.backward(&dy);
        let mut dx_flat = Vec::new();
        optimized.backward_flat(&dy.concat(), &mut dx_flat);
        assert_eq!(dx_flat, dx_ref.concat());
        reference.apply_grads(1);
        optimized.apply_grads(1);
        assert_eq!(optimized.weights(), reference.weights());
    }

    #[test]
    fn receptive_field_grows_exponentially() {
        assert_eq!(receptive_field(&[1]), 2);
        assert_eq!(receptive_field(&[1, 2, 4, 8]), 16);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = CausalConv1d::new(1, 1, 1, 0.01, &mut rng);
        let _ = conv.backward(&[vec![1.0]]);
    }
}
