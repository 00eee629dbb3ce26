//! A fully connected layer with gradient accumulation and an Adam step.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};
use crate::nn::adam::Adam;
#[cfg(test)]
use crate::nn::linalg::{matvec, matvec_transposed};
use crate::nn::linalg::{matvec_into, matvec_transposed_into, outer_accumulate, xavier};
use rand::Rng;

/// Dense layer `y = W·x + b` at batch size 1.
///
/// Gradients accumulate across [`Dense::backward_into`] calls until
/// [`Dense::apply_grads`]; this supports both per-sample updates (paper:
/// batch size 1) and BPTT where a layer is applied at many timesteps.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    opt_w: Adam,
    opt_b: Adam,
}

impl Dense {
    /// Creates a layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, lr: f32, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be positive");
        Dense {
            in_dim,
            out_dim,
            w: xavier(out_dim, in_dim, rng),
            b: vec![0.0; out_dim],
            dw: vec![0.0; out_dim * in_dim],
            db: vec![0.0; out_dim],
            opt_w: Adam::new(out_dim * in_dim, lr),
            opt_b: Adam::new(out_dim, lr),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass into a caller-owned output slice; allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != out_dim`.
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        matvec_into(&self.w, self.out_dim, self.in_dim, x, y);
        for (yv, bv) in y.iter_mut().zip(&self.b) {
            *yv += bv;
        }
    }

    /// Accumulates dW/db without computing dL/dx — for input layers whose
    /// input gradient feeds nothing (skipping it changes no trained
    /// weight).
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != out_dim`.
    pub fn accumulate_grads(&mut self, x: &[f32], dy: &[f32]) {
        assert_eq!(dy.len(), self.out_dim, "output gradient length mismatch");
        outer_accumulate(&mut self.dw, dy, x);
        for (d, g) in self.db.iter_mut().zip(dy) {
            *d += g;
        }
    }

    /// Backward pass: accumulates dW, db and writes dL/dx into `dx`. `x`
    /// must be the input used for the corresponding forward pass.
    ///
    /// # Panics
    ///
    /// Panics on gradient/output length mismatches.
    pub fn backward_into(&mut self, x: &[f32], dy: &[f32], dx: &mut [f32]) {
        assert_eq!(dy.len(), self.out_dim, "output gradient length mismatch");
        outer_accumulate(&mut self.dw, dy, x);
        for (d, g) in self.db.iter_mut().zip(dy) {
            *d += g;
        }
        matvec_transposed_into(&self.w, self.out_dim, self.in_dim, dy, dx);
    }

    /// Applies accumulated gradients with Adam (global step `t`) and zeroes
    /// the accumulators.
    pub fn apply_grads(&mut self, t: u64) {
        clip(&mut self.dw, 5.0);
        clip(&mut self.db, 5.0);
        self.opt_w.step(&mut self.w, &self.dw, t);
        self.opt_b.step(&mut self.b, &self.db, t);
        self.dw.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Immutable view of the weights (for tests/inspection).
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    /// Serializes dimensions, weights, bias and optimizer state.
    /// Gradient accumulators are not saved — they are zero between
    /// training steps, which is the only point a checkpoint is taken.
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.u32(self.in_dim as u32);
        w.u32(self.out_dim as u32);
        w.f32s(&self.w);
        w.f32s(&self.b);
        self.opt_w.save_state(w);
        self.opt_b.save_state(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// layer of identical shape; accumulators are zeroed.
    pub(crate) fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CheckpointError> {
        if r.u32()? as usize != self.in_dim || r.u32()? as usize != self.out_dim {
            return Err(CheckpointError::ModelMismatch("dense layer dimensions"));
        }
        r.f32s_into(&mut self.w, "dense weights")?;
        r.f32s_into(&mut self.b, "dense bias")?;
        self.opt_w.load_state(r)?;
        self.opt_b.load_state(r)?;
        self.dw.iter_mut().for_each(|v| *v = 0.0);
        self.db.iter_mut().for_each(|v| *v = 0.0);
        Ok(())
    }
}

/// The original allocating forms, kept as the test oracle the write-into
/// forms are checked against bit for bit.
#[cfg(test)]
impl Dense {
    /// Forward pass.
    pub(crate) fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = matvec(&self.w, self.out_dim, self.in_dim, x);
        for (yv, bv) in y.iter_mut().zip(&self.b) {
            *yv += bv;
        }
        y
    }

    /// Backward pass: accumulates dW, db and returns dL/dx.
    pub(crate) fn backward(&mut self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        assert_eq!(dy.len(), self.out_dim, "output gradient length mismatch");
        outer_accumulate(&mut self.dw, dy, x);
        for (d, g) in self.db.iter_mut().zip(dy) {
            *d += g;
        }
        matvec_transposed(&self.w, self.out_dim, self.in_dim, dy)
    }
}

/// Clips a gradient buffer to a global L2 norm — the standard RNN exploding-
/// gradient guard. The squared norm is summed in eight independent lanes
/// (element `i` into lane `i mod 8`), combined pairwise in a fixed order,
/// so the sum vectorizes instead of running as one serial chain.
pub(crate) fn clip(g: &mut [f32], max_norm: f32) {
    let mut lanes = [0.0; 8];
    let chunks = g.chunks_exact(8);
    let tail = chunks.remainder();
    for c in chunks {
        for (l, v) in lanes.iter_mut().zip(c) {
            *l += v * v;
        }
    }
    for (l, v) in lanes.iter_mut().zip(tail) {
        *l += v * v;
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let norm = (((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))).sqrt();
    if norm > max_norm && norm.is_finite() {
        let s = max_norm / norm;
        g.iter_mut().for_each(|v| *v *= s);
    } else if !norm.is_finite() {
        g.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::new(3, 2, 0.01, &mut rng);
        let y = layer.forward(&[1.0, 0.0, -1.0]);
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(4, 3, 0.01, &mut rng);
        let x = [0.5, -0.25, 1.0, 0.75];
        // loss = sum(y); dL/dy = ones
        let dy = [1.0, 1.0, 1.0];
        let dx = layer.backward(&x, &dy);
        let h = 1.0 / 16.0;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let lp: f32 = layer.forward(&xp).iter().sum();
            let lm: f32 = layer.forward(&xm).iter().sum();
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - dx[i]).abs() < 1e-6,
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
    }

    /// The write-into forms must match the allocating forms bit for bit.
    #[test]
    fn into_forms_bit_identical() {
        let mut r1 = StdRng::seed_from_u64(8);
        let mut r2 = StdRng::seed_from_u64(8);
        let mut a = Dense::new(5, 3, 0.01, &mut r1);
        let mut b = Dense::new(5, 3, 0.01, &mut r2);
        let x = [0.4, -1.2, 0.07, 3.5, -0.9];
        let dy = [0.3, -0.8, 1.1];
        let y_ref = a.forward(&x);
        let mut y = vec![0.0; 3];
        b.forward_into(&x, &mut y);
        assert_eq!(y, y_ref);
        let dx_ref = a.backward(&x, &dy);
        let mut dx = vec![0.0; 5];
        b.backward_into(&x, &dy, &mut dx);
        assert_eq!(dx, dx_ref);
        a.apply_grads(1);
        b.apply_grads(1);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn learns_identity_on_scalar() {
        // y = w·x + b should learn to map x → 2x + 1
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(1, 1, 0.05, &mut rng);
        let mut t = 0;
        for _ in 0..500 {
            for x in [-1.0, 0.0, 1.0, 2.0_f32] {
                t += 1;
                let y = layer.forward(&[x])[0];
                let target = 2.0 * x + 1.0;
                let dy = [2.0 * (y - target)];
                layer.backward(&[x], &dy);
                layer.apply_grads(t);
            }
        }
        let pred = layer.forward(&[3.0])[0];
        assert!((pred - 7.0).abs() < 0.1, "pred {pred} should be ~7");
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer0 = Dense::new(2, 2, 0.01, &mut rng);

        // path A: two identical backward passes, then one apply
        let mut a = layer0.clone();
        a.backward(&[1.0, 1.0], &[1.0, 1.0]);
        a.backward(&[1.0, 1.0], &[1.0, 1.0]);
        a.apply_grads(1);

        // path B: one backward pass with the doubled gradient
        let mut b = layer0.clone();
        b.backward(&[1.0, 1.0], &[2.0, 2.0]);
        b.apply_grads(1);

        for (wa, wb) in a.weights().iter().zip(b.weights()) {
            assert!((wa - wb).abs() < 1e-12, "accumulation must sum gradients");
        }
    }

    #[test]
    fn apply_grads_zeroes_accumulators() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, 0.01, &mut rng);
        layer.backward(&[1.0, 1.0], &[1.0, 1.0]);
        layer.apply_grads(1);
        // accumulators are now zero: a second step applies only Adam
        // momentum decay, so a layer that saw the same history must match
        let mut twin = layer.clone();
        layer.apply_grads(2);
        twin.apply_grads(2);
        assert_eq!(layer.weights(), twin.weights());
        assert!(layer.dw.iter().all(|&v| v == 0.0));
        assert!(layer.db.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clip_bounds_norm() {
        let mut g = vec![3.0, 4.0]; // norm 5
        clip(&mut g, 1.0);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_zeroes_non_finite() {
        let mut g = vec![f32::NAN, 1.0];
        clip(&mut g, 1.0);
        assert_eq!(g, vec![0.0, 0.0]);
    }
}
