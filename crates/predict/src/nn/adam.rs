//! The Adam optimizer (Kingma & Ba) for flat parameter buffers.

use crate::checkpoint::{CheckpointError, CkptReader, CkptWriter};

/// Per-parameter-buffer Adam state with bias correction.
///
/// # Example
///
/// ```
/// use fifer_predict::nn::Adam;
///
/// let mut params = vec![1.0_f64];
/// let mut opt = Adam::new(1, 0.1);
/// for step in 1..=100 {
///     // gradient of f(p) = p² is 2p; Adam should drive p toward 0
///     let grad = vec![2.0 * params[0]];
///     opt.step(&mut params, &grad, step);
/// }
/// assert!(params[0].abs() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam state for a buffer of `n` parameters with learning
    /// rate `lr` and the standard β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(n: usize, lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Applies one update. `t` is the 1-based global step for bias
    /// correction.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths disagree or `t == 0`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], t: u64) {
        assert_eq!(
            params.len(),
            self.m.len(),
            "parameter buffer length changed"
        );
        assert_eq!(grads.len(), self.m.len(), "gradient buffer length mismatch");
        assert!(t > 0, "Adam step count is 1-based");
        // saturate rather than wrap: `t as i32` is 0 at t = 2^32, which
        // makes both corrections 0 and every parameter NaN; β^t is 0.0
        // long before i32::MAX, so saturation changes no result
        let exponent = i32::try_from(t).unwrap_or(i32::MAX);
        let bc1 = 1.0 - self.beta1.powi(exponent);
        let sqrt_bc2 = (1.0 - self.beta2.powi(exponent)).sqrt();
        // Kingma & Ba's reordering after Algorithm 1: the bias corrections
        // fold into the step size and ε, which equals
        // lr·m̂/(√v̂ + ε) in exact arithmetic with one division and one
        // square root per parameter instead of three divisions
        let step = self.lr * sqrt_bc2 / bc1;
        let eps = self.eps * sqrt_bc2;
        let (b1, b2) = (self.beta1, self.beta2);
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let g = if g.is_finite() { g } else { 0.0 };
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            *p -= step * *m / (v.sqrt() + eps);
        }
    }

    /// Serializes the optimizer state (learning rate + both moment
    /// buffers) into a checkpoint.
    pub(crate) fn save_state(&self, w: &mut CkptWriter) {
        w.f64(self.lr);
        w.f64s(&self.m);
        w.f64s(&self.v);
    }

    /// Restores optimizer state saved by [`save_state`](Self::save_state).
    /// The learning rate and buffer lengths must match this instance
    /// bit-for-bit — a drifted hyper-parameter would silently change the
    /// remaining training schedule.
    pub(crate) fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CheckpointError> {
        let lr = r.f64()?;
        if lr.to_bits() != self.lr.to_bits() {
            return Err(CheckpointError::ModelMismatch("adam learning rate"));
        }
        r.f64s_into(&mut self.m, "adam first moment")?;
        r.f64s_into(&mut self.v, "adam second moment")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut p = vec![5.0, -3.0];
        let mut opt = Adam::new(2, 0.05);
        for t in 1..=2000 {
            let g: Vec<f64> = p.iter().map(|&x| 2.0 * x).collect();
            opt.step(&mut p, &g, t);
        }
        assert!(p[0].abs() < 1e-2 && p[1].abs() < 1e-2, "{p:?}");
    }

    #[test]
    fn first_step_is_about_lr() {
        // with bias correction, the first step magnitude ≈ lr regardless of
        // gradient scale
        let mut p = vec![0.0];
        let mut opt = Adam::new(1, 0.01);
        opt.step(&mut p, &[1000.0], 1);
        assert!((p[0].abs() - 0.01).abs() < 1e-6, "{}", p[0]);
    }

    #[test]
    fn non_finite_gradients_are_skipped() {
        let mut p = vec![1.0];
        let mut opt = Adam::new(1, 0.1);
        opt.step(&mut p, &[f64::NAN], 1);
        assert!(p[0].is_finite());
    }

    /// A step count past `i32::MAX` (reachable from a restored checkpoint
    /// plus online retraining) must keep the parameters finite — and
    /// match the fully decayed bias correction of any large `t`.
    #[test]
    fn huge_step_counts_stay_finite() {
        for t in [1_u64 << 31, 1 << 32, u64::MAX] {
            let mut p = vec![0.5, -2.0];
            let mut opt = Adam::new(2, 0.01);
            opt.step(&mut p, &[0.3, -0.1], t);
            assert!(p.iter().all(|v| v.is_finite()), "t = {t}: {p:?}");
            let mut q = vec![0.5, -2.0];
            Adam::new(2, 0.01).step(&mut q, &[0.3, -0.1], 1 << 20);
            assert_eq!(p, q, "t = {t}: β^t has long underflowed to 0");
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_step_rejected() {
        let mut p = vec![0.0];
        Adam::new(1, 0.1).step(&mut p, &[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grads_rejected() {
        let mut p = vec![0.0];
        Adam::new(1, 0.1).step(&mut p, &[1.0, 2.0], 1);
    }
}
