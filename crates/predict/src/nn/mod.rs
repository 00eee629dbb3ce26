//! From-scratch neural-network substrate.
//!
//! The paper trains its LSTM with Keras/TensorFlow (§5.1: 100 epochs, 2
//! layers, 32 neurons, batch size 1). External ML frameworks are outside
//! the approved dependency set, so this module implements the pieces those
//! frameworks provided: vector/matrix primitives ([`linalg`]), the Adam
//! optimizer ([`adam`]), a dense layer ([`dense`]), an LSTM cell with full
//! backpropagation-through-time ([`lstm`]), a dilated causal 1-D
//! convolution ([`conv`]) for the WeaveNet-style model, and the
//! activations' own `exp`, `sigmoid` and `tanh` ([`math`]), so no model
//! calls the platform's libm.
//!
//! Everything operates at batch size 1 (as in the paper) on `f64`, keeping
//! the code simple, dependency-free and deterministic: all weight
//! initialization flows from a caller-provided seeded RNG.

pub mod adam;
pub mod conv;
pub mod dense;
pub mod linalg;
pub mod lstm;
pub mod math;

pub use adam::Adam;
pub use conv::CausalConv1d;
pub use dense::Dense;
pub use linalg::{
    matvec_colmajor_into, matvec_into, matvec_transposed_into, outer_accumulate_seq, transpose_into,
};
pub use lstm::{LstmCell, LstmState};
pub use math::sigmoid;

/// Derivative of the sigmoid given its *output* `s`.
pub fn sigmoid_deriv(s: f64) -> f64 {
    s * (1.0 - s)
}

/// Derivative of tanh given its *output* `t`.
pub fn tanh_deriv(t: f64) -> f64 {
    1.0 - t * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(1000.0) <= 1.0);
    }

    #[test]
    fn sigmoid_stable_for_extremes() {
        assert!(sigmoid(-750.0).is_finite());
        assert!(sigmoid(750.0).is_finite());
    }

    #[test]
    fn derivative_formulas() {
        let s = sigmoid(0.3);
        assert!((sigmoid_deriv(s) - s * (1.0 - s)).abs() < 1e-15);
        let t = math::tanh(0.5);
        assert!((tanh_deriv(t) - (1.0 - t * t)).abs() < 1e-15);
    }

    #[test]
    fn sigmoid_derivative_matches_finite_difference() {
        let z = 0.7;
        let h = 1e-6;
        let numeric = (sigmoid(z + h) - sigmoid(z - h)) / (2.0 * h);
        let analytic = sigmoid_deriv(sigmoid(z));
        assert!((numeric - analytic).abs() < 1e-8);
    }
}
