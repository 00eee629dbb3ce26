//! Pins the predictor's numbers: a trained paper LSTM's forecasts and the
//! `nn::math` activations (the `f32` ones the layers use and the `f64`
//! ones `LogisticTrend` uses), each as one FNV-1a digest over bit
//! patterns.
//!
//! Neither digest touches the platform's libm (the series and the input
//! grid are built from integer arithmetic and IEEE-754 division, and the
//! predictor computes its activations itself), so both hold on any host.
//! A change to the training numerics moves the first digest, and the
//! goldens and run digests downstream do not always show it: a forecast
//! that moves in its last bits can leave every scaling decision as it was.

use fifer_predict::nn::math::{exp, exp_f64, sigmoid, sigmoid_f64, tanh};
use fifer_predict::PredictorKind;

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bursty synthetic rate series without libm: a triangle wave, a
/// weekly-style step and a short sawtooth.
fn series(n: u32) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let tri = f64::from((i % 16).min(16 - i % 16)) / 8.0;
            let step = if i % 24 < 6 { 15.0 } else { 0.0 };
            40.0 + 30.0 * tri + step + f64::from(i * 7 % 5)
        })
        .collect()
}

#[test]
fn trained_lstm_and_activations_are_pinned() {
    let data = series(60);
    let (train, test) = data.split_at(40);
    let mut p = PredictorKind::Lstm.build(42);
    p.pretrain(train);
    for &v in train {
        p.observe(v);
    }
    let forecasts: Vec<f64> = test
        .iter()
        .map(|&v| {
            let f = p.forecast();
            p.observe(v);
            f
        })
        .collect();
    assert!(forecasts.iter().all(|f| f.is_finite() && *f > 0.0));
    let forecasts = forecasts.iter().flat_map(|f| f.to_bits().to_le_bytes());
    let activations = (-5000..=5000).flat_map(|i| {
        let (x, xd) = (i as f32 / 97.0, f64::from(i) / 97.0);
        let narrow = [exp(x), sigmoid(x), tanh(x)].map(f32::to_bits);
        let wide = [exp_f64(xd), sigmoid_f64(xd)].map(f64::to_bits);
        narrow
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .chain(wide.into_iter().flat_map(u64::to_le_bytes))
    });
    assert_eq!(
        (fnv1a64(forecasts), fnv1a64(activations)),
        (0x0ceb_4f3c_0861_55eb, 0xe8ea_cee3_ae49_fe59),
        "the trained LSTM's forecasts or the activations changed"
    );
}
