//! Property-based tests over the predictor contract: forecasts are always
//! finite and non-negative whatever the observation stream, and the
//! training utilities preserve their invariants.

use fifer_predict::train::{Scaler, TrainConfig};
use fifer_predict::{LoadPredictor, PredictorKind};
use proptest::prelude::*;

fn any_rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => 0.0f64..5_000.0,
        1 => Just(f64::NAN),
        1 => Just(-100.0f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every classical predictor tolerates arbitrary (even hostile)
    /// observation streams.
    #[test]
    fn classical_forecasts_stay_sane(
        rates in prop::collection::vec(any_rate(), 0..120),
        kind in prop_oneof![
            Just(PredictorKind::Mwa),
            Just(PredictorKind::Ewma),
            Just(PredictorKind::LinearRegression),
            Just(PredictorKind::LogisticRegression),
        ],
    ) {
        let mut p = kind.build(1);
        for r in &rates {
            p.observe(*r);
        }
        let f = p.forecast();
        prop_assert!(f.is_finite(), "{kind:?} produced {f}");
        prop_assert!(f >= 0.0, "{kind:?} produced negative {f}");
    }

    /// Untrained neural predictors behave as last-value forecasters and
    /// stay finite.
    #[test]
    fn untrained_neural_forecasts_stay_sane(
        rates in prop::collection::vec(0.0f64..5_000.0, 1..60),
        kind in prop_oneof![
            Just(PredictorKind::SimpleFeedForward),
            Just(PredictorKind::WeaveNet),
            Just(PredictorKind::DeepAr),
            Just(PredictorKind::Lstm),
        ],
    ) {
        let mut p = kind.build(2);
        for r in &rates {
            p.observe(*r);
        }
        let f = p.forecast();
        prop_assert!(f.is_finite() && f >= 0.0);
        prop_assert_eq!(f, *rates.last().expect("non-empty"));
    }

    /// The scaler round-trips every value inside its fitted range.
    #[test]
    fn scaler_round_trips(values in prop::collection::vec(0.0f64..1e5, 2..100)) {
        let s = Scaler::fit(&values);
        for &v in &values {
            let rt = s.inverse(s.transform(v));
            prop_assert!((rt - v).abs() < 1e-6 * v.max(1.0), "{v} -> {rt}");
        }
    }

    /// A briefly trained LSTM still produces sane forecasts on arbitrary
    /// series (training must never poison inference with NaNs).
    #[test]
    fn trained_lstm_stays_finite(series in prop::collection::vec(0.0f64..2_000.0, 30..80)) {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let mut p = fifer_predict::LstmPredictor::new(cfg, 4, 3, 1);
        p.pretrain(&series);
        for &v in &series[series.len() - 10..] {
            p.observe(v);
        }
        let f = p.forecast();
        prop_assert!(f.is_finite() && f >= 0.0, "forecast {f}");
    }

    /// Arming online retraining without feeding any new observations is
    /// the identity: the model forecasts bit-identically to a frozen
    /// twin until a retraining round actually fires.
    #[test]
    fn online_retraining_with_empty_tail_is_identity(
        series in prop::collection::vec(0.0f64..2_000.0, 40..90),
        every in 8usize..32,
    ) {
        let mut cfg = TrainConfig::fast();
        cfg.epochs = 2;
        let mut frozen = fifer_predict::LstmPredictor::new(cfg, 4, 3, 1);
        let mut live = fifer_predict::LstmPredictor::new(cfg, 4, 3, 1);
        frozen.pretrain(&series);
        live.pretrain(&series);
        live.enable_online_retraining(every, 1);
        // no tail at all: pure inference must match exactly
        for _ in 0..4 {
            prop_assert_eq!(frozen.forecast().to_bits(), live.forecast().to_bits());
        }
        // a tail shorter than one retraining round must also match —
        // retraining only fires on multiples of `every`
        for &v in series.iter().take(every - 1) {
            frozen.observe(v);
            live.observe(v);
            prop_assert_eq!(
                frozen.forecast().to_bits(),
                live.forecast().to_bits(),
                "online retraining mutated the model before its first round"
            );
        }
    }
}
