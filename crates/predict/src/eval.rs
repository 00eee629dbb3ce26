//! Forecast-quality metrics: RMSE (Figure 6a), MAE, and the paper's
//! accuracy notion (§4.5.1 reports the LSTM predicting "85% accurately").

/// Root-mean-squared error between predictions and actuals.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn rmse(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "series length mismatch");
    assert!(!pred.is_empty(), "need at least one point");
    let mse = pred
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        / pred.len() as f64;
    mse.sqrt()
}

/// Mean absolute error.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mae(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "series length mismatch");
    assert!(!pred.is_empty(), "need at least one point");
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute percentage error with a unit denominator floor:
/// `mean(|p - a| / max(|a|, 1))`.
///
/// The floor keeps the metric finite on rate series that touch zero —
/// below one request per second, the error is effectively absolute.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "series length mismatch");
    assert!(!pred.is_empty(), "need at least one point");
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs() / a.abs().max(1.0))
        .sum::<f64>()
        / pred.len() as f64
}

/// Accuracy as `1 - MAE / mean(actual)`, clamped to `[0, 1]`.
///
/// This is the natural reading of the paper's "predicts requests accurately
/// (85%)": the average relative error against the mean load level.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(pred: &[f64], actual: &[f64]) -> f64 {
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    if mean <= 0.0 {
        return if mae(pred, actual) == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - mae(pred, actual) / mean).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_forecast_scores_perfectly() {
        let a = [10.0, 20.0, 30.0];
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(mae(&a, &a), 0.0);
        assert_eq!(accuracy(&a, &a), 1.0);
    }

    #[test]
    fn rmse_known_value() {
        // errors 3 and 4 → rmse = sqrt((9+16)/2) = 3.5355…
        let got = rmse(&[3.0, 0.0], &[0.0, 4.0]);
        assert!((got - (12.5_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mae_known_value() {
        assert_eq!(mae(&[1.0, 5.0], &[2.0, 3.0]), 1.5);
    }

    #[test]
    fn mape_known_value() {
        // |8-10|/10 = 0.2, |30-20|/20 = 0.5 → mean 0.35
        let got = mape(&[8.0, 30.0], &[10.0, 20.0]);
        assert!((got - 0.35).abs() < 1e-12);
    }

    #[test]
    fn mape_floors_denominator_at_one() {
        // actual 0 and 0.5 both use denominator 1 → absolute errors
        let got = mape(&[2.0, 1.0], &[0.0, 0.5]);
        assert!((got - 1.25).abs() < 1e-12);
        assert!(got.is_finite());
    }

    #[test]
    fn rmse_penalizes_outliers_more_than_mae() {
        let pred = [0.0, 0.0, 0.0, 8.0];
        let actual = [0.0; 4];
        assert!(rmse(&pred, &actual) > mae(&pred, &actual));
    }

    #[test]
    fn accuracy_clamps_to_unit_interval() {
        let awful = [1000.0, 1000.0];
        let actual = [1.0, 1.0];
        assert_eq!(accuracy(&awful, &actual), 0.0);
    }

    #[test]
    fn accuracy_on_zero_series() {
        assert_eq!(accuracy(&[0.0], &[0.0]), 1.0);
        assert_eq!(accuracy(&[5.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_series_panics() {
        let _ = mae(&[], &[]);
    }
}
