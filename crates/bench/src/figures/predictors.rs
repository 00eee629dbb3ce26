//! Figure 6 driver: the predictor bake-off (§4.5.1).

use crate::pool::{detected_cores, par_map};
use crate::runner::Ctx;
use fifer_metrics::report::{fmt_f64, Table};
use fifer_metrics::SimDuration;
use fifer_predict::train::train_test_split;
use fifer_predict::{accuracy, rmse, LoadPredictor, PredictorKind};
use fifer_sim::driver::window_max_series;
use fifer_workloads::{TraceGenerator, WitsLikeTrace};
use std::time::Instant;

/// Builds the WITS-like window-max rate series the models are evaluated on
/// (the paper trains/evaluates on the WITS trace, §4.5.1).
fn wits_series(ctx: &Ctx) -> Vec<f64> {
    let horizon = if ctx.quick {
        SimDuration::from_secs(2_000)
    } else {
        SimDuration::from_secs(8_000)
    };
    let trace = WitsLikeTrace::scaled(0.5, horizon, 6);
    let arrivals = trace.generate(horizon, 6);
    window_max_series(&arrivals, 5)
}

/// Runs one predictor through the 60/40 protocol; returns
/// `(rmse, accuracy, mean per-forecast latency in ms, predictions)`.
fn evaluate(
    kind: PredictorKind,
    series: &[f64],
    quick: bool,
) -> (f64, f64, f64, Vec<f64>, Vec<f64>) {
    let mut p: Box<dyn LoadPredictor + Send> = kind.build(6);
    let (train, test) = train_test_split(series);
    if kind.is_neural() && quick {
        // quick mode: fewer epochs via the fast config equivalents
        p = build_quick(kind);
    }
    p.pretrain(train);
    for &v in &train[train.len().saturating_sub(32)..] {
        p.observe(v);
    }
    let mut preds = Vec::with_capacity(test.len());
    let mut actuals = Vec::with_capacity(test.len());
    let t0 = Instant::now();
    let mut forecasts = 0u32;
    for &v in test {
        preds.push(p.forecast());
        forecasts += 1;
        actuals.push(v);
        p.observe(v);
    }
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3 / forecasts.max(1) as f64;
    (
        rmse(&preds, &actuals),
        accuracy(&preds, &actuals),
        latency_ms,
        preds,
        actuals,
    )
}

/// One predictor's Figure 6a evaluation outcome.
#[derive(Debug, Clone)]
pub struct PredictorEval {
    /// Which model.
    pub kind: PredictorKind,
    /// RMSE on the 40% test split.
    pub rmse: f64,
    /// Direction-of-change accuracy on the test split.
    pub accuracy: f64,
    /// Mean wall-clock per forecast in ms (nondeterministic).
    pub latency_ms: f64,
    /// Per-step predictions over the test split.
    pub preds: Vec<f64>,
    /// The matching actuals.
    pub actuals: Vec<f64>,
}

/// Evaluates all eight Figure 6a predictors over `series`, fanning the
/// eight independent evaluations across `workers` threads. Every
/// field except `latency_ms` (wall-clock) is deterministic: each model
/// trains from its own seeded RNG on its own thread, so `workers = 1`
/// and `workers = 8` produce bit-identical predictions.
pub fn sweep(series: &[f64], quick: bool, workers: usize) -> Vec<PredictorEval> {
    par_map(PredictorKind::ALL.to_vec(), workers, |kind| {
        let (rmse, accuracy, latency_ms, preds, actuals) = evaluate(kind, series, quick);
        PredictorEval {
            kind,
            rmse,
            accuracy,
            latency_ms,
            preds,
            actuals,
        }
    })
}

fn build_quick(kind: PredictorKind) -> Box<dyn LoadPredictor + Send> {
    use fifer_predict::train::TrainConfig;
    let cfg = TrainConfig {
        epochs: 10,
        ..TrainConfig::default()
    };
    match kind {
        PredictorKind::SimpleFeedForward => {
            Box::new(fifer_predict::SimpleFfPredictor::new(cfg, 32, 6))
        }
        PredictorKind::WeaveNet => Box::new(fifer_predict::WeaveNetPredictor::new(cfg, 16, 6)),
        PredictorKind::DeepAr => Box::new(fifer_predict::DeepArPredictor::new(cfg, 32, 6)),
        PredictorKind::Lstm => Box::new(fifer_predict::LstmPredictor::new(cfg, 32, 6, 2)),
        other => other.build(6),
    }
}

/// Figure 6a: RMSE and per-forecast latency for all eight models;
/// Figure 6b: LSTM predicted-vs-actual series on the WITS test split.
pub fn fig6(ctx: &Ctx) {
    let series = wits_series(ctx);
    let mut t = Table::new(vec!["model", "rmse", "accuracy", "latency_ms"]);
    let mut lstm_csv = String::from("step,actual,predicted\n");
    for eval in sweep(&series, ctx.quick, detected_cores()) {
        t.row(vec![
            eval.kind.to_string(),
            fmt_f64(eval.rmse, 2),
            fmt_f64(eval.accuracy, 3),
            fmt_f64(eval.latency_ms, 3),
        ]);
        if eval.kind == PredictorKind::Lstm {
            for (i, (a, p)) in eval.actuals.iter().zip(&eval.preds).enumerate() {
                lstm_csv.push_str(&format!("{i},{a:.1},{p:.1}\n"));
            }
        }
    }
    ctx.emit("fig6a_predictor_bakeoff", &t);
    ctx.emit_raw("fig6b_lstm_accuracy", &lstm_csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool-parallel eight-predictor sweep must be bit-identical to
    /// the serial one on every deterministic field — each model owns its
    /// seeded RNG, so thread scheduling cannot leak into the numbers.
    /// Wall-clock latency is the one legitimately nondeterministic field.
    #[test]
    fn parallel_sweep_matches_serial() {
        let series: Vec<f64> = (0..70)
            .map(|i| 40.0 + 18.0 * (i as f64 * 0.21).sin() + (i % 5) as f64)
            .collect();
        let serial = sweep(&series, true, 1);
        let parallel = sweep(&series, true, 8);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.kind, p.kind, "order must be preserved");
            assert_eq!(s.rmse, p.rmse, "{}: rmse diverged", s.kind);
            assert_eq!(s.accuracy, p.accuracy, "{}: accuracy diverged", s.kind);
            assert_eq!(s.preds, p.preds, "{}: predictions diverged", s.kind);
            assert_eq!(s.actuals, p.actuals, "{}: actuals diverged", s.kind);
        }
    }
}
