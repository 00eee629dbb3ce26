//! Offline Mean-Execution-Time (MET) estimation (paper §4.1).
//!
//! Fifer profiles each microservice offline and fits a linear-regression
//! model that "accurately generates a Mean Execution Time of each service
//! for a given input size" — the paper finds execution time linear in input
//! size (§2.2.2). [`MetModel`] is that estimator: ordinary least squares
//! over `(input_size, exec_time)` profiling samples.

use fifer_metrics::SimDuration;

/// A fitted `exec_time = intercept + slope · input_size` estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetModel {
    intercept_ms: f64,
    slope_ms: f64,
    r_squared: f64,
}

impl MetModel {
    /// Fits OLS over profiling samples of `(input_size, exec_time)`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two samples or when all input sizes are
    /// identical (the slope would be unidentifiable).
    pub fn fit(samples: &[(f64, SimDuration)]) -> Self {
        assert!(samples.len() >= 2, "need at least two profiling samples");
        let n = samples.len() as f64;
        let xm = samples.iter().map(|(x, _)| x).sum::<f64>() / n;
        let ym = samples.iter().map(|(_, y)| y.as_millis_f64()).sum::<f64>() / n;
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for &(x, y) in samples {
            let dx = x - xm;
            let dy = y.as_millis_f64() - ym;
            sxy += dx * dy;
            sxx += dx * dx;
            syy += dy * dy;
        }
        assert!(sxx > 0.0, "input sizes must vary to fit a slope");
        let slope = sxy / sxx;
        let intercept = ym - slope * xm;
        let r_squared = if syy > 0.0 {
            (sxy * sxy) / (sxx * syy)
        } else {
            1.0
        };
        MetModel {
            intercept_ms: intercept,
            slope_ms: slope,
            r_squared,
        }
    }

    /// Estimated mean execution time for `input_size`, floored at zero.
    pub fn estimate(&self, input_size: f64) -> SimDuration {
        SimDuration::from_millis_f64((self.intercept_ms + self.slope_ms * input_size).max(0.0))
    }

    /// Goodness of fit in `[0, 1]`.
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Fitted slope in ms per unit of input size.
    pub fn slope_ms(&self) -> f64 {
        self.slope_ms
    }
}

/// Runs the offline profiling protocol for a microservice: samples
/// `runs_per_size` executions at each input size and fits the MET model.
pub fn profile_and_fit<F>(input_sizes: &[f64], runs_per_size: usize, mut run: F) -> MetModel
where
    F: FnMut(f64) -> SimDuration,
{
    assert!(runs_per_size > 0, "need at least one run per size");
    let samples: Vec<(f64, SimDuration)> = input_sizes
        .iter()
        .map(|&size| {
            let total: f64 = (0..runs_per_size).map(|_| run(size).as_millis_f64()).sum();
            (
                size,
                SimDuration::from_millis_f64(total / runs_per_size as f64),
            )
        })
        .collect();
    MetModel::fit(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_workloads::Microservice;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ms_f(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    #[test]
    fn fits_exact_line() {
        let samples = vec![(1.0, ms_f(10.0)), (2.0, ms_f(20.0)), (3.0, ms_f(30.0))];
        let m = MetModel::fit(&samples);
        assert!((m.slope_ms() - 10.0).abs() < 1e-9);
        assert!((m.estimate(4.0).as_millis_f64() - 40.0).abs() < 1e-6);
        assert!((m.r_squared() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_floors_at_zero() {
        let samples = vec![(1.0, ms_f(10.0)), (2.0, ms_f(5.0))];
        let m = MetModel::fit(&samples);
        assert_eq!(m.estimate(100.0), SimDuration::ZERO);
    }

    #[test]
    fn profiling_recovers_catalog_model() {
        // profile the real exec-time model from the catalog and check the
        // regression recovers the linear input scaling of §2.2.2
        let spec = Microservice::Imc.spec();
        let mut rng = StdRng::seed_from_u64(1);
        let model = profile_and_fit(&[0.5, 1.0, 1.5, 2.0], 50, |size| {
            spec.sample_exec_time(size, &mut rng)
        });
        let est = model.estimate(1.0).as_millis_f64();
        assert!(
            (est - spec.mean_exec_ms).abs() < 2.0,
            "MET at reference size {est} should be ~{}",
            spec.mean_exec_ms
        );
        assert!(model.r_squared() > 0.95, "fit should be strong");
    }

    #[test]
    fn noisy_fit_has_lower_r_squared() {
        let samples = vec![
            (1.0, ms_f(12.0)),
            (2.0, ms_f(18.0)),
            (3.0, ms_f(35.0)),
            (4.0, ms_f(36.0)),
        ];
        let m = MetModel::fit(&samples);
        assert!(m.r_squared() < 1.0 && m.r_squared() > 0.8);
    }

    #[test]
    #[should_panic(expected = "two profiling samples")]
    fn single_sample_rejected() {
        let _ = MetModel::fit(&[(1.0, ms_f(10.0))]);
    }

    #[test]
    #[should_panic(expected = "must vary")]
    fn constant_inputs_rejected() {
        let _ = MetModel::fit(&[(1.0, ms_f(10.0)), (1.0, ms_f(12.0))]);
    }
}
