//! AWS Lambda cold/warm-start characterization model (paper §2.2.1, Fig 2).
//!
//! The paper motivates Fifer by measuring an MXNet image-inference function
//! on AWS Lambda with seven pre-trained models, showing cold starts add
//! ≈2000–7500 ms over execution time while warm invocations complete within
//! ≈1500 ms except for the largest models. AWS itself is a gated external
//! service, so we model the measurement: per-model execution time scales
//! with model size (S3 fetch dominates), and the cold path adds container
//! spawn + runtime/framework initialization.

use fifer_metrics::SimDuration;
use rand::Rng;
use std::fmt;

/// The seven pre-trained MXNet models of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MxnetModel {
    /// SqueezeNet: millisecond-scale, ~5 MB.
    Squeezenet,
    /// ResNet-50.
    Resnet50,
    /// ResNet-18.
    Resnet18,
    /// ResNet-101.
    Resnet101,
    /// ResNet-200: the largest, worst cold starts.
    Resnet200,
    /// Inception.
    Inception,
    /// CaffeNet.
    Caffenet,
}

impl MxnetModel {
    /// All models in Figure 2's x-axis order.
    pub const ALL: [MxnetModel; 7] = [
        MxnetModel::Squeezenet,
        MxnetModel::Resnet50,
        MxnetModel::Resnet18,
        MxnetModel::Resnet101,
        MxnetModel::Resnet200,
        MxnetModel::Inception,
        MxnetModel::Caffenet,
    ];

    /// Serialized model size in MB (public MXNet model-zoo figures).
    pub fn size_mb(self) -> f64 {
        match self {
            MxnetModel::Squeezenet => 5.0,
            MxnetModel::Resnet18 => 45.0,
            MxnetModel::Resnet50 => 98.0,
            MxnetModel::Inception => 92.0,
            MxnetModel::Resnet101 => 170.0,
            MxnetModel::Caffenet => 233.0,
            MxnetModel::Resnet200 => 250.0,
        }
    }

    /// Pure inference compute time on a Lambda-class vCPU (ms).
    fn compute_ms(self) -> f64 {
        match self {
            MxnetModel::Squeezenet => 95.0,
            MxnetModel::Resnet18 => 240.0,
            MxnetModel::Inception => 420.0,
            MxnetModel::Resnet50 => 480.0,
            MxnetModel::Caffenet => 380.0,
            MxnetModel::Resnet101 => 850.0,
            MxnetModel::Resnet200 => 1550.0,
        }
    }
}

impl fmt::Display for MxnetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = match self {
            MxnetModel::Squeezenet => "Squeezenet",
            MxnetModel::Resnet50 => "Resnet-50",
            MxnetModel::Resnet18 => "Resnet-18",
            MxnetModel::Resnet101 => "Resnet-101",
            MxnetModel::Resnet200 => "Resnet-200",
            MxnetModel::Inception => "Inception",
            MxnetModel::Caffenet => "Caffenet",
        };
        f.write_str(n)
    }
}

/// One measured invocation: the two quantities Figure 2 plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Invocation {
    /// Time reported by the platform for executing the inference
    /// (`exec_time` in Figure 2) — includes the S3 model fetch.
    pub exec_time: SimDuration,
    /// Client round-trip time (`RTT`): exec plus platform/network overhead
    /// and, on the cold path, container provisioning.
    pub rtt: SimDuration,
}

/// Parameters of the Lambda environment model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaModel {
    /// Sandbox (microVM + container) provisioning time, cold path only.
    pub provision_ms: f64,
    /// Language runtime + MXNet framework initialization, cold path only.
    pub runtime_init_ms: f64,
    /// S3 model-fetch bandwidth in MB/s (cold path fetches the full model;
    /// warm invocations hit the local cache but still touch S3 metadata).
    pub s3_mbps: f64,
    /// Client↔region network round trip, both paths.
    pub network_rtt_ms: f64,
    /// Multiplicative jitter std-dev (fraction of the mean).
    pub jitter_frac: f64,
}

impl Default for LambdaModel {
    fn default() -> Self {
        LambdaModel {
            provision_ms: 1400.0,
            runtime_init_ms: 1800.0,
            s3_mbps: 40.0,
            network_rtt_ms: 120.0,
            jitter_frac: 0.08,
        }
    }
}

impl LambdaModel {
    /// Samples a cold-start invocation of `model`.
    pub fn cold_invocation<R: Rng + ?Sized>(&self, model: MxnetModel, rng: &mut R) -> Invocation {
        let fetch_ms = model.size_mb() / self.s3_mbps * 1000.0;
        let exec = self.jittered(model.compute_ms() + fetch_ms, rng);
        let overhead = self.jittered(
            self.provision_ms + self.runtime_init_ms + self.network_rtt_ms,
            rng,
        );
        Invocation {
            exec_time: SimDuration::from_millis_f64(exec),
            rtt: SimDuration::from_millis_f64(exec + overhead),
        }
    }

    /// Samples a warm invocation of `model` (model cached in the sandbox).
    pub fn warm_invocation<R: Rng + ?Sized>(&self, model: MxnetModel, rng: &mut R) -> Invocation {
        // warm sandboxes keep the model in memory; exec is compute plus a
        // small cache-validation touch on S3
        let exec = self.jittered(model.compute_ms() * 1.05, rng);
        let overhead = self.jittered(self.network_rtt_ms, rng);
        Invocation {
            exec_time: SimDuration::from_millis_f64(exec),
            rtt: SimDuration::from_millis_f64(exec + overhead),
        }
    }

    /// Runs the paper's measurement protocol: one cold invocation, then the
    /// mean of `warm_n` warm invocations. Returns `(cold, mean_warm)`.
    pub fn characterize<R: Rng + ?Sized>(
        &self,
        model: MxnetModel,
        warm_n: usize,
        rng: &mut R,
    ) -> (Invocation, Invocation) {
        assert!(warm_n > 0, "need at least one warm invocation");
        let cold = self.cold_invocation(model, rng);
        let mut exec_sum = 0.0;
        let mut rtt_sum = 0.0;
        for _ in 0..warm_n {
            let w = self.warm_invocation(model, rng);
            exec_sum += w.exec_time.as_millis_f64();
            rtt_sum += w.rtt.as_millis_f64();
        }
        let warm = Invocation {
            exec_time: SimDuration::from_millis_f64(exec_sum / warm_n as f64),
            rtt: SimDuration::from_millis_f64(rtt_sum / warm_n as f64),
        };
        (cold, warm)
    }

    fn jittered<R: Rng + ?Sized>(&self, mean_ms: f64, rng: &mut R) -> f64 {
        let g = crate::catalog::gaussian(rng);
        (mean_ms * (1.0 + g * self.jitter_frac)).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cold_overhead_in_paper_range() {
        // §2.2.1: cold starts contribute ~2000–7500 ms on top of exec time
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        for model in MxnetModel::ALL {
            let (cold, _) = m.characterize(model, 5, &mut rng);
            let overhead = cold.rtt.as_millis_f64() - cold.exec_time.as_millis_f64();
            assert!(
                (1500.0..8000.0).contains(&overhead),
                "{model}: cold overhead {overhead}ms outside plausible range"
            );
        }
    }

    #[test]
    fn warm_rtt_mostly_under_1500ms() {
        // Fig 2b: warm total within 1500 ms except for larger models
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut under = 0;
        for model in MxnetModel::ALL {
            let (_, warm) = m.characterize(model, 20, &mut rng);
            if warm.rtt.as_millis_f64() < 1500.0 {
                under += 1;
            }
        }
        assert!(under >= 5, "most models should be warm-fast, got {under}/7");
    }

    #[test]
    fn resnet200_has_worst_cold_start() {
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let (big, _) = m.characterize(MxnetModel::Resnet200, 3, &mut rng);
        let (small, _) = m.characterize(MxnetModel::Squeezenet, 3, &mut rng);
        assert!(big.rtt > small.rtt * 2);
    }

    #[test]
    fn cold_exceeds_warm_for_every_model() {
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(4);
        for model in MxnetModel::ALL {
            let (cold, warm) = m.characterize(model, 10, &mut rng);
            assert!(cold.rtt > warm.rtt, "{model}: cold must exceed warm");
            assert!(cold.exec_time >= warm.exec_time);
        }
    }

    #[test]
    fn squeezenet_cold_start_dwarfs_exec() {
        // the paper's motivating case: millisecond-scale app, seconds-scale
        // cold start
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let (cold, _) = m.characterize(MxnetModel::Squeezenet, 3, &mut rng);
        let overhead = cold.rtt.as_millis_f64() - cold.exec_time.as_millis_f64();
        assert!(overhead / cold.exec_time.as_millis_f64() > 5.0);
    }

    #[test]
    fn rtt_always_exceeds_exec() {
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(6);
        for model in MxnetModel::ALL {
            let c = m.cold_invocation(model, &mut rng);
            let w = m.warm_invocation(model, &mut rng);
            assert!(c.rtt > c.exec_time);
            assert!(w.rtt > w.exec_time);
        }
    }

    #[test]
    #[should_panic(expected = "at least one warm")]
    fn characterize_needs_warm_samples() {
        let m = LambdaModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = m.characterize(MxnetModel::Squeezenet, 0, &mut rng);
    }
}
