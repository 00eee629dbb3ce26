//! One run's scenario: the single mapping from an arrival family to its
//! generator ([`Scenario::stream`]) and from a stream to the `SimConfig`
//! fields that depend on it ([`Scenario::config`]). The `fifer` CLI, the
//! figure harness, `bench` and the examples all build their runs here.

use crate::config::{ClusterConfig, SimConfig};
use crate::driver::window_max_series;
use fifer_core::rm::RmConfig;
use fifer_metrics::{SimDuration, SimTime};
use fifer_workloads::{
    AzureWorkloadConfig, JobStream, PoissonTrace, TraceGenerator, TriggerMix, WikiLikeTrace,
    WitsLikeTrace, WorkloadMix,
};

/// Where a scenario's arrivals come from (paper §5.3, plus the Azure
/// characterization's family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Poisson arrivals at the scenario's rate.
    Poisson,
    /// The Wikipedia-like diurnal trace, scaled to the scenario's average
    /// rate.
    Wiki,
    /// The WITS-like bursty trace, scaled to the scenario's average rate;
    /// the scenario's seed also draws its burst structure.
    Wits,
    /// The Azure-characterization family: `apps` applications with
    /// Zipf-distributed rates summing to the scenario's rate, each with a
    /// trigger class drawn from `trigger_mix`.
    Azure {
        /// Number of applications.
        apps: usize,
        /// Zipf tail exponent of the per-app rates.
        tail_exponent: f64,
        /// Share of apps per trigger class.
        trigger_mix: TriggerMix,
    },
}

/// What shapes one run. [`Scenario::default`] is the `fifer` CLI's
/// default: Poisson at 50 req/s over the heavy mix for 600 s, seed 42, on
/// the 80-core prototype cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The arrival family.
    pub arrivals: Arrivals,
    /// The workload mix.
    pub mix: WorkloadMix,
    /// Average arrival rate in requests per second.
    pub rate: f64,
    /// Horizon in whole seconds.
    pub secs: u64,
    /// Jobs arriving before this are excluded from the metrics; `None` is
    /// a sixth of the horizon.
    pub warmup: Option<SimDuration>,
    /// Seed of the stream, the exec-time jitter and the predictors.
    pub seed: u64,
    /// Cluster shape.
    pub cluster: ClusterConfig,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            arrivals: Arrivals::Poisson,
            mix: WorkloadMix::Heavy,
            rate: 50.0,
            secs: 600,
            warmup: None,
            seed: 42,
            cluster: ClusterConfig::prototype(),
        }
    }
}

impl Scenario {
    /// The horizon as a duration.
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(self.secs)
    }

    /// The warmup: the configured one, or a sixth of the horizon.
    pub fn warmup(&self) -> SimDuration {
        self.warmup.unwrap_or(SimDuration::from_secs(self.secs / 6))
    }

    /// The idle-container scan for `rm`: a sixth of the horizon, between
    /// 1 and 10 minutes (§4.4.1's 10-minute timeout, shortened so short
    /// runs still reach a steady state). The hybrid-histogram policy makes
    /// its own keep-alive decisions, so for it the mechanism timeout only
    /// sets the scan granularity: 10 s.
    pub fn idle_timeout(&self, rm: &RmConfig) -> SimDuration {
        if rm.keepalive.enabled {
            SimDuration::from_secs(10)
        } else {
            SimDuration::from_secs((self.secs / 6).clamp(60, 600))
        }
    }

    /// Generates the scenario's job stream. Trace rates are scale factors
    /// against the traces' paper-scale averages (Wiki 1500, WITS 240
    /// req/s).
    pub fn stream(&self) -> JobStream {
        let horizon = self.horizon();
        let trace: Box<dyn TraceGenerator> = match self.arrivals {
            Arrivals::Poisson => Box::new(PoissonTrace::new(self.rate)),
            Arrivals::Wiki => Box::new(WikiLikeTrace::scaled(self.rate / 1500.0)),
            Arrivals::Wits => {
                Box::new(WitsLikeTrace::scaled(self.rate / 240.0, horizon, self.seed))
            }
            Arrivals::Azure {
                apps,
                tail_exponent,
                trigger_mix,
            } => {
                let azure = AzureWorkloadConfig {
                    apps,
                    tail_exponent,
                    total_rate: self.rate,
                    trigger_mix,
                    mix: self.mix,
                };
                return azure.generate_stream(horizon, self.seed);
            }
        };
        JobStream::generate(trace.as_ref(), self.mix, horizon, self.seed)
    }

    /// The simulation config for `rm` replaying `stream` (generated by
    /// this scenario or replayed over its horizon): the scenario's cluster
    /// and seed, SBatch's expected rate (jobs per second of horizon), the
    /// [warmup](Self::warmup), the [idle scan](Self::idle_timeout) and the
    /// [pretraining series](pretrain_series). Every other field keeps
    /// [`SimConfig::prototype`]'s default.
    pub fn config(&self, rm: RmConfig, stream: &JobStream) -> SimConfig {
        let mut cfg = SimConfig::prototype(rm, stream.len() as f64 / self.secs as f64);
        cfg.cluster = self.cluster;
        cfg.seed = self.seed;
        cfg.warmup = self.warmup();
        cfg.idle_timeout = self.idle_timeout(&rm);
        cfg.pretrain_series = pretrain_series(&rm, stream);
        cfg
    }

    /// Checks that the scenario can be generated and measured: a positive
    /// finite rate, a horizon of at most [`JobStream::MAX_HORIZON`], at
    /// most [`JobStream::MAX_JOBS`] expected jobs, a valid Azure family
    /// shape and [a warmup below the horizon](Self::validate_warmup).
    /// Messages name the `fifer` flag that sets the field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err("--rate must be a positive finite number".into());
        }
        let max_secs = JobStream::MAX_HORIZON.as_secs();
        if self.secs > max_secs {
            return Err(format!(
                "--secs must be at most {max_secs} ({} days)",
                max_secs / 86_400
            ));
        }
        if self.rate * self.secs as f64 > JobStream::MAX_JOBS as f64 {
            return Err(format!(
                "--rate × --secs must be at most {} jobs",
                JobStream::MAX_JOBS
            ));
        }
        match self.arrivals {
            Arrivals::Azure { apps: 0, .. } => Err("--apps must be at least 1".into()),
            Arrivals::Azure { tail_exponent, .. }
                if !(tail_exponent.is_finite() && tail_exponent > 0.0) =>
            {
                Err("--tail-exp must be a positive finite number".into())
            }
            _ => self.validate_warmup(),
        }
    }

    /// Checks that the warmup leaves some job to measure: with a warmup
    /// at or past the horizon the headline would read as zeros.
    pub fn validate_warmup(&self) -> Result<(), String> {
        if self.warmup() >= self.horizon() {
            return Err(format!(
                "--warmup must be below the horizon of {} s",
                self.secs
            ));
        }
        Ok(())
    }
}

/// The §4.5.1 pretraining series for `rm`: the window-max rate over 5 s
/// windows of the first 60% of the stream's jobs (at least one). Empty for
/// RMs that do not forecast.
pub fn pretrain_series(rm: &RmConfig, stream: &JobStream) -> Vec<f64> {
    if !rm.is_proactive() {
        return Vec::new();
    }
    let cut = (stream.len() * 6 / 10).max(1);
    let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
    window_max_series(&arrivals, 5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::rm::RmKind;

    /// The CLI's default scenario over `secs`.
    fn lasting(secs: u64) -> Scenario {
        Scenario {
            secs,
            ..Scenario::default()
        }
    }

    #[test]
    fn idle_scan_is_a_clamped_sixth_or_ten_seconds_for_keep_alive() {
        let scan = |secs, kind: RmKind| lasting(secs).idle_timeout(&kind.config()).as_secs_f64();
        assert_eq!(scan(600, RmKind::Bline), 100.0);
        assert_eq!(scan(7200, RmKind::Bline), 600.0);
        assert_eq!(scan(60, RmKind::Bline), 60.0);
        for secs in [60, 600, 7200] {
            assert_eq!(scan(secs, RmKind::HybridHist), 10.0);
        }
    }

    #[test]
    fn warmup_defaults_to_a_sixth_of_the_horizon() {
        let mut s = lasting(601);
        assert_eq!(s.warmup(), SimDuration::from_secs(100));
        s.warmup = Some(SimDuration::from_millis(16_667));
        let cfg = s.config(RmKind::Bline.config(), &s.stream());
        assert_eq!(cfg.warmup, SimDuration::from_millis(16_667));
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(100));
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn pretrain_cut_is_the_first_sixty_percent_for_forecasting_rms() {
        let mut s = lasting(120);
        s.rate = 20.0;
        let stream = s.stream();
        assert!(pretrain_series(&RmKind::Bline.config(), &stream).is_empty());
        let first: Vec<SimTime> = stream
            .iter()
            .take(stream.len() * 6 / 10)
            .map(|j| j.arrival)
            .collect();
        let fifer = pretrain_series(&RmKind::Fifer.config(), &stream);
        assert!(!fifer.is_empty());
        assert_eq!(fifer, window_max_series(&first, 5));
        let cfg = s.config(RmKind::Fifer.config(), &stream);
        assert_eq!(cfg.pretrain_series, fifer);

        // a one-job stream still pretrains on that job
        let one = fifer_workloads::io::stream_from_csv(
            "id,app,arrival_us,input_scale\n0,IPA,7000000,1.0\n",
        )
        .expect("one-job stream");
        assert_eq!(
            pretrain_series(&RmKind::Fifer.config(), &one),
            window_max_series(&[SimTime::from_secs(7)], 5)
        );
    }

    /// FNV-1a 64 over each job's id, app name, arrival (µs) and
    /// input-scale bits, as `fifer-workloads`' stream-digest pins hash it.
    fn digest(s: &JobStream) -> u64 {
        let bytes = s.iter().flat_map(|j| {
            let id = j.id.to_le_bytes();
            let at = j.arrival.as_micros().to_le_bytes();
            let scale = j.input_scale.to_bits().to_le_bytes();
            [&id[..], j.app.name().as_bytes(), &at, &scale].concat()
        });
        bytes.fold(0xcbf29ce484222325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x00000100000001b3)
        })
    }

    /// The benchmark's WITS and Azure command lines at seed 42 generate
    /// the streams `crates/workloads/tests/stream_digests.rs` pins.
    #[test]
    fn benchmark_streams_match_their_pinned_digests() {
        let wits = Scenario {
            arrivals: Arrivals::Wits,
            rate: 60.0,
            secs: 7200,
            ..Scenario::default()
        };
        let s = wits.stream();
        assert_eq!((s.len(), digest(&s)), (731_534, 0xce37e629a944debb));
        let azure = Scenario {
            arrivals: Arrivals::Azure {
                apps: 400,
                tail_exponent: 1.5,
                trigger_mix: TriggerMix::paper_default(),
            },
            rate: 150.0,
            cluster: ClusterConfig::large_scale(),
            ..wits
        };
        let s = azure.stream();
        assert_eq!((s.len(), digest(&s)), (1_075_525, 0x897dfb7269ac6253));
    }
}
