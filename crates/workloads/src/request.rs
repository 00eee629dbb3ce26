//! Job requests and workload-stream construction.
//!
//! A *job* is one invocation of a function chain; the paper models each
//! request as a query drawn from the two applications of a workload mix
//! (§5.3). [`JobStream`] merges an arrival trace with a mix, assigning
//! applications and input scales deterministically from a seed.

use crate::apps::{Application, WorkloadMix};
use crate::traces::TraceGenerator;
use fifer_metrics::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One job (chain invocation) entering the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequest {
    /// Monotonically increasing id within its stream.
    pub id: u64,
    /// Which application (chain) this job invokes.
    pub app: Application,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Input size relative to the profiled reference (1.0 = reference).
    pub input_scale: f64,
}

/// A complete, arrival-ordered workload: the unit fed to the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStream {
    jobs: Vec<JobRequest>,
    mix: WorkloadMix,
}

impl JobStream {
    /// The latest arrival a workload may hold: 30 days, past the two weeks
    /// of the Azure Functions characterization. A replayed CSV or a
    /// `--secs` beyond it is rejected up front; the simulator's monitor
    /// ticks walk to the last arrival 10 s at a time, so a far-future
    /// arrival would otherwise run for ages.
    pub const MAX_HORIZON: SimDuration = SimDuration::from_secs(30 * 24 * 3600);

    /// The most jobs a generated stream may hold (`--rate × --secs`):
    /// 5 × 10^7. Streams are materialized before replay, and at about 50
    /// bytes per job at the peak (the 32 B stream itself, the generator's
    /// temporaries and about 11 B of record per measured job) this is
    /// already ~2.5 GB, so a larger request is rejected instead of filling
    /// memory.
    pub const MAX_JOBS: u64 = 50_000_000;

    /// Builds a stream by sampling arrivals from `trace` over `duration`
    /// and assigning each to one of the mix's two applications uniformly at
    /// random (deterministic in `seed`).
    ///
    /// Input scales are drawn from a narrow band around the reference size
    /// (the paper fixes input size per experiment; the band models the
    /// small client-side variation that the MET regression absorbs).
    pub fn generate<T: TraceGenerator + ?Sized>(
        trace: &T,
        mix: WorkloadMix,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let arrivals = trace.generate(duration, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let apps = mix.applications();
        let jobs = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| JobRequest {
                id: i as u64,
                app: apps[usize::from(rng.gen_bool(0.5))],
                arrival,
                input_scale: rng.gen_range(0.9..1.1),
            })
            .collect();
        JobStream { jobs, mix }
    }

    /// Builds a stream from explicit jobs (for tests and worked examples).
    ///
    /// # Panics
    ///
    /// Panics if the jobs are not in non-decreasing arrival order.
    pub fn from_jobs(jobs: Vec<JobRequest>, mix: WorkloadMix) -> Self {
        for w in jobs.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "jobs must be in arrival order"
            );
        }
        JobStream { jobs, mix }
    }

    /// The jobs in arrival order.
    pub fn jobs(&self) -> &[JobRequest] {
        &self.jobs
    }

    /// The mix this stream was drawn from.
    pub fn mix(&self) -> WorkloadMix {
        self.mix
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the stream carries no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Iterates over the jobs.
    pub fn iter(&self) -> std::slice::Iter<'_, JobRequest> {
        self.jobs.iter()
    }

    /// Fraction of jobs belonging to `app`.
    pub fn app_fraction(&self, app: Application) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().filter(|j| j.app == app).count() as f64 / self.jobs.len() as f64
    }
}

impl<'a> IntoIterator for &'a JobStream {
    type Item = &'a JobRequest;
    type IntoIter = std::slice::Iter<'a, JobRequest>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::PoissonTrace;

    fn stream(seed: u64) -> JobStream {
        JobStream::generate(
            &PoissonTrace::new(30.0),
            WorkloadMix::Heavy,
            SimDuration::from_secs(60),
            seed,
        )
    }

    #[test]
    fn jobs_are_ordered_and_ided() {
        let s = stream(1);
        assert!(!s.is_empty());
        for (i, j) in s.iter().enumerate() {
            assert_eq!(j.id, i as u64);
        }
        for w in s.jobs().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn app_assignment_is_roughly_even() {
        let s = stream(2);
        let f = s.app_fraction(Application::Ipa);
        assert!((0.4..0.6).contains(&f), "IPA fraction {f} should be ~0.5");
        let g = s.app_fraction(Application::DetectFatigue);
        assert!((f + g - 1.0).abs() < 1e-9);
    }

    #[test]
    fn only_mix_apps_appear() {
        let s = stream(3);
        assert_eq!(s.app_fraction(Application::Img), 0.0);
        assert_eq!(s.app_fraction(Application::FaceSecurity), 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(stream(4), stream(4));
        assert_ne!(stream(4), stream(5));
    }

    #[test]
    fn input_scales_stay_in_band() {
        for j in stream(6).iter() {
            assert!((0.9..1.1).contains(&j.input_scale));
        }
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn from_jobs_rejects_unordered() {
        let j = |id, s| JobRequest {
            id,
            app: Application::Ipa,
            arrival: SimTime::from_secs(s),
            input_scale: 1.0,
        };
        let _ = JobStream::from_jobs(vec![j(0, 5), j(1, 1)], WorkloadMix::Heavy);
    }

    #[test]
    fn from_jobs_accepts_ordered() {
        let j = |id, s| JobRequest {
            id,
            app: Application::Img,
            arrival: SimTime::from_secs(s),
            input_scale: 1.0,
        };
        let s = JobStream::from_jobs(vec![j(0, 1), j(1, 1), j(2, 2)], WorkloadMix::Light);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mix(), WorkloadMix::Light);
    }
}
