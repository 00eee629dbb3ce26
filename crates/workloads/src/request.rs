//! Job requests and workload-stream construction.
//!
//! A *job* is one invocation of a function chain; the paper models each
//! request as a query drawn from the two applications of a workload mix
//! (§5.3). [`JobStream`] merges an arrival trace with a mix, assigning
//! applications and input scales deterministically from a seed.

use crate::apps::{Application, WorkloadMix};
use crate::traces::TraceGenerator;
use fifer_metrics::varint::{unzigzag, zigzag, Chunks, Entry, Reader};
use fifer_metrics::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

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

/// Longest encoding of one job: two varints and the input scale's bytes.
const MAX_JOB_BYTES: usize = 10 + 10 + 8;

/// A complete, arrival-ordered workload: the unit fed to the simulator.
///
/// The jobs are kept in an exact, append-only compact encoding of about
/// 11 bytes per job (a `Vec<JobRequest>` holds 32). A job is:
/// 1. one varint holding the zigzag of `id − (previous id + 1)`, shifted
///    left two bits, with the app's [`Application::ALL`] index in the low
///    bits — one byte for sequential ids;
/// 2. one varint of the arrival's distance from the previous arrival, in
///    µs (arrivals never go back, so it is never negative);
/// 3. the input scale's 8 raw bytes, so any `f64` survives.
///
/// Every id, app, arrival and input scale decodes back bit for bit, in
/// order. The bytes live in fixed 64 KiB [`Chunks`] that no job straddles,
/// so the stream never reallocates. [`Self::iter`] decodes the jobs by
/// value.
#[derive(Clone)]
pub struct JobStream {
    bytes: Chunks,
    len: usize,
    /// The previous job's id plus one (0 before the first job).
    next_id: u64,
    /// The latest arrival (zero before the first job).
    last_arrival: SimTime,
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
    /// 5 × 10^7. Streams are materialized before replay, and at about 20
    /// bytes per job at the peak (the 11 B stream plus about 11 B of
    /// record per measured job during replay, or the Azure generator's
    /// 8 B-per-arrival runs beside the growing stream) this is already
    /// ~1 GB, so a larger request is rejected instead of filling memory.
    pub const MAX_JOBS: u64 = 50_000_000;

    /// The largest input scale a replayed workload may carry. Execution
    /// times scale with it; the generators draw 0.9–1.1, and at 1000× the
    /// slowest stage (HS, 151.2 ms) would average about 151 s per task. A
    /// far larger scale saturates the simulator's clock, so a replayed
    /// CSV beyond it is rejected up front.
    pub const MAX_INPUT_SCALE: f64 = 1000.0;

    /// An empty stream of `mix`.
    pub(crate) fn new(mix: WorkloadMix) -> Self {
        JobStream {
            bytes: Chunks::default(),
            len: 0,
            next_id: 0,
            last_arrival: SimTime::ZERO,
            mix,
        }
    }

    /// Appends `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` arrives before the stream's latest arrival.
    pub(crate) fn push(&mut self, job: JobRequest) {
        assert!(
            job.arrival >= self.last_arrival,
            "jobs must be in arrival order"
        );
        let mut entry = Entry::<MAX_JOB_BYTES>::default();
        // `Application::ALL` lists the apps in declaration order
        entry.tagged_varint::<2>(zigzag(job.id.wrapping_sub(self.next_id)), job.app as u64);
        entry.varint(job.arrival.as_micros() - self.last_arrival.as_micros());
        entry.bytes(&job.input_scale.to_bits().to_le_bytes());
        self.bytes.push(&entry);
        self.next_id = job.id.wrapping_add(1);
        self.last_arrival = job.arrival;
        self.len += 1;
    }

    /// Sets the mix (for a loader that learns it from the jobs).
    pub(crate) fn with_mix(self, mix: WorkloadMix) -> Self {
        JobStream { mix, ..self }
    }

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
        let mut stream = JobStream::new(mix);
        for (i, arrival) in arrivals.into_iter().enumerate() {
            stream.push(JobRequest {
                id: i as u64,
                app: apps[usize::from(rng.gen_bool(0.5))],
                arrival,
                input_scale: rng.gen_range(0.9..1.1),
            });
        }
        stream
    }

    /// Builds a stream from explicit jobs (for tests and worked examples).
    ///
    /// # Panics
    ///
    /// Panics if the jobs are not in non-decreasing arrival order.
    pub fn from_jobs(jobs: Vec<JobRequest>, mix: WorkloadMix) -> Self {
        let mut stream = JobStream::new(mix);
        for job in jobs {
            stream.push(job);
        }
        stream
    }

    /// The mix this stream was drawn from.
    pub fn mix(&self) -> WorkloadMix {
        self.mix
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the stream carries no jobs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The last job's arrival, `None` for an empty stream.
    pub fn last_arrival(&self) -> Option<SimTime> {
        (!self.is_empty()).then_some(self.last_arrival)
    }

    /// The jobs, decoded in arrival order.
    pub fn iter(&self) -> JobIter<'_> {
        JobIter {
            bytes: self.bytes.reader(),
            left: self.len,
            next_id: 0,
            arrival: 0,
        }
    }

    /// Fraction of jobs belonging to `app`.
    pub fn app_fraction(&self, app: Application) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.iter().filter(|j| j.app == app).count() as f64 / self.len as f64
    }
}

impl fmt::Debug for JobStream {
    /// Prints the decoded jobs as a list, like a `Vec<JobRequest>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for JobStream {
    /// Compares the mixes and the decoded jobs (`f64` equality on the
    /// input scales, as `JobRequest`'s own `PartialEq`).
    fn eq(&self, other: &Self) -> bool {
        self.mix == other.mix && self.len == other.len && self.iter().eq(other)
    }
}

impl<'a> IntoIterator for &'a JobStream {
    type Item = JobRequest;
    type IntoIter = JobIter<'a>;

    fn into_iter(self) -> JobIter<'a> {
        self.iter()
    }
}

/// Decodes a [`JobStream`] in arrival order ([`JobStream::iter`]). The
/// default iterator is empty.
#[derive(Debug, Clone, Default)]
pub struct JobIter<'a> {
    bytes: Reader<'a>,
    left: usize,
    next_id: u64,
    /// The previous arrival, µs.
    arrival: u64,
}

impl Iterator for JobIter<'_> {
    type Item = JobRequest;

    fn next(&mut self) -> Option<JobRequest> {
        if !self.bytes.begin_entry() {
            return None;
        }
        let (id_gap, app) = self.bytes.tagged_varint::<2>();
        let id = self.next_id.wrapping_add(unzigzag(id_gap));
        self.next_id = id.wrapping_add(1);
        self.arrival += self.bytes.varint();
        let input_scale = f64::from_bits(u64::from_le_bytes(self.bytes.bytes()));
        self.left -= 1;
        Some(JobRequest {
            id,
            app: Application::ALL[app as usize],
            arrival: SimTime::from_micros(self.arrival),
            input_scale,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for JobIter<'_> {}

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
        let arrivals: Vec<SimTime> = s.iter().map(|j| j.arrival).collect();
        assert!(arrivals.is_sorted());
        assert_eq!(s.last_arrival(), arrivals.last().copied());
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
