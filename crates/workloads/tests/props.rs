//! Property test of the compact job stream against the `Vec<JobRequest>`
//! it replaces: every id, app, arrival and input-scale bit pattern decodes
//! back exactly, and the stream reads like the `Vec`.

use fifer_metrics::SimTime;
use fifer_workloads::{Application, JobRequest, JobStream, WorkloadMix};
use proptest::prelude::*;

/// A job's id: the previous id plus one (`None`, the common case), or any.
fn raw_id() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        4 => Just(None),
        1 => Just(Some(0u64)),
        1 => Just(Some(u64::MAX)),
        1 => (0u64..1_000).prop_map(Some),
        1 => any::<u64>().prop_map(Some),
    ]
}

/// The gap to the previous arrival, in µs: equal arrivals, everyday gaps,
/// and gaps up to the whole horizon cap.
fn gap_us() -> impl Strategy<Value = u64> {
    let cap = JobStream::MAX_HORIZON.as_micros();
    prop_oneof![Just(0u64), 0u64..20_000, 0..cap + 1, Just(cap)]
}

/// Input scales as bit patterns: the generators' band, any pattern,
/// subnormals, both zeros, infinities and NaNs with payloads.
fn scale_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0.9f64..1.1).prop_map(f64::to_bits),
        any::<u64>(),
        1u64..1 << 52,
        Just((-0.0f64).to_bits()),
        Just(0u64),
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        (1u64..1 << 52).prop_map(|payload| f64::NAN.to_bits() | payload),
        (1u64..1 << 52).prop_map(|payload| 0xfff0_0000_0000_0000 | payload),
    ]
}

type RawJob = (Option<u64>, u64, usize, u64);

fn raw_job() -> impl Strategy<Value = RawJob> {
    (raw_id(), gap_us(), 0usize..4, scale_bits())
}

/// Few jobs, or enough to fill more than one 64 KiB chunk (each job takes
/// at least 10 bytes).
fn raw_jobs() -> impl Strategy<Value = Vec<RawJob>> {
    prop_oneof![
        prop::collection::vec(raw_job(), 0..50),
        prop::collection::vec(raw_job(), 7_000..8_000),
    ]
}

fn jobs(raw: &[RawJob]) -> Vec<JobRequest> {
    let mut at = 0u64;
    let mut next_id = 0u64;
    raw.iter()
        .map(|&(id, gap, app, bits)| {
            at += gap;
            let id = id.unwrap_or(next_id);
            next_id = id.wrapping_add(1);
            JobRequest {
                id,
                app: Application::ALL[app],
                arrival: SimTime::from_micros(at),
                input_scale: f64::from_bits(bits),
            }
        })
        .collect()
}

/// Every field, with the input scale as bits (NaN never equals itself).
fn fields(j: &JobRequest) -> (u64, Application, u64, u64) {
    (j.id, j.app, j.arrival.as_micros(), j.input_scale.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn job_stream_round_trips_against_a_vec(raw in raw_jobs(), flip in 0usize..1 << 16) {
        let oracle = jobs(&raw);
        let stream = JobStream::from_jobs(oracle.clone(), WorkloadMix::Medium);
        prop_assert_eq!(stream.len(), oracle.len());
        prop_assert_eq!(stream.is_empty(), oracle.is_empty());
        prop_assert_eq!(stream.iter().len(), oracle.len());
        prop_assert_eq!(stream.last_arrival(), oracle.last().map(|j| j.arrival));
        prop_assert_eq!(stream.mix(), WorkloadMix::Medium);
        prop_assert!(stream.iter().map(|j| fields(&j)).eq(oracle.iter().map(fields)));
        prop_assert!((&stream).into_iter().map(|j| fields(&j)).eq(oracle.iter().map(fields)));
        prop_assert_eq!(format!("{stream:?}"), format!("{oracle:?}"));
        for app in Application::ALL {
            let n = oracle.iter().filter(|j| j.app == app).count();
            let expected = if oracle.is_empty() { 0.0 } else { n as f64 / oracle.len() as f64 };
            prop_assert_eq!(stream.app_fraction(app), expected);
        }

        // `PartialEq` decodes like the `Vec`'s: a NaN scale is unequal to
        // itself, and the mix counts
        prop_assert_eq!(stream == stream.clone(), oracle == oracle.clone());
        let other_mix = JobStream::from_jobs(oracle.clone(), WorkloadMix::Light);
        prop_assert!(stream != other_mix);
        if !oracle.is_empty() {
            let mut changed = oracle.clone();
            let i = flip % changed.len();
            changed[i].app = Application::ALL[(raw[i].2 + 1) % 4];
            let changed = JobStream::from_jobs(changed, WorkloadMix::Medium);
            prop_assert!(stream != changed);
            let shorter = JobStream::from_jobs(oracle[..i].to_vec(), WorkloadMix::Medium);
            prop_assert!(stream != shorter);
        }
    }
}
