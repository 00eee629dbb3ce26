//! Property-based tests for the metrics foundations.

use fifer_metrics::{
    percentile::Samples, LatencyBreakdown, RecordLog, RequestRecord, SimDuration, SimTime,
    TimeSeries,
};
use proptest::prelude::*;

proptest! {
    /// Percentiles are monotone in `p` and bounded by min/max.
    #[test]
    fn percentiles_monotone_and_bounded(
        mut values in prop::collection::vec(0.0f64..1e6, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let mut s: Samples = values.drain(..).collect();
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let vlo = s.percentile(lo);
        let vhi = s.percentile(hi);
        prop_assert!(vlo <= vhi + 1e-9);
        prop_assert!(s.min() - 1e-9 <= vlo && vhi <= s.max() + 1e-9);
    }

    /// The empirical CDF is non-decreasing in both coordinates and ends at
    /// the requested truncation fraction.
    #[test]
    fn cdf_is_monotone(
        mut values in prop::collection::vec(0.0f64..1e4, 2..300),
        up_to in 10.0f64..100.0,
    ) {
        let mut s: Samples = values.drain(..).collect();
        let cdf = s.cdf(up_to);
        for w in cdf.points().windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        if let Some(&(_, frac)) = cdf.points().last() {
            prop_assert!(frac <= 1.0 + 1e-12);
        }
    }

    /// Window sums conserve mass: the sum over all windows equals the sum
    /// of in-range observations.
    #[test]
    fn window_sums_conserve_mass(
        points in prop::collection::vec((0u64..100_000u64, 0.0f64..100.0), 0..200),
        width_ms in 1u64..5_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let ts: TimeSeries = sorted
            .iter()
            .map(|&(t, v)| (SimTime::from_millis(t), v))
            .collect();
        let end = SimTime::from_millis(100_000);
        let sums = ts.window_sums(SimDuration::from_millis(width_ms), end);
        let total: f64 = sums.iter().sum();
        let expected: f64 = sorted
            .iter()
            .filter(|&&(t, _)| SimTime::from_millis(t) < end)
            .map(|&(_, v)| v)
            .sum();
        prop_assert!((total - expected).abs() < 1e-6);
    }

    /// Time-weighted mean of a sample-and-hold signal lies within the
    /// signal's range.
    #[test]
    fn time_weighted_mean_in_range(
        points in prop::collection::vec((1u64..1_000u64, 0.0f64..50.0), 1..50),
        initial in 0.0f64..50.0,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let ts: TimeSeries = sorted
            .iter()
            .map(|&(t, v)| (SimTime::from_secs(t), v))
            .collect();
        let mean = ts.time_weighted_mean(SimTime::from_secs(1_000), initial);
        let lo = sorted.iter().map(|&(_, v)| v).fold(initial, f64::min);
        let hi = sorted.iter().map(|&(_, v)| v).fold(initial, f64::max);
        prop_assert!(lo - 1e-9 <= mean && mean <= hi + 1e-9);
    }

    /// SimTime arithmetic is consistent: `(t + d) - t == d`.
    #[test]
    fn time_arithmetic_round_trips(t_us in 0u64..1u64 << 40, d_us in 0u64..1u64 << 40) {
        let t = SimTime::from_micros(t_us);
        let d = SimDuration::from_micros(d_us);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }
}

/// Ids and instants: the extremes, anywhere, and small values whose
/// differences are small.
fn wide_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..1_000]
}

/// Durations whose sum of three does not overflow.
fn duration_us() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX / 4),
        0u64..u64::MAX / 4,
        0u64..10_000
    ]
}

/// A record's fields: `(job_id, submitted, completed)` instants,
/// `(exec, cold_start, queuing)`, and `(app index, slo_violated,
/// completed at submitted + total)`.
type RawRecord = ((u64, u64, u64), (u64, u64, u64), (usize, bool, bool));

fn raw_record() -> impl Strategy<Value = RawRecord> {
    (
        (wide_u64(), wide_u64(), wide_u64()),
        (duration_us(), duration_us(), duration_us()),
        (0usize..4, any::<bool>(), any::<bool>()),
    )
}

/// Few records, or enough to fill several 64 KiB chunks.
fn raw_records() -> impl Strategy<Value = Vec<RawRecord>> {
    prop_oneof![
        prop::collection::vec(raw_record(), 0..50),
        prop::collection::vec(raw_record(), 20_000..24_000),
    ]
}

/// Builds the records, drawing app names from literals and from an equal
/// string at another address.
fn records(raw: &[RawRecord]) -> Vec<RequestRecord> {
    let copy: &'static str = Box::leak(String::from("IPA").into_boxed_str());
    let apps = ["IPA", "IMG", "DetectFatigue", copy];
    raw.iter()
        .map(
            |&((job_id, submitted, other), (exec, cold, queuing), (app, slo, exact))| {
                let breakdown = LatencyBreakdown {
                    exec: SimDuration::from_micros(exec),
                    cold_start: SimDuration::from_micros(cold),
                    queuing: SimDuration::from_micros(queuing),
                };
                let completed = if exact {
                    submitted.wrapping_add(exec + cold + queuing)
                } else {
                    other
                };
                RequestRecord {
                    job_id,
                    app: apps[app],
                    submitted: SimTime::from_micros(submitted),
                    completed: SimTime::from_micros(completed),
                    breakdown,
                    slo_violated: slo,
                }
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A record log decodes back to exactly the records pushed, in order,
    /// and reads like the `Vec` it replaces.
    #[test]
    fn record_log_round_trips_against_a_vec(raw in raw_records(), extra in raw_record()) {
        let oracle = records(&raw);
        let mut log: RecordLog = oracle.iter().cloned().collect();
        prop_assert_eq!(log.len(), oracle.len());
        prop_assert_eq!(log.is_empty(), oracle.is_empty());
        prop_assert_eq!(log.iter().len(), oracle.len());
        prop_assert!(log.iter().eq(oracle.iter().cloned()));
        prop_assert_eq!(format!("{log:?}"), format!("{oracle:?}"));

        // a clone keeps appending where it left off; its chunks end where
        // the original's bytes did, so the two logs now split differently
        let mut copy = log.clone();
        prop_assert!(copy == log);
        let mut longer = oracle.clone();
        longer.extend(records(&[extra]));
        copy.push(longer.last().expect("one extra record"));
        log.push(longer.last().expect("one extra record"));
        prop_assert!(copy == log);
        prop_assert!(copy.iter().eq(longer.iter().cloned()));
        // one flipped flag, same length, makes them differ
        longer[0].slo_violated ^= true;
        let flipped: RecordLog = longer.into_iter().collect();
        prop_assert!(flipped != log);
    }
}
