//! Per-request latency breakdowns.
//!
//! The paper separates response latency into execution time, cold-start
//! induced delay, and batching/queuing induced delay (Figure 9, §6.1.2).
//! [`RequestRecord`] is the unit the simulator emits per completed job,
//! kept in a compact [`RecordLog`]; the experiment harness aggregates
//! records into the paper's metrics.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Response latency split into its three sources (all in sim time).
///
/// `total() = exec + cold_start + queuing` by construction; the simulator
/// attributes every microsecond a job spends between submission and
/// completion to exactly one of the three buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Pure function execution time across all stages of the chain.
    pub exec: SimDuration,
    /// Delay attributable to waiting for container cold starts.
    pub cold_start: SimDuration,
    /// Delay attributable to queuing behind other requests (batching).
    pub queuing: SimDuration,
}

impl LatencyBreakdown {
    /// A breakdown with all components zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// End-to-end response latency.
    pub fn total(&self) -> SimDuration {
        self.exec + self.cold_start + self.queuing
    }

    /// Accumulates another breakdown (e.g. across chain stages).
    pub fn accumulate(&mut self, other: &LatencyBreakdown) {
        self.exec += other.exec;
        self.cold_start += other.cold_start;
        self.queuing += other.queuing;
    }
}

/// Everything the simulator records about one completed job (chain
/// invocation).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Monotonically increasing job id.
    pub job_id: u64,
    /// Application (chain) name this job invoked.
    pub app: &'static str,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant.
    pub completed: SimTime,
    /// Latency attribution.
    pub breakdown: LatencyBreakdown,
    /// Whether the end-to-end latency exceeded the SLO.
    pub slo_violated: bool,
}

impl RequestRecord {
    /// End-to-end response latency (`completed - submitted`).
    ///
    /// This equals `breakdown.total()` for a well-formed record; the
    /// simulator's integration tests assert that invariant.
    pub fn response_latency(&self) -> SimDuration {
        self.completed - self.submitted
    }
}

/// Bytes per chunk of a [`RecordLog`].
const CHUNK_BYTES: usize = 64 << 10;

/// Longest encoding of one record: seven varints of at most 10 bytes.
const MAX_RECORD_BYTES: usize = 7 * 10;

/// An append-only, exact log of [`RequestRecord`]s: about 11 bytes per
/// simulator record where a `Vec<RequestRecord>` holds 72.
///
/// A record is seven LEB128 varints:
/// 1. its app's index in a table of interned names, shifted left one bit,
///    with `slo_violated` in the low bit;
/// 2. `job_id` minus the previous record's `job_id`;
/// 3. `submitted` minus the previous record's `submitted`;
/// 4. `exec`, `cold_start` and `queuing`, in µs (three varints);
/// 5. `completed − submitted − breakdown.total()`: 0, one byte, whenever
///    the breakdown accounts for the whole response latency, as it does
///    for every record the simulator writes.
///
/// The differences wrap in `u64` and the signed ones are zigzag-coded, so
/// any record decodes back bit for bit, in push order. The bytes live in
/// fixed 64 KiB chunks that no record straddles: the log never reallocates
/// or copies what it holds. An empty log allocates nothing.
#[derive(Clone, Default)]
pub struct RecordLog {
    chunks: Vec<Vec<u8>>,
    apps: Vec<&'static str>,
    len: usize,
    last_job: u64,
    last_submitted: u64,
}

impl RecordLog {
    /// Appends `r`.
    pub fn push(&mut self, r: &RequestRecord) {
        let app = self.app_index(r.app) as u64;
        let submitted = r.submitted.as_micros();
        let exec = r.breakdown.exec.as_micros();
        let cold = r.breakdown.cold_start.as_micros();
        let queuing = r.breakdown.queuing.as_micros();
        let unattributed = r
            .completed
            .as_micros()
            .wrapping_sub(submitted)
            .wrapping_sub(exec.wrapping_add(cold).wrapping_add(queuing));
        let fields = [
            (app << 1) | u64::from(r.slo_violated),
            zigzag(r.job_id.wrapping_sub(self.last_job)),
            zigzag(submitted.wrapping_sub(self.last_submitted)),
            exec,
            cold,
            queuing,
            zigzag(unattributed),
        ];
        let mut buf = [0; MAX_RECORD_BYTES];
        let mut n = 0;
        for v in fields {
            put_varint(&mut buf, &mut n, v);
        }
        // a record never straddles two chunks, so no chunk ever grows
        match self.chunks.last_mut() {
            Some(chunk) if chunk.capacity() - chunk.len() >= n => {
                chunk.extend_from_slice(&buf[..n])
            }
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_BYTES);
                chunk.extend_from_slice(&buf[..n]);
                self.chunks.push(chunk);
            }
        }
        self.last_job = r.job_id;
        self.last_submitted = submitted;
        self.len += 1;
    }

    /// Number of records pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records, decoded in push order.
    pub fn iter(&self) -> RecordIter<'_> {
        RecordIter {
            apps: &self.apps,
            chunks: self.chunks.iter(),
            bytes: &[],
            pos: 0,
            last_job: 0,
            last_submitted: 0,
            left: self.len,
        }
    }

    /// Index of `app` in the name table, interning it on first sight. The
    /// simulator passes the same few literals every time, so an address
    /// match almost always saves the string compare. The address scan does
    /// not stop at the match: the apps of consecutive records alternate at
    /// random, and an early exit would mispredict on them.
    fn app_index(&mut self, app: &'static str) -> usize {
        let mut hit = None;
        for (i, &a) in self.apps.iter().enumerate() {
            if std::ptr::eq(a, app) {
                hit = Some(i);
            }
        }
        if let Some(i) = hit {
            return i;
        }
        if let Some(i) = self.apps.iter().position(|&a| a == app) {
            return i;
        }
        self.apps.push(app);
        self.apps.len() - 1
    }
}

/// Appends `v` to `buf[*n..]` as an LEB128 varint: 7 bits per byte, low
/// bits first, the high bit set on every byte but the last.
fn put_varint(buf: &mut [u8], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        buf[*n] = v as u8 | 0x80;
        v >>= 7;
        *n += 1;
    }
    buf[*n] = v as u8;
    *n += 1;
}

/// Reads the LEB128 varint at `bytes[*pos..]` and moves `pos` past it.
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let b = bytes[*pos];
    *pos += 1;
    if b < 0x80 {
        return u64::from(b);
    }
    let mut v = u64::from(b & 0x7f);
    let mut shift = 7;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Maps a wrapped difference, read as `i64`, to a `u64` that is small
/// when its magnitude is: 0, −1, 1, −2, … → 0, 1, 2, 3, …
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64) >> 63) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

impl fmt::Debug for RecordLog {
    /// Prints the decoded records as a list, like a `Vec<RequestRecord>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for RecordLog {
    /// Compares the decoded records: two logs of the same records may
    /// split their bytes into chunks differently (a clone's chunks end at
    /// its length).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other)
    }
}

impl FromIterator<RequestRecord> for RecordLog {
    fn from_iter<I: IntoIterator<Item = RequestRecord>>(iter: I) -> Self {
        let mut log = RecordLog::default();
        for r in iter {
            log.push(&r);
        }
        log
    }
}

impl<'a> IntoIterator for &'a RecordLog {
    type Item = RequestRecord;
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

/// Decodes a [`RecordLog`] in push order ([`RecordLog::iter`]).
#[derive(Debug, Clone)]
pub struct RecordIter<'a> {
    apps: &'a [&'static str],
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The current chunk, decoded up to `pos`.
    bytes: &'a [u8],
    pos: usize,
    last_job: u64,
    last_submitted: u64,
    left: usize,
}

impl Iterator for RecordIter<'_> {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        if self.pos == self.bytes.len() {
            // chunks hold whole records and are never empty
            self.bytes = self.chunks.next()?;
            self.pos = 0;
        }
        let (bytes, pos) = (self.bytes, &mut self.pos);
        let tag = get_varint(bytes, pos);
        self.last_job = self.last_job.wrapping_add(unzigzag(get_varint(bytes, pos)));
        self.last_submitted = self
            .last_submitted
            .wrapping_add(unzigzag(get_varint(bytes, pos)));
        let exec = get_varint(bytes, pos);
        let cold = get_varint(bytes, pos);
        let queuing = get_varint(bytes, pos);
        let completed = self
            .last_submitted
            .wrapping_add(exec.wrapping_add(cold).wrapping_add(queuing))
            .wrapping_add(unzigzag(get_varint(bytes, pos)));
        self.left -= 1;
        Some(RequestRecord {
            job_id: self.last_job,
            app: self.apps[(tag >> 1) as usize],
            submitted: SimTime::from_micros(self.last_submitted),
            completed: SimTime::from_micros(completed),
            breakdown: LatencyBreakdown {
                exec: SimDuration::from_micros(exec),
                cold_start: SimDuration::from_micros(cold),
                queuing: SimDuration::from_micros(queuing),
            },
            slo_violated: tag & 1 == 1,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RecordIter<'_> {}

/// Aggregates [`RequestRecord`]s into the paper's headline metrics.
#[derive(Debug, Clone, Default)]
pub struct BreakdownSummary {
    records: usize,
    exec_ms: crate::percentile::Samples,
    cold_ms: crate::percentile::Samples,
    queue_ms: crate::percentile::Samples,
    total_ms: crate::percentile::Samples,
}

impl BreakdownSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the summary.
    pub fn add(&mut self, r: &RequestRecord) {
        self.records += 1;
        self.exec_ms.push(r.breakdown.exec.as_millis_f64());
        self.cold_ms.push(r.breakdown.cold_start.as_millis_f64());
        self.queue_ms.push(r.breakdown.queuing.as_millis_f64());
        self.total_ms.push(r.breakdown.total().as_millis_f64());
    }

    /// Number of records folded in.
    pub fn len(&self) -> usize {
        self.records
    }

    /// `true` when no records have been folded in.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// `(exec, cold_start, queuing)` means in milliseconds.
    pub fn mean_components_ms(&self) -> (f64, f64, f64) {
        (
            self.exec_ms.mean(),
            self.cold_ms.mean(),
            self.queue_ms.mean(),
        )
    }

    /// `p`-th percentile of total latency in milliseconds.
    pub fn total_percentile_ms(&mut self, p: f64) -> f64 {
        self.total_ms.percentile(p)
    }

    /// Mutable access to the total-latency samples (for CDFs).
    pub fn total_samples_mut(&mut self) -> &mut crate::percentile::Samples {
        &mut self.total_ms
    }

    /// Mutable access to the queuing-latency samples (Figure 10b).
    pub fn queuing_samples_mut(&mut self) -> &mut crate::percentile::Samples {
        &mut self.queue_ms
    }

    /// Components of the P99 request's latency, approximated as the P99 of
    /// each component (the paper plots stacked components at P99).
    pub fn p99_components_ms(&mut self) -> (f64, f64, f64) {
        (
            self.exec_ms.percentile(99.0),
            self.cold_ms.percentile(99.0),
            self.queue_ms.percentile(99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(exec_ms: u64, cold_ms: u64, queue_ms: u64) -> RequestRecord {
        let breakdown = LatencyBreakdown {
            exec: SimDuration::from_millis(exec_ms),
            cold_start: SimDuration::from_millis(cold_ms),
            queuing: SimDuration::from_millis(queue_ms),
        };
        RequestRecord {
            job_id: 1,
            app: "IPA",
            submitted: SimTime::from_secs(1),
            completed: SimTime::from_secs(1) + breakdown.total(),
            breakdown,
            slo_violated: false,
        }
    }

    #[test]
    fn total_sums_components() {
        let b = LatencyBreakdown {
            exec: SimDuration::from_millis(100),
            cold_start: SimDuration::from_millis(2000),
            queuing: SimDuration::from_millis(50),
        };
        assert_eq!(b.total(), SimDuration::from_millis(2150));
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let mut a = LatencyBreakdown::new();
        a.accumulate(&LatencyBreakdown {
            exec: SimDuration::from_millis(10),
            cold_start: SimDuration::ZERO,
            queuing: SimDuration::from_millis(5),
        });
        a.accumulate(&LatencyBreakdown {
            exec: SimDuration::from_millis(20),
            cold_start: SimDuration::from_millis(100),
            queuing: SimDuration::ZERO,
        });
        assert_eq!(a.exec, SimDuration::from_millis(30));
        assert_eq!(a.cold_start, SimDuration::from_millis(100));
        assert_eq!(a.queuing, SimDuration::from_millis(5));
    }

    #[test]
    fn record_latency_matches_breakdown() {
        let r = record(100, 2000, 50);
        assert_eq!(r.response_latency(), r.breakdown.total());
    }

    #[test]
    fn summary_means() {
        let mut s = BreakdownSummary::new();
        s.add(&record(100, 0, 0));
        s.add(&record(300, 200, 100));
        let (e, c, q) = s.mean_components_ms();
        assert_eq!((e, c, q), (200.0, 100.0, 50.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = BreakdownSummary::new();
        for i in 1..=100 {
            s.add(&record(i, 0, 0));
        }
        assert!((s.total_percentile_ms(50.0) - 50.5).abs() < 1e-9);
    }
}
