//! Pinned job streams: the job count and FNV-1a digest of the two
//! generated streams the benchmark replays at seed 42, the WITS trace of
//! wits-harvest-faults and the Azure family of azure-hybridhist. The
//! digests were recorded from the generators as they were before the WITS
//! envelope, the Zipf table and the window sampler became linear; a
//! generator change that moves any arrival, app or input scale fails here
//! by name. Explain a moved digest or fix the change, never re-pin
//! silently.

use fifer_metrics::SimDuration;
use fifer_workloads::{AzureWorkloadConfig, JobStream, TriggerMix, WitsLikeTrace, WorkloadMix};

/// FNV-1a 64 over each job's id, app name, arrival (µs) and input-scale
/// bits, little-endian, in stream order.
fn digest(s: &JobStream) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x00000100000001b3);
        }
    };
    for j in s.iter() {
        eat(&j.id.to_le_bytes());
        eat(j.app.name().as_bytes());
        eat(&j.arrival.as_micros().to_le_bytes());
        eat(&j.input_scale.to_bits().to_le_bytes());
    }
    h
}

/// `fifer --trace wits --rate 60 --secs 7200 --seed 42`.
#[test]
fn benchmark_wits_stream_is_pinned() {
    let horizon = SimDuration::from_secs(7200);
    let trace = WitsLikeTrace::scaled(60.0 / 240.0, horizon, 42);
    let s = JobStream::generate(&trace, WorkloadMix::Heavy, horizon, 42);
    assert_eq!((s.len(), digest(&s)), (731_534, 0xce37e629a944debb));
}

/// `fifer --workload azure --apps 400 --rate 150 --secs 7200 --seed 42`.
#[test]
fn benchmark_azure_stream_is_pinned() {
    let cfg = AzureWorkloadConfig {
        apps: 400,
        tail_exponent: 1.5,
        total_rate: 150.0,
        trigger_mix: TriggerMix::paper_default(),
        mix: WorkloadMix::Heavy,
    };
    let s = cfg.generate_stream(SimDuration::from_secs(7200), 42);
    assert_eq!((s.len(), digest(&s)), (1_075_525, 0x897dfb7269ac6253));
}
