//! Per-job memory pin for generated job streams. A stream keeps its jobs
//! in a compact exact encoding (about 11 bytes per job, where a
//! `Vec<JobRequest>` holds 32), and the Azure generator merges its
//! per-app runs straight into it: while it runs, the runs (8 B per
//! arrival) and the growing stream are all it holds. A counting global
//! allocator tracks live and peak bytes, so a stream that returns to 32 B
//! per job, or a generator that again collects a sort-key vector or a
//! `Vec<JobRequest>` beside the stream, is an exact, reproducible failure.
//!
//! This file holds exactly one `#[test]` — the byte counters are
//! process-global, and a second concurrently-running test would make the
//! peak nondeterministic.

use fifer_metrics::SimDuration;
use fifer_workloads::{AzureWorkloadConfig, JobStream, PoissonTrace, TriggerMix, WorkloadMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, tracking the bytes currently
/// allocated and their high-water mark.
struct CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on the heap bytes per job a generated stream holds. The
/// encoding takes about 11 B per job in 64 KiB chunks; a
/// `Vec<JobRequest>` holds 32 B.
const MAX_HELD_BYTES_PER_JOB: f64 = 14.0;

/// Ceiling on the Azure generator's peak heap bytes per job. The merge
/// holds the apps' runs (8 B per arrival, each shrunk to its length)
/// beside the growing stream: about 19.5 B. Runs that keep the spare
/// capacity of their doubling growth peak near 24 B; sorting a 16 B
/// `(time, rank)` key per arrival and collecting 32 B `JobRequest`s
/// peaks near 58 B.
const MAX_AZURE_PEAK_BYTES_PER_JOB: f64 = 22.0;

/// Runs `generate`, returning the stream, the heap bytes it holds and the
/// peak heap bytes above what was live before, each per job.
fn measure(generate: impl FnOnce() -> JobStream) -> (JobStream, f64, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let stream = generate();
    let held = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let jobs = stream.len() as f64;
    (stream, held as f64 / jobs, peak as f64 / jobs)
}

#[test]
fn generated_streams_hold_compact_jobs() {
    // the benchmark's azure-hybridhist family over 1200 s
    let azure = AzureWorkloadConfig {
        apps: 400,
        tail_exponent: 1.5,
        total_rate: 150.0,
        trigger_mix: TriggerMix::paper_default(),
        mix: WorkloadMix::Heavy,
    };
    let (stream, held, peak) = measure(|| azure.generate_stream(SimDuration::from_secs(1200), 42));
    eprintln!(
        "azure: {} jobs, {held:.1} B/job held, {peak:.1} B/job at the peak",
        stream.len()
    );
    assert!(stream.len() >= 100_000, "{} jobs", stream.len());
    assert!(
        held <= MAX_HELD_BYTES_PER_JOB,
        "an Azure stream holds {held:.1} B per job"
    );
    assert!(
        peak <= MAX_AZURE_PEAK_BYTES_PER_JOB,
        "the Azure generator peaks at {peak:.1} B per job"
    );
    drop(stream);

    let (stream, held, _) = measure(|| {
        JobStream::generate(
            &PoissonTrace::new(150.0),
            WorkloadMix::Heavy,
            SimDuration::from_secs(1200),
            42,
        )
    });
    eprintln!("poisson: {} jobs, {held:.1} B/job held", stream.len());
    assert!(stream.len() >= 100_000, "{} jobs", stream.len());
    assert!(
        held <= MAX_HELD_BYTES_PER_JOB,
        "a Poisson stream holds {held:.1} B per job"
    );
}
