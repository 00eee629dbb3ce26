//! Per-job memory pin for whole replays: doubling a Poisson stream's rate
//! may add only a bounded number of peak heap bytes per extra job. Replay
//! state is live state — the event queue reads arrivals from the stream,
//! jobs live in a window of unfinished jobs, dead containers leave the
//! container table, and the headline sorts one integer vector — so what
//! still grows with the stream is the record vector (one `RequestRecord`
//! per job) plus the headline's 8-byte totals, for every RM alike. The
//! extra containers a faster stream spawns cost only their per-spawn
//! series points (`spawn_bytes.rs` pins those). A counting global
//! allocator tracks live and peak bytes, so a per-job table that returns
//! (a copy of the stream, a state per job, a multi-vector summary) is an
//! exact, reproducible failure.
//!
//! This file holds exactly one `#[test]` — the byte counters are
//! process-global, and a second concurrently-running test would make the
//! peak nondeterministic.

use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_sim::config::SimConfig;
use fifer_sim::driver::Simulation;
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};
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

/// Ceiling on peak heap bytes per extra job. The record vector reserves
/// one 72 B `RequestRecord` per job of the stream, and the headline's
/// sorted totals add 8 B per measured job: every RM reads 78–84 B.
const MAX_BYTES_PER_JOB: f64 = 100.0;

/// Replays a 600 s Poisson stream of the Heavy mix at `rate` on the
/// prototype cluster and takes its headline; returns the peak heap bytes
/// above what was live before `Simulation::new`, and the stream's job
/// count. The stream itself is the caller's and is not counted.
fn replay_peak_bytes(kind: RmKind, rate: f64) -> (u64, usize) {
    let stream = JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Heavy,
        SimDuration::from_secs(600),
        42,
    );
    let cfg = SimConfig::prototype(kind.config(), rate);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = Simulation::new(cfg, &stream).run();
    let headline = result.headline();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(
        result.records.len(),
        stream.len(),
        "{kind}: every job completes"
    );
    assert!(headline.p99_ms >= headline.median_ms);
    (peak, stream.len())
}

#[test]
fn extra_jobs_add_bounded_peak_heap() {
    for kind in [
        RmKind::Bline,
        RmKind::SBatch,
        RmKind::RScale,
        RmKind::BPred,
        RmKind::Fifer,
        RmKind::HybridHist,
    ] {
        let (low_peak, low_jobs) = replay_peak_bytes(kind, 25.0);
        let (high_peak, high_jobs) = replay_peak_bytes(kind, 50.0);
        assert!(high_jobs > low_jobs + 10_000, "{kind}: streams too close");
        let per_job = high_peak.saturating_sub(low_peak) as f64 / (high_jobs - low_jobs) as f64;
        eprintln!("{kind}: {per_job:.1} peak heap bytes per extra job");
        assert!(
            per_job < MAX_BYTES_PER_JOB,
            "{kind}: {per_job:.1} peak heap bytes per extra job \
             ({low_peak} for {low_jobs} jobs, {high_peak} for {high_jobs})"
        );
    }
}
