//! Per-job allocation pin for whole replays: doubling a Poisson stream's
//! rate must not add heap allocations per extra job. Once a replay's
//! tables have grown, a job's arrival, stage hops, dispatches and
//! completion touch only preallocated or amortized storage (the record
//! vector is sized to the stream; the queue, bitsets and series grow by
//! doubling). A counting global allocator makes any per-job allocation —
//! a `String` per record, a map key per SLO observation, a B-tree node
//! per free-slot transition — an exact, reproducible failure.
//!
//! Harvest is not pinned: `find_backing` collects its lender candidates
//! into a fresh vector on every harvest attempt.
//!
//! This file holds exactly one `#[test]` — the allocation counter is
//! process-global, and a second concurrently-running test would make the
//! delta nondeterministic.

use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_sim::config::SimConfig;
use fifer_sim::driver::Simulation;
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, counting every allocation and
/// reallocation (frees are not counted).
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on heap allocations per extra job.
const MAX_ALLOCS_PER_JOB: f64 = 0.1;

/// Replays a 600 s Poisson stream of the Heavy mix at `rate` on the
/// prototype cluster; returns the allocations the replay made and the
/// stream's job count. Generating the stream is not counted.
fn replay_allocations(kind: RmKind, rate: f64) -> (u64, usize) {
    let stream = JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Heavy,
        SimDuration::from_secs(600),
        42,
    );
    let cfg = SimConfig::prototype(kind.config(), rate);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = Simulation::new(cfg, &stream).run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        result.records.len(),
        stream.len(),
        "{kind}: every job completes"
    );
    (allocations, stream.len())
}

#[test]
fn extra_jobs_do_not_allocate() {
    for kind in [
        RmKind::Bline,
        RmKind::SBatch,
        RmKind::RScale,
        RmKind::BPred,
        RmKind::Fifer,
        RmKind::HybridHist,
    ] {
        let (low_allocs, low_jobs) = replay_allocations(kind, 25.0);
        let (high_allocs, high_jobs) = replay_allocations(kind, 50.0);
        assert!(high_jobs > low_jobs + 10_000, "{kind}: streams too close");
        let per_job = high_allocs.saturating_sub(low_allocs) as f64 / (high_jobs - low_jobs) as f64;
        eprintln!("{kind}: {per_job:.4} allocations per extra job");
        assert!(
            per_job < MAX_ALLOCS_PER_JOB,
            "{kind}: {per_job:.3} allocations per extra job \
             ({low_allocs} for {low_jobs} jobs, {high_allocs} for {high_jobs})"
        );
    }
}
