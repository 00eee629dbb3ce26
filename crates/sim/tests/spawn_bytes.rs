//! Per-spawn memory pin for whole replays: a container that dies leaves
//! the container table and frees its local-queue buffer, so respawning
//! adds only a bounded number of peak heap bytes per extra spawn. One
//! sparse stream is replayed twice with the same jobs, once with a 600 s
//! idle timeout (containers stay warm between arrivals) and once with a
//! 1 s one (almost every task finds its container reclaimed and spawns a
//! new one); only the spawn count differs. What still grows per spawn is
//! a 4-byte id slot, a bit per id in the stages' free-slot sets, and the
//! `live_containers`/`cumulative_spawns` series (three 16 B points per
//! spawn, grown by doubling). A table that keeps dead containers (248 B
//! each plus a queue buffer) is an exact, reproducible failure.
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

/// Ceiling on peak heap bytes per extra spawn: the three series points
/// (48 B, up to twice that while a series doubles) plus the 4 B id slot.
const MAX_BYTES_PER_SPAWN: f64 = 160.0;

/// Replays `stream` under `kind` with the given idle timeout on the
/// prototype cluster; returns the peak heap bytes above what was live
/// before `Simulation::new`, and the run's spawn count.
fn replay_peak_bytes(stream: &JobStream, kind: RmKind, idle_timeout_s: u64) -> (u64, u64) {
    let mut cfg = SimConfig::prototype(kind.config(), 0.5);
    cfg.idle_timeout = SimDuration::from_secs(idle_timeout_s);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = Simulation::new(cfg, stream).run();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(
        result.records.len(),
        stream.len(),
        "{kind}: every job completes"
    );
    (peak, result.total_spawns)
}

#[test]
fn extra_spawns_add_bounded_peak_heap() {
    let stream = JobStream::generate(
        &PoissonTrace::new(0.5),
        WorkloadMix::Heavy,
        SimDuration::from_secs(14_400),
        42,
    );
    for kind in [RmKind::Bline, RmKind::Fifer] {
        let (warm_peak, warm_spawns) = replay_peak_bytes(&stream, kind, 600);
        let (churn_peak, churn_spawns) = replay_peak_bytes(&stream, kind, 1);
        assert!(
            churn_spawns > warm_spawns + 5_000,
            "{kind}: spawn counts too close ({warm_spawns} vs {churn_spawns})"
        );
        let per_spawn =
            churn_peak.saturating_sub(warm_peak) as f64 / (churn_spawns - warm_spawns) as f64;
        eprintln!("{kind}: {per_spawn:.1} peak heap bytes per extra spawn");
        assert!(
            per_spawn < MAX_BYTES_PER_SPAWN,
            "{kind}: {per_spawn:.1} peak heap bytes per extra spawn \
             ({warm_peak} for {warm_spawns} spawns, {churn_peak} for {churn_spawns})"
        );
    }
}
