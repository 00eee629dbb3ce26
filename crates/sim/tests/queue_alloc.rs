//! Steady-state allocation test for the event queue: once the first
//! round of a replay has grown the run-time heap to its high-water
//! capacity, further identically-shaped rounds — arrival-slab pops,
//! heap pushes at `now` and in the future, heap pops, a recurring tick —
//! must not touch the allocator at all. A counting global allocator makes
//! any regression an exact, reproducible failure.
//!
//! This file holds exactly one `#[test]` — the allocation counter is
//! process-global, and a second concurrently-running test would make the
//! delta nondeterministic.

use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::engine::{Event, EventQueue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates to the system allocator, counting every allocation and
/// reallocation (frees are not counted: releasing retained capacity is
/// not the regression this test guards against).
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const ROUNDS: u64 = 5;
const ARRIVALS_PER_ROUND: u64 = 2_048;
const ROUND: SimDuration = SimDuration::from_secs(1);

/// Pops until the queue is empty or the clock passes `until`, fanning
/// each arrival out into one follow-up at `now` and one 50 ms later, and
/// re-arming the tick once per round while rounds remain.
fn drain(q: &mut EventQueue, until: SimTime) {
    while q.now() < until {
        let Some((t, e)) = q.pop() else { return };
        match e {
            Event::JobArrival { job } => {
                q.schedule(
                    t,
                    Event::ContainerWarm {
                        container: job as u64,
                    },
                );
                q.schedule(
                    t + SimDuration::from_millis(50),
                    Event::TaskFinish {
                        container: job as u64,
                    },
                );
            }
            Event::MonitorTick if t + ROUND < SimTime::ZERO + ROUND * ROUNDS => {
                q.schedule(t + ROUND, Event::MonitorTick);
            }
            _ => {}
        }
    }
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let mut q = EventQueue::new();
    let mut job = 0usize;
    for r in 0..ROUNDS {
        for j in 0..ARRIVALS_PER_ROUND {
            let at = SimTime::ZERO + ROUND * r + SimDuration::from_micros(100 * j);
            q.preload_arrival(at, Event::JobArrival { job });
            job += 1;
        }
    }
    q.schedule(SimTime::from_millis(500), Event::MonitorTick);

    drain(&mut q, SimTime::ZERO + ROUND); // warm-up: round 0 grows the heap
    let before = allocations();
    drain(&mut q, SimTime::MAX);
    let delta = allocations() - before;
    assert!(q.is_empty());
    assert_eq!(
        delta, 0,
        "steady-state queue rounds must be allocation-free, saw {delta}"
    );
}
