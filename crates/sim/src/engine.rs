//! The discrete-event engine: a time-ordered event queue with a
//! deterministic tie-break sequence number.
//!
//! [`EventQueue`] keeps its pending set in two parts. The job stream's
//! arrivals are known up front and already time-ordered, so they are
//! preloaded into one contiguous slab and read through a cursor — the
//! bulk of a replay never touches a heap. Everything scheduled at run
//! time (stage hand-offs, warm-ups, task finishes, ticks, faults) goes
//! into one binary heap. [`EventQueue::pop`] commits the smaller
//! `(time, seq)` of the two heads.
//!
//! Sequence numbers come from one counter in schedule-call order, so
//! simultaneous events commit in insertion order and the committed
//! sequence is exactly the one a single heap over every event would
//! produce (see DESIGN.md §12).

use crate::fault::FaultKind;
use fifer_metrics::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the simulator processes. Variants carry indices into the
/// driver's tables rather than references, keeping the queue `'static`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Job `job` (index into the stream) arrives at the front door.
    JobArrival { job: usize },
    /// Job `job` enters the global queue of its current stage (after the
    /// chain transition overhead).
    StageEnqueue { job: usize },
    /// The task executing on `container` completes.
    TaskFinish { container: u64 },
    /// `container` finishes its cold start and becomes warm.
    ContainerWarm { container: u64 },
    /// Fast reactive-scaling check (Algorithm 1 a/b).
    ReactiveTick,
    /// Slow monitoring tick: proactive scaling, idle scale-down, energy
    /// sampling (the paper's T = 10 s interval, §4.5).
    MonitorTick,
    /// Fault injection: `container` dies (spawn fault or mid-task crash,
    /// per `fault`). Stale if the container is already dead when it fires.
    ContainerCrash {
        /// The doomed container.
        container: u64,
        /// Which fault killed it (trace attribution).
        fault: FaultKind,
    },
    /// Fault injection: node `node` goes down, killing every resident
    /// container.
    NodeDown {
        /// The failing node.
        node: usize,
    },
    /// Fault injection: node `node` recovers and accepts placements again.
    NodeUp {
        /// The recovering node.
        node: usize,
    },
}

/// An event scheduled at a time, ordered by `(time, seq)` so simultaneous
/// events process in insertion order — deterministic across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want earliest first
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue plus simulation clock: a pre-sorted arrival slab read
/// by cursor, and one heap for run-time schedules.
///
/// # Example
///
/// ```
/// use fifer_sim::engine::{Event, EventQueue};
/// use fifer_metrics::SimTime;
///
/// let mut q = EventQueue::new();
/// q.preload_arrival(SimTime::from_secs(1), Event::JobArrival { job: 0 });
/// q.schedule(SimTime::from_secs(2), Event::ReactiveTick);
/// q.schedule(SimTime::from_secs(1), Event::MonitorTick);
/// // equal times commit in schedule order: the arrival was first
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), Event::JobArrival { job: 0 })));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), Event::MonitorTick)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), Event::ReactiveTick)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Preloaded arrivals, sorted by `(time, seq)`; `arrivals[cursor..]`
    /// are still pending.
    arrivals: Vec<Scheduled>,
    cursor: usize,
    /// Everything scheduled through [`Self::schedule`].
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
    /// Set by the first [`Self::pop`]; arrival preloads are refused after.
    draining: bool,
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Appends one event to the arrival slab. Only valid before the first
    /// [`Self::pop`], and calls must come in non-decreasing time order
    /// (job streams are arrival-ordered); together with the rising
    /// sequence counter that keeps the slab sorted by `(time, seq)`.
    ///
    /// # Panics
    ///
    /// Panics if called after draining started or out of time order.
    pub fn preload_arrival(&mut self, at: SimTime, event: Event) {
        assert!(!self.draining, "arrival preload after draining started");
        assert!(
            self.arrivals.last().is_none_or(|p| p.at <= at),
            "arrival preload out of time order"
        );
        self.arrivals.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — the simulator only
    /// moves forward.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Scheduled {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Pops the earliest event — the smaller `(time, seq)` of the slab
    /// and heap heads — advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.draining = true;
        let from_slab = match (self.arrivals.get(self.cursor), self.heap.peek()) {
            (Some(a), Some(h)) => a.key() < h.key(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let s = if from_slab {
            let s = self.arrivals[self.cursor];
            self.cursor += 1;
            s
        } else {
            self.heap.pop()?
        };
        debug_assert!(s.at >= self.now, "queue yielded an out-of-order event");
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.arrivals.len() - self.cursor + self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(secs(3), Event::ReactiveTick);
        q.schedule(secs(1), Event::MonitorTick);
        q.schedule(secs(2), Event::JobArrival { job: 0 });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![secs(1), secs(2), secs(3)]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(secs(1), Event::JobArrival { job: 1 });
        q.preload_arrival(secs(1), Event::JobArrival { job: 2 });
        q.schedule(secs(1), Event::JobArrival { job: 3 });
        q.preload_arrival(secs(1), Event::JobArrival { job: 4 });
        let jobs: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(jobs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn slab_and_heap_interleave_by_time() {
        let mut q = EventQueue::new();
        q.schedule(secs(2), Event::MonitorTick);
        for (job, t) in [1, 3, 5].into_iter().enumerate() {
            q.preload_arrival(secs(t), Event::JobArrival { job });
        }
        assert_eq!(q.pop().unwrap().0, secs(1));
        q.schedule(secs(4), Event::ReactiveTick);
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![secs(2), secs(3), secs(4), secs(5)]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(secs(5), Event::MonitorTick);
        q.pop();
        assert_eq!(q.now(), secs(5));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(secs(5), Event::MonitorTick);
        q.pop();
        q.schedule(secs(1), Event::MonitorTick);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(secs(2), Event::MonitorTick);
        q.pop();
        q.schedule(secs(2), Event::ReactiveTick);
        assert_eq!(q.pop().unwrap().0, secs(2));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.preload_arrival(secs(1), Event::JobArrival { job: 0 });
        q.schedule(secs(1), Event::MonitorTick);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "preload out of time order")]
    fn out_of_order_preloads_panic() {
        let mut q = EventQueue::new();
        q.preload_arrival(secs(2), Event::JobArrival { job: 0 });
        q.preload_arrival(secs(1), Event::JobArrival { job: 1 });
    }

    #[test]
    #[should_panic(expected = "preload after draining")]
    fn late_preloads_panic() {
        let mut q = EventQueue::new();
        q.schedule(secs(1), Event::MonitorTick);
        q.pop();
        q.preload_arrival(secs(2), Event::JobArrival { job: 0 });
    }

    #[test]
    #[should_panic(expected = "preload after draining")]
    fn preloads_after_an_empty_pop_panic() {
        // a pop that finds nothing still starts draining
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        q.preload_arrival(secs(1), Event::JobArrival { job: 0 });
    }
}
