//! The discrete-event engine: a time-ordered event queue with a
//! deterministic tie-break sequence number.
//!
//! [`EventQueue`] keeps its pending set in two parts. The job stream's
//! arrivals are known up front and already time-ordered, so the queue
//! decodes them straight from the stream through its iterator, one job
//! ahead — the bulk of a replay never touches a heap, and no copy of the
//! stream is made. Everything scheduled at run time (stage hand-offs,
//! warm-ups, task finishes, ticks, faults) goes into one binary heap.
//! [`EventQueue::pop`] commits the smaller `(time, seq)` of the two heads.
//!
//! Sequence numbers come from one counter in schedule-call order (the
//! arrival run reserves one per job when it is attached), so simultaneous
//! events commit in insertion order and the committed sequence is exactly
//! the one a single heap over every event would produce (see DESIGN.md
//! §12).

use crate::fault::FaultKind;
use fifer_metrics::SimTime;
use fifer_workloads::request::JobIter;
use fifer_workloads::{JobRequest, JobStream};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the simulator processes. Variants carry indices (stream
/// indices for jobs, ids for containers and nodes) rather than
/// references, keeping events `Copy`.
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

/// The event queue plus simulation clock: the job stream's arrivals
/// decoded in order, and one heap for run-time schedules.
///
/// # Example
///
/// ```
/// use fifer_sim::engine::{Event, EventQueue};
/// use fifer_metrics::SimTime;
/// use fifer_workloads::{Application, JobRequest, JobStream, WorkloadMix};
///
/// let job = JobRequest {
///     id: 0,
///     app: Application::Ipa,
///     arrival: SimTime::from_secs(1),
///     input_scale: 1.0,
/// };
/// let stream = JobStream::from_jobs(vec![job], WorkloadMix::Heavy);
/// let mut q = EventQueue::new();
/// q.attach_arrivals(&stream);
/// q.schedule(SimTime::from_secs(2), Event::ReactiveTick);
/// q.schedule(SimTime::from_secs(1), Event::MonitorTick);
/// // equal times commit in schedule order: the arrival was first
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), Event::JobArrival { job: 0 })));
/// assert_eq!(q.arrived(), job);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), Event::MonitorTick)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), Event::ReactiveTick)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue<'a> {
    /// The attached stream's jobs after `next`, still to decode.
    arrivals: JobIter<'a>,
    /// The next pending arrival, job `cursor` of the stream, decoded one
    /// job ahead so its time can be compared with the heap's head.
    next: Option<JobRequest>,
    cursor: usize,
    /// The job of the last [`Event::JobArrival`] popped.
    arrived: Option<JobRequest>,
    /// Job `i` arrives with sequence number `arrival_seq + i`.
    arrival_seq: u64,
    /// Everything scheduled through [`Self::schedule`].
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
    /// Set by the first [`Self::pop`]; an arrival run is refused after.
    draining: bool,
}

impl<'a> EventQueue<'a> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches the job stream's arrivals: job `i` of `stream` arrives as
    /// [`Event::JobArrival`]` { job: i }` at its `arrival` time (a
    /// [`JobStream`] is in arrival order by construction). The run takes
    /// the next `stream.len()` sequence numbers in one step, exactly as
    /// scheduling each arrival here in order would.
    ///
    /// # Panics
    ///
    /// Panics if a run is already attached or if draining started.
    pub fn attach_arrivals(&mut self, stream: &'a JobStream) {
        assert!(
            !self.draining,
            "arrival run attached after draining started"
        );
        assert!(
            self.next.is_none() && self.cursor == 0,
            "an arrival run is already attached"
        );
        self.arrivals = stream.iter();
        self.next = self.arrivals.next();
        self.arrival_seq = self.next_seq;
        self.next_seq += stream.len() as u64;
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

    /// Pops the earliest event — the smaller `(time, seq)` of the arrival
    /// run's and the heap's heads — advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.draining = true;
        let job = self.cursor;
        let seq = self.arrival_seq + job as u64;
        let heap = &self.heap;
        let arrival = self
            .next
            .filter(|a| heap.peek().is_none_or(|h| (a.arrival, seq) < h.key()));
        let (at, event) = match arrival {
            Some(a) => {
                self.cursor += 1;
                self.arrived = arrival;
                self.next = self.arrivals.next();
                (a.arrival, Event::JobArrival { job })
            }
            None => {
                let s = pop_heap(&mut self.heap)?;
                (s.at, s.event)
            }
        };
        debug_assert!(at >= self.now, "queue yielded an out-of-order event");
        self.now = at;
        Some((at, event))
    }

    /// The job of the last [`Event::JobArrival`] popped.
    ///
    /// # Panics
    ///
    /// Panics if no arrival has been popped yet.
    pub fn arrived(&self) -> JobRequest {
        self.arrived.expect("an arrival was popped")
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.arrivals.len() + usize::from(self.next.is_some()) + self.heap.len()
    }

    /// `true` when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The heap's pop, kept out of line. Whether LLVM inlines it into the
/// simulator's event loop flips with unrelated edits to the handlers, and
/// inlined it made azure-hybridhist replay about 8% slower (perfbench
/// `timed` pairs, 2-vCPU Xeon VM).
#[inline(never)]
fn pop_heap(heap: &mut BinaryHeap<Scheduled>) -> Option<Scheduled> {
    heap.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_workloads::{Application, WorkloadMix};

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A stream of jobs arriving at `times` seconds.
    fn jobs(times: &[u64]) -> JobStream {
        let jobs = times
            .iter()
            .enumerate()
            .map(|(i, &t)| JobRequest {
                id: i as u64,
                app: Application::Ipa,
                arrival: secs(t),
                input_scale: 1.0,
            })
            .collect();
        JobStream::from_jobs(jobs, WorkloadMix::Heavy)
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
        let run = jobs(&[1, 1]);
        let mut q = EventQueue::new();
        q.schedule(secs(1), Event::ReactiveTick);
        q.attach_arrivals(&run);
        q.schedule(secs(1), Event::MonitorTick);
        let events: Vec<Event> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                Event::ReactiveTick,
                Event::JobArrival { job: 0 },
                Event::JobArrival { job: 1 },
                Event::MonitorTick,
            ]
        );
    }

    #[test]
    fn arrivals_and_heap_interleave_by_time() {
        let run = jobs(&[1, 3, 5]);
        let mut q = EventQueue::new();
        q.schedule(secs(2), Event::MonitorTick);
        q.attach_arrivals(&run);
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
        let run = jobs(&[1]);
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.attach_arrivals(&run);
        q.schedule(secs(1), Event::MonitorTick);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "in arrival order")]
    fn out_of_order_arrivals_panic() {
        // a run is a `JobStream`, which cannot hold them
        let run = jobs(&[2, 1]);
        let mut q = EventQueue::new();
        q.attach_arrivals(&run);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn a_second_arrival_run_panics() {
        let (a, b) = (jobs(&[1]), jobs(&[2]));
        let mut q = EventQueue::new();
        q.attach_arrivals(&a);
        q.attach_arrivals(&b);
    }

    #[test]
    #[should_panic(expected = "after draining started")]
    fn late_arrival_runs_panic() {
        let run = jobs(&[2]);
        let mut q = EventQueue::new();
        q.schedule(secs(1), Event::MonitorTick);
        q.pop();
        q.attach_arrivals(&run);
    }

    #[test]
    #[should_panic(expected = "after draining started")]
    fn arrival_runs_after_an_empty_pop_panic() {
        // a pop that finds nothing still starts draining
        let run = jobs(&[1]);
        let mut q = EventQueue::new();
        assert!(q.pop().is_none());
        q.attach_arrivals(&run);
    }
}
