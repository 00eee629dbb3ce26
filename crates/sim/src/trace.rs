//! Structured decision trace: what the policy decided, when, and why.
//!
//! Every decision the mechanism applies — spawns, kills, dispatches, and
//! their rejections — can be recorded as a [`SimEvent`] with
//! [`DecisionCause`] attribution, making runs debuggable and replayable.
//! One `record` call numbers each decision and feeds two sinks through one
//! serializer: the stream that
//! [`Simulation::stream_decisions`](crate::driver::Simulation::stream_decisions)
//! attaches gets each decision as one JSON line when it is applied (the
//! `fifer` CLI's `--decision-trace` file), and a ring of
//! [`TraceConfig::capacity`] keeps the most recent ones ([`SimTrace`]). The
//! trace keeps no counters: the run's totals are in
//! [`SimResult`](crate::results::SimResult).
//!
//! Every recorded event carries a **global sequence number** assigned at
//! commit time from one monotonic counter. Because the engine commits
//! events in a single `(time, seq)` total order, the sequence numbers —
//! and therefore the JSONL — are stable from run to run: a trace replays
//! in exactly one deterministic order, and a ring that never fills exports
//! the stream's bytes.
//!
//! Tracing is zero-cost with neither sink on: `record` takes a closure and
//! returns before evaluating it.

use crate::fault::FaultKind;
use fifer_core::policy::DecisionCause;
use fifer_metrics::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

/// Decision-trace configuration (part of `SimConfig`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Events retained in the ring buffer. `0` (the default) keeps no
    /// ring; with no stream attached either, nothing is recorded.
    pub capacity: usize,
}

/// One applied (or rejected) decision, with cause attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A container was spawned.
    Spawn {
        /// When the decision was applied.
        at: SimTime,
        /// Which hook (or mechanism path) decided it.
        cause: DecisionCause,
        /// The new container's id.
        container: u64,
        /// Stage the container serves.
        stage: usize,
        /// Node it was placed on.
        node: usize,
    },
    /// A spawn decision could not be applied: the cluster was full and
    /// nothing was evictable.
    SpawnFailed {
        /// When the decision failed.
        at: SimTime,
        /// Which hook decided the spawn.
        cause: DecisionCause,
        /// Stage that wanted the container.
        stage: usize,
    },
    /// A container was killed and its resources released.
    Kill {
        /// When the decision was applied.
        at: SimTime,
        /// Which hook (or mechanism path) decided it.
        cause: DecisionCause,
        /// The killed container's id.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
    },
    /// The mechanism refused a kill decision because the target was busy
    /// or already dead (only reachable from custom policies — the built-in
    /// policies only kill from the expired-idle snapshot).
    KillRejected {
        /// When the decision was refused.
        at: SimTime,
        /// Which hook decided the kill.
        cause: DecisionCause,
        /// The rejected target.
        container: u64,
    },
    /// A dispatch pass bound queued tasks to container free slots.
    Dispatch {
        /// When the pass ran.
        at: SimTime,
        /// Which hook (or mechanism path) triggered it.
        cause: DecisionCause,
        /// Stage whose queue was drained.
        stage: usize,
        /// Tasks bound during the pass (passes that bind nothing are not
        /// recorded).
        tasks: usize,
    },
    /// An injected fault killed a container.
    ContainerFailed {
        /// When the fault fired.
        at: SimTime,
        /// Which fault killed it.
        fault: FaultKind,
        /// The dead container's id.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
    },
    /// An injected outage took a node down.
    NodeDown {
        /// When the outage started.
        at: SimTime,
        /// The failed node.
        node: usize,
        /// Containers the outage killed.
        lost: usize,
    },
    /// A node recovered from an injected outage.
    NodeUp {
        /// When the node came back.
        at: SimTime,
        /// The recovered node.
        node: usize,
    },
    /// A fault orphaned a task and the mechanism bounced it back into its
    /// stage's global queue.
    TaskRequeued {
        /// When the fault fired.
        at: SimTime,
        /// Which fault orphaned the task.
        fault: FaultKind,
        /// The owning job (stream index).
        job: usize,
        /// Stage whose queue receives the task again.
        stage: usize,
        /// The task's retry count after this requeue.
        retries: u32,
    },
    /// A task exhausted its retry budget and the owning job was dropped.
    JobDropped {
        /// When the final fault fired.
        at: SimTime,
        /// The dropped job (stream index).
        job: usize,
        /// Retries the task had already consumed.
        retries: u32,
    },
    /// A container was spawned entirely on harvested (lease-backed)
    /// resources carved from idle lenders' allocation headroom.
    HarvestLease {
        /// When the lease was created.
        at: SimTime,
        /// The borrower container's id.
        container: u64,
        /// Stage the borrower serves.
        stage: usize,
        /// Node hosting both borrower and lenders (leases are node-local).
        node: usize,
        /// Number of lender parts backing the lease.
        parts: usize,
        /// Total borrowed CPU in millicores.
        cpu_milli: u64,
    },
    /// A lender needed its headroom back and its lease part was settled:
    /// re-backed from free node capacity, or — when nothing fit — the
    /// borrower was preempted.
    LeaseReclaimed {
        /// When the reclamation happened.
        at: SimTime,
        /// The lender whose usage rose (or which died).
        lender: u64,
        /// The borrower whose backing was settled.
        borrower: u64,
        /// The node the lease lived on.
        node: usize,
        /// `true` when the borrower was preempted instead of re-backed.
        preempted: bool,
    },
    /// A harvest-lease reclamation preempted a borrower, bouncing its
    /// tasks back into the stage queue (no retry budget is charged —
    /// preemption is policy-induced, not a fault).
    Preempt {
        /// When the preemption happened.
        at: SimTime,
        /// The preempted borrower.
        container: u64,
        /// Stage it served.
        stage: usize,
        /// Node it ran on.
        node: usize,
        /// Tasks bounced back into the stage queue.
        tasks: usize,
    },
    /// The right-sizer changed a stage's spawn allocation (future spawns)
    /// and downsized its warm-idle fleet in place.
    Resize {
        /// When the resize was applied.
        at: SimTime,
        /// The resized stage.
        stage: usize,
        /// New per-container CPU allocation in millicores.
        cpu_milli: u64,
        /// New per-container memory allocation in MB.
        mem_mb: u64,
        /// Idle containers downsized in place by this decision.
        shrunk: usize,
    },
}

impl SimEvent {
    /// One JSON object describing this event (no trailing newline).
    pub fn to_json(&self) -> String {
        self.fields(|fields| format!("{{{fields}}}"))
    }

    /// Hands `f` this event's JSON fields, `"event":…` through its last
    /// field, without the braces: the one serializer behind
    /// [`Self::to_json`], the stream and the ring's export. The arguments
    /// format lazily, straight into the caller's destination.
    fn fields<R>(&self, f: impl FnOnce(fmt::Arguments) -> R) -> R {
        match *self {
            SimEvent::Spawn {
                at,
                cause,
                container,
                stage,
                node,
            } => f(format_args!(
                "\"event\":\"spawn\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}",
                at.as_secs_f64(),
                cause.as_str(),
            )),
            SimEvent::SpawnFailed { at, cause, stage } => f(format_args!(
                "\"event\":\"spawn_failed\",\"at_s\":{},\"cause\":\"{}\",\"stage\":{stage}",
                at.as_secs_f64(),
                cause.as_str(),
            )),
            SimEvent::Kill {
                at,
                cause,
                container,
                stage,
                node,
            } => f(format_args!(
                "\"event\":\"kill\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}",
                at.as_secs_f64(),
                cause.as_str(),
            )),
            SimEvent::KillRejected {
                at,
                cause,
                container,
            } => f(format_args!(
                "\"event\":\"kill_rejected\",\"at_s\":{},\"cause\":\"{}\",\"container\":{container}",
                at.as_secs_f64(),
                cause.as_str(),
            )),
            SimEvent::Dispatch {
                at,
                cause,
                stage,
                tasks,
            } => f(format_args!(
                "\"event\":\"dispatch\",\"at_s\":{},\"cause\":\"{}\",\"stage\":{stage},\"tasks\":{tasks}",
                at.as_secs_f64(),
                cause.as_str(),
            )),
            SimEvent::ContainerFailed {
                at,
                fault,
                container,
                stage,
                node,
            } => f(format_args!(
                "\"event\":\"container_failed\",\"at_s\":{},\"fault\":\"{}\",\"container\":{container},\"stage\":{stage},\"node\":{node}",
                at.as_secs_f64(),
                fault.as_str(),
            )),
            SimEvent::NodeDown { at, node, lost } => f(format_args!(
                "\"event\":\"node_down\",\"at_s\":{},\"node\":{node},\"lost\":{lost}",
                at.as_secs_f64(),
            )),
            SimEvent::NodeUp { at, node } => f(format_args!(
                "\"event\":\"node_up\",\"at_s\":{},\"node\":{node}",
                at.as_secs_f64(),
            )),
            SimEvent::TaskRequeued {
                at,
                fault,
                job,
                stage,
                retries,
            } => f(format_args!(
                "\"event\":\"task_requeued\",\"at_s\":{},\"fault\":\"{}\",\"job\":{job},\"stage\":{stage},\"retries\":{retries}",
                at.as_secs_f64(),
                fault.as_str(),
            )),
            SimEvent::JobDropped { at, job, retries } => f(format_args!(
                "\"event\":\"job_dropped\",\"at_s\":{},\"job\":{job},\"retries\":{retries}",
                at.as_secs_f64(),
            )),
            SimEvent::HarvestLease {
                at,
                container,
                stage,
                node,
                parts,
                cpu_milli,
            } => f(format_args!(
                "\"event\":\"harvest_lease\",\"at_s\":{},\"container\":{container},\"stage\":{stage},\"node\":{node},\"parts\":{parts},\"cpu_milli\":{cpu_milli}",
                at.as_secs_f64(),
            )),
            SimEvent::LeaseReclaimed {
                at,
                lender,
                borrower,
                node,
                preempted,
            } => f(format_args!(
                "\"event\":\"lease_reclaimed\",\"at_s\":{},\"lender\":{lender},\"borrower\":{borrower},\"node\":{node},\"preempted\":{preempted}",
                at.as_secs_f64(),
            )),
            SimEvent::Preempt {
                at,
                container,
                stage,
                node,
                tasks,
            } => f(format_args!(
                "\"event\":\"preempt\",\"at_s\":{},\"container\":{container},\"stage\":{stage},\"node\":{node},\"tasks\":{tasks}",
                at.as_secs_f64(),
            )),
            SimEvent::Resize {
                at,
                stage,
                cpu_milli,
                mem_mb,
                shrunk,
            } => f(format_args!(
                "\"event\":\"resize\",\"at_s\":{},\"stage\":{stage},\"cpu_milli\":{cpu_milli},\"mem_mb\":{mem_mb},\"shrunk\":{shrunk}",
                at.as_secs_f64(),
            )),
        }
    }
}

/// Writes one JSON Lines record: `{"seq":N,` and the event's fields.
fn write_line(w: &mut dyn Write, seq: u64, event: &SimEvent) -> io::Result<()> {
    event.fields(|fields| writeln!(w, "{{\"seq\":{seq},{fields}}}"))
}

/// The ring-buffered decision trace of one run.
///
/// Returned by [`Simulation::run_with_trace`](crate::driver::Simulation::run_with_trace);
/// empty (and free) unless [`TraceConfig::capacity`] is nonzero.
#[derive(Debug, Default)]
pub struct SimTrace {
    capacity: usize,
    /// The most recent events with their global commit sequence numbers,
    /// which survive the ring's wrap.
    ring: VecDeque<(u64, SimEvent)>,
    /// Events evicted from the ring after it filled.
    pub dropped: u64,
    /// The first error met writing the stream attached by
    /// [`Simulation::stream_decisions`](crate::driver::Simulation::stream_decisions),
    /// mid-run or in its final flush; the stream stopped there.
    pub stream_error: Option<io::Error>,
}

impl SimTrace {
    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &SimEvent> {
        self.ring.iter().map(|(_, e)| e)
    }

    /// Retained events with their global commit sequence numbers, oldest
    /// first. Sequence numbers are stable from run to run.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &SimEvent)> {
        self.ring.iter().map(|(s, e)| (*s, e))
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no events were retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Writes the retained events as JSON Lines (one object per line),
    /// each prefixed with its global commit sequence number: the lines the
    /// stream wrote for them.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for (seq, e) in &self.ring {
            write_line(w, *seq, e)?;
        }
        Ok(())
    }

    /// [`Self::write_jsonl`]'s output as one string.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the JSON Lines are UTF-8")
    }
}

/// What the mechanism records its decisions through: numbers each one in
/// commit order, writes its line to the attached stream and keeps it in
/// the ring.
#[derive(Default)]
pub(crate) struct Recorder<'w> {
    /// Whether a ring or a stream takes the decisions.
    enabled: bool,
    /// Commit-ordered sequence number of the next decision.
    next_seq: u64,
    /// The stream, until its first write error.
    stream: Option<Box<dyn Write + 'w>>,
    trace: SimTrace,
}

impl<'w> Recorder<'w> {
    /// A recorder keeping the last `capacity` decisions in its ring.
    pub(crate) fn new(capacity: usize) -> Self {
        Recorder {
            enabled: capacity > 0,
            trace: SimTrace {
                capacity,
                // bound the eager allocation: a huge configured capacity
                // only costs memory once that many events actually occur
                ring: VecDeque::with_capacity(capacity.min(4096)),
                ..SimTrace::default()
            },
            ..Recorder::default()
        }
    }

    /// Writes every decision recorded from now on to `w`.
    pub(crate) fn stream_to(&mut self, w: Box<dyn Write + 'w>) {
        self.stream = Some(w);
        self.enabled = true;
    }

    /// Records a decision, stamping it with the next global sequence
    /// number. The closure is only evaluated when a sink is on, so
    /// untraced runs pay one branch per call site.
    #[inline]
    pub(crate) fn record(&mut self, event: impl FnOnce() -> SimEvent) {
        if !self.enabled {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.feed(seq, event());
    }

    /// Writes the decision's line, then keeps it as the ring's newest,
    /// evicting the oldest once the ring is full.
    fn feed(&mut self, seq: u64, event: SimEvent) {
        if let Some(w) = &mut self.stream {
            if let Err(e) = write_line(w.as_mut(), seq, &event) {
                self.trace.stream_error = Some(e);
                self.stream = None;
            }
        }
        let t = &mut self.trace;
        if t.capacity > 0 {
            if t.ring.len() == t.capacity {
                t.ring.pop_front();
                t.dropped += 1;
            }
            t.ring.push_back((seq, event));
        }
    }

    /// Flushes the stream and hands back the ring, with the stream's
    /// first error if it met one.
    pub(crate) fn finish(mut self) -> SimTrace {
        if let Some(mut w) = self.stream.take() {
            if let Err(e) = w.flush() {
                self.trace.stream_error = Some(e);
            }
        }
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_at(s: u64, container: u64) -> SimEvent {
        SimEvent::Spawn {
            at: SimTime::from_secs(s),
            cause: DecisionCause::ReactiveTick,
            container,
            stage: 0,
            node: 1,
        }
    }

    /// The ring a recorder of `capacity` keeps after recording `n` spawns.
    fn spawns(capacity: usize, n: u64) -> SimTrace {
        let mut r = Recorder::new(capacity);
        for i in 0..n {
            r.record(|| spawn_at(i, i));
        }
        r.finish()
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut r = Recorder::new(0);
        r.record(|| panic!("closure must not run when disabled"));
        let t = r.finish();
        assert!(t.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let t = spawns(2, 5);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped, 3);
        let kept: Vec<u64> = t
            .events()
            .map(|e| match e {
                SimEvent::Spawn { container, .. } => *container,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, [3, 4], "oldest events are evicted first");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut streamed = Vec::new();
        let mut r = Recorder::new(8);
        r.stream_to(Box::new(&mut streamed));
        r.record(|| spawn_at(1, 0));
        r.record(|| SimEvent::Dispatch {
            at: SimTime::from_secs(2),
            cause: DecisionCause::Arrival,
            stage: 3,
            tasks: 4,
        });
        let t = r.finish();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"event\":\"spawn\",\"at_s\":1,\"cause\":\"reactive_tick\",\"container\":0,\"stage\":0,\"node\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"event\":\"dispatch\",\"at_s\":2,\"cause\":\"arrival\",\"stage\":3,\"tasks\":4}"
        );
        assert!(t.stream_error.is_none());
        assert_eq!(
            streamed,
            jsonl.as_bytes(),
            "the stream writes the ring's lines"
        );
    }

    #[test]
    fn sequence_numbers_survive_ring_wrap() {
        let t = spawns(2, 5);
        // the ring kept the last two events, still carrying their global
        // commit positions (3 and 4), not ring-local indices
        let seqs: Vec<u64> = t.entries().map(|(s, _)| s).collect();
        assert_eq!(seqs, [3, 4]);
        assert!(t.to_jsonl().starts_with("{\"seq\":3,"));
    }

    /// A writer whose every write fails, as on a full disk.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::from(io::ErrorKind::StorageFull))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_error_is_kept_and_the_ring_still_fills() {
        let mut r = Recorder::new(8);
        r.stream_to(Box::new(Full));
        for i in 0..3 {
            r.record(|| spawn_at(i, i));
        }
        let t = r.finish();
        assert_eq!(
            t.stream_error.as_ref().map(io::Error::kind),
            Some(io::ErrorKind::StorageFull)
        );
        assert_eq!(t.len(), 3, "a failed stream does not stop the ring");
    }

    #[test]
    fn fault_events_serialize_with_fault_attribution() {
        assert_eq!(
            SimEvent::ContainerFailed {
                at: SimTime::from_secs(3),
                fault: FaultKind::Crash,
                container: 7,
                stage: 1,
                node: 2,
            }
            .to_json(),
            "{\"event\":\"container_failed\",\"at_s\":3,\"fault\":\"crash\",\"container\":7,\"stage\":1,\"node\":2}"
        );
        assert_eq!(
            SimEvent::NodeDown {
                at: SimTime::from_secs(4),
                node: 2,
                lost: 5,
            }
            .to_json(),
            "{\"event\":\"node_down\",\"at_s\":4,\"node\":2,\"lost\":5}"
        );
        assert_eq!(
            SimEvent::NodeUp {
                at: SimTime::from_secs(9),
                node: 2,
            }
            .to_json(),
            "{\"event\":\"node_up\",\"at_s\":9,\"node\":2}"
        );
        assert_eq!(
            SimEvent::TaskRequeued {
                at: SimTime::from_secs(5),
                fault: FaultKind::NodeOutage,
                job: 11,
                stage: 0,
                retries: 2,
            }
            .to_json(),
            "{\"event\":\"task_requeued\",\"at_s\":5,\"fault\":\"node_outage\",\"job\":11,\"stage\":0,\"retries\":2}"
        );
        assert_eq!(
            SimEvent::JobDropped {
                at: SimTime::from_secs(6),
                job: 11,
                retries: 3,
            }
            .to_json(),
            "{\"event\":\"job_dropped\",\"at_s\":6,\"job\":11,\"retries\":3}"
        );
    }
}
