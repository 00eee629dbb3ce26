//! Per-stage runtime state: the global request queue and the load monitor
//! (paper §4.2, §5.1).
//!
//! Fifer keeps "a global request queue for every stage within the job which
//! holds all the incoming tasks before being scheduled to a container in
//! that stage". The load monitor tracks queuing delays of recently
//! scheduled requests and per-stage arrivals, feeding the reactive and
//! proactive scalers.
//!
//! The queue is an [`IndexedTaskQueue`]: the scheduling policy's dispatch
//! key ([`QueuedTask::priority_key`]) is computed once at enqueue — every
//! policy's key is clock-independent — and tasks live in a slab indexed by
//! a binary heap in key order (for `pop`). LSF and EDF keep a second heap
//! in arrival order for the load monitor's oldest-pending-age signal;
//! FIFO's key order already is arrival order. `pop` is O(log n) amortized
//! and the age query O(1), where the seed scanned the whole queue per
//! dispatched task.
//!
//! The free-slot index is one [`IdSet`] per free-slot count: a two-level
//! bitset over container ids with O(1) insert and remove.

use fifer_core::resources::ResourceVec;
use fifer_core::scheduling::{QueuedTask, SchedulingPolicy};
use fifer_metrics::{SimDuration, SimTime};
use fifer_workloads::Microservice;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A task waiting in a stage's global queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTask {
    /// Job (stream index).
    pub job: usize,
    /// When the task entered this queue.
    pub enqueued: SimTime,
    /// Absolute SLO deadline of the owning job.
    pub job_deadline: SimTime,
    /// Estimated work remaining for the job (this stage onward) — used by
    /// Least-Slack-First.
    pub remaining_work: SimDuration,
    /// How many times a fault has bounced this task back into a global
    /// queue. 0 on the first attempt.
    pub retries: u32,
}

impl StageTask {
    /// The scheduler-facing view of this task.
    pub fn as_queued(&self) -> QueuedTask {
        QueuedTask {
            job_id: self.job as u64,
            enqueued: self.enqueued,
            job_deadline: self.job_deadline,
            remaining_work: self.remaining_work,
        }
    }
}

/// A policy-keyed indexed priority queue of [`StageTask`]s.
///
/// Layout: a slab of `(generation, task)` slots with a free list, plus
/// `BinaryHeap`s of `Reverse<(key, seq, slot)>` entries — one keyed by the
/// policy's dispatch key and, for LSF and EDF, one by arrival time. A `pop`
/// consumes its key-heap entry; the matching age-heap entry goes stale (its
/// generation stamp no longer matches the slab) and is discarded once it
/// reaches the top, which `pop` checks, so the age heap's top is always
/// live and the heap is empty whenever the queue is. The `seq` component
/// makes every heap entry unique, so iteration order of the underlying heap
/// never affects which task wins — ordering is exactly the lexicographic
/// key.
#[derive(Debug, Clone)]
pub struct IndexedTaskQueue {
    policy: SchedulingPolicy,
    /// Slot -> (generation stamp, task). `None` = free slot.
    slots: Vec<Option<(u64, StageTask)>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Monotonic insert counter; doubles as the generation stamp.
    next_seq: u64,
    /// Live task count (the age heap may hold more, stale, entries).
    len: usize,
    /// Dispatch order: min-heap of (policy key, seq, slot).
    by_key: BinaryHeap<Reverse<([u64; 3], u64, u32)>>,
    /// Arrival order: min-heap of (enqueued µs, seq, slot) for the load
    /// monitor's oldest-pending query. Never used (or allocated) under
    /// FIFO, whose key `[enqueued, job, 0]` puts the oldest task on top of
    /// `by_key`.
    by_age: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl IndexedTaskQueue {
    /// Creates an empty queue dispatching per `policy`.
    pub fn new(policy: SchedulingPolicy) -> Self {
        IndexedTaskQueue {
            policy,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
            by_key: BinaryHeap::new(),
            by_age: BinaryHeap::new(),
        }
    }

    /// The dispatch policy this queue is keyed by.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no task is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a task, keying it once; O(log n).
    pub fn push(&mut self, task: StageTask) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((seq, task));
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("queue exceeds u32 slots");
                self.slots.push(Some((seq, task)));
                s
            }
        };
        let key = task.as_queued().priority_key(self.policy);
        self.by_key.push(Reverse((key, seq, slot)));
        if self.tracks_age() {
            self.by_age
                .push(Reverse((task.enqueued.as_micros(), seq, slot)));
        }
        self.len += 1;
    }

    /// Removes and returns the policy-minimum task; O(log n) amortized.
    /// Every key-heap entry is live: only `pop` takes tasks out.
    pub fn pop(&mut self) -> Option<StageTask> {
        let Reverse((_, _, slot)) = self.by_key.pop()?;
        let (_, task) = self.slots[slot as usize]
            .take()
            .expect("key-heap entries are live");
        self.free.push(slot);
        self.len -= 1;
        // keep the age heap's top live: discard the stale entries (this
        // task's, or older pops') that now surface
        while let Some(&Reverse((_, seq, slot))) = self.by_age.peek() {
            if matches!(self.slots[slot as usize], Some((live_seq, _)) if live_seq == seq) {
                break;
            }
            self.by_age.pop();
        }
        Some(task)
    }

    /// Enqueue time of the oldest pending task; O(1).
    pub fn oldest_enqueued(&self) -> Option<SimTime> {
        let us = if self.tracks_age() {
            self.by_age.peek().map(|&Reverse((enq_us, _, _))| enq_us)
        } else {
            self.by_key.peek().map(|&Reverse((key, _, _))| key[0])
        };
        us.map(SimTime::from_micros)
    }

    /// Whether this queue keeps the arrival-order heap (LSF and EDF).
    fn tracks_age(&self) -> bool {
        self.policy != SchedulingPolicy::Fifo
    }

    /// Entries in the age heap, live and stale.
    #[cfg(test)]
    fn age_entries(&self) -> usize {
        self.by_age.len()
    }

    /// Whether the age heap ever allocated.
    #[cfg(test)]
    fn age_allocated(&self) -> bool {
        self.by_age.capacity() > 0
    }
}

/// A set of container ids as a two-level bitset.
///
/// `words[i]` holds ids `64 i .. 64 i + 63`, and bit `j` of `summary[k]`
/// is set iff `words[64 k + j]` is non-zero. Insert and remove are O(1);
/// the lowest id comes from `trailing_zeros` of the first non-zero summary
/// word, and iteration visits ids in ascending order, skipping 4096 empty
/// ids per zero summary word. Memory is one bit per id up to the largest
/// inserted.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl IdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; returns `false` if it was already present.
    pub fn insert(&mut self, id: u64) -> bool {
        let (w, bit) = Self::locate(id);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
        true
    }

    /// Removes `id`; returns `false` if it was absent.
    pub fn remove(&mut self, id: u64) -> bool {
        let (w, bit) = Self::locate(id);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                if *word == 0 {
                    self.summary[w / 64] &= !(1 << (w % 64));
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// The lowest id in the set.
    pub fn first(&self) -> Option<u64> {
        self.iter().next()
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.summary.iter().enumerate().flat_map(move |(k, &s)| {
            set_bits(s).flat_map(move |j| {
                let w = k * 64 + j;
                set_bits(self.words[w]).map(move |b| (w * 64 + b) as u64)
            })
        })
    }

    /// Visits the ids in ascending order and removes those for which
    /// `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        for k in 0..self.summary.len() {
            for j in set_bits(self.summary[k]) {
                let w = k * 64 + j;
                for b in set_bits(self.words[w]) {
                    let id = (w * 64 + b) as u64;
                    if !keep(id) {
                        self.remove(id);
                    }
                }
            }
        }
    }

    /// Word index and bit mask of `id`.
    fn locate(id: u64) -> (usize, u64) {
        let w = usize::try_from(id / 64).expect("id fits the address space");
        (w, 1 << (id % 64))
    }
}

/// The positions of `word`'s set bits, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let b = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(b)
    })
}

/// A (queuing delay, when scheduled) observation for the load monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayObs {
    at: SimTime,
    delay: SimDuration,
}

/// Runtime state for one stage.
#[derive(Debug, Clone)]
pub struct StageRuntime {
    /// The microservice this stage runs.
    pub microservice: Microservice,
    /// Static plan values shared by all containers of this stage.
    pub batch_size: usize,
    /// Per-stage response budget `S_r = slack + exec`.
    pub response_latency: SimDuration,
    /// Allocated slack (reactive trigger threshold).
    pub slack: SimDuration,
    /// Mean execution time (for LSF remaining-work estimates).
    pub mean_exec: SimDuration,
    /// Expected cold-start latency for this stage's image.
    pub cold_start: SimDuration,
    /// Global queue of pending tasks, indexed by the dispatch policy.
    pub queue: IndexedTaskQueue,
    /// Containers (ids) currently serving this stage, dead ones pruned.
    pub containers: Vec<u64>,
    /// Free-slot index: `free_buckets[f]` holds the ids of this stage's
    /// containers with exactly `f` free slots (1 ≤ f ≤ batch_size). Kept
    /// in sync by `Simulation` so container selection is a bitset lookup
    /// instead of a full scan per dispatched task.
    free_buckets: Vec<IdSet>,
    /// Free slots across all buckets, maintained incrementally so the
    /// reactive scaler's waiting-count is O(1) instead of a bucket walk.
    free_slots_total: usize,
    /// Queuing-delay observations of recently scheduled tasks, kept as a
    /// sliding-window max-deque: delays are non-increasing front→back, so
    /// the front is the window maximum and each observation is pushed and
    /// popped at most once (O(1) amortized, vs. the seed's full scan).
    recent_delays: VecDeque<DelayObs>,
    /// Tasks currently executing in this stage's containers (driver-
    /// maintained; lets the load monitor report waiting-task counts that
    /// include container-local queues).
    pub executing: usize,
    /// Arrivals into this stage (for share estimation), cumulative.
    pub arrivals: u64,
    /// Tasks executed at this stage, cumulative.
    pub tasks_executed: u64,
    /// Containers ever spawned for this stage, cumulative.
    pub containers_spawned: u64,
    /// Tasks re-enqueued after their container was killed by a fault,
    /// cumulative. Not counted in `arrivals` (share estimation tracks
    /// demand, not retries).
    pub requeued: u64,
    /// Tasks orphaned by faulted containers, cumulative (each is then
    /// either requeued or, past the retry budget, dropped).
    pub lost: u64,
    /// Sum of the stage's live containers' primary allocations (driver-
    /// maintained, exact integers — feeds `StageView::allocated`).
    pub allocated: ResourceVec,
    /// Sum of the stage's live containers' current usage (idle or busy
    /// profile per container — feeds `StageView::used`).
    pub used: ResourceVec,
    /// Right-sizer override for future spawns: `None` uses the cluster's
    /// default container shape, `Some` was set by a `Decision::Resize`
    /// (already clamped to the default shape by the mechanism).
    pub spawn_alloc: Option<ResourceVec>,
}

impl StageRuntime {
    /// Creates an empty stage runtime dispatching per `policy`.
    pub fn new(
        microservice: Microservice,
        policy: SchedulingPolicy,
        batch_size: usize,
        response_latency: SimDuration,
        slack: SimDuration,
        mean_exec: SimDuration,
        cold_start: SimDuration,
    ) -> Self {
        assert!(batch_size >= 1, "batch size is floored at 1");
        StageRuntime {
            microservice,
            batch_size,
            response_latency,
            slack,
            mean_exec,
            cold_start,
            queue: IndexedTaskQueue::new(policy),
            containers: Vec::new(),
            free_buckets: vec![IdSet::new(); batch_size + 1],
            free_slots_total: 0,
            executing: 0,
            recent_delays: VecDeque::new(),
            arrivals: 0,
            tasks_executed: 0,
            containers_spawned: 0,
            requeued: 0,
            lost: 0,
            allocated: ResourceVec::ZERO,
            used: ResourceVec::ZERO,
            spawn_alloc: None,
        }
    }

    /// Enqueues a task.
    pub fn enqueue(&mut self, task: StageTask) {
        self.arrivals += 1;
        self.queue.push(task);
    }

    /// Re-enqueues a task bounced back by a fault. Counts as a requeue, not
    /// an arrival — the demand already arrived once.
    pub fn requeue(&mut self, task: StageTask) {
        self.requeued += 1;
        self.queue.push(task);
    }

    /// Records that a task waited `delay` before being scheduled at `at`.
    /// Observations arrive in non-decreasing `at` order (simulation time).
    pub fn record_scheduled(&mut self, at: SimTime, delay: SimDuration) {
        // max-deque invariant: drop older observations this one dominates
        while matches!(self.recent_delays.back(), Some(obs) if obs.delay <= delay) {
            self.recent_delays.pop_back();
        }
        self.recent_delays.push_back(DelayObs { at, delay });
    }

    /// The observed delay signal for Algorithm 1 a at time `now`: the worst
    /// of (a) queuing delays of tasks scheduled in the last `window`, and
    /// (b) the age of the oldest still-pending task (so a fully stuck
    /// queue — e.g. zero containers — still triggers scaling).
    pub fn observed_delay(&mut self, now: SimTime, window: SimDuration) -> SimDuration {
        let horizon = if now.as_micros() > window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        while matches!(self.recent_delays.front(), Some(obs) if obs.at < horizon) {
            self.recent_delays.pop_front();
        }
        let scheduled_max = self
            .recent_delays
            .front()
            .map(|o| o.delay)
            .unwrap_or(SimDuration::ZERO);
        let pending_max = self
            .queue
            .oldest_enqueued()
            .map(|enq| now.saturating_since(enq))
            .unwrap_or(SimDuration::ZERO);
        scheduled_max.max(pending_max)
    }

    /// Pending queue length (unscheduled tasks in the global queue).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Tasks waiting anywhere in the stage — the paper's PQ_len. The
    /// prototype's global queue holds every request until a container slot
    /// frees; our simulator binds requests eagerly into container-local
    /// queues, so the paper's quantity is the global backlog plus all
    /// bound-but-not-executing tasks.
    pub fn waiting_total(&self) -> usize {
        let capacity = self.containers.len() * self.batch_size;
        let used = capacity.saturating_sub(self.total_free_slots());
        self.queue.len() + used.saturating_sub(self.executing)
    }

    // ---- free-slot index -------------------------------------------------

    /// Records that container `id` now has `free` free slots (0 removes it
    /// from the index). `prev_free` must be its previously recorded count.
    pub fn update_free(&mut self, id: u64, prev_free: usize, free: usize) {
        if prev_free > 0 {
            self.free_buckets[prev_free].remove(id);
            self.free_slots_total -= prev_free;
        }
        if free > 0 {
            self.free_buckets[free].insert(id);
            self.free_slots_total += free;
        }
    }

    /// Removes container `id` from the index entirely (kill/evict).
    pub fn remove_free(&mut self, id: u64, prev_free: usize) {
        if prev_free > 0 {
            self.free_buckets[prev_free].remove(id);
            self.free_slots_total -= prev_free;
        }
    }

    /// Picks a container per the selection policy, or `None` when every
    /// container is full.
    ///
    /// This is the bucket-indexed counterpart of
    /// [`fifer_core::scheduling::select_container`] (which stays the
    /// reference implementation over explicit candidate lists); the driver
    /// layers a node-packing tie-break on top for the greedy policy. The
    /// three sites are deliberately separate: the core function defines
    /// the policy, this index makes it cheap, the driver adds placement
    /// awareness the core cannot see.
    ///
    /// * Greedy least-free-slots: lowest non-empty bucket, lowest id.
    /// * First-fit: lowest id across all buckets.
    /// * Most-free-slots: highest non-empty bucket, lowest id.
    pub fn pick_container(
        &self,
        policy: fifer_core::scheduling::ContainerSelection,
    ) -> Option<u64> {
        use fifer_core::scheduling::ContainerSelection::*;
        match policy {
            GreedyLeastFreeSlots => self.free_buckets.iter().find_map(IdSet::first),
            MostFreeSlots => self.free_buckets.iter().rev().find_map(IdSet::first),
            FirstFit => self.free_buckets.iter().filter_map(IdSet::first).min(),
        }
    }

    /// The non-empty bucket with the fewest free slots, for callers that
    /// apply their own tie-break among equally loaded containers.
    pub fn least_free_bucket(&self) -> Option<&IdSet> {
        self.free_buckets.iter().find(|b| !b.is_empty())
    }

    /// The free-slot index as `(free slots, container id)` pairs, fewest
    /// free slots first, ids ascending within a bucket (for the auditor).
    pub fn free_index(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.free_buckets
            .iter()
            .enumerate()
            .flat_map(|(slots, ids)| ids.iter().map(move |id| (slots, id)))
    }

    /// Total free slots across the stage's containers (O(1), maintained on
    /// every index update).
    pub fn total_free_slots(&self) -> usize {
        self.free_slots_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::scheduling::{select_task, SchedulingPolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn stage() -> StageRuntime {
        StageRuntime::new(
            Microservice::Asr,
            SchedulingPolicy::Lsf,
            4,
            ms(400),
            ms(350),
            ms(46),
            SimDuration::from_secs(5),
        )
    }

    fn stage_task(job: usize, enq_s: u64) -> StageTask {
        StageTask {
            job,
            enqueued: SimTime::from_secs(enq_s),
            job_deadline: SimTime::from_secs(enq_s + 1),
            remaining_work: ms(100),
            retries: 0,
        }
    }

    #[test]
    fn enqueue_counts_arrivals() {
        let mut s = stage();
        s.enqueue(stage_task(1, 0));
        s.enqueue(stage_task(2, 0));
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn requeue_counts_separately_from_arrivals() {
        let mut s = stage();
        s.enqueue(stage_task(1, 0));
        s.requeue(StageTask {
            retries: 1,
            ..stage_task(1, 2)
        });
        assert_eq!(s.arrivals, 1, "a retry is not new demand");
        assert_eq!(s.requeued, 1);
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn observed_delay_empty_is_zero() {
        let mut s = stage();
        assert_eq!(
            s.observed_delay(SimTime::from_secs(100), SimDuration::from_secs(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn observed_delay_tracks_scheduled_max() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(5), ms(120));
        s.record_scheduled(SimTime::from_secs(6), ms(300));
        let d = s.observed_delay(SimTime::from_secs(7), SimDuration::from_secs(10));
        assert_eq!(d, ms(300));
    }

    #[test]
    fn observed_delay_evicts_old_observations() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(1), ms(900));
        s.record_scheduled(SimTime::from_secs(20), ms(50));
        let d = s.observed_delay(SimTime::from_secs(25), SimDuration::from_secs(10));
        assert_eq!(d, ms(50), "the 900ms observation is out of window");
    }

    #[test]
    fn observed_delay_max_survives_later_smaller_observations() {
        // the max-deque must keep a dominating in-window observation even
        // after smaller ones arrive behind it
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(20), ms(500));
        s.record_scheduled(SimTime::from_secs(21), ms(10));
        s.record_scheduled(SimTime::from_secs(22), ms(70));
        let d = s.observed_delay(SimTime::from_secs(23), SimDuration::from_secs(10));
        assert_eq!(d, ms(500));
        // once the 500ms observation ages out, the 70ms one is the max
        let d = s.observed_delay(SimTime::from_secs(31), SimDuration::from_secs(10));
        assert_eq!(d, ms(70));
    }

    #[test]
    fn observed_delay_sees_stuck_queue() {
        let mut s = stage();
        s.enqueue(stage_task(1, 10));
        // nothing scheduled at all, but the pending task is 5s old
        let d = s.observed_delay(SimTime::from_secs(15), SimDuration::from_secs(10));
        assert_eq!(d, SimDuration::from_secs(5));
    }

    #[test]
    fn observed_delay_window_at_time_zero() {
        let mut s = stage();
        s.record_scheduled(SimTime::from_secs(1), ms(10));
        let d = s.observed_delay(SimTime::from_secs(2), SimDuration::from_secs(10));
        assert_eq!(d, ms(10));
    }

    #[test]
    fn free_index_tracks_transitions() {
        use fifer_core::scheduling::ContainerSelection::*;
        let mut s = stage(); // batch 4
        s.update_free(10, 0, 4); // fresh container, 4 free
        s.update_free(11, 0, 2);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(11));
        assert_eq!(s.pick_container(MostFreeSlots), Some(10));
        assert_eq!(s.pick_container(FirstFit), Some(10));
        assert_eq!(s.total_free_slots(), 6);
        // 11 fills up
        s.update_free(11, 2, 0);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(10));
        assert_eq!(s.total_free_slots(), 4);
        // 10 dies
        s.remove_free(10, 4);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), None);
        assert_eq!(s.total_free_slots(), 0);
    }

    #[test]
    fn free_index_greedy_tie_breaks_by_id() {
        use fifer_core::scheduling::ContainerSelection::GreedyLeastFreeSlots;
        let mut s = stage();
        s.update_free(7, 0, 2);
        s.update_free(3, 0, 2);
        assert_eq!(s.pick_container(GreedyLeastFreeSlots), Some(3));
    }

    #[test]
    #[should_panic(expected = "floored at 1")]
    fn zero_batch_rejected() {
        let _ = StageRuntime::new(
            Microservice::Qa,
            SchedulingPolicy::Fifo,
            0,
            ms(100),
            ms(50),
            ms(56),
            SimDuration::from_secs(4),
        );
    }

    // ---- IndexedTaskQueue ------------------------------------------------

    fn task(job: usize, enq_ms: u64, deadline_ms: u64, work_ms: u64) -> StageTask {
        StageTask {
            job,
            enqueued: SimTime::from_millis(enq_ms),
            job_deadline: SimTime::from_millis(deadline_ms),
            remaining_work: ms(work_ms),
            retries: 0,
        }
    }

    #[test]
    fn pop_returns_policy_minimum() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Lsf);
        q.push(task(1, 10, 1000, 100)); // latest start 900
        q.push(task(2, 30, 400, 250)); // latest start 150 — tightest
        q.push(task(3, 20, 800, 100)); // latest start 700
        assert_eq!(q.pop().map(|t| t.job), Some(2));
        assert_eq!(q.pop().map(|t| t.job), Some(3));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Fifo);
        q.push(task(9, 30, 100, 10));
        q.push(task(7, 10, 5000, 10));
        q.push(task(8, 20, 200, 10));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![7, 8, 9]);
    }

    #[test]
    fn edf_pops_by_deadline() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Edf);
        q.push(task(1, 10, 1000, 100));
        q.push(task(2, 30, 500, 450));
        q.push(task(3, 20, 400, 50));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn oldest_enqueued_tracks_pops() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Lsf);
        q.push(task(1, 10, 5000, 100));
        q.push(task(2, 20, 300, 100));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(10)));
        // job 2 pops first under LSF; oldest is still job 1
        assert_eq!(q.pop().map(|t| t.job), Some(2));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(10)));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        assert_eq!(q.oldest_enqueued(), None);
    }

    #[test]
    fn reused_slot_does_not_resurrect_a_stale_age_entry() {
        let mut q = IndexedTaskQueue::new(SchedulingPolicy::Fifo);
        q.push(task(1, 10, 1000, 100));
        q.push(task(2, 20, 1000, 100));
        assert_eq!(q.pop().map(|t| t.job), Some(1));
        // job 3 reuses job 1's slot; job 1's age entry (10 ms) is stale
        q.push(task(3, 30, 1000, 100));
        assert_eq!(q.oldest_enqueued(), Some(SimTime::from_millis(20)));
        assert_eq!(q.pop().map(|t| t.job), Some(2));
        assert_eq!(q.pop().map(|t| t.job), Some(3));
        assert!(q.is_empty());
    }

    /// Differential test: under every policy, randomized interleaved
    /// pushes and pops agree with [`select_task`], the linear-scan
    /// scheduler in `fifer-core`, run over a shadow `Vec` of the same
    /// tasks. Some popped tasks come back the way faults requeue them:
    /// with a bumped `retries` and either their original enqueue time
    /// (earlier than the clock) or the clock.
    #[test]
    fn pop_agrees_with_reference_scheduler() {
        for policy in SchedulingPolicy::ALL {
            let mut rng = StdRng::seed_from_u64(0xD1FF ^ policy as u64);
            let mut q = IndexedTaskQueue::new(policy);
            let mut shadow: Vec<StageTask> = Vec::new();
            let (mut job, mut clock_ms) = (0usize, 0u64);
            let (mut requeued, mut deepest_retry) = (0u32, 0u32);
            for _ in 0..2000 {
                clock_ms += rng.gen_range(0u64..5);
                if shadow.is_empty() || rng.gen_bool(0.6) {
                    job += 1;
                    let t = task(
                        job,
                        clock_ms,
                        clock_ms + rng.gen_range(50u64..2000),
                        rng.gen_range(10u64..500),
                    );
                    q.push(t);
                    shadow.push(t);
                } else {
                    let now = SimTime::from_millis(clock_ms);
                    let view: Vec<QueuedTask> = shadow.iter().map(StageTask::as_queued).collect();
                    let i = select_task(policy, &view, now).expect("non-empty");
                    let expect = shadow.swap_remove(i);
                    assert_eq!(
                        q.pop(),
                        Some(expect),
                        "{policy:?}: indexed pop diverged from the linear scan"
                    );
                    if rng.gen_bool(0.25) {
                        let enqueued = if rng.gen_bool(0.5) {
                            expect.enqueued
                        } else {
                            now
                        };
                        let t = StageTask {
                            enqueued,
                            retries: expect.retries + 1,
                            ..expect
                        };
                        q.push(t);
                        shadow.push(t);
                        requeued += 1;
                        deepest_retry = deepest_retry.max(t.retries);
                    }
                }
                assert_eq!(q.len(), shadow.len());
                assert_eq!(
                    q.oldest_enqueued(),
                    shadow.iter().map(|t| t.enqueued).min(),
                    "{policy:?}: oldest-pending age diverged"
                );
            }
            assert!(requeued > 100, "{policy:?}: too few requeues to bite");
            assert!(deepest_retry > 1, "{policy:?}: no task was requeued twice");
        }
    }

    /// The age index holds no task the queue has given up: it is empty
    /// after every full drain, without any `oldest_enqueued` call pruning
    /// it, and FIFO never allocates one.
    #[test]
    fn age_index_is_empty_after_every_drain() {
        for policy in SchedulingPolicy::ALL {
            let mut rng = StdRng::seed_from_u64(0xA6E ^ policy as u64);
            let mut q = IndexedTaskQueue::new(policy);
            let (mut job, mut clock_ms, mut drains) = (0usize, 0u64, 0u32);
            for _ in 0..4000 {
                clock_ms += rng.gen_range(0u64..5);
                if rng.gen_bool(0.55) {
                    job += 1;
                    q.push(task(
                        job,
                        clock_ms,
                        clock_ms + rng.gen_range(50u64..2000),
                        rng.gen_range(10u64..500),
                    ));
                } else if q.pop().is_some() && q.is_empty() {
                    drains += 1;
                    assert_eq!(q.age_entries(), 0, "{policy:?}: stale age entries");
                }
                if rng.gen_bool(0.02) {
                    while q.pop().is_some() {}
                    drains += 1;
                    assert_eq!(q.age_entries(), 0, "{policy:?}: stale age entries");
                }
            }
            assert!(drains > 50, "{policy:?}: too few drains to bite");
            assert_eq!(
                q.age_allocated(),
                policy != SchedulingPolicy::Fifo,
                "{policy:?}: only LSF and EDF keep an age index"
            );
        }
    }

    /// Differential test: random inserts and removes over ids up to 10^5
    /// agree with a `BTreeSet` on their return values, `first`, `len` and
    /// ascending iteration after every step.
    #[test]
    fn id_set_agrees_with_btree_set() {
        let mut rng = StdRng::seed_from_u64(0x1D5E7);
        let mut set = IdSet::new();
        let mut shadow = std::collections::BTreeSet::new();
        for step in 0..3000 {
            // mostly a dense low band, sometimes the far end of the range
            let id = if rng.gen_bool(0.8) {
                rng.gen_range(0u64..300)
            } else {
                rng.gen_range(0u64..100_000)
            };
            if rng.gen_bool(0.55) {
                assert_eq!(
                    set.insert(id),
                    shadow.insert(id),
                    "step {step}: insert {id}"
                );
            } else {
                assert_eq!(
                    set.remove(id),
                    shadow.remove(&id),
                    "step {step}: remove {id}"
                );
            }
            assert_eq!(set.first(), shadow.first().copied(), "step {step}");
            assert_eq!(set.len(), shadow.len(), "step {step}");
            assert!(set.iter().eq(shadow.iter().copied()), "step {step}");
        }
        assert!(shadow.len() > 100, "the set must grow to bite");
        // retain drops exactly the rejected ids, visiting in ascending order
        let mut seen = Vec::new();
        set.retain(|id| {
            seen.push(id);
            id % 3 != 0
        });
        shadow.retain(|id| id % 3 != 0);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(set.iter().eq(shadow.iter().copied()));
        assert_eq!(set.len(), shadow.len());
    }
}
