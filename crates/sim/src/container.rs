//! Container lifecycle: cold start, batch slots, sequential execution and
//! idle reclamation (paper §2.2.1, §3, §4.4.1).
//!
//! A container serves exactly one microservice. It holds up to `batch_size`
//! requests (the one executing plus a local queue — "each container has a
//! local queue of length equal to the number of free-slots", §5.1) and
//! processes them sequentially. A new container spends its cold-start
//! period pulling the image and initializing the runtime before it can
//! execute; requests may already be bound to it while cold (they are what
//! the container was spawned for).
//!
//! A container that dies — reclaimed, crashed or preempted — leaves the
//! `ContainerTable`, so the simulator's container memory is bounded by
//! the live containers, not by every container a run ever spawned.

use fifer_core::resources::ResourceVec;
use fifer_metrics::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// Deterministic per-container usage profile, sampled from the workload's
/// function mix: what the container consumes while idle (runtime resident
/// footprint) and while executing a request.
///
/// Sampling is a pure splitmix64 hash of `(microservice, container id,
/// seed)` — it never touches the simulation's RNG streams, so profiles can
/// be active in every run without perturbing any draw sequence (the same
/// discipline the fault plans use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageProfile {
    /// Steady-state consumption while warm and idle.
    pub idle: ResourceVec,
    /// Peak consumption while executing a request.
    pub busy: ResourceVec,
}

impl UsageProfile {
    /// Samples the profile for container `id` serving microservice
    /// `ms_index` under `seed`, scaled off the default allocation shape.
    /// Busy CPU lands in [35%, 85%] of the default and busy memory in
    /// [40%, 90%] — always under the default shape, so a default-sized
    /// container is never born over-committed, and there is real headroom
    /// for the right-sizer and the harvester to recover.
    pub fn sample(ms_index: u64, id: u64, seed: u64, default_alloc: ResourceVec) -> Self {
        let mut state = (ms_index << 32) ^ id.wrapping_mul(0x9E37_79B9) ^ seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut v = state;
            v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            v = (v ^ (v >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            v ^ (v >> 31)
        };
        let busy_cpu_pct = 35 + next() % 51; // [35, 85]
        let busy_mem_pct = 40 + next() % 51; // [40, 90]
        let idle_cpu_pct = 2 + next() % 5; // [2, 6]
        let busy = ResourceVec::new(
            default_alloc.cpu_milli * busy_cpu_pct / 100,
            default_alloc.mem_mb * busy_mem_pct / 100,
        );
        let idle = ResourceVec::new(
            default_alloc.cpu_milli * idle_cpu_pct / 100,
            // memory is sticky: the idle footprint keeps 40% of the busy
            // working set resident
            busy.mem_mb * 40 / 100,
        );
        UsageProfile { idle, busy }
    }
}

/// A task bound to a container (stage-level bookkeeping travels with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundTask {
    /// Job (stream index) this task belongs to.
    pub job: usize,
    /// When the task entered the stage's global queue.
    pub enqueued: SimTime,
    /// When the task was bound to this container.
    pub assigned: SimTime,
    /// How many times this task has been re-enqueued after a fault killed
    /// its container. 0 on the first attempt.
    pub retries: u32,
}

/// Lifecycle state of a live container (a dead one leaves the
/// `ContainerTable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Image pull + runtime init in progress until the given instant.
    ColdStarting {
        /// When the container becomes warm.
        warm_at: SimTime,
    },
    /// Ready to execute.
    Warm,
}

/// One container instance.
#[derive(Debug, Clone)]
pub struct Container {
    /// Unique id.
    pub id: u64,
    /// Index of the stage this container serves (driver table).
    pub stage: usize,
    /// Node hosting this container.
    pub node: usize,
    /// Maximum requests held at once (executing + queued).
    pub batch_size: usize,
    /// Lifecycle state.
    pub state: ContainerState,
    /// The task currently executing, if any.
    pub executing: Option<BoundTask>,
    /// When the executing task would finish — set at dispatch so a crash
    /// can compute the unexecuted remainder. `None` when nothing runs.
    pub exec_until: Option<SimTime>,
    /// Tasks waiting in the local queue.
    pub local_queue: VecDeque<BoundTask>,
    /// When the container was created.
    pub spawned_at: SimTime,
    /// Cold-start duration it was charged.
    pub cold_start: SimDuration,
    /// Last instant the container finished or received work.
    pub last_used: SimTime,
    /// Tasks completed over the container's lifetime (RPC metric, §6.1.3).
    pub tasks_executed: u64,
    /// Primary resource allocation charged against node capacity. A fully
    /// lease-backed (harvest-spawned) container holds `ZERO` here.
    pub alloc: ResourceVec,
    /// Lease-backed resources this container borrowed from idle lenders.
    pub borrowed: ResourceVec,
    /// Resources this container lent out of its own idle headroom. Nonzero
    /// only while it backs an active harvest lease part.
    pub lent: ResourceVec,
    /// Usage profile: what the container consumes idle vs. busy.
    pub usage: UsageProfile,
}

impl Container {
    /// Creates a container entering its cold start.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn spawn(
        id: u64,
        stage: usize,
        node: usize,
        batch_size: usize,
        now: SimTime,
        cold_start: SimDuration,
    ) -> Self {
        assert!(batch_size >= 1, "batch size is floored at 1");
        Container {
            id,
            stage,
            node,
            batch_size,
            state: ContainerState::ColdStarting {
                warm_at: now + cold_start,
            },
            executing: None,
            exec_until: None,
            local_queue: VecDeque::new(),
            spawned_at: now,
            cold_start,
            last_used: now,
            tasks_executed: 0,
            alloc: ResourceVec::ZERO,
            borrowed: ResourceVec::ZERO,
            lent: ResourceVec::ZERO,
            usage: UsageProfile {
                idle: ResourceVec::ZERO,
                busy: ResourceVec::ZERO,
            },
        }
    }

    /// What this container consumes right now: its busy profile while a
    /// task executes, its idle footprint otherwise.
    pub fn current_usage(&self) -> ResourceVec {
        if self.executing.is_some() {
            self.usage.busy
        } else {
            self.usage.idle
        }
    }

    /// The total reservation backing this container (primary + borrowed).
    pub fn total_backing(&self) -> ResourceVec {
        self.alloc + self.borrowed
    }

    /// Free slots remaining (counts the executing slot).
    pub fn free_slots(&self) -> usize {
        let used = self.local_queue.len() + usize::from(self.executing.is_some());
        self.batch_size.saturating_sub(used)
    }

    /// `true` when warm, idle and empty — eligible for idle reclamation.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, ContainerState::Warm) && self.is_empty()
    }

    /// `true` when it holds no task, executing or queued.
    pub fn is_empty(&self) -> bool {
        self.executing.is_none() && self.local_queue.is_empty()
    }

    /// Binds a task to this container's local queue.
    ///
    /// # Panics
    ///
    /// Panics when full.
    pub fn bind(&mut self, task: BoundTask) {
        assert!(self.free_slots() > 0, "bind on full container");
        self.local_queue.push_back(task);
        self.last_used = task.assigned;
    }

    /// Pops the next local task to execute, marking it as the executing
    /// one. Returns `None` when the queue is empty, the container is cold,
    /// or something is already executing.
    pub fn start_next(&mut self, now: SimTime) -> Option<BoundTask> {
        if !matches!(self.state, ContainerState::Warm) || self.executing.is_some() {
            return None;
        }
        let task = self.local_queue.pop_front()?;
        self.executing = Some(task);
        self.last_used = now;
        Some(task)
    }

    /// Completes the executing task.
    ///
    /// # Panics
    ///
    /// Panics if nothing is executing.
    pub fn finish_executing(&mut self, now: SimTime) -> BoundTask {
        let task = self
            .executing
            .take()
            .expect("finish without executing task");
        self.exec_until = None;
        self.tasks_executed += 1;
        self.last_used = now;
        task
    }

    /// Drains a dying container of whatever it held. Returns the
    /// interrupted executing task (if any) followed by the local queue in
    /// bind order — the tasks its death orphaned, for re-enqueueing. An
    /// empty container returns an empty, unallocated vector.
    ///
    /// Unlike `finish_executing` the interrupted task does not count as
    /// executed.
    pub fn fail(&mut self) -> Vec<BoundTask> {
        let held = self.local_queue.len() + usize::from(self.executing.is_some());
        let mut lost = Vec::with_capacity(held);
        lost.extend(self.executing.take());
        self.exec_until = None;
        lost.extend(self.local_queue.drain(..));
        lost
    }

    /// Transitions cold → warm.
    ///
    /// # Panics
    ///
    /// Panics unless the container is cold-starting.
    pub fn warm_up(&mut self, now: SimTime) {
        match self.state {
            ContainerState::ColdStarting { warm_at } => {
                debug_assert!(now >= warm_at, "warmed before its time");
                self.state = ContainerState::Warm;
                self.last_used = now;
            }
            _ => panic!("warm_up on non-cold container"),
        }
    }

    /// The instant this container becomes/became warm.
    pub fn warm_at(&self) -> SimTime {
        match self.state {
            ContainerState::ColdStarting { warm_at } => warm_at,
            ContainerState::Warm => self.spawned_at + self.cold_start,
        }
    }
}

/// Position of a retired id in [`ContainerTable`]'s slot vector. No dense
/// index reaches it, so a lookup of a retired id finds nothing.
const RETIRED: u32 = u32::MAX;

/// The live containers, addressed by id.
///
/// Ids are handed out in spawn order and never reused: the decision
/// trace, the usage-profile hash, the policy's `ContainerView`s, kill
/// decisions and the stages' free-slot sets all name containers by them.
/// The containers themselves sit in a dense vector that holds only the
/// live ones, and each id ever issued keeps a 4-byte slot with its
/// position there (or [`RETIRED`]). Retiring swaps the last container into
/// the gap, so the dense order is arbitrary; every scan that reports in id
/// order sorts its result.
#[derive(Debug, Default)]
pub(crate) struct ContainerTable {
    live: Vec<Container>,
    slot: Vec<u32>,
}

impl ContainerTable {
    /// The id the next spawned container takes: the number of ids issued.
    pub(crate) fn next_id(&self) -> u64 {
        self.slot.len() as u64
    }

    /// Adds a freshly spawned container, whose id must be
    /// [`next_id`](Self::next_id).
    pub(crate) fn insert(&mut self, c: Container) {
        assert_eq!(c.id, self.next_id(), "container ids follow spawn order");
        let pos = u32::try_from(self.live.len())
            .ok()
            .filter(|&p| p != RETIRED)
            .expect("live containers fit a u32 position");
        self.slot.push(pos);
        self.live.push(c);
    }

    /// The live container `id`, or `None` once it retired (or for an id
    /// never issued).
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&Container> {
        let pos = *self.slot.get(usize::try_from(id).ok()?)?;
        self.live.get(pos as usize)
    }

    /// Mutable [`get`](Self::get).
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Container> {
        let pos = *self.slot.get(usize::try_from(id).ok()?)?;
        self.live.get_mut(pos as usize)
    }

    /// Removes the live container `id`, dropping its local-queue buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live, or if the container still holds a task
    /// (its death path must drain it first).
    pub(crate) fn retire(&mut self, id: u64) {
        let pos = self.slot[id as usize];
        assert!(pos != RETIRED, "container {id} retired twice");
        let c = self.live.swap_remove(pos as usize);
        assert!(c.is_empty(), "retire on busy container {id}");
        self.slot[id as usize] = RETIRED;
        if let Some(moved) = self.live.get(pos as usize) {
            self.slot[moved.id as usize] = pos;
        }
    }

    /// The live containers, in no particular order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Container> {
        self.live.iter()
    }

    /// Number of live containers.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }
}

impl Index<u64> for ContainerTable {
    type Output = Container;

    /// The live container `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live; ids that may be stale go through
    /// [`ContainerTable::get`].
    #[inline]
    fn index(&self, id: u64) -> &Container {
        match self.get(id) {
            Some(c) => c,
            None => not_live(id),
        }
    }
}

impl IndexMut<u64> for ContainerTable {
    #[inline]
    fn index_mut(&mut self, id: u64) -> &mut Container {
        match self.get_mut(id) {
            Some(c) => c,
            None => not_live(id),
        }
    }
}

#[cold]
#[inline(never)]
fn not_live(id: u64) -> ! {
    panic!("container {id} is not live")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn task(job: usize, at: SimTime) -> BoundTask {
        BoundTask {
            job,
            enqueued: at,
            assigned: at,
            retries: 0,
        }
    }

    fn warm_container(batch: usize) -> Container {
        let mut c = Container::spawn(1, 0, 0, batch, SimTime::ZERO, SimDuration::from_secs(3));
        c.warm_up(secs(3));
        c
    }

    #[test]
    fn spawn_is_cold_until_warm_at() {
        let c = Container::spawn(1, 0, 0, 4, secs(10), SimDuration::from_secs(5));
        assert_eq!(c.warm_at(), secs(15));
        assert!(matches!(c.state, ContainerState::ColdStarting { .. }));
        assert!(c.is_empty());
        assert!(!c.is_idle());
    }

    #[test]
    fn free_slots_count_executing_and_queue() {
        let mut c = warm_container(3);
        assert_eq!(c.free_slots(), 3);
        c.bind(task(1, secs(4)));
        c.bind(task(2, secs(4)));
        assert_eq!(c.free_slots(), 1);
        let started = c.start_next(secs(4)).unwrap();
        assert_eq!(started.job, 1);
        assert_eq!(c.free_slots(), 1, "executing still occupies a slot");
    }

    #[test]
    fn cold_container_accepts_binds_but_does_not_start() {
        let mut c = Container::spawn(1, 0, 0, 2, SimTime::ZERO, SimDuration::from_secs(3));
        c.bind(task(1, secs(1)));
        assert_eq!(c.start_next(secs(1)), None, "cold containers cannot run");
        c.warm_up(secs(3));
        assert!(c.start_next(secs(3)).is_some());
    }

    #[test]
    fn sequential_batch_execution() {
        let mut c = warm_container(3);
        for j in 1..=3 {
            c.bind(task(j, secs(4)));
        }
        assert_eq!(c.free_slots(), 0);
        assert_eq!(c.start_next(secs(4)).unwrap().job, 1);
        assert_eq!(c.start_next(secs(4)), None, "one at a time");
        let done = c.finish_executing(secs(5));
        assert_eq!(done.job, 1);
        assert_eq!(c.tasks_executed, 1);
        assert_eq!(c.start_next(secs(5)).unwrap().job, 2);
    }

    #[test]
    fn idle_only_when_warm_and_empty() {
        let mut c = warm_container(2);
        assert!(c.is_idle());
        c.bind(task(1, secs(4)));
        assert!(!c.is_idle());
        c.start_next(secs(4));
        c.finish_executing(secs(5));
        assert!(c.is_idle());
    }

    #[test]
    fn last_used_tracks_activity() {
        let mut c = warm_container(2);
        c.bind(task(1, secs(7)));
        assert_eq!(c.last_used, secs(7));
        c.start_next(secs(8));
        c.finish_executing(secs(9));
        assert_eq!(c.last_used, secs(9));
    }

    #[test]
    #[should_panic(expected = "full container")]
    fn bind_overflow_panics() {
        let mut c = warm_container(1);
        c.bind(task(1, secs(4)));
        c.bind(task(2, secs(4)));
    }

    /// A table of `n` warm containers with ids `0..n`; container `id`
    /// runs on node `id % 5`.
    fn table_of(n: u64) -> ContainerTable {
        let mut table = ContainerTable::default();
        for id in 0..n {
            let node = (id % 5) as usize;
            let mut c = Container::spawn(id, 0, node, 2, SimTime::ZERO, SimDuration::from_secs(3));
            c.warm_up(secs(3));
            table.insert(c);
        }
        table
    }

    #[test]
    #[should_panic(expected = "busy container")]
    fn kill_busy_panics() {
        let mut table = table_of(1);
        table[0].bind(task(1, secs(4)));
        table.retire(0);
    }

    #[test]
    fn kill_idle_succeeds() {
        let mut table = table_of(3);
        table.retire(0);
        assert!(table.get(0).is_none());
        assert_eq!(table.len(), 2);
        // the last container moved into the gap and is still found by id
        assert_eq!(table[2].node, 2);
        assert_eq!(table.next_id(), 3, "a retired id is never reissued");
    }

    #[test]
    #[should_panic(expected = "finish without executing")]
    fn finish_without_start_panics() {
        let mut c = warm_container(2);
        c.finish_executing(secs(5));
    }

    #[test]
    fn fail_drains_executing_then_queue() {
        let mut c = warm_container(3);
        c.bind(task(1, secs(4)));
        c.bind(task(2, secs(4)));
        c.bind(task(3, secs(5)));
        c.start_next(secs(5));
        c.exec_until = Some(secs(9));
        let lost = c.fail();
        assert_eq!(
            lost.iter().map(|t| t.job).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(c.is_empty(), "a drained container can retire");
        assert_eq!(c.exec_until, None);
        assert_eq!(c.tasks_executed, 0, "interrupted task never completed");
    }

    #[test]
    fn fail_on_empty_container_loses_nothing() {
        let mut c = warm_container(2);
        let lost = c.fail();
        assert!(lost.is_empty());
        assert_eq!(
            lost.capacity(),
            0,
            "draining an empty container allocates nothing"
        );
        assert!(c.is_empty());
    }

    #[test]
    fn usage_profiles_are_deterministic_and_bounded() {
        let default = ResourceVec::from_cores_gb(0.5, 1.0);
        for ms in 0..8u64 {
            for id in 0..32u64 {
                let p = UsageProfile::sample(ms, id, 7, default);
                let q = UsageProfile::sample(ms, id, 7, default);
                assert_eq!(p, q, "same inputs must sample the same profile");
                assert!(p.idle.fits_within(p.busy), "idle must not exceed busy");
                assert!(p.busy.fits_within(default), "busy must fit the default");
                assert!(!p.busy.is_zero());
            }
        }
    }

    #[test]
    fn usage_profiles_vary_across_containers() {
        let default = ResourceVec::from_cores_gb(0.5, 1.0);
        let a = UsageProfile::sample(0, 0, 7, default);
        let distinct = (1..64u64).any(|id| UsageProfile::sample(0, id, 7, default) != a);
        assert!(distinct, "profiles must differ across container ids");
    }

    #[test]
    fn current_usage_follows_execution_state() {
        let mut c = warm_container(2);
        c.usage = UsageProfile {
            idle: ResourceVec::new(20, 100),
            busy: ResourceVec::new(400, 700),
        };
        assert_eq!(c.current_usage(), c.usage.idle);
        c.bind(task(1, secs(4)));
        c.start_next(secs(4));
        assert_eq!(c.current_usage(), c.usage.busy);
        c.finish_executing(secs(5));
        assert_eq!(c.current_usage(), c.usage.idle);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random spawn, retire, mutate and lookup sequences: after every
        /// step the table agrees with a `BTreeMap` keyed by id on the next
        /// id, on the lookup of every live, retired and never-issued id,
        /// and on the live id set — however retirements reshuffled the
        /// dense vector.
        #[test]
        fn table_agrees_with_a_btree_map(
            ops in prop::collection::vec((0u8..4, any::<u64>()), 1..200),
        ) {
            let mut table = ContainerTable::default();
            let mut oracle: BTreeMap<u64, Container> = BTreeMap::new();
            let key = |c: &Container| (c.id, c.node, c.tasks_executed);
            for (op, pick) in ops {
                let issued = table.next_id();
                match op {
                    0 => {
                        let node = (pick % 7) as usize;
                        let c = Container::spawn(issued, 0, node, 2, SimTime::ZERO, SimDuration::ZERO);
                        table.insert(c.clone());
                        oracle.insert(issued, c);
                    }
                    1 if !oracle.is_empty() => {
                        let id = *oracle.keys().nth((pick % oracle.len() as u64) as usize).unwrap();
                        table.retire(id);
                        oracle.remove(&id);
                    }
                    2 if !oracle.is_empty() => {
                        let id = *oracle.keys().nth((pick % oracle.len() as u64) as usize).unwrap();
                        table[id].tasks_executed = pick;
                        oracle.get_mut(&id).unwrap().tasks_executed = pick;
                    }
                    _ => {
                        let id = pick % (issued + 2);
                        if let Some(c) = table.get_mut(id) {
                            c.tasks_executed = c.tasks_executed.wrapping_add(1);
                        }
                        if let Some(c) = oracle.get_mut(&id) {
                            c.tasks_executed = c.tasks_executed.wrapping_add(1);
                        }
                    }
                }
                prop_assert_eq!(table.next_id(), issued + u64::from(op == 0));
                for id in 0..table.next_id() + 2 {
                    prop_assert_eq!(table.get(id).map(key), oracle.get(&id).map(key));
                }
                let mut live: Vec<u64> = table.iter().map(|c| c.id).collect();
                live.sort_unstable();
                prop_assert_eq!(live, oracle.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(table.len(), oracle.len());
            }
        }
    }
}
