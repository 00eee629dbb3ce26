//! Task and container selection policies (paper §4.3–§4.4).
//!
//! * **Task selection** — when a stage's container frees a slot, which
//!   queued task runs next? Fifer uses Least-Slack-First so requests from
//!   applications with tight remaining budgets jump the queue of shared
//!   stages; FIFO is the baseline comparison.
//! * **Container selection** — when a task is dispatched, which container
//!   receives it? Fifer greedily picks the container with the *fewest*
//!   remaining free slots, concentrating load so lightly used containers
//!   drain and scale in early (Algorithm 1 d).

use fifer_metrics::{SimDuration, SimTime};

/// Task-selection policy for a stage's global queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First-in-first-out (arrival order).
    Fifo,
    /// Least-Slack-First: the task with the smallest remaining slack runs
    /// next (§4.3, Algorithm 1 c).
    Lsf,
    /// Earliest-Deadline-First: the task whose *job* deadline comes first
    /// runs next — the classic real-time baseline LSF is usually compared
    /// against. Unlike LSF it ignores how much work the job still has
    /// ahead, so it cannot tell a deadline that is close-but-cheap from
    /// one that is close-and-doomed.
    Edf,
}

impl SchedulingPolicy {
    /// All policies, for ablations and differential tests.
    pub const ALL: [SchedulingPolicy; 3] = [
        SchedulingPolicy::Fifo,
        SchedulingPolicy::Lsf,
        SchedulingPolicy::Edf,
    ];
}

/// A queued task as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedTask {
    /// The job this task belongs to.
    pub job_id: u64,
    /// When the task entered this stage's queue.
    pub enqueued: SimTime,
    /// Absolute deadline by which the *job* must finish to meet its SLO.
    pub job_deadline: SimTime,
    /// Estimated execution time still ahead of the job (this stage and all
    /// later stages) — subtracted from the deadline to get true slack.
    pub remaining_work: SimDuration,
}

impl QueuedTask {
    /// Remaining slack at time `now`: how long the task can still wait
    /// before the job becomes unable to meet its SLO
    /// (`deadline − remaining_work − now`, saturating at zero).
    pub fn remaining_slack(&self, now: SimTime) -> SimDuration {
        let budget = self.job_deadline.saturating_since(now);
        budget.saturating_sub(self.remaining_work)
    }

    /// The latest instant this task can start and still meet its job's SLO
    /// (`deadline − remaining_work`, saturating at the epoch). LSF orders
    /// by this key: unlike [`Self::remaining_slack`], it keeps already-late
    /// tasks distinguishable (the later a task is, the earlier its
    /// latest-start), instead of collapsing them all to zero slack.
    pub fn latest_start(&self) -> SimTime {
        let deadline_us = self.job_deadline.as_micros();
        SimTime::from_micros(deadline_us.saturating_sub(self.remaining_work.as_micros()))
    }

    /// The total dispatch-order key for this task under `policy`,
    /// lexicographic, smallest-first.
    ///
    /// Every component is knowable at enqueue time — none depends on the
    /// current clock (LSF ranks by *latest start*, which moves with neither
    /// `now` nor the rest of the queue) — so an indexed queue can compute
    /// the key once on insert and pop the minimum in O(log n). The trailing
    /// components make the key unique per task, which pins the ordering of
    /// ties to (arrival, job id) regardless of container structure.
    ///
    /// [`select_task_iter`] deliberately does *not* call this function: it
    /// ranks tasks with its own comparisons and serves as the independent
    /// reference the indexed queue is differentially tested against.
    pub fn priority_key(&self, policy: SchedulingPolicy) -> [u64; 3] {
        match policy {
            SchedulingPolicy::Fifo => [self.enqueued.as_micros(), self.job_id, 0],
            SchedulingPolicy::Lsf => [
                self.latest_start().as_micros(),
                self.enqueued.as_micros(),
                self.job_id,
            ],
            SchedulingPolicy::Edf => [
                self.job_deadline.as_micros(),
                self.enqueued.as_micros(),
                self.job_id,
            ],
        }
    }
}

/// Selects the index of the next task to run from `queue`, or `None` when
/// the queue is empty.
pub fn select_task(policy: SchedulingPolicy, queue: &[QueuedTask], now: SimTime) -> Option<usize> {
    select_task_iter(policy, queue.iter().copied().enumerate(), now)
}

/// Iterator-based variant of [`select_task`] so hot paths can feed mapped
/// task views without materializing a vector.
pub fn select_task_iter(
    policy: SchedulingPolicy,
    queue: impl Iterator<Item = (usize, QueuedTask)>,
    _now: SimTime,
) -> Option<usize> {
    match policy {
        SchedulingPolicy::Fifo => {
            // earliest enqueue wins; job id breaks ties deterministically
            queue
                .min_by_key(|(_, t)| (t.enqueued, t.job_id))
                .map(|(i, _)| i)
        }
        // ordering by latest-start is equivalent to least-remaining-slack
        // for on-time tasks, and keeps late tasks properly ordered (the
        // most-late first) where a saturating slack would collapse them
        SchedulingPolicy::Lsf => queue
            .min_by_key(|(_, t)| (t.latest_start(), t.enqueued, t.job_id))
            .map(|(i, _)| i),
        SchedulingPolicy::Edf => queue
            .min_by_key(|(_, t)| (t.job_deadline, t.enqueued, t.job_id))
            .map(|(i, _)| i),
    }
}

/// Container-selection policy for dispatching a task within a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerSelection {
    /// Fifer's greedy policy: the container with the least remaining free
    /// slots (but at least one) receives the task (§4.4.1).
    GreedyLeastFreeSlots,
    /// First container with a free slot, in id order (spread-style
    /// baseline for the ablation).
    FirstFit,
    /// Container with the *most* free slots — the anti-greedy strawman.
    MostFreeSlots,
}

impl ContainerSelection {
    /// All policies, for ablations.
    pub const ALL: [ContainerSelection; 3] = [
        ContainerSelection::GreedyLeastFreeSlots,
        ContainerSelection::FirstFit,
        ContainerSelection::MostFreeSlots,
    ];
}

/// A candidate container as seen by the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerCandidate {
    /// Opaque container identifier (index into the caller's table).
    pub id: u64,
    /// Free queue slots remaining (0 = full).
    pub free_slots: usize,
}

/// Picks the container to receive a task, or `None` when every candidate is
/// full. Ties break toward the lower id for determinism.
pub fn select_container(
    policy: ContainerSelection,
    candidates: &[ContainerCandidate],
) -> Option<u64> {
    let usable = candidates.iter().filter(|c| c.free_slots > 0);
    match policy {
        ContainerSelection::GreedyLeastFreeSlots => {
            usable.min_by_key(|c| (c.free_slots, c.id)).map(|c| c.id)
        }
        ContainerSelection::FirstFit => usable.min_by_key(|c| c.id).map(|c| c.id),
        ContainerSelection::MostFreeSlots => usable
            .min_by_key(|c| (usize::MAX - c.free_slots, c.id))
            .map(|c| c.id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(job_id: u64, enq_ms: u64, deadline_ms: u64, work_ms: u64) -> QueuedTask {
        QueuedTask {
            job_id,
            enqueued: SimTime::from_millis(enq_ms),
            job_deadline: SimTime::from_millis(deadline_ms),
            remaining_work: SimDuration::from_millis(work_ms),
        }
    }

    #[test]
    fn remaining_slack_subtracts_work() {
        let t = task(1, 0, 1000, 300);
        assert_eq!(
            t.remaining_slack(SimTime::from_millis(200)),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn remaining_slack_saturates_at_zero() {
        let t = task(1, 0, 500, 600);
        assert_eq!(t.remaining_slack(SimTime::ZERO), SimDuration::ZERO);
        let late = task(2, 0, 500, 100);
        assert_eq!(
            late.remaining_slack(SimTime::from_millis(900)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fifo_picks_earliest_arrival() {
        let q = vec![
            task(1, 30, 1000, 10),
            task(2, 10, 1000, 10),
            task(3, 20, 1000, 10),
        ];
        assert_eq!(
            select_task(SchedulingPolicy::Fifo, &q, SimTime::ZERO),
            Some(1)
        );
    }

    #[test]
    fn lsf_picks_tightest_slack() {
        let now = SimTime::from_millis(100);
        // job 2 has the tightest budget: deadline 400, work 250 → slack 50
        let q = vec![
            task(1, 10, 1000, 100),
            task(2, 30, 400, 250),
            task(3, 20, 800, 100),
        ];
        assert_eq!(select_task(SchedulingPolicy::Lsf, &q, now), Some(1));
    }

    #[test]
    fn lsf_breaks_ties_by_arrival_then_id() {
        let q = vec![task(5, 20, 1000, 100), task(3, 10, 1000, 100)];
        assert_eq!(
            select_task(SchedulingPolicy::Lsf, &q, SimTime::ZERO),
            Some(1)
        );
        let q2 = vec![task(5, 10, 1000, 100), task(3, 10, 1000, 100)];
        assert_eq!(
            select_task(SchedulingPolicy::Lsf, &q2, SimTime::ZERO),
            Some(1)
        );
    }

    #[test]
    fn empty_queue_selects_nothing() {
        assert_eq!(select_task(SchedulingPolicy::Lsf, &[], SimTime::ZERO), None);
        assert_eq!(
            select_container(ContainerSelection::GreedyLeastFreeSlots, &[]),
            None
        );
    }

    #[test]
    fn lsf_orders_late_tasks_by_lateness() {
        // both tasks are already past their latest start (slack saturates
        // to zero for both); the more-late one must still win
        let very_late = task(1, 0, 300, 200); // latest start 100ms
        let slightly_late = task(2, 0, 900, 200); // latest start 700ms
        let now = SimTime::from_millis(800);
        assert_eq!(very_late.remaining_slack(now), SimDuration::ZERO);
        assert_eq!(slightly_late.remaining_slack(now), SimDuration::ZERO);
        let q = vec![slightly_late, very_late];
        assert_eq!(
            select_task(SchedulingPolicy::Lsf, &q, now),
            Some(1),
            "the most-late task runs first"
        );
    }

    #[test]
    fn latest_start_saturates_at_epoch() {
        let t = task(1, 0, 100, 500);
        assert_eq!(t.latest_start(), SimTime::ZERO);
    }

    #[test]
    fn lsf_avoids_starvation_as_slack_decays() {
        // a task waiting in the queue loses slack over time, so it
        // eventually outranks fresh tasks with the same budget
        let old = task(1, 0, 1000, 100);
        let fresh = task(2, 0, 2000, 100);
        let now = SimTime::from_millis(850);
        // old: slack = 1000-100-850 = 50; fresh: 2000-100-850 = 1050
        let q = vec![fresh, old];
        assert_eq!(select_task(SchedulingPolicy::Lsf, &q, now), Some(1));
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        // job 3 has the earliest deadline even though job 2 has less slack
        let q = vec![
            task(1, 10, 1000, 100),
            task(2, 30, 500, 450),
            task(3, 20, 400, 50),
        ];
        assert_eq!(
            select_task(SchedulingPolicy::Edf, &q, SimTime::ZERO),
            Some(2)
        );
        // ...while LSF prefers job 2 (latest start 50ms vs job 3's 350ms)
        assert_eq!(
            select_task(SchedulingPolicy::Lsf, &q, SimTime::ZERO),
            Some(1)
        );
    }

    #[test]
    fn edf_breaks_ties_by_arrival_then_id() {
        let q = vec![task(5, 20, 1000, 100), task(3, 10, 1000, 300)];
        assert_eq!(
            select_task(SchedulingPolicy::Edf, &q, SimTime::ZERO),
            Some(1)
        );
        let q2 = vec![task(5, 10, 1000, 100), task(3, 10, 1000, 300)];
        assert_eq!(
            select_task(SchedulingPolicy::Edf, &q2, SimTime::ZERO),
            Some(1)
        );
    }

    #[test]
    fn priority_key_agrees_with_reference_selection() {
        // a queue with deliberate ties in every component
        let q = vec![
            task(4, 40, 900, 100),
            task(1, 10, 1000, 100),
            task(2, 10, 1000, 100),
            task(3, 10, 900, 200),
            task(5, 40, 700, 0),
        ];
        for policy in SchedulingPolicy::ALL {
            let by_key = q
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.priority_key(policy))
                .map(|(i, _)| i);
            let by_ref = select_task(policy, &q, SimTime::from_millis(50));
            assert_eq!(by_key, by_ref, "{policy:?}");
        }
    }

    #[test]
    fn priority_key_is_unique_per_task() {
        let a = task(1, 10, 1000, 100);
        let b = task(2, 10, 1000, 100);
        for policy in SchedulingPolicy::ALL {
            assert_ne!(a.priority_key(policy), b.priority_key(policy), "{policy:?}");
        }
    }

    fn cand(id: u64, free: usize) -> ContainerCandidate {
        ContainerCandidate {
            id,
            free_slots: free,
        }
    }

    #[test]
    fn greedy_picks_least_free_slots() {
        let cs = vec![cand(1, 3), cand(2, 1), cand(3, 2)];
        assert_eq!(
            select_container(ContainerSelection::GreedyLeastFreeSlots, &cs),
            Some(2)
        );
    }

    #[test]
    fn greedy_skips_full_containers() {
        let cs = vec![cand(1, 0), cand(2, 2)];
        assert_eq!(
            select_container(ContainerSelection::GreedyLeastFreeSlots, &cs),
            Some(2)
        );
        let full = vec![cand(1, 0)];
        assert_eq!(
            select_container(ContainerSelection::GreedyLeastFreeSlots, &full),
            None
        );
    }

    #[test]
    fn most_free_is_the_opposite_of_greedy() {
        let cs = vec![cand(1, 3), cand(2, 1)];
        assert_eq!(
            select_container(ContainerSelection::MostFreeSlots, &cs),
            Some(1)
        );
    }

    #[test]
    fn first_fit_prefers_low_ids() {
        let cs = vec![cand(9, 1), cand(2, 5), cand(4, 1)];
        assert_eq!(select_container(ContainerSelection::FirstFit, &cs), Some(2));
    }

    #[test]
    fn greedy_ties_break_by_id() {
        let cs = vec![cand(7, 2), cand(3, 2)];
        assert_eq!(
            select_container(ContainerSelection::GreedyLeastFreeSlots, &cs),
            Some(3)
        );
    }
}
