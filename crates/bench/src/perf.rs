//! Dispatch-path micro-measurement helpers shared by `experiments ovh`
//! (§6.1.5's table) and the `bench` binary's dispatch section.
//!
//! The overhaul replaced the simulator's per-dispatch linear scan over the
//! stage queue with an indexed priority queue (`O(log Q)` pop). These
//! helpers drain an identical synthetic deep queue through both paths so
//! the speedup can be measured rather than asserted.

use fifer_core::scheduling::{select_task_iter, SchedulingPolicy};
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::stage::{IndexedTaskQueue, StageTask};
use std::time::{Duration, Instant};

/// Deterministic deep-queue workload: `n` tasks with scrambled enqueue
/// times, deadlines and remaining work, so neither policy degenerates to
/// already-sorted input.
pub fn deep_queue_tasks(n: usize) -> Vec<StageTask> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
            StageTask {
                job: i,
                enqueued: SimTime::from_micros(h % 1_000_000),
                job_deadline: SimTime::from_micros(1_000_000 + (h >> 8) % 2_000_000),
                remaining_work: SimDuration::from_micros(1_000 + (h >> 4) % 500_000),
                retries: 0,
            }
        })
        .collect()
}

/// Drains `tasks` through the O(log Q) indexed queue; returns a checksum
/// of the pop order so the work cannot be optimized away.
pub fn drain_indexed(tasks: &[StageTask], policy: SchedulingPolicy) -> u64 {
    let mut q = IndexedTaskQueue::new(policy);
    for &t in tasks {
        q.push(t);
    }
    let mut acc = 0u64;
    while let Some(t) = q.pop() {
        acc = acc.wrapping_mul(31).wrapping_add(t.job as u64);
    }
    acc
}

/// Drains `tasks` through the pre-overhaul linear scan: every dispatch
/// re-examines the whole queue via the reference scheduler.
pub fn drain_linear(tasks: &[StageTask], policy: SchedulingPolicy) -> u64 {
    let mut q: Vec<StageTask> = tasks.to_vec();
    let mut acc = 0u64;
    while !q.is_empty() {
        let i = select_task_iter(
            policy,
            q.iter().map(|t| t.as_queued()).enumerate(),
            SimTime::ZERO,
        )
        .expect("queue is non-empty");
        let t = q.remove(i);
        acc = acc.wrapping_mul(31).wrapping_add(t.job as u64);
    }
    acc
}

/// Times `f` over `reps` runs and returns the median duration (median is
/// robust to a cold first run and scheduler noise).
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    assert!(reps > 0, "need at least one repetition");
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_drains_visit_every_task_in_the_same_order() {
        let tasks = deep_queue_tasks(500);
        for policy in SchedulingPolicy::ALL {
            assert_eq!(
                drain_indexed(&tasks, policy),
                drain_linear(&tasks, policy),
                "checksum mismatch for {policy:?}"
            );
        }
    }

    #[test]
    fn deep_queue_is_deterministic_and_scrambled() {
        let a = deep_queue_tasks(100);
        let b = deep_queue_tasks(100);
        assert_eq!(a, b);
        // not already sorted by enqueue time
        assert!(a.windows(2).any(|w| w[0].enqueued > w[1].enqueued));
    }

    #[test]
    fn time_median_reports_a_plausible_duration() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        assert!(d < Duration::from_secs(1));
    }
}
