//! Minimal std-only work-stealing thread pool.
//!
//! Used for independent work only: whole-simulation sweeps in the
//! experiment runner, bench sections and the predictor bake-off. A
//! simulation run itself never spawns a thread. Tasks are coarse and
//! embarrassingly parallel, but their durations are wildly uneven — a
//! Fifer large-scale run takes an order of magnitude longer than a Bline
//! prototype run. A fixed round-robin split therefore leaves workers idle
//! at the tail. Here each worker owns a deque seeded round-robin; it pops
//! its own work from the front and, when empty, steals from the *back* of
//! a sibling's deque, so the tail of a long batch is spread across
//! whoever finishes early.
//!
//! Results always come back in task order, so a deterministic partition of
//! work (e.g. contiguous index ranges) merges into a deterministic whole
//! regardless of which worker ran what.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Number of workers to use by default: one per available core.
pub fn default_workers() -> usize {
    detected_cores()
}

/// Number of CPU cores this process can actually use.
///
/// `available_parallelism` already accounts for CPU affinity masks and
/// cgroup quotas, so it is the authoritative answer when it succeeds —
/// benchmarks that gate speedup floors on core counts must use the usable
/// number, not the machine's physical topology. When the runtime cannot
/// determine it (some minimal containers hide the topology entirely), the
/// `/proc/cpuinfo` processor count stands in before falling back to 4.
pub fn detected_cores() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(_) => proc_cpuinfo_cores().unwrap_or(4),
    }
}

/// Counts `processor` entries in `/proc/cpuinfo` (Linux); `None` elsewhere
/// or when the file is unreadable/empty.
fn proc_cpuinfo_cores() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let n = info
        .lines()
        .filter(|l| l.split(':').next().is_some_and(|k| k.trim() == "processor"))
        .count();
    (n > 0).then_some(n)
}

/// Runs `f` over every task on `workers` threads, work-stealing across
/// per-worker deques, and returns the results in task order.
///
/// Panics in `f` propagate (the pool worker's panic is resurfaced).
pub fn execute<T, R, F>(tasks: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, t) in tasks.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            .expect("pool queue poisoned")
            .push_back((i, t));
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // own deque first (front = oldest assigned), then
                        // steal from the back of the nearest busy sibling.
                        // The own-deque pop is its own statement so its
                        // guard drops before any sibling lock is taken: a
                        // thread never holds two deque locks, so two
                        // workers running dry together cannot deadlock.
                        let own = queues[w].lock().expect("pool queue poisoned").pop_front();
                        let job = own.or_else(|| {
                            (1..workers).find_map(|k| {
                                queues[(w + k) % workers]
                                    .lock()
                                    .expect("pool queue poisoned")
                                    .pop_back()
                            })
                        });
                        match job {
                            Some((i, t)) => done.push((i, f(t))),
                            // no job anywhere and none will appear (tasks
                            // never spawn tasks): this worker is finished
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("pool worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every task ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_task_order() {
        let out = execute((0..100).collect(), 8, |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = execute((0..57).collect(), 3, |i: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(hits.load(Ordering::SeqCst), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn uneven_tasks_are_stolen() {
        // one huge task pinned to worker 0's deque; the rest must migrate
        let out = execute((0..16).collect(), 2, |i: usize| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i + 1
        });
        assert_eq!(out, (1..17).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(execute(Vec::<u32>::new(), 4, |i| i), Vec::<u32>::new());
        assert_eq!(execute(vec![9], 4, |i: u32| i), vec![9]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(execute(vec![1, 2], 64, |i: u32| i * 10), vec![10, 20]);
    }

    #[test]
    fn detected_cores_is_positive() {
        assert!(detected_cores() >= 1);
        assert!(default_workers() >= 1);
    }

    #[test]
    fn two_workers_running_dry_together_never_deadlock() {
        // Each two-task batch gives each worker one task, and the tasks
        // spin until both have started, so both workers finish together
        // and go to steal at the same instant. A worker that steals while
        // still holding its own deque lock deadlocks here (ABBA) within a
        // few thousand batches. A helper thread runs the batches so a hang
        // fails by watchdog instead of stalling the suite.
        const BATCHES: usize = 50_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            let started = AtomicUsize::new(0);
            for b in 0..BATCHES {
                let out = execute(vec![b, b], 2, |b: usize| {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < 2 * (b + 1) {
                        std::thread::yield_now();
                    }
                    b
                });
                assert_eq!(out, vec![b, b]);
            }
            let _ = tx.send(());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("pool::execute deadlocked: {BATCHES} two-task batches took over 60 s")
            }
            _ => stress.join().expect("stress batches panicked"),
        }
    }
}
