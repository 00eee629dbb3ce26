//! Parallel map for the harness's independent runs: whole simulations,
//! bench sections and the predictor bake-off.

use std::sync::Mutex;

/// Maps `f` over `tasks` on up to `workers` scoped threads and returns the
/// results in task order. Each worker claims the next unclaimed task from
/// one shared cursor, so uneven tasks balance without per-worker queues,
/// and the cursor's lock is the only one taken. A panic in `f` resurfaces
/// here.
pub fn par_map<T: Send, R: Send>(
    tasks: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = tasks.len();
    let cursor = Mutex::new(tasks.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers.max(1).min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // its own statement, so the guard drops before `f` runs
                        let task = cursor.lock().expect("task cursor poisoned").next();
                        let Some((i, t)) = task else { break done };
                        done.push((i, f(t)));
                    }
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("par_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every task ran exactly once"))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_task_order() {
        let out = par_map((0..100).collect(), 8, |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = par_map((0..57).collect(), 3, |i: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(hits.load(Ordering::SeqCst), 57);
        assert_eq!(out, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), 4, |i| i), Vec::<u32>::new());
        assert_eq!(par_map(vec![9], 4, |i: u32| i), vec![9]);
        assert_eq!(par_map(vec![1, 2], 0, |i: u32| i), vec![1, 2]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(par_map(vec![1, 2], 64, |i: u32| i * 10), vec![10, 20]);
    }

    #[test]
    fn detected_cores_is_positive() {
        assert!(detected_cores() >= 1);
    }
}
