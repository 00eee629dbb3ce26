//! Centralized stats-store stand-in (paper §5.1, §6.1.5).
//!
//! The prototype keeps job and container statistics in MongoDB on the head
//! node; §6.1.5 measures its average read/write latency at ≈1.25 ms and
//! flags the centralized store as a potential scalability bottleneck (§8).
//! The simulator keeps its bookkeeping in process, but this module
//! preserves the *accounting*: every operation the real system would issue
//! against the store is tallied as a read or a write. `experiments ovh`
//! reports the modeled 1.25 ms latency in the overheads table (§6.1.5); no
//! scheduling decision is charged it.

use fifer_metrics::SimDuration;

/// Which store operation an access represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Pod-selection query ("pick the pod with the least free slots").
    PodQuery,
    /// Free-slot update after scheduling a task.
    SlotUpdate,
    /// Job statistics insert/update (creation, completion, schedule time).
    JobStats,
    /// Container metrics update (lastUsedTime, batch size, …).
    ContainerStats,
    /// Arrival-history read by the load predictor.
    ArrivalQuery,
}

/// Cumulative access counters for the modeled store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Total read operations.
    pub reads: u64,
    /// Total write operations.
    pub writes: u64,
}

/// The store model: the prototype's single head-node database, owned by
/// the simulation that issues its accesses.
#[derive(Debug)]
pub struct StatsStore {
    mean_latency: SimDuration,
    counters: StoreCounters,
}

impl StatsStore {
    /// Creates a store with the paper's measured ≈1.25 ms mean access
    /// latency.
    pub fn paper_default() -> Self {
        StatsStore::with_latency(SimDuration::from_micros(1250))
    }

    /// Creates a store with a custom mean access latency.
    pub fn with_latency(mean_latency: SimDuration) -> Self {
        StatsStore {
            mean_latency,
            counters: StoreCounters::default(),
        }
    }

    /// Records one access as a read or a write.
    pub fn access(&mut self, op: StoreOp) {
        let c = &mut self.counters;
        match op {
            StoreOp::PodQuery | StoreOp::ArrivalQuery => c.reads += 1,
            StoreOp::SlotUpdate | StoreOp::JobStats | StoreOp::ContainerStats => c.writes += 1,
        }
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The modeled mean access latency.
    pub fn mean_latency(&self) -> SimDuration {
        self.mean_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latency_matches_paper() {
        let s = StatsStore::paper_default();
        assert_eq!(s.mean_latency().as_millis_f64(), 1.25);
    }

    #[test]
    fn reads_and_writes_are_classified() {
        let mut s = StatsStore::paper_default();
        s.access(StoreOp::PodQuery);
        s.access(StoreOp::ArrivalQuery);
        s.access(StoreOp::SlotUpdate);
        s.access(StoreOp::JobStats);
        s.access(StoreOp::ContainerStats);
        let c = s.counters();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 3);
    }

    #[test]
    fn access_leaves_the_modeled_latency_alone() {
        let mut s = StatsStore::with_latency(SimDuration::from_millis(3));
        s.access(StoreOp::SlotUpdate);
        assert_eq!(s.mean_latency(), SimDuration::from_millis(3));
        assert_eq!(s.counters().writes, 1);
    }
}
