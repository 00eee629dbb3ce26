//! Simulation configuration with the paper's defaults (Tables 1–2, §5).

use crate::fault::FaultPlan;
use crate::trace::TraceConfig;
use fifer_core::rm::RmConfig;
use fifer_metrics::SimDuration;

/// CPU request per container in cores (§5.1: 0.5 core).
pub const CONTAINER_CPU: f64 = 0.5;

/// Memory request per container in GB (§5.1: within 1 GB).
pub const CONTAINER_MEM_GB: f64 = 1.0;

/// Slow monitoring interval T for proactive scaling, idle scale-down and
/// energy sampling (§4.5: 10 s).
pub const MONITOR_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Fast interval for the reactive queue-delay check. The paper's load
/// monitor watches queues continuously (§4.2); 1 s keeps the check
/// responsive at sub-SLO granularity without per-event overhead.
pub const REACTIVE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Time after a node empties before it powers off (§4.4.2).
pub const NODE_POWEROFF_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Container-image pull bandwidth in MB/s; with the catalog's image sizes
/// this yields the paper's 2–9 s cold starts (§6.1.5).
pub const IMAGE_PULL_MBPS: f64 = 150.0;

/// The default per-container allocation ([`CONTAINER_CPU`],
/// [`CONTAINER_MEM_GB`]) as an exact integer shape.
pub fn container_alloc() -> fifer_core::ResourceVec {
    fifer_core::ResourceVec::from_cores_gb(CONTAINER_CPU, CONTAINER_MEM_GB)
}

/// Cluster hardware shape (paper Table 1: dual-socket Xeon Gold 6242 nodes,
/// 16 cores × 2 threads per socket, 192 GB DRAM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Schedulable CPU cores per node.
    pub cores_per_node: f64,
    /// Memory per node in GB.
    pub mem_per_node_gb: f64,
}

impl ClusterConfig {
    /// The paper's 80-compute-core prototype cluster: 5 worker nodes of 16
    /// allocatable cores each.
    pub fn prototype() -> Self {
        ClusterConfig {
            nodes: 5,
            cores_per_node: 16.0,
            mem_per_node_gb: 192.0,
        }
    }

    /// The 2500-core large-scale simulation (§5.3: "30× our prototype
    /// cluster").
    pub fn large_scale() -> Self {
        ClusterConfig {
            nodes: 157,
            cores_per_node: 16.0,
            mem_per_node_gb: 192.0,
        }
    }

    /// Total schedulable cores across the cluster.
    pub fn total_cores(&self) -> f64 {
        self.nodes as f64 * self.cores_per_node
    }
}

/// Full simulation configuration. The calibration constants no scenario
/// varies (container shape, monitor intervals, power-off timeout, image
/// pull bandwidth) are the module-level constants above.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The resource-manager policy bundle under test.
    pub rm: RmConfig,
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Application SLO (response latency); the paper fixes 1000 ms.
    pub slo: SimDuration,
    /// Idle-container reclamation timeout (§4.4.1: 10 minutes).
    pub idle_timeout: SimDuration,
    /// Average arrival rate used to size SBatch's fixed pool (§5.3).
    pub expected_avg_rate: f64,
    /// Historical window-max rate series for pre-training neural
    /// predictors (§4.5.1: 60% of the trace). Empty = no pre-training.
    pub pretrain_series: Vec<f64>,
    /// Jobs arriving before this instant are simulated but excluded from
    /// latency/SLO metrics — the standard warmup exclusion, so the all-cold
    /// t = 0 transient does not dominate steady-state comparisons.
    pub warmup: SimDuration,
    /// Whether identical microservices are shared across the mix's
    /// applications (§4.3 footnote: shared within a tenant, never across).
    pub share_stages: bool,
    /// Dynamic-chain extension (§8 future work): probability that a job
    /// exits its chain after completing a non-final stage (e.g. Face
    /// Security skipping recognition when detection finds no face).
    /// 0 reproduces the paper's linear chains.
    pub early_exit_prob: f64,
    /// Number of independent tenants (§2.1: "our proposed ideas can be
    /// individually applied to each tenant"; microservices are never
    /// shared across tenants, §4.3 footnote). Each tenant gets its own
    /// stage pools over the shared cluster; jobs are assigned to tenants
    /// round-robin. 1 reproduces the paper's single-tenant evaluation.
    pub tenants: usize,
    /// Pre-warmed pool floor (§2.2.1: "certain frameworks employ a
    /// pre-warmed pool of idle containers"): each stage keeps at least
    /// this many unoccupied containers alive, replenished at monitor
    /// ticks. 0 (the default) disables the pool; nonzero values let the
    /// harness quantify the memory/energy waste the paper calls out.
    pub min_warm_pool: usize,
    /// RNG seed for exec-time jitter and any stochastic choices.
    pub seed: u64,
    /// Structured decision trace (ring capacity). Disabled by default; see
    /// [`crate::trace`].
    pub trace: TraceConfig,
    /// Deterministic fault-injection plan (spawn faults, crashes,
    /// stragglers, node outages). [`FaultPlan::none`] — the default —
    /// injects nothing and leaves runs byte-identical to a fault-free
    /// build; see [`crate::fault`].
    pub faults: FaultPlan,
    /// Run the invariant auditor at every event-commit point (the
    /// `audit` module): conservation of tasks, slot/memory accounting,
    /// dispatch safety, the pod count and the harvest-lease balance.
    /// Read-only — violations are collected into
    /// [`SimResult::audit_violations`](crate::SimResult), never panicked
    /// mid-run — so enabling it does not perturb the simulation. Off by
    /// default; the test suite switches it on.
    pub audit: bool,
}

impl SimConfig {
    /// Prototype-scale configuration (80 cores) with paper defaults.
    pub fn prototype(rm: RmConfig, expected_avg_rate: f64) -> Self {
        SimConfig {
            rm,
            cluster: ClusterConfig::prototype(),
            slo: SimDuration::from_millis(1000),
            idle_timeout: SimDuration::from_secs(600),
            expected_avg_rate,
            pretrain_series: Vec::new(),
            warmup: SimDuration::ZERO,
            share_stages: true,
            early_exit_prob: 0.0,
            tenants: 1,
            min_warm_pool: 0,
            seed: 1,
            trace: TraceConfig::default(),
            faults: FaultPlan::none(),
            audit: false,
        }
    }

    /// Large-scale configuration (2500 cores) for the trace-driven studies.
    pub fn large_scale(rm: RmConfig, expected_avg_rate: f64) -> Self {
        SimConfig {
            cluster: ClusterConfig::large_scale(),
            ..Self::prototype(rm, expected_avg_rate)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an empty cluster, nodes too small for one container, or
    /// out-of-range knobs, including an invalid fault plan.
    pub fn validate(&self) {
        assert!(self.cluster.nodes > 0, "need at least one node");
        assert!(self.cluster.cores_per_node > 0.0, "cores must be positive");
        assert!(
            CONTAINER_CPU <= self.cluster.cores_per_node,
            "container cannot exceed a node"
        );
        assert!(
            CONTAINER_MEM_GB <= self.cluster.mem_per_node_gb,
            "container memory must fit on a node"
        );
        assert!(
            self.expected_avg_rate >= 0.0 && self.expected_avg_rate.is_finite(),
            "avg rate must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.early_exit_prob),
            "early-exit probability must be in [0, 1]"
        );
        assert!(self.tenants >= 1, "need at least one tenant");
        if let Err(e) = self.faults.validate(self.cluster.nodes) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::rm::RmKind;

    #[test]
    fn prototype_is_80_cores() {
        assert_eq!(ClusterConfig::prototype().total_cores(), 80.0);
    }

    #[test]
    fn large_scale_is_about_2500_cores() {
        let c = ClusterConfig::large_scale();
        assert!((2400.0..=2600.0).contains(&c.total_cores()));
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = SimConfig::prototype(RmKind::Fifer.config(), 50.0);
        assert_eq!(cfg.slo, SimDuration::from_millis(1000));
        assert_eq!(CONTAINER_CPU, 0.5);
        assert_eq!(MONITOR_INTERVAL, SimDuration::from_secs(10));
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(600));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed a node")]
    fn oversized_container_rejected() {
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 1.0);
        cfg.cluster.cores_per_node = CONTAINER_CPU / 2.0;
        cfg.validate();
    }
}
