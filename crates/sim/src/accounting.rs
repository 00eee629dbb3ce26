//! Mechanism: static setup and read-only accounting.
//!
//! This module builds the stage table and per-application routing, takes
//! the read-only [`ClusterView`]/[`StageView`]/[`ContainerView`] snapshots
//! the policy hooks consume, and assembles the final
//! [`SimResult`]. Nothing here makes decisions.

use crate::container::Container;
use crate::driver::Simulation;
use crate::results::{SimResult, StageStats};
use crate::stage::StageRuntime;
use fifer_core::policy::{ClusterView, ContainerView, StageView};
use fifer_core::slack::AppPlan;
use fifer_metrics::breakdown::LatencyBreakdown;
use fifer_metrics::{SimDuration, SimTime};
use fifer_workloads::{Application, Microservice};
use std::collections::BTreeMap;

/// Per-job live state.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    pub(crate) app: Application,
    /// Tenant this job belongs to (stage pools are per tenant).
    pub(crate) tenant: usize,
    pub(crate) submitted: SimTime,
    pub(crate) input_scale: f64,
    /// Index into the app's chain of the stage the job is currently at.
    pub(crate) stage_pos: usize,
    pub(crate) breakdown: LatencyBreakdown,
    pub(crate) done: bool,
    /// The job was abandoned after a task exhausted the fault-retry
    /// budget; it produces no record and counts in `jobs_dropped`.
    pub(crate) dropped: bool,
}

/// Static per-application routing/plan data.
#[derive(Debug, Clone)]
pub(crate) struct AppRuntime {
    pub(crate) plan: AppPlan,
    /// Stage table index for each chain position.
    pub(crate) stage_at: Vec<usize>,
    /// Remaining mean work (exec + transitions) from each chain position.
    pub(crate) remaining_work: Vec<SimDuration>,
    pub(crate) transition_overhead: SimDuration,
}

impl Simulation<'_> {
    /// O(1) snapshot of one stage for a policy hook. `observed_delay` is
    /// only measured (and its sliding window pruned) on reactive ticks;
    /// every other hook passes zero.
    pub(crate) fn stage_view(&self, sidx: usize, observed_delay: SimDuration) -> StageView {
        let s = &self.stages[sidx];
        StageView {
            stage: sidx,
            pending: s.pending(),
            waiting_total: s.waiting_total(),
            num_containers: s.containers.len(),
            batch_size: s.batch_size,
            response_latency: s.response_latency,
            slack: s.slack,
            mean_exec: s.mean_exec,
            cold_start: s.cold_start,
            observed_delay,
            arrivals: s.arrivals,
            mix_share: self.mix_share[sidx],
            allocated: s.allocated,
            used: s.used,
        }
    }

    /// Cluster-level scalars for a policy hook, over an already-built
    /// stage-view slice. `global_rate` defaults to zero; the monitor tick
    /// overwrites it when the policy observes load.
    pub(crate) fn cluster_scalars<'v>(
        &self,
        now: SimTime,
        stages: &'v [StageView],
    ) -> ClusterView<'v> {
        ClusterView {
            now,
            total_arrivals: self.jobs_arrived,
            global_rate: 0.0,
            expected_avg_rate: self.cfg.expected_avg_rate,
            tenants: self.cfg.tenants,
            min_warm_pool: self.cfg.min_warm_pool,
            idle_timeout: self.cfg.idle_timeout,
            container_alloc: self.cfg.container_alloc(),
            capacity: self.cluster.total_capacity(),
            allocated: self.cluster.total_allocated(),
            used: self.cluster.total_used(),
            harvested: self.cluster.total_harvested(),
            stages,
        }
    }

    /// Snapshots every container idle past the reclamation timeout, in
    /// container-id order (the order `on_idle_deadline` documents).
    pub(crate) fn expired_idle_views(&self, now: SimTime) -> Vec<ContainerView> {
        let timeout = self.cfg.idle_timeout;
        self.containers
            .iter()
            .filter(|c| c.is_alive() && c.is_idle() && now.saturating_since(c.last_used) >= timeout)
            .map(|c| ContainerView {
                container: c.id,
                stage: c.stage,
                node: c.node,
                last_used: c.last_used,
            })
            .collect()
    }

    pub(crate) fn workload_drained(&self) -> bool {
        self.jobs_done + self.jobs_dropped as usize == self.jobs.len()
    }

    /// Final result assembly.
    pub(crate) fn finish(mut self) -> SimResult {
        // close the utilization integrals at the workload's end
        self.cluster.accrue(self.last_completion);
        let util = self.cluster.utilization();
        let mut stages = BTreeMap::new();
        for s in &self.stages {
            let entry = stages
                .entry(s.microservice)
                .or_insert(StageStats::default());
            entry.containers_spawned += s.containers_spawned;
            entry.tasks_executed += s.tasks_executed;
            entry.arrivals += s.arrivals;
        }
        let counters = self.store.counters();
        SimResult {
            records: self.records,
            slo: self.slo,
            slo_whole_run: self.slo_whole_run,
            live_containers: self.live_series,
            cumulative_spawns: self.spawn_series,
            stages,
            total_spawns: self.total_spawns,
            blocking_cold_starts: self.blocking_cold_starts,
            failed_spawns: self.failed_spawns,
            container_failures: self.container_failures,
            tasks_crashed: self.tasks_crashed,
            tasks_requeued: self.tasks_requeued,
            jobs_dropped: self.jobs_dropped,
            node_outages: self.node_outages,
            alloc_core_hours: util.alloc_core_hours,
            used_core_hours: util.used_core_hours,
            harvested_core_hours: util.harvested_core_hours,
            harvest_spawns: self.harvest_spawns,
            leases_created: self.leases_created,
            leases_ended: self.leases_ended,
            lease_parts_reclaimed: self.lease_parts_reclaimed,
            containers_preempted: self.containers_preempted,
            tasks_preempted: self.tasks_preempted,
            containers_rightsized: self.containers_rightsized,
            audit_checks: self.audit.checks,
            audit_violations: self.audit.violations,
            energy_joules: self.meter.joules(),
            active_nodes: self.nodes_series,
            queue_depth: self.queue_series,
            horizon: self.last_completion,
            warmup: SimTime::ZERO + self.cfg.warmup,
            store_reads: counters.reads,
            store_writes: counters.writes,
            events_processed: self.events_processed,
            peak_queue_depth: self.peak_queue_depth,
        }
    }
}

/// A container that holds no work — warm-idle or still cold-starting with
/// an empty local queue. Both the warm-pool top-up and its reclamation
/// exemption count these (cold-empty containers will be unoccupied the
/// moment they warm, so spawning past them would overshoot the floor).
pub(crate) fn is_unoccupied(c: &Container) -> bool {
    c.is_alive() && c.executing.is_none() && c.local_queue.is_empty()
}

/// Builds the stage table and per-app routing for a mix.
pub(crate) fn build_stages(
    cfg: &crate::config::SimConfig,
    apps: [Application; 2],
) -> (
    Vec<StageRuntime>,
    BTreeMap<(usize, Application), AppRuntime>,
) {
    let policy = cfg.rm.batching.slack_policy();
    let mut stages: Vec<StageRuntime> = Vec::new();
    // stage sharing applies within a tenant only (§4.3 footnote)
    let mut by_ms: BTreeMap<(usize, Microservice), usize> = BTreeMap::new();
    let mut app_table = BTreeMap::new();

    for tenant in 0..cfg.tenants {
        for app in apps {
            let spec = app.spec_with_slo(cfg.slo);
            let plan = AppPlan::new(&spec, policy);
            let mut stage_at = Vec::with_capacity(plan.num_stages());
            for sp in plan.stages() {
                let batch = if cfg.rm.batching.batches() {
                    sp.batch_size
                } else {
                    1 // non-batching RMs: one request per container (§3)
                };
                let cold = sp.microservice.spec().cold_start_time(cfg.image_pull_mbps);
                let push_stage = |stages: &mut Vec<StageRuntime>| {
                    let i = stages.len();
                    stages.push(StageRuntime::new(
                        sp.microservice,
                        cfg.rm.scheduling,
                        batch,
                        sp.response_latency,
                        sp.slack,
                        sp.exec_time,
                        cold,
                    ));
                    i
                };
                let sidx = if cfg.share_stages {
                    match by_ms.get(&(tenant, sp.microservice)) {
                        Some(&i) => {
                            // shared stage: take the conservative plan across
                            // apps so neither app's SLO is jeopardized
                            let st = &mut stages[i];
                            st.batch_size = st.batch_size.min(batch);
                            st.response_latency = st.response_latency.min(sp.response_latency);
                            st.slack = st.slack.min(sp.slack);
                            i
                        }
                        None => {
                            let i = push_stage(&mut stages);
                            by_ms.insert((tenant, sp.microservice), i);
                            i
                        }
                    }
                } else {
                    push_stage(&mut stages)
                };
                stage_at.push(sidx);
            }
            // remaining mean work from each position (for LSF)
            let n = plan.num_stages();
            let overhead = spec.transition_overhead();
            let mut remaining = vec![SimDuration::ZERO; n];
            let mut acc = SimDuration::ZERO;
            for pos in (0..n).rev() {
                acc += plan.stage(pos).exec_time;
                if pos + 1 < n {
                    acc += overhead;
                }
                remaining[pos] = acc;
            }
            app_table.insert(
                (tenant, app),
                AppRuntime {
                    plan,
                    stage_at,
                    remaining_work: remaining,
                    transition_overhead: overhead,
                },
            );
        }
    }
    (stages, app_table)
}

/// Builds the window-max rate series the paper's predictor trains on
/// (§4.5): 1-second arrival cells aggregated into `window`-second maxima.
pub fn window_max_series(arrivals: &[SimTime], window_secs: u64) -> Vec<f64> {
    assert!(window_secs > 0, "window must be positive");
    if arrivals.is_empty() {
        return Vec::new();
    }
    let horizon = arrivals
        .iter()
        .map(|a| a.as_secs_f64() as usize)
        .max()
        .expect("non-empty")
        + 1;
    let mut cells = vec![0u32; horizon];
    for a in arrivals {
        cells[a.as_secs_f64() as usize] += 1;
    }
    cells
        .chunks(window_secs as usize)
        .map(|w| w.iter().copied().max().unwrap_or(0) as f64)
        .collect()
}
