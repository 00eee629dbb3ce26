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
use fifer_workloads::{Application, JobRequest, Microservice};
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Index, IndexMut};

/// Per-job live state. Its tenant is its stream index modulo the tenant
/// count.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    /// The job as the stream holds it (application, submission time and
    /// input scale), copied in on arrival ([`Simulation::request`]).
    pub(crate) request: JobRequest,
    /// Index into the app's chain of the stage the job is currently at.
    pub(crate) stage_pos: usize,
    pub(crate) breakdown: LatencyBreakdown,
    /// The job completed, or was abandoned after a task exhausted the
    /// fault-retry budget (a dropped job produces no record and counts in
    /// `jobs_dropped`).
    pub(crate) finished: bool,
}

/// The live jobs, indexed by stream index: the states of jobs
/// `base..base + live.len()`. An arrival appends its job and finished
/// jobs leave from the front, so the window spans the oldest unfinished
/// job to the newest arrival — bounded by concurrency, not by the stream.
/// Jobs keep their stream index everywhere (tasks, events, queue keys,
/// the trace), which is why this is a window and not a recycled slab.
#[derive(Debug, Default)]
pub(crate) struct JobWindow {
    base: usize,
    live: VecDeque<JobState>,
}

impl JobWindow {
    /// Opens the state of `job`, which must be the stream's next arrival,
    /// with its `request`.
    pub(crate) fn open(&mut self, job: usize, request: JobRequest) {
        debug_assert_eq!(
            job,
            self.base + self.live.len(),
            "jobs arrive in stream order"
        );
        self.live.push_back(JobState {
            request,
            stage_pos: 0,
            breakdown: LatencyBreakdown::default(),
            finished: false,
        });
    }

    /// Marks `job` finished and retires the finished jobs at the front.
    pub(crate) fn finish(&mut self, job: usize) {
        self[job].finished = true;
        while self.live.front().is_some_and(|j| j.finished) {
            self.live.pop_front();
            self.base += 1;
        }
    }

    /// The oldest arrived job that has neither completed nor been dropped.
    pub(crate) fn oldest_unfinished(&self) -> Option<usize> {
        (!self.live.is_empty()).then_some(self.base)
    }
}

impl Index<usize> for JobWindow {
    type Output = JobState;

    fn index(&self, job: usize) -> &JobState {
        &self.live[job - self.base]
    }
}

impl IndexMut<usize> for JobWindow {
    fn index_mut(&mut self, job: usize) -> &mut JobState {
        &mut self.live[job - self.base]
    }
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

impl<'a> Simulation<'a> {
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
            container_alloc: self.cluster.container_alloc(),
            capacity: self.cluster.total_capacity(),
            allocated: self.cluster.total_allocated(),
            used: self.cluster.total_used(),
            harvested: self.cluster.total_harvested(),
            stages,
        }
    }

    /// The live containers, in the table's arbitrary dense order: a
    /// container leaves the table the moment it dies, so a scan costs
    /// O(live containers). Every caller is order-free — it sorts its
    /// result by id, or breaks ties by id.
    pub(crate) fn live_containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter()
    }

    /// Snapshots every container idle past the reclamation timeout, in
    /// container-id order (the order `on_idle_deadline` documents).
    pub(crate) fn expired_idle_views(&self, now: SimTime) -> Vec<ContainerView> {
        let timeout = self.cfg.idle_timeout;
        let mut expired: Vec<ContainerView> = self
            .live_containers()
            .filter(|c| c.is_idle() && now.saturating_since(c.last_used) >= timeout)
            .map(container_view)
            .collect();
        expired.sort_unstable_by_key(|v| v.container);
        expired
    }

    /// The request of `job`, a live job (its application, submission time
    /// and input scale), read from the job window.
    pub(crate) fn request(&self, job: usize) -> JobRequest {
        self.jobs[job].request
    }

    /// Static routing of `job`'s application within its tenant.
    pub(crate) fn route(&self, job: usize) -> &AppRuntime {
        let tenant = job % self.cfg.tenants;
        self.apps[app_index(tenant, self.request(job).app)]
            .as_ref()
            .expect("the stream's mix routes every job's application")
    }

    pub(crate) fn workload_drained(&self) -> bool {
        self.jobs_done + self.jobs_dropped as usize == self.stream.len()
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
            // ids follow spawn order, so the next id counts every spawn
            total_spawns: self.containers.next_id(),
            blocking_cold_starts: self.blocking_cold_starts,
            failed_spawns: self.failed_spawns,
            container_failures: self.container_failures,
            // a stage's `lost` counts the tasks its containers' faults
            // orphaned
            tasks_crashed: self.stages.iter().map(|s| s.lost).sum(),
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

/// The policy-facing snapshot of a container.
pub(crate) fn container_view(c: &Container) -> ContainerView {
    ContainerView {
        container: c.id,
        stage: c.stage,
        node: c.node,
        last_used: c.last_used,
    }
}

/// Index of `(tenant, app)` in the flat per-application routing table.
pub(crate) fn app_index(tenant: usize, app: Application) -> usize {
    tenant * Application::ALL.len() + app as usize
}

/// Builds the stage table and the per-app routing for a mix: entry
/// [`app_index`]`(tenant, app)` routes one of the mix's apps, the rest are
/// `None`.
pub(crate) fn build_stages(
    cfg: &crate::config::SimConfig,
    apps: [Application; 2],
) -> (Vec<StageRuntime>, Vec<Option<AppRuntime>>) {
    let policy = cfg.rm.batching.slack_policy();
    let mut stages: Vec<StageRuntime> = Vec::new();
    // stage sharing applies within a tenant only (§4.3 footnote)
    let mut by_ms: BTreeMap<(usize, Microservice), usize> = BTreeMap::new();
    let mut app_table = vec![None; cfg.tenants * Application::ALL.len()];

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
                let cold = sp
                    .microservice
                    .spec()
                    .cold_start_time(crate::config::IMAGE_PULL_MBPS);
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
            app_table[app_index(tenant, app)] = Some(AppRuntime {
                plan,
                stage_at,
                remaining_work: remaining,
                transition_overhead: overhead,
            });
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
