//! The simulation driver: the discrete-event loop and the policy hook
//! call sites.
//!
//! One [`Simulation`] executes one [`JobStream`] under one resource
//! manager and produces a [`SimResult`]. The flow mirrors the prototype
//! (§5.1): jobs arrive, are decomposed into per-stage tasks, wait in
//! per-stage global queues, get bound to container free slots by the
//! scheduling policies, and execute sequentially per container.
//!
//! The driver is *mechanism only*: every scaling decision is made by the
//! [`ResourceManager`] policy object (built from the config's
//! [`RmConfig`](fifer_core::rm::RmConfig) through the
//! [`build_rm`](fifer_core::rm::RmConfig::build_rm) registry, or injected
//! via [`Simulation::with_resource_manager`]). At each hook point the
//! driver snapshots read-only
//! [`ClusterView`](fifer_core::policy::ClusterView)/[`StageView`] state,
//! collects the policy's typed [`Decision`]s, and applies them through the
//! mechanism modules:
//!
//! * `dispatcher` — task-to-slot binding (and the `on_queue_blocked`
//!   consultation),
//! * `lifecycle` — spawn/evict/reclaim/kill and the warm-pool floor,
//! * `accounting` — view snapshots, stage setup, result assembly,
//! * [`crate::trace`] — the structured decision trace.
//!
//! Scaling runs on two timers — a fast reactive check (Algorithm 1 a/b)
//! and the 10-second monitoring tick that drives proactive provisioning
//! (Algorithm 1 e), idle reclamation and energy sampling.

use crate::accounting::{build_stages, container_view, AppRuntime, JobWindow};
use crate::audit::AuditLog;
use crate::cluster::Cluster;
use crate::config::{
    container_alloc, SimConfig, CONTAINER_CPU, CONTAINER_MEM_GB, MONITOR_INTERVAL,
    NODE_POWEROFF_TIMEOUT, REACTIVE_INTERVAL,
};
use crate::container::ContainerTable;
use crate::energy::{EnergyMeter, PowerModel};
use crate::engine::{Event, EventQueue};
use crate::fault::FaultKind;
use crate::results::SimResult;
use crate::stage::{IdSet, StageRuntime, StageTask};
use crate::stats_store::{StatsStore, StoreOp};
use crate::trace::{Recorder, SimEvent, SimTrace};
use fifer_core::policy::{ContainerView, Decision, DecisionCause, ResourceManager, StageView};
use fifer_metrics::{RecordLog, RequestRecord, SimDuration, SimTime, SloAccountant, TimeSeries};
use fifer_predict::WindowSampler;
use fifer_workloads::{JobStream, Microservice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use crate::accounting::window_max_series;

/// One simulation run in progress.
pub struct Simulation<'a> {
    pub(crate) cfg: SimConfig,
    pub(crate) stream: &'a JobStream,
    pub(crate) queue: EventQueue<'a>,
    pub(crate) rng: StdRng,
    /// Separate RNG for fault draws, so the workload's stochastic path
    /// (exec jitter, early exits) is bit-identical with and without an
    /// active fault plan. Never drawn from when the plan is inactive.
    pub(crate) fault_rng: StdRng,
    pub(crate) cluster: Cluster,
    /// The live containers by id; a dead one leaves at once.
    pub(crate) containers: ContainerTable,
    pub(crate) stages: Vec<StageRuntime>,
    /// Static mix share per stage (for fixed-pool sizing views).
    pub(crate) mix_share: Vec<f64>,
    /// Static per-(tenant, app) routing, indexed by
    /// [`app_index`](crate::accounting::app_index).
    pub(crate) apps: Vec<Option<AppRuntime>>,
    /// Live jobs by stream index (arrived, not yet completed or dropped).
    pub(crate) jobs: JobWindow,
    /// The policy object whose decision hooks drive all scaling.
    pub(crate) rm: Box<dyn ResourceManager>,
    /// Per-node set of microservice images already pulled (layer cache).
    pub(crate) image_cache: Vec<std::collections::BTreeSet<Microservice>>,
    pub(crate) sampler: WindowSampler,
    pub(crate) meter: EnergyMeter,
    pub(crate) store: StatsStore,
    /// Structured decision trace: a ring, a stream, both or neither.
    pub(crate) trace: Recorder<'a>,
    /// Reusable decision buffer for policy hooks (avoids per-event allocs).
    decisions: Vec<Decision>,
    /// Reusable stage-view buffer for the tick hooks.
    stage_views: Vec<StageView>,
    // progress + metrics
    pub(crate) jobs_done: usize,
    pub(crate) jobs_arrived: u64,
    pub(crate) blocking_cold_starts: u64,
    pub(crate) failed_spawns: u64,
    pub(crate) live_series: TimeSeries,
    pub(crate) spawn_series: TimeSeries,
    pub(crate) nodes_series: TimeSeries,
    pub(crate) queue_series: TimeSeries,
    pub(crate) slo: SloAccountant,
    pub(crate) slo_whole_run: SloAccountant,
    pub(crate) records: RecordLog,
    pub(crate) last_completion: SimTime,
    /// Stages with (possibly) pending tasks since their last reactive
    /// check; the reactive tick visits only these, in index order, so idle
    /// stages cost nothing.
    pub(crate) dirty_stages: IdSet,
    /// Tasks currently pending across all stage queues (global backlog).
    pub(crate) pending_tasks: usize,
    /// High-water mark of `pending_tasks`.
    pub(crate) peak_queue_depth: u64,
    /// Events drained from the event queue.
    pub(crate) events_processed: u64,
    // fault injection
    /// Containers killed by injected faults.
    pub(crate) container_failures: u64,
    /// Orphaned tasks bounced back into global queues.
    pub(crate) tasks_requeued: u64,
    /// Jobs abandoned after the retry budget ran out.
    pub(crate) jobs_dropped: u64,
    /// Node outages that fired.
    pub(crate) node_outages: u64,
    /// Per-node count of outage windows currently covering the node, so
    /// overlapping windows nest correctly (the node is down while > 0).
    pub(crate) node_down_depth: Vec<u32>,
    /// Jobs whose next-stage enqueue is in flight on the event queue
    /// (chain-transition overhead) — the auditor's conservation ledger
    /// needs to know they are accounted for.
    pub(crate) in_transition: usize,
    // harvesting
    /// Live harvest leases (borrower → lender parts).
    pub(crate) ledger: crate::harvest::HarvestLedger,
    /// Containers spawned on lease backing instead of primary allocation.
    pub(crate) harvest_spawns: u64,
    /// Harvest leases opened.
    pub(crate) leases_created: u64,
    /// Harvest leases fully dissolved or reclaimed.
    pub(crate) leases_ended: u64,
    /// Individual lease parts converted back to primary allocation.
    pub(crate) lease_parts_reclaimed: u64,
    /// Borrowers killed because a lender needed its headroom back.
    pub(crate) containers_preempted: u64,
    /// Tasks bounced back to their stage queue by borrower preemption.
    pub(crate) tasks_preempted: u64,
    /// Warm-idle containers downsized in place by the right-sizer.
    pub(crate) containers_rightsized: u64,
    /// The invariant auditor's log (inert unless `cfg.audit`).
    pub(crate) audit: AuditLog,
}

impl<'a> Simulation<'a> {
    /// Prepares a run of `stream` under `cfg`, building the resource
    /// manager from the config through the policy registry.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: SimConfig, stream: &'a JobStream) -> Self {
        let rm = cfg.rm.build_rm(cfg.seed, &cfg.pretrain_series);
        Self::with_resource_manager(cfg, stream, rm)
    }

    /// [`new`](Self::new) with a model-checkpoint cache: a neural
    /// predictor whose (kind, seed, pretrain series) key hits `cache`
    /// warm-starts from the stored checkpoint instead of pretraining —
    /// bit-identical forecasts, none of the training wall. Returns how
    /// the predictor was served alongside the prepared run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new_served(
        cfg: SimConfig,
        stream: &'a JobStream,
        cache: Option<&fifer_predict::ModelCache>,
    ) -> (Self, fifer_core::WarmStart) {
        let (rm, warm) = cfg
            .rm
            .build_rm_served(cfg.seed, &cfg.pretrain_series, cache);
        (Self::with_resource_manager(cfg, stream, rm), warm)
    }

    /// Prepares a run driven by a caller-supplied policy object instead of
    /// the registry-built one — the extension point for custom (sixth,
    /// seventh, …) resource managers. `cfg.rm` still parameterizes the
    /// mechanism (batching plan, scheduling, selection, placement).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_resource_manager(
        cfg: SimConfig,
        stream: &'a JobStream,
        rm: Box<dyn ResourceManager>,
    ) -> Self {
        cfg.validate();
        let cluster = Cluster::new(
            cfg.cluster.nodes,
            cfg.cluster.cores_per_node,
            cfg.cluster.mem_per_node_gb,
            CONTAINER_CPU,
            CONTAINER_MEM_GB,
        );
        let meter = EnergyMeter::new(
            PowerModel::paper_default(NODE_POWEROFF_TIMEOUT),
            CONTAINER_CPU,
        );
        let (stages, apps) = build_stages(&cfg, stream.mix().applications());
        let mix_share = stages
            .iter()
            .map(|s| stream.mix().stage_share(s.microservice))
            .collect();
        let slo = SloAccountant::new(cfg.slo);
        let slo_whole_run = SloAccountant::new(cfg.slo);
        let trace = Recorder::new(cfg.trace.capacity);
        Simulation {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xF1FE_F1FE),
            fault_rng: StdRng::seed_from_u64(cfg.faults.seed ^ cfg.seed ^ 0xFA17_FA17),
            queue: EventQueue::new(),
            cluster,
            containers: ContainerTable::default(),
            stages,
            mix_share,
            apps,
            jobs: JobWindow::default(),
            rm,
            image_cache: vec![std::collections::BTreeSet::new(); cfg.cluster.nodes],
            sampler: WindowSampler::paper_default(),
            meter,
            store: StatsStore::paper_default(),
            trace,
            decisions: Vec::new(),
            stage_views: Vec::new(),
            jobs_done: 0,
            jobs_arrived: 0,
            blocking_cold_starts: 0,
            failed_spawns: 0,
            live_series: TimeSeries::new(),
            spawn_series: TimeSeries::new(),
            nodes_series: TimeSeries::new(),
            queue_series: TimeSeries::new(),
            slo,
            slo_whole_run,
            records: RecordLog::default(),
            last_completion: SimTime::ZERO,
            dirty_stages: IdSet::new(),
            pending_tasks: 0,
            peak_queue_depth: 0,
            events_processed: 0,
            container_failures: 0,
            tasks_requeued: 0,
            jobs_dropped: 0,
            node_outages: 0,
            node_down_depth: vec![0; cfg.cluster.nodes],
            in_transition: 0,
            ledger: crate::harvest::HarvestLedger::default(),
            harvest_spawns: 0,
            leases_created: 0,
            leases_ended: 0,
            lease_parts_reclaimed: 0,
            containers_preempted: 0,
            tasks_preempted: 0,
            containers_rightsized: 0,
            audit: AuditLog::default(),
            cfg,
            stream,
        }
    }

    /// Streams every decision of the run to `w`, one JSON line each,
    /// written when the mechanism applies it: the lines
    /// [`SimTrace::write_jsonl`] exports for a ring that never fills. The
    /// run flushes `w` when it ends. The first write error stops the
    /// stream and lands in the [`stream_error`](SimTrace::stream_error)
    /// of the trace [`run_with_trace`](Self::run_with_trace) returns.
    pub fn stream_decisions(&mut self, w: impl std::io::Write + 'a) {
        self.trace.stream_to(Box::new(w));
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(self) -> SimResult {
        self.run_with_trace().0
    }

    /// Runs the simulation and also returns the decision trace's ring
    /// (empty unless `cfg.trace.capacity > 0`) and the outcome of its
    /// stream.
    pub fn run_with_trace(mut self) -> (SimResult, SimTrace) {
        // startup hook: SBatch provisions its fixed pool up front (§5.3)
        let mut views = std::mem::take(&mut self.stage_views);
        let mut out = std::mem::take(&mut self.decisions);
        views.clear();
        for sidx in 0..self.stages.len() {
            views.push(self.stage_view(sidx, SimDuration::ZERO));
        }
        {
            let cv = self.cluster_scalars(SimTime::ZERO, &views);
            self.rm.on_start(&cv, &mut out);
        }
        self.apply(&mut out, SimTime::ZERO, DecisionCause::Startup);
        self.stage_views = views;
        self.decisions = out;

        // arrivals are a static, time-ordered run: the queue decodes them
        // from the stream in order (O(1) per event) instead of heaping or
        // copying the stream. Attached here, after the startup decisions
        // and before the first ticks, arrival `i` takes the sequence
        // number it would take if scheduled here one by one.
        self.queue.attach_arrivals(self.stream);
        if !self.stream.is_empty() {
            if self.rm.wants_reactive_ticks() {
                self.queue
                    .schedule(SimTime::ZERO + REACTIVE_INTERVAL, Event::ReactiveTick);
            }
            self.queue
                .schedule(SimTime::ZERO + MONITOR_INTERVAL, Event::MonitorTick);
            // fault plan: node outages are first-class engine events, fixed
            // at configuration time (deterministic by construction)
            for o in &self.cfg.faults.outages {
                self.queue
                    .schedule(o.down_at, Event::NodeDown { node: o.node });
                self.queue.schedule(o.up_at, Event::NodeUp { node: o.node });
            }
        }
        while let Some((now, event)) = self.queue.pop() {
            self.events_processed += 1;
            match event {
                Event::JobArrival { job } => self.on_arrival(job, now),
                Event::StageEnqueue { job } => self.on_stage_enqueue(job, now),
                Event::TaskFinish { container } => self.on_task_finish(container, now),
                Event::ContainerWarm { container } => self.on_warm(container, now),
                Event::ReactiveTick => self.on_reactive_tick(now),
                Event::MonitorTick => self.on_monitor_tick(now),
                Event::ContainerCrash { container, fault } => {
                    self.on_container_crash(container, fault, now)
                }
                Event::NodeDown { node } => self.on_node_down(node, now),
                Event::NodeUp { node } => self.on_node_up(node, now),
            }
            if self.cfg.audit {
                self.audit_commit(now, &event);
            }
        }
        if self.cfg.audit {
            self.audit_final();
        }
        let trace = std::mem::take(&mut self.trace).finish();
        (self.finish(), trace)
    }

    // ---- decision application -------------------------------------------

    /// Applies a hook's decisions in order, then clears the buffer. Spawn
    /// batches stop early when the cluster is full (the next decision still
    /// runs — a different stage's spawn or a dispatch may still succeed).
    fn apply(&mut self, decisions: &mut Vec<Decision>, now: SimTime, cause: DecisionCause) {
        for &decision in decisions.iter() {
            match decision {
                Decision::SpawnContainer { stage, count } => {
                    for _ in 0..count {
                        if self.spawn_container(stage, now, cause).is_none() {
                            break;
                        }
                    }
                }
                Decision::KillContainer { container } => {
                    self.apply_kill(container, now, cause);
                }
                Decision::DispatchBatch { stage } => {
                    self.dispatch(stage, now, cause);
                }
                Decision::Harvest { stage, count } => {
                    for _ in 0..count {
                        // lease-backed when possible, primary otherwise —
                        // `None` only when even the fallback found no node
                        if self.spawn_harvested(stage, now, cause).is_none() {
                            break;
                        }
                    }
                }
                Decision::Resize { stage, alloc } => {
                    // the right-sizer only shrinks: requests are clamped to
                    // the configured container shape
                    let clamped = alloc.min(container_alloc());
                    self.stages[stage].spawn_alloc = Some(clamped);
                    // downsize the stage's warm-idle fleet in place — a
                    // stable fleet rarely respawns, so resizing only future
                    // spawns would leave the bulk of the waste untouched.
                    // Each container keeps at least its own busy peak (so
                    // `usage ≤ allocation` can never break) and lease
                    // participants are left alone (their headroom or
                    // backing is already committed).
                    let mut shrunk = 0usize;
                    for i in 0..self.stages[stage].containers.len() {
                        let cid = self.stages[stage].containers[i];
                        let c = &mut self.containers[cid];
                        if !c.is_idle() || !c.lent.is_zero() || !c.borrowed.is_zero() {
                            continue;
                        }
                        let target = clamped.max(c.usage.busy);
                        if target == c.alloc || !target.fits_within(c.alloc) {
                            continue;
                        }
                        let delta = c.alloc - target;
                        c.alloc = target;
                        let node = c.node;
                        self.cluster.shrink(node, delta, now);
                        self.stages[stage].allocated -= delta;
                        shrunk += 1;
                        self.containers_rightsized += 1;
                    }
                    self.trace.record(|| SimEvent::Resize {
                        at: now,
                        stage,
                        cpu_milli: clamped.cpu_milli,
                        mem_mb: clamped.mem_mb,
                        shrunk,
                    });
                }
                Decision::Requeue { .. } | Decision::Noop => {}
            }
        }
        decisions.clear();
    }

    // ---- event handlers -------------------------------------------------

    fn on_arrival(&mut self, job: usize, now: SimTime) {
        self.jobs_arrived += 1;
        self.jobs.open(job, self.queue.arrived());
        self.sampler.record_arrival(now);
        self.enqueue_current_stage(job, now);
    }

    fn on_stage_enqueue(&mut self, job: usize, now: SimTime) {
        self.in_transition -= 1;
        self.enqueue_current_stage(job, now);
    }

    fn enqueue_current_stage(&mut self, job: usize, now: SimTime) {
        let app = self.route(job);
        let pos = self.jobs[job].stage_pos;
        let sidx = app.stage_at[pos];
        let task = StageTask {
            job,
            enqueued: now,
            job_deadline: self.request(job).arrival + self.cfg.slo,
            remaining_work: app.remaining_work[pos],
            retries: 0,
        };
        self.store.access(StoreOp::JobStats);
        self.stages[sidx].enqueue(task);
        self.pending_tasks += 1;
        self.peak_queue_depth = self.peak_queue_depth.max(self.pending_tasks as u64);
        self.dirty_stages.insert(sidx as u64);

        let mut out = std::mem::take(&mut self.decisions);
        {
            let sv = self.stage_view(sidx, SimDuration::ZERO);
            let cv = self.cluster_scalars(now, &[]);
            self.rm.on_arrival(&cv, &sv, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::Arrival);
        self.decisions = out;
    }

    fn on_task_finish(&mut self, cid: u64, now: SimTime) {
        let Some(c) = self.containers.get_mut(cid) else {
            // stale: a fault killed the container (and re-enqueued its
            // tasks) after this finish was scheduled
            return;
        };
        let sidx = c.stage;
        let node = c.node;
        let task = c.finish_executing(now);
        let free_after = c.free_slots();
        // nothing below binds to this container before `try_start`, so an
        // empty local queue means there is nothing to start: skip that
        // second table lookup
        let queued = !c.local_queue.is_empty();
        // busy → idle: the usage track steps back down to the idle
        // footprint (`try_start` below re-adds it if another task starts)
        let delta = c.usage.busy - c.usage.idle;
        self.stages[sidx].update_free(cid, free_after - 1, free_after);
        self.stages[sidx].executing -= 1;
        self.cluster.set_executing(node, -1);
        self.stages[sidx].tasks_executed += 1;
        self.cluster.sub_usage(node, delta, now);
        self.stages[sidx].used -= delta;
        self.store.access(StoreOp::JobStats);

        // advance the job along its chain
        let request = self.request(task.job);
        let (num_stages, overhead) = {
            let route = self.route(task.job);
            (route.plan.num_stages(), route.transition_overhead)
        };
        let j = &mut self.jobs[task.job];
        j.stage_pos += 1;
        // dynamic-chain extension (§8): a job may leave its chain early
        // after any non-final stage (e.g. no face detected → skip
        // recognition); 0.0 reproduces the paper's linear chains
        if j.stage_pos < num_stages
            && self.cfg.early_exit_prob > 0.0
            && self.rng.gen_bool(self.cfg.early_exit_prob)
        {
            j.stage_pos = num_stages;
        }
        if j.stage_pos >= num_stages {
            let breakdown = j.breakdown;
            self.jobs.finish(task.job);
            let submitted = request.arrival;
            let warmup_job = submitted < SimTime::ZERO + self.cfg.warmup;
            let record = RequestRecord {
                job_id: task.job as u64,
                app: request.app.name(),
                submitted,
                completed: now,
                breakdown,
                slo_violated: now.saturating_since(submitted) > self.cfg.slo,
            };
            self.slo_whole_run.observe_record(&record);
            if !warmup_job {
                self.slo.observe_record(&record);
                self.records.push(&record);
            }
            self.jobs_done += 1;
            self.last_completion = now;
            if self.workload_drained() {
                // final energy + utilization rectangles end with the workload
                self.cluster.accrue(now);
                self.meter.sample(&self.cluster, now);
            }
        } else {
            // chain transition over the event bus (§2.1); the overhead is
            // part of the chain's runtime, not queuing
            j.breakdown.exec += overhead;
            self.in_transition += 1;
            self.queue
                .schedule(now + overhead, Event::StageEnqueue { job: task.job });
        }

        // keep the container busy: its local queue first (mechanism), then
        // let the policy decide what to do with the freed capacity
        if queued {
            self.try_start(cid, None, now);
        }
        let mut out = std::mem::take(&mut self.decisions);
        {
            let sv = self.stage_view(sidx, SimDuration::ZERO);
            let cv = self.cluster_scalars(now, &[]);
            self.rm.on_task_finish(&cv, &sv, cid, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::TaskFinish);
        self.decisions = out;
    }

    fn on_warm(&mut self, cid: u64, now: SimTime) {
        let Some(c) = self.containers.get_mut(cid) else {
            return; // stale: the container died while cold-starting
        };
        let sidx = c.stage;
        c.warm_up(now);
        self.try_start(cid, None, now);
        self.dispatch(sidx, now, DecisionCause::ContainerWarm);
    }

    // ---- fault handlers -------------------------------------------------

    fn on_container_crash(&mut self, cid: u64, fault: FaultKind, now: SimTime) {
        let Some(c) = self.containers.get(cid) else {
            // stale: the policy reclaimed it, or an earlier fault (e.g. a
            // node outage) got there first
            return;
        };
        let sidx = c.stage;
        self.crash_container(cid, now, fault);
        // the mechanism has cleaned up; the policy decides how to replace
        // the lost capacity (default: one-for-one respawn + re-drain)
        let mut out = std::mem::take(&mut self.decisions);
        {
            let sv = self.stage_view(sidx, SimDuration::ZERO);
            let cv = self.cluster_scalars(now, &[]);
            self.rm.on_container_failed(&cv, &sv, cid, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::ContainerFailure);
        self.decisions = out;
    }

    fn on_node_down(&mut self, node: usize, now: SimTime) {
        self.node_down_depth[node] += 1;
        if self.node_down_depth[node] > 1 {
            return; // overlapping outage windows: the node is already down
        }
        // snapshot the victims before killing them, in container-id order
        // (the order `on_node_down` documents)
        let mut lost_views: Vec<ContainerView> = self
            .live_containers()
            .filter(|c| c.node == node)
            .map(container_view)
            .collect();
        lost_views.sort_unstable_by_key(|v| v.container);
        for cid in lost_views.iter().map(|v| v.container) {
            if self.containers.get(cid).is_none() {
                // a borrower on this node was already preempted by an
                // earlier victim's reclamation chain
                continue;
            }
            self.crash_container(cid, now, FaultKind::NodeOutage);
        }
        self.cluster.set_node_up(node, false);
        self.node_outages += 1;
        self.trace.record(|| SimEvent::NodeDown {
            at: now,
            node,
            lost: lost_views.len(),
        });
        let mut out = std::mem::take(&mut self.decisions);
        {
            let cv = self.cluster_scalars(now, &[]);
            self.rm.on_node_down(&cv, node, &lost_views, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::NodeFailure);
        self.decisions = out;
    }

    fn on_node_up(&mut self, node: usize, now: SimTime) {
        self.node_down_depth[node] -= 1;
        if self.node_down_depth[node] > 0 {
            return; // a longer overlapping window still holds it down
        }
        self.cluster.set_node_up(node, true);
        self.trace.record(|| SimEvent::NodeUp { at: now, node });
        // capacity is back; blocked stages retry via the monitor tick's
        // dispatch pass and the fault-recovery valve
    }

    fn on_reactive_tick(&mut self, now: SimTime) {
        // only stages that enqueued work since their backlog last drained
        // can need reactive scaling: Algorithm 1 a/b triggers on pending
        // tasks, and a stage with an empty global queue is skipped here.
        // Visiting just the dirty set makes the tick O(active stages);
        // drained stages are dropped from the set.
        let mut dirty = std::mem::take(&mut self.dirty_stages);
        let mut views = std::mem::take(&mut self.stage_views);
        views.clear();
        dirty.retain(|sidx| {
            let sidx = sidx as usize;
            if self.stages[sidx].pending() == 0 {
                return false;
            }
            // measure the recent worst queuing delay (Algorithm 1 a); this
            // also prunes the stage's sliding window, so it only happens on
            // reactive ticks — exactly as often as before the policy split
            let observed = self.stages[sidx].observed_delay(now, SimDuration::from_secs(10));
            views.push(self.stage_view(sidx, observed));
            true
        });
        self.dirty_stages = dirty;
        let mut out = std::mem::take(&mut self.decisions);
        {
            let cv = self.cluster_scalars(now, &views);
            self.rm.on_reactive_tick(&cv, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::ReactiveTick);
        self.stage_views = views;
        self.decisions = out;

        if !self.workload_drained() {
            self.queue
                .schedule(now + REACTIVE_INTERVAL, Event::ReactiveTick);
        }
    }

    fn on_monitor_tick(&mut self, now: SimTime) {
        if self.workload_drained() {
            // the workload ended before this tick fired: the energy meter
            // already closed its last rectangle at the final completion
            return;
        }
        self.cluster.accrue(now);
        self.meter.sample(&self.cluster, now);
        self.nodes_series
            .push(now, self.cluster.active_nodes() as f64);
        self.queue_series.push(now, self.pending_tasks as f64);

        // the load monitor's rate signal is only read (one modeled stats-
        // store query, §6.1.5) for policies that consume it
        let global_rate = if self.rm.observes_load() {
            self.store.access(StoreOp::ArrivalQuery);
            self.sampler.global_max_rate(now)
        } else {
            0.0
        };

        // monitor hook: predictor updates + proactive provisioning (§4.5)
        let mut views = std::mem::take(&mut self.stage_views);
        let mut out = std::mem::take(&mut self.decisions);
        views.clear();
        for sidx in 0..self.stages.len() {
            views.push(self.stage_view(sidx, SimDuration::ZERO));
        }
        {
            let mut cv = self.cluster_scalars(now, &views);
            cv.global_rate = global_rate;
            self.rm.on_monitor_tick(&cv, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::MonitorTick);

        // usage telemetry (same views): the right-sizer and other
        // usage-aware policies observe per-stage allocation vs usage. A
        // default no-op for the paper's five managers.
        {
            let mut cv = self.cluster_scalars(now, &views);
            cv.global_rate = global_rate;
            self.rm.on_usage_sample(&cv, &mut out);
        }
        self.apply(&mut out, now, DecisionCause::UsageSample);

        // idle deadlines (§4.4.1): snapshot the expired containers and let
        // the policy decide which die (fixed pools keep theirs). Containers
        // spawned by the monitor hook above are still cold, never idle.
        let expired = self.expired_idle_views(now);
        if !expired.is_empty() {
            {
                let cv = self.cluster_scalars(now, &[]);
                self.rm.on_idle_deadline(&cv, &expired, &mut out);
            }
            self.apply(&mut out, now, DecisionCause::IdleDeadline);
        }
        self.stage_views = views;
        self.decisions = out;

        // pre-warmed pool floor (§2.2.1), mechanism-side
        self.top_up_warm_pool(now);

        // fault-recovery valve (mechanism-side, only under an active fault
        // plan): a stage can lose its whole pool to faults while its
        // replacement spawns fail (cluster full, nodes down). No container
        // event will ever fire for it again, and a fixed-pool policy never
        // rescales — so the monitor tick restores a minimum of one
        // container wherever tasks are stranded.
        if self.cfg.faults.is_active() {
            for sidx in 0..self.stages.len() {
                if self.stages[sidx].pending() > 0 && self.stages[sidx].containers.is_empty() {
                    self.spawn_container(sidx, now, DecisionCause::FaultRecovery);
                }
            }
        }

        // retry stages whose earlier spawn attempts failed (cluster full):
        // idle reclamation above may have freed capacity, and no container
        // event will fire for a stage that has no containers
        for sidx in 0..self.stages.len() {
            if self.stages[sidx].pending() > 0 {
                self.dispatch(sidx, now, DecisionCause::MonitorTick);
            }
        }

        if !self.workload_drained() {
            self.queue
                .schedule(now + MONITOR_INTERVAL, Event::MonitorTick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::rm::RmKind;
    use fifer_workloads::{PoissonTrace, WorkloadMix};

    fn small_stream(rate: f64, secs: u64, seed: u64) -> JobStream {
        JobStream::generate(
            &PoissonTrace::new(rate),
            WorkloadMix::Medium,
            SimDuration::from_secs(secs),
            seed,
        )
    }

    fn run(kind: RmKind, rate: f64, secs: u64) -> SimResult {
        let stream = small_stream(rate, secs, 7);
        let cfg = SimConfig::prototype(kind.config(), rate);
        Simulation::new(cfg, &stream).run()
    }

    #[test]
    fn every_job_completes() {
        for kind in RmKind::ALL {
            let stream = small_stream(5.0, 30, 3);
            let cfg = SimConfig::prototype(kind.config(), 5.0);
            let result = Simulation::new(cfg, &stream).run();
            assert_eq!(
                result.records.len(),
                stream.len(),
                "{kind}: all jobs must complete"
            );
        }
    }

    #[test]
    fn breakdown_matches_response_latency() {
        let result = run(RmKind::Fifer, 5.0, 30);
        for r in &result.records {
            let total = r.breakdown.total();
            let resp = r.response_latency();
            assert_eq!(
                total, resp,
                "job {}: breakdown must account for every microsecond",
                r.job_id
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(RmKind::Fifer, 4.0, 20).headline();
        let b = run(RmKind::Fifer, 4.0, 20).headline();
        assert_eq!(a, b);
    }

    #[test]
    fn bline_spawns_more_containers_than_fifer() {
        let bline = run(RmKind::Bline, 8.0, 60);
        let fifer = run(RmKind::Fifer, 8.0, 60);
        assert!(
            fifer.total_spawns < bline.total_spawns,
            "Fifer ({}) must spawn fewer than Bline ({})",
            fifer.total_spawns,
            bline.total_spawns
        );
    }

    #[test]
    fn batching_rm_queues_requests() {
        let fifer = run(RmKind::Fifer, 8.0, 60);
        let bline = run(RmKind::Bline, 8.0, 60);
        let fq: f64 = fifer.queuing_times_ms().iter().sum();
        let bq: f64 = bline.queuing_times_ms().iter().sum();
        assert!(
            fq > bq,
            "batching must induce queuing (Fifer {fq} vs Bline {bq})"
        );
    }

    #[test]
    fn sbatch_container_count_is_fixed() {
        let result = run(RmKind::SBatch, 6.0, 40);
        // fixed pool: spawned exactly once at t=0, never scaled
        let spawn_points = result.cumulative_spawns.points();
        assert!(!spawn_points.is_empty());
        assert!(
            spawn_points.iter().all(|&(t, _)| t == SimTime::ZERO),
            "SBatch must only spawn at t=0"
        );
    }

    #[test]
    fn energy_is_positive_and_bline_highest() {
        let bline = run(RmKind::Bline, 8.0, 60);
        let fifer = run(RmKind::Fifer, 8.0, 60);
        assert!(bline.energy_joules > 0.0);
        assert!(fifer.energy_joules > 0.0);
        assert!(
            fifer.energy_joules <= bline.energy_joules,
            "consolidation must not cost more energy (Fifer {} vs Bline {})",
            fifer.energy_joules,
            bline.energy_joules
        );
    }

    #[test]
    fn stage_stats_cover_all_chain_microservices() {
        let result = run(RmKind::Fifer, 5.0, 30);
        // Medium mix = IPA + IMG → stages ASR, NLP, QA, IMC
        for ms in [
            Microservice::Asr,
            Microservice::Nlp,
            Microservice::Qa,
            Microservice::Imc,
        ] {
            let stats = result
                .stages
                .get(&ms)
                .unwrap_or_else(|| panic!("{ms} missing"));
            assert!(stats.arrivals > 0, "{ms}: tasks must arrive");
            assert_eq!(
                stats.arrivals, stats.tasks_executed,
                "{ms}: every arrival must execute"
            );
        }
    }

    #[test]
    fn window_max_series_shapes() {
        let arrivals = vec![
            SimTime::from_millis(100),
            SimTime::from_millis(200),
            SimTime::from_secs(1),
            SimTime::from_secs(7),
        ];
        let series = window_max_series(&arrivals, 5);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], 2.0, "busiest second in window 0 has 2 arrivals");
        assert_eq!(series[1], 1.0);
        assert!(window_max_series(&[], 5).is_empty());
    }

    #[test]
    fn warm_pool_floor_keeps_idle_containers() {
        let stream = small_stream(3.0, 60, 5);
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 3.0);
        cfg.min_warm_pool = 2;
        cfg.idle_timeout = SimDuration::from_secs(15);
        let pooled = Simulation::new(cfg, &stream).run();

        let mut cfg0 = SimConfig::prototype(RmKind::Bline.config(), 3.0);
        cfg0.idle_timeout = SimDuration::from_secs(15);
        let bare = Simulation::new(cfg0, &stream).run();

        // the Medium mix has 4 stages → the floor holds ≥8 containers at
        // the end, whereas the bare run reclaims down toward zero
        let end_pool = pooled
            .live_containers
            .points()
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let end_bare = bare
            .live_containers
            .points()
            .last()
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        assert!(
            end_pool >= 8.0,
            "warm pool must hold the floor (got {end_pool})"
        );
        assert!(end_pool > end_bare, "pool {end_pool} vs bare {end_bare}");
        // the pool absorbs cold starts: fewer requests block on spawns
        assert!(pooled.blocking_cold_starts <= bare.blocking_cold_starts);
    }

    #[test]
    fn tenants_replicate_stage_pools() {
        let stream = small_stream(5.0, 40, 7);
        let single = {
            let cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
            Simulation::new(cfg, &stream).run()
        };
        let multi = {
            let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
            cfg.tenants = 3;
            Simulation::new(cfg, &stream).run()
        };
        assert_eq!(multi.records.len(), stream.len());
        // isolation cost: per-tenant pools need more containers than a
        // single shared deployment at the same total load
        assert!(
            multi.total_spawns > single.total_spawns,
            "3 tenants ({}) must out-spawn 1 tenant ({})",
            multi.total_spawns,
            single.total_spawns
        );
        // total work is unchanged; stats aggregate across tenants by ms
        let single_tasks: u64 = single.stages.values().map(|s| s.tasks_executed).sum();
        let multi_tasks: u64 = multi.stages.values().map(|s| s.tasks_executed).sum();
        assert_eq!(single_tasks, multi_tasks);
    }

    #[test]
    fn early_exit_shortens_chains() {
        let stream = small_stream(5.0, 30, 4);
        let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        cfg.early_exit_prob = 1.0; // every job exits after its first stage
        let result = Simulation::new(cfg, &stream).run();
        assert_eq!(result.records.len(), stream.len());
        let tasks: u64 = result.stages.values().map(|s| s.tasks_executed).sum();
        assert_eq!(
            tasks,
            stream.len() as u64,
            "with certain early exit only stage 1 runs"
        );

        let mut cfg0 = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        cfg0.early_exit_prob = 0.0;
        let full = Simulation::new(cfg0, &stream).run();
        let full_tasks: u64 = full.stages.values().map(|s| s.tasks_executed).sum();
        assert!(full_tasks > tasks, "linear chains must run every stage");
    }

    #[test]
    #[should_panic(expected = "early-exit probability")]
    fn invalid_early_exit_rejected() {
        let stream = small_stream(1.0, 5, 1);
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 1.0);
        cfg.early_exit_prob = 1.5;
        let _ = Simulation::new(cfg, &stream);
    }

    #[test]
    fn store_accounting_is_populated() {
        let result = run(RmKind::Fifer, 4.0, 20);
        assert!(result.store_reads > 0);
        assert!(result.store_writes > 0);
    }

    /// Determinism golden test: the same seed run twice must be
    /// bit-identical. Serialized JSON covers every record, series point and
    /// counter. (The indexed dispatch queue is checked against the
    /// linear-scan scheduler by `stage.rs`'s queue differential.)
    #[test]
    fn determinism_golden() {
        // Fifer exercises LSF + batching, Bline exercises FIFO + on-demand
        for kind in [RmKind::Fifer, RmKind::Bline] {
            let stream = small_stream(5.0, 30, 11);
            let mk = || {
                let cfg = SimConfig::prototype(kind.config(), 5.0);
                Simulation::new(cfg, &stream).run().to_json()
            };
            assert_eq!(mk(), mk(), "{kind}: same seed twice must be bit-identical");
        }
    }

    #[test]
    fn perf_counters_are_populated() {
        let r = run(RmKind::Fifer, 5.0, 30);
        assert!(r.events_processed > 0);
        assert!(r.peak_queue_depth >= 1);
        // the continuous high-water mark can never be below any
        // monitor-tick sample of the same quantity
        let tick_max = r
            .queue_depth
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(r.peak_queue_depth as f64 >= tick_max);
    }
}
