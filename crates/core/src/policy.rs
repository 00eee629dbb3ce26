//! The policy/mechanism boundary: resource-manager decision hooks.
//!
//! Every result in the paper's §6 is a function of the *policy* (scaling,
//! placement, dispatch, batching) applied to one cluster *mechanism*. This
//! module makes that boundary a hard one: a [`ResourceManager`] is a set of
//! decision hooks that consume read-only [`ClusterView`]/[`StageView`]
//! snapshots and emit typed [`Decision`]s; the simulator's mechanism
//! modules (`fifer-sim`) *apply* those decisions — spawn, kill, dispatch —
//! but never make them. Adding a sixth resource manager is a new struct
//! implementing this trait, not an edit to the event loop.
//!
//! The paper's five managers (§5.3) are four policy structs —
//! [`BlinePolicy`], [`SBatchPolicy`], [`RScalePolicy`] and
//! [`ProactivePolicy`] (BPred without batching, Fifer with) — and the two
//! extensions are [`HarvestPolicy`] and [`HybridHistPolicy`]; all are built
//! through the registry ([`RmConfig::build_rm`] / [`RmKind::build`]).
//!
//! # Hook protocol
//!
//! The driver invokes hooks at well-defined points of the event loop and
//! applies the returned decisions in order:
//!
//! * [`on_start`](ResourceManager::on_start) — once before the first event
//!   (SBatch provisions its fixed pool here, §5.3),
//! * [`on_arrival`](ResourceManager::on_arrival) — a task entered a
//!   stage's global queue (front-door arrival or chain transition),
//! * [`on_task_finish`](ResourceManager::on_task_finish) — a container
//!   completed a task,
//! * [`on_queue_blocked`](ResourceManager::on_queue_blocked) — the
//!   dispatcher found queued tasks but no free container slot; spawn
//!   ([`Decision::SpawnContainer`], AWS-style §2.2) or leave them queued
//!   for the scalers ([`Decision::Requeue`]),
//! * [`on_reactive_tick`](ResourceManager::on_reactive_tick) — the fast
//!   queue-delay check (Algorithm 1 a/b); only stages with pending work
//!   are in the view,
//! * [`on_monitor_tick`](ResourceManager::on_monitor_tick) — the slow
//!   monitoring tick (§4.5); proactive forecasting happens here,
//! * [`on_idle_deadline`](ResourceManager::on_idle_deadline) — containers
//!   idle past the configured timeout (§4.4.1); kill them or keep them.
//!
//! Views are immutable snapshots taken when the hook fires; decisions are
//! applied after the hook returns, so a policy never observes its own
//! half-applied output.

use crate::resources::ResourceVec;
use crate::rm::{RmConfig, RmKind, ScalingMode};
use crate::scaling::{
    proactive_containers_needed, reactive_containers_needed, static_pool_size, ProactiveInputs,
    ReactiveInputs,
};
use fifer_metrics::{SimDuration, SimTime};
use fifer_predict::{
    HistWindows, IdleHistogram, LoadPredictor, ModelCache, PredictorKind, RightSizer,
};
use std::cmp::Reverse;

/// Read-only snapshot of one stage, passed to decision hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageView {
    /// Stage table index (the id used in [`Decision`]s).
    pub stage: usize,
    /// Unscheduled tasks in the stage's global queue.
    pub pending: usize,
    /// Tasks waiting anywhere in the stage (global queue plus
    /// bound-but-not-executing) — the paper's `PQ_len`.
    pub waiting_total: usize,
    /// Containers currently serving the stage (cold starters included).
    pub num_containers: usize,
    /// The stage's batch size `B_size`.
    pub batch_size: usize,
    /// Per-stage response budget `S_r = slack + exec`.
    pub response_latency: SimDuration,
    /// Allocated slack (the reactive trigger threshold, Algorithm 1 a).
    pub slack: SimDuration,
    /// Mean execution time of the stage's microservice.
    pub mean_exec: SimDuration,
    /// Expected cold-start latency for the stage's container image `C_d`.
    pub cold_start: SimDuration,
    /// Worst queuing delay observed recently (Algorithm 1 a signal).
    /// Populated on reactive ticks; zero in other hooks.
    pub observed_delay: SimDuration,
    /// Cumulative arrivals into this stage (for demand-share estimates).
    pub arrivals: u64,
    /// Static fraction of workload-mix arrivals that reach this stage's
    /// microservice (used to size fixed pools offline, §5.3).
    pub mix_share: f64,
    /// Resources currently allocated to this stage's containers (primary
    /// allocations; harvested backing is counted cluster-wide instead).
    pub allocated: ResourceVec,
    /// Resources this stage's containers are actually using right now —
    /// the allocation/usage split the underutilization story turns on.
    pub used: ResourceVec,
}

/// Read-only snapshot of one container, passed to
/// [`ResourceManager::on_idle_deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerView {
    /// Container id (the id used in [`Decision::KillContainer`]).
    pub container: u64,
    /// Stage the container serves.
    pub stage: usize,
    /// Node hosting the container.
    pub node: usize,
    /// Last instant the container finished or received work.
    pub last_used: SimTime,
}

/// Read-only cluster-level snapshot passed to every decision hook.
///
/// `stages` is hook-dependent: all stages on monitor ticks and at start,
/// only pending dirty stages on reactive ticks, and empty for the per-task
/// hooks (which receive their own [`StageView`] argument instead).
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Jobs that have arrived at the front door so far.
    pub total_arrivals: u64,
    /// Window-max arrival rate from the load monitor (req/s). Populated on
    /// monitor ticks for policies whose [`ResourceManager::observes_load`]
    /// is true; zero elsewhere.
    pub global_rate: f64,
    /// Expected average arrival rate the operator configured (sizes
    /// SBatch's fixed pool, §5.3).
    pub expected_avg_rate: f64,
    /// Independent tenants sharing the cluster (stage pools replicate per
    /// tenant).
    pub tenants: usize,
    /// Pre-warmed pool floor: idle containers per stage exempt from
    /// reclamation (§2.2.1).
    pub min_warm_pool: usize,
    /// Idle-container reclamation timeout (§4.4.1).
    pub idle_timeout: SimDuration,
    /// The default container allocation (paper Table 2: 0.5 core, 1 GB) —
    /// the ceiling for [`Decision::Resize`] recommendations.
    pub container_alloc: ResourceVec,
    /// Total cluster capacity across up nodes.
    pub capacity: ResourceVec,
    /// Primary allocations across the cluster.
    pub allocated: ResourceVec,
    /// Resources actually in use across the cluster.
    pub used: ResourceVec,
    /// Resources backed by harvest leases (lent idle headroom) rather than
    /// primary allocation.
    pub harvested: ResourceVec,
    /// Stage snapshots (see the struct-level note on hook dependence).
    pub stages: &'a [StageView],
}

/// A typed decision a policy hands back to the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Spawn up to `count` containers for `stage`; the mechanism stops
    /// early when the cluster is full and nothing can be evicted.
    SpawnContainer {
        /// Target stage (a `StageView::stage` index).
        stage: usize,
        /// Containers to add.
        count: usize,
    },
    /// Kill one idle container and release its resources. The mechanism
    /// rejects (and trace-logs) kills of busy or dead containers.
    KillContainer {
        /// Victim container id.
        container: u64,
    },
    /// Drain `stage`'s global queue into free container slots under the
    /// configured scheduling/selection policies.
    DispatchBatch {
        /// Stage whose queue to drain.
        stage: usize,
    },
    /// Leave `stage`'s queued tasks waiting (for the scalers to add
    /// capacity) — the batching managers' answer to a blocked queue.
    Requeue {
        /// Stage whose tasks stay queued.
        stage: usize,
    },
    /// Spawn up to `count` containers for `stage`, preferring to back them
    /// with idle headroom lent by warm-idle containers on the same node (a
    /// Freyr-style harvest lease) and falling back to a primary allocation
    /// when no lender fits. Only meaningful when
    /// [`RmConfig::harvest`] is set; the mechanism treats it as
    /// [`Decision::SpawnContainer`] otherwise.
    Harvest {
        /// Target stage.
        stage: usize,
        /// Containers to add.
        count: usize,
    },
    /// Shrink the allocation of *future* spawns for `stage` to `alloc`.
    /// The mechanism clamps the request into the safe band: never above
    /// the configured default shape, never below the container's sampled
    /// busy-usage peak (so `usage ≤ allocation` cannot be violated by a
    /// bad recommendation). Running containers are not resized.
    Resize {
        /// Target stage.
        stage: usize,
        /// Recommended per-container allocation.
        alloc: ResourceVec,
    },
    /// Explicit no-op (useful for hook defaults and tracing).
    Noop,
}

/// Which hook (or mechanism path) produced an applied decision — the cause
/// attribution threaded through the structured trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionCause {
    /// `on_start` (fixed-pool provisioning).
    Startup,
    /// `on_arrival`.
    Arrival,
    /// `on_task_finish`.
    TaskFinish,
    /// `on_queue_blocked` (on-demand spawning).
    QueueBlocked,
    /// `on_reactive_tick` (Algorithm 1 a/b).
    ReactiveTick,
    /// `on_monitor_tick` (proactive forecasting, Algorithm 1 e).
    MonitorTick,
    /// `on_idle_deadline` (idle reclamation, §4.4.1).
    IdleDeadline,
    /// Mechanism: pre-warmed pool floor top-up (§2.2.1).
    WarmPoolFloor,
    /// Mechanism: LRU-idle eviction under capacity pressure.
    CapacityEviction,
    /// Mechanism: a cold-started container warmed up and drained queues.
    ContainerWarm,
    /// `on_container_failed` (fault injection: spawn fault or crash).
    ContainerFailure,
    /// `on_node_down` (fault injection: whole-node outage).
    NodeFailure,
    /// Mechanism: the fault-recovery valve respawned capacity for a stage
    /// whose entire pool was lost to faults.
    FaultRecovery,
    /// `on_usage_sample` (right-sizing from usage telemetry).
    UsageSample,
    /// Mechanism: a harvest lease was settled because its lender needed
    /// the headroom back (or died) — re-backed from free capacity or the
    /// borrower was preempted.
    HarvestReclaim,
}

impl DecisionCause {
    /// Stable lowercase name (used by the JSONL trace export).
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionCause::Startup => "startup",
            DecisionCause::Arrival => "arrival",
            DecisionCause::TaskFinish => "task_finish",
            DecisionCause::QueueBlocked => "queue_blocked",
            DecisionCause::ReactiveTick => "reactive_tick",
            DecisionCause::MonitorTick => "monitor_tick",
            DecisionCause::IdleDeadline => "idle_deadline",
            DecisionCause::WarmPoolFloor => "warm_pool_floor",
            DecisionCause::CapacityEviction => "capacity_eviction",
            DecisionCause::ContainerWarm => "container_warm",
            DecisionCause::ContainerFailure => "container_failure",
            DecisionCause::NodeFailure => "node_failure",
            DecisionCause::FaultRecovery => "fault_recovery",
            DecisionCause::UsageSample => "usage_sample",
            DecisionCause::HarvestReclaim => "harvest_reclaim",
        }
    }
}

/// A resource manager as a set of decision hooks.
///
/// Implementations must be deterministic functions of the views they are
/// given (plus their own internal state, e.g. a load predictor): the
/// simulator's reproducibility guarantees depend on it. All hooks have
/// no-op (or dispatch-only) defaults, so a minimal policy only overrides
/// what it cares about.
pub trait ResourceManager: Send {
    /// Short display name (e.g. for traces and reports).
    fn name(&self) -> &'static str;

    /// Whether the driver should run the fast reactive-scaling tick for
    /// this policy ([`on_reactive_tick`](Self::on_reactive_tick) only
    /// fires when this is true).
    fn wants_reactive_ticks(&self) -> bool {
        false
    }

    /// Whether the policy consumes the load monitor's arrival-rate signal
    /// each monitor tick. Drives one modeled stats-store read per tick and
    /// populates [`ClusterView::global_rate`].
    fn observes_load(&self) -> bool {
        false
    }

    /// Called once at `t = 0`, before any event. `view.stages` holds every
    /// stage.
    fn on_start(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let _ = (view, out);
    }

    /// A task entered `stage`'s global queue. Default: drain the queue.
    fn on_arrival(&mut self, view: &ClusterView, stage: &StageView, out: &mut Vec<Decision>) {
        let _ = view;
        out.push(Decision::DispatchBatch { stage: stage.stage });
    }

    /// `container` finished a task at `stage`. The mechanism has already
    /// started the container's next local task; the default decision
    /// re-drains the stage's global queue into the freed slot.
    fn on_task_finish(
        &mut self,
        view: &ClusterView,
        stage: &StageView,
        container: u64,
        out: &mut Vec<Decision>,
    ) {
        let _ = (view, container);
        out.push(Decision::DispatchBatch { stage: stage.stage });
    }

    /// The dispatcher holds queued tasks for `stage` but found no free
    /// container slot. Return [`Decision::SpawnContainer`] to spawn on
    /// demand (per-request, AWS-style) or [`Decision::Requeue`] to leave
    /// the tasks for the scalers. Default: requeue.
    fn on_queue_blocked(&mut self, view: &ClusterView, stage: &StageView) -> Decision {
        let _ = view;
        Decision::Requeue { stage: stage.stage }
    }

    /// Fast reactive check (Algorithm 1 a/b). `view.stages` holds only the
    /// stages with pending work since their backlog last drained, with
    /// [`StageView::observed_delay`] populated.
    fn on_reactive_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let _ = (view, out);
    }

    /// Slow monitoring tick (the paper's `T` = 10 s, §4.5). `view.stages`
    /// holds every stage; [`ClusterView::global_rate`] carries the load
    /// monitor's window-max arrival rate when
    /// [`observes_load`](Self::observes_load) is true.
    fn on_monitor_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let _ = (view, out);
    }

    /// Usage telemetry: fires right after
    /// [`on_monitor_tick`](Self::on_monitor_tick) with the same view,
    /// whose per-stage [`StageView::allocated`]/[`StageView::used`]
    /// aggregates carry the sampled allocation-vs-usage split. Policies
    /// that right-size emit [`Decision::Resize`] here. Default: no-op.
    fn on_usage_sample(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let _ = (view, out);
    }

    /// `expired` lists containers idle past [`ClusterView::idle_timeout`]
    /// (in container-id order). Emit [`Decision::KillContainer`]s to
    /// reclaim them; emit nothing to keep them (fixed pools).
    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        let _ = (view, expired, out);
    }

    /// `container` (serving `stage`) was killed by an injected fault —
    /// it died shortly after spawning, crashed mid-task, or both. The
    /// mechanism has already released its resources and re-enqueued its
    /// tasks at the stage's global queue (with retry counts), so the
    /// policy only decides how to replace the lost capacity. Default:
    /// spawn one replacement and re-drain the queue — which preserves
    /// every built-in manager's steady-state container count, including
    /// SBatch's fixed pool.
    fn on_container_failed(
        &mut self,
        view: &ClusterView,
        stage: &StageView,
        container: u64,
        out: &mut Vec<Decision>,
    ) {
        let _ = (view, container);
        out.push(Decision::SpawnContainer {
            stage: stage.stage,
            count: 1,
        });
        out.push(Decision::DispatchBatch { stage: stage.stage });
    }

    /// Node `node` went down; `lost` lists the containers it hosted (in
    /// container-id order). The mechanism has already crashed them all
    /// and re-enqueued their tasks; the node refuses placements until it
    /// recovers. Default: respawn one replacement per lost container,
    /// grouped per stage, then re-drain those stages.
    fn on_node_down(
        &mut self,
        view: &ClusterView,
        node: usize,
        lost: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        let _ = (view, node);
        let mut per_stage: Vec<(usize, usize)> = Vec::new();
        for c in lost {
            match per_stage.iter_mut().find(|(s, _)| *s == c.stage) {
                Some((_, n)) => *n += 1,
                None => per_stage.push((c.stage, 1)),
            }
        }
        for (stage, count) in per_stage {
            out.push(Decision::SpawnContainer { stage, count });
            out.push(Decision::DispatchBatch { stage });
        }
    }
}

// ---- shared policy building blocks -------------------------------------

/// Whether a neural predictor's pretraining was served from a checkpoint
/// cache, trained cold, or skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// No predictor, a classical predictor (nothing worth caching), or no
    /// pretraining data.
    NotApplicable,
    /// Pretrained from scratch — and stored to the cache when one was
    /// given, so the next same-keyed build starts warm.
    Cold,
    /// Restored from a cached checkpoint; pretraining was skipped
    /// entirely. Forecasts are bit-identical to the cold-start model the
    /// checkpoint was written from.
    Warm,
}

/// Online retraining period in observed monitoring samples: ≈ 5 simulated
/// minutes at the paper's 10 s monitoring interval, frequent enough to
/// track a regime shift within a few monitoring windows.
const RETRAIN_EVERY: usize = 30;

/// Fine-tuning epochs per online retraining round — cheap enough to run
/// inline.
const RETRAIN_EPOCHS: usize = 2;

/// Builds the load predictor that drives proactive scaling (§4.5): arms
/// online retraining when configured, and warm-starts a neural predictor
/// from `cache` keyed on (model kind, seed, pretrain series) — falling
/// back to a cold pretrain (stored back to the cache) on any miss or
/// damaged checkpoint.
fn build_predictor(
    kind: PredictorKind,
    seed: u64,
    pretrain: &[f64],
    online_retrain: bool,
    cache: Option<&ModelCache>,
) -> (Box<dyn LoadPredictor + Send>, WarmStart) {
    let mut p = kind.build(seed);
    if online_retrain {
        p.enable_online_retraining(RETRAIN_EVERY, RETRAIN_EPOCHS);
    }
    let mut warm = WarmStart::NotApplicable;
    if !pretrain.is_empty() {
        if kind.is_neural() {
            let key = ModelCache::key(&format!("{kind:?}"), seed, pretrain);
            let cached = cache.and_then(|c| c.load(&key));
            // a damaged or differently-shaped checkpoint fails restore
            // loudly but leaves the model untouched — fall back cold
            match cached {
                Some(bytes) if p.restore(&bytes).is_ok() => warm = WarmStart::Warm,
                _ => {
                    p.pretrain(pretrain);
                    warm = WarmStart::Cold;
                    if let (Some(c), Some(bytes)) = (cache, p.checkpoint()) {
                        // a full cache disk is a perf loss, not an
                        // error — the next run just starts cold again
                        let _ = c.store(&key, &bytes);
                    }
                }
            }
        } else {
            p.pretrain(pretrain);
        }
    }
    (p, warm)
}

/// Reactive scaling over the pending stages in `view` (Algorithm 1 a/b):
/// one spawn batch plus a dispatch per stage that needs containers.
fn reactive_decisions(view: &ClusterView, out: &mut Vec<Decision>) {
    for s in view.stages {
        let needed = reactive_containers_needed(&ReactiveInputs {
            pending_queue_len: s.waiting_total,
            num_containers: s.num_containers,
            batch_size: s.batch_size,
            stage_response_latency: s.response_latency,
            cold_start: s.cold_start,
            observed_delay: s.observed_delay,
            stage_slack: s.slack,
        });
        if needed > 0 {
            out.push(Decision::SpawnContainer {
                stage: s.stage,
                count: needed,
            });
            out.push(Decision::DispatchBatch { stage: s.stage });
        }
    }
}

/// Proactive scaling (Algorithm 1 e): pre-spawn so the forecast demand
/// fits capacity. Each stage's share of the forecast follows its observed
/// share of arrivals; the per-container demand window is the response
/// budget with batching, the mean exec time without (one request per
/// container turnover).
fn proactive_decisions(view: &ClusterView, batches: bool, forecast: f64, out: &mut Vec<Decision>) {
    for s in view.stages {
        let share = if view.total_arrivals == 0 {
            0.0
        } else {
            (s.arrivals as f64 / view.total_arrivals as f64).min(1.0)
        };
        if share <= 0.0 {
            continue;
        }
        let window = if batches {
            s.response_latency
        } else {
            s.mean_exec
        };
        let needed = proactive_containers_needed(&ProactiveInputs {
            forecast_rate: forecast * share,
            num_containers: s.num_containers,
            batch_size: s.batch_size,
            stage_response_latency: window,
        });
        if needed > 0 {
            out.push(Decision::SpawnContainer {
                stage: s.stage,
                count: needed,
            });
        }
    }
}

/// Idle reclamation with the pre-warmed pool floor exemption (§4.4.1,
/// §2.2.1): every expired container dies, except that each stage keeps its
/// `min_warm_pool` most-recently-used expired containers alive.
fn reclaim_decisions(view: &ClusterView, expired: &[ContainerView], out: &mut Vec<Decision>) {
    let floor = view.min_warm_pool;
    if floor == 0 {
        // no pool floor: every expired container dies, no ordering needed
        out.extend(expired.iter().map(|c| Decision::KillContainer {
            container: c.container,
        }));
        return;
    }
    let num_stages = expired.iter().map(|c| c.stage + 1).max().unwrap_or(0);
    let mut by_stage: Vec<Vec<&ContainerView>> = vec![Vec::new(); num_stages];
    for c in expired {
        by_stage[c.stage].push(c);
    }
    for mut ids in by_stage {
        if ids.len() <= floor {
            continue; // the whole stage fits under the floor
        }
        // rank key (Reverse(last_used), id) is unique per container, so the
        // kept set matches a stable descending-recency sort at O(n)
        ids.select_nth_unstable_by_key(floor - 1, |c| (Reverse(c.last_used), c.container));
        out.extend(ids[floor..].iter().map(|c| Decision::KillContainer {
            container: c.container,
        }));
    }
}

// ---- the paper's five resource managers --------------------------------

/// Bline (§3): the AWS-style baseline. No batching; every request that
/// finds no free container spawns its own
/// ([`ResourceManager::on_queue_blocked`] → spawn); idle containers are
/// reclaimed on timeout.
pub struct BlinePolicy;

impl ResourceManager for BlinePolicy {
    fn name(&self) -> &'static str {
        "Bline"
    }

    fn on_queue_blocked(&mut self, _view: &ClusterView, stage: &StageView) -> Decision {
        Decision::SpawnContainer {
            stage: stage.stage,
            count: 1,
        }
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        reclaim_decisions(view, expired, out);
    }
}

/// SBatch (§5.3): static equal-slack batching on a fixed pool sized to the
/// trace's average rate at startup. Never scales, never reclaims.
pub struct SBatchPolicy;

impl ResourceManager for SBatchPolicy {
    fn name(&self) -> &'static str {
        "SBatch"
    }

    fn on_start(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        // fixed per-stage pools; with multiple tenants the stage table is
        // replicated and jobs split evenly, so each tenant's pool covers
        // its share of the configured average rate
        let per_tenant_rate = view.expected_avg_rate / view.tenants as f64;
        for s in view.stages {
            let rate = per_tenant_rate * s.mix_share;
            if rate <= 0.0 {
                continue;
            }
            out.push(Decision::SpawnContainer {
                stage: s.stage,
                count: static_pool_size(rate, s.batch_size, s.response_latency),
            });
        }
    }

    // on_idle_deadline: default no-op — the fixed pool is never reclaimed
}

/// RScale (§5.3): dynamic slack-aware batching with reactive scaling only
/// (Algorithm 1 a/b) — GrandSLAm-like. Blocked queues wait for the scaler.
pub struct RScalePolicy;

impl ResourceManager for RScalePolicy {
    fn name(&self) -> &'static str {
        "RScale"
    }

    fn wants_reactive_ticks(&self) -> bool {
        true
    }

    fn on_reactive_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        reactive_decisions(view, out);
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        reclaim_decisions(view, expired, out);
    }
}

/// BPred and Fifer (§5.3, §4): reactive ticks (Algorithm 1 a/b),
/// pre-spawning at monitor ticks from the configured predictor's forecast
/// (Algorithm 1 e), and timeout reclamation. `batches` selects the
/// manager:
///
/// * **Fifer** (batching; LSTM) — dynamic slack-aware batching. Blocked
///   queues requeue (batching absorbs bursts); capacity arrives from the
///   scalers, and the proactive demand window is the stage's response
///   budget.
/// * **BPred** (no batching; EWMA) — Bline plus LSF scheduling and
///   prediction, Archipelago-like. Blocked queues still spawn per request,
///   and the proactive demand window is the mean exec time.
pub struct ProactivePolicy {
    batches: bool,
    predictor: Box<dyn LoadPredictor + Send>,
}

impl ResourceManager for ProactivePolicy {
    fn name(&self) -> &'static str {
        if self.batches {
            "Fifer"
        } else {
            "BPred"
        }
    }

    fn wants_reactive_ticks(&self) -> bool {
        true
    }

    fn observes_load(&self) -> bool {
        true
    }

    fn on_queue_blocked(&mut self, _view: &ClusterView, stage: &StageView) -> Decision {
        if self.batches {
            Decision::Requeue { stage: stage.stage }
        } else {
            Decision::SpawnContainer {
                stage: stage.stage,
                count: 1,
            }
        }
    }

    fn on_reactive_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        reactive_decisions(view, out);
    }

    fn on_monitor_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        self.predictor.observe(view.global_rate);
        let forecast = self.predictor.forecast();
        proactive_decisions(view, self.batches, forecast, out);
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        reclaim_decisions(view, expired, out);
    }
}

/// Harvest (ROADMAP item 3): the Bline baseline plus Freyr-style idle-
/// resource harvesting and Sizeless-style right-sizing. Deliberately
/// Bline-shaped in everything else — no batching, on-demand capacity,
/// timeout reclamation — so that utilization deltas against the baseline
/// are attributable to harvesting alone. A blocked queue answers with
/// [`Decision::Harvest`] (spawn backed by lent idle headroom where
/// possible); usage samples feed a per-stage [`RightSizer`] whose
/// recommendations shrink future spawns via [`Decision::Resize`].
#[derive(Default)]
pub struct HarvestPolicy {
    /// Per-stage right-sizers, lazily grown to the stage-table size.
    sizers: Vec<RightSizer>,
    /// Last recommendation emitted per stage (suppresses redundant
    /// `Resize` decisions between samples).
    emitted: Vec<Option<ResourceVec>>,
}

impl ResourceManager for HarvestPolicy {
    fn name(&self) -> &'static str {
        "Harvest"
    }

    fn on_queue_blocked(&mut self, _view: &ClusterView, stage: &StageView) -> Decision {
        Decision::Harvest {
            stage: stage.stage,
            count: 1,
        }
    }

    fn on_usage_sample(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        if self.sizers.len() < view.stages.len() {
            self.sizers
                .resize_with(view.stages.len(), RightSizer::paper_default);
            self.emitted.resize(view.stages.len(), None);
        }
        for s in view.stages {
            if s.num_containers == 0 {
                continue; // no running containers → no usage signal
            }
            let n = s.num_containers as f64;
            let sizer = &mut self.sizers[s.stage];
            sizer.observe(s.used.cpu_milli as f64 / n, s.used.mem_mb as f64 / n);
            let Some(rec) = sizer.recommend() else {
                continue;
            };
            // recommendations only ever shrink the default shape; the
            // mechanism additionally floors them at each spawn's sampled
            // busy-usage peak
            let alloc = ResourceVec::new(rec.cpu_milli, rec.mem_mb).min(view.container_alloc);
            if self.emitted[s.stage] != Some(alloc) {
                self.emitted[s.stage] = Some(alloc);
                out.push(Decision::Resize {
                    stage: s.stage,
                    alloc,
                });
            }
        }
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        reclaim_decisions(view, expired, out);
    }
}

/// HybridHist (ROADMAP item 2): the hybrid-histogram keep-alive / pre-warm
/// policy from "Serverless in the Wild" (Shahrad et al.), adapted to the
/// chain simulator — the paper's per-application histograms become
/// per-*stage* histograms, fed by the idle gaps between successive task
/// arrivals at each stage.
///
/// Deliberately Bline-shaped in everything else — no batching, on-demand
/// capacity on blocked queues — so cold-start and memory-time deltas
/// against the baseline are attributable to the keep-alive windows alone.
/// Three hooks implement the policy:
///
/// * [`on_arrival`](ResourceManager::on_arrival) records the stage's
///   inter-arrival gap into its [`IdleHistogram`],
/// * [`on_monitor_tick`](ResourceManager::on_monitor_tick) pre-warms one
///   container for a *cold* stage whose idle time has entered the
///   `[prewarm, keepalive)` window (never for OOB-pattern or
///   under-sampled stages),
/// * [`on_idle_deadline`](ResourceManager::on_idle_deadline) keeps an
///   expired container alive until its stage's keep-alive window has
///   passed, then reclaims through the shared warm-pool-floor path.
///
/// The mechanism's idle scan (`SimConfig::idle_timeout`) acts as the scan
/// granularity: containers only surface here once idle past the timeout,
/// so runs pair this policy with a short timeout and let the histogram
/// windows make the actual reclaim decision.
#[derive(Default)]
pub struct HybridHistPolicy {
    /// Per-stage idle-time histograms, lazily grown to the stage table.
    hists: Vec<IdleHistogram>,
    /// Last arrival instant per stage (`None` until the first task).
    last_arrival: Vec<Option<SimTime>>,
}

// The source policy uses 1-minute bins over 4 hours with a 5th/99th
// head/tail split; simulated horizons are minutes rather than days, so the
// range scales down to 5-second bins over 5 minutes while the percentile
// structure stays the paper's.

/// Idle-time histogram bin width in seconds.
const KEEPALIVE_BIN_WIDTH_S: u64 = 5;

/// Number of histogram bins; `KEEPALIVE_BIN_WIDTH_S × KEEPALIVE_NUM_BINS`
/// is the covered idle-time range, beyond which samples count as
/// out-of-bounds.
const KEEPALIVE_NUM_BINS: usize = 60;

/// Head percentile: the pre-warm window (load the container back just
/// before the next invocation becomes likely).
const KEEPALIVE_HEAD_PCT: u8 = 5;

/// Tail percentile: the keep-alive window (stay loaded until almost every
/// observed idle gap is covered).
const KEEPALIVE_TAIL_PCT: u8 = 99;

/// Minimum percentage of out-of-bounds samples at which a stage is classed
/// into the OOB pattern (fallback keep-alive, no pre-warm).
const KEEPALIVE_OOB_PCT: u8 = 20;

/// Idle-gap observations required before the histogram's windows are
/// trusted over the fallback.
const KEEPALIVE_MIN_SAMPLES: u64 = 8;

/// Fixed keep-alive window (seconds) for OOB-pattern and under-sampled
/// stages.
const KEEPALIVE_FALLBACK_S: u64 = 60;

const _: () = {
    assert!(KEEPALIVE_BIN_WIDTH_S > 0 && KEEPALIVE_NUM_BINS > 0);
    assert!(KEEPALIVE_HEAD_PCT > 0 && KEEPALIVE_HEAD_PCT < KEEPALIVE_TAIL_PCT);
    assert!(KEEPALIVE_TAIL_PCT <= 100);
    assert!(KEEPALIVE_OOB_PCT > 0 && KEEPALIVE_OOB_PCT <= 100);
    assert!(KEEPALIVE_FALLBACK_S > 0 && KEEPALIVE_MIN_SAMPLES > 0);
    // the fallback window must fit the histogram range, else OOB stages
    // would be kept longer than any in-bounds gap the histogram covers
    assert!(KEEPALIVE_FALLBACK_S <= KEEPALIVE_BIN_WIDTH_S * KEEPALIVE_NUM_BINS as u64);
};

impl HybridHistPolicy {
    fn grow_to(&mut self, stages: usize) {
        if self.hists.len() < stages {
            self.hists.resize_with(stages, || {
                IdleHistogram::new(KEEPALIVE_BIN_WIDTH_S, KEEPALIVE_NUM_BINS)
            });
            self.last_arrival.resize(stages, None);
        }
    }

    fn windows(&self, stage: usize) -> HistWindows {
        self.hists[stage].windows(
            KEEPALIVE_HEAD_PCT,
            KEEPALIVE_TAIL_PCT,
            KEEPALIVE_OOB_PCT,
            KEEPALIVE_MIN_SAMPLES,
            KEEPALIVE_FALLBACK_S,
        )
    }
}

impl ResourceManager for HybridHistPolicy {
    fn name(&self) -> &'static str {
        "HybridHist"
    }

    fn on_arrival(&mut self, view: &ClusterView, stage: &StageView, out: &mut Vec<Decision>) {
        self.grow_to(stage.stage + 1);
        if let Some(prev) = self.last_arrival[stage.stage] {
            // the source policy histograms per-app idle times, where one
            // app has one container; shared stages fan arrivals across a
            // whole pool, so an individual container's expected idle gap
            // is the stage-level gap times the pool size. Recording the
            // raw stage gap collapses every busy stage into the first
            // bin and derives keep-alive windows below the idle-scan
            // granularity — silently inert keep-alive.
            let gap = view.now.saturating_since(prev);
            let pool = stage.num_containers.max(1) as f64;
            self.hists[stage.stage].record((gap.as_secs_f64() * pool).round() as u64);
        }
        self.last_arrival[stage.stage] = Some(view.now);
        out.push(Decision::DispatchBatch { stage: stage.stage });
    }

    fn on_queue_blocked(&mut self, _view: &ClusterView, stage: &StageView) -> Decision {
        Decision::SpawnContainer {
            stage: stage.stage,
            count: 1,
        }
    }

    fn on_monitor_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        self.grow_to(view.stages.len());
        for s in view.stages {
            if s.num_containers > 0 {
                continue; // pre-warming only revives fully cold stages
            }
            let Some(prev) = self.last_arrival[s.stage] else {
                continue; // never invoked: nothing to anticipate
            };
            let w = self.windows(s.stage);
            if w.oob || w.prewarm_s == 0 {
                continue; // OOB pattern / fallback mode: no speculation
            }
            let idle_s = view.now.saturating_since(prev).as_secs();
            // inside the window the next invocation is imminent; past the
            // keep-alive edge the gap already overflowed the forecast and
            // holding a warm container would be an unbounded bet
            if idle_s >= w.prewarm_s && idle_s < w.keepalive_s {
                out.push(Decision::SpawnContainer {
                    stage: s.stage,
                    count: 1,
                });
            }
        }
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        self.grow_to(
            expired
                .iter()
                .map(|c| c.stage + 1)
                .max()
                .unwrap_or_default(),
        );
        // only containers idle past their stage's keep-alive window die;
        // the survivors resurface on a later scan
        let doomed: Vec<ContainerView> = expired
            .iter()
            .filter(|c| {
                let idle_s = view.now.saturating_since(c.last_used).as_secs();
                idle_s >= self.windows(c.stage).keepalive_s
            })
            .copied()
            .collect();
        reclaim_decisions(view, &doomed, out);
    }
}

// ---- registry ----------------------------------------------------------

impl RmConfig {
    /// Builds the resource-manager policy this configuration describes.
    ///
    /// Harvesting, then the hybrid keep-alive, then the scaling mode select
    /// the policy struct; batching parameterizes the proactive one, and the
    /// scheduling/selection/placement choices are applied by the
    /// simulator's dispatcher, which reads them straight from the config.
    /// Only proactive scaling builds a load predictor: `seed` seeds it and
    /// `pretrain` optionally pre-trains it on a historical window-max rate
    /// series (§4.5.1).
    pub fn build_rm(&self, seed: u64, pretrain: &[f64]) -> Box<dyn ResourceManager> {
        self.build_rm_served(seed, pretrain, None).0
    }

    /// [`build_rm`](Self::build_rm) plus checkpoint-cache
    /// serving: neural predictors warm-start from `cache` when a
    /// same-keyed checkpoint exists (skipping pretraining entirely,
    /// bit-identical forecasts), and store their freshly-trained weights
    /// back on a cold start. Returns how the predictor was served.
    pub fn build_rm_served(
        &self,
        seed: u64,
        pretrain: &[f64],
        cache: Option<&ModelCache>,
    ) -> (Box<dyn ResourceManager>, WarmStart) {
        let mut warm = WarmStart::NotApplicable;
        let rm: Box<dyn ResourceManager> = if self.harvest {
            // both extensions ride the Bline-shaped mechanism config
            Box::new(HarvestPolicy::default())
        } else if self.keepalive.enabled {
            Box::new(HybridHistPolicy::default())
        } else {
            match self.scaling {
                ScalingMode::OnDemand => Box::new(BlinePolicy),
                ScalingMode::FixedPool => Box::new(SBatchPolicy),
                ScalingMode::Reactive => Box::new(RScalePolicy),
                ScalingMode::ReactivePlusProactive(kind) => {
                    let (predictor, served) =
                        build_predictor(kind, seed, pretrain, self.online_retrain, cache);
                    warm = served;
                    Box::new(ProactivePolicy {
                        batches: self.batching.batches(),
                        predictor,
                    })
                }
            }
        };
        (rm, warm)
    }
}

impl RmKind {
    /// Builds this named resource manager's policy (no pre-training).
    pub fn build(self, seed: u64) -> Box<dyn ResourceManager> {
        self.config().build_rm(seed, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn stage_view(stage: usize) -> StageView {
        StageView {
            stage,
            pending: 0,
            waiting_total: 0,
            num_containers: 0,
            batch_size: 4,
            response_latency: ms(400),
            slack: ms(350),
            mean_exec: ms(50),
            cold_start: SimDuration::from_secs(3),
            observed_delay: SimDuration::ZERO,
            arrivals: 0,
            mix_share: 0.5,
            allocated: ResourceVec::ZERO,
            used: ResourceVec::ZERO,
        }
    }

    fn view<'a>(stages: &'a [StageView]) -> ClusterView<'a> {
        ClusterView {
            now: SimTime::ZERO,
            total_arrivals: 0,
            global_rate: 0.0,
            expected_avg_rate: 40.0,
            tenants: 1,
            min_warm_pool: 0,
            idle_timeout: SimDuration::from_secs(600),
            container_alloc: ResourceVec::new(500, 1024),
            capacity: ResourceVec::ZERO,
            allocated: ResourceVec::ZERO,
            used: ResourceVec::ZERO,
            harvested: ResourceVec::ZERO,
            stages,
        }
    }

    fn cv(container: u64, stage: usize, last_used_s: u64) -> ContainerView {
        ContainerView {
            container,
            stage,
            node: 0,
            last_used: SimTime::from_secs(last_used_s),
        }
    }

    #[test]
    fn registry_builds_the_papers_five_plus_extensions() {
        let names: Vec<&str> = RmKind::ALL.iter().map(|k| k.build(1).name()).collect();
        assert_eq!(
            names,
            [
                "Bline",
                "SBatch",
                "RScale",
                "BPred",
                "Fifer",
                "Harvest",
                "HybridHist"
            ]
        );
    }

    #[test]
    fn reactive_ticks_follow_scaling_mode() {
        assert!(!RmKind::Bline.build(1).wants_reactive_ticks());
        assert!(!RmKind::SBatch.build(1).wants_reactive_ticks());
        assert!(RmKind::RScale.build(1).wants_reactive_ticks());
        assert!(RmKind::BPred.build(1).wants_reactive_ticks());
        assert!(RmKind::Fifer.build(1).wants_reactive_ticks());
    }

    #[test]
    fn only_predictor_policies_observe_load() {
        assert!(!RmKind::Bline.build(1).observes_load());
        assert!(!RmKind::RScale.build(1).observes_load());
        assert!(RmKind::BPred.build(1).observes_load());
        assert!(RmKind::Fifer.build(1).observes_load());
        assert!(!RmKind::Harvest.build(1).observes_load());
        assert!(!RmKind::HybridHist.build(1).observes_load());
    }

    #[test]
    fn bline_spawns_on_blocked_queue_fifer_requeues() {
        let sv = stage_view(2);
        let v = view(&[]);
        assert_eq!(
            RmKind::Bline.build(1).on_queue_blocked(&v, &sv),
            Decision::SpawnContainer { stage: 2, count: 1 }
        );
        assert_eq!(
            RmKind::BPred.build(1).on_queue_blocked(&v, &sv),
            Decision::SpawnContainer { stage: 2, count: 1 },
            "non-batching BPred keeps Bline-style per-request spawning"
        );
        assert_eq!(
            RmKind::Fifer.build(1).on_queue_blocked(&v, &sv),
            Decision::Requeue { stage: 2 }
        );
        assert_eq!(
            RmKind::SBatch.build(1).on_queue_blocked(&v, &sv),
            Decision::Requeue { stage: 2 }
        );
    }

    #[test]
    fn sbatch_provisions_static_pools_at_start() {
        let stages = [stage_view(0), {
            let mut s = stage_view(1);
            s.mix_share = 0.0; // a stage no mix traffic reaches
            s
        }];
        let v = view(&stages);
        let mut out = Vec::new();
        RmKind::SBatch.build(1).on_start(&v, &mut out);
        // 40 req/s × 0.5 share × 0.4 s budget = 8 in flight / batch 4 → 2
        assert_eq!(
            out,
            vec![Decision::SpawnContainer { stage: 0, count: 2 }],
            "zero-share stages get no pool"
        );
    }

    #[test]
    fn fixed_pool_never_reclaims() {
        let v = view(&[]);
        let expired = [cv(1, 0, 0), cv(2, 0, 5)];
        let mut out = Vec::new();
        RmKind::SBatch
            .build(1)
            .on_idle_deadline(&v, &expired, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reclaim_kills_all_without_floor() {
        let v = view(&[]);
        let expired = [cv(3, 0, 0), cv(7, 1, 5), cv(9, 0, 2)];
        let mut out = Vec::new();
        RmKind::Bline
            .build(1)
            .on_idle_deadline(&v, &expired, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn reclaim_floor_boundary_is_exact() {
        let mut v = view(&[]);
        v.min_warm_pool = 2;
        let mut rm = RmKind::Bline.build(1);
        // exactly `floor` expired containers → all survive
        let expired = [cv(1, 0, 10), cv(2, 0, 20)];
        let mut out = Vec::new();
        rm.on_idle_deadline(&v, &expired, &mut out);
        assert!(out.is_empty(), "at the floor boundary nothing dies");
        // one past the floor → exactly the least-recently-used one dies
        let expired = [cv(1, 0, 10), cv(2, 0, 20), cv(3, 0, 5)];
        out.clear();
        rm.on_idle_deadline(&v, &expired, &mut out);
        assert_eq!(out, vec![Decision::KillContainer { container: 3 }]);
    }

    #[test]
    fn reclaim_floor_is_per_stage() {
        let mut v = view(&[]);
        v.min_warm_pool = 1;
        let expired = [cv(1, 0, 10), cv(2, 0, 20), cv(3, 1, 5)];
        let mut out = Vec::new();
        RmKind::Fifer
            .build(1)
            .on_idle_deadline(&v, &expired, &mut out);
        // stage 0 keeps its most recent (2), kills 1; stage 1 is at floor
        assert_eq!(out, vec![Decision::KillContainer { container: 1 }]);
    }

    #[test]
    fn reactive_decisions_spawn_and_dispatch() {
        let mut s = stage_view(0);
        s.waiting_total = 9;
        s.num_containers = 0;
        s.batch_size = 5;
        s.observed_delay = ms(500); // past slack → triggered
        let stages = [s];
        let v = view(&stages);
        let mut out = Vec::new();
        RmKind::RScale.build(1).on_reactive_tick(&v, &mut out);
        assert_eq!(
            out,
            vec![
                Decision::SpawnContainer { stage: 0, count: 2 },
                Decision::DispatchBatch { stage: 0 },
            ]
        );
    }

    #[test]
    fn proactive_window_depends_on_batching() {
        // same forecast pressure; Fifer (batching) amortizes over the
        // response budget, BPred (no batching) over the mean exec time
        let mut s = stage_view(0);
        s.arrivals = 10;
        s.num_containers = 0;
        s.batch_size = 1;
        let stages = [s];
        let mut v = view(&stages);
        v.total_arrivals = 10;
        v.global_rate = 50.0;
        let pretrain = [50.0; 32];
        let spawned = |kind: RmKind| {
            let mut rm = kind.config().build_rm(1, &pretrain);
            let mut out = Vec::new();
            rm.on_monitor_tick(&v, &mut out);
            out.iter()
                .map(|d| match d {
                    Decision::SpawnContainer { count, .. } => *count,
                    _ => 0,
                })
                .sum::<usize>()
        };
        let fifer = spawned(RmKind::Fifer);
        let bpred = spawned(RmKind::BPred);
        assert!(fifer > 0 && bpred > 0, "both pre-spawn ({fifer}, {bpred})");
        assert!(
            fifer >= bpred,
            "the 400ms response window ({fifer}) covers at least the 50ms \
             exec window ({bpred})"
        );
    }

    #[test]
    fn decision_cause_names_are_stable() {
        assert_eq!(DecisionCause::ReactiveTick.as_str(), "reactive_tick");
        assert_eq!(DecisionCause::IdleDeadline.as_str(), "idle_deadline");
        assert_eq!(DecisionCause::UsageSample.as_str(), "usage_sample");
        assert_eq!(DecisionCause::HarvestReclaim.as_str(), "harvest_reclaim");
    }

    #[test]
    fn harvest_answers_blocked_queues_with_harvest_spawns() {
        let sv = stage_view(1);
        let v = view(&[]);
        assert_eq!(
            RmKind::Harvest.build(1).on_queue_blocked(&v, &sv),
            Decision::Harvest { stage: 1, count: 1 }
        );
    }

    #[test]
    fn usage_sample_default_is_noop() {
        let mut out = Vec::new();
        for kind in [RmKind::Bline, RmKind::SBatch, RmKind::Fifer] {
            kind.build(1).on_usage_sample(&view(&[]), &mut out);
            assert!(out.is_empty(), "{kind} must not react to usage samples");
        }
    }

    #[test]
    fn harvest_rightsizes_from_usage_samples() {
        let mut rm = RmKind::Harvest.build(1);
        let mut s = stage_view(0);
        s.num_containers = 2;
        s.allocated = ResourceVec::new(1000, 2048); // 2 × default
        s.used = ResourceVec::new(200, 512); // 100 mcpu / 256 MB each
        let stages = [s];
        let v = view(&stages);
        let mut out = Vec::new();
        // the paper-default sizer needs 3 samples before recommending
        rm.on_usage_sample(&v, &mut out);
        rm.on_usage_sample(&v, &mut out);
        assert!(out.is_empty(), "no recommendation before min samples");
        rm.on_usage_sample(&v, &mut out);
        let Some(Decision::Resize { stage: 0, alloc }) = out.first().copied() else {
            panic!("expected a Resize decision, got {out:?}");
        };
        // 100 mcpu peak + 20% margin = 120; well under the 500 default
        assert!(alloc.cpu_milli >= 100 && alloc.cpu_milli < 500, "{alloc:?}");
        assert!(alloc.mem_mb >= 256 && alloc.mem_mb < 1024, "{alloc:?}");
        // a repeated identical sample must not re-emit the same decision
        out.clear();
        rm.on_usage_sample(&v, &mut out);
        assert!(out.is_empty(), "unchanged recommendation is suppressed");
    }

    /// Feeds `HybridHist` one stage-0 arrival per instant in `times_s`,
    /// training its idle-time histogram on the gaps between them.
    fn feed_arrivals(rm: &mut dyn ResourceManager, stage: usize, times_s: &[u64]) {
        let sv = stage_view(stage);
        for &t in times_s {
            let mut v = view(&[]);
            v.now = SimTime::from_secs(t);
            let mut out = Vec::new();
            rm.on_arrival(&v, &sv, &mut out);
            assert_eq!(
                out,
                vec![Decision::DispatchBatch { stage }],
                "arrivals still drain the queue"
            );
        }
    }

    fn prewarm_spawns_at(rm: &mut dyn ResourceManager, now_s: u64) -> usize {
        let stages = [stage_view(0)]; // num_containers == 0: a cold stage
        let mut v = view(&stages);
        v.now = SimTime::from_secs(now_s);
        let mut out = Vec::new();
        rm.on_monitor_tick(&v, &mut out);
        out.iter()
            .filter(|d| matches!(d, Decision::SpawnContainer { .. }))
            .count()
    }

    fn kills_at(rm: &mut dyn ResourceManager, now_s: u64, last_used_s: u64) -> usize {
        let mut v = view(&[]);
        v.now = SimTime::from_secs(now_s);
        let expired = [cv(1, 0, last_used_s)];
        let mut out = Vec::new();
        rm.on_idle_deadline(&v, &expired, &mut out);
        out.len()
    }

    #[test]
    fn hybridhist_spawns_on_blocked_queue_like_bline() {
        let sv = stage_view(2);
        let v = view(&[]);
        assert_eq!(
            RmKind::HybridHist.build(1).on_queue_blocked(&v, &sv),
            Decision::SpawnContainer { stage: 2, count: 1 }
        );
    }

    #[test]
    fn hybridhist_prewarms_only_inside_the_window() {
        let mut rm = RmKind::HybridHist.build(1);
        // bimodal gaps: 2 s bursts and 60 s lulls → head edge 5 s (bin
        // [0,5)), tail edge 65 s (bin [60,65)) at the default 5 s bins
        let mut times = vec![0u64];
        let mut t = 0;
        for i in 0..20 {
            t += if i % 2 == 0 { 2 } else { 60 };
            times.push(t);
        }
        feed_arrivals(rm.as_mut(), 0, &times);
        let last = *times.last().unwrap();
        assert_eq!(prewarm_spawns_at(rm.as_mut(), last + 2), 0, "before head");
        assert_eq!(prewarm_spawns_at(rm.as_mut(), last + 30), 1, "in window");
        assert_eq!(prewarm_spawns_at(rm.as_mut(), last + 70), 0, "past tail");
    }

    #[test]
    fn hybridhist_never_prewarms_undersampled_or_oob_stages() {
        // under-sampled: fewer gaps than min_samples
        let mut rm = RmKind::HybridHist.build(1);
        feed_arrivals(rm.as_mut(), 0, &[0, 10, 20]);
        assert_eq!(prewarm_spawns_at(rm.as_mut(), 35), 0);
        // OOB pattern: every gap beyond the 300 s histogram range
        let mut rm = RmKind::HybridHist.build(1);
        let times: Vec<u64> = (0..12).map(|i| i * 400).collect();
        feed_arrivals(rm.as_mut(), 0, &times);
        for now in [4500, 4600, 4700] {
            assert_eq!(prewarm_spawns_at(rm.as_mut(), now), 0);
        }
        // a never-invoked stage has nothing to anticipate
        let mut rm = RmKind::HybridHist.build(1);
        assert_eq!(prewarm_spawns_at(rm.as_mut(), 100), 0);
    }

    #[test]
    fn hybridhist_keepalive_window_gates_reclamation() {
        let mut rm = RmKind::HybridHist.build(1);
        // regular 30 s gaps → keep-alive edge at 35 s (bin [30,35))
        let times: Vec<u64> = (0..12).map(|i| i * 30).collect();
        feed_arrivals(rm.as_mut(), 0, &times);
        assert_eq!(kills_at(rm.as_mut(), 1000, 980), 0, "20 s idle survives");
        assert_eq!(kills_at(rm.as_mut(), 1000, 960), 1, "40 s idle dies");
    }

    #[test]
    fn hybridhist_fallback_keepalive_applies_when_untrained() {
        // an untrained histogram reclaims at the fallback window, not never
        let mut rm = RmKind::HybridHist.build(1);
        let fallback = KEEPALIVE_FALLBACK_S;
        assert_eq!(kills_at(rm.as_mut(), 1000, 1000 - fallback + 1), 0);
        assert_eq!(kills_at(rm.as_mut(), 1000, 1000 - fallback - 1), 1);
    }

    #[test]
    fn hybridhist_reclaim_respects_the_warm_pool_floor() {
        let mut rm = RmKind::HybridHist.build(1);
        let mut v = view(&[]);
        v.now = SimTime::from_secs(1000);
        v.min_warm_pool = 1;
        // both idle far past any window: the floor still keeps the most
        // recently used one
        let expired = [cv(1, 0, 100), cv(2, 0, 200)];
        let mut out = Vec::new();
        rm.on_idle_deadline(&v, &expired, &mut out);
        assert_eq!(out, vec![Decision::KillContainer { container: 1 }]);
    }

    #[test]
    fn resize_recommendations_never_exceed_the_default_shape() {
        let mut rm = RmKind::Harvest.build(1);
        let mut s = stage_view(0);
        s.num_containers = 1;
        s.allocated = ResourceVec::new(500, 1024);
        s.used = ResourceVec::new(500, 1024); // saturated: margin would overshoot
        let stages = [s];
        let v = view(&stages);
        let mut out = Vec::new();
        for _ in 0..4 {
            rm.on_usage_sample(&v, &mut out);
        }
        for d in &out {
            if let Decision::Resize { alloc, .. } = d {
                assert!(
                    alloc.fits_within(v.container_alloc),
                    "recommendation {alloc:?} exceeds the default shape"
                );
            }
        }
        assert!(
            !out.is_empty(),
            "a saturated stage still gets a (clamped) size"
        );
    }

    /// FNV-1a 64, the checkpoint trailer's checksum.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `bytes` with its format version set to `version` and the
    /// trailing checksum re-stamped, so only the version check can
    /// refuse it.
    fn restamped(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let n = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// A version-1 or version-2 checkpoint holds a model the current
    /// numerics never produce (version 2 stored `f64` weights, version 1
    /// a model trained with libm's activations). Under the run's key it is
    /// refused: the build trains cold and replaces it with a
    /// current-version checkpoint, from which the next build warm-starts
    /// with the cold model's forecasts, bit for bit.
    #[test]
    fn version_1_checkpoint_falls_back_cold_and_is_replaced() {
        use fifer_predict::checkpoint::VERSION;
        let dir = std::env::temp_dir().join(format!(
            "fifer_core_version_1_checkpoint_{}",
            std::process::id()
        ));
        let (kind, seed) = (PredictorKind::Lstm, 3);
        let series: Vec<f64> = (0..40).map(|i| 20.0 + f64::from(i % 9) * 4.0).collect();
        let key = ModelCache::key(&format!("{kind:?}"), seed, &series);
        let untrained = kind.build(seed).checkpoint().expect("an LSTM checkpoint");
        assert_eq!(untrained[8..12], VERSION.to_le_bytes());
        // the same bytes stamped with the current version restore: only
        // the version refuses the stale entry
        let current = restamped(untrained.clone(), VERSION);
        assert!(kind.build(seed).restore(&current).is_ok());
        for stale_version in [1, 2] {
            let _ = std::fs::remove_dir_all(&dir);
            let cache = ModelCache::open(&dir).expect("cache dir");
            let stale = restamped(untrained.clone(), stale_version);
            cache.store(&key, &stale).expect("store");

            let (mut cold, served) = build_predictor(kind, seed, &series, false, Some(&cache));
            assert_eq!(served, WarmStart::Cold, "version {stale_version}");
            let replaced = cache.load(&key).expect("a cache entry");
            assert_eq!(replaced[8..12], VERSION.to_le_bytes());
            assert_eq!(replaced, cold.checkpoint().expect("an LSTM checkpoint"));

            let (mut warm, served) = build_predictor(kind, seed, &series, false, Some(&cache));
            assert_eq!(served, WarmStart::Warm, "version {stale_version}");
            for &v in series.iter().rev() {
                cold.observe(v);
                warm.observe(v);
                assert_eq!(cold.forecast().to_bits(), warm.forecast().to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
