//! Mechanism: container lifecycle — spawn, placement, eviction, kill, and
//! the pre-warmed pool floor.
//!
//! These routines *apply* [`Decision`](fifer_core::policy::Decision)s made
//! by the policy hooks (plus the two mechanism-side paths the paper
//! defines independently of any resource manager: LRU-idle eviction under
//! capacity pressure and the §2.2.1 warm-pool floor top-up). They never
//! decide *whether* to scale.

use crate::container::{BoundTask, Container, UsageProfile};
use crate::driver::Simulation;
use crate::engine::Event;
use crate::fault::FaultKind;
use crate::stage::StageTask;
use crate::stats_store::StoreOp;
use crate::trace::SimEvent;
use fifer_core::policy::DecisionCause;
use fifer_core::resources::ResourceVec;
use fifer_metrics::SimTime;
use rand::Rng;

/// What [`Simulation::retire_container`] hands back to the death path
/// that called it.
pub(crate) struct Retired {
    /// The dead container's stage.
    pub stage: usize,
    /// The node it ran on.
    pub node: usize,
    /// The tasks it held: the executing task first, then its local queue
    /// in bind order.
    pub lost: Vec<BoundTask>,
    /// Whether `lost[0]` was executing when the container died.
    pub interrupted: bool,
}

/// The resource shape of a new container: its primary allocation, any
/// lease-backed borrowed amount (zero for normal spawns), and the
/// deterministic usage profile it will report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpawnShape {
    pub alloc: ResourceVec,
    pub borrowed: ResourceVec,
    pub profile: UsageProfile,
}

impl Simulation<'_> {
    /// Finds a node with room for a `request`-sized container, evicting
    /// least-recently-used idle containers cluster-wide while the cluster
    /// is full (real orchestrators reclaim idle sandboxes under capacity
    /// pressure rather than starving a stage behind another stage's warm
    /// pool). Returns `None` when nothing fits and nothing is evictable.
    /// The loop is bounded: every iteration kills one container.
    pub(crate) fn place_node_with_eviction(
        &mut self,
        sidx: usize,
        now: SimTime,
        request: ResourceVec,
    ) -> Option<usize> {
        let placement = self.cfg.rm.placement;
        loop {
            if let Some(n) = self.cluster.select_node(placement, request) {
                return Some(n);
            }
            if !self.evict_lru_idle(sidx, now) {
                return None;
            }
        }
    }

    /// The allocation request and usage profile the next container spawned
    /// for `sidx` will carry. The request is the stage's spawn shape (the
    /// right-sizer's override, else the cluster default), floored at the
    /// profile's busy peak so a right-sized container can always execute.
    /// With paper-default profiles (busy ≤ 90% of default) and no resize
    /// override, the request is exactly the default shape.
    pub(crate) fn spawn_request(&self, sidx: usize) -> (ResourceVec, UsageProfile) {
        let default = crate::config::container_alloc();
        let id = self.containers.next_id();
        let ms = self.stages[sidx].microservice;
        let profile = UsageProfile::sample(ms as u64, id, self.cfg.seed, default);
        let request = self.stages[sidx]
            .spawn_alloc
            .unwrap_or(default)
            .max(profile.busy);
        (request, profile)
    }

    /// Spawns one container for `sidx`, returning its id, or `None` when
    /// the cluster is full and nothing can be evicted.
    pub(crate) fn spawn_container(
        &mut self,
        sidx: usize,
        now: SimTime,
        cause: DecisionCause,
    ) -> Option<u64> {
        let (request, profile) = self.spawn_request(sidx);
        let Some(node) = self.place_node_with_eviction(sidx, now, request) else {
            self.failed_spawns += 1;
            self.trace.record(|| SimEvent::SpawnFailed {
                at: now,
                cause,
                stage: sidx,
            });
            return None;
        };
        self.cluster.place(node, request, now);
        let shape = SpawnShape {
            alloc: request,
            borrowed: ResourceVec::ZERO,
            profile,
        };
        Some(self.finish_spawn(sidx, node, now, cause, shape))
    }

    /// Shared tail of every spawn path (normal and harvest-backed): charges
    /// the cold start, registers the container and its resource tracks, and
    /// schedules the warm-up and any planned spawn fault. The caller has
    /// already reserved `shape.alloc` (and, for harvest spawns,
    /// `shape.borrowed`) on `node`. RNG draw order is part of the replay
    /// contract: one `rng` jitter draw, then at most one guarded
    /// `fault_rng` draw.
    pub(crate) fn finish_spawn(
        &mut self,
        sidx: usize,
        node: usize,
        now: SimTime,
        cause: DecisionCause,
        shape: SpawnShape,
    ) -> u64 {
        let SpawnShape {
            alloc,
            borrowed,
            profile,
        } = shape;
        let ms = self.stages[sidx].microservice;
        // first spawn of a microservice on a node pays the full image pull;
        // later spawns hit the node's layer cache (runtime init only)
        let cached = self.image_cache[node].contains(&ms);
        let base = if cached {
            ms.spec().warm_node_cold_start()
        } else {
            self.image_cache[node].insert(ms);
            self.stages[sidx].cold_start
        };
        // ±10% cold-start jitter around the image-size model
        let jitter = 0.9 + self.rng.gen_range(0.0..0.2);
        let cold = base.mul_f64(jitter);
        let stage = &mut self.stages[sidx];
        let id = self.containers.next_id();
        let mut c = Container::spawn(id, sidx, node, stage.batch_size, now, cold);
        c.alloc = alloc;
        c.borrowed = borrowed;
        c.usage = profile;
        self.containers.insert(c);
        stage.containers.push(id);
        stage.update_free(id, 0, stage.batch_size);
        stage.containers_spawned += 1;
        stage.allocated += alloc;
        stage.used += profile.idle;
        self.cluster.add_usage(node, profile.idle, now);
        // ids follow spawn order, so the next id counts every spawn
        self.spawn_series
            .push(now, self.containers.next_id() as f64);
        self.live_series.push(now, self.containers.len() as f64);
        self.store.access(StoreOp::ContainerStats);
        self.trace.record(|| SimEvent::Spawn {
            at: now,
            cause,
            container: id,
            stage: sidx,
            node,
        });
        self.queue
            .schedule(now + cold, Event::ContainerWarm { container: id });
        // fault plan: some spawns are doomed — the container dies shortly
        // after creation (image corruption, OOM on init, …). The draw is
        // guarded so an inactive plan never touches the fault RNG.
        if self.cfg.faults.spawn_fail_prob > 0.0
            && self.fault_rng.gen_bool(self.cfg.faults.spawn_fail_prob)
        {
            self.queue.schedule(
                now + self.cfg.faults.spawn_fail_latency,
                Event::ContainerCrash {
                    container: id,
                    fault: FaultKind::SpawnFault,
                },
            );
        }
        id
    }

    /// The retirement step every death path ends in — policy kill, fault
    /// crash and harvest preemption alike: drains the container, refunds
    /// an interrupted task's unexecuted time, releases its usage and
    /// allocation on its stage and node, dissolves the lease it borrowed
    /// through and settles the one it backed, drops it from its stage's
    /// lists, and finally removes it from the table, freeing its
    /// local-queue buffer, and samples the live count. The removal comes
    /// last because settling a dead lender still writes its `lent`.
    pub(crate) fn retire_container(&mut self, cid: u64, now: SimTime) -> Retired {
        let c = &mut self.containers[cid];
        let (stage, node) = (c.stage, c.node);
        let prev_free = c.free_slots();
        let exec_until = c.exec_until;
        // captured before `fail` drains the executing slot: a busy
        // container's death must return its *busy* footprint
        let usage = c.current_usage();
        let (alloc, borrowed, lent) = (c.alloc, c.borrowed, c.lent);
        let lost = c.fail();
        if let Some(until) = exec_until {
            // the interrupted task (always first out of `fail`): undo its
            // in-flight accounting. Its full exec time was charged at
            // dispatch; refunding the unexecuted remainder leaves exactly
            // the wall time it really ran on the books.
            self.stages[stage].executing -= 1;
            self.cluster.set_executing(node, -1);
            let j = &mut self.jobs[lost[0].job];
            j.breakdown.exec = j.breakdown.exec.saturating_sub(until.saturating_since(now));
        }
        self.cluster.sub_usage(node, usage, now);
        self.stages[stage].used -= usage;
        self.stages[stage].allocated -= alloc;
        if !borrowed.is_zero() {
            // a dead borrower's lease dissolves: parts flow back to lenders
            self.dissolve_borrower(cid, now);
        }
        self.cluster.release(node, alloc, now);
        if !lent.is_zero() {
            // a dead lender always re-backs its part: releasing its own
            // allocation freed at least as much as it had lent
            self.settle_dead_lender(cid, now);
        }
        self.stages[stage].remove_free(cid, prev_free);
        self.stages[stage].containers.retain(|&id| id != cid);
        self.containers.retire(cid);
        self.live_series.push(now, self.containers.len() as f64);
        Retired {
            stage,
            node,
            lost,
            interrupted: exec_until.is_some(),
        }
    }

    /// Kills `cid` by injected fault: retires it and bounces every
    /// orphaned task back into the stage's global queue (or drops its job
    /// once the retry budget is spent). Mechanism-side — the policy is
    /// consulted afterwards via `on_container_failed` / `on_node_down`.
    pub(crate) fn crash_container(&mut self, cid: u64, now: SimTime, kind: FaultKind) {
        let Retired {
            stage: sidx,
            node,
            lost,
            interrupted,
        } = self.retire_container(cid, now);
        self.container_failures += 1;
        self.trace.record(|| SimEvent::ContainerFailed {
            at: now,
            fault: kind,
            container: cid,
            stage: sidx,
            node,
        });
        for (i, t) in lost.into_iter().enumerate() {
            self.requeue_or_drop(t, interrupted && i == 0, sidx, now, kind);
        }
    }

    /// Routes one orphaned task: back into the stage queue with a bumped
    /// retry count, or — past `faults.max_retries` — drops the owning job.
    fn requeue_or_drop(
        &mut self,
        t: BoundTask,
        interrupted: bool,
        sidx: usize,
        now: SimTime,
        kind: FaultKind,
    ) {
        self.stages[sidx].lost += 1;
        let retries = t.retries + 1;
        if retries > self.cfg.faults.max_retries {
            self.drop_job(t.job, now, t.retries);
            return;
        }
        // a task that was mid-execution restarts its wait clock at the
        // crash (its earlier wait and partial execution are already on the
        // books); a task that never started keeps its original enqueue
        // time, since its wait is only charged when it eventually starts
        let enqueued = if interrupted { now } else { t.enqueued };
        let task = StageTask {
            job: t.job,
            enqueued,
            job_deadline: self.request(t.job).arrival + self.cfg.slo,
            remaining_work: self.route(t.job).remaining_work[self.jobs[t.job].stage_pos],
            retries,
        };
        self.stages[sidx].requeue(task);
        self.pending_tasks += 1;
        self.peak_queue_depth = self.peak_queue_depth.max(self.pending_tasks as u64);
        self.dirty_stages.insert(sidx as u64);
        self.tasks_requeued += 1;
        self.trace.record(|| SimEvent::TaskRequeued {
            at: now,
            fault: kind,
            job: t.job,
            stage: sidx,
            retries,
        });
    }

    /// Abandons a job whose task exhausted the fault-retry budget. The job
    /// produces no record; `jobs_dropped` keeps the drained-workload and
    /// conservation accounting honest.
    fn drop_job(&mut self, job: usize, now: SimTime, retries: u32) {
        self.jobs.finish(job);
        self.jobs_dropped += 1;
        self.trace.record(|| SimEvent::JobDropped {
            at: now,
            job,
            retries,
        });
        self.last_completion = self.last_completion.max(now);
        if self.workload_drained() {
            // the drop, not a completion, ended the workload
            self.cluster.accrue(now);
            self.meter.sample(&self.cluster, now);
        }
    }

    /// Evicts the least-recently-used idle container cluster-wide,
    /// excluding the stage currently being provisioned (evicting its own
    /// idle capacity to spawn a replacement would be pure cold-start
    /// churn). Returns `false` when nothing is evictable.
    pub(crate) fn evict_lru_idle(&mut self, spawning_stage: usize, now: SimTime) -> bool {
        let victim = self
            .live_containers()
            .filter(|c| c.is_idle() && c.stage != spawning_stage)
            .min_by_key(|c| (c.last_used, c.id))
            .map(|c| c.id);
        match victim {
            Some(cid) => {
                self.kill_container(cid, now, DecisionCause::CapacityEviction);
                true
            }
            None => false,
        }
    }

    /// Kills one idle container and releases its resources (primary
    /// allocation, usage footprint, and any lease it borrowed or backed).
    ///
    /// # Panics
    ///
    /// Panics if the container still holds a task.
    pub(crate) fn kill_container(&mut self, cid: u64, now: SimTime, cause: DecisionCause) {
        assert!(
            self.containers[cid].is_empty(),
            "kill on busy container {cid}"
        );
        let Retired {
            stage: sidx, node, ..
        } = self.retire_container(cid, now);
        self.store.access(StoreOp::ContainerStats);
        self.trace.record(|| SimEvent::Kill {
            at: now,
            cause,
            container: cid,
            stage: sidx,
            node,
        });
    }

    /// Applies a kill decision defensively: a policy may only kill live,
    /// idle containers (the built-in policies always do — they kill from
    /// the expired-idle snapshot — but a custom policy gets a trace record
    /// instead of a broken cluster).
    pub(crate) fn apply_kill(&mut self, cid: u64, now: SimTime, cause: DecisionCause) {
        let valid = self.containers.get(cid).is_some_and(|c| c.is_idle());
        if valid {
            self.kill_container(cid, now, cause);
        } else {
            self.trace.record(|| SimEvent::KillRejected {
                at: now,
                cause,
                container: cid,
            });
        }
    }

    /// Pre-warmed pool floor (§2.2.1): tops each stage back up to the
    /// configured number of unoccupied containers. Mechanism-side because
    /// the floor is a deployment-wide guarantee independent of the resource
    /// manager (the paper discusses it as platform behavior, not policy).
    pub(crate) fn top_up_warm_pool(&mut self, now: SimTime) {
        if self.cfg.min_warm_pool == 0 {
            return;
        }
        for sidx in 0..self.stages.len() {
            // unoccupied: warm-idle, or still cold-starting with an empty
            // local queue — those are unoccupied the moment they warm, so
            // spawning past them would overshoot the floor
            let unoccupied = self.stages[sidx]
                .containers
                .iter()
                .filter(|&&id| self.containers[id].is_empty())
                .count();
            for _ in unoccupied..self.cfg.min_warm_pool {
                if self
                    .spawn_container(sidx, now, DecisionCause::WarmPoolFloor)
                    .is_none()
                {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use fifer_core::rm::RmKind;
    use fifer_metrics::SimDuration;
    use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};

    fn empty_sim(stream: &JobStream) -> Simulation<'_> {
        let cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        Simulation::new(cfg, stream)
    }

    fn tiny_stream() -> JobStream {
        JobStream::generate(
            &PoissonTrace::new(1.0),
            WorkloadMix::Medium,
            SimDuration::from_secs(2),
            1,
        )
    }

    #[test]
    fn evict_with_zero_idle_candidates_is_a_clean_no_op() {
        let stream = tiny_stream();
        let mut sim = empty_sim(&stream);
        // no containers at all
        assert!(!sim.evict_lru_idle(0, SimTime::ZERO));
        // one container, but cold-starting (not idle) → still nothing
        sim.spawn_container(1, SimTime::ZERO, DecisionCause::Startup)
            .expect("empty cluster fits a container");
        assert!(!sim.evict_lru_idle(0, SimTime::ZERO));
        // warm and idle, but it belongs to the spawning stage → excluded
        let warm = sim.containers[0].warm_at();
        sim.containers[0].warm_up(warm);
        let later = warm + SimDuration::from_secs(1);
        assert!(!sim.evict_lru_idle(1, later));
        assert_eq!(
            sim.containers.len(),
            1,
            "no-op evictions must not kill anyone"
        );
        // …and from any other stage's perspective it is fair game
        assert!(sim.evict_lru_idle(0, later));
        assert_eq!(sim.containers.len(), 0);
    }

    #[test]
    fn eviction_picks_the_lru_idle_container() {
        let stream = tiny_stream();
        let mut sim = empty_sim(&stream);
        let a = sim
            .spawn_container(1, SimTime::ZERO, DecisionCause::Startup)
            .unwrap();
        let b = sim
            .spawn_container(1, SimTime::ZERO, DecisionCause::Startup)
            .unwrap();
        let warm = sim.containers[a].warm_at().max(sim.containers[b].warm_at());
        sim.containers[a].warm_up(warm + SimDuration::from_secs(5));
        sim.containers[b].warm_up(warm + SimDuration::from_secs(3));
        // b is least recently used → evicted first
        assert!(sim.evict_lru_idle(0, warm + SimDuration::from_secs(10)));
        assert!(sim.containers.get(b).is_none(), "the victim left the table");
        assert!(sim.containers.get(a).is_some());
    }

    #[test]
    fn rejected_kill_decisions_leave_the_cluster_intact() {
        let stream = tiny_stream();
        let mut sim = empty_sim(&stream);
        let id = sim
            .spawn_container(0, SimTime::ZERO, DecisionCause::Startup)
            .unwrap();
        // cold-starting container: not idle → kill refused
        sim.apply_kill(id, SimTime::ZERO, DecisionCause::IdleDeadline);
        assert!(sim.containers.get(id).is_some());
        assert_eq!(sim.containers.len(), 1);
        // unknown id: refused without panicking
        sim.apply_kill(999, SimTime::ZERO, DecisionCause::IdleDeadline);
        assert_eq!(sim.containers.len(), 1);
        // a valid target goes through
        let warm = sim.containers[id].warm_at();
        sim.containers[id].warm_up(warm);
        let later = warm + SimDuration::from_secs(1);
        sim.apply_kill(id, later, DecisionCause::IdleDeadline);
        assert!(sim.containers.get(id).is_none());
        assert_eq!(sim.containers.len(), 0);
        // double-kill of a dead container: refused
        sim.apply_kill(id, later, DecisionCause::IdleDeadline);
        assert_eq!(sim.containers.len(), 0);
    }
}
