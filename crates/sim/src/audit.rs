//! Runtime invariant auditor: conservation laws checked at event-commit
//! points.
//!
//! With [`SimConfig::audit`](crate::config::SimConfig) set, the driver
//! calls [`Simulation::audit_commit`] after every committed event and
//! [`Simulation::audit_final`] after the queue drains. The auditor is
//! strictly read-only — it never panics mid-run and never mutates
//! simulation state — so an audited run is byte-identical to an unaudited
//! one; violations are collected into
//! [`SimResult::audit_violations`](crate::SimResult) with the offending
//! event's trace context.
//!
//! Checked invariants:
//!
//! * **Request conservation** — every arrived job is in exactly one place:
//!   completed, dropped, in chain transition, pending in a stage queue, or
//!   bound to a container (executing or locally queued).
//! * **Slot and memory accounting** — per-node pod counts, CPU and memory
//!   allocations, and executing counts reconcile with a fresh scan over
//!   the live containers; down nodes host nothing.
//! * **Dispatch safety** — only warm containers execute (never
//!   cold-starting ones), local queues respect batch sizes, and the
//!   free-slot index agrees with actual container occupancy. Stage lists
//!   and free-slot buckets name only live containers of their stage. A
//!   dead container has left the table, drained: `ContainerTable::retire`
//!   asserts it holds no task, and request conservation catches a task
//!   lost on the way.
//! * **Counter reconciliation** — the decision trace's lifetime counters
//!   (spawns, kills, failures, requeues, drops) reconcile with the
//!   driver's totals that end up in the [`SimResult`](crate::SimResult).
//!
//! Cheap O(stages + nodes) checks run on every event. The deep scan over
//! the live containers runs at monitor-tick commits and once more after
//! the queue drains, which keeps `--audit` usable at the 50k-core scale
//! (a per-event deep scan would dominate the run). Dead containers have
//! left the table, so a deep scan costs O(live containers), not
//! O(containers ever spawned). A clean run reports zero violations.

use crate::container::{Container, ContainerState, ContainerTable};
use crate::driver::Simulation;
use crate::engine::Event;
use crate::stage::StageRuntime;
use fifer_core::resources::ResourceVec;
use fifer_metrics::SimTime;

/// Violation messages retained verbatim; past this only the count grows
/// (a broken invariant tends to repeat on every subsequent event).
const MAX_REPORTED: usize = 64;

/// The auditor's accumulated state for one run.
#[derive(Debug, Default)]
pub(crate) struct AuditLog {
    /// Commit points audited.
    pub(crate) checks: u64,
    /// Retained violation messages (capped at [`MAX_REPORTED`]).
    pub(crate) violations: Vec<String>,
    /// All violations, including suppressed ones.
    pub(crate) total_violations: u64,
}

impl AuditLog {
    fn report(&mut self, context: &str, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(format!("{context}: {msg}"));
        }
    }
}

impl Simulation<'_> {
    /// Audits the state the simulation just committed for `event`.
    pub(crate) fn audit_commit(&mut self, now: SimTime, event: &Event) {
        let mut audit = std::mem::take(&mut self.audit);
        audit.checks += 1;
        let mut msgs = Vec::new();
        self.check_cheap(&mut msgs);
        if matches!(event, Event::MonitorTick) {
            self.check_deep(&mut msgs);
        }
        if !msgs.is_empty() {
            let context = format!("t={now} after {event:?}");
            for m in msgs {
                audit.report(&context, m);
            }
        }
        self.audit = audit;
    }

    /// Final audit after the event queue drains: the deep scan plus
    /// end-of-run-only invariants (workload fully accounted, queues empty,
    /// trace counters reconciled).
    pub(crate) fn audit_final(&mut self) {
        let mut audit = std::mem::take(&mut self.audit);
        audit.checks += 1;
        let mut msgs = Vec::new();
        self.check_cheap(&mut msgs);
        self.check_deep(&mut msgs);

        if self.pending_tasks != 0 {
            msgs.push(format!(
                "{} tasks still pending after the event queue drained",
                self.pending_tasks
            ));
        }
        if self.in_transition != 0 {
            msgs.push(format!(
                "{} jobs still in chain transition after the run",
                self.in_transition
            ));
        }
        if self.jobs_done + self.jobs_dropped as usize != self.stream.len() {
            msgs.push(format!(
                "jobs done ({}) + dropped ({}) != stream ({})",
                self.jobs_done,
                self.jobs_dropped,
                self.stream.len()
            ));
        }
        // one witness is enough: the window's front is its oldest
        if let Some(i) = self.jobs.oldest_unfinished() {
            msgs.push(format!("job {i} neither completed nor dropped"));
        }

        for m in msgs {
            audit.report("end of run", m);
        }
        if audit.total_violations > audit.violations.len() as u64 {
            let suppressed = audit.total_violations - audit.violations.len() as u64;
            audit
                .violations
                .push(format!("(+{suppressed} more violations suppressed)"));
        }
        self.audit = audit;
    }

    /// O(stages + nodes) checks, run at every commit point.
    fn check_cheap(&self, out: &mut Vec<String>) {
        let sum_pending: usize = self.stages.iter().map(|s| s.pending()).sum();
        if sum_pending != self.pending_tasks {
            out.push(format!(
                "pending_tasks counter {} != sum of stage queues {}",
                self.pending_tasks, sum_pending
            ));
        }
        if self.cluster.total_pods() != self.live_count {
            out.push(format!(
                "cluster pods {} != live containers {}",
                self.cluster.total_pods(),
                self.live_count
            ));
        }
        // trace counters are plain adds (maintained even with the ring
        // disabled), so they must track the driver's totals continuously
        if self.trace.spawns != self.total_spawns {
            out.push(format!(
                "trace spawns {} != total spawns {}",
                self.trace.spawns, self.total_spawns
            ));
        }
        if self.trace.kills + self.trace.container_failures + self.live_count as u64
            != self.total_spawns
        {
            out.push(format!(
                "kills {} + failures {} + live {} != spawns {}",
                self.trace.kills, self.trace.container_failures, self.live_count, self.total_spawns
            ));
        }
        if self.trace.failed_spawns != self.failed_spawns
            || self.trace.container_failures != self.container_failures
            || self.trace.requeued_tasks != self.tasks_requeued
            || self.trace.dropped_jobs != self.jobs_dropped
        {
            out.push("trace fault counters diverged from driver totals".to_string());
        }
        if self.trace.harvest_spawns != self.harvest_spawns
            || self.trace.leases_created != self.leases_created
            || self.trace.leases_ended != self.leases_ended
            || self.trace.preempted_tasks != self.tasks_preempted
        {
            out.push("trace harvest counters diverged from driver totals".to_string());
        }
        // lease balance: every lease ever created is either still live in
        // the ledger or was ended (dissolved or fully reclaimed)
        if self.leases_created - self.leases_ended != self.ledger.leases.len() as u64 {
            out.push(format!(
                "lease balance broken: {} created - {} ended != {} live",
                self.leases_created,
                self.leases_ended,
                self.ledger.leases.len()
            ));
        }
    }

    /// Deep scan over the live containers: per-node and per-stage resource
    /// accounting, dispatch safety, and request conservation.
    fn check_deep(&self, out: &mut Vec<String>) {
        let nodes = self.cluster.nodes();
        let ContainerScan {
            msgs,
            pods,
            executing,
            bound: bound_total,
            alloc,
            used,
            borrowed,
            lent,
        } = scan_containers(&self.containers, nodes.len());
        out.extend(msgs);

        let alive = self.containers.len();
        if alive != self.live_count {
            out.push(format!(
                "alive containers {} != live_count {}",
                alive, self.live_count
            ));
        }
        for (n, node) in nodes.iter().enumerate() {
            if node.pods != pods[n] {
                out.push(format!("node {n}: pods {} != scan {}", node.pods, pods[n]));
            }
            // integer millicore/MB bookkeeping: the ledgers must reconcile
            // with a fresh scan *exactly* — any drift is a lost or doubled
            // update, not rounding
            if node.allocated != alloc[n] {
                out.push(format!(
                    "node {n}: allocation ledger {:?} != scan {:?}",
                    node.allocated, alloc[n]
                ));
            }
            if node.used != used[n] {
                out.push(format!(
                    "node {n}: usage ledger {:?} != scan {:?}",
                    node.used, used[n]
                ));
            }
            if node.harvested != borrowed[n] {
                out.push(format!(
                    "node {n}: harvested ledger {:?} != borrower scan {:?}",
                    node.harvested, borrowed[n]
                ));
            }
            if borrowed[n] != lent[n] {
                out.push(format!(
                    "node {n}: borrowed {:?} != lent {:?} (lease parts unbalanced)",
                    borrowed[n], lent[n]
                ));
            }
            if self.ledger.node_total(n) != borrowed[n] {
                out.push(format!(
                    "node {n}: ledger parts {:?} != borrower scan {:?}",
                    self.ledger.node_total(n),
                    borrowed[n]
                ));
            }
            // the conservation chain `used ≤ allocated ≤ capacity`: lease
            // backing lives inside idle lenders' headroom, so it never
            // pushes usage past allocation or allocation past capacity
            if !node.used.fits_within(node.allocated) {
                out.push(format!(
                    "node {n}: used {:?} exceeds allocated {:?}",
                    node.used, node.allocated
                ));
            }
            if !node.allocated.fits_within(node.capacity) {
                out.push(format!(
                    "node {n}: allocated {:?} exceeds capacity {:?}",
                    node.allocated, node.capacity
                ));
            }
            if node.executing != executing[n] {
                out.push(format!(
                    "node {n}: executing {} != scan {}",
                    node.executing, executing[n]
                ));
            }
            if !node.up && node.pods != 0 {
                out.push(format!("down node {n} still hosts {} pods", node.pods));
            }
        }

        let listed = scan_stages(&self.stages, &self.containers, out);
        if listed != alive {
            out.push(format!(
                "stage container lists hold {listed} entries but {alive} containers are alive"
            ));
        }

        // request conservation: every arrived job is in exactly one place
        let arrived = self.jobs_arrived as usize;
        let accounted = self.jobs_done
            + self.jobs_dropped as usize
            + self.in_transition
            + self.pending_tasks
            + bound_total;
        if arrived != accounted {
            out.push(format!(
                "request conservation broken: {arrived} arrived, {accounted} accounted \
                 (done {} + dropped {} + transit {} + pending {} + bound {bound_total})",
                self.jobs_done, self.jobs_dropped, self.in_transition, self.pending_tasks
            ));
        }
    }
}

/// Per-node tallies and violation messages from one pass over the live
/// containers.
struct ContainerScan {
    msgs: Vec<String>,
    pods: Vec<usize>,
    executing: Vec<usize>,
    bound: usize,
    /// Per-node sum of primary allocations.
    alloc: Vec<ResourceVec>,
    /// Per-node sum of current usage footprints.
    used: Vec<ResourceVec>,
    /// Per-node sum of lease-backed (borrowed) resources.
    borrowed: Vec<ResourceVec>,
    /// Per-node sum of lent-out headroom.
    lent: Vec<ResourceVec>,
}

/// Dispatch-safety checks and per-node tallies over the live containers.
fn scan_containers(containers: &ContainerTable, num_nodes: usize) -> ContainerScan {
    let mut scan = ContainerScan {
        msgs: Vec::new(),
        pods: vec![0; num_nodes],
        executing: vec![0; num_nodes],
        bound: 0,
        alloc: vec![ResourceVec::ZERO; num_nodes],
        used: vec![ResourceVec::ZERO; num_nodes],
        borrowed: vec![ResourceVec::ZERO; num_nodes],
        lent: vec![ResourceVec::ZERO; num_nodes],
    };
    for c in containers.iter() {
        if matches!(c.state, ContainerState::ColdStarting { .. }) && c.executing.is_some() {
            scan.msgs
                .push(format!("container {} executes while cold-starting", c.id));
        }
        scan.pods[c.node] += 1;
        scan.bound += c.local_queue.len() + usize::from(c.executing.is_some());
        if c.executing.is_some() {
            scan.executing[c.node] += 1;
        }
        scan.alloc[c.node] += c.alloc;
        scan.used[c.node] += c.current_usage();
        scan.borrowed[c.node] += c.borrowed;
        scan.lent[c.node] += c.lent;
        if !c.current_usage().fits_within(c.total_backing()) {
            scan.msgs.push(format!(
                "container {}: usage {:?} exceeds backing {:?}",
                c.id,
                c.current_usage(),
                c.total_backing()
            ));
        }
        if !c.lent.fits_within(c.alloc) {
            scan.msgs.push(format!(
                "container {}: lends {:?} beyond its allocation {:?}",
                c.id, c.lent, c.alloc
            ));
        }
        if c.executing.is_some() != c.exec_until.is_some() {
            scan.msgs.push(format!(
                "container {}: exec_until out of sync with executing task",
                c.id
            ));
        }
        if c.local_queue.len() + usize::from(c.executing.is_some()) > c.batch_size {
            scan.msgs
                .push(format!("container {} overfilled past its batch", c.id));
        }
    }
    scan
}

/// The live container `id` of stage `sidx`, or `None` when `id` retired
/// or serves another stage.
fn member(containers: &ContainerTable, sidx: usize, id: u64) -> Option<&Container> {
    containers.get(id).filter(|c| c.stage == sidx)
}

/// Per-stage index/ledger checks over the stage table; pushes violation
/// messages to `out` and returns the number of stage-listed containers.
fn scan_stages(
    stages: &[StageRuntime],
    containers: &ContainerTable,
    out: &mut Vec<String>,
) -> usize {
    let mut listed = 0usize;
    for (sidx, s) in stages.iter().enumerate() {
        let mut free = 0usize;
        let mut stage_exec = 0usize;
        let mut bound_in_stage = 0usize;
        let mut stage_alloc = ResourceVec::ZERO;
        let mut stage_used = ResourceVec::ZERO;
        let mut seen = std::collections::BTreeSet::new();
        for &id in &s.containers {
            if !seen.insert(id) {
                out.push(format!("stage {sidx} lists container {id} twice"));
            }
            let Some(c) = member(containers, sidx, id) else {
                out.push(format!(
                    "stage {sidx} lists container {id} that is retired or foreign"
                ));
                continue;
            };
            free += c.free_slots();
            stage_exec += usize::from(c.executing.is_some());
            bound_in_stage += c.local_queue.len() + usize::from(c.executing.is_some());
            stage_alloc += c.alloc;
            stage_used += c.current_usage();
        }
        listed += s.containers.len();
        for (slots, id) in s.free_index() {
            if member(containers, sidx, id).is_none_or(|c| c.free_slots() != slots) {
                out.push(format!(
                    "stage {sidx}: free-slot bucket {slots} names container {id}, which is \
                     retired, foreign or holds other than {slots} free slots"
                ));
            }
        }
        if free != s.total_free_slots() {
            out.push(format!(
                "stage {sidx}: free-slot index {} != scan {}",
                s.total_free_slots(),
                free
            ));
        }
        if stage_exec != s.executing {
            out.push(format!(
                "stage {sidx}: executing counter {} != scan {}",
                s.executing, stage_exec
            ));
        }
        if stage_alloc != s.allocated {
            out.push(format!(
                "stage {sidx}: allocation aggregate {:?} != scan {:?}",
                s.allocated, stage_alloc
            ));
        }
        if stage_used != s.used {
            out.push(format!(
                "stage {sidx}: usage aggregate {:?} != scan {:?}",
                s.used, stage_used
            ));
        }
        // per-stage task ledger: everything that entered the queue is
        // pending, bound, executed, or was lost to a fault
        let entered = s.arrivals + s.requeued;
        let accounted = s.tasks_executed + s.lost + s.pending() as u64 + bound_in_stage as u64;
        if entered != accounted {
            out.push(format!(
                "stage {sidx}: {} tasks entered but {} accounted",
                entered, accounted
            ));
        }
    }
    listed
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::driver::Simulation;
    use fifer_core::policy::DecisionCause;
    use fifer_core::rm::RmKind;
    use fifer_metrics::{SimDuration, SimTime};
    use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};

    fn jobs() -> JobStream {
        JobStream::generate(
            &PoissonTrace::new(5.0),
            WorkloadMix::Medium,
            SimDuration::from_secs(5),
            1,
        )
    }

    // the auditor must not be vacuous: a deliberately corrupted ledger has
    // to trip both the cheap pass and the deep scan
    #[test]
    fn corrupted_pending_counter_is_detected() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        s.pending_tasks += 1;
        s.audit_final();
        assert!(s.audit.total_violations > 0);
        assert!(
            s.audit
                .violations
                .iter()
                .any(|v| v.contains("pending_tasks")),
            "expected the pending-task check to fire: {:?}",
            s.audit.violations
        );
    }

    #[test]
    fn corrupted_live_count_is_detected() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        s.live_count += 1;
        let mut msgs = Vec::new();
        s.check_cheap(&mut msgs);
        s.check_deep(&mut msgs);
        assert!(
            msgs.iter().any(|m| m.contains("live")),
            "expected the pod/live reconciliation to fire: {msgs:?}"
        );
    }

    #[test]
    fn corrupted_usage_ledger_is_detected() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        // phantom usage on a node with no containers: the exact-integer
        // usage reconciliation and the `used ≤ allocated` chain both break
        s.cluster
            .add_usage(0, fifer_core::ResourceVec::new(100, 64), SimTime::ZERO);
        let mut msgs = Vec::new();
        s.check_deep(&mut msgs);
        assert!(
            msgs.iter().any(|m| m.contains("usage ledger")),
            "expected the usage reconciliation to fire: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("exceeds allocated")),
            "expected the conservation chain to fire: {msgs:?}"
        );
    }

    #[test]
    fn retired_id_in_a_stage_index_is_reported_not_a_panic() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        let id = s
            .spawn_container(0, SimTime::ZERO, DecisionCause::Startup)
            .expect("an empty cluster fits a container");
        // the table drops the container behind its stage's back: the
        // stage list and the free-slot bucket still name it
        s.containers.retire(id);
        let mut msgs = Vec::new();
        s.check_deep(&mut msgs);
        assert!(
            msgs.iter()
                .any(|m| m.contains(&format!("lists container {id} that is retired"))),
            "expected the stage-list check to fire: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains(&format!("free-slot bucket 1 names container {id}"))),
            "expected the free-slot check to fire: {msgs:?}"
        );
    }

    #[test]
    fn unbalanced_lease_counters_are_detected() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Harvest.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        s.leases_created += 1; // a lease that never reached the ledger
        let mut msgs = Vec::new();
        s.check_cheap(&mut msgs);
        assert!(
            msgs.iter().any(|m| m.contains("lease balance")),
            "expected the lease-balance check to fire: {msgs:?}"
        );
    }

    #[test]
    fn pristine_state_passes_cheap_and_deep_checks() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let s = Simulation::new(cfg, &stream);
        let mut msgs = Vec::new();
        s.check_cheap(&mut msgs);
        s.check_deep(&mut msgs);
        assert!(msgs.is_empty(), "clean state flagged: {msgs:?}");
    }

    #[test]
    fn violation_flood_is_capped_with_a_suppression_note() {
        let stream = jobs();
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.audit = true;
        let mut s = Simulation::new(cfg, &stream);
        for _ in 0..(super::MAX_REPORTED + 10) {
            s.audit.report("test", "boom".to_string());
        }
        s.audit_final(); // appends the suppression note
        assert!(s.audit.violations.len() <= super::MAX_REPORTED + 1);
        assert!(
            s.audit
                .violations
                .last()
                .is_some_and(|v| v.contains("suppressed")),
            "missing suppression note: {:?}",
            s.audit.violations.last()
        );
    }
}
