//! Integration tests for the deterministic fault-injection subsystem and
//! the runtime invariant auditor.
//!
//! The contract under test: an inactive [`FaultPlan`] leaves runs
//! byte-identical to the pre-fault simulator (auditor on or off), an
//! active plan is deterministic under its seed, and no combination of
//! faults and resource managers ever breaks a conservation law.

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::driver::Simulation;
use fifer_sim::fault::{FaultPlan, NodeOutage};
use fifer_sim::results::SimResult;
use fifer_sim::SimConfig;
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

fn run(kind: RmKind, faults: FaultPlan, audit: bool, jobs: &JobStream) -> SimResult {
    let mut cfg = SimConfig::prototype(kind.config(), 6.0);
    cfg.faults = faults;
    cfg.audit = audit;
    Simulation::new(cfg, jobs).run()
}

/// A moderately hostile plan touching every fault class.
fn hostile_plan() -> FaultPlan {
    FaultPlan {
        seed: 77,
        spawn_fail_prob: 0.08,
        spawn_fail_latency: SimDuration::from_millis(400),
        crash_prob: 0.04,
        straggler_prob: 0.10,
        straggler_factor: 3.0,
        max_retries: 16,
        outages: vec![NodeOutage {
            node: 1,
            down_at: SimTime::from_secs(10),
            up_at: SimTime::from_secs(25),
        }],
    }
}

#[test]
fn inactive_plan_is_byte_identical_with_and_without_audit() {
    let jobs = stream(6.0, 30, 3);
    for kind in RmKind::ALL {
        let plain = run(kind, FaultPlan::none(), false, &jobs);
        let audited = run(kind, FaultPlan::none(), true, &jobs);
        assert!(
            audited.audit_violations.is_empty(),
            "{kind}: auditor flagged a fault-free run: {:?}",
            audited.audit_violations
        );
        assert!(audited.audit_checks > 0, "{kind}: auditor never ran");
        assert_eq!(
            plain.to_json(),
            audited.to_json(),
            "{kind}: enabling the auditor changed the artifact of a clean run"
        );
    }
}

#[test]
fn seeded_faults_replay_bit_for_bit() {
    let jobs = stream(6.0, 30, 3);
    let a = run(RmKind::Fifer, hostile_plan(), true, &jobs);
    let b = run(RmKind::Fifer, hostile_plan(), true, &jobs);
    assert!(a.container_failures > 0, "plan injected nothing");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "two runs of the same fault seed diverged"
    );

    // a different fault seed draws a different failure schedule
    let mut other = hostile_plan();
    other.seed = 78;
    let c = run(RmKind::Fifer, other, true, &jobs);
    assert_ne!(
        a.to_json(),
        c.to_json(),
        "fault seed had no effect on the run"
    );
}

#[test]
fn auditor_stays_clean_under_faults_for_every_rm() {
    let jobs = stream(6.0, 30, 3);
    for kind in RmKind::ALL {
        let r = run(kind, hostile_plan(), true, &jobs);
        assert!(
            r.audit_violations.is_empty(),
            "{kind}: auditor violations under faults: {:?}",
            r.audit_violations
        );
        // every job is accounted for: completed with a record or dropped
        assert_eq!(
            r.records.len() as u64 + r.jobs_dropped,
            jobs.len() as u64,
            "{kind}: jobs leaked"
        );
        assert!(r.container_failures > 0, "{kind}: no fault landed");
    }
}

#[test]
fn crashed_tasks_are_requeued_and_jobs_still_finish() {
    let jobs = stream(6.0, 30, 3);
    let mut plan = FaultPlan::none();
    plan.seed = 5;
    plan.crash_prob = 0.10;
    let r = run(RmKind::Bline, plan, true, &jobs);
    assert!(r.container_failures > 0);
    assert!(r.tasks_crashed > 0);
    assert!(r.tasks_requeued > 0);
    assert_eq!(r.jobs_dropped, 0, "retry budget should absorb every crash");
    assert_eq!(r.records.len(), jobs.len());
    assert!(r.audit_violations.is_empty(), "{:?}", r.audit_violations);
}

#[test]
fn exhausted_retry_budget_drops_the_job() {
    let jobs = stream(6.0, 30, 3);
    let mut plan = FaultPlan::none();
    plan.seed = 5;
    plan.crash_prob = 0.5;
    plan.max_retries = 0; // first crash drops the job
    let r = run(RmKind::Bline, plan, true, &jobs);
    assert!(r.jobs_dropped > 0, "no job exhausted a zero retry budget");
    assert_eq!(
        r.records.len() as u64 + r.jobs_dropped,
        jobs.len() as u64,
        "dropped jobs must still be accounted"
    );
    assert!(r.audit_violations.is_empty(), "{:?}", r.audit_violations);
}

#[test]
fn node_outage_evacuates_and_the_run_recovers() {
    let jobs = stream(6.0, 40, 3);
    let mut plan = FaultPlan::none();
    plan.outages = vec![NodeOutage {
        node: 0,
        down_at: SimTime::from_secs(8),
        up_at: SimTime::from_secs(20),
    }];
    for kind in RmKind::ALL {
        let r = run(kind, plan.clone(), true, &jobs);
        assert_eq!(r.node_outages, 1, "{kind}: outage not recorded");
        assert_eq!(
            r.records.len() as u64 + r.jobs_dropped,
            jobs.len() as u64,
            "{kind}: outage wedged the run"
        );
        assert!(
            r.audit_violations.is_empty(),
            "{kind}: {:?}",
            r.audit_violations
        );
    }
}

#[test]
fn faulted_runs_reorder_queues_and_replay_bit_identically() {
    // crashes and requeues reorder the stage queues; the same seed must
    // still replay the same run, audit-clean (the indexed queue is checked
    // against the linear-scan scheduler on requeued tasks by `stage.rs`'s
    // queue differential)
    let jobs = stream(6.0, 30, 11);
    for kind in [RmKind::Fifer, RmKind::Bline] {
        let mk = || {
            let mut cfg = SimConfig::prototype(kind.config(), 6.0);
            cfg.faults = hostile_plan();
            cfg.audit = true;
            Simulation::new(cfg, &jobs).run()
        };
        let (a, b) = (mk(), mk());
        assert!(
            a.container_failures > 0 && a.tasks_requeued > 0,
            "{kind}: the plan must actually reorder queues for this test to bite"
        );
        assert!(
            a.audit_violations.is_empty(),
            "{kind}: {:?}",
            a.audit_violations
        );
        assert_eq!(a.to_json(), b.to_json(), "{kind}: same seed diverged");
    }
}

#[test]
fn stragglers_inflate_latency_without_losing_work() {
    let jobs = stream(6.0, 30, 3);
    let mut plan = FaultPlan::none();
    plan.seed = 11;
    plan.straggler_prob = 0.25;
    plan.straggler_factor = 6.0;
    let slow = run(RmKind::SBatch, plan, true, &jobs);
    let base = run(RmKind::SBatch, FaultPlan::none(), false, &jobs);
    assert_eq!(slow.records.len(), jobs.len());
    assert_eq!(slow.container_failures, 0, "stragglers must not kill");
    let p99 = |r: &SimResult| r.headline().p99_ms;
    assert!(
        p99(&slow) > p99(&base),
        "6x stragglers on a quarter of tasks should move the tail: {} vs {}",
        p99(&slow),
        p99(&base)
    );
    assert!(
        slow.audit_violations.is_empty(),
        "{:?}",
        slow.audit_violations
    );
}
