//! Tests for the structured decision trace: every retained event carries a
//! cause, the lifetime counters reconcile with the run's results, tracing
//! never perturbs the simulation, and the idle-reclaim timing edge cases
//! behave (a reclaimed container costs a fresh cold start; a long enough
//! timeout keeps it warm across an arrival gap).

use fifer_core::policy::DecisionCause;
use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::config::SimConfig;
use fifer_sim::driver::Simulation;
use fifer_sim::trace::SimEvent;
use fifer_sim::SimTrace;
use fifer_workloads::{Application, JobRequest, JobStream, PoissonTrace, WorkloadMix};

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

fn traced_run(
    kind: RmKind,
    rate: f64,
    secs: u64,
    capacity: usize,
) -> (fifer_sim::SimResult, SimTrace) {
    let s = stream(rate, secs, 7);
    let mut cfg = SimConfig::prototype(kind.config(), rate);
    cfg.trace.capacity = capacity;
    Simulation::new(cfg, &s).run_with_trace()
}

/// The trace's lifetime counters must reconcile exactly with the result's
/// container accounting, independent of ring capacity.
#[test]
fn trace_counters_reconcile_with_results() {
    for kind in RmKind::ALL {
        let (result, trace) = traced_run(kind, 5.0, 30, 100_000);
        assert!(!trace.is_empty(), "{kind}: traced run must retain events");
        assert_eq!(
            trace.spawns, result.total_spawns,
            "{kind}: trace spawns must match result"
        );
        assert_eq!(
            trace.failed_spawns, result.failed_spawns,
            "{kind}: trace failed spawns must match result"
        );
        let final_live = result
            .live_containers
            .points()
            .last()
            .map(|&(_, v)| v as u64)
            .unwrap_or(0);
        assert_eq!(
            trace.kills,
            result.total_spawns - final_live,
            "{kind}: every container is either alive at the end or killed"
        );
        // with a huge ring, the retained events match the counters too
        assert_eq!(trace.dropped, 0);
        let spawn_events = trace
            .events()
            .filter(|e| matches!(e, SimEvent::Spawn { .. }))
            .count() as u64;
        let kill_events = trace
            .events()
            .filter(|e| matches!(e, SimEvent::Kill { .. }))
            .count() as u64;
        assert_eq!(spawn_events, trace.spawns);
        assert_eq!(kill_events, trace.kills);
    }
}

/// Cause attribution follows each policy's actual mechanism: Bline spawns
/// only per blocked request, SBatch only at startup, and Fifer (batching)
/// never spawns from a blocked queue.
#[test]
fn causes_attribute_spawns_to_the_right_policy_path() {
    let spawn_causes = |kind: RmKind| -> Vec<DecisionCause> {
        let (_, trace) = traced_run(kind, 5.0, 30, 100_000);
        trace
            .events()
            .filter_map(|e| match e {
                SimEvent::Spawn { cause, .. } => Some(*cause),
                _ => None,
            })
            .collect()
    };

    let bline = spawn_causes(RmKind::Bline);
    assert!(!bline.is_empty());
    assert!(
        bline.iter().all(|&c| c == DecisionCause::QueueBlocked),
        "Bline spawns on demand only"
    );

    let sbatch = spawn_causes(RmKind::SBatch);
    assert!(!sbatch.is_empty());
    assert!(
        sbatch.iter().all(|&c| c == DecisionCause::Startup),
        "SBatch provisions its fixed pool once at startup"
    );

    let fifer = spawn_causes(RmKind::Fifer);
    assert!(!fifer.is_empty());
    assert!(
        fifer.iter().all(|&c| c != DecisionCause::QueueBlocked),
        "a batching RM requeues blocked work instead of spawning per request"
    );
    assert!(
        fifer.contains(&DecisionCause::ReactiveTick),
        "Fifer must scale reactively under this load"
    );
}

/// A saturated ring drops the oldest events but keeps counting.
#[test]
fn ring_saturation_keeps_counters_exact() {
    let (result, trace) = traced_run(RmKind::Bline, 5.0, 30, 8);
    assert_eq!(trace.len(), 8, "ring must be full");
    assert!(trace.dropped > 0, "this run emits far more than 8 events");
    assert_eq!(trace.spawns, result.total_spawns);
    assert_eq!(trace.failed_spawns, result.failed_spawns);
}

/// Tracing is observation only: a traced run and an untraced run of the
/// same workload must produce byte-identical results.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let s = stream(5.0, 30, 11);
    let untraced = {
        let cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        Simulation::new(cfg, &s).run().to_json()
    };
    let traced = {
        let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
        cfg.trace.capacity = 65_536;
        Simulation::new(cfg, &s).run().to_json()
    };
    assert_eq!(untraced, traced);
}

/// Idle reclamation racing a dispatch (§4.4.1 edge case): with a short
/// idle timeout, a quiet gap between two jobs lets the monitor kill the
/// warm container, so the second job pays a second cold start; stretching
/// the timeout past the gap keeps the container warm and the second job
/// reuses it.
#[test]
fn idle_timeout_racing_a_dispatch_costs_a_cold_start() {
    let jobs = vec![
        JobRequest {
            id: 0,
            app: Application::Ipa,
            arrival: SimTime::ZERO,
            input_scale: 1.0,
        },
        JobRequest {
            id: 1,
            app: Application::Ipa,
            arrival: SimTime::from_secs(45),
            input_scale: 1.0,
        },
    ];
    let run = |idle_secs: u64| {
        let s = JobStream::from_jobs(jobs.clone(), WorkloadMix::Medium);
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 1.0);
        cfg.idle_timeout = SimDuration::from_secs(idle_secs);
        cfg.trace.capacity = 4096;
        Simulation::new(cfg, &s).run_with_trace()
    };

    // timeout 20 s < 45 s gap: the pool is reclaimed between the jobs
    let (reclaimed, rtrace) = run(20);
    // timeout 300 s > gap: the pool survives and the second job reuses it
    let (kept, ktrace) = run(300);

    assert_eq!(reclaimed.records.len(), 2);
    assert_eq!(kept.records.len(), 2);
    assert!(
        rtrace.kills > 0,
        "short timeout must reclaim between the jobs"
    );
    assert_eq!(ktrace.kills, 0, "long timeout must not reclaim mid-run");
    assert!(
        rtrace.spawns > ktrace.spawns,
        "reclaim-then-arrival forces respawns ({} vs {})",
        rtrace.spawns,
        ktrace.spawns
    );
    assert!(
        reclaimed.blocking_cold_starts > kept.blocking_cold_starts,
        "the racing job pays the cold start"
    );
    let idle_kills = rtrace
        .events()
        .filter(
            |e| matches!(e, SimEvent::Kill { cause, .. } if *cause == DecisionCause::IdleDeadline),
        )
        .count() as u64;
    assert_eq!(idle_kills, rtrace.kills, "all kills here are idle reclaims");
}
