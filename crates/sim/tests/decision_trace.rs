//! Tests for the structured decision trace: every retained event carries a
//! cause, the stream holds every decision and ends in the ring's lines, a
//! complete trace's events add up to the run's totals, tracing never
//! perturbs the simulation, and the idle-reclaim timing edge cases behave
//! (a reclaimed container costs a fresh cold start; a long enough timeout
//! keeps it warm across an arrival gap).

use fifer_core::policy::DecisionCause;
use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::config::SimConfig;
use fifer_sim::driver::Simulation;
use fifer_sim::trace::SimEvent;
use fifer_sim::{Arrivals, FaultPlan, Scenario, SimResult, SimTrace};
use fifer_workloads::{Application, JobRequest, JobStream, PoissonTrace, WorkloadMix};

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

fn traced_run(kind: RmKind, rate: f64, secs: u64, capacity: usize) -> (SimResult, SimTrace) {
    let s = stream(rate, secs, 7);
    let mut cfg = SimConfig::prototype(kind.config(), rate);
    cfg.trace.capacity = capacity;
    Simulation::new(cfg, &s).run_with_trace()
}

/// The decisions `event` counts in `trace`'s ring.
fn count(trace: &SimTrace, event: fn(&SimEvent) -> bool) -> u64 {
    trace.events().filter(|e| event(e)).count() as u64
}

/// Runs `scenario` under `kind` and the fault plan `faults` with a ring
/// that holds the whole run.
fn complete_run(scenario: &Scenario, kind: RmKind, faults: &str) -> (SimResult, SimTrace) {
    let stream = scenario.stream();
    let mut cfg = scenario.config(kind.config(), &stream);
    cfg.faults = FaultPlan::parse(faults).expect("the fault plan parses");
    cfg.trace.capacity = 1 << 20;
    let (result, trace) = Simulation::new(cfg, &stream).run_with_trace();
    assert_eq!(trace.dropped, 0, "{kind}: the ring must hold the whole run");
    (result, trace)
}

/// Asserts that `trace`'s events add up to `r`'s totals.
fn reconcile(kind: RmKind, r: &SimResult, trace: &SimTrace) {
    let spawns = count(trace, |e| matches!(e, SimEvent::Spawn { .. }));
    let kills = count(trace, |e| matches!(e, SimEvent::Kill { .. }));
    let failures = count(trace, |e| matches!(e, SimEvent::ContainerFailed { .. }));
    let preempts = count(trace, |e| matches!(e, SimEvent::Preempt { .. }));
    let preempted_tasks: usize = trace
        .events()
        .map(|e| match e {
            SimEvent::Preempt { tasks, .. } => *tasks,
            _ => 0,
        })
        .sum();
    let live = r
        .live_containers
        .points()
        .last()
        .map_or(0, |&(_, v)| v as u64);
    assert_eq!(spawns, r.total_spawns, "{kind}: spawns");
    assert_eq!(
        count(trace, |e| matches!(e, SimEvent::SpawnFailed { .. })),
        r.failed_spawns,
        "{kind}: failed spawns"
    );
    assert_eq!(failures, r.container_failures, "{kind}: container failures");
    assert_eq!(
        count(trace, |e| matches!(e, SimEvent::TaskRequeued { .. })),
        r.tasks_requeued,
        "{kind}: requeued tasks"
    );
    assert_eq!(
        count(trace, |e| matches!(e, SimEvent::JobDropped { .. })),
        r.jobs_dropped,
        "{kind}: dropped jobs"
    );
    let leases = count(trace, |e| matches!(e, SimEvent::HarvestLease { .. }));
    assert_eq!(leases, r.harvest_spawns, "{kind}: harvest spawns");
    assert_eq!(leases, r.leases_created, "{kind}: leases created");
    assert_eq!(preempts, r.containers_preempted, "{kind}: preemptions");
    assert_eq!(
        preempted_tasks as u64, r.tasks_preempted,
        "{kind}: preempted tasks"
    );
    assert_eq!(
        kills + failures + preempts + live,
        spawns,
        "{kind}: every container spawned is killed, failed, preempted or alive"
    );
}

/// A complete trace's events add up to the run's totals: the trace keeps
/// no counters of its own, so what it emitted is what is checked. Every
/// RM drops jobs under a retry budget of one, and a WITS harvest run
/// preempts borrowers, so every identity has something to count.
#[test]
fn trace_counters_reconcile_with_results() {
    let plan = "seed=2024,spawn=0.05@400,crash=0.03,straggler=0.1x3,outage=1@30+15";
    let poisson = Scenario {
        rate: 10.0,
        secs: 120,
        ..Scenario::default()
    };
    for kind in RmKind::ALL {
        let (r, trace) = complete_run(&poisson, kind, &format!("{plan},retries=1"));
        assert!(
            r.jobs_dropped > 0,
            "{kind}: a retry budget of one drops jobs"
        );
        reconcile(kind, &r, &trace);
    }
    let wits = Scenario {
        arrivals: Arrivals::Wits,
        rate: 30.0,
        secs: 600,
        seed: 1,
        ..Scenario::default()
    };
    let (r, trace) = complete_run(&wits, RmKind::Harvest, &format!("{plan},retries=16"));
    assert!(r.containers_preempted > 0, "the run preempts borrowers");
    reconcile(RmKind::Harvest, &r, &trace);
}

/// The stream holds every decision, numbered from 0 without a gap, and
/// ends in the lines of a ring fed by the same run: its last 64 when the
/// ring overflows, all of them when the ring holds the run.
#[test]
fn stream_holds_every_decision_and_ends_in_the_ring() {
    let s = stream(5.0, 30, 7);
    let streamed = |capacity: usize| {
        let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
        cfg.trace.capacity = capacity;
        let mut jsonl = Vec::new();
        let mut sim = Simulation::new(cfg, &s);
        sim.stream_decisions(&mut jsonl);
        let (_, trace) = sim.run_with_trace();
        assert!(trace.stream_error.is_none());
        (
            String::from_utf8(jsonl).expect("the JSON Lines are UTF-8"),
            trace,
        )
    };

    let (jsonl, ring) = streamed(64);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(ring.dropped > 0, "the run must overflow a ring of 64");
    assert_eq!(lines.len() as u64, ring.dropped + ring.len() as u64);
    for (seq, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
    }
    assert_eq!(
        lines[lines.len() - 64..].concat(),
        ring.to_jsonl().replace('\n', "")
    );

    let (whole, ring) = streamed(1 << 20);
    assert_eq!(ring.dropped, 0);
    assert_eq!(whole, ring.to_jsonl());
    assert_eq!(whole, jsonl, "the ring's size does not change the stream");
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

/// A saturated ring keeps the complete run's last decisions, with the
/// sequence numbers the complete run gave them.
#[test]
fn saturated_ring_keeps_the_complete_runs_last_decisions() {
    let (_, whole) = traced_run(RmKind::Bline, 5.0, 30, 100_000);
    let (_, ring) = traced_run(RmKind::Bline, 5.0, 30, 8);
    assert_eq!(ring.len(), 8, "ring must be full");
    assert_eq!(ring.dropped as usize, whole.len() - 8);
    let tail: Vec<(u64, &SimEvent)> = whole.entries().skip(whole.len() - 8).collect();
    assert_eq!(ring.entries().collect::<Vec<_>>(), tail);
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
        let mut sim = Simulation::new(cfg, &s);
        sim.stream_decisions(std::io::sink());
        sim.run().to_json()
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
    let kills = |trace: &SimTrace| count(trace, |e| matches!(e, SimEvent::Kill { .. }));
    assert!(
        kills(&rtrace) > 0,
        "short timeout must reclaim between the jobs"
    );
    assert_eq!(kills(&ktrace), 0, "long timeout must not reclaim mid-run");
    assert!(
        reclaimed.total_spawns > kept.total_spawns,
        "reclaim-then-arrival forces respawns ({} vs {})",
        reclaimed.total_spawns,
        kept.total_spawns
    );
    assert!(
        reclaimed.blocking_cold_starts > kept.blocking_cold_starts,
        "the racing job pays the cold start"
    );
    let idle_kills = count(
        &rtrace,
        |e| matches!(e, SimEvent::Kill { cause, .. } if *cause == DecisionCause::IdleDeadline),
    );
    assert_eq!(
        idle_kills,
        kills(&rtrace),
        "all kills here are idle reclaims"
    );
}
