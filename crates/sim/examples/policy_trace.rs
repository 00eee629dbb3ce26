//! A custom resource manager, outside the built-in registry.
//!
//! Demonstrates the policy/mechanism split end to end: a custom
//! `ResourceManager` ("hedge") implemented here — not in fifer-core — is
//! injected through `Simulation::with_resource_manager`, runs against the
//! unmodified mechanism, and its behavior is audited through the decision
//! trace (with optional JSONL export: pass a path as the third argument).
//!
//! The hedge policy spawns on demand like Bline, but over-provisions one
//! extra container per blocked queue (hedging against the next arrival) and
//! reclaims aggressively: every expired-idle container dies, and it also
//! kills down to one container per stage on monitor ticks when a stage's
//! queue is empty.
//!
//! Usage: `cargo run --release --example policy_trace [rate] [secs] [trace.jsonl]`

use fifer_core::policy::{ClusterView, ContainerView, Decision, ResourceManager, StageView};
use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_sim::driver::Simulation;
use fifer_sim::trace::SimEvent;
use fifer_sim::SimConfig;
use fifer_workloads::{JobStream, PoissonTrace, WorkloadMix};

struct HedgePolicy;

impl ResourceManager for HedgePolicy {
    fn name(&self) -> &'static str {
        "hedge"
    }

    // spawn the blocked request's container plus one spare
    fn on_queue_blocked(&mut self, _view: &ClusterView, stage: &StageView) -> Decision {
        Decision::SpawnContainer {
            stage: stage.stage,
            count: 2,
        }
    }

    // reclaim every container that reaches its idle deadline
    fn on_idle_deadline(
        &mut self,
        _view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        for c in expired {
            out.push(Decision::KillContainer {
                container: c.container,
            });
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rate: f64 = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(5.0);
    let secs: u64 = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(60);
    let stream = JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        42,
    );
    println!("jobs={}", stream.len());

    // baseline: registry-built Bline for comparison
    let bline = {
        let cfg = SimConfig::prototype(RmKind::Bline.config(), rate);
        Simulation::new(cfg, &stream).run()
    };

    // the custom policy, with the decision trace enabled
    let mut cfg = SimConfig::prototype(RmKind::Bline.config(), rate);
    cfg.trace.capacity = 65_536;
    let (hedge, trace) =
        Simulation::with_resource_manager(cfg, &stream, Box::new(HedgePolicy)).run_with_trace();

    for (name, r) in [("bline", &bline), ("hedge", &hedge)] {
        let h = r.headline();
        println!(
            "{name:>6}: slo={:.3} avgC={:.1} spawns={} med={:.0}ms p99={:.0}ms energy={:.1}kJ",
            h.slo_violations,
            h.avg_containers,
            r.total_spawns,
            h.median_ms,
            h.p99_ms,
            h.energy_joules / 1000.0
        );
    }

    // audit the hedge run through its trace
    println!(
        "trace: {} events retained ({} dropped), spawns={} kills={} failed={} dispatched={}",
        trace.len(),
        trace.dropped,
        trace.spawns,
        trace.kills,
        trace.failed_spawns,
        trace.dispatched_tasks,
    );
    let mut by_cause: std::collections::BTreeMap<&str, usize> = Default::default();
    for e in trace.events() {
        if let SimEvent::Spawn { cause, .. } = e {
            *by_cause.entry(cause.as_str()).or_default() += 1;
        }
    }
    println!("spawns by cause: {by_cause:?}");
    if let Some(path) = args.get(3) {
        std::fs::write(path, trace.to_jsonl()).expect("write the decision trace");
        println!("decision trace written to {path}");
    }
}
