//! Golden-headline regression fixtures.
//!
//! Each entry pins the exact [`fifer_sim::results::Headline`] a resource
//! manager produced on a fixed seed *before* the policy/mechanism split
//! (captured at commit `cc016b9` with `--example golden_gen`). The
//! refactored driver must reproduce every value bit for bit — floats are
//! compared with `==`, not a tolerance — proving the `ResourceManager`
//! decision-hook layer preserved behaviour exactly.
//!
//! Regenerate with `cargo run --release -p fifer-sim --example golden_gen`
//! only when a behaviour change is intentional, and say why in the commit.

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::driver::Simulation;
use fifer_sim::fault::{FaultPlan, NodeOutage};
use fifer_sim::results::Headline;
use fifer_sim::SimConfig;
use fifer_workloads::{AzureWorkloadConfig, JobStream, PoissonTrace, WorkloadMix};

/// (rm, rate, secs, stream seed, expected headline).
#[allow(clippy::excessive_precision)]
const GOLDEN: [(RmKind, f64, u64, u64, Headline); 14] = [
    (
        RmKind::Bline,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.22580645161290322,
            avg_containers: 47.08735797680451,
            median_ms: 304.96500000000003,
            p99_ms: 8785.213729999996,
            cold_starts: 55,
            energy_joules: 15217.165,
        },
    ),
    (
        RmKind::SBatch,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.1693548387096774,
            avg_containers: 4.0,
            median_ms: 306.95050000000003,
            p99_ms: 5184.95482,
            cold_starts: 4,
            energy_joules: 15214.393,
        },
    ),
    (
        RmKind::RScale,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.3064516129032258,
            avg_containers: 7.211386907153425,
            median_ms: 313.243,
            p99_ms: 12833.493559999999,
            cold_starts: 9,
            energy_joules: 15407.995,
        },
    ),
    (
        RmKind::BPred,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.22580645161290322,
            avg_containers: 47.08735797680451,
            median_ms: 304.96500000000003,
            p99_ms: 8785.213729999996,
            cold_starts: 55,
            energy_joules: 15217.165,
        },
    ),
    (
        RmKind::Fifer,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.3064516129032258,
            avg_containers: 7.211386907153425,
            median_ms: 313.243,
            p99_ms: 12833.493559999999,
            cold_starts: 9,
            energy_joules: 15407.995,
        },
    ),
    (
        RmKind::Harvest,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.22580645161290322,
            avg_containers: 46.36193402956568,
            median_ms: 303.3105,
            p99_ms: 8331.075569999999,
            cold_starts: 54,
            energy_joules: 15214.79,
        },
    ),
    (
        RmKind::HybridHist,
        5.0,
        30,
        7,
        Headline {
            slo_violations: 0.22580645161290322,
            avg_containers: 47.08735797680451,
            median_ms: 304.96500000000003,
            p99_ms: 8785.213729999996,
            cold_starts: 55,
            energy_joules: 15217.165,
        },
    ),
    (
        RmKind::Bline,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.08768267223382047,
            avg_containers: 73.58527290165209,
            median_ms: 302.794,
            p99_ms: 6854.82389999998,
            cold_starts: 79,
            energy_joules: 30352.0805,
        },
    ),
    (
        RmKind::SBatch,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.08559498956158663,
            avg_containers: 4.0,
            median_ms: 315.156,
            p99_ms: 4940.659959999999,
            cold_starts: 4,
            energy_joules: 26270.4688,
        },
    ),
    (
        RmKind::RScale,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.12108559498956159,
            avg_containers: 10.704395898343314,
            median_ms: 318.356,
            p99_ms: 11957.90942,
            cold_starts: 12,
            energy_joules: 26332.8576,
        },
    ),
    (
        RmKind::BPred,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.08768267223382047,
            avg_containers: 73.58527290165209,
            median_ms: 302.794,
            p99_ms: 6854.82389999998,
            cold_starts: 79,
            energy_joules: 30352.0805,
        },
    ),
    (
        RmKind::Fifer,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.12108559498956159,
            avg_containers: 10.704395898343314,
            median_ms: 318.356,
            p99_ms: 11957.90942,
            cold_starts: 12,
            energy_joules: 26332.8576,
        },
    ),
    (
        RmKind::Harvest,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.08768267223382047,
            avg_containers: 70.01280572056389,
            median_ms: 302.615,
            p99_ms: 6703.711579999999,
            cold_starts: 75,
            energy_joules: 30351.508,
        },
    ),
    (
        RmKind::HybridHist,
        8.0,
        60,
        11,
        Headline {
            slo_violations: 0.08768267223382047,
            avg_containers: 73.58527290165209,
            median_ms: 302.794,
            p99_ms: 6854.82389999998,
            cold_starts: 79,
            energy_joules: 30352.0805,
        },
    ),
];

/// The fault plan pinned by the faulted goldens below (kept in sync with
/// `golden_fault_plan()` in `examples/golden_gen.rs`): every fault class
/// at once — spawn faults, mid-task crashes, stragglers and one node
/// outage — under fault seed 2024.
fn golden_fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 2024,
        spawn_fail_prob: 0.05,
        spawn_fail_latency: SimDuration::from_millis(400),
        crash_prob: 0.03,
        straggler_prob: 0.10,
        straggler_factor: 3.0,
        max_retries: 16,
        outages: vec![NodeOutage {
            node: 1,
            down_at: SimTime::from_secs(10),
            up_at: SimTime::from_secs(20),
        }],
    }
}

/// Faulted golden fixtures: the exact headlines Bline and Fifer produce on
/// stream seed 7 under [`golden_fault_plan`], auditor on. Pins the fault
/// RNG's draw order — any change to how faults are drawn or applied shows
/// up here even if the happy-path goldens still pass.
#[allow(clippy::excessive_precision)]
const GOLDEN_FAULTED: [(RmKind, Headline); 2] = [
    (
        RmKind::Bline,
        Headline {
            slo_violations: 0.21774193548387097,
            avg_containers: 48.80709411099985,
            median_ms: 310.719,
            p99_ms: 8938.840559999999,
            cold_starts: 92,
            energy_joules: 15223.777,
        },
    ),
    (
        RmKind::Fifer,
        Headline {
            slo_violations: 0.6693548387096774,
            avg_containers: 8.981333073555033,
            median_ms: 5501.0995,
            p99_ms: 17398.59491,
            cold_starts: 30,
            energy_joules: 15339.79,
        },
    ),
];

fn run(kind: RmKind, rate: f64, secs: u64, seed: u64) -> Headline {
    let stream = JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    );
    let cfg = SimConfig::prototype(kind.config(), rate);
    Simulation::new(cfg, &stream).run().headline()
}

#[test]
fn headlines_match_pre_refactor_goldens() {
    for (kind, rate, secs, seed, expected) in GOLDEN {
        let got = run(kind, rate, secs, seed);
        assert_eq!(
            got, expected,
            "{kind} @ rate={rate} secs={secs} seed={seed}: headline drifted from the \
             pre-refactor golden"
        );
    }
}

#[test]
fn faulted_headlines_match_goldens() {
    let stream = JobStream::generate(
        &PoissonTrace::new(5.0),
        WorkloadMix::Medium,
        SimDuration::from_secs(30),
        7,
    );
    for (kind, expected) in GOLDEN_FAULTED {
        let mut cfg = SimConfig::prototype(kind.config(), 5.0);
        cfg.faults = golden_fault_plan();
        cfg.audit = true;
        let r = Simulation::new(cfg, &stream).run();
        assert!(
            r.audit_violations.is_empty(),
            "{kind}: faulted golden run broke an invariant: {:?}",
            r.audit_violations
        );
        assert!(
            r.container_failures > 0,
            "{kind}: the golden fault plan injected nothing"
        );
        assert_eq!(
            r.headline(),
            expected,
            "{kind}: faulted headline drifted from the golden (fault seed 2024)"
        );
    }
}

/// The exact order of the first harvest/reclaim events the Harvest RM
/// produces on stream seed 7 (rate 5.0, 30 s) — pins the lease-creation
/// scan order, the greedy part assignment, and the settle-on-busy
/// reclamation protocol. Regenerate with `--example golden_gen`.
const GOLDEN_HARVEST_EVENTS: [&str; 10] = [
    r#"{"event":"harvest_lease","at_s":3.803777,"container":19,"stage":1,"node":0,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":3.833758,"container":20,"stage":1,"node":1,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"lease_reclaimed","at_s":3.95023,"lender":5,"borrower":19,"node":0,"preempted":false}"#,
    r#"{"event":"harvest_lease","at_s":5.05276,"container":29,"stage":1,"node":2,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":5.455902,"container":31,"stage":2,"node":4,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":5.531276,"container":33,"stage":2,"node":0,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":5.938292,"container":38,"stage":2,"node":3,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":6.014865,"container":40,"stage":2,"node":1,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"harvest_lease","at_s":6.293958,"container":43,"stage":2,"node":3,"parts":2,"cpu_milli":500}"#,
    r#"{"event":"lease_reclaimed","at_s":6.29418,"lender":13,"borrower":43,"node":3,"preempted":false}"#,
];

/// The right-sizer's first decisions in the harvest golden run: one
/// `Resize` per stage at t=30 s (three monitor samples), each also
/// downsizing the stage's warm-idle fleet in place (`shrunk`).
const GOLDEN_RESIZE_EVENTS: [&str; 4] = [
    r#"{"event":"resize","at_s":30,"stage":0,"cpu_milli":25,"mem_mb":303,"shrunk":4}"#,
    r#"{"event":"resize","at_s":30,"stage":1,"cpu_milli":25,"mem_mb":365,"shrunk":3}"#,
    r#"{"event":"resize","at_s":30,"stage":2,"cpu_milli":43,"mem_mb":377,"shrunk":14}"#,
    r#"{"event":"resize","at_s":30,"stage":3,"cpu_milli":30,"mem_mb":297,"shrunk":4}"#,
];

/// The harvesting-enabled golden: the Harvest RM on stream seed 7 must
/// actually harvest (non-zero lease counters), right-size (non-zero
/// in-place shrinks — the 60 s horizon puts the first Resize at t=30 s
/// inside the run), keep every auditor invariant, and reproduce the exact
/// harvest/reclaim and resize event orders above.
#[test]
fn harvest_golden_counters_and_event_order() {
    let stream = JobStream::generate(
        &PoissonTrace::new(5.0),
        WorkloadMix::Medium,
        SimDuration::from_secs(60),
        7,
    );
    let mut cfg = SimConfig::prototype(RmKind::Harvest.config(), 5.0);
    cfg.audit = true;
    cfg.trace.capacity = 1 << 16;
    let (r, trace) = Simulation::new(cfg, &stream).run_with_trace();
    assert!(
        r.audit_violations.is_empty(),
        "harvest golden run broke an invariant: {:?}",
        r.audit_violations
    );
    assert_eq!(r.harvest_spawns, 12, "harvest spawn count drifted");
    assert_eq!(r.leases_created, 12, "lease-creation count drifted");
    assert_eq!(r.leases_ended, 1, "lease-end count drifted");
    assert_eq!(r.lease_parts_reclaimed, 8, "part-reclamation count drifted");
    assert_eq!(r.containers_preempted, 0, "preemption count drifted");
    assert_eq!(r.containers_rightsized, 25, "in-place shrink count drifted");
    assert!(
        r.harvested_core_hours > 0.0,
        "a harvesting run must accrue harvested core-hours"
    );
    let got: Vec<String> = trace
        .events()
        .map(|e| e.to_json())
        .filter(|l| {
            l.contains("\"harvest_lease\"")
                || l.contains("\"lease_reclaimed\"")
                || l.contains("\"preempt\"")
        })
        .take(GOLDEN_HARVEST_EVENTS.len())
        .collect();
    assert_eq!(
        got, GOLDEN_HARVEST_EVENTS,
        "harvest/reclaim event order drifted from the golden"
    );
    let resizes: Vec<String> = trace
        .events()
        .map(|e| e.to_json())
        .filter(|l| l.contains("\"resize\""))
        .take(GOLDEN_RESIZE_EVENTS.len())
        .collect();
    assert_eq!(
        resizes, GOLDEN_RESIZE_EVENTS,
        "right-sizer event order drifted from the golden"
    );
}

/// With harvesting explicitly disabled, the Harvest RM's config must
/// replay Bline's golden byte for byte — the whole resource-model refactor
/// is inert until switched on.
#[test]
fn disabled_harvest_replays_bline_exactly() {
    let bline = run(RmKind::Bline, 5.0, 30, 7);
    let mut cfg = RmKind::Harvest.config();
    cfg.harvest = false;
    let stream = JobStream::generate(
        &PoissonTrace::new(5.0),
        WorkloadMix::Medium,
        SimDuration::from_secs(30),
        7,
    );
    let sim_cfg = SimConfig::prototype(cfg, 5.0);
    let h = Simulation::new(sim_cfg, &stream).run().headline();
    assert_eq!(
        h, bline,
        "Harvest with harvest = false must be Bline bit for bit"
    );
}

/// With the keep-alive policy explicitly disabled, HybridHist's config
/// must replay Bline's golden byte for byte — like harvesting, the
/// histogram layer is inert until switched on.
#[test]
fn disabled_keepalive_replays_bline_exactly() {
    let bline = run(RmKind::Bline, 5.0, 30, 7);
    let mut cfg = RmKind::HybridHist.config();
    cfg.keepalive = fifer_core::rm::KeepAliveConfig::none();
    let stream = JobStream::generate(
        &PoissonTrace::new(5.0),
        WorkloadMix::Medium,
        SimDuration::from_secs(30),
        7,
    );
    let sim_cfg = SimConfig::prototype(cfg, 5.0);
    let h = Simulation::new(sim_cfg, &stream).run().headline();
    assert_eq!(
        h, bline,
        "HybridHist with KeepAliveConfig::none() must be Bline bit for bit"
    );
}

/// The azure golden: the hybrid-histogram policy on the Azure family at
/// its paper defaults (60 s, seed 7, 10 s idle scan). Pins the generated
/// stream's size and per-trigger-class composition, the spawn split, and
/// the exact headline. Regenerate with `--example golden_gen`.
#[test]
fn hybridhist_on_azure_matches_golden() {
    let azure = AzureWorkloadConfig::paper_default();
    let (stream, per_trigger) = azure.generate_labeled(SimDuration::from_secs(60), 7);
    assert_eq!(stream.len(), 1239, "azure stream size drifted");
    assert_eq!(
        per_trigger,
        [981, 11, 233, 14],
        "per-trigger job counts drifted (http,timer,queue,event)"
    );
    let mut cfg = SimConfig::prototype(RmKind::HybridHist.config(), azure.total_rate);
    cfg.idle_timeout = SimDuration::from_secs(10);
    let r = Simulation::new(cfg, &stream).run();
    assert_eq!(r.total_spawns, 234, "spawn count drifted");
    assert_eq!(
        r.blocking_cold_starts, 234,
        "blocking cold-start count drifted"
    );
    assert_eq!(
        r.headline(),
        Headline {
            slo_violations: 0.09765940274414851,
            avg_containers: 91.91528447803576,
            median_ms: 303.404,
            p99_ms: 5632.130059999993,
            cold_starts: 234,
            energy_joules: 30526.8265,
        },
        "azure headline drifted from the golden"
    );
}

/// The goldens cover every named resource manager — a guard so adding a
/// sixth `RmKind` forces a fixture for it too.
#[test]
fn goldens_cover_all_rm_kinds() {
    for kind in RmKind::ALL {
        assert!(
            GOLDEN.iter().any(|(k, ..)| *k == kind),
            "{kind} has no golden fixture"
        );
    }
}
