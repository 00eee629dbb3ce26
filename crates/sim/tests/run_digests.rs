//! Pinned run digests: the FNV-1a digest of each case's headline JSON and
//! of its seq-numbered decision-trace JSONL, for every RM, HybridHist on
//! the Azure family, Harvest under faults, a matrix of faulted plans and
//! an audited run. The digests were recorded when the simulator still had
//! three event engines, on which every case was byte-identical; they pin
//! the single event queue to that same commit order. A mismatch means a
//! run's observable output changed — explain it or fix it, never re-pin
//! silently.

use fifer_core::rm::RmKind;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::config::{ClusterConfig, SimConfig};
use fifer_sim::driver::Simulation;
use fifer_sim::fault::FaultPlan;
use fifer_sim::scenario;
use fifer_workloads::{AzureWorkloadConfig, JobStream, PoissonTrace, WitsLikeTrace, WorkloadMix};

/// FNV-1a 64 over a serialized artifact.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x00000100000001b3);
    }
    h
}

fn stream(rate: f64, secs: u64, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        WorkloadMix::Medium,
        SimDuration::from_secs(secs),
        seed,
    )
}

/// Enough points to form training pairs, so the proactive RMs pre-train
/// and the runs exercise forecast-driven scaling.
fn pretrain_series() -> Vec<f64> {
    (0..44)
        .map(|i| 6.0 + 3.0 * (i as f64 * 0.3).sin())
        .collect()
}

/// Runs `cfg` with the decision trace on and asserts the digests of the
/// headline JSON and the trace JSONL.
fn assert_digests(case: &str, mut cfg: SimConfig, s: &JobStream, json: u64, jsonl: u64) {
    cfg.pretrain_series = pretrain_series();
    cfg.trace.capacity = 100_000;
    let (r, trace) = Simulation::new(cfg, s).run_with_trace();
    let trace = trace.to_jsonl();
    assert!(!trace.is_empty(), "{case}: trace must not be empty");
    assert_eq!(
        (fnv1a(r.to_json().as_bytes()), fnv1a(trace.as_bytes())),
        (json, jsonl),
        "{case}: (headline JSON, trace JSONL) digests moved"
    );
}

#[test]
fn every_rm_matches_its_pinned_digests() {
    const PINS: [(RmKind, u64, u64); 7] = [
        (RmKind::Bline, 0x112ed0709202bc40, 0x3aa399a7123a2f47),
        (RmKind::SBatch, 0x1a7a2c3db2d834de, 0xf33bd3bfc88bb2de),
        (RmKind::RScale, 0xdb198a6f4102a040, 0x74cc3d24d327c61c),
        (RmKind::BPred, 0x06deacf5d634de2f, 0x3aa399a7123a2f47),
        (RmKind::Fifer, 0xb34ed450b398ebcc, 0x74cc3d24d327c61c),
        (RmKind::Harvest, 0x29fa47343c2abfd9, 0x19f1b1e088967160),
        (RmKind::HybridHist, 0x112ed0709202bc40, 0x3aa399a7123a2f47),
    ];
    let s = stream(5.0, 45, 17);
    for (kind, json, jsonl) in PINS {
        let cfg = SimConfig::prototype(kind.config(), 5.0);
        assert_digests(&kind.to_string(), cfg, &s, json, jsonl);
    }
    // two more streams, at another rate and seed
    let cfg = SimConfig::prototype(RmKind::Fifer.config(), 6.0);
    let (json, jsonl) = (0xa0ea2a2cec656fb3, 0x3b632fa1d323f2e4);
    assert_digests("Fifer, seed 31", cfg, &stream(6.0, 40, 31), json, jsonl);
    let cfg = SimConfig::prototype(RmKind::Bline.config(), 5.0);
    let (json, jsonl) = (0xc7459371237ab8cc, 0xe1b73fe4fcf608e7);
    assert_digests("Bline, seed 37", cfg, &stream(5.0, 40, 37), json, jsonl);
}

/// HybridHist on the Azure family, with the short 10 s idle scan so
/// keep-alive decisions actually fire.
#[test]
fn hybridhist_on_azure_matches_its_pinned_digests() {
    let azure = AzureWorkloadConfig::paper_default();
    let horizon = SimDuration::from_secs(45);
    let s = azure.generate_stream(horizon, 13);
    assert_eq!(
        s,
        azure.generate_stream(horizon, 13),
        "azure generation must be deterministic in the seed"
    );
    let mut cfg = SimConfig::prototype(RmKind::HybridHist.config(), azure.total_rate);
    cfg.idle_timeout = SimDuration::from_secs(10);
    assert_digests(
        "hybridhist/azure",
        cfg,
        &s,
        0xeaabd8b011e1ee42,
        0x4715011534fb7936,
    );
}

/// Harvesting and right-sizing (the Harvest RM) under a sampled fault
/// plan.
#[test]
fn harvest_under_faults_matches_its_pinned_digests() {
    let mut cfg = SimConfig::prototype(RmKind::Harvest.config(), 6.0);
    cfg.faults = FaultPlan::sampled(3, 5, 40);
    assert_digests(
        "harvest under faults",
        cfg,
        &stream(6.0, 40, 23),
        0x570e2715a980f87c,
        0xdf58377efae61390,
    );
}

/// Four sampled fault plans (spawn faults, crashes, stragglers, outages)
/// and one hand-written node-outage window with crashes, for Bline and
/// Fifer.
#[test]
fn faulted_plans_match_their_pinned_digests() {
    // per plan: (Bline json, Bline jsonl, Fifer json, Fifer jsonl)
    const PINS: [(u64, u64, u64, u64); 5] = [
        (
            0x86a995486086466b,
            0xdcf3720f454fcf4d,
            0x80a56290395a541a,
            0xb45ebe14520b4034,
        ),
        (
            0x7f481d4866fca570,
            0xf1711e5341a4cecb,
            0x06593109158bac02,
            0x20fda155780d8869,
        ),
        (
            0xe6e97b53be23a307,
            0x1aeb3f5c1f86d540,
            0x5bca771da4ec9f40,
            0x107ba4a36a34a1af,
        ),
        (
            0x180aa32cf06b5f94,
            0x645839854233f9f3,
            0x152df0d276309d9d,
            0x2da3a31dceb8560f,
        ),
        (
            0x732c7334c9dd1d57,
            0x543571857a41a089,
            0x79979c78cb827611,
            0x2463fc75db01fb38,
        ),
    ];
    let mut outage = FaultPlan::none();
    outage.crash_prob = 0.05;
    outage.outages.push(fifer_sim::fault::NodeOutage {
        node: 1,
        down_at: SimTime::from_secs(8),
        up_at: SimTime::from_secs(20),
    });
    let plans = (0..4).map(|i| FaultPlan::sampled(i, 5, 40)).chain([outage]);
    let s = stream(6.0, 40, 29);
    for (i, (plan, (bline_json, bline_jsonl, fifer_json, fifer_jsonl))) in
        plans.zip(PINS).enumerate()
    {
        for (kind, json, jsonl) in [
            (RmKind::Bline, bline_json, bline_jsonl),
            (RmKind::Fifer, fifer_json, fifer_jsonl),
        ] {
            let mut cfg = SimConfig::prototype(kind.config(), 6.0);
            cfg.faults = plan.clone();
            assert_digests(&format!("{kind} plan {i}"), cfg, &s, json, jsonl);
        }
    }
}

/// With the invariant auditor on under a sampled fault plan: the run
/// stays clean, audits every commit point, and still matches its pins —
/// auditing is read-only.
#[test]
fn audited_run_stays_clean_and_matches_its_pinned_digests() {
    let s = stream(5.0, 45, 11);
    let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
    cfg.pretrain_series = pretrain_series();
    cfg.audit = true;
    cfg.faults = FaultPlan::sampled(7, 5, 45);
    let r = Simulation::new(cfg.clone(), &s).run();
    assert!(r.audit_violations.is_empty(), "{:?}", r.audit_violations);
    assert_eq!(r.audit_checks, 1_348);
    assert_digests(
        "audited fifer",
        cfg,
        &s,
        0x2ffadf3da16ed756,
        0xd24c435e3be72d0d,
    );
}

/// Full-scale twin (slow lane, `--ignored`): a 50k-core cluster under a
/// 10× WITS burst must finish in single-digit seconds and match its
/// pinned headline digest.
#[test]
#[ignore = "full-scale: ~50k cores, 10x WITS burst; run with --ignored"]
fn burst_50k_cores_matches_its_digest_in_single_digit_seconds() {
    // a two-minute burst window: 3125 nodes x 16 cores = 50k cores; 10x
    // the paper-scale WITS average (240 req/s) is a 2400 req/s burst
    let horizon = SimDuration::from_secs(120);
    let s = JobStream::generate(
        &WitsLikeTrace::scaled(10.0, horizon, 42),
        WorkloadMix::Heavy,
        horizon,
        42,
    );
    assert_eq!(s.len(), 601_222, "burst stream changed");
    let mut cfg = SimConfig::large_scale(
        RmKind::Fifer.config(),
        s.len() as f64 / horizon.as_secs_f64(),
    );
    cfg.cluster = ClusterConfig {
        nodes: 3125,
        cores_per_node: 16.0,
        mem_per_node_gb: 192.0,
    };
    // no warmup: records then cover every job, so the completion
    // accounting below is exact
    cfg.warmup = SimDuration::ZERO;
    cfg.pretrain_series = scenario::pretrain_series(&cfg.rm, &s);
    let t0 = std::time::Instant::now();
    let r = Simulation::new(cfg, &s).run();
    let elapsed = t0.elapsed();
    println!(
        "50k-core burst: {} jobs, {} events in {:.2}s ({:.0} events/s)",
        s.len(),
        r.events_processed,
        elapsed.as_secs_f64(),
        r.events_processed as f64 / elapsed.as_secs_f64(),
    );
    assert_eq!(r.records.len() as u64 + r.jobs_dropped, s.len() as u64);
    assert_eq!(r.events_processed, 4_219_419);
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "50k-core burst took {elapsed:?}, want single-digit seconds"
    );
    assert_eq!(fnv1a(r.to_json().as_bytes()), 0x1d99f864ab297379);
}
