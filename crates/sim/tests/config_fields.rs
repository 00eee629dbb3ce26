//! Every `SimConfig` and `RmConfig` field changes a short run, or observes
//! it without changing it. The destructuring in
//! `every_config_field_has_a_row` names each field with no `..`, so a new
//! field fails to compile until it is named there and given a row.

use fifer_core::{
    BatchingMode, ContainerSelection, NodePlacement, RmConfig, RmKind, ScalingMode,
    SchedulingPolicy, SlackPolicy,
};
use fifer_metrics::SimDuration;
use fifer_sim::{FaultPlan, Scenario, SimConfig, SimResult, Simulation};
use fifer_workloads::{JobStream, WorkloadMix};

/// FNV-1a 64 over a serialized artifact.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x00000100000001b3)
    })
}

/// The short run every row starts from: 400 s of Poisson arrivals at
/// 10 req/s over the medium mix, whose two chains share their NLP and QA
/// stages. 400 s is long enough for online retraining, whose first round
/// comes after 30 monitor samples (300 s).
fn scenario() -> Scenario {
    Scenario {
        mix: WorkloadMix::Medium,
        rate: 10.0,
        secs: 400,
        ..Scenario::default()
    }
}

/// The scenario's config for `kind`, with the decision trace on.
fn base(kind: RmKind, stream: &JobStream) -> SimConfig {
    let mut cfg = scenario().config(kind.config(), stream);
    cfg.trace.capacity = 1 << 16;
    cfg
}

/// A run's result and the digests of its result JSON and its decisions.
fn digest(cfg: SimConfig, stream: &JobStream) -> (SimResult, u64, u64) {
    let (r, trace) = Simulation::new(cfg, stream).run_with_trace();
    let json = fnv1a(r.to_json().as_bytes());
    (r, json, fnv1a(trace.to_jsonl().as_bytes()))
}

/// One row per field: the RM whose run the field must change, and the
/// move away from that run's value.
type Row = (&'static str, RmKind, fn(&mut SimConfig));

#[test]
fn every_config_field_has_a_row() {
    // no `..`: a new field fails to compile here until it has a row below
    let SimConfig {
        rm:
            RmConfig {
                batching: _,
                scaling: _,
                scheduling: _,
                container_selection: _,
                placement: _,
                harvest: _,
                keepalive: _,
                online_retrain: _,
            },
        cluster: _,
        slo: _,
        idle_timeout: _,
        expected_avg_rate: _,
        pretrain_series: _,
        warmup: _,
        share_stages: _,
        early_exit_prob: _,
        tenants: _,
        min_warm_pool: _,
        seed: _,
        trace: _,
        faults: _,
        audit: _,
    } = SimConfig::prototype(RmKind::Bline.config(), 1.0);

    let moved: [Row; 20] = [
        ("rm.batching", RmKind::Bline, |c| {
            c.rm.batching = BatchingMode::Dynamic(SlackPolicy::Proportional)
        }),
        ("rm.scaling", RmKind::Bline, |c| {
            c.rm.scaling = ScalingMode::Reactive
        }),
        ("rm.scheduling", RmKind::RScale, |c| {
            c.rm.scheduling = SchedulingPolicy::Fifo
        }),
        ("rm.container_selection", RmKind::Bline, |c| {
            c.rm.container_selection = ContainerSelection::GreedyLeastFreeSlots
        }),
        ("rm.placement", RmKind::Bline, |c| {
            c.rm.placement = NodePlacement::GreedyBinPack
        }),
        ("rm.harvest", RmKind::Bline, |c| c.rm.harvest = true),
        // the keep-alive policy acts through the 10 s idle scan its
        // scenario gives it
        ("rm.keepalive", RmKind::HybridHist, |c| {
            c.rm.keepalive.enabled = false
        }),
        ("rm.online_retrain", RmKind::Fifer, |c| {
            c.rm.online_retrain = true
        }),
        ("cluster", RmKind::Bline, |c| c.cluster.nodes += 1),
        ("slo", RmKind::Bline, |c| c.slo = c.slo / 4),
        ("idle_timeout", RmKind::Bline, |c| {
            c.idle_timeout = SimDuration::from_secs(10)
        }),
        ("expected_avg_rate", RmKind::SBatch, |c| {
            c.expected_avg_rate *= 4.0
        }),
        ("pretrain_series", RmKind::Fifer, |c| {
            c.pretrain_series.clear()
        }),
        ("warmup", RmKind::Bline, |c| c.warmup = c.warmup * 2),
        ("share_stages", RmKind::Bline, |c| c.share_stages = false),
        ("early_exit_prob", RmKind::Bline, |c| {
            c.early_exit_prob = 0.5
        }),
        ("tenants", RmKind::Bline, |c| c.tenants = 3),
        ("min_warm_pool", RmKind::Bline, |c| c.min_warm_pool = 2),
        ("seed", RmKind::Bline, |c| c.seed += 1),
        ("faults", RmKind::Bline, |c| {
            c.faults = FaultPlan::sampled(3, c.cluster.nodes, 400)
        }),
    ];
    let stream = scenario().stream();
    for (field, kind, moved) in moved {
        let before = base(kind, &stream);
        let mut after = before.clone();
        moved(&mut after);
        let (_, json, jsonl) = digest(before, &stream);
        let (_, moved_json, moved_jsonl) = digest(after, &stream);
        assert_ne!(
            (json, jsonl),
            (moved_json, moved_jsonl),
            "moving {field} changes nothing under {kind}"
        );
    }

    // the observers: records, modelled metrics and decisions stay put,
    // and only their own counters move
    let (r, json, jsonl) = digest(base(RmKind::Harvest, &stream), &stream);
    assert!(jsonl != fnv1a(b"") && r.audit_checks == 0);
    let mut audited = base(RmKind::Harvest, &stream);
    audited.audit = true;
    let (audit, audit_json, audit_jsonl) = digest(audited, &stream);
    assert_eq!(
        (audit_json, audit_jsonl),
        (json, jsonl),
        "audit moved the run"
    );
    assert!(audit.audit_checks > 0 && audit.audit_violations.is_empty());
    let mut untraced = base(RmKind::Harvest, &stream);
    untraced.trace.capacity = 0;
    let (_, untraced_json, untraced_jsonl) = digest(untraced, &stream);
    assert_eq!(untraced_json, json, "the trace moved the run");
    assert_eq!(
        untraced_jsonl,
        fnv1a(b""),
        "a trace of capacity 0 records nothing"
    );
}
