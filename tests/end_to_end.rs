//! Cross-crate integration: every resource manager drives a full workload
//! through the simulator with the policy layer, predictors and workloads
//! plugged together.

use fifer::prelude::*;

fn stream(rate: f64, secs: u64, mix: WorkloadMix, seed: u64) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        mix,
        SimDuration::from_secs(secs),
        seed,
    )
}

/// The prototype config for `kind` at `rate`, scanning idle containers as
/// `fifer` does over a `secs`-second run: every 10 s for keep-alive RMs,
/// so HybridHist makes its own keep-alive decisions.
fn config(kind: RmKind, rate: f64, secs: u64) -> SimConfig {
    let mut cfg = SimConfig::prototype(kind.config(), rate);
    let scenario = Scenario {
        secs,
        ..Scenario::default()
    };
    cfg.idle_timeout = scenario.idle_timeout(&cfg.rm);
    cfg
}

/// Asserts HybridHist's records differ from Bline's on at least one of
/// `runs` (kind, records) — otherwise its keep-alive policy never acted.
fn assert_hybridhist_differs_from_bline(runs: &[(RmKind, SimResult)]) {
    let records = |want: RmKind| runs.iter().filter(move |(k, _)| *k == want);
    let differs = records(RmKind::HybridHist)
        .zip(records(RmKind::Bline))
        .any(|((_, h), (_, b))| h.records != b.records);
    assert!(differs, "HybridHist ran as Bline on every stream");
}

#[test]
fn all_rms_complete_every_job_on_every_mix() {
    let mut runs = Vec::new();
    for mix in WorkloadMix::ALL {
        let s = stream(6.0, 40, mix, 1);
        for kind in RmKind::ALL {
            let r = Simulation::new(config(kind, 6.0, 40), &s).run();
            assert_eq!(
                r.records.len(),
                s.len(),
                "{kind}/{mix}: every job must complete"
            );
            assert!(r.failed_spawns == 0 || r.total_spawns > 0);
            runs.push((kind, r));
        }
    }
    assert_hybridhist_differs_from_bline(&runs);
}

#[test]
fn latency_breakdown_accounts_for_every_microsecond() {
    let s = stream(10.0, 60, WorkloadMix::Heavy, 2);
    let mut runs = Vec::new();
    for kind in RmKind::ALL {
        let r = Simulation::new(config(kind, 10.0, 60), &s).run();
        for rec in &r.records {
            assert_eq!(
                rec.breakdown.total(),
                rec.response_latency(),
                "{kind}: job {} breakdown must sum to its response latency",
                rec.job_id
            );
        }
        runs.push((kind, r));
    }
    assert_hybridhist_differs_from_bline(&runs);
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let s = stream(8.0, 30, WorkloadMix::Medium, 3);
    let run = || {
        let cfg = SimConfig::prototype(RmKind::Fifer.config(), 8.0);
        Simulation::new(cfg, &s).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.records, b.records);
    assert_eq!(a.total_spawns, b.total_spawns);
    assert_eq!(a.energy_joules, b.energy_joules);
}

#[test]
fn different_seeds_differ() {
    let a_stream = stream(8.0, 30, WorkloadMix::Medium, 4);
    let b_stream = stream(8.0, 30, WorkloadMix::Medium, 5);
    let run = |s: &JobStream| {
        let cfg = SimConfig::prototype(RmKind::Bline.config(), 8.0);
        Simulation::new(cfg, s).run()
    };
    assert_ne!(run(&a_stream).records, run(&b_stream).records);
}

#[test]
fn warmup_excludes_early_jobs_from_metrics() {
    let s = stream(10.0, 60, WorkloadMix::Light, 6);
    let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 10.0);
    cfg.warmup = SimDuration::from_secs(30);
    let r = Simulation::new(cfg, &s).run();
    let post_warmup = s
        .iter()
        .filter(|j| j.arrival >= SimTime::from_secs(30))
        .count();
    assert_eq!(r.records.len(), post_warmup);
    assert_eq!(r.slo_whole_run.total() as usize, s.len());
    assert!(r
        .records
        .iter()
        .all(|rec| rec.submitted >= SimTime::from_secs(30)));
}

#[test]
fn cluster_capacity_is_respected() {
    // drive far more load than a tiny cluster can hold; the simulator must
    // degrade gracefully, never exceed capacity, and still finish
    let s = stream(40.0, 30, WorkloadMix::Heavy, 7);
    let mut cfg = SimConfig::prototype(RmKind::Bline.config(), 40.0);
    cfg.cluster.nodes = 1; // 32 containers max
    let r = Simulation::new(cfg, &s).run();
    assert_eq!(r.records.len(), s.len());
    let max_live = r
        .live_containers
        .points()
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max);
    assert!(
        max_live <= 32.0,
        "live containers {max_live} exceeded the 32-slot cluster"
    );
}

#[test]
fn stage_arrivals_match_chain_lengths() {
    let s = stream(8.0, 40, WorkloadMix::Heavy, 8);
    let cfg = SimConfig::prototype(RmKind::Fifer.config(), 8.0);
    let r = Simulation::new(cfg, &s).run();
    // Heavy = IPA (3 stages) + DetectFatigue (4 stages); total stage tasks
    // must equal the sum of chain lengths over jobs
    let expected: u64 = s.iter().map(|j| j.app.chain().len() as u64).sum();
    let total_tasks: u64 = r.stages.values().map(|st| st.tasks_executed).sum();
    assert_eq!(total_tasks, expected);
}

#[test]
fn non_batching_rms_use_singleton_containers() {
    let s = stream(10.0, 30, WorkloadMix::Medium, 9);
    for kind in [RmKind::Bline, RmKind::BPred] {
        let cfg = SimConfig::prototype(kind.config(), 10.0);
        let r = Simulation::new(cfg, &s).run();
        // with batch size 1 a request never queues behind another in a
        // container, so queuing time can only come from cluster-full waits
        let queued: f64 = r.queuing_times_ms().iter().sum();
        let total: f64 = r
            .records
            .iter()
            .map(|rec| rec.response_latency().as_millis_f64())
            .sum();
        assert!(
            queued < total * 0.05,
            "{kind}: non-batching queuing share should be negligible ({queued:.0}ms of {total:.0}ms)"
        );
    }
}

#[test]
fn batching_rms_respect_stage_batch_limits() {
    // the median queuing delay under Fifer must stay within the largest
    // stage slack — the invariant B_size is derived from
    let s = stream(15.0, 60, WorkloadMix::Light, 10);
    let cfg = SimConfig::prototype(RmKind::Fifer.config(), 15.0);
    let r = Simulation::new(cfg, &s).run();
    let mut q: Vec<f64> = r.queuing_times_ms();
    q.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = q[q.len() / 2];
    let max_slack = Application::Img.spec().total_slack().as_millis_f64();
    assert!(
        median <= max_slack,
        "median queuing {median}ms should fit within app slack {max_slack}ms"
    );
}

#[test]
fn shared_stages_are_deduplicated() {
    // Medium mix: IPA (ASR,NLP,QA) + IMG (IMC,NLP,QA) → 4 distinct stages
    let s = stream(5.0, 20, WorkloadMix::Medium, 11);
    let cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
    let r = Simulation::new(cfg, &s).run();
    assert_eq!(r.stages.len(), 4, "NLP and QA must be shared across apps");
}

#[test]
fn unshared_stages_are_separate() {
    let s = stream(5.0, 20, WorkloadMix::Medium, 12);
    let mut cfg = SimConfig::prototype(RmKind::Fifer.config(), 5.0);
    cfg.share_stages = false;
    let r = Simulation::new(cfg, &s).run();
    // per-app stages: stats still key by microservice (4 distinct), but the
    // shared ones now have independent pools — observable as at least as
    // many containers as the shared variant
    assert_eq!(r.stages.len(), 4);
}
