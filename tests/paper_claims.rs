//! Shape-level assertions of the paper's headline claims, at scales small
//! enough for the test suite. Absolute numbers differ from the paper (see
//! EXPERIMENTS.md); these tests pin the *orderings* that every figure is
//! about.
//!
//! Two tiers share one set of assertion helpers:
//!
//! * **tier 1 (default)** — downscaled runs, memoized across tests so the
//!   expensive Bline/Fifer pair is simulated once per binary;
//! * **full scale (`--ignored`)** — the original paper-scale parameters,
//!   run by the slow CI lane (`cargo test -- --ignored`).

use fifer::prelude::*;
use fifer::sim::driver::window_max_series;
use fifer::sim::scenario::pretrain_series;
use std::sync::OnceLock;

fn poisson_stream(rate: f64, secs: u64, mix: WorkloadMix) -> JobStream {
    JobStream::generate(
        &PoissonTrace::new(rate),
        mix,
        SimDuration::from_secs(secs),
        42,
    )
}

fn run(kind: RmKind, s: &JobStream, rate: f64, warmup: u64) -> fifer::sim::SimResult {
    let mut cfg = SimConfig::prototype(kind.config(), rate);
    cfg.warmup = SimDuration::from_secs(warmup);
    cfg.idle_timeout = SimDuration::from_secs(120);
    cfg.pretrain_series = pretrain_series(&cfg.rm, s);
    Simulation::new(cfg, s).run()
}

/// The Bline/Fifer pair four headline claims compare. Simulated once per
/// scale and shared across tests (the two runs dominate the binary's
/// wall-clock).
struct HeavyPair {
    bline: fifer::sim::SimResult,
    fifer: fifer::sim::SimResult,
}

fn heavy_pair(rate: f64, secs: u64, warmup: u64) -> HeavyPair {
    let s = poisson_stream(rate, secs, WorkloadMix::Heavy);
    HeavyPair {
        bline: run(RmKind::Bline, &s, rate, warmup),
        fifer: run(RmKind::Fifer, &s, rate, warmup),
    }
}

/// Tier-1 scale: high enough load that batching, consolidation and spawn
/// suppression all separate cleanly, short enough to stay in the fast lane.
fn heavy_pair_fast() -> &'static HeavyPair {
    static PAIR: OnceLock<HeavyPair> = OnceLock::new();
    PAIR.get_or_init(|| heavy_pair(20.0, 300, 100))
}

/// The paper-scale pair (25 req/s for 7 minutes), for the slow lane.
fn heavy_pair_full() -> &'static HeavyPair {
    static PAIR: OnceLock<HeavyPair> = OnceLock::new();
    PAIR.get_or_init(|| heavy_pair(25.0, 420, 150))
}

/// §1/§6: "Fifer spawns up to 80% fewer containers on average" than the
/// reactive non-queuing baseline.
fn assert_spawn_reduction(p: &HeavyPair) {
    assert!(
        (p.fifer.total_spawns as f64) < 0.5 * p.bline.total_spawns as f64,
        "Fifer {} vs Bline {} spawns",
        p.fifer.total_spawns,
        p.bline.total_spawns
    );
}

/// §6.1.3: Fifer's container utilization (requests per container) beats
/// the non-batching schemes by a wide margin (paper: 4×).
fn assert_utilization(p: &HeavyPair) {
    assert!(
        p.fifer.overall_rpc() > 2.0 * p.bline.overall_rpc(),
        "Fifer RPC {:.1} vs Bline {:.1}",
        p.fifer.overall_rpc(),
        p.bline.overall_rpc()
    );
}

/// §6.1.4: bin-packing consolidation yields cluster-wide energy savings
/// (paper: 31% vs Bline).
fn assert_energy_savings(p: &HeavyPair) {
    assert!(
        p.fifer.energy_joules < 0.9 * p.bline.energy_joules,
        "Fifer {:.0}J vs Bline {:.0}J",
        p.fifer.energy_joules,
        p.bline.energy_joules
    );
}

/// §6.1.2: batching raises the median latency relative to Bline but keeps
/// requests inside the SLO by construction.
fn assert_median_tradeoff(p: &HeavyPair) {
    assert!(
        p.fifer.median_latency_ms() > p.bline.median_latency_ms(),
        "batching must raise the median ({} vs {})",
        p.fifer.median_latency_ms(),
        p.bline.median_latency_ms()
    );
    assert!(
        p.fifer.median_latency_ms() < 1000.0,
        "median must stay within the 1000ms SLO"
    );
}

#[test]
fn fifer_spawns_far_fewer_containers_than_bline() {
    assert_spawn_reduction(heavy_pair_fast());
}

#[test]
fn fifer_utilization_beats_bline() {
    assert_utilization(heavy_pair_fast());
}

#[test]
fn fifer_saves_energy_versus_bline() {
    assert_energy_savings(heavy_pair_fast());
}

#[test]
fn batching_trades_median_latency_within_slo() {
    assert_median_tradeoff(heavy_pair_fast());
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn fifer_spawns_far_fewer_containers_than_bline_full_scale() {
    assert_spawn_reduction(heavy_pair_full());
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn fifer_utilization_beats_bline_full_scale() {
    assert_utilization(heavy_pair_full());
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn fifer_saves_energy_versus_bline_full_scale() {
    assert_energy_savings(heavy_pair_full());
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn batching_trades_median_latency_within_slo_full_scale() {
    assert_median_tradeoff(heavy_pair_full());
}

/// §6.2: on a bursty trace, SBatch's fixed pool collapses while Fifer
/// scales; Fifer also spawns fewer containers than reactive-only RScale.
fn assert_bursty_separation(scale: f64, secs: u64, trace_seed: u64, warmup: u64, mix: WorkloadMix) {
    let horizon = SimDuration::from_secs(secs);
    let trace = WitsLikeTrace::scaled(scale, horizon, trace_seed);
    let s = JobStream::generate(&trace, mix, horizon, trace_seed);
    let rate = s.len() as f64 / secs as f64;
    let sbatch = run(RmKind::SBatch, &s, rate, warmup);
    let rscale = run(RmKind::RScale, &s, rate, warmup);
    let fifer = run(RmKind::Fifer, &s, rate, warmup);
    assert!(
        sbatch.slo_whole_run.violation_fraction() > 3.0 * fifer.slo_whole_run.violation_fraction(),
        "SBatch ({:.3}) must violate far more than Fifer ({:.3}) on bursts",
        sbatch.slo_whole_run.violation_fraction(),
        fifer.slo_whole_run.violation_fraction()
    );
    assert!(
        fifer.spawns_in_window() <= rscale.spawns_in_window(),
        "proactive Fifer ({}) must not out-spawn reactive RScale ({})",
        fifer.spawns_in_window(),
        rscale.spawns_in_window()
    );
}

#[test]
fn bursty_trace_separates_the_schemes() {
    assert_bursty_separation(0.08, 600, 5, 150, WorkloadMix::Light);
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn bursty_trace_separates_the_schemes_full_scale() {
    assert_bursty_separation(0.08, 900, 5, 200, WorkloadMix::Heavy);
}

/// §2.2.1: queuing at warm containers beats spawning when cold starts
/// dominate — every blocking cold start in Bline is a whole-SLO hit.
#[test]
fn bline_cold_starts_violate_the_slo() {
    let s = poisson_stream(25.0, 180, WorkloadMix::Light);
    let bline = run(RmKind::Bline, &s, 25.0, 0);
    // jobs that waited on a cold container cannot make a 1000ms SLO given
    // the ≥1.3s runtime-init floor
    let cold_hit = bline
        .records
        .iter()
        .filter(|r| !r.breakdown.cold_start.is_zero())
        .count();
    let violations = bline.slo_whole_run.violations() as usize;
    assert!(
        violations >= cold_hit / 2,
        "cold-start waits ({cold_hit}) should drive Bline violations ({violations})"
    );
}

/// Table 4: the computed application slack reproduces the paper's numbers.
#[test]
fn table4_slack_reproduced() {
    for (app, paper_ms) in [
        (Application::FaceSecurity, 788.0),
        (Application::Img, 700.0),
        (Application::Ipa, 697.0),
        (Application::DetectFatigue, 572.0),
    ] {
        let got = app.spec().total_slack().as_millis_f64();
        assert!(
            (got - paper_ms).abs() < 1.0,
            "{app}: slack {got} vs paper {paper_ms}"
        );
    }
}

/// §4.5.1: the LSTM forecasts the bursty WITS trace more accurately than
/// the naive moving-window average (the paper's Figure 6a evaluation
/// setting).
fn assert_lstm_beats_mwa(secs: u64, epochs: usize) {
    use fifer::predict::train::{train_test_split, TrainConfig};
    use fifer::predict::{rmse, LstmPredictor, MovingWindowAverage};
    let horizon = SimDuration::from_secs(secs);
    let trace = WitsLikeTrace::scaled(0.5, horizon, 9);
    let arrivals = trace.generate(horizon, 9);
    let series = window_max_series(&arrivals, 5);
    let (train, test) = train_test_split(&series);

    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let eval = |p: &mut dyn fifer::predict::LoadPredictor| {
        p.pretrain(train);
        for &v in &train[train.len() - 20..] {
            p.observe(v);
        }
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for &v in test {
            preds.push(p.forecast());
            actuals.push(v);
            p.observe(v);
        }
        rmse(&preds, &actuals)
    };
    let lstm = eval(&mut LstmPredictor::new(cfg, 16, 1, 2));
    let mwa = eval(&mut MovingWindowAverage::paper_default());
    assert!(lstm < mwa, "LSTM rmse {lstm:.1} must beat MWA {mwa:.1}");
}

#[test]
fn lstm_beats_mwa_on_dynamic_load() {
    assert_lstm_beats_mwa(1800, 10);
}

#[test]
#[ignore = "full paper scale; run with cargo test -- --ignored"]
fn lstm_beats_mwa_on_dynamic_load_full_scale() {
    assert_lstm_beats_mwa(3000, 15);
}
