//! Drivers for the real-system-prototype figures (§6.1): Figures 8–12, 15
//! and the §6.1.5 overheads table. All use the Poisson λ = 50 trace on the
//! 80-core prototype cluster, as in the paper.

use crate::perf::{deep_queue_tasks, drain_indexed, time_median};
use crate::runner::{normalized, Ctx, RunSpec};
use fifer_core::rm::RmKind;
use fifer_core::scheduling::SchedulingPolicy;
use fifer_metrics::report::{fmt_f64, Table};
use fifer_metrics::SimDuration;
use fifer_sim::stats_store::StatsStore;
use fifer_sim::SimResult;
use fifer_workloads::{Application, WorkloadMix};
use std::sync::Arc;

/// Runs the five RMs on one mix (cached across figures).
fn rm_runs(ctx: &Ctx, mix: WorkloadMix) -> Vec<(RmKind, Arc<SimResult>)> {
    let specs: Vec<RunSpec> = RmKind::ALL
        .iter()
        .map(|&k| RunSpec::prototype(k.to_string(), k.config(), mix))
        .collect();
    let results = ctx.run_all(specs);
    RmKind::ALL.into_iter().zip(results).collect()
}

/// Figure 8: SLO violations and average containers per mix, absolute and
/// normalized to Bline.
pub fn fig8(ctx: &Ctx) {
    let mut t = Table::new(vec![
        "workload",
        "rm",
        "slo_violations_whole_run",
        "slo_norm_bline",
        "slo_violations_steady",
        "avg_containers",
        "containers_norm_bline",
    ]);
    for mix in WorkloadMix::ALL {
        let runs = rm_runs(ctx, mix);
        let bline = runs
            .iter()
            .find(|(k, _)| *k == RmKind::Bline)
            .map(|(_, r)| {
                (
                    r.slo_whole_run.violation_fraction(),
                    r.avg_live_containers(),
                )
            })
            .expect("Bline always runs");
        for (kind, r) in &runs {
            t.row(vec![
                mix.to_string(),
                kind.to_string(),
                fmt_f64(r.slo_whole_run.violation_fraction(), 4),
                normalized(r.slo_whole_run.violation_fraction(), bline.0),
                fmt_f64(r.slo_violation_fraction(), 4),
                fmt_f64(r.avg_live_containers(), 1),
                normalized(r.avg_live_containers(), bline.1),
            ]);
        }
    }
    ctx.emit("fig8_slo_containers", &t);
}

/// Figure 8 with error bars: the headline comparison replicated across
/// five seeds (mean ± sample std) — confidence the paper's single-run
/// bars don't show.
pub fn fig8_ci(ctx: &Ctx) {
    let seeds = if ctx.quick { 2 } else { 5 };
    let mut t = Table::new(vec![
        "rm",
        "slo_violations_whole_run",
        "avg_containers",
        "median_ms",
        "p99_ms",
        "spawns",
    ]);
    for kind in RmKind::ALL {
        let spec = RunSpec::prototype(kind.to_string(), kind.config(), WorkloadMix::Heavy);
        let sweep = ctx.run_seeds(spec, seeds);
        t.row(vec![
            kind.to_string(),
            sweep.slo_whole.display(4),
            sweep.avg_containers.display(1),
            sweep.median_ms.display(0),
            sweep.p99_ms.display(0),
            sweep.spawns.display(0),
        ]);
    }
    ctx.emit("fig8_ci_seed_sweep", &t);
}

/// Figure 9: P99 tail-latency breakdown for the heavy mix. Measured over
/// the whole run (warmup included), as the paper does — the cold-start
/// component of the tail comes from scale-out transients.
pub fn fig9(ctx: &Ctx) {
    let mut t = Table::new(vec![
        "rm",
        "p99_total_ms",
        "p99_exec_ms",
        "p99_cold_start_ms",
        "p99_queuing_ms",
        "p999_total_ms",
        "p999_cold_start_ms",
    ]);
    let specs: Vec<RunSpec> = RmKind::ALL
        .iter()
        .map(|&k| {
            let mut s = RunSpec::prototype(k.to_string(), k.config(), WorkloadMix::Heavy);
            s.warmup = fifer_metrics::SimDuration::ZERO;
            s
        })
        .collect();
    for (kind, r) in RmKind::ALL.into_iter().zip(ctx.run_all(specs)) {
        let mut s = r.breakdown_summary();
        let (e, c, q) = s.p99_components_ms();
        // the cold-start tail sits beyond P99 at our violation rates
        // (~0.3% of jobs block on a spawn); P99.9 exposes it
        let mut cold = fifer_metrics::percentile::Samples::new();
        for rec in &r.records {
            cold.push(rec.breakdown.cold_start.as_millis_f64());
        }
        t.row(vec![
            kind.to_string(),
            fmt_f64(s.total_percentile_ms(99.0), 0),
            fmt_f64(e, 0),
            fmt_f64(c, 0),
            fmt_f64(q, 0),
            fmt_f64(s.total_percentile_ms(99.9), 0),
            fmt_f64(cold.percentile(99.9), 0),
        ]);
    }
    ctx.emit("fig9_p99_breakdown", &t);
}

/// Figure 10a: response-latency CDF up to P95; 10b: queuing-time
/// distribution (quartiles) for the heavy mix.
pub fn fig10(ctx: &Ctx) {
    let runs = rm_runs(ctx, WorkloadMix::Heavy);
    let mut cdf_csv = String::from("rm,latency_ms,fraction\n");
    let mut t = Table::new(vec![
        "rm",
        "queue_p25_ms",
        "queue_median_ms",
        "queue_p75_ms",
        "queue_p95_ms",
    ]);
    for (kind, r) in &runs {
        let mut s = r.breakdown_summary();
        let cdf = s.total_samples_mut().cdf(95.0);
        for (v, f) in cdf.downsample(100) {
            cdf_csv.push_str(&format!("{kind},{v:.1},{f:.4}\n"));
        }
        let q = s.queuing_samples_mut();
        t.row(vec![
            kind.to_string(),
            fmt_f64(q.percentile(25.0), 1),
            fmt_f64(q.percentile(50.0), 1),
            fmt_f64(q.percentile(75.0), 1),
            fmt_f64(q.percentile(95.0), 1),
        ]);
    }
    ctx.emit_raw("fig10a_latency_cdf", &cdf_csv);
    ctx.emit("fig10b_queuing_distribution", &t);
}

/// Figure 11: container distribution across the IPA chain's stages.
pub fn fig11(ctx: &Ctx) {
    let chain = Application::Ipa.chain();
    let mut headers = vec!["rm".to_string()];
    headers.extend(
        chain
            .iter()
            .enumerate()
            .map(|(i, m)| format!("stage{}_{m}_share", i + 1)),
    );
    let mut t = Table::new(headers);
    for (kind, r) in rm_runs(ctx, WorkloadMix::Heavy) {
        let shares = r.stage_container_shares(chain);
        let mut row = vec![kind.to_string()];
        row.extend(shares.iter().map(|s| fmt_f64(*s, 3)));
        t.row(row);
    }
    ctx.emit("fig11_stage_distribution", &t);
}

/// Figure 12a: jobs executed per container (RPC) per IPA stage;
/// 12b: cumulative containers spawned over 10 s intervals.
pub fn fig12(ctx: &Ctx) {
    let chain = Application::Ipa.chain();
    let mut a = Table::new(vec!["rm", "stage", "microservice", "jobs_per_container"]);
    let runs = rm_runs(ctx, WorkloadMix::Heavy);
    for (kind, r) in &runs {
        for (i, m) in chain.iter().enumerate() {
            let rpc = r.stages.get(m).map_or(0.0, |s| s.requests_per_container());
            a.row(vec![
                kind.to_string(),
                format!("stage{}", i + 1),
                m.to_string(),
                fmt_f64(rpc, 1),
            ]);
        }
    }
    ctx.emit("fig12a_jobs_per_container", &a);

    let mut csv = String::from("rm,interval_10s,cumulative_containers\n");
    for (kind, r) in &runs {
        let series = r
            .cumulative_spawns
            .sample_hold(SimDuration::from_secs(10), r.horizon, 0.0);
        for (i, v) in series.iter().enumerate() {
            csv.push_str(&format!("{kind},{i},{v:.0}\n"));
        }
    }
    ctx.emit_raw("fig12b_cumulative_containers", &csv);
}

/// Figure 15: cluster-wide energy, absolute and normalized to Bline, plus
/// the consolidation evidence (average active nodes).
pub fn fig15(ctx: &Ctx) {
    let mut t = Table::new(vec![
        "rm",
        "energy_kj",
        "energy_norm_bline",
        "avg_active_nodes",
    ]);
    let runs = rm_runs(ctx, WorkloadMix::Heavy);
    let bline = runs
        .iter()
        .find(|(k, _)| *k == RmKind::Bline)
        .map(|(_, r)| r.energy_joules)
        .expect("Bline always runs");
    for (kind, r) in &runs {
        t.row(vec![
            kind.to_string(),
            fmt_f64(r.energy_joules / 1e3, 1),
            normalized(r.energy_joules, bline),
            fmt_f64(r.active_nodes.time_weighted_mean(r.horizon, 0.0), 2),
        ]);
    }
    ctx.emit("fig15_energy", &t);
}

/// §6.1.5 system overheads: modeled store latency plus measured wall-clock
/// costs of the scheduling-path operations.
pub fn overheads(ctx: &Ctx) {
    let mut t = Table::new(vec!["operation", "latency", "paper_reported"]);

    // stats-store access (modeled constant)
    let store = StatsStore::paper_default();
    t.row(vec![
        "stats-store read/write (modeled)".into(),
        format!("{:.2} ms", store.mean_latency().as_millis_f64()),
        "~1.25 ms".into(),
    ]);

    // LSF decisions through the indexed stage queue the simulator
    // dispatches from: fill it 1000 deep, drain it, cost per task
    let tasks = deep_queue_tasks(1000);
    let mut sink = 0u64;
    let drain = time_median(101, || {
        sink ^= drain_indexed(&tasks, SchedulingPolicy::Lsf);
    });
    std::hint::black_box(sink);
    let lsf_us = drain.as_secs_f64() * 1e6 / tasks.len() as f64;
    t.row(vec![
        "LSF push + pop (1000-deep indexed queue)".into(),
        format!("{lsf_us:.3} µs"),
        "~0.35 ms".into(),
    ]);

    // LSTM inference
    let mut lstm = fifer_predict::LstmPredictor::paper_default(1);
    let series: Vec<f64> = (0..200)
        .map(|i| 50.0 + (i as f64 * 0.3).sin() * 20.0)
        .collect();
    use fifer_predict::LoadPredictor;
    let quick_cfg = fifer_predict::train::TrainConfig {
        epochs: if ctx.quick { 3 } else { 20 },
        ..Default::default()
    };
    let mut lstm_q = fifer_predict::LstmPredictor::new(quick_cfg, 32, 1, 2);
    lstm_q.pretrain(&series);
    for &v in &series[180..] {
        lstm.observe(v);
        lstm_q.observe(v);
    }
    let t0 = std::time::Instant::now();
    let iters = 200;
    let mut acc = 0.0;
    for _ in 0..iters {
        acc += lstm_q.forecast();
    }
    let infer_ms = t0.elapsed().as_secs_f64() * 1e3 / iters as f64;
    assert!(acc.is_finite());
    t.row(vec![
        "LSTM inference (off critical path)".into(),
        format!("{infer_ms:.3} ms"),
        "~2.5 ms".into(),
    ]);

    // container spawn range from the image model
    let fastest = fifer_workloads::Microservice::Nlp
        .spec()
        .cold_start_time(150.0);
    let slowest = fifer_workloads::Microservice::Hs
        .spec()
        .cold_start_time(150.0);
    t.row(vec![
        "container spawn incl. image pull".into(),
        format!(
            "{:.1}-{:.1} s",
            fastest.as_secs_f64(),
            slowest.as_secs_f64()
        ),
        "2-9 s".into(),
    ]);
    ctx.emit("overheads", &t);
}
