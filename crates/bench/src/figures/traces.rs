//! Drivers for the trace-driven large-scale figures (§6.2): 13, 14 and 16.
//!
//! The paper runs these on the 2500-core event-driven simulator at the
//! traces' full rates; we run at 1/10 of both rate and capacity (same
//! load-to-capacity ratio), which preserves the queueing/scaling dynamics
//! every comparison is about.

use crate::runner::{normalized, Ctx, RunSpec};
use fifer_core::rm::RmKind;
use fifer_metrics::report::{fmt_f64, Table};
use fifer_sim::{Arrivals, SimResult};
use fifer_workloads::WorkloadMix;
use std::sync::Arc;

/// The two traces with their row labels, each at a tenth of its
/// paper-scale average rate (Wiki 1500, WITS 240 req/s).
const TRACES: [(&str, Arrivals, f64); 2] = [
    ("wiki", Arrivals::Wiki, 150.0),
    ("wits", Arrivals::Wits, 24.0),
];

/// Runs every RM for one (trace, mix) pair.
fn trace_runs(
    ctx: &Ctx,
    (_, arrivals, rate): (&str, Arrivals, f64),
    mix: WorkloadMix,
) -> Vec<(RmKind, Arc<SimResult>)> {
    let specs: Vec<RunSpec> = RmKind::ALL
        .iter()
        .map(|&k| RunSpec::large_scale(k.to_string(), k.config(), mix, arrivals, rate))
        .collect();
    let results = ctx.run_all(specs);
    RmKind::ALL.into_iter().zip(results).collect()
}

/// Figure 13: SLO violations and average containers for Wiki and WITS,
/// all three mixes, normalized to Bline.
pub fn fig13(ctx: &Ctx) {
    let mut t = Table::new(vec![
        "trace",
        "workload",
        "rm",
        "slo_violations_whole_run",
        "slo_norm_bline",
        "slo_violations_steady",
        "avg_containers",
        "containers_norm_bline",
    ]);
    for trace in TRACES {
        for mix in WorkloadMix::ALL {
            let runs = trace_runs(ctx, trace, mix);
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
                    trace.0.to_string(),
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
    }
    ctx.emit("fig13_trace_slo_containers", &t);
}

/// Figure 14: median and P99 latency for Wiki and WITS, all mixes.
pub fn fig14(ctx: &Ctx) {
    let mut t = Table::new(vec!["trace", "workload", "rm", "median_ms", "p99_ms"]);
    for trace in TRACES {
        for mix in WorkloadMix::ALL {
            for (kind, r) in trace_runs(ctx, trace, mix) {
                t.row(vec![
                    trace.0.to_string(),
                    mix.to_string(),
                    kind.to_string(),
                    fmt_f64(r.median_latency_ms(), 0),
                    fmt_f64(r.p99_latency_ms(), 0),
                ]);
            }
        }
    }
    ctx.emit("fig14_trace_latency", &t);
}

/// Figure 16: cold starts incurred over the measured (post-warmup) window
/// for both traces (the paper plots a 2-hour snapshot; our horizon is the
/// 2-hour run minus warmup). SBatch never cold-starts after t = 0 and is
/// omitted, as in the paper.
pub fn fig16(ctx: &Ctx) {
    let mut t = Table::new(vec![
        "trace",
        "rm",
        "cold_starts",
        "blocking_cold_starts",
        "norm_bline",
    ]);
    for trace in TRACES {
        let runs = trace_runs(ctx, trace, WorkloadMix::Heavy);
        let bline = runs
            .iter()
            .find(|(k, _)| *k == RmKind::Bline)
            .map(|(_, r)| r.spawns_in_window() as f64)
            .expect("Bline always runs");
        for (kind, r) in &runs {
            if *kind == RmKind::SBatch {
                continue;
            }
            t.row(vec![
                trace.0.to_string(),
                kind.to_string(),
                r.spawns_in_window().to_string(),
                r.blocking_cold_starts.to_string(),
                normalized(r.spawns_in_window() as f64, bline),
            ]);
        }
    }
    ctx.emit("fig16_cold_starts", &t);
}
