//! Drivers for the motivation figures: 2, 3, 4 and 7.

use crate::runner::Ctx;
use fifer_core::rm::RmKind;
use fifer_metrics::report::{fmt_f64, Table};
use fifer_metrics::{SimDuration, SimTime};
use fifer_workloads::lambda::{LambdaModel, MxnetModel};
use fifer_workloads::{
    Application, JobRequest, JobStream, Microservice, TraceGenerator, WikiLikeTrace, WitsLikeTrace,
    WorkloadMix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Figure 2: cold vs warm start for the 7 MXNet models on the Lambda
/// environment model (one cold invocation, mean of 100 warm ones, §2.2.1).
pub fn fig2(ctx: &Ctx) {
    let model = LambdaModel::default();
    let mut rng = StdRng::seed_from_u64(2);
    let mut t = Table::new(vec![
        "model",
        "cold_exec_ms",
        "cold_rtt_ms",
        "warm_exec_ms",
        "warm_rtt_ms",
        "cold_overhead_ms",
    ]);
    for m in MxnetModel::ALL {
        let (cold, warm) = model.characterize(m, 100, &mut rng);
        t.row(vec![
            m.to_string(),
            fmt_f64(cold.exec_time.as_millis_f64(), 0),
            fmt_f64(cold.rtt.as_millis_f64(), 0),
            fmt_f64(warm.exec_time.as_millis_f64(), 0),
            fmt_f64(warm.rtt.as_millis_f64(), 0),
            fmt_f64(cold.rtt.as_millis_f64() - cold.exec_time.as_millis_f64(), 0),
        ]);
    }
    ctx.emit("fig2_cold_warm", &t);
}

/// Figure 3a: per-stage breakdown of application execution times;
/// Figure 3b: mean/std-dev of each microservice over 100 runs.
pub fn fig3(ctx: &Ctx) {
    let mut a = Table::new(vec![
        "application",
        "stage",
        "microservice",
        "exec_ms",
        "share",
    ]);
    for app in Application::ALL {
        let spec = app.spec();
        let total = spec.total_exec().as_millis_f64();
        for (i, st) in spec.stages().iter().enumerate() {
            let ms = st.mean_exec.as_millis_f64();
            a.row(vec![
                app.to_string(),
                format!("stage{}", i + 1),
                st.microservice.to_string(),
                fmt_f64(ms, 2),
                fmt_f64(ms / total, 3),
            ]);
        }
    }
    ctx.emit("fig3a_stage_breakdown", &a);

    let mut rng = StdRng::seed_from_u64(3);
    let mut b = Table::new(vec!["microservice", "mean_ms", "std_ms"]);
    for ms in Microservice::CHARACTERIZED {
        let spec = ms.spec();
        let samples: fifer_metrics::percentile::Samples = (0..100)
            .map(|_| spec.sample_exec_time(1.0, &mut rng).as_millis_f64())
            .collect();
        b.row(vec![
            ms.to_string(),
            fmt_f64(samples.mean(), 2),
            fmt_f64(samples.std_dev(), 2),
        ]);
    }
    ctx.emit("fig3b_exec_variation", &b);
}

/// Figure 4: the worked example — a burst of simultaneous requests under
/// the baseline RM versus the request-batching RM. The paper's toy chain
/// (3 × ~300 ms stages, 1200 ms SLA, 8 requests → 24 vs 10 containers) maps
/// onto the IMG chain here.
pub fn fig4(ctx: &Ctx) {
    let burst = 8;
    let jobs: Vec<JobRequest> = (0..burst)
        .map(|i| JobRequest {
            id: i,
            app: Application::Img,
            arrival: SimTime::from_millis(1), // simultaneous burst
            input_scale: 1.0,
        })
        .collect();
    let stream = JobStream::from_jobs(jobs, WorkloadMix::Light);
    let mut t = Table::new(vec!["rm", "containers_spawned", "per_stage", "all_met_sla"]);
    for kind in [RmKind::Bline, RmKind::RScale] {
        // the fixed 8-job burst replaces any generated trace
        let rm = kind.config();
        let cfg = fifer_sim::SimConfig {
            rm,
            warmup: SimDuration::ZERO,
            ..fifer_sim::SimConfig::prototype(rm, 1.0)
        };
        let result = fifer_sim::Simulation::new(cfg, &stream).run();
        let per_stage: Vec<String> = Application::Img
            .chain()
            .iter()
            .map(|m| {
                format!(
                    "{m}:{}",
                    result.stages.get(m).map_or(0, |s| s.containers_spawned)
                )
            })
            .collect();
        let met = result.records.iter().all(|r| !r.slo_violated);
        t.row(vec![
            kind.to_string(),
            result.total_spawns.to_string(),
            per_stage.join(" "),
            met.to_string(),
        ]);
    }
    ctx.emit("fig4_worked_example", &t);
}

/// Figure 7: the arrival-rate envelopes of the WITS-like and Wiki-like
/// traces at paper scale, sampled per minute.
pub fn fig7(ctx: &Ctx) {
    let horizon = SimDuration::from_secs(48_000); // ~800 minutes, Fig 7a span
    let wits = WitsLikeTrace::paper_scale(horizon, 7);
    let wiki = WikiLikeTrace::paper_scale();
    let mut csv = String::from("minute,wits_rps,wiki_rps\n");
    let minutes = horizon.as_secs_f64() as u64 / 60;
    let mut t = Table::new(vec!["trace", "avg_rps", "peak_rps", "peak_to_median"]);
    let mut wits_rates = Vec::new();
    let mut wiki_rates = Vec::new();
    for m in 0..minutes {
        let at = SimTime::from_secs(m * 60);
        let wr = wits.rate_at(at);
        let kr = wiki.rate_at(at);
        csv.push_str(&format!("{m},{wr:.1},{kr:.1}\n"));
        wits_rates.push(wr);
        wiki_rates.push(kr);
    }
    for (name, rates) in [("wits", &wits_rates), ("wiki", &wiki_rates)] {
        let mut s: fifer_metrics::percentile::Samples = rates.iter().copied().collect();
        t.row(vec![
            name.to_string(),
            fmt_f64(s.mean(), 0),
            fmt_f64(s.max(), 0),
            fmt_f64(s.max() / s.median(), 1),
        ]);
    }
    ctx.emit("fig7_trace_stats", &t);
    ctx.emit_raw("fig7_trace_series", &csv);
}
