//! `bench` — perf-trajectory harness for the simulator hot path.
//!
//! Produces `BENCH_simulator.json` with five sections:
//!
//! 1. **dispatch** — drains a synthetic deep stage queue (default depth
//!    10 000) through the indexed priority queue and through the
//!    pre-overhaul linear scan, for LSF and EDF, and reports the speedup.
//! 2. **replay** — replays a Table-4-scale trace-driven run (wiki-like
//!    diurnal arrivals over the full application catalog) once per
//!    resource manager. Predictor pre-training (a one-off offline cost,
//!    §4.5.1) is timed separately from the event replay: `wall_clock_s`
//!    is the sum, `pretrain_s`/`replay_s` the attribution, and
//!    `events_per_sec` is computed against replay time only. RM
//!    pre-training fans out across the thread pool; replays are timed
//!    one at a time so wall-clocks stay uncontended.
//! 3. **nn** — times the Fifer LSTM's pre-training and per-forecast cost
//!    on the replay's own training series, on both the flat-workspace
//!    path and the reference per-step-allocating path (bit-identical by
//!    construction; the differential suites prove it), and reports the
//!    speedups. On top it measures the production serving path: the
//!    early-stopped pretrain (epochs saved, walk-forward accuracy delta
//!    vs the full fixed-epoch run), the checkpoint round-trip (store and
//!    load cost, forecast bit-identity), and `fifer_e2e_s` — the
//!    early-stopped pretrain plus the Fifer event replay, which
//!    `--validate` holds under 10 s on full-scale ≥ 4-core runs.
//! 4. **utilization** — the resource-accounting view of the same replay
//!    runs: allocated vs used core-hours per RM, the waste
//!    (allocated-but-unused core-hours), the harvested core-hours, and
//!    the lease counters. `--validate` enforces that Harvest cuts waste
//!    to ≤ 90% of Bline's without raising the SLO violation fraction by
//!    more than one point — the headline claim of the harvesting layer.
//! 5. **wild** — all seven RMs head-to-head on the Azure-characterization
//!    workload family (heavy-tailed per-app rates, mixed trigger
//!    classes), every RM at the same short 10 s idle scan so the
//!    keep-alive *policy* is the only variable. `--validate` enforces the
//!    hybrid-histogram claim: HybridHist cold-starts strictly less than
//!    Bline (equality would mean the keep-alive policy went inert again)
//!    while its memory-time (time-weighted live containers) stays within
//!    a bounded factor of Bline's on full runs (the quick horizon is
//!    dominated by the histogram warm-up transient).
//!
//! `--validate` re-parses the written JSON and fails (exit 4) if the
//! shape is wrong or a regression floor is crossed — the CI smoke lane.
//!
//! ```text
//! bench                        # full run, writes BENCH_simulator.json
//! bench --quick --validate     # 1/6 horizon + floor checks (CI)
//! bench --depth 50000 --out /tmp/b.json
//! ```

use fifer_bench::json::Json;
use fifer_bench::perf::{deep_queue_tasks, drain_indexed, drain_linear, time_median};
use fifer_bench::runner::{azure_parts, RunSpec, TraceKind};
use fifer_core::rm::RmKind;
use fifer_core::scheduling::SchedulingPolicy;
use fifer_core::WarmStart;
use fifer_metrics::report::write_file;
use fifer_metrics::SimDuration;
use fifer_predict::train::{train_test_split, TrainConfig};
use fifer_predict::{accuracy, LoadPredictor, LstmPredictor, ModelCache, PredictorKind};
use fifer_sim::driver::Simulation;
use fifer_workloads::{AzureWorkloadConfig, WorkloadMix};
use std::hint::black_box;
use std::time::Instant;

struct DispatchRow {
    policy: &'static str,
    indexed_ns: u128,
    linear_ns: u128,
}

struct ReplayRow {
    rm: String,
    warm: WarmStart,
    pretrain_s: f64,
    replay_s: f64,
    events: u64,
    peak_queue_depth: u64,
    jobs: usize,
    slo_violation_fraction: f64,
}

struct UtilRow {
    rm: String,
    alloc_core_hours: f64,
    used_core_hours: f64,
    waste_core_hours: f64,
    harvested_core_hours: f64,
    slo_violation_fraction: f64,
    harvest_spawns: u64,
    leases_created: u64,
    leases_ended: u64,
    containers_preempted: u64,
}

struct WildRow {
    rm: String,
    jobs: usize,
    cold_starts: u64,
    blocking_cold_starts: u64,
    avg_containers: f64,
    slo_violation_fraction: f64,
    median_ms: f64,
    p99_ms: f64,
}

struct WildSection {
    horizon_s: f64,
    apps: usize,
    tail_exponent: f64,
    total_rate: f64,
    rows: Vec<WildRow>,
}

struct NnRow {
    series_len: usize,
    pretrain_ns: u128,
    reference_pretrain_ns: u128,
    forecast_calls: u32,
    forecast_ns_per_call: f64,
    reference_forecast_ns_per_call: f64,
    early_stop: EarlyStopStats,
    warm_start: WarmStartStats,
    /// Production end-to-end Fifer wall-clock: early-stopped pre-training
    /// on the replay's own series plus the measured Fifer event replay.
    fifer_e2e_s: f64,
}

/// Early-stopped production training versus the fixed-epoch paper path,
/// with walk-forward accuracy on the held-out 40% test tail.
struct EarlyStopStats {
    patience: usize,
    min_delta: f64,
    warmup: usize,
    epochs_budget: usize,
    epochs_run: usize,
    pretrain_ns: u128,
    accuracy_full: f64,
    accuracy_early: f64,
    /// `(accuracy_full - accuracy_early) * 100`: percentage points the
    /// early-stopped model gives up (negative when it is *better*).
    accuracy_delta_pct: f64,
}

/// Checkpoint round-trip: serialize the trained model, restore it into a
/// fresh one, and walk both in lockstep over the test tail comparing
/// forecasts bit-for-bit.
struct WarmStartStats {
    store_ns: u128,
    load_ns: u128,
    bit_identical: bool,
}

/// Regression floors for `--validate`. Deliberately conservative — they
/// catch an accidental return to the pre-overhaul implementations, not
/// machine-to-machine noise.
const MIN_DISPATCH_SPEEDUP: f64 = 1.5;
const MIN_FIFER_EVENTS_PER_SEC: f64 = 200_000.0;
const MIN_NN_PRETRAIN_SPEEDUP: f64 = 1.05;
/// Harvesting must cut allocated-but-unused core-hours to at most this
/// fraction of Bline's waste on the same replay…
const MAX_HARVEST_WASTE_VS_BLINE: f64 = 0.9;
/// …without raising the SLO violation fraction by more than one point.
const MAX_HARVEST_SLO_DELTA: f64 = 0.01;
/// On the `wild` section, the hybrid-histogram keep-alive policy must not
/// cold-start more than Bline does at the same 10 s idle scan…
const MAX_WILD_HH_COLD_VS_BLINE: f64 = 1.0;
/// …and the memory it spends to get there (time-weighted live
/// containers) must stay within this factor of Bline's. Full runs only:
/// the quick horizon is dominated by the histogram warm-up transient.
const MAX_WILD_HH_MEMTIME_VS_BLINE: f64 = 1.5;
/// Production end-to-end Fifer (early-stopped pretrain + event replay)
/// must land under this wall-clock on a full-scale run. Hardware-gated:
/// only enforced where the recorded `workers_available` (detected usable
/// cores) is at least 4, and only on full (non-quick) runs where the
/// horizon is Table-4 scale.
const MAX_NN_FIFER_E2E_S: f64 = 10.0;
/// The early-stopped model may give up at most this many percentage
/// points of walk-forward forecast accuracy versus the full fixed-epoch
/// training run.
const MAX_NN_EARLY_STOP_ACCURACY_DELTA_PCT: f64 = 1.0;

fn main() {
    let mut quick = false;
    let mut validate_out = false;
    let mut out = "BENCH_simulator.json".to_string();
    let mut depth = 10_000usize;
    let mut reps = 3usize;
    let mut model_cache: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--validate" => validate_out = true,
            "--out" => out = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--model-cache" => {
                model_cache = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--model-cache needs a directory")),
                )
            }
            "--depth" => {
                depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--depth needs a positive integer"))
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps needs a positive integer"))
            }
            "--help" | "-h" => usage("help"),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if depth == 0 || reps == 0 {
        usage("--depth and --reps must be positive");
    }

    println!("## dispatch microbench: depth {depth}, {reps} reps (median)");
    let tasks = deep_queue_tasks(depth);
    let mut dispatch = Vec::new();
    for (policy, name) in [
        (SchedulingPolicy::Lsf, "lsf"),
        (SchedulingPolicy::Edf, "edf"),
    ] {
        let indexed = time_median(reps, || {
            black_box(drain_indexed(&tasks, policy));
        });
        let linear = time_median(reps, || {
            black_box(drain_linear(&tasks, policy));
        });
        println!(
            "{name}: indexed {:.3} ms, linear {:.3} ms, speedup {:.1}x",
            indexed.as_secs_f64() * 1e3,
            linear.as_secs_f64() * 1e3,
            linear.as_secs_f64() / indexed.as_secs_f64(),
        );
        dispatch.push(DispatchRow {
            policy: name,
            indexed_ns: indexed.as_nanos(),
            linear_ns: linear.as_nanos(),
        });
    }

    println!(
        "\n## trace replay: wiki trace, heavy mix, all RMs{}",
        if quick { " (quick)" } else { "" }
    );
    let spec_for = |kind: RmKind| {
        let mut spec = RunSpec::large_scale(
            kind.to_string(),
            kind.config(),
            WorkloadMix::Heavy,
            TraceKind::Wiki,
        );
        if quick {
            spec = spec.quick();
        }
        spec
    };
    let horizon_s = spec_for(RmKind::Fifer).horizon.as_secs_f64();
    // pre-train every RM's predictor in parallel (offline cost), then
    // time each replay serially so wall-clocks don't contend. With
    // --model-cache, neural pre-training warm-starts from checkpoints
    // left by a previous run (and stores them on a cold run).
    let cache = model_cache.as_ref().map(|dir| {
        ModelCache::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open model cache {dir}: {e}");
            std::process::exit(1);
        })
    });
    let prepared = fifer_core::pool::execute(
        RmKind::ALL.to_vec(),
        fifer_core::pool::default_workers(),
        |kind: RmKind| {
            let (cfg, stream) = spec_for(kind).build_parts();
            let t0 = Instant::now();
            let (rm, warm) = cfg.rm.build_rm_served(
                cfg.seed,
                &cfg.pretrain_series,
                cfg.use_reference_nn,
                cache.as_ref(),
            );
            (kind, cfg, stream, rm, warm, t0.elapsed().as_secs_f64())
        },
    );
    let mut replay = Vec::new();
    let mut utilization = Vec::new();
    for (kind, cfg, stream, rm, warm, pretrain_s) in prepared {
        let sim = Simulation::with_resource_manager(cfg, &stream, rm);
        let t0 = Instant::now();
        let r = sim.run();
        let replay_s = t0.elapsed().as_secs_f64();
        let warm_note = match warm {
            WarmStart::Warm => " [warm-start from model cache]",
            WarmStart::Cold if cache.is_some() => " [cold start, checkpoint stored]",
            _ => "",
        };
        println!(
            "{kind}: pretrain {:.2} s{warm_note}, replay {:.2} s, {} events ({:.0} events/s), peak queue {}, {} jobs",
            pretrain_s,
            replay_s,
            r.events_processed,
            r.events_processed as f64 / replay_s,
            r.peak_queue_depth,
            r.records.len(),
        );
        replay.push(ReplayRow {
            rm: kind.to_string(),
            warm,
            pretrain_s,
            replay_s,
            events: r.events_processed,
            peak_queue_depth: r.peak_queue_depth,
            jobs: r.records.len(),
            slo_violation_fraction: r.slo_violation_fraction(),
        });
        utilization.push(UtilRow {
            rm: kind.to_string(),
            alloc_core_hours: r.alloc_core_hours,
            used_core_hours: r.used_core_hours,
            waste_core_hours: r.alloc_core_hours - r.used_core_hours,
            harvested_core_hours: r.harvested_core_hours,
            slo_violation_fraction: r.slo_violation_fraction(),
            harvest_spawns: r.harvest_spawns,
            leases_created: r.leases_created,
            leases_ended: r.leases_ended,
            containers_preempted: r.containers_preempted,
        });
    }
    println!("\n## utilization: allocated vs used core-hours per RM");
    for u in &utilization {
        println!(
            "{}: alloc {:.2} core-h, used {:.2} core-h, waste {:.2} core-h, harvested {:.2} core-h{}",
            u.rm,
            u.alloc_core_hours,
            u.used_core_hours,
            u.waste_core_hours,
            u.harvested_core_hours,
            if u.harvest_spawns > 0 {
                format!(
                    " ({} harvest spawns, {} leases, {} preemptions)",
                    u.harvest_spawns, u.leases_created, u.containers_preempted
                )
            } else {
                String::new()
            },
        );
    }

    println!(
        "\n## wild: Azure-characterization family, all RMs{}",
        if quick { " (quick)" } else { "" }
    );
    let wild = wild_bench(quick);
    for row in &wild.rows {
        println!(
            "{}: {} jobs, {} cold starts ({} blocking), {:.1} avg containers, \
             slo_viol {:.2}%, median {:.0} ms, p99 {:.0} ms",
            row.rm,
            row.jobs,
            row.cold_starts,
            row.blocking_cold_starts,
            row.avg_containers,
            row.slo_violation_fraction * 100.0,
            row.median_ms,
            row.p99_ms,
        );
    }

    println!("\n## nn: Fifer LSTM pretrain + forecast, optimized vs reference");
    let fifer_replay_s = replay
        .iter()
        .find(|r| r.rm == "Fifer")
        .map(|r| r.replay_s)
        .unwrap_or(0.0);
    let nn = nn_bench(&spec_for(RmKind::Fifer), fifer_replay_s);
    println!(
        "pretrain: optimized {:.2} s, reference {:.2} s, speedup {:.2}x ({} series points)",
        nn.pretrain_ns as f64 / 1e9,
        nn.reference_pretrain_ns as f64 / 1e9,
        nn.reference_pretrain_ns as f64 / nn.pretrain_ns as f64,
        nn.series_len,
    );
    println!(
        "forecast: optimized {:.0} ns/call, reference {:.0} ns/call over {} calls",
        nn.forecast_ns_per_call, nn.reference_forecast_ns_per_call, nn.forecast_calls,
    );
    println!(
        "early stop: {} of {} epochs in {:.2} s (patience {}, min-delta {}, warmup {}), \
         accuracy {:.4} vs full {:.4} ({:+.2} pct points)",
        nn.early_stop.epochs_run,
        nn.early_stop.epochs_budget,
        nn.early_stop.pretrain_ns as f64 / 1e9,
        nn.early_stop.patience,
        nn.early_stop.min_delta,
        nn.early_stop.warmup,
        nn.early_stop.accuracy_early,
        nn.early_stop.accuracy_full,
        -nn.early_stop.accuracy_delta_pct,
    );
    println!(
        "warm start: store {:.2} ms, load {:.2} ms, forecasts bit-identical: {}",
        nn.warm_start.store_ns as f64 / 1e6,
        nn.warm_start.load_ns as f64 / 1e6,
        nn.warm_start.bit_identical,
    );
    println!(
        "fifer end-to-end (early-stopped pretrain + replay): {:.2} s",
        nn.fifer_e2e_s,
    );

    let json = render_json(
        quick,
        depth,
        reps,
        &dispatch,
        horizon_s,
        &replay,
        &nn,
        &utilization,
        &wild,
    );
    if let Err(e) = write_file(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwritten to {out}");

    if validate_out {
        let body = std::fs::read_to_string(&out).unwrap_or_else(|e| {
            eprintln!("error: cannot re-read {out}: {e}");
            std::process::exit(4);
        });
        match validate(&body) {
            Ok(()) => println!("validate: OK (shape + regression floors)"),
            Err(problems) => {
                for p in &problems {
                    eprintln!("validate: {p}");
                }
                std::process::exit(4);
            }
        }
    }
}

/// Runs every RM head-to-head on one Azure-family stream (paper-default
/// family shape, 600 s full / 100 s quick), pre-training the proactive
/// RMs in parallel and replaying each in turn.
fn wild_bench(quick: bool) -> WildSection {
    let azure = AzureWorkloadConfig::paper_default();
    let horizon = SimDuration::from_secs(if quick { 100 } else { 600 });
    let warmup = horizon / 6;
    let prepared = fifer_core::pool::execute(
        RmKind::ALL.to_vec(),
        fifer_core::pool::default_workers(),
        move |kind: RmKind| {
            let (cfg, stream) = azure_parts(kind.config(), &azure, horizon, warmup, 42);
            let rm = cfg
                .rm
                .build_rm_with(cfg.seed, &cfg.pretrain_series, cfg.use_reference_nn);
            (kind, cfg, stream, rm)
        },
    );
    let rows = prepared
        .into_iter()
        .map(|(kind, cfg, stream, rm)| {
            let r = Simulation::with_resource_manager(cfg, &stream, rm).run();
            WildRow {
                rm: kind.to_string(),
                jobs: r.records.len(),
                cold_starts: r.total_spawns,
                blocking_cold_starts: r.blocking_cold_starts,
                avg_containers: r.avg_live_containers(),
                slo_violation_fraction: r.slo_violation_fraction(),
                median_ms: r.median_latency_ms(),
                p99_ms: r.p99_latency_ms(),
            }
        })
        .collect();
    WildSection {
        horizon_s: horizon.as_secs_f64(),
        apps: azure.apps,
        tail_exponent: azure.tail_exponent,
        total_rate: azure.total_rate,
        rows,
    }
}

/// Times the Fifer LSTM on the replay run's own pre-training series:
/// full pre-training on both NN paths, then the per-forecast cost at one
/// forecast per monitor interval of the replay horizon. On top of the
/// paper-path timings it measures the production serving path: early
/// stopping (epochs saved + walk-forward accuracy versus the full run),
/// the checkpoint round-trip (store/load cost + forecast bit-identity),
/// and the end-to-end Fifer wall-clock (early-stopped pretrain plus the
/// replay time measured in the replay section).
fn nn_bench(spec: &RunSpec, fifer_replay_s: f64) -> NnRow {
    let (cfg, _stream) = spec.build_parts();
    let series = &cfg.pretrain_series;
    let forecast_calls =
        (spec.horizon.as_secs_f64() / cfg.monitor_interval.as_secs_f64()).max(1.0) as u32;

    let time_path = |reference: bool| -> (u128, f64) {
        let mut p = PredictorKind::Lstm.build_with(cfg.seed, reference);
        let t0 = Instant::now();
        p.pretrain(series);
        let pretrain_ns = t0.elapsed().as_nanos();
        for &v in &series[series.len().saturating_sub(32)..] {
            p.observe(v);
        }
        let t1 = Instant::now();
        for i in 0..forecast_calls {
            // one observe + forecast per monitor tick, like the live loop
            let sample = series
                .get(i as usize % series.len().max(1))
                .copied()
                .unwrap_or(1.0);
            p.observe(sample);
            black_box(p.forecast());
        }
        let per_call = t1.elapsed().as_nanos() as f64 / f64::from(forecast_calls);
        (pretrain_ns, per_call)
    };
    let (pretrain_ns, forecast_ns_per_call) = time_path(false);
    let (reference_pretrain_ns, reference_forecast_ns_per_call) = time_path(true);

    // --- production path: early-stopped pretrain on the full series.
    // This is what a deployed Fifer pays before replay, so its wall-clock
    // plus the measured Fifer replay is the end-to-end number.
    let prod = TrainConfig::production();
    let mut early_full = LstmPredictor::production(cfg.seed);
    let t0 = Instant::now();
    early_full.pretrain(series);
    let early_pretrain_ns = t0.elapsed().as_nanos();
    let fifer_e2e_s = early_pretrain_ns as f64 / 1e9 + fifer_replay_s;

    // --- accuracy + warm-start on a 60/40 walk-forward split so the test
    // tail is unseen by either model. The fixed-epoch model doubles as
    // the checkpoint donor: restore it into a fresh twin *before* any
    // observations, then walk donor and twin in lockstep comparing
    // forecast bits.
    let (train, test) = train_test_split(series);
    let mut cold = LstmPredictor::paper_default(cfg.seed);
    cold.pretrain(train);
    let t0 = Instant::now();
    let bytes = cold
        .checkpoint()
        .expect("the LSTM always supports checkpointing");
    let store_ns = t0.elapsed().as_nanos();
    let mut warm = LstmPredictor::paper_default(cfg.seed);
    let t0 = Instant::now();
    warm.restore(&bytes)
        .expect("a checkpoint written moments ago must restore");
    let load_ns = t0.elapsed().as_nanos();

    let mut early_split = LstmPredictor::production(cfg.seed);
    early_split.pretrain(train);

    let seed_tail = &train[train.len().saturating_sub(32)..];
    for &v in seed_tail {
        cold.observe(v);
        warm.observe(v);
        early_split.observe(v);
    }
    let mut bit_identical = true;
    let mut preds_full = Vec::with_capacity(test.len());
    let mut preds_early = Vec::with_capacity(test.len());
    for &actual in test {
        let f = cold.forecast();
        if f.to_bits() != warm.forecast().to_bits() {
            bit_identical = false;
        }
        preds_full.push(f);
        preds_early.push(early_split.forecast());
        cold.observe(actual);
        warm.observe(actual);
        early_split.observe(actual);
    }
    let accuracy_full = accuracy(&preds_full, test);
    let accuracy_early = accuracy(&preds_early, test);

    NnRow {
        series_len: series.len(),
        pretrain_ns,
        reference_pretrain_ns,
        forecast_calls,
        forecast_ns_per_call,
        reference_forecast_ns_per_call,
        early_stop: EarlyStopStats {
            patience: prod.patience,
            min_delta: prod.min_delta,
            warmup: prod.warmup,
            epochs_budget: prod.epochs,
            epochs_run: early_full.epochs_trained(),
            pretrain_ns: early_pretrain_ns,
            accuracy_full,
            accuracy_early,
            accuracy_delta_pct: (accuracy_full - accuracy_early) * 100.0,
        },
        warm_start: WarmStartStats {
            store_ns,
            load_ns,
            bit_identical,
        },
        fifer_e2e_s,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    depth: usize,
    reps: usize,
    dispatch: &[DispatchRow],
    horizon_s: f64,
    replay: &[ReplayRow],
    nn: &NnRow,
    utilization: &[UtilRow],
    wild: &WildSection,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"simulator\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"workers_available\": {},\n",
        fifer_core::pool::detected_cores()
    ));
    s.push_str(&format!(
        "  \"dispatch\": {{\n    \"depth\": {depth},\n    \"reps\": {reps},\n    \"policies\": {{\n"
    ));
    for (i, d) in dispatch.iter().enumerate() {
        let speedup = d.linear_ns as f64 / d.indexed_ns as f64;
        s.push_str(&format!(
            "      \"{}\": {{ \"indexed_ns\": {}, \"linear_ns\": {}, \"speedup\": {:.2} }}{}\n",
            d.policy,
            d.indexed_ns,
            d.linear_ns,
            speedup,
            if i + 1 < dispatch.len() { "," } else { "" },
        ));
    }
    s.push_str("    }\n  },\n");
    s.push_str(&format!(
        "  \"replay\": {{\n    \"trace\": \"wiki\",\n    \"mix\": \"heavy\",\n    \"horizon_s\": {horizon_s},\n    \"rms\": {{\n"
    ));
    for (i, r) in replay.iter().enumerate() {
        let wall = r.pretrain_s + r.replay_s;
        let warm = match r.warm {
            WarmStart::Warm => "warm",
            WarmStart::Cold => "cold",
            WarmStart::NotApplicable => "n/a",
        };
        s.push_str(&format!(
            "      \"{}\": {{ \"wall_clock_s\": {:.3}, \"pretrain_s\": {:.3}, \"replay_s\": {:.3}, \"warm_start\": \"{}\", \"events_processed\": {}, \"events_per_sec\": {:.0}, \"peak_queue_depth\": {}, \"jobs\": {}, \"slo_violation_fraction\": {:.6} }}{}\n",
            r.rm,
            wall,
            r.pretrain_s,
            r.replay_s,
            warm,
            r.events,
            r.events as f64 / r.replay_s,
            r.peak_queue_depth,
            r.jobs,
            r.slo_violation_fraction,
            if i + 1 < replay.len() { "," } else { "" },
        ));
    }
    s.push_str("    }\n  },\n");
    s.push_str(&format!(
        "  \"nn\": {{\n    \"model\": \"lstm\",\n    \"series_len\": {},\n    \"pretrain_ns\": {},\n    \"reference_pretrain_ns\": {},\n    \"pretrain_speedup\": {:.2},\n    \"forecast_calls\": {},\n    \"forecast_ns_per_call\": {:.0},\n    \"reference_forecast_ns_per_call\": {:.0},\n    \"forecast_speedup\": {:.2},\n",
        nn.series_len,
        nn.pretrain_ns,
        nn.reference_pretrain_ns,
        nn.reference_pretrain_ns as f64 / nn.pretrain_ns.max(1) as f64,
        nn.forecast_calls,
        nn.forecast_ns_per_call,
        nn.reference_forecast_ns_per_call,
        nn.reference_forecast_ns_per_call / nn.forecast_ns_per_call.max(1.0),
    ));
    s.push_str(&format!(
        "    \"early_stop\": {{ \"patience\": {}, \"min_delta\": {}, \"warmup\": {}, \"epochs_budget\": {}, \"epochs_run\": {}, \"pretrain_ns\": {}, \"accuracy_full\": {:.6}, \"accuracy_early\": {:.6}, \"accuracy_delta_pct\": {:.4} }},\n",
        nn.early_stop.patience,
        nn.early_stop.min_delta,
        nn.early_stop.warmup,
        nn.early_stop.epochs_budget,
        nn.early_stop.epochs_run,
        nn.early_stop.pretrain_ns,
        nn.early_stop.accuracy_full,
        nn.early_stop.accuracy_early,
        nn.early_stop.accuracy_delta_pct,
    ));
    s.push_str(&format!(
        "    \"warm_start\": {{ \"store_ns\": {}, \"load_ns\": {}, \"bit_identical\": {} }},\n    \"fifer_e2e_s\": {:.3}\n  }},\n",
        nn.warm_start.store_ns, nn.warm_start.load_ns, nn.warm_start.bit_identical, nn.fifer_e2e_s,
    ));
    s.push_str("  \"utilization\": {\n    \"rms\": {\n");
    for (i, u) in utilization.iter().enumerate() {
        s.push_str(&format!(
            "      \"{}\": {{ \"alloc_core_hours\": {:.6}, \"used_core_hours\": {:.6}, \"waste_core_hours\": {:.6}, \"harvested_core_hours\": {:.6}, \"slo_violation_fraction\": {:.6}, \"harvest_spawns\": {}, \"leases_created\": {}, \"leases_ended\": {}, \"containers_preempted\": {} }}{}\n",
            u.rm,
            u.alloc_core_hours,
            u.used_core_hours,
            u.waste_core_hours,
            u.harvested_core_hours,
            u.slo_violation_fraction,
            u.harvest_spawns,
            u.leases_created,
            u.leases_ended,
            u.containers_preempted,
            if i + 1 < utilization.len() { "," } else { "" },
        ));
    }
    s.push_str("    }\n  },\n");
    s.push_str(&format!(
        "  \"wild\": {{\n    \"workload\": \"azure\",\n    \"horizon_s\": {},\n    \"apps\": {},\n    \"tail_exponent\": {},\n    \"total_rate\": {},\n    \"rms\": {{\n",
        wild.horizon_s, wild.apps, wild.tail_exponent, wild.total_rate,
    ));
    for (i, w) in wild.rows.iter().enumerate() {
        s.push_str(&format!(
            "      \"{}\": {{ \"jobs\": {}, \"cold_starts\": {}, \"blocking_cold_starts\": {}, \"avg_containers\": {:.6}, \"slo_violation_fraction\": {:.6}, \"median_ms\": {:.3}, \"p99_ms\": {:.3} }}{}\n",
            w.rm,
            w.jobs,
            w.cold_starts,
            w.blocking_cold_starts,
            w.avg_containers,
            w.slo_violation_fraction,
            w.median_ms,
            w.p99_ms,
            if i + 1 < wild.rows.len() { "," } else { "" },
        ));
    }
    s.push_str("    }\n  }\n");
    s.push_str("}\n");
    s
}

/// Shape + regression-floor validation of a rendered BENCH document.
fn validate(body: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return Err(vec![format!("JSON does not parse: {e}")]),
    };
    fn num_at(doc: &Json, problems: &mut Vec<String>, path: &str) -> Option<f64> {
        match doc.path(path).and_then(Json::as_f64) {
            Some(v) => Some(v),
            None => {
                problems.push(format!("missing numeric field {path:?}"));
                None
            }
        }
    }
    for policy in ["lsf", "edf"] {
        if let Some(speedup) = num_at(
            &doc,
            &mut problems,
            &format!("dispatch.policies.{policy}.speedup"),
        ) {
            if speedup < MIN_DISPATCH_SPEEDUP {
                problems.push(format!(
                    "dispatch {policy} speedup {speedup:.2} below floor {MIN_DISPATCH_SPEEDUP}"
                ));
            }
        }
    }
    for kind in RmKind::ALL {
        for field in [
            "wall_clock_s",
            "pretrain_s",
            "replay_s",
            "events_processed",
            "events_per_sec",
        ] {
            num_at(&doc, &mut problems, &format!("replay.rms.{kind}.{field}"));
        }
    }
    if let Some(eps) = num_at(&doc, &mut problems, "replay.rms.Fifer.events_per_sec") {
        if eps < MIN_FIFER_EVENTS_PER_SEC {
            problems.push(format!(
                "Fifer replay {eps:.0} events/s below floor {MIN_FIFER_EVENTS_PER_SEC:.0}"
            ));
        }
    }
    // the end-to-end ceiling is enforced only where the recorded core
    // count can express it
    let workers = num_at(&doc, &mut problems, "workers_available");
    for field in [
        "series_len",
        "pretrain_ns",
        "reference_pretrain_ns",
        "forecast_calls",
        "forecast_ns_per_call",
        "reference_forecast_ns_per_call",
        "forecast_speedup",
    ] {
        num_at(&doc, &mut problems, &format!("nn.{field}"));
    }
    if let Some(speedup) = num_at(&doc, &mut problems, "nn.pretrain_speedup") {
        if speedup < MIN_NN_PRETRAIN_SPEEDUP {
            problems.push(format!(
                "nn pretrain speedup {speedup:.2} below floor {MIN_NN_PRETRAIN_SPEEDUP}"
            ));
        }
    }
    // production serving: early stopping must not trade away accuracy,
    // the checkpoint round-trip must be bit-exact, and on full-scale runs
    // on real hardware the end-to-end Fifer wall-clock must stay under
    // the paper-killing 10 s ceiling
    for field in [
        "early_stop.patience",
        "early_stop.min_delta",
        "early_stop.warmup",
        "early_stop.epochs_budget",
        "early_stop.epochs_run",
        "early_stop.pretrain_ns",
        "early_stop.accuracy_full",
        "early_stop.accuracy_early",
        "warm_start.store_ns",
        "warm_start.load_ns",
    ] {
        num_at(&doc, &mut problems, &format!("nn.{field}"));
    }
    if let (Some(run), Some(budget)) = (
        num_at(&doc, &mut problems, "nn.early_stop.epochs_run"),
        num_at(&doc, &mut problems, "nn.early_stop.epochs_budget"),
    ) {
        if run > budget {
            problems.push(format!(
                "nn early stop ran {run:.0} epochs, above the {budget:.0}-epoch budget"
            ));
        }
    }
    if let Some(delta) = num_at(&doc, &mut problems, "nn.early_stop.accuracy_delta_pct") {
        if delta > MAX_NN_EARLY_STOP_ACCURACY_DELTA_PCT {
            problems.push(format!(
                "nn early stop gives up {delta:.2} accuracy points, above ceiling {MAX_NN_EARLY_STOP_ACCURACY_DELTA_PCT}"
            ));
        }
    }
    match doc.path("nn.warm_start.bit_identical") {
        Some(Json::Bool(true)) => {}
        other => problems.push(format!(
            "nn warm-start forecasts are not bit-identical to cold start (got {other:?})"
        )),
    }
    let quick_run = matches!(doc.path("quick"), Some(Json::Bool(true)));
    if let Some(e2e) = num_at(&doc, &mut problems, "nn.fifer_e2e_s") {
        if !quick_run && workers.is_some_and(|w| w >= 4.0) && e2e > MAX_NN_FIFER_E2E_S {
            problems.push(format!(
                "nn end-to-end Fifer {e2e:.2} s above ceiling {MAX_NN_FIFER_E2E_S} s"
            ));
        }
    }
    // utilization section: exact-accounting sanity per RM, then the
    // harvesting headline claim against the Bline baseline
    for kind in RmKind::ALL {
        let alloc = num_at(
            &doc,
            &mut problems,
            &format!("utilization.rms.{kind}.alloc_core_hours"),
        );
        let used = num_at(
            &doc,
            &mut problems,
            &format!("utilization.rms.{kind}.used_core_hours"),
        );
        num_at(
            &doc,
            &mut problems,
            &format!("utilization.rms.{kind}.waste_core_hours"),
        );
        num_at(
            &doc,
            &mut problems,
            &format!("utilization.rms.{kind}.harvested_core_hours"),
        );
        num_at(
            &doc,
            &mut problems,
            &format!("utilization.rms.{kind}.slo_violation_fraction"),
        );
        if let (Some(alloc), Some(used)) = (alloc, used) {
            // the integrals come from exact integer ledgers; used can
            // never exceed allocated (auditor invariant), so a violation
            // here means the accounting layer broke
            if used > alloc {
                problems.push(format!(
                    "utilization {kind}: used {used:.3} core-h exceeds allocated {alloc:.3}"
                ));
            }
        }
    }
    let waste_of = |doc: &Json, rm: &str| -> Option<f64> {
        doc.path(&format!("utilization.rms.{rm}.waste_core_hours"))
            .and_then(Json::as_f64)
    };
    let slo_of = |doc: &Json, rm: &str| -> Option<f64> {
        doc.path(&format!("utilization.rms.{rm}.slo_violation_fraction"))
            .and_then(Json::as_f64)
    };
    if let (Some(bw), Some(hw)) = (waste_of(&doc, "Bline"), waste_of(&doc, "Harvest")) {
        if hw > MAX_HARVEST_WASTE_VS_BLINE * bw {
            problems.push(format!(
                "Harvest waste {hw:.3} core-h above {MAX_HARVEST_WASTE_VS_BLINE} x Bline's {bw:.3}"
            ));
        }
    }
    if let (Some(bs), Some(hs)) = (slo_of(&doc, "Bline"), slo_of(&doc, "Harvest")) {
        if hs > bs + MAX_HARVEST_SLO_DELTA {
            problems.push(format!(
                "Harvest SLO violation fraction {hs:.4} exceeds Bline's {bs:.4} + {MAX_HARVEST_SLO_DELTA}"
            ));
        }
    }
    // wild section: every RM has a row, then the hybrid-histogram claim
    // (no more cold starts than Bline at bounded memory-time)
    for kind in RmKind::ALL {
        for field in [
            "jobs",
            "cold_starts",
            "blocking_cold_starts",
            "avg_containers",
            "slo_violation_fraction",
        ] {
            num_at(&doc, &mut problems, &format!("wild.rms.{kind}.{field}"));
        }
    }
    let wild_of = |doc: &Json, rm: &str, field: &str| -> Option<f64> {
        doc.path(&format!("wild.rms.{rm}.{field}"))
            .and_then(Json::as_f64)
    };
    if let (Some(bc), Some(hc)) = (
        wild_of(&doc, "Bline", "cold_starts"),
        wild_of(&doc, "HybridHist", "cold_starts"),
    ) {
        if hc > MAX_WILD_HH_COLD_VS_BLINE * bc {
            problems.push(format!(
                "wild HybridHist cold starts {hc:.0} above {MAX_WILD_HH_COLD_VS_BLINE} x Bline's {bc:.0}"
            ));
        }
        // equality is the signature of the policy going inert (the
        // keep-alive window deriving below the idle-scan granularity
        // makes HybridHist byte-identical to Bline): the hybrid
        // histogram must actually buy cold starts, not just not lose
        if hc >= bc {
            problems.push(format!(
                "wild HybridHist cold starts {hc:.0} do not beat Bline's {bc:.0} — keep-alive policy inert"
            ));
        }
    }
    if let (Some(bm), Some(hm)) = (
        wild_of(&doc, "Bline", "avg_containers"),
        wild_of(&doc, "HybridHist", "avg_containers"),
    ) {
        // full runs only: the 100 s quick horizon is dominated by the
        // histogram warm-up transient (keep-alive windows derived from a
        // handful of samples hold early containers for a large fraction
        // of the short run); at the 600 s horizon the ratio settles near
        // 1x, which is what this ceiling bounds
        if !quick_run && hm > MAX_WILD_HH_MEMTIME_VS_BLINE * bm {
            problems.push(format!(
                "wild HybridHist memory-time {hm:.1} above {MAX_WILD_HH_MEMTIME_VS_BLINE} x Bline's {bm:.1}"
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

fn usage(msg: &str) -> ! {
    if msg != "help" {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: bench [--quick] [--validate] [--depth N] [--reps N] [--out FILE] [--model-cache DIR]"
    );
    std::process::exit(2);
}
