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
//!    pre-training fans out across threads; replays are timed one at a
//!    time so wall-clocks stay uncontended.
//! 3. **nn** — times the paper LSTM that `fifer --rm fifer` trains
//!    (2 × 32, 100 epochs): its pre-training and per-forecast cost on the
//!    replay's own training series, its walk-forward accuracy on the
//!    held-out 40% tail, the checkpoint round-trip (store and load cost,
//!    forecast bit-identity), and `fifer_e2e_s` — that pretrain plus the
//!    Fifer event replay, which `--validate` holds under a ceiling (one
//!    for full runs, one for `--quick` runs).
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
use fifer_bench::pool::{detected_cores, par_map};
use fifer_bench::runner::RunSpec;
use fifer_core::policy::ResourceManager;
use fifer_core::rm::RmKind;
use fifer_core::scheduling::SchedulingPolicy;
use fifer_core::WarmStart;
use fifer_metrics::report::write_file;
use fifer_metrics::SimDuration;
use fifer_predict::train::train_test_split;
use fifer_predict::{accuracy, LoadPredictor, LstmPredictor, ModelCache, PredictorKind};
use fifer_sim::config::MONITOR_INTERVAL;
use fifer_sim::driver::Simulation;
use fifer_sim::scenario::pretrain_series;
use fifer_sim::{Arrivals, Scenario, SimConfig};
use fifer_workloads::{JobStream, TriggerMix, WorkloadMix};
use std::hint::black_box;
use std::time::Instant;

struct DispatchRow {
    policy: &'static str,
    indexed_ns: u128,
    linear_ns: u128,
}

/// One RM's replay: its timing and the resource accounting of the run.
struct ReplayRow {
    rm: String,
    warm: WarmStart,
    pretrain_s: f64,
    replay_s: f64,
    events: u64,
    peak_queue_depth: u64,
    jobs: usize,
    slo_violation_fraction: f64,
    alloc_core_hours: f64,
    used_core_hours: f64,
    harvested_core_hours: f64,
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
    forecast_calls: u32,
    forecast_ns_per_call: f64,
    /// Walk-forward accuracy on the held-out 40% test tail of a model
    /// pre-trained on the first 60%.
    accuracy: f64,
    warm_start: WarmStartStats,
    /// End-to-end Fifer wall-clock: the timed pre-training plus the
    /// measured Fifer event replay.
    fifer_e2e_s: f64,
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
/// End-to-end Fifer (paper-LSTM pretrain + event replay) must land under
/// this wall-clock on a full-scale run. Fifer pretrains one model on one
/// thread, so the ceiling holds whatever the core count.
const MAX_NN_FIFER_E2E_S: f64 = 40.0;
/// The same ceiling for `--quick` runs (152-point series): about 2.5× the
/// 2.2 s measured on one pinned CPU of a shared 2-vCPU Xeon VM, where the
/// libm activations and three-division Adam update took 3.0 s.
const MAX_NN_FIFER_E2E_QUICK_S: f64 = 5.5;

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
    let mut spec = RunSpec::large_scale(
        "replay",
        RmKind::Fifer.config(),
        WorkloadMix::Heavy,
        Arrivals::Wiki,
        150.0,
    );
    if quick {
        spec = spec.quick();
    }
    let scenario = spec.scenario;
    let stream = scenario.stream();
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
    let prepared = prepare(&scenario, &stream, cache.as_ref());
    let mut replay = Vec::new();
    for (kind, cfg, rm, warm, pretrain_s) in prepared {
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
            alloc_core_hours: r.alloc_core_hours,
            used_core_hours: r.used_core_hours,
            harvested_core_hours: r.harvested_core_hours,
            harvest_spawns: r.harvest_spawns,
            leases_created: r.leases_created,
            leases_ended: r.leases_ended,
            containers_preempted: r.containers_preempted,
        });
    }
    println!("\n## utilization: allocated vs used core-hours per RM");
    for u in &replay {
        println!(
            "{}: alloc {:.2} core-h, used {:.2} core-h, waste {:.2} core-h, harvested {:.2} core-h{}",
            u.rm,
            u.alloc_core_hours,
            u.used_core_hours,
            u.alloc_core_hours - u.used_core_hours,
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

    println!("\n## nn: Fifer LSTM pretrain + forecast");
    let fifer_replay_s = replay
        .iter()
        .find(|r| r.rm == "Fifer")
        .map(|r| r.replay_s)
        .unwrap_or(0.0);
    let nn = nn_bench(&scenario, &stream, fifer_replay_s);
    println!(
        "pretrain: {:.2} s ({} series points)",
        nn.pretrain_ns as f64 / 1e9,
        nn.series_len,
    );
    println!(
        "forecast: {:.0} ns/call over {} calls",
        nn.forecast_ns_per_call, nn.forecast_calls,
    );
    println!("walk-forward accuracy: {:.4}", nn.accuracy);
    println!(
        "warm start: store {:.2} ms, load {:.2} ms, forecasts bit-identical: {}",
        nn.warm_start.store_ns as f64 / 1e6,
        nn.warm_start.load_ns as f64 / 1e6,
        nn.warm_start.bit_identical,
    );
    println!(
        "fifer end-to-end (pretrain + replay): {:.2} s",
        nn.fifer_e2e_s,
    );

    let json = render_json(
        quick,
        depth,
        reps,
        &dispatch,
        scenario.horizon().as_secs_f64(),
        &replay,
        &nn,
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

/// One RM built for a replay: its config, its resource manager, how its
/// predictor was served and the seconds building it took (pretraining).
type Prepared = (RmKind, SimConfig, Box<dyn ResourceManager>, WarmStart, f64);

/// Builds every RM's config for `stream` and its resource manager, in
/// parallel: pretraining the predictors is the costly part.
fn prepare(scenario: &Scenario, stream: &JobStream, cache: Option<&ModelCache>) -> Vec<Prepared> {
    par_map(RmKind::ALL.to_vec(), detected_cores(), |kind| {
        let cfg = scenario.config(kind.config(), stream);
        let t0 = Instant::now();
        let (rm, warm) = cfg
            .rm
            .build_rm_served(cfg.seed, &cfg.pretrain_series, cache);
        (kind, cfg, rm, warm, t0.elapsed().as_secs_f64())
    })
}

/// Runs every RM head-to-head on one Azure-family stream (paper-default
/// family shape, 600 s full / 100 s quick), every RM at a 10 s idle scan
/// so the keep-alive policy is the only variable: the mechanism offers
/// each RM the same reclamation opportunities and the policy decides who
/// dies.
fn wild_bench(quick: bool) -> WildSection {
    let secs = if quick { 100 } else { 600 };
    let (apps, tail_exponent) = (32, 1.5);
    let scenario = Scenario {
        arrivals: Arrivals::Azure {
            apps,
            tail_exponent,
            trigger_mix: TriggerMix::paper_default(),
        },
        mix: WorkloadMix::Medium,
        rate: 20.0,
        secs,
        warmup: Some(SimDuration::from_secs(secs) / 6),
        ..Scenario::default()
    };
    let stream = scenario.stream();
    let rows = prepare(&scenario, &stream, None)
        .into_iter()
        .map(|(kind, mut cfg, rm, ..)| {
            cfg.idle_timeout = SimDuration::from_secs(10);
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
        horizon_s: scenario.horizon().as_secs_f64(),
        apps,
        tail_exponent,
        total_rate: scenario.rate,
        rows,
    }
}

/// Times the Fifer LSTM on the replay run's own pre-training series:
/// full pre-training, then the per-forecast cost at one forecast per
/// monitor interval of the replay horizon. It also measures the
/// walk-forward accuracy and the checkpoint round-trip (store and load
/// cost, forecast bit-identity), and adds the pretrain to the replay time
/// measured in the replay section for the end-to-end Fifer wall-clock.
fn nn_bench(scenario: &Scenario, stream: &JobStream, fifer_replay_s: f64) -> NnRow {
    let series = &pretrain_series(&RmKind::Fifer.config(), stream);
    let forecast_calls =
        (scenario.horizon().as_secs_f64() / MONITOR_INTERVAL.as_secs_f64()).max(1.0) as u32;

    let mut p = PredictorKind::Lstm.build(scenario.seed);
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
    let forecast_ns_per_call = t1.elapsed().as_nanos() as f64 / f64::from(forecast_calls);

    // --- accuracy + warm-start on a 60/40 walk-forward split so the test
    // tail is unseen by the model. The model doubles as the checkpoint
    // donor: restore it into a fresh twin *before* any observations, then
    // walk donor and twin in lockstep comparing forecast bits.
    let (train, test) = train_test_split(series);
    let mut cold = LstmPredictor::paper_default(scenario.seed);
    cold.pretrain(train);
    let t0 = Instant::now();
    let bytes = cold
        .checkpoint()
        .expect("the LSTM always supports checkpointing");
    let store_ns = t0.elapsed().as_nanos();
    let mut warm = LstmPredictor::paper_default(scenario.seed);
    let t0 = Instant::now();
    warm.restore(&bytes)
        .expect("a checkpoint written moments ago must restore");
    let load_ns = t0.elapsed().as_nanos();

    let seed_tail = &train[train.len().saturating_sub(32)..];
    for &v in seed_tail {
        cold.observe(v);
        warm.observe(v);
    }
    let mut bit_identical = true;
    let mut preds = Vec::with_capacity(test.len());
    for &actual in test {
        let f = cold.forecast();
        if f.to_bits() != warm.forecast().to_bits() {
            bit_identical = false;
        }
        preds.push(f);
        cold.observe(actual);
        warm.observe(actual);
    }

    NnRow {
        series_len: series.len(),
        pretrain_ns,
        forecast_calls,
        forecast_ns_per_call,
        accuracy: accuracy(&preds, test),
        warm_start: WarmStartStats {
            store_ns,
            load_ns,
            bit_identical,
        },
        fifer_e2e_s: pretrain_ns as f64 / 1e9 + fifer_replay_s,
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
    wild: &WildSection,
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"simulator\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"workers_available\": {},\n", detected_cores()));
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
        "  \"nn\": {{\n    \"model\": \"lstm\",\n    \"series_len\": {},\n    \"pretrain_ns\": {},\n    \"forecast_calls\": {},\n    \"forecast_ns_per_call\": {:.0},\n    \"accuracy\": {:.6},\n",
        nn.series_len, nn.pretrain_ns, nn.forecast_calls, nn.forecast_ns_per_call, nn.accuracy,
    ));
    s.push_str(&format!(
        "    \"warm_start\": {{ \"store_ns\": {}, \"load_ns\": {}, \"bit_identical\": {} }},\n    \"fifer_e2e_s\": {:.3}\n  }},\n",
        nn.warm_start.store_ns, nn.warm_start.load_ns, nn.warm_start.bit_identical, nn.fifer_e2e_s,
    ));
    s.push_str("  \"utilization\": {\n    \"rms\": {\n");
    for (i, u) in replay.iter().enumerate() {
        s.push_str(&format!(
            "      \"{}\": {{ \"alloc_core_hours\": {:.6}, \"used_core_hours\": {:.6}, \"waste_core_hours\": {:.6}, \"harvested_core_hours\": {:.6}, \"slo_violation_fraction\": {:.6}, \"harvest_spawns\": {}, \"leases_created\": {}, \"leases_ended\": {}, \"containers_preempted\": {} }}{}\n",
            u.rm,
            u.alloc_core_hours,
            u.used_core_hours,
            u.alloc_core_hours - u.used_core_hours,
            u.harvested_core_hours,
            u.slo_violation_fraction,
            u.harvest_spawns,
            u.leases_created,
            u.leases_ended,
            u.containers_preempted,
            if i + 1 < replay.len() { "," } else { "" },
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
    num_at(&doc, &mut problems, "workers_available");
    // the checkpoint round-trip must be bit-exact, and the end-to-end
    // Fifer wall-clock must stay under its ceiling
    for field in [
        "series_len",
        "pretrain_ns",
        "forecast_calls",
        "forecast_ns_per_call",
        "accuracy",
        "warm_start.store_ns",
        "warm_start.load_ns",
    ] {
        num_at(&doc, &mut problems, &format!("nn.{field}"));
    }
    match doc.path("nn.warm_start.bit_identical") {
        Some(Json::Bool(true)) => {}
        other => problems.push(format!(
            "nn warm-start forecasts are not bit-identical to cold start (got {other:?})"
        )),
    }
    let quick_run = matches!(doc.path("quick"), Some(Json::Bool(true)));
    if let Some(e2e) = num_at(&doc, &mut problems, "nn.fifer_e2e_s") {
        let ceiling = if quick_run {
            MAX_NN_FIFER_E2E_QUICK_S
        } else {
            MAX_NN_FIFER_E2E_S
        };
        if e2e > ceiling {
            problems.push(format!(
                "nn end-to-end Fifer {e2e:.2} s above ceiling {ceiling} s"
            ));
        }
    }
    // utilization section: exact-accounting sanity per RM, then the
    // harvesting headline claim against the Bline baseline
    for kind in RmKind::ALL {
        let [alloc, used, ..] = [
            "alloc_core_hours",
            "used_core_hours",
            "waste_core_hours",
            "harvested_core_hours",
            "slo_violation_fraction",
        ]
        .map(|field| {
            num_at(
                &doc,
                &mut problems,
                &format!("utilization.rms.{kind}.{field}"),
            )
        });
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
    let at = |section: &str, rm: &str, field: &str| {
        doc.path(&format!("{section}.rms.{rm}.{field}"))
            .and_then(Json::as_f64)
    };
    let util = |rm: &str, field: &str| at("utilization", rm, field);
    if let (Some(bw), Some(hw)) = (
        util("Bline", "waste_core_hours"),
        util("Harvest", "waste_core_hours"),
    ) {
        if hw > MAX_HARVEST_WASTE_VS_BLINE * bw {
            problems.push(format!(
                "Harvest waste {hw:.3} core-h above {MAX_HARVEST_WASTE_VS_BLINE} x Bline's {bw:.3}"
            ));
        }
    }
    if let (Some(bs), Some(hs)) = (
        util("Bline", "slo_violation_fraction"),
        util("Harvest", "slo_violation_fraction"),
    ) {
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
    let wild = |rm: &str, field: &str| at("wild", rm, field);
    if let (Some(bc), Some(hc)) = (
        wild("Bline", "cold_starts"),
        wild("HybridHist", "cold_starts"),
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
        wild("Bline", "avg_containers"),
        wild("HybridHist", "avg_containers"),
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
