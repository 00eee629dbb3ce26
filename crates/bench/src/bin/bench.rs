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
//!    the lease counters. `--validate` checks the harvesting claim,
//!    [`claims::harvest_cuts_waste`].
//! 5. **wild** — all seven RMs head-to-head on the Azure-characterization
//!    workload family ([`claims::wild_scenario`], 600 s in every mode),
//!    every RM at the same short 10 s idle scan so the keep-alive *policy*
//!    is the only variable. `--validate` checks the hybrid-histogram
//!    claim, [`claims::hybridhist_saves_cold_starts`].
//!
//! The sections make one typed [`Report`]. `render_json` writes it, and
//! `--validate` checks it in memory — every number in the document is
//! finite, no regression floor is crossed, both claims hold — and exits
//! 4 otherwise: the CI smoke lane.
//!
//! ```text
//! bench                        # full run, writes BENCH_simulator.json
//! bench --quick --validate     # 1/6 replay horizon + checks (CI)
//! bench --depth 50000 --out /tmp/b.json
//! ```

use fifer_bench::claims::{self, Utilization, WildRow};
use fifer_bench::perf::{deep_queue_tasks, drain_indexed, drain_linear, time_median};
use fifer_bench::pool::{detected_cores, par_map};
use fifer_core::policy::ResourceManager;
use fifer_core::rm::RmKind;
use fifer_core::scheduling::SchedulingPolicy;
use fifer_core::WarmStart;
use fifer_metrics::report::write_file;
use fifer_predict::train::train_test_split;
use fifer_predict::{accuracy, LoadPredictor, LstmPredictor, ModelCache, PredictorKind};
use fifer_sim::config::MONITOR_INTERVAL;
use fifer_sim::driver::Simulation;
use fifer_sim::scenario::pretrain_series;
use fifer_sim::{Arrivals, Scenario, SimConfig};
use fifer_workloads::JobStream;
use std::hint::black_box;
use std::time::Instant;

struct DispatchRow {
    policy: &'static str,
    indexed_ns: u128,
    linear_ns: u128,
}

impl DispatchRow {
    fn speedup(&self) -> f64 {
        self.linear_ns as f64 / self.indexed_ns as f64
    }
}

/// One RM's replay: its timing and the resource accounting of the run.
struct ReplayRow {
    warm: WarmStart,
    pretrain_s: f64,
    replay_s: f64,
    events: u64,
    peak_queue_depth: u64,
    jobs: usize,
    util: Utilization,
}

impl ReplayRow {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.replay_s
    }
}

struct NnRow {
    series_len: usize,
    pretrain_ns: u128,
    forecast_calls: u32,
    forecast_ns_per_call: f64,
    /// Walk-forward accuracy on the held-out 40% test tail of a model
    /// pre-trained on the first 60%.
    accuracy: f64,
    /// Checkpoint round-trip: serialize the trained model, restore it into
    /// a fresh one, and walk both in lockstep over the test tail comparing
    /// forecasts bit-for-bit.
    store_ns: u128,
    load_ns: u128,
    bit_identical: bool,
    /// End-to-end Fifer wall-clock: the timed pre-training plus the
    /// measured Fifer event replay.
    fifer_e2e_s: f64,
}

/// Regression floors for `--validate`. Deliberately conservative — they
/// catch an accidental return to the pre-overhaul implementations, not
/// machine-to-machine noise.
const MIN_DISPATCH_SPEEDUP: f64 = 1.5;
const MIN_FIFER_EVENTS_PER_SEC: f64 = 200_000.0;
/// End-to-end Fifer (paper-LSTM pretrain + event replay) must land under
/// this wall-clock on a full-scale run. Fifer pretrains one model on one
/// thread, so the ceiling holds whatever the core count.
const MAX_NN_FIFER_E2E_S: f64 = 40.0;
/// The same ceiling for `--quick` runs (152-point series): about 2.5× the
/// 1.33 s measured on one pinned CPU of a shared 2-vCPU Xeon VM, where the
/// `f64` predictor substrate took 2.35 s.
const MAX_NN_FIFER_E2E_QUICK_S: f64 = 3.3;

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
    let scenario = claims::replay_scenario(quick);
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
    let mut replay = Vec::new();
    let config = |kind: RmKind| scenario.config(kind.config(), &stream);
    for (rm, cfg, policy, warm, pretrain_s) in prepare(config, cache.as_ref()) {
        let sim = Simulation::with_resource_manager(cfg, &stream, policy);
        let t0 = Instant::now();
        let r = sim.run();
        let row = ReplayRow {
            warm,
            pretrain_s,
            replay_s: t0.elapsed().as_secs_f64(),
            events: r.events_processed,
            peak_queue_depth: r.peak_queue_depth,
            jobs: r.records.len(),
            util: Utilization::of(&r),
        };
        let warm_note = match warm {
            WarmStart::Warm => " [warm-start from model cache]",
            WarmStart::Cold if cache.is_some() => " [cold start, checkpoint stored]",
            _ => "",
        };
        println!(
            "{rm}: pretrain {:.2} s{warm_note}, replay {:.2} s, {} events ({:.0} events/s), peak queue {}, {} jobs",
            row.pretrain_s,
            row.replay_s,
            row.events,
            row.events_per_sec(),
            row.peak_queue_depth,
            row.jobs,
        );
        replay.push((rm, row));
    }
    println!("\n## utilization: allocated vs used core-hours per RM");
    for (rm, ReplayRow { util: u, .. }) in &replay {
        println!(
            "{rm}: alloc {:.2} core-h, used {:.2} core-h, waste {:.2} core-h, harvested {:.2} core-h{}",
            u.alloc_core_hours,
            u.used_core_hours,
            u.waste_core_hours(),
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

    println!("\n## wild: Azure-characterization family, all RMs");
    let wild = wild_bench();
    for (rm, row) in &wild {
        println!(
            "{rm}: {} jobs, {} cold starts ({} blocking), {:.1} avg containers, \
             slo_viol {:.2}%, median {:.0} ms, p99 {:.0} ms",
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
    let nn = nn_bench(&scenario, &stream, row(&replay, RmKind::Fifer).replay_s);
    println!(
        "pretrain: {:.2} s ({} series points)\n\
         forecast: {:.0} ns/call over {} calls\n\
         walk-forward accuracy: {:.4}\n\
         warm start: store {:.2} ms, load {:.2} ms, forecasts bit-identical: {}\n\
         fifer end-to-end (pretrain + replay): {:.2} s",
        nn.pretrain_ns as f64 / 1e9,
        nn.series_len,
        nn.forecast_ns_per_call,
        nn.forecast_calls,
        nn.accuracy,
        nn.store_ns as f64 / 1e6,
        nn.load_ns as f64 / 1e6,
        nn.bit_identical,
        nn.fifer_e2e_s,
    );

    let report = Report {
        quick,
        workers_available: detected_cores(),
        depth,
        reps,
        dispatch,
        replay_horizon_s: scenario.horizon().as_secs_f64(),
        replay,
        nn,
        wild,
    };
    if let Err(e) = write_file(&out, &render_json(&report)) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwritten to {out}");

    if validate_out {
        let problems = validate(&report);
        for p in &problems {
            eprintln!("validate: {p}");
        }
        if !problems.is_empty() {
            std::process::exit(4);
        }
        println!("validate: OK (finite numbers, regression floors, claims)");
    }
}

/// One RM built for a run: its kind, its config, its resource manager,
/// how its predictor was served and the seconds building it took
/// (pretraining).
type Prepared = (RmKind, SimConfig, Box<dyn ResourceManager>, WarmStart, f64);

/// Builds every RM's config with `config` and its resource manager, in
/// parallel: pretraining the predictors is the costly part.
fn prepare(
    config: impl Fn(RmKind) -> SimConfig + Sync,
    cache: Option<&ModelCache>,
) -> Vec<Prepared> {
    par_map(RmKind::ALL.to_vec(), detected_cores(), |kind| {
        let cfg = config(kind);
        let t0 = Instant::now();
        let (rm, warm) = cfg
            .rm
            .build_rm_served(cfg.seed, &cfg.pretrain_series, cache);
        (kind, cfg, rm, warm, t0.elapsed().as_secs_f64())
    })
}

/// Runs every RM head-to-head on [`claims::wild_scenario`], each at the
/// same 10 s idle scan ([`claims::wild_config`]).
fn wild_bench() -> Vec<(RmKind, WildRow)> {
    let stream = claims::wild_scenario().stream();
    prepare(|kind| claims::wild_config(kind, &stream), None)
        .into_iter()
        .map(|(kind, cfg, rm, ..)| {
            let r = Simulation::with_resource_manager(cfg, &stream, rm).run();
            (kind, WildRow::of(&r))
        })
        .collect()
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
        store_ns,
        load_ns,
        bit_identical,
        fifer_e2e_s: pretrain_ns as f64 / 1e9 + fifer_replay_s,
    }
}

/// Everything one `bench` run measured: what `render_json` writes and
/// `validate` checks.
struct Report {
    quick: bool,
    workers_available: usize,
    depth: usize,
    reps: usize,
    dispatch: Vec<DispatchRow>,
    replay_horizon_s: f64,
    replay: Vec<(RmKind, ReplayRow)>,
    nn: NnRow,
    wild: Vec<(RmKind, WildRow)>,
}

/// `rm`'s row: every section has one per RM.
fn row<T>(rows: &[(RmKind, T)], rm: RmKind) -> &T {
    let (_, row) = rows
        .iter()
        .find(|(kind, _)| *kind == rm)
        .expect("a row per RM");
    row
}

/// `BENCH_simulator.json`'s bytes for `report`.
fn render_json(report: &Report) -> String {
    /// `"<key>": {`, one line per row, `}` — at the depth of a section's
    /// fields.
    fn rows(key: &str, rows: impl Iterator<Item = String>) -> String {
        let rows: Vec<String> = rows.map(|row| format!("      {row}")).collect();
        format!("    \"{key}\": {{\n{}\n    }}", rows.join(",\n"))
    }
    let policies = rows(
        "policies",
        report.dispatch.iter().map(|d| {
            format!(
                "\"{}\": {{ \"indexed_ns\": {}, \"linear_ns\": {}, \"speedup\": {:.2} }}",
                d.policy,
                d.indexed_ns,
                d.linear_ns,
                d.speedup(),
            )
        }),
    );
    let replay = rows(
        "rms",
        report.replay.iter().map(|(rm, r)| {
            let warm = match r.warm {
                WarmStart::Warm => "warm",
                WarmStart::Cold => "cold",
                WarmStart::NotApplicable => "n/a",
            };
            format!(
                "\"{rm}\": {{ \"wall_clock_s\": {:.3}, \"pretrain_s\": {:.3}, \"replay_s\": {:.3}, \"warm_start\": \"{warm}\", \"events_processed\": {}, \"events_per_sec\": {:.0}, \"peak_queue_depth\": {}, \"jobs\": {}, \"slo_violation_fraction\": {:.6} }}",
                r.pretrain_s + r.replay_s,
                r.pretrain_s,
                r.replay_s,
                r.events,
                r.events_per_sec(),
                r.peak_queue_depth,
                r.jobs,
                r.util.slo_violation_fraction,
            )
        }),
    );
    let utilization = rows(
        "rms",
        report.replay.iter().map(|(rm, ReplayRow { util: u, .. })| {
            format!(
                "\"{rm}\": {{ \"alloc_core_hours\": {:.6}, \"used_core_hours\": {:.6}, \"waste_core_hours\": {:.6}, \"harvested_core_hours\": {:.6}, \"slo_violation_fraction\": {:.6}, \"harvest_spawns\": {}, \"leases_created\": {}, \"leases_ended\": {}, \"containers_preempted\": {} }}",
                u.alloc_core_hours,
                u.used_core_hours,
                u.waste_core_hours(),
                u.harvested_core_hours,
                u.slo_violation_fraction,
                u.harvest_spawns,
                u.leases_created,
                u.leases_ended,
                u.containers_preempted,
            )
        }),
    );
    let wild = rows(
        "rms",
        report.wild.iter().map(|(rm, w)| {
            format!(
                "\"{rm}\": {{ \"jobs\": {}, \"cold_starts\": {}, \"blocking_cold_starts\": {}, \"avg_containers\": {:.6}, \"slo_violation_fraction\": {:.6}, \"median_ms\": {:.3}, \"p99_ms\": {:.3} }}",
                w.jobs,
                w.cold_starts,
                w.blocking_cold_starts,
                w.avg_containers,
                w.slo_violation_fraction,
                w.median_ms,
                w.p99_ms,
            )
        }),
    );
    let nn = &report.nn;
    let wild_scenario = claims::wild_scenario();
    let Arrivals::Azure {
        apps,
        tail_exponent,
        ..
    } = wild_scenario.arrivals
    else {
        unreachable!("the wild scenario is an Azure-family scenario")
    };
    format!(
        r#"{{
  "bench": "simulator",
  "quick": {},
  "workers_available": {},
  "dispatch": {{
    "depth": {},
    "reps": {},
{policies}
  }},
  "replay": {{
    "trace": "wiki",
    "mix": "heavy",
    "horizon_s": {},
{replay}
  }},
  "nn": {{
    "model": "lstm",
    "series_len": {},
    "pretrain_ns": {},
    "forecast_calls": {},
    "forecast_ns_per_call": {:.0},
    "accuracy": {:.6},
    "warm_start": {{ "store_ns": {}, "load_ns": {}, "bit_identical": {} }},
    "fifer_e2e_s": {:.3}
  }},
  "utilization": {{
{utilization}
  }},
  "wild": {{
    "workload": "azure",
    "horizon_s": {},
    "apps": {apps},
    "tail_exponent": {tail_exponent},
    "total_rate": {},
{wild}
  }}
}}
"#,
        report.quick,
        report.workers_available,
        report.depth,
        report.reps,
        report.replay_horizon_s,
        nn.series_len,
        nn.pretrain_ns,
        nn.forecast_calls,
        nn.forecast_ns_per_call,
        nn.accuracy,
        nn.store_ns,
        nn.load_ns,
        nn.bit_identical,
        nn.fifer_e2e_s,
        wild_scenario.horizon().as_secs_f64(),
        wild_scenario.rate,
    )
}

/// Checks a measured report: every number it renders is finite, no
/// regression floor is crossed and both extension claims hold.
fn validate(report: &Report) -> Vec<String> {
    let mut problems = Vec::new();
    // JSON has no NaN or infinity, and a float renders as one of them
    // exactly when it is not finite
    for (i, line) in render_json(report).lines().enumerate() {
        for field in line.split([',', '{', '}']) {
            if let Some((key, value @ ("NaN" | "inf" | "-inf"))) = field.trim().split_once(": ") {
                problems.push(format!(
                    "line {}: {key} is {value}, not a finite number",
                    i + 1
                ));
            }
        }
    }
    for d in &report.dispatch {
        let speedup = d.speedup();
        if speedup < MIN_DISPATCH_SPEEDUP {
            problems.push(format!(
                "dispatch {} speedup {speedup:.2} below floor {MIN_DISPATCH_SPEEDUP}",
                d.policy
            ));
        }
    }
    let eps = row(&report.replay, RmKind::Fifer).events_per_sec();
    if eps < MIN_FIFER_EVENTS_PER_SEC {
        problems.push(format!(
            "Fifer replay {eps:.0} events/s below floor {MIN_FIFER_EVENTS_PER_SEC:.0}"
        ));
    }
    // the checkpoint round-trip must be bit-exact, and the end-to-end
    // Fifer wall-clock must stay under its ceiling
    let nn = &report.nn;
    if !nn.bit_identical {
        problems.push("nn warm-start forecasts are not bit-identical to cold start".into());
    }
    let ceiling = if report.quick {
        MAX_NN_FIFER_E2E_QUICK_S
    } else {
        MAX_NN_FIFER_E2E_S
    };
    if nn.fifer_e2e_s > ceiling {
        problems.push(format!(
            "nn end-to-end Fifer {:.2} s above ceiling {ceiling} s",
            nn.fifer_e2e_s
        ));
    }
    // the integrals come from exact integer ledgers; used can never
    // exceed allocated (auditor invariant), so a violation here means the
    // accounting layer broke
    for (rm, ReplayRow { util: u, .. }) in &report.replay {
        if u.used_core_hours > u.alloc_core_hours {
            problems.push(format!(
                "utilization {rm}: used {:.3} core-h exceeds allocated {:.3}",
                u.used_core_hours, u.alloc_core_hours
            ));
        }
    }
    problems.extend(claims::harvest_cuts_waste(
        &row(&report.replay, RmKind::Bline).util,
        &row(&report.replay, RmKind::Harvest).util,
    ));
    problems.extend(claims::hybridhist_saves_cold_starts(
        row(&report.wild, RmKind::Bline),
        row(&report.wild, RmKind::HybridHist),
    ));
    problems
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

#[cfg(test)]
mod tests {
    use super::*;

    fn utilization(alloc: f64, used: f64, slo: f64, leases: u64) -> Utilization {
        Utilization {
            alloc_core_hours: alloc,
            used_core_hours: used,
            harvested_core_hours: 0.04,
            slo_violation_fraction: slo,
            harvest_spawns: leases,
            leases_created: leases,
            leases_ended: leases / 2,
            containers_preempted: leases / 4,
        }
    }

    fn replay_row(rm: RmKind, replay_s: f64, util: Utilization) -> (RmKind, ReplayRow) {
        let row = ReplayRow {
            warm: WarmStart::NotApplicable,
            pretrain_s: 0.0,
            replay_s,
            events: 1_000_000,
            peak_queue_depth: 215,
            jobs: 227_742,
            util,
        };
        (rm, row)
    }

    fn wild_row(cold_starts: u64, avg_containers: f64) -> WildRow {
        WildRow {
            jobs: 9905,
            cold_starts,
            blocking_cold_starts: cold_starts,
            avg_containers,
            slo_violation_fraction: 0.0104,
            median_ms: 302.277,
            p99_ms: 1659.5214,
        }
    }

    /// A quick-run report that passes every check, with the rows the
    /// checks read.
    fn fixture() -> Report {
        Report {
            quick: true,
            workers_available: 2,
            depth: 10_000,
            reps: 3,
            dispatch: vec![DispatchRow {
                policy: "lsf",
                indexed_ns: 2_500_000,
                linear_ns: 120_000_000,
            }],
            replay_horizon_s: 1200.0,
            replay: vec![
                replay_row(RmKind::Bline, 0.25, utilization(28.39, 4.07, 0.0103, 0)),
                replay_row(RmKind::Fifer, 0.5, utilization(24.12, 3.76, 0.0, 0)),
                replay_row(RmKind::Harvest, 0.4, utilization(18.54, 4.15, 0.0111, 340)),
            ],
            nn: NnRow {
                series_len: 152,
                pretrain_ns: 1_090_000_000,
                forecast_calls: 120,
                forecast_ns_per_call: 25_608.4,
                accuracy: 0.8962,
                store_ns: 270_000,
                load_ns: 250_000,
                bit_identical: true,
                fifer_e2e_s: 1.43,
            },
            wild: vec![
                (RmKind::Bline, wild_row(351, 16.229106)),
                (RmKind::HybridHist, wild_row(327, 16.343907)),
            ],
        }
    }

    fn row_mut<T>(rows: &mut [(RmKind, T)], rm: RmKind) -> &mut T {
        let (_, row) = rows.iter_mut().find(|(kind, _)| *kind == rm).unwrap();
        row
    }

    #[test]
    fn render_json_pins_the_documents_bytes() {
        let expected = r#"{
  "bench": "simulator",
  "quick": true,
  "workers_available": 2,
  "dispatch": {
    "depth": 10000,
    "reps": 3,
    "policies": {
      "lsf": { "indexed_ns": 2500000, "linear_ns": 120000000, "speedup": 48.00 }
    }
  },
  "replay": {
    "trace": "wiki",
    "mix": "heavy",
    "horizon_s": 1200,
    "rms": {
      "Bline": { "wall_clock_s": 0.250, "pretrain_s": 0.000, "replay_s": 0.250, "warm_start": "n/a", "events_processed": 1000000, "events_per_sec": 4000000, "peak_queue_depth": 215, "jobs": 227742, "slo_violation_fraction": 0.010300 },
      "Fifer": { "wall_clock_s": 0.500, "pretrain_s": 0.000, "replay_s": 0.500, "warm_start": "n/a", "events_processed": 1000000, "events_per_sec": 2000000, "peak_queue_depth": 215, "jobs": 227742, "slo_violation_fraction": 0.000000 },
      "Harvest": { "wall_clock_s": 0.400, "pretrain_s": 0.000, "replay_s": 0.400, "warm_start": "n/a", "events_processed": 1000000, "events_per_sec": 2500000, "peak_queue_depth": 215, "jobs": 227742, "slo_violation_fraction": 0.011100 }
    }
  },
  "nn": {
    "model": "lstm",
    "series_len": 152,
    "pretrain_ns": 1090000000,
    "forecast_calls": 120,
    "forecast_ns_per_call": 25608,
    "accuracy": 0.896200,
    "warm_start": { "store_ns": 270000, "load_ns": 250000, "bit_identical": true },
    "fifer_e2e_s": 1.430
  },
  "utilization": {
    "rms": {
      "Bline": { "alloc_core_hours": 28.390000, "used_core_hours": 4.070000, "waste_core_hours": 24.320000, "harvested_core_hours": 0.040000, "slo_violation_fraction": 0.010300, "harvest_spawns": 0, "leases_created": 0, "leases_ended": 0, "containers_preempted": 0 },
      "Fifer": { "alloc_core_hours": 24.120000, "used_core_hours": 3.760000, "waste_core_hours": 20.360000, "harvested_core_hours": 0.040000, "slo_violation_fraction": 0.000000, "harvest_spawns": 0, "leases_created": 0, "leases_ended": 0, "containers_preempted": 0 },
      "Harvest": { "alloc_core_hours": 18.540000, "used_core_hours": 4.150000, "waste_core_hours": 14.390000, "harvested_core_hours": 0.040000, "slo_violation_fraction": 0.011100, "harvest_spawns": 340, "leases_created": 340, "leases_ended": 170, "containers_preempted": 85 }
    }
  },
  "wild": {
    "workload": "azure",
    "horizon_s": 600,
    "apps": 32,
    "tail_exponent": 1.5,
    "total_rate": 20,
    "rms": {
      "Bline": { "jobs": 9905, "cold_starts": 351, "blocking_cold_starts": 351, "avg_containers": 16.229106, "slo_violation_fraction": 0.010400, "median_ms": 302.277, "p99_ms": 1659.521 },
      "HybridHist": { "jobs": 9905, "cold_starts": 327, "blocking_cold_starts": 327, "avg_containers": 16.343907, "slo_violation_fraction": 0.010400, "median_ms": 302.277, "p99_ms": 1659.521 }
    }
  }
}
"#;
        assert_eq!(render_json(&fixture()), expected);
    }

    #[test]
    fn the_fixture_passes_every_check() {
        assert_eq!(validate(&fixture()), Vec::<String>::new());
    }

    #[test]
    fn a_non_finite_number_fails() {
        let mut report = fixture();
        row_mut(&mut report.replay, RmKind::Bline).replay_s = 0.0;
        report.nn.accuracy = f64::NAN;
        assert_eq!(
            validate(&report),
            [
                r#"line 17: "events_per_sec" is inf, not a finite number"#,
                r#"line 28: "accuracy" is NaN, not a finite number"#,
            ]
        );
    }

    #[test]
    fn a_slow_indexed_dispatch_fails() {
        let mut report = fixture();
        report.dispatch[0].indexed_ns = 100_000_000;
        assert_eq!(
            validate(&report),
            ["dispatch lsf speedup 1.20 below floor 1.5"]
        );
    }

    #[test]
    fn a_slow_fifer_replay_fails() {
        let mut report = fixture();
        row_mut(&mut report.replay, RmKind::Fifer).replay_s = 10.0;
        assert_eq!(
            validate(&report),
            ["Fifer replay 100000 events/s below floor 200000"]
        );
    }

    #[test]
    fn a_warm_start_that_is_not_bit_identical_fails() {
        let mut report = fixture();
        report.nn.bit_identical = false;
        assert_eq!(
            validate(&report),
            ["nn warm-start forecasts are not bit-identical to cold start"]
        );
    }

    #[test]
    fn the_end_to_end_ceiling_follows_the_mode() {
        let mut report = fixture();
        report.nn.fifer_e2e_s = 3.5;
        assert_eq!(
            validate(&report),
            ["nn end-to-end Fifer 3.50 s above ceiling 3.3 s"]
        );
        report.quick = false;
        assert_eq!(validate(&report), Vec::<String>::new());
        report.nn.fifer_e2e_s = 41.0;
        assert_eq!(
            validate(&report),
            ["nn end-to-end Fifer 41.00 s above ceiling 40 s"]
        );
    }

    #[test]
    fn used_above_allocated_fails() {
        let mut report = fixture();
        row_mut(&mut report.replay, RmKind::Fifer)
            .util
            .used_core_hours = 25.0;
        assert_eq!(
            validate(&report),
            ["utilization Fifer: used 25.000 core-h exceeds allocated 24.120"]
        );
    }

    #[test]
    fn harvest_waste_near_blines_fails() {
        let mut report = fixture();
        row_mut(&mut report.replay, RmKind::Harvest)
            .util
            .alloc_core_hours = 26.5;
        assert_eq!(
            validate(&report),
            ["Harvest waste 22.350 core-h above 0.9 x Bline's 24.320"]
        );
    }

    #[test]
    fn harvest_slo_cost_fails() {
        let mut report = fixture();
        row_mut(&mut report.replay, RmKind::Harvest)
            .util
            .slo_violation_fraction = 0.025;
        assert_eq!(
            validate(&report),
            ["Harvest SLO violation fraction 0.0250 exceeds Bline's 0.0103 + 0.01"]
        );
    }

    #[test]
    fn an_inert_keep_alive_policy_fails() {
        let mut report = fixture();
        row_mut(&mut report.wild, RmKind::HybridHist).cold_starts = 351;
        assert_eq!(
            validate(&report),
            ["wild HybridHist cold starts 351 do not beat Bline's 351 — keep-alive policy inert"]
        );
    }

    #[test]
    fn hybridhist_memory_time_past_its_bound_fails() {
        let mut report = fixture();
        // the 100 s wild scenario's quick-run figure
        row_mut(&mut report.wild, RmKind::HybridHist).avg_containers = 61.2;
        assert_eq!(
            validate(&report),
            ["wild HybridHist memory-time 61.2 above 1.5 x Bline's 16.2"]
        );
    }
}
