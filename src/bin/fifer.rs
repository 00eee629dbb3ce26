//! `fifer` — run one simulation from the command line.
//!
//! ```text
//! fifer --rm fifer --trace wits --mix heavy --secs 1200 --seed 7
//! fifer --rm bline --trace poisson --rate 30 --out run.csv
//! fifer --replay workload.csv --rm fifer
//! fifer --compare --trace wiki --secs 1800       # all seven RMs side by side
//! fifer --rm harvest --trace wiki --secs 1800    # idle-resource harvesting on
//! fifer --rm hybridhist --workload azure         # keep-alive policy on the Azure family
//! ```
//!
//! Exit status: 0 on success, 1 on an I/O or workload error, 2 on a usage
//! error, 3 when the auditor found invariant violations, and 141 when the
//! reader of stdout went away early (`fifer … | head`), the status a shell
//! reports for a producer stopped by `SIGPIPE`.

use fifer::prelude::*;
use fifer::sim::driver::window_max_series;
use fifer::workloads::io as wio;
use std::io::{self, Write};
use std::process::exit;

/// The flags that shape a generated stream; a replayed file fixes all of
/// them, so none may be combined with `--replay`.
const STREAM_FLAGS: [&str; 8] = [
    "--workload",
    "--apps",
    "--tail-exp",
    "--trigger-mix",
    "--trace",
    "--mix",
    "--rate",
    "--secs",
];

/// Writes one line of the report to stdout, ending the run through
/// [`stdout_failed`] if it cannot.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        if let Err(e) = writeln!($out, $($arg)*) {
            stdout_failed(e)
        }
    };
}

/// Ends the run when the report cannot be written. A reader that closed
/// the pipe early is not worth a message: the run stops quietly with
/// status 141. Any other write error is reported and exits 1.
fn stdout_failed(e: io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        exit(141)
    }
    eprintln!("error: cannot write to stdout: {e}");
    exit(1)
}

#[derive(Debug, Clone)]
struct Args {
    rm: Vec<RmKind>,
    trace: String,
    workload: String,
    apps: usize,
    tail_exp: f64,
    trigger_mix: TriggerMix,
    mix: WorkloadMix,
    secs: u64,
    rate: f64,
    seed: u64,
    warmup: Option<u64>,
    replay: Option<String>,
    save_workload: Option<String>,
    out: Option<String>,
    json: Option<String>,
    large: bool,
    early_exit: f64,
    tenants: usize,
    decision_trace: Option<String>,
    faults: FaultPlan,
    audit: bool,
    model_cache: Option<String>,
    online_retrain: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fifer [options]\n\
         \n\
         --rm <bline|sbatch|rscale|bpred|fifer|harvest|hybridhist>  resource manager (default fifer)\n\
         --compare                                 run all seven RMs\n\
         --workload <paper|azure>                  workload family (default paper): paper uses\n\
                                                   --trace; azure is the heavy-tailed mixed-trigger\n\
                                                   family from the Azure characterization\n\
         --apps <n>                                azure: number of applications (default 32)\n\
         --tail-exp <s>                            azure: Zipf tail exponent (default 1.5)\n\
         --trigger-mix <h,t,q,e>                   azure: percent of apps per trigger class,\n\
                                                   http,timer,queue,event (default 55,20,15,10)\n\
         --trace <poisson|wiki|wits>               arrival trace (default poisson)\n\
         --mix <heavy|medium|light>                workload mix (default heavy)\n\
         --rate <req/s>                            poisson rate / trace scale basis (default 50)\n\
         --secs <n>                                duration in seconds (default 600)\n\
         --warmup <n>                              warmup excluded from metrics (default secs/6);\n\
                                                   must be below the horizon\n\
         --seed <n>                                RNG seed (default 42)\n\
         --large                                   use the large-scale cluster (16 nodes)\n\
         --early-exit <p>                          dynamic-chain early-exit probability\n\
         --tenants <n>                             isolated tenants sharing the cluster (default 1)\n\
         --replay <file.csv>                       replay a saved workload instead of a trace; the\n\
                                                   file fixes the workload, so --workload, --apps,\n\
                                                   --tail-exp, --trigger-mix, --trace, --mix, --rate\n\
                                                   and --secs are rejected with it\n\
         --save-workload <file.csv>                save the generated workload\n\
         --out <file.csv>                          write the summary row(s) as CSV\n\
         --json <file.json>                        dump the full SimResult of the last RM as JSON\n\
         --decision-trace <file.jsonl>             export the last RM's scaling decisions as JSONL\n\
         --faults <spec>                           seeded fault plan, e.g.\n\
                                                   seed=7,spawn=0.05@500,crash=0.02,straggler=0.1x4,retries=8,outage=2@100+60\n\
         --model-cache <dir>                       checkpoint pretrained neural predictors in <dir>;\n\
                                                   a repeated (model, seed, series) run warm-starts\n\
                                                   from the cache with bit-identical forecasts\n\
         --online-retrain                          keep fine-tuning the neural predictor on the\n\
                                                   observed rate tail during the run (paper §8);\n\
                                                   needs a forecasting RM (bpred, fifer or --compare)\n\
         --audit                                   run the invariant auditor at every event commit\n\
         \n\
         exit status: 0 ok, 1 I/O or workload error, 2 usage error, 3 audit violations,\n\
         141 stdout closed early"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        rm: vec![RmKind::Fifer],
        trace: "poisson".into(),
        workload: "paper".into(),
        apps: 32,
        tail_exp: 1.5,
        trigger_mix: TriggerMix::paper_default(),
        mix: WorkloadMix::Heavy,
        secs: 600,
        rate: 50.0,
        seed: 42,
        warmup: None,
        replay: None,
        save_workload: None,
        out: None,
        json: None,
        large: false,
        early_exit: 0.0,
        tenants: 1,
        decision_trace: None,
        faults: FaultPlan::none(),
        audit: false,
        model_cache: None,
        online_retrain: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut stream_flag = None;
    while i < argv.len() {
        if let Some(flag) = STREAM_FLAGS.iter().find(|&&f| f == argv[i]) {
            stream_flag.get_or_insert(*flag);
        }
        match argv[i].as_str() {
            "--rm" => {
                args.rm = vec![match value(&mut i).to_lowercase().as_str() {
                    "bline" => RmKind::Bline,
                    "sbatch" => RmKind::SBatch,
                    "rscale" => RmKind::RScale,
                    "bpred" => RmKind::BPred,
                    "fifer" => RmKind::Fifer,
                    "harvest" => RmKind::Harvest,
                    "hybridhist" => RmKind::HybridHist,
                    other => {
                        eprintln!("error: unknown rm {other:?}");
                        usage()
                    }
                }]
            }
            "--compare" => args.rm = RmKind::ALL.to_vec(),
            "--trace" => args.trace = value(&mut i).to_lowercase(),
            "--workload" => {
                args.workload = value(&mut i).to_lowercase();
                if !matches!(args.workload.as_str(), "paper" | "azure") {
                    eprintln!("error: unknown workload {:?}", args.workload);
                    usage()
                }
            }
            "--apps" => args.apps = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tail-exp" => args.tail_exp = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trigger-mix" => {
                args.trigger_mix = TriggerMix::parse(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage()
                })
            }
            "--mix" => {
                args.mix = match value(&mut i).to_lowercase().as_str() {
                    "heavy" => WorkloadMix::Heavy,
                    "medium" => WorkloadMix::Medium,
                    "light" => WorkloadMix::Light,
                    other => {
                        eprintln!("error: unknown mix {other:?}");
                        usage()
                    }
                }
            }
            "--secs" => args.secs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => args.rate = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup" => args.warmup = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--large" => args.large = true,
            "--tenants" => args.tenants = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--early-exit" => args.early_exit = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--replay" => args.replay = Some(value(&mut i)),
            "--save-workload" => args.save_workload = Some(value(&mut i)),
            "--out" => args.out = Some(value(&mut i)),
            "--json" => args.json = Some(value(&mut i)),
            "--decision-trace" => args.decision_trace = Some(value(&mut i)),
            "--faults" => {
                args.faults = FaultPlan::parse(&value(&mut i)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    usage()
                })
            }
            "--audit" => args.audit = true,
            "--model-cache" => args.model_cache = Some(value(&mut i)),
            "--online-retrain" => args.online_retrain = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage()
            }
        }
        i += 1;
    }
    // flags that would be silently ignored are usage errors
    if let (Some(flag), Some(_)) = (stream_flag, &args.replay) {
        eprintln!("error: {flag} cannot be combined with --replay: the file fixes the workload");
        usage()
    }
    if args.online_retrain && !args.rm.iter().any(|k| k.config().is_proactive()) {
        eprintln!(
            "error: --online-retrain needs a forecasting RM (bpred, fifer or --compare); \
             the selected RM has no predictor to retrain"
        );
        usage()
    }
    if !(0.0..=1.0).contains(&args.early_exit) {
        eprintln!("error: --early-exit must be in [0, 1]");
        usage()
    }
    if !(args.rate.is_finite() && args.rate > 0.0) {
        eprintln!("error: --rate must be a positive finite number");
        usage()
    }
    let max_secs = JobStream::MAX_HORIZON.as_secs();
    if args.secs > max_secs {
        eprintln!(
            "error: --secs must be at most {max_secs} ({} days)",
            max_secs / 86_400
        );
        usage()
    }
    if args.rate * args.secs as f64 > JobStream::MAX_JOBS as f64 {
        eprintln!(
            "error: --rate × --secs must be at most {} jobs",
            JobStream::MAX_JOBS
        );
        usage()
    }
    if args.apps == 0 {
        eprintln!("error: --apps must be at least 1");
        usage()
    }
    if args.tenants == 0 {
        eprintln!("error: --tenants must be at least 1");
        usage()
    }
    if !(args.tail_exp.is_finite() && args.tail_exp > 0.0) {
        eprintln!("error: --tail-exp must be a positive finite number");
        usage()
    }
    args
}

fn build_stream(args: &Args) -> JobStream {
    if let Some(path) = &args.replay {
        return wio::load_stream(path).unwrap_or_else(|e| {
            eprintln!("error: cannot replay {path}: {e}");
            exit(1)
        });
    }
    let horizon = SimDuration::from_secs(args.secs);
    if args.workload == "azure" {
        let cfg = AzureWorkloadConfig {
            apps: args.apps,
            tail_exponent: args.tail_exp,
            total_rate: args.rate,
            trigger_mix: args.trigger_mix,
            mix: args.mix,
        };
        return cfg.generate_stream(horizon, args.seed);
    }
    let trace: Box<dyn TraceGenerator> = match args.trace.as_str() {
        "poisson" => Box::new(PoissonTrace::new(args.rate)),
        // scale factor expressed against the traces' paper-scale averages
        "wiki" => Box::new(WikiLikeTrace::scaled(args.rate / 1500.0)),
        "wits" => Box::new(WitsLikeTrace::scaled(args.rate / 240.0, horizon, args.seed)),
        other => {
            eprintln!("error: unknown trace {other:?}");
            usage()
        }
    };
    JobStream::generate(trace.as_ref(), args.mix, horizon, args.seed)
}

/// Streams `r`'s JSON artifact to `path` through a buffer, creating parent
/// directories as needed.
fn write_json(path: &str, r: &SimResult) -> io::Result<()> {
    let mut w = io::BufWriter::new(fifer::metrics::report::create_file(path)?);
    r.write_json(&mut w)?;
    w.flush()
}

fn main() {
    let args = parse_args();
    let mut out = io::stdout().lock();
    if let Some(path) = &args.decision_trace {
        // fail before the replay, not after it; the run rewrites the file
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("error: cannot write {path}: {e}");
            exit(1);
        }
    }
    let stream = build_stream(&args);
    if stream.is_empty() {
        eprintln!("error: workload is empty (rate or duration too small)");
        exit(1);
    }
    let secs = args
        .replay
        .as_ref()
        .map(|_| {
            stream
                .jobs()
                .last()
                .map(|j| j.arrival.as_secs_f64().ceil() as u64 + 1)
                .unwrap_or(1)
        })
        .unwrap_or(args.secs);
    let warmup = args.warmup.unwrap_or(secs / 6);
    if warmup >= secs {
        // no job would be measured, and the headline would read as zeros
        eprintln!("error: --warmup must be below the horizon of {secs} s");
        usage()
    }
    if let Some(path) = &args.save_workload {
        if let Err(e) = wio::save_stream(&stream, path) {
            eprintln!("error: cannot save workload to {path}: {e}");
            exit(1);
        }
        say!(out, "saved {} jobs to {path}", stream.len());
    }
    let avg_rate = stream.len() as f64 / secs as f64;

    say!(
        out,
        "workload: {} jobs over {secs}s (avg {avg_rate:.1} req/s), mix {}, seed {}\n",
        stream.len(),
        stream.mix(),
        args.seed
    );
    say!(
        out,
        "{:>7}  {:>10}  {:>8}  {:>10}  {:>9}  {:>8}  {:>7}  {:>9}",
        "rm",
        "slo_viol%",
        "steady%",
        "containers",
        "median_ms",
        "p99_ms",
        "spawns",
        "energy_kJ"
    );
    let mut csv = String::from(
        "rm,slo_violations_whole,slo_violations_steady,avg_containers,median_ms,p99_ms,spawns,energy_kj\n",
    );
    let mut audit_failed = false;
    let cache = args.model_cache.as_ref().map(|dir| {
        ModelCache::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open model cache {dir}: {e}");
            exit(1)
        })
    });
    for kind in &args.rm {
        let mut cfg = if args.large {
            SimConfig::large_scale(kind.config(), avg_rate)
        } else {
            SimConfig::prototype(kind.config(), avg_rate)
        };
        cfg.seed = args.seed;
        cfg.warmup = SimDuration::from_secs(warmup);
        cfg.idle_timeout = SimDuration::from_secs((secs / 6).clamp(60, 600));
        if cfg.rm.keepalive.enabled {
            // the histogram policy makes its own keep-alive decisions; the
            // mechanism timeout only sets the idle-scan granularity
            cfg.idle_timeout = SimDuration::from_secs(10);
        }
        cfg.early_exit_prob = args.early_exit;
        cfg.tenants = args.tenants;
        cfg.faults = args.faults.clone();
        if let Err(e) = cfg.faults.validate(cfg.cluster.nodes) {
            eprintln!("error: --faults: {e}");
            exit(2);
        }
        cfg.audit = args.audit;
        cfg.rm.online_retrain = args.online_retrain;
        if let Some(path) = &args.decision_trace {
            // like --json, the last RM listed wins under --compare
            cfg.trace.capacity = 1 << 20;
            cfg.trace.jsonl = Some(path.clone());
        }
        if cfg.rm.is_proactive() {
            let cut = (stream.len() * 6 / 10).max(1);
            let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
            cfg.pretrain_series = window_max_series(&arrivals, 5);
        }
        let (sim, warm) = Simulation::new_served(cfg, &stream, cache.as_ref());
        match warm {
            WarmStart::Warm => say!(out, "{kind}: predictor warm-started from model cache"),
            WarmStart::Cold if cache.is_some() => {
                say!(
                    out,
                    "{kind}: predictor trained cold, checkpoint stored to model cache"
                )
            }
            _ => {}
        }
        let r = sim.run();
        if let Some(path) = &args.json {
            // the last RM listed wins when --compare is combined with --json
            if let Err(e) = write_json(path, &r) {
                eprintln!("error: cannot write {path}: {e}");
                exit(1);
            }
        }
        // one headline per RM: its latencies are sorted once for both rows
        let h = r.headline();
        say!(
            out,
            "{:>7}  {:>10.2}  {:>8.2}  {:>10.1}  {:>9.0}  {:>8.0}  {:>7}  {:>9.1}",
            kind.to_string(),
            r.slo_whole_run.violation_fraction() * 100.0,
            h.slo_violations * 100.0,
            h.avg_containers,
            h.median_ms,
            h.p99_ms,
            h.cold_starts,
            h.energy_joules / 1e3,
        );
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.2},{:.1},{:.1},{},{:.1}\n",
            kind,
            r.slo_whole_run.violation_fraction(),
            h.slo_violations,
            h.avg_containers,
            h.median_ms,
            h.p99_ms,
            h.cold_starts,
            h.energy_joules / 1e3,
        ));
        say!(
            out,
            "         utilization: {:.2} core-h allocated, {:.2} used, {:.2} wasted{}",
            r.alloc_core_hours,
            r.used_core_hours,
            r.alloc_core_hours - r.used_core_hours,
            if r.harvested_core_hours > 0.0 || r.containers_rightsized > 0 {
                format!(
                    ", {:.2} harvested ({} harvest spawns, {} rightsized)",
                    r.harvested_core_hours, r.harvest_spawns, r.containers_rightsized
                )
            } else {
                String::new()
            }
        );
        if args.faults.is_active() {
            say!(
                out,
                "         faults: {} container failures, {} tasks crashed, \
                 {} requeued, {} jobs dropped, {} node outages",
                r.container_failures,
                r.tasks_crashed,
                r.tasks_requeued,
                r.jobs_dropped,
                r.node_outages,
            );
        }
        if args.audit {
            if r.audit_violations.is_empty() {
                say!(
                    out,
                    "         audit: {} checks, no violations",
                    r.audit_checks
                );
            } else {
                audit_failed = true;
                eprintln!(
                    "audit: {} INVARIANT VIOLATIONS in {} checks ({kind}):",
                    r.audit_violations.len(),
                    r.audit_checks
                );
                for v in &r.audit_violations {
                    eprintln!("  {v}");
                }
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = fifer::metrics::report::write_file(path, &csv) {
            eprintln!("error: cannot write {path}: {e}");
            exit(1);
        }
        say!(out, "\nsummary written to {path}");
    }
    if let Err(e) = out.flush() {
        stdout_failed(e)
    }
    if audit_failed {
        exit(3);
    }
}
