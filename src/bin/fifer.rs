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
use fifer::sim::{ClusterConfig, SimTrace};
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

/// The flags that shape only the azure family; without `--workload azure`
/// they would be ignored.
const AZURE_FLAGS: [&str; 3] = ["--apps", "--tail-exp", "--trigger-mix"];

/// Decisions `--decision-trace` keeps: the last 2^20 of the run.
const DECISION_TRACE_CAPACITY: usize = 1 << 20;

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
    fail(format!("cannot write to stdout: {e}"))
}

/// Reports an I/O or workload error and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1)
}

#[derive(Debug, Clone)]
struct Args {
    rm: Vec<RmKind>,
    scenario: Scenario,
    replay: Option<String>,
    save_workload: Option<String>,
    out: Option<String>,
    json: Option<String>,
    early_exit: f64,
    tenants: usize,
    decision_trace: Option<String>,
    faults: FaultPlan,
    audit: bool,
    model_cache: Option<String>,
    online_retrain: bool,
}

fn usage() -> ! {
    let large = ClusterConfig::large_scale();
    // one literal written flush left, as printed: a `\` line continuation
    // would also strip the indent of the wrapped description lines
    eprintln!(
        "\
usage: fifer [options]

--rm <bline|sbatch|rscale|bpred|fifer|harvest|hybridhist>  resource manager (default fifer)
--compare                                 run all seven RMs
--workload <paper|azure>                  workload family (default paper): paper uses
                                          --trace; azure is the heavy-tailed mixed-trigger
                                          family from the Azure characterization
--apps <n>                                azure: number of applications (default 32)
--tail-exp <s>                            azure: Zipf tail exponent (default 1.5)
--trigger-mix <h,t,q,e>                   azure: percent of apps per trigger class,
                                          http,timer,queue,event (default 55,20,15,10)
--trace <poisson|wiki|wits>               paper: arrival trace (default poisson)
--mix <heavy|medium|light>                workload mix (default heavy)
--rate <req/s>                            poisson rate / trace scale basis (default 50)
--secs <n>                                duration in seconds (default 600)
--warmup <n>                              warmup excluded from metrics (default secs/6);
                                          must be below the horizon
--seed <n>                                RNG seed (default 42)
--large                                   use the large-scale cluster ({} nodes, {} cores)
--early-exit <p>                          dynamic-chain early-exit probability
--tenants <n>                             isolated tenants sharing the cluster (default 1)
--replay <file.csv>                       replay a saved workload instead of a trace; the
                                          file fixes the workload, so --workload, --apps,
                                          --tail-exp, --trigger-mix, --trace, --mix, --rate
                                          and --secs are rejected with it
--save-workload <file.csv>                save the generated workload
--out <file.csv>                          write the summary row(s) as CSV
--json <file.json>                        dump the full SimResult of the last RM as JSON
--decision-trace <file.jsonl>             export the last RM's scaling decisions as JSONL;
                                          the file holds the last 2^20 decisions
--faults <spec>                           seeded fault plan, e.g.
                                          seed=7,spawn=0.05@500,crash=0.02,straggler=0.1x4,retries=8,outage=2@100+60
--model-cache <dir>                       checkpoint pretrained neural predictors in <dir>;
                                          a repeated (model, seed, series) run warm-starts
                                          from the cache with bit-identical forecasts;
                                          needs a neural predictor (fifer or --compare)
--online-retrain                          keep fine-tuning the LSTM predictor on the
                                          observed rate tail during the run (paper §8);
                                          needs an LSTM-forecasting RM (fifer or --compare)
--audit                                   run the invariant auditor at every event commit

exit status:                              0 ok, 1 I/O or workload error, 2 usage error,
                                          3 audit violations, 141 stdout closed early",
        large.nodes,
        large.total_cores(),
    );
    exit(2)
}

/// Reports a usage error and exits 2 with the usage text.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    usage()
}

/// The member of `all` whose name is `name` in any case; a usage error
/// naming the `what` otherwise.
fn named<T: Copy + std::fmt::Display>(all: &[T], what: &str, name: &str) -> T {
    let found = all
        .iter()
        .find(|v| v.to_string().eq_ignore_ascii_case(name));
    *found.unwrap_or_else(|| usage_error(format!("unknown {what} {:?}", name.to_lowercase())))
}

fn parse_args() -> Args {
    let mut args = Args {
        rm: vec![RmKind::Fifer],
        scenario: Scenario::default(),
        replay: None,
        save_workload: None,
        out: None,
        json: None,
        early_exit: 0.0,
        tenants: 1,
        decision_trace: None,
        faults: FaultPlan::none(),
        audit: false,
        model_cache: None,
        online_retrain: false,
    };
    // the family flags, combined into `args.scenario.arrivals` at the end
    let mut azure = false;
    let mut trace = None;
    let (mut apps, mut tail_exponent) = (32, 1.5);
    let mut trigger_mix = TriggerMix::paper_default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    let mut stream_flag = None;
    let mut azure_flag = None;
    while i < argv.len() {
        if let Some(flag) = STREAM_FLAGS.iter().find(|&&f| f == argv[i]) {
            stream_flag.get_or_insert(*flag);
        }
        if let Some(flag) = AZURE_FLAGS.iter().find(|&&f| f == argv[i]) {
            azure_flag.get_or_insert(*flag);
        }
        match argv[i].as_str() {
            "--rm" => args.rm = vec![named(&RmKind::ALL, "rm", &value(&mut i))],
            "--compare" => args.rm = RmKind::ALL.to_vec(),
            "--trace" => {
                trace = Some(match value(&mut i).to_lowercase().as_str() {
                    "poisson" => Arrivals::Poisson,
                    "wiki" => Arrivals::Wiki,
                    "wits" => Arrivals::Wits,
                    other => usage_error(format!("unknown trace {other:?}")),
                })
            }
            "--workload" => {
                azure = match value(&mut i).to_lowercase().as_str() {
                    "paper" => false,
                    "azure" => true,
                    other => usage_error(format!("unknown workload {other:?}")),
                }
            }
            "--apps" => apps = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--tail-exp" => tail_exponent = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trigger-mix" => {
                trigger_mix = TriggerMix::parse(&value(&mut i)).unwrap_or_else(|e| usage_error(e))
            }
            "--mix" => args.scenario.mix = named(&WorkloadMix::ALL, "mix", &value(&mut i)),
            "--secs" => args.scenario.secs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rate" => args.scenario.rate = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.scenario.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--warmup" => {
                let secs = value(&mut i).parse().unwrap_or_else(|_| usage());
                args.scenario.warmup = Some(SimDuration::from_secs(secs));
            }
            "--large" => args.scenario.cluster = ClusterConfig::large_scale(),
            "--tenants" => args.tenants = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--early-exit" => args.early_exit = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--replay" => args.replay = Some(value(&mut i)),
            "--save-workload" => args.save_workload = Some(value(&mut i)),
            "--out" => args.out = Some(value(&mut i)),
            "--json" => args.json = Some(value(&mut i)),
            "--decision-trace" => args.decision_trace = Some(value(&mut i)),
            "--faults" => {
                args.faults = FaultPlan::parse(&value(&mut i)).unwrap_or_else(|e| usage_error(e))
            }
            "--audit" => args.audit = true,
            "--model-cache" => args.model_cache = Some(value(&mut i)),
            "--online-retrain" => args.online_retrain = true,
            "--help" | "-h" => usage(),
            other => usage_error(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    // flags that would be silently ignored are usage errors
    if let (Some(flag), Some(_)) = (stream_flag, &args.replay) {
        usage_error(format!(
            "{flag} cannot be combined with --replay: the file fixes the workload"
        ))
    }
    args.scenario.arrivals = match (azure, trace) {
        (true, Some(_)) => usage_error(
            "--trace cannot be combined with --workload azure: the family draws its own arrivals",
        ),
        (true, None) => Arrivals::Azure {
            apps,
            tail_exponent,
            trigger_mix,
        },
        (false, trace) => {
            if let Some(flag) = azure_flag {
                usage_error(format!(
                    "{flag} shapes the azure family; it needs --workload azure"
                ))
            }
            trace.unwrap_or(Arrivals::Poisson)
        }
    };
    // a flag no selected RM's predictor can act on would be inert
    let predictors = || args.rm.iter().filter_map(|k| k.config().predictor());
    if args.model_cache.is_some() && !predictors().any(PredictorKind::is_neural) {
        usage_error(
            "--model-cache needs a neural predictor (fifer or --compare); \
             the selected RM has no model to cache",
        )
    }
    if args.online_retrain && !predictors().any(PredictorKind::retrains_online) {
        usage_error(
            "--online-retrain needs an LSTM-forecasting RM (fifer or --compare); \
             the selected RM has no predictor that retrains online",
        )
    }
    if !(0.0..=1.0).contains(&args.early_exit) {
        usage_error("--early-exit must be in [0, 1]")
    }
    if args.tenants == 0 {
        usage_error("--tenants must be at least 1")
    }
    args
}

/// Loads the stream to replay, or generates the scenario's, after every
/// check on the input has passed: a rejected input exits before any file
/// is written. A replay sets the scenario's horizon to one second past
/// its last arrival.
fn checked_stream(args: &mut Args) -> JobStream {
    let replayed = args.replay.as_ref().map(|path| {
        wio::load_stream(path).unwrap_or_else(|e| fail(format!("cannot replay {path}: {e}")))
    });
    let checked = match &replayed {
        Some(stream) => {
            args.scenario.secs = stream
                .last_arrival()
                .map_or(1, |t| t.as_secs_f64().ceil() as u64 + 1);
            args.scenario.validate_warmup()
        }
        None => args.scenario.validate(),
    };
    if let Err(e) = checked {
        usage_error(e)
    }
    if let Err(e) = args.faults.validate(args.scenario.cluster.nodes) {
        eprintln!("error: --faults: {e}");
        exit(2);
    }
    let stream = replayed.unwrap_or_else(|| args.scenario.stream());
    if stream.is_empty() {
        fail("workload is empty (rate or duration too small)")
    }
    stream
}

/// Creates the output file at `path` (and its parent directories), or
/// exits naming it.
fn create(path: &str) -> (&str, std::fs::File) {
    let file = fifer::metrics::report::create_file(path)
        .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    (path, file)
}

/// Streams `r`'s JSON artifact to `file` through a buffer.
fn write_json(file: std::fs::File, r: &SimResult) -> io::Result<()> {
    let mut w = io::BufWriter::new(file);
    r.write_json(&mut w)?;
    w.flush()
}

/// Streams the retained decisions to `file` as JSON Lines through a buffer.
fn write_decisions(file: std::fs::File, trace: &SimTrace) -> io::Result<()> {
    let mut w = io::BufWriter::new(file);
    trace.write_jsonl(&mut w)?;
    w.flush()
}

fn main() {
    let mut args = parse_args();
    let mut out = io::stdout().lock();
    let stream = checked_stream(&mut args);
    let secs = args.scenario.secs;
    // fail before the replay, not after it; the last RM's run fills each
    // file
    let mut decision_trace = args.decision_trace.as_deref().map(create);
    let mut json = args.json.as_deref().map(create);
    if let Some(path) = &args.save_workload {
        if let Err(e) = wio::save_stream(&stream, path) {
            fail(format!("cannot save workload to {path}: {e}"))
        }
        say!(out, "saved {} jobs to {path}", stream.len());
    }
    let avg_rate = stream.len() as f64 / secs as f64;

    say!(
        out,
        "workload: {} jobs over {secs}s (avg {avg_rate:.1} req/s), mix {}, seed {}\n",
        stream.len(),
        stream.mix(),
        args.scenario.seed
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
        ModelCache::open(dir)
            .unwrap_or_else(|e| fail(format!("cannot open model cache {dir}: {e}")))
    });
    for (i, kind) in args.rm.iter().enumerate() {
        // the last RM listed wins under --compare: only its run keeps a
        // ring, and only its result is written as JSON
        let last = i + 1 == args.rm.len();
        let mut rm = kind.config();
        rm.online_retrain = args.online_retrain;
        let mut cfg = args.scenario.config(rm, &stream);
        cfg.early_exit_prob = args.early_exit;
        cfg.tenants = args.tenants;
        cfg.faults = args.faults.clone();
        cfg.audit = args.audit;
        if last && decision_trace.is_some() {
            cfg.trace.capacity = DECISION_TRACE_CAPACITY;
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
        let (r, trace) = sim.run_with_trace();
        if let Some((path, file)) = decision_trace.take_if(|_| last) {
            if let Err(e) = write_decisions(file, &trace) {
                fail(format!("cannot write {path}: {e}"))
            }
            if trace.dropped > 0 {
                eprintln!(
                    "--decision-trace kept the last {} of {} decisions",
                    trace.len(),
                    trace.len() as u64 + trace.dropped
                );
            }
        }
        if let Some((path, file)) = json.take_if(|_| last) {
            if let Err(e) = write_json(file, &r) {
                fail(format!("cannot write {path}: {e}"))
            }
        }
        // one headline per RM: the median and P99 share its passes over the records
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
            fail(format!("cannot write {path}: {e}"))
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
