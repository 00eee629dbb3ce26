//! `fifer` — run one simulation from the command line.
//!
//! ```text
//! fifer --rm fifer --trace wits --mix heavy --secs 1200 --seed 7
//! fifer --rm bline --trace poisson --rate 30 --out run.csv
//! fifer --replay workload.csv --rm fifer
//! fifer --compare --trace wiki --secs 1800       # all seven RMs side by side
//! fifer --rm harvest --trace wiki --secs 1800    # idle-resource harvesting on
//! fifer --rm bline --harvest --rightsize         # bolt harvesting onto any RM
//! fifer --rm hybridhist --workload azure         # keep-alive policy on the Azure family
//! ```

use fifer::prelude::*;
use fifer::sim::driver::window_max_series;
use fifer::workloads::io as wio;
use std::process::exit;

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
    harvest: bool,
    rightsize: bool,
    model_cache: Option<String>,
    online_retrain: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fifer [options]\n\
         \n\
         --rm <bline|sbatch|rscale|bpred|fifer|harvest|hybridhist>  resource manager (default fifer)\n\
         --compare                                 run all seven RMs\n\
         --harvest                                 lend idle allocation headroom to new\n\
                                                   containers (on by default for --rm harvest)\n\
         --rightsize                               shrink over-allocated containers to their\n\
                                                   observed usage (on by default for --rm harvest)\n\
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
         --warmup <n>                              warmup excluded from metrics (default secs/6)\n\
         --seed <n>                                RNG seed (default 42)\n\
         --large                                   use the large-scale cluster (16 nodes)\n\
         --early-exit <p>                          dynamic-chain early-exit probability\n\
         --tenants <n>                             isolated tenants sharing the cluster (default 1)\n\
         --replay <file.csv>                       replay a saved workload instead of a trace\n\
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
                                                   observed rate tail during the run (paper §8)\n\
         --audit                                   run the invariant auditor at every event commit"
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
        harvest: false,
        rightsize: false,
        model_cache: None,
        online_retrain: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
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
            "--harvest" => args.harvest = true,
            "--rightsize" => args.rightsize = true,
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
    if !(0.0..=1.0).contains(&args.early_exit) {
        eprintln!("error: --early-exit must be in [0, 1]");
        usage()
    }
    args
}

fn build_stream(args: &Args) -> JobStream {
    if let Some(path) = &args.replay {
        return wio::load_stream(path, args.mix).unwrap_or_else(|e| {
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

fn main() {
    let args = parse_args();
    let stream = build_stream(&args);
    if stream.is_empty() {
        eprintln!("error: workload is empty (rate or duration too small)");
        exit(1);
    }
    if let Some(path) = &args.save_workload {
        if let Err(e) = wio::save_stream(&stream, path) {
            eprintln!("error: cannot save workload to {path}: {e}");
            exit(1);
        }
        println!("saved {} jobs to {path}", stream.len());
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
    let avg_rate = stream.len() as f64 / secs as f64;
    let warmup = args.warmup.unwrap_or(secs / 6);

    println!(
        "workload: {} jobs over {secs}s (avg {avg_rate:.1} req/s), mix {}, seed {}\n",
        stream.len(),
        stream.mix(),
        args.seed
    );
    println!(
        "{:>7}  {:>10}  {:>8}  {:>10}  {:>9}  {:>8}  {:>7}  {:>9}",
        "rm", "slo_viol%", "steady%", "containers", "median_ms", "p99_ms", "spawns", "energy_kJ"
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
        cfg.tenants = args.tenants.max(1);
        cfg.faults = args.faults.clone();
        cfg.audit = args.audit;
        if args.harvest || args.rightsize {
            // bolt harvesting / right-sizing onto any RM: paper-default
            // lending knobs, switches set by the flags actually passed
            let mut h = HarvestConfig::paper_default();
            h.enabled = args.harvest;
            h.rightsize = args.rightsize;
            cfg.rm.harvest = h;
        }
        if let Some(path) = &args.decision_trace {
            // like --json, the last RM listed wins under --compare
            cfg.trace.capacity = 1 << 20;
            cfg.trace.jsonl = Some(path.clone());
        }
        if args.online_retrain {
            cfg.rm.online_retrain = OnlineRetrainConfig::paper_default();
        }
        if cfg.rm.is_proactive() {
            let cut = (stream.len() * 6 / 10).max(1);
            let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
            cfg.pretrain_series = window_max_series(&arrivals, 5);
        }
        let (sim, warm) = Simulation::new_served(cfg, &stream, cache.as_ref());
        match warm {
            WarmStart::Warm => println!("{kind}: predictor warm-started from model cache"),
            WarmStart::Cold if cache.is_some() => {
                println!("{kind}: predictor trained cold, checkpoint stored to model cache")
            }
            _ => {}
        }
        let r = sim.run();
        if let Some(path) = &args.json {
            // the last RM listed wins when --compare is combined with --json
            if let Err(e) = fifer::metrics::report::write_file(path, &r.to_json()) {
                eprintln!("error: cannot write {path}: {e}");
                exit(1);
            }
        }
        println!(
            "{:>7}  {:>10.2}  {:>8.2}  {:>10.1}  {:>9.0}  {:>8.0}  {:>7}  {:>9.1}",
            kind.to_string(),
            r.slo_whole_run.violation_fraction() * 100.0,
            r.slo_violation_fraction() * 100.0,
            r.avg_live_containers(),
            r.median_latency_ms(),
            r.p99_latency_ms(),
            r.total_spawns,
            r.energy_joules / 1e3,
        );
        csv.push_str(&format!(
            "{},{:.6},{:.6},{:.2},{:.1},{:.1},{},{:.1}\n",
            kind,
            r.slo_whole_run.violation_fraction(),
            r.slo_violation_fraction(),
            r.avg_live_containers(),
            r.median_latency_ms(),
            r.p99_latency_ms(),
            r.total_spawns,
            r.energy_joules / 1e3,
        ));
        println!(
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
            println!(
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
                println!("         audit: {} checks, no violations", r.audit_checks);
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
        println!("\nsummary written to {path}");
    }
    if audit_failed {
        exit(3);
    }
}
