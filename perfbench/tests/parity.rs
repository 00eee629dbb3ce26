//! The benchmark measures the product, not a lookalike:
//!
//! * wrapping any resource manager in the hook-timing decorator leaves the
//!   run byte-identical;
//! * each workload's runner reproduces the full result of its `fifer`
//!   command line (on a shortened horizon).

use fifer::prelude::*;
use fifer_perfbench::{pretrain_series, HookStats, HookTimer, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A short faulted WITS run under `kind`, so every hook gets a chance to
/// fire: arrivals, ticks, idle scans, container failures and a node outage.
fn short_config(kind: RmKind, stream: &JobStream) -> SimConfig {
    let secs = 600;
    let mut cfg = SimConfig::prototype(kind.config(), stream.len() as f64 / secs as f64);
    cfg.seed = 11;
    cfg.warmup = SimDuration::from_secs(secs / 6);
    cfg.idle_timeout = SimDuration::from_secs(if cfg.rm.keepalive.enabled { 10 } else { 60 });
    cfg.faults = FaultPlan::parse("seed=3,spawn=0.05@100,crash=0.02,retries=8,outage=1@200+60")
        .expect("valid fault spec");
    cfg.pretrain_series = pretrain_series(&cfg.rm, stream);
    cfg
}

#[test]
fn hook_timer_is_transparent_for_every_rm() {
    let horizon = SimDuration::from_secs(600);
    let stream = JobStream::generate(
        &WitsLikeTrace::scaled(30.0 / 240.0, horizon, 11),
        WorkloadMix::Heavy,
        horizon,
        11,
    );
    for kind in RmKind::ALL {
        let cfg = short_config(kind, &stream);
        let plain_rm = cfg.rm.build_rm(cfg.seed, &cfg.pretrain_series);
        let sink = Arc::new(Mutex::new(HookStats::default()));
        let timed_rm = HookTimer::new(
            cfg.rm.build_rm(cfg.seed, &cfg.pretrain_series),
            Arc::clone(&sink),
        );
        use fifer::core::ResourceManager;
        assert_eq!(timed_rm.name(), plain_rm.name(), "{kind}");
        assert_eq!(
            timed_rm.wants_reactive_ticks(),
            plain_rm.wants_reactive_ticks(),
            "{kind}"
        );
        assert_eq!(timed_rm.observes_load(), plain_rm.observes_load(), "{kind}");

        let plain = Simulation::with_resource_manager(cfg.clone(), &stream, plain_rm).run();
        let timed = Simulation::with_resource_manager(cfg, &stream, Box::new(timed_rm)).run();
        assert!(plain.container_failures > 0, "{kind}: faults must fire");
        assert_eq!(
            timed.to_json(),
            plain.to_json(),
            "{kind}: decorated run differs"
        );

        let stats = sink.lock().expect("sink").clone();
        assert_eq!(stats.calls[0], 1, "{kind}: on_start runs once");
        assert!(stats.calls[1] > 0, "{kind}: on_arrival was timed");
        assert!(stats.ns.iter().sum::<u64>() > 0, "{kind}: hooks took time");
    }
}

/// Builds the repository's `fifer` binary (release, like the benchmark)
/// into this package's test scratch directory.
fn fifer_binary() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fifer-cli");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "fifer",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building fifer failed");
    target.join("release").join("fifer")
}

/// Runs `fifer` with `args`, failing the test if it does not finish in
/// two minutes.
fn run_fifer(bin: &Path, args: &[String]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("fifer starts");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(status) = child.try_wait().expect("fifer is waitable") {
            assert!(status.success(), "fifer {args:?} failed");
            return;
        }
        if Instant::now() > deadline {
            child.kill().expect("fifer can be killed");
            child.wait().expect("fifer is reaped");
            panic!("fifer {args:?} did not finish");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn runners_reproduce_their_fifer_command_lines() {
    let bin = fifer_binary();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let seed = 5;
    for w in WORKLOADS {
        let w = w.with_secs(600);
        let json = dir.join(format!("{}.json", w.name));
        let mut args = w.fifer_args(seed);
        args.push("--json".into());
        args.push(json.display().to_string());
        run_fifer(&bin, &args);
        let expected = std::fs::read_to_string(&json).expect("fifer wrote its result");

        let stream = w.stream(seed);
        let mut cfg = w.config(&stream, seed);
        cfg.pretrain_series = pretrain_series(&cfg.rm, &stream);
        let (sim, _) = Simulation::new_served(cfg, &stream, None);
        assert_eq!(
            sim.run().to_json(),
            expected,
            "{}: result differs from fifer",
            w.name
        );
    }
}
