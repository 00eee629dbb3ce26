//! One benchmark process; prints one JSON line. `run.py` drives it.
//!
//! ```text
//! fifer-perfbench timed  <workload> <seed>
//! fifer-perfbench traced <workload> <seed>
//! fifer-perfbench replay <workload> <seed> <plain|audit|trace|twin> [cache-dir]
//! ```
//!
//! `twin` is a replay with both the auditor and the decision-trace ring on.

use fifer_perfbench::{replay, timed, traced, Workload, WORKLOADS};
use std::path::Path;
use std::process::exit;
use std::time::Instant;

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: fifer-perfbench timed|traced <workload> <seed>\n       \
         fifer-perfbench replay <workload> <seed> <plain|audit|trace|twin> [cache-dir]\n\
         workloads: {}",
        names.join(", ")
    );
    exit(2)
}

fn main() {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 3 {
        usage();
    }
    let w = Workload::by_name(&argv[1]).unwrap_or_else(|| usage());
    let seed: u64 = argv[2].parse().unwrap_or_else(|_| usage());
    let line = match (argv[0].as_str(), &argv[3..]) {
        ("timed", []) => timed(&w, seed, t0),
        ("traced", []) => traced(&w, seed, t0),
        ("replay", [kind, cache @ ..]) if cache.len() <= 1 => {
            let (audit, trace) = match kind.as_str() {
                "plain" => (false, false),
                "audit" => (true, false),
                "trace" => (false, true),
                "twin" => (true, true),
                _ => usage(),
            };
            replay(&w, seed, audit, trace, cache.first().map(Path::new))
        }
        _ => usage(),
    };
    println!("{line}");
}
