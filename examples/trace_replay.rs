//! Replay a bursty WITS-like arrival trace under all five resource
//! managers and compare the paper's headline metrics side by side
//! (the §6.2 trace-driven study, scaled to run in seconds).
//!
//! ```text
//! cargo run --release --example trace_replay [duration_secs]
//! ```

use fifer::prelude::*;

fn main() {
    let secs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1200);
    // a tenth of WITS's paper-scale 240 req/s average
    let scenario = Scenario {
        arrivals: Arrivals::Wits,
        rate: 24.0,
        secs,
        seed: 7,
        ..Scenario::default()
    };
    let stream = scenario.stream();
    println!(
        "WITS-like trace: {} jobs over {} (avg {:.0} req/s)\n",
        stream.len(),
        scenario.horizon(),
        stream.len() as f64 / secs as f64,
    );

    println!(
        "{:>7}  {:>9}  {:>11}  {:>9}  {:>8}  {:>10}  {:>9}",
        "rm", "slo_viol%", "avg_containers", "median_ms", "p99_ms", "coldstarts", "energy_kJ"
    );
    for kind in RmKind::ALL {
        // the warmup, the idle scan and the §4.5.1 pretraining series
        // follow the scenario, as they do for `fifer`
        let cfg = scenario.config(kind.config(), &stream);
        let r = Simulation::new(cfg, &stream).run();
        println!(
            "{:>7}  {:>9.2}  {:>11.1}  {:>9.0}  {:>8.0}  {:>10}  {:>9.1}",
            kind.to_string(),
            r.slo_whole_run.violation_fraction() * 100.0,
            r.avg_live_containers(),
            r.median_latency_ms(),
            r.p99_latency_ms(),
            r.total_spawns,
            r.energy_joules / 1e3,
        );
    }
    println!(
        "\nexpected shape (paper §6.2): SBatch cannot absorb the bursts; Bline/BPred\n\
         over-provision; Fifer matches Bline-level SLO compliance with far fewer\n\
         containers and the lowest energy."
    );
}
