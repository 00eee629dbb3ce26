//! The extension claims `bench --validate` enforces, on the bench's own
//! scenarios: Harvest against Bline on the `--quick` wiki replay, and
//! HybridHist against Bline on the 600 s wild scenario.

use fifer_bench::claims::{self, Utilization, WildRow};
use fifer_core::rm::RmKind;
use fifer_sim::driver::Simulation;
use fifer_sim::SimConfig;
use fifer_workloads::JobStream;

fn run(cfg: SimConfig, stream: &JobStream) -> fifer_sim::SimResult {
    Simulation::new(cfg, stream).run()
}

#[test]
fn harvest_cuts_blines_waste_on_the_quick_replay() {
    let scenario = claims::replay_scenario(true);
    let stream = scenario.stream();
    let [bline, harvest] = [RmKind::Bline, RmKind::Harvest]
        .map(|kind| Utilization::of(&run(scenario.config(kind.config(), &stream), &stream)));
    // seed 42: 14.39 core-h wasted against Bline's 24.32
    assert_eq!(
        claims::harvest_cuts_waste(&bline, &harvest),
        Vec::<String>::new()
    );
    assert!(harvest.leases_created > 0, "no container was harvested");
}

#[test]
fn hybridhist_saves_cold_starts_on_the_wild_scenario() {
    let stream = claims::wild_scenario().stream();
    let [bline, hybrid] = [RmKind::Bline, RmKind::HybridHist]
        .map(|kind| WildRow::of(&run(claims::wild_config(kind, &stream), &stream)));
    // seed 42: 327 cold starts against Bline's 351, at 16.3 against 16.2
    // average containers
    assert_eq!(
        claims::hybridhist_saves_cold_starts(&bline, &hybrid),
        Vec::<String>::new()
    );
}
