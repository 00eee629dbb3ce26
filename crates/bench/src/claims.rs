//! The reproduction's two extension claims, each one predicate over
//! measured rows: harvesting idle headroom cuts allocated-but-unused
//! core-hours (after *Accelerating Serverless Computing by Harvesting Idle
//! Resources*), and the hybrid-histogram keep-alive saves cold starts on
//! the Azure family (*Serverless in the Wild*). A predicate returns the
//! claim's violations, one message each, none when it holds.
//! `bench --validate` checks them on the runs it measures, and
//! `tests/claims.rs` runs the same scenarios in tier 1.

use crate::runner::RunSpec;
use fifer_core::rm::RmKind;
use fifer_metrics::SimDuration;
use fifer_sim::{Arrivals, Scenario, SimConfig, SimResult};
use fifer_workloads::{JobStream, TriggerMix, WorkloadMix};

/// Harvest must cut allocated-but-unused core-hours to at most this
/// fraction of Bline's waste on the same replay…
pub const MAX_HARVEST_WASTE_VS_BLINE: f64 = 0.9;
/// …without raising the SLO violation fraction by more than one point.
pub const MAX_HARVEST_SLO_DELTA: f64 = 0.01;
/// On the wild scenario, the memory HybridHist spends to save cold starts
/// (time-weighted live containers) must stay within this factor of
/// Bline's.
pub const MAX_WILD_HH_MEMTIME_VS_BLINE: f64 = 1.5;

/// The resource accounting of one replay run: what the bench's
/// `utilization` section reports and the harvesting claim reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    pub alloc_core_hours: f64,
    pub used_core_hours: f64,
    pub harvested_core_hours: f64,
    pub slo_violation_fraction: f64,
    pub harvest_spawns: u64,
    pub leases_created: u64,
    pub leases_ended: u64,
    pub containers_preempted: u64,
}

impl Utilization {
    pub fn of(r: &SimResult) -> Self {
        Utilization {
            alloc_core_hours: r.alloc_core_hours,
            used_core_hours: r.used_core_hours,
            harvested_core_hours: r.harvested_core_hours,
            slo_violation_fraction: r.slo_violation_fraction(),
            harvest_spawns: r.harvest_spawns,
            leases_created: r.leases_created,
            leases_ended: r.leases_ended,
            containers_preempted: r.containers_preempted,
        }
    }

    /// Allocated-but-unused core-hours.
    pub fn waste_core_hours(&self) -> f64 {
        self.alloc_core_hours - self.used_core_hours
    }
}

/// One RM's run on [`wild_scenario`]: what the bench's `wild` section
/// reports and the keep-alive claim reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WildRow {
    pub jobs: usize,
    pub cold_starts: u64,
    pub blocking_cold_starts: u64,
    /// Time-weighted live containers: the run's memory-time.
    pub avg_containers: f64,
    pub slo_violation_fraction: f64,
    pub median_ms: f64,
    pub p99_ms: f64,
}

impl WildRow {
    pub fn of(r: &SimResult) -> Self {
        WildRow {
            jobs: r.records.len(),
            cold_starts: r.total_spawns,
            blocking_cold_starts: r.blocking_cold_starts,
            avg_containers: r.avg_live_containers(),
            slo_violation_fraction: r.slo_violation_fraction(),
            median_ms: r.median_latency_ms(),
            p99_ms: r.p99_latency_ms(),
        }
    }
}

/// The bench's replay scenario: the wiki trace at 150 req/s under the
/// heavy mix, at the trace-driven study's scale
/// ([`RunSpec::large_scale`]); `quick` shrinks horizon and warmup 6×.
pub fn replay_scenario(quick: bool) -> Scenario {
    let spec = RunSpec::large_scale(
        "replay",
        RmKind::Bline.config(),
        WorkloadMix::Heavy,
        Arrivals::Wiki,
        150.0,
    );
    let spec = if quick { spec.quick() } else { spec };
    spec.scenario
}

/// The Azure-characterization family in its paper-default shape (32
/// apps, Zipf tail 1.5, the paper's trigger mix) under the medium mix, at
/// 20 req/s for 600 s after a 100 s warmup. The horizon lets the
/// histograms outgrow their warm-up transient: at 100 s HybridHist held
/// 2.9× Bline's containers.
pub fn wild_scenario() -> Scenario {
    Scenario {
        arrivals: Arrivals::Azure {
            apps: 32,
            tail_exponent: 1.5,
            trigger_mix: TriggerMix::paper_default(),
        },
        mix: WorkloadMix::Medium,
        rate: 20.0,
        secs: 600,
        warmup: Some(SimDuration::from_secs(100)),
        ..Scenario::default()
    }
}

/// `kind`'s config on [`wild_scenario`]'s `stream`. Every RM runs at the
/// same 10 s idle scan, so the mechanism offers each the same reclamation
/// opportunities and the keep-alive policy decides who dies.
pub fn wild_config(kind: RmKind, stream: &JobStream) -> SimConfig {
    let mut cfg = wild_scenario().config(kind.config(), stream);
    cfg.idle_timeout = SimDuration::from_secs(10);
    cfg
}

/// Harvesting cuts waste: Harvest's allocated-but-unused core-hours are
/// at most [`MAX_HARVEST_WASTE_VS_BLINE`] of Bline's, at no more than
/// [`MAX_HARVEST_SLO_DELTA`] extra SLO violations.
pub fn harvest_cuts_waste(bline: &Utilization, harvest: &Utilization) -> Vec<String> {
    let mut problems = Vec::new();
    let (bw, hw) = (bline.waste_core_hours(), harvest.waste_core_hours());
    if hw > MAX_HARVEST_WASTE_VS_BLINE * bw {
        problems.push(format!(
            "Harvest waste {hw:.3} core-h above {MAX_HARVEST_WASTE_VS_BLINE} x Bline's {bw:.3}"
        ));
    }
    let (bs, hs) = (bline.slo_violation_fraction, harvest.slo_violation_fraction);
    if hs > bs + MAX_HARVEST_SLO_DELTA {
        problems.push(format!(
            "Harvest SLO violation fraction {hs:.4} exceeds Bline's {bs:.4} + {MAX_HARVEST_SLO_DELTA}"
        ));
    }
    problems
}

/// The hybrid histogram saves cold starts: HybridHist cold-starts
/// strictly less than Bline (equality is the signature of the policy
/// going inert, its keep-alive windows deriving below the idle scan), at
/// no more than [`MAX_WILD_HH_MEMTIME_VS_BLINE`] of Bline's memory-time.
pub fn hybridhist_saves_cold_starts(bline: &WildRow, hybrid: &WildRow) -> Vec<String> {
    let mut problems = Vec::new();
    let (bc, hc) = (bline.cold_starts, hybrid.cold_starts);
    if hc >= bc {
        problems.push(format!(
            "wild HybridHist cold starts {hc} do not beat Bline's {bc} — keep-alive policy inert"
        ));
    }
    let (bm, hm) = (bline.avg_containers, hybrid.avg_containers);
    if hm > MAX_WILD_HH_MEMTIME_VS_BLINE * bm {
        problems.push(format!(
            "wild HybridHist memory-time {hm:.1} above {MAX_WILD_HH_MEMTIME_VS_BLINE} x Bline's {bm:.1}"
        ));
    }
    problems
}
