//! Everything the experiment harness needs from one simulation run.

use fifer_metrics::breakdown::BreakdownSummary;
use fifer_metrics::{RequestRecord, SimTime, SloAccountant, TimeSeries};
use fifer_workloads::Microservice;
use serde::Serialize;
use std::collections::BTreeMap;

/// Per-stage aggregate counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct StageStats {
    /// Containers ever spawned for the stage.
    pub containers_spawned: u64,
    /// Tasks executed at the stage.
    pub tasks_executed: u64,
    /// Arrivals into the stage's queue.
    pub arrivals: u64,
}

impl StageStats {
    /// Requests executed per container (RPC, §6.1.3); 0 when no container
    /// was ever spawned.
    pub fn requests_per_container(&self) -> f64 {
        if self.containers_spawned == 0 {
            0.0
        } else {
            self.tasks_executed as f64 / self.containers_spawned as f64
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// One record per completed job, in completion order.
    pub records: Vec<RequestRecord>,
    /// SLO accounting over jobs submitted after the warmup boundary.
    pub slo: SloAccountant,
    /// SLO accounting over the whole run, cold-start transient included —
    /// the paper's Figure 8a/13 measurement window.
    pub slo_whole_run: SloAccountant,
    /// Live-container count over time (sampled at every change).
    pub live_containers: TimeSeries,
    /// Cumulative containers spawned over time.
    pub cumulative_spawns: TimeSeries,
    /// Per-stage statistics keyed by microservice.
    pub stages: BTreeMap<Microservice, StageStats>,
    /// Total containers spawned (= cold starts incurred; every spawn cold
    /// starts in a serverless platform, §2.2.1).
    pub total_spawns: u64,
    /// Spawns whose cold start delayed at least one request (reactive
    /// spawns on the critical path). Proactive spawns that warmed before
    /// any request arrived do not count.
    pub blocking_cold_starts: u64,
    /// Spawn attempts rejected because the cluster was full.
    pub failed_spawns: u64,
    /// Containers killed by injected faults (spawn faults, crashes, node
    /// outages). 0 under [`FaultPlan::none`](crate::fault::FaultPlan).
    pub container_failures: u64,
    /// Tasks orphaned when a fault killed their container (each is then
    /// requeued or dropped).
    pub tasks_crashed: u64,
    /// Orphaned tasks re-enqueued for another attempt.
    pub tasks_requeued: u64,
    /// Jobs dropped after a task exhausted the fault-retry budget.
    pub jobs_dropped: u64,
    /// Node outages that fired during the run.
    pub node_outages: u64,
    /// Integral of allocated CPU over the run, in core-hours — what the
    /// cluster *reserved* (the paper's underutilization denominator).
    pub alloc_core_hours: f64,
    /// Integral of actually-consumed CPU over the run, in core-hours —
    /// what containers *used* (idle vs busy footprints).
    pub used_core_hours: f64,
    /// Integral of lease-backed (harvested) CPU over the run, in
    /// core-hours — demand served from idle headroom instead of fresh
    /// allocation. 0 with harvesting disabled.
    pub harvested_core_hours: f64,
    /// Containers spawned on harvest-lease backing.
    pub harvest_spawns: u64,
    /// Harvest leases opened.
    pub leases_created: u64,
    /// Harvest leases fully dissolved or reclaimed.
    pub leases_ended: u64,
    /// Individual lease parts converted back to primary allocation.
    pub lease_parts_reclaimed: u64,
    /// Borrowers preempted because a lender needed its headroom back.
    pub containers_preempted: u64,
    /// Tasks bounced back to their stage queue by borrower preemption.
    pub tasks_preempted: u64,
    /// Warm-idle containers downsized in place by the right-sizer.
    pub containers_rightsized: u64,
    /// Invariant checks the auditor performed (0 when auditing is off).
    /// Not serialized, so audited and unaudited runs of the same
    /// configuration produce identical artifacts.
    pub audit_checks: u64,
    /// Invariant violations the auditor found; each message carries the
    /// offending event's trace context. Always empty when auditing is off
    /// — and must stay empty when it is on.
    pub audit_violations: Vec<String>,
    /// Total cluster energy over the run, in joules.
    pub energy_joules: f64,
    /// Nodes hosting at least one pod, sampled at monitor ticks.
    pub active_nodes: TimeSeries,
    /// Total pending (unscheduled) tasks across stage queues, sampled at
    /// monitor ticks — the congestion signal behind queuing-delay spikes.
    pub queue_depth: TimeSeries,
    /// Simulated duration (last event time).
    pub horizon: SimTime,
    /// Warmup boundary: metrics exclude jobs submitted before this.
    pub warmup: SimTime,
    /// Modeled stats-store counters.
    pub store_reads: u64,
    /// Modeled stats-store writes.
    pub store_writes: u64,
    /// Simulator events processed (drained from the event queue).
    pub events_processed: u64,
    /// Largest total pending-task backlog observed across all stage
    /// queues at any instant (tracked incrementally, not just at monitor
    /// ticks).
    pub peak_queue_depth: u64,
}

impl SimResult {
    /// Fraction of jobs violating the SLO.
    pub fn slo_violation_fraction(&self) -> f64 {
        self.slo.violation_fraction()
    }

    /// Time-weighted average number of live containers over the measured
    /// window (warmup..horizon) — the paper's "average number of
    /// containers spawned" (Figure 8b).
    pub fn avg_live_containers(&self) -> f64 {
        if self.warmup >= self.horizon {
            return self.live_containers.time_weighted_mean(self.horizon, 0.0);
        }
        self.live_containers
            .time_weighted_mean_between(self.warmup, self.horizon, 0.0)
    }

    /// Containers spawned within the measured window (warmup..horizon) —
    /// the cold-start count of Figure 16.
    pub fn spawns_in_window(&self) -> u64 {
        let at_end = self.cumulative_spawns.value_at(self.horizon, 0.0);
        let at_warmup = self.cumulative_spawns.value_at(self.warmup, 0.0);
        (at_end - at_warmup).max(0.0) as u64
    }

    /// Builds the latency-breakdown summary over all records.
    pub fn breakdown_summary(&self) -> BreakdownSummary {
        let mut s = BreakdownSummary::new();
        for r in &self.records {
            s.add(r);
        }
        s
    }

    /// Median end-to-end latency in ms.
    pub fn median_latency_ms(&self) -> f64 {
        self.breakdown_summary().total_percentile_ms(50.0)
    }

    /// P99 end-to-end latency in ms.
    pub fn p99_latency_ms(&self) -> f64 {
        self.breakdown_summary().total_percentile_ms(99.0)
    }

    /// Mean requests-per-container across stages (weighted by containers).
    pub fn overall_rpc(&self) -> f64 {
        let spawned: u64 = self.stages.values().map(|s| s.containers_spawned).sum();
        let tasks: u64 = self.stages.values().map(|s| s.tasks_executed).sum();
        if spawned == 0 {
            0.0
        } else {
            tasks as f64 / spawned as f64
        }
    }

    /// Per-stage share of containers for an application's chain, in chain
    /// order — Figure 11's distribution. Values sum to 1 when any
    /// containers were spawned.
    pub fn stage_container_shares(&self, chain: &[Microservice]) -> Vec<f64> {
        let total: u64 = chain
            .iter()
            .filter_map(|m| self.stages.get(m))
            .map(|s| s.containers_spawned)
            .sum();
        chain
            .iter()
            .map(|m| {
                let n = self.stages.get(m).map_or(0, |s| s.containers_spawned);
                if total == 0 {
                    0.0
                } else {
                    n as f64 / total as f64
                }
            })
            .collect()
    }

    /// Queuing-time samples in ms across all jobs (Figure 10b).
    pub fn queuing_times_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.breakdown.queuing.as_millis_f64())
            .collect()
    }

    /// Per-application latency percentile in ms over the measured window
    /// (0 when the app has no records) — used to compare how LSF shields
    /// tight-slack applications at shared stages (§4.3).
    pub fn app_latency_percentile_ms(&self, app: &str, p: f64) -> f64 {
        let mut samples = fifer_metrics::percentile::Samples::new();
        for r in self.records.iter().filter(|r| r.app == app) {
            samples.push(r.response_latency().as_millis_f64());
        }
        samples.percentile(p)
    }

    /// Mean job throughput over the horizon in jobs/second.
    pub fn throughput(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }

    /// Serializes the full result as pretty-printed JSON.
    ///
    /// Written by hand because the vendored `serde` is a no-op marker
    /// stand-in (the build environment has no crates.io access). Times are
    /// emitted in integer microseconds (`*_us`) — the simulator's native
    /// resolution — so the artifact round-trips losslessly.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096 + self.records.len() * 96);
        o.push_str("{\n");
        o.push_str(&format!(
            "  \"horizon_us\": {},\n",
            self.horizon.as_micros()
        ));
        o.push_str(&format!("  \"warmup_us\": {},\n", self.warmup.as_micros()));
        o.push_str(&format!("  \"total_spawns\": {},\n", self.total_spawns));
        o.push_str(&format!(
            "  \"blocking_cold_starts\": {},\n",
            self.blocking_cold_starts
        ));
        o.push_str(&format!("  \"failed_spawns\": {},\n", self.failed_spawns));
        o.push_str(&format!(
            "  \"container_failures\": {},\n",
            self.container_failures
        ));
        o.push_str(&format!("  \"tasks_crashed\": {},\n", self.tasks_crashed));
        o.push_str(&format!("  \"tasks_requeued\": {},\n", self.tasks_requeued));
        o.push_str(&format!("  \"jobs_dropped\": {},\n", self.jobs_dropped));
        o.push_str(&format!("  \"node_outages\": {},\n", self.node_outages));
        o.push_str(&format!(
            "  \"alloc_core_hours\": {},\n",
            json_f64(self.alloc_core_hours)
        ));
        o.push_str(&format!(
            "  \"used_core_hours\": {},\n",
            json_f64(self.used_core_hours)
        ));
        o.push_str(&format!(
            "  \"harvested_core_hours\": {},\n",
            json_f64(self.harvested_core_hours)
        ));
        o.push_str(&format!("  \"harvest_spawns\": {},\n", self.harvest_spawns));
        o.push_str(&format!("  \"leases_created\": {},\n", self.leases_created));
        o.push_str(&format!("  \"leases_ended\": {},\n", self.leases_ended));
        o.push_str(&format!(
            "  \"lease_parts_reclaimed\": {},\n",
            self.lease_parts_reclaimed
        ));
        o.push_str(&format!(
            "  \"containers_preempted\": {},\n",
            self.containers_preempted
        ));
        o.push_str(&format!(
            "  \"tasks_preempted\": {},\n",
            self.tasks_preempted
        ));
        o.push_str(&format!(
            "  \"containers_rightsized\": {},\n",
            self.containers_rightsized
        ));
        // count only: the auditor is read-only and must not change the
        // artifact of a clean run, audited or not
        o.push_str(&format!(
            "  \"audit_violations\": {},\n",
            self.audit_violations.len()
        ));
        o.push_str(&format!(
            "  \"energy_joules\": {},\n",
            json_f64(self.energy_joules)
        ));
        o.push_str(&format!("  \"store_reads\": {},\n", self.store_reads));
        o.push_str(&format!("  \"store_writes\": {},\n", self.store_writes));
        o.push_str(&format!(
            "  \"events_processed\": {},\n",
            self.events_processed
        ));
        o.push_str(&format!(
            "  \"peak_queue_depth\": {},\n",
            self.peak_queue_depth
        ));
        o.push_str(&format!("  \"slo\": {},\n", slo_json(&self.slo)));
        o.push_str(&format!(
            "  \"slo_whole_run\": {},\n",
            slo_json(&self.slo_whole_run)
        ));
        o.push_str("  \"stages\": {");
        let mut first = true;
        for (ms, s) in &self.stages {
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str(&format!(
                "\n    \"{ms:?}\": {{\"containers_spawned\": {}, \"tasks_executed\": {}, \"arrivals\": {}}}",
                s.containers_spawned, s.tasks_executed, s.arrivals
            ));
        }
        o.push_str("\n  },\n");
        o.push_str(&format!(
            "  \"live_containers\": {},\n",
            series_json(&self.live_containers)
        ));
        o.push_str(&format!(
            "  \"cumulative_spawns\": {},\n",
            series_json(&self.cumulative_spawns)
        ));
        o.push_str(&format!(
            "  \"active_nodes\": {},\n",
            series_json(&self.active_nodes)
        ));
        o.push_str(&format!(
            "  \"queue_depth\": {},\n",
            series_json(&self.queue_depth)
        ));
        o.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "\n    {{\"job_id\": {}, \"app\": {}, \"submitted_us\": {}, \"completed_us\": {}, \
                 \"exec_us\": {}, \"cold_start_us\": {}, \"queuing_us\": {}, \"slo_violated\": {}}}",
                r.job_id,
                json_str(&r.app),
                r.submitted.as_micros(),
                r.completed.as_micros(),
                r.breakdown.exec.as_micros(),
                r.breakdown.cold_start.as_micros(),
                r.breakdown.queuing.as_micros(),
                r.slo_violated
            ));
        }
        o.push_str("\n  ]\n}\n");
        o
    }
}

/// JSON number for an `f64` (`null` for non-finite values, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\r' => o.push_str("\\r"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn slo_json(s: &SloAccountant) -> String {
    format!(
        "{{\"slo_us\": {}, \"total\": {}, \"violations\": {}}}",
        s.slo().as_micros(),
        s.total(),
        s.violations()
    )
}

fn series_json(ts: &TimeSeries) -> String {
    let mut o = String::from("[");
    for (i, (t, v)) in ts.points().iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        o.push_str(&format!("[{}, {}]", t.as_micros(), json_f64(*v)));
    }
    o.push(']');
    o
}

/// Shorthand used by tests and the harness: per-run scalar summary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Headline {
    /// SLO violation fraction.
    pub slo_violations: f64,
    /// Time-weighted average live containers.
    pub avg_containers: f64,
    /// Median latency in ms.
    pub median_ms: f64,
    /// P99 latency in ms.
    pub p99_ms: f64,
    /// Total spawns (cold starts).
    pub cold_starts: u64,
    /// Energy in joules.
    pub energy_joules: f64,
}

impl SimResult {
    /// Computes the headline scalar summary.
    pub fn headline(&self) -> Headline {
        Headline {
            slo_violations: self.slo_violation_fraction(),
            avg_containers: self.avg_live_containers(),
            median_ms: self.median_latency_ms(),
            p99_ms: self.p99_latency_ms(),
            cold_starts: self.total_spawns,
            energy_joules: self.energy_joules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_metrics::breakdown::LatencyBreakdown;
    use fifer_metrics::SimDuration;

    fn mk_result() -> SimResult {
        let mut slo = SloAccountant::new(SimDuration::from_millis(1000));
        let breakdown = LatencyBreakdown {
            exec: SimDuration::from_millis(100),
            cold_start: SimDuration::ZERO,
            queuing: SimDuration::from_millis(50),
        };
        let rec = RequestRecord {
            job_id: 0,
            app: "IPA".into(),
            submitted: SimTime::ZERO,
            completed: SimTime::ZERO + breakdown.total(),
            breakdown,
            slo_violated: false,
        };
        slo.observe_record(&rec);
        let mut live = TimeSeries::new();
        live.push(SimTime::ZERO, 1.0);
        let mut spawns = TimeSeries::new();
        spawns.push(SimTime::ZERO, 1.0);
        let mut stages = BTreeMap::new();
        stages.insert(
            Microservice::Asr,
            StageStats {
                containers_spawned: 2,
                tasks_executed: 10,
                arrivals: 10,
            },
        );
        stages.insert(
            Microservice::Qa,
            StageStats {
                containers_spawned: 1,
                tasks_executed: 10,
                arrivals: 10,
            },
        );
        SimResult {
            records: vec![rec],
            slo_whole_run: slo.clone(),
            slo,
            live_containers: live,
            cumulative_spawns: spawns,
            stages,
            total_spawns: 3,
            blocking_cold_starts: 1,
            failed_spawns: 0,
            container_failures: 0,
            tasks_crashed: 0,
            tasks_requeued: 0,
            jobs_dropped: 0,
            node_outages: 0,
            alloc_core_hours: 0.0,
            used_core_hours: 0.0,
            harvested_core_hours: 0.0,
            harvest_spawns: 0,
            leases_created: 0,
            leases_ended: 0,
            lease_parts_reclaimed: 0,
            containers_preempted: 0,
            tasks_preempted: 0,
            containers_rightsized: 0,
            audit_checks: 0,
            audit_violations: Vec::new(),
            energy_joules: 1234.0,
            active_nodes: TimeSeries::new(),
            queue_depth: TimeSeries::new(),
            horizon: SimTime::from_secs(10),
            warmup: SimTime::ZERO,
            store_reads: 5,
            store_writes: 7,
            events_processed: 11,
            peak_queue_depth: 4,
        }
    }

    #[test]
    fn rpc_divides_tasks_by_containers() {
        let r = mk_result();
        let asr = &r.stages[&Microservice::Asr];
        assert_eq!(asr.requests_per_container(), 5.0);
        assert!((r.overall_rpc() - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rpc_zero_when_no_containers() {
        let s = StageStats::default();
        assert_eq!(s.requests_per_container(), 0.0);
    }

    #[test]
    fn stage_shares_sum_to_one() {
        let r = mk_result();
        let shares = r.stage_container_shares(&[Microservice::Asr, Microservice::Qa]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stage_shares_handle_unknown_stage() {
        let r = mk_result();
        let shares = r.stage_container_shares(&[Microservice::Hs]);
        assert_eq!(shares, vec![0.0]);
    }

    #[test]
    fn headline_summarizes() {
        let r = mk_result();
        let h = r.headline();
        assert_eq!(h.slo_violations, 0.0);
        assert_eq!(h.cold_starts, 3);
        assert_eq!(h.median_ms, 150.0);
        assert!(h.avg_containers > 0.0);
    }

    #[test]
    fn throughput_over_horizon() {
        let r = mk_result();
        assert!((r.throughput() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn app_latency_percentile_filters_by_app() {
        let r = mk_result();
        assert_eq!(r.app_latency_percentile_ms("IPA", 50.0), 150.0);
        assert_eq!(r.app_latency_percentile_ms("IMG", 50.0), 0.0);
    }
}
