//! Everything the experiment harness needs from one simulation run.

use fifer_metrics::breakdown::BreakdownSummary;
use fifer_metrics::percentile::{percentile_ranks, sorted_percentile};
use fifer_metrics::{RecordLog, SimDuration, SimTime, SloAccountant, TimeSeries};
use fifer_workloads::Microservice;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;

/// Per-stage aggregate counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone)]
pub struct SimResult {
    /// One record per completed job submitted at or after the warmup
    /// boundary (the measured jobs), in completion order.
    pub records: RecordLog,
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
            s.add(&r);
        }
        s
    }

    /// Median end-to-end latency in ms.
    pub fn median_latency_ms(&self) -> f64 {
        let [p50] = self.latency_percentiles_ms([50.0]);
        p50
    }

    /// P99 end-to-end latency in ms.
    pub fn p99_latency_ms(&self) -> f64 {
        let [p99] = self.latency_percentiles_ms([99.0]);
        p99
    }

    /// End-to-end latency percentiles in ms over the records, in two passes
    /// over the log and without a per-record vector. Pass 1 counts the
    /// integer-µs totals per [`latency_bucket`]; pass 2 keeps only the
    /// totals in the (at most `2N`) buckets that hold the ranks the type-7
    /// rule reads, and sorts them. A bucket never holds a larger total than
    /// a later one, so a rank's total is its offset into its bucket's
    /// sorted values. Converting µs to ms is monotone, so the picked values
    /// equal [`BreakdownSummary::total_percentile_ms`]'s bit for bit.
    fn latency_percentiles_ms<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        let n = self.records.len();
        if n == 0 {
            return ps.map(|p| sorted_percentile(0, p, |_| 0.0));
        }
        let totals = || self.records.iter().map(|r| r.breakdown.total().as_micros());
        let mut counts = vec![0usize; LATENCY_BUCKETS];
        for us in totals() {
            counts[latency_bucket(us)] += 1;
        }
        let ranks: Vec<usize> = ps
            .iter()
            .flat_map(|&p| {
                let (lo, hi, _) = percentile_ranks(n, p);
                [lo, hi]
            })
            .collect();
        // (bucket, its first rank) for each bucket holding a wanted rank
        let mut held: Vec<(usize, usize)> = Vec::new();
        let mut first = 0;
        for (bucket, &count) in counts.iter().enumerate() {
            if ranks
                .iter()
                .any(|&rank| first <= rank && rank < first + count)
            {
                held.push((bucket, first));
            }
            first += count;
        }
        let mut kept: Vec<u64> = totals()
            .filter(|&us| {
                let bucket = latency_bucket(us);
                held.iter().any(|&(b, _)| b == bucket)
            })
            .collect();
        kept.sort_unstable();
        ps.map(|p| {
            sorted_percentile(n, p, |rank| {
                // `kept` is the held buckets' values, bucket after bucket
                let mut start = 0;
                for &(bucket, first) in &held {
                    if rank < first + counts[bucket] {
                        let us = kept[start + rank - first];
                        return SimDuration::from_micros(us).as_millis_f64();
                    }
                    start += counts[bucket];
                }
                unreachable!("rank {rank} lies in no held bucket")
            })
        })
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

    /// Mean throughput of the measured jobs over the measured window
    /// (warmup..horizon) in jobs/second; 0 when the window is empty.
    pub fn throughput(&self) -> f64 {
        let secs = self.horizon.saturating_since(self.warmup).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }

    /// Serializes the full result as pretty-printed JSON; the artifact
    /// [`Self::write_json`] streams, collected into one `String`.
    pub fn to_json(&self) -> String {
        let mut o = Vec::with_capacity(4096 + self.records.len() * 96);
        self.write_json(&mut o)
            .expect("writing into a Vec cannot fail");
        String::from_utf8(o).expect("the JSON writer emits UTF-8")
    }

    /// Writes the full result as pretty-printed JSON to `w`, field by field
    /// and record by record, so the artifact is never held in memory whole
    /// (wrap a file in a `BufWriter`).
    ///
    /// Written by hand: the workspace has no serialization dependency (the
    /// build environment has no crates.io access). Times are emitted in
    /// integer microseconds (`*_us`) — the simulator's native resolution —
    /// so the artifact round-trips losslessly.
    ///
    /// # Errors
    ///
    /// Returns the first error `w` reports.
    pub fn write_json(&self, w: &mut impl io::Write) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"horizon_us\": {},", self.horizon.as_micros())?;
        writeln!(w, "  \"warmup_us\": {},", self.warmup.as_micros())?;
        writeln!(w, "  \"total_spawns\": {},", self.total_spawns)?;
        writeln!(
            w,
            "  \"blocking_cold_starts\": {},",
            self.blocking_cold_starts
        )?;
        writeln!(w, "  \"failed_spawns\": {},", self.failed_spawns)?;
        writeln!(w, "  \"container_failures\": {},", self.container_failures)?;
        writeln!(w, "  \"tasks_crashed\": {},", self.tasks_crashed)?;
        writeln!(w, "  \"tasks_requeued\": {},", self.tasks_requeued)?;
        writeln!(w, "  \"jobs_dropped\": {},", self.jobs_dropped)?;
        writeln!(w, "  \"node_outages\": {},", self.node_outages)?;
        writeln!(
            w,
            "  \"alloc_core_hours\": {},",
            JsonF64(self.alloc_core_hours)
        )?;
        writeln!(
            w,
            "  \"used_core_hours\": {},",
            JsonF64(self.used_core_hours)
        )?;
        writeln!(
            w,
            "  \"harvested_core_hours\": {},",
            JsonF64(self.harvested_core_hours)
        )?;
        writeln!(w, "  \"harvest_spawns\": {},", self.harvest_spawns)?;
        writeln!(w, "  \"leases_created\": {},", self.leases_created)?;
        writeln!(w, "  \"leases_ended\": {},", self.leases_ended)?;
        writeln!(
            w,
            "  \"lease_parts_reclaimed\": {},",
            self.lease_parts_reclaimed
        )?;
        writeln!(
            w,
            "  \"containers_preempted\": {},",
            self.containers_preempted
        )?;
        writeln!(w, "  \"tasks_preempted\": {},", self.tasks_preempted)?;
        writeln!(
            w,
            "  \"containers_rightsized\": {},",
            self.containers_rightsized
        )?;
        // count only: the auditor is read-only and must not change the
        // artifact of a clean run, audited or not
        writeln!(
            w,
            "  \"audit_violations\": {},",
            self.audit_violations.len()
        )?;
        writeln!(w, "  \"energy_joules\": {},", JsonF64(self.energy_joules))?;
        writeln!(w, "  \"store_reads\": {},", self.store_reads)?;
        writeln!(w, "  \"store_writes\": {},", self.store_writes)?;
        writeln!(w, "  \"events_processed\": {},", self.events_processed)?;
        writeln!(w, "  \"peak_queue_depth\": {},", self.peak_queue_depth)?;
        writeln!(w, "  \"slo\": {},", JsonSlo(&self.slo))?;
        writeln!(w, "  \"slo_whole_run\": {},", JsonSlo(&self.slo_whole_run))?;
        write!(w, "  \"stages\": {{")?;
        for (i, (ms, s)) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n    \"{ms:?}\": {{\"containers_spawned\": {}, \"tasks_executed\": {}, \"arrivals\": {}}}",
                s.containers_spawned, s.tasks_executed, s.arrivals
            )?;
        }
        writeln!(w, "\n  }},")?;
        writeln!(
            w,
            "  \"live_containers\": {},",
            JsonSeries(&self.live_containers)
        )?;
        writeln!(
            w,
            "  \"cumulative_spawns\": {},",
            JsonSeries(&self.cumulative_spawns)
        )?;
        writeln!(w, "  \"active_nodes\": {},", JsonSeries(&self.active_nodes))?;
        writeln!(w, "  \"queue_depth\": {},", JsonSeries(&self.queue_depth))?;
        write!(w, "  \"records\": [")?;
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(
                w,
                "\n    {{\"job_id\": {}, \"app\": {}, \"submitted_us\": {}, \"completed_us\": {}, \
                 \"exec_us\": {}, \"cold_start_us\": {}, \"queuing_us\": {}, \"slo_violated\": {}}}",
                r.job_id,
                JsonStr(r.app),
                r.submitted.as_micros(),
                r.completed.as_micros(),
                r.breakdown.exec.as_micros(),
                r.breakdown.cold_start.as_micros(),
                r.breakdown.queuing.as_micros(),
                r.slo_violated
            )?;
        }
        write!(w, "\n  ]\n}}\n")
    }
}

/// Buckets of [`latency_bucket`]: 2^10 for the values below 2^10, then
/// 2^10 for each of the 54 octaves above.
const LATENCY_BUCKETS: usize = 55 << 10;

/// Log-linear bucket of `us`: `us` itself below 2^10; above, its octave
/// (bit length − 10) over the 10 bits after its leading one. The bucket
/// never decreases as `us` grows.
fn latency_bucket(us: u64) -> usize {
    let bits = u64::BITS - us.leading_zeros();
    if bits <= 10 {
        us as usize
    } else {
        (((bits - 10) as usize) << 10) | ((us >> (bits - 11)) & 0x3ff) as usize
    }
}

/// JSON number for an `f64` (`null` for non-finite values, which JSON
/// cannot represent).
struct JsonF64(f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// JSON string literal with the mandatory escapes.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// An SLO accountant's bound and counts as a JSON object.
struct JsonSlo<'a>(&'a SloAccountant);

impl fmt::Display for JsonSlo<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"slo_us\": {}, \"total\": {}, \"violations\": {}}}",
            self.0.slo().as_micros(),
            self.0.total(),
            self.0.violations()
        )
    }
}

/// A time series as a JSON array of `[t_us, value]` pairs.
struct JsonSeries<'a>(&'a TimeSeries);

impl fmt::Display for JsonSeries<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('[')?;
        for (i, (t, v)) in self.0.points().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "[{}, {}]", t.as_micros(), JsonF64(*v))?;
        }
        f.write_char(']')
    }
}

/// Shorthand used by tests and the harness: per-run scalar summary.
#[derive(Debug, Clone, PartialEq)]
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
        let [median_ms, p99_ms] = self.latency_percentiles_ms([50.0, 99.0]);
        Headline {
            slo_violations: self.slo_violation_fraction(),
            avg_containers: self.avg_live_containers(),
            median_ms,
            p99_ms,
            cold_starts: self.total_spawns,
            energy_joules: self.energy_joules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_metrics::breakdown::LatencyBreakdown;
    use fifer_metrics::{RequestRecord, SimDuration};

    fn mk_result() -> SimResult {
        let mut slo = SloAccountant::new(SimDuration::from_millis(1000));
        let breakdown = LatencyBreakdown {
            exec: SimDuration::from_millis(100),
            cold_start: SimDuration::ZERO,
            queuing: SimDuration::from_millis(50),
        };
        let rec = RequestRecord {
            job_id: 0,
            app: "IPA",
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
            records: [rec].into_iter().collect(),
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

    /// `mk_result` with one record per end-to-end latency in `totals_us`,
    /// each split unevenly over the three breakdown components.
    fn with_totals(totals_us: &[u64]) -> SimResult {
        let mut r = mk_result();
        r.records = totals_us
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                let breakdown = LatencyBreakdown {
                    exec: SimDuration::from_micros(us / 2),
                    cold_start: SimDuration::from_micros(us / 7),
                    queuing: SimDuration::from_micros(us - us / 2 - us / 7),
                };
                RequestRecord {
                    job_id: i as u64,
                    app: "IPA",
                    submitted: SimTime::ZERO,
                    completed: SimTime::ZERO + breakdown.total(),
                    breakdown,
                    slo_violated: false,
                }
            })
            .collect();
        r
    }

    /// The sorted-vector oracle of [`SimResult::latency_percentiles_ms`]:
    /// every integer-µs total collected and sorted.
    fn sorted_latency_percentiles_ms<const N: usize>(r: &SimResult, ps: [f64; N]) -> [f64; N] {
        let mut totals: Vec<u64> = r
            .records
            .iter()
            .map(|r| r.breakdown.total().as_micros())
            .collect();
        totals.sort_unstable();
        ps.map(|p| {
            sorted_percentile(totals.len(), p, |i| {
                SimDuration::from_micros(totals[i]).as_millis_f64()
            })
        })
    }

    #[test]
    fn headline_percentiles_match_the_breakdown_summary() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![150_000],
            vec![2_000_001, 99_999],
            vec![7_000; 5],                          // all tied
            vec![0; 3],                              // all tied at zero
            vec![(1 << 40) + 12_345; 1_000],         // all tied, far up
            vec![3_000, 1_000, 2_000, 1_000, 3_000], // odd count with ties
            vec![4_000, 1_001, 3_333, 2_000],        // even count
            vec![1 << 40, 0],                        // the widest spread
        ];
        // both sides of every octave boundary up to 2^40 µs
        cases.push(
            (0..=40)
                .flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1])
                .collect(),
        );
        for n in [0, 1, 2, 3, 10, 100, 101, 1_000, 4_097] {
            cases.push((0..n).map(|_| rng.gen_range(0..5_000_000)).collect());
            // a narrow range forces ties at the picked ranks
            cases.push((0..n).map(|_| rng.gen_range(0..20)).collect());
            // log-uniform spreads cross octaves, up to 2^40 µs
            cases.push(
                (0..n)
                    .map(|_| {
                        let bits = rng.gen_range(0..41);
                        rng.gen_range(0..1u64 << bits)
                    })
                    .collect(),
            );
        }
        for totals in &cases {
            let r = with_totals(totals);
            let mut summary = r.breakdown_summary();
            let p50 = summary.total_percentile_ms(50.0);
            let p99 = summary.total_percentile_ms(99.0);
            let h = r.headline();
            let n = totals.len();
            assert_eq!(h.median_ms, p50, "median over {n} records");
            assert_eq!(h.p99_ms, p99, "p99 over {n} records");
            assert_eq!(r.median_latency_ms(), p50, "median getter over {n} records");
            assert_eq!(r.p99_latency_ms(), p99, "p99 getter over {n} records");
            // more ranks than the headline reads, against the sorted oracle
            let ps = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];
            assert_eq!(
                r.latency_percentiles_ms(ps),
                sorted_latency_percentiles_ms(&r, ps),
                "percentiles over {n} records"
            );
        }
    }

    #[test]
    fn latency_buckets_follow_value_order() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1023), 1023);
        assert_eq!(latency_bucket(1024), 1024);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        // each octave's first, an inner and its last value, plus a dense run
        let mut values: Vec<u64> = (0..64)
            .flat_map(|k| {
                [
                    1u64 << k,
                    (1 << k) + (1 << k) / 3,
                    (1 << k) + ((1 << k) - 1),
                ]
            })
            .chain(0..5_000)
            .collect();
        values.sort_unstable();
        for w in values.windows(2) {
            let (a, b) = (latency_bucket(w[0]), latency_bucket(w[1]));
            assert!(
                a <= b,
                "{} µs in bucket {a}, {} µs in bucket {b}",
                w[0],
                w[1]
            );
        }
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
