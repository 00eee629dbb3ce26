//! Product-path benchmark for the `fifer` CLI.
//!
//! Every workload is one `fifer` command line. This crate replays it through
//! the same public path `src/bin/fifer.rs` takes — generate the stream, build
//! the [`SimConfig`], `Simulation::new_served`, `run`, `headline` — and
//! attributes wall-clock to the layers by timing calls into each crate's
//! public functions from outside. Resource-manager hooks are timed by
//! [`HookTimer`], a forwarding decorator handed to
//! `Simulation::with_resource_manager`. Nothing inside the program is
//! instrumented.
//!
//! The binary (`src/main.rs`) runs one of three modes per process:
//! [`timed`] (the measured product path), [`traced`] (per-layer
//! attribution) and [`replay`] (the same run with the auditor or the
//! decision-trace ring on, for the output checks and the overheads).
//! `run.py` drives the processes and aggregates them.

use fifer::core::{ClusterView, ContainerView, Decision, ResourceManager, StageView};
use fifer::prelude::*;
use fifer::sim::driver::window_max_series;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Decision-trace ring size the CLI uses for `--decision-trace`.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Where a workload's arrivals come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// `--workload azure --apps <n>`: the heavy-tailed mixed-trigger family.
    Azure { apps: usize },
    /// `--trace wiki`.
    Wiki,
    /// `--trace wits`.
    Wits,
}

/// One benchmark workload: the arguments of one `fifer` command line.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub rm: RmKind,
    pub family: Family,
    /// `--rate`.
    pub rate: f64,
    /// `--secs`.
    pub secs: u64,
    /// `--large`.
    pub large: bool,
    /// `--faults`; empty for none.
    pub faults: &'static str,
}

/// The benchmark's workloads; see `README.md` for why each was chosen.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-fifer",
        rm: RmKind::Fifer,
        family: Family::Wiki,
        rate: 150.0,
        secs: 1800,
        large: true,
        faults: "",
    },
    Workload {
        name: "azure-hybridhist",
        rm: RmKind::HybridHist,
        family: Family::Azure { apps: 400 },
        rate: 150.0,
        secs: 7200,
        large: true,
        faults: "",
    },
    Workload {
        name: "wits-harvest-faults",
        rm: RmKind::Harvest,
        family: Family::Wits,
        rate: 60.0,
        secs: 7200,
        large: false,
        faults: "seed=7,spawn=0.05@500,crash=0.02,straggler=0.1x4,retries=8,outage=2@1000+300",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload over a different horizon.
    pub fn with_secs(self, secs: u64) -> Workload {
        Workload { secs, ..self }
    }

    /// The `fifer` arguments this workload stands for.
    pub fn fifer_args(&self, seed: u64) -> Vec<String> {
        let mut a = vec!["--rm".to_string(), self.rm.to_string().to_lowercase()];
        match self.family {
            Family::Azure { apps } => {
                a.extend(["--workload".into(), "azure".into()]);
                a.extend(["--apps".into(), apps.to_string()]);
            }
            Family::Wiki => a.extend(["--trace".into(), "wiki".into()]),
            Family::Wits => a.extend(["--trace".into(), "wits".into()]),
        }
        a.extend(["--rate".into(), self.rate.to_string()]);
        a.extend(["--secs".into(), self.secs.to_string()]);
        if self.large {
            a.push("--large".into());
        }
        if !self.faults.is_empty() {
            a.extend(["--faults".into(), self.faults.into()]);
        }
        a.extend(["--seed".into(), seed.to_string()]);
        a
    }

    /// Generates the job stream, as `fifer` does for these arguments.
    pub fn stream(&self, seed: u64) -> JobStream {
        let horizon = SimDuration::from_secs(self.secs);
        let mix = WorkloadMix::Heavy;
        match self.family {
            Family::Azure { apps } => AzureWorkloadConfig {
                apps,
                tail_exponent: 1.5,
                total_rate: self.rate,
                trigger_mix: TriggerMix::paper_default(),
                mix,
            }
            .generate_stream(horizon, seed),
            Family::Wiki => JobStream::generate(
                &WikiLikeTrace::scaled(self.rate / 1500.0),
                mix,
                horizon,
                seed,
            ),
            Family::Wits => JobStream::generate(
                &WitsLikeTrace::scaled(self.rate / 240.0, horizon, seed),
                mix,
                horizon,
                seed,
            ),
        }
    }

    /// Builds the simulation config `fifer` builds for these arguments,
    /// without the pretrain series (see [`pretrain_series`]).
    pub fn config(&self, stream: &JobStream, seed: u64) -> SimConfig {
        let avg_rate = stream.len() as f64 / self.secs as f64;
        let rm = self.rm.config();
        let mut cfg = if self.large {
            SimConfig::large_scale(rm, avg_rate)
        } else {
            SimConfig::prototype(rm, avg_rate)
        };
        cfg.seed = seed;
        cfg.warmup = SimDuration::from_secs(self.secs / 6);
        cfg.idle_timeout = SimDuration::from_secs((self.secs / 6).clamp(60, 600));
        if cfg.rm.keepalive.enabled {
            cfg.idle_timeout = SimDuration::from_secs(10);
        }
        cfg.faults = FaultPlan::parse(self.faults).expect("workload fault specs are valid");
        cfg
    }
}

/// The predictor pretraining series `fifer` derives from the first 60% of
/// the stream; empty for RMs without a proactive predictor.
pub fn pretrain_series(rm: &RmConfig, stream: &JobStream) -> Vec<f64> {
    if !rm.is_proactive() {
        return Vec::new();
    }
    let cut = (stream.len() * 6 / 10).max(1);
    let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
    window_max_series(&arrivals, 5)
}

// ---- hook timing -------------------------------------------------------

/// The timed `ResourceManager` hooks, in [`Hook`] order.
pub const HOOKS: [&str; 10] = [
    "on_start",
    "on_arrival",
    "on_task_finish",
    "on_queue_blocked",
    "on_reactive_tick",
    "on_monitor_tick",
    "on_usage_sample",
    "on_idle_deadline",
    "on_container_failed",
    "on_node_down",
];

#[derive(Clone, Copy)]
enum Hook {
    Start,
    Arrival,
    TaskFinish,
    QueueBlocked,
    ReactiveTick,
    MonitorTick,
    UsageSample,
    IdleDeadline,
    ContainerFailed,
    NodeDown,
}

/// Per-hook wall-clock and call counts collected by a [`HookTimer`].
#[derive(Debug, Default, Clone)]
pub struct HookStats {
    /// Nanoseconds spent inside each hook, indexed like [`HOOKS`].
    pub ns: [u64; HOOKS.len()],
    /// Calls of each hook, indexed like [`HOOKS`].
    pub calls: [u64; HOOKS.len()],
    /// Decisions the hooks handed back to the mechanism.
    pub decisions: u64,
}

impl HookStats {
    fn record(&mut self, hook: Hook, start: Instant, decisions: usize) {
        self.ns[hook as usize] += start.elapsed().as_nanos() as u64;
        self.calls[hook as usize] += 1;
        self.decisions += decisions as u64;
    }

    /// Seconds spent inside all hooks.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Forwards every [`ResourceManager`] method to `inner`, timing the hooks.
///
/// The trait's defaulted queries (`wants_reactive_ticks`, `observes_load`)
/// are forwarded too: falling back to the defaults would silently change
/// what the simulation driver does. The counters live in the decorator, so
/// the timed path touches no shared memory; they are published to `sink`
/// when the simulation drops its resource manager at the end of the run.
pub struct HookTimer {
    inner: Box<dyn ResourceManager>,
    stats: HookStats,
    sink: Arc<Mutex<HookStats>>,
}

impl HookTimer {
    pub fn new(inner: Box<dyn ResourceManager>, sink: Arc<Mutex<HookStats>>) -> Self {
        HookTimer {
            inner,
            stats: HookStats::default(),
            sink,
        }
    }
}

impl Drop for HookTimer {
    fn drop(&mut self) {
        // a poisoned sink means the reader panicked; nothing to publish to
        if let Ok(mut sink) = self.sink.lock() {
            *sink = self.stats.clone();
        }
    }
}

impl ResourceManager for HookTimer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wants_reactive_ticks(&self) -> bool {
        self.inner.wants_reactive_ticks()
    }

    fn observes_load(&self) -> bool {
        self.inner.observes_load()
    }

    fn on_start(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_start(view, out);
        self.stats.record(Hook::Start, t, out.len() - n);
    }

    fn on_arrival(&mut self, view: &ClusterView, stage: &StageView, out: &mut Vec<Decision>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_arrival(view, stage, out);
        self.stats.record(Hook::Arrival, t, out.len() - n);
    }

    fn on_task_finish(
        &mut self,
        view: &ClusterView,
        stage: &StageView,
        container: u64,
        out: &mut Vec<Decision>,
    ) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_task_finish(view, stage, container, out);
        self.stats.record(Hook::TaskFinish, t, out.len() - n);
    }

    fn on_queue_blocked(&mut self, view: &ClusterView, stage: &StageView) -> Decision {
        let t = Instant::now();
        let d = self.inner.on_queue_blocked(view, stage);
        self.stats.record(Hook::QueueBlocked, t, 1);
        d
    }

    fn on_reactive_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_reactive_tick(view, out);
        self.stats.record(Hook::ReactiveTick, t, out.len() - n);
    }

    fn on_monitor_tick(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_monitor_tick(view, out);
        self.stats.record(Hook::MonitorTick, t, out.len() - n);
    }

    fn on_usage_sample(&mut self, view: &ClusterView, out: &mut Vec<Decision>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_usage_sample(view, out);
        self.stats.record(Hook::UsageSample, t, out.len() - n);
    }

    fn on_idle_deadline(
        &mut self,
        view: &ClusterView,
        expired: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_idle_deadline(view, expired, out);
        self.stats.record(Hook::IdleDeadline, t, out.len() - n);
    }

    fn on_container_failed(
        &mut self,
        view: &ClusterView,
        stage: &StageView,
        container: u64,
        out: &mut Vec<Decision>,
    ) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_container_failed(view, stage, container, out);
        self.stats.record(Hook::ContainerFailed, t, out.len() - n);
    }

    fn on_node_down(
        &mut self,
        view: &ClusterView,
        node: usize,
        lost: &[ContainerView],
        out: &mut Vec<Decision>,
    ) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_node_down(view, node, lost, out);
        self.stats.record(Hook::NodeDown, t, out.len() - n);
    }
}

// ---- modelled outcome --------------------------------------------------

/// The simulated-time statistics of one run, plus a digest of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Modelled {
    /// Measured-window jobs (after warmup) that met the SLO, in percent.
    pub slo_met_pct: f64,
    pub p99_latency_ms: f64,
    pub avg_containers: f64,
    /// Allocated minus used core-hours.
    pub waste_core_hours: f64,
    /// Measured-window jobs whose latency includes no cold-start wait, in
    /// percent.
    pub warm_jobs_pct: f64,
    /// Whether completed (warmup included) plus dropped jobs equal the
    /// stream length.
    pub reconciled: bool,
    /// FNV-1a digest of the headline and the statistics above.
    pub digest: String,
}

impl Modelled {
    /// Summarizes `r`, a run of a `jobs`-long stream.
    pub fn of(r: &SimResult, jobs: usize) -> Self {
        let h = r.headline();
        let waste = r.alloc_core_hours - r.used_core_hours;
        let warm = r
            .records
            .iter()
            .filter(|rec| rec.breakdown.cold_start == SimDuration::ZERO)
            .count();
        let words = [
            h.slo_violations.to_bits(),
            h.avg_containers.to_bits(),
            h.median_ms.to_bits(),
            h.p99_ms.to_bits(),
            h.cold_starts,
            h.energy_joules.to_bits(),
            r.slo_whole_run.total(),
            r.slo_whole_run.violations(),
            waste.to_bits(),
            r.events_processed,
            r.records.len() as u64,
            r.jobs_dropped,
        ];
        let mut d: u64 = 0xcbf2_9ce4_8422_2325;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Modelled {
            slo_met_pct: 100.0 - h.slo_violations * 100.0,
            p99_latency_ms: h.p99_ms,
            avg_containers: h.avg_containers,
            waste_core_hours: waste,
            warm_jobs_pct: if r.records.is_empty() {
                100.0
            } else {
                warm as f64 * 100.0 / r.records.len() as f64
            },
            reconciled: r.slo_whole_run.total() + r.jobs_dropped == jobs as u64,
            digest: format!("{d:016x}"),
        }
    }

    fn write(&self, o: &mut Obj) {
        o.num("slo_met_pct", self.slo_met_pct);
        o.num("p99_latency_ms", self.p99_latency_ms);
        o.num("avg_containers", self.avg_containers);
        o.num("waste_core_hours", self.waste_core_hours);
        o.num("warm_jobs_pct", self.warm_jobs_pct);
        o.flag("reconciled", self.reconciled);
        o.text("digest", &self.digest);
    }
}

// ---- JSON output -------------------------------------------------------

/// A flat JSON object written field by field.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&format!("\"{k}\":"));
    }

    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        assert!(v.is_finite(), "{k} is not finite");
        self.0.push_str(&format!("{v:?}"));
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        self.0.push_str(&v.to_string());
    }

    pub fn flag(&mut self, k: &str, v: bool) {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
    }

    pub fn text(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(&format!("\"{v}\""));
    }

    /// Appends `v`, already JSON.
    pub fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(v);
    }

    /// Appends a `{"value": v, "unit": u}` metric.
    pub fn metric(&mut self, k: &str, v: f64, unit: &str) {
        self.key(k);
        assert!(v.is_finite(), "{k} is not finite");
        self.0
            .push_str(&format!("{{\"value\":{v:?},\"unit\":\"{unit}\"}}"));
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// Starts a process record: the seed and the detected cores.
fn record(seed: u64) -> Obj {
    let mut o = Obj::default();
    o.int("seed", seed);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    o.int("cores", cores as u64);
    o
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---- modes -------------------------------------------------------------

/// The measured product path: what `fifer <args>` does, timed. `t0` is
/// the process's start (the top of `main`).
pub fn timed(w: &Workload, seed: u64, t0: Instant) -> String {
    let stream = w.stream(seed);
    let mut cfg = w.config(&stream, seed);
    cfg.pretrain_series = pretrain_series(&cfg.rm, &stream);
    let (sim, _) = Simulation::new_served(cfg, &stream, None);
    let setup_s = secs_since(t0);
    let t = Instant::now();
    let r = sim.run();
    let replay_s = secs_since(t);
    let m = Modelled::of(&r, stream.len());
    let mut o = record(seed);
    o.num("setup_s", setup_s);
    o.num("replay_s", replay_s);
    o.int("events", r.events_processed);
    m.write(&mut o);
    o.finish()
}

/// An untimed-path replay: the product path with the invariant auditor
/// and/or the CLI-sized decision-trace ring on, reporting the replay's
/// wall-clock. With `cache`, a neural predictor warm-starts from (or is
/// stored to) the model cache there; warm starts are bit-identical.
pub fn replay(w: &Workload, seed: u64, audit: bool, trace: bool, cache: Option<&Path>) -> String {
    let stream = w.stream(seed);
    let mut cfg = w.config(&stream, seed);
    cfg.pretrain_series = pretrain_series(&cfg.rm, &stream);
    cfg.audit = audit;
    if trace {
        cfg.trace.capacity = TRACE_CAPACITY;
    }
    let cache = cache.map(|dir| ModelCache::open(dir).expect("model cache directory opens"));
    let (sim, _) = Simulation::new_served(cfg, &stream, cache.as_ref());
    let t = Instant::now();
    let (r, trace) = sim.run_with_trace();
    let replay_s = secs_since(t);
    let mut o = record(seed);
    o.num("replay_s", replay_s);
    o.int("audit_checks", r.audit_checks);
    o.int("audit_violations", r.audit_violations.len() as u64);
    o.int("trace_records", trace.len() as u64);
    Modelled::of(&r, stream.len()).write(&mut o);
    o.finish()
}

/// Per-layer attribution of the product path: every layer call timed from
/// outside and the RM wrapped in a [`HookTimer`]. The layer times sum to
/// the wall-clock since `t0` up to `bench.unattributed_s`. The audit, trace
/// and hook-timing overheads come from separate [`replay`] processes.
pub fn traced(w: &Workload, seed: u64, t0: Instant) -> String {
    let t = Instant::now();
    let stream = w.stream(seed);
    let generate_s = secs_since(t);
    let jobs = stream.len();

    let mut cfg = w.config(&stream, seed);
    let t = Instant::now();
    cfg.pretrain_series = pretrain_series(&cfg.rm, &stream);
    let rm = cfg.rm.build_rm(cfg.seed, &cfg.pretrain_series);
    let pretrain_s = secs_since(t);

    let sink = Arc::new(Mutex::new(HookStats::default()));
    let t = Instant::now();
    let sim = Simulation::with_resource_manager(
        cfg,
        &stream,
        Box::new(HookTimer::new(rm, Arc::clone(&sink))),
    );
    let construct_s = secs_since(t);

    let t = Instant::now();
    let r = sim.run();
    let replay_s = secs_since(t);

    let t = Instant::now();
    let m = Modelled::of(&r, jobs);
    let headline_s = secs_since(t);

    let counts = [
        ("sim.events", r.events_processed),
        ("sim.peak_queue_depth", r.peak_queue_depth),
        ("lifecycle.spawns", r.total_spawns),
        ("lifecycle.blocking_cold_starts", r.blocking_cold_starts),
        ("lifecycle.failed_spawns", r.failed_spawns),
        ("lifecycle.rightsized", r.containers_rightsized),
        ("harvest.leases_created", r.leases_created),
        ("harvest.spawns", r.harvest_spawns),
        ("harvest.preempted", r.containers_preempted),
        ("fault.container_failures", r.container_failures),
        ("fault.tasks_requeued", r.tasks_requeued),
        ("fault.jobs_dropped", r.jobs_dropped),
    ];
    let spawn_success = ratio(r.total_spawns, r.total_spawns + r.failed_spawns);
    let lease_survival = ratio(
        r.leases_created.saturating_sub(r.containers_preempted),
        r.leases_created,
    );

    let t = Instant::now();
    drop(r);
    drop(stream);
    let drop_s = secs_since(t);
    let wall_s = secs_since(t0);

    let stats = sink
        .lock()
        .expect("hook stats sink is never poisoned")
        .clone();
    let layers_s = generate_s + pretrain_s + construct_s + replay_s + headline_s + drop_s;
    let mut x = Obj::default();
    x.metric("workloads.generate_s", generate_s, "s");
    x.metric("workloads.jobs", jobs as f64, "count");
    x.metric("predict.pretrain_s", pretrain_s, "s");
    x.metric("sim.construct_s", construct_s, "s");
    x.metric("sim.replay_s", replay_s, "s");
    x.metric("sim.mechanism_s", replay_s - stats.total_s(), "s");
    for (i, hook) in HOOKS.iter().enumerate() {
        x.metric(&format!("core.policy.{hook}.ns"), stats.ns[i] as f64, "ns");
        x.metric(
            &format!("core.policy.{hook}.calls"),
            stats.calls[i] as f64,
            "count",
        );
    }
    x.metric("core.policy.decisions", stats.decisions as f64, "count");
    for (name, v) in counts {
        x.metric(name, v as f64, "count");
    }
    x.metric("lifecycle.spawn_success_ratio", spawn_success, "ratio");
    x.metric("harvest.lease_survival_ratio", lease_survival, "ratio");
    x.metric("results.headline_s", headline_s, "s");
    x.metric("results.drop_s", drop_s, "s");
    x.metric("bench.unattributed_s", wall_s - layers_s, "s");

    let mut o = record(seed);
    o.num("wall_s", wall_s);
    o.num("replay_s", replay_s);
    m.write(&mut o);
    o.raw("metrics", &x.finish());
    o.finish()
}

/// `num / den`, or 1 when there were no attempts (nothing was lost).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}
