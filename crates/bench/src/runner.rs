//! Shared experiment execution: spec construction, predictor pre-training,
//! a cross-figure result cache, and parallel sweeps.

use fifer_core::rm::RmConfig;
use fifer_metrics::report::Table;
use fifer_metrics::{SimDuration, SimTime};
use fifer_sim::driver::{window_max_series, Simulation};
use fifer_sim::{ClusterConfig, SimConfig, SimResult};
use fifer_workloads::{
    AzureWorkloadConfig, JobStream, PoissonTrace, TraceGenerator, WikiLikeTrace, WitsLikeTrace,
    WorkloadMix,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Which arrival trace drives a run (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Synthetic Poisson, λ = 50 req/s at scale 1.0.
    Poisson,
    /// Wikipedia-like diurnal trace (avg 1500 req/s at scale 1.0).
    Wiki,
    /// WITS-like bursty trace (avg ≈300, peak 1200 req/s at scale 1.0).
    Wits,
}

impl TraceKind {
    /// Display name used in table rows and CSV file names.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Poisson => "poisson",
            TraceKind::Wiki => "wiki",
            TraceKind::Wits => "wits",
        }
    }

    /// Builds the trace generator at `scale` over `horizon`.
    pub fn build(self, scale: f64, horizon: SimDuration, seed: u64) -> Box<dyn TraceGenerator> {
        match self {
            TraceKind::Poisson => Box::new(PoissonTrace::new(50.0 * scale)),
            TraceKind::Wiki => {
                Box::new(WikiLikeTrace::scaled(scale).with_period(SimDuration::from_secs(3600)))
            }
            TraceKind::Wits => Box::new(WitsLikeTrace::scaled(scale, horizon, seed ^ 0x5157)),
        }
    }
}

/// One simulation to run: everything needed to build a [`SimConfig`] and a
/// [`JobStream`] deterministically.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Row label for tables ("Bline", "Fifer+MWA", …).
    pub label: String,
    /// The resource-manager policy bundle.
    pub rm: RmConfig,
    /// Workload mix.
    pub mix: WorkloadMix,
    /// Arrival trace.
    pub trace: TraceKind,
    /// Rate scale applied to the trace's paper-scale rates.
    pub rate_scale: f64,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Warmup excluded from latency/SLO metrics.
    pub warmup: SimDuration,
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Application SLO.
    pub slo: SimDuration,
    /// Base seed (stream + jitter + predictor init).
    pub seed: u64,
    /// Idle-container reclamation timeout (paper default 10 min).
    pub idle_timeout: SimDuration,
    /// Whether identical microservices are shared across the mix's apps.
    pub share_stages: bool,
    /// Pre-warmed pool floor per stage (§2.2.1; 0 disables).
    pub min_warm_pool: usize,
    /// Number of isolated tenants (§2.1; 1 = the paper's evaluation).
    pub tenants: usize,
}

impl RunSpec {
    /// A prototype-scale spec (80 cores, Poisson, paper defaults).
    pub fn prototype(label: impl Into<String>, rm: RmConfig, mix: WorkloadMix) -> Self {
        RunSpec {
            label: label.into(),
            rm,
            mix,
            trace: TraceKind::Poisson,
            rate_scale: 1.0,
            horizon: SimDuration::from_secs(3600),
            warmup: SimDuration::from_secs(900),
            cluster: ClusterConfig::prototype(),
            slo: SimDuration::from_millis(1000),
            seed: 42,
            idle_timeout: SimDuration::from_secs(600),
            share_stages: true,
            min_warm_pool: 0,
            tenants: 1,
        }
    }

    /// A trace-driven spec at 1/10 of the paper's large-scale setup (same
    /// load-to-capacity ratio as the 2500-core simulation, §5.3).
    pub fn large_scale(
        label: impl Into<String>,
        rm: RmConfig,
        mix: WorkloadMix,
        trace: TraceKind,
    ) -> Self {
        RunSpec {
            label: label.into(),
            rm,
            mix,
            trace,
            rate_scale: 0.1,
            horizon: SimDuration::from_secs(7200),
            warmup: SimDuration::from_secs(900),
            cluster: ClusterConfig {
                nodes: 16,
                cores_per_node: 16.0,
                mem_per_node_gb: 192.0,
            },
            slo: SimDuration::from_millis(1000),
            seed: 42,
            idle_timeout: SimDuration::from_secs(600),
            share_stages: true,
            min_warm_pool: 0,
            tenants: 1,
        }
    }

    /// Shrinks horizons (and the idle timeout, proportionally) for
    /// `--quick` smoke runs.
    pub fn quick(mut self) -> Self {
        self.horizon = self.horizon / 6;
        self.warmup = self.warmup / 6;
        self.idle_timeout = self.idle_timeout / 6;
        self
    }

    /// Cache key: every field that affects the result.
    fn cache_key(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{:?}|wp{}|tn{}",
            self.rm,
            self.mix,
            self.trace.label(),
            self.rate_scale,
            self.horizon,
            self.warmup,
            self.cluster.nodes,
            self.slo,
            self.seed,
            format!(
                "{:?}/{:?}/{}/{}",
                self.cluster.cores_per_node,
                self.cluster.mem_per_node_gb,
                self.idle_timeout,
                self.share_stages
            ),
            self.min_warm_pool,
            self.tenants,
        )
    }

    /// Builds the deterministic `(SimConfig, JobStream)` pair this spec
    /// describes, including the §4.5.1 pre-training series for proactive
    /// RMs. Callers that need to separate predictor pre-training from the
    /// replay itself (the perf harness) build the resource manager from
    /// the returned config and hand it to
    /// [`Simulation::with_resource_manager`].
    pub fn build_parts(&self) -> (SimConfig, JobStream) {
        let trace = self.trace.build(self.rate_scale, self.horizon, self.seed);
        let stream = JobStream::generate(trace.as_ref(), self.mix, self.horizon, self.seed);
        let avg_rate = if self.horizon.is_zero() {
            0.0
        } else {
            stream.len() as f64 / self.horizon.as_secs_f64()
        };
        let mut cfg = SimConfig {
            rm: self.rm,
            cluster: self.cluster,
            slo: self.slo,
            warmup: self.warmup,
            ..SimConfig::prototype(self.rm, avg_rate)
        };
        cfg.expected_avg_rate = avg_rate;
        cfg.seed = self.seed;
        cfg.idle_timeout = self.idle_timeout;
        cfg.share_stages = self.share_stages;
        cfg.min_warm_pool = self.min_warm_pool;
        cfg.tenants = self.tenants;
        if cfg.rm.is_proactive() {
            // the paper pre-trains on 60% of the trace (§4.5.1)
            let cut = (stream.len() * 6 / 10).max(1);
            let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
            cfg.pretrain_series = window_max_series(&arrivals, 5);
        }
        (cfg, stream)
    }

    /// Executes this run (no caching).
    pub fn execute(&self) -> SimResult {
        let (cfg, stream) = self.build_parts();
        Simulation::new(cfg, &stream).run()
    }
}

/// Builds the deterministic `(SimConfig, JobStream)` pair for one RM on
/// the Azure-characterization family — the `wild` bench section's runs.
///
/// The family lives outside the [`TraceKind`] machinery because it builds
/// its own stream (heavy-tailed per-app processes, not a rate envelope).
/// Every RM gets the same short 10 s idle scan, so the head-to-head
/// isolates the keep-alive *policy*: the mechanism offers each RM the
/// same reclamation opportunities and the policy decides who dies.
pub fn azure_parts(
    rm: RmConfig,
    azure: &AzureWorkloadConfig,
    horizon: SimDuration,
    warmup: SimDuration,
    seed: u64,
) -> (SimConfig, JobStream) {
    let stream = azure.generate_stream(horizon, seed);
    let avg_rate = if horizon.is_zero() {
        0.0
    } else {
        stream.len() as f64 / horizon.as_secs_f64()
    };
    let mut cfg = SimConfig::prototype(rm, avg_rate);
    cfg.seed = seed;
    cfg.warmup = warmup;
    cfg.idle_timeout = SimDuration::from_secs(10);
    if cfg.rm.is_proactive() {
        let cut = (stream.len() * 6 / 10).max(1);
        let arrivals: Vec<SimTime> = stream.iter().take(cut).map(|j| j.arrival).collect();
        cfg.pretrain_series = window_max_series(&arrivals, 5);
    }
    (cfg, stream)
}

/// Experiment context: output directory, quick-mode flag and the
/// cross-figure result cache (figures share expensive runs).
pub struct Ctx {
    /// Directory CSV artifacts are written to.
    pub out_dir: PathBuf,
    /// Shrinks horizons when set (`--quick`).
    pub quick: bool,
    cache: Mutex<HashMap<String, Arc<SimResult>>>,
}

impl Ctx {
    /// Creates a context writing into `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>, quick: bool) -> Self {
        Ctx {
            out_dir: out_dir.into(),
            quick,
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn cache_lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<SimResult>>> {
        self.cache.lock().expect("result cache poisoned")
    }

    /// Applies quick-mode shrinking to a spec.
    pub fn tune(&self, spec: RunSpec) -> RunSpec {
        if self.quick {
            spec.quick()
        } else {
            spec
        }
    }

    /// Runs one spec through the cache.
    pub fn run(&self, spec: RunSpec) -> Arc<SimResult> {
        let spec = self.tune(spec);
        let key = spec.cache_key();
        if let Some(hit) = self.cache_lock().get(&key) {
            return Arc::clone(hit);
        }
        let result = Arc::new(spec.execute());
        self.cache_lock().insert(key, Arc::clone(&result));
        result
    }

    /// Runs many specs in parallel (bounded by available parallelism),
    /// returning results in spec order.
    pub fn run_all(&self, specs: Vec<RunSpec>) -> Vec<Arc<SimResult>> {
        let specs: Vec<RunSpec> = specs.into_iter().map(|s| self.tune(s)).collect();
        // resolve cache hits first, and dedupe pending work by cache key so
        // duplicate specs in one batch share a single execution
        let mut out: Vec<Option<Arc<SimResult>>> = vec![None; specs.len()];
        let mut pending: Vec<(usize, RunSpec)> = Vec::new();
        let mut claimed: std::collections::HashSet<String> = std::collections::HashSet::new();
        {
            let cache = self.cache_lock();
            for (i, s) in specs.iter().enumerate() {
                let key = s.cache_key();
                match cache.get(&key) {
                    Some(hit) => out[i] = Some(Arc::clone(hit)),
                    None => {
                        if claimed.insert(key) {
                            pending.push((i, s.clone()));
                        }
                    }
                }
            }
        }
        let executed = fifer_core::pool::execute(
            pending,
            fifer_core::pool::default_workers(),
            |(i, spec): (usize, RunSpec)| {
                let r = Arc::new(spec.execute());
                self.cache_lock().insert(spec.cache_key(), Arc::clone(&r));
                (i, r)
            },
        );
        for (i, r) in executed {
            out[i] = Some(r);
        }
        // duplicate specs deferred to the claimed execution resolve from
        // the now-populated cache
        let cache = self.cache_lock();
        for (i, slot) in out.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = cache.get(&specs[i].cache_key()).map(Arc::clone);
            }
        }
        drop(cache);
        out.into_iter()
            .map(|o| o.expect("every spec produced a result"))
            .collect()
    }

    /// Runs labeled specs in parallel, returning `(label, result)` pairs in
    /// spec order — the common shape of the figure/ablation drivers.
    pub fn run_labeled(&self, specs: Vec<RunSpec>) -> Vec<(String, Arc<SimResult>)> {
        let labels: Vec<String> = specs.iter().map(|s| s.label.clone()).collect();
        labels.into_iter().zip(self.run_all(specs)).collect()
    }

    /// Prints a table and writes its CSV as `results/<name>.csv`.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("== {name} ==");
        println!("{}", table.render());
        let path = self.out_dir.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    /// Writes a generated gnuplot script under `<out>/plots/`.
    pub fn emit_plot(&self, script: &crate::plots::PlotScript) {
        let path = self.out_dir.join("plots").join(&script.name);
        if let Err(e) = fifer_metrics::report::write_file(&path, &script.body) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("plot script: {}", path.display());
        }
    }

    /// Writes a raw CSV string artifact.
    pub fn emit_raw(&self, name: &str, csv: &str) {
        let path = self.out_dir.join(format!("{name}.csv"));
        if let Err(e) = fifer_metrics::report::write_file(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Mean and sample standard deviation of one scalar metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStat {
    /// Mean across seeds.
    pub mean: f64,
    /// Sample standard deviation (0 for a single seed).
    pub std: f64,
}

impl SeedStat {
    fn of(values: &[f64]) -> Self {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        };
        SeedStat { mean, std }
    }

    /// Formats as `mean±std` with the given precision.
    pub fn display(&self, digits: usize) -> String {
        format!("{:.*}±{:.*}", digits, self.mean, digits, self.std)
    }
}

/// Headline metrics replicated across seeds.
#[derive(Debug, Clone)]
pub struct SeedSweep {
    /// SLO violation fraction (whole run).
    pub slo_whole: SeedStat,
    /// Time-weighted average live containers.
    pub avg_containers: SeedStat,
    /// Median latency in ms.
    pub median_ms: SeedStat,
    /// P99 latency in ms.
    pub p99_ms: SeedStat,
    /// Total container spawns.
    pub spawns: SeedStat,
    /// Cluster energy in joules.
    pub energy_j: SeedStat,
    /// Seeds used.
    pub seeds: Vec<u64>,
}

impl Ctx {
    /// Replicates one spec across `n` seeds (42, 43, …) in parallel and
    /// aggregates the headline metrics — the error bars the paper's plots
    /// omit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn run_seeds(&self, spec: RunSpec, n: usize) -> SeedSweep {
        assert!(n > 0, "need at least one seed");
        let seeds: Vec<u64> = (0..n as u64).map(|i| spec.seed + i).collect();
        let specs: Vec<RunSpec> = seeds
            .iter()
            .map(|&seed| RunSpec {
                seed,
                ..spec.clone()
            })
            .collect();
        let results = self.run_all(specs);
        let pull = |f: &dyn Fn(&SimResult) -> f64| -> SeedStat {
            SeedStat::of(&results.iter().map(|r| f(r)).collect::<Vec<f64>>())
        };
        SeedSweep {
            slo_whole: pull(&|r| r.slo_whole_run.violation_fraction()),
            avg_containers: pull(&|r| r.avg_live_containers()),
            median_ms: pull(&|r| r.median_latency_ms()),
            p99_ms: pull(&|r| r.p99_latency_ms()),
            spawns: pull(&|r| r.total_spawns as f64),
            energy_j: pull(&|r| r.energy_joules),
            seeds,
        }
    }
}

/// Ratio `v / base` formatted for "normalized to Bline" columns; falls back
/// to `-` when the base is ~zero (normalization undefined).
pub fn normalized(v: f64, base: f64) -> String {
    if base.abs() < 1e-12 {
        "-".to_string()
    } else {
        format!("{:.2}", v / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifer_core::rm::RmKind;

    fn tiny_spec(label: &str) -> RunSpec {
        let mut s = RunSpec::prototype(label, RmKind::Bline.config(), WorkloadMix::Light);
        s.horizon = SimDuration::from_secs(20);
        s.warmup = SimDuration::ZERO;
        s.rate_scale = 0.1; // 5 req/s
        s
    }

    #[test]
    fn execute_produces_records() {
        let r = tiny_spec("bline").execute();
        assert!(!r.records.is_empty());
    }

    #[test]
    fn cache_returns_same_arc() {
        let ctx = Ctx::new(std::env::temp_dir().join("fifer_bench_test"), false);
        let a = ctx.run(tiny_spec("x"));
        let b = ctx.run(tiny_spec("y")); // label not part of the key
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn run_all_preserves_order_and_caches() {
        let ctx = Ctx::new(std::env::temp_dir().join("fifer_bench_test2"), false);
        let mut s2 = tiny_spec("b");
        s2.seed = 7;
        let results = ctx.run_all(vec![tiny_spec("a"), s2.clone(), tiny_spec("c")]);
        assert_eq!(results.len(), 3);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        // second call is all cache hits
        let again = ctx.run_all(vec![tiny_spec("a"), s2]);
        assert!(Arc::ptr_eq(&again[0], &results[0]));
    }

    #[test]
    fn quick_shrinks_horizons() {
        let s = tiny_spec("q").quick();
        assert_eq!(s.horizon, SimDuration::from_secs(20) / 6);
    }

    #[test]
    fn seed_sweep_aggregates_across_seeds() {
        let ctx = Ctx::new(std::env::temp_dir().join("fifer_bench_seeds"), false);
        let sweep = ctx.run_seeds(tiny_spec("s"), 3);
        assert_eq!(sweep.seeds, vec![42, 43, 44]);
        assert!(sweep.spawns.mean > 0.0);
        assert!(sweep.slo_whole.mean >= 0.0 && sweep.slo_whole.mean <= 1.0);
        // different seeds produce different workloads, so some spread exists
        assert!(sweep.median_ms.std >= 0.0);
        assert_eq!(sweep.median_ms.display(0).matches('±').count(), 1);
    }

    #[test]
    fn seed_stat_of_constant_series_has_zero_std() {
        let s = SeedStat::of(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        let single = SeedStat::of(&[7.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn normalized_guards_zero_base() {
        assert_eq!(normalized(1.0, 0.0), "-");
        assert_eq!(normalized(1.0, 2.0), "0.50");
    }

    #[test]
    fn azure_parts_builds_a_runnable_pair() {
        let azure = AzureWorkloadConfig::paper_default();
        let (cfg, stream) = azure_parts(
            RmKind::HybridHist.config(),
            &azure,
            SimDuration::from_secs(30),
            SimDuration::ZERO,
            7,
        );
        assert!(!stream.is_empty());
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(10));
        let r = Simulation::new(cfg, &stream).run();
        assert_eq!(r.records.len(), stream.len());
    }

    #[test]
    fn trace_kinds_build() {
        for t in [TraceKind::Poisson, TraceKind::Wiki, TraceKind::Wits] {
            let g = t.build(0.1, SimDuration::from_secs(60), 1);
            assert!(g.peak_rate() > 0.0);
            assert!(!t.label().is_empty());
        }
    }
}
