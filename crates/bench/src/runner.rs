//! Shared experiment execution: run specs over a [`Scenario`], a
//! cross-figure result cache, and parallel sweeps.

use crate::pool::{detected_cores, par_map};
use fifer_core::rm::RmConfig;
use fifer_metrics::report::Table;
use fifer_metrics::SimDuration;
use fifer_sim::driver::Simulation;
use fifer_sim::{Arrivals, ClusterConfig, Scenario, SimResult};
use fifer_workloads::WorkloadMix;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One simulation to run: a resource manager on a [`Scenario`], plus the
/// knobs single ablations vary. Everything else comes from
/// [`Scenario::config`], as it does for `fifer`.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Row label for tables ("Bline", "Fifer+MWA", …).
    pub label: String,
    /// The resource-manager policy bundle.
    pub rm: RmConfig,
    /// Arrivals, mix, rate, horizon, warmup, seed and cluster.
    pub scenario: Scenario,
    /// Application SLO.
    pub slo: SimDuration,
    /// Whether identical microservices are shared across the mix's apps.
    pub share_stages: bool,
    /// Pre-warmed pool floor per stage (§2.2.1; 0 disables).
    pub min_warm_pool: usize,
    /// Number of isolated tenants (§2.1; 1 = the paper's evaluation).
    pub tenants: usize,
}

impl RunSpec {
    /// `rm` on `scenario` with the paper's defaults: a 1000 ms SLO, shared
    /// stages, no warm pool, one tenant.
    pub fn new(label: impl Into<String>, rm: RmConfig, scenario: Scenario) -> Self {
        RunSpec {
            label: label.into(),
            rm,
            scenario,
            slo: SimDuration::from_millis(1000),
            share_stages: true,
            min_warm_pool: 0,
            tenants: 1,
        }
    }

    /// A prototype-scale spec: Poisson λ = 50 on the 80-core cluster for
    /// an hour after a 15-minute warmup (§6.1).
    pub fn prototype(label: impl Into<String>, rm: RmConfig, mix: WorkloadMix) -> Self {
        let scenario = Scenario {
            mix,
            secs: 3600,
            warmup: Some(SimDuration::from_secs(900)),
            ..Scenario::default()
        };
        Self::new(label, rm, scenario)
    }

    /// A trace-driven spec at 1/10 of the paper's large-scale setup: a
    /// 16-node cluster replaying `arrivals` at `rate`, a tenth of the
    /// trace's paper-scale average (150 req/s for Wiki, 24 for WITS), for
    /// 2 hours after a 15-minute warmup — the load-to-capacity ratio of
    /// the 2500-core simulation (§5.3).
    pub fn large_scale(
        label: impl Into<String>,
        rm: RmConfig,
        mix: WorkloadMix,
        arrivals: Arrivals,
        rate: f64,
    ) -> Self {
        let scenario = Scenario {
            arrivals,
            mix,
            rate,
            secs: 7200,
            warmup: Some(SimDuration::from_secs(900)),
            cluster: ClusterConfig {
                nodes: 16,
                ..ClusterConfig::large_scale()
            },
            ..Scenario::default()
        };
        Self::new(label, rm, scenario)
    }

    /// Shrinks the horizon and the warmup 6× for `--quick` smoke runs;
    /// the idle scan follows the horizon.
    pub fn quick(mut self) -> Self {
        self.scenario.secs /= 6;
        self.scenario.warmup = self.scenario.warmup.map(|w| w / 6);
        self
    }

    /// Cache key: every field but the row label.
    fn cache_key(&self) -> String {
        let mut unlabeled = self.clone();
        unlabeled.label.clear();
        format!("{unlabeled:?}")
    }

    /// Executes this run (no caching).
    pub fn execute(&self) -> SimResult {
        let stream = self.scenario.stream();
        let mut cfg = self.scenario.config(self.rm, &stream);
        cfg.slo = self.slo;
        cfg.share_stages = self.share_stages;
        cfg.min_warm_pool = self.min_warm_pool;
        cfg.tenants = self.tenants;
        Simulation::new(cfg, &stream).run()
    }
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

    /// Runs one spec through the cache.
    pub fn run(&self, spec: RunSpec) -> Arc<SimResult> {
        self.run_all(vec![spec]).remove(0)
    }

    /// Runs many specs in parallel (bounded by available parallelism),
    /// returning results in spec order. Each uncached key runs once, even
    /// when the batch repeats it.
    pub fn run_all(&self, specs: Vec<RunSpec>) -> Vec<Arc<SimResult>> {
        let specs: Vec<RunSpec> = specs
            .into_iter()
            .map(|s| if self.quick { s.quick() } else { s })
            .collect();
        let keys: Vec<String> = specs.iter().map(RunSpec::cache_key).collect();
        let mut pending: Vec<(String, RunSpec)> = Vec::new();
        {
            let cache = self.cache_lock();
            for (key, spec) in keys.iter().zip(specs) {
                if !cache.contains_key(key) && !pending.iter().any(|(k, _)| k == key) {
                    pending.push((key.clone(), spec));
                }
            }
        }
        let done = par_map(
            pending,
            detected_cores(),
            |(key, spec): (String, RunSpec)| (key, Arc::new(spec.execute())),
        );
        let mut cache = self.cache_lock();
        cache.extend(done);
        keys.iter().map(|k| Arc::clone(&cache[k])).collect()
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
        let seeds: Vec<u64> = (0..n as u64).map(|i| spec.scenario.seed + i).collect();
        let specs: Vec<RunSpec> = seeds
            .iter()
            .map(|&seed| {
                let mut spec = spec.clone();
                spec.scenario.seed = seed;
                spec
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
    use fifer_metrics::SimTime;
    use fifer_workloads::AzureWorkloadConfig;

    fn tiny_spec(label: &str) -> RunSpec {
        let scenario = Scenario {
            mix: WorkloadMix::Light,
            rate: 5.0,
            secs: 20,
            warmup: Some(SimDuration::ZERO),
            ..Scenario::default()
        };
        RunSpec::new(label, RmKind::Bline.config(), scenario)
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
        s2.scenario.seed = 7;
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
        let s = RunSpec::prototype("q", RmKind::Bline.config(), WorkloadMix::Light).quick();
        assert_eq!(s.scenario.secs, 600);
        assert_eq!(s.scenario.warmup, Some(SimDuration::from_secs(150)));
    }

    #[test]
    fn hybridhist_runs_with_its_own_idle_scan() {
        // the keep-alive RM decides who dies at a 10 s scan; at Bline's
        // scan it would replay Bline's run byte for byte
        let run = |kind: RmKind| {
            let mut spec = tiny_spec(&kind.to_string());
            spec.rm = kind.config();
            spec.scenario.secs = 300;
            spec.execute()
        };
        let (bline, hybrid) = (run(RmKind::Bline), run(RmKind::HybridHist));
        assert_ne!(bline.to_json(), hybrid.to_json());
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
        // the Azure family's stream and config, as the harness builds them
        let azure = AzureWorkloadConfig::paper_default();
        let mut spec = tiny_spec("azure");
        spec.rm = RmKind::HybridHist.config();
        spec.scenario = Scenario {
            arrivals: Arrivals::Azure {
                apps: azure.apps,
                tail_exponent: azure.tail_exponent,
                trigger_mix: azure.trigger_mix,
            },
            mix: azure.mix,
            rate: azure.total_rate,
            secs: 30,
            warmup: Some(SimDuration::ZERO),
            seed: 7,
            ..Scenario::default()
        };
        let stream = spec.scenario.stream();
        assert!(!stream.is_empty());
        let cfg = spec.scenario.config(spec.rm, &stream);
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(10));
        assert_eq!(spec.execute().records.len(), stream.len());
    }

    #[test]
    fn trace_kinds_build() {
        for arrivals in [Arrivals::Poisson, Arrivals::Wiki, Arrivals::Wits] {
            let spec = RunSpec::large_scale(
                "t",
                RmKind::Bline.config(),
                WorkloadMix::Light,
                arrivals,
                24.0,
            );
            let mut scenario = spec.scenario;
            scenario.secs = 60;
            let stream = scenario.stream();
            assert!(!stream.is_empty(), "{arrivals:?} built an empty stream");
            assert!(stream
                .iter()
                .all(|j| j.arrival < SimTime::ZERO + scenario.horizon()));
        }
    }
}
