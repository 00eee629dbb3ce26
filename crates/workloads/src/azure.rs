//! Azure-characterization workload family ("Serverless in the Wild",
//! Shahrad et al., PAPERS.md; ROADMAP item 2).
//!
//! The Azure Functions characterization differs from the paper's single
//! front-door traces in two structural ways this module models:
//!
//! * **Heavy-tailed popularity** — a few applications dominate traffic
//!   while most are invoked rarely. Per-app rates follow a Zipf law
//!   `rate(rank) ∝ (rank+1)^-s` normalized to a configured total.
//! * **Mixed trigger classes** — HTTP, timer, queue and event triggers
//!   each impose a distinct inter-arrival structure: memoryless, periodic
//!   with jitter, bursty, and on/off-modulated respectively. The trigger
//!   class shapes each app's *idle-time distribution*, which is exactly
//!   the signal the hybrid-histogram keep-alive policy consumes.
//!
//! Every app's chain comes from the configured [`WorkloadMix`]
//! (alternating by rank via [`WorkloadMix::application_for_rank`]), so the
//! simulator's stage tables are unchanged — the family plugs into the
//! existing [`JobStream`] front door. All sampling is drawn from the
//! seeded vendored RNG: same seed, same stream, byte for byte.

use crate::apps::WorkloadMix;
use crate::catalog::jittered;
use crate::request::{JobRequest, JobStream};
use crate::traces::exp_gap;
use fifer_metrics::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

/// How an application's invocations are triggered (the Azure trigger
/// taxonomy, collapsed to the four classes with distinct arrival shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TriggerClass {
    /// User-facing requests: memoryless Poisson arrivals.
    Http,
    /// Scheduled executions: near-periodic firing with small jitter.
    Timer,
    /// Work-queue drains: arrivals clumped into short bursts.
    Queue,
    /// Upstream event sources: Poisson bursts gated by on/off episodes.
    Event,
}

impl TriggerClass {
    /// All trigger classes, in [`TriggerMix`] field order.
    pub const ALL: [TriggerClass; 4] = [
        TriggerClass::Http,
        TriggerClass::Timer,
        TriggerClass::Queue,
        TriggerClass::Event,
    ];

    /// Stable lowercase name (for reports and golden fixtures).
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerClass::Http => "http",
            TriggerClass::Timer => "timer",
            TriggerClass::Queue => "queue",
            TriggerClass::Event => "event",
        }
    }
}

impl fmt::Display for TriggerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Share of apps per trigger class, in integer percent summing to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriggerMix {
    /// Percent of apps with HTTP triggers.
    pub http_pct: u8,
    /// Percent of apps with timer triggers.
    pub timer_pct: u8,
    /// Percent of apps with queue triggers.
    pub queue_pct: u8,
    /// Percent of apps with event triggers.
    pub event_pct: u8,
}

impl TriggerMix {
    /// Creates a mix, checking the percentages sum to 100.
    ///
    /// # Panics
    ///
    /// Panics if the four shares do not sum to exactly 100.
    pub fn new(http_pct: u8, timer_pct: u8, queue_pct: u8, event_pct: u8) -> Self {
        let sum = u32::from(http_pct)
            + u32::from(timer_pct)
            + u32::from(queue_pct)
            + u32::from(event_pct);
        assert!(sum == 100, "trigger shares must sum to 100, got {sum}");
        TriggerMix {
            http_pct,
            timer_pct,
            queue_pct,
            event_pct,
        }
    }

    /// The characterization's headline split: HTTP dominates, timers are
    /// the second class, queues and other event sources share the rest.
    pub fn paper_default() -> Self {
        TriggerMix::new(55, 20, 15, 10)
    }

    /// Parses `"http,timer,queue,event"` integer percentages
    /// (e.g. `"55,20,15,10"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 4 {
            return Err(format!(
                "expected 4 comma-separated percentages, got {}",
                parts.len()
            ));
        }
        let mut pct = [0u8; 4];
        for (slot, part) in pct.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse()
                .map_err(|_| format!("bad percentage {part:?}"))?;
        }
        let sum: u32 = pct.iter().map(|&p| u32::from(p)).sum();
        if sum != 100 {
            return Err(format!("trigger shares must sum to 100, got {sum}"));
        }
        Ok(TriggerMix {
            http_pct: pct[0],
            timer_pct: pct[1],
            queue_pct: pct[2],
            event_pct: pct[3],
        })
    }

    /// Maps a uniform roll in `0..100` to a trigger class.
    fn pick(&self, roll: u8) -> TriggerClass {
        let mut edge = self.http_pct;
        if roll < edge {
            return TriggerClass::Http;
        }
        edge += self.timer_pct;
        if roll < edge {
            return TriggerClass::Timer;
        }
        edge += self.queue_pct;
        if roll < edge {
            return TriggerClass::Queue;
        }
        TriggerClass::Event
    }
}

/// One application of the family: a popularity rank bound to a chain, a
/// trigger class and a mean invocation rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureApp {
    /// Popularity rank (0 = most invoked).
    pub rank: usize,
    /// The function chain this app invokes.
    pub application: crate::apps::Application,
    /// How this app's invocations arrive.
    pub trigger: TriggerClass,
    /// Mean invocation rate in req/s (the app's Zipf share of the total).
    pub rate: f64,
}

/// Configuration of the Azure-characterization family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureWorkloadConfig {
    /// Number of applications in the family.
    pub apps: usize,
    /// Zipf tail exponent `s`: larger values concentrate more traffic on
    /// the top-ranked apps.
    pub tail_exponent: f64,
    /// Aggregate mean arrival rate across all apps, in req/s.
    pub total_rate: f64,
    /// Share of apps per trigger class.
    pub trigger_mix: TriggerMix,
    /// Workload mix supplying the two chains apps alternate between.
    pub mix: WorkloadMix,
}

impl AzureWorkloadConfig {
    /// The family's defaults: 32 apps, a pronounced (`s = 1.5`) tail, the
    /// characterization's trigger split, and the Medium mix at 20 req/s
    /// aggregate — prototype-cluster scale, like the paper traces' scaled
    /// variants.
    pub fn paper_default() -> Self {
        AzureWorkloadConfig {
            apps: 32,
            tail_exponent: 1.5,
            total_rate: 20.0,
            trigger_mix: TriggerMix::paper_default(),
            mix: WorkloadMix::Medium,
        }
    }

    /// The Zipf share of the `rank`-th app: `(rank+1)^-s / H_n(s)`.
    ///
    /// O(apps) per call: it sums the normalizer `H_n(s)` afresh.
    /// [`Self::build_apps`] sums it once for the whole table.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.apps` or the configuration is invalid.
    pub fn zipf_share(&self, rank: usize) -> f64 {
        self.validate();
        assert!(rank < self.apps, "rank {rank} out of {} apps", self.apps);
        self.zipf_term(rank) / self.zipf_normalizer()
    }

    /// Mean invocation rate of the `rank`-th app in req/s; O(apps) per
    /// call, like [`Self::zipf_share`].
    pub fn rate_for_rank(&self, rank: usize) -> f64 {
        self.total_rate * self.zipf_share(rank)
    }

    /// `(rank+1)^-s`, the unnormalized Zipf weight of the `rank`-th app.
    fn zipf_term(&self, rank: usize) -> f64 {
        ((rank + 1) as f64).powf(-self.tail_exponent)
    }

    /// `H_n(s) = Σ_{i=1..n} i^-s`, summed in rank order.
    fn zipf_normalizer(&self) -> f64 {
        (0..self.apps).map(|rank| self.zipf_term(rank)).sum()
    }

    fn validate(&self) {
        assert!(self.apps > 0, "need at least one app");
        assert!(
            self.tail_exponent.is_finite() && self.tail_exponent > 0.0,
            "tail exponent must be positive"
        );
        assert!(
            self.total_rate.is_finite() && self.total_rate > 0.0,
            "total rate must be positive"
        );
    }

    /// Materializes the app table: Zipf rates by rank, chains alternating
    /// through the mix, trigger classes drawn from the trigger-mix shares
    /// (deterministic in `seed`).
    ///
    /// O(apps): the Zipf normalizer is summed once, and each rate is the
    /// same expression [`Self::rate_for_rank`] evaluates, so the two agree
    /// bit for bit.
    pub fn build_apps(&self, seed: u64) -> Vec<AzureApp> {
        self.validate();
        let h = self.zipf_normalizer();
        let mut rng = StdRng::seed_from_u64(mix64(seed ^ TRIGGER_SALT));
        (0..self.apps)
            .map(|rank| AzureApp {
                rank,
                application: self.mix.application_for_rank(rank),
                trigger: self.trigger_mix.pick(rng.gen_range(0..100)),
                rate: self.total_rate * (self.zipf_term(rank) / h),
            })
            .collect()
    }

    /// Generates the family's job stream over `[0, duration)` along with
    /// the per-trigger-class job counts (in [`TriggerClass::ALL`] order) —
    /// the labeled variant golden fixtures pin.
    ///
    /// The per-app processes are superposed in `(arrival, rank)` order: a
    /// k-way merge of the apps' sorted runs feeds the stream directly,
    /// exactly as a stable sort of every arrival by that key would order
    /// them (within one rank the merge keeps the run's order).
    pub fn generate_labeled(&self, duration: SimDuration, seed: u64) -> (JobStream, [u64; 4]) {
        let apps = self.build_apps(seed);
        let (runs, per_trigger) = app_runs(&apps, duration, seed);
        // each rank's arrivals not yet in the heap
        let mut rest: Vec<_> = runs.iter().map(|run| run.iter()).collect();
        let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = rest
            .iter_mut()
            .enumerate()
            .filter_map(|(rank, run)| Some(Reverse((*run.next()?, rank))))
            .collect();
        // input scales from a stream-level RNG, like JobStream::generate
        // (salt 2 keeps it disjoint from the generator's salt-1 RNG)
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(2));
        let mut stream = JobStream::new(self.mix);
        let mut id = 0;
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((arrival, rank)) = *head;
            stream.push(JobRequest {
                id,
                app: apps[rank].application,
                arrival,
                input_scale: rng.gen_range(0.9..1.1),
            });
            id += 1;
            match rest[rank].next() {
                // replacing the head sifts it down when `head` drops
                Some(&t) => *head = Reverse((t, rank)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        (stream, per_trigger)
    }

    /// Generates the family's job stream over `[0, duration)`,
    /// deterministic in `seed`.
    pub fn generate_stream(&self, duration: SimDuration, seed: u64) -> JobStream {
        self.generate_labeled(duration, seed).0
    }
}

/// Salt separating the trigger-assignment RNG from the per-app RNGs.
const TRIGGER_SALT: u64 = 0xA27B_5E11;

/// SplitMix64 finalizer: decorrelates the per-purpose seeds derived from
/// one user seed, so neighboring ranks don't get correlated streams.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each app's arrivals over `[0, duration)`, in rank order, each run
/// sorted, along with the per-trigger-class job counts.
fn app_runs(apps: &[AzureApp], duration: SimDuration, seed: u64) -> (Vec<Vec<SimTime>>, [u64; 4]) {
    let end = duration.as_secs_f64();
    let mut per_trigger = [0u64; 4];
    let runs = apps
        .iter()
        .map(|app| {
            let mut rng = StdRng::seed_from_u64(mix64(seed ^ (app.rank as u64 + 1)));
            let mut times = app_arrivals(app, end, &mut rng);
            // queue bursts may straddle the next burst's start
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite arrival times"));
            let class = TriggerClass::ALL
                .iter()
                .position(|&t| t == app.trigger)
                .expect("trigger in ALL");
            per_trigger[class] += times.len() as u64;
            // in place: `f64` and `SimTime` have the same size, and the
            // rounding to µs keeps the run sorted
            let mut run: Vec<SimTime> = times.into_iter().map(SimTime::from_secs_f64).collect();
            // drop the spare capacity `app_arrivals` grew by doubling: the
            // runs are held until the merge ends
            run.shrink_to_fit();
            run
        })
        .collect();
    (runs, per_trigger)
}

/// Samples one app's arrival instants (seconds) over `[0, end)`.
fn app_arrivals(app: &AzureApp, end: f64, rng: &mut StdRng) -> Vec<f64> {
    let rate = app.rate;
    let mut out = Vec::new();
    match app.trigger {
        // memoryless: exponential gaps at the app's mean rate
        TriggerClass::Http => {
            let mut t = exp_gap(rng, rate);
            while t < end {
                out.push(t);
                t += exp_gap(rng, rate);
            }
        }
        // near-periodic: period 1/rate, uniform initial phase, ±5% jitter
        // per firing (floored at a tenth of the period so time advances)
        TriggerClass::Timer => {
            let period = 1.0 / rate;
            let mut t = rng.gen_range(0.0..period);
            while t < end {
                out.push(t);
                t += jittered(rng, period, period * 0.05, period * 0.1);
            }
        }
        // bursty: burst starts are Poisson at rate / E[burst], burst sizes
        // uniform in 1..5 (mean 2.5), intra-burst spacing 50–200 ms — the
        // mean rate stays the app's Zipf share
        TriggerClass::Queue => {
            const MEAN_BURST: f64 = 2.5;
            let mut t = exp_gap(rng, rate / MEAN_BURST);
            while t < end {
                let burst: u32 = rng.gen_range(1..5);
                let mut bt = t;
                for k in 0..burst {
                    if k > 0 {
                        bt += rng.gen_range(0.05..0.2);
                    }
                    if bt >= end {
                        break;
                    }
                    out.push(bt);
                }
                t += exp_gap(rng, rate / MEAN_BURST);
            }
        }
        // on/off-modulated: 10–30 s episodes alternating active and
        // silent, Poisson at twice the mean rate while active (50% duty
        // cycle preserves the mean)
        TriggerClass::Event => {
            let mut window_start = 0.0;
            let mut on = rng.gen_bool(0.5);
            while window_start < end {
                let window: f64 = rng.gen_range(10.0..30.0);
                let window_end = (window_start + window).min(end);
                if on {
                    let mut t = window_start + exp_gap(rng, 2.0 * rate);
                    while t < window_end {
                        out.push(t);
                        t += exp_gap(rng, 2.0 * rate);
                    }
                }
                window_start += window;
                on = !on;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::Application;
    use crate::request::JobRequest;

    fn cfg() -> AzureWorkloadConfig {
        AzureWorkloadConfig::paper_default()
    }

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_secs(m * 60)
    }

    #[test]
    fn zipf_shares_sum_to_one_and_decay() {
        let c = cfg();
        let total: f64 = (0..c.apps).map(|r| c.zipf_share(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1 (got {total})");
        for r in 1..c.apps {
            assert!(
                c.rate_for_rank(r) < c.rate_for_rank(r - 1),
                "rates strictly decay with rank"
            );
        }
    }

    #[test]
    fn app_table_is_deterministic_and_alternates_chains() {
        let c = cfg();
        let a = c.build_apps(7);
        let b = c.build_apps(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), c.apps);
        for app in &a {
            assert_eq!(app.application, c.mix.application_for_rank(app.rank));
        }
    }

    #[test]
    fn app_table_rates_match_rate_for_rank_bitwise() {
        // build_apps sums the normalizer once; rate_for_rank re-sums it per
        // call, so it is the oracle (sampled at 5000 apps to bound the
        // oracle's O(apps²))
        for apps in [1, 2, 400, 5000] {
            for tail_exponent in [1.5, 0.7] {
                let c = AzureWorkloadConfig {
                    apps,
                    tail_exponent,
                    total_rate: 150.0,
                    ..cfg()
                };
                let table = c.build_apps(42);
                let stride = apps.div_ceil(400);
                for rank in (0..apps).step_by(stride).chain([apps - 1]) {
                    assert_eq!(
                        table[rank].rate.to_bits(),
                        c.rate_for_rank(rank).to_bits(),
                        "{apps} apps, s = {tail_exponent}, rank {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_is_deterministic_in_the_seed() {
        let c = cfg();
        let d = mins(2);
        assert_eq!(c.generate_stream(d, 11), c.generate_stream(d, 11));
        assert_ne!(c.generate_stream(d, 11), c.generate_stream(d, 12));
    }

    #[test]
    fn stream_is_ordered_ided_and_in_range() {
        let s = cfg().generate_stream(mins(2), 3);
        assert!(!s.is_empty());
        for (i, j) in s.iter().enumerate() {
            assert_eq!(j.id, i as u64);
            assert!((0.9..1.1).contains(&j.input_scale));
            assert!(j.arrival < SimTime::from_secs(120));
        }
        let arrivals: Vec<SimTime> = s.iter().map(|j| j.arrival).collect();
        assert!(arrivals.is_sorted());
    }

    #[test]
    fn only_the_mixes_two_chains_appear() {
        let s = cfg().generate_stream(mins(2), 5);
        let f = s.app_fraction(Application::Ipa) + s.app_fraction(Application::Img);
        assert!((f - 1.0).abs() < 1e-9, "Medium mix chains only (got {f})");
    }

    #[test]
    fn aggregate_rate_matches_the_configured_total() {
        let c = cfg();
        let d = mins(10);
        let rate = c.generate_stream(d, 9).len() as f64 / d.as_secs_f64();
        assert!(
            (rate / c.total_rate - 1.0).abs() < 0.15,
            "empirical rate {rate} should be near {}",
            c.total_rate
        );
    }

    #[test]
    fn rank_one_share_follows_the_tail() {
        let c = cfg();
        let d = mins(10);
        let apps = c.build_apps(4);
        let s = c.generate_stream(d, 4);
        // rank 0's chain is shared with every even rank, so count via rate:
        // compare the top app's expected share against the arrivals that the
        // whole even-rank cohort produced, bounded by its own share
        let expected = c.zipf_share(0);
        let top_cohort: f64 = s.app_fraction(apps[0].application);
        assert!(
            top_cohort >= expected * 0.7,
            "rank-0 cohort share {top_cohort} must cover most of the top \
             app's expected {expected}"
        );
    }

    #[test]
    fn trigger_counts_cover_the_stream() {
        let c = cfg();
        let (s, counts) = c.generate_labeled(mins(5), 8);
        assert_eq!(counts.iter().sum::<u64>(), s.len() as u64);
        assert!(counts[0] > 0, "the HTTP majority class must appear");
    }

    #[test]
    fn trigger_mix_parse_round_trips() {
        assert_eq!(
            TriggerMix::parse("55,20,15,10").unwrap(),
            TriggerMix::paper_default()
        );
        assert_eq!(
            TriggerMix::parse(" 40, 30, 20, 10 ").unwrap(),
            TriggerMix::new(40, 30, 20, 10)
        );
        assert!(TriggerMix::parse("55,20,15").is_err());
        assert!(TriggerMix::parse("55,20,15,11").is_err());
        assert!(TriggerMix::parse("a,b,c,d").is_err());
    }

    #[test]
    fn extreme_trigger_mixes_are_honored() {
        let mut c = cfg();
        c.trigger_mix = TriggerMix::new(0, 100, 0, 0);
        for app in c.build_apps(1) {
            assert_eq!(app.trigger, TriggerClass::Timer);
        }
        let (_, counts) = c.generate_labeled(mins(1), 1);
        assert_eq!(counts[0] + counts[2] + counts[3], 0);
        assert!(counts[1] > 0);
    }

    #[test]
    fn timer_apps_fire_near_their_period() {
        let mut c = cfg();
        c.apps = 1;
        c.trigger_mix = TriggerMix::new(0, 100, 0, 0);
        c.total_rate = 0.5; // one firing every 2 s
        let s = c.generate_stream(mins(5), 2);
        let n = s.len() as f64;
        assert!(
            (n / 150.0 - 1.0).abs() < 0.1,
            "~150 timer firings over 300 s (got {n})"
        );
        // gaps concentrate near the 2 s period
        let mut near = 0;
        let arrivals: Vec<SimTime> = s.iter().map(|j| j.arrival).collect();
        for w in arrivals.windows(2) {
            let gap = w[1].saturating_since(w[0]).as_secs_f64();
            if (gap - 2.0).abs() < 0.5 {
                near += 1;
            }
        }
        assert!(
            near as f64 / n > 0.9,
            "timer gaps cluster at the period ({near}/{n})"
        );
    }

    /// The generator as the stable sort of every arrival by
    /// `(arrival, rank)` it replaces, collected into a `Vec`: the merge's
    /// oracle.
    fn generate_by_sort(
        c: &AzureWorkloadConfig,
        duration: SimDuration,
        seed: u64,
    ) -> (Vec<JobRequest>, [u64; 4]) {
        let apps = c.build_apps(seed);
        let (runs, per_trigger) = app_runs(&apps, duration, seed);
        let mut tagged: Vec<(SimTime, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(rank, run)| run.iter().map(move |&t| (t, rank)))
            .collect();
        tagged.sort_by_key(|&(t, rank)| (t, rank));
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(2));
        let jobs = tagged
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, rank))| JobRequest {
                id: i as u64,
                app: apps[rank].application,
                arrival,
                input_scale: rng.gen_range(0.9..1.1),
            })
            .collect();
        (jobs, per_trigger)
    }

    #[test]
    fn merge_matches_the_stable_sort_bit_for_bit() {
        let bits = |j: &JobRequest| (j.id, j.app, j.arrival.as_micros(), j.input_scale.to_bits());
        let mut silent_apps = 0;
        for apps in [1, 2, 400, 5000] {
            // the paper's split; queue bursts that straddle the next
            // burst's start; timers alone
            for trigger_mix in [
                TriggerMix::paper_default(),
                TriggerMix::new(0, 0, 100, 0),
                TriggerMix::new(0, 100, 0, 0),
            ] {
                for seed in [1, 42, 12345] {
                    let c = AzureWorkloadConfig {
                        apps,
                        total_rate: 150.0,
                        trigger_mix,
                        mix: WorkloadMix::Heavy,
                        ..cfg()
                    };
                    let d = mins(2);
                    let (stream, counts) = c.generate_labeled(d, seed);
                    let (oracle, oracle_counts) = generate_by_sort(&c, d, seed);
                    let at = format!("{apps} apps, {trigger_mix:?}, seed {seed}");
                    assert_eq!(counts, oracle_counts, "{at}");
                    assert_eq!(counts.iter().sum::<u64>(), stream.len() as u64, "{at}");
                    assert_eq!(stream.len(), oracle.len(), "{at}");
                    assert!(!oracle.is_empty(), "{at}");
                    assert!(
                        stream.iter().map(|j| bits(&j)).eq(oracle.iter().map(bits)),
                        "{at}"
                    );
                    let (runs, _) = app_runs(&c.build_apps(seed), d, seed);
                    silent_apps += runs.iter().filter(|r| r.is_empty()).count();
                }
            }
        }
        assert!(silent_apps > 0, "some apps draw no arrival at all");
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn unbalanced_trigger_mix_rejected() {
        let _ = TriggerMix::new(50, 20, 15, 10);
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn zero_apps_rejected() {
        let mut c = cfg();
        c.apps = 0;
        let _ = c.build_apps(1);
    }
}
