//! Request-arrival trace generators (paper §5.3, Figure 7).
//!
//! The paper drives its evaluation with three arrival patterns: a synthetic
//! Poisson trace (λ = 50 req/s), the Wikipedia access trace (diurnal,
//! average ≈ 1500 req/s), and the WITS packet trace (bursty, average ≈ 300
//! req/s with 1200 req/s peaks and a 5× peak-to-median ratio). The real
//! traces are external downloads, so per the substitution rule we generate
//! synthetic traces matching the rate envelopes the paper reports; every
//! policy consumes only arrival times, so the envelope is what matters.
//!
//! Generators implement [`TraceGenerator`]: a deterministic rate envelope
//! `rate(t)` plus non-homogeneous Poisson sampling of arrival instants via
//! thinning. All sampling is seeded and reproducible.

use fifer_metrics::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One exponentially distributed inter-arrival gap (seconds) at `rate`
/// req/s — the primitive under both the Lewis–Shedler thinning loop here
/// and the per-app Poisson processes of the Azure family ([`crate::azure`]).
pub(crate) fn exp_gap<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// A request-arrival trace generator.
///
/// Implementors define a deterministic rate envelope; [`Self::generate`]
/// samples concrete arrival instants from a non-homogeneous Poisson process
/// with that envelope.
pub trait TraceGenerator {
    /// Instantaneous arrival rate in requests/second at time `t`.
    fn rate_at(&self, t: SimTime) -> f64;

    /// An upper bound on [`Self::rate_at`] over all `t` (for thinning).
    fn peak_rate(&self) -> f64;

    /// Human-readable trace name for reports.
    fn name(&self) -> &str;

    /// Samples arrival instants over `[0, duration)` using Lewis–Shedler
    /// thinning; deterministic for a given `seed`.
    fn generate(&self, duration: SimDuration, seed: u64) -> Vec<SimTime> {
        let peak = self.peak_rate();
        assert!(peak > 0.0, "peak rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals = Vec::new();
        let mut t = 0.0_f64; // seconds
        let end = duration.as_secs_f64();
        loop {
            // exponential inter-arrival at the bounding (peak) rate
            t += exp_gap(&mut rng, peak);
            if t >= end {
                break;
            }
            let instant = SimTime::from_secs_f64(t);
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept < self.rate_at(instant) / peak {
                arrivals.push(instant);
            }
        }
        arrivals
    }

    /// Per-second arrival counts over `[0, duration)` for a given seed —
    /// the series plotted in Figure 7.
    fn rate_series(&self, duration: SimDuration, seed: u64) -> Vec<f64> {
        let arrivals = self.generate(duration, seed);
        let secs = duration.as_secs_f64().ceil() as usize;
        let mut counts = vec![0.0; secs];
        for a in arrivals {
            let idx = (a.as_secs_f64() as usize).min(secs.saturating_sub(1));
            counts[idx] += 1.0;
        }
        counts
    }
}

/// Homogeneous Poisson arrivals: the paper's synthetic trace (λ = 50 req/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonTrace {
    lambda: f64,
}

impl PoissonTrace {
    /// Creates a Poisson trace with mean arrival rate `lambda` req/s.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        PoissonTrace { lambda }
    }

    /// The paper's default synthetic trace: λ = 50 req/s (§5.3).
    pub fn paper_default() -> Self {
        PoissonTrace::new(50.0)
    }

    /// The configured mean rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl TraceGenerator for PoissonTrace {
    fn rate_at(&self, _t: SimTime) -> f64 {
        self.lambda
    }
    fn peak_rate(&self) -> f64 {
        self.lambda
    }
    fn name(&self) -> &str {
        "poisson"
    }
}

/// Wikipedia-like trace: strong diurnal sinusoid with mild noise and a high
/// average rate (Figure 7b: recurring hour-of-day / day-of-week patterns,
/// average ≈ 1500 req/s at full scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WikiLikeTrace {
    avg_rate: f64,
    /// Diurnal period; compressed from 24 h so short simulations still see
    /// full cycles.
    period: SimDuration,
    /// Relative amplitude of the diurnal swing in `[0, 1)`.
    amplitude: f64,
    /// Relative amplitude of the faster secondary ripple.
    ripple: f64,
}

impl WikiLikeTrace {
    /// Full-scale trace (average 1500 req/s) with a 1-hour compressed
    /// diurnal period.
    pub fn paper_scale() -> Self {
        WikiLikeTrace {
            avg_rate: 1500.0,
            period: SimDuration::from_secs(3600),
            amplitude: 0.55,
            ripple: 0.1,
        }
    }

    /// Scales the average rate by `factor` (for prototype-sized clusters).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        let mut t = Self::paper_scale();
        t.avg_rate *= factor;
        t
    }

    /// Configured average rate.
    pub fn avg_rate(&self) -> f64 {
        self.avg_rate
    }
}

impl TraceGenerator for WikiLikeTrace {
    fn rate_at(&self, t: SimTime) -> f64 {
        let phase = t.as_secs_f64() / self.period.as_secs_f64() * std::f64::consts::TAU;
        let diurnal = 1.0 + self.amplitude * phase.sin();
        let fast = 1.0 + self.ripple * (phase * 7.3).sin();
        (self.avg_rate * diurnal * fast).max(0.0)
    }

    fn peak_rate(&self) -> f64 {
        self.avg_rate * (1.0 + self.amplitude) * (1.0 + self.ripple)
    }

    fn name(&self) -> &str {
        "wiki"
    }
}

/// WITS-like trace: moderate base load with large, unpredictable spikes
/// (Figure 7a: average ≈ 300 req/s, peaks ≈ 1200 req/s, peak 5× median).
///
/// Spike times/heights are derived deterministically from a structure seed,
/// so the envelope itself is reproducible independent of the sampling seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WitsLikeTrace {
    base_rate: f64,
    peak_rate: f64,
    /// In ascending `center_s` order, so [`TraceGenerator::rate_at`] can
    /// binary-search the spikes within `reach_s` of an instant.
    spikes: Vec<Spike>,
    /// The largest [`Spike::reach_s`]: no spike centred farther than this
    /// from an instant can change the rate there.
    reach_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Spike {
    center_s: f64,
    width_s: f64,
    height: f64, // multiple of base rate added at the peak
    /// `width_s · sqrt(ln(max(height, 1)) + 40)`: beyond it the spike adds
    /// at most `e^-40` (see [`WitsLikeTrace::rate_at_secs`]).
    reach_s: f64,
}

impl Spike {
    /// The spike's term of the envelope, `height · exp(-((ts - center) / width)²)`.
    fn extra_at(&self, ts: f64) -> f64 {
        let d = (ts - self.center_s) / self.width_s;
        self.height * (-d * d).exp()
    }
}

impl WitsLikeTrace {
    /// Full-scale trace over `horizon`: base 240 req/s (the paper's median)
    /// rising to ≈1200 req/s at spikes.
    pub fn paper_scale(horizon: SimDuration, structure_seed: u64) -> Self {
        Self::with_rates(240.0, 1200.0, horizon, structure_seed)
    }

    /// Scaled variant preserving the 5× peak-to-median ratio.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(factor: f64, horizon: SimDuration, structure_seed: u64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "factor must be positive"
        );
        Self::with_rates(240.0 * factor, 1200.0 * factor, horizon, structure_seed)
    }

    /// Fully custom rates.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < base_rate <= peak_rate`.
    pub fn with_rates(
        base_rate: f64,
        peak_rate: f64,
        horizon: SimDuration,
        structure_seed: u64,
    ) -> Self {
        assert!(
            base_rate > 0.0 && peak_rate >= base_rate,
            "need 0 < base <= peak"
        );
        let mut rng = StdRng::seed_from_u64(structure_seed);
        let horizon_s = horizon.as_secs_f64();
        // one spike every ~3 minutes of trace on average
        let n_spikes = ((horizon_s / 180.0).ceil() as usize).max(1);
        let max_extra = peak_rate / base_rate - 1.0;
        let mut spikes: Vec<Spike> = (0..n_spikes)
            .map(|_| {
                let center_s = rng.gen_range(0.0..horizon_s);
                let width_s = rng.gen_range(10.0..40.0);
                let height = rng.gen_range(0.5..1.0) * max_extra;
                let reach_s = width_s * (height.max(1.0).ln() + 40.0).sqrt();
                Spike {
                    center_s,
                    width_s,
                    height,
                    reach_s,
                }
            })
            .collect();
        spikes.sort_by(|a, b| a.center_s.total_cmp(&b.center_s));
        let reach_s = spikes.iter().map(|s| s.reach_s).fold(0.0, f64::max);
        WitsLikeTrace {
            base_rate,
            peak_rate,
            spikes,
            reach_s,
        }
    }

    /// Configured base (median) rate.
    pub fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// [`TraceGenerator::rate_at`] at `t = ts` seconds: `base · (1 + max_i extra_i(t))`,
    /// capped at the peak rate.
    ///
    /// Evaluates only the spikes whose own reach covers `t`. A binary
    /// search over the sorted centres limits the candidates to those within
    /// the widest reach, so a thinning candidate costs
    /// O(log spikes + spikes in reach) instead of one `exp` per spike of
    /// the horizon. The result is bit-identical to the scan over every
    /// spike:
    /// - a skipped spike lies more than `width · sqrt(ln(max(h, 1)) + 40)`
    ///   from `t`, so it adds `h · exp(-d²) ≤ e^-40 ≈ 4.2e-18 < 2^-54`;
    /// - it could change `extra` only as the maximum, and then every term,
    ///   the maximum included, is below 2^-54, so `1.0 + extra` rounds to
    ///   exactly `1.0` with or without it;
    /// - `max` over non-negative terms does not depend on their order.
    fn rate_at_secs(&self, ts: f64) -> f64 {
        let first = self
            .spikes
            .partition_point(|s| s.center_s < ts - self.reach_s);
        let mut extra = 0.0_f64;
        for s in self.spikes[first..]
            .iter()
            .take_while(|s| s.center_s <= ts + self.reach_s)
        {
            if (ts - s.center_s).abs() <= s.reach_s {
                extra = extra.max(s.extra_at(ts));
            }
        }
        (self.base_rate * (1.0 + extra)).min(self.peak_rate)
    }
}

impl TraceGenerator for WitsLikeTrace {
    fn rate_at(&self, t: SimTime) -> f64 {
        self.rate_at_secs(t.as_secs_f64())
    }

    fn peak_rate(&self) -> f64 {
        self.peak_rate
    }

    fn name(&self) -> &str {
        "wits"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_secs(m * 60)
    }

    #[test]
    fn poisson_mean_rate_converges() {
        let tr = PoissonTrace::new(50.0);
        let arrivals = tr.generate(mins(10), 1);
        let rate = arrivals.len() as f64 / 600.0;
        assert!(
            (rate - 50.0).abs() < 2.0,
            "empirical rate {rate} should be ~50"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let tr = PoissonTrace::paper_default();
        assert_eq!(tr.generate(mins(1), 7), tr.generate(mins(1), 7));
        assert_ne!(tr.generate(mins(1), 7), tr.generate(mins(1), 8));
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let tr = WikiLikeTrace::scaled(0.1);
        let d = mins(5);
        let arrivals = tr.generate(d, 3);
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1], "arrivals must be sorted");
        }
        assert!(*arrivals.last().unwrap() < SimTime::ZERO + d);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_lambda() {
        let _ = PoissonTrace::new(0.0);
    }

    #[test]
    fn wiki_rate_oscillates_around_average() {
        let tr = WikiLikeTrace::paper_scale();
        let period = SimDuration::from_secs(3600);
        let mut sum = 0.0;
        let n = 720;
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for i in 0..n {
            let t = SimTime::ZERO + period.mul_f64(i as f64 / n as f64);
            let r = tr.rate_at(t);
            sum += r;
            lo = lo.min(r);
            hi = hi.max(r);
        }
        let mean = sum / n as f64;
        assert!((mean / 1500.0 - 1.0).abs() < 0.05, "mean {mean} ~ 1500");
        assert!(hi / lo > 2.0, "diurnal swing should be pronounced");
        assert!(hi <= tr.peak_rate() + 1e-9);
    }

    #[test]
    fn wits_peaks_hit_cap_and_respect_ratio() {
        let horizon = mins(60);
        let tr = WitsLikeTrace::paper_scale(horizon, 11);
        let mut hi = 0.0_f64;
        for s in 0..3600 {
            hi = hi.max(tr.rate_at(SimTime::from_secs(s)));
        }
        assert!(hi <= 1200.0 + 1e-9, "rate must respect the peak cap");
        assert!(hi > 600.0, "spikes should push well above base (got {hi})");
        assert!(
            hi / tr.base_rate() > 2.5,
            "peak-to-base ratio should be large"
        );
    }

    #[test]
    fn wits_structure_is_seeded() {
        let h = mins(30);
        let a = WitsLikeTrace::paper_scale(h, 5);
        let b = WitsLikeTrace::paper_scale(h, 5);
        let c = WitsLikeTrace::paper_scale(h, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wits_average_is_far_below_wiki() {
        // the paper: wiki avg 1500 req/s is 5x higher than wits avg 300
        let h = mins(20);
        let wits = WitsLikeTrace::paper_scale(h, 2);
        let wiki = WikiLikeTrace::paper_scale();
        let nw = wits.generate(h, 9).len() as f64;
        let nk = wiki.generate(h, 9).len() as f64;
        assert!(nk / nw > 3.0, "wiki should carry several x more requests");
    }

    #[test]
    fn rate_series_counts_all_arrivals() {
        let tr = PoissonTrace::new(20.0);
        let d = mins(2);
        let total_series: f64 = tr.rate_series(d, 4).iter().sum();
        let total_arrivals = tr.generate(d, 4).len() as f64;
        assert_eq!(total_series, total_arrivals);
    }

    #[test]
    fn scaled_wiki_preserves_shape() {
        let full = WikiLikeTrace::paper_scale();
        let tenth = WikiLikeTrace::scaled(0.1);
        let t = SimTime::from_secs(1234);
        assert!((full.rate_at(t) / tenth.rate_at(t) - 10.0).abs() < 1e-9);
    }

    impl WitsLikeTrace {
        /// The envelope as a scan over every spike: the oracle the pruned
        /// [`WitsLikeTrace::rate_at_secs`] must match bit for bit.
        fn rate_at_secs_full_scan(&self, ts: f64) -> f64 {
            let extra = self
                .spikes
                .iter()
                .map(|s| s.extra_at(ts))
                .fold(0.0, f64::max);
            (self.base_rate * (1.0 + extra)).min(self.peak_rate)
        }
    }

    /// Checks the pruned envelope against the full scan on a grid over the
    /// horizon and, for up to 32 spikes spread over it, at the centre and
    /// at each edge of the spike's own reach and of the trace's reach, each
    /// also one ulp either side.
    fn assert_pruned_envelope_is_exact(tr: &WitsLikeTrace, horizon_s: f64, what: &str) {
        let mut probes: Vec<f64> = (0..=200).map(|i| horizon_s * i as f64 / 200.0).collect();
        let stride = tr.spikes.len().div_ceil(32);
        for s in tr.spikes.iter().step_by(stride) {
            probes.push(s.center_s);
            for edge in [
                s.center_s - s.reach_s,
                s.center_s + s.reach_s,
                s.center_s - tr.reach_s,
                s.center_s + tr.reach_s,
            ] {
                probes.extend([edge.next_down(), edge, edge.next_up()]);
            }
        }
        for ts in probes {
            assert_eq!(
                tr.rate_at_secs(ts).to_bits(),
                tr.rate_at_secs_full_scan(ts).to_bits(),
                "{what}: t = {ts:e} s"
            );
        }
        // and through `rate_at`, at instants off the whole seconds
        for sec in (0..horizon_s as u64).step_by(((horizon_s / 199.0) as usize).max(1)) {
            let t = SimTime::from_secs(sec) + SimDuration::from_micros(sec % 1_000_000);
            assert_eq!(
                tr.rate_at(t).to_bits(),
                tr.rate_at_secs_full_scan(t.as_secs_f64()).to_bits(),
                "{what}: t = {t:?}"
            );
        }
    }

    #[test]
    fn pruned_wits_envelope_matches_the_full_scan() {
        for seed in [1, 42, 12345] {
            for horizon_s in [60, 7200, 86_400, 2_592_000] {
                for factor in [0.01, 0.25, 10.0] {
                    let tr = WitsLikeTrace::scaled(factor, SimDuration::from_secs(horizon_s), seed);
                    assert!(tr.spikes.windows(2).all(|w| w[0].center_s <= w[1].center_s));
                    let what = format!("seed {seed}, {horizon_s} s, factor {factor}");
                    assert_pruned_envelope_is_exact(&tr, horizon_s as f64, &what);
                }
            }
        }
    }

    #[test]
    fn pruned_wits_envelope_matches_the_full_scan_at_any_peak_ratio() {
        // ratio 1 has zero-height spikes; 10^6 stretches the reach to
        // width · sqrt(ln(10^6) + 40)
        for ratio in [1.0, 5.0, 1e3, 1e6] {
            for seed in [3, 11] {
                let horizon = SimDuration::from_secs(86_400);
                let tr = WitsLikeTrace::with_rates(2.0, 2.0 * ratio, horizon, seed);
                let what = format!("ratio {ratio}, seed {seed}");
                assert_pruned_envelope_is_exact(&tr, 86_400.0, &what);
            }
        }
    }
}
