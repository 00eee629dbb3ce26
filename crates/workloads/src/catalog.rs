//! Microservice catalog (paper Table 3) and execution-time model (§2.2.2).
//!
//! Each microservice is an ML inference function from the Djinn&Tonic suite.
//! The paper profiles their mean execution times offline (Table 3), finds a
//! linear relationship between execution time and input size, and measures
//! the standard deviation across 100 consecutive runs to be within 20 ms
//! (Figure 3b). [`MicroserviceSpec::sample_exec_time`] encodes exactly that
//! model: `mean * input_scale` plus bounded Gaussian jitter.
//!
//! Container-image sizes drive cold-start latency (2–9 s, §6.1.5); they are
//! calibrated so the heaviest model images (VGG-class) land near the top of
//! the paper's reported range.

use fifer_metrics::SimDuration;
use rand::Rng;
use std::fmt;

/// One microservice (serverless function) from the Djinn&Tonic suite.
///
/// `Nlp` is the parts-of-speech + named-entity stage used by the IMG and IPA
/// chains; the paper lists POS and NER separately in Table 3 and plots the
/// composite `NLP` stage in Figure 3b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Microservice {
    /// Automatic speech recognition (NNet3/Kaldi).
    Asr,
    /// Image classification (AlexNet).
    Imc,
    /// Human segmentation (VGG16).
    Hs,
    /// Human activity pose estimation (DeepPose).
    Ap,
    /// Face detection (Xception).
    Faced,
    /// Facial recognition (VGGNET).
    Facer,
    /// Parts-of-speech tagging (SENNA).
    Pos,
    /// Named-entity recognition (SENNA).
    Ner,
    /// Composite NLP stage (POS + NER), as used in the IMG/IPA chains.
    Nlp,
    /// Question answering (seq2seq).
    Qa,
}

impl Microservice {
    /// Every microservice, in Table 3 order (composite `Nlp` last-but-one).
    pub const ALL: [Microservice; 10] = [
        Microservice::Imc,
        Microservice::Ap,
        Microservice::Hs,
        Microservice::Facer,
        Microservice::Faced,
        Microservice::Asr,
        Microservice::Pos,
        Microservice::Ner,
        Microservice::Nlp,
        Microservice::Qa,
    ];

    /// The eight microservices characterized in Figure 3b.
    pub const CHARACTERIZED: [Microservice; 8] = [
        Microservice::Asr,
        Microservice::Imc,
        Microservice::Hs,
        Microservice::Ap,
        Microservice::Faced,
        Microservice::Facer,
        Microservice::Nlp,
        Microservice::Qa,
    ];

    /// Full static specification for this microservice.
    pub fn spec(self) -> MicroserviceSpec {
        use Microservice::*;
        // (mean exec ms from Table 3, ML model, domain, image size MB)
        let (mean_ms, model, domain, image_mb) = match self {
            Imc => (43.5, "Alexnet", Domain::Image, 480.0),
            Ap => (30.3, "DeepPose", Domain::Image, 450.0),
            Hs => (151.2, "VGG16", Domain::Image, 900.0),
            Facer => (5.5, "VGGNET", Domain::Image, 850.0),
            Faced => (6.1, "Xception", Domain::Image, 520.0),
            Asr => (46.1, "NNet3", Domain::Speech, 650.0),
            Pos => (0.100, "SENNA", Domain::Nlp, 220.0),
            Ner => (0.09, "SENNA", Domain::Nlp, 220.0),
            Nlp => (0.19, "SENNA", Domain::Nlp, 220.0),
            Qa => (56.1, "seq2seq", Domain::Nlp, 560.0),
        };
        MicroserviceSpec {
            service: self,
            mean_exec_ms: mean_ms,
            model_name: model,
            domain,
            image_size_mb: image_mb,
        }
    }

    /// Mean execution time at the reference input size (Table 3).
    pub fn mean_exec_time(self) -> SimDuration {
        SimDuration::from_millis_f64(self.spec().mean_exec_ms)
    }
}

impl fmt::Display for Microservice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Microservice::Asr => "ASR",
            Microservice::Imc => "IMC",
            Microservice::Hs => "HS",
            Microservice::Ap => "AP",
            Microservice::Faced => "FACED",
            Microservice::Facer => "FACER",
            Microservice::Pos => "POS",
            Microservice::Ner => "NER",
            Microservice::Nlp => "NLP",
            Microservice::Qa => "QA",
        };
        f.write_str(name)
    }
}

/// Application domain of a microservice (Table 3 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Image services.
    Image,
    /// Speech services.
    Speech,
    /// Natural-language processing.
    Nlp,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Image => f.write_str("Images"),
            Domain::Speech => f.write_str("Speech"),
            Domain::Nlp => f.write_str("NLP"),
        }
    }
}

/// Static profile of one microservice: the offline-profiled quantities Fifer
/// stores in its database (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroserviceSpec {
    /// Which microservice this describes.
    pub service: Microservice,
    /// Mean execution time in ms at the reference input size (Table 3).
    pub mean_exec_ms: f64,
    /// Underlying ML model name (Table 3).
    pub model_name: &'static str,
    /// Domain grouping (Table 3).
    pub domain: Domain,
    /// Container image size in MB; drives cold-start latency.
    pub image_size_mb: f64,
}

impl MicroserviceSpec {
    /// Jitter standard deviation: 5% of the mean, capped at the 20 ms bound
    /// the paper measures in Figure 3b.
    pub fn jitter_std_ms(&self) -> f64 {
        (self.mean_exec_ms * 0.05).min(20.0)
    }

    /// Mean execution time scaled linearly by `input_scale` (§2.2.2 finds a
    /// linear relationship between execution time and input size; scale 1.0
    /// is the reference input).
    ///
    /// # Panics
    ///
    /// Panics if `input_scale` is not positive and finite.
    pub fn mean_exec_time_for(&self, input_scale: f64) -> SimDuration {
        assert!(
            input_scale.is_finite() && input_scale > 0.0,
            "input_scale must be positive"
        );
        SimDuration::from_millis_f64(self.mean_exec_ms * input_scale)
    }

    /// Samples one execution time: linear input scaling plus bounded
    /// Gaussian jitter, floored at 10 µs so execution always takes time.
    pub fn sample_exec_time<R: Rng + ?Sized>(&self, input_scale: f64, rng: &mut R) -> SimDuration {
        let mean = self.mean_exec_time_for(input_scale).as_millis_f64();
        SimDuration::from_millis_f64(jittered(rng, mean, self.jitter_std_ms(), 0.01))
    }

    /// Cold-start latency for the *first* container of this microservice
    /// on a node: base container spawn + runtime init + full image pull at
    /// `pull_mbps` MB/s. With the default 150 MB/s this spans ≈2 s (SENNA)
    /// to ≈9 s (VGG16), matching §6.1.5 ("about 2s to 9s depending on the
    /// size of the container image").
    pub fn cold_start_time(&self, pull_mbps: f64) -> SimDuration {
        self.warm_node_cold_start() + self.image_pull_time(pull_mbps)
    }

    /// Cold-start latency once the image is already cached on the node
    /// (Docker layer cache): pod creation + runtime/framework init only.
    pub fn warm_node_cold_start(&self) -> SimDuration {
        let spawn_ms = 800.0; // pod creation + cgroup setup
        let runtime_init_ms = 700.0; // language runtime + framework load
        SimDuration::from_millis_f64(spawn_ms + runtime_init_ms)
    }

    /// Time to pull this microservice's container image at `pull_mbps`.
    ///
    /// # Panics
    ///
    /// Panics if `pull_mbps` is not positive.
    pub fn image_pull_time(&self, pull_mbps: f64) -> SimDuration {
        assert!(pull_mbps > 0.0, "pull bandwidth must be positive");
        SimDuration::from_millis_f64(self.image_size_mb / pull_mbps * 1000.0)
    }
}

/// Standard normal via Box–Muller, driven by the caller's seeded RNG.
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `mean + N(0, std)`, floored at `floor` — shared by the
/// execution-time model above and the Azure family's timer-trigger
/// jitter ([`crate::azure`]).
pub(crate) fn jittered<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64, floor: f64) -> f64 {
    (mean + gaussian(rng) * std).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table3_means_match_paper() {
        assert_eq!(Microservice::Imc.spec().mean_exec_ms, 43.5);
        assert_eq!(Microservice::Ap.spec().mean_exec_ms, 30.3);
        assert_eq!(Microservice::Hs.spec().mean_exec_ms, 151.2);
        assert_eq!(Microservice::Facer.spec().mean_exec_ms, 5.5);
        assert_eq!(Microservice::Faced.spec().mean_exec_ms, 6.1);
        assert_eq!(Microservice::Asr.spec().mean_exec_ms, 46.1);
        assert_eq!(Microservice::Pos.spec().mean_exec_ms, 0.100);
        assert_eq!(Microservice::Ner.spec().mean_exec_ms, 0.09);
        assert_eq!(Microservice::Qa.spec().mean_exec_ms, 56.1);
    }

    #[test]
    fn nlp_is_pos_plus_ner() {
        let nlp = Microservice::Nlp.spec().mean_exec_ms;
        let pos = Microservice::Pos.spec().mean_exec_ms;
        let ner = Microservice::Ner.spec().mean_exec_ms;
        assert!((nlp - (pos + ner)).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_bounded_by_paper_20ms() {
        for ms in Microservice::ALL {
            assert!(ms.spec().jitter_std_ms() <= 20.0);
        }
        // HS is the longest service; 5% of 151.2 is under the cap
        assert!((Microservice::Hs.spec().jitter_std_ms() - 7.56).abs() < 1e-9);
    }

    #[test]
    fn exec_time_scales_linearly_with_input() {
        let spec = Microservice::Imc.spec();
        let t1 = spec.mean_exec_time_for(1.0).as_millis_f64();
        let t4 = spec.mean_exec_time_for(4.0).as_millis_f64();
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_input_scale_rejected() {
        let _ = Microservice::Imc.spec().mean_exec_time_for(0.0);
    }

    #[test]
    fn sampled_exec_time_is_positive_and_near_mean() {
        let spec = Microservice::Asr.spec();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1000;
        let mut sum = 0.0;
        for _ in 0..n {
            let t = spec.sample_exec_time(1.0, &mut rng).as_millis_f64();
            assert!(t > 0.0);
            sum += t;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - spec.mean_exec_ms).abs() < 0.5,
            "sampled mean {mean} should be near {}",
            spec.mean_exec_ms
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let spec = Microservice::Qa.spec();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            assert_eq!(
                spec.sample_exec_time(1.0, &mut a),
                spec.sample_exec_time(1.0, &mut b)
            );
        }
    }

    #[test]
    fn cold_starts_span_paper_range() {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0_f64;
        for ms in Microservice::ALL {
            let cs = ms.spec().cold_start_time(150.0).as_secs_f64();
            lo = lo.min(cs);
            hi = hi.max(cs);
        }
        assert!(lo >= 2.0, "fastest cold start {lo}s should be >= 2s");
        assert!(hi <= 9.0, "slowest cold start {hi}s should be <= 9s");
        assert!(
            hi > 6.0,
            "largest image should be near the top of the range"
        );
    }

    #[test]
    fn biggest_image_has_longest_cold_start() {
        let hs = Microservice::Hs.spec().cold_start_time(150.0);
        let nlp = Microservice::Nlp.spec().cold_start_time(150.0);
        assert!(hs > nlp);
    }

    #[test]
    fn display_names_are_paper_acronyms() {
        assert_eq!(Microservice::Asr.to_string(), "ASR");
        assert_eq!(Microservice::Faced.to_string(), "FACED");
        assert_eq!(Domain::Speech.to_string(), "Speech");
    }

    #[test]
    fn gaussian_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let g = gaussian(&mut rng);
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "gaussian mean {mean} should be ~0");
        assert!((var - 1.0).abs() < 0.05, "gaussian var {var} should be ~1");
    }
}
