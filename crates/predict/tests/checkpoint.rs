//! Checkpoint round-trip suite (DESIGN.md §15): every neural model and
//! the scaler survive a serialize → restore cycle with bit-identical
//! forecasts, and every form of damage — a flipped byte, a truncated
//! file, a version bump, a wrong-model payload — fails loud instead of
//! half-loading.

use fifer_predict::checkpoint::{CheckpointError, ModelCache, MAGIC, VERSION};
use fifer_predict::train::TrainConfig;
use fifer_predict::{
    DeepArPredictor, LoadPredictor, LstmPredictor, SimpleFfPredictor, WeaveNetPredictor,
};

/// A small diurnal-ish series: enough signal to train on, short enough
/// to keep the suite in tier 1.
fn series() -> Vec<f64> {
    (0..96)
        .map(|i| 40.0 + 30.0 * (i as f64 / 12.0).sin() + (i % 5) as f64)
        .collect()
}

/// A trained model, its untrained identically-constructed twin, and the
/// model's name — one entry per neural predictor.
type ModelPair = (
    &'static str,
    Box<dyn LoadPredictor + Send>,
    Box<dyn LoadPredictor + Send>,
);

/// One trained instance of every neural model, paired with an untrained
/// twin constructed identically (same config, same seed).
fn trained_pairs() -> Vec<ModelPair> {
    let cfg = TrainConfig::fast();
    let s = series();
    let mut out: Vec<ModelPair> = vec![
        (
            "feedforward",
            Box::new(SimpleFfPredictor::new(cfg, 12, 7)),
            Box::new(SimpleFfPredictor::new(cfg, 12, 7)),
        ),
        (
            "weavenet",
            Box::new(WeaveNetPredictor::new(cfg, 8, 7)),
            Box::new(WeaveNetPredictor::new(cfg, 8, 7)),
        ),
        (
            "deepar",
            Box::new(DeepArPredictor::new(cfg, 12, 7)),
            Box::new(DeepArPredictor::new(cfg, 12, 7)),
        ),
        (
            "lstm",
            Box::new(LstmPredictor::new(cfg, 12, 7, 2)),
            Box::new(LstmPredictor::new(cfg, 12, 7, 2)),
        ),
    ];
    for (_, model, _) in &mut out {
        model.pretrain(&s);
    }
    out
}

/// Walks donor and restored twin in lockstep over unseen data and
/// asserts every forecast is the same IEEE-754 bit pattern.
fn assert_lockstep_identical(
    name: &str,
    a: &mut (dyn LoadPredictor + Send),
    b: &mut (dyn LoadPredictor + Send),
) {
    for i in 0..64 {
        let v = 55.0 + 25.0 * (i as f64 / 9.0).cos();
        a.observe(v);
        b.observe(v);
        let (fa, fb) = (a.forecast(), b.forecast());
        assert_eq!(
            fa.to_bits(),
            fb.to_bits(),
            "{name}: forecast diverged at step {i}: {fa} vs {fb}"
        );
    }
}

#[test]
fn round_trip_is_bit_identical_for_every_model() {
    for (name, mut model, mut twin) in trained_pairs() {
        let bytes = model
            .checkpoint()
            .unwrap_or_else(|| panic!("{name} must support checkpointing"));
        twin.restore(&bytes)
            .unwrap_or_else(|e| panic!("{name} round trip failed: {e}"));
        assert_lockstep_identical(name, &mut *model, &mut *twin);
    }
}

/// Format version 3 stores every weight and Adam moment as the 4 bytes of
/// an `f32`: a checkpoint is parameters × (weight, first and second
/// moment) × 4 bytes, plus a few hundred bytes of header, config, scaler
/// and length prefixes. An `f64` payload would be twice as large.
#[test]
fn weights_and_moments_take_four_bytes_each() {
    let hidden = 12;
    let cell = |input: usize| 4 * hidden * (input + hidden + 1);
    let params = cell(1) + cell(hidden) + hidden + 1;
    let bytes = LstmPredictor::new(TrainConfig::fast(), hidden, 7, 2)
        .checkpoint()
        .expect("checkpointable");
    let payload = 3 * params * 4;
    assert!(
        (payload..payload + 512).contains(&bytes.len()),
        "{} bytes for {params} parameters",
        bytes.len()
    );
}

#[test]
fn every_flipped_byte_is_rejected() {
    // flip ONE byte at a time across the whole buffer: header bytes hit
    // the magic/version checks, payload and trailer bytes the checksum
    for (name, model, _) in trained_pairs() {
        let bytes = model.checkpoint().expect("checkpointable");
        for pos in [0, 9, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x01;
            let mut twin = fresh(name);
            assert!(
                twin.restore(&damaged).is_err(),
                "{name}: flipped byte at {pos} of {} was accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn truncation_is_rejected_at_any_length() {
    for (name, model, _) in trained_pairs() {
        let bytes = model.checkpoint().expect("checkpointable");
        for len in [0, 4, MAGIC.len(), 13, bytes.len() / 2, bytes.len() - 1] {
            let mut twin = fresh(name);
            assert!(
                twin.restore(&bytes[..len]).is_err(),
                "{name}: truncation to {len} of {} was accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn version_bump_is_rejected_with_unsupported_version() {
    let (name, model, mut twin) = trained_pairs().remove(3);
    let mut bytes = model.checkpoint().expect("checkpointable");
    // bump the version header and re-stamp the trailing checksum so ONLY
    // the version check can reject it
    let next = (VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&next);
    restamp_checksum(&mut bytes);
    match twin.restore(&bytes) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, VERSION + 1);
            assert_eq!(supported, VERSION);
        }
        other => panic!("{name}: version bump produced {other:?}"),
    }
}

#[test]
fn wrong_model_checkpoint_is_rejected() {
    let pairs = trained_pairs();
    let lstm_bytes = pairs[3].1.checkpoint().expect("checkpointable");
    let mut ff = fresh("feedforward");
    assert!(
        ff.restore(&lstm_bytes).is_err(),
        "feedforward accepted an LSTM checkpoint"
    );
}

#[test]
fn failed_restore_leaves_model_serving() {
    // transactional restore: after a rejected checkpoint the model still
    // forecasts exactly as before the attempt
    let (_, mut model, _) = trained_pairs().remove(3);
    let before = model.forecast();
    let mut damaged = model.checkpoint().expect("checkpointable");
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xFF;
    assert!(model.restore(&damaged).is_err());
    assert_eq!(before.to_bits(), model.forecast().to_bits());
}

#[test]
fn model_cache_round_trips_and_keys_discriminate() {
    let dir = std::env::temp_dir().join(format!("fifer-ckpt-test-{}", std::process::id()));
    let cache = ModelCache::open(&dir).expect("cache dir");
    let s = series();
    let key = ModelCache::key("Lstm", 7, &s);
    assert!(cache.load(&key).is_none(), "empty cache must miss");

    let (_, model, mut twin) = trained_pairs().remove(3);
    let bytes = model.checkpoint().expect("checkpointable");
    cache.store(&key, &bytes).expect("store");
    let loaded = cache.load(&key).expect("stored checkpoint must hit");
    assert_eq!(loaded, bytes, "cache must return the exact bytes stored");
    twin.restore(&loaded).expect("cached checkpoint restores");

    // a different seed or a different series must key to a different file
    assert_ne!(key, ModelCache::key("Lstm", 8, &s));
    let mut other = s.clone();
    other[0] += 1.0;
    assert_ne!(key, ModelCache::key("Lstm", 7, &other));
    assert_ne!(key, ModelCache::key("DeepAr", 7, &s));

    std::fs::remove_dir_all(&dir).ok();
}

/// An untrained model of the named kind with the suite's shared config.
fn fresh(name: &str) -> Box<dyn LoadPredictor + Send> {
    let cfg = TrainConfig::fast();
    match name {
        "feedforward" => Box::new(SimpleFfPredictor::new(cfg, 12, 7)),
        "weavenet" => Box::new(WeaveNetPredictor::new(cfg, 8, 7)),
        "deepar" => Box::new(DeepArPredictor::new(cfg, 12, 7)),
        "lstm" => Box::new(LstmPredictor::new(cfg, 12, 7, 2)),
        other => panic!("unknown model {other}"),
    }
}

/// Rewrites the trailing FNV-1a checksum after a deliberate header edit.
fn restamp_checksum(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let h = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&h.to_le_bytes());
}

/// Local copy of the checkpoint digest (the crate keeps its own private).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
