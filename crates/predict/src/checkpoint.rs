//! Versioned, byte-stable model checkpoints and the on-disk model cache.
//!
//! A checkpoint captures everything a trained predictor needs to resume
//! serving — layer weights, Adam moment estimates, the fitted [`Scaler`]
//! bounds, and the global optimizer step — in a format designed for
//! bit-exact round-trips:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FIFERCKP"
//! 8       4     format version (little-endian u32, currently 2)
//! 12      1     model tag (1 = feedforward, 2 = weavenet, 3 = deepar,
//!               4 = lstm)
//! 13      …     model payload (see DESIGN.md §15)
//! end-8   8     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! All integers are little-endian; every `f64` is written as the
//! little-endian bytes of [`f64::to_bits`], so a value restored from a
//! checkpoint is the *identical* IEEE-754 datum that was saved — the
//! warm-start == cold-start forecast bit-identity tests depend on this.
//! Vectors are length-prefixed (u64 element count) and validated against
//! the restoring model's architecture, so a checkpoint from a
//! differently-shaped model fails loud instead of silently corrupting
//! weights.
//!
//! [`ModelCache`] keys checkpoints by predictor kind, seed, and a hash of
//! the pretraining series, letting repeated runs and sweep points
//! warm-start instead of refitting. Callers that change training
//! hyper-parameters out from under a cache directory must wipe it — the
//! key deliberately excludes them (the CLI and bench never vary them per
//! cache directory).
//!
//! [`Scaler`]: crate::train::Scaler

use std::fmt;
use std::path::{Path, PathBuf};

/// File magic: identifies a Fifer neural checkpoint.
pub const MAGIC: [u8; 8] = *b"FIFERCKP";

/// Current checkpoint format version. Version 2 has version 1's layout,
/// but its models are trained with the predictor's own activations and
/// reordered Adam update (`nn::math`, `nn::adam`): a version-1 model is
/// one this build never produces, so warm-starting from it would make a
/// cached run differ from a cold one.
pub const VERSION: u32 = 2;

/// Model tag for [`SimpleFfPredictor`](crate::SimpleFfPredictor).
pub(crate) const TAG_FEEDFORWARD: u8 = 1;
/// Model tag for [`WeaveNetPredictor`](crate::WeaveNetPredictor).
pub(crate) const TAG_WEAVENET: u8 = 2;
/// Model tag for [`DeepArPredictor`](crate::DeepArPredictor).
pub(crate) const TAG_DEEPAR: u8 = 3;
/// Model tag for [`LstmPredictor`](crate::LstmPredictor).
pub(crate) const TAG_LSTM: u8 = 4;

/// Why a checkpoint failed to load. Every variant is a hard error — a
/// damaged or incompatible checkpoint never silently half-loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion {
        /// Version found in the checkpoint header.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The buffer ends before the declared payload does.
    Truncated,
    /// The trailing FNV-1a checksum does not match the contents.
    ChecksumMismatch,
    /// The checkpoint was written by a different model type or shape than
    /// the one restoring it.
    ModelMismatch(&'static str),
    /// The predictor type does not support checkpointing (classical
    /// models re-derive their state from observations instead).
    Unsupported,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Fifer checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {supported})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::ModelMismatch(what) => {
                write!(f, "checkpoint does not match this model: {what}")
            }
            CheckpointError::Unsupported => {
                write!(f, "this predictor type does not support checkpoints")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash — the same cheap, dependency-free digest the bench
/// harness uses for replay digests.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian checkpoint serializer. [`finish`](Self::finish) appends
/// the trailing checksum.
#[derive(Debug)]
pub(crate) struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// Starts a checkpoint for the given model tag: magic, version, tag.
    pub(crate) fn new(model_tag: u8) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(model_tag);
        CkptWriter { buf }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes the exact bit pattern of `v`.
    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed `f64` vector.
    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends the FNV-1a checksum and returns the finished checkpoint.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Checkpoint deserializer. [`open`](Self::open) validates the envelope
/// (magic, version, checksum) before any payload field is read, so a
/// flipped byte anywhere in the file is rejected up front.
#[derive(Debug)]
pub(crate) struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Validates the envelope and returns the model tag plus a reader
    /// positioned at the start of the payload.
    pub(crate) fn open(bytes: &'a [u8]) -> Result<(u8, Self), CheckpointError> {
        // magic(8) + version(4) + tag(1) + checksum(8)
        if bytes.len() < MAGIC.len() {
            return Err(CheckpointError::BadMagic);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if bytes.len() < 21 {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a64(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let tag = bytes[12];
        Ok((
            tag,
            CkptReader {
                buf: &body[13..],
                pos: 0,
            },
        ))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// Reads a length-prefixed `f64` vector into `out`, which must already
    /// have the architectural length — a mismatch is a [`ModelMismatch`],
    /// not a resize.
    ///
    /// [`ModelMismatch`]: CheckpointError::ModelMismatch
    pub(crate) fn f64s_into(
        &mut self,
        out: &mut [f64],
        what: &'static str,
    ) -> Result<(), CheckpointError> {
        let n = self.u64()? as usize;
        if n != out.len() {
            return Err(CheckpointError::ModelMismatch(what));
        }
        for v in out.iter_mut() {
            *v = self.f64()?;
        }
        Ok(())
    }

    /// Asserts the whole payload was consumed — leftover bytes mean the
    /// payload layout disagrees with this build.
    pub(crate) fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::ModelMismatch("trailing payload bytes"));
        }
        Ok(())
    }
}

/// On-disk cache of model checkpoints keyed by predictor kind, seed, and
/// pretraining series — the storage behind `--model-cache`.
///
/// Corrupt or stale entries are harmless: loading returns the raw bytes
/// and the model's `restore` rejects anything damaged or incompatible,
/// at which point the caller falls back to a cold pretrain and overwrites
/// the entry.
#[derive(Debug, Clone)]
pub struct ModelCache {
    dir: PathBuf,
}

impl ModelCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ModelCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache key for a pretrained model: predictor kind, build seed, and
    /// an FNV-1a hash over the exact bit patterns of the pretraining
    /// series. Two runs that would cold-train identical models map to the
    /// same key; anything else diverges.
    pub fn key(kind: &str, seed: u64, series: &[f64]) -> String {
        let mut bytes = Vec::with_capacity(series.len() * 8);
        for &v in series {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let hash = fnv1a64(&bytes);
        let kind: String = kind
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        format!("{kind}-{seed:016x}-{hash:016x}")
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.ckpt"))
    }

    /// Loads the checkpoint bytes for `key`, or `None` if absent or
    /// unreadable.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path_for(key)).ok()
    }

    /// Stores checkpoint bytes under `key`. The write goes through a
    /// temporary file and a rename so concurrent readers never observe a
    /// half-written checkpoint (and a torn write at worst costs one warm
    /// start — the checksum rejects it).
    pub fn store(&self, key: &str, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self.dir.join(format!(".{key}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.path_for(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = CkptWriter::new(4);
        w.u8(7);
        w.u32(1234);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64s(&[1.5, f64::MIN_POSITIVE, -3.25]);
        let bytes = w.finish();
        let (tag, mut r) = CkptReader::open(&bytes).unwrap();
        assert_eq!(tag, 4);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0_f64).to_bits());
        let mut out = [0.0; 3];
        r.f64s_into(&mut out, "vec").unwrap();
        assert_eq!(out, [1.5, f64::MIN_POSITIVE, -3.25]);
        r.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = CkptWriter::new(1).finish();
        bytes[0] = b'X';
        assert_eq!(
            CkptReader::open(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn version_bump_rejected() {
        let mut bytes = CkptWriter::new(1).finish();
        // bump the version header and re-stamp the checksum so only the
        // version check can fire
        bytes[8] = (VERSION + 1) as u8;
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CkptReader::open(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion {
                found: VERSION + 1,
                supported: VERSION
            }
        );
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let mut w = CkptWriter::new(2);
        w.f64s(&[0.25, 0.5, 0.75]);
        let bytes = w.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                CkptReader::open(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut w = CkptWriter::new(2);
        w.f64s(&[0.25, 0.5, 0.75]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(
                CkptReader::open(&bytes[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn vector_length_mismatch_is_model_mismatch() {
        let mut w = CkptWriter::new(1);
        w.f64s(&[1.0, 2.0]);
        let bytes = w.finish();
        let (_, mut r) = CkptReader::open(&bytes).unwrap();
        let mut out = [0.0; 3];
        assert!(matches!(
            r.f64s_into(&mut out, "weights").unwrap_err(),
            CheckpointError::ModelMismatch("weights")
        ));
    }

    #[test]
    fn cache_key_is_sensitive_to_every_input() {
        let series = [1.0, 2.0, 3.0];
        let base = ModelCache::key("Lstm", 7, &series);
        assert_ne!(base, ModelCache::key("Lstm", 8, &series));
        assert_ne!(base, ModelCache::key("DeepAr", 7, &series));
        assert_ne!(base, ModelCache::key("Lstm", 7, &[1.0, 2.0, 3.5]));
        assert_eq!(base, ModelCache::key("Lstm", 7, &[1.0, 2.0, 3.0]));
    }

    #[test]
    fn cache_store_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("fifer-ckpt-test-{}", std::process::id()));
        let cache = ModelCache::open(&dir).unwrap();
        let key = ModelCache::key("Lstm", 1, &[4.0, 5.0]);
        assert!(cache.load(&key).is_none());
        cache.store(&key, b"payload").unwrap();
        assert_eq!(cache.load(&key).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }
}
