//! The byte code of the compact exact logs: LEB128 varints in fixed
//! 64 KiB chunks.
//!
//! [`RecordLog`](crate::RecordLog) keeps the simulator's per-request
//! records this way, and `fifer-workloads`' `JobStream` its jobs. An
//! entry (one record's or one job's encoding, a few dozen bytes at most)
//! is built on the stack in an [`Entry`] and appended to a [`Chunks`]
//! whole: no entry straddles two chunks, so a chunk never grows and
//! nothing is reallocated or copied. A [`Reader`] walks the entries back
//! in push order; what an entry holds is the owner's business.

/// Bytes per chunk.
const CHUNK_BYTES: usize = 64 << 10;

/// One entry under construction, in a stack buffer of `N` bytes (the
/// entry's longest encoding).
#[derive(Debug)]
pub struct Entry<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Default for Entry<N> {
    fn default() -> Self {
        Entry {
            buf: [0; N],
            len: 0,
        }
    }
}

impl<const N: usize> Entry<N> {
    /// Appends `v` as an LEB128 varint: 7 bits per byte, low bits first,
    /// the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf[self.len] = v as u8 | 0x80;
            v >>= 7;
            self.len += 1;
        }
        self.buf[self.len] = v as u8;
        self.len += 1;
    }

    /// Appends the LEB128 varint of the `64 + BITS`-bit number
    /// `v << BITS | tag`, so no bit of `v` is lost: one byte while
    /// `v < 2^(7 − BITS)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `BITS < 7` and `tag < 2^BITS`.
    pub fn tagged_varint<const BITS: u32>(&mut self, v: u64, tag: u64) {
        debug_assert!(
            BITS < 7 && tag >> BITS == 0,
            "tag {tag} needs more than {BITS} bits"
        );
        let low = ((v << BITS) | tag) as u8 & 0x7f;
        let high = v >> (7 - BITS);
        if high == 0 {
            self.buf[self.len] = low;
            self.len += 1;
        } else {
            self.buf[self.len] = low | 0x80;
            self.len += 1;
            self.varint(high);
        }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// Append-only bytes in fixed 64 KiB chunks. Empty, it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Chunks {
    chunks: Vec<Vec<u8>>,
}

impl Chunks {
    /// Appends `entry` whole: to the last chunk if it fits, else to a new
    /// chunk.
    pub fn push<const N: usize>(&mut self, entry: &Entry<N>) {
        let bytes = &entry.buf[..entry.len];
        match self.chunks.last_mut() {
            Some(chunk) if chunk.capacity() - chunk.len() >= bytes.len() => {
                chunk.extend_from_slice(bytes)
            }
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_BYTES);
                chunk.extend_from_slice(bytes);
                self.chunks.push(chunk);
            }
        }
    }

    /// Reads the entries back from the first.
    pub fn reader(&self) -> Reader<'_> {
        Reader {
            chunks: self.chunks.iter(),
            bytes: &[],
            pos: 0,
        }
    }
}

/// Decodes the entries of a [`Chunks`] in push order. Call
/// [`Self::begin_entry`] before each entry, then read its fields in the
/// order they were written.
#[derive(Debug, Clone, Default)]
pub struct Reader<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The current chunk, read up to `pos`.
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    /// Moves to the next entry; `false` when none is left.
    pub fn begin_entry(&mut self) -> bool {
        if self.pos == self.bytes.len() {
            // chunks hold whole entries and are never empty
            let Some(chunk) = self.chunks.next() else {
                return false;
            };
            self.bytes = chunk;
            self.pos = 0;
        }
        true
    }

    /// Reads an [`Entry::varint`].
    pub fn varint(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// Reads an [`Entry::tagged_varint`] of the same `BITS`: `(v, tag)`.
    pub fn tagged_varint<const BITS: u32>(&mut self) -> (u64, u64) {
        let b = self.byte();
        let tag = u64::from(b) & ((1 << BITS) - 1);
        let low = u64::from(b & 0x7f) >> BITS;
        if b < 0x80 {
            return (low, tag);
        }
        (low | (self.varint() << (7 - BITS)), tag)
    }

    /// Reads `K` raw bytes.
    pub fn bytes<const K: usize>(&mut self) -> [u8; K] {
        let out = self.bytes[self.pos..self.pos + K]
            .try_into()
            .expect("a slice of K bytes");
        self.pos += K;
        out
    }

    fn byte(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }
}

/// Maps a wrapped difference, read as `i64`, to a `u64` that is small
/// when its magnitude is: 0, −1, 1, −2, … → 0, 1, 2, 3, …
pub fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64) >> 63) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values at every varint length boundary, and the extremes.
    fn edges() -> Vec<u64> {
        let mut v = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        for bits in (5..64).step_by(7).chain((7..64).step_by(7)) {
            v.extend([(1u64 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        v
    }

    #[test]
    fn varints_and_tagged_varints_round_trip_across_chunks() {
        let mut chunks = Chunks::default();
        let mut rounds = 0;
        while chunks.chunks.len() < 3 {
            for &v in &edges() {
                let mut e = Entry::<40>::default();
                e.varint(v);
                e.tagged_varint::<2>(v, v & 3);
                e.tagged_varint::<1>(!v, v & 1);
                e.bytes(&v.to_le_bytes());
                chunks.push(&e);
            }
            rounds += 1;
        }
        let mut r = chunks.reader();
        for _ in 0..rounds {
            for &v in &edges() {
                assert!(r.begin_entry());
                assert_eq!(r.varint(), v);
                assert_eq!(r.tagged_varint::<2>(), (v, v & 3));
                assert_eq!(r.tagged_varint::<1>(), (!v, v & 1));
                assert_eq!(u64::from_le_bytes(r.bytes()), v);
            }
        }
        assert!(!r.begin_entry());
    }

    #[test]
    fn tagged_varints_are_leb128_of_the_shifted_value() {
        // the one-byte case and the carry into a second byte
        for (v, tag, bytes) in [
            (0u64, 3u64, vec![3u8]),
            (31, 1, vec![0x7d]),
            (32, 0, vec![0x80, 1]),
            (u64::MAX, 3, vec![0xff; 9].into_iter().chain([7]).collect()),
        ] {
            let mut e = Entry::<10>::default();
            e.tagged_varint::<2>(v, tag);
            assert_eq!(&e.buf[..e.len], &bytes[..], "v {v}, tag {tag}");
        }
    }

    #[test]
    fn zigzag_orders_by_magnitude_and_inverts() {
        assert_eq!([0, u64::MAX, 1, u64::MAX - 1].map(zigzag), [0, 1, 2, 3]);
        for v in edges() {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
