//! The byte layer shared by every framed format in the system: the
//! checkpoint and spill frames of [`checkpoint`](crate::checkpoint) and the
//! `bsom-serve` wire frames.
//!
//! Both formats are a magic + format header, a little-endian payload of
//! fixed-width fields, and an FNV-1a-64 trailer over everything before it
//! (DESIGN.md §"Fault model and recovery" and §"The serving front-end").
//! This module holds the three pieces they share:
//!
//! * [`fnv1a64`] — the trailer checksum;
//! * [`LeWriter`] — appends little-endian fields and seals a frame with its
//!   checksum;
//! * [`LeReader`] — reads fields back, bounds-checking every read against
//!   the bytes left, so a lying count is rejected before anything is
//!   allocated for it. Every failure is a typed [`ReadError`]; reading never
//!   panics on bad bytes.

use std::fmt;

/// FNV-1a 64-bit over `bytes` (offset basis `0xcbf2_9ce4_8422_2325`, prime
/// `0x100_0000_01b3`) — tiny, dependency-free, and plenty to catch torn
/// writes and bit flips. This is corruption *detection*, not an adversarial
/// MAC.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A little-endian field writer over a growing byte buffer.
#[derive(Debug, Clone, Default)]
pub struct LeWriter {
    bytes: Vec<u8>,
}

impl LeWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        LeWriter {
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits, so it round-trips
    /// bit-exactly.
    pub(crate) fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Appends every word of `words`, little-endian, with no count prefix.
    pub fn words(&mut self, words: &[u64]) {
        self.bytes.reserve(words.len() * 8);
        for &word in words {
            self.u64(word);
        }
    }

    /// Appends a string as a `u32` byte length followed by its UTF-8 bytes.
    pub fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.bytes(value.as_bytes());
    }

    /// Overwrites the eight bytes at `offset` with `value`, little-endian —
    /// how a length prefix is filled in once the payload after it is
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the bytes written.
    pub(crate) fn patch_u64(&mut self, offset: usize, value: u64) {
        self.bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// The bytes written, without a trailer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Finishes a frame: appends the [`fnv1a64`] of every byte written so
    /// far, little-endian, and returns the frame.
    pub fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.bytes);
        self.u64(checksum);
        self.bytes
    }
}

/// Why a [`LeReader`] read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// A field, or the `count` elements a prefix declares, runs past the end
    /// of the bytes.
    PastEnd {
        /// Bytes the read needed (saturated at `u64::MAX`).
        wanted: u64,
        /// Bytes that were left.
        remaining: usize,
    },
    /// Bytes remain after the last field.
    Unread {
        /// How many.
        remaining: usize,
    },
    /// A string field is not UTF-8.
    NotUtf8,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::PastEnd { wanted, remaining } => write!(
                f,
                "field of {wanted} bytes runs past the payload end ({remaining} left)"
            ),
            ReadError::Unread { remaining } => {
                write!(f, "{remaining} unread bytes at the payload end")
            }
            ReadError::NotUtf8 => write!(f, "string field is not utf-8"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct LeReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LeReader<'a> {
    /// A reader positioned at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        LeReader { bytes, pos: 0 }
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if fewer than `n` bytes are left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        self.ensure(n as u64)?;
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Checks that `count` elements of `bytes_each` bytes fit in what is
    /// left — the check a decoder makes on a count prefix before it
    /// allocates for that many elements. Consumes nothing.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if they do not fit.
    pub(crate) fn ensure_elements(&self, count: u64, bytes_each: usize) -> Result<(), ReadError> {
        self.ensure(count.saturating_mul(bytes_each as u64))
    }

    fn ensure(&self, wanted: u64) -> Result<(), ReadError> {
        if wanted > self.remaining() as u64 {
            return Err(ReadError::PastEnd {
                wanted,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] at the end of the bytes.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if fewer than 4 bytes are left.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if fewer than 8 bytes are left.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its raw little-endian bits.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if fewer than 8 bytes are left.
    pub(crate) fn f64(&mut self) -> Result<f64, ReadError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads `count` little-endian words into a new buffer, checking that
    /// they fit before allocating it.
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if fewer than `count × 8` bytes are left.
    pub fn words(&mut self, count: usize) -> Result<Vec<u64>, ReadError> {
        self.ensure_elements(count as u64, 8)?;
        let raw = self.take(count * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|chunk| {
                let mut word = [0u8; 8];
                word.copy_from_slice(chunk);
                u64::from_le_bytes(word)
            })
            .collect())
    }

    /// Reads a string written by [`LeWriter::str`].
    ///
    /// # Errors
    ///
    /// [`ReadError::PastEnd`] if the declared length runs past the end;
    /// [`ReadError::NotUtf8`] for bytes that are not UTF-8.
    pub fn str(&mut self) -> Result<String, ReadError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ReadError::NotUtf8)
    }

    /// Ends the read, requiring that every byte was consumed.
    ///
    /// # Errors
    ///
    /// [`ReadError::Unread`] if bytes are left.
    pub fn finish(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(ReadError::Unread { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_field_round_trips_and_the_seal_covers_the_prefix() {
        let mut writer = LeWriter::with_capacity(64);
        writer.u8(7);
        writer.u32(0xDEAD_BEEF);
        writer.u64(u64::MAX - 1);
        writer.f64(-0.0);
        writer.words(&[1, 2, 3]);
        writer.str("tenant-é");
        let body_len = writer.len();
        let frame = writer.seal();
        assert_eq!(frame.len(), body_len + 8);
        assert_eq!(frame[body_len..], fnv1a64(&frame[..body_len]).to_le_bytes());

        let mut reader = LeReader::new(&frame[..body_len]);
        assert_eq!(reader.u8(), Ok(7));
        assert_eq!(reader.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(reader.u64(), Ok(u64::MAX - 1));
        assert_eq!(reader.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(reader.words(3), Ok(vec![1, 2, 3]));
        assert_eq!(reader.str().as_deref(), Ok("tenant-é"));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn short_reads_lying_counts_and_leftovers_are_typed() {
        let bytes = [1u8, 2, 3];
        let mut reader = LeReader::new(&bytes);
        assert_eq!(
            reader.u32(),
            Err(ReadError::PastEnd {
                wanted: 4,
                remaining: 3
            })
        );
        // A failed read consumes nothing.
        assert_eq!(reader.remaining(), 3);
        // A count that cannot fit is refused before any allocation.
        assert!(reader.ensure_elements(u64::MAX, usize::MAX).is_err());
        assert!(reader.words(usize::MAX).is_err());
        assert_eq!(reader.u8(), Ok(1));
        assert_eq!(
            reader.clone().finish(),
            Err(ReadError::Unread { remaining: 2 })
        );
        let mut patched = LeWriter::default();
        patched.u64(0);
        patched.patch_u64(0, 9);
        assert_eq!(patched.into_bytes(), 9u64.to_le_bytes());
        let bad_utf8 = [1u8, 0, 0, 0, 0xFF];
        assert_eq!(LeReader::new(&bad_utf8).str(), Err(ReadError::NotUtf8));
    }
}
