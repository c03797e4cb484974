//! Packed binary vectors.
//!
//! [`BinaryVector`] is the representation of the paper's *binary signatures*:
//! fixed-length bit strings (768 bits for the full appearance signature)
//! compared with the Hamming distance. Bits are packed 64 to a word so the
//! Hamming distance of a 768-bit signature reduces to twelve XOR + popcount
//! operations, mirroring the bitwise nature of the FPGA datapath.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SignatureError;

const WORD_BITS: usize = 64;

/// A fixed-length, packed vector of bits.
///
/// `BinaryVector` is an immutable-length container: the number of bits is
/// chosen at construction time and all binary operations require both
/// operands to have the same length.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::BinaryVector;
///
/// let mut v = BinaryVector::zeros(8);
/// v.set(3, true);
/// v.set(7, true);
/// assert_eq!(v.count_ones(), 2);
///
/// let w = BinaryVector::from_bits([true, false, false, true, false, false, false, true]);
/// assert_eq!(v.hamming(&w).unwrap(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct BinaryVector {
    /// Packed words, least-significant bit first within each word.
    words: Vec<u64>,
    /// Number of valid bits.
    len: usize,
}

impl BinaryVector {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        let words = vec![0u64; len.div_ceil(WORD_BITS)];
        BinaryVector { words, len }
    }

    /// Creates a vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Creates a vector from an iterator of booleans.
    ///
    /// The length of the vector equals the number of items yielded.
    pub fn from_bits<I>(bits: I) -> Self
    where
        I: IntoIterator<Item = bool>,
    {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = Self::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Creates a vector of `len` uniformly random bits.
    ///
    /// The FPGA weight-initialisation block seeds every neuron with random
    /// bits; this is the software analogue.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = rng.gen();
        }
        v.mask_tail();
        v
    }

    /// Parses a vector from a string of `'0'`/`'1'` characters.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::IndexOutOfBounds`] if the string contains a
    /// character other than `'0'` or `'1'` (the index reported is the byte
    /// offset of the offending character).
    pub fn from_bit_str(s: &str) -> Result<Self, SignatureError> {
        let mut bits = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                _ => {
                    return Err(SignatureError::IndexOutOfBounds {
                        index: i,
                        len: s.len(),
                    })
                }
            }
        }
        Ok(Self::from_bits(bits))
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`, or `None` if out of bounds.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        let word = self.words[index / WORD_BITS];
        Some((word >> (index % WORD_BITS)) & 1 == 1)
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn bit(&self, index: usize) -> bool {
        self.get(index)
            .unwrap_or_else(|| panic!("bit index {index} out of bounds for length {}", self.len))
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for length {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn flip(&mut self, index: usize) {
        let current = self.bit(index);
        self.set(index, !current);
    }

    /// Number of bits set to one.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits set to zero.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of bits set to one (0.0 for an empty vector).
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Hamming distance between two equal-length binary vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::LengthMismatch`] if the vectors have
    /// different lengths.
    pub fn hamming(&self, other: &BinaryVector) -> Result<usize, SignatureError> {
        if self.len != other.len {
            return Err(SignatureError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        Ok(self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Iterator over the bits of the vector.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            vector: self,
            index: 0,
        }
    }

    /// Collects the bits into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Renders the vector as a string of `'0'`/`'1'` characters.
    pub fn to_bit_string(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }

    /// Access to the packed 64-bit words (tail bits beyond `len` are zero).
    ///
    /// The FPGA simulator uses the packed words to model the bit-serial
    /// datapath without unpacking.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a vector from packed words produced by
    /// [`as_words`](Self::as_words) — the near-zero-copy path wire decoders
    /// use: the word buffer is adopted, not re-packed bit by bit.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::InvalidPacking`] unless the buffer holds
    /// exactly `len.div_ceil(64)` words *and* every bit beyond `len` in the
    /// last word is zero (the invariant `as_words` documents, which
    /// [`count_ones`](Self::count_ones) and the Hamming kernels rely on).
    /// Untrusted input that violates the invariant is rejected rather than
    /// silently masked, so a corrupted frame cannot alias a valid signature.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self, SignatureError> {
        let invalid = || SignatureError::InvalidPacking {
            words: words.len(),
            len,
        };
        if words.len() != len.div_ceil(WORD_BITS) {
            return Err(invalid());
        }
        let rem = len % WORD_BITS;
        if rem != 0 {
            let tail = words.last().copied().unwrap_or(0);
            if tail & !((1u64 << rem) - 1) != 0 {
                return Err(invalid());
            }
        }
        Ok(BinaryVector { words, len })
    }

    /// Builds a vector of `len` bits from packed words without failing: the
    /// buffer is truncated or zero-padded to `len.div_ceil(64)` words and
    /// every bit beyond `len` is cleared, so the
    /// [`as_words`](Self::as_words) invariant always holds. This is the
    /// constructor for in-process word producers (mask and signature
    /// packers); untrusted input goes through [`from_words`](Self::from_words),
    /// which rejects bad packing instead of repairing it.
    pub(crate) fn from_words_masked(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(WORD_BITS), 0);
        let mut v = BinaryVector { words, len };
        v.mask_tail();
        v
    }

    /// Mutable access to the packed words for the in-crate word-parallel
    /// update kernels. Callers must keep every bit beyond `len` zero — the
    /// invariant [`as_words`](Self::as_words) documents; `crate`-private so
    /// the invariant stays enforceable inside this crate.
    pub(crate) fn as_mut_words(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits beyond `len` in the last word, maintaining the
    /// invariant required by [`count_ones`](Self::count_ones).
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }

    /// Applies a binary word-wise operation, checking lengths.
    fn zip_words<F>(&self, other: &BinaryVector, f: F) -> BinaryVector
    where
        F: Fn(u64, u64) -> u64,
    {
        assert_eq!(
            self.len, other.len,
            "binary vectors must have equal length ({} vs {})",
            self.len, other.len
        );
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| f(*a, *b))
            .collect();
        let mut out = BinaryVector {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }
}

/// The serialized shape of a [`BinaryVector`]. Deserialization goes through
/// [`BinaryVector::from_words`], so a snapshot with the wrong word count or
/// a set bit beyond `len` is rejected, never adopted.
#[derive(Deserialize)]
struct RawBinaryVector {
    words: Vec<u64>,
    len: usize,
}

// Written against the vendored serde stand-in's `from_value` trait; with
// registry serde this collapses to `#[serde(try_from = "RawBinaryVector")]`
// on the struct (see vendor/README.md).
impl Deserialize for BinaryVector {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawBinaryVector::from_value(value)?;
        BinaryVector::from_words(raw.words, raw.len)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl fmt::Debug for BinaryVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "BinaryVector({})", self.to_bit_string())
        } else {
            write!(
                f,
                "BinaryVector(len={}, ones={}, head={}...)",
                self.len,
                self.count_ones(),
                self.iter()
                    .take(32)
                    .map(|b| if b { '1' } else { '0' })
                    .collect::<String>()
            )
        }
    }
}

impl fmt::Display for BinaryVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_bit_string())
    }
}

impl Default for BinaryVector {
    fn default() -> Self {
        BinaryVector::zeros(0)
    }
}

impl FromIterator<bool> for BinaryVector {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        BinaryVector::from_bits(iter)
    }
}

/// Iterator over the bits of a [`BinaryVector`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vector: &'a BinaryVector,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.vector.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.vector.len - self.index.min(self.vector.len);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BinaryVector {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl BitAnd for &BinaryVector {
    type Output = BinaryVector;

    fn bitand(self, rhs: Self) -> BinaryVector {
        self.zip_words(rhs, |a, b| a & b)
    }
}

impl BitOr for &BinaryVector {
    type Output = BinaryVector;

    fn bitor(self, rhs: Self) -> BinaryVector {
        self.zip_words(rhs, |a, b| a | b)
    }
}

impl BitXor for &BinaryVector {
    type Output = BinaryVector;

    fn bitxor(self, rhs: Self) -> BinaryVector {
        self.zip_words(rhs, |a, b| a ^ b)
    }
}

impl Not for &BinaryVector {
    type Output = BinaryVector;

    fn not(self) -> BinaryVector {
        let words = self.words.iter().map(|w| !w).collect();
        let mut out = BinaryVector {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_words_round_trips_and_rejects_bad_packing() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [0usize, 1, 63, 64, 65, 100, 768] {
            let v = BinaryVector::random(len, &mut rng);
            let back = BinaryVector::from_words(v.as_words().to_vec(), len)
                .expect("as_words output must round-trip");
            assert_eq!(back, v);
        }
        // Wrong word count.
        assert!(BinaryVector::from_words(vec![0; 3], 100).is_err());
        assert!(BinaryVector::from_words(vec![], 1).is_err());
        // Tail bits beyond len set.
        assert!(BinaryVector::from_words(vec![u64::MAX, u64::MAX], 100).is_err());
    }

    #[test]
    fn from_words_masked_repairs_count_and_tail() {
        let v = BinaryVector::from_words_masked(vec![u64::MAX, u64::MAX, 7], 100);
        assert_eq!(v, BinaryVector::ones(100));
        assert_eq!(v.as_words()[1], (1u64 << 36) - 1);
        let short = BinaryVector::from_words_masked(vec![5], 130);
        assert_eq!(short.as_words(), &[5, 0, 0]);
        assert!(BinaryVector::from_words_masked(vec![1], 0)
            .as_words()
            .is_empty());
    }

    #[test]
    fn set_fills_across_word_boundaries() {
        let mut v = BinaryVector::zeros(200);
        (60..130).for_each(|i| v.set(i, true));
        assert_eq!(v.count_ones(), 70);
        assert!(!v.bit(59) && v.bit(60) && v.bit(64) && v.bit(129) && !v.bit(130));
        assert_eq!(v.as_words()[..3], [u64::MAX << 60, u64::MAX, 0b11]);
        (190..200).for_each(|i| v.set(i, true));
        assert_eq!(v.count_ones(), 80);
        assert_eq!(v.as_words()[3], 0xFF, "tail bits stay clear");
    }

    #[test]
    fn zeros_has_no_set_bits() {
        let v = BinaryVector::zeros(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.count_zeros(), 100);
    }

    #[test]
    fn ones_has_all_bits_set_even_with_partial_last_word() {
        for len in [1, 63, 64, 65, 100, 768] {
            let v = BinaryVector::ones(len);
            assert_eq!(v.count_ones(), len, "length {len}");
        }
    }

    #[test]
    fn empty_vector_behaves() {
        let v = BinaryVector::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.density(), 0.0);
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v, BinaryVector::default());
    }

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BinaryVector::zeros(70);
        v.set(0, true);
        v.set(69, true);
        assert!(v.bit(0));
        assert!(v.bit(69));
        assert!(!v.bit(35));
        v.flip(69);
        assert!(!v.bit(69));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn get_out_of_bounds_is_none() {
        let v = BinaryVector::zeros(10);
        assert_eq!(v.get(10), None);
        assert_eq!(v.get(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut v = BinaryVector::zeros(10);
        v.set(10, true);
    }

    #[test]
    fn hamming_distance_simple() {
        let a = BinaryVector::from_bit_str("10110").unwrap();
        let b = BinaryVector::from_bit_str("10011").unwrap();
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.hamming(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_length_mismatch_errors() {
        let a = BinaryVector::zeros(5);
        let b = BinaryVector::zeros(6);
        assert_eq!(
            a.hamming(&b),
            Err(SignatureError::LengthMismatch { left: 5, right: 6 })
        );
    }

    #[test]
    fn hamming_of_complement_is_length() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = BinaryVector::random(768, &mut rng);
        let complement = !&v;
        assert_eq!(v.hamming(&complement).unwrap(), 768);
    }

    #[test]
    fn bit_string_roundtrip() {
        let s = "1100101011110000";
        let v = BinaryVector::from_bit_str(s).unwrap();
        assert_eq!(v.to_bit_string(), s);
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn from_bit_str_rejects_bad_characters() {
        let err = BinaryVector::from_bit_str("10x1").unwrap_err();
        assert_eq!(err, SignatureError::IndexOutOfBounds { index: 2, len: 4 });
    }

    #[test]
    fn bitwise_operators_match_boolean_semantics() {
        let a = BinaryVector::from_bit_str("1100").unwrap();
        let b = BinaryVector::from_bit_str("1010").unwrap();
        assert_eq!((&a & &b).to_bit_string(), "1000");
        assert_eq!((&a | &b).to_bit_string(), "1110");
        assert_eq!((&a ^ &b).to_bit_string(), "0110");
        assert_eq!((!&a).to_bit_string(), "0011");
    }

    #[test]
    fn random_vectors_have_reasonable_density() {
        let mut rng = StdRng::seed_from_u64(42);
        let v = BinaryVector::random(768, &mut rng);
        let ones = v.count_ones();
        // Binomial(768, 0.5): anything outside [300, 468] would be astronomically unlikely.
        assert!(ones > 300 && ones < 468, "ones = {ones}");
    }

    #[test]
    fn random_is_deterministic_for_a_seed() {
        let a = BinaryVector::random(768, &mut StdRng::seed_from_u64(1));
        let b = BinaryVector::random(768, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn from_iterator_collects() {
        let v: BinaryVector = (0..10).map(|i| i % 3 == 0).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn iter_yields_every_bit_in_order() {
        let v = BinaryVector::from_bit_str("10110").unwrap();
        let bits: Vec<bool> = v.iter().collect();
        assert_eq!(bits, vec![true, false, true, true, false]);
        assert_eq!(v.iter().len(), 5);
    }

    #[test]
    fn words_tail_is_masked() {
        let v = BinaryVector::ones(70);
        let words = v.as_words();
        assert_eq!(words.len(), 2);
        assert_eq!(words[1], (1u64 << 6) - 1);
    }

    #[test]
    fn debug_output_is_never_empty() {
        assert!(!format!("{:?}", BinaryVector::zeros(0)).is_empty());
        assert!(!format!("{:?}", BinaryVector::ones(768)).is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = BinaryVector::random(768, &mut rng);
        let json = serde_json::to_string(&v).unwrap();
        let back: BinaryVector = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn deserialize_rejects_bad_packing() {
        // 70 bits occupy two words; only the low 6 bits of the second may
        // be set.
        let ok = r#"{"words":[1,63],"len":70}"#;
        assert!(serde_json::from_str::<BinaryVector>(ok).is_ok());
        let tail_bit = r#"{"words":[1,64],"len":70}"#;
        assert!(serde_json::from_str::<BinaryVector>(tail_bit).is_err());
        let short = r#"{"words":[1],"len":70}"#;
        assert!(serde_json::from_str::<BinaryVector>(short).is_err());
        let long = r#"{"words":[1,0,0],"len":70}"#;
        assert!(serde_json::from_str::<BinaryVector>(long).is_err());
    }
}
