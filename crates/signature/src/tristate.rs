//! Tri-state weight vectors.
//!
//! The bSOM's neurons hold weights over the alphabet `{0, 1, #}` where `#`
//! ("don't care") matches either input bit. [`TriStateVector`] stores a
//! vector of such trits as two packed bit-planes:
//!
//! * the *care* plane — bit set ⇒ the trit is a concrete `0` or `1`;
//! * the *value* plane — meaningful only where the care bit is set.
//!
//! With this layout the #-aware Hamming distance of paper Eq. 3 is
//! `popcount((x ^ value) & care)`, which is exactly the bit-serial
//! computation the FPGA's Hamming-distance unit performs, twelve 64-bit words
//! at a time in software.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bitvec::BinaryVector;
use crate::error::SignatureError;

/// One word of the word-parallel stochastic tri-state update: the new plane
/// words plus the exact bit sets that changed, so callers can maintain
/// incremental `#`-counts from popcount deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordUpdate {
    /// The updated value-plane word.
    pub value: u64,
    /// The updated care-plane word.
    pub care: u64,
    /// Bits that relaxed from a concrete mismatch to `#` this step.
    pub relaxed: u64,
    /// Bits that committed from `#` to the input value this step.
    pub committed: u64,
}

/// The word-parallel tri-state update kernel (one 64-bit plane word).
///
/// This is the whole reconstructed update rule of DESIGN.md §"The
/// reconstructed update rule" as three bitwise operations — exactly the
/// tri-state logic the paper's FPGA update block wires per weight bit, 64
/// lanes at a time:
///
/// * *relax*: concrete bits that disagree with the input
///   (`mismatch = (value ^ input) & care`) drop to `#` where `relax_mask`
///   is set — `care &= !(mismatch & relax_mask)`;
/// * *commit*: `#` bits (`!care`) take the input value where `commit_mask`
///   is set — care gains those bits, value copies the input there;
/// * agreeing bits are untouched by construction.
///
/// The masks are per-bit Bernoulli streams (see
/// [`bernoulli`](crate::bernoulli)); passing `!0` recovers the undamped
/// single-step rule. For the final partial word of a vector the caller must
/// AND `commit_mask` with the valid-lane mask — beyond-length lanes look
/// like `#` (`care = 0`) and would otherwise gain phantom care bits.
/// `relax_mask` needs no such masking: `mismatch ⊆ care` and tail care bits
/// are zero by the plane invariant.
///
/// The relaxed value bits are cleared so the value plane stays zero wherever
/// the care plane is (the invariant `TriStateVector::set` maintains).
#[inline]
pub fn update_word(
    value: u64,
    care: u64,
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
) -> WordUpdate {
    let mismatch = (value ^ input) & care;
    let relaxed = mismatch & relax_mask;
    let committed = !care & commit_mask;
    WordUpdate {
        value: (value & !relaxed) | (input & committed),
        care: (care & !relaxed) | committed,
        relaxed,
        committed,
    }
}

/// A single tri-state value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trit {
    /// Concrete zero: matches an input bit of `0`.
    Zero,
    /// Concrete one: matches an input bit of `1`.
    One,
    /// Don't care: matches either input bit and never contributes to the
    /// Hamming distance.
    DontCare,
}

impl Trit {
    /// Converts a boolean into the corresponding concrete trit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Returns the concrete bit value, or `None` for [`Trit::DontCare`].
    pub fn as_bit(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::DontCare => None,
        }
    }

    /// Returns `true` if the trit matches the given input bit (a `#` matches
    /// anything).
    pub fn matches(self, bit: bool) -> bool {
        match self {
            Trit::Zero => !bit,
            Trit::One => bit,
            Trit::DontCare => true,
        }
    }

    /// The character used in the paper's notation: `'0'`, `'1'` or `'#'`.
    pub fn to_char(self) -> char {
        match self {
            Trit::Zero => '0',
            Trit::One => '1',
            Trit::DontCare => '#',
        }
    }

    /// Parses a trit from its character representation.
    ///
    /// Returns `None` for any character other than `'0'`, `'1'` or `'#'`.
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(Trit::Zero),
            '1' => Some(Trit::One),
            '#' => Some(Trit::DontCare),
            _ => None,
        }
    }
}

impl fmt::Display for Trit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl From<bool> for Trit {
    fn from(bit: bool) -> Self {
        Trit::from_bit(bit)
    }
}

/// A fixed-length vector of [`Trit`]s, the weight representation of a bSOM
/// neuron.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::{BinaryVector, TriStateVector, Trit};
///
/// let weight = TriStateVector::from_str("01#1").unwrap();
/// let input = BinaryVector::from_bit_str("0111").unwrap();
/// // The '#' position is ignored; only bit 1 (weight 1 vs input 1) and the
/// // others are compared, so the distance is 0.
/// assert_eq!(weight.hamming(&input).unwrap(), 0);
///
/// let far = BinaryVector::from_bit_str("1010").unwrap();
/// assert_eq!(weight.hamming(&far).unwrap(), 3);
/// assert_eq!(weight.get(2), Some(Trit::DontCare));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize)]
pub struct TriStateVector {
    /// Concrete bit values (meaningful only where `care` is set).
    value: BinaryVector,
    /// Care mask: set ⇒ concrete, clear ⇒ `#`.
    care: BinaryVector,
}

impl TriStateVector {
    /// Creates a vector of `len` don't-care (`#`) trits.
    ///
    /// A fully-`#` neuron has Hamming distance 0 to every input, a property
    /// the paper calls out explicitly ("for a neuron with 768 #'s, the
    /// Hamming distance will always be 0").
    pub fn all_dont_care(len: usize) -> Self {
        TriStateVector {
            value: BinaryVector::zeros(len),
            care: BinaryVector::zeros(len),
        }
    }

    /// Creates a vector of `len` concrete zeros.
    pub fn zeros(len: usize) -> Self {
        TriStateVector {
            value: BinaryVector::zeros(len),
            care: BinaryVector::ones(len),
        }
    }

    /// Creates a concrete tri-state vector from a binary vector (no `#`s).
    pub fn from_binary(bits: &BinaryVector) -> Self {
        TriStateVector {
            value: bits.clone(),
            care: BinaryVector::ones(bits.len()),
        }
    }

    /// Adopts a value plane and a care plane as one vector — the
    /// constructor for planes read back from storage (checkpoints adopt
    /// their words through [`BinaryVector::from_words`] and then this).
    ///
    /// # Errors
    ///
    /// [`SignatureError::LengthMismatch`] if the planes differ in length;
    /// [`SignatureError::ValueOutsideCare`] if a value bit is set where the
    /// care plane is clear (a `#` trit always has value 0).
    pub fn from_planes(value: BinaryVector, care: BinaryVector) -> Result<Self, SignatureError> {
        if value.len() != care.len() {
            return Err(SignatureError::LengthMismatch {
                left: value.len(),
                right: care.len(),
            });
        }
        let outside = value
            .as_words()
            .iter()
            .zip(care.as_words())
            .enumerate()
            .find_map(|(w, (v, c))| {
                let stray = v & !c;
                (stray != 0).then(|| w * 64 + stray.trailing_zeros() as usize)
            });
        if let Some(index) = outside {
            return Err(SignatureError::ValueOutsideCare { index });
        }
        Ok(TriStateVector { value, care })
    }

    /// Creates a vector from an iterator of trits.
    pub fn from_trits<I>(trits: I) -> Self
    where
        I: IntoIterator<Item = Trit>,
    {
        let trits: Vec<Trit> = trits.into_iter().collect();
        let mut v = Self::all_dont_care(trits.len());
        for (i, t) in trits.iter().enumerate() {
            v.set(i, *t);
        }
        v
    }

    /// Parses a vector from a string over `'0'`, `'1'` and `'#'`.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::IndexOutOfBounds`] identifying the byte
    /// offset of the first invalid character.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Self, SignatureError> {
        let mut trits = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match Trit::from_char(c) {
                Some(t) => trits.push(t),
                None => {
                    return Err(SignatureError::IndexOutOfBounds {
                        index: i,
                        len: s.len(),
                    })
                }
            }
        }
        Ok(Self::from_trits(trits))
    }

    /// Creates a vector of `len` random *concrete* trits (no `#`s), matching
    /// the FPGA weight-initialisation block, which loads each neuron with a
    /// random binary image at start-up.
    pub fn random_concrete<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        TriStateVector {
            value: BinaryVector::random(len, rng),
            care: BinaryVector::ones(len),
        }
    }

    /// Creates a vector of `len` random trits where each position is `#` with
    /// probability `dont_care_prob`, otherwise a uniformly random bit.
    ///
    /// # Panics
    ///
    /// Panics if `dont_care_prob` is not within `[0, 1]`.
    pub fn random_with_dont_care<R: Rng + ?Sized>(
        len: usize,
        dont_care_prob: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&dont_care_prob),
            "dont_care_prob must be within [0, 1], got {dont_care_prob}"
        );
        let mut v = Self::all_dont_care(len);
        for i in 0..len {
            if rng.gen::<f64>() >= dont_care_prob {
                v.set(i, Trit::from_bit(rng.gen()));
            }
        }
        v
    }

    /// Number of trits in the vector.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` if the vector holds zero trits.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Returns the trit at `index`, or `None` if out of bounds.
    pub fn get(&self, index: usize) -> Option<Trit> {
        let care = self.care.get(index)?;
        if !care {
            return Some(Trit::DontCare);
        }
        Some(Trit::from_bit(self.value.bit(index)))
    }

    /// Returns the trit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn trit(&self, index: usize) -> Trit {
        self.get(index)
            .unwrap_or_else(|| panic!("trit index {index} out of bounds for length {}", self.len()))
    }

    /// Sets the trit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, trit: Trit) {
        match trit {
            Trit::DontCare => {
                self.care.set(index, false);
                self.value.set(index, false);
            }
            Trit::Zero => {
                self.care.set(index, true);
                self.value.set(index, false);
            }
            Trit::One => {
                self.care.set(index, true);
                self.value.set(index, true);
            }
        }
    }

    /// Number of `#` (don't care) positions.
    pub fn count_dont_care(&self) -> usize {
        self.care.count_zeros()
    }

    /// Number of concrete (`0`/`1`) positions.
    pub fn count_concrete(&self) -> usize {
        self.care.count_ones()
    }

    /// #-aware Hamming distance to a binary input vector (paper Eq. 3).
    ///
    /// Positions where the weight trit is `#` never contribute; elsewhere the
    /// distance counts bit disagreements.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::LengthMismatch`] if the lengths differ.
    pub fn hamming(&self, input: &BinaryVector) -> Result<usize, SignatureError> {
        if self.len() != input.len() {
            return Err(SignatureError::LengthMismatch {
                left: self.len(),
                right: input.len(),
            });
        }
        Ok(crate::batch::masked_hamming_words(
            self.value.as_words(),
            self.care.as_words(),
            input.as_words(),
        ))
    }

    /// #-aware Hamming distance between two tri-state vectors.
    ///
    /// A position contributes 1 only when *both* vectors are concrete there
    /// and their bits disagree. Used by the evaluation harness to measure how
    /// far apart two neurons are.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::LengthMismatch`] if the lengths differ.
    pub fn hamming_tristate(&self, other: &TriStateVector) -> Result<usize, SignatureError> {
        if self.len() != other.len() {
            return Err(SignatureError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        Ok(self
            .value
            .as_words()
            .iter()
            .zip(other.value.as_words())
            .zip(self.care.as_words().iter().zip(other.care.as_words()))
            .map(|((a, b), (ca, cb))| ((a ^ b) & ca & cb).count_ones() as usize)
            .sum())
    }

    /// Returns `true` if every concrete trit matches the input bit at the
    /// same position (distance zero).
    pub fn matches(&self, input: &BinaryVector) -> bool {
        self.hamming(input).map(|d| d == 0).unwrap_or(false)
    }

    /// Collapses the tri-state vector to a binary vector, resolving each `#`
    /// to `dont_care_as`.
    ///
    /// The FPGA output-display block needs a concrete binary image per
    /// neuron; the paper displays `#` positions as background.
    pub fn to_binary(&self, dont_care_as: bool) -> BinaryVector {
        BinaryVector::from_bits((0..self.len()).map(|i| match self.trit(i) {
            Trit::Zero => false,
            Trit::One => true,
            Trit::DontCare => dont_care_as,
        }))
    }

    /// Iterator over the trits.
    pub fn iter(&self) -> TritIter<'_> {
        TritIter {
            vector: self,
            index: 0,
        }
    }

    /// Renders the vector using the paper's `0`/`1`/`#` notation.
    pub fn to_trit_string(&self) -> String {
        self.iter().map(Trit::to_char).collect()
    }

    /// Overwrites plane word `w` with a (value, care) pair — how a neuron's
    /// vector is gathered out of the packed word rows of a competitive
    /// layer, which hold each neuron's words as one column.
    ///
    /// The caller is responsible for the plane invariants the update kernels
    /// preserve by construction (both debug-asserted here): the value plane
    /// is zero wherever the care plane is, and lanes beyond the vector
    /// length are zero in both planes.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid word index.
    pub fn set_plane_word(&mut self, w: usize, value: u64, care: u64) {
        debug_assert_eq!(value & !care, 0, "value bits outside the care plane");
        let rem = self.len() % 64;
        if rem != 0 && (w + 1) * 64 > self.len() {
            let tail_mask = !((1u64 << rem) - 1);
            debug_assert_eq!(care & tail_mask, 0, "care tail bits beyond the length");
        }
        self.value.as_mut_words()[w] = value;
        self.care.as_mut_words()[w] = care;
    }

    /// The care bit-plane (set ⇒ concrete trit).
    pub fn care_plane(&self) -> &BinaryVector {
        &self.care
    }

    /// The value bit-plane (only meaningful where the care plane is set).
    pub fn value_plane(&self) -> &BinaryVector {
        &self.value
    }
}

/// The serialized shape of a [`TriStateVector`]. Deserialization goes
/// through [`TriStateVector::from_planes`] (each plane through
/// [`BinaryVector`]'s validating deserializer), so a snapshot whose value
/// plane leaks outside its care plane is rejected, never adopted.
#[derive(Deserialize)]
struct RawTriStateVector {
    value: BinaryVector,
    care: BinaryVector,
}

// Written against the vendored serde stand-in's `from_value` trait; with
// registry serde this collapses to `#[serde(try_from = ...)]` on the struct
// (see vendor/README.md).
impl Deserialize for TriStateVector {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawTriStateVector::from_value(value)?;
        TriStateVector::from_planes(raw.value, raw.care)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl fmt::Debug for TriStateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 64 {
            write!(f, "TriStateVector({})", self.to_trit_string())
        } else {
            write!(
                f,
                "TriStateVector(len={}, dont_care={}, head={}...)",
                self.len(),
                self.count_dont_care(),
                self.iter().take(32).map(Trit::to_char).collect::<String>()
            )
        }
    }
}

impl fmt::Display for TriStateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_trit_string())
    }
}

impl Default for TriStateVector {
    fn default() -> Self {
        TriStateVector::all_dont_care(0)
    }
}

impl FromIterator<Trit> for TriStateVector {
    fn from_iter<T: IntoIterator<Item = Trit>>(iter: T) -> Self {
        TriStateVector::from_trits(iter)
    }
}

impl From<&BinaryVector> for TriStateVector {
    fn from(bits: &BinaryVector) -> Self {
        TriStateVector::from_binary(bits)
    }
}

/// Iterator over the trits of a [`TriStateVector`].
#[derive(Debug, Clone)]
pub struct TritIter<'a> {
    vector: &'a TriStateVector,
    index: usize,
}

impl Iterator for TritIter<'_> {
    type Item = Trit;

    fn next(&mut self) -> Option<Trit> {
        let trit = self.vector.get(self.index)?;
        self.index += 1;
        Some(trit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.vector.len() - self.index.min(self.vector.len());
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TritIter<'_> {}

impl<'a> IntoIterator for &'a TriStateVector {
    type Item = Trit;
    type IntoIter = TritIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trit_matches_semantics() {
        assert!(Trit::Zero.matches(false));
        assert!(!Trit::Zero.matches(true));
        assert!(Trit::One.matches(true));
        assert!(!Trit::One.matches(false));
        assert!(Trit::DontCare.matches(true));
        assert!(Trit::DontCare.matches(false));
    }

    #[test]
    fn trit_char_roundtrip() {
        for t in [Trit::Zero, Trit::One, Trit::DontCare] {
            assert_eq!(Trit::from_char(t.to_char()), Some(t));
        }
        assert_eq!(Trit::from_char('x'), None);
    }

    #[test]
    fn trit_as_bit() {
        assert_eq!(Trit::Zero.as_bit(), Some(false));
        assert_eq!(Trit::One.as_bit(), Some(true));
        assert_eq!(Trit::DontCare.as_bit(), None);
        assert_eq!(Trit::from(true), Trit::One);
    }

    #[test]
    fn all_dont_care_has_zero_distance_to_everything() {
        let w = TriStateVector::all_dont_care(768);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let x = BinaryVector::random(768, &mut rng);
            assert_eq!(w.hamming(&x).unwrap(), 0);
        }
        assert_eq!(w.count_dont_care(), 768);
        assert_eq!(w.count_concrete(), 0);
    }

    #[test]
    fn concrete_vector_matches_binary_hamming() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = BinaryVector::random(768, &mut rng);
        let b = BinaryVector::random(768, &mut rng);
        let w = TriStateVector::from_binary(&a);
        assert_eq!(w.hamming(&b).unwrap(), a.hamming(&b).unwrap());
        assert_eq!(w.count_concrete(), 768);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "01#10##1";
        let w = TriStateVector::from_str(s).unwrap();
        assert_eq!(w.to_trit_string(), s);
        assert_eq!(w.to_string(), s);
        assert_eq!(w.count_dont_care(), 3);
    }

    #[test]
    fn parse_rejects_invalid_characters() {
        let err = TriStateVector::from_str("01a").unwrap_err();
        assert_eq!(err, SignatureError::IndexOutOfBounds { index: 2, len: 3 });
    }

    #[test]
    fn hamming_ignores_dont_care_positions() {
        let w = TriStateVector::from_str("0#1#").unwrap();
        let x = BinaryVector::from_bit_str("0110").unwrap();
        assert_eq!(w.hamming(&x).unwrap(), 0);
        let y = BinaryVector::from_bit_str("1010").unwrap();
        // position 0 disagrees (0 vs 1), position 2 agrees, #s ignored.
        assert_eq!(w.hamming(&y).unwrap(), 1);
    }

    #[test]
    fn hamming_length_mismatch_errors() {
        let w = TriStateVector::all_dont_care(4);
        let x = BinaryVector::zeros(5);
        assert!(matches!(
            w.hamming(&x),
            Err(SignatureError::LengthMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn set_get_every_trit_kind() {
        let mut w = TriStateVector::zeros(5);
        w.set(0, Trit::One);
        w.set(1, Trit::DontCare);
        w.set(2, Trit::Zero);
        assert_eq!(w.trit(0), Trit::One);
        assert_eq!(w.trit(1), Trit::DontCare);
        assert_eq!(w.trit(2), Trit::Zero);
        assert_eq!(w.get(5), None);
        // Re-concretise a don't-care position.
        w.set(1, Trit::One);
        assert_eq!(w.trit(1), Trit::One);
    }

    #[test]
    fn to_binary_resolves_dont_care() {
        let w = TriStateVector::from_str("1#0#").unwrap();
        assert_eq!(w.to_binary(false).to_bit_string(), "1000");
        assert_eq!(w.to_binary(true).to_bit_string(), "1101");
    }

    #[test]
    fn tristate_hamming_counts_only_joint_concrete_disagreements() {
        let a = TriStateVector::from_str("01#1").unwrap();
        let b = TriStateVector::from_str("11#0").unwrap();
        // position 0: 0 vs 1 -> 1; position 1: equal; position 2: both # ; position 3: 1 vs 0 -> 1
        assert_eq!(a.hamming_tristate(&b).unwrap(), 2);
        let c = TriStateVector::from_str("####").unwrap();
        assert_eq!(a.hamming_tristate(&c).unwrap(), 0);
    }

    #[test]
    fn matches_is_distance_zero() {
        let w = TriStateVector::from_str("1##0").unwrap();
        assert!(w.matches(&BinaryVector::from_bit_str("1010").unwrap()));
        assert!(!w.matches(&BinaryVector::from_bit_str("0010").unwrap()));
        // length mismatch -> false, not panic
        assert!(!w.matches(&BinaryVector::zeros(3)));
    }

    #[test]
    fn random_concrete_has_no_dont_care() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = TriStateVector::random_concrete(768, &mut rng);
        assert_eq!(w.count_dont_care(), 0);
    }

    #[test]
    fn random_with_dont_care_prob_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let all = TriStateVector::random_with_dont_care(256, 1.0, &mut rng);
        assert_eq!(all.count_dont_care(), 256);
        let none = TriStateVector::random_with_dont_care(256, 0.0, &mut rng);
        assert_eq!(none.count_dont_care(), 0);
    }

    #[test]
    #[should_panic(expected = "dont_care_prob")]
    fn random_with_dont_care_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = TriStateVector::random_with_dont_care(8, 1.5, &mut rng);
    }

    #[test]
    fn iterator_and_collect_roundtrip() {
        let w = TriStateVector::from_str("0#11#0").unwrap();
        let collected: TriStateVector = w.iter().collect();
        assert_eq!(collected, w);
        assert_eq!(w.iter().len(), 6);
    }

    #[test]
    fn update_word_undamped_rule_matches_trit_table() {
        // weight 01#, input 001 (LSB first: bit0=0, bit1=0, bit2=1).
        let w = TriStateVector::from_str("01#").unwrap();
        let x = BinaryVector::from_bit_str("001").unwrap();
        let up = update_word(
            w.value_plane().as_words()[0],
            w.care_plane().as_words()[0],
            x.as_words()[0],
            u64::MAX,
            0b111,
        );
        let out = TriStateVector {
            value: BinaryVector::from_bits((0..3).map(|i| (up.value >> i) & 1 == 1)),
            care: BinaryVector::from_bits((0..3).map(|i| (up.care >> i) & 1 == 1)),
        };
        // keep 0, relax 1 -> #, commit # -> 1.
        assert_eq!(out.to_trit_string(), "0#1");
        assert_eq!(up.relaxed.count_ones(), 1);
        assert_eq!(up.committed.count_ones(), 1);
    }

    #[test]
    fn update_word_masks_gate_every_change() {
        let w = TriStateVector::from_str("1111####").unwrap();
        let x = BinaryVector::from_bit_str("00000000").unwrap();
        let up = update_word(
            w.value_plane().as_words()[0],
            w.care_plane().as_words()[0],
            x.as_words()[0],
            0,
            0,
        );
        assert_eq!(up.value, w.value_plane().as_words()[0]);
        assert_eq!(up.care, w.care_plane().as_words()[0]);
        assert_eq!(up.relaxed, 0);
        assert_eq!(up.committed, 0);
    }

    #[test]
    fn serde_roundtrip() {
        let w = TriStateVector::from_str("01#10##1").unwrap();
        let json = serde_json::to_string(&w).unwrap();
        let back: TriStateVector = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn from_planes_adopts_valid_planes_and_rejects_the_rest() {
        let w = TriStateVector::from_str("01#10##1").unwrap();
        let back =
            TriStateVector::from_planes(w.value_plane().clone(), w.care_plane().clone()).unwrap();
        assert_eq!(back, w);
        // A value bit under a `#` (bit 2 of "01#...") is refused.
        let mut value = w.value_plane().clone();
        value.set(2, true);
        assert_eq!(
            TriStateVector::from_planes(value, w.care_plane().clone()),
            Err(SignatureError::ValueOutsideCare { index: 2 })
        );
        assert!(matches!(
            TriStateVector::from_planes(BinaryVector::zeros(8), BinaryVector::zeros(9)),
            Err(SignatureError::LengthMismatch { left: 8, right: 9 })
        ));
    }

    #[test]
    fn deserialize_rejects_value_outside_care_and_bad_packing() {
        // "#1": bit 0 is `#`, bit 1 is 1.
        let ok = r#"{"value":{"words":[2],"len":2},"care":{"words":[2],"len":2}}"#;
        assert_eq!(
            serde_json::from_str::<TriStateVector>(ok).unwrap(),
            TriStateVector::from_str("#1").unwrap()
        );
        let outside = r#"{"value":{"words":[3],"len":2},"care":{"words":[2],"len":2}}"#;
        assert!(serde_json::from_str::<TriStateVector>(outside).is_err());
        let tail = r#"{"value":{"words":[2],"len":2},"care":{"words":[6],"len":2}}"#;
        assert!(serde_json::from_str::<TriStateVector>(tail).is_err());
        let mismatched = r#"{"value":{"words":[0],"len":3},"care":{"words":[2],"len":2}}"#;
        assert!(serde_json::from_str::<TriStateVector>(mismatched).is_err());
    }

    #[test]
    fn debug_output_is_never_empty() {
        assert!(!format!("{:?}", TriStateVector::default()).is_empty());
        assert!(!format!("{:?}", TriStateVector::all_dont_care(768)).is_empty());
    }
}
