//! Error types for the signature crate.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or combining signature-layer types.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SignatureError {
    /// Two vectors that must have equal length (e.g. for a Hamming distance)
    /// had different lengths.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// An index was outside the bounds of the vector or image.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The length (or area) of the container.
        len: usize,
    },
    /// An image was constructed from a pixel buffer whose size does not match
    /// the requested dimensions.
    DimensionMismatch {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
        /// Number of pixels supplied.
        pixels: usize,
    },
    /// A histogram had no entries, so the mean threshold of Eq. 1 is
    /// undefined.
    EmptyHistogram,
    /// A packed-word buffer does not match the claimed bit length: wrong
    /// word count, or bits set beyond `len` in the last word.
    InvalidPacking {
        /// Number of 64-bit words supplied.
        words: usize,
        /// Claimed bit length.
        len: usize,
    },
    /// A tri-state vector's value plane has a bit set where its care plane
    /// is clear: a `#` trit must have value 0.
    ValueOutsideCare {
        /// The first offending bit position.
        index: usize,
    },
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::LengthMismatch { left, right } => {
                write!(f, "vector length mismatch: {left} vs {right}")
            }
            SignatureError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            SignatureError::DimensionMismatch {
                width,
                height,
                pixels,
            } => write!(
                f,
                "pixel buffer of {pixels} entries does not match {width}x{height} image"
            ),
            SignatureError::EmptyHistogram => {
                write!(f, "histogram has no entries; mean threshold is undefined")
            }
            SignatureError::InvalidPacking { words, len } => write!(
                f,
                "packed buffer of {words} words is invalid for a {len}-bit vector"
            ),
            SignatureError::ValueOutsideCare { index } => {
                write!(f, "value bit {index} is set outside the care plane")
            }
        }
    }
}

impl Error for SignatureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            SignatureError::LengthMismatch { left: 3, right: 4 },
            SignatureError::IndexOutOfBounds { index: 9, len: 3 },
            SignatureError::DimensionMismatch {
                width: 2,
                height: 2,
                pixels: 5,
            },
            SignatureError::EmptyHistogram,
            SignatureError::InvalidPacking { words: 2, len: 80 },
            SignatureError::ValueOutsideCare { index: 3 },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SignatureError>();
    }
}
