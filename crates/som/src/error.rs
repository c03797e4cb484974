//! Error types for the SOM crate.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or training self-organizing maps.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SomError {
    /// An input vector's length did not match the map's configured vector
    /// length.
    InputLengthMismatch {
        /// Length the map expects.
        expected: usize,
        /// Length of the offending input.
        actual: usize,
    },
    /// The map was configured with zero neurons or a zero-length weight
    /// vector.
    EmptyConfiguration {
        /// Number of neurons requested.
        neurons: usize,
        /// Weight-vector length requested.
        vector_len: usize,
    },
    /// Training was requested with an empty dataset.
    EmptyTrainingSet,
    /// A neuron index was out of range.
    NeuronOutOfRange {
        /// The offending neuron index.
        index: usize,
        /// Number of neurons in the map.
        neurons: usize,
    },
    /// A map's stored state failed validation on restore
    /// ([`BSom::from_state`](crate::BSom::from_state)).
    InvalidState {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for SomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SomError::InputLengthMismatch { expected, actual } => {
                write!(f, "input of length {actual} does not match map vector length {expected}")
            }
            SomError::EmptyConfiguration {
                neurons,
                vector_len,
            } => write!(
                f,
                "map configuration must be non-empty (neurons = {neurons}, vector length = {vector_len})"
            ),
            SomError::EmptyTrainingSet => write!(f, "training set is empty"),
            SomError::NeuronOutOfRange { index, neurons } => {
                write!(f, "neuron index {index} out of range for {neurons} neurons")
            }
            SomError::InvalidState { reason } => write!(f, "invalid map state: {reason}"),
        }
    }
}

impl Error for SomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_nonempty() {
        let errors = [
            SomError::InputLengthMismatch {
                expected: 768,
                actual: 10,
            },
            SomError::EmptyConfiguration {
                neurons: 0,
                vector_len: 768,
            },
            SomError::EmptyTrainingSet,
            SomError::NeuronOutOfRange {
                index: 41,
                neurons: 40,
            },
            SomError::InvalidState {
                reason: "rng_state must be non-zero".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SomError>();
    }
}
