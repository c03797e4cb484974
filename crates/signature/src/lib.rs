//! # bsom-signature
//!
//! Binary appearance signatures for the bSOM object-recognition system.
//!
//! This crate implements the *data representation* layer of the reproduction of
//! "Binary Object Recognition System on FPGA with bSOM" (Appiah et al.,
//! SOCC 2010):
//!
//! * [`BinaryVector`] — a packed, fixed-length vector of bits. The paper's
//!   binary signatures are 768-bit vectors obtained from a colour histogram;
//!   this type is the input format of the bSOM and of the FPGA simulator.
//! * [`TriStateVector`] — a fixed-length vector of trits over `{0, 1, #}`
//!   where `#` is a *don't care* value that matches either bit when computing
//!   the Hamming distance. The bSOM's neuron weights use this representation.
//! * [`ColorHistogram`] — a 768-bin RGB colour histogram (256 bins per
//!   channel) and its conversion to a binary signature by thresholding at the
//!   mean bin value (paper Eq. 1–2, Fig. 2).
//! * [`RgbImage`], [`BinaryImage`], [`Silhouette`] — minimal image containers
//!   used by the synthetic surveillance substrate and by the FPGA pattern
//!   input block (which consumes the signature as a 32×24 binary image).
//!
//! ## Quick example
//!
//! ```rust
//! use bsom_signature::{ColorHistogram, Rgb, SIGNATURE_BITS};
//!
//! // Build a histogram from a handful of pixels and binarise it.
//! let pixels = [Rgb::new(200, 30, 30), Rgb::new(190, 25, 40), Rgb::new(10, 10, 200)];
//! let hist = ColorHistogram::from_pixels(pixels.iter().copied());
//! let signature = hist.to_signature();
//! assert_eq!(signature.len(), SIGNATURE_BITS);
//! ```

// Deny (not forbid) so the one module that carries `std::arch` SIMD
// lowerings — `lanes` — can opt back in with a scoped allow; everything
// else in the crate still refuses unsafe code.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod bernoulli;
pub mod bitvec;
pub mod error;
pub mod histogram;
pub mod image;
pub mod lanes;
pub mod tristate;

pub use batch::{
    accumulate_masked_hamming_row, accumulate_masked_hamming_row_with, batch_masked_hamming,
    masked_hamming_words, masked_hamming_words_with, select_winner, select_winner_tournament,
    shard_champion, update_window_word, update_window_word_with, window_word_needs,
    window_word_would_change, WtaKey,
};
pub use bernoulli::{
    draw_broadcast_masks, draw_broadcast_masks_lanes, gate_word, BroadcastMasks, CoinThreshold,
    MaskPlan,
};
pub use bitvec::BinaryVector;
pub use error::SignatureError;
pub use histogram::{ColorHistogram, BINS_PER_CHANNEL, HISTOGRAM_BINS};
pub use image::{BinaryImage, Rgb, RgbImage, Silhouette, SIGNATURE_HEIGHT, SIGNATURE_WIDTH};
pub use lanes::{
    active_dispatch, force_dispatch, segment_background, segment_background_with,
    validate_env_dispatch, Dispatch, DispatchEnvError, Lanes, UnavailableDispatch,
};
pub use tristate::{update_word, TriStateVector, Trit, UpdateDelta, WordUpdate};

/// Number of bits in a full-size appearance signature (768 = 3 × 256 bins).
///
/// The paper fixes both the input vectors and the neuron weight vectors to
/// this length (Table III), and the FPGA pattern-input block reads the
/// signature as a 32 × 24 binary image (32 × 24 = 768).
pub const SIGNATURE_BITS: usize = 768;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn signature_bits_matches_histogram_bins() {
        assert_eq!(SIGNATURE_BITS, HISTOGRAM_BINS);
    }

    #[test]
    fn signature_bits_matches_binary_image_geometry() {
        assert_eq!(SIGNATURE_BITS, SIGNATURE_WIDTH * SIGNATURE_HEIGHT);
    }
}
