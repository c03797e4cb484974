//! Colour histograms and mean-threshold binarisation (paper §III-A).
//!
//! For every segmented moving object the paper builds a 768-bin histogram —
//! 256 bins per RGB channel — over the pixels of the object's silhouette,
//! then converts it into a 768-bit binary signature by thresholding each bin
//! at the mean bin count θ (Eq. 1–2, Fig. 2): bins ≥ θ map to `1`, the rest
//! to `0`.

use serde::{Deserialize, Serialize};

use crate::bitvec::BinaryVector;
use crate::error::SignatureError;
use crate::image::Rgb;

/// Number of histogram bins per colour channel.
pub const BINS_PER_CHANNEL: usize = 256;

/// Total number of histogram bins (three channels).
pub const HISTOGRAM_BINS: usize = 3 * BINS_PER_CHANNEL;

/// A 768-bin RGB colour histogram.
///
/// Bins `0..256` count red values, `256..512` green values and `512..768`
/// blue values, matching the concatenation order used throughout the paper.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::{ColorHistogram, Rgb};
///
/// let mut hist = ColorHistogram::new();
/// hist.add_pixel(Rgb::new(255, 0, 0));
/// hist.add_pixel(Rgb::new(255, 10, 0));
/// assert_eq!(hist.pixel_count(), 2);
/// assert_eq!(hist.red()[255], 2);
/// let signature = hist.to_signature();
/// assert!(signature.bit(255)); // the red-255 bin is above the mean
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorHistogram {
    /// The red, green and blue bins. Fixed-size channels let a `u8` index
    /// each one with no bounds check.
    channels: Box<[[u32; BINS_PER_CHANNEL]; 3]>,
    pixel_count: u64,
}

impl ColorHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ColorHistogram {
            channels: Box::new([[0; BINS_PER_CHANNEL]; 3]),
            pixel_count: 0,
        }
    }

    /// Builds a histogram from an iterator of pixels.
    pub fn from_pixels<I>(pixels: I) -> Self
    where
        I: IntoIterator<Item = Rgb>,
    {
        let mut hist = Self::new();
        hist.count(pixels);
        hist
    }

    /// Builds a histogram directly from raw bin counts.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::LengthMismatch`] unless exactly
    /// [`HISTOGRAM_BINS`] counts are provided.
    pub fn from_bins(bins: Vec<u32>) -> Result<Self, SignatureError> {
        let mut hist = Self::from_parts(bins, 0)?;
        // Each pixel contributes one count to each of the three channels, so
        // the per-channel totals are equal for a histogram built from pixels;
        // for raw bins we take the red-channel total as the pixel count.
        hist.pixel_count = hist.red().iter().map(|&c| u64::from(c)).sum();
        Ok(hist)
    }

    /// A histogram with the given bins and pixel count.
    fn from_parts(bins: Vec<u32>, pixel_count: u64) -> Result<Self, SignatureError> {
        if bins.len() != HISTOGRAM_BINS {
            return Err(SignatureError::LengthMismatch {
                left: bins.len(),
                right: HISTOGRAM_BINS,
            });
        }
        let mut hist = Self::new();
        hist.channels.as_flattened_mut().copy_from_slice(&bins);
        hist.pixel_count = pixel_count;
        Ok(hist)
    }

    /// Adds a single pixel's colour to the histogram.
    #[inline]
    pub fn add_pixel(&mut self, pixel: Rgb) {
        self.count([pixel]);
    }

    /// Adds every pixel's colour: one count in each channel's bin. The one
    /// counting path behind [`add_pixel`](Self::add_pixel), `extend` and
    /// `collect`.
    fn count<I: IntoIterator<Item = Rgb>>(&mut self, pixels: I) {
        let [red, green, blue] = &mut *self.channels;
        let mut added = 0;
        for pixel in pixels {
            red[usize::from(pixel.r)] += 1;
            green[usize::from(pixel.g)] += 1;
            blue[usize::from(pixel.b)] += 1;
            added += 1;
        }
        self.pixel_count += added;
    }

    /// Merges another histogram into this one bin-by-bin.
    pub fn merge(&mut self, other: &ColorHistogram) {
        let bins = self.channels.as_flattened_mut();
        for (a, b) in bins.iter_mut().zip(other.bins()) {
            *a += *b;
        }
        self.pixel_count += other.pixel_count;
    }

    /// Number of pixels accumulated.
    pub fn pixel_count(&self) -> u64 {
        self.pixel_count
    }

    /// All 768 bins in channel order (R, G, B).
    pub fn bins(&self) -> &[u32] {
        self.channels.as_flattened()
    }

    /// The 256 red-channel bins.
    pub fn red(&self) -> &[u32] {
        &self.channels[0]
    }

    /// The 256 green-channel bins.
    pub fn green(&self) -> &[u32] {
        &self.channels[1]
    }

    /// The 256 blue-channel bins.
    pub fn blue(&self) -> &[u32] {
        &self.channels[2]
    }

    /// The mean bin value θ of Eq. 1: the sum of all bins divided by the
    /// number of bins.
    pub fn mean_threshold(&self) -> f64 {
        let total: u64 = self.bins().iter().map(|&c| u64::from(c)).sum();
        total as f64 / HISTOGRAM_BINS as f64
    }

    /// Converts the histogram to a binary signature by thresholding each bin
    /// at the mean (Eq. 2): `1` where `bin >= θ`, `0` otherwise.
    pub fn to_signature(&self) -> BinaryVector {
        self.to_signature_with_threshold(self.mean_threshold())
    }

    /// Converts the histogram to a binary signature using an explicit
    /// threshold instead of the mean. Used by the binarisation ablation.
    pub fn to_signature_with_threshold(&self, threshold: f64) -> BinaryVector {
        pack_at_threshold(self.bins(), threshold)
    }

    /// The median bin value, used by the median-threshold ablation.
    pub fn median_threshold(&self) -> f64 {
        let mut sorted: Vec<u32> = self.bins().to_vec();
        sorted.sort_unstable();
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            f64::from(sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            f64::from(sorted[mid])
        }
    }

    /// L1 (sum of absolute differences) distance between two histograms.
    pub fn l1_distance(&self, other: &ColorHistogram) -> u64 {
        self.bins()
            .iter()
            .zip(other.bins())
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum()
    }

    /// Normalises the histogram into per-bin probabilities.
    ///
    /// Returns an all-zero distribution for an empty histogram.
    pub fn to_distribution(&self) -> Vec<f64> {
        let total: u64 = self.bins().iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return vec![0.0; HISTOGRAM_BINS];
        }
        self.bins()
            .iter()
            .map(|&c| f64::from(c) / total as f64)
            .collect()
    }
}

impl Default for ColorHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Rgb> for ColorHistogram {
    fn from_iter<T: IntoIterator<Item = Rgb>>(iter: T) -> Self {
        Self::from_pixels(iter)
    }
}

impl Extend<Rgb> for ColorHistogram {
    fn extend<T: IntoIterator<Item = Rgb>>(&mut self, iter: T) {
        self.count(iter);
    }
}

/// The serialized shape of a [`ColorHistogram`]: all 768 bins in channel
/// order and the pixel count. Deserialization rejects any other bin count.
#[derive(Serialize, Deserialize)]
struct RawColorHistogram {
    bins: Vec<u32>,
    pixel_count: u64,
}

// Written against the vendored serde stand-in's traits; with registry serde
// these collapse to `#[serde(into = "RawColorHistogram", try_from =
// "RawColorHistogram")]` on the struct (see vendor/README.md).
impl Serialize for ColorHistogram {
    fn to_value(&self) -> serde::Value {
        RawColorHistogram {
            bins: self.bins().to_vec(),
            pixel_count: self.pixel_count,
        }
        .to_value()
    }
}

impl Deserialize for ColorHistogram {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawColorHistogram::from_value(value)?;
        ColorHistogram::from_parts(raw.bins, raw.pixel_count)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// A small, generic histogram binarisation helper mirroring Fig. 2 of the
/// paper, which illustrates the thresholding on a 16-bin example.
///
/// Returns one output bit per input bin: `1` where the bin is greater than or
/// equal to the mean of all bins, `0` otherwise.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::histogram::binarize_at_mean;
///
/// // Fig. 2-style toy histogram.
/// let bins = [5u32, 1, 7, 6, 8, 0, 9, 2, 6, 1, 5, 4, 0, 1, 0, 3];
/// let bits = binarize_at_mean(&bins);
/// assert_eq!(bits.len(), 16);
/// ```
pub fn binarize_at_mean(bins: &[u32]) -> BinaryVector {
    if bins.is_empty() {
        return BinaryVector::zeros(0);
    }
    let total: u64 = bins.iter().map(|&c| u64::from(c)).sum();
    let mean = total as f64 / bins.len() as f64;
    pack_at_threshold(bins, mean)
}

/// The threshold-and-pack step of Eq. 2, shared by every binarisation: bit
/// `i` is set where `f64::from(bins[i]) >= threshold`, packed 64 bins to a
/// word.
fn pack_at_threshold(bins: &[u32], threshold: f64) -> BinaryVector {
    let words = bins
        .chunks(64)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |word, (bit, &count)| {
                word | (u64::from(f64::from(count) >= threshold) << bit)
            })
        })
        .collect();
    BinaryVector::from_words_masked(words, bins.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_properties() {
        let h = ColorHistogram::new();
        assert_eq!(h.pixel_count(), 0);
        assert_eq!(h.bins().len(), HISTOGRAM_BINS);
        assert_eq!(h.mean_threshold(), 0.0);
        // With θ = 0 every bin satisfies bin >= θ, so the signature is all ones.
        assert_eq!(h.to_signature().count_ones(), HISTOGRAM_BINS);
        assert_eq!(h, ColorHistogram::default());
    }

    #[test]
    fn add_pixel_updates_all_three_channels() {
        let mut h = ColorHistogram::new();
        h.add_pixel(Rgb::new(10, 20, 30));
        assert_eq!(h.red()[10], 1);
        assert_eq!(h.green()[20], 1);
        assert_eq!(h.blue()[30], 1);
        assert_eq!(h.pixel_count(), 1);
        let total: u32 = h.bins().iter().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn mean_threshold_matches_equation_one() {
        let mut h = ColorHistogram::new();
        for _ in 0..768 {
            h.add_pixel(Rgb::new(0, 0, 0));
        }
        // 768 pixels: bins r=0, g=256.., b=512.. each hold 768; total = 3*768.
        let expected = (3.0 * 768.0) / 768.0;
        assert!((h.mean_threshold() - expected).abs() < 1e-9);
    }

    #[test]
    fn signature_has_one_bit_per_bin() {
        let h = ColorHistogram::from_pixels((0..100).map(|i| Rgb::new(i as u8, 100, 200)));
        let sig = h.to_signature();
        assert_eq!(sig.len(), HISTOGRAM_BINS);
    }

    #[test]
    fn uniform_pixel_colour_sets_exactly_three_bits() {
        // All pixels identical: exactly three bins are non-zero, and they are
        // far above the mean, so the signature has exactly three ones.
        let h = ColorHistogram::from_pixels((0..500).map(|_| Rgb::new(12, 200, 45)));
        let sig = h.to_signature();
        assert_eq!(sig.count_ones(), 3);
        assert!(sig.bit(12));
        assert!(sig.bit(BINS_PER_CHANNEL + 200));
        assert!(sig.bit(2 * BINS_PER_CHANNEL + 45));
    }

    #[test]
    fn from_bins_validates_length() {
        assert!(ColorHistogram::from_bins(vec![0; 10]).is_err());
        let h = ColorHistogram::from_bins(vec![1; HISTOGRAM_BINS]).unwrap();
        assert_eq!(h.pixel_count(), BINS_PER_CHANNEL as u64);
    }

    #[test]
    fn merge_adds_bins_and_counts() {
        let a = ColorHistogram::from_pixels([Rgb::new(1, 2, 3)]);
        let b = ColorHistogram::from_pixels([Rgb::new(1, 5, 6), Rgb::new(9, 9, 9)]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.pixel_count(), 3);
        assert_eq!(merged.red()[1], 2);
        assert_eq!(merged.red()[9], 1);
    }

    #[test]
    fn l1_distance_is_symmetric_and_zero_on_self() {
        let a = ColorHistogram::from_pixels((0..64).map(|i| Rgb::new(i, i, i)));
        let b = ColorHistogram::from_pixels((0..64).map(|i| Rgb::new(i, 255 - i, 128)));
        assert_eq!(a.l1_distance(&a), 0);
        assert_eq!(a.l1_distance(&b), b.l1_distance(&a));
        assert!(a.l1_distance(&b) > 0);
    }

    #[test]
    fn distribution_sums_to_one() {
        let h = ColorHistogram::from_pixels((0..200).map(|i| Rgb::new(i as u8, 0, 255)));
        let d = h.to_distribution();
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(
            ColorHistogram::new().to_distribution().iter().sum::<f64>(),
            0.0
        );
    }

    #[test]
    fn median_threshold_of_mostly_empty_histogram_is_zero() {
        let h = ColorHistogram::from_pixels([Rgb::new(0, 0, 0)]);
        assert_eq!(h.median_threshold(), 0.0);
    }

    #[test]
    fn custom_threshold_changes_signature() {
        let h = ColorHistogram::from_pixels((0..100).map(|_| Rgb::new(7, 7, 7)));
        let loose = h.to_signature_with_threshold(0.5);
        let strict = h.to_signature_with_threshold(1e9);
        assert!(loose.count_ones() >= 3);
        assert_eq!(strict.count_ones(), 0);
    }

    #[test]
    fn binarize_at_mean_matches_figure_two_shape() {
        let bins = [5u32, 1, 7, 6, 8, 0, 9, 2, 6, 1, 5, 4, 0, 1, 0, 3];
        let mean: f64 = bins.iter().map(|&b| f64::from(b)).sum::<f64>() / 16.0;
        let bits = binarize_at_mean(&bins);
        for (i, &b) in bins.iter().enumerate() {
            assert_eq!(bits.bit(i), f64::from(b) >= mean, "bin {i}");
        }
    }

    #[test]
    fn packing_matches_bitwise_thresholding_at_every_length() {
        for len in [1usize, 16, 63, 64, 65, 130, HISTOGRAM_BINS] {
            let bins: Vec<u32> = (0..len as u32).map(|i| (i * 37 + 11) % 23).collect();
            for threshold in [0.0, 5.0, 11.5, 22.0, 23.0] {
                let bits = pack_at_threshold(&bins, threshold);
                let expected =
                    BinaryVector::from_bits(bins.iter().map(|&c| f64::from(c) >= threshold));
                assert_eq!(bits, expected, "len {len}, threshold {threshold}");
            }
        }
    }

    #[test]
    fn binarize_at_mean_empty_input() {
        assert!(binarize_at_mean(&[]).is_empty());
    }

    #[test]
    fn extend_and_collect() {
        let mut h: ColorHistogram = (0..10).map(|i| Rgb::new(i, i, i)).collect();
        h.extend((10..20).map(|i| Rgb::new(i, i, i)));
        assert_eq!(h.pixel_count(), 20);
    }

    #[test]
    fn serde_roundtrip() {
        let h = ColorHistogram::from_pixels((0..50).map(|i| Rgb::new(i, 2 * i, 255 - i)));
        let json = serde_json::to_string(&h).unwrap();
        let back: ColorHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn serde_shape_is_the_flat_bin_list() {
        let h = ColorHistogram::from_pixels([Rgb::new(1, 2, 3)]);
        let json = serde_json::to_string(&h).unwrap();
        let mut bins = vec![0; HISTOGRAM_BINS];
        bins[1] = 1;
        bins[BINS_PER_CHANNEL + 2] = 1;
        bins[2 * BINS_PER_CHANNEL + 3] = 1;
        let expected = format!(
            "{{\"bins\":{},\"pixel_count\":1}}",
            serde_json::to_string(&bins).unwrap()
        );
        assert_eq!(json, expected);
        let short = format!(
            "{{\"bins\":{},\"pixel_count\":1}}",
            serde_json::to_string(&bins[1..]).unwrap()
        );
        assert!(serde_json::from_str::<ColorHistogram>(&short).is_err());
    }
}
