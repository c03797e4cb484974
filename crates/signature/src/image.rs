//! Minimal image containers used by the surveillance substrate and the FPGA
//! pattern-input / display blocks.
//!
//! The paper's FPGA design exchanges binary signatures as 32 × 24 binary
//! images (768 bits); the CPU-side tracker works on RGB frames and
//! foreground masks. These types are deliberately small — they exist so
//! that the vision, dataset and FPGA crates share one representation, not
//! to be a general imaging library.

use serde::{Deserialize, Serialize};

use crate::bitvec::BinaryVector;
use crate::error::SignatureError;

/// Width of the binary-image framing of a signature (paper §V-A: 32 × 24).
pub const SIGNATURE_WIDTH: usize = 32;

/// Height of the binary-image framing of a signature (paper §V-A: 32 × 24).
pub const SIGNATURE_HEIGHT: usize = 24;

/// An 8-bit-per-channel RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rgb {
    /// Red component.
    pub r: u8,
    /// Green component.
    pub g: u8,
    /// Blue component.
    pub b: u8,
}

impl Rgb {
    /// Creates a colour from its components.
    pub fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Pure black, the background colour of the synthetic scenes.
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };

    /// Pure white.
    pub const WHITE: Rgb = Rgb {
        r: 255,
        g: 255,
        b: 255,
    };

    /// Per-channel saturating addition of a signed brightness offset, used to
    /// model lighting drift in the synthetic scenes.
    pub fn brightened(self, delta: i16) -> Rgb {
        let adjust = |c: u8| -> u8 { (i16::from(c) + delta).clamp(0, 255) as u8 };
        Rgb::new(adjust(self.r), adjust(self.g), adjust(self.b))
    }

    /// Squared Euclidean distance between two colours, used by the background
    /// subtractor's change test.
    pub fn distance_sq(self, other: Rgb) -> u32 {
        let dr = i32::from(self.r) - i32::from(other.r);
        let dg = i32::from(self.g) - i32::from(other.g);
        let db = i32::from(self.b) - i32::from(other.b);
        (dr * dr + dg * dg + db * db) as u32
    }
}

impl From<(u8, u8, u8)> for Rgb {
    fn from((r, g, b): (u8, u8, u8)) -> Self {
        Rgb::new(r, g, b)
    }
}

/// A dense, row-major RGB image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RgbImage {
    width: usize,
    height: usize,
    pixels: Vec<Rgb>,
}

impl RgbImage {
    /// Creates an image filled with a single colour.
    pub fn filled(width: usize, height: usize, colour: Rgb) -> Self {
        RgbImage {
            width,
            height,
            pixels: vec![colour; width * height],
        }
    }

    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, Rgb::BLACK)
    }

    /// Builds an image from a row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::DimensionMismatch`] if the buffer length is
    /// not `width * height`.
    pub fn from_pixels(
        width: usize,
        height: usize,
        pixels: Vec<Rgb>,
    ) -> Result<Self, SignatureError> {
        if pixels.len() != width * height {
            return Err(SignatureError::DimensionMismatch {
                width,
                height,
                pixels: pixels.len(),
            });
        }
        Ok(RgbImage {
            width,
            height,
            pixels,
        })
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels.
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// Returns the pixel at `(x, y)`, or `None` when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> Option<Rgb> {
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(self.pixels[y * self.width + x])
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> Rgb {
        self.get(x, y).unwrap_or_else(|| {
            panic!(
                "pixel ({x}, {y}) out of bounds for {}x{} image",
                self.width, self.height
            )
        })
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored so that
    /// scene renderers can draw shapes that partially leave the frame.
    pub fn set(&mut self, x: usize, y: usize, colour: Rgb) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = colour;
        }
    }

    /// Row-major pixel buffer.
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// The pixels of row `y`, or `None` past the bottom.
    pub fn row(&self, y: usize) -> Option<&[Rgb]> {
        (y < self.height).then(|| &self.pixels[y * self.width..(y + 1) * self.width])
    }

    /// Iterator over `(x, y, colour)` triples in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (usize, usize, Rgb)> + '_ {
        let width = self.width;
        self.pixels
            .iter()
            .enumerate()
            .map(move |(i, &p)| (i % width, i / width, p))
    }
}

/// A binary image (one bit per pixel) backed by a [`BinaryVector`].
///
/// Binary images serve two roles in the reproduction: as the 32 × 24 framing
/// of a signature exchanged with the FPGA, and as foreground masks produced
/// by the background subtractor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryImage {
    width: usize,
    height: usize,
    bits: BinaryVector,
}

impl BinaryImage {
    /// Creates an all-zero binary image.
    pub fn new(width: usize, height: usize) -> Self {
        BinaryImage {
            width,
            height,
            bits: BinaryVector::zeros(width * height),
        }
    }

    /// Wraps an existing bit vector as an image.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::DimensionMismatch`] if `bits.len()` is not
    /// `width * height`.
    pub fn from_bits(
        width: usize,
        height: usize,
        bits: BinaryVector,
    ) -> Result<Self, SignatureError> {
        if bits.len() != width * height {
            return Err(SignatureError::DimensionMismatch {
                width,
                height,
                pixels: bits.len(),
            });
        }
        Ok(BinaryImage {
            width,
            height,
            bits,
        })
    }

    /// Builds an image from row-major packed words, 64 pixels to a word
    /// (pixel `(x, y)` is bit `(y·width + x) % 64` of word
    /// `(y·width + x) / 64`, so rows straddle words). Never fails: the
    /// buffer is truncated or zero-padded to the image's word count and the
    /// bits past the last pixel are cleared.
    pub fn from_row_major_words(width: usize, height: usize, words: Vec<u64>) -> Self {
        BinaryImage {
            width,
            height,
            bits: BinaryVector::from_words_masked(words, width * height),
        }
    }

    /// Frames a 768-bit signature as the paper's 32 × 24 binary image.
    ///
    /// # Errors
    ///
    /// Returns [`SignatureError::LengthMismatch`] if the signature is not
    /// exactly 768 bits.
    pub fn from_signature(signature: &BinaryVector) -> Result<Self, SignatureError> {
        if signature.len() != SIGNATURE_WIDTH * SIGNATURE_HEIGHT {
            return Err(SignatureError::LengthMismatch {
                left: signature.len(),
                right: SIGNATURE_WIDTH * SIGNATURE_HEIGHT,
            });
        }
        Self::from_bits(SIGNATURE_WIDTH, SIGNATURE_HEIGHT, signature.clone())
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Returns the bit at `(x, y)`, or `None` when out of bounds.
    pub fn get(&self, x: usize, y: usize) -> Option<bool> {
        if x >= self.width || y >= self.height {
            return None;
        }
        self.bits.get(y * self.width + x)
    }

    /// Sets the bit at `(x, y)`; out-of-bounds writes are ignored.
    pub fn set(&mut self, x: usize, y: usize, value: bool) {
        if x < self.width && y < self.height {
            self.bits.set(y * self.width + x, value);
        }
    }

    /// Number of set (foreground) pixels.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// The underlying bit vector in row-major order.
    pub fn as_vector(&self) -> &BinaryVector {
        &self.bits
    }

    /// Consumes the image and returns the underlying bit vector.
    pub fn into_vector(self) -> BinaryVector {
        self.bits
    }

    /// Renders the image as rows of `'#'` (set) and `'.'` (clear) characters,
    /// the format used by the examples to visualise neuron weights.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.push(if self.get(x, y).unwrap_or(false) {
                    '#'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;

    #[test]
    fn rgb_constructors_and_conversion() {
        let c = Rgb::new(1, 2, 3);
        assert_eq!(Rgb::from((1, 2, 3)), c);
        assert_eq!(Rgb::default(), Rgb::BLACK);
    }

    #[test]
    fn rgb_brightened_saturates() {
        assert_eq!(
            Rgb::new(250, 10, 128).brightened(20),
            Rgb::new(255, 30, 148)
        );
        assert_eq!(Rgb::new(5, 200, 0).brightened(-20), Rgb::new(0, 180, 0));
    }

    #[test]
    fn rgb_distance_sq() {
        assert_eq!(Rgb::BLACK.distance_sq(Rgb::BLACK), 0);
        assert_eq!(Rgb::BLACK.distance_sq(Rgb::WHITE), 3 * 255 * 255);
        let a = Rgb::new(10, 20, 30);
        let b = Rgb::new(13, 16, 30);
        assert_eq!(a.distance_sq(b), 9 + 16);
    }

    #[test]
    fn rgb_image_get_set_bounds() {
        let mut img = RgbImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.area(), 12);
        img.set(3, 2, Rgb::WHITE);
        assert_eq!(img.pixel(3, 2), Rgb::WHITE);
        assert_eq!(img.get(4, 0), None);
        assert_eq!(img.get(0, 3), None);
        // Out-of-bounds set must be a no-op, not a panic.
        img.set(100, 100, Rgb::WHITE);
    }

    #[test]
    fn rgb_image_from_pixels_validates() {
        assert!(RgbImage::from_pixels(2, 2, vec![Rgb::BLACK; 3]).is_err());
        assert!(RgbImage::from_pixels(2, 2, vec![Rgb::BLACK; 4]).is_ok());
    }

    #[test]
    fn enumerate_pixels_is_row_major() {
        let mut img = RgbImage::new(2, 2);
        img.set(1, 0, Rgb::WHITE);
        let coords: Vec<(usize, usize)> = img.enumerate_pixels().map(|(x, y, _)| (x, y)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn rows_are_slices_of_the_pixel_buffer() {
        let mut img = RgbImage::new(3, 2);
        img.set(2, 1, Rgb::WHITE);
        assert_eq!(img.row(0), Some(&[Rgb::BLACK; 3][..]));
        assert_eq!(img.row(1), Some(&[Rgb::BLACK, Rgb::BLACK, Rgb::WHITE][..]));
        assert_eq!(img.row(2), None);
        assert_eq!(img.row(usize::MAX), None);
        assert_eq!(RgbImage::new(0, 2).row(1), Some(&[][..]));
    }

    #[test]
    fn binary_image_roundtrips_signature() {
        let sig = BinaryVector::from_bits((0..768).map(|i| i % 5 == 0));
        let img = BinaryImage::from_signature(&sig).unwrap();
        assert_eq!(img.width(), SIGNATURE_WIDTH);
        assert_eq!(img.height(), SIGNATURE_HEIGHT);
        assert_eq!(img.as_vector(), &sig);
        assert_eq!(img.clone().into_vector(), sig);
    }

    #[test]
    fn binary_image_rejects_wrong_signature_length() {
        let sig = BinaryVector::zeros(767);
        assert!(BinaryImage::from_signature(&sig).is_err());
        assert!(BinaryImage::from_bits(10, 10, BinaryVector::zeros(99)).is_err());
    }

    #[test]
    fn binary_image_get_set() {
        let mut img = BinaryImage::new(8, 4);
        img.set(7, 3, true);
        assert_eq!(img.get(7, 3), Some(true));
        assert_eq!(img.get(8, 0), None);
        assert_eq!(img.count_ones(), 1);
        img.set(100, 100, true); // ignored
        assert_eq!(img.count_ones(), 1);
    }

    #[test]
    fn ascii_rendering_has_expected_shape() {
        let mut img = BinaryImage::new(3, 2);
        img.set(0, 0, true);
        img.set(2, 1, true);
        assert_eq!(img.to_ascii(), "#..\n..#\n");
    }

    /// The columns set in row `y`.
    fn set_columns(img: &BinaryImage, y: usize) -> Vec<usize> {
        (0..img.width())
            .filter(|&x| img.get(x, y) == Some(true))
            .collect()
    }

    /// Sets pixels `xs` of row `y` one at a time.
    fn set_row(img: &mut BinaryImage, y: usize, xs: Range<usize>) {
        for x in xs {
            img.set(x, y, true);
        }
    }

    #[test]
    fn set_pixels_cross_word_boundaries() {
        // Row 0 of a 100-wide image spans words 0 and 1; row 1 starts
        // inside word 1 and crosses into word 3.
        let mut img = BinaryImage::new(100, 3);
        set_row(&mut img, 0, 60..70);
        set_row(&mut img, 1, 20..100);
        assert_eq!(img.count_ones(), 90);
        assert_eq!(set_columns(&img, 0), (60..70).collect::<Vec<_>>());
        assert_eq!(set_columns(&img, 1), (20..100).collect::<Vec<_>>());
        assert_eq!(img.get(0, 2), Some(false), "the run stops at its row end");
    }

    #[test]
    fn set_past_the_row_end_does_not_wrap() {
        // Row 0's pixels 65.. would be row 1's bits if `set` did not check
        // the width.
        let mut img = BinaryImage::new(65, 2);
        set_row(&mut img, 0, 60..1000);
        set_row(&mut img, 1, 70..80);
        assert_eq!(img.count_ones(), 5);
        assert_eq!(set_columns(&img, 0), (60..65).collect::<Vec<_>>());
        assert!(set_columns(&img, 1).is_empty());
    }

    #[test]
    fn out_of_range_rows_are_ignored() {
        let mut img = BinaryImage::new(8, 4);
        set_row(&mut img, 4, 0..8);
        set_row(&mut img, usize::MAX, 0..8);
        assert_eq!(img.count_ones(), 0);
        set_row(&mut img, 3, 2..5);
        assert_eq!(img.count_ones(), 3);
        assert_eq!(set_columns(&img, 3), vec![2, 3, 4]);
    }

    #[test]
    fn row_major_words_keep_the_tail_clear() {
        // 10 x 7 = 70 pixels: two words, the second with 6 valid bits.
        let img = BinaryImage::from_row_major_words(10, 7, vec![u64::MAX, u64::MAX, 1]);
        assert_eq!(img.count_ones(), 70);
        assert_eq!(img.as_vector().as_words(), &[u64::MAX, 0b11_1111]);
        let mut expected = BinaryImage::new(10, 7);
        for y in 0..7 {
            set_row(&mut expected, y, 0..10);
        }
        assert_eq!(img, expected);
        let short = BinaryImage::from_row_major_words(10, 7, vec![1 << 13]);
        assert_eq!(short.count_ones(), 1);
        assert_eq!(short.get(3, 1), Some(true));
    }

    #[test]
    fn serde_roundtrip_images() {
        let mut img = RgbImage::new(4, 2);
        img.set(1, 1, Rgb::new(9, 8, 7));
        let json = serde_json::to_string(&img).unwrap();
        assert_eq!(serde_json::from_str::<RgbImage>(&json).unwrap(), img);

        let sig = BinaryVector::from_bits((0..768).map(|i| i % 2 == 0));
        let bimg = BinaryImage::from_signature(&sig).unwrap();
        let json = serde_json::to_string(&bimg).unwrap();
        assert_eq!(serde_json::from_str::<BinaryImage>(&json).unwrap(), bimg);
    }
}
