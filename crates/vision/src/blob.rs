//! Blob extraction: from labelled components to per-object row runs,
//! bounding boxes, histograms and binary signatures.
//!
//! The paper filters "objects with less than 768 pixels" as noise (§IV),
//! which conveniently also guarantees θ ≥ 1 in Eq. 1. [`MIN_OBJECT_PIXELS`]
//! encodes that constant and [`Blob::is_noise`] applies it.

use bsom_signature::{BinaryVector, ColorHistogram, RgbImage};
use serde::{Deserialize, Serialize};

use crate::connected::{ComponentLabels, RowRun};

/// Minimum number of silhouette pixels for a detection to count as a real
/// object (paper §IV).
pub const MIN_OBJECT_PIXELS: usize = 768;

/// An axis-aligned bounding box in pixel coordinates (inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Smallest x coordinate covered.
    pub min_x: usize,
    /// Smallest y coordinate covered.
    pub min_y: usize,
    /// Largest x coordinate covered.
    pub max_x: usize,
    /// Largest y coordinate covered.
    pub max_y: usize,
}

impl BoundingBox {
    /// Width of the box in pixels.
    pub fn width(&self) -> usize {
        self.max_x - self.min_x + 1
    }

    /// Height of the box in pixels.
    pub fn height(&self) -> usize {
        self.max_y - self.min_y + 1
    }

    /// Area of the box in pixels.
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Centre of the box as floating-point pixel coordinates.
    pub fn centroid(&self) -> (f64, f64) {
        (
            (self.min_x + self.max_x) as f64 / 2.0,
            (self.min_y + self.max_y) as f64 / 2.0,
        )
    }
}

/// One segmented moving object in one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blob {
    /// The 1-based component label this blob was extracted from.
    pub component: u32,
    /// Number of silhouette pixels.
    pub area: usize,
    /// Bounding box of the silhouette.
    pub bbox: BoundingBox,
    /// Centroid of the silhouette pixels (not of the bounding box).
    pub centroid: (f64, f64),
    /// Width and height of the mask the blob was found in; only frames of
    /// this size have the blob's pixels.
    pub frame_size: (usize, usize),
    /// The silhouette as its maximal row runs, in row-major order and
    /// frame coordinates.
    pub runs: Vec<RowRun>,
}

impl Blob {
    /// Whether the paper's noise filter would discard this blob.
    pub fn is_noise(&self) -> bool {
        self.area < MIN_OBJECT_PIXELS
    }

    /// Builds the colour histogram of the blob's pixels in the given frame
    /// (paper §III-A), one run's pixels at a time, so the cost follows the
    /// object's area rather than the frame's. `None` when the frame size
    /// differs from [`frame_size`](Self::frame_size) or a run leaves the
    /// frame (a deserialized blob can hold any runs).
    pub fn histogram(&self, frame: &RgbImage) -> Option<ColorHistogram> {
        if (frame.width(), frame.height()) != self.frame_size {
            return None;
        }
        let mut histogram = ColorHistogram::new();
        for run in &self.runs {
            let pixels = frame.row(run.y)?.get(run.columns())?;
            histogram.extend(pixels.iter().copied());
        }
        Some(histogram)
    }

    /// Extracts the blob's 768-bit binary signature from the given frame
    /// (histogram → mean threshold → bits), or `None` when
    /// [`histogram`](Self::histogram) is.
    pub fn signature(&self, frame: &RgbImage) -> Option<BinaryVector> {
        self.histogram(frame).map(|h| h.to_signature())
    }
}

/// Extracts one blob per connected component from a labelling result.
///
/// Blobs are returned ordered by component id; no size filtering is applied
/// here — callers decide whether to apply [`Blob::is_noise`] (the paper does,
/// the tests sometimes want the raw blobs).
///
/// Everything is accumulated per run: area and bounding box from the run's
/// ends, the centroid from exact integer coordinate sums. A second pass
/// hands each blob its runs, in a buffer allocated at their exact count.
pub fn extract_blobs(labels: &ComponentLabels) -> Vec<Blob> {
    #[derive(Clone)]
    struct Accumulator {
        area: usize,
        bbox: BoundingBox,
        sum_x: u64,
        sum_y: u64,
        runs: usize,
    }
    let empty = Accumulator {
        area: 0,
        bbox: BoundingBox {
            min_x: usize::MAX,
            min_y: usize::MAX,
            max_x: 0,
            max_y: 0,
        },
        sum_x: 0,
        sum_y: 0,
        runs: 0,
    };
    let mut accs = vec![empty; labels.component_count()];
    for (run, &component) in labels.runs() {
        let acc = &mut accs[component as usize - 1];
        let (len, first, last) = (run.columns().len(), run.x_start, run.x_end - 1);
        acc.area += len;
        acc.bbox.min_x = acc.bbox.min_x.min(first);
        acc.bbox.min_y = acc.bbox.min_y.min(run.y);
        acc.bbox.max_x = acc.bbox.max_x.max(last);
        acc.bbox.max_y = acc.bbox.max_y.max(run.y);
        // first + (first + 1) + … + last; one of the two factors is even.
        acc.sum_x += ((first + last) * len / 2) as u64;
        acc.sum_y += (run.y * len) as u64;
        acc.runs += 1;
    }

    let mut blobs: Vec<Blob> = accs
        .into_iter()
        .zip(1..)
        .map(|(a, component)| Blob {
            component,
            area: a.area,
            bbox: a.bbox,
            // The sums are exact integers, so converting them once gives the
            // same f64 as adding the coordinates pixel by pixel (exact below
            // 2^53).
            centroid: (
                a.sum_x as f64 / a.area as f64,
                a.sum_y as f64 / a.area as f64,
            ),
            frame_size: (labels.width(), labels.height()),
            runs: Vec::with_capacity(a.runs),
        })
        .collect();
    for (run, &component) in labels.runs() {
        blobs[component as usize - 1].runs.push(*run);
    }
    blobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connected::label_components;
    use bsom_signature::{BinaryImage, Rgb};

    fn mask_from_rows(rows: &[&str]) -> BinaryImage {
        let height = rows.len();
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut mask = BinaryImage::new(width, height);
        for (y, row) in rows.iter().enumerate() {
            for (x, c) in row.chars().enumerate() {
                mask.set(x, y, c == '#');
            }
        }
        mask
    }

    #[test]
    fn bounding_box_geometry() {
        let b = BoundingBox {
            min_x: 2,
            min_y: 3,
            max_x: 5,
            max_y: 7,
        };
        assert_eq!(b.width(), 4);
        assert_eq!(b.height(), 5);
        assert_eq!(b.area(), 20);
        assert_eq!(b.centroid(), (3.5, 5.0));
    }

    #[test]
    fn extract_blobs_from_two_components() {
        let mask = mask_from_rows(&["##....", "##....", "......", "...###"]);
        let labels = label_components(&mask);
        let blobs = extract_blobs(&labels);
        assert_eq!(blobs.len(), 2);
        let first = &blobs[0];
        assert_eq!(first.area, 4);
        assert_eq!(first.bbox.min_x, 0);
        assert_eq!(first.bbox.max_x, 1);
        assert_eq!(first.centroid, (0.5, 0.5));
        assert_eq!(
            first.runs,
            [0, 1].map(|y| RowRun {
                y,
                x_start: 0,
                x_end: 2
            })
        );
        let second = &blobs[1];
        assert_eq!(second.area, 3);
        assert_eq!(second.bbox.min_y, 3);
        assert_eq!(second.centroid, (4.0, 3.0));
    }

    #[test]
    fn empty_labels_give_no_blobs() {
        let labels = label_components(&BinaryImage::new(8, 8));
        assert!(extract_blobs(&labels).is_empty());
    }

    #[test]
    fn noise_filter_threshold_is_768_pixels() {
        let mask = mask_from_rows(&["###", "###"]);
        let labels = label_components(&mask);
        let blobs = extract_blobs(&labels);
        assert!(blobs[0].is_noise());
        assert_eq!(MIN_OBJECT_PIXELS, 768);

        // A 32x32 solid square (1024 px) exceeds the threshold.
        let mut big = BinaryImage::new(64, 64);
        for y in 0..32 {
            for x in 0..32 {
                big.set(x, y, true);
            }
        }
        let blobs = extract_blobs(&label_components(&big));
        assert_eq!(blobs.len(), 1);
        assert!(!blobs[0].is_noise());
    }

    #[test]
    fn blob_histogram_and_signature_only_cover_silhouette() {
        let mask = mask_from_rows(&["##..", "##..", "....", "...."]);
        let labels = label_components(&mask);
        let blobs = extract_blobs(&labels);
        let mut frame = RgbImage::filled(4, 4, Rgb::new(10, 10, 10));
        // Paint the blob area red.
        for y in 0..2 {
            for x in 0..2 {
                frame.set(x, y, Rgb::new(220, 10, 10));
            }
        }
        let hist = blobs[0].histogram(&frame).unwrap();
        assert_eq!(hist.pixel_count(), 4);
        assert_eq!(hist.red()[220], 4);
        assert_eq!(hist.red()[10], 0, "background pixels must not contribute");
        let sig = blobs[0].signature(&frame).unwrap();
        assert_eq!(sig.len(), 768);
        assert!(sig.bit(220));
    }

    #[test]
    fn blob_histogram_rejects_mismatched_frame() {
        let mask = mask_from_rows(&["#"]);
        let blobs = extract_blobs(&label_components(&mask));
        let frame = RgbImage::new(5, 5);
        assert!(blobs[0].histogram(&frame).is_none());
        assert!(blobs[0].signature(&frame).is_none());
    }

    #[test]
    fn deserialized_blob_with_runs_outside_the_frame_has_no_histogram() {
        let blob = extract_blobs(&label_components(&mask_from_rows(&["##..", "...."]))).remove(0);
        let frame = RgbImage::new(4, 2);
        let outside = [
            (2, 0, 1),
            (usize::MAX, 0, 1),
            (1, 3, 5),
            (1, 0, usize::MAX),
            (0, 3, 1),
            (0, usize::MAX, usize::MAX),
        ];
        for (y, x_start, x_end) in outside {
            let mut bad = blob.clone();
            bad.runs.push(RowRun { y, x_start, x_end });
            let json = serde_json::to_string(&bad).expect("a blob serialises");
            let back: Blob = serde_json::from_str(&json).expect("any runs deserialise");
            assert_eq!(back, bad);
            assert_eq!(back.histogram(&frame), None, "run {y}: {x_start}..{x_end}");
        }
        let json = serde_json::to_string(&blob).expect("a blob serialises");
        let back: Blob = serde_json::from_str(&json).expect("the blob deserialises");
        assert_eq!(back.histogram(&frame), blob.histogram(&frame));
        assert_eq!(back.histogram(&frame).map(|h| h.pixel_count()), Some(2));
    }
}
