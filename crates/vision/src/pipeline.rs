//! The end-to-end CPU-side pipeline: frames in, labelled binary signatures out.
//!
//! This composes the substrate exactly as the paper's Fig. 1 describes the
//! upstream system: segmentation (background differencing) → connected
//! components → blob extraction and noise filtering → tracking → per-object
//! colour histogram → binary signature. The signatures it emits are what gets
//! "fed onto the FPGA" in the paper.

use bsom_signature::{BinaryVector, ColorHistogram, RgbImage};
use serde::{Deserialize, Serialize};

use crate::background::{BackgroundConfig, BackgroundModel};
use crate::blob::{extract_blobs, Blob, BoundingBox};
use crate::connected::label_components;
use crate::tracker::{TrackId, Tracker, TrackerConfig};

/// One tracked-object observation produced for one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectObservation {
    /// The track the observation was associated with.
    pub track: TrackId,
    /// Area of the silhouette in pixels.
    pub area: usize,
    /// Bounding box of the silhouette.
    pub bbox: BoundingBox,
    /// Centroid of the silhouette.
    pub centroid: (f64, f64),
    /// The object's colour histogram over its silhouette.
    pub histogram: ColorHistogram,
    /// The 768-bit binary signature (histogram thresholded at its mean).
    pub signature: BinaryVector,
}

/// Configuration for the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PipelineConfig {
    /// Background subtraction parameters.
    pub background: BackgroundConfig,
    /// Tracker parameters.
    pub tracker: TrackerConfig,
    /// Minimum silhouette area; blobs below it are discarded as noise.
    /// `None` uses the paper's 768-pixel rule.
    pub min_object_pixels: Option<usize>,
}

/// The composed surveillance pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveillancePipeline {
    background: BackgroundModel,
    tracker: Tracker,
    min_object_pixels: usize,
    frames_processed: u64,
}

impl SurveillancePipeline {
    /// Creates a pipeline for frames of the given size with default
    /// parameters.
    pub fn new(width: usize, height: usize) -> Self {
        Self::with_config(width, height, PipelineConfig::default())
    }

    /// Creates a pipeline with explicit parameters.
    pub fn with_config(width: usize, height: usize, config: PipelineConfig) -> Self {
        SurveillancePipeline {
            background: BackgroundModel::new(width, height, config.background),
            tracker: Tracker::new(config.tracker),
            min_object_pixels: config
                .min_object_pixels
                .unwrap_or(crate::blob::MIN_OBJECT_PIXELS),
            frames_processed: 0,
        }
    }

    /// The minimum silhouette area below which detections are discarded.
    pub fn min_object_pixels(&self) -> usize {
        self.min_object_pixels
    }

    /// Number of frames processed through [`process_frame`](Self::process_frame).
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed
    }

    /// The current set of live tracks.
    pub fn tracks(&self) -> &[crate::tracker::Track] {
        self.tracker.tracks()
    }

    /// Absorbs a frame known to contain only background (warm-up).
    pub fn observe_background(&mut self, frame: &RgbImage) {
        self.background.observe_background(frame);
    }

    /// Processes one frame: segments, labels, filters, tracks and extracts a
    /// signature per surviving object.
    pub fn process_frame(&mut self, frame: &RgbImage) -> Vec<ObjectObservation> {
        self.frames_processed += 1;
        let mask = self.background.segment(frame);
        let labels = label_components(&mask);
        let blobs: Vec<Blob> = extract_blobs(&labels)
            .into_iter()
            .filter(|b| b.area >= self.min_object_pixels)
            .collect();
        let assignments = self.tracker.update(&blobs);

        assignments
            .into_iter()
            .filter_map(|(track, blob_index)| {
                let blob = &blobs[blob_index];
                let histogram = blob.histogram(frame)?;
                let signature = histogram.to_signature();
                Some(ObjectObservation {
                    track,
                    area: blob.area,
                    bbox: blob.bbox,
                    centroid: blob.centroid,
                    histogram,
                    signature,
                })
            })
            .collect()
    }

    /// Processes a batch of consecutive frames in order, returning the
    /// observations of each frame.
    ///
    /// The pipeline itself is stateful (background model, tracker), so frames
    /// are consumed sequentially; the value of the batch form is downstream —
    /// `bsom_engine::Recognizer::process_frames` classifies the flattened
    /// signatures of a whole batch in one call. The few signatures of a
    /// short batch run their winner search on the calling thread; only a
    /// batch whose work exceeds `bsom_engine::INLINE_CLASSIFY_MAX_NEURON_WORDS`
    /// is sharded across the worker pool.
    pub fn process_frames(&mut self, frames: &[RgbImage]) -> Vec<Vec<ObjectObservation>> {
        frames.iter().map(|f| self.process_frame(f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{SceneConfig, SceneSimulator};
    use bsom_signature::Rgb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF1F0)
    }

    /// Builds a pipeline warmed up on the given simulator's background.
    fn warmed_pipeline(sim: &mut SceneSimulator, rng: &mut StdRng) -> SurveillancePipeline {
        let mut pipeline = SurveillancePipeline::new(sim.config().width, sim.config().height);
        for _ in 0..10 {
            let frame = sim.render_background_only(rng);
            pipeline.observe_background(&frame);
        }
        pipeline
    }

    #[test]
    fn empty_scene_produces_no_observations() {
        let mut r = rng();
        let config = SceneConfig {
            entry_probability: 0.0,
            ..SceneConfig::small()
        };
        let mut sim = SceneSimulator::new(config, &mut r);
        let mut pipeline = warmed_pipeline(&mut sim, &mut r);
        for _ in 0..5 {
            let frame = sim.render_frame(&mut r);
            let obs = pipeline.process_frame(&frame.image);
            assert!(obs.is_empty());
        }
        assert_eq!(pipeline.frames_processed(), 5);
    }

    #[test]
    fn walking_person_is_detected_and_tracked_consistently() {
        let mut r = rng();
        let config = SceneConfig {
            entry_probability: 0.0,
            lighting_drift: 4,
            jitter: 0,
            ..SceneConfig::small()
        };
        let mut sim = SceneSimulator::new(config, &mut r);
        let mut pipeline = warmed_pipeline(&mut sim, &mut r);
        // Use a lower area threshold appropriate to the small scene's person size.
        let mut pipeline_small = SurveillancePipeline::with_config(
            sim.config().width,
            sim.config().height,
            PipelineConfig {
                min_object_pixels: Some(300),
                ..PipelineConfig::default()
            },
        );
        std::mem::swap(&mut pipeline, &mut pipeline_small);
        for _ in 0..10 {
            let frame = sim.render_background_only(&mut r);
            pipeline.observe_background(&frame);
        }

        sim.spawn_person(4, true);
        let mut track_ids = std::collections::BTreeSet::new();
        let mut detections = 0;
        for _ in 0..40 {
            let frame = sim.render_frame(&mut r);
            for obs in pipeline.process_frame(&frame.image) {
                detections += 1;
                track_ids.insert(obs.track);
                assert_eq!(obs.signature.len(), 768);
                assert!(obs.area >= 300);
                assert!(obs.histogram.pixel_count() as usize >= 300);
            }
        }
        assert!(detections > 10, "detections = {detections}");
        assert!(
            track_ids.len() <= 3,
            "one walking person should map to very few tracks, got {}",
            track_ids.len()
        );
    }

    #[test]
    fn two_people_yield_two_distinct_tracks() {
        let mut r = rng();
        let config = SceneConfig {
            entry_probability: 0.0,
            jitter: 0,
            lighting_drift: 0,
            ..SceneConfig::small()
        };
        let mut sim = SceneSimulator::new(config, &mut r);
        let mut pipeline = SurveillancePipeline::with_config(
            sim.config().width,
            sim.config().height,
            PipelineConfig {
                min_object_pixels: Some(300),
                ..PipelineConfig::default()
            },
        );
        for _ in 0..10 {
            let frame = sim.render_background_only(&mut r);
            pipeline.observe_background(&frame);
        }
        sim.spawn_person(0, true);
        sim.spawn_person(5, false);
        let mut max_simultaneous = 0;
        for _ in 0..30 {
            let frame = sim.render_frame(&mut r);
            let obs = pipeline.process_frame(&frame.image);
            if obs.len() == 2 {
                assert_ne!(obs[0].track, obs[1].track);
            }
            max_simultaneous = max_simultaneous.max(obs.len());
        }
        assert!(max_simultaneous >= 1);
    }

    #[test]
    fn noise_pixels_are_filtered_by_area() {
        let mut pipeline = SurveillancePipeline::new(32, 32);
        let bg = RgbImage::filled(32, 32, Rgb::new(30, 30, 30));
        pipeline.observe_background(&bg);
        // A 3x3 bright noise blotch: far below the default 768-pixel filter.
        let mut noisy = bg.clone();
        for y in 10..13 {
            for x in 10..13 {
                noisy.set(x, y, Rgb::new(250, 250, 250));
            }
        }
        let obs = pipeline.process_frame(&noisy);
        assert!(obs.is_empty());
        assert_eq!(pipeline.min_object_pixels(), 768);
    }

    #[test]
    fn custom_area_threshold_is_respected() {
        let mut pipeline = SurveillancePipeline::with_config(
            32,
            32,
            PipelineConfig {
                min_object_pixels: Some(4),
                ..PipelineConfig::default()
            },
        );
        let bg = RgbImage::filled(32, 32, Rgb::new(30, 30, 30));
        pipeline.observe_background(&bg);
        let mut noisy = bg.clone();
        for y in 10..13 {
            for x in 10..13 {
                noisy.set(x, y, Rgb::new(250, 30, 30));
            }
        }
        let obs = pipeline.process_frame(&noisy);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].area, 9);
        assert!(obs[0].signature.bit(250), "red bin must be set");
        assert_eq!(pipeline.tracks().len(), 1);
    }
}
