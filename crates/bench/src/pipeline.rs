//! The populated-scene fixture and the frame → prediction measurement behind
//! `BENCH_pipeline.json` and the `fig6_pipeline` bench.
//!
//! The fixture is the scene the repository benchmark's `camera` workload
//! measures: `SceneConfig::small()` (160 × 120) with its nine people walking
//! in and out, recognised by a 40-neuron map enrolled on the same scene. On
//! such frames background differencing dominates the front end; a single
//! person on an empty scene, or a synthetic striped mask, would instead make
//! connected components look like the cost.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bsom_engine::{EngineConfig, SomService};
use bsom_signature::{BinaryImage, BinaryVector, RgbImage};
use bsom_som::{BSom, BSomConfig, LabelledSom, SelfOrganizingMap, TrainSchedule};
use bsom_vision::blob::{extract_blobs, Blob};
use bsom_vision::pipeline::PipelineConfig;
use bsom_vision::scene::{SceneConfig, SceneSimulator};
use bsom_vision::{label_components, BackgroundModel, SurveillancePipeline, Tracker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Seed of the fixture scene's people; the clip's frames use it salted.
const SCENE_SEED: u64 = 0xF16;
/// Salt separating the clip's frame stream from the enrolment stream.
const CLIP_SALT: u64 = 0xC11F_5EED;
/// Background-only frames a pipeline absorbs before the clip.
const BACKGROUND_FRAMES: usize = 10;
/// Frames in the fixture clip.
const CLIP_FRAMES: usize = 300;
/// Frames of the scene the fixture's map is enrolled on.
const ENROL_FRAMES: usize = 400;
/// Training epochs over the enrolment signatures.
const ENROL_EPOCHS: usize = 5;
/// Passes over the clip a measurement makes at least, however short its
/// window.
const MIN_PASSES: usize = 3;

/// A rendered clip of the populated small scene, with the background-only
/// frames that warm a pipeline up for it.
#[derive(Debug, Clone)]
pub struct PopulatedScene {
    background: Vec<RgbImage>,
    frames: Vec<RgbImage>,
}

impl PopulatedScene {
    /// Renders the fixture clip (deterministic).
    pub fn render() -> Self {
        let mut people = StdRng::seed_from_u64(SCENE_SEED);
        let mut scene = SceneSimulator::new(SceneConfig::small(), &mut people);
        let mut rng = StdRng::seed_from_u64(SCENE_SEED ^ CLIP_SALT);
        let background = (0..BACKGROUND_FRAMES)
            .map(|_| scene.render_background_only(&mut rng))
            .collect();
        let frames = (0..CLIP_FRAMES)
            .map(|_| scene.render_frame(&mut rng).image)
            .collect();
        PopulatedScene { background, frames }
    }

    /// The clip's frames, in order.
    pub fn frames(&self) -> &[RgbImage] {
        &self.frames
    }

    /// The pipeline configuration for this scene scale: the area filter
    /// `bsom_dataset::from_scene` applies to the small scene's people.
    fn pipeline_config() -> PipelineConfig {
        let config = SceneConfig::small();
        PipelineConfig {
            min_object_pixels: Some((config.person_width * config.person_height / 4).max(64)),
            ..PipelineConfig::default()
        }
    }

    /// A fresh pipeline warmed on the clip's background frames.
    pub fn pipeline(&self) -> SurveillancePipeline {
        let config = SceneConfig::small();
        let mut pipeline =
            SurveillancePipeline::with_config(config.width, config.height, Self::pipeline_config());
        for frame in &self.background {
            pipeline.observe_background(frame);
        }
        pipeline
    }

    /// A fresh background model warmed on the clip's background frames.
    pub fn background_model(&self) -> BackgroundModel {
        let config = SceneConfig::small();
        let mut model = BackgroundModel::new(
            config.width,
            config.height,
            Self::pipeline_config().background,
        );
        for frame in &self.background {
            model.observe_background(frame);
        }
        model
    }

    /// The foreground mask of every clip frame, segmented in order.
    pub fn masks(&self) -> Vec<BinaryImage> {
        let mut model = self.background_model();
        self.frames.iter().map(|f| model.segment(f)).collect()
    }
}

/// A service over a 40-neuron map enrolled on the fixture scene's people.
fn enrolled_service() -> SomService {
    let mut rng = StdRng::seed_from_u64(SCENE_SEED);
    let enrolment = bsom_dataset::from_scene(
        SceneConfig::small(),
        ENROL_FRAMES,
        BACKGROUND_FRAMES,
        &mut rng,
    );
    let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
    som.train_labelled_data(&enrolment, TrainSchedule::new(ENROL_EPOCHS), &mut rng)
        .expect("the fixture scene yields signatures");
    SomService::serve(
        &LabelledSom::label(som, &enrolment),
        EngineConfig::default(),
    )
}

/// Mean microseconds per frame spent in each stage of the Fig. 1 path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineStageTimes {
    /// Background differencing into the foreground mask.
    pub segment_us: f64,
    /// Connected-components labelling of the mask.
    pub label_components_us: f64,
    /// Blob extraction and the area filter.
    pub extract_blobs_us: f64,
    /// Track association.
    pub tracker_us: f64,
    /// Colour histograms of the tracked objects.
    pub histogram_us: f64,
    /// Mean-threshold binarisation into signatures.
    pub to_signature_us: f64,
    /// The winner search over the frame's signatures.
    pub classify_us: f64,
}

impl PipelineStageTimes {
    /// The stage times in path order, by name.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("segment", self.segment_us),
            ("label_components", self.label_components_us),
            ("extract_blobs", self.extract_blobs_us),
            ("tracker", self.tracker_us),
            ("histogram", self.histogram_us),
            ("to_signature", self.to_signature_us),
            ("classify", self.classify_us),
        ]
    }
}

/// The `BENCH_pipeline.json` figures: the paper's Fig. 1 path on the
/// populated fixture clip, end to end and stage by stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineBenchReport {
    /// Frames per pass over the clip.
    pub clip_frames: usize,
    /// Passes made over the clip, each way.
    pub passes: usize,
    /// Tracked objects per frame; each costs one histogram, one signature
    /// and a place in the frame's classify batch.
    pub objects_per_frame: f64,
    /// Frames per second through `Recognizer::process_frames`, one frame
    /// per call, over the fastest pass — the gated figure.
    pub frames_per_second: f64,
    /// Mean time per frame in each stage, from passes that call the stages
    /// one by one with a lap clock.
    pub stage_us: PipelineStageTimes,
    /// Mean time per lap-timed frame; the stage times sum to it.
    pub frame_us: f64,
}

impl fmt::Display for PipelineBenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: {:.0} frames/s through process_frame + classify \
             ({} frames x {} passes, {:.2} objects/frame)",
            self.frames_per_second, self.clip_frames, self.passes, self.objects_per_frame
        )?;
        write!(f, "pipeline stages of a {:.1} us frame:", self.frame_us)?;
        for (name, us) in self.stage_us.named() {
            write!(f, " {name} {us:.1} us")?;
        }
        Ok(())
    }
}

/// A lap clock: each lap charges the time since the previous one to a
/// stage, so the stage totals add up to the clock's whole span.
struct Laps {
    last: Instant,
    stages: [Duration; 7],
}

impl Laps {
    fn lap(&mut self, stage: usize) {
        let now = Instant::now();
        self.stages[stage] += now - self.last;
        self.last = now;
    }
}

/// Measures the fixture clip through the Fig. 1 path: frames/s through
/// `Recognizer::process_frames`, and the per-stage breakdown from passes
/// that compose the public stage calls themselves. Each pass starts from a
/// fresh pipeline; at least three are made, and more until
/// `min_duration` has passed.
///
/// # Panics
///
/// Panics if a composed pass ever disagrees with `process_frame`.
pub fn measure_pipeline(min_duration: Duration) -> PipelineBenchReport {
    let scene = PopulatedScene::render();
    let service = enrolled_service();
    let mut recognizer = service.recognizer();
    let frames = scene.frames();

    let mut fastest = Duration::MAX;
    let mut passes = 0;
    let started = Instant::now();
    while passes < MIN_PASSES || started.elapsed() < min_duration {
        let mut pipeline = scene.pipeline();
        let mut pass = Duration::ZERO;
        for frame in frames {
            let start = Instant::now();
            black_box(recognizer.process_frames(&mut pipeline, std::slice::from_ref(frame)));
            pass += start.elapsed();
        }
        fastest = fastest.min(pass);
        passes += 1;
    }

    let min_pixels = PopulatedScene::pipeline_config()
        .min_object_pixels
        .unwrap_or(bsom_vision::MIN_OBJECT_PIXELS);
    let mut laps = Laps {
        last: Instant::now(),
        stages: [Duration::ZERO; 7],
    };
    let mut total = Duration::ZERO;
    let mut objects = 0usize;
    for _ in 0..passes {
        let mut oracle = scene.pipeline();
        let mut background = scene.background_model();
        let mut tracker = Tracker::new(PopulatedScene::pipeline_config().tracker);
        for frame in frames {
            let start = Instant::now();
            laps.last = start;
            let mask = background.segment(frame);
            laps.lap(0);
            let labels = label_components(&mask);
            laps.lap(1);
            let blobs: Vec<Blob> = extract_blobs(&labels)
                .into_iter()
                .filter(|blob| blob.area >= min_pixels)
                .collect();
            laps.lap(2);
            let assignments = tracker.update(&blobs);
            laps.lap(3);
            let mut observed = Vec::with_capacity(assignments.len());
            for (track, index) in assignments {
                let blob = &blobs[index];
                let histogram = blob.histogram(frame);
                laps.lap(4);
                if let Some(histogram) = histogram {
                    observed.push((track, blob.area, histogram.to_signature()));
                }
                laps.lap(5);
            }
            let signatures: Vec<BinaryVector> = observed.iter().map(|o| o.2.clone()).collect();
            black_box(recognizer.classify_batch(signatures));
            laps.lap(6);
            total += laps.last - start;

            let expected = oracle.process_frame(frame);
            assert!(
                expected.len() == observed.len()
                    && expected
                        .iter()
                        .zip(&observed)
                        .all(|(e, o)| { e.track == o.0 && e.area == o.1 && e.signature == o.2 }),
                "the composed stages must reproduce process_frame"
            );
            objects += observed.len();
        }
    }

    let timed_frames = (passes * frames.len()).max(1) as f64;
    let per_frame = |d: Duration| d.as_secs_f64() * 1e6 / timed_frames;
    let [segment, label, extract, tracker, histogram, signature, classify] = laps.stages;
    PipelineBenchReport {
        clip_frames: frames.len(),
        passes,
        objects_per_frame: objects as f64 / timed_frames,
        frames_per_second: frames.len() as f64 / fastest.as_secs_f64(),
        stage_us: PipelineStageTimes {
            segment_us: per_frame(segment),
            label_components_us: per_frame(label),
            extract_blobs_us: per_frame(extract),
            tracker_us: per_frame(tracker),
            histogram_us: per_frame(histogram),
            to_signature_us: per_frame(signature),
            classify_us: per_frame(classify),
        },
        frame_us: per_frame(total),
    }
}
