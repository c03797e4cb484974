//! `camera`: the paper's Fig. 1 path, one frame in, identities out.
//!
//! Six seeded scenes, each with its own nine people: the
//! [`SceneSimulator`] renders a fixed clip of each outside the timed calls,
//! and each frame goes through [`Recognizer::process_frames`] against a
//! 40×768 map enrolled in set-up from the same scene's ground truth. A pass
//! replays every clip from a fresh pipeline, so every pass produces the
//! same answers; the figures are taken over each frame's fastest pass.
//! Several scenes average out how hard one set of people happens to be.
//!
//! The traced run composes the public stage calls itself and checks, frame
//! by frame, that the composition equals
//! [`SurveillancePipeline::process_frame`].

use std::time::{Duration, Instant};

use bsom_engine::{EngineConfig, Recognizer, ServiceHealth, SomService};
use bsom_signature::{BinaryVector, RgbImage};
use bsom_som::{
    BSom, BSomConfig, LabelledSom, ObjectLabel, Prediction, SelfOrganizingMap, TrainSchedule,
};
use bsom_vision::blob::{extract_blobs, Blob};
use bsom_vision::pipeline::PipelineConfig;
use bsom_vision::scene::{SceneConfig, SceneFrame, SceneSimulator};
use bsom_vision::{label_components, BackgroundModel, SurveillancePipeline, Tracker};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, Accuracy, RunArgs, WORKERS};
use crate::measure::{summarize_ms, timed, Fastest, Spans};
use crate::report::{Counts, Outcome};

/// Scenes per run, each with its own people, map and service.
const SCENES: u64 = 6;
/// Frames of a scene its map is enrolled on.
const ENROL_FRAMES: usize = 1000;
/// Training epochs over the enrolment signatures.
const ENROL_EPOCHS: usize = 10;
/// Background-only frames a pipeline absorbs before the clip.
const BACKGROUND_FRAMES: usize = 10;
/// Frames in each scene's replayed clip.
const CLIP_FRAMES: usize = 1000;
/// Untimed frames that warm the caches before timing starts.
const WARMUP_FRAMES: usize = 300;
/// Passes over every clip per second of `--seconds`; at least two, so each
/// frame has a replay to be fastest in. A pass takes about 4.5 s on a
/// 2-vCPU Xeon VM, so the replays of a frame spread over about half a
/// minute and a stretch of slow host slows them all less often.
const PASSES_PER_SECOND: f64 = 0.45;
/// Salt separating a clip's frame stream from its enrolment stream.
const CLIP_SALT: u64 = 0xC11F_5EED;

fn scene_config() -> SceneConfig {
    SceneConfig::small()
}

/// The area filter `bsom_dataset::from_scene` applies at this scene scale.
fn min_object_pixels(config: &SceneConfig) -> usize {
    (config.person_width * config.person_height / 4).max(64)
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        min_object_pixels: Some(min_object_pixels(&scene_config())),
        ..PipelineConfig::default()
    }
}

/// One scene: its people's seed and the map enrolled on them.
struct Scene {
    classifier: LabelledSom<BSom>,
    service: SomService,
    seed: u64,
}

impl Scene {
    fn build(seed: u64) -> Scene {
        let mut rng = StdRng::seed_from_u64(seed);
        let enrolment =
            bsom_dataset::from_scene(scene_config(), ENROL_FRAMES, BACKGROUND_FRAMES, &mut rng);
        let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
        som.train_labelled_data(&enrolment, TrainSchedule::new(ENROL_EPOCHS), &mut rng)
            .expect("the enrolment scene yields signatures");
        let classifier = LabelledSom::label(som, &enrolment);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(WORKERS));
        Scene {
            classifier,
            service,
            seed,
        }
    }

    /// A fresh replay of the clip: the enrolment scene's people (same
    /// seed, so the same appearance models) walking a new frame stream.
    fn clip(&self) -> Clip {
        let mut people = StdRng::seed_from_u64(self.seed);
        let scene = SceneSimulator::new(scene_config(), &mut people);
        let mut clip = Clip {
            scene,
            rng: StdRng::seed_from_u64(self.seed ^ CLIP_SALT),
            background: Vec::with_capacity(BACKGROUND_FRAMES),
        };
        for _ in 0..BACKGROUND_FRAMES {
            let frame = clip.scene.render_background_only(&mut clip.rng);
            clip.background.push(frame);
        }
        clip
    }

    fn pipeline(&self, clip: &Clip) -> SurveillancePipeline {
        let config = scene_config();
        let mut pipeline =
            SurveillancePipeline::with_config(config.width, config.height, pipeline_config());
        for frame in &clip.background {
            pipeline.observe_background(frame);
        }
        pipeline
    }
}

/// Every scene of a run.
struct Camera {
    scenes: Vec<Scene>,
}

impl Camera {
    fn build(seed: u64) -> Camera {
        let scenes = (0..SCENES)
            .map(|k| Scene::build(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        Camera { scenes }
    }

    fn health(&self) -> Vec<ServiceHealth> {
        self.scenes
            .iter()
            .map(|scene| scene.service.health())
            .collect()
    }
}

struct Clip {
    scene: SceneSimulator,
    rng: StdRng,
    background: Vec<RgbImage>,
}

impl Clip {
    fn next_frame(&mut self) -> SceneFrame {
        self.scene.render_frame(&mut self.rng)
    }
}

/// The ground-truth identity nearest to `centroid` in `frame`.
fn nearest_person(frame: &SceneFrame, centroid: (f64, f64)) -> Option<ObjectLabel> {
    let dist2 = |a: (f64, f64)| (a.0 - centroid.0).powi(2) + (a.1 - centroid.1).powi(2);
    frame
        .ground_truth
        .iter()
        .min_by(|a, b| dist2(a.centroid).total_cmp(&dist2(b.centroid)))
        .map(|truth| ObjectLabel::new(truth.person))
}

/// Per-frame results of the passes.
struct PassStats {
    /// Each clip frame's fastest time over the passes.
    fastest: Fastest,
    /// Every timed frame, for the tail diagnostic.
    all_ms: Vec<f64>,
    frames: u64,
    objects: u64,
    accuracy: Accuracy,
    counts: Counts,
}

impl PassStats {
    /// Results of passes over `positions` frames.
    fn new(positions: usize) -> Self {
        PassStats {
            fastest: Fastest::new(positions),
            all_ms: Vec::new(),
            frames: 0,
            objects: 0,
            accuracy: Accuracy::default(),
            counts: Counts::default(),
        }
    }

    /// Records the time of the frame at `position` of a pass.
    fn time(&mut self, position: usize, elapsed: Duration) {
        self.fastest.record(position, elapsed);
        self.all_ms.push(elapsed.as_secs_f64() * 1e3);
    }

    fn score(
        &mut self,
        scene: &Scene,
        frame: &SceneFrame,
        objects: &[(BinaryVector, (f64, f64), Prediction)],
    ) {
        self.frames += 1;
        self.counts.attempted += 1;
        let mut wrong = false;
        for (signature, centroid, prediction) in objects {
            self.objects += 1;
            if scene.classifier.classify(signature) != *prediction {
                wrong = true;
            }
            if let Some(truth) = nearest_person(frame, *centroid) {
                self.accuracy.score(prediction, truth);
            }
        }
        if wrong {
            self.counts.mismatch();
        }
    }
}

/// One untraced pass: every frame through `Recognizer::process_frames`,
/// timed at positions from `first`.
fn untraced_pass(
    scene: &Scene,
    recognizer: &mut Recognizer,
    frames: usize,
    first: usize,
    stats: &mut PassStats,
) {
    let mut clip = scene.clip();
    let mut pipeline = scene.pipeline(&clip);
    for position in first..first + frames {
        let frame = clip.next_frame();
        let start = Instant::now();
        let recognized =
            recognizer.process_frames(&mut pipeline, std::slice::from_ref(&frame.image));
        stats.time(position, start.elapsed());
        let objects: Vec<_> = recognized
            .into_iter()
            .flatten()
            .map(|o| {
                (
                    o.observation.signature,
                    o.observation.centroid,
                    o.prediction,
                )
            })
            .collect();
        stats.score(scene, &frame, &objects);
    }
}

/// One traced pass: the stage calls composed here, each timed as a span,
/// and checked against `process_frame` on an identical pipeline.
fn traced_pass(
    scene: &Scene,
    recognizer: &mut Recognizer,
    frames: usize,
    first: usize,
    stats: &mut PassStats,
    spans: &mut Spans,
) {
    let config = scene_config();
    let pipeline_config = pipeline_config();
    let min_pixels = min_object_pixels(&config);
    let mut clip = scene.clip();
    let mut oracle = scene.pipeline(&clip);
    let mut background =
        BackgroundModel::new(config.width, config.height, pipeline_config.background);
    for frame in &clip.background {
        background.observe_background(frame);
    }
    let mut tracker = Tracker::new(pipeline_config.tracker);
    for position in first..first + frames {
        let frame = clip.next_frame();
        let image = &frame.image;
        let start = Instant::now();
        let (mask, _) = timed(Some(&mut *spans), "vision.segment", || {
            background.segment(image)
        });
        let (labels, _) = timed(Some(&mut *spans), "vision.label_components", || {
            label_components(&mask)
        });
        let (blobs, _): (Vec<Blob>, _) = timed(Some(&mut *spans), "vision.extract_blobs", || {
            extract_blobs(&labels)
                .into_iter()
                .filter(|blob| blob.area >= min_pixels)
                .collect()
        });
        let (assignments, _) = timed(Some(&mut *spans), "vision.tracker", || {
            tracker.update(&blobs)
        });
        let mut observed = Vec::with_capacity(assignments.len());
        for (track, index) in assignments {
            let blob = &blobs[index];
            let (Some(histogram), _) = timed(Some(&mut *spans), "vision.histogram", || {
                blob.histogram(image)
            }) else {
                continue;
            };
            let (signature, _) = timed(Some(&mut *spans), "vision.to_signature", || {
                histogram.to_signature()
            });
            observed.push((track, blob.area, blob.centroid, signature));
        }
        let signatures: Vec<BinaryVector> = observed.iter().map(|o| o.3.clone()).collect();
        let (predictions, _) = timed(Some(&mut *spans), "engine.classify", || {
            recognizer.classify_batch(signatures)
        });
        let elapsed = start.elapsed();
        spans.add("camera.frame", elapsed);
        stats.time(position, elapsed);

        let expected = oracle.process_frame(image);
        let same_stages = expected.len() == observed.len()
            && expected.iter().zip(&observed).all(|(e, o)| {
                e.track == o.0 && e.area == o.1 && e.centroid == o.2 && e.signature == o.3
            });
        if !same_stages || predictions.len() != observed.len() {
            stats.frames += 1;
            stats.counts.attempted += 1;
            stats.counts.mismatch();
            continue;
        }
        let objects: Vec<_> = observed
            .into_iter()
            .zip(predictions)
            .map(|(o, prediction)| (o.3, o.2, prediction))
            .collect();
        stats.score(scene, &frame, &objects);
    }
}

/// Runs `frames` frames of one scene's clip, traced or not, timed at
/// positions from `first`.
fn pass(
    scene: &Scene,
    recognizer: &mut Recognizer,
    frames: usize,
    first: usize,
    stats: &mut PassStats,
    spans: Option<&mut Spans>,
) {
    match spans {
        Some(spans) => traced_pass(scene, recognizer, frames, first, stats, spans),
        None => untraced_pass(scene, recognizer, frames, first, stats),
    }
}

/// Passes over every clip in a run of `args.seconds`.
fn passes(args: RunArgs) -> usize {
    args.work(PASSES_PER_SECOND).max(2)
}

/// Replays every scene's clip [`passes`] times.
fn measure(camera: &Camera, args: RunArgs, mut spans: Option<&mut Spans>) -> PassStats {
    let mut recognizers: Vec<Recognizer> = camera
        .scenes
        .iter()
        .map(|scene| scene.service.recognizer())
        .collect();
    let mut warmup = PassStats::new(WARMUP_FRAMES);
    let mut warmup_spans = Spans::default();
    pass(
        &camera.scenes[0],
        &mut recognizers[0],
        WARMUP_FRAMES,
        0,
        &mut warmup,
        spans.as_ref().map(|_| &mut warmup_spans),
    );
    let mut stats = PassStats::new(camera.scenes.len() * CLIP_FRAMES);
    stats.counts = warmup.counts;
    for _ in 0..passes(args) {
        for (k, (scene, recognizer)) in camera.scenes.iter().zip(&mut recognizers).enumerate() {
            pass(
                scene,
                recognizer,
                CLIP_FRAMES,
                k * CLIP_FRAMES,
                &mut stats,
                spans.as_deref_mut(),
            );
        }
    }
    stats
}

/// Notes the run's counts and tail, and returns its `p50_ms`.
fn report(outcome: &mut Outcome, stats: &PassStats) -> f64 {
    outcome.counts.merge(stats.counts);
    outcome.note(format!(
        "{} frames, {} objects, {}",
        stats.frames,
        stats.objects,
        common::describe_tail(&summarize_ms(&stats.all_ms))
    ));
    stats.fastest.p50_ms()
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let camera = common::timed_setup(&mut outcome, common::SETUP_REPEATS, |_| {
        Camera::build(args.seed)
    });
    outcome.note(format!(
        "{SCENES} scenes of {}x{}, {WORKERS} workers each, clips of {CLIP_FRAMES} frames, \
         {} passes",
        scene_config().width,
        scene_config().height,
        passes(args),
    ));
    let stats = common::guarded(&mut outcome, || measure(&camera, args, None));
    let p50 = report(&mut outcome, &stats);
    outcome.set("p50_ms", p50);
    outcome.set("throughput_per_s", stats.fastest.rate());
    outcome.set("accuracy", stats.accuracy.value());
    common::record_health(&mut outcome, &camera.health());
    common::record_peak_rss(&mut outcome);
    outcome
}

/// The traced run: per-stage spans, the composition check, and the tracing
/// overhead against an untraced run of the same length.
pub fn run_traced(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let camera = Camera::build(args.seed);
    // Each phase makes half the passes of an untraced run, so that the two
    // together take about as long as one.
    let phase = RunArgs {
        seconds: args.seconds / 2.0,
        ..args
    };
    let untraced = common::guarded(&mut outcome, || measure(&camera, phase, None));
    let untraced_p50 = report(&mut outcome, &untraced);
    let mut spans = Spans::default();
    let traced = common::guarded(&mut outcome, || measure(&camera, phase, Some(&mut spans)));
    let traced_p50 = report(&mut outcome, &traced);
    common::record_overhead(&mut outcome, untraced_p50, traced_p50);
    let frames = spans.get("camera.frame").calls;
    for (metric, span) in [
        ("vision.segment_us", "vision.segment"),
        ("vision.label_components_us", "vision.label_components"),
        ("vision.extract_blobs_us", "vision.extract_blobs"),
        ("vision.tracker_us", "vision.tracker"),
        ("vision.histogram_us", "vision.histogram"),
        ("vision.to_signature_us", "vision.to_signature"),
        ("engine.classify_us", "engine.classify"),
        ("camera.frame_us", "camera.frame"),
    ] {
        outcome.set(metric, spans.per_unit_us(span, frames));
    }
    outcome.set(
        "vision.objects_per_frame",
        traced.objects as f64 / frames.max(1) as f64,
    );
    outcome.set(
        "engine.signatures_per_classify",
        traced.objects as f64 / spans.get("engine.classify").calls.max(1) as f64,
    );
    let stages: f64 = [
        "vision.segment",
        "vision.label_components",
        "vision.extract_blobs",
        "vision.tracker",
        "vision.histogram",
        "vision.to_signature",
        "engine.classify",
    ]
    .iter()
    .map(|span| spans.per_unit_us(span, frames))
    .sum();
    outcome.note(format!(
        "traced stages sum to {stages:.2} us of a {:.2} us frame",
        spans.per_unit_us("camera.frame", frames)
    ));
    common::record_health(&mut outcome, &camera.health());
    outcome
}
