//! # bsom-engine
//!
//! The train-while-serve engine of the bSOM reproduction.
//!
//! The paper's FPGA runs **one** datapath that both learns and recognizes on
//! the same stored planes — there is no separate "training copy" of the
//! weights. This crate is the software equivalent for serving heavy traffic
//! (ROADMAP north star): the [`SomService`] facade owns a versioned,
//! atomically-swappable snapshot of the plane-sliced competitive layer
//! ([`bsom_som::PackedLayer`], maintained incrementally by the trainer), a
//! [`Trainer`] handle feeds labelled signatures and publishes new snapshots
//! on epoch or step-count boundaries, and any number of [`Recognizer`]
//! handles keep classifying against the snapshot they hold, picking up new
//! versions with one atomic load at their next batch. A batch whose work is
//! at most [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] runs on the calling thread;
//! a larger one is sharded across a fixed worker-thread pool.
//!
//! * [`SomService`] — the facade: snapshot ownership, the worker pool,
//!   [`serve`](SomService::serve) for frozen classifiers and
//!   [`train_while_serve`](SomService::train_while_serve) for online
//!   learning.
//! * [`Trainer`] / [`Recognizer`] — the two handle types.
//! * [`EngineConfig`] — worker count, unknown-rejection override, publish
//!   cadence, bounded-queue capacity.
//! * [`checkpoint`] / [`SomService::resume_from_checkpoint`] — crash-safe
//!   framed checkpoints with bit-identical training continuation;
//!   [`faultpoint`] is the deterministic fault-injection harness
//!   (`fault-injection` feature) that proves the recovery paths.
//! * [`EngineError`] / [`ServiceHealth`] — typed degradation (load
//!   shedding, trainer poisoning) and the supervision counters.
//! * [`throughput`] / [`train`] — measured serving and training throughput
//!   against the `bsom_fpga` cycle model, the tracked benchmark numbers.
//!
//! ## Quick example
//!
//! ```rust
//! use bsom_engine::{EngineConfig, SomService};
//! use bsom_signature::BinaryVector;
//! use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = BinaryVector::from_bits((0..64).map(|i| i < 32));
//! let b = BinaryVector::from_bits((0..64).map(|i| i >= 32));
//! let data = vec![(a.clone(), ObjectLabel::new(0)), (b.clone(), ObjectLabel::new(1))];
//! let som = BSom::new(BSomConfig::new(8, 64), &mut rng);
//!
//! // One service: train and serve over the same packed layout.
//! let (service, mut trainer) =
//!     SomService::train_while_serve(som, TrainSchedule::new(100), &data, EngineConfig::default());
//! trainer.train_epochs(&data, 100, &mut rng).unwrap();
//!
//! let mut recognizer = service.recognizer();
//! let predictions = recognizer.classify_batch(&[a, b][..]);
//! assert_eq!(predictions[0].label(), Some(ObjectLabel::new(0)));
//! assert_eq!(predictions[1].label(), Some(ObjectLabel::new(1)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod faultpoint;
pub mod frame;
pub mod registry;
pub mod registry_bench;
pub mod service;
pub mod throughput;
pub mod train;

use bsom_som::Prediction;
use bsom_vision::pipeline::ObjectObservation;
use serde::{Deserialize, Serialize};

pub use checkpoint::{
    compare_checkpoint_throughput, CheckpointError, CheckpointInfo, CheckpointThroughputComparison,
};
pub use error::EngineError;
pub use registry::{MapRegistry, RegistryConfig, RegistryStats, TenantId, TickReport};
pub use registry_bench::{compare_registry_throughput, RegistryThroughputComparison};
pub use service::{
    Recognizer, ServiceHealth, SignatureBatch, SomService, Trainer,
    INLINE_CLASSIFY_MAX_NEURON_WORDS,
};
pub use throughput::{
    compare_dispatch_throughput, compare_inline_crossover, compare_large_map_throughput,
    compare_recognition_throughput, CrossoverCell, DispatchFigure, DispatchThroughputComparison,
    InlineCrossover, LargeMapThroughputComparison, MeasuredThroughput, ThroughputComparison,
};
pub use train::{compare_training_throughput, TrainReport, TrainThroughputComparison};

/// Configuration for a [`SomService`].
///
/// The default asks the OS for the available parallelism, keeps the
/// classifier's own unknown-rejection threshold, and publishes on epoch
/// boundaries only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EngineConfig {
    /// Number of worker threads. `0` asks the OS for the available
    /// parallelism (falling back to 1 if unknown).
    pub workers: usize,
    /// Overrides the classifier's unknown-rejection distance threshold.
    /// `None` keeps whatever the labelled map was calibrated with.
    pub unknown_threshold: Option<f64>,
    /// Publish a snapshot automatically every this many
    /// [`Trainer::feed`] steps, in addition to the epoch-boundary publishes.
    /// `None` (the default) publishes on epoch boundaries and explicit
    /// [`Trainer::publish`] calls only.
    pub publish_every_steps: Option<u64>,
    /// Per-step retention factor for the [`Trainer`]'s online win
    /// statistics, in `(0, 1)`. With decay `d`, a win recorded `n` feed
    /// steps ago weighs `dⁿ` at labelling time, so neuron labels track
    /// appearance drift automatically instead of needing a manual
    /// [`Trainer::reset_label_stats`] between drift phases. `None` (the
    /// default) keeps every win at full weight forever — the cumulative
    /// behaviour of [`bsom_som::LabelledSom::label`].
    pub label_decay: Option<f64>,
    /// Capacity of the bounded job queue classify shards are submitted
    /// through. `None` (the default) resolves to `4 × workers`, floored at
    /// 16 — enough for a few batches in flight per worker. The bound is the
    /// graceful-degradation lever: a blocking classify waits for space
    /// (backpressure), while [`Recognizer::try_classify_batch`] sheds the
    /// batch with [`EngineError::Overloaded`] instead
    /// of growing the queue without bound. Batches within
    /// [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] run on the calling thread and
    /// never enter the queue.
    pub queue_capacity: Option<usize>,
}

impl EngineConfig {
    /// A configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    /// Overrides the unknown-rejection distance threshold.
    pub fn with_unknown_threshold(mut self, threshold: f64) -> Self {
        self.unknown_threshold = Some(threshold);
        self
    }

    /// Publishes a snapshot every `steps` [`Trainer::feed`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn with_publish_every_steps(mut self, steps: u64) -> Self {
        assert!(steps > 0, "publish cadence must be at least one step");
        self.publish_every_steps = Some(steps);
        self
    }

    /// Decays the online win statistics by `decay` per feed step (see
    /// [`EngineConfig::label_decay`]).
    ///
    /// # Panics
    ///
    /// Panics if `decay` is not strictly inside `(0, 1)`.
    pub fn with_label_decay(mut self, decay: f64) -> Self {
        assert!(
            decay > 0.0 && decay < 1.0,
            "label decay must lie strictly inside (0, 1), got {decay}"
        );
        self.label_decay = Some(decay);
        self
    }

    /// Configures [`EngineConfig::label_decay`] by half-life: a win's weight
    /// halves every `steps` feed steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn with_label_half_life_steps(self, steps: u64) -> Self {
        assert!(steps > 0, "label half-life must be at least one step");
        self.with_label_decay(0.5f64.powf(1.0 / steps as f64))
    }

    /// Bounds the worker pool's job queue at `capacity` shards (see
    /// [`EngineConfig::queue_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least one job");
        self.queue_capacity = Some(capacity);
        self
    }
}

/// One classified tracked-object observation from a frame batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecognizedObject {
    /// The pipeline's observation (track, bbox, histogram, signature).
    pub observation: ObjectObservation,
    /// The identity verdict for the observation's signature.
    pub prediction: Prediction,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use bsom_signature::{BinaryVector, RgbImage};
    use bsom_som::{BSom, BSomConfig, LabelledSom, ObjectLabel, SelfOrganizingMap, TrainSchedule};
    use bsom_vision::pipeline::{PipelineConfig, SurveillancePipeline};
    use bsom_vision::scene::{SceneConfig, SceneSimulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xE961E)
    }

    fn trained_classifier(r: &mut StdRng) -> (LabelledSom<BSom>, Vec<BinaryVector>) {
        let patterns: Vec<BinaryVector> = (0..6).map(|_| BinaryVector::random(96, r)).collect();
        let data: Vec<(BinaryVector, ObjectLabel)> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), ObjectLabel::new(i % 3)))
            .collect();
        let mut som = BSom::new(BSomConfig::new(12, 96), r);
        som.train_labelled_data(&data, TrainSchedule::new(40), r)
            .unwrap();
        (LabelledSom::label(som, &data), patterns)
    }

    #[test]
    fn engine_matches_scalar_classifier_on_a_batch() {
        let mut r = rng();
        let (classifier, _) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(3));
        let batch: Vec<BinaryVector> = (0..50).map(|_| BinaryVector::random(96, &mut r)).collect();
        let batched = service.recognizer().classify_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (signature, prediction) in batch.iter().zip(&batched) {
            assert_eq!(*prediction, classifier.classify(signature));
        }
    }

    #[test]
    fn engine_respects_unknown_threshold_override() {
        let mut r = rng();
        let (classifier, patterns) = trained_classifier(&mut r);
        // Threshold 0 on a far-away probe forces Unknown.
        let service = SomService::serve(
            &classifier,
            EngineConfig::with_workers(2).with_unknown_threshold(0.0),
        );
        assert_eq!(service.snapshot().unknown_threshold(), Some(0.0));
        let probe = !&patterns[0];
        let out = service
            .recognizer()
            .classify_batch(std::slice::from_ref(&probe));
        assert_eq!(out[0], Prediction::Unknown);
    }

    #[test]
    fn wrong_length_signatures_classify_as_unknown() {
        let mut r = rng();
        let (classifier, patterns) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let batch = vec![BinaryVector::zeros(8), patterns[0].clone()];
        let out = service.recognizer().classify_batch(&batch);
        assert_eq!(out[0], Prediction::Unknown);
        assert_eq!(out[1], classifier.classify(&patterns[0]));
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut r = rng();
        let (classifier, _) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        assert!(service.recognizer().classify_batch(&[][..]).is_empty());
    }

    #[test]
    fn more_workers_than_signatures_is_fine() {
        let mut r = rng();
        let (classifier, patterns) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(8));
        assert_eq!(service.worker_count(), 8);
        let out = service.recognizer().classify_batch(&patterns[..2]);
        assert_eq!(out.len(), 2);
        for (s, p) in patterns[..2].iter().zip(&out) {
            assert_eq!(*p, classifier.classify(s));
        }
    }

    #[test]
    fn default_config_resolves_a_positive_worker_count() {
        let mut r = rng();
        let (classifier, _) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::default());
        assert!(service.worker_count() >= 1);
        assert!(!format!("{service:?}").is_empty());
    }

    #[test]
    fn from_parts_rejects_mismatched_labels() {
        let mut r = rng();
        let (classifier, _) = trained_classifier(&mut r);
        let layer = classifier.map().packed_layer().clone();
        let result =
            std::panic::catch_unwind(|| SomService::from_parts(layer, vec![None; 1], None, 1));
        assert!(result.is_err());
    }

    #[test]
    fn process_frames_classifies_every_observation() {
        let mut r = rng();
        // A tiny service over paper-sized signatures (the pipeline emits
        // 768-bit signatures).
        let data: Vec<(BinaryVector, ObjectLabel)> = (0..4)
            .map(|i| (BinaryVector::random(768, &mut r), ObjectLabel::new(i)))
            .collect();
        let mut som = BSom::new(BSomConfig::paper_default(), &mut r);
        som.train_labelled_data(&data, TrainSchedule::new(5), &mut r)
            .unwrap();
        let classifier = LabelledSom::label(som, &data);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));

        let scene_config = SceneConfig {
            entry_probability: 0.0,
            jitter: 0,
            lighting_drift: 0,
            ..SceneConfig::small()
        };
        let mut scene = SceneSimulator::new(scene_config, &mut r);
        let mut pipeline = SurveillancePipeline::with_config(
            scene.config().width,
            scene.config().height,
            PipelineConfig {
                min_object_pixels: Some(300),
                ..PipelineConfig::default()
            },
        );
        for _ in 0..10 {
            pipeline.observe_background(&scene.render_background_only(&mut r));
        }
        scene.spawn_person(4, true);
        let frames: Vec<RgbImage> = (0..12).map(|_| scene.render_frame(&mut r).image).collect();

        let results = service.recognizer().process_frames(&mut pipeline, &frames);
        assert_eq!(results.len(), frames.len());
        let mut seen = 0;
        for frame in &results {
            for recognized in frame {
                seen += 1;
                assert_eq!(recognized.observation.signature.len(), 768);
                // The service's verdict must agree with the scalar classifier.
                assert_eq!(
                    recognized.prediction,
                    classifier.classify(&recognized.observation.signature)
                );
            }
        }
        assert!(seen > 0, "the walking person must be observed");
        assert_eq!(pipeline.frames_processed(), frames.len() as u64);
    }

    #[test]
    fn engine_survives_many_small_batches() {
        let mut r = rng();
        let (classifier, _) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(4));
        let mut recognizer = service.recognizer();
        for _ in 0..20 {
            let batch: Vec<BinaryVector> =
                (0..7).map(|_| BinaryVector::random(96, &mut r)).collect();
            assert_eq!(recognizer.classify_batch(&batch).len(), 7);
        }
    }

    #[test]
    fn zero_copy_batches_are_accepted() {
        let mut r = rng();
        let (classifier, patterns) = trained_classifier(&mut r);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let mut recognizer = service.recognizer();
        let shared = Arc::new(patterns.clone());
        let from_arc = recognizer.classify_batch(Arc::clone(&shared));
        let from_slice = recognizer.classify_batch(&patterns[..]);
        assert_eq!(from_arc, from_slice);
    }
}
