//! # bsom-vision
//!
//! The surveillance substrate of the bSOM reproduction.
//!
//! The paper's identification system sits downstream of a CPU-based tracking
//! pipeline (their references \[3\], \[21\]) that segments moving objects from an
//! indoor camera, labels connected components, tracks the resulting blobs and
//! extracts a colour histogram per object per frame. That pipeline — and the
//! two-hour indoor recording it ran on — is not available, so this crate
//! provides the closest synthetic equivalent (see DESIGN.md §"Synthetic data
//! substitutions"):
//!
//! * [`scene`] — a synthetic indoor scene renderer with nine parameterised
//!   "person" appearance models, static furniture that partially occludes
//!   them, lighting drift and camera jitter.
//! * [`background`] — running-average background subtraction over `f64`
//!   estimate planes, producing per-frame foreground masks written 64 pixels
//!   to a packed word by the dispatched `segment_background` kernel.
//! * [`connected`] — run-based connected-components labelling: every row
//!   run found in one pass over the mask's words, joined by union–find to
//!   the runs above it as it is found.
//! * [`blob`] — blob extraction from the runs, bounding boxes, the paper's
//!   < 768-pixel noise filter, and each blob's histogram straight from its
//!   runs.
//!
//! Every stage works on whole mask words or runs, and is held bit-identical
//! to the per-pixel front end it replaced by the oracle suite in
//! `tests/packed_vision.rs` (DESIGN.md §"The packed vision front end").
//! * [`tracker`] — a greedy centroid tracker that maintains object identities
//!   across frames.
//! * [`pipeline`] — the end-to-end composition from frames to labelled
//!   768-bit binary signatures, the exact artefact the bSOM consumes.
//!
//! ## Quick example
//!
//! ```rust
//! use bsom_vision::scene::{SceneConfig, SceneSimulator};
//! use bsom_vision::pipeline::SurveillancePipeline;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = SceneConfig::small();
//! let mut scene = SceneSimulator::new(config, &mut rng);
//! let mut pipeline = SurveillancePipeline::new(scene.config().width, scene.config().height);
//! // Warm the background model on empty frames, then process a frame with people.
//! for _ in 0..5 {
//!     let frame = scene.render_background_only(&mut rng);
//!     pipeline.observe_background(&frame);
//! }
//! let frame = scene.render_frame(&mut rng);
//! let observations = pipeline.process_frame(&frame.image);
//! // Every reported observation carries a 768-bit signature.
//! for obs in &observations {
//!     assert_eq!(obs.signature.len(), 768);
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod background;
pub mod blob;
pub mod connected;
pub mod pipeline;
pub mod scene;
pub mod tracker;

pub use background::{BackgroundConfig, BackgroundModel};
pub use blob::{Blob, BoundingBox, MIN_OBJECT_PIXELS};
pub use connected::{label_components, ComponentLabels, RowRun};
pub use pipeline::{ObjectObservation, SurveillancePipeline};
pub use scene::{PersonModel, SceneConfig, SceneFrame, SceneSimulator};
pub use tracker::{Track, TrackId, Tracker, TrackerConfig};
