//! # bsom-som
//!
//! The paper's primary contribution: a **tri-state binary Self-Organizing Map
//! (bSOM)** for appearance-based object identification, together with the
//! conventional Kohonen SOM (**cSOM**) baseline it is benchmarked against.
//!
//! ## Contents
//!
//! * [`BSom`] — a SOM whose neurons hold tri-state weight vectors over
//!   `{0, 1, #}` and whose similarity measure is the #-aware Hamming
//!   distance (paper §III, §V). Training uses the reconstructed tri-state
//!   rule documented on [`bsom::BSom::train_step`].
//! * [`CSom`] — the conventional real-valued Kohonen SOM used as the paper's
//!   baseline (Table I), operating on the same binary signatures interpreted
//!   as 0.0/1.0 values.
//! * [`SelfOrganizingMap`] — the common interface that lets the labelling,
//!   evaluation and benchmark code treat both maps uniformly.
//! * [`LabelledSom`] — a trained map plus the win-frequency node labelling of
//!   §III-B, turning the map into an object classifier with an *unknown*
//!   rejection threshold.
//! * [`evaluate`] / [`Evaluation`] — train/test evaluation producing the
//!   accuracy numbers reported in Table I, plus confusion matrices.
//!
//! ## Quick example
//!
//! ```rust
//! use bsom_signature::BinaryVector;
//! use bsom_som::{BSom, BSomConfig, LabelledSom, ObjectLabel, SelfOrganizingMap, TrainSchedule};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Two clearly separated 32-bit "signatures".
//! let a = BinaryVector::from_bit_str("11111111111111110000000000000000").unwrap();
//! let b = BinaryVector::from_bit_str("00000000000000001111111111111111").unwrap();
//! let data = vec![
//!     (a.clone(), ObjectLabel::new(0)),
//!     (b.clone(), ObjectLabel::new(1)),
//! ];
//!
//! let config = BSomConfig::new(4, 32);
//! let mut som = BSom::new(config, &mut rng);
//! som.train_labelled_data(&data, TrainSchedule::new(100), &mut rng);
//! let classifier = LabelledSom::label(som, &data);
//! assert_eq!(classifier.classify(&a).label(), Some(ObjectLabel::new(0)));
//! assert_eq!(classifier.classify(&b).label(), Some(ObjectLabel::new(1)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bsom;
pub mod classifier;
pub mod csom;
pub mod error;
pub mod labeling;
pub mod packed;
pub mod schedule;
pub mod som_trait;

pub use bsom::{BSom, BSomConfig, NeighbourRule};
pub use classifier::{evaluate, ConfusionMatrix, Evaluation, Prediction};
pub use csom::{CSom, CSomConfig, NeighbourhoodKernel};
pub use error::SomError;
pub use labeling::{LabelledSom, ObjectLabel};
pub use packed::{BatchWinner, PackedLayer};
pub use schedule::{NeighbourhoodSchedule, TrainSchedule};
pub use som_trait::{SelfOrganizingMap, Winner};
