//! # bsom-repro
//!
//! A from-scratch Rust reproduction of **"Binary Object Recognition System on
//! FPGA with bSOM"** (Appiah, Hunter, Dickinson, Meng — SOCC 2010).
//!
//! This facade crate re-exports the whole workspace so applications can use a
//! single dependency:
//!
//! * [`signature`] — binary signatures, tri-state vectors, colour histograms.
//! * [`som`] — the tri-state binary SOM (bSOM) and the conventional SOM
//!   (cSOM) baseline, node labelling, evaluation.
//! * [`vision`] — the synthetic surveillance substrate (scene, background
//!   subtraction, connected components, tracking, signature extraction).
//! * [`dataset`] — labelled synthetic datasets mirroring the paper's data.
//! * [`fpga`] — the cycle-accurate FPGA architecture simulator and the
//!   XC4VLX160 resource model.
//! * [`stats`] — the Wilcoxon rank-sum machinery behind Table II.
//! * [`eval`] — the experiment harness regenerating every table and figure.
//! * [`engine`] — the train-while-serve engine: `SomService` owns a
//!   versioned, atomically-swappable snapshot of the plane-sliced layer; a
//!   `Trainer` publishes while `Recognizer`s classify batches sharded across
//!   a worker pool.
//! * [`serve`] — the TCP serving front-end: a length-prefixed checksummed
//!   wire format, a graceful-drain server that answers each request on its
//!   connection's thread (`bsom-serve` binary) and an open-loop load
//!   generator (`loadgen` binary).
//!
//! ## Quickstart
//!
//! ```rust
//! use bsom_repro::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Generate a small labelled dataset of appearance signatures.
//! let mut rng = StdRng::seed_from_u64(1);
//! let dataset = SurveillanceDataset::generate(
//!     &DatasetConfig { train_instances: 200, test_instances: 100, ..DatasetConfig::paper_default() },
//!     &mut rng,
//! );
//!
//! // Train the bSOM, label its neurons, and evaluate it.
//! let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
//! som.train_labelled_data(&dataset.train, TrainSchedule::new(10), &mut rng).unwrap();
//! let classifier = LabelledSom::label(som, &dataset.train);
//! let eval = evaluate(&classifier, &dataset.test);
//! assert!(eval.accuracy_percent() > 50.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use bsom_dataset as dataset;
pub use bsom_engine as engine;
pub use bsom_eval as eval;
pub use bsom_fpga as fpga;
pub use bsom_serve as serve;
pub use bsom_signature as signature;
pub use bsom_som as som;
pub use bsom_stats as stats;
pub use bsom_vision as vision;

/// The most commonly used items, re-exported flat for convenience.
pub mod prelude {
    pub use bsom_dataset::{AppearanceModel, CorruptionConfig, DatasetConfig, SurveillanceDataset};
    pub use bsom_engine::{
        CheckpointError, EngineConfig, EngineError, MapRegistry, Recognizer, RegistryConfig,
        ServiceHealth, SomService, TenantId, Trainer,
    };
    pub use bsom_fpga::{FpgaBSom, FpgaConfig, ResourceReport};
    pub use bsom_serve::{ServeClient, ServeConfig, Server};
    pub use bsom_signature::{BinaryVector, ColorHistogram, Rgb, TriStateVector, Trit};
    pub use bsom_som::{
        evaluate, BSom, BSomConfig, CSom, CSomConfig, LabelledSom, ObjectLabel, PackedLayer,
        SelfOrganizingMap, TrainSchedule,
    };
    pub use bsom_stats::{wilcoxon_rank_sum, Alternative};
    pub use bsom_vision::pipeline::SurveillancePipeline;
    pub use bsom_vision::scene::{SceneConfig, SceneSimulator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time smoke test: referencing one item from each re-export.
        let _ = crate::signature::SIGNATURE_BITS;
        let _ = crate::som::BSomConfig::paper_default();
        let _ = crate::fpga::FpgaConfig::paper_default();
        let _ = crate::dataset::DatasetConfig::paper_default();
        let _ = crate::stats::Alternative::Less;
    }
}
