//! # bsom-bench
//!
//! Shared fixtures for the Criterion benchmark suite. Each bench target under
//! `benches/` regenerates the workload behind one table or figure of the
//! paper (see DESIGN.md §"Experiment and ablation index"); this library only holds the
//! common dataset/map builders so the individual benches stay small and the
//! fixtures stay identical across them. [`pipeline`] holds the populated
//! scene that `fig6_pipeline` and `bench_report --only pipeline` share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod pipeline;

use bsom_dataset::{DatasetConfig, SurveillanceDataset};
use bsom_som::{BSom, BSomConfig, CSom, CSomConfig, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The dataset size used by the benchmark fixtures (kept small so a full
/// `cargo bench` run stays in the minutes range on one core).
pub const BENCH_TRAIN: usize = 300;

/// Test-split size of the benchmark fixture dataset.
pub const BENCH_TEST: usize = 150;

/// Builds the shared benchmark dataset (nine identities, reduced volume,
/// paper-default corruption), deterministically from a fixed seed.
pub fn bench_dataset() -> SurveillanceDataset {
    let config = DatasetConfig {
        train_instances: BENCH_TRAIN,
        test_instances: BENCH_TEST,
        ..DatasetConfig::paper_default()
    };
    SurveillanceDataset::generate(&config, &mut StdRng::seed_from_u64(0xBE9C))
}

/// Builds a bSOM already trained on the benchmark dataset.
pub fn trained_bsom(dataset: &SurveillanceDataset, iterations: usize) -> BSom {
    let mut rng = StdRng::seed_from_u64(0xB50A);
    let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
    som.train_labelled_data(&dataset.train, TrainSchedule::new(iterations), &mut rng)
        .expect("benchmark dataset is non-empty");
    som
}

/// Builds a cSOM already trained on the benchmark dataset.
pub fn trained_csom(dataset: &SurveillanceDataset, iterations: usize) -> CSom {
    let mut rng = StdRng::seed_from_u64(0xC50A);
    let mut som = CSom::new(CSomConfig::paper_default(), &mut rng);
    som.train_labelled_data(&dataset.train, TrainSchedule::new(iterations), &mut rng)
        .expect("benchmark dataset is non-empty");
    som
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_correctly_sized() {
        let a = bench_dataset();
        let b = bench_dataset();
        assert_eq!(a.train, b.train);
        assert_eq!(a.train.len(), BENCH_TRAIN);
        assert_eq!(a.test.len(), BENCH_TEST);
        let som = trained_bsom(&a, 2);
        assert_eq!(som.neuron_count(), 40);
        let csom = trained_csom(&a, 1);
        assert_eq!(csom.neuron_count(), 40);
    }
}
