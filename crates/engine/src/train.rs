//! The training half of the engine's measurements: the [`TrainReport`] a
//! [`crate::Trainer::train_epochs`] call returns, and
//! [`compare_training_throughput`], which measures the plane-sliced window
//! path [`SelfOrganizingMap::train_step`] against the bit-serial training
//! oracle ([`BSom::train_step_bit_serial`]) under identical seeds and data —
//! the numbers `BENCH_train.json` and the `train_throughput` bench track
//! across PRs.

use std::time::Duration;

use bsom_signature::BinaryVector;
use bsom_som::som_trait::shuffle;
use bsom_som::{BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::throughput::{measure, MeasuredThroughput};

/// Rebuilds `order` as the identity permutation and shuffles it — one
/// epoch's presentation order. Re-initializing from the identity (rather
/// than shuffling the previous permutation in place) keeps a training run
/// split across calls bit-identical to a one-shot run with the same RNG
/// stream.
pub(crate) fn fresh_shuffled_order<R: Rng + ?Sized>(order: &mut [usize], rng: &mut R) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    shuffle(order, rng);
}

/// One completed [`Trainer::train_epochs`](crate::Trainer::train_epochs)
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs run by this call (full shuffled passes over the data).
    pub epochs: usize,
    /// Training steps (pattern presentations) run by this call.
    pub steps: u64,
    /// Wall-clock seconds the call took.
    pub seconds: f64,
    /// Steps per second over the call.
    pub steps_per_second: f64,
}

/// The two training datapaths under identical seeds: the bit-serial oracle
/// and the plane-sliced neighbourhood window path that
/// [`SelfOrganizingMap::train_step`] runs in production.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainThroughputComparison {
    /// Neurons in the measured configuration.
    pub neurons: usize,
    /// Vector length in bits.
    pub vector_len: usize,
    /// Patterns per epoch (the measured batch).
    pub patterns: usize,
    /// Neighbourhood radius held constant across the measurement (the
    /// paper's maximum, 4) — the cost of a step grows with the window it
    /// updates, so the figure is meaningless without it.
    pub radius: usize,
    /// The bit-serial reference path ([`BSom::train_step_bit_serial`]).
    pub bit_serial: MeasuredThroughput,
    /// The plane-sliced window path ([`SelfOrganizingMap::train_step`]) —
    /// one broadcast mask stream across the neighbourhood address window.
    pub window: MeasuredThroughput,
}

impl TrainThroughputComparison {
    /// Speed-up of the production (window) train step over the bit-serial
    /// reference.
    pub fn speedup(&self) -> f64 {
        self.window.patterns_per_second / self.bit_serial.patterns_per_second
    }
}

impl std::fmt::Display for TrainThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "training throughput ({} neurons x {} bits, {} patterns/epoch, radius {})",
            self.neurons, self.vector_len, self.patterns, self.radius
        )?;
        writeln!(
            f,
            "  bit-serial     {:>12.0} steps/s",
            self.bit_serial.patterns_per_second
        )?;
        write!(
            f,
            "  window         {:>12.0} steps/s  ({:.2}x bit-serial)",
            self.window.patterns_per_second,
            self.speedup()
        )
    }
}

/// Measures the two training datapaths' steps-per-second on the given
/// configuration and data, at the paper's maximum neighbourhood radius (4).
///
/// All paths start from **identically seeded clones** of the same map and
/// repeatedly sweep `data` in index order (training keeps mutating the map,
/// as in a real run, so the figure reflects steady-state trainer cost, not
/// the cost on frozen weights). `min_duration` of wall clock is spent on
/// each path. One *step* is one pattern presentation — winner search plus
/// neighbourhood update.
///
/// # Panics
///
/// Panics if `data` is empty or a pattern length disagrees with `config`.
pub fn compare_training_throughput(
    config: BSomConfig,
    data: &[BinaryVector],
    min_duration: Duration,
    seed: u64,
) -> TrainThroughputComparison {
    let radius = 4;
    assert!(!data.is_empty(), "cannot measure an empty training set");
    use bsom_som::NeighbourhoodSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let som = BSom::new(config, &mut rng);
    // Hold the radius fixed so every measured step updates the same window
    // width.
    let schedule = TrainSchedule::new(usize::MAX)
        .with_neighbourhood(NeighbourhoodSchedule::Constant { radius });
    let epoch = data.len();

    let mut serial = som.clone();
    let mut t = 0usize;
    let bit_serial = measure(epoch, min_duration, || {
        for input in data {
            std::hint::black_box(
                serial
                    .train_step_bit_serial(input, t, &schedule)
                    .expect("pattern lengths match the config"),
            );
        }
        t += 1;
    });

    let mut windowed = som;
    let mut t = 0usize;
    let window = measure(epoch, min_duration, || {
        for input in data {
            std::hint::black_box(
                windowed
                    .train_step(input, t, &schedule)
                    .expect("pattern lengths match the config"),
            );
        }
        t += 1;
    });

    TrainThroughputComparison {
        neurons: config.neurons,
        vector_len: config.vector_len,
        patterns: epoch,
        radius,
        bit_serial,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsom_som::{LabelledSom, ObjectLabel, Prediction, SomError};

    use crate::{EngineConfig, SomService, Trainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x7121A)
    }

    fn labelled(r: &mut StdRng, n: usize, len: usize) -> Vec<(BinaryVector, ObjectLabel)> {
        (0..n)
            .map(|i| (BinaryVector::random(len, r), ObjectLabel::new(i % 2)))
            .collect()
    }

    fn trainer(som: BSom, schedule: TrainSchedule) -> Trainer {
        SomService::train_while_serve(som, schedule, &[], EngineConfig::with_workers(1)).1
    }

    #[test]
    fn train_epochs_advances_the_schedule_and_counts_steps() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let data = labelled(&mut r, 6, 64);
        let mut trainer = trainer(som, TrainSchedule::new(10));
        let first = trainer.train_epochs(&data, 4, &mut r).unwrap();
        assert_eq!(first.epochs, 4);
        assert_eq!(first.steps, 24);
        assert_eq!(trainer.epochs_run(), 4);
        let rest = trainer.train_epochs(&data, 6, &mut r).unwrap();
        assert_eq!(rest.epochs, 6);
        assert_eq!(trainer.epochs_run(), 10);
        assert_eq!(trainer.steps_run(), 60);
        assert!(first.steps_per_second > 0.0);
    }

    #[test]
    fn split_training_matches_one_shot_training_deterministically() {
        // Same construction seed + same epoch RNG stream => identical maps,
        // whether the epochs run in one call or two.
        let mut build = rng();
        let som = BSom::new(BSomConfig::new(8, 96), &mut build);
        let data = labelled(&mut build, 5, 96);

        let mut one_rng = StdRng::seed_from_u64(42);
        let mut one = trainer(som.clone(), TrainSchedule::new(8));
        one.train_epochs(&data, 8, &mut one_rng).unwrap();

        let mut two_rng = StdRng::seed_from_u64(42);
        let mut two = trainer(som, TrainSchedule::new(8));
        two.train_epochs(&data, 3, &mut two_rng).unwrap();
        two.train_epochs(&data, 5, &mut two_rng).unwrap();

        assert_eq!(one.som(), two.som());
    }

    #[test]
    fn empty_training_set_errors() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(4, 32), &mut r);
        let mut trainer = trainer(som, TrainSchedule::new(5));
        assert_eq!(
            trainer.train_epochs(&[], 3, &mut r),
            Err(SomError::EmptyTrainingSet)
        );
    }

    #[test]
    fn finish_produces_a_serving_engine() {
        // The offline flow: train, take the map back, label it, serve it
        // frozen.
        let mut r = rng();
        let labelled = labelled(&mut r, 4, 96);
        let som = BSom::new(BSomConfig::new(8, 96), &mut r);
        let mut trainer = trainer(som, TrainSchedule::new(30));
        trainer.train_epochs(&labelled, 30, &mut r).unwrap();
        let classifier = LabelledSom::label(trainer.into_som(), &labelled);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let patterns: Vec<BinaryVector> = labelled.iter().map(|(s, _)| s.clone()).collect();
        let predictions = service.recognizer().classify_batch(&patterns);
        for (pattern, prediction) in labelled.iter().zip(&predictions) {
            assert_eq!(
                prediction.label(),
                Some(pattern.1),
                "trained service must recall its own training patterns"
            );
            assert!(matches!(prediction, Prediction::Known { .. }));
        }
    }

    #[test]
    fn into_som_returns_the_trained_map() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(4, 32), &mut r);
        let data = labelled(&mut r, 3, 32);
        let mut trainer = trainer(som, TrainSchedule::new(4));
        trainer.train_epochs(&data, 4, &mut r).unwrap();
        let expected = trainer.som().clone();
        let trained = trainer.into_som();
        assert_eq!(trained, expected);
        assert_eq!(trained.neuron_count(), 4);
    }

    #[test]
    fn comparison_produces_positive_figures_and_renders() {
        let mut r = rng();
        let data: Vec<BinaryVector> = (0..8).map(|_| BinaryVector::random(768, &mut r)).collect();
        let comparison = compare_training_throughput(
            BSomConfig::paper_default(),
            &data,
            Duration::from_millis(20),
            0xB50A,
        );
        assert_eq!(comparison.neurons, 40);
        assert_eq!(comparison.vector_len, 768);
        assert_eq!(comparison.patterns, 8);
        assert_eq!(comparison.radius, 4);
        assert!(comparison.bit_serial.patterns_per_second > 0.0);
        assert!(comparison.window.patterns_per_second > 0.0);
        assert!(comparison.speedup() > 0.0);
        let text = comparison.to_string();
        assert!(text.contains("bit-serial"));
        assert!(text.contains("window"));
        let json = serde_json::to_string(&comparison).unwrap();
        assert!(json.contains("bit_serial"));
        assert!(json.contains("window"));
    }

    // Wall-clock assertion: sound in release on an idle machine but noisy on
    // a loaded CI runner or under the dev profile, so opt-in, mirroring the
    // recognition-side policy. Run with
    // `cargo test -p bsom-engine --release -- --ignored`.
    #[test]
    #[ignore = "wall-clock perf assertion; covered by the train_throughput bench"]
    fn word_parallel_trainer_is_at_least_5x_the_bit_serial_baseline() {
        let mut r = rng();
        let data: Vec<BinaryVector> = (0..32).map(|_| BinaryVector::random(768, &mut r)).collect();
        let comparison = compare_training_throughput(
            BSomConfig::paper_default(),
            &data,
            Duration::from_millis(150),
            0xB50A,
        );
        assert!(
            comparison.speedup() >= 5.0,
            "word-parallel trainer should be >= 5x bit-serial, got {:.2}x",
            comparison.speedup()
        );
    }
}
