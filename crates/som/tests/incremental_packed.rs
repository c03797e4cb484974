//! Property suite for the incrementally-maintained packed layout: after an
//! arbitrary training run — word-parallel or bit-serial, with arbitrary
//! update probabilities and out-of-band `set_neuron` writes — the layer
//! [`BSom`] maintained word by word through
//! [`PackedLayer::apply_neuron_update`] must equal a from-scratch
//! [`PackedLayer::from_neurons`] of the final map's gathered weights, word
//! for word (so its `#`-counts equal a recount).

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, BSomConfig, PackedLayer, SelfOrganizingMap, TrainSchedule};
use proptest::prelude::*;

fn binary_vector(len: usize) -> impl Strategy<Value = BinaryVector> {
    prop::collection::vec(any::<bool>(), len).prop_map(BinaryVector::from_bits)
}

fn tristate_vector(len: usize) -> impl Strategy<Value = TriStateVector> {
    prop::collection::vec(0u8..3, len).prop_map(|raw| {
        TriStateVector::from_trits(raw.into_iter().map(|v| match v {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::DontCare,
        }))
    })
}

/// Word-for-word equality of the maintained layer against a fresh pack:
/// planes, `#`-counts and shape all compared through `PartialEq`.
fn assert_packed_fresh(som: &BSom) -> Result<(), TestCaseError> {
    let fresh = PackedLayer::from_neurons(&som.neurons()).unwrap();
    prop_assert_eq!(som.packed_layer(), &fresh);
    Ok(())
}

proptest! {
    /// A random word-parallel training run over a word-boundary-crossing
    /// width (70 bits: masked tail word in play).
    #[test]
    fn word_parallel_training_maintains_the_pack(
        seed in any::<u64>(),
        patterns in prop::collection::vec(binary_vector(70), 1..6),
        epochs in 1usize..12,
        relax in 0u8..5,
        commit in 0u8..5,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = BSomConfig::new(7, 70)
            .with_update_probabilities(f64::from(relax) / 4.0, f64::from(commit) / 4.0);
        let mut som = BSom::new(config, &mut rng);
        som.train(&patterns, TrainSchedule::new(epochs), &mut rng).unwrap();
        assert_packed_fresh(&som)?;
    }

    /// The bit-serial reference path maintains the same shared layout.
    #[test]
    fn bit_serial_training_maintains_the_pack(
        seed in any::<u64>(),
        patterns in prop::collection::vec(binary_vector(96), 1..5),
        steps in 1usize..20,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut som = BSom::new(BSomConfig::new(5, 96), &mut rng);
        let schedule = TrainSchedule::new(4);
        for t in 0..steps {
            let input = &patterns[t % patterns.len()];
            som.train_step_bit_serial(input, t % 4, &schedule).unwrap();
        }
        assert_packed_fresh(&som)?;
    }

    /// Out-of-band weight writes (`set_neuron`) go through the same
    /// incremental hook. The rows are the only copy of the weights, so each
    /// write is checked against the value written: the written neuron
    /// gathers back exactly, with its `#`-count, and every other neuron
    /// gathers unchanged (a write into a neighbour's column, or a value
    /// plane changed without its care plane, fails here).
    #[test]
    fn set_neuron_maintains_the_pack(
        seed in any::<u64>(),
        writes in prop::collection::vec((0usize..4, tristate_vector(70)), 1..5),
        input in binary_vector(70),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut som = BSom::new(BSomConfig::new(4, 70), &mut rng);
        for (index, replacement) in writes {
            let mut expected = som.neurons();
            expected[index] = replacement.clone();
            let count = replacement.count_dont_care() as u32;
            som.set_neuron(index, replacement).unwrap();
            prop_assert_eq!(som.neurons(), expected);
            prop_assert_eq!(som.dont_care_counts()[index], count);
        }
        som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        assert_packed_fresh(&som)?;
    }
}
