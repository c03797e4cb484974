//! On-chip training held to the software trainer, bit for bit.
//!
//! The FPGA model trains through its own neighbourhood-update block: its own
//! radius schedule (`NeighbourhoodUpdateBlock::radius_at`), its own clamped
//! address window and a per-bit, per-neuron LFSR coin. At update
//! probabilities 0 and 1 no coin is random, so [`FpgaBSom::train_pattern`]
//! and [`BSom`]'s `train_step` under [`NeighbourRule::SameAsWinner`] must
//! agree after every step: the same winner index and distance, every weight
//! and every neuron's `#`-count, over whole runs from the same random
//! tri-state weights.

use bsom_fpga::{FpgaBSom, FpgaConfig};
use bsom_signature::{BinaryVector, TriStateVector};
use bsom_som::{BSom, NeighbourRule, NeighbourhoodSchedule, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains both models for a whole run of `iterations` presentations, one
/// iteration index per presentation, and compares them after every step.
fn assert_training_agrees(neurons: usize, vector_len: usize, iterations: usize, p: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<TriStateVector> = (0..neurons)
        .map(|_| TriStateVector::random_with_dont_care(vector_len, 0.25, &mut rng))
        .collect();
    let patterns: Vec<BinaryVector> = (0..8)
        .map(|_| BinaryVector::random(vector_len, &mut rng))
        .collect();

    let config = FpgaConfig {
        neurons,
        vector_len,
        relax_probability: p,
        commit_probability: p,
        ..FpgaConfig::paper_default()
    };
    let mut fpga = FpgaBSom::new(config, seed);
    fpga.load_weights(weights.clone());
    let mut som = BSom::from_weights(weights.clone())
        .unwrap()
        .with_update_probabilities(p, p);
    let schedule = TrainSchedule::new(iterations);
    assert_eq!(som.config().neighbour_rule, NeighbourRule::SameAsWinner);
    assert_eq!(
        schedule.neighbourhood,
        NeighbourhoodSchedule::Quartered {
            max_radius: config.max_neighbourhood
        }
    );

    for t in 0..iterations {
        let input = &patterns[rng.gen_range(0..patterns.len())];
        let context = format!("{neurons} x {vector_len}, p = {p}, seed {seed}, step {t}");
        let hardware = fpga.train_pattern(input, t, iterations).unwrap().winner;
        let software = som.train_step(input, t, &schedule).unwrap();
        assert_eq!(hardware.index, software.index, "winner, {context}");
        assert_eq!(hardware.distance, software.distance, "distance, {context}");
        assert_eq!(
            fpga.weights(),
            som.neurons().as_slice(),
            "weights, {context}"
        );
        let dont_cares: Vec<u32> = fpga
            .weights()
            .iter()
            .map(|weight| weight.count_dont_care() as u32)
            .collect();
        assert_eq!(dont_cares, som.dont_care_counts(), "#-counts, {context}");
    }
    // Undamped, the run must have trained; at p = 0 nothing may move.
    assert_eq!(fpga.weights() == weights.as_slice(), p == 0.0);
}

#[test]
fn the_paper_map_trains_identically_at_p_0_and_1() {
    for seed in [0xF96A, 0x5EED] {
        for p in [0.0, 1.0] {
            assert_training_agrees(40, 768, 96, p, seed);
        }
    }
}

#[test]
fn a_ragged_map_trains_identically_at_p_0_and_1() {
    for seed in 1..=4 {
        for p in [0.0, 1.0] {
            assert_training_agrees(9, 70, 60, p, seed);
        }
    }
}
