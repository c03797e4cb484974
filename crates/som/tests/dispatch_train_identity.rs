//! Full-train dispatch identity: every selectable SIMD lowering must
//! reproduce the forced-scalar training run **bit for bit** — weights,
//! cached `#`-counts, the maintained packed layout, and the xorshift64*
//! stream itself.
//!
//! The wide kernels (DESIGN.md §"Wide-lane kernels and dispatch") never
//! touch the RNG: mask drawing stays word-sequential through the
//! lane-batched draw entry, so the stream a train run consumes is a pure
//! function of the data — not of the dispatch. The strongest observable of
//! that claim is whole-map equality after a real training run: `BSom`'s
//! `PartialEq` covers the private RNG state, so one `assert_eq!` pins
//! weights, `#`-counts *and* stream position at once. The maintained
//! [`PackedLayer`] is additionally compared against a from-scratch
//! [`PackedLayer::from_neurons`] of the map's weights, so the incremental
//! popcount/plane maintenance under each lowering is checked against a full
//! rebuild.

use bsom_signature::lanes::Dispatch;
use bsom_signature::{force_dispatch, BinaryVector};
use bsom_som::{BSom, BSomConfig, NeighbourRule, PackedLayer, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes the tests in this binary around the process-wide forced
/// dispatch so each run is attributable to one lowering. (Races would not
/// corrupt results — every lowering is bit-identical — but the test names
/// should mean what they say.)
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// Trains a fresh map under one forced dispatch and returns it.
fn train_under(
    dispatch: Dispatch,
    config: &BSomConfig,
    patterns: &[BinaryVector],
    iterations: usize,
    seed: u64,
) -> BSom {
    force_dispatch(Some(dispatch)).expect("test only forces available lowerings");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut som = BSom::new(*config, &mut rng);
    som.train(patterns, TrainSchedule::new(iterations), &mut rng)
        .expect("training the test corpus succeeds");
    som
}

/// Random signatures of length `len` (including partial final words).
fn patterns(len: usize, count: usize, rng: &mut StdRng) -> Vec<BinaryVector> {
    (0..count).map(|_| BinaryVector::random(len, rng)).collect()
}

/// The identity assertion for one configuration: the scalar run is the
/// reference, and every available lowering must reproduce it exactly.
fn assert_all_dispatches_identical(
    config: &BSomConfig,
    corpus: &[BinaryVector],
    iterations: usize,
    seed: u64,
) {
    let reference = train_under(Dispatch::Scalar, config, corpus, iterations, seed);
    let repacked = PackedLayer::from_neurons(&reference.neurons()).unwrap();
    assert_eq!(
        *reference.packed_layer(),
        repacked,
        "scalar maintained layout must equal a from-scratch pack"
    );
    for dispatch in Dispatch::available() {
        let som = train_under(dispatch, config, corpus, iterations, seed);
        assert_eq!(
            som, reference,
            "{dispatch} training run diverged from scalar (weights, #-counts or RNG stream)"
        );
        assert_eq!(
            *som.packed_layer(),
            repacked,
            "{dispatch} maintained layout must equal a from-scratch pack"
        );
    }
}

#[test]
fn full_train_runs_are_bit_identical_under_every_dispatch() {
    let guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x51_D01D);
    // Partial-tail vector length (not a multiple of 64) and a map wide
    // enough for multi-word rows through every lane width.
    let corpus = patterns(190, 12, &mut rng);
    let config = BSomConfig::new(24, 190)
        .with_neighbour_rule(NeighbourRule::SameAsWinner)
        .with_update_probabilities(0.3, 0.3);
    assert_all_dispatches_identical(&config, &corpus, 3, 0xBEE5);
    force_dispatch(None).expect("clearing the override always succeeds");
    drop(guard);
}

#[test]
fn distinct_probabilities_draw_the_same_stream_under_every_dispatch() {
    let guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0xACE);
    // Distinct relax/commit probabilities disable the shared-draw
    // coalescing, so this covers the two-draws-per-word stream shape too.
    let corpus = patterns(130, 8, &mut rng);
    let config = BSomConfig::new(16, 130).with_update_probabilities(0.45, 0.15);
    assert_all_dispatches_identical(&config, &corpus, 2, 0x7EA7);
    force_dispatch(None).expect("clearing the override always succeeds");
    drop(guard);
}

#[test]
fn relax_only_neighbours_stay_identical_under_every_dispatch() {
    let guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0xC0FE);
    let corpus = patterns(96, 6, &mut rng);
    let config = BSomConfig::new(10, 96)
        .with_neighbour_rule(NeighbourRule::RelaxOnly)
        .with_update_probabilities(0.3, 0.3);
    assert_all_dispatches_identical(&config, &corpus, 2, 0x1DEA);
    force_dispatch(None).expect("clearing the override always succeeds");
    drop(guard);
}

#[test]
fn blocked_distance_walk_matches_per_neuron_distances_past_the_block_width() {
    // 2560 neurons span ten 256-neuron blocks of the winner kernel's
    // row-kernel arms (and 320 eight-lane AVX-512 blocks); every distance
    // must equal the per-neuron reference Hamming.
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let len = 70; // two words, partial tail
    let neurons = 2560;
    let som = BSom::new(BSomConfig::new(neurons, len), &mut rng);
    let input = BinaryVector::random(len, &mut rng);
    let distances = som
        .packed_layer()
        .distances(&input)
        .expect("length matches");
    assert_eq!(distances.len(), neurons);
    for (i, weight) in som.neurons().iter().enumerate() {
        assert_eq!(
            distances[i] as usize,
            weight.hamming(&input).expect("length matches"),
            "neuron {i}"
        );
    }
    // The blocked winner search must agree with the distances.
    let winner = som.winner(&input).expect("length matches");
    let best = (0..neurons).min_by_key(|&i| (distances[i], i)).unwrap();
    assert_eq!(winner.distance as u32, distances[best]);
}
