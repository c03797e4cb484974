//! Property suite for **copy-on-write snapshot publication** (DESIGN.md
//! §"Copy-on-write publication and the winner search").
//!
//! A publish is a [`PackedLayer`] clone: a spine of `Arc`-per-word-row
//! pointers, never a deep copy. Three properties are pinned down:
//!
//! 1. **Correctness** — every published snapshot is word-for-word equal to a
//!    from-scratch [`PackedLayer::from_neurons`] of the map's weights at
//!    publish time, and
//!    stays bit-identical forever after (training never writes through a
//!    published snapshot's rows).
//! 2. **Exact sharing** — across a single training step, a word row is
//!    physically shared between consecutive snapshots **iff** its content is
//!    unchanged: untouched rows are never copied, touched rows are never
//!    aliased.
//! 3. **Scale** — at the ROADMAP's 1024-neuron × 768-bit shape, a
//!    small-radius step leaves all but the dirtied row shared
//!    (`Arc::ptr_eq` sharing ratio > 0, deterministically 11/12 here), and
//!    a stepless publish shares everything.

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, BSomConfig, PackedLayer, SelfOrganizingMap, TrainSchedule};
use proptest::prelude::*;

fn binary_vector(len: usize) -> impl Strategy<Value = BinaryVector> {
    prop::collection::vec(any::<bool>(), len).prop_map(BinaryVector::from_bits)
}

/// Number of word rows whose content (both planes) is identical in the two
/// layers — the reference count the physical sharing must match.
fn content_equal_rows(a: &PackedLayer, b: &PackedLayer) -> usize {
    (0..a.word_row_count())
        .filter(|&w| a.value_row(w) == b.value_row(w) && a.care_row(w) == b.care_row(w))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Publish-per-step over an arbitrary map: every snapshot equals a fresh
    /// pack at publish time, and — the copy-on-write exactness property —
    /// consecutive snapshots physically share **exactly** the rows the step
    /// left bit-identical (a shared row is trivially equal; an equal row
    /// must not have been copied).
    #[test]
    fn single_step_publishes_share_exactly_the_untouched_rows(
        seed in any::<u64>(),
        neurons in 2usize..24,
        steps in 1usize..10,
        inputs in prop::collection::vec(binary_vector(130), 10),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut som = BSom::new(BSomConfig::new(neurons, 130), &mut rng);
        let schedule = TrainSchedule::new(steps);
        let mut previous = som.packed_layer().clone();
        for (t, input) in inputs.iter().take(steps).enumerate() {
            som.train_step(input, t, &schedule).unwrap();
            let snapshot = som.packed_layer().clone();
            prop_assert_eq!(&snapshot, &PackedLayer::from_neurons(&som.neurons()).unwrap());
            // Physical sharing must match content equality exactly.
            prop_assert_eq!(
                snapshot.shared_row_count(&previous),
                content_equal_rows(&snapshot, &previous)
            );
            previous = snapshot;
        }
    }

    /// Publication isolation at arbitrary publish cadence: snapshots taken
    /// mid-training equal a deep reference copy of the map at their publish
    /// time — and still do after further training, i.e. copy-on-write never
    /// lets a later update write through an already-published row.
    #[test]
    fn published_snapshots_never_move_under_further_training(
        seed in any::<u64>(),
        neurons in 2usize..16,
        cadence in 1usize..4,
        inputs in prop::collection::vec(binary_vector(96), 12),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut som = BSom::new(BSomConfig::new(neurons, 96), &mut rng);
        let schedule = TrainSchedule::new(inputs.len());
        let mut published: Vec<(PackedLayer, PackedLayer)> = Vec::new();
        for (t, input) in inputs.iter().enumerate() {
            som.train_step(input, t, &schedule).unwrap();
            if t % cadence == 0 {
                // from_neurons() builds fresh rows: a deep, unshared
                // reference copy.
                let reference = PackedLayer::from_neurons(&som.neurons()).unwrap();
                published.push((som.packed_layer().clone(), reference));
            }
        }
        for (snapshot, reference) in &published {
            prop_assert_eq!(snapshot, reference);
        }
    }
}

/// The acceptance-criterion shape: 1024 neurons × 768 bits. A radius-1 step
/// whose window mismatches the input in exactly one 64-bit word dirties one
/// of the 12 word rows; the other 11 must stay physically shared with the
/// pre-step snapshot — publish cost is O(rows touched), not O(map).
#[test]
fn small_radius_step_at_1024_neurons_keeps_untouched_rows_shared() {
    let vector_len = 768;
    // The probe pattern: alternating bits, fully concrete.
    let probe: Vec<Trit> = (0..vector_len)
        .map(|i| if i % 2 == 0 { Trit::One } else { Trit::Zero })
        .collect();
    // Neurons 0 and 1 hold the probe pattern exactly; everyone else holds
    // its complement (Hamming distance 768, never the winner). The input
    // differs from the probe in bit 400 only (word row 6), so the radius-1
    // window {0, 1} mismatches the input in exactly one word.
    let complement: Vec<Trit> = probe
        .iter()
        .map(|t| match t {
            Trit::One => Trit::Zero,
            _ => Trit::One,
        })
        .collect();
    let weights: Vec<TriStateVector> = (0..1024)
        .map(|i| {
            let trits = if i < 2 { &probe } else { &complement };
            TriStateVector::from_trits(trits.iter().copied())
        })
        .collect();
    let mut input_bits: Vec<bool> = (0..vector_len).map(|i| i % 2 == 0).collect();
    input_bits[400] = !input_bits[400];
    let input = BinaryVector::from_bits(input_bits);

    // p = 1 makes the relax transition deterministic: the mismatched bit
    // *will* turn `#`, so row 6 is guaranteed dirty (and only row 6).
    let mut som = BSom::from_weights(weights)
        .unwrap()
        .with_update_probabilities(1.0, 1.0);
    assert_eq!(som.packed_layer().neuron_count(), 1024);
    assert_eq!(som.packed_layer().word_row_count(), 12);

    let before = som.packed_layer().clone();
    assert_eq!(
        before.shared_row_count(som.packed_layer()),
        12,
        "a publish with no training in between shares every row"
    );
    assert!(before.shares_counts_with(som.packed_layer()));

    // Last iteration of the schedule: the quartered policy is at radius 1.
    let schedule = TrainSchedule::new(4);
    assert_eq!(schedule.radius_at(3), 1);
    let winner = som.train_step(&input, 3, &schedule).unwrap();
    assert_eq!(
        winner.index, 0,
        "the probe neurons win, address breaks the tie"
    );

    let after = som.packed_layer().clone();
    assert_eq!(
        after,
        PackedLayer::from_neurons(&som.neurons()).unwrap(),
        "snapshot equals a fresh pack"
    );
    let shared = after.shared_row_count(&before);
    assert!(
        shared > 0,
        "consecutive snapshots must share untouched rows"
    );
    assert_eq!(
        shared, 11,
        "exactly the one dirtied word row (bit 400 => row 6) is copied"
    );
    for w in (0..12).filter(|&w| w != 6) {
        assert_eq!(after.value_row(w), before.value_row(w));
        assert_eq!(after.care_row(w), before.care_row(w));
    }
    assert_ne!(
        after.care_row(6),
        before.care_row(6),
        "the relaxed bit cleared a care bit in row 6"
    );
    assert!(
        !after.shares_counts_with(&before),
        "the relax changed #-counts, so the count table was copied"
    );
}
