//! Property suite pinning the winner search (DESIGN.md §"The batched engine
//! layout" and §"Winner selection and the WTA tie-break key"): for arbitrary
//! layers and inputs — including engineered ties — the plane-sliced
//! [`PackedLayer`] search and [`BSom::winner`] must return identical full
//! distance vectors and the winner of an **independent oracle** written
//! here: per-neuron [`TriStateVector::hamming`] and
//! [`TriStateVector::count_dont_care`], reduced by the minimum over
//! `(distance, #-count, address)`. `BSom` delegates to the packed layer, so
//! comparing the two alone would compare the search with itself.

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, PackedLayer, SelfOrganizingMap};
use proptest::prelude::*;

/// Strategy producing an arbitrary binary input of the given length.
fn binary_vector(len: usize) -> impl Strategy<Value = BinaryVector> {
    prop::collection::vec(any::<bool>(), len).prop_map(BinaryVector::from_bits)
}

/// Strategy producing an arbitrary tri-state weight vector of the given
/// length, with all three trit kinds well represented.
fn tristate_vector(len: usize) -> impl Strategy<Value = TriStateVector> {
    prop::collection::vec(0u8..3, len).prop_map(|raw| {
        TriStateVector::from_trits(raw.into_iter().map(|v| match v {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::DontCare,
        }))
    })
}

/// Strategy producing a whole competitive layer: 1–12 neurons over vectors
/// spanning several 64-bit words (so the masked tail word is exercised).
fn layer(len: usize) -> impl Strategy<Value = Vec<TriStateVector>> {
    prop::collection::vec(tristate_vector(len), 1..12)
}

/// A layer engineered to produce distance ties: neurons are drawn from a
/// tiny pool of base vectors, with only `#`-counts and addresses left to
/// disambiguate.
fn tie_heavy_layer(len: usize) -> impl Strategy<Value = Vec<TriStateVector>> {
    (prop::collection::vec(tristate_vector(len), 1..3), 2usize..9).prop_map(|(bases, copies)| {
        let mut neurons = Vec::new();
        for _ in 0..copies {
            neurons.extend(bases.iter().cloned());
        }
        neurons
    })
}

/// The reference winner `(address, distance, #-count)`: every neuron scored
/// on its own tri-state vector, the smallest `(distance, #-count, address)`
/// tuple winning. Shares no code with the packed search.
fn oracle_winner(weights: &[TriStateVector], input: &BinaryVector) -> (usize, u32, u32) {
    let (distance, dont_care_count, address) = weights
        .iter()
        .enumerate()
        .map(|(address, w)| {
            let distance = w.hamming(input).expect("oracle inputs match the layer");
            (distance as u32, w.count_dont_care() as u32, address)
        })
        .min()
        .expect("non-empty layer");
    (address, distance, dont_care_count)
}

/// Asserts full scalar/batched agreement for one layer and one input, and
/// that both return the oracle's winner.
fn assert_equivalent(
    weights: Vec<TriStateVector>,
    input: &BinaryVector,
) -> Result<(), TestCaseError> {
    let som = BSom::from_weights(weights.clone()).expect("non-empty layer");
    let packed = PackedLayer::from_neurons(&weights).expect("non-empty layer");

    let scalar_distances = som.winner(input).map(|_| som.distances(input).unwrap());
    let packed_distances = packed.distances(input);
    prop_assert_eq!(scalar_distances.is_ok(), packed_distances.is_ok());
    let (Ok(scalar_distances), Ok(packed_distances)) = (scalar_distances, packed_distances) else {
        return Ok(()); // both rejected the input (length mismatch)
    };
    for (s, p) in scalar_distances.iter().zip(&packed_distances) {
        prop_assert_eq!(*s, *p as f64);
    }

    let scalar = som.winner(input).unwrap();
    let batched = packed.winner(input).unwrap();
    let (index, distance, dont_care_count) = oracle_winner(&weights, input);
    prop_assert_eq!(batched.index, index);
    prop_assert_eq!(batched.distance, distance);
    prop_assert_eq!(batched.dont_care_count, dont_care_count);
    prop_assert_eq!(scalar.index, index);
    prop_assert_eq!(scalar.distance, f64::from(distance));
    Ok(())
}

proptest! {
    /// Arbitrary layers and inputs across a word boundary (len 96 = 1.5 words).
    #[test]
    fn batch_winner_matches_scalar_loop(weights in layer(96), input in binary_vector(96)) {
        assert_equivalent(weights, &input)?;
    }

    /// Tie-heavy layers: duplicated neurons force the `{distance, #-count,
    /// address}` tie-break to decide, and it must decide like the oracle.
    #[test]
    fn tie_breaks_are_bit_identical(weights in tie_heavy_layer(64), input in binary_vector(64)) {
        assert_equivalent(weights, &input)?;
    }

    /// The paper's exact shape: 768-bit vectors (12 whole words, no tail).
    #[test]
    fn paper_width_vectors_agree(weights in layer(768), input in binary_vector(768)) {
        assert_equivalent(weights, &input)?;
    }

    /// Wrong-length inputs must be rejected by both paths, never mis-scored.
    #[test]
    fn both_paths_reject_mismatched_lengths(weights in layer(96), input in binary_vector(64)) {
        assert_equivalent(weights, &input)?;
    }

    /// Wide layers (60–160 neurons) agree with the oracle too.
    #[test]
    fn wide_layer_winner_matches_the_oracle(
        weights in prop::collection::vec(tristate_vector(96), 60..160),
        input in binary_vector(96),
    ) {
        assert_equivalent(weights, &input)?;
    }

    /// The batch entry over 1–17 inputs (one to three passes of up to eight)
    /// returns the oracle's winner for every input and equals one-at-a-time
    /// calls; a wrong-length input gets `None` and leaves its neighbours
    /// alone.
    #[test]
    fn winners_batch_equals_pointwise(
        weights in prop::collection::vec(tristate_vector(96), 1..40),
        inputs in prop::collection::vec(binary_vector(96), 1..18),
        short in 0usize..24,
    ) {
        let mut inputs = inputs;
        if short < inputs.len() {
            inputs[short] = BinaryVector::zeros(95);
        }
        let packed = PackedLayer::from_neurons(&weights).expect("non-empty layer");
        let mut batch = vec![None; inputs.len()];
        packed.winners_into(&inputs, &mut batch);
        for (input, batched) in inputs.iter().zip(&batch) {
            prop_assert_eq!(*batched, packed.winner(input).ok());
            if let Some(batched) = batched {
                let (index, distance, dont_care_count) = oracle_winner(&weights, input);
                prop_assert_eq!(
                    (batched.index, batched.distance, batched.dont_care_count),
                    (index, distance, dont_care_count)
                );
            }
        }
        prop_assert_eq!(batch.iter().filter(|w| w.is_none()).count(), usize::from(short < inputs.len()));
    }
}

/// A deterministic 2,100-neuron × 70-bit map with equal-distance neurons
/// planted on both sides of the 1,024-neuron edge (an edge of the eight-lane
/// blocks and of the row-kernel blocks alike): for input `x`, neurons 1023
/// and 1024 tie on distance and the `#`-count decides (towards the higher
/// address); for `!x`, neurons 1022 and 1025 tie on distance and `#`-count,
/// and the address decides. The batch entry, with `x` and `!x` repeated
/// across the eight-input group edge, must agree.
#[test]
fn ties_across_the_distance_block_edge_follow_the_full_key() {
    const NEURONS: usize = 2_100;
    const LEN: usize = 70;
    let x = BinaryVector::from_bits((0..LEN).map(|k| k % 3 == 0));
    let not_x = !&x;
    // `base` with bits `flips` inverted and bits `dont_cares` set to `#`.
    let plant = |base: &BinaryVector, flips: &[usize], dont_cares: std::ops::Range<usize>| {
        let mut w = TriStateVector::from_binary(base);
        for &k in flips {
            w.set(k, Trit::from_bit(!base.bit(k)));
        }
        for k in dont_cares {
            w.set(k, Trit::DontCare);
        }
        w
    };
    // Every other neuron is concrete and 35 bits from both inputs.
    let mut weights: Vec<TriStateVector> = (0..NEURONS)
        .map(|i| {
            let flips: Vec<usize> = (0..LEN).filter(|k| (k + i) % 2 == 0).collect();
            plant(&x, &flips, 0..0)
        })
        .collect();
    weights[1023] = plant(&x, &[1, 2], 40..46);
    weights[1024] = plant(&x, &[1, 2], 40..43);
    weights[1022] = plant(&not_x, &[5], 50..54);
    weights[1025] = plant(&not_x, &[6], 60..64);

    let packed = PackedLayer::from_neurons(&weights).unwrap();
    let som = BSom::from_weights(weights.clone()).unwrap();
    for (input, expected) in [(&x, (1024, 2, 3)), (&not_x, (1022, 1, 4))] {
        assert_eq!(oracle_winner(&weights, input), expected);
        let batched = packed.winner(input).unwrap();
        assert_eq!(
            (batched.index, batched.distance, batched.dont_care_count),
            expected
        );
        let scalar = som.winner(input).unwrap();
        assert_eq!(
            (scalar.index, scalar.distance),
            (expected.0, f64::from(expected.1))
        );
    }
    let inputs: Vec<BinaryVector> = (0..10)
        .map(|i| if i % 2 == 0 { x.clone() } else { not_x.clone() })
        .collect();
    let mut batch = vec![None; inputs.len()];
    packed.winners_into(&inputs, &mut batch);
    for (input, batched) in inputs.iter().zip(&batch) {
        assert_eq!(*batched, Some(packed.winner(input).unwrap()));
    }
}
