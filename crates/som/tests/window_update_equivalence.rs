//! Property suite pinning the plane-sliced neighbourhood update to the
//! bit-serial training oracle (DESIGN.md §"The neighbourhood broadcast
//! update").
//!
//! The window path draws **one** broadcast mask stream per training step and
//! shares it across every neuron in the neighbourhood address window; the
//! bit-serial path flips one scalar coin per bit per neuron. The two
//! therefore consume the shared xorshift64* state differently, and the
//! equivalence guarantee is two-tiered:
//!
//! * for probabilities 0 and 1 neither path consumes randomness, so
//!   [`BSom::train_step`](bsom_som::SelfOrganizingMap::train_step) (window)
//!   and [`BSom::train_step_bit_serial`](bsom_som::BSom::train_step_bit_serial)
//!   must produce **bit-identical** maps — weights, cached `#`-counts, RNG
//!   state and all, under every neighbour rule;
//! * for interior probabilities every transition the window path makes must
//!   be *legal* under the tri-state rule table, and the *number* of
//!   transitions must match the configured probability statistically under
//!   fixed seeds (each neuron's marginal flip count is Binomial even though
//!   the broadcast mask correlates flips *across* neurons — that correlation
//!   is the FPGA's, not a bug).
//!
//! Additionally, after any window-path run the incrementally maintained
//! [`PackedLayer`] must equal a from-scratch `PackedLayer::from_neurons` of
//! its gathered weights word for word — the window update writes the packed
//! columns in place and maintains the `#`-counts from popcount deltas, so
//! this pins the counts to a recount.
//!
//! Vector lengths deliberately include non-multiples of 64 so the masked
//! final partial word is always in play.

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, NeighbourRule, PackedLayer, SelfOrganizingMap, TrainSchedule};
use proptest::prelude::*;

/// The longest vector the raw strategies generate; tests truncate to the
/// drawn length (the vendored proptest has no `prop_flat_map`, so lengths
/// cannot parameterise sibling strategies directly).
const MAX_LEN: usize = 190;

/// Lengths that exercise sub-word, word-aligned and partial-tail vectors.
const LENGTHS: [usize; 6] = [17, 64, 70, 96, 128, MAX_LEN];

/// Strategy drawing one of [`LENGTHS`].
fn arbitrary_len() -> impl Strategy<Value = usize> {
    (0usize..LENGTHS.len()).prop_map(|i| LENGTHS[i])
}

/// Raw trit material for a whole competitive layer of 2–10 neurons — wide
/// enough that a radius-4 window holds many neurons.
fn raw_layer() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..3, MAX_LEN), 2..10)
}

/// Raw bit material for a batch of input presentations.
fn raw_inputs(max_steps: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    prop::collection::vec(prop::collection::vec(any::<bool>(), MAX_LEN), 1..max_steps)
}

/// Builds the first `len` trits of each raw neuron into a weight layer.
fn build_layer(raw: &[Vec<u8>], len: usize) -> Vec<TriStateVector> {
    raw.iter()
        .map(|trits| {
            TriStateVector::from_trits(trits[..len].iter().map(|v| match v {
                0 => Trit::Zero,
                1 => Trit::One,
                _ => Trit::DontCare,
            }))
        })
        .collect()
}

/// Builds the first `len` bits of each raw input into a presentation batch.
fn build_inputs(raw: &[Vec<bool>], len: usize) -> Vec<BinaryVector> {
    raw.iter()
        .map(|bits| BinaryVector::from_bits(bits[..len].iter().copied()))
        .collect()
}

/// Runs `inputs` through the window path and the bit-serial path on
/// identically constructed maps and asserts full bit-identity, plus the
/// packed-layout invariant on the window-path map.
fn assert_bit_identical(
    weights: Vec<TriStateVector>,
    inputs: &[BinaryVector],
    relax: f64,
    commit: f64,
    rule: NeighbourRule,
) -> Result<(), TestCaseError> {
    let reference = BSom::from_weights(weights)
        .expect("non-empty layer")
        .with_update_probabilities(relax, commit)
        .with_neighbour_rule(rule);
    let mut serial = reference.clone();
    let mut window = reference;
    let schedule = TrainSchedule::new(inputs.len().max(1));
    for (t, input) in inputs.iter().enumerate() {
        let ww = window.train_step(input, t, &schedule).expect("length ok");
        let ws = serial
            .train_step_bit_serial(input, t, &schedule)
            .expect("length ok");
        prop_assert!(ww.index == ws.index, "winners diverged at step {}", t);
        prop_assert_eq!(ww.distance, ws.distance);
    }
    prop_assert!(window == serial, "maps diverged");
    prop_assert_eq!(window.dont_care_counts(), serial.dont_care_counts());
    prop_assert_eq!(
        window.packed_layer(),
        &PackedLayer::from_neurons(&window.neurons()).unwrap()
    );
    Ok(())
}

proptest! {
    /// Undamped rule (p = 1 for both transitions): the window and bit-serial
    /// paths must be bit-identical across whole training runs, partial tail
    /// word included, for every neighbour rule.
    #[test]
    fn undamped_paths_are_bit_identical(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(6),
        rule_index in 0usize..3,
    ) {
        let weights = build_layer(&raw_weights, len);
        let inputs = build_inputs(&raw_presentations, len);
        let rule = [
            NeighbourRule::SameAsWinner,
            NeighbourRule::RelaxOnly,
            NeighbourRule::WinnerOnly,
        ][rule_index];
        assert_bit_identical(weights, &inputs, 1.0, 1.0, rule)?;
    }

    /// Frozen rule (p = 0 for both): no weight may move, and the two paths
    /// remain bit-identical (neither consumes randomness).
    #[test]
    fn frozen_paths_are_bit_identical_and_inert(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(4),
    ) {
        let weights = build_layer(&raw_weights, len);
        let inputs = build_inputs(&raw_presentations, len);
        let before = weights.clone();
        let mut som = BSom::from_weights(weights.clone())
            .expect("non-empty layer")
            .with_update_probabilities(0.0, 0.0);
        let schedule = TrainSchedule::new(inputs.len());
        for (t, input) in inputs.iter().enumerate() {
            som.train_step(input, t, &schedule).expect("length ok");
        }
        prop_assert!(som.neurons() == before, "p = 0 must freeze the map");
        assert_bit_identical(weights, &inputs, 0.0, 0.0, NeighbourRule::SameAsWinner)?;
    }

    /// Mixed degenerate probabilities (exactly one of relax/commit active)
    /// stay bit-identical, including through the relax-only neighbour rule —
    /// the rule whose per-neuron commit gates differ inside one window.
    #[test]
    fn mixed_degenerate_paths_are_bit_identical(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(4),
        relax_on in any::<bool>(),
        relax_only_neighbours in any::<bool>(),
    ) {
        let weights = build_layer(&raw_weights, len);
        let inputs = build_inputs(&raw_presentations, len);
        let (relax, commit) = if relax_on { (1.0, 0.0) } else { (0.0, 1.0) };
        let rule = if relax_only_neighbours {
            NeighbourRule::RelaxOnly
        } else {
            NeighbourRule::SameAsWinner
        };
        assert_bit_identical(weights, &inputs, relax, commit, rule)?;
    }

    /// Interior probabilities: every transition the window path makes must
    /// be legal under the tri-state rule table, RelaxOnly neighbours must
    /// never gain concrete bits, the incremental `#`-counts must match a
    /// recount, and the maintained packed layout must equal a fresh pack
    /// word for word.
    #[test]
    fn interior_probability_window_transitions_are_legal(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(2),
        relax in 0.05f64..0.95,
        commit in 0.05f64..0.95,
        relax_only_neighbours in any::<bool>(),
    ) {
        let weights = build_layer(&raw_weights, len);
        let input = build_inputs(&raw_presentations, len).remove(0);
        let rule = if relax_only_neighbours {
            NeighbourRule::RelaxOnly
        } else {
            NeighbourRule::SameAsWinner
        };
        let mut som = BSom::from_weights(weights)
            .expect("non-empty layer")
            .with_update_probabilities(relax, commit)
            .with_neighbour_rule(rule);
        let before: Vec<TriStateVector> = som.neurons();
        let winner = som.train_step(&input, 0, &TrainSchedule::new(1)).expect("length ok");
        for (i, (old, new)) in before.iter().zip(som.neurons()).enumerate() {
            let may_commit = rule == NeighbourRule::SameAsWinner || i == winner.index;
            for k in 0..input.len() {
                let x = input.bit(k);
                let legal = match old.trit(k) {
                    Trit::DontCare => {
                        new.trit(k) == Trit::DontCare
                            || (may_commit && new.trit(k) == Trit::from_bit(x))
                    }
                    t if t.matches(x) => new.trit(k) == t,
                    t => new.trit(k) == t || new.trit(k) == Trit::DontCare,
                };
                prop_assert!(legal, "illegal transition at neuron {}, bit {}: {:?} -> {:?} (input {})",
                    i, k, old.trit(k), new.trit(k), x);
            }
            // Incremental cache vs recount, and clean tails on both planes.
            prop_assert_eq!(som.dont_care_counts()[i] as usize, new.count_dont_care());
            let rem = input.len() % 64;
            if rem != 0 {
                let tail_mask = !((1u64 << rem) - 1);
                prop_assert_eq!(new.care_plane().as_words().last().unwrap() & tail_mask, 0);
                prop_assert_eq!(new.value_plane().as_words().last().unwrap() & tail_mask, 0);
            }
        }
        prop_assert_eq!(som.packed_layer(), &PackedLayer::from_neurons(&som.neurons()).unwrap());
    }
}

/// Statistical consistency of the interior-probability damping through the
/// window path: each neuron's *marginal* flip count must sit inside a
/// generous binomial band around `p × opportunities`, under fixed seeds —
/// the broadcast stream correlates flips across neurons (every neuron in
/// the window sees the same mask words), but each lane of the shared mask
/// is still an independent Bernoulli(p) coin, so per-neuron counts stay
/// Binomial.
///
/// Engineered so every bit of every neuron is an opportunity: a map whose
/// neurons all mismatch the input everywhere (relax case) or are all `#`
/// (commit case), updated with a full-map window.
#[test]
fn interior_probability_window_flip_counts_track_p() {
    // (p, len): lengths include a partial final word.
    for &(p, len) in &[(0.3f64, 768usize), (0.5, 70), (0.7, 640), (0.12, 190)] {
        let input = BinaryVector::from_bits((0..len).map(|i| i % 3 == 0));
        let neurons = 5usize;
        // A full-map window: radius covers every neuron from any winner.
        let schedule = TrainSchedule::new(1)
            .with_neighbourhood(bsom_som::NeighbourhoodSchedule::Constant { radius: neurons });
        let sigma = (len as f64 * p * (1.0 - p)).sqrt();
        let band = 6.0 * sigma + 1.0;

        // Relax: every concrete bit of every neuron disagrees with the input.
        let mismatched = vec![TriStateVector::from_binary(&!&input); neurons];
        let mut som = BSom::from_weights(mismatched)
            .unwrap()
            .with_update_probabilities(p, p);
        som.train_step(&input, 0, &schedule).unwrap();
        for i in 0..neurons {
            let relaxed = som.neuron(i).unwrap().count_dont_care() as f64;
            assert!(
                (relaxed - p * len as f64).abs() < band,
                "window relax: neuron {i}, p = {p}, len = {len}: {relaxed} of {len} bits relaxed"
            );
        }

        // Commit: every bit of every neuron is #.
        let blank = vec![TriStateVector::all_dont_care(len); neurons];
        let mut som = BSom::from_weights(blank)
            .unwrap()
            .with_update_probabilities(p, p);
        som.train_step(&input, 0, &schedule).unwrap();
        for i in 0..neurons {
            let neuron = som.neuron(i).unwrap();
            let committed = neuron.count_concrete() as f64;
            assert!(
                (committed - p * len as f64).abs() < band,
                "window commit: neuron {i}, p = {p}, len = {len}: \
                 {committed} of {len} bits committed"
            );
            // Committed bits must equal the input where concrete.
            for k in 0..len {
                if let Some(bit) = neuron.trit(k).as_bit() {
                    assert_eq!(bit, input.bit(k), "committed bit {k} must copy the input");
                }
            }
        }
        // The broadcast is real: every neuron committed the *same* lanes,
        // because one mask word was shared across the whole window.
        let first = som.neuron(0).unwrap();
        for i in 1..neurons {
            assert_eq!(
                som.neuron(i).unwrap().care_plane().as_words(),
                first.care_plane().as_words(),
                "neuron {i} must share the broadcast commit mask"
            );
        }
    }
}
