//! Property suite pinning the word-parallel trainer to the bit-serial
//! reference path (DESIGN.md §"The word-parallel trainer").
//!
//! The two datapaths share one xorshift64* state but consume it differently
//! (whole-word Bernoulli masks vs one coin per bit), so the equivalence
//! guarantee is two-tiered:
//!
//! * for probabilities 0 and 1 neither path consumes randomness, so
//!   [`BSom::train_step`](bsom_som::SelfOrganizingMap::train_step) and
//!   [`BSom::train_step_bit_serial`](bsom_som::BSom::train_step_bit_serial)
//!   must produce **bit-identical** maps — weights, cached `#`-counts, RNG
//!   state and all;
//! * for interior probabilities every individual transition must still be
//!   *legal* under the tri-state rule table (agreeing bits never move,
//!   mismatches only ever relax to `#`, `#`s only ever commit to the input
//!   bit), and the *number* of transitions must match the configured
//!   probability statistically under fixed seeds.
//!
//! Vector lengths deliberately include non-multiples of 64 so the masked
//! final partial word is always in play.

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, BSomConfig, NeighbourRule, SelfOrganizingMap, TrainSchedule};
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

/// Raw trit material for a whole competitive layer of 2–8 neurons.
fn raw_layer() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..3, MAX_LEN), 2..8)
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

/// Runs `steps` presentations through both datapaths on identically
/// constructed maps and asserts full bit-identity of the results.
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
    let mut word = reference;
    let schedule = TrainSchedule::new(inputs.len().max(1));
    for (t, input) in inputs.iter().enumerate() {
        let ww = word.train_step(input, t, &schedule).expect("length ok");
        let ws = serial
            .train_step_bit_serial(input, t, &schedule)
            .expect("length ok");
        prop_assert!(ww.index == ws.index, "winners diverged at step {}", t);
        prop_assert_eq!(ww.distance, ws.distance);
    }
    prop_assert!(word == serial, "maps diverged");
    prop_assert_eq!(word.dont_care_counts(), serial.dont_care_counts());
    Ok(())
}

proptest! {
    /// Undamped rule (p = 1 for both transitions): the word-parallel and
    /// bit-serial paths must be bit-identical across whole training runs,
    /// partial tail word included.
    #[test]
    fn undamped_paths_are_bit_identical(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(6),
    ) {
        let weights = build_layer(&raw_weights, len);
        let inputs = build_inputs(&raw_presentations, len);
        assert_bit_identical(weights, &inputs, 1.0, 1.0, NeighbourRule::SameAsWinner)?;
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
    /// stay bit-identical, including through the relax-only neighbour rule.
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

    /// Interior probabilities: every transition the word-parallel step makes
    /// must be legal under the tri-state rule table, the incremental
    /// `#`-counts must match a recount, and the planes' tail bits must stay
    /// clear.
    #[test]
    fn interior_probability_transitions_are_legal(
        len in arbitrary_len(),
        raw_weights in raw_layer(),
        raw_presentations in raw_inputs(2),
        relax in 0.05f64..0.95,
        commit in 0.05f64..0.95,
    ) {
        let weights = build_layer(&raw_weights, len);
        let input = build_inputs(&raw_presentations, len).remove(0);
        let mut som = BSom::from_weights(weights)
            .expect("non-empty layer")
            .with_update_probabilities(relax, commit);
        let before: Vec<TriStateVector> = som.neurons();
        som.train_step(&input, 0, &TrainSchedule::new(1)).expect("length ok");
        for (i, (old, new)) in before.iter().zip(som.neurons()).enumerate() {
            for k in 0..input.len() {
                let x = input.bit(k);
                let legal = match old.trit(k) {
                    Trit::DontCare => {
                        new.trit(k) == Trit::DontCare || new.trit(k) == Trit::from_bit(x)
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
    }
}

/// Statistical consistency of the interior-probability damping: the number
/// of relax/commit transitions one full-map update makes must sit inside a
/// generous binomial band around `p × opportunities`, for both datapaths,
/// under fixed seeds.
///
/// Engineered so every bit is an opportunity: a single-neuron map (always
/// the winner) whose weights either all mismatch the input (relax case) or
/// are all `#` (commit case).
#[test]
fn interior_probability_flip_counts_track_p() {
    // (p, len): lengths include a partial final word.
    for &(p, len) in &[(0.3f64, 768usize), (0.5, 70), (0.7, 640), (0.12, 190)] {
        let input = BinaryVector::from_bits((0..len).map(|i| i % 3 == 0));
        let schedule = TrainSchedule::new(1);
        let sigma = (len as f64 * p * (1.0 - p)).sqrt();
        let band = 6.0 * sigma + 1.0;

        for word_parallel in [true, false] {
            // Relax: every concrete bit disagrees with the input.
            let mismatched = TriStateVector::from_binary(&!&input);
            let mut som = BSom::from_weights(vec![mismatched])
                .unwrap()
                .with_update_probabilities(p, p);
            let step = |som: &mut BSom| {
                if word_parallel {
                    som.train_step(&input, 0, &schedule).unwrap()
                } else {
                    som.train_step_bit_serial(&input, 0, &schedule).unwrap()
                }
            };
            step(&mut som);
            let relaxed = som.neuron(0).unwrap().count_dont_care() as f64;
            assert!(
                (relaxed - p * len as f64).abs() < band,
                "relax path (word_parallel = {word_parallel}): p = {p}, len = {len}: \
                 {relaxed} of {len} bits relaxed"
            );

            // Commit: every bit is #.
            let blank = TriStateVector::all_dont_care(len);
            let mut som = BSom::from_weights(vec![blank])
                .unwrap()
                .with_update_probabilities(p, p);
            step(&mut som);
            let committed = som.neuron(0).unwrap().count_concrete() as f64;
            assert!(
                (committed - p * len as f64).abs() < band,
                "commit path (word_parallel = {word_parallel}): p = {p}, len = {len}: \
                 {committed} of {len} bits committed"
            );
            // Committed bits must equal the input where concrete.
            let neuron = som.neuron(0).unwrap();
            for k in 0..len {
                if let Some(bit) = neuron.trit(k).as_bit() {
                    assert_eq!(bit, input.bit(k), "committed bit {k} must copy the input");
                }
            }
        }
    }
}

/// The two datapaths must agree on long-run weight *statistics*, not just
/// single-step legality: train two identically-seeded maps through each path
/// on the same small dataset and compare total `#`-mass within a tolerance.
#[test]
fn long_run_dont_care_mass_is_statistically_consistent() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xE07A_57A7);
    let len = 190;
    let config = BSomConfig::new(6, len);
    let som = BSom::new(config, &mut rng);
    let data: Vec<BinaryVector> = (0..8)
        .map(|_| BinaryVector::random(len, &mut rng))
        .collect();
    let schedule = TrainSchedule::new(40);

    let mut word = som.clone();
    let mut serial = som;
    for t in 0..40 {
        for input in &data {
            word.train_step(input, t, &schedule).unwrap();
            serial.train_step_bit_serial(input, t, &schedule).unwrap();
        }
    }
    let total = (6 * len) as f64;
    let word_mass = word.total_dont_care() as f64 / total;
    let serial_mass = serial.total_dont_care() as f64 / total;
    assert!(
        (word_mass - serial_mass).abs() < 0.15,
        "steady-state #-mass diverged: word-parallel {word_mass:.3} vs bit-serial {serial_mass:.3}"
    );
}
