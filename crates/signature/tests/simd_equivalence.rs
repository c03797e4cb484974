//! Differential suite for the wide-lane kernel lowerings (DESIGN.md
//! §"Wide-lane kernels and dispatch").
//!
//! Every dispatch path selectable on this machine — scalar and each
//! `std::arch` lowering the runner's CPU exposes — is driven against the
//! scalar reference walk and must agree **bit for bit**:
//!
//! * the distance row kernel ([`accumulate_masked_hamming_row_with`]) on
//!   arbitrary planes and on every tail/remainder word count around each
//!   lane width (0, 1, lane−1, lane, lane+1, non-multiples — the classic
//!   SIMD off-by-one surface);
//! * the fused winner kernel ([`wta_winner_with`], [`wta_winners_into_with`])
//!   on tie-heavy layers of 1 to 2,100 neurons (around the eight-neuron lane
//!   blocks and the 1,024-neuron edge) and batches of 1 to 17 signatures
//!   (around the eight-signature group), with ties planted across those
//!   edges and a wrong-length signature inside a group, against the scalar
//!   arm and an independent per-neuron oracle;
//! * the window update kernel ([`update_window_word_with`]) on
//!   invariant-respecting plane runs, including its per-neuron relax/commit
//!   flip counters (the feed of the incremental `#`-count maintenance);
//! * the background segmentation kernel ([`segment_background_with`]): mask
//!   words and every estimate's bits, on estimate planes mixed with NaN,
//!   ±∞, −0.0, negatives and values above 255, at learning rates and
//!   thresholds inside and outside the usual range, and at every pixel count
//!   from 0 to 200 (tails around 8 and 64);
//! * the mismatched-slice panics, which must fire identically through every
//!   dispatch, and a word row whose planes shrink after the winner kernel's
//!   length check, which must panic rather than be read past its end;
//! * the `ForceDispatch` override itself: forcing routes the default entry
//!   points, clearing restores the default, and an unavailable lowering is
//!   rejected loudly instead of reaching `std::arch` code the CPU cannot
//!   run.

use bsom_signature::lanes::{active_dispatch, force_dispatch, Dispatch};
use bsom_signature::{
    accumulate_masked_hamming_row, accumulate_masked_hamming_row_with, segment_background,
    segment_background_with, update_window_word_with, wta_winner, wta_winner_with,
    wta_winners_into_with, BatchWinner, BinaryVector, Rgb, WordRow,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes the tests that assert on the process-wide forced dispatch.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// A dispatch path foreign to every machine this test compiles for on its
/// own architecture — used to exercise the unavailable-path rejection.
fn foreign_dispatch() -> Dispatch {
    if cfg!(target_arch = "aarch64") {
        Dispatch::Avx2
    } else {
        Dispatch::Neon
    }
}

/// Builds invariant-respecting plane words (`value ⊆ care`) from raw pairs.
fn planes(raw: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    let cares: Vec<u64> = raw.iter().map(|&(c, _)| c).collect();
    let values: Vec<u64> = raw.iter().map(|&(c, v)| v & c).collect();
    (values, cares)
}

/// Learning rates of the background kernel: the usual range, both ends,
/// values outside it that push estimates below 0 and above 255, and NaN.
const LEARNING_RATES: [f64; 7] = [0.0, 0.05, 0.3, 1.0, -0.5, 1.5, f64::NAN];

/// Foreground thresholds: nothing, a one-level change, the default, and
/// never.
const THRESHOLDS: [u32; 4] = [0, 1, 900, u32::MAX];

/// One estimate plane: mostly values in [0, 255], mixed with the values
/// where `as u8` saturates or truncates unusually.
fn estimate_plane(len: usize, rng: &mut StdRng) -> Vec<f64> {
    const SPECIAL: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        -0.75,
        -300.5,
        255.0,
        255.5,
        1e12,
    ];
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.25) {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                rng.gen::<f64>() * 255.0
            }
        })
        .collect()
}

/// A frame for `planes`: arbitrary pixels, and pixels within one level per
/// channel of their truncated estimate, whose distances sit at the small
/// thresholds.
fn frame_for(planes: &[Vec<f64>; 3], rng: &mut StdRng) -> Vec<Rgb> {
    (0..planes[0].len())
        .map(|i| {
            if rng.gen_bool(0.3) {
                let mut near = |e: f64| (e as u8).saturating_add(rng.gen_range(0..2));
                Rgb::new(near(planes[0][i]), near(planes[1][i]), near(planes[2][i]))
            } else {
                Rgb::new(rng.gen(), rng.gen(), rng.gen())
            }
        })
        .collect()
}

/// Two frames of the background kernel through `dispatch` from `planes`:
/// each frame's mask words, then the final estimates' bits.
fn segment_bits(
    dispatch: Dispatch,
    frames: &[Vec<Rgb>; 2],
    planes: &[Vec<f64>; 3],
    learning_rate: f64,
    threshold: u32,
    hold: bool,
) -> (Vec<Vec<u64>>, [Vec<u64>; 3]) {
    let mut planes = planes.clone();
    let words = frames
        .iter()
        .map(|pixels| {
            let [red, green, blue] = &mut planes;
            segment_background_with(
                dispatch,
                pixels,
                [red, green, blue],
                learning_rate,
                threshold,
                hold,
            )
        })
        .collect();
    (
        words,
        planes.map(|plane| plane.iter().map(|e| e.to_bits()).collect()),
    )
}

/// Asserts that every available dispatch runs the background kernel to the
/// scalar walk's mask words and estimate bits.
fn assert_segmentation_identical(len: usize, rng: &mut StdRng) {
    let planes = [
        estimate_plane(len, rng),
        estimate_plane(len, rng),
        estimate_plane(len, rng),
    ];
    let frames = [frame_for(&planes, rng), frame_for(&planes, rng)];
    let learning_rate = LEARNING_RATES[rng.gen_range(0..LEARNING_RATES.len())];
    let threshold = THRESHOLDS[rng.gen_range(0..THRESHOLDS.len())];
    let hold = rng.gen();
    let reference = segment_bits(
        Dispatch::Scalar,
        &frames,
        &planes,
        learning_rate,
        threshold,
        hold,
    );
    for word in reference.0.iter().flat_map(|words| words.last()) {
        assert_eq!(
            word >> ((len - 1) % 64) >> 1,
            0,
            "no bits past the last pixel"
        );
    }
    for dispatch in Dispatch::available() {
        assert_eq!(
            segment_bits(dispatch, &frames, &planes, learning_rate, threshold, hold),
            reference,
            "{len} pixels, α {learning_rate}, threshold {threshold}, hold {hold}, {dispatch}"
        );
    }
}

/// Neuron counts of the winner-kernel sweep: one, around one eight-lane
/// block, around the 1,024-neuron edge, and past two of those edges.
const WTA_NEURONS: [usize; 8] = [1, 7, 8, 9, 1_023, 1_024, 1_025, 2_100];

/// Bits per vector of the winner-kernel sweep: three word rows, the last one
/// partial.
const WTA_BITS: usize = 130;

/// A plane-sliced layer as owned word rows plus its `#`-count table.
struct WtaLayer {
    rows: Vec<(Vec<u64>, Vec<u64>)>,
    counts: Vec<u32>,
}

impl WtaLayer {
    fn rows(&self) -> Vec<(&[u64], &[u64])> {
        self.rows
            .iter()
            .map(|(values, cares)| (values.as_slice(), cares.as_slice()))
            .collect()
    }

    /// The independent oracle: every neuron's distance summed on its own,
    /// then the smallest `(distance, #-count, address)`.
    fn oracle(&self, input: &[u64]) -> Option<BatchWinner> {
        (0..self.counts.len())
            .map(|i| {
                let distance = self
                    .rows
                    .iter()
                    .zip(input)
                    .map(|((values, cares), x)| ((values[i] ^ x) & cares[i]).count_ones())
                    .sum::<u32>();
                (distance, self.counts[i], i)
            })
            .min()
            .map(|(distance, dont_care_count, index)| BatchWinner {
                index,
                distance,
                dont_care_count,
            })
    }
}

/// Words of a `WTA_BITS`-bit vector drawn from the two low bits of each
/// word, so distances land in 0..=6 and nearly every neuron ties on
/// distance with many others.
fn tiny_words(rng: &mut StdRng) -> Vec<u64> {
    (0..WTA_BITS.div_ceil(64))
        .map(|_| rng.gen_range(0u64..4))
        .collect()
}

/// A tie-heavy layer of `neurons` neurons whose `#`-counts are 1 or 2,
/// with one planted pair of exact matches to `planted` at addresses
/// `edge − 1` and `edge`, across a lane, block or 1,024 edge. With
/// `lower_wins` both carry the key `(0, 0)` and the lower address must win;
/// otherwise the lower one carries `(0, 1)` and the upper one must win on
/// its `#`-count.
fn wta_layer(
    neurons: usize,
    planted: &[u64],
    edge: usize,
    lower_wins: bool,
    rng: &mut StdRng,
) -> WtaLayer {
    let mut rows: Vec<(Vec<u64>, Vec<u64>)> = (0..planted.len())
        .map(|_| (vec![0; neurons], vec![0; neurons]))
        .collect();
    for (values, cares) in &mut rows {
        for i in 0..neurons {
            cares[i] = rng.gen_range(0u64..4);
            values[i] = rng.gen_range(0u64..4) & cares[i];
        }
    }
    let mut counts: Vec<u32> = (0..neurons).map(|_| rng.gen_range(1u32..3)).collect();
    if edge < neurons {
        for (address, count) in [(edge - 1, u32::from(!lower_wins)), (edge, 0)] {
            for ((values, cares), &x) in rows.iter_mut().zip(planted) {
                values[address] = x;
                cares[address] = 3;
            }
            counts[address] = count;
        }
    }
    WtaLayer { rows, counts }
}

/// Runs the winner kernel on `batch` through every available dispatch and
/// checks it against the scalar arm, the oracle and single-input calls.
fn assert_wta_identical(layer: &WtaLayer, batch: &[BinaryVector]) -> Result<(), TestCaseError> {
    let rows = layer.rows();
    let expected: Vec<Option<BatchWinner>> = batch
        .iter()
        .map(|input| {
            (input.len() == WTA_BITS)
                .then(|| layer.oracle(input.as_words()))
                .flatten()
        })
        .collect();
    let mut scalar = vec![None; batch.len()];
    wta_winners_into_with(
        Dispatch::Scalar,
        &rows,
        &layer.counts,
        WTA_BITS,
        batch,
        &mut scalar,
    );
    prop_assert_eq!(&scalar, &expected);
    for dispatch in Dispatch::available() {
        let mut winners = vec![None; batch.len()];
        wta_winners_into_with(
            dispatch,
            &rows,
            &layer.counts,
            WTA_BITS,
            batch,
            &mut winners,
        );
        prop_assert_eq!(&winners, &expected);
        for (input, winner) in batch.iter().zip(&winners) {
            if input.len() == WTA_BITS {
                let single = wta_winner_with(dispatch, &rows, &layer.counts, input.as_words());
                prop_assert_eq!(single, *winner);
            }
        }
    }
    Ok(())
}

proptest! {
    /// The background kernel's masks and estimates are bit-identical
    /// through every lowering.
    #[test]
    fn background_segmentation_is_bit_identical_across_dispatches(
        len in 0usize..201,
        seed in any::<u64>(),
    ) {
        assert_segmentation_identical(len, &mut StdRng::seed_from_u64(seed));
    }

    /// The row kernel accumulates identically through every lowering,
    /// including on top of non-zero running distances.
    #[test]
    fn row_accumulation_is_bit_identical_across_dispatches(
        raw in prop::collection::vec((any::<u64>(), any::<u64>(), 0u32..5000), 0..70),
        input in any::<u64>(),
    ) {
        let cares: Vec<u64> = raw.iter().map(|&(c, _, _)| c).collect();
        let values: Vec<u64> = raw.iter().map(|&(c, v, _)| v & c).collect();
        let running: Vec<u32> = raw.iter().map(|&(_, _, d)| d).collect();
        let mut reference = running.clone();
        accumulate_masked_hamming_row_with(
            Dispatch::Scalar, &values, &cares, input, &mut reference,
        );
        for dispatch in Dispatch::available() {
            let mut distances = running.clone();
            accumulate_masked_hamming_row_with(
                dispatch, &values, &cares, input, &mut distances,
            );
            prop_assert_eq!(&distances, &reference);
        }
    }

    /// The window update kernel writes identical planes and identical
    /// relax/commit counters through every lowering.
    #[test]
    fn window_update_is_bit_identical_across_dispatches(
        raw in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..30),
        input in any::<u64>(),
        relax_mask in any::<u64>(),
        commit_mask in any::<u64>(),
    ) {
        let (values, cares) = planes(
            &raw.iter().map(|&(c, v, _)| (c, v)).collect::<Vec<_>>(),
        );
        let gates: Vec<u64> = raw
            .iter()
            .map(|&(_, _, g)| if g { u64::MAX } else { 0 })
            .collect();
        let width = values.len();
        let mut ref_values = values.clone();
        let mut ref_cares = cares.clone();
        let mut ref_relaxed = vec![0u32; width];
        let mut ref_committed = vec![0u32; width];
        update_window_word_with(
            Dispatch::Scalar, &mut ref_values, &mut ref_cares, input, relax_mask,
            commit_mask, &gates, &mut ref_relaxed, &mut ref_committed,
        );
        for dispatch in Dispatch::available() {
            let mut v = values.clone();
            let mut c = cares.clone();
            let mut relaxed = vec![0u32; width];
            let mut committed = vec![0u32; width];
            update_window_word_with(
                dispatch, &mut v, &mut c, input, relax_mask, commit_mask, &gates,
                &mut relaxed, &mut committed,
            );
            prop_assert_eq!(&v, &ref_values);
            prop_assert_eq!(&c, &ref_cares);
            prop_assert_eq!(&relaxed, &ref_relaxed);
            prop_assert_eq!(&committed, &ref_committed);
        }
    }

    /// Tie-heavy WTA tables: plane words from tiny domains make
    /// near-universal distance ties, so the winner key is decided by
    /// `#`-count and address — any per-dispatch distance skew or lane
    /// reduction slip would flip the full `{distance, #-count, address}`
    /// key. The winner must be identical through every lowering.
    #[test]
    fn tie_heavy_wta_winners_survive_every_dispatch(
        rows in prop::collection::vec((0u64..4, 0u64..4, 0u32..3), 1..96),
        input in 0u64..4,
    ) {
        // One plane word per neuron drawn from a two-bit domain; care bits
        // limited to the same two lanes so distances land in {0, 1, 2}.
        let cares: Vec<u64> = rows.iter().map(|&(c, _, _)| c).collect();
        let values: Vec<u64> = rows.iter().map(|&(c, v, _)| v & c).collect();
        let counts: Vec<u32> = rows.iter().map(|&(_, _, n)| n).collect();
        let layer = [(values.as_slice(), cares.as_slice())];
        let reference = wta_winner_with(Dispatch::Scalar, &layer, &counts, &[input]);
        for dispatch in Dispatch::available() {
            prop_assert_eq!(wta_winner_with(dispatch, &layer, &counts, &[input]), reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused winner kernel over every neuron count of [`WTA_NEURONS`]
    /// and batches of 1–17 signatures: a pair of exact matches planted
    /// across a lane (8), block (256) or 1,024 edge, signature 7 repeated
    /// as signature 8 across the group edge, and one signature one bit
    /// short somewhere in the batch. Every dispatch must give the oracle's
    /// winner for every signature, and `None` for the short one.
    #[test]
    fn wta_winners_are_bit_identical_across_dispatches(
        shape in (0usize..WTA_NEURONS.len(), 1usize..18, 0usize..4),
        seed in any::<u64>(),
    ) {
        let (neuron_choice, batch_len, edge_choice) = shape;
        let neurons = WTA_NEURONS[neuron_choice];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch: Vec<BinaryVector> = (0..batch_len)
            .map(|_| BinaryVector::from_words(tiny_words(&mut rng), WTA_BITS).unwrap())
            .collect();
        if batch_len > 8 {
            batch[8] = batch[7].clone();
        }
        let planted = rng.gen_range(0..batch_len);
        let edge = [8, 256, 1024, 2048][edge_choice];
        let layer = wta_layer(
            neurons,
            batch[planted].as_words(),
            edge,
            rng.gen(),
            &mut rng,
        );
        if batch_len > 1 {
            let short = (planted + 1 + rng.gen_range(0..batch_len - 1)) % batch_len;
            batch[short] = BinaryVector::zeros(WTA_BITS - 1);
        }
        assert_wta_identical(&layer, &batch)?;
    }
}

/// The tail/remainder sweep: word counts of 0, 1, lane−1, lane, lane+1 and
/// non-multiples for every lane width in play (2, 4, 8), through every
/// kernel (for the winner kernel, as neuron counts) and every available
/// lowering — and for the background kernel,
/// every pixel count from 0 to 200: whole 64-pixel words, groups of 8 and
/// every tail the scalar walk finishes.
#[test]
fn tail_word_counts_are_bit_identical_through_every_kernel() {
    let mut rng = StdRng::seed_from_u64(0x7A11);
    for len in 0..=200 {
        for _ in 0..4 {
            assert_segmentation_identical(len, &mut rng);
        }
    }
    for n in [
        0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 32, 33,
    ] {
        let cares: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let values: Vec<u64> = cares.iter().map(|c| rng.gen::<u64>() & c).collect();
        let gates: Vec<u64> = (0..n)
            .map(|_| if rng.gen() { u64::MAX } else { 0 })
            .collect();
        let input: u64 = rng.gen();
        let relax_mask: u64 = rng.gen();
        let commit_mask: u64 = rng.gen();

        let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..3)).collect();
        let layer = [(values.as_slice(), cares.as_slice())];
        let winner_ref = wta_winner_with(Dispatch::Scalar, &layer, &counts, &[input]);
        let mut row_ref = vec![0u32; n];
        accumulate_masked_hamming_row_with(Dispatch::Scalar, &values, &cares, input, &mut row_ref);
        let mut upd_values_ref = values.clone();
        let mut upd_cares_ref = cares.clone();
        let mut relaxed_ref = vec![0u32; n];
        let mut committed_ref = vec![0u32; n];
        update_window_word_with(
            Dispatch::Scalar,
            &mut upd_values_ref,
            &mut upd_cares_ref,
            input,
            relax_mask,
            commit_mask,
            &gates,
            &mut relaxed_ref,
            &mut committed_ref,
        );

        for dispatch in Dispatch::available() {
            let mut row = vec![0u32; n];
            accumulate_masked_hamming_row_with(dispatch, &values, &cares, input, &mut row);
            assert_eq!(row, row_ref, "row kernel, {n} words, {dispatch}");
            assert_eq!(
                wta_winner_with(dispatch, &layer, &counts, &[input]),
                winner_ref,
                "winner kernel, {n} neurons, {dispatch}"
            );
            let mut v = values.clone();
            let mut c = cares.clone();
            let mut relaxed = vec![0u32; n];
            let mut committed = vec![0u32; n];
            update_window_word_with(
                dispatch,
                &mut v,
                &mut c,
                input,
                relax_mask,
                commit_mask,
                &gates,
                &mut relaxed,
                &mut committed,
            );
            assert_eq!(v, upd_values_ref, "update values, {n} words, {dispatch}");
            assert_eq!(c, upd_cares_ref, "update cares, {n} words, {dispatch}");
            assert_eq!(
                relaxed, relaxed_ref,
                "relax counters, {n} words, {dispatch}"
            );
            assert_eq!(
                committed, committed_ref,
                "commit counters, {n} words, {dispatch}"
            );
        }
    }
}

/// Asserts that `f` panics with a message containing `needle`.
fn panics_with<F: FnOnce()>(f: F, needle: &str) {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("kernel must panic");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains(needle),
        "panic message {msg:?} does not contain {needle:?}"
    );
}

/// The mismatched-slice panics fire identically through every dispatch.
#[test]
fn mismatched_slices_panic_under_every_dispatch() {
    for dispatch in Dispatch::available() {
        panics_with(
            || {
                accumulate_masked_hamming_row_with(dispatch, &[0, 0], &[0], 0, &mut [0, 0]);
            },
            "value/care row length mismatch",
        );
        panics_with(
            || {
                accumulate_masked_hamming_row_with(dispatch, &[0, 0], &[0, 0], 0, &mut [0]);
            },
            "one distance slot per neuron",
        );
        panics_with(
            || {
                update_window_word_with(
                    dispatch,
                    &mut [0],
                    &mut [0],
                    0,
                    0,
                    0,
                    &[0, 0],
                    &mut [0],
                    &mut [0],
                );
            },
            "one gate word per neuron",
        );
        panics_with(
            || {
                update_window_word_with(
                    dispatch,
                    &mut [0],
                    &mut [0],
                    0,
                    0,
                    0,
                    &[0],
                    &mut [0, 0],
                    &mut [0],
                );
            },
            "one relax counter per neuron",
        );
        panics_with(
            || {
                wta_winner_with(dispatch, &[(&[0u64, 0][..], &[0u64][..])], &[0, 0], &[0]);
            },
            "every word row holds one value and one care word per neuron",
        );
        panics_with(
            || {
                wta_winner_with(dispatch, &[(&[0u64][..], &[0u64][..])], &[0], &[0, 0]);
            },
            "one input word per word row",
        );
        panics_with(
            || {
                let inputs = [BinaryVector::zeros(64)];
                let rows = [(&[0u64][..], &[0u64][..])];
                wta_winners_into_with(dispatch, &rows, &[0], 64, &inputs, &mut []);
            },
            "one winner slot per input",
        );
        let pixels = [Rgb::BLACK; 3];
        for short in 0..3 {
            panics_with(
                || {
                    let mut planes = [vec![0.0; 3], vec![0.0; 3], vec![0.0; 3]];
                    planes[short].pop();
                    let [red, green, blue] = &mut planes;
                    segment_background_with(dispatch, &pixels, [red, green, blue], 0.05, 900, true);
                },
                "one estimate per pixel in every plane",
            );
        }
    }
}

/// Row counts around the AVX-512 arm's fetched-row limit (16 rows, 1,024
/// bits): up to it that arm walks eight-neuron blocks, past it the AVX-512
/// row lowering runs; every dispatch agrees with the oracle, single and
/// batched.
#[test]
fn winner_kernel_is_bit_identical_around_the_fetched_row_limit() {
    let mut rng = StdRng::seed_from_u64(0xF17C);
    for words in [1usize, 12, 15, 16, 17, 24] {
        for neurons in [9usize, 70, 300] {
            let layer = WtaLayer {
                rows: (0..words)
                    .map(|_| {
                        let cares: Vec<u64> = (0..neurons).map(|_| rng.gen()).collect();
                        let values = cares.iter().map(|&c| rng.gen::<u64>() & c).collect();
                        (values, cares)
                    })
                    .collect(),
                counts: (0..neurons).map(|_| rng.gen_range(0..3)).collect(),
            };
            let rows = layer.rows();
            let inputs: Vec<BinaryVector> = (0..9)
                .map(|_| BinaryVector::random(64 * words, &mut rng))
                .collect();
            let expected: Vec<Option<BatchWinner>> = inputs
                .iter()
                .map(|input| layer.oracle(input.as_words()))
                .collect();
            for dispatch in Dispatch::available() {
                let context = format!("{dispatch}, {words} rows, {neurons} neurons");
                let mut winners = vec![None; inputs.len()];
                wta_winners_into_with(
                    dispatch,
                    &rows,
                    &layer.counts,
                    64 * words,
                    &inputs,
                    &mut winners,
                );
                assert_eq!(winners, expected, "{context}");
                let single = wta_winner_with(dispatch, &rows, &layer.counts, inputs[0].as_words());
                assert_eq!(single, expected[0], "{context}");
            }
        }
    }
}

/// A word row that reports every neuron on its first read and one neuron
/// on every later read: a safe `WordRow` impl may do this, so the winner
/// kernel must not trust the length it checked up front.
struct ShrinkingRow {
    values: Vec<u64>,
    cares: Vec<u64>,
    value_reads: Cell<usize>,
}

impl ShrinkingRow {
    fn new(neurons: usize) -> Self {
        ShrinkingRow {
            values: vec![0; neurons],
            cares: vec![u64::MAX; neurons],
            value_reads: Cell::new(0),
        }
    }

    /// `plane` as the row's reads so far allow: whole up to the first value
    /// read (the length check reads values, then cares), one word after.
    fn plane<'a>(&self, plane: &'a [u64]) -> &'a [u64] {
        if self.value_reads.get() <= 1 {
            plane
        } else {
            &plane[..1]
        }
    }
}

impl WordRow for ShrinkingRow {
    fn values(&self) -> &[u64] {
        self.value_reads.set(self.value_reads.get() + 1);
        self.plane(&self.values)
    }

    fn cares(&self) -> &[u64] {
        self.plane(&self.cares)
    }
}

/// Rows that shrink after the length check make every lowering of the
/// winner kernel panic on its first pass over the short rows, single and
/// batched, at sizes that reach the wide arms' multi-block steps and their
/// tails: no lowering walks on past a plane's reported end, so none reads
/// a row a third time.
#[test]
fn rows_that_shrink_after_the_check_panic_under_every_dispatch() {
    for dispatch in Dispatch::available() {
        for neurons in [9usize, 64, 1024] {
            for batch in [1usize, 9] {
                let rows: Vec<ShrinkingRow> = (0..2).map(|_| ShrinkingRow::new(neurons)).collect();
                let counts = vec![0; neurons];
                let inputs = vec![BinaryVector::zeros(128); batch];
                let mut winners = vec![None; batch];
                panics_with(
                    || {
                        if batch == 1 {
                            wta_winner_with(dispatch, &rows, &counts, inputs[0].as_words());
                        } else {
                            wta_winners_into_with(
                                dispatch,
                                &rows,
                                &counts,
                                128,
                                &inputs,
                                &mut winners,
                            );
                        }
                    },
                    "out of range for slice of length 1",
                );
                let reads: Vec<usize> = rows.iter().map(|row| row.value_reads.get()).collect();
                assert!(
                    reads.iter().all(|&reads| reads <= 2),
                    "{dispatch}, {neurons} neurons, batch {batch}: {reads:?} reads"
                );
            }
        }
    }
}

/// An unavailable lowering is rejected loudly everywhere it could be
/// requested: the force API returns an error and the explicit-dispatch
/// kernels panic before reaching `std::arch` code the CPU cannot run.
#[test]
fn unavailable_dispatch_is_rejected_loudly() {
    let foreign = foreign_dispatch();
    assert!(!foreign.is_available());
    let err = force_dispatch(Some(foreign)).expect_err("foreign lowering must be rejected");
    assert_eq!(err.requested, foreign);
    assert!(err.to_string().contains("not available"));
    panics_with(
        || {
            accumulate_masked_hamming_row_with(foreign, &[0], &[0], 0, &mut [0]);
        },
        "not available",
    );
    panics_with(
        || {
            update_window_word_with(
                foreign,
                &mut [0],
                &mut [0],
                0,
                0,
                0,
                &[0],
                &mut [0],
                &mut [0],
            );
        },
        "not available",
    );
    panics_with(
        || {
            wta_winner_with(foreign, &[(&[0u64][..], &[0u64][..])], &[0], &[0]);
        },
        "not available",
    );
    panics_with(
        || {
            segment_background_with(
                foreign,
                &[Rgb::BLACK],
                [&mut [0.0], &mut [0.0], &mut [0.0]],
                0.05,
                900,
                true,
            );
        },
        "not available",
    );
}

/// Forcing routes the *default* entry points: under a forced lowering the
/// plain kernels equal the explicit `_with` calls, and clearing the
/// override restores the detect/environment default.
#[test]
fn force_dispatch_routes_the_default_entry_points() {
    let guard = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let default = active_dispatch();
    let mut rng = StdRng::seed_from_u64(0xF0CE);
    let cares: Vec<u64> = (0..11).map(|_| rng.gen()).collect();
    let values: Vec<u64> = cares.iter().map(|c| rng.gen::<u64>() & c).collect();
    let inputs: Vec<u64> = (0..11).map(|_| rng.gen()).collect();
    for dispatch in Dispatch::available() {
        force_dispatch(Some(dispatch)).expect("available lowering");
        assert_eq!(active_dispatch(), dispatch);
        let mut forced = vec![0u32; 11];
        accumulate_masked_hamming_row(&values, &cares, inputs[0], &mut forced);
        let mut explicit = vec![0u32; 11];
        accumulate_masked_hamming_row_with(dispatch, &values, &cares, inputs[0], &mut explicit);
        assert_eq!(forced, explicit);
        let layer = [(values.as_slice(), cares.as_slice())];
        let counts = [3u32; 11];
        assert_eq!(
            wta_winner(&layer, &counts, &inputs[..1]),
            wta_winner_with(dispatch, &layer, &counts, &inputs[..1]),
        );
        let pixels: Vec<Rgb> = (0..70)
            .map(|_| Rgb::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let planes = [(); 3].map(|_| {
            (0..70)
                .map(|_| rng.gen::<f64>() * 255.0)
                .collect::<Vec<_>>()
        });
        let mut forced = planes.clone();
        let mut explicit = planes.clone();
        let [r, g, b] = &mut forced;
        let forced_words = segment_background(&pixels, [r, g, b], 0.05, 900, true);
        let [r, g, b] = &mut explicit;
        let explicit_words = segment_background_with(dispatch, &pixels, [r, g, b], 0.05, 900, true);
        assert_eq!(forced_words, explicit_words);
        assert_eq!(forced, explicit);
    }
    force_dispatch(None).expect("clearing always succeeds");
    assert_eq!(active_dispatch(), default);
    // A failed force must leave the active dispatch untouched.
    let _ = force_dispatch(Some(foreign_dispatch()));
    assert_eq!(active_dispatch(), default);
    drop(guard);
}
