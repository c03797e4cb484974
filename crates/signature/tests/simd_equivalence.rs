//! Differential suite for the wide-lane kernel lowerings (DESIGN.md
//! §"Wide-lane kernels and dispatch").
//!
//! Every dispatch path selectable on this machine — scalar, the portable
//! lanes-8 kernels, and each `std::arch` lowering the runner's CPU exposes —
//! is driven against the scalar reference walk and must agree **bit for
//! bit**:
//!
//! * distance kernels ([`masked_hamming_words_with`],
//!   [`accumulate_masked_hamming_row_with`]) on arbitrary planes, on
//!   tie-heavy WTA tables (where a one-count distance error flips the
//!   [`select_winner`] key), and on every tail/remainder word count around
//!   each lane width (0, 1, lane−1, lane, lane+1, non-multiples — the
//!   classic SIMD off-by-one surface);
//! * the window update kernel ([`update_window_word_with`]) on
//!   invariant-respecting plane runs, including its per-neuron relax/commit
//!   flip counters (the feed of the incremental `#`-count maintenance);
//! * the background segmentation kernel ([`segment_background_with`]): mask
//!   words and every estimate's bits, on estimate planes mixed with NaN,
//!   ±∞, −0.0, negatives and values above 255, at learning rates and
//!   thresholds inside and outside the usual range, and at every pixel count
//!   from 0 to 200 (tails around 8 and 64);
//! * the mismatched-slice panics, which must fire identically through every
//!   dispatch (mirroring `masked_hamming_words_rejects_mismatched_slices`);
//! * the `ForceDispatch` override itself: forcing routes the default entry
//!   points, clearing restores the default, and an unavailable lowering is
//!   rejected loudly instead of reaching `std::arch` code the CPU cannot
//!   run.

use bsom_signature::lanes::{active_dispatch, force_dispatch, Dispatch};
use bsom_signature::{
    accumulate_masked_hamming_row, accumulate_masked_hamming_row_with, masked_hamming_words,
    masked_hamming_words_with, segment_background, segment_background_with, select_winner,
    update_window_word_with, Rgb,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

proptest! {
    /// `masked_hamming_words` agrees with the scalar walk through every
    /// available lowering, for arbitrary word counts.
    #[test]
    fn masked_hamming_is_bit_identical_across_dispatches(
        raw in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..40),
    ) {
        let cares: Vec<u64> = raw.iter().map(|&(c, _, _)| c).collect();
        let values: Vec<u64> = raw.iter().map(|&(c, v, _)| v & c).collect();
        let inputs: Vec<u64> = raw.iter().map(|&(_, _, x)| x).collect();
        let reference = masked_hamming_words_with(Dispatch::Scalar, &values, &cares, &inputs);
        for dispatch in Dispatch::available() {
            prop_assert_eq!(
                masked_hamming_words_with(dispatch, &values, &cares, &inputs),
                reference
            );
        }
    }

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
    /// `#`-count and address — any per-dispatch distance skew would flip the
    /// full `{distance, #-count, address}` key. The winner must be identical
    /// through every lowering.
    #[test]
    fn tie_heavy_wta_winners_survive_every_dispatch(
        rows in prop::collection::vec((0u64..4, 0u64..4, 0u32..3), 1..96),
        input in 0u64..4,
    ) {
        let neurons = rows.len();
        // One plane word per neuron drawn from a two-bit domain; care bits
        // limited to the same two lanes so distances land in {0, 1, 2}.
        let cares: Vec<u64> = rows.iter().map(|&(c, _, _)| c).collect();
        let values: Vec<u64> = rows.iter().map(|&(c, v, _)| v & c).collect();
        let counts: Vec<u32> = rows.iter().map(|&(_, _, n)| n).collect();
        let mut reference = vec![0u32; neurons];
        accumulate_masked_hamming_row_with(
            Dispatch::Scalar, &values, &cares, input, &mut reference,
        );
        let reference_winner = select_winner(&reference, &counts);
        for dispatch in Dispatch::available() {
            let mut distances = vec![0u32; neurons];
            accumulate_masked_hamming_row_with(
                dispatch, &values, &cares, input, &mut distances,
            );
            prop_assert_eq!(select_winner(&distances, &counts), reference_winner);
        }
    }
}

/// The tail/remainder sweep: word counts of 0, 1, lane−1, lane, lane+1 and
/// non-multiples for every lane width in play (2, 4, 8), through every
/// kernel and every available lowering — and for the background kernel,
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
        let inputs: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let gates: Vec<u64> = (0..n)
            .map(|_| if rng.gen() { u64::MAX } else { 0 })
            .collect();
        let input: u64 = rng.gen();
        let relax_mask: u64 = rng.gen();
        let commit_mask: u64 = rng.gen();

        let hamming_ref = masked_hamming_words_with(Dispatch::Scalar, &values, &cares, &inputs);
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
            assert_eq!(
                masked_hamming_words_with(dispatch, &values, &cares, &inputs),
                hamming_ref,
                "masked_hamming, {n} words, {dispatch}"
            );
            let mut row = vec![0u32; n];
            accumulate_masked_hamming_row_with(dispatch, &values, &cares, input, &mut row);
            assert_eq!(row, row_ref, "row kernel, {n} words, {dispatch}");
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

/// The mismatched-slice panics fire identically through every dispatch —
/// the per-dispatch mirror of `masked_hamming_words_rejects_mismatched_slices`.
#[test]
fn mismatched_slices_panic_under_every_dispatch() {
    for dispatch in Dispatch::available() {
        panics_with(
            || {
                masked_hamming_words_with(dispatch, &[0, 0], &[0, 0], &[0]);
            },
            "word count mismatch",
        );
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
            masked_hamming_words_with(foreign, &[0], &[0], &[0]);
        },
        "not available",
    );
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
        assert_eq!(
            masked_hamming_words(&values, &cares, &inputs),
            masked_hamming_words_with(dispatch, &values, &cares, &inputs),
        );
        let mut forced = vec![0u32; 11];
        accumulate_masked_hamming_row(&values, &cares, inputs[0], &mut forced);
        let mut explicit = vec![0u32; 11];
        accumulate_masked_hamming_row_with(dispatch, &values, &cares, inputs[0], &mut explicit);
        assert_eq!(forced, explicit);
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
