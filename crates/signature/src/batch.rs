//! Batched #-aware Hamming kernels on packed word slices.
//!
//! The FPGA streams every input pattern past one Hamming unit per neuron, so
//! the whole competitive layer consumes the input in a single pass. The
//! software analogue (see DESIGN.md §"The batched engine layout") stores the
//! competitive layer *plane-sliced*: for each 64-bit word index `w`, the
//! `w`-th value (and care) word of **every** neuron is stored contiguously.
//! One outer loop over the input words then updates all neuron distances with
//! sequential, cache-friendly XOR/AND/popcount — no bit is ever unpacked.
//!
//! These kernels are deliberately free of any `TriStateVector` bookkeeping:
//! they operate on raw `&[u64]` slices (or [`WordRow`]s of them) so the SOM
//! layer can own the layout and the engine can shard work across threads
//! without cloning vectors.
//!
//! The winner search is one fused kernel, the software form of the FPGA's
//! Hamming units feeding its pipelined WTA comparator tree (paper Fig. 5):
//! [`wta_winner`] sums a block of neurons' distances over every word row and
//! reduces them at once into a running `{distance, #-count, address}`
//! minimum, so no distance table is written, and [`wta_winners_into`]
//! compares every plane word it loads against up to eight inputs (DESIGN.md
//! §"Winner selection and the WTA tie-break key").
//!
//! The same plane-sliced layout serves the *training* side: because the
//! neighbourhood of a winner is a contiguous run of neuron addresses, the
//! `w`-th value/care words of the whole neighbourhood are a contiguous run
//! inside row `w` of the packed planes. [`update_window_word`] applies one
//! broadcast Bernoulli mask pair (see
//! [`bernoulli::draw_broadcast_masks`](crate::bernoulli::draw_broadcast_masks))
//! to such a run — the software shape of the FPGA's single update circuit
//! writing every neuron in the address window in one pass.
//!
//! The row, winner and window-update kernels are *lowered* in
//! [`crate::lanes`]: the default entry points route through the
//! process-wide [`active_dispatch`](crate::lanes::active_dispatch) (the
//! scalar walk or a hand-written `std::arch` path), and each has a `_with`
//! twin taking an explicit [`Dispatch`] so tests and benches can pin any
//! lowering. Every lowering is bit-identical to the scalar reference walk.
//! [`masked_hamming_words`], the one-vector distance behind
//! [`TriStateVector::hamming`](crate::TriStateVector::hamming), is the
//! scalar walk alone: no search path runs it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::lanes::{self, Dispatch, WTA_GROUP};
use crate::BinaryVector;

/// The winner of one search, with the full FPGA comparator key
/// `{distance, #-count, address}` (DESIGN.md §"Winner selection and the WTA
/// tie-break key") so callers can audit tie-breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchWinner {
    /// Address of the winning neuron.
    pub index: usize,
    /// Its #-aware Hamming distance to the input.
    pub distance: u32,
    /// The winning neuron's `#`-count (the secondary comparator key).
    pub dont_care_count: u32,
}

/// One word row of a plane-sliced layer: the `w`-th value and care word of
/// every neuron, in address order. The winner kernels read a layer as a
/// slice of these, so a layer may keep each row in an allocation of its own
/// (the copy-on-write rows of `bsom_som::PackedLayer`). The kernels read a
/// row's planes again after checking their lengths and bounds-check every
/// read, so an impl whose lengths change between calls makes them panic,
/// never read past a plane's end.
pub trait WordRow {
    /// The row's value words, one per neuron.
    fn values(&self) -> &[u64];
    /// The row's care words, one per neuron.
    fn cares(&self) -> &[u64];
}

impl<T: WordRow + ?Sized> WordRow for Arc<T> {
    #[inline]
    fn values(&self) -> &[u64] {
        (**self).values()
    }

    #[inline]
    fn cares(&self) -> &[u64] {
        (**self).cares()
    }
}

impl WordRow for (&[u64], &[u64]) {
    #[inline]
    fn values(&self) -> &[u64] {
        self.0
    }

    #[inline]
    fn cares(&self) -> &[u64] {
        self.1
    }
}

/// #-aware Hamming distance between one weight vector and one input, all as
/// packed word slices: `popcount((value ^ input) & care)` summed over words
/// (paper Eq. 3), one word at a time.
///
/// All three slices must have the same length; any tail bits beyond the
/// logical vector length must be zero in `care` (the invariant maintained by
/// [`BinaryVector::as_words`](crate::BinaryVector::as_words)).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn masked_hamming_words(value: &[u64], care: &[u64], input: &[u64]) -> usize {
    assert_eq!(value.len(), input.len(), "value/input word count mismatch");
    assert_eq!(care.len(), input.len(), "care/input word count mismatch");
    value
        .iter()
        .zip(input)
        .zip(care)
        .map(|((w, x), c)| ((w ^ x) & c).count_ones() as usize)
        .sum()
}

/// One word **row** of the batched distance pass: accumulates the
/// contribution of input word `input` into every neuron's distance, given
/// the row of `w`-th value/care words (`values[i]` is neuron `i`'s word).
/// `distances` is **accumulated into** (callers zero it first), so a whole
/// layer's distances are one call per word row.
///
/// # Panics
///
/// Panics if the three slices do not share one length.
#[inline]
pub fn accumulate_masked_hamming_row(
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    accumulate_masked_hamming_row_with(lanes::active_dispatch(), values, cares, input, distances);
}

/// [`accumulate_masked_hamming_row`] through one **explicit** [`Dispatch`]
/// lowering — the entry the differential tests and per-dispatch benches use
/// to exercise every path regardless of the process-wide
/// [`active_dispatch`](crate::lanes::active_dispatch). In debug builds every
/// non-scalar lowering is shadow-checked against the scalar walk, so a bad
/// lowering fails loudly in tests instead of silently in benches.
///
/// # Panics
///
/// Panics if the three slices do not share one length or if `dispatch` is
/// not [available](Dispatch::is_available) on the running machine.
pub fn accumulate_masked_hamming_row_with(
    dispatch: Dispatch,
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    assert_eq!(values.len(), cares.len(), "value/care row length mismatch");
    assert_eq!(
        values.len(),
        distances.len(),
        "one distance slot per neuron"
    );
    assert!(
        dispatch.is_available(),
        "{}",
        crate::lanes::UnavailableDispatch {
            requested: dispatch
        }
    );
    #[cfg(debug_assertions)]
    let shadow: Vec<u32> = if dispatch != Dispatch::Scalar {
        let mut copy = distances.to_vec();
        lanes::accumulate_row_dispatch(Dispatch::Scalar, values, cares, input, &mut copy);
        copy
    } else {
        Vec::new()
    };
    lanes::accumulate_row_dispatch(dispatch, values, cares, input, distances);
    #[cfg(debug_assertions)]
    if dispatch != Dispatch::Scalar {
        debug_assert_eq!(
            distances,
            shadow.as_slice(),
            "{dispatch} row lowering diverged from the scalar walk"
        );
    }
}

/// The winner of `input` in a plane-sliced layer under the full FPGA
/// comparator `{distance, #-count, address}` (DESIGN.md §"Winner selection
/// and the WTA tie-break key"): smallest #-aware Hamming distance, then the
/// most specific neuron (fewest `#`s), then the lowest address.
///
/// `rows[w]` is the layer's `w`-th word row and `dont_care_counts[i]` neuron
/// `i`'s `#`-count. The distances are summed and reduced in one pass, with no
/// distance table. Returns `None` only for a layer without neurons.
///
/// # Panics
///
/// Panics if a row's length differs from `dont_care_counts.len()` or
/// `input` does not hold one word per row.
pub fn wta_winner<R: WordRow>(
    rows: &[R],
    dont_care_counts: &[u32],
    input: &[u64],
) -> Option<BatchWinner> {
    wta_winner_with(lanes::active_dispatch(), rows, dont_care_counts, input)
}

/// [`wta_winner`] through one **explicit** [`Dispatch`] lowering (see
/// [`accumulate_masked_hamming_row_with`] for the contract: available paths
/// only, debug shadow-check against the scalar walk).
///
/// # Panics
///
/// As [`wta_winner`], and if `dispatch` is not
/// [available](Dispatch::is_available) on the running machine.
pub fn wta_winner_with<R: WordRow>(
    dispatch: Dispatch,
    rows: &[R],
    dont_care_counts: &[u32],
    input: &[u64],
) -> Option<BatchWinner> {
    check_layer(dispatch, rows, dont_care_counts);
    assert_eq!(input.len(), rows.len(), "one input word per word row");
    let mut winner = [None];
    wta_group(dispatch, rows, dont_care_counts, &[input], &mut winner);
    let [winner] = winner;
    winner
}

/// [`wta_winner`] for a whole batch: `winners[i]` becomes the winner of
/// `inputs[i]`, or `None` when that input is not `vector_len` bits long (or
/// the layer has no neurons). Up to eight valid inputs share one pass over
/// the layer, so every plane word loaded feeds all of them; the answers are
/// those of [`wta_winner`] one input at a time. Allocates nothing.
///
/// # Panics
///
/// Panics if `winners.len() != inputs.len()`, if a row's length differs
/// from `dont_care_counts.len()`, or if `vector_len` does not fill exactly
/// one word per row.
pub fn wta_winners_into<R: WordRow>(
    rows: &[R],
    dont_care_counts: &[u32],
    vector_len: usize,
    inputs: &[BinaryVector],
    winners: &mut [Option<BatchWinner>],
) {
    wta_winners_into_with(
        lanes::active_dispatch(),
        rows,
        dont_care_counts,
        vector_len,
        inputs,
        winners,
    );
}

/// [`wta_winners_into`] through one **explicit** [`Dispatch`] lowering.
///
/// # Panics
///
/// As [`wta_winners_into`], and if `dispatch` is not
/// [available](Dispatch::is_available) on the running machine.
pub fn wta_winners_into_with<R: WordRow>(
    dispatch: Dispatch,
    rows: &[R],
    dont_care_counts: &[u32],
    vector_len: usize,
    inputs: &[BinaryVector],
    winners: &mut [Option<BatchWinner>],
) {
    assert_eq!(winners.len(), inputs.len(), "one winner slot per input");
    assert_eq!(
        vector_len.div_ceil(64),
        rows.len(),
        "one word row per 64 bits of the vector"
    );
    check_layer(dispatch, rows, dont_care_counts);
    winners.fill(None);
    let mut valid = inputs
        .iter()
        .enumerate()
        .filter(|(_, input)| input.len() == vector_len)
        .peekable();
    while valid.peek().is_some() {
        let mut slots = [0usize; WTA_GROUP];
        let mut words: [&[u64]; WTA_GROUP] = [&[]; WTA_GROUP];
        let mut grouped = 0;
        for (slot, input) in valid.by_ref().take(WTA_GROUP) {
            slots[grouped] = slot;
            words[grouped] = input.as_words();
            grouped += 1;
        }
        let mut found = [None; WTA_GROUP];
        wta_group(
            dispatch,
            rows,
            dont_care_counts,
            &words[..grouped],
            &mut found[..grouped],
        );
        for (&slot, winner) in slots[..grouped].iter().zip(found) {
            winners[slot] = winner;
        }
    }
}

/// The shape and dispatch checks shared by the winner entry points.
fn check_layer<R: WordRow>(dispatch: Dispatch, rows: &[R], dont_care_counts: &[u32]) {
    let neurons = dont_care_counts.len();
    assert!(
        rows.len() <= (u32::MAX / 64) as usize,
        "a distance must fit in 32 bits"
    );
    assert!(
        rows.iter()
            .all(|row| row.values().len() == neurons && row.cares().len() == neurons),
        "every word row holds one value and one care word per neuron"
    );
    assert!(
        dispatch.is_available(),
        "{}",
        crate::lanes::UnavailableDispatch {
            requested: dispatch
        }
    );
}

/// One pass of the winner kernel for up to [`WTA_GROUP`] inputs of one word
/// per row each. In debug builds every non-scalar lowering is
/// shadow-checked against the scalar walk.
fn wta_group<R: WordRow>(
    dispatch: Dispatch,
    rows: &[R],
    dont_care_counts: &[u32],
    inputs: &[&[u64]],
    winners: &mut [Option<BatchWinner>],
) {
    debug_assert!(inputs.len() <= WTA_GROUP && inputs.len() == winners.len());
    lanes::wta_group_dispatch(dispatch, rows, dont_care_counts, inputs, winners);
    #[cfg(debug_assertions)]
    if dispatch != Dispatch::Scalar {
        let mut shadow = [None; WTA_GROUP];
        let shadow = &mut shadow[..inputs.len()];
        lanes::wta_group_dispatch(Dispatch::Scalar, rows, dont_care_counts, inputs, shadow);
        debug_assert_eq!(
            winners, shadow,
            "{dispatch} winner lowering diverged from the scalar walk"
        );
    }
}

/// Scans one plane-sliced row run for work the broadcast masks could do:
/// returns `(needs_relax, needs_commit)` where *relax* means some neuron in
/// the run has a concrete bit disagreeing with `input`, and *commit* means
/// some neuron whose gate is open still has a `#` in a valid lane
/// (`care != lane_mask`).
///
/// The window update uses this to skip ladder draws for words where a
/// transition is impossible.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn window_word_needs(
    values: &[u64],
    cares: &[u64],
    gates: &[u64],
    input: u64,
    lane_mask: u64,
) -> (bool, bool) {
    assert_eq!(values.len(), cares.len(), "value/care run length mismatch");
    assert_eq!(values.len(), gates.len(), "one gate word per neuron");
    let mut needs_relax = false;
    let mut needs_commit = false;
    for ((&v, &c), &g) in values.iter().zip(cares).zip(gates) {
        needs_relax |= (v ^ input) & c != 0;
        needs_commit |= g != 0 && c != lane_mask;
        if needs_relax && needs_commit {
            break;
        }
    }
    (needs_relax, needs_commit)
}

/// `true` iff applying the **drawn** broadcast mask pair to this run of
/// packed column words would change at least one bit — i.e. some neuron of
/// the window has a mismatching concrete bit under `relax_mask`, or a `#`
/// lane under `commit_mask` behind an open gate. This is the exact
/// "will [`update_window_word`] write anything?" predicate ([`update_word`]
/// changes a word iff its `relaxed` or `committed` mask is non-zero), which
/// the copy-on-write layout uses to leave rows shared with published
/// snapshots untouched when a draw happens to flip nothing.
///
/// `commit_mask` must already carry the valid-lane mask, exactly as passed
/// to [`update_window_word`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// [`update_word`]: crate::update_word
#[inline]
pub fn window_word_would_change(
    values: &[u64],
    cares: &[u64],
    gates: &[u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
) -> bool {
    assert_eq!(values.len(), cares.len(), "value/care run length mismatch");
    assert_eq!(values.len(), gates.len(), "one gate word per neuron");
    values
        .iter()
        .zip(cares)
        .zip(gates)
        .any(|((&v, &c), &g)| ((v ^ input) & c & relax_mask) | (!c & commit_mask & g) != 0)
}

/// One word index of the plane-sliced neighbourhood update: applies the
/// **shared** broadcast mask pair to a contiguous run of packed column words
/// (the neighbourhood's slice of one value/care row), accumulating per-neuron
/// relax/commit popcounts into `relaxed` / `committed`.
///
/// Per neuron `i` of the run this is exactly
/// [`update_word`](crate::update_word) with `relax_mask` and
/// `commit_mask & gates[i]` — the FPGA's broadcast stream plus per-neuron
/// gate. `commit_mask` must already carry the valid-lane mask of the final
/// partial word (`relax_mask` needs none: mismatches are a subset of the
/// care plane, whose tail bits are zero by the plane invariant).
///
/// # Panics
///
/// Panics if the run slices and delta slices do not all share one length.
// A raw kernel over parallel slices, like `accumulate_masked_hamming_row`: bundling
// the operands into a struct would only move the field list.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn update_window_word(
    values: &mut [u64],
    cares: &mut [u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
    gates: &[u64],
    relaxed: &mut [u32],
    committed: &mut [u32],
) {
    update_window_word_with(
        lanes::active_dispatch(),
        values,
        cares,
        input,
        relax_mask,
        commit_mask,
        gates,
        relaxed,
        committed,
    );
}

/// [`update_window_word`] through one **explicit** [`Dispatch`] lowering.
///
/// In debug builds every non-scalar lowering is shadow-checked against the
/// scalar per-neuron [`update_word`](crate::update_word) walk, and — for
/// *every* dispatch — the relax/commit flip counters are checked against a
/// full popcount recount of the care-plane delta
/// (`Δpopcount(care) == committed − relaxed` per neuron). Those counters
/// feed the incremental `#`-count maintenance in the packed layer, so a bad
/// lowering fails loudly here, in tests, rather than silently skewing the
/// WTA tie-break in benches.
///
/// # Panics
///
/// Panics if the run slices and delta slices do not all share one length or
/// if `dispatch` is not [available](Dispatch::is_available) on the running
/// machine.
#[allow(clippy::too_many_arguments)]
pub fn update_window_word_with(
    dispatch: Dispatch,
    values: &mut [u64],
    cares: &mut [u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
    gates: &[u64],
    relaxed: &mut [u32],
    committed: &mut [u32],
) {
    let width = values.len();
    assert_eq!(cares.len(), width, "value/care run length mismatch");
    assert_eq!(gates.len(), width, "one gate word per neuron");
    assert_eq!(relaxed.len(), width, "one relax counter per neuron");
    assert_eq!(committed.len(), width, "one commit counter per neuron");
    assert!(
        dispatch.is_available(),
        "{}",
        crate::lanes::UnavailableDispatch {
            requested: dispatch
        }
    );
    #[cfg(debug_assertions)]
    let snapshot = (
        values.to_vec(),
        cares.to_vec(),
        relaxed.to_vec(),
        committed.to_vec(),
    );
    lanes::update_window_word_dispatch(
        dispatch,
        values,
        cares,
        input,
        relax_mask,
        commit_mask,
        gates,
        relaxed,
        committed,
    );
    #[cfg(debug_assertions)]
    {
        let (old_values, old_cares, old_relaxed, old_committed) = snapshot;
        // Full recount of the popcount maintenance: the counter deltas must
        // balance the care-plane popcount delta neuron by neuron.
        for i in 0..width {
            let care_delta = cares[i].count_ones() as i64 - old_cares[i].count_ones() as i64;
            let committed_delta = i64::from(committed[i]) - i64::from(old_committed[i]);
            let relaxed_delta = i64::from(relaxed[i]) - i64::from(old_relaxed[i]);
            debug_assert_eq!(
                care_delta,
                committed_delta - relaxed_delta,
                "{dispatch} popcount maintenance diverged from a full recount at neuron {i}"
            );
        }
        if dispatch != Dispatch::Scalar {
            let mut shadow_values = old_values;
            let mut shadow_cares = old_cares;
            let mut shadow_relaxed = old_relaxed;
            let mut shadow_committed = old_committed;
            lanes::update_window_word_dispatch(
                Dispatch::Scalar,
                &mut shadow_values,
                &mut shadow_cares,
                input,
                relax_mask,
                commit_mask,
                gates,
                &mut shadow_relaxed,
                &mut shadow_committed,
            );
            debug_assert!(
                values == shadow_values.as_slice()
                    && cares == shadow_cares.as_slice()
                    && relaxed == shadow_relaxed.as_slice()
                    && committed == shadow_committed.as_slice(),
                "{dispatch} window-update lowering diverged from the scalar walk"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryVector, TriStateVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masked_hamming_words_matches_tristate_hamming() {
        // `TriStateVector::hamming` calls the kernel, so both are held to
        // the distance counted one bit at a time: a cared-for bit whose
        // value differs from the input's.
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        for len in [1, 63, 64, 65, 130, 768] {
            for dont_care in [0.0, 0.3, 1.0] {
                let w = TriStateVector::random_with_dont_care(len, dont_care, &mut rng);
                let x = BinaryVector::random(len, &mut rng);
                let (value, care) = (w.value_plane(), w.care_plane());
                let by_bit = (0..len)
                    .filter(|&i| care.bit(i) && value.bit(i) != x.bit(i))
                    .count();
                let kernel = masked_hamming_words(value.as_words(), care.as_words(), x.as_words());
                assert_eq!(kernel, by_bit, "len {len}, p(#) {dont_care}");
                assert_eq!(
                    w.hamming(&x).unwrap(),
                    by_bit,
                    "len {len}, p(#) {dont_care}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn masked_hamming_words_rejects_mismatched_slices() {
        masked_hamming_words(&[0, 0], &[0, 0], &[0]);
    }

    /// A whole plane-sliced layer's distances as one row pass per input
    /// word: `values` and `cares` hold `neurons` words per input word.
    fn plane_distances(
        values: &[u64],
        cares: &[u64],
        input: &[u64],
        neurons: usize,
        distances: &mut [u32],
    ) {
        for (w, &x) in input.iter().enumerate() {
            let row = w * neurons..(w + 1) * neurons;
            accumulate_masked_hamming_row(&values[row.clone()], &cares[row], x, distances);
        }
    }

    #[test]
    fn batch_kernel_matches_per_neuron_scalar_loop() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let neurons = 7;
        let len = 200; // 4 words with a masked tail
        let weights: Vec<TriStateVector> = (0..neurons)
            .map(|_| TriStateVector::random_with_dont_care(len, 0.25, &mut rng))
            .collect();
        let input = BinaryVector::random(len, &mut rng);

        // Build the plane-sliced layout by hand.
        let words = len.div_ceil(64);
        let mut values = vec![0u64; words * neurons];
        let mut cares = vec![0u64; words * neurons];
        for (i, w) in weights.iter().enumerate() {
            for (word, &v) in w.value_plane().as_words().iter().enumerate() {
                values[word * neurons + i] = v;
            }
            for (word, &c) in w.care_plane().as_words().iter().enumerate() {
                cares[word * neurons + i] = c;
            }
        }

        let mut distances = vec![0u32; neurons];
        plane_distances(&values, &cares, input.as_words(), neurons, &mut distances);
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(distances[i] as usize, w.hamming(&input).unwrap());
        }
    }

    #[test]
    fn batch_kernel_accumulates_across_calls() {
        // Splitting the word range across two calls must give the same total.
        let values = vec![u64::MAX, 0, u64::MAX, 0];
        let cares = vec![u64::MAX; 4];
        let input = [0u64, u64::MAX];
        let mut once = vec![0u32; 2];
        plane_distances(&values, &cares, &input, 2, &mut once);
        let mut split = vec![0u32; 2];
        plane_distances(&values[..2], &cares[..2], &input[..1], 2, &mut split);
        plane_distances(&values[2..], &cares[2..], &input[1..], 2, &mut split);
        assert_eq!(once, split);
    }

    #[test]
    #[should_panic(expected = "one distance slot per neuron")]
    fn batch_kernel_rejects_wrong_distance_len() {
        plane_distances(&[0], &[0], &[0], 1, &mut [0, 0]);
    }

    #[test]
    fn window_word_needs_reports_both_transitions() {
        let lane_mask = u64::MAX;
        // Fully concrete, agreeing run: nothing to do.
        let (r, c) = window_word_needs(&[0b1010], &[lane_mask], &[u64::MAX], 0b1010, lane_mask);
        assert!(!r && !c);
        // A disagreeing concrete bit needs relax.
        let (r, c) = window_word_needs(&[0b1011], &[lane_mask], &[u64::MAX], 0b1010, lane_mask);
        assert!(r && !c);
        // A # lane needs commit — but only behind an open gate.
        let (r, c) = window_word_needs(&[0], &[!1u64], &[u64::MAX], 0, lane_mask);
        assert!(!r && c);
        let (r, c) = window_word_needs(&[0], &[!1u64], &[0], 0, lane_mask);
        assert!(!r && !c);
        // Tail lanes beyond the lane mask never count as undecided.
        let tail = (1u64 << 6) - 1;
        let (r, c) = window_word_needs(&[0], &[tail], &[u64::MAX], 0, tail);
        assert!(!r && !c);
    }

    #[test]
    fn update_window_word_matches_per_neuron_update_word() {
        let mut rng = StdRng::seed_from_u64(0x77D0);
        use rand::Rng;
        for _ in 0..50 {
            let width = 1 + (rng.gen::<usize>() % 9);
            let values: Vec<u64> = (0..width).map(|_| rng.gen()).collect();
            let raw_cares: Vec<u64> = (0..width).map(|_| rng.gen()).collect();
            // Keep the value-zero-where-care-zero invariant of real planes.
            let cares = raw_cares;
            let values: Vec<u64> = values.iter().zip(&cares).map(|(v, c)| v & c).collect();
            let gates: Vec<u64> = (0..width)
                .map(|_| if rng.gen() { u64::MAX } else { 0 })
                .collect();
            let input: u64 = rng.gen();
            let relax_mask: u64 = rng.gen();
            let commit_mask: u64 = rng.gen();

            let mut win_values = values.clone();
            let mut win_cares = cares.clone();
            let mut relaxed = vec![0u32; width];
            let mut committed = vec![0u32; width];
            update_window_word(
                &mut win_values,
                &mut win_cares,
                input,
                relax_mask,
                commit_mask,
                &gates,
                &mut relaxed,
                &mut committed,
            );
            for i in 0..width {
                let expected = crate::update_word(
                    values[i],
                    cares[i],
                    input,
                    relax_mask,
                    commit_mask & gates[i],
                );
                assert_eq!(win_values[i], expected.value, "neuron {i}");
                assert_eq!(win_cares[i], expected.care, "neuron {i}");
                assert_eq!(relaxed[i], expected.relaxed.count_ones());
                assert_eq!(committed[i], expected.committed.count_ones());
            }
        }
    }

    #[test]
    #[should_panic(expected = "one gate word per neuron")]
    fn update_window_word_rejects_mismatched_gates() {
        update_window_word(&mut [0], &mut [0], 0, 0, 0, &[0, 0], &mut [0], &mut [0]);
    }

    /// The winner of a one-word layer whose neuron `i` sits `distances[i]`
    /// bits from the input, under every available dispatch (which must
    /// agree).
    fn winner_of(distances: &[u32], counts: &[u32]) -> Option<(usize, u32)> {
        let values = vec![0u64; distances.len()];
        let cares: Vec<u64> = distances.iter().map(|&d| (1u64 << d) - 1).collect();
        let rows = [(&values[..], &cares[..])];
        let winners: Vec<_> = Dispatch::available()
            .into_iter()
            .map(|dispatch| {
                wta_winner_with(dispatch, &rows, counts, &[u64::MAX]).map(|w| (w.index, w.distance))
            })
            .collect();
        assert!(winners.windows(2).all(|pair| pair[0] == pair[1]));
        winners[0]
    }

    #[test]
    fn wta_winner_applies_full_comparator_key() {
        // Distance first.
        assert_eq!(winner_of(&[5, 3, 9], &[0, 700, 0]), Some((1, 3)));
        // #-count breaks distance ties.
        assert_eq!(winner_of(&[5, 5], &[700, 3]), Some((1, 5)));
        // Address breaks full ties.
        assert_eq!(winner_of(&[5, 5], &[3, 3]), Some((0, 5)));
        assert_eq!(winner_of(&[], &[]), None);
        // The same three rules across the eight-lane blocks: the minimum
        // sits in lanes 7, 8 and 16 of 17 neurons.
        let mut distances = [9u32; 17];
        let mut counts = [0u32; 17];
        distances[16] = 2;
        assert_eq!(winner_of(&distances, &counts), Some((16, 2)));
        distances[8] = 2;
        counts[16] = 1;
        counts[8] = 2;
        assert_eq!(winner_of(&distances, &counts), Some((16, 2)));
        distances[7] = 2;
        counts[7] = 1;
        assert_eq!(winner_of(&distances, &counts), Some((7, 2)));
    }

    #[test]
    fn wta_key_orders_like_the_fpga_comparator() {
        use crate::lanes::wta_key;
        assert!(wta_key(3, u32::MAX) < wta_key(4, 0), "distance dominates");
        assert!(
            wta_key(4, 9) < wta_key(4, 10),
            "#-count breaks distance ties"
        );
        assert_eq!(
            wta_key(4, 10),
            wta_key(4, 10),
            "the address is kept beside the key"
        );
        assert!(
            wta_key(u32::MAX - 1, u32::MAX) < u64::MAX,
            "never the empty minimum"
        );
    }

    #[test]
    fn wta_winners_into_marks_wrong_length_inputs() {
        let values = [0u64; 3];
        let cares = [u64::MAX, 1, 3];
        let rows = [(&values[..], &cares[..])];
        let inputs: Vec<BinaryVector> = [64, 63, 64].into_iter().map(BinaryVector::zeros).collect();
        let mut winners = [Some(BatchWinner {
            index: 9,
            distance: 9,
            dont_care_count: 9,
        }); 3];
        wta_winners_into(&rows, &[0, 0, 0], 64, &inputs, &mut winners);
        let alone = wta_winner(&rows, &[0, 0, 0], inputs[0].as_words());
        assert_eq!(winners, [alone, None, alone]);
        assert_eq!(alone.map(|w| w.index), Some(0));
    }

    /// The row kernel over a two-neuron, two-word layer against
    /// [`masked_hamming_words`] over each neuron's own value and care planes.
    #[test]
    fn row_kernel_agrees_with_the_plane_kernel() {
        let values = vec![u64::MAX, 0b1010, u64::MAX, 0];
        let cares = vec![u64::MAX, u64::MAX, 0b1111, u64::MAX];
        let input = [0u64, u64::MAX];
        let plane: Vec<u32> = (0..2)
            .map(|i| {
                let column = |plane: &[u64]| [plane[i], plane[2 + i]];
                masked_hamming_words(&column(&values), &column(&cares), &input) as u32
            })
            .collect();
        let mut rows = vec![0u32; 2];
        accumulate_masked_hamming_row(&values[..2], &cares[..2], input[0], &mut rows);
        accumulate_masked_hamming_row(&values[2..], &cares[2..], input[1], &mut rows);
        assert_eq!(plane, rows);
        assert_eq!(rows, [64, 2 + 64]);
    }

    #[test]
    fn would_change_predicts_update_window_word_exactly() {
        let mut rng = StdRng::seed_from_u64(0xD1E7);
        use rand::Rng;
        for _ in 0..200 {
            let width = 1 + (rng.gen::<usize>() % 9);
            let cares: Vec<u64> = (0..width).map(|_| rng.gen()).collect();
            let values: Vec<u64> = cares.iter().map(|c| rng.gen::<u64>() & c).collect();
            let gates: Vec<u64> = (0..width)
                .map(|_| if rng.gen() { u64::MAX } else { 0 })
                .collect();
            let input: u64 = rng.gen();
            let relax_mask: u64 = rng.gen::<u64>() & rng.gen::<u64>();
            let commit_mask: u64 = rng.gen::<u64>() & rng.gen::<u64>();
            let predicted =
                window_word_would_change(&values, &cares, &gates, input, relax_mask, commit_mask);
            let mut v = values.clone();
            let mut c = cares.clone();
            let mut relaxed = vec![0u32; width];
            let mut committed = vec![0u32; width];
            update_window_word(
                &mut v,
                &mut c,
                input,
                relax_mask,
                commit_mask,
                &gates,
                &mut relaxed,
                &mut committed,
            );
            let changed = v != values || c != cares;
            assert_eq!(predicted, changed);
            let flipped = relaxed.iter().chain(&committed).any(|&n| n != 0);
            assert_eq!(predicted, flipped, "flip counters must agree too");
        }
    }
}
