//! The plane-sliced competitive layer: one layout for search **and** update.
//!
//! [`PackedLayer`] stores the competitive layer in the layout the FPGA
//! datapath implies (DESIGN.md §"The batched engine layout"): for each
//! 64-bit word index `w`, the `w`-th value/care word of **every** neuron is
//! stored contiguously in a *word row* (`value_row(w)[i]` is neuron `i`'s
//! word `w`). One sequential pass over the input words then computes the
//! #-aware Hamming distance to all neurons at once, the whole layer fits the
//! cache line by line — and, because a neighbourhood is a contiguous run of
//! neuron addresses, the `w`-th words of a whole neighbourhood are a
//! contiguous run inside row `w`, which is what
//! [`PackedLayer::apply_window_update`] exploits to train every neuron in
//! the winner's address window in a single pass under one broadcast
//! Bernoulli mask stream (DESIGN.md §"The neighbourhood broadcast update").
//!
//! ## Copy-on-write rows
//!
//! Each word row lives behind its own [`Arc`], so cloning a `PackedLayer` —
//! the serving-snapshot publish in `bsom-engine` — copies only the spine of
//! row pointers, O(`words_per_vector`) refcount bumps instead of O(map)
//! words. The update paths ([`apply_neuron_update`](PackedLayer::apply_neuron_update),
//! [`apply_window_update`](PackedLayer::apply_window_update)) only
//! [`Arc::make_mut`] a row when they are about to change at least one of its
//! words, so rows untouched since the last publish stay physically shared
//! between consecutive snapshots and a publish allocates O(rows touched
//! since the last publish) (DESIGN.md §"Copy-on-write publication and the
//! winner search"). [`shared_row_count`](PackedLayer::shared_row_count)
//! exposes the sharing for tests and diagnostics.
//!
//! ## The winner search
//!
//! [`PackedLayer::winner`] and [`PackedLayer::winners_into`] are the two
//! winner paths. Both run the fused kernel of `bsom_signature`
//! ([`wta_winner`], [`wta_winners_into`]): the distances of a block of
//! neurons are summed over every word row and reduced at once into a
//! running minimum of the `{distance, #-count, address}` key — the
//! comparator of the FPGA's WTA tree, which `bsom_fpga::blocks::wta` models
//! cycle for cycle — so no distance table is built, and the batch form
//! compares every plane word it loads against up to eight inputs. The
//! `packed_equivalence` suite holds both to an independent per-neuron
//! oracle, ties across the 1,024-neuron edge included;
//! [`distances`](PackedLayer::distances) remains for callers that want the
//! whole table.
//!
//! ## The map's only weight store
//!
//! A `PackedLayer` is the [`BSom`](crate::BSom)'s weights: the map keeps
//! no other copy. Every weight write lands here — per-neuron column rewrites through
//! [`apply_neuron_update`](PackedLayer::apply_neuron_update), whole-window
//! writes through [`apply_window_update`](PackedLayer::apply_window_update)
//! — with the `#`-counts maintained from the write's popcount deltas, and a
//! neuron's vector is gathered out of the rows on demand
//! ([`neuron`](PackedLayer::neuron)). The `incremental_packed` proptest
//! suite pins down that the maintained layer equals a from-scratch
//! [`from_neurons`](PackedLayer::from_neurons) of the gathered weights,
//! **word for word** (planes, `#`-counts and shape). Publishing a serving
//! snapshot is a plain clone of
//! [`BSom::packed_layer`](crate::BSom::packed_layer), never a re-pack or a
//! serialization (a layer has no serde form), and the winner returned by
//! [`PackedLayer::winner`] is bit-identical to
//! [`BSom::winner`](crate::SelfOrganizingMap::winner) —
//! including the `{distance, #-count, address}` tie-break
//! (`packed_equivalence` suite).
//!
//! ```rust
//! use bsom_signature::BinaryVector;
//! use bsom_som::{BSom, BSomConfig, PackedLayer, SelfOrganizingMap, TrainSchedule};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bsom_som::SomError> {
//! let mut rng = StdRng::seed_from_u64(9);
//! let mut som = BSom::new(BSomConfig::new(8, 70), &mut rng);
//! let input = BinaryVector::random(70, &mut rng);
//! som.train_step(&input, 0, &TrainSchedule::new(1))?;
//! // The layer updated in place equals a fresh pack of its gathered weights.
//! assert_eq!(som.packed_layer(), &PackedLayer::from_neurons(&som.neurons())?);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use bsom_signature::bernoulli::{draw_broadcast_masks, MaskPlan};
pub use bsom_signature::BatchWinner;
use bsom_signature::{
    accumulate_masked_hamming_row, update_window_word, window_word_needs, window_word_would_change,
    wta_winner, wta_winners_into, BinaryVector, LineAlignedRow, TriStateVector, WordRow,
};

use crate::error::SomError;

/// A read-only, plane-sliced snapshot of a bSOM competitive layer.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::BinaryVector;
/// use bsom_som::{BSom, BSomConfig, PackedLayer, SelfOrganizingMap};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let som = BSom::new(BSomConfig::new(8, 64), &mut rng);
/// let layer = som.packed_layer().clone();
/// let input = BinaryVector::random(64, &mut rng);
/// let batched = layer.winner(&input).unwrap();
/// let scalar = som.winner(&input).unwrap();
/// assert_eq!(batched.index, scalar.index);
/// assert_eq!(batched.distance as f64, scalar.distance);
///
/// // Cloning is a copy-on-write publish: every row is shared, not copied.
/// let snapshot = layer.clone();
/// assert_eq!(snapshot.shared_row_count(&layer), layer.word_row_count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayer {
    neurons: usize,
    vector_len: usize,
    words_per_vector: usize,
    /// One copy-on-write word row per input word index: `rows[w]` holds
    /// neuron `i`'s `w`-th value word at `rows[w].values()[i]` (cares
    /// likewise), both planes of a row in one cache-line-aligned
    /// allocation, so a window update that touches both copies the row
    /// once.
    rows: Vec<Arc<LineAlignedRow>>,
    /// Per-neuron `#`-counts, precomputed for the tie-break key. Behind its
    /// own `Arc` on the same copy-on-write discipline as the rows.
    dont_care_counts: Arc<Vec<u32>>,
    /// The window update's flip counters, reused from step to step.
    flips: FlipCounters,
}

/// Per-neuron relax and commit flip counts of one window update
/// ([`PackedLayer::apply_window_update`]), the deltas its `#`-counts are
/// maintained from, kept between steps so training allocates nothing per
/// step. Scratch, not state: a clone starts empty and equality ignores it.
#[derive(Debug, Default)]
struct FlipCounters {
    relaxed: Vec<u32>,
    committed: Vec<u32>,
}

impl Clone for FlipCounters {
    fn clone(&self) -> Self {
        FlipCounters::default()
    }
}

impl PartialEq for FlipCounters {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FlipCounters {}

impl PackedLayer {
    /// Builds a packed layer from explicit tri-state weight vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyConfiguration`] for an empty weight list and
    /// [`SomError::InputLengthMismatch`] if the weights disagree on length.
    pub fn from_neurons(weights: &[TriStateVector]) -> Result<Self, SomError> {
        let vector_len = weights.first().map(TriStateVector::len).unwrap_or(0);
        if weights.is_empty() || vector_len == 0 {
            return Err(SomError::EmptyConfiguration {
                neurons: weights.len(),
                vector_len,
            });
        }
        if let Some(bad) = weights.iter().find(|w| w.len() != vector_len) {
            return Err(SomError::InputLengthMismatch {
                expected: vector_len,
                actual: bad.len(),
            });
        }
        let neurons = weights.len();
        let words_per_vector = vector_len.div_ceil(64);
        let mut rows: Vec<LineAlignedRow> = (0..words_per_vector)
            .map(|_| LineAlignedRow::zeroed(neurons))
            .collect();
        let mut planes: Vec<(&mut [u64], &mut [u64])> =
            rows.iter_mut().map(LineAlignedRow::planes_mut).collect();
        for (i, weight) in weights.iter().enumerate() {
            let words = weight.value_plane().as_words();
            for ((plane, &v), &c) in planes
                .iter_mut()
                .zip(words)
                .zip(weight.care_plane().as_words())
            {
                plane.0[i] = v;
                plane.1[i] = c;
            }
        }
        let dont_care_counts = weights.iter().map(|w| w.count_dont_care() as u32).collect();
        Ok(PackedLayer {
            neurons,
            vector_len,
            words_per_vector,
            rows: rows.into_iter().map(Arc::new).collect(),
            dont_care_counts: Arc::new(dont_care_counts),
            flips: FlipCounters::default(),
        })
    }

    /// Gathers neuron `index`'s weight vector out of the word rows.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn neuron(&self, index: usize) -> TriStateVector {
        assert!(
            index < self.neurons,
            "neuron {index} out of range for a {}-neuron layer",
            self.neurons
        );
        let mut weight = TriStateVector::all_dont_care(self.vector_len);
        for (w, row) in self.rows.iter().enumerate() {
            weight.set_plane_word(w, row.values()[index], row.cares()[index]);
        }
        weight
    }

    /// Rewrites the words of neuron `index` in place from its new weight
    /// vector — the incremental-maintenance hook that lets a training loop
    /// keep one packed layout current instead of re-packing the whole layer
    /// per publish. Only rows whose word for this neuron actually changes
    /// are unshared ([`Arc::make_mut`]); every row the write leaves
    /// bit-identical stays physically shared with previously published
    /// snapshots.
    ///
    /// `dont_care_count` is the neuron's new `#`-count (callers maintain it
    /// incrementally from update deltas; debug-asserted against a recount).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `weight` has the wrong length.
    pub fn apply_neuron_update(
        &mut self,
        index: usize,
        weight: &TriStateVector,
        dont_care_count: u32,
    ) {
        assert!(
            index < self.neurons,
            "neuron {index} out of range for a {}-neuron layer",
            self.neurons
        );
        assert_eq!(
            weight.len(),
            self.vector_len,
            "weight length must match the layer's vector length"
        );
        debug_assert_eq!(
            weight.count_dont_care(),
            dont_care_count as usize,
            "stale #-count handed to apply_neuron_update for neuron {index}"
        );
        let value_words = weight.value_plane().as_words();
        let care_words = weight.care_plane().as_words();
        for (w, row) in self.rows.iter_mut().enumerate() {
            let (v, c) = (value_words[w], care_words[w]);
            if row.values()[index] == v && row.cares()[index] == c {
                continue; // row untouched: stays shared with live snapshots
            }
            let (values, cares) = Arc::make_mut(row).planes_mut();
            values[index] = v;
            cares[index] = c;
        }
        if self.dont_care_counts[index] != dont_care_count {
            Arc::make_mut(&mut self.dont_care_counts)[index] = dont_care_count;
        }
    }

    /// Applies one stochastically damped tri-state update to **every neuron
    /// in the contiguous address window** `window`, directly on the packed
    /// column words — the software shape of the FPGA's single update circuit
    /// broadcast to the neighbourhood (DESIGN.md §"The neighbourhood
    /// broadcast update").
    ///
    /// Per 64-bit word index one broadcast (relax, commit) mask pair is
    /// drawn from the plans ([`draw_broadcast_masks`], skipping draws for
    /// words where no neuron in the window can take the transition) and
    /// applied to the window's run of row `w` with [`update_window_word`];
    /// `commit_gates[i]` (all-ones or zero) is neuron `window.start + i`'s
    /// update-enable line for the commit transition. The per-neuron
    /// `#`-counts of the layer are updated from the popcount deltas, counted
    /// in flip counters the layer reuses from step to step, so a training
    /// loop performs no per-step allocation.
    ///
    /// A row is unshared ([`Arc::make_mut`]) only when the drawn masks will
    /// actually flip at least one bit in it
    /// ([`window_word_would_change`]) — rows the step leaves bit-identical
    /// stay physically shared with previously published snapshots, which is
    /// what makes consecutive publishes O(rows touched). The skip is
    /// RNG-transparent: mask words are still drawn (or skipped) exactly as
    /// before, so the Bernoulli stream — and therefore every subsequent
    /// weight — is bit-identical to the always-write path.
    ///
    /// RNG cost is per *window word*, not per neuron — updating a 9-neuron
    /// neighbourhood draws exactly as many mask words as updating one
    /// neuron.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or out of range, if `commit_gates` is
    /// not exactly `window.len()` long, or if `input` has the wrong length.
    pub fn apply_window_update(
        &mut self,
        window: std::ops::Range<usize>,
        input: &BinaryVector,
        relax: &MaskPlan,
        commit: &MaskPlan,
        commit_gates: &[u64],
        state: &mut u64,
    ) {
        assert!(
            window.start < window.end && window.end <= self.neurons,
            "window {window:?} out of range for a {}-neuron layer",
            self.neurons
        );
        let width = window.end - window.start;
        assert_eq!(width, commit_gates.len(), "one commit gate per neuron");
        assert_eq!(
            input.len(),
            self.vector_len,
            "input length must match the layer's vector length"
        );
        let FlipCounters { relaxed, committed } = &mut self.flips;
        relaxed.clear();
        relaxed.resize(width, 0);
        committed.clear();
        committed.resize(width, 0);
        for (w, &x) in input.as_words().iter().enumerate() {
            let lane_mask = if (w + 1) * 64 <= self.vector_len {
                u64::MAX
            } else {
                (1u64 << (self.vector_len % 64)) - 1
            };
            let row = &self.rows[w];
            let run_values = &row.values()[window.start..window.end];
            let run_cares = &row.cares()[window.start..window.end];
            let (needs_relax, needs_commit) =
                window_word_needs(run_values, run_cares, commit_gates, x, lane_mask);
            if !needs_relax && !needs_commit {
                // No neuron in the window can take either transition in this
                // word; draw_broadcast_masks would consume nothing from the
                // stream and update_window_word would write nothing.
                continue;
            }
            let masks = draw_broadcast_masks(relax, commit, needs_relax, needs_commit, state);
            let commit_mask = masks.commit & lane_mask;
            if !window_word_would_change(
                run_values,
                run_cares,
                commit_gates,
                x,
                masks.relax,
                commit_mask,
            ) {
                // Masks drawn (stream position preserved) but every
                // transition was masked off: the row stays shared.
                continue;
            }
            let (values, cares) = Arc::make_mut(&mut self.rows[w]).planes_mut();
            update_window_word(
                &mut values[window.start..window.end],
                &mut cares[window.start..window.end],
                x,
                masks.relax,
                commit_mask,
                commit_gates,
                relaxed,
                committed,
            );
        }
        if relaxed.iter().zip(committed.iter()).any(|(&r, &c)| r != c) {
            let counts = Arc::make_mut(&mut self.dont_care_counts);
            for (i, (&r, &c)) in relaxed.iter().zip(committed.iter()).enumerate() {
                let count = &mut counts[window.start + i];
                *count = (i64::from(*count) + i64::from(r) - i64::from(c)) as u32;
            }
        }
    }

    /// Number of neurons in the layer.
    pub fn neuron_count(&self) -> usize {
        self.neurons
    }

    /// Length of the weight vectors / expected input length in bits.
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// Per-neuron `#`-counts in address order (the secondary comparator key).
    pub fn dont_care_counts(&self) -> &[u32] {
        &self.dont_care_counts
    }

    /// Number of word rows (one per 64-bit word index of the vectors).
    pub fn word_row_count(&self) -> usize {
        self.words_per_vector
    }

    /// Word row `w` of the value plane: neuron `i`'s `w`-th value word is
    /// `value_row(w)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.word_row_count()`.
    pub fn value_row(&self, w: usize) -> &[u64] {
        self.rows[w].values()
    }

    /// Word row `w` of the care plane, in the same layout as
    /// [`value_row`](Self::value_row).
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.word_row_count()`.
    pub fn care_row(&self, w: usize) -> &[u64] {
        self.rows[w].cares()
    }

    /// Number of word rows physically shared (same allocation, not merely
    /// equal) between `self` and `other` — the copy-on-write observable the
    /// `cow_snapshot` suite asserts on. Layers of different shapes share
    /// nothing.
    pub fn shared_row_count(&self, other: &PackedLayer) -> usize {
        self.rows
            .iter()
            .zip(&other.rows)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// `true` iff the `#`-count table is physically shared with `other`'s.
    pub fn shares_counts_with(&self, other: &PackedLayer) -> bool {
        Arc::ptr_eq(&self.dont_care_counts, &other.dont_care_counts)
    }

    fn check_input(&self, input: &BinaryVector) -> Result<(), SomError> {
        if input.len() != self.vector_len {
            return Err(SomError::InputLengthMismatch {
                expected: self.vector_len,
                actual: input.len(),
            });
        }
        Ok(())
    }

    /// Distances from `input` to every neuron, in address order.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    pub fn distances(&self, input: &BinaryVector) -> Result<Vec<u32>, SomError> {
        self.check_input(input)?;
        let mut distances = vec![0u32; self.neurons];
        for (row, &x) in self.rows.iter().zip(input.as_words()) {
            accumulate_masked_hamming_row(row.values(), row.cares(), x, &mut distances);
        }
        Ok(distances)
    }

    /// The winner of `input` under the `{distance, #-count, address}`
    /// comparator, in one fused pass over the word rows
    /// ([`bsom_signature::wta_winner`]): no distance table, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    pub fn winner(&self, input: &BinaryVector) -> Result<BatchWinner, SomError> {
        self.check_input(input)?;
        Ok(
            wta_winner(&self.rows, &self.dont_care_counts, input.as_words())
                .expect("a constructed PackedLayer is never empty"),
        )
    }

    /// [`winner`](Self::winner) for a whole batch: `winners[i]` becomes the
    /// winner of `inputs[i]`, or `None` for a wrong-length input. Up to
    /// eight inputs share each pass over the layer
    /// ([`bsom_signature::wta_winners_into`]), with answers identical to
    /// one [`winner`](Self::winner) call per input. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `winners.len() != inputs.len()`.
    pub fn winners_into(&self, inputs: &[BinaryVector], winners: &mut [Option<BatchWinner>]) {
        wta_winners_into(
            &self.rows,
            &self.dont_care_counts,
            self.vector_len,
            inputs,
            winners,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsom::{BSom, BSomConfig};
    use crate::som_trait::SelfOrganizingMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBA7C4ED)
    }

    #[test]
    fn from_neurons_validates_shapes() {
        assert!(matches!(
            PackedLayer::from_neurons(&[]),
            Err(SomError::EmptyConfiguration { .. })
        ));
        let bad = [TriStateVector::zeros(8), TriStateVector::zeros(9)];
        assert!(matches!(
            PackedLayer::from_neurons(&bad),
            Err(SomError::InputLengthMismatch {
                expected: 8,
                actual: 9
            })
        ));
    }

    #[test]
    fn packed_distances_match_scalar_distances() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::paper_default(), &mut r);
        let layer = PackedLayer::from_neurons(&som.neurons()).unwrap();
        assert_eq!(layer.neuron_count(), 40);
        assert_eq!(layer.vector_len(), 768);
        assert_eq!(layer.word_row_count(), 12);
        for _ in 0..10 {
            let input = BinaryVector::random(768, &mut r);
            let scalar = som.distances(&input).unwrap();
            let packed = layer.distances(&input).unwrap();
            for (s, p) in scalar.iter().zip(&packed) {
                assert_eq!(*s, *p as f64);
            }
        }
    }

    #[test]
    fn packed_winner_matches_scalar_winner_after_training() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(16, 96), &mut r);
        let data: Vec<BinaryVector> = (0..8).map(|_| BinaryVector::random(96, &mut r)).collect();
        som.train(&data, crate::TrainSchedule::new(30), &mut r)
            .unwrap();
        let layer = PackedLayer::from_neurons(&som.neurons()).unwrap();
        for input in &data {
            let scalar = som.winner(input).unwrap();
            let packed = layer.winner(input).unwrap();
            assert_eq!(packed.index, scalar.index);
            assert_eq!(packed.distance as f64, scalar.distance);
        }
    }

    #[test]
    fn tie_break_prefers_specific_then_low_address() {
        // Neuron 0 is all-#: distance 0 everywhere but maximally unspecific.
        // Neuron 1 exactly matches the input: distance 0 and fully concrete.
        let weights = [
            TriStateVector::from_str("####").unwrap(),
            TriStateVector::from_str("1010").unwrap(),
            TriStateVector::from_str("1010").unwrap(),
        ];
        let layer = PackedLayer::from_neurons(&weights).unwrap();
        let w = layer
            .winner(&BinaryVector::from_bit_str("1010").unwrap())
            .unwrap();
        assert_eq!(w.index, 1, "specificity beats the all-# neuron");
        assert_eq!(w.distance, 0);
        assert_eq!(w.dont_care_count, 0);
    }

    #[test]
    fn wrong_length_input_errors() {
        let layer = PackedLayer::from_neurons(&[TriStateVector::zeros(16)]).unwrap();
        assert!(matches!(
            layer.winner(&BinaryVector::zeros(8)),
            Err(SomError::InputLengthMismatch {
                expected: 16,
                actual: 8
            })
        ));
        let mut winners = [Some(layer.winner(&BinaryVector::zeros(16)).unwrap())];
        layer.winners_into(&[BinaryVector::zeros(8)], &mut winners);
        assert_eq!(winners, [None]);
    }

    #[test]
    fn winners_batch_matches_individual_calls() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(12, 128), &mut r);
        let layer = som.packed_layer().clone();
        let inputs: Vec<BinaryVector> =
            (0..11).map(|_| BinaryVector::random(128, &mut r)).collect();
        let mut batch = vec![None; inputs.len()];
        layer.winners_into(&inputs, &mut batch);
        for (input, batched) in inputs.iter().zip(&batch) {
            assert_eq!(*batched, Some(layer.winner(input).unwrap()));
        }
    }

    #[test]
    fn clone_shares_every_row() {
        let mut r = rng();
        let layer = BSom::new(BSomConfig::new(8, 192), &mut r)
            .packed_layer()
            .clone();
        let snapshot = layer.clone();
        assert_eq!(snapshot.shared_row_count(&layer), layer.word_row_count());
        assert!(snapshot.shares_counts_with(&layer));
        assert_eq!(snapshot, layer);
    }

    #[test]
    fn neuron_update_unshares_only_touched_rows() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(8, 192), &mut r);
        let mut layer = som.packed_layer().clone();
        let snapshot = layer.clone();

        // A no-op rewrite (same weight) must leave every row shared.
        let mut weight = layer.neuron(3);
        let count = layer.dont_care_counts()[3];
        layer.apply_neuron_update(3, &weight, count);
        assert_eq!(layer.shared_row_count(&snapshot), 3);
        assert!(layer.shares_counts_with(&snapshot));

        // Flip one trit in word 1 only: exactly that row must unshare.
        let old = weight.trit(70);
        weight.set(70, different_trit(old));
        layer.apply_neuron_update(3, &weight, weight.count_dont_care() as u32);
        assert_eq!(layer.shared_row_count(&snapshot), 2);
        assert!(std::sync::Arc::ptr_eq(&layer.rows[0], &snapshot.rows[0]));
        assert!(!std::sync::Arc::ptr_eq(&layer.rows[1], &snapshot.rows[1]));
        assert!(std::sync::Arc::ptr_eq(&layer.rows[2], &snapshot.rows[2]));
        // Still word-for-word correct after the copy-on-write.
        assert_eq!(layer.neuron(3), weight);
        assert_eq!(
            layer.dont_care_counts()[3] as usize,
            weight.count_dont_care()
        );
    }

    fn different_trit(t: bsom_signature::Trit) -> bsom_signature::Trit {
        match t {
            bsom_signature::Trit::Zero => bsom_signature::Trit::One,
            _ => bsom_signature::Trit::Zero,
        }
    }
}
