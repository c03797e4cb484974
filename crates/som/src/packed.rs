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
//! [`PackedLayer::winner`] reduces the distance vector with
//! [`select_winner`]: one linear scan for the smallest `{distance, #-count,
//! address}` key — the comparator of the FPGA's WTA tree, which
//! `bsom_fpga::blocks::wta` models cycle for cycle. The `packed_equivalence`
//! suite holds it to an independent per-neuron oracle, ties across the
//! [`DISTANCE_BLOCK_NEURONS`] block edge included.
//!
//! ## The incremental-layout invariant
//!
//! [`BSom`] *owns* a `PackedLayer` and maintains it incrementally on every
//! weight write — per-neuron column rewrites through
//! [`apply_neuron_update`](PackedLayer::apply_neuron_update), whole-window
//! writes through [`apply_window_update`](PackedLayer::apply_window_update).
//! The invariant, debug-asserted after every update and pinned down by the
//! `incremental_packed` proptest suite, is that the maintained layout always
//! equals a from-scratch [`PackedLayer::pack`] of the same map, **word for
//! word** (planes, `#`-counts and shape). Publishing a serving snapshot is
//! therefore a plain clone of this field, never a re-pack, and the winner
//! returned by [`PackedLayer::winner`] is bit-identical to
//! [`BSom::winner`](crate::SelfOrganizingMap::winner) — including the
//! `{distance, #-count, address}` tie-break (`packed_equivalence` suite).
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
//! // The incrementally maintained layout equals a fresh pack word for word.
//! assert_eq!(som.packed_layer(), &PackedLayer::pack(&som));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use bsom_signature::bernoulli::{draw_broadcast_masks, MaskPlan};
use bsom_signature::{
    accumulate_masked_hamming_row, select_winner, update_window_word, window_word_needs,
    window_word_would_change, BinaryVector, TriStateVector,
};
use serde::{Deserialize, Serialize};

use crate::bsom::BSom;
use crate::error::SomError;

/// Neuron-axis block width of the cache-blocked distance pass.
///
/// The winner search walks every word row of the plane-sliced layer over
/// the whole distance table; once the table (4 bytes per neuron) plus one
/// block of each plane row stops fitting in L1, each word row evicts the
/// distances the previous row just touched. Blocking the column walk at
/// 1024 neurons keeps a 4 KiB distance block resident across all word rows
/// while the 8 KiB value/care row blocks stream through once each. Any
/// positive value yields bit-identical distances (the per-neuron
/// accumulation order over words is unchanged); this constant only picks
/// the performance point.
pub const DISTANCE_BLOCK_NEURONS: usize = 1024;

/// The result of a batched winner search, carrying the full FPGA comparator
/// key so callers can audit tie-breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchWinner {
    /// Address of the winning neuron.
    pub index: usize,
    /// Its #-aware Hamming distance to the input.
    pub distance: u32,
    /// The winning neuron's `#`-count (the secondary comparator key).
    pub dont_care_count: u32,
}

/// One word row of the plane-sliced layout: the `w`-th value and care word
/// of every neuron, bundled so a window update that touches both planes
/// copies the row once. Private — rows are an ownership detail; callers see
/// [`PackedLayer::value_row`] / [`PackedLayer::care_row`] slices.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlaneRow {
    values: Vec<u64>,
    cares: Vec<u64>,
}

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
/// let layer = PackedLayer::pack(&som);
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
    /// neuron `i`'s `w`-th value word at `rows[w].values[i]` (cares
    /// likewise).
    rows: Vec<Arc<PlaneRow>>,
    /// Per-neuron `#`-counts, precomputed for the tie-break key. Behind its
    /// own `Arc` on the same copy-on-write discipline as the rows.
    dont_care_counts: Arc<Vec<u32>>,
}

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
        let mut rows: Vec<PlaneRow> = (0..words_per_vector)
            .map(|_| PlaneRow {
                values: vec![0u64; neurons],
                cares: vec![0u64; neurons],
            })
            .collect();
        for (i, weight) in weights.iter().enumerate() {
            for (w, &v) in weight.value_plane().as_words().iter().enumerate() {
                rows[w].values[i] = v;
            }
            for (w, &c) in weight.care_plane().as_words().iter().enumerate() {
                rows[w].cares[i] = c;
            }
        }
        let dont_care_counts = weights.iter().map(|w| w.count_dont_care() as u32).collect();
        Ok(PackedLayer {
            neurons,
            vector_len,
            words_per_vector,
            rows: rows.into_iter().map(Arc::new).collect(),
            dont_care_counts: Arc::new(dont_care_counts),
        })
    }

    /// Packs a [`BSom`]'s competitive layer from scratch — the reference
    /// layout that [`apply_neuron_update`](Self::apply_neuron_update)
    /// maintains incrementally (the `incremental_packed` test pins down that
    /// the two routes agree word for word).
    pub fn pack(som: &BSom) -> Self {
        Self::from_neurons(som.neurons()).expect("a constructed BSom is never empty")
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
            if row.values[index] == v && row.cares[index] == c {
                continue; // row untouched: stays shared with live snapshots
            }
            let row = Arc::make_mut(row);
            row.values[index] = v;
            row.cares[index] = c;
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
    /// `#`-counts of the layer are updated from the popcount deltas, and the
    /// same deltas are written into the caller's `relaxed` / `committed`
    /// counters so callers can maintain their own caches — scratch slices
    /// rather than returned vectors, so a training loop performs no per-step
    /// allocation (the counters are zeroed here, not accumulated).
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
    /// Panics if the window is empty or out of range, if `commit_gates`,
    /// `relaxed` or `committed` are not exactly `window.len()` long, or if
    /// `input` has the wrong length.
    // A hot-path entry point over parallel per-neuron slices, like the
    // `bsom_signature::batch` kernels it drives: bundling the operands into
    // a struct would only move the field list.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_window_update(
        &mut self,
        window: std::ops::Range<usize>,
        input: &BinaryVector,
        relax: &MaskPlan,
        commit: &MaskPlan,
        commit_gates: &[u64],
        state: &mut u64,
        relaxed: &mut [u32],
        committed: &mut [u32],
    ) {
        assert!(
            window.start < window.end && window.end <= self.neurons,
            "window {window:?} out of range for a {}-neuron layer",
            self.neurons
        );
        let width = window.end - window.start;
        assert_eq!(width, commit_gates.len(), "one commit gate per neuron");
        assert_eq!(width, relaxed.len(), "one relax counter per neuron");
        assert_eq!(width, committed.len(), "one commit counter per neuron");
        assert_eq!(
            input.len(),
            self.vector_len,
            "input length must match the layer's vector length"
        );
        relaxed.fill(0);
        committed.fill(0);
        for (w, &x) in input.as_words().iter().enumerate() {
            let lane_mask = if (w + 1) * 64 <= self.vector_len {
                u64::MAX
            } else {
                (1u64 << (self.vector_len % 64)) - 1
            };
            let row = &self.rows[w];
            let run_values = &row.values[window.start..window.end];
            let run_cares = &row.cares[window.start..window.end];
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
            let row = Arc::make_mut(&mut self.rows[w]);
            update_window_word(
                &mut row.values[window.start..window.end],
                &mut row.cares[window.start..window.end],
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

    /// Copies neuron `index`'s packed column words back into `weight`'s
    /// per-neuron planes — the write-back half of
    /// [`apply_window_update`](Self::apply_window_update), which keeps the
    /// two representations of the weights in lock-step.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `weight` has the wrong length.
    pub fn copy_neuron_into(&self, index: usize, weight: &mut TriStateVector) {
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
        for (w, row) in self.rows.iter().enumerate() {
            weight.set_plane_word(w, row.values[index], row.cares[index]);
        }
    }

    /// `true` iff neuron `index`'s packed words and `#`-count equal `weight`'s
    /// planes — the per-neuron sync check the [`BSom`] update paths
    /// debug-assert after every incremental write.
    pub fn neuron_matches(&self, index: usize, weight: &TriStateVector) -> bool {
        index < self.neurons
            && weight.len() == self.vector_len
            && weight
                .value_plane()
                .as_words()
                .iter()
                .zip(&self.rows)
                .all(|(&v, row)| row.values[index] == v)
            && weight
                .care_plane()
                .as_words()
                .iter()
                .zip(&self.rows)
                .all(|(&c, row)| row.cares[index] == c)
            && self.dont_care_counts[index] as usize == weight.count_dont_care()
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
        &self.rows[w].values
    }

    /// Word row `w` of the care plane, in the same layout as
    /// [`value_row`](Self::value_row).
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.word_row_count()`.
    pub fn care_row(&self, w: usize) -> &[u64] {
        &self.rows[w].cares
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

    /// Accumulates the #-aware Hamming distances from `input` to every neuron
    /// into `distances` (which must hold one zeroed slot per neuron). Exposed
    /// so callers that classify in a tight loop can reuse the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    ///
    /// # Panics
    ///
    /// Panics if `distances.len() != self.neuron_count()`.
    pub fn distances_into(
        &self,
        input: &BinaryVector,
        distances: &mut [u32],
    ) -> Result<(), SomError> {
        self.check_input(input)?;
        assert_eq!(
            distances.len(),
            self.neurons,
            "one distance slot per neuron"
        );
        // Cache-block the column walk once the map outgrows one block: the
        // word-row loop re-walks the distance table once per input word, so
        // for large maps the table is carved into L1-resident blocks and
        // each block sees all word rows before the next block starts. The
        // per-neuron accumulation order over `w` is unchanged, so blocking
        // is bit-identical to the unblocked walk (the `packed_equivalence`
        // suite covers maps on both sides of the threshold).
        let words = input.as_words();
        if self.neurons <= DISTANCE_BLOCK_NEURONS {
            for (row, &x) in self.rows.iter().zip(words) {
                accumulate_masked_hamming_row(&row.values, &row.cares, x, distances);
            }
            return Ok(());
        }
        let mut start = 0;
        while start < self.neurons {
            let end = (start + DISTANCE_BLOCK_NEURONS).min(self.neurons);
            for (row, &x) in self.rows.iter().zip(words) {
                accumulate_masked_hamming_row(
                    &row.values[start..end],
                    &row.cares[start..end],
                    x,
                    &mut distances[start..end],
                );
            }
            start = end;
        }
        Ok(())
    }

    /// Distances from `input` to every neuron, in address order.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    pub fn distances(&self, input: &BinaryVector) -> Result<Vec<u32>, SomError> {
        let mut distances = vec![0u32; self.neurons];
        self.distances_into(input, &mut distances)?;
        Ok(distances)
    }

    /// Batched winner search: one sequential pass over the input words
    /// against the plane-sliced layer, then the `{distance, #-count,
    /// address}` reduction of [`select_winner`].
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    pub fn winner(&self, input: &BinaryVector) -> Result<BatchWinner, SomError> {
        let mut distances = vec![0u32; self.neurons];
        self.winner_with_buffer(input, &mut distances)
    }

    /// [`winner`](Self::winner) with a caller-provided distance buffer,
    /// avoiding the per-call allocation in batch loops. The buffer is
    /// overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] for a wrong-length input.
    ///
    /// # Panics
    ///
    /// Panics if `distances.len() != self.neuron_count()`.
    pub fn winner_with_buffer(
        &self,
        input: &BinaryVector,
        distances: &mut [u32],
    ) -> Result<BatchWinner, SomError> {
        distances.fill(0);
        self.distances_into(input, distances)?;
        let (index, distance) = select_winner(distances, &self.dont_care_counts)
            .expect("a constructed PackedLayer is never empty");
        Ok(BatchWinner {
            index,
            distance,
            dont_care_count: self.dont_care_counts[index],
        })
    }

    /// Winner search over a whole batch of inputs, reusing one distance
    /// buffer across the batch.
    ///
    /// # Errors
    ///
    /// Returns the first [`SomError::InputLengthMismatch`] encountered.
    pub fn winners(&self, inputs: &[BinaryVector]) -> Result<Vec<BatchWinner>, SomError> {
        let mut distances = vec![0u32; self.neurons];
        inputs
            .iter()
            .map(|input| self.winner_with_buffer(input, &mut distances))
            .collect()
    }
}

// The copy-on-write rows are an ownership detail, not a wire concept: the
// serialized form stays the flat word-major planes of the pre-CoW layout
// (field order matters — readers and the tamper-rejection fixtures key on
// it). Hand-written because the vendored serde stand-in has no `Arc` impls;
// with registry serde this would be `#[serde(into/try_from)]` glue.
impl Serialize for PackedLayer {
    fn to_value(&self) -> serde::Value {
        let flatten = |plane: fn(&PlaneRow) -> &[u64]| {
            serde::Value::Array(
                self.rows
                    .iter()
                    .flat_map(|row| plane(row).iter().map(|&w| serde::Value::UInt(w)))
                    .collect(),
            )
        };
        serde::Value::Object(vec![
            ("neurons".into(), self.neurons.to_value()),
            ("vector_len".into(), self.vector_len.to_value()),
            ("words_per_vector".into(), self.words_per_vector.to_value()),
            ("values".into(), flatten(|row| &row.values)),
            ("cares".into(), flatten(|row| &row.cares)),
            (
                "dont_care_counts".into(),
                self.dont_care_counts.as_slice().to_value(),
            ),
        ])
    }
}

/// The raw wire shape of a [`PackedLayer`], deserialized without invariants.
///
/// The public type's constructors all enforce the cross-field invariants the
/// search kernels index by; deserialization must not be a back door around
/// them, so [`PackedLayer`]'s `Deserialize` goes through this struct plus
/// [`PackedLayer::validate_raw`].
#[derive(Deserialize)]
struct RawPackedLayer {
    neurons: usize,
    vector_len: usize,
    words_per_vector: usize,
    values: Vec<u64>,
    cares: Vec<u64>,
    dont_care_counts: Vec<u32>,
}

impl PackedLayer {
    /// Checks every invariant the hand-written constructors guarantee; a
    /// snapshot violating any of them would panic or mis-index at
    /// classification time.
    fn validate_raw(raw: RawPackedLayer) -> Result<Self, String> {
        if raw.neurons == 0 || raw.vector_len == 0 {
            return Err(format!(
                "PackedLayer must be non-empty (neurons = {}, vector_len = {})",
                raw.neurons, raw.vector_len
            ));
        }
        if raw.words_per_vector != raw.vector_len.div_ceil(64) {
            return Err(format!(
                "words_per_vector {} does not match vector_len {}",
                raw.words_per_vector, raw.vector_len
            ));
        }
        let expected_words = raw.words_per_vector * raw.neurons;
        if raw.values.len() != expected_words || raw.cares.len() != expected_words {
            return Err(format!(
                "plane sizes ({} values, {} cares) do not match {} words x {} neurons",
                raw.values.len(),
                raw.cares.len(),
                raw.words_per_vector,
                raw.neurons
            ));
        }
        if raw.dont_care_counts.len() != raw.neurons {
            return Err(format!(
                "{} #-counts for {} neurons",
                raw.dont_care_counts.len(),
                raw.neurons
            ));
        }
        // Tail bits beyond vector_len must be zero in both planes — Eq. 3
        // popcounts would otherwise see phantom trits.
        let rem = raw.vector_len % 64;
        if rem != 0 {
            let tail_mask = !((1u64 << rem) - 1);
            let tail_row = (raw.words_per_vector - 1) * raw.neurons;
            for plane in [&raw.values, &raw.cares] {
                if plane[tail_row..].iter().any(|w| w & tail_mask != 0) {
                    return Err(format!(
                        "tail bits beyond vector_len {} are set",
                        raw.vector_len
                    ));
                }
            }
        }
        let rows = raw
            .values
            .chunks_exact(raw.neurons)
            .zip(raw.cares.chunks_exact(raw.neurons))
            .map(|(values, cares)| {
                Arc::new(PlaneRow {
                    values: values.to_vec(),
                    cares: cares.to_vec(),
                })
            })
            .collect();
        Ok(PackedLayer {
            neurons: raw.neurons,
            vector_len: raw.vector_len,
            words_per_vector: raw.words_per_vector,
            rows,
            dont_care_counts: Arc::new(raw.dont_care_counts),
        })
    }
}

// Written against the vendored serde stand-in's `from_value` trait; with
// registry serde this collapses to `#[serde(try_from = "RawPackedLayer")]`
// on the struct (see vendor/README.md).
impl serde::Deserialize for PackedLayer {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawPackedLayer::from_value(value)?;
        PackedLayer::validate_raw(raw).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsom::BSomConfig;
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
        let layer = PackedLayer::pack(&som);
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
        let layer = PackedLayer::pack(&som);
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
        assert!(layer.winners(&[BinaryVector::zeros(8)]).is_err());
    }

    #[test]
    fn winners_batch_matches_individual_calls() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(12, 128), &mut r);
        let layer = PackedLayer::pack(&som);
        let inputs: Vec<BinaryVector> = (0..6).map(|_| BinaryVector::random(128, &mut r)).collect();
        let batch = layer.winners(&inputs).unwrap();
        for (input, batched) in inputs.iter().zip(&batch) {
            assert_eq!(*batched, layer.winner(input).unwrap());
        }
    }

    #[test]
    fn clone_shares_every_row() {
        let mut r = rng();
        let layer = PackedLayer::pack(&BSom::new(BSomConfig::new(8, 192), &mut r));
        let snapshot = layer.clone();
        assert_eq!(snapshot.shared_row_count(&layer), layer.word_row_count());
        assert!(snapshot.shares_counts_with(&layer));
        assert_eq!(snapshot, layer);
    }

    #[test]
    fn neuron_update_unshares_only_touched_rows() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(8, 192), &mut r);
        let mut layer = PackedLayer::pack(&som);
        let snapshot = layer.clone();

        // A no-op rewrite (same weight) must leave every row shared.
        let mut weight = TriStateVector::zeros(192);
        layer.copy_neuron_into(3, &mut weight);
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
        assert!(layer.neuron_matches(3, &weight));
    }

    fn different_trit(t: bsom_signature::Trit) -> bsom_signature::Trit {
        match t {
            bsom_signature::Trit::Zero => bsom_signature::Trit::One,
            _ => bsom_signature::Trit::Zero,
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(4, 70), &mut r);
        let layer = PackedLayer::pack(&som);
        let json = serde_json::to_string(&layer).unwrap();
        let back: PackedLayer = serde_json::from_str(&json).unwrap();
        assert_eq!(layer, back);
    }

    #[test]
    fn deserialize_rejects_inconsistent_snapshots() {
        let mut r = rng();
        let layer = PackedLayer::pack(&BSom::new(BSomConfig::new(4, 70), &mut r));
        let json = serde_json::to_string(&layer).unwrap();

        // Structural tampering: wrong neuron count for the stored planes.
        let bad = json.replace("\"neurons\":4", "\"neurons\":5");
        assert!(serde_json::from_str::<PackedLayer>(&bad).is_err());

        // Empty layer.
        let empty = json
            .replace("\"neurons\":4", "\"neurons\":0")
            .replace("\"vector_len\":70", "\"vector_len\":0");
        assert!(serde_json::from_str::<PackedLayer>(&empty).is_err());

        // Wrong words_per_vector for the claimed vector_len.
        let skewed = json.replace("\"words_per_vector\":2", "\"words_per_vector\":3");
        assert!(serde_json::from_str::<PackedLayer>(&skewed).is_err());

        // #-count table not one-per-neuron.
        let counts = json.replace("\"dont_care_counts\":[0,0,0,0]", "\"dont_care_counts\":[0]");
        assert_ne!(counts, json, "fixture must actually tamper the counts");
        assert!(serde_json::from_str::<PackedLayer>(&counts).is_err());
    }

    #[test]
    fn deserialize_rejects_set_tail_bits() {
        // 70-bit vectors leave 58 tail bits in the second word; phantom trits
        // there would corrupt every popcount. All-# layer except for a care
        // tail word with every bit set.
        let good = r#"{"neurons":1,"vector_len":70,"words_per_vector":2,
            "values":[0,0],"cares":[0,0],"dont_care_counts":[70]}"#;
        assert!(serde_json::from_str::<PackedLayer>(good).is_ok());
        let bad = good.replace("\"cares\":[0,0]", "\"cares\":[0,18446744073709551615]");
        assert!(serde_json::from_str::<PackedLayer>(&bad).is_err());
    }
}
