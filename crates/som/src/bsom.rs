//! The tri-state binary Self-Organizing Map (bSOM).
//!
//! The bSOM (paper §III, based on Appiah et al., IJCNN 2009) is a SOM whose
//! input layer takes binary vectors and whose competitive-layer neurons hold
//! tri-state weight vectors over `{0, 1, #}`. The similarity measure is the
//! #-aware Hamming distance: a `#` ("don't care") weight position matches
//! either input bit and never contributes to the distance.
//!
//! ## Reconstructed training rule
//!
//! This SOCC 2010 paper does not restate the full update rule of its
//! reference \[5\]; the rule implemented here (and documented in DESIGN.md
//! §"The reconstructed update rule" as a substitution) is the natural
//! tri-state rule with the properties the paper
//! relies on, damped stochastically so that a prototype reflects the
//! *majority* of the patterns a neuron wins rather than just the last one.
//!
//! For the winning neuron and every neuron in its current neighbourhood, each
//! weight trit `w_k` is updated against the input bit `x_k`:
//!
//! | current `w_k` | input `x_k` | new `w_k` | rationale |
//! |---|---|---|---|
//! | `0` or `1`, equal to `x_k` | — | unchanged | the weight already explains the input |
//! | `0` or `1`, different from `x_k` | — | `#` *with probability* `relax_probability` | conflicting evidence ⇒ stop caring |
//! | `#` | `0`/`1` | `x_k` *with probability* `commit_probability` | commit to the observed value |
//!
//! With probabilities of 1.0 this is the raw single-step tri-state rule; the
//! defaults of 0.3 low-pass filter each bit over a handful of wins, which is
//! what brings the bSOM's recognition accuracy level with the averaging cSOM
//! (Table I) while staying a pure bit-manipulation pipeline — in hardware the
//! damping is a single AND against an LFSR bit stream. Neighbours follow
//! [`NeighbourRule`]; the default applies the same update to the whole
//! neighbourhood window, mirroring the FPGA's neighbourhood-update block.
//!
//! The rule is learning-rate free. Bits that are consistent within the
//! cluster of inputs a neuron wins converge to concrete values; bits that
//! vary spend time in `#`, harmlessly excluded from the distance.
//!
//! ## One weight store
//!
//! A map keeps its weights in one place: its [`PackedLayer`], the word rows
//! that winner search, training and serving snapshots all run on — as the
//! FPGA's update block writes the same BlockRAM planes its Hamming units
//! read (DESIGN.md §"Train-while-serve and the shared packed layout").
//! [`BSom::neuron`] and [`BSom::neurons`] gather owned vectors out of the
//! rows, and [`BSom::set_neuron`] writes through
//! [`PackedLayer::apply_neuron_update`]; nothing is mirrored per neuron. A
//! 40 × 768 map takes about 10 KB, and a clone under 1 KiB, because a clone
//! shares every row copy-on-write.
//!
//! A map has one persisted form, the format-2 checkpoint frame of
//! `bsom_engine::checkpoint`, which writes the plane words out of the rows
//! and restores the map through [`BSom::from_state`]. `BSom` has no serde
//! form; its configuration types keep theirs.
//!
//! ## The plane-sliced training datapath
//!
//! [`BSom::train_step`] applies the table above **64 trits × the whole
//! neighbourhood at a time** (DESIGN.md §"The neighbourhood broadcast
//! update"): because the neighbourhood is a contiguous run of neuron
//! addresses, its update runs directly on the shared
//! [`PackedLayer`] — per 64-bit word index **one** broadcast Bernoulli mask
//! pair ([`bsom_signature::draw_broadcast_masks`]) is drawn and applied to
//! the window's run of packed column words
//! ([`bsom_signature::update_window_word`]), with a per-neuron gate word
//! carrying the [`NeighbourRule`], mirroring the FPGA's single update
//! circuit broadcast to the address window. The per-neuron `#`-counts the
//! WTA key needs are maintained incrementally from the popcount deltas of
//! each masked write — `winner` never re-popcounts a care plane.
//!
//! One slower datapath is retained on purpose:
//! [`BSom::train_step_bit_serial`], the original per-trit loop with one
//! scalar coin per bit: it gathers each neuron, updates it trit by trit and
//! writes it back, independent of the window kernel. It is the training
//! oracle of the
//! `word_update_equivalence` and `window_update_equivalence` proptests and
//! the baseline of the `train_throughput` bench.
//!
//! The two paths consume the shared xorshift64* state differently, so for
//! interior probabilities they agree *in distribution*, not bit for bit;
//! for probabilities 0 and 1 neither consumes randomness and the two are
//! bit-identical.

use bsom_signature::bernoulli::{gate_word, CoinThreshold, MaskPlan};
use bsom_signature::{BinaryVector, TriStateVector, Trit};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SomError;
use crate::packed::PackedLayer;
use crate::schedule::TrainSchedule;
use crate::som_trait::{line_neighbourhood, SelfOrganizingMap, Winner};

/// How neurons in the neighbourhood of the winner (excluding the winner
/// itself) are updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NeighbourRule {
    /// Neighbours receive the same (damped) tri-state update as the winner.
    /// This is the default and mirrors the FPGA neighbourhood-update block,
    /// which applies one update circuit to the selected address window.
    #[default]
    SameAsWinner,
    /// Neighbours only relax conflicting bits to `#`; they do not commit `#`
    /// positions to the input value — the tri-state analogue of giving
    /// neighbours a smaller learning rate. Kept for the update-rule ablation.
    RelaxOnly,
    /// Neighbours are not updated at all (winner-take-all learning). The
    /// ablation benches show this collapses onto a single over-general
    /// neuron; it exists to demonstrate that the neighbourhood block matters.
    WinnerOnly,
}

/// Configuration for a [`BSom`].
///
/// The defaults of [`BSomConfig::paper_default`] reproduce Table III: 40
/// neurons, 768-bit vectors, random initial weights, maximum neighbourhood 4
/// (the neighbourhood policy itself lives in
/// [`TrainSchedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BSomConfig {
    /// Number of neurons in the competitive layer.
    pub neurons: usize,
    /// Length of the input and weight vectors in bits.
    pub vector_len: usize,
    /// How neighbours of the winner are updated.
    pub neighbour_rule: NeighbourRule,
    /// Probability that a concrete weight trit that *disagrees* with the
    /// input relaxes to `#` during an update. 1.0 recovers the raw tri-state
    /// rule; lower values low-pass filter the weights over several wins,
    /// which is what gives the bSOM prototype quality comparable to the
    /// averaging cSOM (in hardware this is one AND gate against an LFSR bit
    /// stream).
    pub relax_probability: f64,
    /// Probability that a `#` trit commits to the observed input bit during
    /// an update. 1.0 recovers the raw tri-state rule.
    pub commit_probability: f64,
}

impl BSomConfig {
    /// Creates a configuration with the given shape and the default update
    /// behaviour.
    pub fn new(neurons: usize, vector_len: usize) -> Self {
        BSomConfig {
            neurons,
            vector_len,
            neighbour_rule: NeighbourRule::default(),
            relax_probability: 0.3,
            commit_probability: 0.3,
        }
    }

    /// The paper's configuration (Table III): 40 neurons × 768 bits.
    pub fn paper_default() -> Self {
        BSomConfig::new(40, 768)
    }

    /// Overrides the neighbour update rule.
    pub fn with_neighbour_rule(mut self, rule: NeighbourRule) -> Self {
        self.neighbour_rule = rule;
        self
    }

    /// Overrides the stochastic update probabilities (relax, commit). Pass
    /// `(1.0, 1.0)` for the undamped tri-state rule used by the ablation
    /// benches.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn with_update_probabilities(mut self, relax: f64, commit: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&relax) && (0.0..=1.0).contains(&commit),
            "update probabilities must be within [0, 1], got ({relax}, {commit})"
        );
        self.relax_probability = relax;
        self.commit_probability = commit;
        self
    }
}

impl Default for BSomConfig {
    fn default() -> Self {
        BSomConfig::paper_default()
    }
}

/// Precompiled stochastic-update machinery, derived from the configured
/// probabilities once instead of per coin flip: whole-word Bernoulli mask
/// plans for the window trainer and integer comparison thresholds for the
/// bit-serial reference path. Rebuilt whenever the probabilities change;
/// never serialized (it is a pure function of the config).
#[derive(Debug, Clone, PartialEq)]
struct UpdateTables {
    /// Mask plan realising `relax_probability` 64 lanes at a time.
    relax_plan: MaskPlan,
    /// Mask plan realising `commit_probability` 64 lanes at a time.
    commit_plan: MaskPlan,
    /// Integer coin threshold for `relax_probability` (bit-serial path).
    relax_coin: CoinThreshold,
    /// Integer coin threshold for `commit_probability` (bit-serial path).
    commit_coin: CoinThreshold,
}

impl UpdateTables {
    fn from_config(config: &BSomConfig) -> Self {
        UpdateTables {
            relax_plan: MaskPlan::from_probability(config.relax_probability),
            commit_plan: MaskPlan::from_probability(config.commit_probability),
            relax_coin: CoinThreshold::from_probability(config.relax_probability),
            commit_coin: CoinThreshold::from_probability(config.commit_probability),
        }
    }
}

/// Reusable scratch for the plane-sliced window update: the per-neuron
/// commit gates of one neighbourhood. Owned by the map so the training hot
/// path performs no per-step allocation; never serialized or compared (its
/// contents are meaningless between steps).
#[derive(Debug, Clone, Default)]
struct WindowScratch {
    /// One [`gate_word`] per neuron in the window.
    gates: Vec<u64>,
}

/// The tri-state binary Self-Organizing Map.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::BinaryVector;
/// use bsom_som::{BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bsom_som::SomError> {
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut som = BSom::new(BSomConfig::new(8, 64), &mut rng);
/// let pattern = BinaryVector::random(64, &mut rng);
/// som.train(std::slice::from_ref(&pattern), TrainSchedule::new(50), &mut rng)?;
/// // After training on a single repeated pattern, some neuron matches it exactly.
/// let winner = som.winner(&pattern)?;
/// assert_eq!(winner.distance, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BSom {
    config: BSomConfig,
    /// Internal xorshift state driving the stochastic update decisions — the
    /// software analogue of the LFSR bit stream a hardware implementation
    /// would use. Keeping it inside the map keeps `train_step` deterministic
    /// for a given construction seed.
    rng_state: u64,
    /// Precompiled mask plans / coin thresholds for the configured update
    /// probabilities.
    tables: UpdateTables,
    /// The weights: the map's only weight store, in the plane-sliced layout
    /// every weight write updates in place ([`PackedLayer::apply_window_update`],
    /// [`PackedLayer::apply_neuron_update`]). Training-time and serve-time
    /// search run the same word-sliced kernels on it, and publishing a
    /// serving snapshot is a plain clone of this field. Its per-neuron
    /// `#`-counts, maintained from the popcount delta of every masked
    /// weight write, are the map's only `#`-count table, so the
    /// `{distance, #-count, address}` WTA key never re-popcounts a care
    /// plane (debug-asserted against a recount of the care rows).
    packed: PackedLayer,
    /// Reusable window-update scratch (see [`WindowScratch`]).
    scratch: WindowScratch,
}

/// Equality is over the map's intrinsic state — configuration, weights (the
/// packed layer, with its `#`-counts) and RNG state. The update tables are a
/// pure function of the configuration, so comparing them would be redundant.
impl PartialEq for BSom {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.packed == other.packed
            && self.rng_state == other.rng_state
    }
}

impl BSom {
    /// Creates a bSOM with every weight initialised to a random concrete bit,
    /// the start-up state produced by the FPGA weight-initialisation block.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero neurons or a zero vector length;
    /// use [`BSom::try_new`] for a fallible constructor.
    pub fn new<R: Rng + ?Sized>(config: BSomConfig, rng: &mut R) -> Self {
        Self::try_new(config, rng).expect("bSOM configuration must be non-empty")
    }

    /// Fallible counterpart of [`BSom::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyConfiguration`] if `config.neurons` or
    /// `config.vector_len` is zero.
    pub fn try_new<R: Rng + ?Sized>(config: BSomConfig, rng: &mut R) -> Result<Self, SomError> {
        if config.neurons == 0 || config.vector_len == 0 {
            return Err(SomError::EmptyConfiguration {
                neurons: config.neurons,
                vector_len: config.vector_len,
            });
        }
        let neurons: Vec<TriStateVector> = (0..config.neurons)
            .map(|_| TriStateVector::random_concrete(config.vector_len, rng))
            .collect();
        let packed = PackedLayer::from_neurons(&neurons).expect("shape checked above");
        Ok(Self::assemble(config, packed, rng.gen::<u64>() | 1))
    }

    /// The map over `packed`, with the update tables derived from `config`
    /// and empty scratch.
    fn assemble(config: BSomConfig, packed: PackedLayer, rng_state: u64) -> Self {
        BSom {
            config,
            rng_state,
            tables: UpdateTables::from_config(&config),
            packed,
            scratch: WindowScratch::default(),
        }
    }

    /// Creates a bSOM from explicit weight vectors (e.g. weights exported
    /// from the FPGA BlockRAM after off-line training, §V-F).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyConfiguration`] for an empty weight list and
    /// [`SomError::InputLengthMismatch`] if any weight vector's length
    /// differs from the first one's.
    pub fn from_weights(weights: Vec<TriStateVector>) -> Result<Self, SomError> {
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
        let config = BSomConfig::new(weights.len(), vector_len);
        let packed = PackedLayer::from_neurons(&weights).expect("shape checked above");
        Ok(Self::assemble(config, packed, 0x9E37_79B9_7F4A_7C15))
    }

    /// Rebuilds a map from its intrinsic state — configuration, weights and
    /// the xorshift64\* RNG position (see [`rng_state`](Self::rng_state)).
    /// This is how a map is restored: checkpoints and registry spill frames
    /// decode into it. The `#`-counts, the update tables and the packed
    /// layer are recomputed from the weights, never taken on trust.
    ///
    /// # Errors
    ///
    /// [`SomError::InvalidState`] if the configuration is empty, the weight
    /// count or any weight length disagrees with it, an update probability
    /// is outside `[0, 1]`, or `rng_state` is zero (the xorshift fixed
    /// point).
    pub fn from_state(
        config: BSomConfig,
        neurons: Vec<TriStateVector>,
        rng_state: u64,
    ) -> Result<Self, SomError> {
        let invalid = |reason: String| Err(SomError::InvalidState { reason });
        if config.neurons == 0 || config.vector_len == 0 {
            return invalid(format!(
                "BSom must be non-empty (neurons = {}, vector_len = {})",
                config.neurons, config.vector_len
            ));
        }
        if neurons.len() != config.neurons {
            return invalid(format!(
                "snapshot holds {} neurons for a config of {}",
                neurons.len(),
                config.neurons
            ));
        }
        if let Some(bad) = neurons.iter().find(|n| n.len() != config.vector_len) {
            return invalid(format!(
                "neuron length {} does not match vector_len {}",
                bad.len(),
                config.vector_len
            ));
        }
        for p in [config.relax_probability, config.commit_probability] {
            if !(0.0..=1.0).contains(&p) {
                return invalid(format!("update probability {p} outside [0, 1]"));
            }
        }
        if rng_state == 0 {
            return invalid("rng_state must be non-zero (xorshift fixed point)".to_string());
        }
        let packed = PackedLayer::from_neurons(&neurons).expect("shape checked above");
        Ok(Self::assemble(config, packed, rng_state))
    }

    /// The position of the map's internal xorshift64\* stream, which
    /// drives the stochastic update decisions. Together with the
    /// configuration and the weights it is the map's whole intrinsic state
    /// ([`from_state`](Self::from_state)).
    pub fn rng_state(&self) -> u64 {
        self.rng_state
    }

    /// The map's configuration.
    pub fn config(&self) -> &BSomConfig {
        &self.config
    }

    /// Overrides the stochastic update probabilities of an existing map
    /// (useful after [`BSom::from_weights`], which uses the defaults).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn with_update_probabilities(mut self, relax: f64, commit: f64) -> Self {
        self.config = self.config.with_update_probabilities(relax, commit);
        self.tables = UpdateTables::from_config(&self.config);
        self
    }

    /// Overrides the neighbour update rule of an existing map.
    pub fn with_neighbour_rule(mut self, rule: NeighbourRule) -> Self {
        self.config = self.config.with_neighbour_rule(rule);
        self
    }

    /// The weight vector of neuron `index`, gathered out of the word rows.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::NeuronOutOfRange`] for an invalid index.
    pub fn neuron(&self, index: usize) -> Result<TriStateVector, SomError> {
        self.check_index(index)?;
        Ok(self.packed.neuron(index))
    }

    /// All neuron weight vectors in index order, gathered out of the word
    /// rows.
    pub fn neurons(&self) -> Vec<TriStateVector> {
        (0..self.config.neurons)
            .map(|index| self.packed.neuron(index))
            .collect()
    }

    fn check_index(&self, index: usize) -> Result<(), SomError> {
        if index >= self.config.neurons {
            return Err(SomError::NeuronOutOfRange {
                index,
                neurons: self.config.neurons,
            });
        }
        Ok(())
    }

    /// Replaces the weight vector of neuron `index`, writing it and its
    /// `#`-count into the word rows (weights can only be mutated through
    /// the update rule or through this method).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::NeuronOutOfRange`] for an invalid index and
    /// [`SomError::InputLengthMismatch`] if the new weight's length differs
    /// from the map's vector length.
    pub fn set_neuron(&mut self, index: usize, weight: TriStateVector) -> Result<(), SomError> {
        self.check_index(index)?;
        if weight.len() != self.config.vector_len {
            return Err(SomError::InputLengthMismatch {
                expected: self.config.vector_len,
                actual: weight.len(),
            });
        }
        let count = weight.count_dont_care() as u32;
        self.packed.apply_neuron_update(index, &weight, count);
        Ok(())
    }

    /// The map's weights in their plane-sliced layout, updated in place by
    /// every weight write — the layout both training-time winner search and
    /// serving snapshots run on. Cloning it is how a serving snapshot is
    /// published (no re-pack).
    pub fn packed_layer(&self) -> &PackedLayer {
        &self.packed
    }

    /// The per-neuron `#`-counts in address order — the secondary
    /// comparator key of the WTA search, maintained incrementally on every
    /// weight write (the packed layer's table).
    pub fn dont_care_counts(&self) -> &[u32] {
        self.packed.dont_care_counts()
    }

    /// Total number of `#` trits across all neurons — a measure of how much
    /// of the map has relaxed to "don't care". Served from the incremental
    /// cache; O(neurons) rather than O(neurons × words).
    pub fn total_dont_care(&self) -> usize {
        self.dont_care_counts().iter().map(|&c| c as usize).sum()
    }

    /// `true` iff every cached `#`-count matches a recount of the neuron's
    /// care words in the packed rows. Debug-asserted by the winner path.
    fn cache_matches_recount(&self) -> bool {
        let packed = &self.packed;
        self.dont_care_counts()
            .iter()
            .enumerate()
            .all(|(i, &count)| {
                let concrete: u32 = (0..packed.word_row_count())
                    .map(|w| packed.care_row(w)[i].count_ones())
                    .sum();
                (count + concrete) as usize == self.config.vector_len
            })
    }

    /// The plane-sliced neighbourhood update: one broadcast mask stream
    /// applied to the contiguous window `[lo, hi]` of packed neuron columns
    /// in a single pass ([`PackedLayer::apply_window_update`]), with the
    /// commit transition gated per neuron by the [`NeighbourRule`] (only the
    /// winner commits under [`NeighbourRule::RelaxOnly`]). The packed layer
    /// maintains its `#`-counts from the popcount deltas.
    fn update_window(&mut self, lo: usize, hi: usize, winner: usize, input: &BinaryVector) {
        let BSom {
            config,
            rng_state,
            tables,
            packed,
            scratch,
        } = self;
        let window = lo..hi + 1;
        scratch.gates.clear();
        scratch.gates.extend(window.clone().map(|idx| {
            gate_word(match config.neighbour_rule {
                NeighbourRule::RelaxOnly => idx == winner,
                _ => true,
            })
        }));
        packed.apply_window_update(
            window,
            input,
            &tables.relax_plan,
            &tables.commit_plan,
            &scratch.gates,
            rng_state,
        );
    }

    /// The pre-word-parallel update: gather the neuron, walk all its bits
    /// with one integer-threshold coin per stochastic decision and write it
    /// back. Kept as the reference implementation for the equivalence
    /// proptests and as the baseline the train-throughput bench measures
    /// against.
    fn update_neuron_bit_serial(
        &mut self,
        neuron_index: usize,
        input: &BinaryVector,
        relax: CoinThreshold,
        commit: CoinThreshold,
    ) {
        let mut weight = self.packed.neuron(neuron_index);
        let mut count = self.dont_care_counts()[neuron_index];
        for k in 0..input.len() {
            let x = input.bit(k);
            match weight.trit(k) {
                Trit::DontCare => {
                    if commit.flip(&mut self.rng_state) {
                        weight.set(k, Trit::from_bit(x));
                        count -= 1;
                    }
                }
                t => {
                    if !t.matches(x) && relax.flip(&mut self.rng_state) {
                        weight.set(k, Trit::DontCare);
                        count += 1;
                    }
                }
            }
        }
        // `apply_neuron_update` debug-asserts the count against a recount.
        self.packed
            .apply_neuron_update(neuron_index, &weight, count);
    }

    /// One training step through the **bit-serial reference datapath**: the
    /// same winner search and neighbourhood policy as
    /// [`SelfOrganizingMap::train_step`], but every weight bit is visited
    /// individually and damped with its own scalar coin (an integer
    /// threshold comparison — the last remnant of the pre-word-parallel
    /// implementation, kept measurable on purpose).
    ///
    /// The word-parallel path consumes the shared RNG state differently, so
    /// a map trained through this method matches the word-parallel result in
    /// distribution — and bit for bit when both probabilities are 0 or 1,
    /// where neither path consumes randomness (the `word_update_equivalence`
    /// proptests pin both properties down).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] if the input length differs
    /// from the configured vector length.
    pub fn train_step_bit_serial(
        &mut self,
        input: &BinaryVector,
        t: usize,
        schedule: &TrainSchedule,
    ) -> Result<Winner, SomError> {
        let winner = self.winner(input)?;
        let radius = schedule.radius_at(t);
        let relax = self.tables.relax_coin;
        let commit = self.tables.commit_coin;
        let neighbourhood = line_neighbourhood(winner.index, radius, self.config.neurons);
        for idx in neighbourhood {
            if idx == winner.index {
                self.update_neuron_bit_serial(idx, input, relax, commit);
                continue;
            }
            match self.config.neighbour_rule {
                NeighbourRule::SameAsWinner => {
                    self.update_neuron_bit_serial(idx, input, relax, commit)
                }
                NeighbourRule::RelaxOnly => {
                    self.update_neuron_bit_serial(idx, input, relax, CoinThreshold::Never)
                }
                NeighbourRule::WinnerOnly => {}
            }
        }
        Ok(winner)
    }
}

impl SelfOrganizingMap for BSom {
    fn neuron_count(&self) -> usize {
        self.config.neurons
    }

    fn vector_len(&self) -> usize {
        self.config.vector_len
    }

    fn winner(&self, input: &BinaryVector) -> Result<Winner, SomError> {
        debug_assert!(
            self.cache_matches_recount(),
            "cached #-counts diverged from the care planes"
        );
        // Winner-take-all on the #-aware Hamming distance, computed by the
        // same plane-sliced word-slice kernels serve-time search runs on —
        // there is exactly one distance path in the system. Ties are broken
        // towards the most *specific* neuron (fewest don't-cares, served
        // from the incremental cache) and then towards the lower index: a
        // heavily-relaxed neuron has an artificially small distance to
        // everything, so among equidistant candidates the one that actually
        // commits to more bits is the better explanation of the input. In
        // hardware this is a wider comparator key ({distance, #-count,
        // address}); see DESIGN.md §"Winner selection and the WTA tie-break
        // key".
        let w = self.packed.winner(input)?;
        Ok(Winner::new(w.index, f64::from(w.distance)))
    }

    /// One training step through the plane-sliced window datapath: winner
    /// search on the shared packed layout, then **one** broadcast mask
    /// stream applied to the whole neighbourhood address window directly on
    /// the packed columns (see the module docs and DESIGN.md §"The
    /// neighbourhood broadcast update").
    fn train_step(
        &mut self,
        input: &BinaryVector,
        t: usize,
        schedule: &TrainSchedule,
    ) -> Result<Winner, SomError> {
        let winner = self.winner(input)?;
        let radius = schedule.radius_at(t);
        // The address window [lo, hi], clamped at the line's ends exactly
        // like `line_neighbourhood` (winner-take-all learning collapses the
        // window to the winner itself).
        let (lo, hi) = match self.config.neighbour_rule {
            NeighbourRule::WinnerOnly => (winner.index, winner.index),
            NeighbourRule::SameAsWinner | NeighbourRule::RelaxOnly => (
                winner.index.saturating_sub(radius),
                (winner.index + radius).min(self.config.neurons - 1),
            ),
        };
        self.update_window(lo, hi, winner.index, input);
        Ok(winner)
    }

    fn distances(&self, input: &BinaryVector) -> Result<Vec<f64>, SomError> {
        Ok(self
            .packed
            .distances(input)?
            .into_iter()
            .map(f64::from)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB50A)
    }

    #[test]
    fn paper_default_config_matches_table_three() {
        let c = BSomConfig::paper_default();
        assert_eq!(c.neurons, 40);
        assert_eq!(c.vector_len, 768);
        assert_eq!(BSomConfig::default(), c);
    }

    #[test]
    fn new_initialises_random_concrete_weights() {
        let som = BSom::new(BSomConfig::paper_default(), &mut rng());
        assert_eq!(som.neuron_count(), 40);
        assert_eq!(som.vector_len(), 768);
        assert_eq!(som.total_dont_care(), 0);
        // Neurons should not all be identical.
        assert!(som.neurons().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn try_new_rejects_empty_configurations() {
        assert!(matches!(
            BSom::try_new(BSomConfig::new(0, 768), &mut rng()),
            Err(SomError::EmptyConfiguration { .. })
        ));
        assert!(matches!(
            BSom::try_new(BSomConfig::new(40, 0), &mut rng()),
            Err(SomError::EmptyConfiguration { .. })
        ));
    }

    #[test]
    fn from_weights_validates_lengths() {
        let good = vec![TriStateVector::all_dont_care(8), TriStateVector::zeros(8)];
        assert!(BSom::from_weights(good).is_ok());
        let bad = vec![TriStateVector::zeros(8), TriStateVector::zeros(9)];
        assert!(matches!(
            BSom::from_weights(bad),
            Err(SomError::InputLengthMismatch {
                expected: 8,
                actual: 9
            })
        ));
        assert!(BSom::from_weights(Vec::new()).is_err());
    }

    #[test]
    fn winner_finds_exact_match() {
        let weights = vec![
            TriStateVector::from_str("1111").unwrap(),
            TriStateVector::from_str("0000").unwrap(),
            TriStateVector::from_str("1100").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("1100").unwrap())
            .unwrap();
        assert_eq!(w.index, 2);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_breaks_ties_towards_lower_index() {
        let weights = vec![
            TriStateVector::from_str("1111").unwrap(),
            TriStateVector::from_str("1111").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("1110").unwrap())
            .unwrap();
        assert_eq!(w.index, 0);
        assert_eq!(w.distance, 1.0);
    }

    #[test]
    fn all_dont_care_neuron_always_wins_with_distance_zero() {
        // The paper calls this case out explicitly.
        let weights = vec![
            TriStateVector::from_str("1010").unwrap(),
            TriStateVector::from_str("####").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("0101").unwrap())
            .unwrap();
        assert_eq!(w.index, 1);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_tie_break_uses_the_cached_count_key() {
        // Both neurons sit at distance 0; the concrete one must win on the
        // cached #-count, exercising the {distance, #-count, address} key.
        let weights = vec![
            TriStateVector::from_str("##10").unwrap(),
            TriStateVector::from_str("1010").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        assert_eq!(som.dont_care_counts(), &[2, 0]);
        let w = som
            .winner(&BinaryVector::from_bit_str("1010").unwrap())
            .unwrap();
        assert_eq!(w.index, 1);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_rejects_wrong_length_input() {
        let som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.winner(&BinaryVector::zeros(8)),
            Err(SomError::InputLengthMismatch {
                expected: 16,
                actual: 8
            })
        ));
        assert!(som.distances(&BinaryVector::zeros(8)).is_err());
    }

    #[test]
    fn update_rule_agreement_keeps_disagreement_relaxes_dont_care_commits() {
        let weights = vec![TriStateVector::from_str("01#").unwrap()];
        // Undamped probabilities so the single-step rule is deterministic.
        let mut som = BSom::from_weights(weights)
            .unwrap()
            .with_update_probabilities(1.0, 1.0);
        let input = BinaryVector::from_bit_str("001").unwrap();
        // Radius is irrelevant for a single-neuron map.
        som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        let w = som.neuron(0).unwrap();
        // position 0: weight 0, input 0 -> keep 0
        // position 1: weight 1, input 0 -> relax to #
        // position 2: weight #, input 1 -> commit to 1
        assert_eq!(w.to_trit_string(), "0#1");
    }

    #[test]
    fn bit_serial_and_word_parallel_agree_exactly_for_undamped_probabilities() {
        // With p = 1 neither path consumes randomness, so the two datapaths
        // must produce bit-identical maps under every neighbour rule (the
        // proptest suites broaden this).
        for rule in [
            NeighbourRule::SameAsWinner,
            NeighbourRule::RelaxOnly,
            NeighbourRule::WinnerOnly,
        ] {
            let mut r = rng();
            let config = BSomConfig::new(6, 70)
                .with_update_probabilities(1.0, 1.0)
                .with_neighbour_rule(rule);
            let word = BSom::new(config, &mut r);
            let mut serial = word.clone();
            let mut word = word;
            let schedule = TrainSchedule::new(8);
            for t in 0..8 {
                let input = BinaryVector::random(70, &mut r);
                let ww = word.train_step(&input, t, &schedule).unwrap();
                let ws = serial.train_step_bit_serial(&input, t, &schedule).unwrap();
                assert_eq!(ww.index, ws.index, "rule {rule:?}");
            }
            assert_eq!(word, serial, "rule {rule:?}");
            assert_eq!(word.dont_care_counts(), serial.dont_care_counts());
        }
    }

    #[test]
    fn window_and_per_neuron_paths_agree_exactly_for_undamped_probabilities() {
        // With p = 1 the broadcast window path consumes no randomness, so it
        // must match visiting the neighbourhood one neuron at a time with the
        // word update kernel and all-ones masks, under every neighbour rule
        // (the `window_update_equivalence` proptest suite broadens this).
        const LEN: usize = 70;
        for rule in [
            NeighbourRule::SameAsWinner,
            NeighbourRule::RelaxOnly,
            NeighbourRule::WinnerOnly,
        ] {
            let mut r = rng();
            let config = BSomConfig::new(6, LEN)
                .with_update_probabilities(1.0, 1.0)
                .with_neighbour_rule(rule);
            let mut window = BSom::new(config, &mut r);
            let mut per_neuron = window.clone();
            let schedule = TrainSchedule::new(8);
            for t in 0..8 {
                let input = BinaryVector::random(LEN, &mut r);
                let ww = window.train_step(&input, t, &schedule).unwrap();
                let wp = per_neuron.winner(&input).unwrap();
                assert_eq!(ww.index, wp.index, "rule {rule:?}");
                let radius = schedule.radius_at(t);
                for idx in line_neighbourhood(wp.index, radius, per_neuron.neuron_count()) {
                    let commit = match rule {
                        _ if idx == wp.index => true,
                        NeighbourRule::SameAsWinner => true,
                        NeighbourRule::RelaxOnly => false,
                        NeighbourRule::WinnerOnly => continue,
                    };
                    let mut weight = per_neuron.neuron(idx).unwrap();
                    for (w, &x) in input.as_words().iter().enumerate() {
                        let valid = if (w + 1) * 64 <= LEN {
                            !0
                        } else {
                            (1u64 << (LEN % 64)) - 1
                        };
                        let u = bsom_signature::update_word(
                            weight.value_plane().as_words()[w],
                            weight.care_plane().as_words()[w],
                            x,
                            !0,
                            if commit { valid } else { 0 },
                        );
                        weight.set_plane_word(w, u.value, u.care);
                    }
                    per_neuron.set_neuron(idx, weight).unwrap();
                }
            }
            assert_eq!(window, per_neuron, "rule {rule:?}");
            assert_eq!(window.dont_care_counts(), per_neuron.dont_care_counts());
            assert_eq!(window.packed_layer(), per_neuron.packed_layer());
        }
    }

    #[test]
    fn window_update_keeps_the_packed_layout_in_lockstep() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(9, 130), &mut r);
        let schedule = TrainSchedule::new(6);
        for t in 0..6 {
            let input = BinaryVector::random(130, &mut r);
            som.train_step(&input, t, &schedule).unwrap();
        }
        assert_eq!(
            som.packed_layer(),
            &PackedLayer::from_neurons(&som.neurons()).unwrap()
        );
    }

    #[test]
    fn repeated_pattern_converges_to_exact_match() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let pattern = BinaryVector::random(64, &mut r);
        som.train(
            std::slice::from_ref(&pattern),
            TrainSchedule::new(64),
            &mut r,
        )
        .unwrap();
        let w = som.winner(&pattern).unwrap();
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn training_two_patterns_separates_them() {
        let mut r = rng();
        let a = BinaryVector::from_bits((0..64).map(|i| i < 32));
        let b = BinaryVector::from_bits((0..64).map(|i| i >= 32));
        let mut som = BSom::new(BSomConfig::new(8, 64), &mut r);
        som.train(&[a.clone(), b.clone()], TrainSchedule::new(200), &mut r)
            .unwrap();
        let wa = som.winner(&a).unwrap();
        let wb = som.winner(&b).unwrap();
        assert_eq!(wa.distance, 0.0);
        assert_eq!(wb.distance, 0.0);
        // The two patterns are 64 bits apart, so distinct neurons must win
        // (a single neuron cannot match both exactly unless it is all-#, and
        // the commit rule prevents a stable all-# winner for both).
        assert_ne!(wa.index, wb.index);
    }

    #[test]
    fn train_on_empty_dataset_errors() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(4, 16), &mut r);
        let empty: Vec<BinaryVector> = Vec::new();
        assert_eq!(
            som.train(&empty, TrainSchedule::new(10), &mut r),
            Err(SomError::EmptyTrainingSet)
        );
    }

    #[test]
    fn winner_only_rule_leaves_other_neurons_untouched() {
        let mut r = rng();
        let config = BSomConfig::new(6, 32).with_neighbour_rule(NeighbourRule::WinnerOnly);
        let mut som = BSom::new(config, &mut r);
        let before = som.neurons();
        let input = BinaryVector::random(32, &mut r);
        let w = som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        for (i, (b, a)) in before.iter().zip(&som.neurons()).enumerate() {
            if i != w.index {
                assert_eq!(b, a, "neuron {i} changed despite WinnerOnly rule");
            }
        }
    }

    #[test]
    fn relax_only_neighbours_never_gain_concrete_bits() {
        let mut r = rng();
        let config = BSomConfig::new(6, 32).with_neighbour_rule(NeighbourRule::RelaxOnly);
        let mut som = BSom::new(config, &mut r);
        // Pre-relax neuron 1 fully so we can observe that it never re-commits.
        som.set_neuron(1, TriStateVector::all_dont_care(32))
            .unwrap();
        let input = BinaryVector::random(32, &mut r);
        // Force neuron 0 to be the winner by making it an exact match.
        som.set_neuron(0, TriStateVector::from_binary(&input))
            .unwrap();
        som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        assert_eq!(som.neuron(1).unwrap().count_dont_care(), 32);
    }

    #[test]
    fn set_neuron_validates_and_updates_the_cache() {
        let mut som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.set_neuron(4, TriStateVector::all_dont_care(16)),
            Err(SomError::NeuronOutOfRange {
                index: 4,
                neurons: 4
            })
        ));
        assert!(matches!(
            som.set_neuron(0, TriStateVector::all_dont_care(8)),
            Err(SomError::InputLengthMismatch {
                expected: 16,
                actual: 8
            })
        ));
        som.set_neuron(2, TriStateVector::all_dont_care(16))
            .unwrap();
        assert_eq!(som.dont_care_counts(), &[0, 0, 16, 0]);
        assert_eq!(som.total_dont_care(), 16);
    }

    #[test]
    fn cached_counts_stay_consistent_through_stochastic_training() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(8, 70), &mut r);
        let data: Vec<BinaryVector> = (0..5).map(|_| BinaryVector::random(70, &mut r)).collect();
        som.train(&data, TrainSchedule::new(30), &mut r).unwrap();
        for (i, neuron) in som.neurons().iter().enumerate() {
            assert_eq!(
                som.dont_care_counts()[i] as usize,
                neuron.count_dont_care(),
                "neuron {i}"
            );
        }
        assert_eq!(
            som.total_dont_care(),
            som.neurons()
                .iter()
                .map(TriStateVector::count_dont_care)
                .sum::<usize>()
        );
    }

    #[test]
    fn distances_are_consistent_with_winner() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(16, 96), &mut r);
        let input = BinaryVector::random(96, &mut r);
        let dists = som.distances(&input).unwrap();
        let w = som.winner(&input).unwrap();
        let min = dists.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(w.distance, min);
        assert_eq!(dists[w.index], min);
    }

    #[test]
    fn neuron_out_of_range_errors() {
        let som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.neuron(4),
            Err(SomError::NeuronOutOfRange {
                index: 4,
                neurons: 4
            })
        ));
    }

    /// `from_weights` over three 8-trit neurons after two training steps.
    fn golden_map() -> BSom {
        let weights = ["01#10#11", "1100##00", "#0101010"]
            .map(|trits| TriStateVector::from_str(trits).unwrap())
            .to_vec();
        let mut som = BSom::from_weights(weights).unwrap();
        let schedule = TrainSchedule::new(2);
        for (t, bits) in ["01101011", "11000100"].into_iter().enumerate() {
            let input = BinaryVector::from_bit_str(bits).unwrap();
            som.train_step(&input, t, &schedule).unwrap();
        }
        som
    }

    #[test]
    fn gathered_accessors_read_and_write_the_rows() {
        let mut som = golden_map();
        let neurons = som.neurons();
        let trits: Vec<String> = neurons.iter().map(|n| n.to_trit_string()).collect();
        assert_eq!(trits, ["01##0##1", "#1000#0#", "0010#0##"]);
        for (i, neuron) in neurons.iter().enumerate() {
            assert_eq!(&som.neuron(i).unwrap(), neuron);
        }
        let replacement = TriStateVector::from_str("1#0#1#0#").unwrap();
        som.set_neuron(1, replacement.clone()).unwrap();
        assert_eq!(som.neuron(1).unwrap(), replacement);
        assert_eq!(som.neurons()[1], replacement);
        assert_eq!(som.dont_care_counts(), &[4, 4, 3]);
        assert!(matches!(
            som.neuron(3),
            Err(SomError::NeuronOutOfRange {
                index: 3,
                neurons: 3
            })
        ));
    }

    #[test]
    fn from_state_round_trips_the_intrinsic_state_and_validates_it() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(6, 70), &mut r);
        let data: Vec<BinaryVector> = (0..4).map(|_| BinaryVector::random(70, &mut r)).collect();
        som.train(&data, TrainSchedule::new(20), &mut r).unwrap();
        let back = BSom::from_state(*som.config(), som.neurons(), som.rng_state()).unwrap();
        assert_eq!(back, som);
        assert_eq!(back.dont_care_counts(), som.dont_care_counts());
        assert_eq!(back.packed_layer(), som.packed_layer());
        assert!(matches!(
            BSom::from_state(*som.config(), som.neurons(), 0),
            Err(SomError::InvalidState { .. })
        ));
        assert!(matches!(
            BSom::from_state(*som.config(), som.neurons()[1..].to_vec(), 1),
            Err(SomError::InvalidState { .. })
        ));
        for (relax, commit) in [(1.5, 0.3), (0.3, -0.1), (f64::NAN, 0.3)] {
            let config = BSomConfig {
                relax_probability: relax,
                commit_probability: commit,
                ..*som.config()
            };
            assert!(matches!(
                BSom::from_state(config, som.neurons(), som.rng_state()),
                Err(SomError::InvalidState { reason }) if reason.contains("outside [0, 1]")
            ));
        }
    }
}
