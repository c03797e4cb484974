//! The top-level FPGA bSOM: the five blocks wired together with cycle
//! accounting (Fig. 4, §V).
//!
//! [`FpgaBSom`] is the functional-plus-timing model of the chip: it holds the
//! neuron weight memories ("BlockRAM"), runs the weight-initialisation block
//! at start-up, and for every presented signature runs the pattern-input
//! block, the Hamming bank, the comparator-tree WTA and (when training) the
//! neighbourhood-update block, summing their cycle counts. Classification
//! results are bit-identical to the software [`bsom_som::BSom`] loaded with
//! the same weights — the equivalence tests in `tests/` rely on that.

use bsom_signature::{BinaryVector, TriStateVector};
use bsom_som::{BSom, SelfOrganizingMap};
use serde::{Deserialize, Serialize};

use crate::blocks::display::DisplayBlock;
use crate::blocks::hamming::HammingBank;
use crate::blocks::neighbourhood::NeighbourhoodUpdateBlock;
use crate::blocks::pattern_input::PatternInputBlock;
use crate::blocks::weight_init::WeightInitBlock;
use crate::blocks::wta::{WinnerTakeAllBlock, WtaCandidate};
use crate::clock::{ClockDomain, CycleCount};

/// Errors reported by the FPGA model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FpgaError {
    /// A signature was presented before the weights were initialised or
    /// loaded.
    NotInitialised,
    /// The design holds no neurons (invalid configuration).
    EmptyDesign,
}

impl std::fmt::Display for FpgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpgaError::NotInitialised => {
                write!(f, "weights have not been initialised or loaded")
            }
            FpgaError::EmptyDesign => write!(f, "the design must have at least one neuron"),
        }
    }
}

impl std::error::Error for FpgaError {}

/// Static configuration of the FPGA design (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpgaConfig {
    /// Number of neurons (Table III: 40).
    pub neurons: usize,
    /// Input / weight vector width in bits (Table III: 768).
    pub vector_len: usize,
    /// Maximum neighbourhood radius (Table III: 4).
    pub max_neighbourhood: usize,
    /// System clock.
    pub clock: ClockDomain,
    /// Probability that a disagreeing weight bit relaxes to `#` during a
    /// training update (1.0 = undamped rule; see `bsom_som::BSomConfig`).
    pub relax_probability: f64,
    /// Probability that a `#` weight bit commits during a training update.
    pub commit_probability: f64,
}

impl FpgaConfig {
    /// The paper's design point: 40 neurons × 768 bits, radius 4, 40 MHz.
    pub fn paper_default() -> Self {
        FpgaConfig {
            neurons: 40,
            vector_len: 768,
            max_neighbourhood: 4,
            clock: ClockDomain::paper_default(),
            relax_probability: 1.0,
            commit_probability: 1.0,
        }
    }

    /// Overrides the number of neurons.
    pub fn with_neurons(mut self, neurons: usize) -> Self {
        self.neurons = neurons;
        self
    }

    /// Overrides the vector width.
    pub fn with_vector_len(mut self, vector_len: usize) -> Self {
        self.vector_len = vector_len;
        self
    }
}

impl Default for FpgaConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-operation cycle breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CycleReport {
    /// Cycles spent in the weight-initialisation block.
    pub init_cycles: CycleCount,
    /// Cycles spent loading the pattern (pattern-input block).
    pub load_cycles: CycleCount,
    /// Cycles spent in the Hamming-distance units.
    pub hamming_cycles: CycleCount,
    /// Cycles spent in the comparator-tree WTA.
    pub wta_cycles: CycleCount,
    /// Cycles spent in the neighbourhood-update block.
    pub update_cycles: CycleCount,
}

impl CycleReport {
    /// Total cycles of the operation.
    pub fn total(&self) -> CycleCount {
        self.init_cycles
            + self.load_cycles
            + self.hamming_cycles
            + self.wta_cycles
            + self.update_cycles
    }
}

/// The outcome of presenting one signature for classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassificationOutcome {
    /// The winning neuron and its distance.
    pub winner: bsom_som::Winner,
    /// Cycle breakdown of the operation.
    pub cycles: CycleReport,
}

/// The cycle-accurate FPGA bSOM model.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaBSom {
    config: FpgaConfig,
    weights: Vec<TriStateVector>,
    initialised: bool,
    weight_init: WeightInitBlock,
    pattern_input: PatternInputBlock,
    hamming: HammingBank,
    wta: WinnerTakeAllBlock,
    neighbourhood: NeighbourhoodUpdateBlock,
    display: DisplayBlock,
    total_cycles: CycleCount,
    patterns_processed: u64,
}

impl FpgaBSom {
    /// Creates the design with uninitialised weight memories; call
    /// [`initialize`](Self::initialize) (random weights, as at power-up) or
    /// [`load_weights`](Self::load_weights) / [`from_trained`](Self::from_trained)
    /// (off-line trained weights, §V-F) before presenting signatures.
    pub fn new(config: FpgaConfig, seed: u64) -> Self {
        FpgaBSom {
            weights: vec![TriStateVector::all_dont_care(config.vector_len); config.neurons],
            initialised: false,
            weight_init: WeightInitBlock::new(config.neurons, seed),
            pattern_input: PatternInputBlock::new(config.vector_len),
            hamming: HammingBank::new(config.neurons),
            wta: WinnerTakeAllBlock::new(),
            neighbourhood: NeighbourhoodUpdateBlock::new(
                config.max_neighbourhood,
                config.relax_probability,
                config.commit_probability,
                seed ^ 0xD15C,
            ),
            display: DisplayBlock::new(),
            total_cycles: 0,
            patterns_processed: 0,
            config,
        }
    }

    /// Builds the design pre-loaded with the weights of an off-line trained
    /// software bSOM — the deployment flow of §V-F, where the PC-trained
    /// weights are stored in BlockRAM for real-time identification.
    pub fn from_trained(som: &BSom) -> Self {
        let config = FpgaConfig {
            neurons: som.neuron_count(),
            vector_len: som.vector_len(),
            ..FpgaConfig::paper_default()
        };
        let mut fpga = Self::new(config, 0x5EED);
        fpga.load_weights(som.neurons());
        fpga
    }

    /// The design configuration.
    pub fn config(&self) -> &FpgaConfig {
        &self.config
    }

    /// The current contents of the weight BlockRAM.
    pub fn weights(&self) -> &[TriStateVector] {
        &self.weights
    }

    /// Total cycles consumed since power-up.
    pub fn total_cycles(&self) -> CycleCount {
        self.total_cycles
    }

    /// Elapsed wall-clock time at the configured system clock.
    pub fn elapsed_secs(&self) -> f64 {
        self.config.clock.cycles_to_secs(self.total_cycles)
    }

    /// Number of signatures presented (training + classification).
    pub fn patterns_processed(&self) -> u64 {
        self.patterns_processed
    }

    /// Runs the weight-initialisation block: random concrete weights, one
    /// cycle per bit (768 cycles for the paper's design).
    pub fn initialize(&mut self) -> CycleReport {
        let (weights, cycles) = self.weight_init.run(self.config.vector_len);
        self.weights = weights;
        self.initialised = true;
        let report = CycleReport {
            init_cycles: cycles,
            ..CycleReport::default()
        };
        self.total_cycles += report.total();
        report
    }

    /// Loads externally-trained weights into the BlockRAM (no cycles counted:
    /// the paper performs this over the configuration/USB path before
    /// real-time operation starts).
    pub fn load_weights(&mut self, weights: Vec<TriStateVector>) {
        self.config.neurons = weights.len();
        self.hamming = HammingBank::new(weights.len());
        self.weights = weights;
        self.initialised = true;
    }

    /// Exports the BlockRAM contents as a software bSOM (for verification or
    /// further off-line training).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::EmptyDesign`] if there are no neurons.
    pub fn to_software(&self) -> Result<BSom, FpgaError> {
        BSom::from_weights(self.weights.clone()).map_err(|_| FpgaError::EmptyDesign)
    }

    /// Runs one full recognition pass for `input`: pattern load, parallel
    /// Hamming distances, comparator-tree WTA. No weights are modified.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::NotInitialised`] if the weights have not been
    /// initialised or loaded, or [`FpgaError::EmptyDesign`] for a zero-neuron
    /// design.
    pub fn classify(&mut self, input: &BinaryVector) -> Result<ClassificationOutcome, FpgaError> {
        let (latched, load_cycles, distances, hamming_cycles, result) = self.front_end(input)?;
        let _ = latched;
        let report = CycleReport {
            load_cycles,
            hamming_cycles,
            wta_cycles: result.cycles,
            ..CycleReport::default()
        };
        self.total_cycles += report.total();
        self.patterns_processed += 1;
        let _ = distances;
        Ok(ClassificationOutcome {
            winner: bsom_som::Winner::new(result.winner, f64::from(result.distance)),
            cycles: report,
        })
    }

    /// Runs one training presentation: the recognition front end followed by
    /// the neighbourhood-update block at the radius dictated by the training
    /// progress (`iteration` of `total_iterations`).
    ///
    /// # Errors
    ///
    /// As for [`classify`](Self::classify).
    pub fn train_pattern(
        &mut self,
        input: &BinaryVector,
        iteration: usize,
        total_iterations: usize,
    ) -> Result<ClassificationOutcome, FpgaError> {
        let (latched, load_cycles, _distances, hamming_cycles, result) = self.front_end(input)?;
        let radius = self.neighbourhood.radius_at(iteration, total_iterations);
        let window = self
            .neighbourhood
            .window(result.winner, radius, self.config.neurons);
        let update_cycles = self
            .neighbourhood
            .update(&mut self.weights, &window, &latched);
        let report = CycleReport {
            load_cycles,
            hamming_cycles,
            wta_cycles: result.cycles,
            update_cycles,
            ..CycleReport::default()
        };
        self.total_cycles += report.total();
        self.patterns_processed += 1;
        Ok(ClassificationOutcome {
            winner: bsom_som::Winner::new(result.winner, f64::from(result.distance)),
            cycles: report,
        })
    }

    /// Renders the neuron memories the way the display block drives the VGA
    /// output: one 32 × 24 binary image per neuron (for the paper's vector
    /// width; other widths render as a single row).
    pub fn display_frames(&self) -> Vec<bsom_signature::BinaryImage> {
        let (w, h) = if self.config.vector_len == 768 {
            (32, 24)
        } else {
            (self.config.vector_len, 1)
        };
        self.display.render_neurons(&self.weights, w, h)
    }

    /// Common front end shared by classification and training: input block,
    /// Hamming bank, WTA tree.
    #[allow(clippy::type_complexity)]
    fn front_end(
        &mut self,
        input: &BinaryVector,
    ) -> Result<
        (
            BinaryVector,
            CycleCount,
            Vec<u32>,
            CycleCount,
            crate::blocks::wta::WtaResult,
        ),
        FpgaError,
    > {
        if self.config.neurons == 0 {
            return Err(FpgaError::EmptyDesign);
        }
        if !self.initialised {
            return Err(FpgaError::NotInitialised);
        }
        let (latched, load_cycles) = self.pattern_input.load(input);
        let (distances, hamming_cycles) = self.hamming.run(&self.weights, &latched);
        let candidates: Vec<WtaCandidate> = distances
            .iter()
            .enumerate()
            .map(|(address, &distance)| WtaCandidate {
                address,
                distance,
                dont_care_count: self.weights[address].count_dont_care() as u32,
            })
            .collect();
        let result = self.wta.run(&candidates).ok_or(FpgaError::EmptyDesign)?;
        Ok((latched, load_cycles, distances, hamming_cycles, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsom_som::{BSomConfig, TrainSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn signature(step: usize) -> BinaryVector {
        BinaryVector::from_bits((0..768).map(|i| i % step == 0))
    }

    #[test]
    fn initialisation_costs_exactly_the_vector_width() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        let report = fpga.initialize();
        assert_eq!(report.init_cycles, 768);
        assert_eq!(report.total(), 768);
        assert_eq!(fpga.total_cycles(), 768);
    }

    #[test]
    fn classify_before_initialisation_errors() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        assert_eq!(
            fpga.classify(&signature(3)).unwrap_err(),
            FpgaError::NotInitialised
        );
    }

    #[test]
    fn classification_cycle_breakdown_matches_the_paper() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        fpga.initialize();
        let outcome = fpga.classify(&signature(5)).unwrap();
        assert_eq!(outcome.cycles.load_cycles, 768, "§V-B");
        assert_eq!(outcome.cycles.hamming_cycles, 768, "§V-C");
        assert_eq!(outcome.cycles.wta_cycles, 7, "Fig. 5");
        assert_eq!(outcome.cycles.update_cycles, 0);
        assert_eq!(outcome.cycles.total(), 768 + 768 + 7);
        assert!(outcome.winner.index < 40);
        assert_eq!(fpga.patterns_processed(), 1);
    }

    #[test]
    fn training_adds_the_neighbourhood_update_pass() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        fpga.initialize();
        let outcome = fpga.train_pattern(&signature(4), 0, 100).unwrap();
        assert_eq!(outcome.cycles.update_cycles, 768);
        assert_eq!(outcome.cycles.total(), 768 + 768 + 7 + 768);
    }

    #[test]
    fn classification_matches_software_bsom_with_same_weights() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let mut software = bsom_som::BSom::new(BSomConfig::paper_default(), &mut rng);
        let data: Vec<BinaryVector> = (2..12).map(signature).collect();
        software
            .train(&data, TrainSchedule::new(5), &mut rng)
            .unwrap();

        let mut fpga = FpgaBSom::from_trained(&software);
        for input in &data {
            let sw = software.winner(input).unwrap();
            let hw = fpga.classify(input).unwrap();
            assert_eq!(hw.winner.index, sw.index, "winner index must match");
            assert_eq!(hw.winner.distance, sw.distance, "distance must match");
        }
    }

    #[test]
    fn undamped_training_matches_undamped_software_update_for_the_winner() {
        // Single-neuron design: the FPGA's undamped neighbourhood update must
        // reproduce the software rule exactly.
        let weights = vec![TriStateVector::from_str(&"01#0".repeat(192)).unwrap()];
        let software = BSom::from_weights(weights.clone())
            .unwrap()
            .with_update_probabilities(1.0, 1.0);
        let mut software = software;
        let mut fpga = FpgaBSom::new(
            FpgaConfig {
                neurons: 1,
                ..FpgaConfig::paper_default()
            },
            3,
        );
        fpga.load_weights(weights);
        let input = signature(3);
        software
            .train_step(&input, 0, &TrainSchedule::new(1))
            .unwrap();
        fpga.train_pattern(&input, 0, 1).unwrap();
        assert_eq!(fpga.weights()[0], software.neuron(0).unwrap());
    }

    #[test]
    fn elapsed_time_accumulates_with_operations() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        fpga.initialize();
        assert!(fpga.elapsed_secs() > 0.0);
        let before = fpga.total_cycles();
        fpga.classify(&signature(6)).unwrap();
        assert!(fpga.total_cycles() > before);
    }

    #[test]
    fn display_frames_render_one_image_per_neuron() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 1);
        fpga.initialize();
        let frames = fpga.display_frames();
        assert_eq!(frames.len(), 40);
        assert_eq!(frames[0].width(), 32);
        assert_eq!(frames[0].height(), 24);
    }

    #[test]
    fn to_software_roundtrip_preserves_weights() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default(), 9);
        fpga.initialize();
        let software = fpga.to_software().unwrap();
        assert_eq!(software.neurons(), fpga.weights());
    }

    #[test]
    fn smaller_designs_report_fewer_wta_cycles() {
        let mut fpga = FpgaBSom::new(FpgaConfig::paper_default().with_neurons(10), 2);
        fpga.initialize();
        let outcome = fpga.classify(&signature(3)).unwrap();
        assert_eq!(outcome.cycles.wta_cycles, 5);
    }

    #[test]
    fn error_display_strings() {
        assert!(!FpgaError::NotInitialised.to_string().is_empty());
        assert!(!FpgaError::EmptyDesign.to_string().is_empty());
    }
}
