//! Training-datapath throughput: the plane-sliced window trainer versus the
//! bit-serial reference, next to the FPGA cycle model's training figure.
//!
//! The recognition side of this comparison lives in `bsom-engine`'s
//! [`throughput`](bsom_engine::throughput) module and the `fig5` experiment;
//! this experiment is the training half (DESIGN.md §"The word-parallel
//! trainer"): how many pattern presentations per second each software
//! datapath sustains on a given configuration, and how both relate to the
//! §V-E sub-second-training claim the cycle model reproduces.

use std::time::Duration;

use bsom_engine::{compare_training_throughput, TrainThroughputComparison};
use bsom_fpga::{training_throughput, FpgaConfig, ThroughputReport};
use bsom_signature::BinaryVector;
use bsom_som::BSomConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::report::TextTable;

/// Configuration for the training-throughput experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainThroughputConfig {
    /// Neurons in the measured map.
    pub neurons: usize,
    /// Vector length in bits.
    pub vector_len: usize,
    /// Patterns per measured epoch.
    pub patterns: usize,
    /// Milliseconds of wall clock spent on each measured path.
    pub min_duration_ms: u64,
    /// Seed for the map construction and the synthetic patterns.
    pub seed: u64,
}

impl TrainThroughputConfig {
    /// A fast profile for CI and interactive runs (tens of milliseconds per
    /// path on the paper shape).
    pub fn quick() -> Self {
        TrainThroughputConfig {
            neurons: 40,
            vector_len: 768,
            patterns: 32,
            min_duration_ms: 60,
            seed: 0xB50A,
        }
    }

    /// The paper configuration measured long enough for stable figures.
    pub fn paper_default() -> Self {
        TrainThroughputConfig {
            patterns: 300,
            min_duration_ms: 1500,
            ..TrainThroughputConfig::quick()
        }
    }
}

/// The training-throughput experiment output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainThroughputResult {
    /// The configuration that was measured.
    pub config: TrainThroughputConfig,
    /// Software bit-serial vs plane-sliced-window steps per second.
    pub comparison: TrainThroughputComparison,
    /// The FPGA cycle model's training throughput at the paper's clock.
    pub fpga: ThroughputReport,
    /// Production (window) steps/s over bit-serial steps/s.
    pub speedup_window_over_bit_serial: f64,
    /// Window steps/s over the FPGA cycle-model figure.
    pub window_vs_fpga: f64,
}

impl TrainThroughputResult {
    /// Renders the software training datapaths and the FPGA figure side by
    /// side.
    pub fn render(&self) -> TextTable {
        let mut table = TextTable::new(["Trainer", "Steps/s", "vs bit-serial"]);
        table.push_row([
            "bit-serial (reference)".to_owned(),
            format!("{:.0}", self.comparison.bit_serial.patterns_per_second),
            "1.00x".to_owned(),
        ]);
        table.push_row([
            "window (plane-sliced)".to_owned(),
            format!("{:.0}", self.comparison.window.patterns_per_second),
            format!("{:.2}x", self.speedup_window_over_bit_serial),
        ]);
        table.push_row([
            "FPGA cycle model (40 MHz)".to_owned(),
            format!("{:.0}", self.fpga.patterns_per_second),
            format!(
                "{:.2}x",
                self.fpga.patterns_per_second / self.comparison.bit_serial.patterns_per_second
            ),
        ]);
        table
    }
}

/// Runs the experiment: synthesises `config.patterns` random signatures,
/// measures both software datapaths from identically seeded maps, and
/// derives the FPGA figure from the cycle model.
pub fn run(config: &TrainThroughputConfig) -> TrainThroughputResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let data: Vec<BinaryVector> = (0..config.patterns.max(1))
        .map(|_| BinaryVector::random(config.vector_len, &mut rng))
        .collect();
    let som_config = BSomConfig {
        neurons: config.neurons,
        vector_len: config.vector_len,
        ..BSomConfig::paper_default()
    };
    let comparison = compare_training_throughput(
        som_config,
        &data,
        Duration::from_millis(config.min_duration_ms),
        config.seed,
    );
    let fpga = training_throughput(FpgaConfig {
        neurons: config.neurons,
        vector_len: config.vector_len,
        ..FpgaConfig::paper_default()
    });
    TrainThroughputResult {
        config: *config,
        speedup_window_over_bit_serial: comparison.speedup(),
        window_vs_fpga: comparison.window.patterns_per_second / fpga.patterns_per_second,
        comparison,
        fpga,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_positive_figures_and_renders() {
        let mut config = TrainThroughputConfig::quick();
        config.min_duration_ms = 10;
        config.patterns = 8;
        let result = run(&config);
        assert!(result.comparison.bit_serial.patterns_per_second > 0.0);
        assert!(result.comparison.window.patterns_per_second > 0.0);
        assert!(result.speedup_window_over_bit_serial > 0.0);
        assert!(result.fpga.patterns_per_second > 0.0);
        let text = result.render().to_string();
        assert!(text.contains("bit-serial"));
        assert!(text.contains("window"));
        assert!(text.contains("FPGA cycle model"));
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("speedup_window_over_bit_serial"));
    }

    #[test]
    fn paper_profile_uses_the_table_three_shape() {
        let config = TrainThroughputConfig::paper_default();
        assert_eq!(config.neurons, 40);
        assert_eq!(config.vector_len, 768);
        assert!(config.min_duration_ms >= 1000);
    }
}
