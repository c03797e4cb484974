//! The common interface shared by the bSOM and the cSOM baseline.
//!
//! The paper evaluates both maps with exactly the same protocol: train on
//! labelled binary signatures, label the neurons by win frequency, classify
//! the test set by nearest neuron. [`SelfOrganizingMap`] captures the part of
//! that protocol that depends on the map; the labelling and evaluation code
//! in [`crate::labeling`] and [`crate::classifier`] is generic over it.

use bsom_signature::BinaryVector;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SomError;
use crate::labeling::ObjectLabel;
use crate::schedule::TrainSchedule;

/// The winning neuron of a winner-take-all competition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Winner {
    /// Index of the winning neuron.
    pub index: usize,
    /// Distance from the input to the winning neuron. For the bSOM this is
    /// the #-aware Hamming distance (an integer); for the cSOM it is the
    /// Euclidean distance. Both are exposed as `f64` so the labelling and
    /// threshold logic can treat the maps uniformly.
    pub distance: f64,
}

impl Winner {
    /// Creates a winner record.
    pub fn new(index: usize, distance: f64) -> Self {
        Winner { index, distance }
    }
}

/// A self-organizing map trained on binary signatures.
///
/// Both [`crate::BSom`] and [`crate::CSom`] implement this trait; the
/// trait-object form is used by the evaluation harness so experiments can be
/// written once and run against either map.
pub trait SelfOrganizingMap {
    /// Number of neurons in the competitive layer.
    fn neuron_count(&self) -> usize;

    /// Length of the weight vectors / expected input length.
    fn vector_len(&self) -> usize;

    /// Finds the neuron nearest to `input` (winner-take-all). Ties are broken
    /// towards the lower neuron index, matching the FPGA comparator tree.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] if the input length differs
    /// from [`vector_len`](Self::vector_len).
    fn winner(&self, input: &BinaryVector) -> Result<Winner, SomError>;

    /// Performs one training update: find the winner for `input` and update
    /// it together with its neighbourhood, whose radius is derived from the
    /// schedule at iteration `t` of `schedule.iterations` (an *iteration* is
    /// one full pass over the training set; see [`TrainSchedule`]).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] if the input length differs
    /// from [`vector_len`](Self::vector_len).
    fn train_step(
        &mut self,
        input: &BinaryVector,
        t: usize,
        schedule: &TrainSchedule,
    ) -> Result<Winner, SomError>;

    /// Trains the map for `schedule.iterations` iterations, where one
    /// iteration presents every pattern of `data` once in a freshly shuffled
    /// order — the epoch-style training loop implied by the paper's Table I
    /// iteration budgets (10–500 over 2,248 signatures).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyTrainingSet`] when `data` is empty, or
    /// propagates [`SomError::InputLengthMismatch`] from the first
    /// mismatched pattern.
    fn train<R: Rng + ?Sized>(
        &mut self,
        data: &[BinaryVector],
        schedule: TrainSchedule,
        rng: &mut R,
    ) -> Result<(), SomError>
    where
        Self: Sized,
    {
        if data.is_empty() {
            return Err(SomError::EmptyTrainingSet);
        }
        let mut order: Vec<usize> = (0..data.len()).collect();
        for t in 0..schedule.iterations {
            shuffle(&mut order, rng);
            for &idx in &order {
                self.train_step(&data[idx], t, &schedule)?;
            }
        }
        Ok(())
    }

    /// Convenience wrapper over [`train`](Self::train) for labelled datasets
    /// of `(signature, label)` pairs; the labels are ignored during training
    /// (the SOM itself is unsupervised) but this keeps call sites tidy.
    ///
    /// # Errors
    ///
    /// As for [`train`](Self::train).
    fn train_labelled_data<R: Rng + ?Sized>(
        &mut self,
        data: &[(BinaryVector, ObjectLabel)],
        schedule: TrainSchedule,
        rng: &mut R,
    ) -> Result<(), SomError>
    where
        Self: Sized,
    {
        if data.is_empty() {
            return Err(SomError::EmptyTrainingSet);
        }
        let mut order: Vec<usize> = (0..data.len()).collect();
        for t in 0..schedule.iterations {
            shuffle(&mut order, rng);
            for &idx in &order {
                self.train_step(&data[idx].0, t, &schedule)?;
            }
        }
        Ok(())
    }

    /// Distances from `input` to every neuron, in neuron order. Used by the
    /// FPGA equivalence tests and by diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::InputLengthMismatch`] if the input length differs
    /// from [`vector_len`](Self::vector_len).
    fn distances(&self, input: &BinaryVector) -> Result<Vec<f64>, SomError>;
}

/// Fisher–Yates shuffle, used to reorder the training set every epoch.
///
/// Public so that external epoch loops (e.g. `bsom-engine`'s `Trainer`)
/// reorder exactly like [`SelfOrganizingMap::train`] — one `gen_range` per
/// swap, highest index first — and stay bit-compatible with it for a given
/// RNG stream.
pub fn shuffle<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Indices of the neurons within `radius` of `winner` on the 1-D line
/// topology used by both maps (paper §V-D: the neighbourhood is a contiguous
/// run of neuron addresses around the winner).
///
/// The winner itself is always included. The line does not wrap: neurons near
/// the ends have asymmetric neighbourhoods, matching a straightforward
/// hardware address-window implementation.
pub fn line_neighbourhood(winner: usize, radius: usize, neuron_count: usize) -> Vec<usize> {
    let lo = winner.saturating_sub(radius);
    let hi = (winner + radius).min(neuron_count.saturating_sub(1));
    (lo..=hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_neighbourhood_centre() {
        assert_eq!(line_neighbourhood(5, 2, 40), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn line_neighbourhood_clamps_at_edges() {
        assert_eq!(line_neighbourhood(0, 3, 40), vec![0, 1, 2, 3]);
        assert_eq!(line_neighbourhood(39, 3, 40), vec![36, 37, 38, 39]);
    }

    #[test]
    fn line_neighbourhood_radius_zero_is_winner_only() {
        assert_eq!(line_neighbourhood(7, 0, 40), vec![7]);
    }

    #[test]
    fn line_neighbourhood_large_radius_covers_whole_map() {
        assert_eq!(line_neighbourhood(20, 100, 40).len(), 40);
    }

    #[test]
    fn line_neighbourhood_single_neuron_map() {
        assert_eq!(line_neighbourhood(0, 4, 1), vec![0]);
    }

    #[test]
    fn winner_constructor() {
        let w = Winner::new(3, 12.0);
        assert_eq!(w.index, 3);
        assert_eq!(w.distance, 12.0);
    }
}
