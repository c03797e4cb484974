//! Engine-vs-scalar throughput, compared against the FPGA cycle model.
//!
//! The paper's §V-F claim is 25,000 recognitions per second at 40 MHz. This
//! module measures the software side of the same question three ways —
//! the single-signature loop ([`bsom_som::SelfOrganizingMap::winner`]), the
//! single-threaded batched winner search ([`bsom_som::PackedLayer`]), and a
//! sharded [`crate::Recognizer`] over a [`SomService`] — and places the
//! results next to the patterns-per-second figure that
//! [`bsom_fpga::throughput`] derives from simulated cycle counts, so the
//! "faster than the hardware allows?" question has one mechanical answer.

use std::time::{Duration, Instant};

use bsom_fpga::throughput::{recognition_throughput, ThroughputReport};
use bsom_fpga::FpgaConfig;
use bsom_signature::BinaryVector;
use bsom_som::{BSom, SelfOrganizingMap};
use serde::{Deserialize, Serialize};

use crate::service::classify_work;
use crate::{SignatureBatch, SomService};

/// One wall-clock throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredThroughput {
    /// Signatures classified per second.
    pub patterns_per_second: f64,
    /// Seconds per signature.
    pub seconds_per_pattern: f64,
    /// How many passes over the batch the figure was averaged over.
    pub rounds: usize,
}

impl MeasuredThroughput {
    /// Derives a throughput figure from `rounds` passes over a batch of
    /// `batch_size` signatures taking `elapsed` in total.
    pub(crate) fn from_elapsed(batch_size: usize, rounds: usize, elapsed: Duration) -> Self {
        let patterns = (batch_size * rounds) as f64;
        let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        MeasuredThroughput {
            patterns_per_second: patterns / secs,
            seconds_per_pattern: secs / patterns.max(1.0),
            rounds,
        }
    }
}

/// The three software measurements next to the FPGA cycle-model figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputComparison {
    /// Number of signatures in the measured batch.
    pub batch_size: usize,
    /// Scalar per-neuron winner loop, single thread.
    pub scalar: MeasuredThroughput,
    /// Plane-sliced batched winner search, single thread.
    pub batched: MeasuredThroughput,
    /// The sharded engine (batched search on every worker).
    pub engine: MeasuredThroughput,
    /// The FPGA cycle model's recognition throughput (§V-F derivation).
    pub fpga: ThroughputReport,
}

impl ThroughputComparison {
    /// Speed-up of the single-threaded batched search over the scalar loop —
    /// the pure effect of the plane-sliced layout.
    pub fn batched_speedup_over_scalar(&self) -> f64 {
        self.batched.patterns_per_second / self.scalar.patterns_per_second
    }

    /// Speed-up of the sharded engine over the scalar loop — layout plus
    /// multi-core sharding.
    pub fn engine_speedup_over_scalar(&self) -> f64 {
        self.engine.patterns_per_second / self.scalar.patterns_per_second
    }

    /// Ratio of engine throughput to the FPGA cycle model's figure; above
    /// 1.0 the software engine outruns the modelled hardware.
    pub fn engine_vs_fpga(&self) -> f64 {
        self.engine.patterns_per_second / self.fpga.patterns_per_second
    }
}

impl std::fmt::Display for ThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "recognition throughput (batch of {})", self.batch_size)?;
        writeln!(
            f,
            "  scalar loop   {:>12.0} signatures/s",
            self.scalar.patterns_per_second
        )?;
        writeln!(
            f,
            "  batched (1T)  {:>12.0} signatures/s  ({:.2}x scalar)",
            self.batched.patterns_per_second,
            self.batched_speedup_over_scalar()
        )?;
        writeln!(
            f,
            "  engine        {:>12.0} signatures/s  ({:.2}x scalar)",
            self.engine.patterns_per_second,
            self.engine_speedup_over_scalar()
        )?;
        write!(
            f,
            "  fpga model    {:>12.0} signatures/s  (engine = {:.2}x fpga)",
            self.fpga.patterns_per_second,
            self.engine_vs_fpga()
        )
    }
}

/// Times `work` (one full pass over the batch per call) repeatedly until
/// `min_duration` of wall clock has been spent, returning the averaged
/// throughput.
pub(crate) fn measure<F: FnMut()>(
    batch_size: usize,
    min_duration: Duration,
    mut work: F,
) -> MeasuredThroughput {
    // One untimed warm-up pass (page in the weights, fill the pool queues).
    work();
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        work();
        rounds += 1;
        if start.elapsed() >= min_duration {
            break;
        }
    }
    MeasuredThroughput::from_elapsed(batch_size, rounds, start.elapsed())
}

/// Large-map (1000+-neuron) cost model: the copy-on-write publish against
/// the deep re-pack it replaced, and the winner search (DESIGN.md
/// §"Copy-on-write publication and the winner search"), measured at the
/// ROADMAP's scale target so `bench_report --check` can gate them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LargeMapThroughputComparison {
    /// Neurons in the measured map.
    pub neurons: usize,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Copy-on-write publishes per second, each preceded by one training
    /// step (so every publish has freshly dirtied rows to copy) — the
    /// serving-path publish cost under live training.
    pub publish_under_training: MeasuredThroughput,
    /// Deep re-packs per second ([`bsom_som::PackedLayer::pack`]) — the
    /// O(map) publish cost the copy-on-write rows replaced, kept as the
    /// reference denominator.
    pub deep_repack: MeasuredThroughput,
    /// Winner searches per second through
    /// [`bsom_som::PackedLayer::winner_with_buffer`]: the distance pass plus
    /// the `{distance, #-count, address}` reduction.
    pub winner_search: MeasuredThroughput,
}

impl LargeMapThroughputComparison {
    /// Publishes-per-second advantage of train-step-plus-CoW-clone over a
    /// deep re-pack. Dimensionless, so it stays meaningful across machines.
    /// Note the numerator *includes* a full training step per publish, so
    /// this understates the pure clone advantage — deliberately: it is the
    /// end-to-end publish cadence a trainer can sustain.
    pub fn publish_speedup_over_repack(&self) -> f64 {
        self.publish_under_training.patterns_per_second
            / self.deep_repack.patterns_per_second.max(f64::MIN_POSITIVE)
    }
}

impl std::fmt::Display for LargeMapThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "large-map costs ({} neurons x {} bits)",
            self.neurons, self.vector_len
        )?;
        writeln!(
            f,
            "  publish (train step + CoW clone) {:>12.0} publishes/s",
            self.publish_under_training.patterns_per_second
        )?;
        writeln!(
            f,
            "  deep re-pack                     {:>12.0} publishes/s  (publish = {:.2}x)",
            self.deep_repack.patterns_per_second,
            self.publish_speedup_over_repack()
        )?;
        write!(
            f,
            "  winner search                    {:>12.0} searches/s",
            self.winner_search.patterns_per_second
        )
    }
}

/// Measures the large-map publish and winner-search costs on a map of the
/// given shape: copy-on-write publish cadence under training, the deep
/// re-pack it replaced, and winner-search throughput. `min_duration` is
/// spent on **each** of the three measurements.
///
/// # Panics
///
/// Panics if `signatures` is empty or any signature length differs from
/// `config`'s vector length.
pub fn compare_large_map_throughput(
    config: bsom_som::BSomConfig,
    signatures: &[BinaryVector],
    min_duration: Duration,
    seed: u64,
) -> LargeMapThroughputComparison {
    use rand::SeedableRng;
    assert!(!signatures.is_empty(), "cannot measure an empty batch");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let neurons = config.neurons;
    let vector_len = config.vector_len;
    let mut som = BSom::new(config, &mut rng);
    // Serving-time regime: the quartered schedule has shrunk to radius 1.
    let schedule = bsom_som::TrainSchedule::new(4);
    let t = schedule.iterations - 1;

    let mut feed = signatures.iter().cycle();
    let publish_under_training = measure(1, min_duration, || {
        let input = feed.next().expect("cycle over a non-empty batch");
        som.train_step(input, t, &schedule)
            .expect("signature lengths match the map");
        std::hint::black_box(som.packed_layer().clone());
    });

    let deep_repack = measure(1, min_duration, || {
        std::hint::black_box(bsom_som::PackedLayer::pack(&som));
    });

    let layer = som.packed_layer().clone();
    let mut distances = vec![0u32; layer.neuron_count()];
    let winner_search = measure(signatures.len(), min_duration, || {
        for s in signatures {
            std::hint::black_box(
                layer
                    .winner_with_buffer(s, &mut distances)
                    .expect("signature lengths match the layer"),
            );
        }
    });

    LargeMapThroughputComparison {
        neurons,
        vector_len,
        publish_under_training,
        deep_repack,
        winner_search,
    }
}

/// One dispatch path's distance-pass throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchFigure {
    /// The dispatch name (`scalar`, `lanes8`, `avx512`, …).
    pub dispatch: String,
    /// Distance passes (full input batches against the whole layer) per
    /// second through this lowering.
    pub throughput: MeasuredThroughput,
}

/// Per-dispatch distance-pass throughput (DESIGN.md §"Wide-lane kernels and
/// dispatch"): the same plane-sliced distance pass measured once per kernel
/// lowering the machine can run, so the report records what the SIMD
/// widening is actually worth on this CPU — and `bench_report --check` can
/// catch a lowering that silently stopped being selected or stopped being
/// fast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchThroughputComparison {
    /// Neurons in the measured layer.
    pub neurons: usize,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Name of the widest lowering available on this machine
    /// ([`Dispatch::detect`](bsom_signature::Dispatch::detect)).
    pub widest_dispatch: String,
    /// The scalar reference walk.
    pub scalar: MeasuredThroughput,
    /// The widest available lowering (same dispatch as `widest_dispatch`).
    pub widest: MeasuredThroughput,
    /// Every available lowering, in widening order (includes the two above).
    pub figures: Vec<DispatchFigure>,
}

impl DispatchThroughputComparison {
    /// Distance-pass speed-up of the widest lowering over the scalar walk —
    /// the raw worth of the SIMD widening on this machine.
    pub fn widest_speedup_over_scalar(&self) -> f64 {
        self.widest.patterns_per_second / self.scalar.patterns_per_second.max(f64::MIN_POSITIVE)
    }
}

impl std::fmt::Display for DispatchThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "distance-pass dispatch ({} neurons x {} bits)",
            self.neurons, self.vector_len
        )?;
        for figure in &self.figures {
            let speedup = figure.throughput.patterns_per_second
                / self.scalar.patterns_per_second.max(f64::MIN_POSITIVE);
            writeln!(
                f,
                "  {:<8} {:>12.0} passes/s  ({speedup:.2}x scalar)",
                figure.dispatch, figure.throughput.patterns_per_second
            )?;
        }
        write!(
            f,
            "  widest = {} ({:.2}x scalar)",
            self.widest_dispatch,
            self.widest_speedup_over_scalar()
        )
    }
}

/// Measures the pure plane-sliced distance pass (no WTA reduction, no
/// training) through **every** kernel lowering available on this machine,
/// at the given layer shape. `min_duration` is spent per lowering.
///
/// The pass runs through the explicit-dispatch row kernel
/// ([`bsom_signature::accumulate_masked_hamming_row_with`]) over the
/// packed layer's shared rows, so the figures isolate exactly the code the
/// wide lanes replaced; every lowering is bit-identical, so the distance
/// buffers agree across all of them by construction (and are debug-asserted
/// to).
///
/// # Panics
///
/// Panics if `signatures` is empty or a signature length differs from the
/// layer's vector length.
pub fn compare_dispatch_throughput(
    layer: &bsom_som::PackedLayer,
    signatures: &[BinaryVector],
    min_duration: Duration,
) -> DispatchThroughputComparison {
    use bsom_signature::{accumulate_masked_hamming_row_with, Dispatch};
    assert!(!signatures.is_empty(), "cannot measure an empty batch");
    let neurons = layer.neuron_count();
    let words = signatures[0].as_words().len();
    let mut distances = vec![0u32; neurons];
    let mut measure_dispatch = |dispatch: Dispatch| {
        measure(signatures.len(), min_duration, || {
            for s in signatures {
                distances.fill(0);
                for (w, &x) in s.as_words().iter().enumerate().take(words) {
                    accumulate_masked_hamming_row_with(
                        dispatch,
                        layer.value_row(w),
                        layer.care_row(w),
                        x,
                        &mut distances,
                    );
                }
                std::hint::black_box(&mut distances);
            }
        })
    };
    let figures: Vec<DispatchFigure> = Dispatch::available()
        .into_iter()
        .map(|dispatch| DispatchFigure {
            dispatch: dispatch.name().to_string(),
            throughput: measure_dispatch(dispatch),
        })
        .collect();
    let widest = Dispatch::detect();
    let figure_for = |name: &str| {
        figures
            .iter()
            .find(|figure| figure.dispatch == name)
            .expect("scalar and the detected widest lowering are always available")
            .throughput
    };
    DispatchThroughputComparison {
        neurons,
        vector_len: layer.vector_len(),
        widest_dispatch: widest.name().to_string(),
        scalar: figure_for(Dispatch::Scalar.name()),
        widest: figure_for(widest.name()),
        figures,
    }
}

/// One cell of the inline-vs-pool crossover sweep: the same pinned batch
/// classified on the calling thread and through the sharded worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossoverCell {
    /// Neurons in the map.
    pub neurons: usize,
    /// Signatures per classify call.
    pub batch: usize,
    /// The call's work: batch × neurons × word rows
    /// ([`INLINE_CLASSIFY_MAX_NEURON_WORDS`](crate::INLINE_CLASSIFY_MAX_NEURON_WORDS)'s unit).
    pub neuron_words: usize,
    /// The whole batch on the calling thread.
    pub inline: MeasuredThroughput,
    /// The batch sharded across the worker pool.
    pub pool: MeasuredThroughput,
}

impl CrossoverCell {
    /// Inline signatures/s over pool signatures/s: at or above 1.0 the
    /// calling thread was no slower than the pool.
    pub fn inline_over_pool(&self) -> f64 {
        self.inline.patterns_per_second / self.pool.patterns_per_second.max(f64::MIN_POSITIVE)
    }
}

/// The inline-vs-pool crossover under one kernel dispatch — the sweep that
/// sets [`INLINE_CLASSIFY_MAX_NEURON_WORDS`](crate::INLINE_CLASSIFY_MAX_NEURON_WORDS).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InlineCrossover {
    /// The dispatch every kernel was forced onto.
    pub dispatch: String,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Worker threads in the pool leg.
    pub workers: usize,
    /// One cell per (neurons, batch), neurons outermost.
    pub cells: Vec<CrossoverCell>,
}

impl InlineCrossover {
    /// The largest power of two of neuron-words such that no measured cell
    /// at or below it ran slower inline than on the pool (0 when even the
    /// smallest cell did).
    pub fn inline_limit(&self) -> usize {
        let ceiling = self
            .cells
            .iter()
            .filter(|cell| cell.inline_over_pool() < 1.0)
            .map(|cell| cell.neuron_words - 1)
            .min()
            .unwrap_or_else(|| {
                self.cells
                    .iter()
                    .map(|cell| cell.neuron_words)
                    .max()
                    .unwrap_or(0)
            });
        match ceiling.checked_ilog2() {
            Some(exponent) => 1 << exponent,
            None => 0,
        }
    }
}

impl std::fmt::Display for InlineCrossover {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "inline vs pool classify ({}, {} bits, {} workers)",
            self.dispatch, self.vector_len, self.workers
        )?;
        writeln!(
            f,
            "  neurons  batch  neuron-words   inline sig/s     pool sig/s  inline/pool"
        )?;
        for cell in &self.cells {
            writeln!(
                f,
                "  {:>7}  {:>5}  {:>12}  {:>13.0}  {:>13.0}  {:>11.2}",
                cell.neurons,
                cell.batch,
                cell.neuron_words,
                cell.inline.patterns_per_second,
                cell.pool.patterns_per_second,
                cell.inline_over_pool()
            )?;
        }
        write!(f, "  inline limit = {} neuron-words", self.inline_limit())
    }
}

/// Measures the calling-thread and the worker-pool classify paths for every
/// `neurons` × `batches` cell on untrained `vector_len`-bit maps served by
/// `workers` threads, with every kernel forced onto `dispatch`.
/// `min_duration` is spent on each path of each cell; the two paths of a
/// cell are measured back to back, so slow drift of the host hits both.
///
/// # Panics
///
/// Panics if `dispatch` is not available on this machine, or if `neurons`,
/// `batches` or `vector_len` holds a zero.
pub fn compare_inline_crossover(
    neurons: &[usize],
    batches: &[usize],
    vector_len: usize,
    workers: usize,
    dispatch: bsom_signature::Dispatch,
    min_duration: Duration,
    seed: u64,
) -> InlineCrossover {
    use rand::SeedableRng;
    assert!(
        vector_len > 0 && neurons.iter().chain(batches).all(|&n| n > 0),
        "map sizes, batch sizes and the vector length must be positive"
    );
    bsom_signature::force_dispatch(Some(dispatch)).expect("the swept dispatch must be available");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let largest = batches.iter().copied().max().unwrap_or(0);
    let signatures: Vec<BinaryVector> = (0..largest)
        .map(|_| BinaryVector::random(vector_len, &mut rng))
        .collect();
    let mut cells = Vec::with_capacity(neurons.len() * batches.len());
    for &count in neurons {
        // Untrained weights: the kernels do not branch on weight content.
        let som = BSom::new(bsom_som::BSomConfig::new(count, vector_len), &mut rng);
        let service =
            SomService::from_parts(som.packed_layer().clone(), vec![None; count], None, workers);
        let snapshot = service.snapshot();
        for &batch in batches {
            let shared = SignatureBatch::from(signatures[..batch].to_vec());
            let inline = measure(batch, min_duration, || {
                std::hint::black_box(service.classify_pinned_inline(&snapshot, &shared));
            });
            let pool = measure(batch, min_duration, || {
                std::hint::black_box(service.classify_pinned_sharded(&snapshot, &shared));
            });
            cells.push(CrossoverCell {
                neurons: count,
                batch,
                neuron_words: classify_work(snapshot.layer(), batch),
                inline,
                pool,
            });
        }
    }
    bsom_signature::force_dispatch(None).expect("clearing the override always succeeds");
    InlineCrossover {
        dispatch: dispatch.name().to_string(),
        vector_len,
        workers,
        cells,
    }
}

/// Measures scalar / batched / engine recognition throughput on `signatures`
/// and derives the FPGA figure from `fpga_config`'s cycle model.
///
/// `som` must be the same trained map the service snapshotted, so the three
/// software paths do identical work. `min_duration` is spent on **each** of
/// the three measurements; a few tens of milliseconds already gives stable
/// relative numbers with the vendored timer.
///
/// # Panics
///
/// Panics if `signatures` is empty.
pub fn compare_recognition_throughput(
    service: &SomService,
    som: &BSom,
    signatures: &[BinaryVector],
    fpga_config: FpgaConfig,
    min_duration: Duration,
) -> ThroughputComparison {
    assert!(!signatures.is_empty(), "cannot measure an empty batch");
    let batch_size = signatures.len();

    let scalar = measure(batch_size, min_duration, || {
        for s in signatures {
            std::hint::black_box(som.winner(s).expect("signature lengths match the map"));
        }
    });

    let snapshot = service.snapshot();
    let layer = snapshot.layer();
    let mut distances = vec![0u32; layer.neuron_count()];
    let batched = measure(batch_size, min_duration, || {
        for s in signatures {
            std::hint::black_box(
                layer
                    .winner_with_buffer(s, &mut distances)
                    .expect("signature lengths match the layer"),
            );
        }
    });

    let mut recognizer = service.recognizer();
    let shared = std::sync::Arc::new(signatures.to_vec());
    let engine_measured = measure(batch_size, min_duration, || {
        std::hint::black_box(recognizer.classify_batch(&shared));
    });

    ThroughputComparison {
        batch_size,
        scalar,
        batched,
        engine: engine_measured,
        fpga: recognition_throughput(fpga_config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use bsom_som::{BSomConfig, LabelledSom, ObjectLabel, TrainSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn comparison_produces_positive_figures_and_renders() {
        let mut r = StdRng::seed_from_u64(0x7412);
        let data: Vec<(BinaryVector, ObjectLabel)> = (0..4)
            .map(|i| (BinaryVector::random(768, &mut r), ObjectLabel::new(i)))
            .collect();
        let mut som = BSom::new(BSomConfig::paper_default(), &mut r);
        som.train_labelled_data(&data, TrainSchedule::new(2), &mut r)
            .unwrap();
        let classifier = LabelledSom::label(som.clone(), &data);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let batch: Vec<BinaryVector> = (0..64).map(|_| BinaryVector::random(768, &mut r)).collect();

        let comparison = compare_recognition_throughput(
            &service,
            &som,
            &batch,
            FpgaConfig::paper_default(),
            Duration::from_millis(20),
        );
        assert_eq!(comparison.batch_size, 64);
        assert!(comparison.scalar.patterns_per_second > 0.0);
        assert!(comparison.batched.patterns_per_second > 0.0);
        assert!(comparison.engine.patterns_per_second > 0.0);
        assert!(comparison.fpga.patterns_per_second > 0.0);
        assert!(comparison.scalar.rounds >= 1);
        let text = comparison.to_string();
        assert!(text.contains("scalar loop"));
        assert!(text.contains("fpga model"));
        let json = serde_json::to_string(&comparison).unwrap();
        assert!(json.contains("patterns_per_second"));
    }

    #[test]
    fn large_map_comparison_produces_positive_figures_and_renders() {
        let mut r = StdRng::seed_from_u64(0x1024);
        // A scaled-down shape keeps the unit test fast; the committed
        // BENCH_large_map.json uses the full 1024 x 768.
        let batch: Vec<BinaryVector> = (0..16).map(|_| BinaryVector::random(256, &mut r)).collect();
        let comparison = compare_large_map_throughput(
            BSomConfig::new(128, 256),
            &batch,
            Duration::from_millis(10),
            0x1024,
        );
        assert_eq!(comparison.neurons, 128);
        assert_eq!(comparison.vector_len, 256);
        assert!(comparison.publish_under_training.patterns_per_second > 0.0);
        assert!(comparison.deep_repack.patterns_per_second > 0.0);
        assert!(comparison.winner_search.patterns_per_second > 0.0);
        assert!(comparison.publish_speedup_over_repack() > 0.0);
        let text = comparison.to_string();
        assert!(text.contains("winner search"));
        assert!(text.contains("deep re-pack"));
        let json = serde_json::to_string(&comparison).unwrap();
        assert!(json.contains("publish_under_training"));
    }

    #[test]
    fn dispatch_comparison_covers_every_available_lowering_and_renders() {
        let mut r = StdRng::seed_from_u64(0xD15B);
        // A scaled-down shape keeps the unit test fast; the committed
        // BENCH_recognition.json uses the full 1024 x 768.
        let som = BSom::new(BSomConfig::new(96, 200), &mut r);
        let batch: Vec<BinaryVector> = (0..8).map(|_| BinaryVector::random(200, &mut r)).collect();
        let comparison =
            compare_dispatch_throughput(som.packed_layer(), &batch, Duration::from_millis(5));
        assert_eq!(comparison.neurons, 96);
        assert_eq!(comparison.vector_len, 200);
        let available = bsom_signature::Dispatch::available();
        assert_eq!(comparison.figures.len(), available.len());
        for (figure, dispatch) in comparison.figures.iter().zip(&available) {
            assert_eq!(figure.dispatch, dispatch.name());
            assert!(figure.throughput.patterns_per_second > 0.0);
            assert!(figure.throughput.rounds >= 1);
        }
        assert_eq!(
            comparison.widest_dispatch,
            bsom_signature::Dispatch::detect().name()
        );
        assert!(comparison.scalar.patterns_per_second > 0.0);
        assert!(comparison.widest.patterns_per_second > 0.0);
        assert!(comparison.widest_speedup_over_scalar() > 0.0);
        let text = comparison.to_string();
        assert!(text.contains("scalar"));
        assert!(text.contains("widest ="));
        let json = serde_json::to_string(&comparison).unwrap();
        let back: DispatchThroughputComparison = serde_json::from_str(&json).unwrap();
        assert_eq!(back, comparison);
    }

    #[test]
    fn crossover_sweep_times_both_paths_and_derives_a_power_of_two_limit() {
        let dispatch = bsom_signature::Dispatch::Scalar;
        let sweep = compare_inline_crossover(
            &[8, 24],
            &[1, 3],
            200,
            2,
            dispatch,
            Duration::from_millis(2),
            0xC205,
        );
        assert_eq!(sweep.dispatch, "scalar");
        assert_eq!(sweep.cells.len(), 4);
        let shapes: Vec<(usize, usize, usize)> = sweep
            .cells
            .iter()
            .map(|cell| (cell.neurons, cell.batch, cell.neuron_words))
            .collect();
        // 200 bits are 4 word rows.
        assert_eq!(shapes, [(8, 1, 32), (8, 3, 96), (24, 1, 96), (24, 3, 288)]);
        for cell in &sweep.cells {
            assert!(cell.inline.patterns_per_second > 0.0);
            assert!(cell.pool.patterns_per_second > 0.0);
        }
        let limit = sweep.inline_limit();
        assert!(limit == 0 || limit.is_power_of_two());
        assert!(limit <= 288);
        assert!(sweep.to_string().contains("inline limit"));
        let json = serde_json::to_string(&sweep).unwrap();
        let back: InlineCrossover = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sweep);
    }

    #[test]
    fn inline_limit_stops_below_the_first_cell_where_inline_is_slower() {
        let figure = |per_second: f64| MeasuredThroughput {
            patterns_per_second: per_second,
            seconds_per_pattern: 1.0 / per_second,
            rounds: 1,
        };
        let cell = |neuron_words: usize, inline: f64, pool: f64| CrossoverCell {
            neurons: 1,
            batch: 1,
            neuron_words,
            inline: figure(inline),
            pool: figure(pool),
        };
        let sweep = |cells: Vec<CrossoverCell>| InlineCrossover {
            dispatch: "scalar".to_string(),
            vector_len: 768,
            workers: 2,
            cells,
        };
        // Slower inline at 40,000 caps the limit at 32,768 even though a
        // larger cell happened to favour inline again.
        let mixed = sweep(vec![
            cell(1_000, 9.0, 1.0),
            cell(40_000, 1.0, 2.0),
            cell(90_000, 2.0, 1.0),
        ]);
        assert_eq!(mixed.inline_limit(), 32_768);
        // A cell exactly on a power of two that is slower excludes it.
        assert_eq!(sweep(vec![cell(4_096, 1.0, 2.0)]).inline_limit(), 2_048);
        // Never slower: the largest power of two within the sweep.
        assert_eq!(sweep(vec![cell(5_000, 2.0, 1.0)]).inline_limit(), 4_096);
        assert_eq!(sweep(vec![cell(1, 1.0, 2.0)]).inline_limit(), 0);
    }

    // Wall-clock assertion: sound in release on an idle machine, but timing
    // noise under a loaded CI runner (or the dev profile) can flip it with no
    // code defect, so it is opt-in. `benches/engine_batch.rs` measures the
    // same claim on every bench run; run this directly with
    // `cargo test -p bsom-engine --release -- --ignored`.
    #[test]
    #[ignore = "wall-clock perf assertion; covered by the engine_batch bench"]
    fn batched_layout_beats_the_scalar_loop_on_the_paper_configuration() {
        // The acceptance-criterion micro-check: 40 neurons x 768 bits, the
        // plane-sliced search must not be slower than the per-neuron loop.
        let mut r = StdRng::seed_from_u64(0xFA57);
        let data: Vec<(BinaryVector, ObjectLabel)> = (0..4)
            .map(|i| (BinaryVector::random(768, &mut r), ObjectLabel::new(i)))
            .collect();
        let mut som = BSom::new(BSomConfig::paper_default(), &mut r);
        som.train_labelled_data(&data, TrainSchedule::new(2), &mut r)
            .unwrap();
        let classifier = LabelledSom::label(som.clone(), &data);
        let service = SomService::serve(&classifier, EngineConfig::with_workers(2));
        let batch: Vec<BinaryVector> = (0..256)
            .map(|_| BinaryVector::random(768, &mut r))
            .collect();
        let comparison = compare_recognition_throughput(
            &service,
            &som,
            &batch,
            FpgaConfig::paper_default(),
            Duration::from_millis(60),
        );
        assert!(
            comparison.batched_speedup_over_scalar() > 1.0,
            "plane-sliced batch search should beat the scalar loop, got {:.2}x",
            comparison.batched_speedup_over_scalar()
        );
    }
}
