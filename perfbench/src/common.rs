//! Pieces every workload shares: run arguments, repeated set-up timing, the
//! classification oracle and the seeded helpers.

use std::time::{Duration, Instant};

use bsom_dataset::{CorruptionConfig, DatasetConfig, SurveillanceDataset};
use bsom_engine::service::SomSnapshot;
use bsom_engine::ServiceHealth;
use bsom_signature::BinaryVector;
use bsom_som::Prediction;
use rand::Rng;

use crate::measure::{median, Chunks, HostSpeed, LatencySummary};
use crate::report::{Counts, Outcome};

/// Worker threads of every service, registry and server the benchmark
/// builds: fixed so results do not depend on the host's core count.
pub const WORKERS: usize = 2;

/// How many times a run sets its workload up; `setup_s` is the median.
/// Set-ups of a few seconds repeat 3 times; those of about 0.1 s, whose
/// jitter is a larger share, repeat 7 times.
pub const SETUP_REPEATS: usize = 3;
pub const QUICK_SETUP_REPEATS: usize = 7;

/// Host-speed kernel samples taken before and after a run's timed phase.
const HOST_SAMPLES: usize = 20;

/// The arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
}

impl RunArgs {
    /// The measurement length as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Units of fixed work for a run: `per_second` per second of
    /// measurement, at least one.
    pub fn work(&self, per_second: f64) -> usize {
        ((self.seconds * per_second).round() as usize).max(1)
    }
}

/// The labelled signatures serve, fleet and large_map draw from: the
/// paper's nine identities and 2248/1139 split, with the mild corruption
/// profile so recognition difficulty varies less from seed to seed.
pub fn dataset<R: Rng + ?Sized>(rng: &mut R) -> SurveillanceDataset {
    let config = DatasetConfig::paper_default().with_corruption(CorruptionConfig::mild());
    SurveillanceDataset::generate(&config, rng)
}

/// Builds the workload `repeats` times, dropping all but the last build,
/// and records the median build time as `setup_s`.
pub fn timed_setup<S>(
    outcome: &mut Outcome,
    repeats: usize,
    mut build: impl FnMut(usize) -> S,
) -> S {
    let mut seconds = Vec::with_capacity(repeats);
    let mut kept = None;
    for repeat in 0..repeats.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build(repeat));
        seconds.push(start.elapsed().as_secs_f64());
    }
    record_setups(outcome, &seconds);
    kept.expect("at least one set-up ran")
}

/// Records the median of the set-up times `seconds` as `setup_s`.
fn record_setups(outcome: &mut Outcome, seconds: &[f64]) {
    outcome.set("setup_s", median(seconds));
    outcome.note(format!("set-ups took {seconds:.4?} s"));
}

/// Runs `measure`, a run's timed phase, between two samplings of the
/// host-speed guard, and notes the guard's median kernel times. The figures
/// are the program's own; the guard only tells whether two runs saw hosts
/// of the same speed.
pub fn guarded<T>(outcome: &mut Outcome, measure: impl FnOnce() -> T) -> T {
    let sample = || {
        let mut host = HostSpeed::default();
        for _ in 0..HOST_SAMPLES {
            host.sample();
        }
        host.median_ms()
    };
    let before = sample();
    let out = measure();
    let after = sample();
    outcome.note(format!(
        "host.kernel_ms {before:.4} before and {after:.4} after the timed phase"
    ));
    out
}

/// The verdict of `signature` against `snapshot`, derived from the
/// single-signature [`PackedLayer::winner`](bsom_som::PackedLayer::winner)
/// and the snapshot's label table exactly as `LabelledSom::classify` does.
pub fn oracle_verdict(snapshot: &SomSnapshot, signature: &BinaryVector) -> Prediction {
    let Ok(winner) = snapshot.layer().winner(signature) else {
        return Prediction::Unknown;
    };
    let distance = f64::from(winner.distance);
    if snapshot
        .unknown_threshold()
        .is_some_and(|threshold| distance > threshold)
    {
        return Prediction::Unknown;
    }
    match snapshot.neuron_labels()[winner.index] {
        Some(label) => Prediction::Known {
            label,
            neuron: winner.index,
            distance,
        },
        None => Prediction::Unknown,
    }
}

/// Counts worker panics and respawns of the given pools as failed
/// operations and reports the panic count.
pub fn record_health(outcome: &mut Outcome, pools: &[ServiceHealth]) {
    let sum = |field: fn(&ServiceHealth) -> u64| pools.iter().map(field).sum::<u64>();
    let panics = sum(|h| h.worker_panics);
    let respawns = sum(|h| h.worker_respawns);
    outcome.counts.failed += panics.max(respawns);
    outcome.set("engine.worker_panics", panics as f64);
    outcome.note(format!(
        "workers {}/{} alive, {panics} panics, {respawns} respawns",
        sum(|h| h.workers_alive as u64),
        sum(|h| h.workers_configured as u64),
    ));
}

/// Tallies classified signatures against their ground-truth labels.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    /// Classified signatures that carry a ground-truth label.
    pub scored: u64,
    /// Those whose prediction matched it.
    pub correct: u64,
}

impl Accuracy {
    /// Scores one prediction against its ground truth.
    pub fn score(&mut self, prediction: &Prediction, truth: bsom_som::ObjectLabel) {
        self.scored += 1;
        if prediction.label() == Some(truth) {
            self.correct += 1;
        }
    }

    /// Share of scored predictions that matched.
    pub fn value(&self) -> f64 {
        crate::measure::ratio(self.correct as f64, self.scored as f64)
    }
}

/// Compares served predictions with the oracle's, counting a mismatch per
/// differing signature.
pub fn check_predictions(counts: &mut Counts, served: &[Prediction], oracle: &[Prediction]) {
    if served.len() != oracle.len() {
        counts.mismatch();
        return;
    }
    for (served, expected) in served.iter().zip(oracle) {
        if served != expected {
            counts.mismatch();
        }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Sets the end-to-end peak-RSS metric.
pub fn record_peak_rss(outcome: &mut Outcome) {
    outcome.set("peak_rss_mb", crate::measure::peak_rss_mib().unwrap_or(0.0));
}

/// Records the tracing overhead: the traced minus the untraced `p50_ms`.
pub fn record_overhead(outcome: &mut Outcome, untraced_p50_ms: f64, traced_p50_ms: f64) {
    outcome.set("trace.untraced_p50_ms", untraced_p50_ms);
    outcome.set("trace.traced_p50_ms", traced_p50_ms);
    outcome.set("trace.overhead_ms", traced_p50_ms - untraced_p50_ms);
}

/// One diagnostic line on a run's tail latency: the sample count and the
/// highest percentile with ten samples beyond it.
pub fn describe_tail(summary: &LatencySummary) -> String {
    format!(
        "latency.samples {} latency.p{}_ms {:.4}",
        summary.samples,
        summary.tail_percent.unwrap_or(0.0),
        summary.tail_ms.unwrap_or(0.0),
    )
}

/// [`describe_tail`] of a chunked run, with how many chunks ran without
/// hypervisor steal.
pub fn describe_latency(chunks: &Chunks) -> String {
    let (clean, all) = chunks.clean_share();
    format!(
        "{}, {clean}/{all} chunks without steal",
        describe_tail(&chunks.summary())
    )
}
