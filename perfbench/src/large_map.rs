//! `large_map`: in-process train-while-serve at the 1024×768 scale shape.
//!
//! One thread alternates [`Trainer::feed`] steps, publishing on a fixed
//! cadence, with 64-signature [`Recognizer::classify_batch`] calls on a
//! 2-worker pool. Winner search dominates here, unlike in every other
//! workload. The work is a fixed number of rounds per second of
//! `--seconds`, so the accuracy repeats exactly at a seed.

use std::sync::Arc;

use bsom_dataset::LabelledSignature;
use bsom_engine::{EngineConfig, Recognizer, SomService, Trainer};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{self, Accuracy, RunArgs, WORKERS};
use crate::measure::{timed, Chunks, Spans};
use crate::report::{Counts, Outcome};

/// Neurons of the map.
const NEURONS: usize = 1024;
/// Enrolment epochs over the training split in set-up.
const ENROL_EPOCHS: usize = 4;
/// Training steps per round.
const FEEDS_PER_ROUND: usize = 16;
/// A snapshot is published every this many steps.
const PUBLISH_EVERY: u64 = 64;
/// Feed steps over which a neuron's past wins lose half their weight, so
/// labels follow the map as it keeps training.
const LABEL_HALF_LIFE: u64 = 4096;
/// Signatures per classify call.
const BATCH: usize = 64;
/// Rounds per second of `--seconds` (about one second of work each on a
/// 2-vCPU Xeon VM).
const ROUNDS_PER_SECOND: f64 = 800.0;
/// Untimed rounds before timing starts.
const WARMUP_ROUNDS: usize = 100;

struct LargeMap {
    service: SomService,
    trainer: Trainer,
    recognizer: Recognizer,
    train: Vec<LabelledSignature>,
    /// The test split cut into classify batches, with their labels.
    batches: Vec<(Arc<Vec<BinaryVector>>, Vec<ObjectLabel>)>,
}

fn build(seed: u64) -> LargeMap {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = common::dataset(&mut rng);
    let som = BSom::new(BSomConfig::new(NEURONS, 768), &mut rng);
    let (service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(ENROL_EPOCHS + 1),
        &[],
        EngineConfig::with_workers(WORKERS).with_label_half_life_steps(LABEL_HALF_LIFE),
    );
    trainer
        .train_epochs(&dataset.train, ENROL_EPOCHS, &mut rng)
        .expect("the training split is non-empty");
    let batches = dataset
        .test
        .chunks_exact(BATCH)
        .map(|chunk| {
            (
                Arc::new(chunk.iter().map(|(s, _)| s.clone()).collect()),
                chunk.iter().map(|(_, label)| *label).collect(),
            )
        })
        .collect();
    let recognizer = service.recognizer();
    LargeMap {
        service,
        trainer,
        recognizer,
        train: dataset.train,
        batches,
    }
}

/// What a run of rounds observed.
#[derive(Default)]
struct Rounds {
    counts: Counts,
    accuracy: Accuracy,
    classified: u64,
    publishes: u64,
    chunks: Chunks,
}

/// Runs `rounds` rounds from the trainer's current position.
fn drive(map: &mut LargeMap, rounds: usize, mut spans: Option<&mut Spans>) -> Rounds {
    let mut out = Rounds::default();
    let mut step = map.trainer.steps_run() as usize;
    for _ in 0..rounds {
        for _ in 0..FEEDS_PER_ROUND {
            let (signature, label) = &map.train[step % map.train.len()];
            step += 1;
            out.counts.attempted += 1;
            let (fed, elapsed) = timed(spans.as_deref_mut(), "engine.feed", || {
                map.trainer.feed(signature, *label)
            });
            out.chunks.work(0.0, elapsed);
            if fed.is_err() {
                out.counts.fail();
            }
            if map.trainer.steps_run().is_multiple_of(PUBLISH_EVERY) {
                let (_, elapsed) = timed(spans.as_deref_mut(), "engine.publish", || {
                    map.trainer.publish()
                });
                out.chunks.work(0.0, elapsed);
                out.publishes += 1;
            }
        }
        let (batch, labels) = &map.batches[(step / FEEDS_PER_ROUND) % map.batches.len()];
        out.counts.attempted += 1;
        let (predictions, elapsed) = timed(spans.as_deref_mut(), "engine.classify", || {
            map.recognizer.classify_batch(batch)
        });
        out.chunks.work(predictions.len() as f64, elapsed);
        out.chunks.latency(elapsed);
        out.classified += predictions.len() as u64;
        let snapshot = map.recognizer.snapshot();
        let expected: Vec<_> = batch
            .iter()
            .map(|signature| {
                timed(spans.as_deref_mut(), "som.winner", || {
                    common::oracle_verdict(snapshot, signature)
                })
                .0
            })
            .collect();
        common::check_predictions(&mut out.counts, &predictions, &expected);
        for (prediction, truth) in predictions.iter().zip(labels) {
            out.accuracy.score(prediction, *truth);
        }
        out.chunks.end_op();
    }
    out
}

fn measure(map: &mut LargeMap, args: RunArgs, spans: Option<&mut Spans>) -> Rounds {
    let warmup = drive(map, WARMUP_ROUNDS, None);
    let mut rounds = drive(map, args.work(ROUNDS_PER_SECOND), spans);
    rounds.counts.merge(warmup.counts);
    rounds
}

/// Notes the run's counts and tail, and returns its `p50_ms`.
fn report(outcome: &mut Outcome, rounds: &Rounds) -> f64 {
    outcome.counts.merge(rounds.counts);
    outcome.note(format!(
        "{} classified, {} publishes, {}",
        rounds.classified,
        rounds.publishes,
        common::describe_latency(&rounds.chunks)
    ));
    rounds.chunks.summary().p50_ms
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let mut map = common::timed_setup(&mut outcome, common::QUICK_SETUP_REPEATS, |_| {
        build(args.seed)
    });
    outcome.note(format!(
        "{WORKERS} workers, {NEURONS}x768 map, {FEEDS_PER_ROUND} feeds and one \
         {BATCH}-signature classify per round, publish every {PUBLISH_EVERY} steps"
    ));
    let rounds = common::guarded(&mut outcome, || measure(&mut map, args, None));
    let p50 = report(&mut outcome, &rounds);
    outcome.set("p50_ms", p50);
    outcome.set("throughput_per_s", rounds.chunks.median_rate());
    outcome.set("accuracy", rounds.accuracy.value());
    common::record_health(&mut outcome, &[map.service.health()]);
    common::record_peak_rss(&mut outcome);
    outcome
}

/// The traced run: trainer, classify and winner-search spans, and the
/// tracing overhead against an untraced run on an identically built map.
pub fn run_traced(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let untraced_p50 = {
        let mut map = build(args.seed);
        let rounds = measure(&mut map, args, None);
        report(&mut outcome, &rounds)
    };
    let mut map = build(args.seed);
    let mut spans = Spans::default();
    let rounds = measure(&mut map, args, Some(&mut spans));
    let traced_p50 = report(&mut outcome, &rounds);
    common::record_overhead(&mut outcome, untraced_p50, traced_p50);
    outcome.set("engine.feed_us", spans.mean_us("engine.feed"));
    outcome.set("engine.publish_us", spans.mean_us("engine.publish"));
    outcome.set("engine.snapshot_versions", rounds.publishes as f64);
    outcome.set("engine.classify_us", spans.mean_us("engine.classify"));
    outcome.set("engine.signatures_per_classify", BATCH as f64);
    outcome.set("som.winner_us", spans.mean_us("som.winner"));
    common::record_health(&mut outcome, &[map.service.health()]);
    outcome
}
