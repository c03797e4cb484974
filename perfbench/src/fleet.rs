//! `fleet`: one thread drives a [`MapRegistry`] of about a thousand tenants
//! with Zipf-skewed touches.
//!
//! Each round feeds examples to a few tenants, runs one `train_tick` and
//! makes small classify calls. The residency cap sits below the tenant
//! count, so cold tenants spill to disk and reload on their next touch. The
//! work is a fixed number of rounds per second of `--seconds`, so the
//! eviction and reload counts and the accuracy repeat exactly at a seed.
//! The rounds are replayed on two dozen fresh registries built from the
//! same enrolled maps, and the timing figures are taken over each round's
//! fastest replay.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bsom_dataset::LabelledSignature;
use bsom_engine::{EngineConfig, MapRegistry, RegistryConfig, ServiceHealth, TenantId};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, NeighbourhoodSchedule, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, Accuracy, RunArgs, WORKERS};
use crate::measure::{ratio, summarize_ms, timed, Fastest, Spans, Zipf};
use crate::report::{Counts, Outcome};

/// Tenants in the registry.
const TENANTS: usize = 1024;
/// Tenants kept in memory; the rest are spilled.
const MAX_RESIDENT: usize = 960;
/// Examples each tenant's map is enrolled on in set-up, and the epochs
/// over them.
const ENROL_EXAMPLES: usize = 96;
const ENROL_EPOCHS: usize = 4;
/// Feed steps over which a tenant neuron's past wins lose half their
/// weight, so labels follow the map as it keeps training.
const LABEL_HALF_LIFE: u64 = 256;
/// Skew of tenant popularity.
const ZIPF_EXPONENT: f64 = 1.2;
/// Tenants fed per round, and examples per fed tenant.
const FEED_TOUCHES: usize = 8;
const EXAMPLES_PER_TOUCH: usize = 4;
/// Training steps per `train_tick`.
const TICK_BUDGET: u64 = 32;
/// Classify calls per round, and signatures per call.
const CLASSIFIES: usize = 8;
const SIGNATURES_PER_CLASSIFY: usize = 4;
/// Rounds per second of `--seconds`, split evenly over the replays; with
/// the set-ups and rebuilds a run lasts about `--seconds` on a 2-vCPU Xeon
/// VM.
const ROUNDS_PER_SECOND: f64 = 800.0;
/// Fresh registries a run replays its rounds on. The VM's host switches
/// between a fast state and one about 1.5 times slower, each lasting from
/// tenths of a second to several seconds; with two dozen replays about
/// half a second apart, few rounds have no replay in the fast state.
const REPLAYS: usize = 24;
/// Untimed rounds on each registry before timing starts.
const WARMUP_ROUNDS: usize = 50;
/// Tenants explicitly evicted and reloaded after a traced run.
const CHECKPOINT_SAMPLE: usize = 32;

/// Where spill frames go: inside the working directory, which the
/// benchmark may write, and removed when the run ends.
fn spill_root() -> PathBuf {
    PathBuf::from(".bench_spill")
}

/// What every registry of a run is built from: each tenant's enrolled map
/// and enrolment sample (as indices into the training split), the
/// tenants' popularity order and the dataset.
struct Enrolment {
    ids: Vec<TenantId>,
    maps: Vec<(BSom, Vec<usize>)>,
    /// Zipf rank → tenant index.
    by_rank: Vec<usize>,
    train: Vec<LabelledSignature>,
    test: Vec<LabelledSignature>,
}

/// One registry holding every enrolled tenant.
struct Fleet {
    registry: MapRegistry,
    spill_dir: PathBuf,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

/// The schedule tenants keep training on in the registry: the registry
/// never advances epochs, so the radius is fixed at the finest.
fn online_schedule() -> TrainSchedule {
    TrainSchedule::new(1).with_neighbourhood(NeighbourhoodSchedule::Constant { radius: 1 })
}

/// Generates the dataset and enrols every tenant's map on its own sample.
fn enrol(seed: u64) -> Enrolment {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = common::dataset(&mut rng);
    let maps = (0..TENANTS)
        .map(|_| {
            let picks: Vec<usize> = (0..ENROL_EXAMPLES)
                .map(|_| rng.gen_range(0..dataset.train.len()))
                .collect();
            let sample = pick(&dataset.train, &picks);
            let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
            som.train_labelled_data(&sample, TrainSchedule::new(ENROL_EPOCHS), &mut rng)
                .expect("the enrolment sample is non-empty");
            (som, picks)
        })
        .collect();
    Enrolment {
        ids: (0..TENANTS)
            .map(|t| TenantId::from(format!("tenant-{t:04}")))
            .collect(),
        maps,
        by_rank: common::permutation(TENANTS, &mut rng),
        train: dataset.train,
        test: dataset.test,
    }
}

/// The examples of `split` at `picks`.
fn pick(split: &[LabelledSignature], picks: &[usize]) -> Vec<LabelledSignature> {
    picks.iter().map(|&i| split[i].clone()).collect()
}

/// A registry of every enrolled tenant, spilling under `spill_dir`; the
/// tenants past the residency cap are spilled as they are created.
fn build(enrolment: &Enrolment, spill_dir: &Path) -> Fleet {
    let _ = std::fs::remove_dir_all(spill_dir);
    std::fs::create_dir_all(spill_dir).expect("creating the spill directory");
    let registry = MapRegistry::new(
        RegistryConfig::new(
            EngineConfig::with_workers(WORKERS).with_label_half_life_steps(LABEL_HALF_LIFE),
        )
        .with_max_resident(MAX_RESIDENT)
        .with_spill_dir(spill_dir),
    );
    for (id, (som, picks)) in enrolment.ids.iter().zip(&enrolment.maps) {
        registry
            .create_tenant(
                id,
                som.clone(),
                online_schedule(),
                &pick(&enrolment.train, picks),
            )
            .expect("creating a tenant");
    }
    Fleet {
        registry,
        spill_dir: spill_dir.to_path_buf(),
    }
}

/// What a run of rounds observed, summed over replays.
#[derive(Default)]
struct Rounds {
    counts: Counts,
    accuracy: Accuracy,
    trained: u64,
    classified: u64,
    touches: u64,
    reloads: u64,
    evictions: u64,
    ticks: u64,
}

impl Rounds {
    fn merge(&mut self, other: Rounds) {
        self.counts.merge(other.counts);
        self.accuracy.scored += other.accuracy.scored;
        self.accuracy.correct += other.accuracy.correct;
        self.trained += other.trained;
        self.classified += other.classified;
        self.touches += other.touches;
        self.reloads += other.reloads;
        self.evictions += other.evictions;
        self.ticks += other.ticks;
    }
}

/// Each timed round's fastest replay: the busy time of its feed, tick and
/// classify calls, and its mean classify call. One latency sample per
/// round, the mean of its classify calls: a call is one pool round trip
/// whose wake-up cost is bimodal, and the per-round mean moves with the mix
/// of the two modes instead of jumping between them.
struct RoundTimes {
    busy: Fastest,
    classify: Fastest,
    /// Every replay's mean classify call per round, for the tail diagnostic.
    all_classify_ms: Vec<f64>,
}

impl RoundTimes {
    fn new(rounds: usize) -> Self {
        RoundTimes {
            busy: Fastest::new(rounds),
            classify: Fastest::new(rounds),
            all_classify_ms: Vec::new(),
        }
    }
}

/// Runs `rounds` rounds; `spans`, when given, collects the per-call spans,
/// and `times`, when given, each round's times.
fn drive(
    fleet: &Fleet,
    enrolment: &Enrolment,
    rounds: usize,
    rng: &mut StdRng,
    mut spans: Option<&mut Spans>,
    mut times: Option<&mut RoundTimes>,
) -> Rounds {
    let zipf = Zipf::new(TENANTS, ZIPF_EXPONENT);
    let mut out = Rounds::default();
    let stats_before = fleet.registry.stats();
    for round in 0..rounds {
        let mut busy = Duration::ZERO;
        let mut classify_time = Duration::ZERO;
        let mut classify_calls = 0u32;
        for _ in 0..FEED_TOUCHES {
            let id = &enrolment.ids[enrolment.by_rank[zipf.sample(rng)]];
            out.touches += 1;
            for _ in 0..EXAMPLES_PER_TOUCH {
                let (signature, label) = &enrolment.train[rng.gen_range(0..enrolment.train.len())];
                out.counts.attempted += 1;
                let (result, elapsed) = timed(spans.as_deref_mut(), "registry.feed", || {
                    fleet.registry.feed(id, signature, *label)
                });
                busy += elapsed;
                if result.is_err() {
                    out.counts.fail();
                }
            }
        }
        let (report, elapsed) = timed(spans.as_deref_mut(), "registry.train_tick", || {
            fleet.registry.train_tick(TICK_BUDGET)
        });
        busy += elapsed;
        out.ticks += 1;
        out.trained += report.steps;
        out.counts.attempted += 1;
        if !report.failures.is_empty() {
            out.counts.failed += report.failures.len() as u64;
        }
        for _ in 0..CLASSIFIES {
            let id = &enrolment.ids[enrolment.by_rank[zipf.sample(rng)]];
            out.touches += 1;
            let picked: Vec<&LabelledSignature> = (0..SIGNATURES_PER_CLASSIFY)
                .map(|_| &enrolment.test[rng.gen_range(0..enrolment.test.len())])
                .collect();
            let batch: Vec<BinaryVector> = picked.iter().map(|(s, _)| s.clone()).collect();
            out.counts.attempted += 1;
            let (result, elapsed) = timed(spans.as_deref_mut(), "registry.classify", || {
                fleet.registry.classify(id, &batch)
            });
            busy += elapsed;
            let Ok(predictions) = result else {
                out.counts.fail();
                continue;
            };
            classify_time += elapsed;
            classify_calls += 1;
            out.classified += predictions.len() as u64;
            // The tenant was just touched, so this lookup neither reloads
            // nor reorders the LRU; no tick ran since the classify, so the
            // snapshot is the one it used.
            let Ok(snapshot) = fleet.registry.snapshot(id) else {
                out.counts.fail();
                continue;
            };
            let expected: Vec<_> = batch
                .iter()
                .map(|signature| {
                    timed(spans.as_deref_mut(), "som.winner", || {
                        common::oracle_verdict(&snapshot, signature)
                    })
                    .0
                })
                .collect();
            common::check_predictions(&mut out.counts, &predictions, &expected);
            for (prediction, (_, truth)) in predictions.iter().zip(&picked) {
                out.accuracy.score(prediction, *truth);
            }
        }
        if let Some(times) = times.as_deref_mut() {
            times.busy.record(round, busy);
            if classify_calls > 0 {
                let mean = classify_time / classify_calls;
                times.classify.record(round, mean);
                times.all_classify_ms.push(mean.as_secs_f64() * 1e3);
            }
        }
    }
    let stats_after = fleet.registry.stats();
    out.reloads = stats_after.reloads_total - stats_before.reloads_total;
    out.evictions = stats_after.evictions_total - stats_before.evictions_total;
    out
}

/// Timed rounds in each replay.
fn rounds_per_replay(args: RunArgs) -> usize {
    args.work(ROUNDS_PER_SECOND / REPLAYS as f64)
}

/// What the replays of a run observed.
struct Replays {
    /// The timed rounds, summed over the replays; the warm-up rounds count
    /// only towards `rounds.counts`.
    rounds: Rounds,
    times: RoundTimes,
    health: Vec<ServiceHealth>,
}

impl Replays {
    /// Signatures trained plus classified per second of the rounds' fastest
    /// busy times.
    fn throughput(&self) -> f64 {
        let per_round = ratio(
            (self.rounds.trained + self.rounds.classified) as f64,
            self.rounds.ticks as f64,
        );
        per_round * self.times.busy.rate()
    }
}

/// Replays the rounds on [`REPLAYS`] registries built afresh from
/// `enrolment`; each warms up first and runs the timed rounds from the same
/// seeded stream. `last` sees the final registry after its rounds, before
/// it is dropped.
fn replay(
    args: RunArgs,
    tag: &str,
    enrolment: &Enrolment,
    mut spans: Option<&mut Spans>,
    last: impl FnOnce(&Fleet),
) -> Replays {
    let mut replays = Replays {
        rounds: Rounds::default(),
        times: RoundTimes::new(rounds_per_replay(args)),
        health: Vec::with_capacity(REPLAYS),
    };
    let mut last = Some(last);
    for replay in 0..REPLAYS {
        let fleet = build(enrolment, &spill_dir(&format!("{tag}-{replay}")));
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF1EE7);
        let warmup = drive(&fleet, enrolment, WARMUP_ROUNDS, &mut rng, None, None);
        replays.rounds.counts.merge(warmup.counts);
        let rounds = drive(
            &fleet,
            enrolment,
            rounds_per_replay(args),
            &mut rng,
            spans.as_deref_mut(),
            Some(&mut replays.times),
        );
        replays.rounds.merge(rounds);
        replays.health.push(fleet.registry.health());
        if replay + 1 == REPLAYS {
            if let Some(last) = last.take() {
                last(&fleet);
            }
        }
    }
    let _ = std::fs::remove_dir(spill_root());
    replays
}

/// Notes the run's counts and tail, and returns its `p50_ms`.
fn report(outcome: &mut Outcome, replays: &Replays) -> f64 {
    let rounds = &replays.rounds;
    outcome.counts.merge(rounds.counts);
    outcome.note(format!(
        "{REPLAYS} replays: {} ticks, {} trained, {} classified, registry.evictions {} \
         registry.reloads {} registry.reload_ratio {:.6}, {}",
        rounds.ticks,
        rounds.trained,
        rounds.classified,
        rounds.evictions,
        rounds.reloads,
        ratio(rounds.reloads as f64, rounds.touches as f64),
        common::describe_tail(&summarize_ms(&replays.times.all_classify_ms))
    ));
    replays.times.classify.p50_ms()
}

fn spill_dir(tag: &str) -> PathBuf {
    spill_root().join(format!("fleet-{}-{tag}", std::process::id()))
}

fn describe(outcome: &mut Outcome) {
    let root = spill_root();
    outcome.note(format!(
        "{WORKERS} workers, {TENANTS} tenants, {MAX_RESIDENT} resident, Zipf {ZIPF_EXPONENT}, \
         spill directory under {}",
        std::path::absolute(&root).unwrap_or(root).display()
    ));
}

/// The untraced run: end-to-end metrics. A set-up is the whole of it:
/// dataset, enrolment and registry; the replays rebuild only the registry.
pub fn run(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    describe(&mut outcome);
    let (enrolment, set_up) = common::timed_setup(&mut outcome, common::SETUP_REPEATS, |k| {
        let enrolment = enrol(args.seed);
        let fleet = build(&enrolment, &spill_dir(&format!("setup-{k}")));
        (enrolment, fleet)
    });
    drop(set_up);
    let replays = common::guarded(&mut outcome, || {
        replay(args, "run", &enrolment, None, |_| {})
    });
    let p50 = report(&mut outcome, &replays);
    outcome.set("p50_ms", p50);
    outcome.set("throughput_per_s", replays.throughput());
    outcome.set("accuracy", replays.rounds.accuracy.value());
    common::record_health(&mut outcome, &replays.health);
    common::record_peak_rss(&mut outcome);
    outcome
}

/// The traced run: registry and checkpoint spans, and the tracing overhead
/// against untraced replays on identically built fleets.
pub fn run_traced(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    describe(&mut outcome);
    let enrolment = enrol(args.seed);
    let untraced = replay(args, "untraced", &enrolment, None, |_| {});
    let untraced_p50 = report(&mut outcome, &untraced);
    let mut spans = Spans::default();
    let mut sample = None;
    let traced = replay(args, "traced", &enrolment, Some(&mut spans), |fleet| {
        sample = Some(checkpoint_sample(fleet, &enrolment, args.seed));
    });
    let traced_p50 = report(&mut outcome, &traced);
    common::record_overhead(&mut outcome, untraced_p50, traced_p50);
    let rounds = &traced.rounds;
    outcome.set("registry.feed_us", spans.mean_us("registry.feed"));
    outcome.set(
        "registry.train_tick_us",
        spans.mean_us("registry.train_tick"),
    );
    outcome.set("registry.classify_us", spans.mean_us("registry.classify"));
    outcome.set("som.winner_us", spans.mean_us("som.winner"));
    outcome.set(
        "registry.steps_per_tick",
        rounds.trained as f64 / rounds.ticks.max(1) as f64,
    );
    outcome.set("registry.evictions", rounds.evictions as f64);
    outcome.set("registry.reloads", rounds.reloads as f64);
    outcome.set(
        "registry.reload_ratio",
        ratio(rounds.reloads as f64, rounds.touches as f64),
    );
    let sample = sample.expect("the last replay is sampled");
    outcome.counts.merge(sample.counts);
    outcome.set("checkpoint.evict_us", sample.evict_us);
    outcome.set("checkpoint.reload_us", sample.reload_us);
    outcome.set("checkpoint.spill_bytes", sample.spill_bytes);
    // The timed calls' share spent spilling and reloading, estimated from
    // the sample's mean evict and reload times.
    let busy_us: f64 = ["registry.feed", "registry.train_tick", "registry.classify"]
        .iter()
        .map(|name| spans.get(name).total.as_secs_f64() * 1e6)
        .sum();
    let spill_us =
        rounds.evictions as f64 * sample.evict_us + rounds.reloads as f64 * sample.reload_us;
    outcome.set("checkpoint.spill_share", ratio(spill_us, busy_us));
    common::record_health(&mut outcome, &traced.health);
    outcome
}

/// Explicit evictions and reloads of a fixed sample of tenants.
struct CheckpointSample {
    counts: Counts,
    /// Mean evict and reload times in microseconds.
    evict_us: f64,
    reload_us: f64,
    /// Mean size of the spill frames on disk afterwards.
    spill_bytes: f64,
}

/// Explicitly evicts and reloads a fixed sample of tenants, timing each
/// and sizing the spill frames.
fn checkpoint_sample(fleet: &Fleet, enrolment: &Enrolment, seed: u64) -> CheckpointSample {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4EC);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    for _ in 0..CHECKPOINT_SAMPLE {
        let id = &enrolment.ids[rng.gen_range(0..TENANTS)];
        counts.attempted += 2;
        if fleet.registry.reload(id).is_err() {
            counts.fail();
        }
        let (evicted, _) = timed(Some(&mut spans), "checkpoint.evict", || {
            fleet.registry.evict(id)
        });
        let (reloaded, _) = timed(Some(&mut spans), "checkpoint.reload", || {
            fleet.registry.reload(id)
        });
        if evicted.is_err() {
            counts.fail();
        }
        if reloaded.is_err() {
            counts.fail();
        }
    }
    let sizes: Vec<u64> = std::fs::read_dir(&fleet.spill_dir)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok()?.metadata().ok())
                .map(|meta| meta.len())
                .collect()
        })
        .unwrap_or_default();
    CheckpointSample {
        counts,
        evict_us: spans.mean_us("checkpoint.evict"),
        reload_us: spans.mean_us("checkpoint.reload"),
        spill_bytes: ratio(sizes.iter().sum::<u64>() as f64, sizes.len() as f64),
    }
}
