//! Deterministic fault-injection harness (requires `--features
//! fault-injection`).
//!
//! Exercises every failure path of the fault model in DESIGN.md §"Fault
//! model and recovery" through the named failpoints of
//! [`bsom_engine::faultpoint`]:
//!
//! * a worker panicking mid-job is contained — the batch still returns
//!   bit-identical predictions, the supervisor respawns the worker, and
//!   [`ServiceHealth`] records the panic and the respawn;
//! * a batch within [`INLINE_CLASSIFY_MAX_NEURON_WORDS`] never reaches a
//!   worker, and one signature more does — so the suites that arm
//!   `worker.job` size their batches from that limit;
//! * a checkpoint torn between temp-file write and atomic rename leaves
//!   the previous checkpoint intact; a frame truncated at **every** byte
//!   offset, or bit-flipped per a seeded [`FaultPlan`], is rejected with a
//!   typed error;
//! * a saturated bounded queue sheds load with [`EngineError::Overloaded`]
//!   and recovers;
//! * a panic while publishing (snapshot lock held) leaves the old snapshot
//!   serving and the next publish succeeds;
//! * a panic inside a training step poisons the trainer
//!   ([`EngineError::TrainerPanicked`] then [`TrainerPoisoned`]) while the
//!   service keeps serving, and a checkpoint resume recovers.
//!
//! The failpoint registry is process-global, so every test takes
//! [`harness`] — one mutex that serializes the suite and resets the
//! registry on entry and on drop (also on panic). CI additionally runs
//! this binary with `--test-threads=1`.
//!
//! [`TrainerPoisoned`]: EngineError::TrainerPoisoned

#![cfg(feature = "fault-injection")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bsom_engine::faultpoint::{arm_panic, arm_sleep, hit_count, reset, FaultPlan};
use bsom_engine::{
    EngineConfig, EngineError, ServiceHealth, SomService, Trainer, INLINE_CLASSIFY_MAX_NEURON_WORDS,
};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VECTOR_LEN: usize = 80;
/// Neurons in the suite's maps.
const NEURONS: usize = 8;
/// Classify work of one probe against the suite's maps, in neuron-words.
const WORK_PER_PROBE: usize = NEURONS * VECTOR_LEN.div_ceil(64);

/// The fewest probes whose batch the engine shards across the worker pool
/// instead of classifying on the calling thread.
fn pool_batch_len() -> usize {
    INLINE_CLASSIFY_MAX_NEURON_WORDS / WORK_PER_PROBE + 1
}

/// Serializes the suite around the process-global failpoint registry and
/// guarantees a clean registry on both entry and exit (even when the test
/// body panics: the reset runs in `Drop`).
fn harness() -> HarnessGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the registry reset below restores the
    // shared state the lock actually protects.
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    reset();
    HarnessGuard { _guard: guard }
}

struct HarnessGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for HarnessGuard {
    fn drop(&mut self) {
        reset();
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bsom-fault-injection-{}-{tag}.ckpt",
        std::process::id()
    ))
}

fn training_stream(seed: u64, steps: usize) -> Vec<(BinaryVector, ObjectLabel)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..steps)
        .map(|i| {
            (
                BinaryVector::random(VECTOR_LEN, &mut rng),
                ObjectLabel::new(i % 3),
            )
        })
        .collect()
}

fn probes(seed: u64, count: usize) -> Vec<BinaryVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| BinaryVector::random(VECTOR_LEN, &mut rng))
        .collect()
}

fn trained_pair(seed: u64, config: EngineConfig) -> (SomService, Trainer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let som = BSom::new(BSomConfig::new(NEURONS, VECTOR_LEN), &mut rng);
    let (service, mut trainer) =
        SomService::train_while_serve(som, TrainSchedule::new(8), &[], config);
    for (signature, label) in &training_stream(seed ^ 0xA5A5, 40) {
        trainer.feed(signature, *label).unwrap();
    }
    trainer.publish();
    (service, trainer)
}

fn wait_for(timeout: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    condition()
}

/// Acceptance (a): a worker killed mid-job is invisible to the caller —
/// the batch completes with bit-identical predictions (the collector
/// recomputes the lost shard inline) — and the supervisor respawns the
/// worker, all of it visible in [`ServiceHealth`].
#[test]
fn worker_panic_is_contained_respawned_and_bit_identical() {
    let _harness = harness();
    let (service, _trainer) = trained_pair(0x11, EngineConfig::with_workers(2));
    let batch = probes(0x22, pool_batch_len());
    let mut recognizer = service.recognizer();

    // Fault-free reference pass (counts worker.job hits: one per shard).
    let reference = recognizer.classify_batch(&batch);
    let healthy = service.health();
    assert_eq!(healthy.workers_configured, 2);
    assert_eq!(healthy.worker_panics, 0);
    assert_eq!(healthy.last_panic, None);

    // Kill the worker that picks up the faulted batch's first shard.
    arm_panic("worker.job", hit_count("worker.job"));
    let under_fault = recognizer.classify_batch(&batch);
    assert_eq!(
        under_fault, reference,
        "a shard lost to a worker panic must be recomputed bit-identically"
    );

    // The supervisor respawns the dead worker (2 ms backoff on the first
    // panic) and the health counters record the whole episode.
    assert!(
        wait_for(Duration::from_secs(5), || {
            let health = service.health();
            health.worker_respawns >= 1 && health.workers_alive == 2
        }),
        "supervisor must respawn the crashed worker, health: {:?}",
        service.health()
    );
    let health: ServiceHealth = service.health();
    assert_eq!(health.worker_panics, 1);
    assert!(
        health
            .last_panic
            .as_deref()
            .is_some_and(|message| message.contains("worker.job")),
        "last_panic must carry the panic message, got {:?}",
        health.last_panic
    );

    // Post-recovery classifies still match the reference.
    let recovered = recognizer.classify_batch(&batch);
    assert_eq!(recovered, reference);
}

/// The work rule: a batch whose work equals the inline limit runs on the
/// calling thread — the `worker.job` counter does not move and an armed
/// panic stays unfired — while one signature more goes to the pool and
/// trips the failpoint there.
#[test]
fn a_batch_at_the_inline_limit_never_reaches_a_worker() {
    let _harness = harness();
    let (service, _trainer) = trained_pair(0x1F, EngineConfig::with_workers(2));
    let at_limit = INLINE_CLASSIFY_MAX_NEURON_WORDS / WORK_PER_PROBE;
    assert_eq!(at_limit * WORK_PER_PROBE, INLINE_CLASSIFY_MAX_NEURON_WORDS);
    let over = probes(0x2F, at_limit + 1);
    assert_eq!(over.len(), pool_batch_len());
    let mut recognizer = service.recognizer();
    let reference = recognizer.classify_batch(&over);

    let hits = hit_count("worker.job");
    arm_panic("worker.job", hits);
    assert_eq!(
        recognizer.classify_batch(&over[..at_limit]),
        reference[..at_limit]
    );
    assert_eq!(
        hit_count("worker.job"),
        hits,
        "a batch at the limit must not reach a worker"
    );
    assert_eq!(service.health().worker_panics, 0);

    // One signature over the limit: the pool runs it, the armed panic
    // fires in a worker, and the lost shard is recomputed bit-identically.
    assert_eq!(recognizer.classify_batch(&over), reference);
    assert!(hit_count("worker.job") > hits);
    assert!(
        wait_for(Duration::from_secs(5), || service.health().worker_panics
            == 1),
        "the armed panic must fire inside a worker, health: {:?}",
        service.health()
    );
}

/// Acceptance (b): a checkpoint frame truncated at **every** byte offset
/// fails to load with a typed error, and so do seeded-plan bit flips.
#[test]
fn torn_checkpoints_at_every_offset_and_seeded_bit_flips_are_rejected() {
    let _harness = harness();
    let path = temp_path("torn-frame");
    let (_service, trainer) = trained_pair(0x33, EngineConfig::with_workers(1));
    trainer.write_checkpoint(&path).unwrap();
    let frame = std::fs::read(&path).unwrap();

    let torn_path = temp_path("torn-frame-cut");
    for keep in 0..frame.len() {
        std::fs::write(&torn_path, &frame[..keep]).unwrap();
        assert!(
            SomService::resume_from_checkpoint(&torn_path).is_err(),
            "a frame torn at byte {keep} of {} must be rejected",
            frame.len()
        );
    }

    // Bit flips chosen by a seeded fault plan: the whole scenario replays
    // from one u64.
    let mut plan = FaultPlan::seeded(0xB1F_F11D);
    for _ in 0..64 {
        let offset = plan.next_below(frame.len() as u64) as usize;
        let bit = plan.next_below(8) as u8;
        let mut corrupted = frame.clone();
        corrupted[offset] ^= 1 << bit;
        std::fs::write(&torn_path, &corrupted).unwrap();
        assert!(
            SomService::resume_from_checkpoint(&torn_path).is_err(),
            "flipping bit {bit} of byte {offset} must be rejected"
        );
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&torn_path).ok();
}

/// A crash between the temp-file write and the atomic rename (the
/// `checkpoint.write` failpoint sits exactly there) leaves the **previous**
/// checkpoint intact and loadable — the commit is all-or-nothing.
#[test]
fn a_crash_between_write_and_rename_preserves_the_previous_checkpoint() {
    let _harness = harness();
    let path = temp_path("write-tear");
    let stream = training_stream(0x44, 60);
    let (_service, mut trainer) = trained_pair(0x44, EngineConfig::with_workers(1));
    let steps_at_first_checkpoint = trainer.steps_run();
    trainer.write_checkpoint(&path).unwrap();

    for (signature, label) in &stream {
        trainer.feed(signature, *label).unwrap();
    }

    // The second write dies after the temp file is written but before the
    // rename commits it.
    arm_panic("checkpoint.write", hit_count("checkpoint.write"));
    let torn = catch_unwind(AssertUnwindSafe(|| trainer.write_checkpoint(&path)));
    assert!(torn.is_err(), "the injected tear must surface as a panic");

    // `path` still holds the first checkpoint, whole and valid.
    let (_resumed_service, resumed) = SomService::resume_from_checkpoint(&path)
        .expect("the previous checkpoint must survive a torn successor");
    assert_eq!(resumed.steps_run(), steps_at_first_checkpoint);

    // With the failpoint consumed, the retry commits the newer state.
    trainer.write_checkpoint(&path).unwrap();
    let (_newer_service, newer) = SomService::resume_from_checkpoint(&path).unwrap();
    assert_eq!(newer.steps_run(), trainer.steps_run());
    assert_eq!(newer.som(), trainer.som());

    std::fs::remove_file(&path).ok();
}

/// Acceptance (d): with one worker parked inside a job (`arm_sleep`) and the
/// queue bounded at one slot, a shedding classify returns
/// [`EngineError::Overloaded`] carrying the live queue figures — and once
/// the stall clears, the same call succeeds and the health gauges drop back
/// to idle.
#[test]
fn saturation_sheds_load_with_overloaded_and_recovers() {
    let _harness = harness();
    let (service, _trainer) =
        trained_pair(0x55, EngineConfig::with_workers(1).with_queue_capacity(1));
    let batch = probes(0x66, pool_batch_len());
    let reference = service.recognizer().classify_batch(&batch);

    // Park the worker inside the next job for long enough to saturate.
    let stalled_hit = hit_count("worker.job");
    arm_sleep("worker.job", stalled_hit, Duration::from_millis(1500));
    let sleeper = {
        let mut recognizer = service.recognizer();
        let batch = batch.clone();
        std::thread::spawn(move || recognizer.classify_batch(&batch))
    };
    assert!(
        wait_for(Duration::from_secs(5), || service.health().workers_alive
            == 1
            && service.health().queue_depth == 0
            && hit_count("worker.job") > stalled_hit),
        "the stalled job must be picked up first"
    );

    // A second blocking batch occupies the single queue slot.
    let queued = {
        let mut recognizer = service.recognizer();
        let batch = batch.clone();
        std::thread::spawn(move || recognizer.classify_batch(&batch))
    };
    assert!(
        wait_for(Duration::from_secs(5), || service.health().queue_depth >= 1),
        "the second batch must be waiting in the queue"
    );

    // Shedding admission: the queue is full, so the batch is refused
    // immediately with the live figures instead of blocking.
    let mut recognizer = service.recognizer();
    match recognizer.try_classify_batch(&batch) {
        Err(EngineError::Overloaded {
            queue_capacity,
            queue_depth,
        }) => {
            assert_eq!(queue_capacity, 1);
            assert!(queue_depth >= 1, "depth gauge must show the waiting job");
        }
        other => panic!("expected Overloaded under saturation, got {other:?}"),
    }
    // A batch within the inline limit takes no queue slot: it is answered
    // on the calling thread even while the queue is full.
    assert_eq!(
        recognizer.try_classify_batch(&batch[..1]).unwrap(),
        reference[..1]
    );

    // Both blocked batches complete untouched once the stall clears…
    assert_eq!(sleeper.join().expect("sleeper panicked"), reference);
    assert_eq!(queued.join().expect("queued batch panicked"), reference);

    // …and the shed caller simply retries successfully.
    assert_eq!(recognizer.try_classify_batch(&batch).unwrap(), reference);
    let health = service.health();
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.worker_panics, 0);
}

/// A panic while the snapshot lock is held mid-publish (the
/// `service.publish` failpoint) must not tear the served snapshot: readers
/// keep the old version, the lock's poisoning is recovered, and the next
/// publish goes through.
#[test]
fn a_panic_mid_publish_keeps_the_old_snapshot_and_recovers() {
    let _harness = harness();
    let (service, mut trainer) = trained_pair(0x77, EngineConfig::with_workers(2));
    let batch = probes(0x88, 8);
    let mut recognizer = service.recognizer();
    let before_version = service.version();
    let before = recognizer.classify_batch(&batch);

    arm_panic("service.publish", hit_count("service.publish"));
    let torn = catch_unwind(AssertUnwindSafe(|| trainer.publish()));
    assert!(torn.is_err(), "the injected publish tear must surface");

    // Readers are untouched: same version, same predictions.
    assert_eq!(service.version(), before_version);
    assert_eq!(recognizer.classify_batch(&batch), before);

    // The next publish recovers the poisoned snapshot lock and lands.
    let version = trainer.publish();
    assert_eq!(version, before_version + 1);
    assert_eq!(service.version(), version);
    assert_eq!(recognizer.classify_batch(&batch), before);
}

/// A panic inside a training step is contained by [`Trainer::try_feed`]:
/// the step reports [`EngineError::TrainerPanicked`], the trainer poisons
/// itself (the map may hold a half-applied update), the service keeps
/// serving its last snapshot — and resuming from the last checkpoint
/// restores a healthy trainer.
#[test]
fn a_trainer_panic_poisons_the_trainer_but_not_the_service() {
    let _harness = harness();
    let path = temp_path("trainer-poison");
    let (service, mut trainer) = trained_pair(0x99, EngineConfig::with_workers(2));
    let batch = probes(0xAA, 8);
    let before = service.recognizer().classify_batch(&batch);
    trainer.write_checkpoint(&path).unwrap();
    let stream = training_stream(0xBB, 4);

    arm_panic("trainer.feed", hit_count("trainer.feed"));
    match trainer.try_feed(&stream[0].0, stream[0].1) {
        Err(EngineError::TrainerPanicked { message }) => {
            assert!(
                message.contains("trainer.feed"),
                "the contained panic carries its message, got {message:?}"
            );
        }
        other => panic!("expected TrainerPanicked, got {other:?}"),
    }
    assert!(trainer.is_poisoned());
    match trainer.try_feed(&stream[1].0, stream[1].1) {
        Err(EngineError::TrainerPoisoned) => {}
        other => panic!("expected TrainerPoisoned, got {other:?}"),
    }

    // The serving side never noticed.
    assert_eq!(service.recognizer().classify_batch(&batch), before);

    // Recovery path: resume the pair from the checkpoint written before the
    // crash and train on.
    let (resumed_service, mut resumed) = SomService::resume_from_checkpoint(&path).unwrap();
    assert!(!resumed.is_poisoned());
    for (signature, label) in &stream {
        resumed.try_feed(signature, *label).unwrap();
    }
    resumed.publish();
    assert_eq!(
        resumed_service.recognizer().classify_batch(&batch).len(),
        batch.len()
    );

    std::fs::remove_file(&path).ok();
}
