//! Fault-injection tier for the multi-tenant registry (requires
//! `--features fault-injection`), extending `tests/fault_injection.rs` to
//! the failure paths the registry adds:
//!
//! * a panic at the `registry.evict` failpoint — after the spill frame is
//!   written, before the in-memory state is dropped — leaves the tenant
//!   resident and servable, with nothing counted as evicted;
//! * a torn spill file at reload time is rejected with a typed
//!   [`CheckpointError`] and does **not** poison the registry: the tenant
//!   stays evicted, every other tenant keeps serving, and repairing the
//!   file makes the reload succeed bit-identically;
//! * a panic at the `registry.reload` failpoint leaves the tenant evicted
//!   and the registry consistent;
//! * a panicked training step poisons exactly one tenant
//!   ([`EngineError::TrainerPoisoned`]) while its snapshot keeps serving,
//!   eviction of the poisoned tenant is refused, and
//!   [`MapRegistry::replace_trainer`] (the
//!   [`Trainer::reset_from_snapshot`] path) recovers it in place;
//! * a panic on a later step of a tick, after the tenant already trained in
//!   it, publishes nothing of the poisoned trainer at tick end.
//!
//! Same process-global failpoint registry as `fault_injection.rs`, same
//! [`harness`] serialization; CI runs this binary with `--test-threads=1`.
//!
//! [`CheckpointError`]: bsom_engine::CheckpointError

#![cfg(feature = "fault-injection")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use bsom_engine::faultpoint::{arm_panic, hit_count, reset};
use bsom_engine::{EngineConfig, EngineError, MapRegistry, RegistryConfig};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VECTOR_LEN: usize = 80;

/// Serializes the suite around the process-global failpoint registry (see
/// `fault_injection.rs`) and resets it on entry and on drop.
fn harness() -> HarnessGuard {
    static LOCK: Mutex<()> = Mutex::new(());
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

/// A fresh, empty spill directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bsom-registry-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
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

/// A registry with one trained tenant `"t"` (and optionally a bystander),
/// spilling into `dir`.
fn trained_registry(dir: &PathBuf, bystander: bool) -> MapRegistry {
    let registry =
        MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)).with_spill_dir(dir));
    let mut ids = vec!["t"];
    if bystander {
        ids.push("bystander");
    }
    for (i, id) in ids.iter().enumerate() {
        let som = BSom::new(
            BSomConfig::new(8, VECTOR_LEN),
            &mut StdRng::seed_from_u64(i as u64),
        );
        registry
            .create_tenant(*id, som, TrainSchedule::new(usize::MAX), &[])
            .unwrap();
        for (signature, label) in &training_stream(0xA5A5 + i as u64, 24) {
            registry.feed(*id, signature, *label).unwrap();
        }
    }
    let report = registry.train_tick(u64::MAX);
    assert!(report.failures.is_empty(), "{report:?}");
    registry
}

/// The single spill frame `dir` holds (fails the test if there isn't
/// exactly one) — how the corruption tests find the file to tear.
fn only_spill_file(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(
        files.len(),
        1,
        "expected exactly one spill frame in {dir:?}"
    );
    files.pop().unwrap()
}

/// Evict ordering: the spill frame is written *before* the `registry.evict`
/// failpoint fires, and the in-memory state is dropped after — so a panic
/// mid-evict leaves the tenant resident, servable and uncounted.
#[test]
fn panic_mid_evict_leaves_the_tenant_resident_and_servable() {
    let _harness = harness();
    let dir = temp_dir("evict-panic");
    let registry = trained_registry(&dir, false);
    let before = registry.tenant_som("t").unwrap();
    let version_before = registry.version("t").unwrap();

    arm_panic("registry.evict", hit_count("registry.evict"));
    let outcome = catch_unwind(AssertUnwindSafe(|| registry.evict("t")));
    assert!(outcome.is_err(), "the armed failpoint must panic");

    // The tenant never left memory: still resident, identical state, and
    // the books show no eviction.
    assert!(registry.is_resident("t").unwrap());
    assert_eq!(registry.tenant_som("t").unwrap(), before);
    assert_eq!(registry.version("t").unwrap(), version_before);
    assert_eq!(registry.stats().evictions_total, 0);
    assert_eq!(registry.classify("t", probes(7, 3)).unwrap().len(), 3);

    // Disarmed, the same evict goes through and the round trip is clean.
    registry.evict("t").unwrap();
    assert!(!registry.is_resident("t").unwrap());
    assert_eq!(registry.tenant_som("t").unwrap(), before);
}

/// A spill frame torn on disk is rejected at reload with a typed
/// checkpoint error; the tenant stays evicted (servable again the moment
/// the frame is repaired), the bystander never notices, and the registry's
/// own state is not poisoned.
#[test]
fn torn_spill_frame_is_rejected_typed_without_poisoning_the_registry() {
    let _harness = harness();
    let dir = temp_dir("torn-reload");
    let registry = trained_registry(&dir, true);
    let before = registry.tenant_som("t").unwrap();
    registry.evict("t").unwrap();

    // Tear the frame: cut it mid-payload (the validating loader must see a
    // truncated frame, not a short read masked as success).
    let spill = only_spill_file(&dir);
    let pristine = std::fs::read(&spill).unwrap();
    std::fs::write(&spill, &pristine[..pristine.len() / 2]).unwrap();

    for _ in 0..2 {
        match registry.reload("t") {
            Err(EngineError::Checkpoint(_)) => {}
            other => panic!("torn frame must fail typed, got {other:?}"),
        }
        assert!(
            !registry.is_resident("t").unwrap(),
            "tenant must stay evicted"
        );
    }
    // classify and tenant_som hit the same typed wall, and pending work is
    // preserved rather than dropped.
    assert!(matches!(
        registry.classify("t", probes(9, 2)),
        Err(EngineError::Checkpoint(_))
    ));
    let (signature, label) = &training_stream(0xBEE, 1)[0];
    registry.feed("t", signature, *label).unwrap();
    let report = registry.train_tick(u64::MAX);
    assert_eq!(report.failures.len(), 1, "{report:?}");
    assert!(matches!(report.failures[0].1, EngineError::Checkpoint(_)));
    assert_eq!(
        registry.stats().pending_steps,
        1,
        "queued example must survive"
    );

    // The bystander is untouched throughout.
    assert_eq!(
        registry.classify("bystander", probes(11, 2)).unwrap().len(),
        2
    );
    assert!(!registry.is_poisoned("bystander").unwrap());

    // Repairing the frame fully recovers the tenant, bit-identically, and
    // the queued example finally trains.
    std::fs::write(&spill, &pristine).unwrap();
    registry.reload("t").unwrap();
    assert_eq!(registry.tenant_som("t").unwrap(), before);
    let report = registry.train_tick(u64::MAX);
    assert!(report.failures.is_empty(), "{report:?}");
    assert_eq!(report.steps, 1);
}

/// A panic at the `registry.reload` failpoint (before the frame is even
/// read) leaves the tenant evicted and the registry consistent; the next
/// disarmed touch reloads transparently.
#[test]
fn panic_mid_reload_leaves_the_tenant_evicted_and_recoverable() {
    let _harness = harness();
    let dir = temp_dir("reload-panic");
    let registry = trained_registry(&dir, false);
    let before = registry.tenant_som("t").unwrap();
    registry.evict("t").unwrap();

    arm_panic("registry.reload", hit_count("registry.reload"));
    let outcome = catch_unwind(AssertUnwindSafe(|| registry.reload("t")));
    assert!(outcome.is_err(), "the armed failpoint must panic");
    assert!(!registry.is_resident("t").unwrap());
    assert_eq!(registry.stats().reloads_total, 0);

    // Disarmed: the next touch reloads bit-identically.
    assert_eq!(registry.tenant_som("t").unwrap(), before);
    assert!(registry.is_resident("t").unwrap());
    assert_eq!(registry.stats().reloads_total, 1);
}

/// The poisoned-trainer regression (the latent gap this PR closes): a
/// panicked training step poisons exactly one tenant, its published
/// snapshot keeps serving, eviction is refused typed, and
/// `replace_trainer` recovers it in place from the snapshot — no
/// checkpoint file involved.
#[test]
fn trainer_poisoning_is_contained_and_replace_trainer_recovers() {
    let _harness = harness();
    let dir = temp_dir("poison");
    let registry = trained_registry(&dir, true);
    let version_before = registry.version("t").unwrap();

    // "t" rotates first (slot 0), so the armed one-shot panic lands on its
    // next training step.
    for (signature, label) in &training_stream(0xD00D, 4) {
        registry.feed("t", signature, *label).unwrap();
        registry.feed("bystander", signature, *label).unwrap();
    }
    arm_panic("trainer.feed", hit_count("trainer.feed"));
    let report = registry.train_tick(u64::MAX);
    assert_eq!(report.failures.len(), 1, "{report:?}");
    assert_eq!(report.failures[0].0.as_str(), "t");
    assert!(matches!(
        report.failures[0].1,
        EngineError::TrainerPanicked { .. }
    ));

    // Blast radius: exactly one tenant. The bystander trained its whole
    // round; the victim still serves its last published snapshot.
    assert!(registry.is_poisoned("t").unwrap());
    assert!(!registry.is_poisoned("bystander").unwrap());
    assert_eq!(registry.version("t").unwrap(), version_before);
    assert_eq!(registry.classify("t", probes(13, 2)).unwrap().len(), 2);

    // A poisoned tenant is refused eviction (its map may hold a torn
    // update) and keeps failing ticks typed.
    assert!(matches!(
        registry.evict("t"),
        Err(EngineError::TrainerPoisoned)
    ));
    let (signature, label) = &training_stream(0xAF7E4, 1)[0];
    registry.feed("t", signature, *label).unwrap();
    let report = registry.train_tick(u64::MAX);
    assert_eq!(report.failures.len(), 1, "{report:?}");
    assert!(matches!(report.failures[0].1, EngineError::TrainerPoisoned));

    // Recovery: reset the trainer from the published snapshot, then train
    // and publish again — and now eviction works too.
    registry.replace_trainer("t").unwrap();
    assert!(!registry.is_poisoned("t").unwrap());
    for (signature, label) in &training_stream(0x600D, 6) {
        registry.feed("t", signature, *label).unwrap();
    }
    let report = registry.train_tick(u64::MAX);
    assert!(report.failures.is_empty(), "{report:?}");
    assert_eq!(registry.version("t").unwrap(), version_before + 1);
    registry.evict("t").unwrap();
    assert_eq!(registry.classify("t", probes(17, 2)).unwrap().len(), 2);
}

/// `replace_trainer` on a healthy tenant is a harmless reset: training
/// resumes deterministically from the published weights.
#[test]
fn replace_trainer_on_a_healthy_tenant_resumes_from_the_snapshot() {
    let _harness = harness();
    let dir = temp_dir("healthy-replace");
    let registry = trained_registry(&dir, false);
    let published = registry.tenant_som("t").unwrap();
    let version = registry.version("t").unwrap();
    let served_before = registry.classify("t", probes(19, 3)).unwrap();

    registry.replace_trainer("t").unwrap();
    // The reset rebuilds the map from the published layer: same weights and
    // `#`-counts (the RNG stream deliberately restarts — see
    // `Trainer::reset_from_snapshot`), and the serving side is untouched.
    assert_eq!(
        registry.tenant_som("t").unwrap().dont_care_counts(),
        published.dont_care_counts()
    );
    assert_eq!(registry.version("t").unwrap(), version);
    assert_eq!(
        registry.classify("t", probes(19, 3)).unwrap(),
        served_before
    );
    for (signature, label) in &training_stream(0x11, 8) {
        registry.feed("t", signature, *label).unwrap();
    }
    let report = registry.train_tick(u64::MAX);
    assert!(report.failures.is_empty(), "{report:?}");
    assert_eq!(report.steps, 8);
}

/// A panic on a tenant's second step of a tick publishes nothing of it. The
/// first step made the tenant one the tick publishes at its end, but by then
/// its trainer is poisoned and its map may be torn, so the tenant keeps
/// serving the snapshot it had before the tick, and `replace_trainer`
/// rebuilds the map from exactly that snapshot.
#[test]
fn a_panic_later_in_a_tick_publishes_nothing_of_the_poisoned_tenant() {
    let _harness = harness();
    let dir = temp_dir("poison-later");
    let registry = trained_registry(&dir, false);
    let version_before = registry.version("t").unwrap();
    let served_before = registry.snapshot("t").unwrap();

    for (signature, label) in &training_stream(0xBAD5, 2) {
        registry.feed("t", signature, *label).unwrap();
    }
    // The first step trains; the second panics.
    arm_panic("trainer.feed", hit_count("trainer.feed") + 1);
    let report = registry.train_tick(u64::MAX);
    assert_eq!(report.steps, 1, "{report:?}");
    assert_eq!(report.failures.len(), 1, "{report:?}");
    assert!(matches!(
        report.failures[0].1,
        EngineError::TrainerPanicked { .. }
    ));
    assert!(registry.is_poisoned("t").unwrap());

    // Nothing of the poisoned trainer reached the served snapshot.
    assert_eq!(registry.version("t").unwrap(), version_before);
    let served = registry.snapshot("t").unwrap();
    assert_eq!(served.layer(), served_before.layer());

    // Recovery rebuilds the map from that snapshot.
    registry.replace_trainer("t").unwrap();
    assert_eq!(
        registry.tenant_som("t").unwrap().packed_layer(),
        served.layer()
    );
}
