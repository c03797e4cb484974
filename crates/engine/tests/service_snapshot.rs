//! Snapshot-semantics suite for the train-while-serve service.
//!
//! Two properties are pinned down:
//!
//! 1. **Frozen equivalence** — a [`Recognizer`] holding snapshot `v_N`
//!    returns bit-identical predictions to a frozen serve-only service built
//!    from the same `v_N` map ([`SomService::from_parts`] over a
//!    from-scratch [`PackedLayer::from_neurons`] + the snapshot's labels and
//!    threshold, classified with [`SomService::classify_pinned`]), i.e. the
//!    incremental layout, the snapshot plumbing and the live refresh add no
//!    observable behaviour.
//! 2. **No torn layers** — with a trainer publishing concurrently while
//!    recognizers classify, every snapshot a reader observes satisfies the
//!    packed-layer invariants (`#`-counts equal the care-plane popcounts,
//!    the value plane is zero wherever the care plane is, tails are clean):
//!    readers see version `N` or `N+1` in full, never a mix.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bsom_engine::{EngineConfig, SomService};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, PackedLayer, TrainSchedule};
use proptest::prelude::*;

fn binary_vector(len: usize) -> impl Strategy<Value = BinaryVector> {
    prop::collection::vec(any::<bool>(), len).prop_map(BinaryVector::from_bits)
}

fn labelled(len: usize, count: usize) -> impl Strategy<Value = Vec<(BinaryVector, ObjectLabel)>> {
    prop::collection::vec((binary_vector(len), 0usize..4), count).prop_map(|v| {
        v.into_iter()
            .map(|(s, l)| (s, ObjectLabel::new(l)))
            .collect()
    })
}

/// Every structural invariant of a published layer that incremental
/// maintenance could conceivably tear: per-neuron `#`-counts vs care-plane
/// popcounts, value-plane masking, and clean tail words.
fn assert_layer_consistent(layer: &PackedLayer) {
    let neurons = layer.neuron_count();
    let words = layer.vector_len().div_ceil(64);
    let rem = layer.vector_len() % 64;
    let tail_mask = if rem == 0 { 0u64 } else { !((1u64 << rem) - 1) };
    assert_eq!(layer.word_row_count(), words);
    for i in 0..neurons {
        let mut concrete = 0usize;
        for w in 0..words {
            let value = layer.value_row(w)[i];
            let care = layer.care_row(w)[i];
            assert_eq!(value & !care, 0, "value bits outside the care plane");
            if w == words - 1 && rem != 0 {
                assert_eq!(care & tail_mask, 0, "tail bits set in the care plane");
                assert_eq!(value & tail_mask, 0, "tail bits set in the value plane");
            }
            concrete += care.count_ones() as usize;
        }
        assert_eq!(
            layer.dont_care_counts()[i] as usize,
            layer.vector_len() - concrete,
            "#-count of neuron {i} does not match its care plane"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frozen equivalence at an arbitrary published version: train a random
    /// number of epochs (publishing per epoch), then compare the live
    /// recognizer against a frozen service rebuilt from scratch off the same
    /// map state.
    #[test]
    fn recognizer_matches_a_frozen_engine_built_from_the_same_version(
        seed in any::<u64>(),
        data in labelled(70, 5),
        probes in prop::collection::vec(binary_vector(70), 1..20),
        epochs in 1usize..8,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let som = BSom::new(BSomConfig::new(6, 70), &mut rng);
        let (service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(8),
            &data,
            EngineConfig::with_workers(2),
        );
        trainer.train_epochs(&data, epochs, &mut rng).unwrap();

        let mut recognizer = service.recognizer();
        let live = recognizer.classify_batch(&probes);
        prop_assert_eq!(recognizer.version(), 1 + epochs as u64);

        // The frozen oracle: a from-scratch pack of the same v_N map with
        // the labels/threshold the snapshot was published with.
        let snapshot = service.snapshot();
        let fresh = PackedLayer::from_neurons(&trainer.som().neurons()).unwrap();
        prop_assert_eq!(snapshot.layer(), &fresh);
        let frozen = SomService::from_parts(
            fresh,
            snapshot.neuron_labels().to_vec(),
            snapshot.unknown_threshold(),
            2,
        );
        let oracle = frozen.classify_pinned(&frozen.snapshot(), &probes);
        prop_assert_eq!(live, oracle);
        assert_layer_consistent(snapshot.layer());
    }
}

/// Interleaved train/publish/classify from real threads: a trainer feeds and
/// publishes on a tight step cadence while two recognizers classify
/// continuously. Every observed snapshot must be internally consistent
/// (the debug assertion "counts vs popcount" generalized to the packed
/// layer), and versions must be monotone per reader.
#[test]
fn interleaved_train_publish_classify_never_observes_a_torn_layer() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0x70BE);
    let data: Vec<(BinaryVector, ObjectLabel)> = (0..6)
        .map(|i| (BinaryVector::random(768, &mut rng), ObjectLabel::new(i % 3)))
        .collect();
    let probes: Vec<BinaryVector> = (0..24)
        .map(|_| BinaryVector::random(768, &mut rng))
        .collect();
    let som = BSom::new(BSomConfig::paper_default(), &mut rng);
    let (service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(16),
        &data,
        EngineConfig::with_workers(2).with_publish_every_steps(2),
    );

    let done = Arc::new(AtomicBool::new(false));
    let trainer_done = Arc::clone(&done);
    let trainer_thread = std::thread::spawn(move || {
        for (signature, label) in data.iter().cycle().take(400) {
            trainer.feed(signature, *label).unwrap();
        }
        trainer.publish();
        trainer_done.store(true, Ordering::Release);
        trainer.steps_run()
    });

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut recognizer = service.recognizer();
            let done = Arc::clone(&done);
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut last_version = 0u64;
                let mut batches = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let predictions = recognizer.classify_batch(&probes);
                    assert_eq!(predictions.len(), probes.len());
                    let snapshot = recognizer.snapshot();
                    assert!(
                        snapshot.version() >= last_version,
                        "snapshot versions must be monotone per reader"
                    );
                    last_version = snapshot.version();
                    assert_layer_consistent(snapshot.layer());
                    batches += 1;
                    if finished {
                        return (batches, last_version);
                    }
                }
            })
        })
        .collect();

    let steps = trainer_thread.join().expect("trainer thread panicked");
    assert_eq!(steps, 400);
    for reader in readers {
        let (batches, version) = reader.join().expect("reader thread panicked");
        assert!(batches > 0);
        // The final classify after `done` was observed must have refreshed
        // to the trainer's last publish (400 steps / cadence 2 + explicit
        // publish + initial v1).
        assert_eq!(version, 202);
    }
}

/// The large-map tier of the stress test: a 1024-neuron × 768-bit map —
/// the ROADMAP's 1000+-neuron scale, 25× the paper's 40 neurons — under the
/// same interleaved train/publish/classify load, plus the copy-on-write
/// publication invariants:
///
/// * every snapshot a reader observes is internally consistent (no torn
///   layers) and versions are monotone per reader;
/// * word rows physically shared between consecutively observed snapshots
///   are bit-identical (`Arc` sharing never aliases divergent content);
/// * a publish with zero training steps since the previous one shares
///   **every** row and the `#`-count table — the publish allocated nothing
///   but the row spine.
#[test]
fn large_map_publishes_share_untouched_rows_under_concurrent_load() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0x1024);
    let data: Vec<(BinaryVector, ObjectLabel)> = (0..6)
        .map(|i| (BinaryVector::random(768, &mut rng), ObjectLabel::new(i % 3)))
        .collect();
    let probes: Vec<BinaryVector> = (0..8)
        .map(|_| BinaryVector::random(768, &mut rng))
        .collect();
    let som = BSom::new(BSomConfig::new(1024, 768), &mut rng);
    let (service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(32),
        &data,
        EngineConfig::with_workers(2).with_publish_every_steps(4),
    );

    let done = Arc::new(AtomicBool::new(false));
    let trainer_done = Arc::clone(&done);
    let trainer_thread = std::thread::spawn(move || {
        for (signature, label) in data.iter().cycle().take(256) {
            trainer.feed(signature, *label).unwrap();
        }
        trainer_done.store(true, Ordering::Release);
        trainer
    });

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let mut recognizer = service.recognizer();
            let done = Arc::clone(&done);
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut last_version = recognizer.version();
                let mut previous = recognizer.snapshot().layer().clone();
                let mut version_changes = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let predictions = recognizer.classify_batch(&probes);
                    assert_eq!(predictions.len(), probes.len());
                    let snapshot = recognizer.snapshot();
                    assert!(
                        snapshot.version() >= last_version,
                        "snapshot versions must be monotone per reader"
                    );
                    if snapshot.version() != last_version {
                        version_changes += 1;
                        last_version = snapshot.version();
                        assert_layer_consistent(snapshot.layer());
                        // Physically shared rows must be bit-identical
                        // between consecutively observed snapshots.
                        let layer = snapshot.layer();
                        assert!(layer.shared_row_count(&previous) <= layer.word_row_count());
                        for w in 0..layer.word_row_count() {
                            if std::ptr::eq(
                                layer.value_row(w).as_ptr(),
                                previous.value_row(w).as_ptr(),
                            ) {
                                assert_eq!(layer.value_row(w), previous.value_row(w));
                                assert_eq!(layer.care_row(w), previous.care_row(w));
                            }
                        }
                        previous = layer.clone();
                    }
                    if finished {
                        return version_changes;
                    }
                }
            })
        })
        .collect();

    let mut trainer = trainer_thread.join().expect("trainer thread panicked");
    for reader in readers {
        reader.join().expect("reader thread panicked");
    }
    assert_eq!(trainer.steps_run(), 256);

    // 256 steps at cadence 4 published 64 snapshots on top of v1.
    let before = service.snapshot();
    assert_eq!(before.version(), 65);
    assert_layer_consistent(before.layer());

    // A publish with no intervening training steps must share everything:
    // the only fresh allocation is the spine of row pointers.
    let version = trainer.publish();
    let after = service.snapshot();
    assert_eq!(after.version(), version);
    assert_eq!(before.version() + 1, version);
    assert_eq!(
        after.layer().shared_row_count(before.layer()),
        before.layer().word_row_count(),
        "a stepless publish must share all 12 word rows"
    );
    assert!(after.layer().shares_counts_with(before.layer()));
    assert_eq!(after.layer(), before.layer());

    // One more training step, then a publish: rows the step left untouched
    // stay shared, rows it dirtied do not — and the published layer still
    // equals a from-scratch pack word for word.
    let (signature, label) = (&probes[0], ObjectLabel::new(0));
    trainer.feed(signature, label).unwrap();
    trainer.publish();
    let stepped = service.snapshot();
    assert_layer_consistent(stepped.layer());
    assert_eq!(
        stepped.layer(),
        &PackedLayer::from_neurons(&trainer.som().neurons()).unwrap()
    );
    assert!(stepped.layer().shared_row_count(after.layer()) <= after.layer().word_row_count());
}
