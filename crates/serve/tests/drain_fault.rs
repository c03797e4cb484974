//! Fault injection against the serving front-end (requires `--features
//! fault-injection`).
//!
//! The contract under test is the drain promise from DESIGN.md: once a
//! request is **accepted**, a graceful drain delivers its complete,
//! bit-identical response — even when an engine worker panics in the middle
//! of the drain's in-flight flush, and even though the supervisor is
//! respawning the worker while the flush runs. The `scheduler.dispatch`
//! failpoint wedges or panics the scheduler thread itself, which is how the
//! suite queues requests behind a dispatch over the wire.
//!
//! The failpoint registry is process-global, so every test takes
//! [`harness`] — the same serialize-and-reset idiom as `bsom-engine`'s
//! `fault_injection` suite. CI runs this binary with `--test-threads=1`.

#![cfg(feature = "fault-injection")]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bsom_engine::faultpoint::{arm_panic, arm_sleep, hit_count, reset};
use bsom_engine::{EngineConfig, SomService, INLINE_CLASSIFY_MAX_NEURON_WORDS};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::client::{RecvHalf, SendHalf};
use bsom_serve::wire::{ErrorCode, WireMessage};
use bsom_serve::{ClientError, SchedulerConfig, ServeClient, ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, Prediction, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VECTOR_LEN: usize = 256;
/// 64-bit word rows per signature.
const WORDS: usize = VECTOR_LEN.div_ceil(64);

/// Serializes the suite around the process-global failpoint registry and
/// guarantees a clean registry on both entry and exit (even when the test
/// body panics: the reset runs in `Drop`).
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

/// How long a wedged dispatch stalls. Only a bound on the run time: each
/// step that must happen during the stall is awaited on a counter, and the
/// exact batch counts asserted afterwards fail loudly if the stall ever ran
/// out first.
const WEDGE: Duration = Duration::from_secs(2);

/// Polls `done` until it holds; panics after a generous bound.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends `signature` as a wedge request and returns once its dispatch is
/// stalled on the `scheduler.dispatch` failpoint, off the pending queue.
fn send_wedge(send: &mut SendHalf, signature: &BinaryVector) {
    let base = hit_count("scheduler.dispatch");
    arm_sleep("scheduler.dispatch", base, WEDGE);
    send.send_classify(std::slice::from_ref(signature))
        .expect("wedge send");
    wait_until("the wedge dispatch starts", || {
        hit_count("scheduler.dispatch") > base
    });
}

/// Reads `count` single-signature classify responses.
fn singleton_answers(recv: &mut RecvHalf, count: usize) -> Vec<Prediction> {
    (0..count)
        .map(|_| match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { predictions } => {
                assert_eq!(predictions.len(), 1);
                predictions[0]
            }
            other => panic!("expected classify response, got {other:?}"),
        })
        .collect()
}

#[test]
fn pipelined_singletons_coalesce_into_one_engine_batch_over_the_wire() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, _trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let mut recognizer = service.recognizer();
    let signatures: Vec<BinaryVector> = corpus.iter().take(16).map(|(v, _)| v.clone()).collect();
    let direct = recognizer.classify_batch(signatures.clone());
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");

    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    send_wedge(&mut send, &corpus[20].0);
    for signature in &signatures {
        send.send_classify(std::slice::from_ref(signature))
            .expect("pipelined send");
    }
    wait_until("the reader admits every singleton", || {
        server.scheduler_snapshot().submitted == 17
    });

    // Responses come back in request order and match the direct batch.
    let answers = singleton_answers(&mut recv, 17);
    assert_eq!(answers[1..], direct[..]);
    let stats = server.scheduler_snapshot();
    assert_eq!(stats.requests_dispatched, 17);
    assert_eq!(
        stats.batches_dispatched, 2,
        "16 singletons queued behind the wedge must coalesce into one engine batch: {stats:?}"
    );
    assert_eq!(stats.requests_coalesced, 16, "all 16 shared the batch");
    server.join();
}

#[test]
fn a_scheduler_thread_panic_fails_its_batch_and_serving_continues() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, _trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // A single-signature batch is within the inline limit, so it is
    // classified on the scheduler thread itself.
    arm_panic("scheduler.dispatch", hit_count("scheduler.dispatch"));
    match client.classify(std::slice::from_ref(&corpus[0].0)) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected an internal error, got {other:?}"),
    }
    let answer = client
        .classify(std::slice::from_ref(&corpus[1].0))
        .expect("the next request is served");
    assert_eq!(answer.len(), 1);
    let stats = server.scheduler_snapshot();
    assert_eq!(stats.requests_shed, 0);
    assert_eq!(stats.requests_dispatched, 2);
    assert_eq!(server.drain().requests_flushed, 0);
    server.join();
}

#[test]
fn worker_panic_mid_drain_still_flushes_accepted_requests_bit_identically() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    // Wide enough that the one coalesced batch of every corpus request is
    // over the inline limit, so the flush runs on the worker pool, while a
    // single-signature wedge request stays inline on the scheduler thread.
    let neurons = INLINE_CLASSIFY_MAX_NEURON_WORDS / (corpus.len() * WORDS) + 1;
    let (service, _trainer) = bench_service(neurons, VECTOR_LEN, 7, &corpus);
    let snapshot = service.snapshot();
    let expected: Vec<Prediction> = corpus
        .iter()
        .map(|(v, _)| service.classify_pinned(&snapshot, std::slice::from_ref(v))[0])
        .collect();
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");

    // The wedge parks the scheduler inside a dispatch, so every pipelined
    // request queues behind it and the drain's flush — not normal
    // dispatch — is what answers them.
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    send_wedge(&mut send, &corpus[0].0);
    for (signature, _) in &corpus {
        send.send_classify(std::slice::from_ref(signature))
            .expect("pipelined send");
    }
    // Let the reader thread admit everything into the scheduler before the
    // drain flips the accepting flag.
    wait_until("the reader admits every request", || {
        server.scheduler_snapshot().submitted as usize == corpus.len() + 1
    });

    // Arm the engine worker to panic on its very next job: with every
    // request queued behind the wedge, that next job IS the drain's
    // in-flight flush — the panic lands mid-drain.
    arm_panic("worker.job", hit_count("worker.job"));
    let summary = server.drain();
    assert_eq!(
        hit_count("service.drain"),
        1,
        "the drain window failpoint marks exactly one drain"
    );
    assert_eq!(
        summary.requests_flushed as usize,
        corpus.len() + 1,
        "the drain flushes the wedge and every request behind it"
    );
    assert_eq!(server.scheduler_snapshot().batches_dispatched, 2);

    // Every accepted request gets its full response, bit-identical to the
    // pinned in-process answers — the worker panic was contained.
    let answers = singleton_answers(&mut recv, corpus.len() + 1);
    assert_eq!(answers[0], expected[0], "the wedge");
    assert_eq!(answers[1..], expected[..]);

    // The supervisor records the panic and respawns the worker on its own
    // thread; give it a bounded moment to notice.
    let deadline = Instant::now() + Duration::from_secs(5);
    let health = loop {
        let health = server.health();
        if (health.worker_panics == 1 && health.worker_respawns == 1) || Instant::now() >= deadline
        {
            break health;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(health.worker_panics, 1, "the injected panic is on record");
    assert_eq!(health.worker_respawns, 1);
    assert_eq!(health.workers_alive, health.workers_configured);
    assert!(health.draining);
    server.join();
}

#[test]
fn engine_saturation_surfaces_as_wire_overload_then_recovers() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let neurons = 24;
    let (service, _trainer) = bench_service(neurons, VECTOR_LEN, 7, &corpus);
    // Batch-of-one keeps the scheduler transparent: each request becomes
    // one engine batch. Each request carries enough signatures to be over
    // the inline limit, so it goes to the worker pool; parking a worker
    // via the worker.job failpoint then stalls dispatch, the scheduler's
    // bounded queue fills behind it, and the typed Overloaded shed must
    // travel all the way back out over the wire.
    let per_request = INLINE_CLASSIFY_MAX_NEURON_WORDS / (neurons * WORDS) + 1;
    let request: Vec<_> = corpus
        .iter()
        .cycle()
        .take(per_request)
        .map(|(signature, _)| signature.clone())
        .collect();
    let server = Server::bind(
        service,
        "127.0.0.1:0",
        ServeConfig {
            scheduler: SchedulerConfig {
                queue_capacity: 8,
                ..SchedulerConfig::batch_of_one()
            },
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");

    let base = hit_count("worker.job");
    arm_sleep("worker.job", base, Duration::from_millis(400));
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    let burst = 64usize;
    for _ in 0..burst {
        send.send_classify(&request).expect("burst send");
    }
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..burst {
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { .. } => ok += 1,
            WireMessage::OverloadedResponse { queue_capacity, .. } => {
                assert!(queue_capacity > 0);
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, burst);
    assert!(
        overloaded > 0,
        "a parked worker behind a 64-request burst must shed something"
    );
    assert!(
        hit_count("worker.job") > base,
        "the burst must reach the worker pool"
    );

    // Load subsided and the sleep expired: the service answers again.
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    let recovered = client
        .classify(std::slice::from_ref(&corpus[0].0))
        .expect("post-overload classify succeeds");
    assert_eq!(recovered.len(), 1);
    assert_eq!(hit_count("service.drain"), 0);
    server.join();
}

#[test]
fn full_engine_job_queue_sheds_a_wire_classify_with_the_engine_capacity() {
    let _harness = harness();
    const WORKERS: usize = 2;
    const ENGINE_QUEUE: usize = 4;
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let neurons = 24;
    let som = BSom::new(
        BSomConfig::new(neurons, VECTOR_LEN),
        &mut StdRng::seed_from_u64(7),
    );
    let (service, _trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(usize::MAX),
        &corpus,
        EngineConfig::with_workers(WORKERS).with_queue_capacity(ENGINE_QUEUE),
    );
    let service = Arc::new(service);
    // Over the inline limit, so every classify of it is sharded into one
    // job per worker.
    let per_batch = INLINE_CLASSIFY_MAX_NEURON_WORDS / (neurons * WORDS) + 1;
    let batch: Vec<_> = corpus
        .iter()
        .cycle()
        .take(per_batch)
        .map(|(signature, _)| signature.clone())
        .collect();
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig {
            scheduler: SchedulerConfig {
                queue_capacity: 8,
                ..SchedulerConfig::batch_of_one()
            },
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");

    // Park both workers on their next job, then fill the engine's own job
    // queue behind them from helper threads: each blocking classify puts
    // one shard per worker on the queue.
    let base = hit_count("worker.job");
    let stall = Duration::from_secs(2);
    for worker in 0..WORKERS as u64 {
        arm_sleep("worker.job", base + worker, stall);
    }
    let helpers: Vec<_> = (0..(WORKERS + ENGINE_QUEUE) / WORKERS)
        .map(|_| {
            let mut recognizer = service.recognizer();
            let batch = batch.clone();
            std::thread::spawn(move || recognizer.classify_batch(batch).len())
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.health().queue_depth < ENGINE_QUEUE {
        assert!(Instant::now() < deadline, "the engine queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The scheduler's queue is empty, so the shed comes from the engine:
    // the wire response carries the engine's capacity, not the scheduler's.
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    send.send_classify(&batch).expect("send");
    let engine_capacity = service.health().queue_capacity as u64;
    assert_eq!(engine_capacity, ENGINE_QUEUE as u64);
    match recv.recv().expect("response").expect("not EOF") {
        WireMessage::OverloadedResponse { queue_capacity, .. } => {
            assert_eq!(queue_capacity, engine_capacity);
            assert_ne!(queue_capacity, server.health().scheduler_capacity);
        }
        other => panic!("expected an overload shed, got {other:?}"),
    }

    // The stall ends: the parked shards and every helper finish, and the
    // service answers again.
    for helper in helpers {
        assert_eq!(helper.join().expect("helper classify"), per_batch);
    }
    let mut client = ServeClient::connect(server.local_addr()).expect("reconnect");
    let recovered = client
        .classify(std::slice::from_ref(&corpus[0].0))
        .expect("post-overload classify succeeds");
    assert_eq!(recovered.len(), 1);
    assert_eq!(server.health().requests_shed, 1);
    server.join();
}
