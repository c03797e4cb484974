//! Fault injection against the serving front-end (requires `--features
//! fault-injection`).
//!
//! The contract under test is the drain promise from DESIGN.md: once a
//! classify is **admitted**, a graceful drain waits for its complete,
//! bit-identical response — even when an engine worker panics while the
//! drain waits, and even though the supervisor is respawning the worker
//! meanwhile. The `server.classify` failpoint panics a connection thread
//! inside its classify, and `worker.job` parks engine workers, which is how
//! the suite holds a classify in flight and fills the engine's job queue.
//!
//! The failpoint registry is process-global, so every test takes
//! [`harness`] — the same serialize-and-reset idiom as `bsom-engine`'s
//! `fault_injection` suite. CI runs this binary with `--test-threads=1`.

#![cfg(feature = "fault-injection")]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bsom_engine::faultpoint::{arm_panic, arm_sleep, hit_count, reset};
use bsom_engine::{
    EngineConfig, MapRegistry, RegistryConfig, SomService, Trainer,
    INLINE_CLASSIFY_MAX_NEURON_WORDS,
};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::wire::{ErrorCode, WireMessage};
use bsom_serve::{ClientError, ServeClient, ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VECTOR_LEN: usize = 256;
/// 64-bit word rows per signature.
const WORDS: usize = VECTOR_LEN.div_ceil(64);
const NEURONS: usize = 24;

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

/// Polls `done` until it holds; panics after a generous bound.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A frozen train-while-serve map (the trainer is held but never fed) with
/// its own worker pool and job-queue capacity.
fn frozen_service(
    corpus: &[(BinaryVector, ObjectLabel)],
    workers: usize,
    queue_capacity: usize,
) -> (Arc<SomService>, Trainer) {
    let som = BSom::new(
        BSomConfig::new(NEURONS, VECTOR_LEN),
        &mut StdRng::seed_from_u64(7),
    );
    let (service, trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(usize::MAX),
        corpus,
        EngineConfig::with_workers(workers).with_queue_capacity(queue_capacity),
    );
    (Arc::new(service), trainer)
}

/// `corpus` cycled into one batch just over the engine's inline limit on
/// a `NEURONS`-neuron map, so every classify of it goes to the worker pool.
fn pool_batch(corpus: &[(BinaryVector, ObjectLabel)]) -> Vec<BinaryVector> {
    let len = INLINE_CLASSIFY_MAX_NEURON_WORDS / (NEURONS * WORDS) + 1;
    corpus
        .iter()
        .cycle()
        .take(len)
        .map(|(signature, _)| signature.clone())
        .collect()
}

/// Asserts that a classify on `client` is answered `Internal` while the
/// `server.classify` failpoint panics, and that the same connection then
/// answers its next request.
fn panic_then_serve(client: &mut ServeClient, signatures: &[BinaryVector]) {
    arm_panic("server.classify", hit_count("server.classify"));
    match client.classify(&signatures[..1]) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected an internal error, got {other:?}"),
    }
    let answer = client
        .classify(&signatures[1..3])
        .expect("the same connection serves its next request");
    assert_eq!(answer.len(), 2);
}

#[test]
fn a_classify_panic_answers_internal_and_the_connection_keeps_serving() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let signatures: Vec<BinaryVector> = corpus.iter().map(|(v, _)| v.clone()).collect();

    // Single map: a small batch is within the inline limit, so it is
    // classified on the connection's own thread.
    let (service, _trainer) = bench_service(NEURONS, VECTOR_LEN, 7, &corpus);
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    panic_then_serve(&mut client, &signatures);
    let stats = server.scheduler_snapshot();
    assert_eq!(stats.batches_dispatched, 2, "the panicked classify counts");
    assert_eq!(stats.signatures_dispatched, 2, "only the answered one");
    assert_eq!(stats.requests_shed, 0);
    assert_eq!(server.drain().requests_flushed, 0);
    server.join();

    // Registry: the same containment on the other backend.
    let registry = Arc::new(MapRegistry::new(RegistryConfig::new(
        EngineConfig::with_workers(2),
    )));
    let som = BSom::new(
        BSomConfig::new(NEURONS, VECTOR_LEN),
        &mut StdRng::seed_from_u64(7),
    );
    registry
        .create_tenant("tenant-0", som, TrainSchedule::new(usize::MAX), &corpus)
        .expect("create the default tenant");
    let server = Server::bind_registry(
        Arc::clone(&registry),
        "tenant-0",
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("bind loopback");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    panic_then_serve(&mut client, &signatures);
    assert_eq!(server.scheduler_snapshot().batches_dispatched, 2);
    assert_eq!(
        hit_count("server.classify"),
        4,
        "two classifies per backend"
    );
    server.join();
}

#[test]
fn worker_panic_mid_drain_still_answers_the_running_classify_bit_identically() {
    let _harness = harness();
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    // One worker, so one parked job holds the whole pool, and a pool-sized
    // request is exactly one shard.
    let (service, _trainer) = frozen_service(&corpus, 1, 4);
    let request = pool_batch(&corpus);
    let expected = service.classify_pinned(&service.snapshot(), request.clone());
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("bind loopback");

    // Park the worker on an in-process classify's job, then send the wire
    // request: its shard queues behind the parked one, so the classify is
    // admitted and running when the drain starts. The worker panics on
    // that shard — after the stall, so while the drain waits.
    let base = hit_count("worker.job");
    arm_sleep("worker.job", base, Duration::from_secs(2));
    arm_panic("worker.job", base + 1);
    let parked = {
        let mut recognizer = service.recognizer();
        let batch = request.clone();
        std::thread::spawn(move || recognizer.classify_batch(batch))
    };
    wait_until("the worker is parked", || hit_count("worker.job") > base);
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    send.send_classify(&request).expect("send");
    wait_until("the request's shard is queued", || {
        service.health().queue_depth == 1
    });
    assert_eq!(hit_count("worker.job"), base + 1, "the panic has not fired");

    let summary = server.drain();
    assert_eq!(
        hit_count("service.drain"),
        1,
        "the drain window failpoint marks exactly one drain"
    );
    assert_eq!(
        hit_count("worker.job"),
        base + 2,
        "the panic fired on the request's shard"
    );
    assert_eq!(summary.requests_flushed, 1, "the drain waited for it");
    // Counted before the classify is released, so the drain returned only
    // after the request's answer existed.
    let stats = server.scheduler_snapshot();
    assert_eq!(stats.batches_dispatched, 1);
    assert_eq!(stats.signatures_dispatched, request.len() as u64);

    // The answer is complete and bit-identical to the pinned in-process
    // one: the collector recomputed the lost shard inline.
    match recv.recv().expect("response").expect("not EOF") {
        WireMessage::ClassifyResponse { predictions } => assert_eq!(predictions, expected),
        other => panic!("expected a classify response, got {other:?}"),
    }
    assert_eq!(parked.join().expect("the parked classify"), expected);

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
    const WORKERS: usize = 2;
    const ENGINE_QUEUE: usize = 2;
    const CONNECTIONS: usize = 8;
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, _trainer) = frozen_service(&corpus, WORKERS, ENGINE_QUEUE);
    let request = pool_batch(&corpus);
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("bind loopback");

    // Park both workers on the first request's shards, then send one
    // request from each of the other connections at once: together they
    // ask for more shards than the engine queue holds, and each connection
    // thread classifies its own, so the typed Overloaded shed must travel
    // back out over the wire on some of them.
    let base = hit_count("worker.job");
    for worker in 0..WORKERS as u64 {
        arm_sleep("worker.job", base + worker, Duration::from_millis(400));
    }
    let mut clients: Vec<_> = (0..CONNECTIONS)
        .map(|_| {
            ServeClient::connect(server.local_addr())
                .expect("connect")
                .split()
        })
        .collect();
    clients[0].0.send_classify(&request).expect("send");
    wait_until("both workers are parked", || {
        hit_count("worker.job") >= base + WORKERS as u64
    });
    for (send, _) in &mut clients[1..] {
        send.send_classify(&request).expect("send");
    }
    let engine_capacity = service.health().queue_capacity as u64;
    assert_eq!(engine_capacity, ENGINE_QUEUE as u64);
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for (_, recv) in &mut clients {
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { predictions } => {
                assert_eq!(predictions.len(), request.len());
                ok += 1;
            }
            WireMessage::OverloadedResponse { queue_capacity, .. } => {
                assert_eq!(queue_capacity, engine_capacity);
                overloaded += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, CONNECTIONS);
    assert!(ok >= 1, "the parked request is answered");
    assert!(
        overloaded >= 1,
        "{} requests behind two parked workers and a {ENGINE_QUEUE}-job queue must shed",
        CONNECTIONS - 1
    );
    assert_eq!(server.scheduler_snapshot().requests_shed, overloaded as u64);
    assert_eq!(server.health().requests_shed, overloaded as u64);

    // Load subsided and the stall expired: every connection answers again.
    for (send, recv) in &mut clients {
        send.send_classify(&request[..1]).expect("send");
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { predictions } => assert_eq!(predictions.len(), 1),
            other => panic!("expected a classify response, got {other:?}"),
        }
    }
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
        ServeConfig::default(),
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

    // The shed comes from the engine: the wire response carries the
    // engine's capacity.
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    send.send_classify(&batch).expect("send");
    let engine_capacity = service.health().queue_capacity as u64;
    assert_eq!(engine_capacity, ENGINE_QUEUE as u64);
    match recv.recv().expect("response").expect("not EOF") {
        WireMessage::OverloadedResponse { queue_capacity, .. } => {
            assert_eq!(queue_capacity, engine_capacity);
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
