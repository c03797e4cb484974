//! End-to-end behaviour of the serving front-end: wire answers are
//! bit-identical to in-process answers, small requests queued behind a
//! dispatch coalesce into single engine batches, overload is a typed
//! response (and the service recovers), and drain/health behave as
//! documented.

use std::sync::mpsc;

use bsom_engine::{EngineError, Recognizer, Trainer};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::scheduler::{BatchClassify, ClassifyJob, MicroBatcher};
use bsom_serve::wire::{self, ErrorCode, WireMessage};
use bsom_serve::{BatchReply, SchedulerConfig, ServeClient, ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

const VECTOR_LEN: usize = 256;

/// A served map whose snapshot stays frozen for the test (the trainer is
/// held alive but never fed), so wire answers can be compared bit-for-bit
/// against a direct `classify_batch`.
fn frozen_server(scheduler: SchedulerConfig) -> (Server, Recognizer, Trainer) {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let recognizer = service.recognizer();
    let server = Server::bind(
        service,
        "127.0.0.1:0",
        ServeConfig {
            scheduler,
            ..ServeConfig::default()
        },
        None,
    )
    .expect("bind loopback");
    (server, recognizer, trainer)
}

fn probes(count: usize, seed: u64) -> Vec<BinaryVector> {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, count.div_ceil(4), 30, seed);
    corpus.into_iter().map(|(v, _)| v).take(count).collect()
}

#[test]
fn wire_classification_matches_in_process_bit_for_bit() {
    let (server, mut recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let signatures = probes(40, 11);
    let direct = recognizer.classify_batch(signatures.clone());

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let over_wire = client
        .classify(&signatures)
        .expect("classify over the wire");
    assert_eq!(over_wire, direct);

    // Distances survive the f64-bit round trip exactly, not approximately.
    assert!(over_wire
        .iter()
        .any(|p| matches!(p, Prediction::Known { .. })));
    server.join();
}

/// Wraps a real classifier and wedges its first dispatch until the test
/// opens the gate, so requests queue up behind a dispatch in flight with no
/// clock involved. Reports the size of every batch it passes on.
struct GateOnce<C> {
    inner: C,
    entered: mpsc::Sender<()>,
    gate: Option<mpsc::Receiver<()>>,
    batch_sizes: mpsc::Sender<usize>,
}

impl<C: BatchClassify> BatchClassify for GateOnce<C> {
    fn try_classify(
        &mut self,
        signatures: Vec<BinaryVector>,
    ) -> Result<Vec<Prediction>, EngineError> {
        if let Some(gate) = self.gate.take() {
            let _ = self.entered.send(());
            let _ = gate.recv();
        }
        let _ = self.batch_sizes.send(signatures.len());
        self.inner.try_classify(signatures)
    }
}

/// A scheduler over a frozen map's recognizer whose first dispatch — one
/// wedge request of `probes(1, 1)` — is parked inside the classifier.
struct Wedged {
    batcher: MicroBatcher,
    wedge: mpsc::Receiver<BatchReply>,
    open: mpsc::Sender<()>,
    batch_sizes: mpsc::Receiver<usize>,
    recognizer: Recognizer,
    _trainer: Trainer,
}

fn wedged(scheduler: SchedulerConfig) -> Wedged {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let (entered_tx, entered) = mpsc::channel();
    let (open, gate) = mpsc::channel();
    let (sizes_tx, batch_sizes) = mpsc::channel();
    let classifier = GateOnce {
        inner: service.recognizer(),
        entered: entered_tx,
        gate: Some(gate),
        batch_sizes: sizes_tx,
    };
    let batcher = MicroBatcher::new(classifier, scheduler).expect("spawn the scheduler");
    let (wedge, accepted) = submit(&batcher, probes(1, 1));
    assert!(accepted);
    entered.recv().expect("the wedge dispatch starts");
    Wedged {
        batcher,
        wedge,
        open,
        batch_sizes,
        recognizer: service.recognizer(),
        _trainer: trainer,
    }
}

fn submit(
    batcher: &MicroBatcher,
    signatures: Vec<BinaryVector>,
) -> (mpsc::Receiver<BatchReply>, bool) {
    let (reply, rx) = mpsc::channel();
    let accepted = batcher.submit(ClassifyJob { signatures, reply }).is_ok();
    (rx, accepted)
}

fn predictions(reply: &mpsc::Receiver<BatchReply>) -> Vec<Prediction> {
    match reply.recv().expect("a reply") {
        BatchReply::Predictions(predictions) => predictions,
        other => panic!("expected predictions, got {other:?}"),
    }
}

#[test]
fn pipelined_singletons_coalesce_into_one_engine_batch() {
    // Singletons queued while a dispatch is in flight leave as one engine
    // batch: N requests behind the wedge, one batch. The over-the-wire form
    // lives in the fault-injection suite, which can wedge a served
    // scheduler through its `scheduler.dispatch` failpoint.
    let mut wedged = wedged(SchedulerConfig::default());
    let signatures = probes(16, 23);
    let direct = wedged.recognizer.classify_batch(signatures.clone());
    let replies: Vec<_> = signatures
        .iter()
        .map(|signature| {
            let (reply, accepted) = submit(&wedged.batcher, vec![signature.clone()]);
            assert!(accepted);
            reply
        })
        .collect();
    wedged.open.send(()).expect("open the gate");

    assert_eq!(predictions(&wedged.wedge).len(), 1);
    let answers: Vec<Prediction> = replies.iter().flat_map(predictions).collect();
    // Replies come back in request order and match the direct batch.
    assert_eq!(answers, direct);

    assert_eq!(wedged.batch_sizes.recv().unwrap(), 1, "the wedge");
    assert_eq!(wedged.batch_sizes.recv().unwrap(), 16);
    let stats = wedged.batcher.snapshot();
    assert_eq!(stats.requests_dispatched, 17);
    assert_eq!(
        stats.batches_dispatched, 2,
        "16 queued singletons must coalesce into one engine batch: {stats:?}"
    );
    assert_eq!(stats.requests_coalesced, 16, "all 16 shared the batch");
}

#[test]
fn a_batch_cap_of_four_splits_a_queued_burst() {
    // A burst of 8 singletons queued behind the wedge under a 4-signature
    // cap leaves as two full batches.
    let mut wedged = wedged(SchedulerConfig {
        max_batch_signatures: 4,
        ..SchedulerConfig::default()
    });
    let signatures = probes(8, 31);
    let direct = wedged.recognizer.classify_batch(signatures.clone());
    let replies: Vec<_> = signatures
        .iter()
        .map(|signature| submit(&wedged.batcher, vec![signature.clone()]).0)
        .collect();
    wedged.open.send(()).expect("open the gate");
    assert_eq!(predictions(&wedged.wedge).len(), 1);
    let answers: Vec<Prediction> = replies.iter().flat_map(predictions).collect();
    assert_eq!(answers, direct);
    let sizes: Vec<usize> = (0..3).map(|_| wedged.batch_sizes.recv().unwrap()).collect();
    assert_eq!(sizes, vec![1, 4, 4]);
    assert_eq!(wedged.batcher.snapshot().batches_dispatched, 3);
}

#[test]
fn admission_control_sheds_when_full_and_recovers() {
    let wedged = wedged(SchedulerConfig {
        queue_capacity: 2,
        ..SchedulerConfig::default()
    });
    // The wedge sits in the classifier, off the queue. The queue holds
    // `queue_capacity` more; everything past that is shed synchronously —
    // the caller gets the job back, nothing blocks.
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for _ in 0..6 {
        match submit(&wedged.batcher, probes(1, 2)) {
            (reply, true) => accepted.push(reply),
            (_, false) => shed += 1,
        }
    }
    assert_eq!(accepted.len(), 2, "the queue holds its capacity");
    assert_eq!(shed, 4, "a full queue must shed, not block");
    assert_eq!(wedged.batcher.snapshot().requests_shed as usize, shed);

    // Open the gate: the wedged batch and every accepted job complete —
    // the service recovers once load subsides.
    wedged.open.send(()).expect("open the gate");
    assert_eq!(predictions(&wedged.wedge).len(), 1);
    for reply in &accepted {
        assert_eq!(predictions(reply).len(), 1);
    }
    let (after, admitted) = submit(&wedged.batcher, probes(1, 3));
    assert!(admitted, "admission reopens after the backlog clears");
    assert_eq!(predictions(&after).len(), 1);
}

#[test]
fn health_drain_and_post_drain_rejection_over_the_wire() {
    let (server, _recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    let health = client.health().expect("health over the wire");
    assert!(!health.draining);
    assert_eq!(health.workers_alive, health.workers_configured);
    assert_eq!(health.worker_panics, 0);

    let summary = client.drain().expect("drain over the wire");
    assert!(!summary.checkpoint_written, "no hook was installed");
    assert_eq!(summary.final_version, health.snapshot_version);

    // Post-drain: health still answers (and says so); classify is refused
    // with the typed Draining error, not a hang or a dropped connection.
    let health = client.health().expect("health while draining");
    assert!(health.draining);
    match client.classify(&probes(1, 3)) {
        Err(bsom_serve::ClientError::Rejected { code, .. }) => {
            assert_eq!(code, ErrorCode::Draining);
        }
        other => panic!("expected a Draining rejection, got {other:?}"),
    }
    server.join();
}

#[test]
fn malformed_frames_get_an_error_response_not_a_dropped_socket() {
    let (server, _recognizer, _trainer) = frozen_server(SchedulerConfig::default());
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    // A checksum-valid frame with a response kind is a protocol violation
    // from a client; the server must answer with a typed error, then hang
    // up cleanly.
    send.send(&WireMessage::OverloadedResponse {
        queue_depth: 0,
        queue_capacity: 0,
    })
    .expect("send protocol violation");
    match recv.recv().expect("error response").expect("not EOF") {
        WireMessage::ErrorResponse { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(
        recv.recv().expect("clean EOF after hangup").is_none(),
        "server must close the connection after a protocol violation"
    );

    // A corrupted frame (bad checksum) likewise gets a typed error.
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    let mut frame = wire::encode_classify_request(&probes(1, 5));
    let last = frame.len() - 1;
    frame[last] ^= 0xff;
    send.send_frame(&frame).expect("send corrupted frame");
    match recv.recv().expect("error response").expect("not EOF") {
        WireMessage::ErrorResponse { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error response, got {other:?}"),
    }
    server.join();
}
