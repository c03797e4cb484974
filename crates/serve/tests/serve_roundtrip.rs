//! End-to-end behaviour of the serving front-end: wire answers are
//! bit-identical to in-process answers, pipelined requests come back in
//! order with one engine batch each, and drain/health behave as documented.

use bsom_engine::{Recognizer, Trainer};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::wire::{self, ErrorCode, WireMessage};
use bsom_serve::{ServeClient, ServeConfig, Server};
use bsom_signature::BinaryVector;
use bsom_som::Prediction;

const VECTOR_LEN: usize = 256;

/// A served map whose snapshot stays frozen for the test (the trainer is
/// held alive but never fed), so wire answers can be compared bit-for-bit
/// against a direct `classify_batch`.
fn frozen_server() -> (Server, Recognizer, Trainer) {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 16, 12, 7);
    let (service, trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let recognizer = service.recognizer();
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");
    (server, recognizer, trainer)
}

fn probes(count: usize, seed: u64) -> Vec<BinaryVector> {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, count.div_ceil(4), 30, seed);
    corpus.into_iter().map(|(v, _)| v).take(count).collect()
}

#[test]
fn wire_classification_matches_in_process_bit_for_bit() {
    let (server, mut recognizer, _trainer) = frozen_server();
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

#[test]
fn pipelined_singletons_come_back_in_order_one_engine_batch_each() {
    // 64 single-signature requests sent before any answer is read come back
    // in request order, each the direct batch's verdict, and each is one
    // engine batch.
    let (server, mut recognizer, _trainer) = frozen_server();
    let signatures = probes(64, 13);
    let direct = recognizer.classify_batch(signatures.clone());
    let before = server.scheduler_snapshot();
    let (mut send, mut recv) = ServeClient::connect(server.local_addr())
        .expect("connect")
        .split();
    for signature in &signatures {
        send.send_classify(std::slice::from_ref(signature))
            .expect("pipelined send");
    }
    let answers: Vec<Prediction> = (0..signatures.len())
        .map(|_| match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { predictions } => {
                assert_eq!(predictions.len(), 1);
                predictions[0]
            }
            other => panic!("expected a classify response, got {other:?}"),
        })
        .collect();
    assert_eq!(answers, direct);
    let after = server.scheduler_snapshot();
    assert_eq!(after.batches_dispatched - before.batches_dispatched, 64);
    assert_eq!(
        after.signatures_dispatched - before.signatures_dispatched,
        64
    );
    assert_eq!(after.requests_shed, 0);
    server.join();
}

#[test]
fn health_drain_and_post_drain_rejection_over_the_wire() {
    let (server, _recognizer, _trainer) = frozen_server();
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
    let (server, _recognizer, _trainer) = frozen_server();
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
