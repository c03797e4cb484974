//! The serving front-end, end to end, in one process: a train-while-serve
//! `SomService` behind the TCP wire protocol, a client classifying over a
//! real socket, and a pipelined burst answered in order.
//!
//! The walk-through:
//!
//! 1. build a small labelled corpus and start a `SomService` seeded with it;
//! 2. bind a `Server` on a loopback port 0 (each connection gets one thread
//!    that answers its requests in order, each as one engine batch);
//! 3. keep training: feed more labelled signatures and publish a snapshot —
//!    the served map moves *while the server is up*;
//! 4. classify over the wire and check the answers against the in-process
//!    `Recognizer` on the same snapshot — bit-identical, not approximately
//!    equal;
//! 5. pipeline a burst of requests on one connection, reading while
//!    sending, and read the health endpoint before and after (a full engine
//!    queue would answer a request with a typed `Overloaded` response, not
//!    a dropped connection);
//! 6. classify once more, then drain gracefully.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::net::SocketAddr;

use bsom_repro::prelude::*;
use bsom_repro::serve::wire::WireMessage;
use bsom_repro::serve::{ServeClient, ServeConfig, Server};
use bsom_repro::som::{Prediction, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VECTOR_LEN: usize = 768;
const LABELS: usize = 4;

/// A labelled corpus of `per_label` noisy variants around one random
/// prototype per label — the stand-in for real appearance signatures.
fn corpus(rng: &mut StdRng, per_label: usize) -> Vec<(BinaryVector, ObjectLabel)> {
    let mut data = Vec::new();
    for label in 0..LABELS {
        let prototype = BinaryVector::random(VECTOR_LEN, rng);
        for _ in 0..per_label {
            let mut variant = prototype.clone();
            for _ in 0..24 {
                let bit = rng.gen_range(0..VECTOR_LEN);
                variant.set(bit, !variant.bit(bit));
            }
            data.push((variant, ObjectLabel::new(label)));
        }
    }
    data
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let seed_data = corpus(&mut rng, 24);

    // 1. A service seeded with the corpus: neuron labels come from the seed
    //    wins, and the trainer keeps feeding afterwards.
    let som = BSom::new(BSomConfig::new(64, VECTOR_LEN), &mut rng);
    let (service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(usize::MAX),
        &seed_data,
        EngineConfig::default(),
    );
    let service = std::sync::Arc::new(service);
    let mut recognizer = service.recognizer();

    // 2. Bind the wire front-end.
    let server = Server::bind(
        std::sync::Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("bind a loopback port");
    let addr: SocketAddr = server.local_addr();
    println!("serving on {addr}");

    // 3. The map moves while the server is up: feed fresh signatures and
    //    publish. Every classify after this sees the new snapshot version.
    let before = service.version();
    for (signature, label) in corpus(&mut rng, 8) {
        trainer.feed(&signature, label).expect("feed");
    }
    trainer.publish();
    println!(
        "trainer published snapshot v{} (was v{before})",
        service.version()
    );

    // 4. Classify over the wire; the engine's own recognizer is the truth.
    let probes: Vec<BinaryVector> = corpus(&mut rng, 4).into_iter().map(|(v, _)| v).collect();
    let mut client = ServeClient::connect(addr).expect("connect");
    let over_wire = client.classify(&probes).expect("classify over the wire");
    let direct = recognizer.classify_batch(probes.clone());
    assert_eq!(over_wire, direct, "wire answers are bit-identical");
    let known = over_wire
        .iter()
        .filter(|p| matches!(p, Prediction::Known { .. }))
        .count();
    println!(
        "classified {} probes over the wire ({known} known), answers bit-identical to in-process",
        probes.len()
    );

    let health = client.health().expect("health");
    println!(
        "health before the burst: snapshot v{}, {}/{} workers, {} classify batches so far",
        health.snapshot_version,
        health.workers_alive,
        health.workers_configured,
        health.batches_dispatched
    );

    // 5. A pipelined burst: one thread sends every request while this one
    //    reads the answers, which come back in request order on the same
    //    connection. The connection thread answers one request at a time,
    //    so a client that sent without reading would be bounded by the
    //    socket buffers alone.
    let burst: Vec<BinaryVector> = probes.iter().cycle().take(48).cloned().collect();
    let (mut send, mut recv) = ServeClient::connect(addr).expect("connect").split();
    let requests = 400usize;
    let (mut ok, mut shed) = (0usize, 0usize);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..requests {
                send.send_classify(&burst).expect("pipelined send");
            }
        });
        for _ in 0..requests {
            match recv.recv().expect("response").expect("not EOF") {
                WireMessage::ClassifyResponse { .. } => ok += 1,
                WireMessage::OverloadedResponse { .. } => shed += 1,
                other => panic!("unexpected response: {other:?}"),
            }
        }
    });
    println!("pipelined burst: {ok} served, {shed} shed with a typed Overloaded response");

    let health = client.health().expect("health");
    println!(
        "health after the burst: {} classify batches, {} signatures, shed total {}",
        health.batches_dispatched, health.signatures_dispatched, health.requests_shed
    );

    // 6. The first connection still answers bit-identically; then drain
    //    gracefully and shut down.
    let again = client.classify(&probes).expect("classify after the burst");
    assert_eq!(again, direct);

    let summary = client.drain().expect("drain");
    server.join();
    println!(
        "drained: {} in-flight requests flushed, final snapshot v{}",
        summary.requests_flushed, summary.final_version
    );
}
