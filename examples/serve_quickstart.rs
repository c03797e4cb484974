//! The serving front-end, end to end, in one process: a train-while-serve
//! `SomService` behind the TCP wire protocol, a client classifying over a
//! real socket, and the overload path exercised on purpose.
//!
//! The walk-through:
//!
//! 1. build a small labelled corpus and start a `SomService` seeded with it;
//! 2. bind a `Server` on a loopback port 0 (the scheduler dispatches as soon
//!    as it holds a request and coalesces whatever queued up meanwhile);
//! 3. keep training: feed more labelled signatures and publish a snapshot —
//!    the served map moves *while the server is up*;
//! 4. classify over the wire and check the answers against the in-process
//!    `Recognizer` on the same snapshot — bit-identical, not approximately
//!    equal;
//! 5. hammer a deliberately tiny scheduler queue with pipelined requests
//!    until admission control sheds load (typed `Overloaded` responses, not
//!    dropped connections), and read the health endpoint before and after;
//! 6. show the service recovered, then drain gracefully.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::net::SocketAddr;

use bsom_repro::prelude::*;
use bsom_repro::serve::wire::WireMessage;
use bsom_repro::serve::{ClientError, SchedulerConfig, ServeClient, ServeConfig, Server};
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

    // 2. Bind the wire front-end. A tiny pending queue makes step 5's
    //    overload reachable with a few hundred pipelined requests; a real
    //    deployment would keep the default 1024.
    let server = Server::bind(
        std::sync::Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig {
            scheduler: SchedulerConfig {
                queue_capacity: 4,
                ..SchedulerConfig::default()
            },
            ..ServeConfig::default()
        },
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
        "health before overload: snapshot v{}, {}/{} workers, scheduler queue {}/{}, shed so far {}",
        health.snapshot_version,
        health.workers_alive,
        health.workers_configured,
        health.scheduler_pending,
        health.scheduler_capacity,
        health.requests_shed
    );

    // 5. The overload hammer: pipeline far more work than the queue admits.
    //    Shed requests come back as typed Overloaded responses on the same
    //    connection, in order — no disconnects, no silent drops.
    let burst: Vec<BinaryVector> = probes.iter().cycle().take(48).cloned().collect();
    let (mut send, mut recv) = ServeClient::connect(addr).expect("connect").split();
    let requests = 400usize;
    for _ in 0..requests {
        send.send_classify(&burst).expect("pipelined send");
    }
    let (mut ok, mut shed) = (0usize, 0usize);
    for _ in 0..requests {
        match recv.recv().expect("response").expect("not EOF") {
            WireMessage::ClassifyResponse { .. } => ok += 1,
            WireMessage::OverloadedResponse { .. } => shed += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    println!("overload hammer: {ok} served, {shed} shed with a typed Overloaded response");

    let health = client.health().expect("health");
    println!(
        "health after overload: scheduler queue {}/{}, shed total {}, {} requests coalesced into {} batches",
        health.scheduler_pending,
        health.scheduler_capacity,
        health.requests_shed,
        health.requests_coalesced,
        health.batches_dispatched
    );

    // 6. Load has subsided: the very next classify succeeds — overload is a
    //    state, not a death. Then drain gracefully and shut down.
    match client.classify(&probes) {
        Ok(recovered) => {
            assert_eq!(recovered, direct);
            println!("recovery classify succeeded on the first try");
        }
        Err(ClientError::Overloaded { .. }) => {
            println!("still overloaded right after the burst (tight timing) — retrying");
            let recovered = client.classify(&probes).expect("second try succeeds");
            assert_eq!(recovered, direct);
        }
        Err(error) => panic!("recovery classify failed: {error}"),
    }

    let summary = client.drain().expect("drain");
    server.join();
    println!(
        "drained: {} in-flight requests flushed, final snapshot v{}",
        summary.requests_flushed, summary.final_version
    );
}
