//! A closed connection gives its descriptor and thread back while the
//! server runs, not only when the server closes. This is its own test
//! binary so that no sibling test opens descriptors while it counts them.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::{ServeClient, ServeConfig, Server};

const VECTOR_LEN: usize = 256;

/// Descriptors open in this process.
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors_before_the_server_closes() {
    let corpus = synthetic_corpus(VECTOR_LEN, 4, 8, 12, 7);
    let (service, _trainer) = bench_service(24, VECTOR_LEN, 7, &corpus);
    let server =
        Server::bind(service, "127.0.0.1:0", ServeConfig::default(), None).expect("bind loopback");
    let start = open_descriptors();
    for _ in 0..200 {
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        client.health().expect("health");
    }
    // A connection thread lets go of its socket once it has read the
    // client's EOF; give the last few a bounded moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut open = open_descriptors();
    while open > start + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    assert!(
        open <= start + 4,
        "{open} descriptors open after 200 closed connections, {start} before"
    );
    server.join();
}
