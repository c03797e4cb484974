//! Batched-engine workload (DESIGN.md §"The batched engine layout"): the
//! scalar per-signature winner loop versus the plane-sliced `PackedLayer`
//! search versus a sharded `Recognizer` over a `SomService`, all on the
//! paper's 40-neuron × 768-bit configuration — the acceptance
//! micro-benchmark for the batched layout.

use bsom_bench::{bench_dataset, trained_bsom};
use bsom_engine::{EngineConfig, SomService};
use bsom_som::{LabelledSom, SelfOrganizingMap};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn engine_batch(c: &mut Criterion) {
    let dataset = bench_dataset();
    let som = trained_bsom(&dataset, 3);
    let classifier = LabelledSom::label(som.clone(), &dataset.train);
    let layer = som.packed_layer();
    let signatures: Vec<_> = dataset.test.iter().map(|(s, _)| s.clone()).collect();
    let shared = Arc::new(signatures.clone());

    let mut group = c.benchmark_group("engine_batch");
    group.throughput(Throughput::Elements(signatures.len() as u64));

    // One winner search per call through the trait (now itself running on
    // the shared packed layout — the pre-PR-2 per-neuron loop is gone).
    group.bench_function("scalar_per_neuron_loop", |b| {
        b.iter(|| {
            for s in &signatures {
                black_box(som.winner(s).unwrap());
            }
        })
    });

    // The plane-sliced batched search, single thread: eight signatures per
    // pass over the layer.
    group.bench_function("packed_layer_batch", |b| {
        let mut winners = vec![None; signatures.len()];
        b.iter(|| {
            layer.winners_into(&signatures, &mut winners);
            black_box(&mut winners);
        })
    });

    // The full service: batched search sharded across a small fixed pool,
    // through a Recognizer handle (includes the per-batch version check).
    let service = SomService::serve(&classifier, EngineConfig::with_workers(4));
    let mut recognizer = service.recognizer();
    group.bench_function("recognition_service_4_workers", |b| {
        b.iter(|| black_box(recognizer.classify_batch(Arc::clone(&shared))))
    });

    group.finish();
}

criterion_group!(benches, engine_batch);
criterion_main!(benches);
