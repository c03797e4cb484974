//! Neighbourhood-update workload (DESIGN.md §"The neighbourhood broadcast
//! update"): the plane-sliced window trainer — one broadcast Bernoulli mask
//! stream applied to the whole neighbourhood address window on the packed
//! columns — on the paper's 40-neuron × 768-bit configuration across
//! neighbourhood radii.
//!
//! The radius sweep shows how the cost of a step grows with the window it
//! updates. `bench_report` records the radius-4 figure next to the
//! bit-serial oracle in `BENCH_train.json`, and its `--check` gate holds it.

use bsom_bench::bench_dataset;
use bsom_som::{BSom, BSomConfig, NeighbourhoodSchedule, SelfOrganizingMap, TrainSchedule};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn neighbourhood_update(c: &mut Criterion) {
    let dataset = bench_dataset();
    let signatures = dataset.train_signatures();

    let mut group = c.benchmark_group("neighbourhood_update");
    group.throughput(Throughput::Elements(signatures.len() as u64));

    // Constant radii so every measured step updates the same window width
    // (the paper's schedule ends at radius 1 and starts at 4).
    for radius in [1usize, 2, 4] {
        let schedule = TrainSchedule::new(usize::MAX)
            .with_neighbourhood(NeighbourhoodSchedule::Constant { radius });
        group.bench_function(format!("window_epoch_r{radius}"), |b| {
            let mut som = BSom::new(
                BSomConfig::paper_default(),
                &mut StdRng::seed_from_u64(0xB50A),
            );
            let mut t = 0usize;
            b.iter(|| {
                for s in &signatures {
                    black_box(som.train_step(s, t, &schedule).unwrap());
                }
                t += 1;
            })
        });
    }

    group.finish();
}

criterion_group!(benches, neighbourhood_update);
criterion_main!(benches);
