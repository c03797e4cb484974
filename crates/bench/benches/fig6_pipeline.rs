//! Figure 6 / Fig. 1 workload: the vision substrate feeding the bSOM —
//! scene rendering, background subtraction, connected components, tracking
//! and signature extraction — on the populated scene that
//! `bench_report --only pipeline` gates (`bsom_bench::pipeline`).

use bsom_bench::pipeline::PopulatedScene;
use bsom_vision::connected::label_components;
use bsom_vision::scene::{SceneConfig, SceneSimulator};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn fig6(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut scene = SceneSimulator::new(SceneConfig::small(), &mut rng);
    c.bench_function("fig6/render_scene_frame", |b| {
        b.iter(|| black_box(scene.render_frame(&mut rng)))
    });

    // Each iteration takes the clip's next frame; at the end of the clip
    // the state starts over, as a fresh camera feed would.
    let fixture = PopulatedScene::render();
    let frames = fixture.frames();
    let mut next = 0;
    let mut background = fixture.background_model();
    c.bench_function("fig6/segment_populated_160x120", |b| {
        b.iter(|| {
            if next == frames.len() {
                next = 0;
                background = fixture.background_model();
            }
            next += 1;
            black_box(background.segment(&frames[next - 1]))
        })
    });

    let masks = fixture.masks();
    let mut next = 0;
    c.bench_function("fig6/connected_components_populated_160x120", |b| {
        b.iter(|| {
            next = (next + 1) % masks.len();
            black_box(label_components(&masks[next]))
        })
    });

    let mut next = 0;
    let mut pipeline = fixture.pipeline();
    c.bench_function("fig6/pipeline_process_frame_populated", |b| {
        b.iter(|| {
            if next == frames.len() {
                next = 0;
                pipeline = fixture.pipeline();
            }
            next += 1;
            black_box(pipeline.process_frame(&frames[next - 1]))
        })
    });
}

criterion_group!(benches, fig6);
criterion_main!(benches);
