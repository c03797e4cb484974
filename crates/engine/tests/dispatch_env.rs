//! `BSOM_DISPATCH` is validated where a worker pool is made. Every public
//! constructor that makes one — [`SomService::serve`],
//! [`SomService::from_parts`], [`SomService::train_while_serve`],
//! [`SomService::resume_from_checkpoint`] and [`MapRegistry::new`] — panics
//! on the constructing thread with the [`DispatchEnvError`] text when the
//! variable names no usable lowering, instead of failing later inside a
//! worker.
//!
//! A test binary of its own, because it changes the process environment.
//!
//! [`DispatchEnvError`]: bsom_signature::DispatchEnvError

use std::panic::{catch_unwind, AssertUnwindSafe};

use bsom_engine::{EngineConfig, MapRegistry, RegistryConfig, SomService};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, LabelledSom, ObjectLabel, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DISPATCH_ENV: &str = "BSOM_DISPATCH";

#[test]
fn every_pool_constructor_rejects_an_unusable_dispatch_on_the_calling_thread() {
    // Everything that runs a kernel comes first: the first kernel call
    // caches the process default dispatch, so no later kernel call reads
    // the variable again and only the constructors' own check can fail.
    let mut rng = StdRng::seed_from_u64(5);
    let data: Vec<(BinaryVector, ObjectLabel)> = (0..6)
        .map(|i| (BinaryVector::random(64, &mut rng), ObjectLabel::new(i % 2)))
        .collect();
    let mut som = BSom::new(BSomConfig::new(4, 64), &mut rng);
    som.train_labelled_data(&data, TrainSchedule::new(5), &mut rng)
        .unwrap();
    let classifier = LabelledSom::label(som.clone(), &data);
    let layer = som.packed_layer().clone();
    let config = EngineConfig::with_workers(1);
    let path =
        std::env::temp_dir().join(format!("bsom-dispatch-env-{}.bsomckpt", std::process::id()));
    let (service, trainer) =
        SomService::train_while_serve(som.clone(), TrainSchedule::new(5), &data, config);
    trainer.write_checkpoint(&path).unwrap();
    drop((service, trainer));

    let original = std::env::var_os(DISPATCH_ENV);
    std::env::set_var(DISPATCH_ENV, "no-such-lowering");
    let expected = bsom_signature::validate_env_dispatch()
        .expect_err("no lowering has that name")
        .to_string();
    let outcomes = [
        (
            "serve",
            panic_message(|| drop(SomService::serve(&classifier, config))),
        ),
        (
            "from_parts",
            panic_message(|| drop(SomService::from_parts(layer, vec![None; 4], None, 1))),
        ),
        (
            "train_while_serve",
            panic_message(|| {
                drop(SomService::train_while_serve(
                    som,
                    TrainSchedule::new(5),
                    &data,
                    config,
                ))
            }),
        ),
        (
            "resume_from_checkpoint",
            panic_message(|| drop(SomService::resume_from_checkpoint(&path))),
        ),
        (
            "MapRegistry::new",
            panic_message(|| drop(MapRegistry::new(RegistryConfig::new(config)))),
        ),
    ];
    match original {
        Some(value) => std::env::set_var(DISPATCH_ENV, value),
        None => std::env::remove_var(DISPATCH_ENV),
    }
    let _ = std::fs::remove_file(&path);

    for (name, message) in outcomes {
        assert_eq!(message.as_deref(), Some(expected.as_str()), "{name}");
    }
}

/// The message `construct` panicked with on this thread, or `None` if it
/// returned.
fn panic_message(construct: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(construct)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(_) => "a panic payload that is not a String".to_string(),
    })
}
