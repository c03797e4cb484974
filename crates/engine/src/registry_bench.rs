//! Multi-tenant facade cost model: what [`MapRegistry`] charges per
//! training step and per classify next to a bare
//! [`Trainer`](crate::Trainer), plus the spill round-trip rate the LRU
//! evictor can sustain.
//!
//! The paper's "millions of users" framing turns into thousands of small
//! per-user maps behind one facade; the figures here keep that facade
//! honest. The load-bearing number is the dimensionless
//! [`RegistryThroughputComparison::registry_step_overhead`]: how much of a
//! direct trainer's step rate survives the registry's slab lookup, FIFO
//! queue and round-robin tick. `bench_report --check` gates it (and the
//! raw rates) in `BENCH_registry.json`.

use std::time::Duration;

use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use serde::{Deserialize, Serialize};

use crate::registry::{MapRegistry, RegistryConfig};
use crate::throughput::{measure, MeasuredThroughput};
use crate::EngineConfig;

/// Registry-vs-direct throughput at a given fleet shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegistryThroughputComparison {
    /// Tenants in the measured registry.
    pub tenants: usize,
    /// Neurons per tenant map.
    pub neurons: usize,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Training steps per second through a bare [`crate::Trainer`] — the
    /// no-facade reference numerator every registry figure is held against.
    pub direct_steps: MeasuredThroughput,
    /// Training steps per second through [`MapRegistry::feed`] +
    /// [`MapRegistry::train_tick`], spread round-robin across all tenants.
    pub registry_steps: MeasuredThroughput,
    /// Signatures classified per second through [`MapRegistry::classify`],
    /// cycling across tenants so every call pays the facade lookup.
    pub registry_classify: MeasuredThroughput,
    /// Full evict-to-disk + validating-reload round-trips per second for
    /// one tenant ([`MapRegistry::evict`] then [`MapRegistry::reload`]).
    pub spill_roundtrips: MeasuredThroughput,
}

impl RegistryThroughputComparison {
    /// Fraction of the direct trainer's step rate the registry path keeps
    /// (1.0 = free facade; the gate watches this, not the machine-bound raw
    /// rates, so it stays meaningful across hosts).
    pub fn registry_step_overhead(&self) -> f64 {
        self.registry_steps.patterns_per_second
            / self.direct_steps.patterns_per_second.max(f64::MIN_POSITIVE)
    }
}

impl std::fmt::Display for RegistryThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "registry costs ({} tenants x {} neurons x {} bits)",
            self.tenants, self.neurons, self.vector_len
        )?;
        writeln!(
            f,
            "  direct trainer steps  {:>12.0} steps/s",
            self.direct_steps.patterns_per_second
        )?;
        writeln!(
            f,
            "  registry feed+tick    {:>12.0} steps/s  ({:.2}x direct)",
            self.registry_steps.patterns_per_second,
            self.registry_step_overhead()
        )?;
        writeln!(
            f,
            "  facade classify       {:>12.0} signatures/s",
            self.registry_classify.patterns_per_second
        )?;
        write!(
            f,
            "  spill round-trips     {:>12.1} evict+reloads/s",
            self.spill_roundtrips.patterns_per_second
        )
    }
}

/// Measures the four registry figures on a fleet of `tenants` maps of the
/// given shape. `min_duration` is spent on **each** measurement. The spill
/// directory lives under the OS temp directory and is removed before
/// returning.
///
/// # Panics
///
/// Panics if `tenants` is zero or the OS temp directory is not writable
/// (benchmark infrastructure, not a recoverable serving condition).
pub fn compare_registry_throughput(
    tenants: usize,
    config: BSomConfig,
    min_duration: Duration,
    seed: u64,
) -> RegistryThroughputComparison {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(tenants > 0, "cannot measure an empty fleet");
    let neurons = config.neurons;
    let vector_len = config.vector_len;
    let mut rng = StdRng::seed_from_u64(seed);
    // One shared batch of examples; every step trains on the next one.
    let examples: Vec<(BinaryVector, ObjectLabel)> = (0..64)
        .map(|i| {
            (
                BinaryVector::random(vector_len, &mut rng),
                ObjectLabel::new(i % 8),
            )
        })
        .collect();
    let batch = examples.len();

    // A step's cost depends on the map's training history: as a map
    // converges on its stream, fewer bits flip and each tick's
    // copy-on-write publish copies fewer dirty rows. So (a) each leg is
    // warmed with its **own measured closure** until that regime is
    // stationary — otherwise a short smoke window measures the expensive
    // early regime while a full window measures the converged one, and the
    // smoke-vs-committed gate compares different physics — and (b) both
    // step legs give every map the same stream (one fixed example per map,
    // matching the round-robin assignment below), so the overhead ratio
    // isolates the facade, not a distribution difference.
    let (_service, mut trainer) = crate::SomService::train_while_serve(
        BSom::new(config, &mut StdRng::seed_from_u64(seed)),
        TrainSchedule::new(usize::MAX),
        &[],
        EngineConfig::with_workers(1),
    );
    let (direct_signature, direct_label) = examples[0].clone();
    let mut direct_work = || {
        for _ in 0..batch {
            trainer
                .feed(&direct_signature, direct_label)
                .expect("generated signatures match the map's vector length");
        }
    };
    for _ in 0..512 {
        direct_work();
    }
    let direct_steps = measure(batch, min_duration, direct_work);

    let dir = std::env::temp_dir().join(format!(
        "bsom-registry-bench-{}-{seed:x}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("the OS temp directory is writable");
    let registry =
        MapRegistry::new(RegistryConfig::new(EngineConfig::with_workers(1)).with_spill_dir(&dir));
    for t in 0..tenants {
        registry
            .create_tenant(
                t as u64,
                BSom::new(config, &mut StdRng::seed_from_u64(seed ^ t as u64)),
                TrainSchedule::new(usize::MAX),
                &[],
            )
            .expect("fresh tenant ids are unique");
    }

    // Facade path: queue one batch round-robin across the fleet, flush it
    // with one tick — every step pays the slab lookup + FIFO + scheduler,
    // and every trained tenant pays a publish at tick end. Tenant `i %
    // tenants` always receives example `i`, so each map sees a fixed slice
    // of the corpus (exactly one example when `tenants` equals the batch
    // size, as in the committed report) — matching the direct trainer's
    // fixed stream.
    let registry_work = || {
        for (i, (signature, label)) in examples.iter().enumerate() {
            registry
                .feed((i % tenants) as u64, signature, *label)
                .expect("every tenant exists and signatures match");
        }
        let report = registry.train_tick(u64::MAX);
        assert!(report.failures.is_empty(), "bench tick failed: {report:?}");
    };
    for _ in 0..4096 {
        registry_work();
    }
    let registry_steps = measure(batch, min_duration, registry_work);

    let probes: Vec<BinaryVector> = (0..8)
        .map(|_| BinaryVector::random(vector_len, &mut rng))
        .collect();
    let registry_classify = measure(probes.len() * tenants.min(8), min_duration, || {
        for t in 0..tenants.min(8) {
            std::hint::black_box(
                registry
                    .classify(t as u64, &probes)
                    .expect("every tenant exists and probes match"),
            );
        }
    });

    let spill_roundtrips = measure(1, min_duration, || {
        registry.evict(0u64).expect("tenant 0 is healthy");
        registry
            .reload(0u64)
            .expect("a just-spilled tenant reloads");
    });

    let _ = std::fs::remove_dir_all(&dir);
    RegistryThroughputComparison {
        tenants,
        neurons,
        vector_len,
        direct_steps,
        registry_steps,
        registry_classify,
        spill_roundtrips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_comparison_produces_positive_figures_and_renders() {
        // A scaled-down fleet keeps the unit test fast; the committed
        // BENCH_registry.json uses 64 tenants at the paper map shape.
        let comparison = compare_registry_throughput(
            8,
            BSomConfig::new(10, 96),
            Duration::from_millis(10),
            0x4E57,
        );
        assert_eq!(comparison.tenants, 8);
        assert_eq!(comparison.neurons, 10);
        assert_eq!(comparison.vector_len, 96);
        assert!(comparison.direct_steps.patterns_per_second > 0.0);
        assert!(comparison.registry_steps.patterns_per_second > 0.0);
        assert!(comparison.registry_classify.patterns_per_second > 0.0);
        assert!(comparison.spill_roundtrips.patterns_per_second > 0.0);
        assert!(comparison.registry_step_overhead() > 0.0);
        let text = comparison.to_string();
        assert!(text.contains("registry feed+tick"));
        assert!(text.contains("spill round-trips"));
        let json = serde_json::to_string(&comparison).unwrap();
        let back: RegistryThroughputComparison = serde_json::from_str(&json).unwrap();
        assert_eq!(back, comparison);
    }
}
