//! Machine-readable performance tracking for the hot paths.
//!
//! Writes `BENCH_train.json` (training steps/s of the bit-serial oracle and
//! the plane-sliced window trainer, plus their speedup ratio),
//! `BENCH_recognition.json` (signatures/s, scalar vs
//! batched vs engine, speedups, FPGA cycle-model comparison, the
//! per-dispatch distance-pass figures for every SIMD lowering the machine
//! can run, and the ungated inline-vs-pool classify crossover sweep that
//! sets `INLINE_CLASSIFY_MAX_NEURON_WORDS`) and
//! `BENCH_large_map.json` (copy-on-write publish cadence, winner-search
//! throughput and crash-safe checkpoint write/restore
//! throughput at the 1024-neuron × 768-bit scale target) and
//! `BENCH_serve.json` (the TCP serving front-end: wire throughput vs
//! in-process on large batches, and requests/s on a pipelined
//! single-signature mix, measured against a live server with a
//! concurrently publishing trainer) and
//! `BENCH_registry.json` (the multi-tenant facade: registry feed+tick
//! steps/s vs a bare trainer, facade classify throughput, and the
//! evict+reload spill round-trip rate across a 64-tenant fleet) and
//! `BENCH_pipeline.json` (the paper's Fig. 1 path on a populated scene
//! clip, with every kernel forced to scalar and then to the widest
//! lowering: frames/s through `process_frame` plus classify, and the time
//! per frame of each stage, which sum to the frame total) so
//! the perf trajectory of the repo is tracked by numbers rather than prose.
//! CI runs it in `--smoke` mode to keep the reporter itself from rotting;
//! committed snapshots come from full runs.
//!
//! `--check` turns the reporter into a **regression gate**: instead of only
//! writing fresh files, it also loads the committed baselines and fails when
//! any measured figure falls below `baseline × (1 − band)`. Improvements
//! beyond `baseline × (1 + band)` are reported as a prompt to re-baseline
//! (re-run without `--smoke` and commit the refreshed files) but do not
//! fail, since a faster machine or build must never break CI. Absolute
//! throughputs only guard same-machine runs; the dimensionless speedup
//! ratios stay meaningful across machines, which is what heterogeneous CI
//! leans on (see README §"Benchmarks" for the band semantics and the
//! per-runner baseline workflow).
//!
//! ```text
//! bench_report [--smoke] [--out DIR] [--check] [--noise-band F]
//!              [--baseline-dir DIR] [--baseline FILE]... [--only KEY]...
//!
//!   --smoke          short measurement windows (CI liveness check, noisy numbers)
//!   --out            directory to write the JSON files into (default: .)
//!   --check          compare fresh numbers against the committed baselines
//!   --noise-band     allowed relative deviation before --check fails (default: 0.25)
//!   --baseline-dir   where the committed BENCH_*.json live (default: .)
//!   --baseline       per-runner baseline file override, repeatable; the file
//!                    name decides which report it replaces (a name containing
//!                    "train" overrides BENCH_train.json, "recognition",
//!                    "large", "serve", "registry" or "pipeline" the others) — point this
//!                    at e.g. baselines/ci-runner/BENCH_train.json to gate a
//!                    specific runner against its own committed numbers
//!   --only           measure (and check, and write) only the named report:
//!                    one of "train", "recognition", "large", "serve",
//!                    "registry", "pipeline"; repeatable — the default is all six
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bsom_bench::bench_dataset;
use bsom_bench::pipeline::{measure_pipeline, PipelineBenchReport};
use bsom_engine::{
    compare_checkpoint_throughput, compare_dispatch_throughput, compare_inline_crossover,
    compare_large_map_throughput, compare_recognition_throughput, compare_registry_throughput,
    compare_training_throughput, CheckpointThroughputComparison, DispatchThroughputComparison,
    EngineConfig, InlineCrossover, LargeMapThroughputComparison, RegistryThroughputComparison,
    SomService, ThroughputComparison, TrainThroughputComparison,
};
use bsom_fpga::FpgaConfig;
use bsom_serve::bench::{measure_serve, ServeBenchConfig, ServeBenchReport};
use bsom_signature::Dispatch;
use bsom_som::{BSomConfig, LabelledSom, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The `BENCH_train.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct TrainBenchReport {
    /// `"smoke"` or `"full"` — smoke numbers are liveness checks, not data.
    mode: String,
    /// Seconds of wall clock spent per measured path.
    min_duration_seconds: f64,
    /// The raw two-path comparison (steps/s each way) at the paper's
    /// maximum neighbourhood radius.
    comparison: TrainThroughputComparison,
    /// Production (window) steps/s over bit-serial steps/s.
    speedup_window_over_bit_serial: f64,
}

/// The `BENCH_recognition.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct RecognitionBenchReport {
    /// `"smoke"` or `"full"`.
    mode: String,
    /// Seconds of wall clock spent per measured path.
    min_duration_seconds: f64,
    /// Scalar / batched / engine signatures-per-second plus the FPGA model.
    comparison: ThroughputComparison,
    /// Per-dispatch distance-pass throughput at the 1024 × 768 scale shape:
    /// the same plane-sliced pass through every kernel lowering the machine
    /// can run (DESIGN.md §"Wide-lane kernels and dispatch").
    dispatch: DispatchThroughputComparison,
    /// Inline vs worker-pool classify over neurons × batch size, forced
    /// scalar first, then the widest dispatch. Ungated: the pool leg is a
    /// thread wake-up whose cost swings widely from run to run.
    crossover: Vec<InlineCrossover>,
    /// Single-thread plane-sliced search over the scalar loop.
    speedup_batched_over_scalar: f64,
    /// Sharded engine over the scalar loop.
    speedup_engine_over_scalar: f64,
    /// Widest available lowering over the forced-scalar distance pass — the
    /// raw worth of the SIMD widening on this machine.
    speedup_widest_dispatch_over_scalar: f64,
}

/// The `BENCH_large_map.json` document: the 1024-neuron × 768-bit shape the
/// ROADMAP scales to, gating the copy-on-write publish cost and the
/// winner-search throughput.
#[derive(Debug, Serialize, Deserialize)]
struct LargeMapBenchReport {
    /// `"smoke"` or `"full"`.
    mode: String,
    /// Seconds of wall clock spent per measured path.
    min_duration_seconds: f64,
    /// Publish (CoW vs deep re-pack) and winner-search costs at the
    /// large-map shape.
    comparison: LargeMapThroughputComparison,
    /// Train-step-plus-CoW-publish cadence over a deep re-pack.
    publish_speedup_over_repack: f64,
    /// Crash-safe checkpoint commit and restore throughput at the same
    /// shape — the durability cost model (frame + fsync + atomic rename on
    /// the write side, decode + validate + service re-spawn on the restore
    /// side; DESIGN.md §"Fault model and recovery").
    checkpoint: CheckpointThroughputComparison,
}

/// The `BENCH_serve.json` document: the TCP serving front-end measured
/// against a live loopback server while a trainer publishes snapshots
/// concurrently — large-batch wire throughput vs the same-shape in-process
/// `classify_batch`, and requests/s on a pipelined singleton-request mix.
#[derive(Debug, Serialize, Deserialize)]
struct ServeBenchDocument {
    /// `"smoke"` or `"full"` — the serve legs clamp their windows to a
    /// 300 ms floor regardless, so connection set-up does not dominate.
    mode: String,
    /// Seconds of wall clock requested per measured leg (before the clamp).
    min_duration_seconds: f64,
    /// The measured legs, latencies included.
    comparison: ServeBenchReport,
}

/// The `BENCH_registry.json` document: the multi-tenant facade measured
/// across a 64-tenant fleet of paper-sized maps — what the slab lookup,
/// per-tenant FIFO and round-robin tick charge per training step next to a
/// bare trainer, plus facade classify throughput and the spill (evict +
/// validating reload) round-trip rate.
#[derive(Debug, Serialize, Deserialize)]
struct RegistryBenchReport {
    /// `"smoke"` or `"full"`.
    mode: String,
    /// Seconds of wall clock spent per measured leg.
    min_duration_seconds: f64,
    /// The four registry legs (direct steps, registry steps, classify,
    /// spill round-trips).
    comparison: RegistryThroughputComparison,
    /// Registry feed+tick steps/s over direct trainer steps/s — the
    /// dimensionless facade tax the gate leans on across machines.
    registry_step_overhead: f64,
}

/// The `BENCH_pipeline.json` document: the paper's Fig. 1 path — frame in,
/// identities out — on the populated scene clip of `bsom_bench::pipeline`.
#[derive(Debug, Serialize, Deserialize)]
struct PipelineBenchDocument {
    /// `"smoke"` or `"full"` — a smoke run still makes at least three
    /// passes over the clip.
    mode: String,
    /// Seconds of wall clock requested for the passes.
    min_duration_seconds: f64,
    /// Frames/s end to end and the per-stage breakdown.
    pipeline: PipelineBenchReport,
}

/// Which reports to measure, check and write — `--only` narrows the set.
#[derive(Clone, Copy)]
struct Selection {
    train: bool,
    recognition: bool,
    large: bool,
    serve: bool,
    registry: bool,
    pipeline: bool,
}

/// One named figure compared against its committed baseline: an absolute
/// throughput (meaningful when the run and the baseline share a machine) or
/// a dimensionless speedup ratio (meaningful across machines too).
struct CheckedFigure {
    name: &'static str,
    baseline: f64,
    fresh: f64,
}

/// Renders a figure compactly whether it is a big throughput or a small
/// speedup ratio.
fn fmt_figure(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

/// Compares every figure against its baseline within the noise band.
/// Returns the number of regressions (each printed as it is found).
fn check_figures(figures: &[CheckedFigure], band: f64) -> usize {
    let mut regressions = 0usize;
    for figure in figures {
        let ratio = figure.fresh / figure.baseline.max(f64::MIN_POSITIVE);
        if ratio < 1.0 - band {
            regressions += 1;
            eprintln!(
                "bench_report: REGRESSION {}: {} is {:.1}% of the committed {} \
                 (allowed floor {:.1}%)",
                figure.name,
                fmt_figure(figure.fresh),
                ratio * 100.0,
                fmt_figure(figure.baseline),
                (1.0 - band) * 100.0
            );
        } else if ratio > 1.0 + band {
            println!(
                "bench_report: note: {} improved to {:.1}% of the committed baseline — \
                 consider re-baselining (full run, commit the refreshed BENCH_*.json)",
                figure.name,
                ratio * 100.0
            );
        } else {
            println!(
                "bench_report: ok {}: {} vs committed {} ({:.1}%)",
                figure.name,
                fmt_figure(figure.fresh),
                fmt_figure(figure.baseline),
                ratio * 100.0
            );
        }
    }
    regressions
}

fn load_baseline<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("cannot read {}: {error}", path.display()))?;
    serde_json::from_str(&text).map_err(|error| format!("cannot parse {}: {error}", path.display()))
}

/// Picks the baseline path for one report: the last `--baseline` override
/// whose file name contains `key` wins, falling back to
/// `<baseline_dir>/<default_name>`.
fn resolve_baseline(
    baseline_dir: &Path,
    overrides: &[PathBuf],
    key: &str,
    default_name: &str,
) -> PathBuf {
    overrides
        .iter()
        .rev()
        .find(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.to_ascii_lowercase().contains(key))
        })
        .cloned()
        .unwrap_or_else(|| baseline_dir.join(default_name))
}

fn main() -> ExitCode {
    // Validate the BSOM_DISPATCH override eagerly: a misspelt or unavailable
    // dispatch must fail the report up front with a clean message, not panic
    // inside the first measured kernel call.
    if let Err(error) = bsom_signature::validate_env_dispatch() {
        eprintln!("bench_report: {error}");
        return ExitCode::FAILURE;
    }
    let mut smoke = false;
    let mut check = false;
    let mut noise_band = 0.25f64;
    let mut out_dir = PathBuf::from(".");
    let mut baseline_dir = PathBuf::from(".");
    let mut baseline_overrides: Vec<PathBuf> = Vec::new();
    let mut only: Option<Selection> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--only" => {
                let selection = only.get_or_insert(Selection {
                    train: false,
                    recognition: false,
                    large: false,
                    serve: false,
                    registry: false,
                    pipeline: false,
                });
                match args.next().as_deref() {
                    Some("train") => selection.train = true,
                    Some("recognition") => selection.recognition = true,
                    Some("large") => selection.large = true,
                    Some("serve") => selection.serve = true,
                    Some("registry") => selection.registry = true,
                    Some("pipeline") => selection.pipeline = true,
                    other => {
                        eprintln!(
                            "--only requires one of \"train\", \"recognition\", \"large\", \
                             \"serve\", \"registry\", \"pipeline\" (got {other:?})"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--noise-band" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(band) if band > 0.0 && band < 1.0 => noise_band = band,
                _ => {
                    eprintln!("--noise-band requires a value in (0, 1)");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline-dir" => match args.next() {
                Some(dir) => baseline_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--baseline-dir requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match args.next() {
                Some(file) => {
                    let lower = Path::new(&file)
                        .file_name()
                        .and_then(|name| name.to_str())
                        .map(str::to_ascii_lowercase)
                        .unwrap_or_default();
                    // Exactly one key, so one file can never override two
                    // reports (gating a report against another's document
                    // would only surface as a confusing parse error).
                    let keys = [
                        lower.contains("train"),
                        lower.contains("recognition"),
                        lower.contains("large"),
                        lower.contains("serve"),
                        lower.contains("registry"),
                        lower.contains("pipeline"),
                    ];
                    if keys.iter().filter(|&&k| k).count() != 1 {
                        eprintln!(
                            "--baseline file name must contain exactly one of \"train\", \
                             \"recognition\", \"large\", \"serve\", \"registry\" or \
                             \"pipeline\" so the reporter knows which report it overrides: \
                             {file}"
                        );
                        return ExitCode::FAILURE;
                    }
                    baseline_overrides.push(PathBuf::from(file));
                }
                None => {
                    eprintln!("--baseline requires a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "bench_report [--smoke] [--out DIR] [--check] [--noise-band F] \
                     [--baseline-dir DIR] [--baseline FILE]... [--only KEY]..."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unrecognised argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(error) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {error}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let selection = only.unwrap_or(Selection {
        train: true,
        recognition: true,
        large: true,
        serve: true,
        registry: true,
        pipeline: true,
    });
    let mode = if smoke { "smoke" } else { "full" };
    let min_duration = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(1500)
    };

    let dataset = if selection.train || selection.recognition || selection.large {
        println!("bench_report: generating the shared fixture dataset...");
        Some(bench_dataset())
    } else {
        None
    };

    // --- Training: bit-serial vs the window trainer on the paper configuration.
    let train_report = dataset.as_ref().filter(|_| selection.train).map(|dataset| {
        println!("bench_report: measuring training throughput ({mode})...");
        let train = compare_training_throughput(
            BSomConfig::paper_default(),
            &dataset.train_signatures(),
            min_duration,
            0xB50A,
        );
        println!("{train}");
        TrainBenchReport {
            mode: mode.to_string(),
            min_duration_seconds: min_duration.as_secs_f64(),
            speedup_window_over_bit_serial: train.speedup(),
            comparison: train,
        }
    });

    // --- Recognition: scalar vs batched vs service on a trained map.
    let recognition_report = dataset
        .as_ref()
        .filter(|_| selection.recognition)
        .map(|dataset| {
            println!("bench_report: measuring recognition throughput ({mode})...");
            let test_signatures: Vec<_> = dataset.test.iter().map(|(s, _)| s.clone()).collect();
            let mut rng = StdRng::seed_from_u64(0xB50A);
            let mut som = bsom_som::BSom::new(BSomConfig::paper_default(), &mut rng);
            som.train_labelled_data(&dataset.train, TrainSchedule::new(3), &mut rng)
                .expect("fixture dataset is non-empty");
            let classifier = LabelledSom::label(som.clone(), &dataset.train);
            let service = SomService::serve(&classifier, EngineConfig::default());
            let recognition = compare_recognition_throughput(
                &service,
                &som,
                &test_signatures,
                FpgaConfig::paper_default(),
                min_duration,
            );
            println!("{recognition}");

            // --- Per-dispatch distance pass at the 1024 x 768 scale shape:
            // an untrained map is the right fixture here (the kernels do not
            // branch on weight content) and the large shape keeps the pass
            // out of pure L1-resident territory, where the lane speedups
            // actually matter.
            println!("bench_report: measuring per-dispatch distance-pass throughput ({mode})...");
            let mut dispatch_rng = StdRng::seed_from_u64(0xD15B);
            let dispatch_som = bsom_som::BSom::new(BSomConfig::new(1024, 768), &mut dispatch_rng);
            let dispatch = compare_dispatch_throughput(
                dispatch_som.packed_layer(),
                &test_signatures,
                min_duration,
            );
            println!("{dispatch}");

            // --- Inline vs pool classify: the crossover that sets the
            // engine's inline limit, under both ends of the dispatch range.
            println!("bench_report: measuring the inline-vs-pool classify crossover ({mode})...");
            let crossover: Vec<InlineCrossover> = [Dispatch::Scalar, Dispatch::detect()]
                .into_iter()
                .map(|dispatch| {
                    let sweep = compare_inline_crossover(
                        &[40, 128, 512, 1024],
                        &[1, 2, 4, 16, 64, 150],
                        768,
                        2,
                        dispatch,
                        min_duration / 5,
                        0xC205,
                    );
                    println!("{sweep}");
                    sweep
                })
                .collect();

            RecognitionBenchReport {
                mode: mode.to_string(),
                min_duration_seconds: min_duration.as_secs_f64(),
                speedup_batched_over_scalar: recognition.batched_speedup_over_scalar(),
                speedup_engine_over_scalar: recognition.engine_speedup_over_scalar(),
                speedup_widest_dispatch_over_scalar: dispatch.widest_speedup_over_scalar(),
                comparison: recognition,
                dispatch,
                crossover,
            }
        });

    // --- Large map: CoW publish + winner search at 1024 x 768.
    let large_report = dataset.as_ref().filter(|_| selection.large).map(|dataset| {
        println!("bench_report: measuring large-map publish/search costs ({mode})...");
        let large_signatures: Vec<_> = dataset
            .train_signatures()
            .iter()
            .take(64)
            .cloned()
            .collect();
        let large = compare_large_map_throughput(
            BSomConfig::new(1024, 768),
            &large_signatures,
            min_duration,
            0xB50A,
        );
        println!("{large}");

        // --- Checkpoint durability cost at the same 1024 x 768 shape: full
        // commit (serialise + frame + fsync + rename) and full restore
        // (decode + validate + service re-spawn) per second.
        println!("bench_report: measuring checkpoint write/restore throughput ({mode})...");
        let checkpoint =
            compare_checkpoint_throughput(BSomConfig::new(1024, 768), 64, min_duration, 0xB50A);
        println!("{checkpoint}");

        LargeMapBenchReport {
            mode: mode.to_string(),
            min_duration_seconds: min_duration.as_secs_f64(),
            publish_speedup_over_repack: large.publish_speedup_over_repack(),
            comparison: large,
            checkpoint,
        }
    });

    // --- The serving front-end: live loopback server, concurrent trainer.
    let serve_report = selection.serve.then(|| {
        println!("bench_report: measuring serving front-end throughput ({mode})...");
        let serve = measure_serve(&ServeBenchConfig {
            min_duration,
            seed: 0xB50A,
        });
        println!(
            "serve large-batch: in-process {:.0} sigs/s, over the wire {:.0} sigs/s \
             (ratio {:.2}); small mix: {:.0} req/s (p50 {:.3} ms, p99 {:.2} ms)",
            serve.large.inprocess_signatures_per_second,
            serve.large.serve.signatures_per_second,
            serve.large.serve_over_inprocess,
            serve.small.serve.requests_per_second,
            serve.small.serve.latency.p50_ms,
            serve.small.serve.latency.p99_ms,
        );
        ServeBenchDocument {
            mode: mode.to_string(),
            min_duration_seconds: min_duration.as_secs_f64(),
            comparison: serve,
        }
    });

    // --- The multi-tenant facade: 64 paper-sized tenants behind one
    // registry, measured against a bare trainer on the same map shape.
    let registry_report = selection.registry.then(|| {
        println!("bench_report: measuring multi-tenant registry throughput ({mode})...");
        let registry =
            compare_registry_throughput(64, BSomConfig::new(40, 768), min_duration, 0xB50A);
        println!("{registry}");
        RegistryBenchReport {
            mode: mode.to_string(),
            min_duration_seconds: min_duration.as_secs_f64(),
            registry_step_overhead: registry.registry_step_overhead(),
            comparison: registry,
        }
    });

    // --- The Fig. 1 path end to end on the populated scene clip.
    let pipeline_report = selection.pipeline.then(|| {
        println!("bench_report: measuring the frame-to-prediction pipeline ({mode})...");
        let pipeline = measure_pipeline(min_duration);
        println!("{pipeline}");
        PipelineBenchDocument {
            mode: mode.to_string(),
            min_duration_seconds: min_duration.as_secs_f64(),
            pipeline,
        }
    });

    // --- Regression gate against the committed baselines.
    if check {
        let mut figures: Vec<CheckedFigure> = Vec::new();
        let mut checked_paths: Vec<String> = Vec::new();
        let train_pair = match &train_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "train",
                    "BENCH_train.json",
                );
                let baseline: TrainBenchReport = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        let recognition_pair = match &recognition_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "recognition",
                    "BENCH_recognition.json",
                );
                let baseline: RecognitionBenchReport = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        let large_pair = match &large_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "large",
                    "BENCH_large_map.json",
                );
                let baseline: LargeMapBenchReport = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        let serve_pair = match &serve_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "serve",
                    "BENCH_serve.json",
                );
                let baseline: ServeBenchDocument = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        let registry_pair = match &registry_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "registry",
                    "BENCH_registry.json",
                );
                let baseline: RegistryBenchReport = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        let pipeline_pair = match &pipeline_report {
            Some(fresh) => {
                let path = resolve_baseline(
                    &baseline_dir,
                    &baseline_overrides,
                    "pipeline",
                    "BENCH_pipeline.json",
                );
                let baseline: PipelineBenchDocument = match load_baseline(&path) {
                    Ok(report) => report,
                    Err(error) => {
                        eprintln!("bench_report: {error}");
                        return ExitCode::FAILURE;
                    }
                };
                checked_paths.push(path.display().to_string());
                Some((fresh, baseline))
            }
            None => None,
        };
        println!(
            "bench_report: checking against {} (noise band ±{:.0}%)...",
            checked_paths.join(", "),
            noise_band * 100.0
        );
        if let Some((train_report, train_baseline)) = &train_pair {
            figures.extend([
                CheckedFigure {
                    name: "train.bit_serial steps/s",
                    baseline: train_baseline.comparison.bit_serial.patterns_per_second,
                    fresh: train_report.comparison.bit_serial.patterns_per_second,
                },
                CheckedFigure {
                    name: "train.window steps/s",
                    baseline: train_baseline.comparison.window.patterns_per_second,
                    fresh: train_report.comparison.window.patterns_per_second,
                },
                // Dimensionless speedups: these stay comparable even when the
                // run and the committed baseline come from different machines,
                // so the gate still means something on heterogeneous CI.
                CheckedFigure {
                    name: "train.window/bit_serial speedup",
                    baseline: train_baseline.speedup_window_over_bit_serial,
                    fresh: train_report.speedup_window_over_bit_serial,
                },
            ]);
        }
        if let Some((recognition_report, recognition_baseline)) = &recognition_pair {
            figures.extend([
                CheckedFigure {
                    name: "recognition.scalar signatures/s",
                    baseline: recognition_baseline.comparison.scalar.patterns_per_second,
                    fresh: recognition_report.comparison.scalar.patterns_per_second,
                },
                CheckedFigure {
                    name: "recognition.batched signatures/s",
                    baseline: recognition_baseline.comparison.batched.patterns_per_second,
                    fresh: recognition_report.comparison.batched.patterns_per_second,
                },
                CheckedFigure {
                    name: "recognition.engine signatures/s",
                    baseline: recognition_baseline.comparison.engine.patterns_per_second,
                    fresh: recognition_report.comparison.engine.patterns_per_second,
                },
                CheckedFigure {
                    name: "recognition.engine/scalar speedup",
                    baseline: recognition_baseline.speedup_engine_over_scalar,
                    fresh: recognition_report.speedup_engine_over_scalar,
                },
                // The per-dispatch distance pass: absolute throughput of the
                // forced-scalar and widest lowerings, plus their dimensionless
                // ratio — the gate that notices the SIMD widening silently
                // stopped being selected (ratio collapses to ~1.0) or stopped
                // being fast.
                CheckedFigure {
                    name: "recognition.dispatch.scalar passes/s",
                    baseline: recognition_baseline.dispatch.scalar.patterns_per_second,
                    fresh: recognition_report.dispatch.scalar.patterns_per_second,
                },
                CheckedFigure {
                    name: "recognition.dispatch.widest passes/s",
                    baseline: recognition_baseline.dispatch.widest.patterns_per_second,
                    fresh: recognition_report.dispatch.widest.patterns_per_second,
                },
                CheckedFigure {
                    name: "recognition.dispatch widest/scalar speedup",
                    baseline: recognition_baseline.speedup_widest_dispatch_over_scalar,
                    fresh: recognition_report.speedup_widest_dispatch_over_scalar,
                },
            ]);
        }
        if let Some((large_report, large_baseline)) = &large_pair {
            figures.extend([
                // The 1024-neuron scale gates: copy-on-write publish cadence
                // under training and winner-search throughput.
                CheckedFigure {
                    name: "large_map.publish publishes/s",
                    baseline: large_baseline
                        .comparison
                        .publish_under_training
                        .patterns_per_second,
                    fresh: large_report
                        .comparison
                        .publish_under_training
                        .patterns_per_second,
                },
                CheckedFigure {
                    name: "large_map.winner searches/s",
                    baseline: large_baseline.comparison.winner_search.patterns_per_second,
                    fresh: large_report.comparison.winner_search.patterns_per_second,
                },
                CheckedFigure {
                    name: "large_map.publish/repack speedup",
                    baseline: large_baseline.publish_speedup_over_repack,
                    fresh: large_report.publish_speedup_over_repack,
                },
                // Durability costs: a regression here means checkpointing became
                // expensive enough to change how often a deployment can afford
                // to run it.
                CheckedFigure {
                    name: "large_map.checkpoint writes/s",
                    baseline: large_baseline.checkpoint.write.patterns_per_second,
                    fresh: large_report.checkpoint.write.patterns_per_second,
                },
                CheckedFigure {
                    name: "large_map.checkpoint restores/s",
                    baseline: large_baseline.checkpoint.restore.patterns_per_second,
                    fresh: large_report.checkpoint.restore.patterns_per_second,
                },
            ]);
        }
        if let Some((serve_report, serve_baseline)) = &serve_pair {
            figures.extend([
                // The serving front-end: wire throughput on large batches and
                // on a singleton mix. Only bigger-is-better figures are gated;
                // latencies are recorded in the document but too
                // machine-sensitive to fail CI on.
                CheckedFigure {
                    name: "serve.large signatures/s",
                    baseline: serve_baseline.comparison.large.serve.signatures_per_second,
                    fresh: serve_report.comparison.large.serve.signatures_per_second,
                },
                CheckedFigure {
                    name: "serve.large serve/inprocess ratio",
                    baseline: serve_baseline.comparison.large.serve_over_inprocess,
                    fresh: serve_report.comparison.large.serve_over_inprocess,
                },
                CheckedFigure {
                    name: "serve.small requests/s",
                    baseline: serve_baseline.comparison.small.serve.requests_per_second,
                    fresh: serve_report.comparison.small.serve.requests_per_second,
                },
            ]);
        }
        if let Some((registry_report, registry_baseline)) = &registry_pair {
            figures.extend([
                // The facade legs: training steps through the registry and
                // facade classifies, plus the spill round-trip rate the LRU
                // evictor leans on. The dimensionless step-overhead ratio is
                // the figure that stays meaningful across machines.
                CheckedFigure {
                    name: "registry.feed+tick steps/s",
                    baseline: registry_baseline
                        .comparison
                        .registry_steps
                        .patterns_per_second,
                    fresh: registry_report
                        .comparison
                        .registry_steps
                        .patterns_per_second,
                },
                CheckedFigure {
                    name: "registry.classify signatures/s",
                    baseline: registry_baseline
                        .comparison
                        .registry_classify
                        .patterns_per_second,
                    fresh: registry_report
                        .comparison
                        .registry_classify
                        .patterns_per_second,
                },
                CheckedFigure {
                    name: "registry.spill round-trips/s",
                    baseline: registry_baseline
                        .comparison
                        .spill_roundtrips
                        .patterns_per_second,
                    fresh: registry_report
                        .comparison
                        .spill_roundtrips
                        .patterns_per_second,
                },
                CheckedFigure {
                    name: "registry.step-overhead ratio",
                    baseline: registry_baseline.registry_step_overhead,
                    fresh: registry_report.registry_step_overhead,
                },
            ]);
        }
        if let Some((pipeline_report, pipeline_baseline)) = &pipeline_pair {
            // The end-to-end frame rate with the kernels forced to scalar and
            // to the widest lowering; the stage times are recorded to
            // explain it, not gated one by one.
            figures.extend([
                CheckedFigure {
                    name: "pipeline.scalar frames/s",
                    baseline: pipeline_baseline.pipeline.scalar.frames_per_second,
                    fresh: pipeline_report.pipeline.scalar.frames_per_second,
                },
                CheckedFigure {
                    name: "pipeline.widest frames/s",
                    baseline: pipeline_baseline.pipeline.widest.frames_per_second,
                    fresh: pipeline_report.pipeline.widest.frames_per_second,
                },
            ]);
        }
        let regressions = check_figures(&figures, noise_band);
        if regressions > 0 {
            eprintln!(
                "bench_report: {regressions} figure(s) regressed beyond the ±{:.0}% noise band",
                noise_band * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("bench_report: all figures within the noise band");
    }

    let mut outputs: Vec<(&str, serde_json::Result<String>)> = Vec::new();
    if let Some(report) = &train_report {
        outputs.push(("BENCH_train.json", serde_json::to_string_pretty(report)));
    }
    if let Some(report) = &recognition_report {
        outputs.push((
            "BENCH_recognition.json",
            serde_json::to_string_pretty(report),
        ));
    }
    if let Some(report) = &large_report {
        outputs.push(("BENCH_large_map.json", serde_json::to_string_pretty(report)));
    }
    if let Some(report) = &serve_report {
        outputs.push(("BENCH_serve.json", serde_json::to_string_pretty(report)));
    }
    if let Some(report) = &registry_report {
        outputs.push(("BENCH_registry.json", serde_json::to_string_pretty(report)));
    }
    if let Some(report) = &pipeline_report {
        outputs.push(("BENCH_pipeline.json", serde_json::to_string_pretty(report)));
    }
    for (name, json) in outputs {
        let path = out_dir.join(name);
        let json = match json {
            Ok(json) => json,
            Err(error) => {
                eprintln!("serializing {name}: {error}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(error) = std::fs::write(&path, json + "\n") {
            eprintln!("writing {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        println!("bench_report: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
