//! The `bsom-serve` binary: a train-while-serve bSOM behind the wire
//! protocol.
//!
//! ```text
//! bsom-serve --addr 127.0.0.1:7171 --neurons 40 --labels 4
//! ```
//!
//! Builds a synthetic labelled corpus, starts a `SomService` with a trainer
//! thread feeding and publishing continuously, and serves classify /
//! health / drain requests until a client sends a drain frame (or the
//! process is killed). With `--checkpoint PATH` the graceful drain stops
//! the trainer and writes a crash-safe checkpoint before the drain response
//! goes out. With `--addr-file PATH` the bound address (useful with port 0)
//! is written for scripts to pick up.
//!
//! With `--tenants N` the binary fronts a [`MapRegistry`] instead of one
//! map: N tenants named `tenant-0` .. `tenant-{N-1}` (format-1 frames route
//! to `tenant-0`), a training pump thread spreading `--tick-budget` steps
//! per tick fairly across tenants, and optional LRU eviction to
//! `--spill-dir` when more than `--max-resident` tenants are resident.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bsom_engine::{EngineConfig, MapRegistry, RegistryConfig};
use bsom_serve::bench::{bench_service, synthetic_corpus};
use bsom_serve::server::{DrainHook, ServeConfig, Server};
use bsom_som::{BSom, BSomConfig, TrainSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    addr: String,
    addr_file: Option<String>,
    checkpoint: Option<String>,
    neurons: usize,
    vector_len: usize,
    labels: usize,
    seed: u64,
    tenants: usize,
    max_resident: usize,
    spill_dir: Option<String>,
    tick_budget: u64,
}

impl Args {
    fn defaults() -> Args {
        Args {
            addr: "127.0.0.1:0".to_string(),
            addr_file: None,
            checkpoint: None,
            neurons: 40,
            vector_len: 768,
            labels: 4,
            seed: 42,
            tenants: 0,
            max_resident: 0,
            spill_dir: None,
            tick_budget: 256,
        }
    }
}

const USAGE: &str = "usage: bsom-serve [--addr HOST:PORT] [--addr-file PATH] \
[--checkpoint PATH] [--neurons N] [--vector-len BITS] [--labels N] [--seed N] \
[--tenants N] [--max-resident N] [--spill-dir PATH] [--tick-budget STEPS]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::defaults();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--addr-file" => args.addr_file = Some(value("--addr-file")?),
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--neurons" => args.neurons = parse(&value("--neurons")?)?,
            "--vector-len" => args.vector_len = parse(&value("--vector-len")?)?,
            "--labels" => args.labels = parse(&value("--labels")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--tenants" => args.tenants = parse(&value("--tenants")?)?,
            "--max-resident" => args.max_resident = parse(&value("--max-resident")?)?,
            "--spill-dir" => args.spill_dir = Some(value("--spill-dir")?),
            "--tick-budget" => args.tick_budget = parse(&value("--tick-budget")?)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("cannot parse {raw:?}: {e}"))
}

/// The multi-tenant path: a [`MapRegistry`] of `--tenants` synthetic maps
/// behind [`Server::bind_registry`], with a training pump thread draining
/// the tenants' pending queues fairly (`--tick-budget` steps per tick).
fn run_registry(args: &Args, dispatch: bsom_signature::Dispatch) -> ExitCode {
    if args.max_resident > 0 && args.spill_dir.is_none() {
        eprintln!("bsom-serve: --max-resident needs --spill-dir to evict into\n{USAGE}");
        return ExitCode::from(2);
    }
    let mut config = RegistryConfig::new(EngineConfig::default().with_publish_every_steps(64));
    if let Some(dir) = &args.spill_dir {
        if let Err(error) = std::fs::create_dir_all(dir) {
            eprintln!("bsom-serve: cannot create spill dir {dir}: {error}");
            return ExitCode::from(2);
        }
        config = config.with_spill_dir(dir);
    }
    if args.max_resident > 0 {
        config = config.with_max_resident(args.max_resident);
    }
    let registry = Arc::new(MapRegistry::new(config));
    let corpus = synthetic_corpus(args.vector_len, args.labels, 8, 24, args.seed);
    for tenant in 0..args.tenants {
        let som = BSom::new(
            BSomConfig::new(args.neurons, args.vector_len),
            &mut StdRng::seed_from_u64(args.seed.wrapping_add(tenant as u64)),
        );
        if let Err(error) = registry.create_tenant(
            format!("tenant-{tenant}"),
            som,
            TrainSchedule::new(usize::MAX),
            &corpus,
        ) {
            eprintln!("bsom-serve: cannot create tenant-{tenant}: {error}");
            return ExitCode::from(1);
        }
    }

    // The pump is what turns wire-fed examples into training steps; the
    // drain hook stops it, after which the server's own drain path flushes
    // whatever is still pending.
    let stop = Arc::new(AtomicBool::new(false));
    let pump_stop = Arc::clone(&stop);
    let pump_registry = Arc::clone(&registry);
    let budget = args.tick_budget;
    let pump = std::thread::spawn(move || {
        while !pump_stop.load(Ordering::Relaxed) {
            let report = pump_registry.train_tick(budget);
            for (tenant, error) in &report.failures {
                eprintln!("bsom-serve: tenant {tenant} failed a training step: {error}");
            }
            if report.steps == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    let drain_hook: DrainHook = Box::new(move || {
        stop.store(true, Ordering::Relaxed);
        let _ = pump.join();
        false
    });

    let server = match Server::bind_registry(
        Arc::clone(&registry),
        "tenant-0",
        args.addr.as_str(),
        ServeConfig::default(),
        Some(drain_hook),
    ) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("bsom-serve: cannot bind {}: {error}", args.addr);
            return ExitCode::from(1);
        }
    };
    let local_addr: SocketAddr = server.local_addr();
    if let Some(path) = &args.addr_file {
        if let Err(error) = std::fs::write(path, local_addr.to_string()) {
            eprintln!("bsom-serve: cannot write --addr-file {path}: {error}");
            return ExitCode::from(1);
        }
    }
    eprintln!(
        "bsom-serve: serving {} tenants of {} neurons x {} bits on {local_addr} \
         (dispatch {dispatch:?}, max_resident {}); send a drain frame to stop",
        args.tenants, args.neurons, args.vector_len, args.max_resident
    );

    let summary = server.wait_until_drained();
    server.join();
    let stats = registry.stats();
    eprintln!(
        "bsom-serve: drained cleanly — {} training steps flushed, {} total steps, \
         {} evictions, {} reloads, final default-tenant snapshot v{}",
        summary.requests_flushed,
        stats.steps_total,
        stats.evictions_total,
        stats.reloads_total,
        summary.final_version
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Fail fast on a bad BSOM_DISPATCH before any map exists.
    let dispatch = match bsom_signature::validate_env_dispatch() {
        Ok(dispatch) => dispatch,
        Err(error) => {
            eprintln!("bsom-serve: {error}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    if args.tenants > 0 {
        return run_registry(&args, dispatch);
    }

    let corpus = synthetic_corpus(args.vector_len, args.labels, 32, 24, args.seed);
    let (service, trainer) = bench_service(args.neurons, args.vector_len, args.seed, &corpus);

    // The trainer runs until the drain hook stops it; the hook then owns
    // the trainer again and may write the checkpoint.
    let stop = Arc::new(AtomicBool::new(false));
    let trainer_stop = Arc::clone(&stop);
    let feed = corpus.clone();
    let trainer_thread = std::thread::spawn(move || {
        let mut trainer = trainer;
        let mut step = 0usize;
        'outer: loop {
            for (signature, label) in &feed {
                if trainer_stop.load(Ordering::Relaxed) {
                    break 'outer;
                }
                let _ = trainer.feed(signature, *label);
                step += 1;
                if step.is_multiple_of(64) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
        trainer
    });
    let checkpoint_path = args.checkpoint.clone();
    let drain_hook: DrainHook = Box::new(move || {
        stop.store(true, Ordering::Relaxed);
        let Ok(trainer) = trainer_thread.join() else {
            eprintln!("bsom-serve: trainer thread panicked; no checkpoint written");
            return false;
        };
        let Some(path) = checkpoint_path else {
            return false;
        };
        match trainer.write_checkpoint(&path) {
            Ok(info) => {
                eprintln!(
                    "bsom-serve: drain checkpoint written to {path} (snapshot v{})",
                    info.version
                );
                true
            }
            Err(error) => {
                eprintln!("bsom-serve: drain checkpoint failed: {error}");
                false
            }
        }
    });

    let server = match Server::bind(
        service,
        args.addr.as_str(),
        ServeConfig::default(),
        Some(drain_hook),
    ) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("bsom-serve: cannot bind {}: {error}", args.addr);
            return ExitCode::from(1);
        }
    };
    let local_addr: SocketAddr = server.local_addr();
    if let Some(path) = &args.addr_file {
        if let Err(error) = std::fs::write(path, local_addr.to_string()) {
            eprintln!("bsom-serve: cannot write --addr-file {path}: {error}");
            return ExitCode::from(1);
        }
    }
    eprintln!(
        "bsom-serve: serving {} neurons x {} bits on {local_addr} (dispatch {dispatch:?}); \
         send a drain frame to stop",
        args.neurons, args.vector_len
    );

    let summary = server.wait_until_drained();
    server.join();
    eprintln!(
        "bsom-serve: drained cleanly — {} requests flushed, checkpoint_written={}, final snapshot v{}",
        summary.requests_flushed, summary.checkpoint_written, summary.final_version
    );
    ExitCode::SUCCESS
}
