//! The repository benchmark: end-to-end and per-layer figures of the bSOM
//! recognition stack on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload camera --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run plus its tracing overhead. Without
//! `--workload` (or with `--workload all`) every workload runs in its own
//! process. The last line of standard output is the JSON result; the exit
//! code is non-zero when any output differed from its oracle.

mod camera;
mod common;
mod fleet;
mod large_map;
mod measure;
mod report;
mod serve;

use std::process::{Command, ExitCode};

use common::RunArgs;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["camera", "serve", "fleet", "large_map"];

struct Args {
    workload: Option<String>,
    run: RunArgs,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.filter(|w| w != "all"),
        run: RunArgs { seed, seconds },
        trace,
    })
}

fn run_workload(name: &str, args: RunArgs, trace: bool) -> Option<Outcome> {
    let outcome = match (name, trace) {
        ("camera", false) => camera::run(args),
        ("camera", true) => camera::run_traced(args),
        ("serve", false) => serve::run(args),
        ("serve", true) => serve::run_traced(args),
        ("fleet", false) => fleet::run(args),
        ("fleet", true) => fleet::run_traced(args),
        ("large_map", false) => large_map::run(args),
        ("large_map", true) => large_map::run_traced(args),
        _ => return None,
    };
    Some(outcome)
}

/// Runs every workload in a child process of its own, relaying its output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("perfbench: cannot locate its own executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.run.seed.to_string()])
            .args(["--seconds", &args.run.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {workload} failed ({status})");
                ok = false;
            }
            Err(error) => {
                eprintln!("perfbench: cannot start workload {workload}: {error}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            eprintln!(
                "usage: perfbench [--workload camera|serve|fleet|large_map|all] [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.as_deref() else {
        return run_all(&args);
    };
    println!(
        "{workload}: seed {} seconds {} trace {} available_parallelism {}",
        args.run.seed,
        args.run.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let Some(outcome) = run_workload(workload, args.run, args.trace) else {
        eprintln!("perfbench: unknown workload {workload}; expected one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    outcome.print(workload, if args.trace { PER_LAYER } else { END_TO_END });
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {workload} attempted nothing or produced outputs that differ from the oracle");
        ExitCode::FAILURE
    }
}
