//! Chaos harness driver: runs the injector × subsystem fault matrix and
//! renders the survival table.
//!
//! ```text
//! fault_matrix [--seed N] [--iters N] [--threads N] [--smoke]
//! ```
//!
//! `--smoke` sets the per-cell iteration count to 2 (the CI setting)
//! unless `--iters` says otherwise. Exits non-zero when any cell panicked
//! or failed open — the harness's whole point is that it never does.

use std::process::ExitCode;

use evax_bench::cli::{self, Args};
use evax_bench::fault_matrix::run_fault_matrix;
use evax_core::par::Parallelism;

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (seed, iters, parallelism) = cli::parse(parse)?;
    let matrix = run_fault_matrix(seed, iters, parallelism);
    print!("{}", matrix.render());
    if matrix.violations().is_empty() {
        Ok(())
    } else {
        Err(ExitCode::FAILURE)
    }
}

/// The command line: seed, per-cell iterations (2 under `--smoke`, else
/// 8), worker setting.
fn parse(argv: Vec<String>) -> Result<(u64, u32, Parallelism), String> {
    let mut args = Args::new(
        "fault_matrix [--seed N] [--iters N] [--threads N] [--smoke]",
        argv,
    );
    let (mut seed, mut parallelism) = (42, Parallelism::Auto);
    let mut iters = if args.smoke { 2 } else { 8 };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.seed()?,
            "--iters" => iters = args.positive()?,
            "--threads" => parallelism = args.threads()?,
            "--smoke" => {}
            _ => return Err(args.unknown()),
        }
    }
    Ok((seed, iters, parallelism))
}
