//! Observability summarizer: runs the metered defense pass and renders the
//! Fig. 14/16-style tables plus the deterministic metrics JSON.
//!
//! ```text
//! obs_report [--seed N] [--threads N] [--smoke] [--jsonl PATH]
//! ```
//!
//! `--smoke` restricts the pass to the 2-program CI slice. `--jsonl` also
//! writes every metric (including wall-clock timers) as one JSON object per
//! line, ready for offline analysis.

use std::process::ExitCode;

use evax_bench::cli::{self, Args};
use evax_bench::obs_pass::{default_programs, smoke_programs};
use evax_bench::obs_report::obs_report;
use evax_core::par::Parallelism;

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (seed, parallelism, smoke, jsonl) = cli::parse(parse)?;
    let programs = if smoke {
        smoke_programs()
    } else {
        default_programs()
    };
    let (registry, report) = obs_report(seed, parallelism, &programs);
    print!("{report}");
    if let Some(path) = jsonl {
        cli::write(&path, &registry.to_jsonl())?;
        eprintln!("wrote metrics JSONL to {path}");
    }
    Ok(())
}

/// The command line: seed, worker setting, `--smoke`, JSONL path.
fn parse(argv: Vec<String>) -> Result<(u64, Parallelism, bool, Option<String>), String> {
    let mut args = Args::new(
        "obs_report [--seed N] [--threads N] [--smoke] [--jsonl PATH]",
        argv,
    );
    let (mut seed, mut parallelism, mut jsonl) = (42, Parallelism::Auto, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = args.seed()?,
            "--threads" => parallelism = args.threads()?,
            "--smoke" => {}
            "--jsonl" => jsonl = Some(args.path()?),
            _ => return Err(args.unknown()),
        }
    }
    Ok((seed, parallelism, args.smoke, jsonl))
}
