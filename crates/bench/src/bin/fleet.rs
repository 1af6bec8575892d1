//! Fleet service benchmark driver: runs the sharded multi-stream detection
//! service and writes `BENCH_fleet.json`.
//!
//! ```text
//! fleet [--streams N] [--seed N] [--threads N] [--smoke] [--no-quant] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: a small fleet (64 streams unless
//! `--streams` says otherwise) with short streams, enough to prove the
//! artifact is produced and well-formed. Exits non-zero if the batched
//! drain fails to reproduce per-window verdicts (asserted inside the drain
//! microbenchmark) or the artifact cannot be written.

use std::process::ExitCode;

use evax_bench::cli;
use evax_bench::fleet_bench::{self, run_fleet_bench};

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (cfg, out) = cli::parse(fleet_bench::cli)?;

    let report = run_fleet_bench(&cfg);
    cli::emit(&report.to_json(), &out)?;
    eprintln!(
        "[fleet] batched {:.0} windows/s (p50 {} ns, p99 {} ns); drain speedup {:.2}x",
        report.batched_f32.windows_per_sec,
        report.batched_f32.p50_ns,
        report.batched_f32.p99_ns,
        report.drain.speedup
    );
    Ok(())
}
