//! Fast-forward benchmark driver: measures the functional execution mode
//! and snapshot warm-start end to end and writes `BENCH_ff.json`.
//!
//! ```text
//! ff [--seed N] [--threads N] [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` is the CI setting: shorter programs and a small fleet, enough
//! to prove the artifact is produced and well-formed. Exits non-zero if the
//! artifact cannot be written.

use std::process::ExitCode;

use evax_bench::cli;
use evax_bench::ff_bench::{self, run_ff_bench};

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let (cfg, out) = cli::parse(ff_bench::cli)?;

    let report = run_ff_bench(&cfg);
    cli::emit(&report.to_json(), &out)?;
    eprintln!(
        "[ff] functional {:.0} instrs/s vs detailed {:.0} instrs/s ({:.1}x); \
         corpus {:.2}x, fleet warm {:.2}x, drift flip rate {:.3}",
        report.functional.ips(),
        report.detailed.ips(),
        report.functional.ips() / report.detailed.ips().max(1e-9),
        report.corpus.detailed_secs / report.corpus.ff_secs.max(1e-9),
        report.fleet.cold_secs / report.fleet.warm_secs.max(1e-9),
        report.drift.flip_rate()
    );
    Ok(())
}
