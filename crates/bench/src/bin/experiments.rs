//! The experiment runner: regenerates every table and figure of the EVAX
//! paper's evaluation.
//!
//! ```text
//! experiments <id>... [--seed N] [--scale small|full] [--threads N] [--json]
//!             [--metrics-out PATH]
//! experiments all [--seed N] [--scale small|full]
//! experiments list
//! ```
//!
//! Experiments fan out across worker threads (`--threads`, default: all
//! cores / `EVAX_THREADS`); every experiment derives its randomness from the
//! shared seed alone, so reports are identical at any thread count and are
//! printed in id order regardless of completion order. `--json` replaces the
//! text reports with a machine-readable timing summary: wall-clock per
//! experiment plus the trained pipeline's per-stage breakdown, and a
//! `metrics` block from a metered defense pass (see
//! `evax_bench::obs_pass`) whose simulated quantities are byte-identical at
//! any thread count. `--metrics-out` additionally writes that registry —
//! wall-clock timers included — as JSONL.

use std::process::ExitCode;

use evax_bench::artifact::{header, threads, Object, Value};
use evax_bench::cli::{self, Args};
use evax_bench::{run_experiment, ExperimentScale, Harness, EXPERIMENT_IDS};
use evax_core::par::{self, Parallelism};

const USAGE: &str = "experiments <id>... [--seed N] [--scale small|full] [--threads N] [--json] \
                     [--metrics-out PATH]";

/// The parsed command line; every argument that is not a flag is an id.
struct Opts {
    ids: Vec<String>,
    seed: u64,
    scale: ExperimentScale,
    parallelism: Parallelism,
    json: bool,
    metrics_out: Option<String>,
}

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let opts = cli::parse(parse)?;
    let (seed, parallelism, json) = (opts.seed, opts.parallelism, opts.json);
    let mut ids = opts.ids;
    if ids.is_empty() || ids.iter().any(|i| i == "help" || i == "--help") {
        eprintln!("usage: {USAGE}");
        eprintln!("ids: {} | all | list", EXPERIMENT_IDS.join(" "));
        return Err(ExitCode::FAILURE);
    }
    if ids.iter().any(|i| i == "list") {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return Ok(());
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENT_IDS.iter().map(|s| s.to_string()).collect();
    }

    let harness = Harness::new(seed, opts.scale);
    // Fan the experiments out; each returns (report-or-error, seconds).
    // Results merge back in id order, so output is stable at any thread count.
    let (results, total_secs) = evax_bench::harness::timed(|| {
        par::map(parallelism, &ids, |id| {
            evax_bench::harness::timed(|| run_experiment(id, &harness))
        })
    });

    // The metered defense pass behind the `metrics` block / `--metrics-out`.
    // Records only simulated quantities in the deterministic export, so the
    // block is byte-identical at any thread count.
    let obs = (json || opts.metrics_out.is_some()).then(|| {
        evax_bench::obs_pass::obs_pass(seed, parallelism, &evax_bench::obs_pass::default_programs())
    });
    if let (Some(path), Some(reg)) = (&opts.metrics_out, &obs) {
        cli::write(path, &reg.to_jsonl())?;
    }

    if json {
        let summary = json_summary(
            &harness,
            &ids,
            &results,
            total_secs,
            obs.as_deref(),
            parallelism,
        );
        print!("{}", summary.render());
    }
    let mut failed = false;
    for (id, (result, secs)) in ids.iter().zip(&results) {
        match result {
            Ok(report) if !json => {
                println!("{report}");
                eprintln!("[{id}] done in {secs:.1}s\n");
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("error [{id}]: {e}");
                failed = true;
            }
        }
    }
    if failed {
        Err(ExitCode::FAILURE)
    } else {
        Ok(())
    }
}

fn parse(argv: Vec<String>) -> Result<Opts, String> {
    let mut args = Args::new(USAGE, argv);
    let mut opts = Opts {
        ids: Vec::new(),
        seed: 42,
        scale: ExperimentScale::Small,
        parallelism: Parallelism::Auto,
        json: false,
        metrics_out: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = args.seed()?,
            "--scale" => opts.scale = args.value("'small' or 'full'", ExperimentScale::parse)?,
            "--threads" => opts.parallelism = args.threads()?,
            "--json" => opts.json = true,
            "--metrics-out" => opts.metrics_out = Some(args.path()?),
            _ => opts.ids.push(arg),
        }
    }
    Ok(opts)
}

/// The `--json` timing summary.
fn json_summary(
    harness: &Harness,
    ids: &[String],
    results: &[(Result<String, String>, f64)],
    total_secs: f64,
    obs: Option<&evax_obs::Registry>,
    parallelism: Parallelism,
) -> Object {
    let experiments: Value = ids
        .iter()
        .zip(results)
        .map(|(id, (result, secs))| {
            Object::new()
                .field("id", id.as_str())
                .field("ok", result.is_ok())
                .fixed("secs", *secs, 3)
        })
        .collect();
    // Simulator throughput baseline (event-driven vs scan scheduling on the
    // registry mix) — the perf trajectory future PRs compare against.
    let sim = evax_bench::exp_sim::measure(harness.seed, harness.scale);
    let stages = harness.stage_timings().map(|t| {
        Object::new()
            .fixed("collect_secs", t.collect_secs, 3)
            .fixed("gan_secs", t.gan_secs, 3)
            .fixed("engineer_secs", t.engineer_secs, 3)
            .fixed("vaccinate_secs", t.vaccinate_secs, 3)
            .fixed("baseline_secs", t.baseline_secs, 3)
    });
    header("experiments", harness.seed, threads(parallelism), false)
        .field(
            "scale",
            match harness.scale {
                ExperimentScale::Small => "small",
                ExperimentScale::Full => "full",
            },
        )
        .field("experiments", experiments)
        .fixed("sim_instrs_per_sec", sim.event_ips(), 0)
        .fixed("sim_scan_instrs_per_sec", sim.scan_ips(), 0)
        .fixed("sim_speedup", sim.speedup(), 3)
        .field("sim_committed_instrs", sim.committed)
        .field("pipeline_stages", stages)
        // Deterministic metrics from the metered defense pass: sorted keys,
        // integer values, wall-clock timers excluded — byte-identical at any
        // thread count (`Registry::to_json` is already a JSON object).
        .field("metrics", obs.map(|reg| Value::Raw(reg.to_json())))
        .fixed("total_secs", total_secs, 3)
}
