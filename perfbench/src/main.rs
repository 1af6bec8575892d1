//! EVAX benchmark: one named workload per process, end-to-end metrics from
//! untraced passes, per-layer metrics from a traced replay of the same work.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is the
//! run header (machine, build, repeat counts, quartiles, digests). The
//! process exits non-zero when an output check fails. See `README.md`.

mod collect;
mod fleet;
mod host;
mod report;
mod trace;
mod vaccinate;

use std::process::ExitCode;
use std::time::Instant;

use report::{Json, Metrics};
use trace::Trace;

/// One workload: set-up, an untraced pass, and a traced replay of that pass.
///
/// A pass returns a [`PassOutput`] whose `digest` must be identical for
/// every pass of one run, traced or not: the traced replay reproduces the
/// library's output bitwise, and every untraced pass reproduces the first.
trait Workload {
    /// Builds the workload's inputs from the seed (timed as `setup_s`).
    fn setup(&mut self, seed: u64);
    /// Digest of the inputs the last set-up built; it must repeat across
    /// set-ups.
    fn input_digest(&self) -> u64;
    /// One untraced pass through the library's public entry point.
    fn pass(&mut self) -> PassOutput;
    /// The same work, one public call per layer, each timed from outside.
    fn traced_pass(&mut self, trace: &mut Trace) -> PassOutput;
    /// Leaf layers whose spans do not nest: their sum over the traced wall
    /// time is `trace.coverage`.
    fn leaf_layers(&self) -> &'static [&'static str];
    /// The layer that owns the traced time no leaf covers, if the workload
    /// names one.
    fn self_layer(&self) -> Option<&'static str> {
        None
    }
}

/// What one pass produced, for checks and for the workload-scoped figures.
#[derive(Debug, Clone, Default)]
struct PassOutput {
    /// FNV-1a digest over every output the library returned.
    digest: u64,
    /// Work units the pass delivered: verdicts (`fleet`), emitted samples
    /// (`collect`), training-corpus windows vaccinated (`vaccinate`).
    units: u64,
    /// Simulated committed instructions (0 when the pass simulates nothing).
    sim_instrs: u64,
    /// Simulated cycles.
    sim_cycles: u64,
    /// Operations attempted and failed, for `error_rate`.
    attempted: u64,
    failed: u64,
    /// Output checks the pass made on what the library returned.
    checks: Vec<(&'static str, bool)>,
    /// Deterministic workload-scoped figures (`detect_tpr`, `secure_duty`,
    /// latency quantiles, ...), each reported as its median over passes.
    figures: Vec<(&'static str, f64)>,
}

/// Worker threads per workload. One thread everywhere: on a small shared
/// host a second worker mostly adds scheduler noise, and a fixed count keeps
/// runs comparable. Exported to the library through `EVAX_THREADS` (the
/// nn kernels) and `Parallelism::Fixed` (collection and fleet fan-out).
const THREADS: usize = 1;

/// Set-ups per run: at least `MIN_SETUPS`, and more until `SETUP_BUDGET_S`
/// of set-up time is spent (at most `MAX_SETUPS`), so even a millisecond
/// set-up is a median of many; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;

/// Minimum measured passes per run, even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn new_workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "fleet" => Some(Box::new(fleet::FleetWorkload::default())),
        "collect" => Some(Box::new(collect::CollectWorkload::default())),
        "vaccinate" => Some(Box::new(vaccinate::VaccinateWorkload::default())),
        _ => None,
    }
}

/// One untraced pass with its host wall and process CPU seconds.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    out: PassOutput,
}

fn timed_pass(w: &mut dyn Workload) -> Timed {
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let out = w.pass();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        wall_s,
        cpu_s: host::process_cpu_s() - cpu0,
        out,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fleet|collect|vaccinate --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = new_workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // Before any library call: the nn kernels read this on every product.
    std::env::set_var("EVAX_THREADS", THREADS.to_string());

    let mut checks = Checks::default();

    // Set-up, several times; every set-up must build identical inputs.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut input_digest = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        let t0 = Instant::now();
        workload.setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        let d = workload.input_digest();
        checks.expect(
            "set-up is deterministic",
            *input_digest.get_or_insert(d) == d,
        );
    }

    // One warm-up pass (allocator, page faults, lazy statics) fixes the
    // reference digest; it is not timed into any metric.
    let reference = workload.pass();
    checks.record(&reference.checks);

    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<(f64, Trace)> = Vec::new();
    let start = Instant::now();
    loop {
        let t = timed_pass(workload.as_mut());
        checks.record(&t.out.checks);
        checks.expect(
            "untraced pass reproduces the reference digest",
            t.out.digest == reference.digest,
        );
        untraced.push(t);
        if args.trace {
            let mut tr = Trace::default();
            let t0 = Instant::now();
            let out = workload.traced_pass(&mut tr);
            let wall = t0.elapsed().as_secs_f64();
            checks.record(&out.checks);
            checks.expect(
                "traced replay reproduces the untraced digest",
                out.digest == reference.digest,
            );
            checks.expect(
                "traced replay simulates the same instructions and cycles",
                out.sim_instrs == reference.sim_instrs && out.sim_cycles == reference.sim_cycles,
            );
            traced.push((wall, tr));
        }
        let enough = untraced.len() >= MIN_PASSES;
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let passes = untraced.len();
    let wall: Vec<f64> = untraced.iter().map(|t| t.wall_s).collect();
    let cpu: Vec<f64> = untraced.iter().map(|t| t.cpu_s).collect();
    let rate: Vec<f64> = untraced
        .iter()
        .map(|t| t.out.units as f64 / t.wall_s)
        .collect();
    let sim_mips: Vec<f64> = untraced
        .iter()
        .map(|t| t.out.sim_instrs as f64 / t.wall_s / 1e6)
        .collect();

    // Failure accounting: every operation of every measured pass, plus one
    // operation per output check.
    let attempted = untraced.iter().map(|t| t.out.attempted).sum::<u64>() + checks.attempted;
    let failed = untraced.iter().map(|t| t.out.failed).sum::<u64>() + checks.failed;
    let error_rate = failed as f64 / attempted.max(1) as f64;

    let mut e2e = Metrics::default();
    e2e.push("setup_s", &setup_s, "s");
    e2e.push("wall_s", &wall, "s");
    e2e.push("cpu_s", &cpu, "s");
    e2e.push_one("peak_rss_mb", host::peak_rss_mb(), "MB");
    e2e.push("windows_per_s", &rate, "1/s");

    // Workload-scoped end-to-end figures: reported in every run's header,
    // and as per-layer metrics of the traced run (see README.md for why
    // they carry no bound).
    let mut scoped = Metrics::default();
    scoped.push("sim_mips", &sim_mips, "Minstr/s");
    for (i, &(name, _)) in reference.figures.iter().enumerate() {
        let values: Vec<f64> = untraced.iter().map(|t| t.out.figures[i].1).collect();
        scoped.push(name, &values, report::figure_unit(name));
    }
    scoped.push_one("error_rate", error_rate, "ratio");

    let mut layers = Metrics::default();
    if args.trace {
        let untraced_wall = report::median(&wall);
        trace::layer_metrics(
            &mut layers,
            &traced,
            untraced_wall,
            workload.leaf_layers(),
            workload.self_layer(),
        );
        for m in scoped.iter() {
            layers.push_one(&m.name, m.median, m.unit);
        }
    }

    let header = Json::object()
        .str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("nproc", host::nproc() as f64)
        .num("threads", THREADS as f64)
        .str("profile", host::PROFILE)
        .str("rustc", &host::rustc_version())
        .str("git_revision", &host::git_revision())
        .num("setups", setup_s.len() as f64)
        .num("passes", passes as f64)
        .num("traced_passes", traced.len() as f64)
        .str(
            "input_digest",
            &format!("{:016x}", input_digest.unwrap_or(0)),
        )
        .str("output_digest", &format!("{:016x}", reference.digest))
        .num("sim_instrs", reference.sim_instrs as f64)
        .num("sim_cycles", reference.sim_cycles as f64)
        .raw("quartiles", &e2e.quartiles_json())
        .raw("scoped", &scoped.quartiles_json())
        .raw("failed_checks", &checks.failures_json())
        .str(
            "validation",
            "simulated statistics are unvalidated against hardware; no error figure is given",
        );
    println!(
        "{}",
        Json::object().raw("header", &header.finish()).finish()
    );

    let metrics = if args.trace {
        layers.values_json(report::PER_LAYER)
    } else {
        e2e.values_json(report::END_TO_END)
    };
    let result = Json::object()
        .bool("correct", checks.failed == 0)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .raw("metrics", &metrics);
    println!("{}", result.finish());
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Output checks: each one counts as an attempted operation, and a failed
/// check fails the run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<&'static str>,
}

impl Checks {
    fn expect(&mut self, what: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.failed += 1;
            if !self.failures.contains(&what) {
                self.failures.push(what);
            }
        }
    }

    fn record(&mut self, checks: &[(&'static str, bool)]) {
        for &(what, ok) in checks {
            self.expect(what, ok);
        }
    }

    fn failures_json(&self) -> String {
        let items: Vec<String> = self.failures.iter().map(|f| report::quote(f)).collect();
        format!("[{}]", items.join(","))
    }
}

/// FNV-1a over little-endian words: the digest every workload folds its
/// outputs into, so two passes compare with one integer.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.word(v.to_bits());
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}
