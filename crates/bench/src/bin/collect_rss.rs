//! Peak-RSS comparison of streaming vs. materializing collection at a
//! corpus ≥ 10× the default — the memory-bound claim behind the unified
//! streaming featurization pipeline, recorded in `BENCH_stream.json`.
//!
//! `VmHWM` is a per-process high-water mark, so each path runs in its own
//! child process (the binary re-executes itself with `--mode ...`) and the
//! parent combines the two reports:
//!
//! ```text
//! cargo run -p evax-bench --release --bin collect_rss > BENCH_stream.json
//! ```

use evax_bench::artifact::{header, Object, Value};
use evax_bench::stream_bench::{
    collect_materialized, collect_streaming, corpus, peak_rss_kb, INTERVAL, MAX_INSTRS,
};
use evax_core::par::Parallelism;

/// 12 × (21 attacks + 10 benigns) = 372 runs; the default collection corpus
/// is 21×4 + 10×8 = 164 runs at the same budget, so this is > 10× the
/// default per-class run counts (and ~2.3× the default total).
const REPEAT: usize = 12;

fn run_one(mode: &str) {
    let programs = corpus(REPEAT);
    let baseline_kb = peak_rss_kb();
    let (ds, secs) = evax_bench::harness::timed(|| match mode {
        "streaming" => collect_streaming(&programs, Parallelism::Auto),
        "materialize" => collect_materialized(&programs, Parallelism::Auto),
        other => {
            eprintln!("unknown mode {other:?} (streaming|materialize)");
            std::process::exit(2);
        }
    });
    let report = Object::new()
        .field("mode", mode)
        .field("runs", programs.len())
        .field("samples", ds.len())
        .fixed("secs", secs, 3)
        .field("baseline_rss_kb", baseline_kb)
        .field("peak_rss_kb", peak_rss_kb());
    println!("{}", Value::from(report));
}

fn field(json: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\": ");
    let rest = &json[json.find(&pat).expect("missing field") + pat.len()..];
    let end = rest.find([',', '}']).expect("unterminated field");
    rest[..end].trim().parse().expect("non-numeric field")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--mode" {
        run_one(&args[2]);
        return;
    }

    let exe = std::env::current_exe().expect("own path");
    let mut reports = Vec::new();
    for mode in ["streaming", "materialize"] {
        let out = std::process::Command::new(&exe)
            .args(["--mode", mode])
            .output()
            .expect("spawn child");
        assert!(out.status.success(), "child {mode} failed");
        reports.push(String::from_utf8(out.stdout).expect("child output utf8"));
    }
    let (stream, mat) = (&reports[0], &reports[1]);
    let stream_kb = field(stream, "peak_rss_kb");
    let mat_kb = field(mat, "peak_rss_kb");
    // The corpus draws every program from its own fixed seed: no master seed.
    let artifact = header("collect_rss", None::<u64>, "auto", false)
        .field("corpus_runs", field(stream, "runs") as u64)
        .field("interval", INTERVAL)
        .field("max_instrs", MAX_INSTRS)
        .field("streaming", Value::Raw(stream.trim().to_string()))
        .field("materialize", Value::Raw(mat.trim().to_string()))
        .fixed("peak_rss_ratio", mat_kb / stream_kb.max(1.0), 3)
        .fixed(
            "secs_ratio",
            field(stream, "secs") / field(mat, "secs").max(1e-9),
            3,
        );
    print!("{}", artifact.render());
}
