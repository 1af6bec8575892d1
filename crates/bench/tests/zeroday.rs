//! The zero-day contract: a detector trained on benign windows only
//! produces a well-formed, reproducible `BENCH_zeroday.json`, and on
//! full-size runs detects at least 3 of the 4 held-out attack categories
//! at a held-out benign FPR within the 5% target, with the `energy.*`
//! tail strictly improving mean detection over HPC-only features. The
//! full-size evaluation is gated behind `EVAX_SLOW_TESTS=1` like the
//! other heavyweight suites.

use evax_bench::zeroday_bench::{self, run_zeroday, ZerodayConfig, CATEGORIES};
use evax_core::par::Parallelism;

#[test]
fn zeroday_smoke_artifact_is_well_formed_and_reproducible() {
    let report = run_zeroday(&ZerodayConfig::smoke(42));
    let json = report.to_json();
    for key in [
        "\"bench\": \"zeroday\"",
        "\"profile\"",
        "\"cores\"",
        "\"threads\": \"auto\"",
        "\"dim_hpc\": 133",
        "\"dim_energy\": 142",
        "\"benign_windows\"",
        "\"fpr_hpc\"",
        "\"fpr_energy\"",
        "\"mean_tpr_hpc\"",
        "\"mean_tpr_energy\"",
        "\"detected_hpc\"",
        "\"detected_energy\"",
        "\"energy_improves\"",
        "\"pass\"",
        "\"categories\"",
        "\"carrier\"",
        "\"carrier_fpr_hpc\"",
        "\"carrier_fpr_full\"",
        "\"carrier_fpr_delta_vs_clean\"",
        "\"carrier_detected_full\"",
        "\"dim_full\": 152",
    ] {
        assert!(json.contains(key), "{key} missing from artifact:\n{json}");
    }
    for (name, _) in CATEGORIES {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing"
        );
    }
    assert_eq!(report.categories.len(), 4);
    assert_eq!(
        report
            .categories
            .iter()
            .map(|c| c.classes.len())
            .sum::<usize>(),
        21,
        "categories must cover the full attack registry"
    );
    for pool in report.benign_windows {
        assert!(pool > 0, "a benign pool collected no windows");
    }
    for pool in report.carrier.benign_windows {
        assert!(pool > 0, "a benign carrier pool collected no windows");
    }
    assert_eq!(report.carrier.traces.len(), 4, "one trace per composition");
    for t in &report.carrier.traces {
        assert!(t.windows > 0, "{} collected no windows", t.name);
    }

    // Same seed + same config ⇒ byte-identical artifact.
    let again = run_zeroday(&ZerodayConfig::smoke(42));
    assert_eq!(json, again.to_json(), "same-seed zeroday run diverged");
}

#[test]
fn zeroday_smoke_holds_the_false_positive_budget() {
    let report = run_zeroday(&ZerodayConfig::smoke(42));
    if let Err(e) = report.check() {
        panic!("smoke acceptance gates failed: {e}");
    }
}

#[test]
fn bad_missing_and_unknown_flags_fail_with_the_usage_text() {
    let parse =
        |args: &str| zeroday_bench::cli(args.split_whitespace().map(String::from).collect());
    for (args, reason) in [
        ("--fpr 0.6", "--fpr requires a fraction in [0, 0.5]"),
        ("--instrs 999", "--instrs requires an integer >= 1000"),
        ("--runs x", "--runs requires a positive integer"),
        (
            "--smoke --carrier-bar",
            "--carrier-bar requires a fraction in [0, 1]",
        ),
        ("--out", "--out requires a path"),
        ("--runs 2 --rounds 2", "unknown argument '--rounds'"),
    ] {
        let err = parse(args).expect_err(args);
        assert!(
            err.starts_with(&format!("{reason}\nusage: zeroday [--seed N]")),
            "{err}"
        );
    }
    // Explicit flags survive `--smoke` on either side of it.
    let (cfg, out) = parse("--topk 5 --smoke --threads 2").expect("valid");
    let (after, _) = parse("--smoke --threads 2 --topk 5").expect("valid");
    assert_eq!(format!("{cfg:?}"), format!("{after:?}"));
    assert_eq!((cfg.top_k, cfg.max_instrs, cfg.smoke), (5, 6_000, true));
    assert_eq!(cfg.parallelism, Parallelism::Fixed(2));
    assert_eq!(out, "BENCH_zeroday.json");
}

#[test]
fn zeroday_full_evaluation_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping zeroday_full_evaluation_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    // The committed BENCH_zeroday.json shape: default config, seed 42.
    let report = run_zeroday(&ZerodayConfig::default());
    if let Err(e) = report.check() {
        panic!("full zeroday evaluation missed a gate: {e}");
    }
}
