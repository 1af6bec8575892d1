//! The arms-race contract: the smoke benchmark produces a well-formed,
//! reproducible artifact whose acceptance numbers clear the bar — the
//! round-1 evasive corpus drops baseline detection by ≥ 20% (relative) and
//! at least one hardened variant ends the race within 5% of its
//! clean-corpus detection rate. The full-size race is gated behind
//! `EVAX_SLOW_TESTS=1` like the other heavyweight suites.

use evax_bench::armsrace::{self, run_arms_race, ArmsRaceConfig};

#[test]
fn armsrace_smoke_artifact_is_well_formed_and_reproducible() {
    let report = run_arms_race(&ArmsRaceConfig::smoke(42));
    let json = report.to_json();
    for key in [
        "\"bench\"",
        "\"profile\"",
        "\"strategies\"",
        "\"cores\"",
        "\"threads\"",
        "\"clean\"",
        "\"clean_false_positives\"",
        "\"carrier_interleaved\"",
        "\"carrier_false_positives\"",
        "\"race\"",
        "\"baseline\"",
        "\"quant\"",
        "\"stochastic\"",
        "\"ensemble\"",
        "\"pre\"",
        "\"post\"",
        "\"round1_baseline_drop\"",
        "\"final_best_hardened_gap\"",
        "\"verdict_digest\"",
    ] {
        assert!(json.contains(key), "{key} missing from artifact:\n{json}");
    }
    assert_eq!(report.rounds.len(), 2, "smoke preset runs 2 rounds");
    // The interleaved busy-carrier evaluation scored both benign carriers
    // and composed attacks riding them.
    for (name, rate) in report.carrier.named() {
        assert!(rate.total > 0, "carrier[{name}] scored no windows");
    }
    for (name, rate) in report.carrier_fp.named() {
        assert!(rate.total > 0, "carrier_fp[{name}] scored no windows");
    }
    for round in &report.rounds {
        assert!(round.windows > 0, "round {} saw no windows", round.round);
        for (name, rate) in round.pre.named() {
            assert_eq!(
                rate.total, round.windows,
                "round {} pre[{name}] total disagrees with window count",
                round.round
            );
        }
    }

    // Same seed + same config ⇒ byte-identical artifact, digest included
    // (the digest already folds verdict counts measured at 1/4/16 kernel
    // threads inside one run; this re-run pins cross-run reproducibility).
    let again = run_arms_race(&ArmsRaceConfig::smoke(42));
    assert_eq!(json, again.to_json(), "same-seed arms race diverged");
}

#[test]
fn armsrace_smoke_clears_the_acceptance_bars() {
    let report = run_arms_race(&ArmsRaceConfig::smoke(42));
    if let Err(e) = report.check() {
        panic!("smoke race missed an acceptance bar: {e}");
    }
    // Hardening must not melt the clean-corpus false-positive budget.
    for (name, fp) in report.clean_fp.named() {
        assert!(
            fp.rate() <= 0.10,
            "{name} clean false-positive rate {:.1}% exceeds 10%",
            fp.rate() * 100.0
        );
    }
}

#[test]
fn smoke_preset_composes_with_explicit_flags_in_either_order() {
    let parse = |args: &str| {
        let args = args.split_whitespace().map(String::from).collect();
        let (c, _) = armsrace::cli(args).expect("valid command line");
        (
            c.seed,
            c.rounds,
            c.programs_per_strategy,
            c.members,
            c.smoke,
        )
    };
    assert_eq!(parse(""), (42, 4, 4, 3, false));
    assert_eq!(parse("--smoke"), (42, 2, 2, 3, true));
    assert_eq!(
        parse("--rounds 5 --members 1 --smoke --seed 7"),
        (7, 5, 2, 1, true)
    );
    assert_eq!(
        parse("--seed 7 --smoke --members 1 --rounds 5"),
        (7, 5, 2, 1, true)
    );
}

#[test]
fn armsrace_full_race_slow() {
    if std::env::var("EVAX_SLOW_TESTS").is_err() {
        eprintln!("skipping armsrace_full_race_slow; set EVAX_SLOW_TESTS=1");
        return;
    }
    // The committed BENCH_armsrace.json shape: default config, seed 42.
    let report = run_arms_race(&ArmsRaceConfig::default());
    assert_eq!(report.rounds.len(), 4, "default race runs 4 rounds");
    if let Err(e) = report.check() {
        panic!("full race missed an acceptance bar: {e}");
    }
}
