//! Adversarial arms race benchmark (`BENCH_armsrace.json`): multi-round
//! attack ↔ vaccinate loop over the unified detector abstraction.
//!
//! Each round the adversary reads the deployed baseline's weight vector
//! and generates evasive variants ([`evax_attacks::evasion`]: benign
//! padding, rate modulation, weight-guided targeting) at escalating
//! intensity; the defender measures per-window detection for every
//! deployed variant (plain perceptron, 9-bit quantized, stochastic
//! jitter, majority-vote ensemble), then re-vaccinates on the accumulated
//! evasive windows and measures again. The artifact records
//! detection-rate-vs-round per variant, both *pre*-adaptation (the
//! adversary's win) and *post*-adaptation (the vaccine's recovery).
//!
//! Every rate is an exact `(hits, total)` integer pair produced by the
//! trait-level batched drain ([`evax_nn::Detector::classify_rows_into`]).
//! Each evaluation runs at 1, 4 and 16 kernel threads and asserts
//! identical counts; the report's `verdict_digest` folds every pair in
//! canonical order, so two runs with the same seed are byte-comparable.
//!
//! Round 0 additionally confronts the deployed stack with **interleaved
//! multi-tenant traces** ([`evax_attacks::carriers`]): benign
//! interrupt/timer/DMA-driven carriers and composed attacks riding them,
//! simulated under each carrier's device configuration. The detectors were
//! trained on quiet 133-column windows, so the device counter tail is
//! truncated — what the `carrier_interleaved` rates measure is the
//! *behavioral* noise (port steals, delivery flushes, handler code)
//! bleeding into the baseline counters, not the new columns.

use evax_attacks::benign::Scale;
use evax_attacks::{
    build_carrier, build_carrier_attack, generate_evasive_programs, KernelParams, CARRIER_ATTACKS,
    CARRIER_KINDS, EVASION_STRATEGIES,
};
use evax_core::collect::{collect_dataset, collect_program, CollectConfig};
use evax_core::featurize::{CollectingSink, ProgramSource, WindowSource};
use evax_core::gan::AmGanConfig;
use evax_core::par::{self, Parallelism};
use evax_core::pipeline::StageTimings;
use evax_core::prelude::Sample;
use evax_core::prelude::{
    vaccinate_ensemble, Dataset, DetectorScratch, Ensemble, ModelDetector, Normalizer,
    StochasticDetector, TrainConfig, Vaccination,
};
use evax_nn::QuantLinear;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::artifact::{header, Object, Value};
use crate::cli::Args;

/// Arms-race benchmark configuration (CLI-shaped).
#[derive(Debug, Clone)]
pub struct ArmsRaceConfig {
    /// Master seed: training corpus, vaccination, evasion generation.
    pub seed: u64,
    /// Attack ↔ vaccinate rounds.
    pub rounds: usize,
    /// Evasive programs generated per strategy per round.
    pub programs_per_strategy: usize,
    /// Majority-vote committee size.
    pub members: usize,
    /// Stochastic detector jitter magnitude.
    pub jitter: f32,
    /// CI-scale run: 2 rounds, small corpus, short GAN schedule.
    pub smoke: bool,
}

impl Default for ArmsRaceConfig {
    fn default() -> Self {
        ArmsRaceConfig {
            seed: 42,
            rounds: 4,
            programs_per_strategy: 4,
            members: 3,
            jitter: 0.03,
            smoke: false,
        }
    }
}

impl ArmsRaceConfig {
    /// The CI configuration: 2 rounds over a small corpus.
    pub fn smoke(seed: u64) -> ArmsRaceConfig {
        ArmsRaceConfig {
            seed,
            rounds: 2,
            programs_per_strategy: 2,
            smoke: true,
            ..ArmsRaceConfig::default()
        }
    }
}

/// An exact detection count: windows flagged over windows scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rate {
    /// Windows the variant flagged malicious.
    pub hits: u64,
    /// Windows scored.
    pub total: u64,
}

impl Rate {
    /// `hits / total` (0 on an empty corpus).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

/// One value per deployed detector variant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerVariant<T> {
    /// The plain vaccinated perceptron.
    pub baseline: T,
    /// The 9-bit integer deployment of the same weights.
    pub quant: T,
    /// Seeded inference-time weight/threshold jitter.
    pub stochastic: T,
    /// Majority-vote committee over independent vaccination draws.
    pub ensemble: T,
}

impl<T> PerVariant<T> {
    /// `(name, value)` pairs in canonical order.
    pub fn named(&self) -> [(&'static str, &T); 4] {
        [
            ("baseline", &self.baseline),
            ("quant", &self.quant),
            ("stochastic", &self.stochastic),
            ("ensemble", &self.ensemble),
        ]
    }
}

/// One arms-race round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// 1-based round number (doubles as the evasion intensity).
    pub round: u32,
    /// Windows in this round's evasive corpus.
    pub windows: u64,
    /// Detection on the fresh evasive corpus, *before* re-vaccination —
    /// the adversary's move.
    pub pre: PerVariant<Rate>,
    /// Detection on the same corpus after re-vaccinating on all evasive
    /// windows observed so far — the defender's move.
    pub post: PerVariant<Rate>,
}

/// The full benchmark artifact.
#[derive(Debug, Clone)]
pub struct ArmsRaceReport {
    /// The configuration the run used.
    pub config: ArmsRaceConfig,
    /// Detection on the clean (non-evasive) attack corpus, round 0.
    pub clean: PerVariant<Rate>,
    /// False positives on the clean benign corpus, round 0.
    pub clean_fp: PerVariant<Rate>,
    /// Detection on composed attacks riding busy carriers (interleaved
    /// traces under device noise), round 0.
    pub carrier: PerVariant<Rate>,
    /// False positives on benign busy-carrier traces, round 0.
    pub carrier_fp: PerVariant<Rate>,
    /// Per-round detection trajectories.
    pub rounds: Vec<RoundReport>,
    /// FNV-1a over every `(hits, total)` pair in canonical order —
    /// identical at 1/4/16 kernel threads by construction (each
    /// evaluation asserts it) and across same-seed runs.
    pub verdict_digest: String,
}

/// The defender's deployed variants for one round, all views of (or
/// committees over) one vaccination's extended-feature space.
struct Deployment {
    vac: Vaccination,
    quant: QuantLinear,
    stochastic: StochasticDetector,
    ensemble: Ensemble,
}

impl Deployment {
    fn train(train: &Dataset, cfg: &ArmsRaceConfig, round: u64) -> Deployment {
        let gan_cfg = if cfg.smoke {
            AmGanConfig {
                epochs: 3,
                ..AmGanConfig::small()
            }
        } else {
            AmGanConfig::small()
        };
        let (augment_per_class, augment_benign) = if cfg.smoke { (20, 60) } else { (60, 200) };
        // Each round's vaccination stream derives from the master seed and
        // the round index alone, so the race replays identically no matter
        // how earlier rounds were evaluated.
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(round * 0x9E37_79B9));
        let mut timings = StageTimings::default();
        let (vac, ensemble) = vaccinate_ensemble(
            train,
            &gan_cfg,
            &TrainConfig::default(),
            augment_per_class,
            augment_benign,
            cfg.members,
            &mut rng,
            &mut timings,
        );
        let quant = vac.detector.quantize_linear();
        let stochastic = vac.harden_stochastic(cfg.seed ^ 0x570C_4A57, cfg.jitter);
        Deployment {
            vac,
            quant,
            stochastic,
            ensemble,
        }
    }

    /// Detection counts for every variant on `ds` (filtered to malicious
    /// or benign samples), via the trait-level batched drain, pinned
    /// identical at 1/4/16 kernel threads.
    fn measure(&self, ds: &Dataset, malicious: bool) -> PerVariant<Rate> {
        let det = &self.vac.detector;
        let dim = det.extended_dim();
        let mut matrix = Vec::new();
        let mut ext = Vec::with_capacity(dim);
        let mut n = 0usize;
        for s in ds.samples.iter().filter(|s| s.malicious == malicious) {
            det.transform_into(&s.features, &mut ext);
            matrix.extend_from_slice(&ext);
            n += 1;
        }
        let drain = |model: &dyn ModelDetector| -> Rate {
            let mut counts = [0u64; 3];
            for (i, threads) in [1usize, 4, 16].into_iter().enumerate() {
                let mut scratch = DetectorScratch::new();
                let mut scores = vec![0.0f32; n];
                let mut verdicts = vec![false; n];
                model.classify_rows_into(
                    &matrix,
                    threads,
                    &mut scratch,
                    &mut scores,
                    &mut verdicts,
                );
                counts[i] = verdicts.iter().filter(|&&v| v).count() as u64;
            }
            assert!(
                counts[0] == counts[1] && counts[1] == counts[2],
                "{}: verdict counts diverged across kernel threads: {counts:?}",
                model.kind()
            );
            Rate {
                hits: counts[0],
                total: n as u64,
            }
        };
        PerVariant {
            baseline: drain(det),
            quant: drain(&self.quant),
            stochastic: drain(&self.stochastic),
            ensemble: drain(&self.ensemble),
        }
    }
}

fn fnv1a(digest: &mut u64, rates: &PerVariant<Rate>) {
    for (_, r) in rates.named() {
        for b in r
            .hits
            .to_le_bytes()
            .into_iter()
            .chain(r.total.to_le_bytes())
        {
            *digest ^= b as u64;
            *digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn small_collect(smoke: bool) -> CollectConfig {
    CollectConfig {
        interval: 200,
        runs_per_attack: 1,
        runs_per_benign: 1,
        max_instrs: if smoke { 3_000 } else { 4_000 },
        benign_scale: 3_000,
        ..Default::default()
    }
}

/// Collects the interleaved multi-tenant corpus: one benign trace per
/// carrier kind (class 0) and one composed trace per carrier attack (its
/// spliced attack's class), each simulated under the carrier's device
/// configuration. Windows carry the 10 `dma.*`/`irq.*` tail columns; they
/// are truncated to the deployed detectors' quiet-trace dimension before
/// normalization. Simulation fans out per program and merges in canonical
/// order.
fn carrier_corpus(collect: &CollectConfig, norm: &Normalizer, seed: u64) -> Dataset {
    let dim = norm.dim();
    enum Spec {
        Benign(usize),
        Composed(usize),
    }
    let specs: Vec<Spec> = (0..CARRIER_KINDS.len())
        .map(Spec::Benign)
        .chain((0..CARRIER_ATTACKS.len()).map(Spec::Composed))
        .collect();
    let per_program = par::map(Parallelism::Auto, &specs, |spec| {
        let (program, kind, class, budget) = match *spec {
            Spec::Benign(k) => {
                let kind = CARRIER_KINDS[k];
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k as u64 * 0x9E37_79B9));
                let program = build_carrier(kind, Scale(collect.benign_scale), &mut rng);
                (program, kind, 0usize, collect.max_instrs)
            }
            Spec::Composed(w) => {
                let which = CARRIER_ATTACKS[w];
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_add(0xC0_DE + w as u64 * 0x5DEE_CE66));
                let program = build_carrier_attack(
                    which,
                    Scale(collect.benign_scale),
                    &KernelParams::default(),
                    &mut rng,
                );
                (
                    program,
                    which.carrier(),
                    which.attack_class().label(),
                    collect.max_instrs.saturating_mul(3),
                )
            }
        };
        let cpu = evax_sim::CpuConfig {
            devices: kind.device_config(),
            ..collect.cpu.clone()
        };
        let mut sink = CollectingSink::new();
        ProgramSource::new(&program, &cpu, collect.interval, budget).stream(&mut sink);
        let mut samples = Vec::new();
        let mut row = vec![0.0f32; dim];
        for w in sink.into_windows() {
            norm.normalize_into(&w[..dim], &mut row);
            samples.push(Sample::new(row.clone(), class));
        }
        samples
    });
    let mut ds = Dataset::new();
    for s in per_program.into_iter().flatten() {
        ds.push(s);
    }
    ds
}

/// Simulates one round's evasive corpus against the deployed baseline's
/// (stolen) weight vector. Program generation is serial and canonical;
/// simulation fans out per program and merges back in order.
fn evasive_corpus(
    deploy: &Deployment,
    round: u32,
    cfg: &ArmsRaceConfig,
    collect: &CollectConfig,
    norm: &Normalizer,
) -> Dataset {
    let weights = deploy.vac.detector.perceptron().weights();
    let mut programs = Vec::new();
    for (si, &strategy) in EVASION_STRATEGIES.iter().enumerate() {
        programs.extend(generate_evasive_programs(
            strategy,
            cfg.programs_per_strategy,
            weights,
            round,
            cfg.seed
                .wrapping_add(round as u64 * 0x5DEE_CE66)
                .wrapping_add(si as u64 * 7919),
        ));
    }
    let per_program = par::map(Parallelism::Auto, &programs, |(program, class)| {
        collect_program(program, class.label(), collect, norm)
    });
    let mut ds = Dataset::new();
    for s in per_program.into_iter().flatten() {
        ds.push(s);
    }
    ds
}

/// Runs the full arms race.
pub fn run_arms_race(cfg: &ArmsRaceConfig) -> ArmsRaceReport {
    assert!(cfg.rounds > 0, "the race needs at least one round");
    let collect = small_collect(cfg.smoke);
    eprintln!("[armsrace] collecting training + clean evaluation corpora...");
    let (train, norm) = collect_dataset(&collect, cfg.seed);
    // The clean evaluation corpus is a disjoint draw: same workload
    // registry, different seed, never trained on.
    let (clean_eval, _) = collect_dataset(&collect, cfg.seed ^ 0xC1EA_11E5);

    eprintln!("[armsrace] round 0: vaccinating the initial deployment...");
    let mut deploy = Deployment::train(&train, cfg, 0);
    let clean = deploy.measure(&clean_eval, true);
    let clean_fp = deploy.measure(&clean_eval, false);

    eprintln!("[armsrace] round 0: interleaved busy-carrier evaluation...");
    let carrier_eval = carrier_corpus(&collect, &norm, cfg.seed ^ 0xCA44_1E45);
    let carrier = deploy.measure(&carrier_eval, true);
    let carrier_fp = deploy.measure(&carrier_eval, false);

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut digest, &clean);
    fnv1a(&mut digest, &clean_fp);
    fnv1a(&mut digest, &carrier);
    fnv1a(&mut digest, &carrier_fp);

    let mut accumulated = train.clone();
    let mut rounds = Vec::with_capacity(cfg.rounds);
    for round in 1..=cfg.rounds as u32 {
        eprintln!("[armsrace] round {round}: adversary generates evasive corpus...");
        let corpus = evasive_corpus(&deploy, round, cfg, &collect, &norm);
        let pre = deploy.measure(&corpus, true);
        fnv1a(&mut digest, &pre);

        eprintln!(
            "[armsrace] round {round}: baseline pre-adaptation detection {:.3} \
             ({}/{} windows); re-vaccinating...",
            pre.baseline.rate(),
            pre.baseline.hits,
            pre.baseline.total
        );
        for s in &corpus.samples {
            accumulated.push(s.clone());
        }
        deploy = Deployment::train(&accumulated, cfg, round as u64);
        let post = deploy.measure(&corpus, true);
        fnv1a(&mut digest, &post);

        rounds.push(RoundReport {
            round,
            windows: pre.baseline.total,
            pre,
            post,
        });
    }

    ArmsRaceReport {
        config: cfg.clone(),
        clean,
        clean_fp,
        carrier,
        carrier_fp,
        rounds,
        verdict_digest: format!("{digest:016x}"),
    }
}

impl ArmsRaceReport {
    /// Relative round-1 drop in baseline detection vs the clean corpus
    /// (the acceptance criterion's adversary side).
    pub fn round1_baseline_drop(&self) -> f64 {
        let clean = self.clean.baseline.rate();
        if clean <= 0.0 {
            return 0.0;
        }
        (clean - self.rounds[0].pre.baseline.rate()) / clean
    }

    /// Smallest final-round gap to clean-corpus detection over the
    /// hardened variants (stochastic, ensemble), post-adaptation. Negative
    /// means a hardened variant beats its clean-corpus rate.
    pub fn final_best_hardened_gap(&self) -> f64 {
        let last = self.rounds.last().expect("at least one round");
        let stoch = self.clean.stochastic.rate() - last.post.stochastic.rate();
        let ens = self.clean.ensemble.rate() - last.post.ensemble.rate();
        stoch.min(ens)
    }

    /// Acceptance: the round-1 evasive corpus drops baseline detection by
    /// at least 20% (relative), and a hardened variant ends the race
    /// within 5% of its clean-corpus detection.
    ///
    /// # Errors
    /// The first bar that fails, as a message.
    pub fn check(&self) -> Result<(), String> {
        let (drop, gap) = (self.round1_baseline_drop(), self.final_best_hardened_gap());
        if drop < 0.20 {
            Err(format!(
                "round-1 evasion only dropped baseline detection {:.1}% (need >= 20%)",
                drop * 100.0
            ))
        } else if gap > 0.05 {
            Err(format!(
                "best hardened variant ended {:.1}% below clean detection (need <= 5%)",
                gap * 100.0
            ))
        } else {
            Ok(())
        }
    }

    /// Renders `BENCH_armsrace.json`.
    pub fn to_json(&self) -> String {
        fn variant_json(v: &PerVariant<Rate>) -> Object {
            v.named().into_iter().fold(Object::new(), |o, (name, r)| {
                let rate = Object::new()
                    .field("hits", r.hits)
                    .field("total", r.total)
                    .fixed("rate", r.rate(), 4);
                o.field(name, rate)
            })
        }
        let race: Value = self
            .rounds
            .iter()
            .map(|r| {
                Object::new()
                    .field("round", r.round)
                    .field("windows", r.windows)
                    .field("pre", variant_json(&r.pre))
                    .field("post", variant_json(&r.post))
            })
            .collect();
        let c = &self.config;
        // Every evaluation runs at 1, 4 and 16 kernel threads.
        header("armsrace", c.seed, [1u64, 4, 16], c.smoke)
            .field("rounds", c.rounds)
            .field("programs_per_strategy", c.programs_per_strategy)
            .field("members", c.members)
            .field("jitter", Value::Raw(c.jitter.to_string()))
            .field(
                "strategies",
                ["benign_padding", "rate_modulation", "weight_guided"],
            )
            .field("clean", variant_json(&self.clean))
            .field("clean_false_positives", variant_json(&self.clean_fp))
            .field("carrier_interleaved", variant_json(&self.carrier))
            .field("carrier_false_positives", variant_json(&self.carrier_fp))
            .field("race", race)
            .field(
                "acceptance",
                Object::new()
                    .fixed("round1_baseline_drop", self.round1_baseline_drop(), 4)
                    .fixed("final_best_hardened_gap", self.final_best_hardened_gap(), 4),
            )
            .field("verdict_digest", self.verdict_digest.as_str())
            .field(
                "note",
                "rates are exact (hits, total) window counts from the trait-level batched \
                 drain, asserted identical at 1/4/16 kernel threads; pre = detection on the \
                 fresh evasive corpus before re-vaccination, post = after re-vaccinating on \
                 all evasive windows observed so far",
            )
            .render()
    }
}

/// The `armsrace` binary's command line: the configuration and the
/// artifact path. `--smoke` selects [`ArmsRaceConfig::smoke`], and explicit
/// flags override it.
///
/// # Errors
/// The first bad, missing or unknown argument, with the usage line.
pub fn cli(argv: Vec<String>) -> Result<(ArmsRaceConfig, String), String> {
    let mut args = Args::new(
        "armsrace [--seed N] [--rounds N] [--programs N] [--members N] [--smoke] [--out PATH]",
        argv,
    );
    let mut cfg = ArmsRaceConfig::default();
    if args.smoke {
        cfg = ArmsRaceConfig::smoke(cfg.seed);
    }
    let mut out = "BENCH_armsrace.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = args.seed()?,
            "--rounds" => cfg.rounds = args.positive()?,
            "--programs" => cfg.programs_per_strategy = args.positive()?,
            "--members" => cfg.members = args.positive()?,
            "--smoke" => {}
            "--out" => out = args.path()?,
            _ => return Err(args.unknown()),
        }
    }
    Ok((cfg, out))
}
