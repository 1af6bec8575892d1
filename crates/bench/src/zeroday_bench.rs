//! Zero-day benchmark: unsupervised anomaly detection on held-out attack
//! categories.
//!
//! The supervised experiments ([`crate::exp_zeroday`]) measure leave-one-out
//! generalization of a *labeled* classifier. This benchmark asks the harder
//! question from the paper's threat model: can a detector that has **never
//! seen any attack** — trained on benign windows only — still flag whole
//! attack categories it was never shown? Every category in
//! [`CATEGORIES`] is held out by construction: the [`AnomalyScorer`] fits
//! benign statistics, calibrates its threshold on a disjoint benign
//! validation pool, and is then confronted with all 21 registry attack
//! classes grouped into four microarchitectural families.
//!
//! The benchmark trains the scorer **twice on the same raw windows**: once
//! on the baseline 133 HPC columns and once on the full sensor vector with
//! the `energy.*` tail enabled, so the marginal value of the energy
//! modality is an apples-to-apples column ablation rather than a separate
//! simulation run.
//!
//! A second, harder experiment repeats the whole protocol on **busy
//! carriers** ([`evax_attacks::carriers`]): the scorer is trained on benign
//! interrupt/timer/DMA-driven traces (run under each carrier's device
//! configuration) and then confronted with composed attacks spliced
//! mid-stream into those carriers. The report records the carrier-noise
//! TPR/FPR deltas against the quiet-trace baseline — the cost of
//! multi-tenant noise — and ablates the `irq.*`/`dma.*` device columns the
//! same way the clean section ablates the energy tail.

use evax_attacks::benign::Scale;
use evax_attacks::{
    build_attack, build_benign, build_carrier, build_carrier_attack, AttackClass, CarrierAttack,
    KernelParams, BENIGN_KINDS, CARRIER_ATTACKS, CARRIER_KINDS,
};
use evax_core::featurize::{CollectingSink, ProgramSource, WindowSource};
use evax_core::par::{self, Parallelism};
use evax_core::Normalizer;
use evax_nn::{AnomalyScorer, Detector, DetectorScratch};
use evax_sim::{CpuConfig, SensorConfig, HPC_BASE_DIM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::artifact::{header, threads, Object, Value};
use crate::cli::Args;

/// The four held-out attack families partitioning the full
/// [`evax_attacks::ATTACK_CLASSES`] registry.
pub const CATEGORIES: [(&str, &[AttackClass]); 4] = [
    (
        "transient",
        &[
            AttackClass::SpectrePht,
            AttackClass::SpectreBtb,
            AttackClass::SpectreRsb,
            AttackClass::SpectreStl,
            AttackClass::Meltdown,
            AttackClass::MedusaCacheIndexing,
            AttackClass::MedusaUnalignedStl,
            AttackClass::MedusaShadowRepMov,
            AttackClass::Lvi,
            AttackClass::Fallout,
        ],
    ),
    (
        "cache",
        &[
            AttackClass::FlushReload,
            AttackClass::FlushFlush,
            AttackClass::PrimeProbe,
            AttackClass::FlushConflict,
            AttackClass::LeakyBuddies,
        ],
    ),
    ("dram", &[AttackClass::Rowhammer, AttackClass::Drama]),
    (
        "contention",
        &[
            AttackClass::SmotherSpectre,
            AttackClass::BranchScope,
            AttackClass::MicroScope,
            AttackClass::RdRand,
        ],
    ),
];

/// Configuration for [`run_zeroday`].
#[derive(Debug, Clone)]
pub struct ZerodayConfig {
    /// Master seed; every program run derives a disjoint stream from it.
    pub seed: u64,
    /// Sampling interval in committed instructions.
    pub interval: u64,
    /// Instruction budget per program run.
    pub max_instrs: u64,
    /// Benign runs per [`BENIGN_KINDS`] kind in each of the three pools
    /// (fit / calibrate / held-out test).
    pub benign_runs: usize,
    /// Runs per attack class.
    pub attack_runs: usize,
    /// Target false-positive rate for threshold calibration.
    pub fpr: f64,
    /// Pooled window TPR at or above which a category counts as detected.
    pub detect_bar: f64,
    /// Top-k dimensions scored by the [`AnomalyScorer`] (0 = all).
    pub top_k: usize,
    /// Pooled alarm rate at or above which a composed carrier trace counts
    /// as detected. Lower than [`detect_bar`](Self::detect_bar) because the
    /// attack phase occupies a minority of the interleaved trace: the
    /// benign prefix and tail windows dilute the pooled rate.
    pub carrier_bar: f64,
    /// Worker threads for the simulation fan-out (results are
    /// bit-deterministic at any setting).
    pub parallelism: Parallelism,
    /// Smoke preset marker (recorded in the artifact).
    pub smoke: bool,
}

impl Default for ZerodayConfig {
    fn default() -> Self {
        ZerodayConfig {
            seed: 42,
            interval: 200,
            max_instrs: 20_000,
            benign_runs: 2,
            attack_runs: 2,
            fpr: 0.05,
            detect_bar: 0.5,
            top_k: 0,
            carrier_bar: 0.15,
            parallelism: Parallelism::Auto,
            smoke: false,
        }
    }
}

impl ZerodayConfig {
    /// A CI-sized preset: one run per program, short instruction budget.
    pub fn smoke(seed: u64) -> ZerodayConfig {
        ZerodayConfig {
            seed,
            max_instrs: 6_000,
            benign_runs: 1,
            attack_runs: 1,
            smoke: true,
            ..ZerodayConfig::default()
        }
    }
}

/// Per-class detection result for one feature variant.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// Registry name of the attack class.
    pub name: &'static str,
    /// Windows the class produced.
    pub windows: u64,
    /// Windows flagged with HPC-only features.
    pub hits_hpc: u64,
    /// Windows flagged with HPC + energy features.
    pub hits_energy: u64,
}

/// Aggregated result for one held-out category.
#[derive(Debug, Clone)]
pub struct CategoryResult {
    /// Category name (`transient` / `cache` / `dram` / `contention`).
    pub name: &'static str,
    /// Per-class breakdown.
    pub classes: Vec<ClassResult>,
    /// Pooled window TPR with HPC-only features.
    pub tpr_hpc: f64,
    /// Pooled window TPR with HPC + energy features.
    pub tpr_energy: f64,
}

/// Result for one composed attack riding a busy carrier.
#[derive(Debug, Clone)]
pub struct CarrierTraceResult {
    /// Composition name (`<attack>@<carrier>`).
    pub name: &'static str,
    /// The clean [`CATEGORIES`] entry the spliced attack belongs to, for
    /// the noise-delta comparison.
    pub clean_category: &'static str,
    /// Windows the interleaved trace produced (benign phases included).
    pub windows: u64,
    /// Windows flagged by the device-blind (133-column) variant.
    pub hits_hpc: u64,
    /// Windows flagged by the full energy + device vector variant.
    pub hits_full: u64,
}

/// The busy-carrier half of the evaluation: scorers trained on benign
/// interrupt/timer/DMA-driven traces, evaluated on composed attacks.
#[derive(Debug, Clone)]
pub struct CarrierSection {
    /// Benign carrier windows in each pool (fit / calibrate / test).
    pub benign_windows: [u64; 3],
    /// Held-out benign-carrier false-positive rate, HPC-only columns.
    pub fpr_hpc: f64,
    /// Held-out benign-carrier false-positive rate, full vector (HPC +
    /// energy + device columns).
    pub fpr_full: f64,
    /// Per-composition results.
    pub traces: Vec<CarrierTraceResult>,
}

impl CarrierSection {
    /// Compositions whose pooled alarm rate clears `bar`, full vector.
    pub fn detected_full(&self, bar: f64) -> usize {
        self.traces
            .iter()
            .filter(|t| rate(t.hits_full, t.windows) >= bar)
            .count()
    }

    /// Compositions whose pooled alarm rate clears `bar`, device-blind.
    pub fn detected_hpc(&self, bar: f64) -> usize {
        self.traces
            .iter()
            .filter(|t| rate(t.hits_hpc, t.windows) >= bar)
            .count()
    }
}

/// The full zero-day evaluation artifact.
#[derive(Debug, Clone)]
pub struct ZerodayReport {
    /// The configuration that produced this report.
    pub config: ZerodayConfig,
    /// Benign windows in each pool (fit / calibrate / test).
    pub benign_windows: [u64; 3],
    /// Held-out benign false-positive rate, HPC-only.
    pub fpr_hpc: f64,
    /// Held-out benign false-positive rate, HPC + energy.
    pub fpr_energy: f64,
    /// Per-category results.
    pub categories: Vec<CategoryResult>,
    /// Busy-carrier evaluation.
    pub carrier: CarrierSection,
}

impl ZerodayReport {
    /// Categories whose pooled TPR clears the detection bar, HPC-only.
    pub fn detected_hpc(&self) -> usize {
        self.categories
            .iter()
            .filter(|c| c.tpr_hpc >= self.config.detect_bar)
            .count()
    }

    /// Categories whose pooled TPR clears the detection bar, HPC + energy.
    pub fn detected_energy(&self) -> usize {
        self.categories
            .iter()
            .filter(|c| c.tpr_energy >= self.config.detect_bar)
            .count()
    }

    /// Mean per-category TPR, HPC-only.
    pub fn mean_tpr_hpc(&self) -> f64 {
        mean(self.categories.iter().map(|c| c.tpr_hpc))
    }

    /// Mean per-category TPR, HPC + energy.
    pub fn mean_tpr_energy(&self) -> f64 {
        mean(self.categories.iter().map(|c| c.tpr_energy))
    }

    /// Clean-trace energy-variant TPR of the category a carrier trace's
    /// spliced attack belongs to (the noise-delta reference point).
    pub fn clean_tpr_for(&self, trace: &CarrierTraceResult) -> f64 {
        self.categories
            .iter()
            .find(|c| c.name == trace.clean_category)
            .map_or(0.0, |c| c.tpr_energy)
    }

    /// Acceptance: >= 3 of 4 categories detected by the energy variant at
    /// the target FPR, and — on full-size runs — the energy modality
    /// strictly improves the mean held-out TPR over HPC-only features,
    /// plus the busy-carrier gates: >= 3 of 4 composed attacks detected at
    /// the carrier bar with the benign-carrier FPR still at or under
    /// target. Smoke runs skip the improvement and carrier gates: a
    /// one-run corpus is too small to resolve those margins.
    ///
    /// # Errors
    /// The first gate that fails, as a message.
    pub fn check(&self) -> Result<(), String> {
        let (cfg, detected) = (&self.config, self.detected_energy());
        let carriers = self.carrier.detected_full(cfg.carrier_bar);
        let (tpr_energy, tpr_hpc) = (self.mean_tpr_energy(), self.mean_tpr_hpc());
        if detected < 3 {
            Err(format!(
                "only {detected}/4 held-out categories detected (need >= 3)"
            ))
        } else if self.fpr_energy > cfg.fpr || self.fpr_hpc > cfg.fpr {
            Err(format!(
                "held-out benign FPR {:.4} (hpc {:.4}) exceeds target {:.4}",
                self.fpr_energy, self.fpr_hpc, cfg.fpr
            ))
        } else if cfg.smoke {
            Ok(())
        } else if tpr_energy <= tpr_hpc {
            Err(format!(
                "energy features did not improve mean held-out TPR ({tpr_energy:.4} vs {tpr_hpc:.4})"
            ))
        } else if carriers < 3 {
            Err(format!(
                "only {carriers}/4 busy-carrier composed attacks detected (need >= 3)"
            ))
        } else if self.carrier.fpr_full > cfg.fpr {
            Err(format!(
                "benign-carrier FPR {:.4} exceeds target {:.4}",
                self.carrier.fpr_full, cfg.fpr
            ))
        } else {
            Ok(())
        }
    }

    /// Serializes the report as `BENCH_zeroday.json`.
    pub fn to_json(&self) -> String {
        let cfg = &self.config;
        let categories: Value = self
            .categories
            .iter()
            .map(|c| {
                let classes: Value = c
                    .classes
                    .iter()
                    .map(|k| {
                        Object::new()
                            .field("name", k.name)
                            .field("windows", k.windows)
                            .fixed("tpr_hpc", rate(k.hits_hpc, k.windows), 6)
                            .fixed("tpr_energy", rate(k.hits_energy, k.windows), 6)
                    })
                    .collect();
                Object::new()
                    .field("name", c.name)
                    .fixed("tpr_hpc", c.tpr_hpc, 6)
                    .fixed("tpr_energy", c.tpr_energy, 6)
                    .field("detected_hpc", c.tpr_hpc >= cfg.detect_bar)
                    .field("detected_energy", c.tpr_energy >= cfg.detect_bar)
                    .field("classes", classes)
            })
            .collect();
        let traces: Value = self
            .carrier
            .traces
            .iter()
            .map(|t| {
                let tpr_full = rate(t.hits_full, t.windows);
                Object::new()
                    .field("name", t.name)
                    .field("clean_category", t.clean_category)
                    .field("windows", t.windows)
                    .fixed("tpr_hpc", rate(t.hits_hpc, t.windows), 6)
                    .fixed("tpr_full", tpr_full, 6)
                    .fixed("tpr_delta_vs_clean", tpr_full - self.clean_tpr_for(t), 6)
                    .field("detected", tpr_full >= cfg.carrier_bar)
            })
            .collect();
        let ca = &self.carrier;
        let carrier = Object::new()
            .field("carriers", CARRIER_KINDS.len())
            .field("composed_attacks", CARRIER_ATTACKS.len())
            .fixed("carrier_bar", cfg.carrier_bar, 6)
            .field(
                "dim_full",
                HPC_BASE_DIM + evax_sim::ENERGY_DIM + evax_sim::DEVICE_DIM,
            )
            .field("benign_windows", ca.benign_windows)
            .fixed("carrier_fpr_hpc", ca.fpr_hpc, 6)
            .fixed("carrier_fpr_full", ca.fpr_full, 6)
            .fixed(
                "carrier_fpr_delta_vs_clean",
                ca.fpr_full - self.fpr_energy,
                6,
            )
            .field("carrier_detected_hpc", ca.detected_hpc(cfg.carrier_bar))
            .field("carrier_detected_full", ca.detected_full(cfg.carrier_bar))
            .field("traces", traces);
        header("zeroday", cfg.seed, threads(cfg.parallelism), cfg.smoke)
            .field("interval", cfg.interval)
            .field("max_instrs", cfg.max_instrs)
            .fixed("fpr_target", cfg.fpr, 6)
            .fixed("detect_bar", cfg.detect_bar, 6)
            .field("top_k", cfg.top_k)
            .field("dim_hpc", HPC_BASE_DIM)
            .field("dim_energy", HPC_BASE_DIM + evax_sim::ENERGY_DIM)
            .field("benign_windows", self.benign_windows)
            .fixed("fpr_hpc", self.fpr_hpc, 6)
            .fixed("fpr_energy", self.fpr_energy, 6)
            .fixed("mean_tpr_hpc", self.mean_tpr_hpc(), 6)
            .fixed("mean_tpr_energy", self.mean_tpr_energy(), 6)
            .field("detected_hpc", self.detected_hpc())
            .field("detected_energy", self.detected_energy())
            .field(
                "energy_improves",
                self.mean_tpr_energy() > self.mean_tpr_hpc(),
            )
            .field("pass", self.check().is_ok())
            .field("categories", categories)
            .field("carrier", carrier)
            .render()
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One feature variant: a benign-fitted normalizer plus anomaly scorer
/// over a column prefix of the raw sensor window.
struct Variant {
    dim: usize,
    normalizer: Normalizer,
    scorer: AnomalyScorer,
}

impl Variant {
    /// Fits normalizer + scorer on the first `dim` columns of the benign
    /// fit pool and calibrates the threshold on the calibration pool.
    fn fit(
        dim: usize,
        top_k: usize,
        fpr: f64,
        fit_pool: &[Vec<f64>],
        calib_pool: &[Vec<f64>],
    ) -> Variant {
        let mut observed = Normalizer::new(dim);
        for w in fit_pool {
            observed.observe(&w[..dim]);
        }
        // Counters that are identically zero across every benign window
        // (clflush counts, DRAM row conflicts, ...) are precisely the
        // strongest zero-day evidence, but a fitted maximum of 0 would
        // normalize any attack value to 0 too. Floor those maxima at 1 so
        // a single event saturates the feature while benign stays at 0.
        let maxima: Vec<f64> = observed
            .maxima()
            .iter()
            .map(|&m| if m <= 0.0 { 1.0 } else { m })
            .collect();
        let normalizer = Normalizer::from_maxima(maxima);
        let rows = flatten(&normalizer, fit_pool, dim);
        let scorer = AnomalyScorer::fit(&rows, dim)
            .expect("benign fit pool is non-empty and finite")
            .with_top_k(top_k);
        let mut v = Variant {
            dim,
            normalizer,
            scorer,
        };
        let calib = flatten(&v.normalizer, calib_pool, dim);
        // Calibrate below the target so the *held-out* benign FPR — which
        // fluctuates around the calibration quantile — stays under it.
        v.scorer.calibrate_threshold(&calib, fpr * 0.6);
        v
    }

    /// Fraction of `windows` the calibrated scorer flags.
    fn alarm_rate(&self, windows: &[Vec<f64>]) -> (u64, u64) {
        let mut scratch = DetectorScratch::new();
        let mut row = vec![0.0f32; self.dim];
        let mut hits = 0u64;
        for w in windows {
            self.normalizer.normalize_into(&w[..self.dim], &mut row);
            if self.scorer.classify(&row, &mut scratch) {
                hits += 1;
            }
        }
        (hits, windows.len() as u64)
    }
}

/// Normalizes the first `dim` columns of every window into one flat
/// row-major f32 buffer.
fn flatten(normalizer: &Normalizer, windows: &[Vec<f64>], dim: usize) -> Vec<f32> {
    let mut rows = vec![0.0f32; windows.len() * dim];
    for (w, out) in windows.iter().zip(rows.chunks_exact_mut(dim)) {
        normalizer.normalize_into(&w[..dim], out);
    }
    rows
}

/// Derives a disjoint per-program rng stream from the master seed.
fn stream_rng(seed: u64, domain: u64, a: u64, b: u64) -> StdRng {
    let mut x = seed
        .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    StdRng::seed_from_u64(x)
}

fn collect_budget(
    program: &evax_sim::Program,
    cpu_cfg: &CpuConfig,
    cfg: &ZerodayConfig,
    budget: u64,
) -> Vec<Vec<f64>> {
    let mut sink = CollectingSink::new();
    ProgramSource::new(program, cpu_cfg, cfg.interval, budget).stream(&mut sink);
    sink.into_windows()
}

fn collect(program: &evax_sim::Program, cpu_cfg: &CpuConfig, cfg: &ZerodayConfig) -> Vec<Vec<f64>> {
    collect_budget(program, cpu_cfg, cfg, cfg.max_instrs)
}

/// Collects one benign pool (`pool` = 0 fit, 1 calibrate, 2 test). The
/// simulation fans out over `cfg.parallelism`; merge order is canonical,
/// so the pool is bit-identical at any thread count.
fn benign_pool(cfg: &ZerodayConfig, cpu_cfg: &CpuConfig, pool: u64) -> Vec<Vec<f64>> {
    let specs: Vec<(u64, u64)> = (0..BENIGN_KINDS.len() as u64)
        .flat_map(|k| (0..cfg.benign_runs as u64).map(move |run| (k, run)))
        .collect();
    let per_run = par::map(cfg.parallelism, &specs, |&(k, run)| {
        let mut rng = stream_rng(cfg.seed, pool, k, run);
        let program = build_benign(BENIGN_KINDS[k as usize], Scale(cfg.max_instrs), &mut rng);
        collect(&program, cpu_cfg, cfg)
    });
    per_run.into_iter().flatten().collect()
}

/// Simulated core for a carrier: energy sensor on, the carrier's device
/// configuration active. Every carrier produces the same width (the
/// device tail length is independent of which sources are armed).
fn carrier_cpu_cfg(kind: evax_attacks::CarrierKind) -> CpuConfig {
    CpuConfig {
        sensor: SensorConfig {
            energy: true,
            ..Default::default()
        },
        devices: kind.device_config(),
        ..CpuConfig::default()
    }
}

/// Collects one benign pool for a single carrier kind (`pool` = 0 fit,
/// 1 calibrate, 2 test), simulated under that carrier's device
/// configuration. The pools are **per-kind** on purpose: a timer carrier's
/// benign envelope (zero `dma.*` columns) and a DMA carrier's (huge ones)
/// are different tenants — pooling them inflates the fitted variance until
/// attacks hide inside it. Training one profile per carrier mirrors a
/// per-tenant deployment.
fn carrier_pool(cfg: &ZerodayConfig, k: usize, pool: u64) -> Vec<Vec<f64>> {
    let runs: Vec<u64> = (0..cfg.benign_runs as u64).collect();
    let kind = CARRIER_KINDS[k];
    let per_run = par::map(cfg.parallelism, &runs, |&run| {
        let mut rng = stream_rng(cfg.seed, 300 + pool, k as u64, run);
        let program = build_carrier(kind, Scale(cfg.max_instrs), &mut rng);
        collect(&program, &carrier_cpu_cfg(kind), cfg)
    });
    per_run.into_iter().flatten().collect()
}

/// The clean [`CATEGORIES`] entry a composed carrier attack belongs to.
fn clean_category(which: CarrierAttack) -> &'static str {
    let class = which.attack_class();
    CATEGORIES
        .iter()
        .find(|(_, classes)| classes.contains(&class))
        .map(|(name, _)| *name)
        .expect("every attack class is categorized")
}

/// Runs the full benign-only training + held-out category evaluation.
pub fn run_zeroday(cfg: &ZerodayConfig) -> ZerodayReport {
    let cpu_cfg = CpuConfig {
        sensor: SensorConfig {
            energy: true,
            ..Default::default()
        },
        ..CpuConfig::default()
    };
    let full_dim = evax_sim::dim_for(&cpu_cfg);

    let fit_pool = benign_pool(cfg, &cpu_cfg, 0);
    let calib_pool = benign_pool(cfg, &cpu_cfg, 1);
    let test_pool = benign_pool(cfg, &cpu_cfg, 2);
    assert!(
        !fit_pool.is_empty() && !calib_pool.is_empty() && !test_pool.is_empty(),
        "benign pools must be non-empty (raise max_instrs or lower interval)"
    );

    let hpc = Variant::fit(HPC_BASE_DIM, cfg.top_k, cfg.fpr, &fit_pool, &calib_pool);
    let energy = Variant::fit(full_dim, cfg.top_k, cfg.fpr, &fit_pool, &calib_pool);

    let (fp_h, n_test) = hpc.alarm_rate(&test_pool);
    let (fp_e, _) = energy.alarm_rate(&test_pool);

    let mut categories = Vec::new();
    for (name, classes) in CATEGORIES {
        let mut results = Vec::new();
        let (mut pooled_h, mut pooled_e, mut pooled_n) = (0u64, 0u64, 0u64);
        for (c, &class) in classes.iter().enumerate() {
            let runs: Vec<u64> = (0..cfg.attack_runs as u64).collect();
            let per_run = par::map(cfg.parallelism, &runs, |&run| {
                let mut rng = stream_rng(cfg.seed, 100 + c as u64, class as u64, run);
                let program = build_attack(class, &KernelParams::default(), &mut rng);
                let mut windows = collect(&program, &cpu_cfg, cfg);
                // Evasive variant: decoys and rate modulation dilute the
                // per-window discrete footprint (the hard zero-day case —
                // aggregate activity, which the energy tail integrates,
                // stays elevated while individual counters sink back into
                // the benign envelope).
                let mut rng = stream_rng(cfg.seed, 200 + c as u64, class as u64, run);
                let evasive = KernelParams {
                    decoy_ops: rng.gen_range(48..128),
                    delay_ops: rng.gen_range(128..384),
                    iterations: rng.gen_range(8..24),
                    seed: rng.gen(),
                    ..KernelParams::default()
                };
                let program = build_attack(class, &evasive, &mut rng);
                windows.extend(collect(&program, &cpu_cfg, cfg));
                windows
            });
            let windows: Vec<Vec<f64>> = per_run.into_iter().flatten().collect();
            let (h, n) = hpc.alarm_rate(&windows);
            let (e, _) = energy.alarm_rate(&windows);
            pooled_h += h;
            pooled_e += e;
            pooled_n += n;
            results.push(ClassResult {
                name: class.name(),
                windows: n,
                hits_hpc: h,
                hits_energy: e,
            });
        }
        categories.push(CategoryResult {
            name,
            classes: results,
            tpr_hpc: rate(pooled_h, pooled_n),
            tpr_energy: rate(pooled_e, pooled_n),
        });
    }

    // Busy-carrier section: retrain from scratch on benign carrier traces,
    // one scorer pair **per carrier kind** (the per-tenant profile — see
    // [`carrier_pool`]), then confront each carrier's scorers with composed
    // attacks spliced into that carrier. `full` sees the energy + device
    // tails; `hpc` is the device-blind ablation.
    let carrier_dim = evax_sim::dim_for(&carrier_cpu_cfg(CARRIER_KINDS[0]));
    let mut per_kind = Vec::with_capacity(CARRIER_KINDS.len());
    let (mut c_fit_n, mut c_calib_n) = (0u64, 0u64);
    let (mut cfp_h, mut cfp_f, mut c_n_test) = (0u64, 0u64, 0u64);
    for k in 0..CARRIER_KINDS.len() {
        let fit = carrier_pool(cfg, k, 0);
        let calib = carrier_pool(cfg, k, 1);
        let test = carrier_pool(cfg, k, 2);
        assert!(
            !fit.is_empty() && !calib.is_empty() && !test.is_empty(),
            "carrier pools must be non-empty (raise max_instrs or lower interval)"
        );
        let c_hpc = Variant::fit(HPC_BASE_DIM, cfg.top_k, cfg.fpr, &fit, &calib);
        let c_full = Variant::fit(carrier_dim, cfg.top_k, cfg.fpr, &fit, &calib);
        let (h, n) = c_hpc.alarm_rate(&test);
        let (f, _) = c_full.alarm_rate(&test);
        cfp_h += h;
        cfp_f += f;
        c_n_test += n;
        c_fit_n += fit.len() as u64;
        c_calib_n += calib.len() as u64;
        per_kind.push((c_hpc, c_full));
    }

    let mut traces = Vec::new();
    for (w, &which) in CARRIER_ATTACKS.iter().enumerate() {
        let runs: Vec<u64> = (0..cfg.attack_runs as u64).collect();
        let per_run = par::map(cfg.parallelism, &runs, |&run| {
            let mut rng = stream_rng(cfg.seed, 400 + w as u64, 0, run);
            let program = build_carrier_attack(
                which,
                Scale(cfg.max_instrs),
                &KernelParams::default(),
                &mut rng,
            );
            // The composed trace is carrier prefix + attack + tail; give it
            // headroom beyond the per-segment scale so the attack phase is
            // actually reached and sampled.
            collect_budget(
                &program,
                &carrier_cpu_cfg(which.carrier()),
                cfg,
                cfg.max_instrs.saturating_mul(3),
            )
        });
        let windows: Vec<Vec<f64>> = per_run.into_iter().flatten().collect();
        let kind_idx = CARRIER_KINDS
            .iter()
            .position(|&k| k == which.carrier())
            .expect("composed attack rides a registered carrier");
        let (c_hpc, c_full) = &per_kind[kind_idx];
        let (h, n) = c_hpc.alarm_rate(&windows);
        let (f, _) = c_full.alarm_rate(&windows);
        traces.push(CarrierTraceResult {
            name: which.name(),
            clean_category: clean_category(which),
            windows: n,
            hits_hpc: h,
            hits_full: f,
        });
    }

    ZerodayReport {
        config: cfg.clone(),
        benign_windows: [fit_pool.len() as u64, calib_pool.len() as u64, n_test],
        fpr_hpc: rate(fp_h, n_test),
        fpr_energy: rate(fp_e, n_test),
        categories,
        carrier: CarrierSection {
            benign_windows: [c_fit_n, c_calib_n, c_n_test],
            fpr_hpc: rate(cfp_h, c_n_test),
            fpr_full: rate(cfp_f, c_n_test),
            traces,
        },
    }
}

/// The `zeroday` binary's command line: the configuration and the artifact
/// path. `--smoke` selects [`ZerodayConfig::smoke`], and explicit flags
/// override it.
///
/// # Errors
/// The first bad, missing or unknown argument, with the usage line.
pub fn cli(argv: Vec<String>) -> Result<(ZerodayConfig, String), String> {
    let mut args = Args::new(
        "zeroday [--seed N] [--instrs N] [--runs N] [--fpr F] [--topk K] [--bar F] \
         [--carrier-bar F] [--threads N] [--smoke] [--out PATH]",
        argv,
    );
    let mut cfg = ZerodayConfig::default();
    if args.smoke {
        cfg = ZerodayConfig::smoke(cfg.seed);
    }
    let mut out = "BENCH_zeroday.json".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = args.seed()?,
            "--instrs" => {
                let at_least_1000 = |s: &str| s.parse().ok().filter(|n| *n >= 1000);
                cfg.max_instrs = args.value("an integer >= 1000", at_least_1000)?;
            }
            "--runs" => {
                cfg.benign_runs = args.positive()?;
                cfg.attack_runs = cfg.benign_runs;
            }
            "--fpr" => cfg.fpr = args.fraction(0.5)?,
            "--topk" => cfg.top_k = args.value("an integer (0 = all dims)", |s| s.parse().ok())?,
            "--bar" => cfg.detect_bar = args.fraction(1.0)?,
            "--carrier-bar" => cfg.carrier_bar = args.fraction(1.0)?,
            "--threads" => cfg.parallelism = args.threads()?,
            "--smoke" => {}
            "--out" => out = args.path()?,
            _ => return Err(args.unknown()),
        }
    }
    Ok((cfg, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_attacks::ATTACK_CLASSES;

    #[test]
    fn categories_partition_the_registry() {
        let mut seen: Vec<AttackClass> = Vec::new();
        for (_, classes) in CATEGORIES {
            for &c in classes {
                assert!(!seen.contains(&c), "{c:?} appears twice");
                seen.push(c);
            }
        }
        assert_eq!(seen.len(), ATTACK_CLASSES.len());
        for c in ATTACK_CLASSES {
            assert!(seen.contains(&c), "{c:?} missing from categories");
        }
    }

    #[test]
    fn smoke_report_is_deterministic_and_well_formed() {
        let cfg = ZerodayConfig::smoke(7);
        let a = run_zeroday(&cfg);
        let b = run_zeroday(&cfg);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.categories.len(), 4);
        assert_eq!(
            a.categories.iter().map(|c| c.classes.len()).sum::<usize>(),
            21
        );
        // Calibration bounds the *calibration-pool* FPR by construction;
        // the held-out estimate is reported but only asserted finite here.
        assert!(a.fpr_hpc.is_finite() && a.fpr_energy.is_finite());
        assert_eq!(a.carrier.traces.len(), 4, "one trace per composition");
        assert!(a.carrier.traces.iter().all(|t| t.windows > 0));
        for key in [
            "\"bench\": \"zeroday\"",
            "\"cores\"",
            "\"threads\"",
            "\"fpr_hpc\"",
            "\"fpr_energy\"",
            "\"mean_tpr_hpc\"",
            "\"mean_tpr_energy\"",
            "\"detected_energy\"",
            "\"energy_improves\"",
            "\"pass\"",
            "\"categories\"",
            "\"carrier\"",
            "\"carrier_fpr_full\"",
            "\"carrier_fpr_delta_vs_clean\"",
            "\"carrier_detected_full\"",
            "\"tpr_delta_vs_clean\"",
        ] {
            assert!(a.to_json().contains(key), "missing {key}");
        }
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let mut one = ZerodayConfig::smoke(11);
        one.parallelism = Parallelism::Fixed(1);
        let mut four = ZerodayConfig::smoke(11);
        four.parallelism = Parallelism::Fixed(4);
        let a = run_zeroday(&one);
        let b = run_zeroday(&four);
        // The merge order is canonical, so everything but the recorded
        // thread count is byte-identical.
        assert_eq!(
            a.to_json().replace("\"threads\": 1,", "\"threads\": 4,"),
            b.to_json()
        );
    }

    #[test]
    fn clean_category_mapping_is_total() {
        for which in CARRIER_ATTACKS {
            let name = clean_category(which);
            assert!(CATEGORIES.iter().any(|(n, _)| *n == name));
        }
    }
}
