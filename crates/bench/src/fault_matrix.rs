//! The `fault_matrix` chaos harness: injector × subsystem survival table.
//!
//! Every cell of the matrix drives one [`FaultKind`] into one pipeline
//! subsystem for a number of seeded iterations and classifies what came
//! back:
//!
//! * **clean-error** — the fault surfaced as a typed [`EvaxError`]; the
//!   caller can react. The required outcome for persistent storage
//!   corruption.
//! * **fail-secure** — the adaptive controller could not trust a verdict
//!   (non-finite counters or a non-finite detector score) and engaged
//!   secure mode instead of guessing. The required outcome for inference
//!   faults.
//! * **degraded-ok** — the pipeline absorbed the fault and kept going with
//!   sane state: transient I/O recovered within the retry budget, poisoned
//!   windows rejected by [`StreamStats`] sanitization, zero-length streams
//!   producing empty-but-valid statistics.
//! * **fail-open** — a fault slipped through *silently* (non-finite state
//!   deployed, poisoned verdict treated as benign). Always a violation.
//! * **panic** — the fault crashed the pipeline. Always a violation.
//!
//! [`run_fault_matrix`] fans the cells out over the deterministic parallel
//! substrate ([`evax_core::par`]); per-cell seeds derive from the matrix
//! seed alone, so the rendered table is byte-identical at any thread count.
//!
//! [`EvaxError`]: evax_core::error::EvaxError
//! [`StreamStats`]: evax_core::featurize::StreamStats

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use evax_attacks::benign::Scale;
use evax_attacks::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
use evax_core::collect::collect_dataset;
use evax_core::detector::TrainConfig;
use evax_core::error::Result;
use evax_core::faults::is_transient;
use evax_core::featurize::CollectingSink;
use evax_core::prelude::{
    read_csv, read_featurizer, read_model, retry, write_csv, write_featurizer, write_model,
    CollectConfig, Detector, DetectorKind, FaultInjector, FaultKind, FaultingSink, Featurizer,
    Parallelism, ProgramSource, RetryPolicy, SliceSource, StreamStats, WindowSource,
};
use evax_defense::adaptive::{AdaptiveConfig, AdaptiveController, Policy};
use evax_sim::CpuConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// HPC sampling interval shared by the harness's runs.
const SAMPLE_INTERVAL: u64 = 200;
/// Instruction budget for window materialization.
const RUN_INSTRS: u64 = 6_000;

/// The pipeline subsystem a fault is injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// The serialized model bundle consumed by `read_model`.
    ModelStore,
    /// The serialized featurizer consumed by `read_featurizer`.
    FeaturizerStore,
    /// The CSV dataset consumed by `read_csv`.
    DatasetStore,
    /// The offline featurize chain (`SliceSource` → `StreamStats`).
    FeaturizeChain,
    /// The online adaptive controller (windows and detector scores).
    Controller,
}

impl Subsystem {
    /// Render label (kebab-case, fixed width friendly).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::ModelStore => "model-store",
            Subsystem::FeaturizerStore => "featurizer-store",
            Subsystem::DatasetStore => "dataset-store",
            Subsystem::FeaturizeChain => "featurize-chain",
            Subsystem::Controller => "controller",
        }
    }
}

/// Classified outcome of one injected-fault trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Typed error returned; nothing corrupt deployed.
    CleanError,
    /// Controller engaged secure mode on an untrustworthy verdict.
    FailSecure,
    /// Pipeline absorbed the fault with sane state.
    DegradedOk,
    /// Fault passed silently — a violation.
    FailOpen,
    /// The pipeline panicked — a violation.
    Panic,
}

/// One (subsystem × fault) cell with per-outcome tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Subsystem injected into.
    pub subsystem: Subsystem,
    /// Fault injected.
    pub kind: FaultKind,
    /// Trials run.
    pub iters: u32,
    /// `clean-error` tally.
    pub clean_error: u32,
    /// `fail-secure` tally.
    pub fail_secure: u32,
    /// `degraded-ok` tally.
    pub degraded_ok: u32,
    /// `fail-open` tally (violation).
    pub fail_open: u32,
    /// `panic` tally (violation).
    pub panics: u32,
}

impl CellResult {
    fn tally(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::CleanError => self.clean_error += 1,
            Outcome::FailSecure => self.fail_secure += 1,
            Outcome::DegradedOk => self.degraded_ok += 1,
            Outcome::FailOpen => self.fail_open += 1,
            Outcome::Panic => self.panics += 1,
        }
    }

    /// `true` when the cell recorded no fail-open or panic outcome.
    pub fn survived(&self) -> bool {
        self.fail_open == 0 && self.panics == 0
    }
}

/// The full survival table returned by [`run_fault_matrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMatrix {
    /// Seed the matrix derives every per-trial seed from.
    pub seed: u64,
    /// One row per (subsystem × fault) combination, in canonical order.
    pub cells: Vec<CellResult>,
}

impl FaultMatrix {
    /// Human-readable violations: every cell that panicked or failed open.
    pub fn violations(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|c| !c.survived())
            .map(|c| {
                format!(
                    "{} x {}: fail-open={} panics={}",
                    c.subsystem.label(),
                    c.kind.label(),
                    c.fail_open,
                    c.panics
                )
            })
            .collect()
    }

    /// Renders the survival table (deterministic for a given seed/iters).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault matrix (seed {})", self.seed);
        let _ = writeln!(
            out,
            "{:<17} {:<17} {:>5} {:>11} {:>11} {:>11} {:>9} {:>6}  verdict",
            "subsystem",
            "fault",
            "iters",
            "clean-error",
            "fail-secure",
            "degraded-ok",
            "fail-open",
            "panic"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<17} {:<17} {:>5} {:>11} {:>11} {:>11} {:>9} {:>6}  {}",
                c.subsystem.label(),
                c.kind.label(),
                c.iters,
                c.clean_error,
                c.fail_secure,
                c.degraded_ok,
                c.fail_open,
                c.panics,
                if c.survived() { "ok" } else { "VIOLATION" },
            );
        }
        let violations = self.violations();
        if violations.is_empty() {
            let _ = writeln!(
                out,
                "all {} cells survived: fail-secure holds",
                self.cells.len()
            );
        } else {
            let _ = writeln!(out, "{} VIOLATION(S):", violations.len());
            for v in &violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }
}

/// Everything a trial needs, built once and shared read-only by every cell.
#[derive(Debug)]
struct MatrixContext {
    model_bytes: Vec<u8>,
    featurizer_bytes: Vec<u8>,
    csv_bytes: Vec<u8>,
    detector: Detector,
    featurizer: Featurizer,
    attack_windows: Vec<Vec<f64>>,
}

impl MatrixContext {
    fn build(seed: u64) -> Self {
        let collect_cfg = CollectConfig {
            interval: SAMPLE_INTERVAL,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        };
        let (dataset, normalizer) = collect_dataset(&collect_cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_0001);
        let detector = Detector::train(
            DetectorKind::Evax,
            &dataset,
            Vec::new(),
            &TrainConfig::default(),
            &mut rng,
        );
        let featurizer = Featurizer::new(normalizer, Vec::new());

        let mut model_bytes = Vec::new();
        write_model(&detector, &featurizer, 1, &mut model_bytes)
            .unwrap_or_else(|e| unreachable!("in-memory model write: {e}"));
        let mut featurizer_bytes = Vec::new();
        write_featurizer(&featurizer, &mut featurizer_bytes)
            .unwrap_or_else(|e| unreachable!("in-memory featurizer write: {e}"));
        let mut csv_bytes = Vec::new();
        write_csv(&dataset, &[], &mut csv_bytes)
            .unwrap_or_else(|e| unreachable!("in-memory csv write: {e}"));

        // Materialize one attack's raw windows so data/inference trials can
        // replay them through `SliceSource` without re-simulating.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_0002);
        let attack = build_attack(AttackClass::SpectrePht, &KernelParams::default(), &mut rng);
        let mut sink = CollectingSink::new();
        ProgramSource::new(&attack, &CpuConfig::default(), SAMPLE_INTERVAL, RUN_INSTRS)
            .stream(&mut sink);
        let mut attack_windows = sink.into_windows();
        if attack_windows.is_empty() {
            // Defensive: a benign fallback keeps the matrix meaningful even
            // if the attack halts before one full window.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_0003);
            let benign = build_benign(BenignKind::Compression, Scale(RUN_INSTRS), &mut rng);
            let mut sink = CollectingSink::new();
            ProgramSource::new(&benign, &CpuConfig::default(), SAMPLE_INTERVAL, RUN_INSTRS)
                .stream(&mut sink);
            attack_windows = sink.into_windows();
        }

        MatrixContext {
            model_bytes,
            featurizer_bytes,
            csv_bytes,
            detector,
            featurizer,
            attack_windows,
        }
    }
}

/// The canonical cell list: every meaningful injector × subsystem combo.
fn cells() -> Vec<(Subsystem, FaultKind)> {
    let storage = [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::Garbage,
        FaultKind::TransientIo,
    ];
    let data = [
        FaultKind::NanWindow,
        FaultKind::InfWindow,
        FaultKind::SaturatedWindow,
        FaultKind::ZeroLen,
    ];
    let mut out = Vec::new();
    for sub in [
        Subsystem::ModelStore,
        Subsystem::FeaturizerStore,
        Subsystem::DatasetStore,
    ] {
        for kind in storage {
            out.push((sub, kind));
        }
    }
    for kind in data {
        out.push((Subsystem::FeaturizeChain, kind));
    }
    for kind in data {
        out.push((Subsystem::Controller, kind));
    }
    out.push((Subsystem::Controller, FaultKind::NanScore));
    out.push((Subsystem::Controller, FaultKind::InfScore));
    out
}

fn parse_store<R: std::io::Read>(sub: Subsystem, r: R) -> Result<()> {
    match sub {
        Subsystem::ModelStore => read_model(r).map(|_| ()),
        Subsystem::FeaturizerStore => read_featurizer(r).map(|_| ()),
        Subsystem::DatasetStore => read_csv(r).map(|_| ()),
        _ => unreachable!("parse_store only handles storage subsystems"),
    }
}

fn store_bytes(ctx: &MatrixContext, sub: Subsystem) -> &[u8] {
    match sub {
        Subsystem::ModelStore => &ctx.model_bytes,
        Subsystem::FeaturizerStore => &ctx.featurizer_bytes,
        Subsystem::DatasetStore => &ctx.csv_bytes,
        _ => unreachable!("store_bytes only handles storage subsystems"),
    }
}

/// One storage trial: corrupt the serialized artifact (or its reader) and
/// reload it. The contract: a typed error or a successful parse of finite
/// state — never a panic, never silently-deployed non-finite values.
fn storage_trial(ctx: &MatrixContext, sub: Subsystem, kind: FaultKind, seed: u64) -> Outcome {
    if kind == FaultKind::TransientIo {
        // Vary the failure burst so some trials recover within the retry
        // budget (degraded-ok) and some exhaust it (clean-error).
        let intensity = 2 + (seed % 3) as u32;
        let inj = FaultInjector::new(kind, seed).with_intensity(intensity);
        let out = retry(&RetryPolicy::default(), |_| {
            parse_store(sub, inj.wrap_reader(store_bytes(ctx, sub)))
        });
        return match out {
            Ok(()) => Outcome::DegradedOk,
            // Exhausting the budget must still surface a *transient* typed
            // error, so the caller knows a retry later may succeed.
            Err(ref e) if is_transient(e) => Outcome::CleanError,
            // Any other typed error is still clean, just deterministic.
            Err(_) => Outcome::CleanError,
        };
    }
    let mut corrupted = store_bytes(ctx, sub).to_vec();
    FaultInjector::new(kind, seed).corrupt_bytes(&mut corrupted);
    match parse_store(sub, corrupted.as_slice()) {
        // A corruption that still parses must have produced finite state —
        // the readers reject non-finite values — so it is degraded-ok by
        // construction (e.g. a bit flip inside a comment-free digit run).
        Ok(()) => Outcome::DegradedOk,
        Err(_) => Outcome::CleanError,
    }
}

/// One offline featurize-chain trial: poisoned windows through
/// `SliceSource` → `FaultingSink` → `StreamStats`. The contract: non-finite
/// windows are rejected (counted, not folded into the maxima), and the
/// fitted normalizer stays finite.
fn featurize_trial(ctx: &MatrixContext, kind: FaultKind, seed: u64) -> Outcome {
    let dim = ctx.featurizer.base_dim();
    if kind == FaultKind::ZeroLen {
        let empty: Vec<Vec<f64>> = Vec::new();
        let mut stats = StreamStats::new(dim);
        let result = SliceSource::new(&empty, SAMPLE_INTERVAL).stream(&mut stats);
        let sane = stats.count() == 0
            && result.committed_instructions == 0
            && stats.normalizer().maxima().iter().all(|m| m.is_finite());
        return if sane {
            Outcome::DegradedOk
        } else {
            Outcome::FailOpen
        };
    }
    let inj = FaultInjector::new(kind, seed).with_intensity(2);
    let mut stats = StreamStats::new(dim);
    {
        let mut sink = FaultingSink::new(&mut stats, inj.clone());
        SliceSource::new(&ctx.attack_windows, SAMPLE_INTERVAL).stream(&mut sink);
    }
    let maxima_finite = stats.normalizer().maxima().iter().all(|m| m.is_finite());
    if !maxima_finite {
        return Outcome::FailOpen;
    }
    match kind {
        // Non-finite poisons must have been rejected, not absorbed.
        FaultKind::NanWindow | FaultKind::InfWindow => {
            if inj.injections() > 0 && stats.rejected() == inj.injections() {
                Outcome::DegradedOk
            } else {
                Outcome::FailOpen
            }
        }
        // Saturated counters are hostile but finite: they flow through.
        _ => Outcome::DegradedOk,
    }
}

/// One online controller trial: poisoned windows or poisoned detector
/// scores against the adaptive controller. The contract: every
/// untrustworthy verdict engages secure mode (fail-secure), and the
/// exported IPC timeline stays finite.
fn controller_trial(ctx: &MatrixContext, kind: FaultKind, seed: u64) -> Outcome {
    let cfg = AdaptiveConfig {
        sample_interval: SAMPLE_INTERVAL,
        secure_window: 2_000,
        policy: Policy::FenceSpectre,
    };
    if kind == FaultKind::ZeroLen {
        let empty: Vec<Vec<f64>> = Vec::new();
        let mut ctl = AdaptiveController::new(&ctx.featurizer, &ctx.detector, &cfg);
        let result = SliceSource::new(&empty, SAMPLE_INTERVAL).stream(&mut ctl);
        let run = ctl.finish(result);
        let sane = run.flags == 0 && run.fail_secure_switches == 0 && run.ipc_series.is_empty();
        return if sane {
            Outcome::DegradedOk
        } else {
            Outcome::FailOpen
        };
    }
    let inj = FaultInjector::new(kind, seed).with_intensity(2);
    let run = if kind.is_inference() {
        let mut ctl =
            AdaptiveController::new(&ctx.featurizer, &ctx.detector, &cfg).with_faults(inj.clone());
        let result = SliceSource::new(&ctx.attack_windows, SAMPLE_INTERVAL).stream(&mut ctl);
        ctl.finish(result)
    } else {
        let mut ctl = AdaptiveController::new(&ctx.featurizer, &ctx.detector, &cfg);
        let result = {
            let mut sink = FaultingSink::new(&mut ctl, inj.clone());
            SliceSource::new(&ctx.attack_windows, SAMPLE_INTERVAL).stream(&mut sink)
        };
        ctl.finish(result)
    };
    if run.ipc_series.iter().any(|&(_, ipc)| !ipc.is_finite()) {
        return Outcome::FailOpen;
    }
    match kind {
        // Every injected non-finite verdict must have switched to secure.
        FaultKind::NanWindow | FaultKind::InfWindow | FaultKind::NanScore | FaultKind::InfScore => {
            if inj.injections() > 0 && run.fail_secure_switches == inj.injections() {
                Outcome::FailSecure
            } else {
                Outcome::FailOpen
            }
        }
        // Saturated counters produce ordinary (scoreable) verdicts.
        _ => {
            if run.fail_secure_switches == 0 {
                Outcome::DegradedOk
            } else {
                Outcome::FailOpen
            }
        }
    }
}

fn run_trial(ctx: &MatrixContext, sub: Subsystem, kind: FaultKind, seed: u64) -> Outcome {
    let trial = catch_unwind(AssertUnwindSafe(|| match sub {
        Subsystem::ModelStore | Subsystem::FeaturizerStore | Subsystem::DatasetStore => {
            storage_trial(ctx, sub, kind, seed)
        }
        Subsystem::FeaturizeChain => featurize_trial(ctx, kind, seed),
        Subsystem::Controller => controller_trial(ctx, kind, seed),
    }));
    trial.unwrap_or(Outcome::Panic)
}

/// Runs the full matrix: `iters` seeded trials per cell, fanned out over
/// the deterministic parallel substrate. Byte-identical output at any
/// `parallelism` for a fixed `(seed, iters)`.
pub fn run_fault_matrix(seed: u64, iters: u32, parallelism: Parallelism) -> FaultMatrix {
    let ctx = MatrixContext::build(seed);
    let grid = cells();
    let cells = evax_core::par::map_indexed(parallelism, &grid, |i, &(sub, kind)| {
        let mut cell = CellResult {
            subsystem: sub,
            kind,
            iters,
            clean_error: 0,
            fail_secure: 0,
            degraded_ok: 0,
            fail_open: 0,
            panics: 0,
        };
        for trial in 0..iters {
            let trial_seed = seed
                ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ u64::from(trial).wrapping_mul(0xD1B5_4A32_D192_ED03);
            cell.tally(run_trial(&ctx, sub, kind, trial_seed));
        }
        cell
    });
    FaultMatrix { seed, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_every_expected_cell() {
        let grid = cells();
        assert_eq!(grid.len(), 22);
        assert!(grid.iter().all(|(s, k)| match s {
            Subsystem::ModelStore | Subsystem::FeaturizerStore | Subsystem::DatasetStore =>
                k.is_storage(),
            Subsystem::FeaturizeChain => k.is_data(),
            Subsystem::Controller => k.is_data() || k.is_inference(),
        }));
    }

    #[test]
    fn smoke_matrix_survives() {
        let matrix = run_fault_matrix(7, 2, Parallelism::Fixed(1));
        assert!(
            matrix.violations().is_empty(),
            "violations:\n{}",
            matrix.render()
        );
        // Every storage cell produced typed errors or clean recoveries.
        for c in matrix.cells.iter().filter(|c| c.kind.is_storage()) {
            assert_eq!(
                c.clean_error + c.degraded_ok,
                c.iters,
                "{}",
                matrix.render()
            );
        }
        // Every inference cell fail-secured.
        for c in matrix
            .cells
            .iter()
            .filter(|c| c.subsystem == Subsystem::Controller && c.kind.is_inference())
        {
            assert_eq!(c.fail_secure, c.iters, "{}", matrix.render());
        }
    }
}
