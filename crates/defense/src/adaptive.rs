//! The detector-gated adaptive controller.
//!
//! Paper §VIII-A: "we turn on mitigation at every true flag by our detector
//! and we execute 1M instructions in secure mode to deactivate possible
//! attacks" (the window is scaled by configuration here).
//!
//! The controller is a [`WindowSink`] on the unified streaming featurization
//! pipeline ([`evax_core::featurize`]): it consumes exactly the same
//! window→feature stage chain that produced the detector's training data —
//! there is no deployment-side copy of the featurization to drift.

use evax_core::prelude::{
    DetectorScratch, FaultInjector, Featurizer, ModelDetector, ProgramSource, RawWindow,
    WindowSink, WindowSource,
};
use evax_obs::MetricsSink;
use evax_sim::{CpuConfig, MitigationMode, Program, RunResult};

/// Which mitigation secure mode applies (paper Fig. 16 naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// `EVAX-SpectreSafe`: a fence after every branch.
    FenceSpectre,
    /// `EVAX-FuturisticSafe` / `Fences-FuturisticSafe`: a fence before every
    /// load (covers LVI-class attacks).
    FenceFuturistic,
    /// `EVAX-SafeSpec`: InvisiSpec under the Spectre threat model.
    InvisiSpecSpectre,
    /// `FuturisticSafeSpec`: InvisiSpec under the Futuristic threat model.
    InvisiSpecFuturistic,
}

impl Policy {
    /// The simulator mitigation mode secure mode engages.
    pub fn mode(self) -> MitigationMode {
        match self {
            Policy::FenceSpectre => MitigationMode::FenceSpectre,
            Policy::FenceFuturistic => MitigationMode::FenceFuturistic,
            Policy::InvisiSpecSpectre => MitigationMode::InvisiSpecSpectre,
            Policy::InvisiSpecFuturistic => MitigationMode::InvisiSpecFuturistic,
        }
    }

    /// Display name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Policy::FenceSpectre => "Fence-Spectre",
            Policy::FenceFuturistic => "Fence-Futuristic",
            Policy::InvisiSpecSpectre => "InvisiSpec-Spectre",
            Policy::InvisiSpecFuturistic => "InvisiSpec-Futuristic",
        }
    }
}

/// Adaptive controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// HPC sampling interval in committed instructions.
    pub sample_interval: u64,
    /// Instructions to stay in secure mode after a flag (paper: 1M; scale
    /// with your instruction budgets).
    pub secure_window: u64,
    /// The mitigation secure mode engages.
    pub policy: Policy,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            sample_interval: 100,
            secure_window: 10_000,
            policy: Policy::FenceSpectre,
        }
    }
}

impl AdaptiveConfig {
    /// Checks the configuration before a controller runs.
    /// [`AdaptiveController::new`] and [`crate::fleet::run_fleet_with_model`]
    /// call this up front, so a degenerate controller fails naming the
    /// offending field: a zero sampling interval (the detector never sees a
    /// window) or a secure window shorter than one sampling interval
    /// (secure mode would expire before the next verdict, making the
    /// mitigation a no-op).
    ///
    /// # Errors
    /// [`EvaxError::Config`](evax_core::error::EvaxError::Config) when the
    /// sampling interval is zero, the secure window is zero, or the secure
    /// window is shorter than the sampling interval.
    pub fn validate(&self) -> evax_core::error::Result<()> {
        use evax_core::error::EvaxError;
        if self.sample_interval == 0 {
            return Err(EvaxError::config(
                "sample_interval",
                "sampling interval must be positive",
            ));
        }
        if self.secure_window == 0 {
            return Err(EvaxError::config(
                "secure_window",
                "secure window must be positive",
            ));
        }
        if self.secure_window < self.sample_interval {
            return Err(EvaxError::config(
                "secure_window",
                format!(
                    "secure window ({}) must cover at least one sampling interval ({})",
                    self.secure_window, self.sample_interval
                ),
            ));
        }
        Ok(())
    }
}

/// Per-stream secure-mode state machine: the detector-gated countdown the
/// [`AdaptiveController`] runs for its single program, factored out so the
/// fleet scheduler (`crate::fleet`) can hold one per tenant stream and
/// drain **batched** verdicts through exactly the same transitions.
///
/// Transitions (paper §VIII-A semantics, one call per sampling window):
/// a malicious verdict (re-)arms `secure_window` instructions of the
/// policy's mitigation; a benign verdict counts the window down and lifts
/// the mitigation on expiry; an untrustworthy verdict
/// ([`SecureModeState::fail_secure`]) is treated as "attack".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecureModeState {
    /// Detector flags raised.
    pub flags: u64,
    /// Instructions executed while secure mode was active.
    pub secure_instructions: u64,
    /// Secure-mode instructions still to run before expiry.
    pub secure_remaining: u64,
    /// Untrustworthy verdicts routed to secure mode.
    pub fail_secure_switches: u64,
    /// Cycle of the first detector flag.
    pub first_flag_cycle: Option<u64>,
}

impl SecureModeState {
    /// Engages (or re-arms) secure mode for one untrustworthy verdict — a
    /// window with non-finite counters or a non-finite score. Fail-secure:
    /// an unobtainable verdict is treated as "attack".
    pub fn fail_secure(&mut self, cfg: &AdaptiveConfig) -> Option<MitigationMode> {
        self.fail_secure_switches += 1;
        self.secure_remaining = cfg.secure_window;
        self.secure_instructions += cfg.sample_interval;
        Some(cfg.policy.mode())
    }

    /// Applies one trusted verdict for the window ending at `cycle`,
    /// returning the mitigation switch to apply (if any).
    pub fn apply_verdict(
        &mut self,
        malicious: bool,
        cycle: u64,
        cfg: &AdaptiveConfig,
    ) -> Option<MitigationMode> {
        if malicious {
            self.flags += 1;
            if self.first_flag_cycle.is_none() {
                self.first_flag_cycle = Some(cycle);
            }
            self.secure_remaining = cfg.secure_window;
            self.secure_instructions += cfg.sample_interval;
            return Some(cfg.policy.mode());
        }
        if self.secure_remaining > 0 {
            self.secure_remaining = self.secure_remaining.saturating_sub(cfg.sample_interval);
            self.secure_instructions += cfg.sample_interval;
            if self.secure_remaining == 0 {
                // Window expired: back to performance mode.
                return Some(MitigationMode::None);
            }
        }
        None
    }

    /// The score gate every serving loop applies to one scored window: a
    /// non-finite score (faulted model, injected inference fault) compares
    /// false against any threshold — naive `score >= threshold` would fail
    /// *open* — so it takes [`fail_secure`](Self::fail_secure); a finite
    /// score applies `malicious` through
    /// [`apply_verdict`](Self::apply_verdict).
    pub fn apply_scored(
        &mut self,
        score: f32,
        malicious: bool,
        cycle: u64,
        cfg: &AdaptiveConfig,
    ) -> Option<MitigationMode> {
        if score.is_finite() {
            self.apply_verdict(malicious, cycle, cfg)
        } else {
            self.fail_secure(cfg)
        }
    }
}

/// Outcome of an adaptive (or fixed-mode) run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun {
    /// The simulator run result.
    pub result: RunResult,
    /// Detector flags raised.
    pub flags: u64,
    /// Instructions executed while secure mode was active.
    pub secure_instructions: u64,
    /// Windows whose verdict could not be trusted — a non-finite counter
    /// value or a non-finite detector score — and where the controller
    /// therefore engaged (or held) secure mode instead of guessing. The
    /// fail-secure policy: an unobtainable verdict is treated as "attack".
    pub fail_secure_switches: u64,
    /// Cycle of the first detector flag (`None` when nothing was flagged) —
    /// the paper's detection latency, measured from the start of the run
    /// (programs start at cycle 0 on a fresh core).
    pub first_flag_cycle: Option<u64>,
    /// `(instructions_committed, window_ipc)` series for Fig. 14 timelines.
    pub ipc_series: Vec<(u64, f64)>,
}

impl AdaptiveRun {
    /// Secure-window duty cycle in parts-per-million of committed
    /// instructions — an exact integer, so it is safe to export through the
    /// deterministic metrics block.
    pub fn secure_duty_ppm(&self) -> u64 {
        self.secure_instructions
            .min(self.result.committed_instructions)
            .saturating_mul(1_000_000)
            .checked_div(self.result.committed_instructions)
            .unwrap_or(0)
    }

    /// Exports a [`run_adaptive`] run under `adaptive.<label>.*`: flag and
    /// window tallies, secure-window duty cycle in ppm of committed
    /// instructions (`secure_duty_ppm`), and — for an attack — the
    /// detection latency in cycles (`detection_latency_cycles`, attacks
    /// start at cycle 0 on the fresh core) or a `missed_detections` tally;
    /// for benign work, the false-flag tally (`false_flags`) behind the
    /// paper's false-switch overhead argument. Every value is an integer
    /// derived from simulated quantities, so the export is bit-identical
    /// across runs and thread counts.
    pub fn record_adaptive(&self, metrics: &MetricsSink, label: &str, is_attack: bool) {
        if !metrics.enabled() {
            return;
        }
        let p = |m: &str| format!("adaptive.{label}.{m}");
        metrics.add(&p("runs"), 1);
        metrics.add(&p("windows"), self.ipc_series.len() as u64);
        metrics.add(&p("flags"), self.flags);
        metrics.add(&p("fail_secure_switches"), self.fail_secure_switches);
        metrics.add(&p("secure_instructions"), self.secure_instructions);
        metrics.add(
            &p("committed_instructions"),
            self.result.committed_instructions,
        );
        metrics.add(&p("cycles"), self.result.cycles);
        metrics.observe(&p("secure_duty_ppm"), self.secure_duty_ppm());
        if is_attack {
            match self.first_flag_cycle {
                Some(cycle) => metrics.observe(&p("detection_latency_cycles"), cycle),
                None => metrics.add(&p("missed_detections"), 1),
            }
        } else {
            metrics.add(&p("false_flags"), self.flags);
        }
    }

    /// Exports a [`run_fixed`] run under `fixed.<label>.*`: the
    /// baseline/always-on cycle and instruction tallies (the denominators
    /// of the Fig. 16 overhead table).
    pub fn record_fixed(&self, metrics: &MetricsSink, label: &str) {
        if !metrics.enabled() {
            return;
        }
        let p = |m: &str| format!("fixed.{label}.{m}");
        metrics.add(&p("runs"), 1);
        metrics.add(&p("cycles"), self.result.cycles);
        metrics.add(
            &p("committed_instructions"),
            self.result.committed_instructions,
        );
        metrics.add(&p("secure_instructions"), self.secure_instructions);
    }
}

/// The adaptive controller as a [`WindowSink`]: performance mode until the
/// detector flags, then `secure_window` instructions of the policy's
/// mitigation. Compose it with any [`WindowSource`]; [`run_adaptive`] wires
/// it to the canonical per-program source.
///
/// It serves through the same pair as the fleet: windows are featurized by
/// [`Featurizer::featurize_into`] into one reused row and scored by any
/// [`ModelDetector`] — the trained [`evax_core::detector::Detector`], its
/// quantized or stochastic hardenings, or an [`evax_nn::Ensemble`] — whose
/// [`decide`](ModelDetector::decide) carries the model's exact decision
/// rule.
#[derive(Debug)]
pub struct AdaptiveController<'a> {
    featurizer: &'a Featurizer,
    model: &'a dyn ModelDetector,
    cfg: &'a AdaptiveConfig,
    /// One feature row reused across every sampling window.
    row: Vec<f32>,
    /// Trait-level inference scratch (quantized/network model buffers).
    nn_scratch: DetectorScratch,
    state: SecureModeState,
    ipc_series: Vec<(u64, f64)>,
    faults: FaultInjector,
}

impl<'a> AdaptiveController<'a> {
    /// Creates a controller scoring `featurizer`'s rows with `model`.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`AdaptiveConfig::validate`], or if `model`
    /// consumes a different feature dimension than the featurizer produces.
    pub fn new(
        featurizer: &'a Featurizer,
        model: &'a dyn ModelDetector,
        cfg: &'a AdaptiveConfig,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("adaptive controller: {e}");
        }
        assert_eq!(
            model.n_features(),
            featurizer.feature_dim(),
            "model and featurizer disagree on the feature dimension"
        );
        AdaptiveController {
            featurizer,
            model,
            cfg,
            row: vec![0.0f32; featurizer.feature_dim()],
            nn_scratch: DetectorScratch::new(),
            state: SecureModeState::default(),
            ipc_series: Vec::new(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Routes the detector's raw score through a fault injector (chaos
    /// testing: [`evax_core::faults::FaultKind::NanScore`] /
    /// [`evax_core::faults::FaultKind::InfScore`]). The default disabled
    /// injector is bitwise invisible.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Detector flags raised so far.
    pub fn flags(&self) -> u64 {
        self.state.flags
    }

    /// Fail-secure switches taken so far (untrustworthy verdicts).
    pub fn fail_secure_switches(&self) -> u64 {
        self.state.fail_secure_switches
    }

    /// Consumes the controller, pairing its tallies with the run result.
    pub fn finish(self, result: RunResult) -> AdaptiveRun {
        AdaptiveRun {
            result,
            flags: self.state.flags,
            secure_instructions: self.state.secure_instructions,
            fail_secure_switches: self.state.fail_secure_switches,
            first_flag_cycle: self.state.first_flag_cycle,
            ipc_series: self.ipc_series,
        }
    }
}

impl WindowSink for AdaptiveController<'_> {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        // Non-finite IPC (a corrupted cycle count) must not poison the
        // exported timeline; record an explicit zero instead.
        let ipc = w.ipc();
        self.ipc_series
            .push((w.instructions, if ipc.is_finite() { ipc } else { 0.0 }));
        // Fail-secure gate #1: a window carrying non-finite counters cannot
        // be featurized honestly — treat the verdict as "attack".
        if w.values.iter().any(|v| !v.is_finite()) {
            return self.state.fail_secure(self.cfg);
        }
        self.featurizer.featurize_into(w.values, &mut self.row);
        let (raw, malicious) = self.model.decide(&self.row, &mut self.nn_scratch);
        let score = self.faults.corrupt_score(raw);
        self.state.apply_scored(score, malicious, w.cycle, self.cfg)
    }
}

/// Passive sink recording the per-window IPC timeline (fixed-mode baselines).
#[derive(Debug, Default)]
struct IpcTrace {
    series: Vec<(u64, f64)>,
}

impl WindowSink for IpcTrace {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        self.series.push((w.instructions, w.ipc()));
        None
    }
}

/// Runs `program` under the adaptive architecture: performance mode until
/// `model` flags a window featurized by `featurizer`, then `secure_window`
/// instructions of the policy's mitigation.
///
/// `metrics` reaches the underlying [`ProgramSource`], which records
/// `featurize.*`/`sim.*` tallies; pass `&MetricsSink::default()` for none.
/// Recording never feeds back into the run, so the returned
/// [`AdaptiveRun`] is the same with any sink. Per-run verdict exports are
/// [`AdaptiveRun::record_adaptive`].
///
/// # Panics
/// Panics if the featurizer refuses windows from `cpu_cfg`
/// ([`Featurizer::check_config`]: width or schema fingerprint mismatch),
/// if `cfg` fails [`AdaptiveConfig::validate`], or if `model` and
/// `featurizer` disagree on the feature dimension.
pub fn run_adaptive(
    cpu_cfg: &CpuConfig,
    program: &Program,
    featurizer: &Featurizer,
    model: &dyn ModelDetector,
    cfg: &AdaptiveConfig,
    max_instrs: u64,
    metrics: &MetricsSink,
) -> AdaptiveRun {
    if let Err(e) = featurizer.check_config(cpu_cfg) {
        panic!("adaptive schema negotiation failed: {e}");
    }
    let mut controller = AdaptiveController::new(featurizer, model, cfg);
    let result = ProgramSource::new(program, cpu_cfg, cfg.sample_interval, max_instrs)
        .with_metrics(metrics.clone())
        .stream(&mut controller);
    controller.finish(result)
}

/// Runs `program` with a fixed mitigation mode (the always-on baselines and
/// the unprotected baseline).
pub fn run_fixed(
    cpu_cfg: &CpuConfig,
    program: &Program,
    mode: MitigationMode,
    sample_interval: u64,
    max_instrs: u64,
) -> AdaptiveRun {
    let mut cfg = cpu_cfg.clone();
    cfg.mitigation = mode;
    let mut trace = IpcTrace::default();
    let result = ProgramSource::new(program, &cfg, sample_interval, max_instrs).stream(&mut trace);
    let secure = if mode == MitigationMode::None {
        0
    } else {
        result.committed_instructions
    };
    AdaptiveRun {
        flags: 0,
        secure_instructions: secure,
        fail_secure_switches: 0,
        first_flag_cycle: None,
        result,
        ipc_series: trace.series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_attacks::benign::Scale;
    use evax_core::collect::{collect_dataset, CollectConfig};
    use evax_core::detector::{Detector, DetectorKind, TrainConfig};
    use rand::SeedableRng;

    fn small_collect() -> CollectConfig {
        CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        }
    }

    fn trained_detector(seed: u64) -> (Detector, Featurizer) {
        let (ds, norm) = collect_dataset(&small_collect(), seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &TrainConfig::default(),
            &mut rng,
        );
        det.tune_for_tpr(&ds, 0.99);
        (det, Featurizer::baseline(norm))
    }

    /// The controller settings most tests share.
    fn cfg_200() -> AdaptiveConfig {
        AdaptiveConfig {
            sample_interval: 200,
            secure_window: 2_000,
            ..Default::default()
        }
    }

    /// [`run_adaptive`] on the default core with the no-op sink.
    fn adaptive_run(
        feat: &Featurizer,
        model: &dyn ModelDetector,
        program: &Program,
        cfg: &AdaptiveConfig,
        max_instrs: u64,
    ) -> AdaptiveRun {
        run_adaptive(
            &CpuConfig::default(),
            program,
            feat,
            model,
            cfg,
            max_instrs,
            &MetricsSink::default(),
        )
    }

    /// One 200-instruction window ending at cycle 400.
    fn window(values: &[f64]) -> RawWindow<'_> {
        RawWindow {
            values,
            instructions: 200,
            cycle: 400,
        }
    }

    fn spectre_pht() -> Program {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        evax_attacks::build_attack(
            evax_attacks::AttackClass::SpectrePht,
            &evax_attacks::KernelParams::default(),
            &mut rng,
        )
    }

    #[test]
    fn policies_map_to_modes() {
        assert_eq!(Policy::FenceSpectre.mode(), MitigationMode::FenceSpectre);
        assert_eq!(
            Policy::InvisiSpecFuturistic.mode(),
            MitigationMode::InvisiSpecFuturistic
        );
        assert!(!Policy::FenceFuturistic.name().is_empty());
    }

    #[test]
    #[should_panic(expected = "wide windows")]
    fn adaptive_refuses_mismatched_window_width() {
        let (det, feat) = trained_detector(3);
        let attack = spectre_pht();
        let cfg = AdaptiveConfig::default();
        // Baseline-fitted featurizer against an energy-enabled core: the
        // width negotiation fails up front with Config context.
        let cpu_cfg = CpuConfig {
            sensor: evax_sim::SensorConfig {
                energy: true,
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        run_adaptive(
            &cpu_cfg,
            &attack,
            &feat,
            &det,
            &cfg,
            20_000,
            &MetricsSink::default(),
        );
    }

    #[test]
    #[should_panic(expected = "schema fingerprint mismatch")]
    fn adaptive_refuses_foreign_schema_of_matching_width() {
        use evax_core::prelude::{read_featurizer, write_featurizer};
        let (det, feat) = trained_detector(3);
        // A 133-wide artifact whose first column is named differently: the
        // width matches the default core, the column layout does not.
        let mut columns: Vec<(String, evax_sim::Modality)> = feat
            .base_schema()
            .columns()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        columns[0].0 = "foreign.counter".into();
        let foreign = Featurizer::with_schema(
            evax_sim::FeatureSchema::from_columns(columns),
            feat.normalizer().clone(),
            Vec::new(),
        )
        .unwrap();
        let mut bytes = Vec::new();
        write_featurizer(&foreign, &mut bytes).unwrap();
        let loaded = read_featurizer(bytes.as_slice()).unwrap();
        assert_eq!(loaded.base_dim(), evax_sim::HPC_BASE_DIM);
        adaptive_run(&loaded, &det, &spectre_pht(), &cfg_200(), 20_000);
    }

    #[test]
    fn adaptive_flags_attack_and_engages_secure_mode() {
        let (det, feat) = trained_detector(3);
        let attack = spectre_pht();
        let cfg = cfg_200();
        let run = adaptive_run(&feat, &det, &attack, &cfg, 20_000);
        assert!(run.flags > 0, "detector must flag the attack");
        assert!(run.secure_instructions > 0);
    }

    #[test]
    fn trait_model_path_matches_plain_run_bitwise() {
        let (det, feat) = trained_detector(3);
        let attack = spectre_pht();
        let cfg = cfg_200();
        let run = |model: &dyn ModelDetector| adaptive_run(&feat, model, &attack, &cfg, 20_000);
        let plain = run(&det);

        // The detector's deployed linear model through explicit trait
        // dispatch must reproduce the plain run exactly.
        let linear = det.to_model();
        let via_model = run(&linear);
        assert_eq!(plain, via_model, "trait dispatch must be bitwise invisible");

        // Zero-jitter stochastic hardening is bitwise the base model too.
        let frozen = det.harden_stochastic(42, 0.0);
        let via_frozen = run(&frozen);
        assert_eq!(plain, via_frozen, "jitter=0 must be the identity");

        // Hardened variants still catch the attack.
        let stochastic = det.harden_stochastic(42, 0.05);
        let run_s = run(&stochastic);
        assert!(run_s.flags > 0, "stochastic detector must flag the attack");
        let ensemble = evax_nn::Ensemble::new(vec![
            Box::new(det.to_model()),
            Box::new(det.harden_stochastic(7, 0.03)),
            Box::new(det.quantize_linear()),
        ]);
        let run_e = run(&ensemble);
        assert!(run_e.flags > 0, "ensemble must flag the attack");
    }

    #[test]
    fn metered_runs_match_unmetered_bit_for_bit() {
        use evax_core::prelude::Registry;
        let (det, feat) = trained_detector(3);
        let attack = spectre_pht();
        let cfg = cfg_200();
        let cpu = CpuConfig::default();
        let registry = Registry::shared();
        let sink = MetricsSink::recording(&registry);

        let plain = adaptive_run(&feat, &det, &attack, &cfg, 20_000);
        let metered = run_adaptive(&cpu, &attack, &feat, &det, &cfg, 20_000, &sink);
        metered.record_adaptive(&sink, "atk", true);
        assert_eq!(plain, metered, "recording must not perturb the run");
        assert_eq!(registry.get("adaptive.atk.flags"), Some(plain.flags));
        assert_eq!(
            registry.get("adaptive.atk.fail_secure_switches"),
            Some(plain.fail_secure_switches),
            "fail-secure tally must be exported even when zero"
        );
        assert_eq!(
            registry.get("adaptive.atk.detection_latency_cycles"),
            plain.first_flag_cycle,
            "latency histogram sum must equal the first flag cycle"
        );

        let fixed = run_fixed(&cpu, &attack, MitigationMode::FenceSpectre, 200, 20_000);
        fixed.record_fixed(&sink, "atk_fence");
        assert_eq!(
            registry.get("fixed.atk_fence.cycles"),
            Some(fixed.result.cycles)
        );
    }

    #[test]
    fn adaptive_on_benign_is_cheaper_than_always_on() {
        let (det, feat) = trained_detector(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        // A workload with independent loads (memory-level parallelism for
        // fencing to destroy); pure pointer-chasing serializes anyway.
        let workload = evax_attacks::build_benign(
            evax_attacks::BenignKind::Compression,
            Scale(15_000),
            &mut rng,
        );
        let cfg = AdaptiveConfig {
            sample_interval: 200,
            secure_window: 2_000,
            policy: Policy::FenceFuturistic,
        };
        let base = run_fixed(
            &CpuConfig::default(),
            &workload,
            MitigationMode::None,
            200,
            40_000,
        );
        let always = run_fixed(
            &CpuConfig::default(),
            &workload,
            MitigationMode::FenceFuturistic,
            200,
            40_000,
        );
        let adaptive = adaptive_run(&feat, &det, &workload, &cfg, 40_000);
        assert!(
            always.result.cycles > base.result.cycles,
            "always-on must cost cycles"
        );
        assert!(
            adaptive.result.cycles < always.result.cycles,
            "adaptive must beat always-on: adaptive={} always={}",
            adaptive.result.cycles,
            always.result.cycles
        );
    }

    #[test]
    fn ipc_series_is_populated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let workload =
            evax_attacks::build_benign(evax_attacks::BenignKind::MatrixAi, Scale(8_000), &mut rng);
        let run = run_fixed(
            &CpuConfig::default(),
            &workload,
            MitigationMode::None,
            500,
            20_000,
        );
        assert!(run.ipc_series.len() >= 5);
        assert!(run.ipc_series.iter().all(|&(_, ipc)| ipc > 0.0));
    }

    #[test]
    fn non_finite_windows_fail_secure() {
        use evax_core::prelude::FaultKind;
        let (mut det, feat) = trained_detector(5);
        // Silence genuine flags so only the fail-secure path can engage
        // secure mode: no finite score reaches an infinite threshold.
        det.set_threshold(f32::INFINITY);
        let cfg = AdaptiveConfig {
            sample_interval: 200,
            secure_window: 400,
            ..Default::default()
        };
        let mut ctl = AdaptiveController::new(&feat, &det, &cfg);
        let dim = feat.base_dim();
        let clean = vec![1.0f64; dim];
        assert_eq!(
            ctl.window(&window(&clean)),
            None,
            "a finite benign window must stay in performance mode"
        );

        for (i, poison) in [f64::NAN, f64::INFINITY, u64::MAX as f64]
            .iter()
            .enumerate()
        {
            let mut bad = clean.clone();
            bad[dim - 1] = *poison;
            if poison.is_finite() {
                // Saturated-but-finite counters are hostile data, not an
                // unobtainable verdict: they flow through normalization
                // (which clamps to [0, 1]) and an ordinary verdict.
                ctl.window(&window(&bad));
                continue;
            }
            assert_eq!(
                ctl.window(&window(&bad)),
                Some(cfg.policy.mode()),
                "non-finite window #{i} must engage secure mode"
            );
        }
        assert_eq!(ctl.fail_secure_switches(), 2, "NaN + Inf windows");
        assert_eq!(
            ctl.flags(),
            0,
            "fail-secure switches are not detector flags"
        );

        // Finite windows afterwards resume the ordinary secure-window
        // countdown: 400 instructions at interval 200 = two windows, and the
        // saturated (finite) window above already consumed the first.
        assert_eq!(
            ctl.window(&window(&clean)),
            Some(MitigationMode::None),
            "secure window must expire back to performance mode"
        );
        assert_eq!(
            ctl.window(&window(&clean)),
            None,
            "performance mode afterwards"
        );

        let run = ctl.finish(RunResult {
            committed_instructions: 1_000,
            cycles: 2_000,
            ipc: 0.5,
            halted: true,
            regs: [0; 32],
        });
        assert_eq!(run.fail_secure_switches, 2);
        assert!(
            run.ipc_series.iter().all(|&(_, ipc)| ipc.is_finite()),
            "exported IPC timeline must stay finite under poisoned windows"
        );
        // Keep FaultKind in scope meaningful: the same poison values drive
        // the injector-based test below.
        assert!(FaultKind::NanWindow.is_data());
    }

    #[test]
    fn non_finite_scores_fail_secure_not_open() {
        use evax_core::prelude::{FaultInjector, FaultKind};
        let (det, feat) = trained_detector(5);
        let cfg = cfg_200();
        let dim = feat.base_dim();
        let clean = vec![1.0f64; dim];
        for kind in [FaultKind::NanScore, FaultKind::InfScore] {
            let inj = FaultInjector::new(kind, 7).with_intensity(1);
            let mut ctl = AdaptiveController::new(&feat, &det, &cfg).with_faults(inj.clone());
            assert_eq!(
                ctl.window(&window(&clean)),
                Some(cfg.policy.mode()),
                "{kind:?}: an unscoreable verdict must hold mitigations ON"
            );
            assert_eq!(ctl.fail_secure_switches(), 1);
            assert_eq!(ctl.flags(), 0);
            assert_eq!(inj.injections(), 1);
        }
    }

    #[test]
    fn disabled_injector_is_bitwise_invisible_in_runs() {
        let (det, feat) = trained_detector(3);
        let attack = spectre_pht();
        let cfg = cfg_200();
        let plain = adaptive_run(&feat, &det, &attack, &cfg, 20_000);
        let mut ctl = AdaptiveController::new(&feat, &det, &cfg)
            .with_faults(evax_core::prelude::FaultInjector::disabled());
        let result =
            ProgramSource::new(&attack, &CpuConfig::default(), cfg.sample_interval, 20_000)
                .stream(&mut ctl);
        let hooked = ctl.finish(result);
        assert_eq!(
            plain, hooked,
            "a disabled injector must not perturb the run"
        );
        assert_eq!(plain.fail_secure_switches, 0);
    }

    #[test]
    fn default_validates() {
        AdaptiveConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        use evax_core::error::EvaxError;
        let with = |sample_interval, secure_window| AdaptiveConfig {
            sample_interval,
            secure_window,
            ..AdaptiveConfig::default()
        };
        for (cfg, field) in [
            (with(0, 10_000), "sample_interval"),
            (with(100, 0), "secure_window"),
            // Secure mode would expire before the next verdict.
            (with(500, 100), "secure_window"),
        ] {
            match cfg.validate() {
                Err(EvaxError::Config { what, .. }) => assert_eq!(what, field),
                other => panic!("expected Config error for {field}, got {other:?}"),
            }
        }
        AdaptiveConfig {
            sample_interval: 250,
            secure_window: 5_000,
            policy: Policy::InvisiSpecFuturistic,
        }
        .validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "secure_window")]
    fn run_adaptive_rejects_a_secure_window_shorter_than_one_interval() {
        let (det, feat) = trained_detector(3);
        let cfg = AdaptiveConfig {
            sample_interval: 500,
            secure_window: 100,
            ..AdaptiveConfig::default()
        };
        run_adaptive(
            &CpuConfig::default(),
            &spectre_pht(),
            &feat,
            &det,
            &cfg,
            20_000,
            &MetricsSink::default(),
        );
    }
}
