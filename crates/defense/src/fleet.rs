//! Fleet-scale detection service: a sharded multi-stream scheduler with
//! cross-stream batched (and optionally quantized) detector inference.
//!
//! The paper's HMD guards *many* programs at once with tiny per-window
//! inference cost (its hardware model even quantizes weights to 9-bit
//! integers, §VI-B) — yet a per-program `run_adaptive` call drives one
//! tenant to completion and classifies one window at a time. This module is
//! the many-tenant deployment shape:
//!
//! * **Streams** — one per simulated tenant, seeded deterministically from
//!   the attack/benign registry. Each stream owns a [`Cpu`] plus a
//!   [`SampledCursor`], so it advances one sampling window at a time
//!   without restarting its program.
//! * **Shards** — streams are assigned round-robin to a *fixed* number of
//!   shards ([`evax_core::par::round_robin_shards`]); shards fan out over
//!   [`evax_core::par::map`]. The shard count comes from configuration,
//!   never from the worker count, so the work decomposition — and with it
//!   batch composition and flush timing — is identical at any thread count.
//! * **Batched inference** — inside a shard, windows from all streams
//!   accumulate into a [`WindowBatch`] of extended feature rows. A full
//!   batch drains through the evax-nn batched scoring kernel; the partial
//!   remainder at the end of each round-robin pass drains through the
//!   in-place per-row path (the "tail"), bounding every window's verdict
//!   latency to one pass. Verdicts feed the same [`SecureModeState`]
//!   transitions the single-stream [`AdaptiveController`] uses — the batch
//!   drain is the controller's per-window logic, applied per tag.
//!
//! # Determinism contract
//!
//! In [`InferenceMode::BatchedF32`] mode the batched kernel reduces every
//! row with the exact accumulation chain of per-window scoring
//! (`evax_nn::tensor::matvec_bias_into`), so a window's score — and
//! therefore every verdict, flag, and secure-mode transition — is
//! independent of batch composition and thread count. `FleetReport`'s
//! deterministic block is **byte-identical** at 1, 4, or 16 threads; the
//! `fleet` bench binary's determinism test pins this.
//!
//! [`AdaptiveController`]: crate::adaptive::AdaptiveController

use std::collections::HashMap;
use std::time::Instant;

use evax_core::par::{self, round_robin_shards, Parallelism};
use evax_core::prelude::{Detector, Featurizer, WindowBatch};
use evax_nn::detector::{Detector as ModelDetector, DetectorScratch};
use evax_obs::json::{Object, Value};
use evax_sim::snapshot::Fnv1a;
use evax_sim::{Cpu, CpuConfig, Program, RunResult, SampledCursor, SampledStep};
use rand::SeedableRng;

use crate::adaptive::{AdaptiveConfig, SecureModeState};

/// Inference backend for the fleet's batch drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceMode {
    /// One allocating `Detector::classify` call per window — the pre-fleet
    /// baseline path, kept as the throughput yardstick.
    PerWindow,
    /// Cross-stream batched f32 scoring through the threaded evax-nn
    /// kernel. Verdicts are bit-identical to per-window scoring.
    BatchedF32,
    /// Cross-stream batched 9-bit integer scoring
    /// ([`evax_nn::QuantLinear`]).
    /// Verdicts may differ from f32 only inside the kernel's provable
    /// ambiguity band around the threshold.
    BatchedQuant,
}

impl InferenceMode {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InferenceMode::PerWindow => "per_window",
            InferenceMode::BatchedF32 => "batched_f32",
            InferenceMode::BatchedQuant => "batched_quant",
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of tenant streams.
    pub n_streams: usize,
    /// Every `attack_every`-th stream runs an attack kernel (cycling the
    /// registry's 21 classes); the rest run benign kernels (cycling the 10
    /// kinds). `0` makes the whole fleet benign.
    pub attack_every: usize,
    /// Per-stream committed-instruction budget.
    pub max_instrs: u64,
    /// Sampling interval / secure window / mitigation policy.
    pub adaptive: AdaptiveConfig,
    /// Windows per shard-local batch before a full (threaded) drain.
    pub batch_windows: usize,
    /// Fixed shard count — the determinism unit (see module docs).
    pub n_shards: usize,
    /// Worker threads for the in-shard batched kernel. Keep at 1 when the
    /// shard fan-out already owns the cores; the dedicated inference
    /// benchmark raises it.
    pub kernel_threads: usize,
    /// Inference backend.
    pub inference: InferenceMode,
    /// Master seed; per-stream program seeds derive from it by stream id.
    pub seed: u64,
    /// Warm-start tenant cores from a per-program-class snapshot pool: one
    /// representative core per distinct registry program is fast-forwarded
    /// (functional execution with approximate cache/TLB/predictor warm-up)
    /// and snapshotted before sharding, and every tenant stream of that
    /// class forks from the warm snapshot instead of a cold core. Windows
    /// are approximate (warm microarchitectural state from a sibling run);
    /// `tests/golden_fastforward.rs::fast_forward_verdict_drift_is_bounded_slow`
    /// bounds the verdict drift.
    pub warm_start: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_streams: 1024,
            attack_every: 4,
            max_instrs: 2_000,
            adaptive: AdaptiveConfig {
                sample_interval: 200,
                secure_window: 1_000,
                ..AdaptiveConfig::default()
            },
            // 1024 streams / 64 shards = 16 streams per shard: a 16-window
            // batch fills once per full-strength pass (threaded drain) and
            // tails off as streams retire (in-place drain).
            batch_windows: 16,
            n_shards: 64,
            kernel_threads: 1,
            inference: InferenceMode::BatchedF32,
            seed: 0xF1EE7,
            warm_start: false,
        }
    }
}

/// Per-stream tallies, in ascending `stream_id` order in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The stream's fleet-wide id.
    pub stream_id: usize,
    /// Attack class label (1-based registry label), or 0 for benign.
    pub class_label: usize,
    /// Sampling windows produced.
    pub windows: u64,
    /// Detector flags raised.
    pub flags: u64,
    /// Untrustworthy verdicts routed to secure mode.
    pub fail_secure_switches: u64,
    /// Cycle of the first flag.
    pub first_flag_cycle: Option<u64>,
    /// Instructions spent in secure mode.
    pub secure_instructions: u64,
    /// Instructions committed by the stream.
    pub committed_instructions: u64,
    /// Cycles the stream ran for.
    pub cycles: u64,
}

/// Outcome of a fleet run: per-stream tallies (deterministic) plus
/// wall-clock window→verdict latencies (not deterministic — excluded from
/// [`FleetReport::deterministic_json`]).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-stream outcomes, ascending `stream_id`.
    pub outcomes: Vec<StreamOutcome>,
    /// Wall-clock nanoseconds from window production to verdict
    /// application, one entry per trusted-or-failed verdict, in
    /// shard-major order.
    pub latencies_ns: Vec<u64>,
    /// Full-batch (threaded kernel) drains.
    pub full_flushes: u64,
    /// End-of-pass partial drains through the in-place tail path.
    pub tail_flushes: u64,
    /// CPU nanoseconds spent stepping simulated cores (summed across shard
    /// workers, so this can exceed wall-clock on a multi-core run; compare
    /// against [`FleetReport::inference_ns`], measured the same way).
    pub sim_ns: u64,
    /// CPU nanoseconds spent in featurization + inference drains, summed
    /// across shard workers like [`FleetReport::sim_ns`].
    pub inference_ns: u64,
    /// Inference backend the run used.
    pub inference: InferenceMode,
}

impl FleetReport {
    /// Total sampling windows across the fleet.
    pub fn windows(&self) -> u64 {
        self.outcomes.iter().map(|o| o.windows).sum()
    }

    /// Total detector flags across the fleet.
    pub fn flags(&self) -> u64 {
        self.outcomes.iter().map(|o| o.flags).sum()
    }

    /// Total fail-secure switches across the fleet.
    pub fn fail_secure_switches(&self) -> u64 {
        self.outcomes.iter().map(|o| o.fail_secure_switches).sum()
    }

    /// Attack streams that raised at least one flag.
    pub fn flagged_attack_streams(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.class_label != 0 && o.flags > 0)
            .count() as u64
    }

    /// Benign streams that raised at least one (false) flag.
    pub fn false_flag_streams(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.class_label == 0 && o.flags > 0)
            .count() as u64
    }

    /// FNV-1a digest over every per-stream outcome field, in stream order —
    /// one u64 that changes if any window's verdict anywhere in the fleet
    /// changes. The determinism tests compare this (inside
    /// [`FleetReport::deterministic_json`]) across thread counts.
    pub fn verdict_digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for o in &self.outcomes {
            h.word(o.stream_id as u64)
                .word(o.class_label as u64)
                .word(o.windows)
                .word(o.flags)
                .word(o.fail_secure_switches)
                .word(o.first_flag_cycle.unwrap_or(u64::MAX))
                .word(o.secure_instructions)
                .word(o.committed_instructions)
                .word(o.cycles);
        }
        h.finish()
    }

    /// The deterministic block of `BENCH_fleet.json`: aggregates plus the
    /// per-stream verdict digest, rendered with a fixed field order. Every
    /// value is an integer derived from simulated quantities, so in f32
    /// mode the string is byte-identical at any thread count.
    pub fn deterministic_json(&self) -> String {
        let sum = |f: fn(&StreamOutcome) -> u64| self.outcomes.iter().map(f).sum::<u64>();
        let digest = format!("{:016x}", self.verdict_digest());
        let block = Object::new()
            .field("inference", self.inference.name())
            .field("streams", self.outcomes.len())
            .field("windows", self.windows())
            .field("flags", self.flags())
            .field("fail_secure_switches", self.fail_secure_switches())
            .field("flagged_attack_streams", self.flagged_attack_streams())
            .field("false_flag_streams", self.false_flag_streams())
            .field("secure_instructions", sum(|o| o.secure_instructions))
            .field("committed_instructions", sum(|o| o.committed_instructions))
            .field("cycles", sum(|o| o.cycles))
            .field("full_flushes", self.full_flushes)
            .field("tail_flushes", self.tail_flushes)
            .field("verdict_digest", digest.as_str());
        Value::from(block).to_string()
    }
}

/// One tenant stream: program + core + resumable cursor + secure-mode state.
struct FleetStream {
    id: usize,
    class_label: usize,
    program: Program,
    cpu: Cpu,
    cursor: SampledCursor,
    state: SecureModeState,
    windows: u64,
    result: Option<RunResult>,
}

/// Builds stream `id`'s program deterministically from the registry: the
/// program choice and its seed depend only on `(cfg.seed, id)`.
fn stream_program(id: usize, cfg: &FleetConfig) -> (Program, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    if cfg.attack_every > 0 && id.is_multiple_of(cfg.attack_every) {
        let class = evax_attacks::ATTACK_CLASSES
            [(id / cfg.attack_every) % evax_attacks::ATTACK_CLASSES.len()];
        (
            evax_attacks::build_attack(class, &evax_attacks::KernelParams::default(), &mut rng),
            class.label(),
        )
    } else {
        let kind = evax_attacks::BENIGN_KINDS[id % evax_attacks::BENIGN_KINDS.len()];
        (
            evax_attacks::build_benign(kind, evax_attacks::benign::Scale(cfg.max_instrs), &mut rng),
            0,
        )
    }
}

/// The per-program-class warm-start pool: `name → warm template core` for
/// one representative per distinct registry program. Templates are produced
/// by a snapshot→restore round trip (exercising the serialized format) and
/// then cloned per tenant stream — cloning forks the full core state at
/// memcpy speed (each cache's lines are one buffer), far cheaper than
/// re-parsing the snapshot word stream per stream.
type WarmPool = HashMap<String, Cpu>;

/// Warms one core per distinct registry program name (sequentially, before
/// the shard fan-out, so the pool is identical at any thread count): the
/// representative is fast-forwarded through half the stream budget and
/// snapshotted. That prefix then counts against every forked stream's
/// retirement budget (see [`build_stream`]), so half of each tenant's
/// instructions retire once per class at functional speed instead of per
/// stream at detailed speed. Programs that finish inside the warm-up budget
/// stay cold — they are cheap to run exactly, and a fully retired core has
/// nothing left to sample.
fn build_warm_pool(cfg: &FleetConfig, cpu_cfg: &CpuConfig) -> WarmPool {
    let warm = cfg.max_instrs / 2;
    let mut pool = WarmPool::new();
    if warm == 0 {
        return pool;
    }
    for id in 0..cfg.n_streams {
        let (program, _) = stream_program(id, cfg);
        if pool.contains_key(program.name()) {
            continue;
        }
        let mut cpu = Cpu::new(cpu_cfg.clone());
        if cpu.fast_forward(&program, warm) < warm {
            continue;
        }
        let snap = cpu.snapshot();
        if let Ok(template) = Cpu::restore(cpu_cfg.clone(), &snap) {
            pool.insert(program.name().to_string(), template);
        }
    }
    pool
}

/// Builds stream `id`: its registry program plus a core — forked from the
/// class's warm snapshot when the pool has one, cold otherwise.
fn build_stream(id: usize, cfg: &FleetConfig, cpu_cfg: &CpuConfig, pool: &WarmPool) -> FleetStream {
    let (program, class_label) = stream_program(id, cfg);
    let mut cpu = match pool.get(program.name()) {
        Some(template) => template.clone(),
        None => Cpu::new(cpu_cfg.clone()),
    };
    // `max_instrs` is the stream's total retirement budget: instructions the
    // warm template already retired functionally (once per program class, at
    // fast-forward speed) are not re-run on the detailed core per stream —
    // that amortization is what makes warm-start a throughput win.
    let budget = cfg.max_instrs.saturating_sub(cpu.stats().committed_insts);
    let cursor = cpu.begin_sampled(budget, cfg.adaptive.sample_interval);
    FleetStream {
        id,
        class_label,
        program,
        cpu,
        cursor,
        state: SecureModeState::default(),
        windows: 0,
        result: None,
    }
}

/// Shard-local drain scratch, reused across flushes.
struct DrainScratch {
    scores: Vec<f32>,
    verdicts: Vec<bool>,
    nn: DetectorScratch,
}

/// Drains every pending window in `batch` through the shard's model — any
/// [`ModelDetector`], so the same drain serves the f32 perceptron, the
/// 9-bit integer kernel, and hardened (stochastic/ensemble) variants — and
/// applies each verdict to its stream's secure-mode state (fail-secure on a
/// non-finite f32 score). `full` drains through the threaded batch kernel;
/// the tail path runs the same adapter single-threaded, which every adapter
/// pins bit-identical to its threaded reduction.
fn drain_batch(
    batch: &mut WindowBatch<(usize, u64, Instant)>,
    streams: &mut [FleetStream],
    model: &dyn ModelDetector,
    cfg: &FleetConfig,
    scratch: &mut DrainScratch,
    latencies: &mut Vec<u64>,
    full: bool,
) {
    let n = batch.len();
    if n == 0 {
        return;
    }
    scratch.scores.clear();
    scratch.scores.resize(n, 0.0);
    scratch.verdicts.clear();
    scratch.verdicts.resize(n, false);
    // Tail flushes are small partial batches: they take the single-threaded
    // reduction (no fan-out cost), which each adapter keeps bit-identical
    // to the threaded full-batch kernel.
    let threads = if full { cfg.kernel_threads } else { 1 };
    model.classify_rows_into(
        batch.rows(),
        threads,
        &mut scratch.nn,
        &mut scratch.scores,
        &mut scratch.verdicts,
    );
    for (i, &(slot, cycle, t0)) in batch.tags().iter().enumerate() {
        let s = &mut streams[slot];
        let mode =
            s.state
                .apply_scored(scratch.scores[i], scratch.verdicts[i], cycle, &cfg.adaptive);
        if let Some(mode) = mode {
            s.cpu.set_mitigation(mode);
        }
        latencies.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    batch.clear();
}

/// Runs one shard to completion: round-robin passes over its live streams,
/// batching windows and draining verdicts, until every stream finishes.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    indices: &[usize],
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    model: &dyn ModelDetector,
    pool: &WarmPool,
) -> (Vec<StreamOutcome>, Vec<u64>, u64, u64, u64, u64) {
    let mut streams: Vec<FleetStream> = indices
        .iter()
        .map(|&id| build_stream(id, cfg, cpu_cfg, pool))
        .collect();
    let ext_dim = detector.extended_dim();
    let mut batch: WindowBatch<(usize, u64, Instant)> =
        WindowBatch::new(ext_dim, cfg.batch_windows);
    let mut raw = vec![0.0f64; evax_sim::dim_for(cpu_cfg)];
    let mut base = vec![0.0f32; featurizer.base_dim()];
    let mut scratch = DrainScratch {
        scores: Vec::new(),
        verdicts: Vec::new(),
        nn: DetectorScratch::new(),
    };
    let mut latencies: Vec<u64> = Vec::new();
    let mut full_flushes = 0u64;
    let mut tail_flushes = 0u64;
    let mut live: Vec<usize> = (0..streams.len()).collect();
    // Sim-vs-inference CPU split: stepping cores vs everything downstream
    // of a produced window. Pure observability — never branches behavior.
    let mut sim_ns = 0u64;
    let mut infer_ns = 0u64;
    while !live.is_empty() {
        let mut next_live = Vec::with_capacity(live.len());
        for &slot in &live {
            let step_t0 = Instant::now();
            let step = {
                let s = &mut streams[slot];
                s.cursor.next_window_into(&mut s.cpu, &s.program, &mut raw)
            };
            sim_ns += step_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            match step {
                SampledStep::Window { cycle, .. } => {
                    streams[slot].windows += 1;
                    let t0 = Instant::now();
                    let infer_t0 = t0;
                    // Fail-secure gate #1 (shared with the per-window
                    // controller): non-finite counters never reach the
                    // featurizer or the batch.
                    if raw.iter().any(|v| !v.is_finite()) {
                        let s = &mut streams[slot];
                        if let Some(mode) = s.state.fail_secure(&cfg.adaptive) {
                            s.cpu.set_mitigation(mode);
                        }
                        latencies.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    } else if cfg.inference == InferenceMode::PerWindow {
                        // Baseline path: the status-quo allocating
                        // per-window classify call, applied immediately.
                        featurizer.normalizer().normalize_into(&raw, &mut base);
                        let score = detector.score(&base);
                        let s = &mut streams[slot];
                        let mode = s.state.apply_scored(
                            score,
                            score >= detector.threshold(),
                            cycle,
                            &cfg.adaptive,
                        );
                        if let Some(mode) = mode {
                            s.cpu.set_mitigation(mode);
                        }
                        latencies.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    } else {
                        let full = batch.push_with((slot, cycle, t0), |row| {
                            featurizer.featurize_into(&raw, row)
                        });
                        if full {
                            full_flushes += 1;
                            drain_batch(
                                &mut batch,
                                &mut streams,
                                model,
                                cfg,
                                &mut scratch,
                                &mut latencies,
                                true,
                            );
                        }
                    }
                    infer_ns += infer_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    next_live.push(slot);
                }
                SampledStep::Done(result) => {
                    streams[slot].result = Some(*result);
                }
            }
        }
        // End-of-pass tail drain: the partial batch goes through the
        // in-place per-row path, so no window waits longer than one pass.
        if !batch.is_empty() {
            tail_flushes += 1;
            let infer_t0 = Instant::now();
            drain_batch(
                &mut batch,
                &mut streams,
                model,
                cfg,
                &mut scratch,
                &mut latencies,
                false,
            );
            infer_ns += infer_t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        }
        live = next_live;
    }
    let outcomes = streams
        .into_iter()
        .map(|s| {
            let result = s.result.expect("stream left the live set only when done");
            StreamOutcome {
                stream_id: s.id,
                class_label: s.class_label,
                windows: s.windows,
                flags: s.state.flags,
                fail_secure_switches: s.state.fail_secure_switches,
                first_flag_cycle: s.state.first_flag_cycle,
                secure_instructions: s.state.secure_instructions,
                committed_instructions: result.committed_instructions,
                cycles: result.cycles,
            }
        })
        .collect();
    (
        outcomes,
        latencies,
        full_flushes,
        tail_flushes,
        sim_ns,
        infer_ns,
    )
}

/// Runs the whole fleet: `cfg.n_streams` tenant streams, round-robin
/// sharded over `cfg.n_shards` shards, shards fanned out across `par`.
///
/// The featurizer must share the detector's engineered-feature chain
/// (`featurizer.feature_dim() == detector.extended_dim()`), as produced by
/// one `EvaxPipeline`; scores are then bit-identical to the per-window
/// `AdaptiveController` path.
///
/// # Panics
/// Panics on a degenerate configuration (zero streams, zero batch size, an
/// adaptive config that fails [`AdaptiveConfig::validate`]) or a
/// featurizer/detector dimension mismatch.
pub fn run_fleet(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    parallelism: Parallelism,
) -> FleetReport {
    let quant = match cfg.inference {
        InferenceMode::BatchedQuant => Some(detector.quantize_linear()),
        _ => None,
    };
    let model: &dyn ModelDetector = match quant.as_ref() {
        Some(q) => q,
        None => detector,
    };
    run_fleet_with_model(cfg, cpu_cfg, detector, featurizer, model, parallelism)
}

/// [`run_fleet`] with an explicit batch-drain model: any [`ModelDetector`]
/// whose feature dimension matches the featurizer — including hardened
/// variants ([`evax_nn::StochasticDetector`], [`evax_nn::Ensemble`]) that
/// have no [`InferenceMode`] of their own. The `PerWindow` baseline path
/// and fail-secure gates still run through the concrete `detector`.
///
/// # Panics
/// Panics on a degenerate configuration (including one that fails
/// [`AdaptiveConfig::validate`]) or a featurizer/detector/model dimension
/// mismatch.
pub fn run_fleet_with_model(
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    detector: &Detector,
    featurizer: &Featurizer,
    model: &dyn ModelDetector,
    parallelism: Parallelism,
) -> FleetReport {
    assert!(cfg.n_streams > 0, "fleet needs at least one stream");
    assert!(cfg.batch_windows > 0, "batch must hold at least one window");
    if let Err(e) = cfg.adaptive.validate() {
        panic!("fleet: {e}");
    }
    assert_eq!(
        featurizer.feature_dim(),
        detector.extended_dim(),
        "featurizer and detector must share one engineered-feature chain"
    );
    // Schema negotiation: the featurizer refuses windows from a core whose
    // sensor configuration produces a different counter schema (typed
    // `EvaxError::Config` context instead of a slice-length panic mid-run).
    if let Err(e) = featurizer.check_config(cpu_cfg) {
        panic!("fleet schema negotiation failed: {e}");
    }
    assert_eq!(
        model.n_features(),
        detector.extended_dim(),
        "drain model must score the detector's extended feature rows"
    );
    // Warm the per-program snapshot pool sequentially before the fan-out:
    // every shard forks tenant cores from the same snapshots, so warm-start
    // runs stay bit-identical at any thread count.
    let pool = if cfg.warm_start {
        build_warm_pool(cfg, cpu_cfg)
    } else {
        WarmPool::new()
    };
    let shards = round_robin_shards(cfg.n_streams, cfg.n_shards.max(1));
    let shard_results = par::map(parallelism, &shards, |indices| {
        run_shard(indices, cfg, cpu_cfg, detector, featurizer, model, &pool)
    });
    let mut outcomes: Vec<StreamOutcome> = Vec::with_capacity(cfg.n_streams);
    let mut latencies: Vec<u64> = Vec::new();
    let mut full_flushes = 0u64;
    let mut tail_flushes = 0u64;
    let mut sim_ns = 0u64;
    let mut inference_ns = 0u64;
    for (o, l, f, t, s, i) in shard_results {
        outcomes.extend(o);
        latencies.extend(l);
        full_flushes += f;
        tail_flushes += t;
        sim_ns += s;
        inference_ns += i;
    }
    outcomes.sort_by_key(|o| o.stream_id);
    FleetReport {
        outcomes,
        latencies_ns: latencies,
        full_flushes,
        tail_flushes,
        sim_ns,
        inference_ns,
        inference: cfg.inference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_core::collect::{collect_dataset, CollectConfig};
    use evax_core::prelude::{DetectorKind, Normalizer, TrainConfig};

    fn trained(seed: u64) -> (Detector, Normalizer) {
        let cfg = CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            ..Default::default()
        };
        let (ds, norm) = collect_dataset(&cfg, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut det = Detector::train(
            DetectorKind::Evax,
            &ds,
            vec![],
            &TrainConfig::default(),
            &mut rng,
        );
        det.tune_for_tpr(&ds, 0.99);
        (det, norm)
    }

    fn small_cfg(inference: InferenceMode) -> FleetConfig {
        FleetConfig {
            n_streams: 24,
            attack_every: 3,
            max_instrs: 2_000,
            adaptive: AdaptiveConfig {
                sample_interval: 200,
                secure_window: 1_000,
                ..AdaptiveConfig::default()
            },
            // 6 streams per shard vs a 4-window batch: every pass exercises
            // a full (threaded) flush and an end-of-pass tail flush.
            batch_windows: 4,
            n_shards: 4,
            kernel_threads: 1,
            inference,
            seed: 11,
            warm_start: false,
        }
    }

    #[test]
    fn deterministic_block_is_byte_identical_across_thread_counts() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::BatchedF32);
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(1));
        for threads in [2usize, 4, 16] {
            let r = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(threads));
            assert_eq!(
                base.deterministic_json(),
                r.deterministic_json(),
                "fleet verdicts must not depend on thread count ({} threads)",
                threads
            );
        }
    }

    #[test]
    #[should_panic(expected = "schema negotiation")]
    fn fleet_refuses_mismatched_sensor_schema() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        // The featurizer was fitted on baseline-133 windows; an
        // energy-enabled core produces a wider schema and must be refused
        // up front (typed Config context), not by a slice panic mid-run.
        let cpu_cfg = CpuConfig {
            sensor: evax_sim::SensorConfig {
                energy: true,
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        run_fleet(
            &small_cfg(InferenceMode::PerWindow),
            &cpu_cfg,
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
    }

    #[test]
    #[should_panic(expected = "secure_window")]
    fn fleet_rejects_a_secure_window_shorter_than_one_interval() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let mut cfg = small_cfg(InferenceMode::BatchedF32);
        cfg.adaptive.secure_window = cfg.adaptive.sample_interval - 1;
        run_fleet(
            &cfg,
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
    }

    #[test]
    fn fleet_flags_attack_streams_and_accounts_every_window() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::BatchedF32);
        let report = run_fleet(
            &cfg,
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        assert_eq!(report.outcomes.len(), cfg.n_streams);
        assert!(report.windows() > 0, "streams must produce windows");
        assert!(
            report.flagged_attack_streams() > 0,
            "a 99%-TPR detector must flag some attack streams"
        );
        // Every produced window gets exactly one verdict (and one latency
        // sample): nothing is dropped at the batch boundary.
        assert_eq!(report.latencies_ns.len() as u64, report.windows());
        assert!(report.full_flushes + report.tail_flushes > 0);
        // Stream outcomes come back in stream-id order regardless of
        // sharding.
        assert!(report
            .outcomes
            .windows(2)
            .all(|w| w[0].stream_id < w[1].stream_id));
    }

    #[test]
    fn per_window_mode_matches_batched_f32_window_counts() {
        let (det, norm) = trained(7);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let batched = run_fleet(
            &small_cfg(InferenceMode::BatchedF32),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
        let per_window = run_fleet(
            &small_cfg(InferenceMode::PerWindow),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
        // Mitigation timing differs (batched verdicts apply at flush), but
        // both modes must drive every stream through the same sampling
        // schedule and commit the same work.
        assert_eq!(batched.windows(), per_window.windows());
        for (b, p) in batched.outcomes.iter().zip(per_window.outcomes.iter()) {
            assert_eq!(b.stream_id, p.stream_id);
            assert_eq!(b.class_label, p.class_label);
            assert_eq!(b.windows, p.windows);
        }
    }

    #[test]
    fn warm_start_fleet_is_deterministic_and_covers_every_stream() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = FleetConfig {
            warm_start: true,
            ..small_cfg(InferenceMode::BatchedF32)
        };
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(1));
        assert_eq!(base.outcomes.len(), cfg.n_streams);
        assert!(base.windows() > 0);
        // Every window still gets exactly one verdict.
        assert_eq!(base.latencies_ns.len() as u64, base.windows());
        // Forking from the shared snapshot pool must not break the
        // thread-count determinism contract.
        for threads in [4usize, 16] {
            let r = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(threads));
            assert_eq!(base.deterministic_json(), r.deterministic_json());
        }
        // Warm streams run on pre-touched caches/predictors, so their cycle
        // totals should differ from a cold fleet (the snapshot actually
        // changed microarchitectural state).
        let cold = run_fleet(
            &small_cfg(InferenceMode::BatchedF32),
            &cpu_cfg,
            &det,
            &feat,
            Parallelism::Fixed(1),
        );
        assert_eq!(cold.outcomes.len(), base.outcomes.len());
        assert_ne!(
            base.outcomes.iter().map(|o| o.cycles).sum::<u64>(),
            cold.outcomes.iter().map(|o| o.cycles).sum::<u64>(),
            "warm-start must change timing-visible state"
        );
    }

    #[test]
    fn quantized_mode_runs_the_fleet_with_bounded_divergence() {
        let (det, norm) = trained(9);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let f32_report = run_fleet(
            &small_cfg(InferenceMode::BatchedF32),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        let q_report = run_fleet(
            &small_cfg(InferenceMode::BatchedQuant),
            &CpuConfig::default(),
            &det,
            &feat,
            Parallelism::Fixed(2),
        );
        assert_eq!(q_report.outcomes.len(), f32_report.outcomes.len());
        assert_eq!(q_report.windows(), f32_report.windows());
        assert!(
            q_report.flagged_attack_streams() > 0,
            "quantized detector must still flag attacks"
        );
    }

    /// Hardened variants ride the same drain: a zero-jitter stochastic
    /// wrapper is byte-identical to the plain f32 fleet, and a mixed
    /// committee still flags attacks under the thread-count contract.
    #[test]
    fn hardened_models_drive_the_fleet_drain() {
        let (det, norm) = trained(5);
        let feat = Featurizer::new(norm, det.engineered().to_vec());
        let cfg = small_cfg(InferenceMode::BatchedF32);
        let cpu_cfg = CpuConfig::default();
        let base = run_fleet(&cfg, &cpu_cfg, &det, &feat, Parallelism::Fixed(2));

        // jitter = 0 pins the stochastic wrapper to the base perceptron
        // bitwise (w * (1 + 0*eps) == w exactly in IEEE 754).
        let frozen = det.harden_stochastic(0xD1CE, 0.0);
        let via_frozen =
            run_fleet_with_model(&cfg, &cpu_cfg, &det, &feat, &frozen, Parallelism::Fixed(2));
        assert_eq!(
            base.deterministic_json(),
            via_frozen.deterministic_json(),
            "zero-jitter stochastic drain must match the plain fleet byte-for-byte"
        );

        // A mixed committee (f32 + jittered + 9-bit integer member) has no
        // InferenceMode of its own but drains through the same kernel.
        let committee = evax_nn::Ensemble::new(vec![
            Box::new(det.to_model()),
            Box::new(det.harden_stochastic(7, 0.02)),
            Box::new(det.quantize_linear()),
        ]);
        let ens = run_fleet_with_model(
            &cfg,
            &cpu_cfg,
            &det,
            &feat,
            &committee,
            Parallelism::Fixed(1),
        );
        assert_eq!(ens.outcomes.len(), cfg.n_streams);
        assert_eq!(ens.windows(), base.windows());
        assert!(
            ens.flagged_attack_streams() > 0,
            "the committee must still flag attack streams"
        );
        for threads in [4usize, 16] {
            let r = run_fleet_with_model(
                &cfg,
                &cpu_cfg,
                &det,
                &feat,
                &committee,
                Parallelism::Fixed(threads),
            );
            assert_eq!(
                ens.deterministic_json(),
                r.deterministic_json(),
                "committee verdicts must not depend on thread count ({} threads)",
                threads
            );
        }
    }
}
