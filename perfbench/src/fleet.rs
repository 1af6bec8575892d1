//! `fleet`: the many-tenant detection pass (`evax_defense::fleet::run_fleet`,
//! batched f32 inference) with a detector deployed by `EvaxPipeline`.
//!
//! Closed loop: each stream's next window is simulated only after the
//! verdict on its previous batch was applied, and mitigation switches feed
//! back into the cores. Simulation is nearly all of the pass; training is
//! bypassed (it is set-up).

use evax_core::collect::CollectConfig;
use evax_core::gan::AmGanConfig;
use evax_core::par::{round_robin_shards, Parallelism};
use evax_core::pipeline::{EvaxConfig, EvaxPipeline};
use evax_core::prelude::{Detector, Featurizer, WindowBatch};
use evax_defense::adaptive::{AdaptiveConfig, SecureModeState};
use evax_defense::fleet::{run_fleet, FleetConfig, FleetReport, InferenceMode, StreamOutcome};
use evax_nn::detector::{Detector as ModelDetector, DetectorScratch};
use evax_sim::{Cpu, CpuConfig, Program, SampledCursor, SampledStep};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Trace;
use crate::{Fnv, PassOutput, Workload, THREADS};

/// The deployed detector's training run: collection at the fleet's
/// sampling interval (so the normalizer sees windows of the deployed size),
/// a short AM-GAN, and the 12 mined engineered features.
fn pipeline_config() -> EvaxConfig {
    EvaxConfig {
        collect: CollectConfig {
            interval: 200,
            runs_per_attack: 1,
            runs_per_benign: 1,
            max_instrs: 3_000,
            benign_scale: 3_000,
            parallelism: Parallelism::Fixed(THREADS),
            ..Default::default()
        },
        gan: AmGanConfig {
            epochs: 4,
            ..AmGanConfig::small()
        },
        augment_per_class: 60,
        augment_benign: 200,
        ..Default::default()
    }
}

/// Seed of the deployed detector's training. The detector is one fixed
/// artifact across runs: its false-flag rate sets how long benign tenants
/// run fenced, which moves the pass's simulated cycles by over 10% between
/// training seeds. The run seed varies the tenant programs instead.
const DETECTOR_SEED: u64 = 0xF1EE7;

/// 1024 tenants, one attack stream to three benign ones, 2,000 instructions
/// each on a fresh (cold) core — `FleetConfig::default()`'s shape.
fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        n_streams: 1024,
        attack_every: 4,
        max_instrs: 2_000,
        adaptive: AdaptiveConfig {
            sample_interval: 200,
            secure_window: 1_000,
            ..AdaptiveConfig::default()
        },
        batch_windows: 16,
        n_shards: 64,
        kernel_threads: 1,
        inference: InferenceMode::BatchedF32,
        seed,
        warm_start: false,
    }
}

#[derive(Default)]
pub struct FleetWorkload {
    cfg: Option<FleetConfig>,
    cpu_cfg: CpuConfig,
    deployed: Option<(Detector, Featurizer)>,
}

impl FleetWorkload {
    fn parts(&self) -> (&FleetConfig, &Detector, &Featurizer) {
        let cfg = self.cfg.as_ref().expect("set-up ran");
        let (det, feat) = self.deployed.as_ref().expect("set-up ran");
        (cfg, det, feat)
    }
}

/// Digest over the run's outcomes: `FleetReport::verdict_digest` (every
/// per-stream field) plus the drain counts.
fn outcome_digest(outcomes: Vec<StreamOutcome>, full: u64, tail: u64) -> u64 {
    let report = FleetReport {
        outcomes,
        latencies_ns: Vec::new(),
        full_flushes: full,
        tail_flushes: tail,
        sim_ns: 0,
        inference_ns: 0,
        inference: InferenceMode::BatchedF32,
    };
    let mut h = Fnv::default();
    h.word(report.verdict_digest());
    h.word(full);
    h.word(tail);
    h.finish()
}

/// Nearest-rank quantile of unsorted nanosecond samples, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

impl Workload for FleetWorkload {
    fn setup(&mut self, seed: u64) {
        let p = EvaxPipeline::run(&pipeline_config(), DETECTOR_SEED);
        let feat = p.featurizer();
        self.deployed = Some((p.evax, feat));
        self.cfg = Some(fleet_config(seed));
    }

    fn input_digest(&self) -> u64 {
        let (cfg, det, feat) = self.parts();
        let mut h = Fnv::default();
        h.word(cfg.seed);
        h.f32s(det.perceptron().weights());
        h.f32s(&[det.perceptron().bias(), det.threshold()]);
        h.f64s(feat.normalizer().maxima());
        h.bytes(format!("{:?}", det.engineered()).as_bytes());
        h.finish()
    }

    fn pass(&mut self) -> PassOutput {
        let (cfg, det, feat) = self.parts();
        let report = run_fleet(cfg, &self.cpu_cfg, det, feat, Parallelism::Fixed(THREADS));
        let windows = report.windows();
        let mut lat = report.latencies_ns.clone();
        lat.sort_unstable();
        let attack_streams = report
            .outcomes
            .iter()
            .filter(|o| o.class_label != 0)
            .count() as f64;
        let benign_streams = report.outcomes.len() as f64 - attack_streams;
        let committed: u64 = report
            .outcomes
            .iter()
            .map(|o| o.committed_instructions)
            .sum();
        let cycles: u64 = report.outcomes.iter().map(|o| o.cycles).sum();
        let secure: u64 = report.outcomes.iter().map(|o| o.secure_instructions).sum();
        let checks = vec![
            (
                "fleet reports one outcome per stream, in stream order",
                report.outcomes.len() == cfg.n_streams
                    && report
                        .outcomes
                        .iter()
                        .enumerate()
                        .all(|(i, o)| o.stream_id == i),
            ),
            (
                "fleet applies exactly one verdict per window",
                lat.len() as u64 == windows && windows > 0,
            ),
            (
                "every stream's verdicts fit in its windows",
                report.outcomes.iter().all(|o| {
                    o.flags + o.fail_secure_switches <= o.windows
                        && o.secure_instructions <= o.windows * cfg.adaptive.sample_interval
                }),
            ),
        ];
        PassOutput {
            units: windows,
            sim_instrs: committed,
            sim_cycles: cycles,
            attempted: windows,
            // Non-finite scores are routed to fail-secure by the drain, so
            // they are already among these switches.
            failed: report.fail_secure_switches(),
            checks,
            figures: vec![
                ("verdict_p50_us", quantile_us(&lat, 0.50)),
                ("verdict_p99_us", quantile_us(&lat, 0.99)),
                ("verdict_samples", lat.len() as f64),
                (
                    "detect_tpr",
                    report.flagged_attack_streams() as f64 / attack_streams,
                ),
                (
                    "detect_fpr",
                    report.false_flag_streams() as f64 / benign_streams,
                ),
                ("secure_duty", secure as f64 / committed as f64),
            ],
            digest: outcome_digest(report.outcomes, report.full_flushes, report.tail_flushes),
        }
    }

    fn traced_pass(&mut self, trace: &mut Trace) -> PassOutput {
        let (cfg, det, feat) = self.parts();
        let mut outcomes = Vec::with_capacity(cfg.n_streams);
        for shard in round_robin_shards(cfg.n_streams, cfg.n_shards) {
            replay_shard(&shard, cfg, &self.cpu_cfg, det, feat, trace, &mut outcomes);
        }
        outcomes.sort_by_key(|o| o.stream_id);
        let windows = trace.get("sim.windows") as u64;
        PassOutput {
            units: windows,
            sim_instrs: outcomes.iter().map(|o| o.committed_instructions).sum(),
            sim_cycles: outcomes.iter().map(|o| o.cycles).sum(),
            attempted: windows,
            failed: outcomes.iter().map(|o| o.fail_secure_switches).sum(),
            digest: outcome_digest(
                outcomes,
                trace.get("score.full_drains") as u64,
                trace.get("score.tail_drains") as u64,
            ),
            ..PassOutput::default()
        }
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &[
            "fleet.build_ns",
            "sim.step_ns",
            "featurize.ns",
            "score.ns",
            "secure.ns",
        ]
    }

    fn self_layer(&self) -> Option<&'static str> {
        Some("fleet.self_ns")
    }
}

struct Stream {
    id: usize,
    class_label: usize,
    program: Program,
    cpu: Cpu,
    cursor: SampledCursor,
    state: SecureModeState,
    windows: u64,
    done: Option<(u64, u64)>,
}

/// Stream `id`'s registry program, derived exactly as the fleet derives it:
/// the choice and its seed depend only on `(cfg.seed, id)`.
fn stream_program(id: usize, cfg: &FleetConfig) -> (Program, usize) {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if cfg.attack_every > 0 && id.is_multiple_of(cfg.attack_every) {
        let classes = evax_attacks::ATTACK_CLASSES;
        let class = classes[(id / cfg.attack_every) % classes.len()];
        let params = evax_attacks::KernelParams::default();
        (
            evax_attacks::build_attack(class, &params, &mut rng),
            class.label(),
        )
    } else {
        let kinds = evax_attacks::BENIGN_KINDS;
        let scale = evax_attacks::benign::Scale(cfg.max_instrs);
        (
            evax_attacks::build_benign(kinds[id % kinds.len()], scale, &mut rng),
            0,
        )
    }
}

/// One shard of `run_fleet`, call for call: round-robin passes over the live
/// streams, windows featurized into the shard's batch, full batches drained
/// through the threaded kernel and the end-of-pass remainder through the
/// single-threaded tail, verdicts applied to each stream's secure-mode state.
fn replay_shard(
    ids: &[usize],
    cfg: &FleetConfig,
    cpu_cfg: &CpuConfig,
    det: &Detector,
    feat: &Featurizer,
    trace: &mut Trace,
    outcomes: &mut Vec<StreamOutcome>,
) {
    let mut streams: Vec<Stream> = ids
        .iter()
        .map(|&id| {
            let t0 = std::time::Instant::now();
            let (program, class_label) = trace.time("attacks.build_ns", || stream_program(id, cfg));
            let mut cpu = Cpu::new(cpu_cfg.clone());
            let budget = cfg.max_instrs.saturating_sub(cpu.stats().committed_insts);
            let cursor = cpu.begin_sampled(budget, cfg.adaptive.sample_interval);
            trace.add_ns("fleet.build_ns", t0);
            Stream {
                id,
                class_label,
                program,
                cpu,
                cursor,
                state: SecureModeState::default(),
                windows: 0,
                done: None,
            }
        })
        .collect();
    let mut batch: WindowBatch<(usize, u64)> =
        WindowBatch::new(det.extended_dim(), cfg.batch_windows);
    let mut raw = vec![0.0f64; evax_sim::dim_for(cpu_cfg)];
    let mut drain = Drain::default();
    let mut live: Vec<usize> = (0..streams.len()).collect();
    while !live.is_empty() {
        let mut next_live = Vec::with_capacity(live.len());
        for &slot in &live {
            let s = &mut streams[slot];
            let step = trace.time("sim.step_ns", || {
                s.cursor.next_window_into(&mut s.cpu, &s.program, &mut raw)
            });
            match step {
                SampledStep::Window { cycle, .. } => {
                    s.windows += 1;
                    trace.add("sim.windows", 1.0);
                    if raw.iter().any(|v| !v.is_finite()) {
                        let t0 = std::time::Instant::now();
                        if let Some(mode) = s.state.fail_secure(&cfg.adaptive) {
                            s.cpu.set_mitigation(mode);
                            trace.add("secure.switches", 1.0);
                        }
                        trace.add_ns("secure.ns", t0);
                    } else {
                        let full = trace.time("featurize.ns", || {
                            batch.push_with((slot, cycle), |row| feat.featurize_into(&raw, row))
                        });
                        trace.add("featurize.rows", 1.0);
                        if full {
                            drain.run(&mut batch, &mut streams, det, cfg, trace, true);
                        }
                    }
                    next_live.push(slot);
                }
                SampledStep::Done(result) => {
                    s.done = Some((result.committed_instructions, result.cycles));
                }
            }
        }
        if !batch.is_empty() {
            drain.run(&mut batch, &mut streams, det, cfg, trace, false);
        }
        live = next_live;
    }
    let teardown = std::time::Instant::now();
    for s in streams {
        let (committed, cycles) = s.done.expect("a stream leaves the live set only when done");
        trace.add("sim.instrs", committed as f64);
        trace.add("sim.cycles", cycles as f64);
        trace.core_counts(&s.cpu);
        trace.add("secure.instrs", s.state.secure_instructions as f64);
        outcomes.push(StreamOutcome {
            stream_id: s.id,
            class_label: s.class_label,
            windows: s.windows,
            flags: s.state.flags,
            fail_secure_switches: s.state.fail_secure_switches,
            first_flag_cycle: s.state.first_flag_cycle,
            secure_instructions: s.state.secure_instructions,
            committed_instructions: committed,
            cycles,
        });
    }
    trace.add_ns("fleet.build_ns", teardown);
}

/// Drain scratch, reused across a shard's flushes.
#[derive(Default)]
struct Drain {
    scores: Vec<f32>,
    verdicts: Vec<bool>,
    nn: DetectorScratch,
}

impl Drain {
    fn run(
        &mut self,
        batch: &mut WindowBatch<(usize, u64)>,
        streams: &mut [Stream],
        model: &dyn ModelDetector,
        cfg: &FleetConfig,
        trace: &mut Trace,
        full: bool,
    ) {
        let n = batch.len();
        self.scores.clear();
        self.scores.resize(n, 0.0);
        self.verdicts.clear();
        self.verdicts.resize(n, false);
        trace.add(
            if full {
                "score.full_drains"
            } else {
                "score.tail_drains"
            },
            1.0,
        );
        let threads = if full { cfg.kernel_threads } else { 1 };
        trace.time("score.ns", || {
            model.classify_rows_into(
                batch.rows(),
                threads,
                &mut self.nn,
                &mut self.scores,
                &mut self.verdicts,
            )
        });
        trace.add("score.rows", n as f64);
        let t0 = std::time::Instant::now();
        let mut switches = 0u64;
        for (i, &(slot, cycle)) in batch.tags().iter().enumerate() {
            let s = &mut streams[slot];
            let mode = if self.scores[i].is_finite() {
                s.state
                    .apply_verdict(self.verdicts[i], cycle, &cfg.adaptive)
            } else {
                s.state.fail_secure(&cfg.adaptive)
            };
            if let Some(mode) = mode {
                s.cpu.set_mitigation(mode);
                switches += 1;
            }
        }
        trace.add_ns("secure.ns", t0);
        trace.add("secure.switches", switches as f64);
        batch.clear();
    }
}
