//! The unified streaming featurization pipeline — the *one* window→feature
//! path shared by offline collection, k-fold/fuzz corpora, detector
//! training and the online adaptive defense loop.
//!
//! EVAX's premise (paper §VII–§VIII, Fig. 12–14) is that the *same* HPC
//! featurization runs offline (dataset collection, AM-GAN vaccination,
//! detector training) and online (the adaptive controller that flags
//! attacks mid-run). Implementing that path more than once is exactly the
//! train/serve skew that breaks deployed HMDs: detector accuracy collapses
//! when deployment-time feature extraction drifts from training-time
//! (Stochastic-HMDs, MAD-EN). This module is the single implementation:
//!
//! ```text
//!   WindowSource ──▶ window delta ──▶ normalization ──▶ engineered HPCs
//!   (simulator,      (inside           (Normalizer /      (fuzzy-AND
//!    run_sampled)     run_sampled)      StreamStats)       projection)
//!        │
//!        └──▶ WindowSink: StreamStats (fit) · DatasetSink (offline)
//!             · VerdictSink (deployment) · the adaptive controller
//!             (evax-defense) · CollectingSink (figures/tests)
//! ```
//!
//! * [`WindowSource`] produces raw per-window HPC **delta** vectors. The
//!   canonical source is [`ProgramSource`]: one program on a fresh core,
//!   driven by `Cpu::run_sampled`'s zero-alloc `hpc_vector_into` visitor
//!   with in-place window deltas.
//! * [`WindowSink`] consumes windows and may steer the source (the adaptive
//!   controller returns mitigation-mode switches; offline sinks return
//!   `None`).
//! * [`StreamStats`] is the streaming fit: exact running maxima (bit-exact
//!   with a two-pass fit, since `max` is order-independent) plus Welford
//!   online mean/variance. Parallel collection merges per-stream stats in
//!   canonical stream order, so results are bit-identical at any thread
//!   count (see [`crate::par`]).
//! * [`Featurizer`] is the serializable window→feature transform that
//!   travels with a trained detector (see [`crate::io`]), so train-time and
//!   deploy-time transforms can never diverge.
//!
//! # Memory bounds
//!
//! Streaming collection never materializes raw window matrices: a fit pass
//! holds one window vector plus running stats per stream, and the emit pass
//! converts each window straight into its normalized `f32` sample. Peak
//! memory is the *output* dataset plus O(dim) per worker, independent of
//! how many raw windows the corpus contains.

use evax_nn::detector::{Detector as ModelDetector, DetectorScratch};
use evax_obs::MetricsSink;
use evax_sim::{
    CpuConfig, FeatureSchema, MitigationMode, Modality, Program, RunResult, SampleSchedule,
};

use crate::dataset::{Dataset, Normalizer, Sample};
use crate::feature_engineering::EngineeredFeature;

/// One raw HPC sampling window, borrowed from the driving source.
///
/// `values` are the per-window counter **deltas** (the window-delta stage
/// runs inside `Cpu::run_sampled`, converting absolute counters in place).
#[derive(Debug, Clone, Copy)]
pub struct RawWindow<'a> {
    /// Raw (unnormalized) HPC deltas for this window.
    pub values: &'a [f64],
    /// Committed instructions at the window boundary.
    pub instructions: u64,
    /// Cycle count at the window boundary.
    pub cycle: u64,
}

impl RawWindow<'_> {
    /// Instructions-per-cycle of this window (Fig. 14 timelines).
    pub fn ipc(&self) -> f64 {
        let cyc_idx = evax_sim::hpc_index("cycles").expect("cycles HPC");
        let inst_idx = evax_sim::hpc_index("commit.CommittedInsts").expect("insts HPC");
        let cycles = self.values[cyc_idx].max(1.0);
        self.values[inst_idx] / cycles
    }
}

/// A consumer of raw windows.
///
/// Returning `Some(mode)` steers the driving source (the adaptive
/// controller's lever); offline sinks return `None`.
pub trait WindowSink {
    /// Consumes one window; optionally switches the source's mitigation.
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode>;
}

/// A producer of raw HPC windows that drives a [`WindowSink`].
pub trait WindowSource {
    /// Streams every window into `sink`, honoring its mitigation switches.
    fn stream(&mut self, sink: &mut dyn WindowSink) -> RunResult;
}

/// The canonical window source: one program run on a fresh simulated core.
///
/// This is the single simulator-driving loop behind collection, evasive
/// corpora, deployment scoring and the adaptive controller. It plants the
/// kernel secret (attacks that read kernel memory need one) and samples
/// every `interval` committed instructions.
#[derive(Debug)]
pub struct ProgramSource<'a> {
    program: &'a Program,
    cpu_cfg: &'a CpuConfig,
    interval: u64,
    max_instrs: u64,
    schedule: SampleSchedule,
    metrics: MetricsSink,
}

impl<'a> ProgramSource<'a> {
    /// Creates a source sampling `program` every `interval` committed
    /// instructions for at most `max_instrs` instructions.
    pub fn new(
        program: &'a Program,
        cpu_cfg: &'a CpuConfig,
        interval: u64,
        max_instrs: u64,
    ) -> Self {
        ProgramSource {
            program,
            cpu_cfg,
            interval,
            max_instrs,
            schedule: SampleSchedule::default(),
            metrics: MetricsSink::default(),
        }
    }

    /// Sets a fast-forward interval schedule (builder style). With the
    /// default all-detailed schedule the stream is bitwise-identical to the
    /// historical behavior; a nonzero `warmup_instrs` fast-forwards between
    /// sampling windows (functional execution with approximate warm-up), so
    /// windows are approximate but far cheaper to produce.
    pub fn with_schedule(mut self, schedule: SampleSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Attaches a metrics sink (builder style). With the default no-op sink
    /// the stream is instrumentation-free; with a recording sink each
    /// [`stream`](WindowSource::stream) call emits `featurize.*` window
    /// tallies and `sim.*` core/DRAM counters. Recording never feeds back
    /// into simulation, so streamed windows are bitwise-identical either
    /// way.
    pub fn with_metrics(mut self, metrics: MetricsSink) -> Self {
        self.metrics = metrics;
        self
    }
}

impl WindowSource for ProgramSource<'_> {
    fn stream(&mut self, sink: &mut dyn WindowSink) -> RunResult {
        let mut cpu = evax_attacks::tenant_core(self.cpu_cfg);
        let result = if self.metrics.enabled() {
            let windows = self.metrics.counter("featurize.windows");
            let switches = self.metrics.counter("featurize.mode_switches");
            let switch_cycle = self.metrics.histogram("featurize.switch_cycle");
            let span = self.metrics.span("sim.run_wall_ns");
            let result = cpu.run_sampled_with_schedule(
                self.program,
                self.max_instrs,
                self.interval,
                self.schedule,
                |s| {
                    windows.inc();
                    let verdict = sink.window(&RawWindow {
                        values: &s.values,
                        instructions: s.instructions,
                        cycle: s.cycle,
                    });
                    if verdict.is_some() {
                        switches.inc();
                        switch_cycle.observe(s.cycle);
                    }
                    verdict
                },
            );
            drop(span);
            result
        } else {
            cpu.run_sampled_with_schedule(
                self.program,
                self.max_instrs,
                self.interval,
                self.schedule,
                |s| {
                    sink.window(&RawWindow {
                        values: &s.values,
                        instructions: s.instructions,
                        cycle: s.cycle,
                    })
                },
            )
        };
        if self.metrics.enabled() {
            self.metrics.add("featurize.runs", 1);
            self.metrics
                .add("sim.committed_instrs", result.committed_instructions);
            self.metrics.add("sim.cycles", result.cycles);
            let sc = cpu.sched_counters();
            self.metrics
                .add("sim.sched.events_scheduled", sc.events_scheduled);
            self.metrics.add("sim.sched.ready_pushes", sc.ready_pushes);
            self.metrics
                .record_max("sim.sched.event_heap_peak", sc.event_heap_peak);
            self.metrics
                .record_max("sim.sched.ready_heap_peak", sc.ready_heap_peak);
            let d = cpu.dram().stats();
            self.metrics.add("sim.dram.activations", d.activations);
            self.metrics.add("sim.dram.bit_flips", d.bit_flips);
        }
        result
    }
}

/// Per-feature streaming statistics: exact running maxima plus Welford
/// online mean/variance.
///
/// The maxima are bit-exact with a two-pass (materialize-then-fold) fit —
/// `max` over `|x|` is order-independent — so the [`Normalizer`] produced
/// by a streaming fit is byte-identical to the historical one. Mean and
/// variance use Welford's recurrence, with a pairwise merge (Chan et al.)
/// for parallel streams.
///
/// # Determinism
///
/// [`merge`](StreamStats::merge) is *not* commutative in floating point;
/// callers must merge per-stream stats in canonical stream order (as
/// [`crate::collect::collect_dataset`] does), which makes the result
/// bit-identical at any thread count.
///
/// # Non-finite inputs
///
/// NaN/Inf counters are corruption, not data: folding them in would poison
/// the running maxima (and through the fitted [`Normalizer`], every
/// downstream feature vector). [`try_observe`](StreamStats::try_observe)
/// and [`try_merge`](StreamStats::try_merge) reject them with a typed
/// [`EvaxError::Corrupt`](crate::error::EvaxError); the infallible
/// [`observe`](StreamStats::observe) / [`merge`](StreamStats::merge) used
/// on streaming sinks *drop* the offending window (or incoming stats)
/// whole and count it in [`rejected`](StreamStats::rejected), leaving the
/// fitted state untouched. Finite inputs behave bit-identically to the
/// pre-guard implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    count: u64,
    /// Windows dropped because they contained non-finite counters.
    rejected: u64,
    max: Vec<f64>,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl StreamStats {
    /// Creates empty statistics for `dim` features.
    pub fn new(dim: usize) -> Self {
        StreamStats {
            count: 0,
            rejected: 0,
            max: vec![0.0; dim],
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.max.len()
    }

    /// Number of windows observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Windows dropped by the infallible [`observe`](Self::observe) /
    /// [`merge`](Self::merge) because they carried non-finite counters.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Folds one raw window into the statistics, rejecting corruption: a
    /// window with any non-finite counter leaves the state untouched.
    ///
    /// # Errors
    /// [`EvaxError::Corrupt`](crate::error::EvaxError) naming the first
    /// non-finite component.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn try_observe(&mut self, raw: &[f64]) -> crate::error::Result<()> {
        assert_eq!(raw.len(), self.max.len(), "feature dim mismatch");
        if let Some((i, &v)) = raw.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(crate::error::EvaxError::corrupt(
                format!("hpc window counter {i}"),
                "a finite value",
                format!("{v}"),
            ));
        }
        self.count += 1;
        let n = self.count as f64;
        for (i, &v) in raw.iter().enumerate() {
            if v.abs() > self.max[i] {
                self.max[i] = v.abs();
            }
            let delta = v - self.mean[i];
            self.mean[i] += delta / n;
            self.m2[i] += delta * (v - self.mean[i]);
        }
        Ok(())
    }

    /// Folds one raw window into the statistics. Windows carrying
    /// non-finite counters are dropped whole and tallied in
    /// [`rejected`](Self::rejected) (use [`try_observe`](Self::try_observe)
    /// to surface them as typed errors instead).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn observe(&mut self, raw: &[f64]) {
        if self.try_observe(raw).is_err() {
            self.rejected += 1;
        }
    }

    /// Merges another stream's statistics into this one (Chan et al.'s
    /// pairwise update), rejecting corruption: stats carrying non-finite
    /// maxima/means/variances leave this state untouched. Merge order must
    /// be canonical — see the type docs.
    ///
    /// # Errors
    /// [`EvaxError::Corrupt`](crate::error::EvaxError) when `other`
    /// contains a non-finite accumulator.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn try_merge(&mut self, other: &StreamStats) -> crate::error::Result<()> {
        assert_eq!(other.dim(), self.dim(), "feature dim mismatch");
        let poisoned = other
            .max
            .iter()
            .chain(other.mean.iter())
            .chain(other.m2.iter())
            .find(|v| !v.is_finite());
        if let Some(&v) = poisoned {
            return Err(crate::error::EvaxError::corrupt(
                "stream statistics",
                "finite accumulators",
                format!("{v}"),
            ));
        }
        if other.count == 0 {
            self.rejected += other.rejected;
            return Ok(());
        }
        if self.count == 0 {
            let rejected = self.rejected + other.rejected;
            *self = other.clone();
            self.rejected = rejected;
            return Ok(());
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        for i in 0..self.max.len() {
            if other.max[i] > self.max[i] {
                self.max[i] = other.max[i];
            }
            let delta = other.mean[i] - self.mean[i];
            self.mean[i] += delta * nb / n;
            self.m2[i] += other.m2[i] + delta * delta * na * nb / n;
        }
        self.count += other.count;
        self.rejected += other.rejected;
        Ok(())
    }

    /// Merges another stream's statistics into this one. Corrupt incoming
    /// stats (non-finite accumulators) are dropped whole and tallied in
    /// [`rejected`](Self::rejected) (use [`try_merge`](Self::try_merge) to
    /// surface them as typed errors instead).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &StreamStats) {
        if self.try_merge(other).is_err() {
            self.rejected += 1;
        }
    }

    /// Running mean per feature.
    pub fn means(&self) -> &[f64] {
        &self.mean
    }

    /// Population variance of feature `i` (0 when fewer than two windows).
    pub fn variance(&self, i: usize) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2[i] / self.count as f64
        }
    }

    /// The fitted running-max [`Normalizer`] (bit-exact with a two-pass fit).
    pub fn normalizer(&self) -> Normalizer {
        Normalizer::from_maxima(self.max.clone())
    }
}

impl WindowSink for StreamStats {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        self.observe(w.values);
        None
    }
}

/// The serializable window→feature transform deployed alongside a trained
/// detector: normalization plus the engineered security-HPC projection.
///
/// Persisting this with the model (see [`crate::io::write_featurizer`])
/// guarantees deployment-time featurization is the one the detector was
/// trained with — there is no ad-hoc reconstruction to drift.
///
/// The featurizer owns the [`FeatureSchema`] describing its columns: the
/// sensor columns it consumes (raw window order) followed by the
/// engineered columns it appends. Serving paths negotiate window width
/// through the schema ([`Featurizer::check_config`]) instead of assuming
/// the fixed baseline width, so a featurizer fitted against one sensor
/// configuration refuses — with a typed [`EvaxError::Config`](crate::error::EvaxError) — to consume
/// windows from another.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Featurizer {
    schema: FeatureSchema,
    normalizer: Normalizer,
    engineered: Vec<EngineeredFeature>,
}

impl Featurizer {
    /// Creates a featurizer from a fitted normalizer and the mined
    /// engineered features (empty for baseline detectors).
    ///
    /// The schema is inferred: a normalizer of the baseline width gets the
    /// named baseline-133 schema (bit- and fingerprint-compatible with
    /// pre-schema artifacts), any other width gets anonymous `f{i}`
    /// columns. Prefer [`Featurizer::with_schema`] when the true schema is
    /// known (e.g. an energy-enabled sensor configuration).
    pub fn new(normalizer: Normalizer, engineered: Vec<EngineeredFeature>) -> Self {
        let base = if normalizer.dim() == evax_sim::HPC_BASE_DIM {
            FeatureSchema::baseline()
        } else {
            FeatureSchema::anonymous(normalizer.dim())
        };
        let schema = base.with_engineered(engineered.iter().map(|f| f.name.clone()));
        Featurizer {
            schema,
            normalizer,
            engineered,
        }
    }

    /// Creates a featurizer against an explicit sensor schema (the columns
    /// of the raw windows the normalizer was fitted on).
    ///
    /// # Errors
    /// [`EvaxError::Config`](crate::error::EvaxError) when the schema width does not match the
    /// normalizer's, or when the schema already contains engineered
    /// columns (those are appended here, from `engineered`).
    pub fn with_schema(
        base_schema: FeatureSchema,
        normalizer: Normalizer,
        engineered: Vec<EngineeredFeature>,
    ) -> crate::error::Result<Self> {
        use crate::error::EvaxError;
        if base_schema.dim() != normalizer.dim() {
            return Err(EvaxError::config(
                "featurizer",
                format!(
                    "schema width {} does not match normalizer width {}",
                    base_schema.dim(),
                    normalizer.dim()
                ),
            ));
        }
        if base_schema.count(Modality::Engineered) != 0 {
            return Err(EvaxError::config(
                "featurizer",
                "base schema must not contain engineered columns",
            ));
        }
        let schema = base_schema.with_engineered(engineered.iter().map(|f| f.name.clone()));
        Ok(Featurizer {
            schema,
            normalizer,
            engineered,
        })
    }

    /// A featurizer with no engineered stage (baseline HPCs only).
    pub fn baseline(normalizer: Normalizer) -> Self {
        Featurizer::new(normalizer, Vec::new())
    }

    /// The full feature schema: sensor columns (what
    /// [`featurize_into`](Self::featurize_into) consumes, in raw-window
    /// order) followed by the engineered columns it appends. Its
    /// fingerprint identifies this featurizer's feature space in
    /// versioned artifacts.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The sensor (pre-engineering) portion of the schema — the columns of
    /// the raw windows this featurizer consumes.
    pub fn base_schema(&self) -> FeatureSchema {
        FeatureSchema::from_columns(
            self.schema
                .columns()
                .take(self.base_dim())
                .map(|(n, m)| (n.to_string(), m))
                .collect(),
        )
    }

    /// Checks that raw windows produced by a CPU built from `cfg` are what
    /// this featurizer consumes: same width, same column names and
    /// modalities (by schema fingerprint). Anonymous-schema featurizers
    /// (legacy artifacts) are checked by width only.
    ///
    /// # Errors
    /// [`EvaxError::Config`](crate::error::EvaxError) describing the mismatch.
    pub fn check_config(&self, cfg: &evax_sim::CpuConfig) -> crate::error::Result<()> {
        use crate::error::EvaxError;
        let produced = FeatureSchema::for_config(cfg);
        if produced.dim() != self.base_dim() {
            return Err(EvaxError::config(
                "featurizer",
                format!(
                    "configuration produces {}-wide windows but the featurizer \
                     was fitted on {}-wide windows",
                    produced.dim(),
                    self.base_dim()
                ),
            ));
        }
        let base = self.base_schema();
        let anonymous = FeatureSchema::anonymous(self.base_dim());
        if base != anonymous && base.fingerprint() != produced.fingerprint() {
            return Err(EvaxError::config(
                "featurizer",
                format!(
                    "schema fingerprint mismatch: configuration produces \
                     {:016x} but the featurizer was fitted on {:016x}",
                    produced.fingerprint(),
                    base.fingerprint()
                ),
            ));
        }
        Ok(())
    }

    /// The normalization stage.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The engineered security-HPC projection stage.
    pub fn engineered(&self) -> &[EngineeredFeature] {
        &self.engineered
    }

    /// Baseline (normalized) feature dimension.
    pub fn base_dim(&self) -> usize {
        self.normalizer.dim()
    }

    /// Output feature dimension (base + engineered).
    pub fn feature_dim(&self) -> usize {
        self.normalizer.dim() + self.engineered.len()
    }

    /// Full window→feature transform: normalized baseline prefix plus the
    /// engineered fuzzy-AND projections (133 → 145 in the paper's
    /// configuration). `out` must have [`feature_dim`](Self::feature_dim)
    /// elements.
    ///
    /// # Panics
    /// Panics on dimension mismatch (either slice).
    pub fn featurize_into(&self, raw: &[f64], out: &mut [f32]) {
        assert_eq!(out.len(), self.feature_dim(), "output dim mismatch");
        let (base, ext) = out.split_at_mut(self.base_dim());
        self.normalizer.normalize_into(raw, base);
        for (o, f) in ext.iter_mut().zip(self.engineered.iter()) {
            *o = f.eval(base);
        }
    }

    /// Allocating convenience over [`featurize_into`](Self::featurize_into).
    pub fn featurize(&self, raw: &[f64]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.feature_dim()];
        self.featurize_into(raw, &mut out);
        out
    }
}

/// Fan-in buffer for cross-stream batched inference: extended feature rows
/// (built by [`Featurizer::featurize_into`] or
/// `Detector::transform_into`) from many interleaved streams accumulate
/// into one flat row-major matrix, each row tagged with its origin, until
/// the whole batch is flushed through a batched scoring kernel.
///
/// The buffer is meant to live as long as its scheduler shard: `clear`
/// retains capacity, so steady-state operation performs no allocation.
#[derive(Debug, Clone)]
pub struct WindowBatch<T> {
    dim: usize,
    capacity: usize,
    rows: Vec<f32>,
    tags: Vec<T>,
}

impl<T> WindowBatch<T> {
    /// Creates an empty batch of `capacity` rows of `dim` features each.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `capacity == 0`.
    pub fn new(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        assert!(capacity > 0, "batch capacity must be positive");
        WindowBatch {
            dim,
            capacity,
            rows: Vec::with_capacity(dim * capacity),
            tags: Vec::with_capacity(capacity),
        }
    }

    /// Features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows the batch holds before it must be flushed.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows currently pending.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` if no rows are pending.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// `true` once the batch has reached capacity and must be flushed.
    pub fn is_full(&self) -> bool {
        self.tags.len() >= self.capacity
    }

    /// Appends one row, written in place by `fill` (the row starts zeroed),
    /// and returns `true` if the batch is now full.
    ///
    /// # Panics
    /// Panics if the batch is already full.
    pub fn push_with(&mut self, tag: T, fill: impl FnOnce(&mut [f32])) -> bool {
        assert!(!self.is_full(), "push into a full WindowBatch");
        let start = self.rows.len();
        self.rows.resize(start + self.dim, 0.0);
        fill(&mut self.rows[start..]);
        self.tags.push(tag);
        self.is_full()
    }

    /// The pending rows as one flat row-major slice (`len() * dim()` long).
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    /// Tags of the pending rows, in push order.
    pub fn tags(&self) -> &[T] {
        &self.tags
    }

    /// Drops all pending rows, keeping the allocation.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.tags.clear();
    }
}

/// Offline sink: normalizes every window and appends it to a labeled
/// [`Dataset`] — the streaming replacement for materialize-then-normalize.
#[derive(Debug)]
pub struct DatasetSink<'a> {
    normalizer: &'a Normalizer,
    class: usize,
    dataset: Dataset,
}

impl<'a> DatasetSink<'a> {
    /// Creates a sink labeling every window with `class`.
    pub fn new(normalizer: &'a Normalizer, class: usize) -> Self {
        DatasetSink {
            normalizer,
            class,
            dataset: Dataset::new(),
        }
    }

    /// The accumulated dataset.
    pub fn into_dataset(self) -> Dataset {
        self.dataset
    }
}

impl WindowSink for DatasetSink<'_> {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        self.dataset
            .push(Sample::new(self.normalizer.normalize(w.values), self.class));
        None
    }
}

/// Deployment sink: featurizes every window and records the model's
/// verdicts (no mitigation feedback — the adaptive controller in
/// `evax-defense` adds the secure-mode state machine on top of the same
/// serving pair).
#[derive(Debug)]
pub struct VerdictSink<'a> {
    featurizer: &'a Featurizer,
    model: &'a dyn ModelDetector,
    row: Vec<f32>,
    scratch: DetectorScratch,
    verdicts: Vec<bool>,
}

impl<'a> VerdictSink<'a> {
    /// Creates a sink classifying `featurizer`'s rows with `model`.
    ///
    /// # Panics
    /// Panics if `model` consumes a different feature dimension than the
    /// featurizer produces.
    pub fn new(featurizer: &'a Featurizer, model: &'a dyn ModelDetector) -> Self {
        assert_eq!(
            model.n_features(),
            featurizer.feature_dim(),
            "model and featurizer disagree on the feature dimension"
        );
        VerdictSink {
            row: vec![0.0f32; featurizer.feature_dim()],
            featurizer,
            model,
            scratch: DetectorScratch::new(),
            verdicts: Vec::new(),
        }
    }

    /// Per-window verdicts (`true` = flagged malicious), in window order.
    pub fn verdicts(&self) -> &[bool] {
        &self.verdicts
    }

    /// Number of flagged windows.
    pub fn flags(&self) -> u64 {
        self.verdicts.iter().filter(|&&v| v).count() as u64
    }
}

impl WindowSink for VerdictSink<'_> {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        self.featurizer.featurize_into(w.values, &mut self.row);
        self.verdicts
            .push(self.model.classify(&self.row, &mut self.scratch));
        None
    }
}

/// Diagnostic sink that materializes raw windows (figures, golden-test
/// oracles). **Not** part of the production path — it defeats the streaming
/// memory bound by design.
#[derive(Debug, Default)]
pub struct CollectingSink {
    windows: Vec<Vec<f64>>,
}

impl CollectingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The materialized raw windows, in window order.
    pub fn into_windows(self) -> Vec<Vec<f64>> {
        self.windows
    }
}

impl WindowSink for CollectingSink {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        self.windows.push(w.values.to_vec());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_attacks::{build_attack, AttackClass, KernelParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spectre_program(seed: u64) -> Program {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = KernelParams {
            iterations: 24,
            ..Default::default()
        };
        build_attack(AttackClass::SpectrePht, &params, &mut rng)
    }

    #[test]
    fn program_source_streams_windows() {
        let program = spectre_program(1);
        let cfg = CpuConfig::default();
        let mut sink = CollectingSink::new();
        let result = ProgramSource::new(&program, &cfg, 200, 3_000).stream(&mut sink);
        assert!(result.committed_instructions > 0);
        let windows = sink.into_windows();
        assert!(windows.len() >= 5, "got {} windows", windows.len());
        assert!(windows.iter().all(|w| w.len() == evax_sim::HPC_BASE_DIM));
    }

    #[test]
    fn stream_stats_max_matches_two_pass_bitwise() {
        let program = spectre_program(2);
        let cfg = CpuConfig::default();
        let mut stats = StreamStats::new(evax_sim::HPC_BASE_DIM);
        ProgramSource::new(&program, &cfg, 200, 3_000).stream(&mut stats);
        let mut collect = CollectingSink::new();
        ProgramSource::new(&program, &cfg, 200, 3_000).stream(&mut collect);
        let mut two_pass = Normalizer::new(evax_sim::HPC_BASE_DIM);
        for w in collect.into_windows() {
            two_pass.observe(&w);
        }
        assert_eq!(stats.normalizer(), two_pass);
    }

    #[test]
    fn stream_stats_merge_is_exact_for_maxima_and_counts() {
        let mut a = StreamStats::new(2);
        a.observe(&[1.0, -4.0]);
        a.observe(&[2.0, 0.5]);
        let mut b = StreamStats::new(2);
        b.observe(&[-3.0, 1.0]);
        let mut merged = StreamStats::new(2);
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        let norm = merged.normalizer();
        assert_eq!(norm.maxima(), &[3.0, 4.0]);
        // Mean is within fp tolerance of the sequential fold.
        let mut seq = StreamStats::new(2);
        for w in [[1.0, -4.0], [2.0, 0.5], [-3.0, 1.0]] {
            seq.observe(&w);
        }
        for i in 0..2 {
            assert!((merged.means()[i] - seq.means()[i]).abs() < 1e-12);
            assert!((merged.variance(i) - seq.variance(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_stats_reject_non_finite_windows() {
        let mut stats = StreamStats::new(2);
        stats.observe(&[1.0, 2.0]);
        let before = stats.clone();
        // try_observe: typed error, state untouched.
        let err = stats.try_observe(&[f64::NAN, 1.0]).unwrap_err();
        assert!(
            matches!(err, crate::error::EvaxError::Corrupt { .. }),
            "{err}"
        );
        assert_eq!(stats, before);
        // observe: the poisoned window is dropped whole and counted.
        stats.observe(&[1.0, f64::INFINITY]);
        stats.observe(&[f64::NEG_INFINITY, 0.0]);
        assert_eq!(stats.rejected(), 2);
        assert_eq!(stats.count(), 1);
        assert!(stats.normalizer().maxima().iter().all(|m| m.is_finite()));
        assert!(stats.means().iter().all(|m| m.is_finite()));
        // A clean window still folds normally afterwards.
        stats.observe(&[3.0, 4.0]);
        assert_eq!(stats.count(), 2);
        assert_eq!(stats.normalizer().maxima(), &[3.0, 4.0]);
    }

    #[test]
    fn stream_stats_reject_poisoned_merges() {
        let mut clean = StreamStats::new(1);
        clean.observe(&[2.0]);
        let mut poisoned = StreamStats::new(1);
        poisoned.observe(&[1.0]);
        // Forge corruption the way a hostile deserializer would: merge is
        // the trust boundary for stats arriving from outside this process.
        poisoned.max[0] = f64::NAN;
        let before = clean.clone();
        let err = clean.try_merge(&poisoned).unwrap_err();
        assert!(
            matches!(err, crate::error::EvaxError::Corrupt { .. }),
            "{err}"
        );
        assert_eq!(clean, before);
        clean.merge(&poisoned);
        assert_eq!(clean.rejected(), 1);
        assert_eq!(clean.count(), 1);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamStats::new(2);
        a.observe(&[1.0, 2.0]);
        let before = a.clone();
        a.merge(&StreamStats::new(2));
        assert_eq!(a, before);
        let mut empty = StreamStats::new(2);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn featurizer_extends_with_engineered_projection() {
        let mut norm = Normalizer::new(3);
        norm.observe(&[10.0, 4.0, 2.0]);
        let f = Featurizer::new(
            norm,
            vec![EngineeredFeature {
                name: "a_AND_b".into(),
                components: vec![0, 1],
            }],
        );
        assert_eq!(f.base_dim(), 3);
        assert_eq!(f.feature_dim(), 4);
        let out = f.featurize(&[5.0, 4.0, 1.0]);
        assert_eq!(out.len(), 4);
        assert!((out[0] - 0.5).abs() < 1e-6);
        // Fuzzy AND = min of the normalized components.
        assert!((out[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn featurize_matches_extend_features() {
        let mut norm = Normalizer::new(3);
        norm.observe(&[8.0, 2.0, 4.0]);
        let eng = vec![EngineeredFeature {
            name: "x".into(),
            components: vec![0, 2],
        }];
        let f = Featurizer::new(norm.clone(), eng.clone());
        let raw = [4.0, 1.0, 3.0];
        let base = norm.normalize(&raw);
        let expected = crate::feature_engineering::extend_features(&base, &eng);
        assert_eq!(f.featurize(&raw), expected);
    }

    #[test]
    #[should_panic(expected = "output dim mismatch")]
    fn featurize_into_rejects_wrong_output_length() {
        let f = Featurizer::baseline(Normalizer::new(2));
        f.featurize_into(&[1.0, 2.0], &mut [0.0f32; 3]);
    }

    #[test]
    fn window_ipc_reads_the_counters() {
        let dim = evax_sim::HPC_BASE_DIM;
        let mut values = vec![0.0f64; dim];
        values[evax_sim::hpc_index("cycles").unwrap()] = 200.0;
        values[evax_sim::hpc_index("commit.CommittedInsts").unwrap()] = 100.0;
        let w = RawWindow {
            values: &values,
            instructions: 100,
            cycle: 200,
        };
        assert!((w.ipc() - 0.5).abs() < 1e-12);
    }

    fn energy_cfg() -> evax_sim::CpuConfig {
        evax_sim::CpuConfig {
            sensor: evax_sim::SensorConfig {
                energy: true,
                ..Default::default()
            },
            ..evax_sim::CpuConfig::default()
        }
    }

    #[test]
    fn new_infers_baseline_schema_at_baseline_width() {
        let f = Featurizer::baseline(Normalizer::new(evax_sim::HPC_BASE_DIM));
        assert_eq!(f.base_schema(), FeatureSchema::baseline());
        let f = Featurizer::baseline(Normalizer::new(7));
        assert_eq!(f.base_schema(), FeatureSchema::anonymous(7));
    }

    #[test]
    fn with_schema_appends_engineered_columns() {
        let cfg = energy_cfg();
        let schema = FeatureSchema::for_config(&cfg);
        let eng = vec![EngineeredFeature {
            name: "sec_x".into(),
            components: vec![0, 1],
        }];
        let f =
            Featurizer::with_schema(schema.clone(), Normalizer::new(schema.dim()), eng).unwrap();
        assert_eq!(f.base_dim(), schema.dim());
        assert_eq!(f.feature_dim(), schema.dim() + 1);
        assert_eq!(f.schema().name(schema.dim()), "sec_x");
        assert_eq!(f.schema().count(Modality::Energy), evax_sim::ENERGY_DIM);
        assert_eq!(f.base_schema(), schema);
    }

    #[test]
    fn with_schema_rejects_width_mismatch_with_config_error() {
        let err =
            Featurizer::with_schema(FeatureSchema::baseline(), Normalizer::new(7), Vec::new())
                .unwrap_err();
        match err {
            crate::error::EvaxError::Config { what, reason } => {
                assert_eq!(what, "featurizer");
                assert!(reason.contains("width"), "{reason}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn with_schema_rejects_pre_engineered_base() {
        let base = FeatureSchema::baseline().with_engineered(["already"]);
        let err = Featurizer::with_schema(base.clone(), Normalizer::new(base.dim()), Vec::new())
            .unwrap_err();
        assert!(
            matches!(err, crate::error::EvaxError::Config { .. }),
            "{err}"
        );
    }

    #[test]
    fn check_config_negotiates_window_width() {
        let baseline = Featurizer::baseline(Normalizer::new(evax_sim::HPC_BASE_DIM));
        baseline
            .check_config(&evax_sim::CpuConfig::default())
            .unwrap();
        // An energy-enabled core produces wider windows: typed refusal.
        let err = baseline.check_config(&energy_cfg()).unwrap_err();
        match err {
            crate::error::EvaxError::Config { what, reason } => {
                assert_eq!(what, "featurizer");
                assert!(reason.contains("wide windows"), "{reason}");
            }
            other => panic!("expected Config, got {other:?}"),
        }
        // And an energy-fitted featurizer refuses a baseline core.
        let cfg = energy_cfg();
        let schema = FeatureSchema::for_config(&cfg);
        let wide =
            Featurizer::with_schema(schema.clone(), Normalizer::new(schema.dim()), Vec::new())
                .unwrap();
        wide.check_config(&cfg).unwrap();
        assert!(wide.check_config(&evax_sim::CpuConfig::default()).is_err());
        // Legacy anonymous featurizers are checked by width only.
        let legacy = Featurizer::baseline(Normalizer::new(schema.dim()));
        assert_eq!(legacy.base_schema(), FeatureSchema::anonymous(schema.dim()));
        legacy.check_config(&cfg).unwrap();
    }
}
