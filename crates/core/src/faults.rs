//! Deterministic fault injection — the robustness layer that proves the
//! pipeline **fails secure**.
//!
//! EVAX's trust argument runs through the detector: the adaptive controller
//! only relaxes mitigations when the detector says the window is clean, so a
//! detector path that panics, silently emits NaN, or loads a corrupted
//! model is a *security hole*, not merely a crash (the Fig. 14/16 overhead
//! savings assume the controller never fails open). This module supplies
//! the seeded, bit-reproducible injectors that the `evax-bench`
//! `fault_matrix` chaos harness drives through every subsystem:
//!
//! * **Storage faults** — bit-flips, truncation and garbage bytes applied
//!   to serialized model/featurizer/dataset artifacts before
//!   [`crate::io::read_model`] / [`crate::io::read_featurizer`] /
//!   [`crate::io::read_csv`]; every outcome must be a typed
//!   [`EvaxError`], never a panic. Transient I/O faults (a reader that
//!   fails then recovers) compose with the bounded [`retry`] helper.
//! * **Data faults** — NaN / Inf / saturated-counter HPC windows pushed
//!   through the featurize chain via [`FaultingSink`];
//!   [`crate::featurize::StreamStats`] and [`crate::dataset::Normalizer`]
//!   must reject or sanitize non-finite values instead of poisoning the
//!   fitted maxima.
//! * **Inference faults** — detector scores replaced with NaN/Inf mid-run
//!   via [`FaultInjector::corrupt_score`]; the adaptive controller must
//!   treat any non-finite verdict as "attack" and hold mitigations ON
//!   (the fail-secure policy, see `evax_defense::adaptive`).
//!
//! # Invisible when disabled
//!
//! Every hook takes a [`FaultInjector`] handle whose default
//! ([`FaultInjector::disabled`]) is a no-op, following the same pattern as
//! the no-op `MetricsSink`: a disabled injector is one `Option` branch, it
//! never touches the data, and the golden equivalence / golden
//! featurization suites prove the instrumented build is bit-identical to
//! an uninstrumented one.
//!
//! # Determinism
//!
//! An enabled injector owns a seeded [`StdRng`]; given the same seed and
//! the same call sequence it corrupts the same bits, windows and scores,
//! so every fault-matrix cell is bit-reproducible at any thread count
//! (cells derive independent seeds and never share an injector across
//! threads).

use std::io::Read;
use std::sync::{Arc, Mutex};

use evax_sim::{MitigationMode, RunResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{EvaxError, Result};
use crate::featurize::{RawWindow, WindowSink, WindowSource};

/// The injector taxonomy: which hostile condition a [`FaultInjector`]
/// manufactures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Storage: flip random bits of the serialized artifact.
    BitFlip,
    /// Storage: truncate the artifact at a random byte offset.
    Truncate,
    /// Storage: overwrite random bytes with garbage.
    Garbage,
    /// Storage: the reader fails with a transient `TimedOut` I/O error
    /// a bounded number of times before recovering (exercises [`retry`]).
    /// (`TimedOut` rather than `Interrupted`, which `std`'s own read loops
    /// silently retry — that would make the fault invisible.)
    TransientIo,
    /// Data: replace one counter of periodic windows with NaN.
    NanWindow,
    /// Data: replace one counter of periodic windows with +Inf.
    InfWindow,
    /// Data: replace one counter of periodic windows with a saturated
    /// counter value (`u64::MAX` as `f64` — hostile but finite).
    SaturatedWindow,
    /// Data: the window stream is empty (zero-length program).
    ZeroLen,
    /// Inference: periodic detector scores become NaN.
    NanScore,
    /// Inference: periodic detector scores become +Inf.
    InfScore,
}

impl FaultKind {
    /// Every injector kind, in taxonomy order (storage, data, inference).
    pub const ALL: &'static [FaultKind] = &[
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::Garbage,
        FaultKind::TransientIo,
        FaultKind::NanWindow,
        FaultKind::InfWindow,
        FaultKind::SaturatedWindow,
        FaultKind::ZeroLen,
        FaultKind::NanScore,
        FaultKind::InfScore,
    ];

    /// Stable lowercase label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::Garbage => "garbage",
            FaultKind::TransientIo => "transient-io",
            FaultKind::NanWindow => "nan-window",
            FaultKind::InfWindow => "inf-window",
            FaultKind::SaturatedWindow => "saturated-window",
            FaultKind::ZeroLen => "zero-len",
            FaultKind::NanScore => "nan-score",
            FaultKind::InfScore => "inf-score",
        }
    }

    /// `true` for kinds that mutate serialized artifact bytes.
    pub fn is_storage(self) -> bool {
        matches!(
            self,
            FaultKind::BitFlip | FaultKind::Truncate | FaultKind::Garbage | FaultKind::TransientIo
        )
    }

    /// `true` for kinds that corrupt streamed HPC windows.
    pub fn is_data(self) -> bool {
        matches!(
            self,
            FaultKind::NanWindow
                | FaultKind::InfWindow
                | FaultKind::SaturatedWindow
                | FaultKind::ZeroLen
        )
    }

    /// `true` for kinds that corrupt detector scores.
    pub fn is_inference(self) -> bool {
        matches!(self, FaultKind::NanScore | FaultKind::InfScore)
    }
}

/// Mutable state behind an enabled injector: the fault plan plus the
/// seeded RNG that decides where each corruption lands.
#[derive(Debug)]
struct FaultCore {
    kind: FaultKind,
    /// Per-kind strength: bit flips / garbage bytes per artifact, transient
    /// failures before recovery, or the period (every Nth window/score)
    /// for data and inference faults.
    intensity: u32,
    rng: StdRng,
    /// Calls to the periodic hooks so far (window/score corruption).
    calls: u64,
    /// Corruptions actually applied.
    injected: u64,
    /// Remaining transient I/O failures before the reader recovers.
    io_failures_left: u32,
}

/// A deterministic fault injector handle. Cloning shares the underlying
/// state (so a reader wrapper and the harness observe one injection
/// count). The default handle is **disabled**: every hook is a no-op
/// `Option` branch and the data passes through untouched.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector(Option<Arc<Mutex<FaultCore>>>);

impl FaultInjector {
    /// The no-op injector (same as `FaultInjector::default()`).
    pub fn disabled() -> Self {
        FaultInjector(None)
    }

    /// An enabled injector of `kind`, seeded for bit-reproducible
    /// corruption, at the kind's default intensity (see
    /// [`with_intensity`](Self::with_intensity)).
    pub fn new(kind: FaultKind, seed: u64) -> Self {
        let intensity = match kind {
            FaultKind::BitFlip => 1,
            FaultKind::Truncate => 1,
            FaultKind::Garbage => 8,
            FaultKind::TransientIo => 2,
            // Corrupt every 3rd window / score by default.
            FaultKind::NanWindow | FaultKind::InfWindow | FaultKind::SaturatedWindow => 3,
            FaultKind::NanScore | FaultKind::InfScore => 3,
            FaultKind::ZeroLen => 1,
        };
        FaultInjector(Some(Arc::new(Mutex::new(FaultCore {
            kind,
            intensity,
            rng: StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17),
            calls: 0,
            injected: 0,
            io_failures_left: intensity,
        }))))
    }

    /// Overrides the fault strength: number of bit flips / garbage bytes,
    /// transient failures before recovery, or the period (every Nth
    /// window/score is corrupted). `intensity` of 0 is clamped to 1.
    pub fn with_intensity(self, intensity: u32) -> Self {
        if let Some(core) = &self.0 {
            let mut core = lock(core);
            core.intensity = intensity.max(1);
            if core.kind == FaultKind::TransientIo {
                core.io_failures_left = core.intensity;
            }
        }
        self
    }

    /// `true` when this handle actually injects faults.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The configured fault kind (`None` when disabled).
    pub fn kind(&self) -> Option<FaultKind> {
        self.0.as_ref().map(|c| lock(c).kind)
    }

    /// Number of corruptions applied so far — the harness's evidence that
    /// a cell actually exercised the fault path.
    pub fn injections(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| lock(c).injected)
    }

    /// Applies a storage fault to a serialized artifact in place. No-op
    /// for a disabled injector or a non-storage kind; truncation of an
    /// empty buffer is a no-op.
    pub fn corrupt_bytes(&self, bytes: &mut Vec<u8>) {
        let Some(core) = &self.0 else { return };
        let mut core = lock(core);
        if bytes.is_empty() {
            return;
        }
        match core.kind {
            FaultKind::BitFlip => {
                for _ in 0..core.intensity {
                    let bit = core.rng.gen_range(0..bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    core.injected += 1;
                }
            }
            FaultKind::Truncate => {
                let at = core.rng.gen_range(0..bytes.len());
                bytes.truncate(at);
                core.injected += 1;
            }
            FaultKind::Garbage => {
                for _ in 0..core.intensity {
                    let at = core.rng.gen_range(0..bytes.len());
                    bytes[at] = core.rng.gen();
                    core.injected += 1;
                }
            }
            _ => {}
        }
    }

    /// Applies a data fault to one raw HPC window in place (every
    /// `intensity`-th call corrupts one randomly chosen counter). No-op
    /// for a disabled injector, a non-data kind, or an empty window.
    pub fn corrupt_window(&self, values: &mut [f64]) {
        let Some(core) = &self.0 else { return };
        let mut core = lock(core);
        let poison = match core.kind {
            FaultKind::NanWindow => f64::NAN,
            FaultKind::InfWindow => f64::INFINITY,
            FaultKind::SaturatedWindow => u64::MAX as f64,
            _ => return,
        };
        let due = core.calls.is_multiple_of(core.intensity as u64);
        core.calls += 1;
        if due && !values.is_empty() {
            let at = core.rng.gen_range(0..values.len());
            values[at] = poison;
            core.injected += 1;
        }
    }

    /// Applies an inference fault to a detector score (every
    /// `intensity`-th call returns a non-finite score). Pass-through for a
    /// disabled injector or a non-inference kind.
    pub fn corrupt_score(&self, score: f32) -> f32 {
        let Some(core) = &self.0 else { return score };
        let mut core = lock(core);
        let poison = match core.kind {
            FaultKind::NanScore => f32::NAN,
            FaultKind::InfScore => f32::INFINITY,
            _ => return score,
        };
        let due = core.calls.is_multiple_of(core.intensity as u64);
        core.calls += 1;
        if due {
            core.injected += 1;
            poison
        } else {
            score
        }
    }

    /// Wraps a reader so it fails with transient `TimedOut` I/O errors
    /// until the configured failure budget is spent (then reads pass
    /// through). With a disabled injector — or any non-[`TransientIo`]
    /// kind — the wrapper is fully transparent.
    ///
    /// [`TransientIo`]: FaultKind::TransientIo
    pub fn wrap_reader<R: Read>(&self, inner: R) -> FlakyReader<R> {
        FlakyReader {
            inner,
            injector: self.clone(),
        }
    }
}

/// Locks injector state (the injector is never shared across fault-matrix
/// cells, so contention — and therefore poisoning — cannot occur; a
/// poisoned lock would mean a panic mid-corruption, which the harness
/// already treats as a failed cell).
fn lock(core: &Arc<Mutex<FaultCore>>) -> std::sync::MutexGuard<'_, FaultCore> {
    match core.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A reader that injects transient I/O failures (see
/// [`FaultInjector::wrap_reader`]).
#[derive(Debug)]
pub struct FlakyReader<R> {
    inner: R,
    injector: FaultInjector,
}

impl<R: Read> Read for FlakyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(core) = &self.injector.0 {
            let mut core = lock(core);
            if core.kind == FaultKind::TransientIo && core.io_failures_left > 0 {
                core.io_failures_left -= 1;
                core.injected += 1;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected transient i/o fault",
                ));
            }
        }
        self.inner.read(buf)
    }
}

/// A [`WindowSink`] adapter that corrupts windows before forwarding them —
/// the data-fault hook of the featurize chain. With a disabled injector
/// the original borrowed window is forwarded untouched (no copy), so the
/// wrapper is bitwise invisible.
pub struct FaultingSink<'a> {
    inner: &'a mut dyn WindowSink,
    injector: FaultInjector,
    scratch: Vec<f64>,
}

impl<'a> FaultingSink<'a> {
    /// Wraps `inner` so every window passes through `injector` first.
    pub fn new(inner: &'a mut dyn WindowSink, injector: FaultInjector) -> Self {
        FaultingSink {
            inner,
            injector,
            scratch: Vec::new(),
        }
    }
}

impl WindowSink for FaultingSink<'_> {
    fn window(&mut self, w: &RawWindow<'_>) -> Option<MitigationMode> {
        if !self.injector.enabled() {
            return self.inner.window(w);
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(w.values);
        self.injector.corrupt_window(&mut self.scratch);
        self.inner.window(&RawWindow {
            values: &self.scratch,
            instructions: w.instructions,
            cycle: w.cycle,
        })
    }
}

/// A [`WindowSource`] replaying pre-materialized windows — the harness's
/// simulator-free driver for data- and inference-fault cells (mitigation
/// switches have no simulator to steer, so they are recorded by the sink
/// but otherwise ignored). Also models the zero-length-program condition:
/// an empty window list streams nothing and returns an all-zero
/// [`RunResult`].
#[derive(Debug)]
pub struct SliceSource<'a> {
    windows: &'a [Vec<f64>],
    interval: u64,
}

impl<'a> SliceSource<'a> {
    /// Creates a source replaying `windows` at `interval` committed
    /// instructions per window.
    pub fn new(windows: &'a [Vec<f64>], interval: u64) -> Self {
        SliceSource { windows, interval }
    }
}

impl WindowSource for SliceSource<'_> {
    fn stream(&mut self, sink: &mut dyn WindowSink) -> RunResult {
        let mut instructions = 0u64;
        for w in self.windows {
            instructions += self.interval;
            sink.window(&RawWindow {
                values: w,
                instructions,
                // The replay has no timing model; approximate 2 cycles/instr
                // so IPC series and latency cycles stay plausible.
                cycle: instructions * 2,
            });
        }
        RunResult {
            committed_instructions: instructions,
            cycles: instructions * 2,
            ipc: if instructions > 0 { 0.5 } else { 0.0 },
            halted: true,
            regs: [0; 32],
        }
    }
}

/// Bounded-retry policy for transient I/O faults: up to `attempts` tries
/// total, retrying only errors [`is_transient`] classifies as recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (clamped to at least 1).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    /// Three attempts: the first plus two retries.
    fn default() -> Self {
        RetryPolicy { attempts: 3 }
    }
}

/// `true` for errors worth retrying: OS-level I/O failures whose kind is
/// transient (`Interrupted`, `WouldBlock`, `TimedOut`). Parse, corruption
/// and config errors are deterministic — retrying them cannot help, so
/// they surface immediately.
pub fn is_transient(err: &EvaxError) -> bool {
    match err {
        EvaxError::Io { source, .. } => matches!(
            source.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        ),
        _ => false,
    }
}

/// Runs `f` under `policy`: transient I/O errors are retried up to the
/// attempt budget, every other error (and the final transient one)
/// surfaces as-is. `f` receives the 0-based attempt number.
///
/// # Errors
/// The last error `f` returned once the budget is exhausted, or the first
/// non-transient error.
pub fn retry<T>(policy: &RetryPolicy, mut f: impl FnMut(u32) -> Result<T>) -> Result<T> {
    let attempts = policy.attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt + 1 < attempts => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    // Unreachable: the loop always returns on its final iteration; kept as
    // a typed error so this function can never panic.
    Err(last.unwrap_or_else(|| {
        EvaxError::corrupt("retry loop", "at least one attempt", "zero attempts")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{CollectingSink, StreamStats};

    #[test]
    fn disabled_injector_is_a_no_op() {
        let inj = FaultInjector::disabled();
        assert!(!inj.enabled());
        assert_eq!(inj.kind(), None);
        let mut bytes = b"evax-model v1\n".to_vec();
        let before = bytes.clone();
        inj.corrupt_bytes(&mut bytes);
        assert_eq!(bytes, before);
        let mut window = vec![1.0, 2.0, 3.0];
        inj.corrupt_window(&mut window);
        assert_eq!(window, vec![1.0, 2.0, 3.0]);
        assert_eq!(inj.corrupt_score(0.25).to_bits(), 0.25f32.to_bits());
        assert_eq!(inj.injections(), 0);
    }

    #[test]
    fn storage_faults_are_seed_reproducible() {
        for kind in [FaultKind::BitFlip, FaultKind::Truncate, FaultKind::Garbage] {
            let base: Vec<u8> = (0u8..=255).collect();
            let mut a = base.clone();
            let mut b = base.clone();
            FaultInjector::new(kind, 42).corrupt_bytes(&mut a);
            FaultInjector::new(kind, 42).corrupt_bytes(&mut b);
            assert_eq!(a, b, "{kind:?} must be reproducible");
            assert_ne!(a, base, "{kind:?} must corrupt");
        }
    }

    #[test]
    fn window_faults_are_periodic_and_counted() {
        let inj = FaultInjector::new(FaultKind::NanWindow, 7).with_intensity(2);
        let mut poisoned = 0;
        for _ in 0..6 {
            let mut w = vec![1.0f64; 4];
            inj.corrupt_window(&mut w);
            if w.iter().any(|v| v.is_nan()) {
                poisoned += 1;
            }
        }
        assert_eq!(poisoned, 3, "every 2nd window must be poisoned");
        assert_eq!(inj.injections(), 3);
    }

    #[test]
    fn score_faults_poison_periodically() {
        let inj = FaultInjector::new(FaultKind::InfScore, 9).with_intensity(3);
        let scores: Vec<f32> = (0..6).map(|_| inj.corrupt_score(0.5)).collect();
        assert!(scores[0].is_infinite());
        assert_eq!(scores[1], 0.5);
        assert_eq!(scores[2], 0.5);
        assert!(scores[3].is_infinite());
        assert_eq!(inj.injections(), 2);
    }

    #[test]
    fn flaky_reader_recovers_within_retry_budget() {
        let inj = FaultInjector::new(FaultKind::TransientIo, 1).with_intensity(2);
        let policy = RetryPolicy { attempts: 3 };
        let out = retry(&policy, |_| {
            let mut text = String::new();
            inj.wrap_reader("payload".as_bytes())
                .read_to_string(&mut text)
                .map_err(EvaxError::from)?;
            Ok(text)
        });
        assert_eq!(out.unwrap(), "payload");
        assert_eq!(inj.injections(), 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let inj = FaultInjector::new(FaultKind::TransientIo, 1).with_intensity(10);
        let policy = RetryPolicy { attempts: 3 };
        let out: Result<String> = retry(&policy, |_| {
            let mut text = String::new();
            inj.wrap_reader("payload".as_bytes())
                .read_to_string(&mut text)
                .map_err(EvaxError::from)?;
            Ok(text)
        });
        let err = out.unwrap_err();
        assert!(is_transient(&err), "{err}");
        assert_eq!(inj.injections(), 3, "one injected failure per attempt");
    }

    #[test]
    fn retry_does_not_mask_deterministic_errors() {
        let mut calls = 0;
        let out: Result<()> = retry(&RetryPolicy::default(), |_| {
            calls += 1;
            Err(EvaxError::corrupt("model header", "magic", "garbage"))
        });
        assert!(matches!(out, Err(EvaxError::Corrupt { .. })));
        assert_eq!(calls, 1, "non-transient errors must not retry");
    }

    #[test]
    fn faulting_sink_is_transparent_when_disabled() {
        let windows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut plain = CollectingSink::new();
        SliceSource::new(&windows, 100).stream(&mut plain);
        let mut wrapped = CollectingSink::new();
        {
            let mut sink = FaultingSink::new(&mut wrapped, FaultInjector::disabled());
            SliceSource::new(&windows, 100).stream(&mut sink);
        }
        assert_eq!(plain.into_windows(), wrapped.into_windows());
    }

    #[test]
    fn faulting_sink_poisons_the_stream() {
        let windows = vec![vec![1.0, 2.0]; 6];
        let mut stats = StreamStats::new(2);
        {
            let inj = FaultInjector::new(FaultKind::InfWindow, 3).with_intensity(2);
            let mut sink = FaultingSink::new(&mut stats, inj.clone());
            SliceSource::new(&windows, 100).stream(&mut sink);
            assert_eq!(inj.injections(), 3);
        }
        // StreamStats sanitizes: poisoned windows are rejected, the fitted
        // maxima stay finite.
        assert_eq!(stats.rejected(), 3);
        assert_eq!(stats.count(), 3);
        assert!(stats.normalizer().maxima().iter().all(|m| m.is_finite()));
    }

    #[test]
    fn slice_source_models_zero_length_programs() {
        let mut stats = StreamStats::new(4);
        let result = SliceSource::new(&[], 100).stream(&mut stats);
        assert_eq!(result.committed_instructions, 0);
        assert_eq!(stats.count(), 0);
    }
}
