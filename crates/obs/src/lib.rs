//! # evax-obs — the workspace observability layer
//!
//! A dependency-light metrics + tracing substrate for every EVAX crate:
//! atomic counters and max-gauges, fixed pow-2-bucket histograms with
//! bit-exact merge, and wall-clock span timers — all reachable through a
//! near-zero-cost [`MetricsSink`] handle whose default is a no-op.
//!
//! ## Determinism contract
//!
//! The paper's headline claims are *time-series claims* (detection latency
//! in cycles, secure-window duty cycle, per-stage cost), so the metrics that
//! carry them must be as reproducible as the simulator itself. The layer
//! splits metrics into two classes:
//!
//! * **Deterministic** ([`MetricKind::Counter`], [`MetricKind::Gauge`],
//!   [`MetricKind::Histogram`]) — integer-valued, derived from simulated
//!   quantities (cycles, windows, flags). Counter sums and histogram bucket
//!   adds are commutative over `u64`, and gauges keep a running **max**, so
//!   totals are bit-identical regardless of which worker recorded what. For
//!   the per-stream discipline mirroring `StreamStats`, give each work item
//!   its own [`Registry`] and [`Registry::merge`] them back in canonical
//!   stream order (the `evax_core::collect` pattern).
//! * **Wall-clock** ([`MetricKind::TimerNs`]) — span timers. Inherently
//!   non-reproducible; they are **excluded** from the deterministic export
//!   ([`Registry::to_json`]) and only appear in the full JSONL snapshot
//!   ([`Registry::to_jsonl`]).
//!
//! JSON output iterates metrics in sorted-name order with integer-only
//! values, so two runs that recorded the same events serialize to the same
//! bytes at any thread count.
//!
//! ## Cost model
//!
//! A disabled sink ([`MetricsSink::default`]) hands out detached handles:
//! every `inc`/`observe` is a branch on an `Option` that is always `None` —
//! hot paths keep their instruction mix and, crucially, their *behavior*
//! (metrics never feed back into simulation), so golden bit-equivalence
//! suites pass unchanged with recording on or off. Handles resolve their
//! metric once (one mutex-guarded map lookup) and are then lock-free.
//!
//! ```
//! use evax_obs::{MetricsSink, Registry};
//!
//! // No-op by default: safe to plumb everywhere.
//! let sink = MetricsSink::default();
//! sink.add("sim.cycles", 100); // does nothing, costs ~one branch
//!
//! let registry = Registry::shared();
//! let sink = MetricsSink::recording(&registry);
//! sink.add("sim.cycles", 100);
//! sink.observe("adaptive.detection_latency_cycles", 750);
//! let json = registry.to_json();
//! assert!(json.contains("\"sim.cycles\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use json::{Object, Value};

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
pub const N_BUCKETS: usize = 65;

/// What a metric measures — and whether it participates in the
/// deterministic export (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum of `u64` increments. Deterministic.
    Counter,
    /// Running maximum of recorded `u64` values. Deterministic.
    Gauge,
    /// Pow-2-bucket distribution of `u64` values. Deterministic.
    Histogram,
    /// Wall-clock span durations in nanoseconds (histogram-backed).
    /// Excluded from the deterministic export.
    TimerNs,
}

impl MetricKind {
    /// `true` for kinds whose values are reproducible across runs and
    /// thread counts (everything except wall-clock timers).
    pub fn is_deterministic(self) -> bool {
        !matches!(self, MetricKind::TimerNs)
    }

    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::TimerNs => "timer_ns",
        }
    }
}

/// Lock-free storage of one histogram: per-bucket counts plus total count
/// and sum. All updates are relaxed atomic adds, so concurrent recording
/// from any number of threads folds to the same totals.
#[derive(Debug)]
struct HistCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating in spirit: wrapping add would corrupt the export, and
        // u64 nanosecond/cycle sums do not overflow in practice; clamp
        // defensively anyway.
        let prev = self.sum.load(Ordering::Relaxed);
        self.sum.store(prev.saturating_add(v), Ordering::Relaxed);
    }
}

/// Bucket index of a value: bucket 0 holds zeros, bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0 for the zero bucket).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

#[derive(Debug)]
enum MetricData {
    Scalar(AtomicU64),
    Hist(HistCore),
}

/// One named metric: kind tag plus its storage.
#[derive(Debug)]
pub struct Metric {
    kind: MetricKind,
    data: MetricData,
}

impl Metric {
    fn new(kind: MetricKind) -> Self {
        let data = match kind {
            MetricKind::Counter | MetricKind::Gauge => MetricData::Scalar(AtomicU64::new(0)),
            MetricKind::Histogram | MetricKind::TimerNs => MetricData::Hist(HistCore::new()),
        };
        Metric { kind, data }
    }

    /// The metric's kind.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Scalar value (counters and gauges; histogram kinds return the sum).
    pub fn value(&self) -> u64 {
        match &self.data {
            MetricData::Scalar(v) => v.load(Ordering::Relaxed),
            MetricData::Hist(h) => h.sum.load(Ordering::Relaxed),
        }
    }

    /// Number of recorded observations (histogram kinds; scalars return 0).
    pub fn count(&self) -> u64 {
        match &self.data {
            MetricData::Scalar(_) => 0,
            MetricData::Hist(h) => h.count.load(Ordering::Relaxed),
        }
    }

    /// Non-empty histogram buckets as `(lower_bound, count)` pairs in
    /// ascending bucket order (empty for scalar kinds).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        match &self.data {
            MetricData::Scalar(_) => Vec::new(),
            MetricData::Hist(h) => h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lo(i), n))
                })
                .collect(),
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) of a histogram metric from
    /// its pow-2 buckets: the bucket holding the `ceil(q · count)`-th
    /// observation is found by cumulative count, then the value is
    /// linearly interpolated across the bucket's `[lo, hi]` span by the
    /// rank's position within the bucket.
    ///
    /// With at most one bit of bucket resolution the estimate is within 2×
    /// of the true quantile — ample for p50/p99 latency reporting. Returns
    /// 0 for scalar kinds, empty histograms, or a non-finite `q`; `q` is
    /// clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = match &self.data {
            MetricData::Scalar(_) => return 0,
            MetricData::Hist(h) => h,
        };
        let total = h.count.load(Ordering::Relaxed);
        if total == 0 || !q.is_finite() {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in h.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lo(i);
                if i == 0 {
                    return 0;
                }
                // Highest value the bucket can hold: 2^i - 1 (saturating at
                // the top bucket, whose upper edge is u64::MAX).
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                let within = (rank - seen) as f64 / n as f64;
                return lo + ((hi - lo) as f64 * within).round() as u64;
            }
            seen += n;
        }
        0
    }
}

/// The metric store: a name → metric map with sorted, stable iteration.
///
/// Construction is cheap; per-work-item registries merged back in canonical
/// order (see [`Registry::merge`]) are the idiom for deterministic parallel
/// recording.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Arc<Metric>>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A fresh registry behind an [`Arc`], ready for
    /// [`MetricsSink::recording`].
    pub fn shared() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    /// Gets or creates the named metric.
    ///
    /// A name registered once keeps its original kind: a later request with
    /// a different kind returns a **detached** metric (recorded values go
    /// nowhere) rather than corrupting the original — misuse degrades to a
    /// dropped metric, never a panic in instrumented hot paths.
    pub fn metric(&self, name: &str, kind: MetricKind) -> Arc<Metric> {
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Metric::new(kind)));
        if m.kind == kind {
            Arc::clone(m)
        } else {
            debug_assert!(
                false,
                "metric {name:?} re-registered as {kind:?}, was {:?}",
                m.kind
            );
            Arc::new(Metric::new(kind))
        }
    }

    /// Snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, Arc<Metric>)> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Reads a scalar metric's current value (`None` if absent).
    pub fn get(&self, name: &str) -> Option<u64> {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.get(name).map(|m| m.value())
    }

    /// Folds another registry into this one: counters and histogram buckets
    /// add, gauges take the max. `u64` adds and maxes are associative and
    /// commutative, so the result is bit-identical in any merge order —
    /// merge in canonical stream order anyway to keep the discipline uniform
    /// with `StreamStats` (whose floating-point merge is *not* commutative).
    pub fn merge(&self, other: &Registry) {
        for (name, theirs) in other.snapshot() {
            let ours = self.metric(&name, theirs.kind);
            match (&ours.data, &theirs.data) {
                (MetricData::Scalar(a), MetricData::Scalar(b)) => {
                    let v = b.load(Ordering::Relaxed);
                    match theirs.kind {
                        MetricKind::Gauge => {
                            a.fetch_max(v, Ordering::Relaxed);
                        }
                        _ => {
                            a.fetch_add(v, Ordering::Relaxed);
                        }
                    }
                }
                (MetricData::Hist(a), MetricData::Hist(b)) => {
                    for (ab, bb) in a.buckets.iter().zip(&b.buckets) {
                        ab.fetch_add(bb.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                    a.count
                        .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
                    let prev = a.sum.load(Ordering::Relaxed);
                    a.sum.store(
                        prev.saturating_add(b.sum.load(Ordering::Relaxed)),
                        Ordering::Relaxed,
                    );
                }
                // Kind mismatch already degraded to a detached metric.
                _ => {}
            }
        }
    }

    /// Deterministic JSON export: one object keyed by metric name, sorted,
    /// integer values only, wall-clock timers excluded. Byte-identical
    /// across runs that recorded the same simulated events — at any thread
    /// count.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Full JSON export including wall-clock timers (not reproducible).
    pub fn to_json_all(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, deterministic_only: bool) -> String {
        let body = self
            .snapshot()
            .into_iter()
            .filter(|(_, m)| !deterministic_only || m.kind.is_deterministic())
            .fold(Object::new(), |o, (name, m)| {
                o.field(&name, metric_json(Object::new(), &m))
            });
        Value::from(body).to_string()
    }

    /// JSONL snapshot: one self-describing line per metric (timers
    /// included), for `obs_report` and offline tooling.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, m) in self.snapshot() {
            let line = metric_json(Object::new().field("name", name.as_str()), &m);
            out.push_str(&format!("{}\n", Value::from(line)));
        }
        out
    }
}

/// Appends `"kind"` and `"value"` (a scalar) or `"count"`, `"sum"` and
/// `"buckets": [[lo, n], ...]` (a histogram) to `o`.
fn metric_json(o: Object, m: &Metric) -> Object {
    let o = o.field("kind", m.kind.name());
    match &m.data {
        MetricData::Scalar(_) => o.field("value", m.value()),
        MetricData::Hist(h) => {
            let buckets = m.buckets().into_iter().map(|(lo, n)| Value::from([lo, n]));
            o.field("count", h.count.load(Ordering::Relaxed))
                .field("sum", h.sum.load(Ordering::Relaxed))
                .field("buckets", buckets.collect::<Value>())
        }
    }
}

/// A counter handle: monotone `u64` sum. Detached (no-op) when obtained
/// from a disabled sink.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<Metric>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(m) = &self.0 {
            if let MetricData::Scalar(v) = &m.data {
                v.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A max-gauge handle: keeps the largest recorded value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<Metric>>);

impl Gauge {
    /// Records `v`, keeping the running maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(m) = &self.0 {
            if let MetricData::Scalar(cur) = &m.data {
                cur.fetch_max(v, Ordering::Relaxed);
            }
        }
    }
}

/// A histogram handle over pow-2 buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Metric>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(m) = &self.0 {
            if let MetricData::Hist(h) = &m.data {
                h.observe(v);
            }
        }
    }

    /// Estimated `q`-quantile of the recorded observations (see
    /// [`Metric::quantile`]). Returns 0 for a detached (disabled) handle.
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.as_ref().map_or(0, |m| m.quantile(q))
    }
}

/// A wall-clock span: records its lifetime (ns) into a timer histogram on
/// drop. Obtained from [`MetricsSink::span`]; a span from a disabled sink
/// never reads the clock.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    timer: Histogram,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = start.elapsed().as_nanos();
            self.timer.observe(ns.min(u64::MAX as u128) as u64);
        }
    }
}

/// The cheap, clonable instrumentation handle plumbed through the
/// workspace. `Default` is disabled (no registry): every operation is a
/// no-op and simulated behavior is bitwise-unchanged — the golden
/// equivalence and featurization suites run against exactly this default.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink(Option<Arc<Registry>>);

impl MetricsSink {
    /// The disabled sink (same as `Default`).
    pub fn none() -> Self {
        MetricsSink(None)
    }

    /// A sink recording into `registry`.
    pub fn recording(registry: &Arc<Registry>) -> Self {
        MetricsSink(Some(Arc::clone(registry)))
    }

    /// `true` when recording. Hot paths use this to skip building metric
    /// names and resolving handles entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The backing registry, if recording.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.0.as_ref()
    }

    /// Resolves a counter handle (detached when disabled). Resolve once,
    /// outside loops.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|r| r.metric(name, MetricKind::Counter)))
    }

    /// Resolves a max-gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|r| r.metric(name, MetricKind::Gauge)))
    }

    /// Resolves a histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(
            self.0
                .as_ref()
                .map(|r| r.metric(name, MetricKind::Histogram)),
        )
    }

    /// Starts a wall-clock span ending (and recording) when the returned
    /// guard drops. Timer metrics are excluded from the deterministic
    /// export.
    pub fn span(&self, name: &str) -> Span {
        match &self.0 {
            Some(r) => Span {
                start: Some(Instant::now()),
                timer: Histogram(Some(r.metric(name, MetricKind::TimerNs))),
            },
            None => Span {
                start: None,
                timer: Histogram(None),
            },
        }
    }

    /// Forks a per-work-item sink: a recording sink forks to a fresh
    /// private registry, a disabled sink forks disabled. This is the
    /// thread-local-recorder discipline for `evax_core::par` workers: each
    /// work item records into its own fork, and the caller
    /// [`absorb`](Self::absorb)s the forks back in canonical item order —
    /// exactly the `StreamStats` merge discipline, so exports stay
    /// bit-identical at any thread count.
    pub fn fork(&self) -> MetricsSink {
        match &self.0 {
            Some(_) => MetricsSink(Some(Registry::shared())),
            None => MetricsSink(None),
        }
    }

    /// Merges a [`fork`](Self::fork)ed sink's recordings into this sink.
    /// No-op when either side is disabled.
    pub fn absorb(&self, forked: &MetricsSink) {
        if let (Some(mine), Some(theirs)) = (&self.0, &forked.0) {
            mine.merge(theirs);
        }
    }

    /// One-shot counter add (cold paths; hot paths resolve a [`Counter`]).
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled() {
            self.counter(name).add(n);
        }
    }

    /// One-shot gauge max-record.
    pub fn record_max(&self, name: &str, v: u64) {
        if self.enabled() {
            self.gauge(name).record(v);
        }
    }

    /// One-shot histogram observation.
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.histogram(name).observe(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_pow2_exact() {
        // Bucket 0: zeros only. Bucket i >= 1: [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(5), 16);
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let reg = Registry::shared();
        let sink = MetricsSink::recording(&reg);
        let c = sink.counter("c");
        c.add(3);
        c.inc();
        let g = sink.gauge("g");
        g.record(7);
        g.record(4);
        sink.observe("h", 0);
        sink.observe("h", 5);
        sink.observe("h", 5);
        assert_eq!(reg.get("c"), Some(4));
        assert_eq!(reg.get("g"), Some(7));
        let (_, h) = reg
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == "h")
            .expect("h registered");
        assert_eq!(h.count(), 3);
        assert_eq!(h.value(), 10); // sum
        assert_eq!(h.buckets(), vec![(0, 1), (4, 2)]);
    }

    #[test]
    fn quantile_interpolates_pow2_buckets() {
        let reg = Registry::shared();
        let sink = MetricsSink::recording(&reg);
        let h = sink.histogram("lat");
        // Empty histogram and detached handle report 0.
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(Histogram::default().quantile(0.99), 0);
        // 100 observations in bucket [16, 31].
        for _ in 0..100 {
            h.observe(20);
        }
        let p50 = h.quantile(0.5);
        // Rank 50 of 100 → half-way through [16, 31].
        assert_eq!(p50, 16 + ((31 - 16) as f64 * 0.5).round() as u64);
        // Upper tail lands at the bucket's top edge.
        assert_eq!(h.quantile(1.0), 31);
        // True value 20 is within the bucket's 2x resolution everywhere.
        for q in [0.01, 0.5, 0.99] {
            let est = h.quantile(q);
            assert!((16..=31).contains(&est), "q={q} est={est}");
        }
        // A bimodal distribution: p99 must come from the upper mode.
        let h2 = sink.histogram("bi");
        for _ in 0..99 {
            h2.observe(1);
        }
        h2.observe(1 << 20);
        assert_eq!(h2.quantile(0.5), 1);
        assert!(h2.quantile(0.995) >= 1 << 20);
        // Zeros stay in the zero bucket.
        let h3 = sink.histogram("z");
        h3.observe(0);
        assert_eq!(h3.quantile(0.99), 0);
        // Non-finite q is refused rather than panicking.
        assert_eq!(h.quantile(f64::NAN), 0);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = MetricsSink::default();
        assert!(!sink.enabled());
        sink.add("x", 5);
        sink.observe("y", 1);
        sink.record_max("z", 9);
        let c = sink.counter("x");
        c.inc();
        drop(sink.span("t"));
        // Nothing to assert against — the point is no panic and no storage.
        assert!(sink.registry().is_none());
    }

    #[test]
    fn merge_is_bit_exact_and_order_independent() {
        let build = |order: &[usize]| {
            let parts: Vec<Registry> = (0..3)
                .map(|i| {
                    let r = Registry::new();
                    let local = MetricsSink::recording(&Arc::new(Registry::new()));
                    drop(local);
                    let sink = MetricsSink(Some(Arc::new(r)));
                    sink.add("c", 10 + i as u64);
                    sink.record_max("g", (i as u64) * 5);
                    sink.observe("h", 1 << i);
                    match sink.0 {
                        Some(arc) => Arc::try_unwrap(arc).expect("sole owner"),
                        None => unreachable!(),
                    }
                })
                .collect();
            let total = Registry::new();
            for &i in order {
                total.merge(&parts[i]);
            }
            total.to_json()
        };
        let canonical = build(&[0, 1, 2]);
        assert_eq!(canonical, build(&[2, 1, 0]));
        assert_eq!(canonical, build(&[1, 0, 2]));
        assert!(canonical.contains("\"c\": {\"kind\": \"counter\", \"value\": 33}"));
        assert!(canonical.contains("\"g\": {\"kind\": \"gauge\", \"value\": 10}"));
    }

    #[test]
    fn parallel_recording_matches_serial_json() {
        // The par-worker discipline: one registry per work item, merged in
        // canonical item order. Same JSON at 1, 4 and 16 threads.
        let record_item = |i: u64| {
            let reg = Registry::shared();
            let sink = MetricsSink::recording(&reg);
            sink.add("windows", i * 3);
            sink.observe("latency", i * i);
            sink.record_max("peak", 100 - i);
            reg
        };
        let run = |threads: usize| {
            let items: Vec<u64> = (0..32).collect();
            let regs: Vec<Arc<Registry>> = if threads == 1 {
                items.iter().map(|&i| record_item(i)).collect()
            } else {
                std::thread::scope(|s| {
                    let chunks: Vec<_> = items
                        .chunks(items.len().div_ceil(threads))
                        .map(|chunk| {
                            s.spawn(move || {
                                chunk.iter().map(|&i| record_item(i)).collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    chunks
                        .into_iter()
                        .flat_map(|h| h.join().expect("worker"))
                        .collect()
                })
            };
            let total = Registry::new();
            for r in &regs {
                total.merge(r);
            }
            total.to_json()
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "4 threads");
        assert_eq!(serial, run(16), "16 threads");
    }

    #[test]
    fn deterministic_export_excludes_timers() {
        let reg = Registry::shared();
        let sink = MetricsSink::recording(&reg);
        sink.add("a.count", 1);
        drop(sink.span("a.wall_ns"));
        let det = reg.to_json();
        assert!(det.contains("a.count"));
        assert!(!det.contains("a.wall_ns"), "timer leaked: {det}");
        let all = reg.to_json_all();
        assert!(all.contains("a.wall_ns"));
        let jsonl = reg.to_jsonl();
        assert!(jsonl.contains("\"kind\": \"timer_ns\""));
        assert_eq!(jsonl.lines().count(), 2);
    }

    #[test]
    fn kind_mismatch_degrades_to_detached_metric() {
        let reg = Registry::new();
        let c = reg.metric("m", MetricKind::Counter);
        if let MetricData::Scalar(v) = &c.data {
            v.fetch_add(2, Ordering::Relaxed);
        }
        // Re-registering as a histogram must not clobber the counter.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.metric("m", MetricKind::Histogram)
        }));
        // Debug builds assert; release builds return a detached metric.
        if let Ok(h) = result {
            if let MetricData::Hist(core) = &h.data {
                core.observe(5);
            }
        }
        assert_eq!(reg.get("m"), Some(2));
    }

    #[test]
    fn json_is_sorted_by_name() {
        let reg = Registry::shared();
        let sink = MetricsSink::recording(&reg);
        sink.add("z.last", 1);
        sink.add("a.first", 1);
        sink.add("m.middle", 1);
        let json = reg.to_json();
        let a = json.find("a.first").expect("a");
        let m = json.find("m.middle").expect("m");
        let z = json.find("z.last").expect("z");
        assert!(a < m && m < z, "unsorted: {json}");
    }
}
