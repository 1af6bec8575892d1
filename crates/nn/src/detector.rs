//! The unified, object-safe detector abstraction.
//!
//! Every scoring/classification surface in the workspace — the adaptive
//! controller, the fleet batch drain, k-fold evaluation, model bundles —
//! dispatches through one trait, [`Detector`], so evasive attacks and
//! hardened detector variants can be plugged into any deployment path
//! without touching the call sites.
//!
//! # Contract
//!
//! * **Input space.** A detector consumes *model-input* feature rows — for
//!   the EVAX pipeline, the extended (base + engineered) feature space the
//!   featurizer emits. `n_features()` is that dimensionality.
//! * **Bitwise pinning.** The adapter impls for [`HwPerceptron`],
//!   [`QuantLinear`] and [`Network`] reproduce the exact accumulation chain
//!   of their inherent methods: `score_into` equals `HwPerceptron::score` /
//!   `QuantLinear::score_q` (dequantized) / `Network::forward` bit for bit,
//!   and the batched paths are bit-identical to the per-row ones at any
//!   thread count. Golden tests pin this at 1/4/16 threads.
//! * **Verdicts through [`Detector::decide`].** Deployment code must take
//!   verdicts from `decide` (or the batched `classify_rows_into`), never by
//!   re-comparing `score_into` against `threshold()`: quantized detectors
//!   decide in the integer domain, and stochastic detectors decide against
//!   a per-row jittered threshold.
//! * **Determinism.** Inference is a pure function of `(detector, row)` —
//!   never of batch composition, call order, wall clock or thread count.
//!   [`StochasticDetector`] derives its per-row randomness by hashing the
//!   row's bits with the run seed, which keeps even randomized inference
//!   inside the repo-wide bit-reproducibility contract.
//!
//! # Hardened variants
//!
//! [`StochasticDetector`] reproduces the *Stochastic-HMDs* defense shape
//! (inference-time weight/threshold randomization): a white-box attacker
//! who read the deployed weights optimizes against a model the defender
//! never actually evaluates. [`Ensemble`] is a small majority-vote
//! committee (adversarially-retrained HMDs à la Kuruvila et al. train the
//! members; the vote has an exact, documented tie-break rule).

use crate::net::Network;
use crate::perceptron::HwPerceptron;
use crate::quant::QuantLinear;
use crate::tensor::Matrix;

/// Reusable scratch buffers for allocation-free trait-dispatched inference.
///
/// One scratch serves any [`Detector`] impl; buffers grow to the largest
/// use and are reused. Scratch contents never affect results — it exists
/// purely so hot paths stay allocation-free.
#[derive(Debug, Clone)]
pub struct DetectorScratch {
    /// Quantized-input buffer ([`QuantLinear`] adapter).
    xq: Vec<u8>,
    /// Integer score buffer (batched [`QuantLinear`] path).
    q_scores: Vec<i64>,
    /// 1×n input staging matrix ([`Network`] adapter).
    input: Matrix,
    /// Ping activation buffer ([`Network::forward_into`]).
    ping: Matrix,
    /// Pong activation buffer ([`Network::forward_into`]).
    pong: Matrix,
}

impl Default for DetectorScratch {
    fn default() -> Self {
        DetectorScratch::new()
    }
}

impl DetectorScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DetectorScratch {
            xq: Vec::new(),
            q_scores: Vec::new(),
            input: Matrix::zeros(0, 0),
            ping: Matrix::zeros(0, 0),
            pong: Matrix::zeros(0, 0),
        }
    }
}

/// The object-safe scoring/classification interface every deployment path
/// dispatches through (see the [module docs](self) for the full contract).
pub trait Detector: std::fmt::Debug + Send + Sync {
    /// Model-input feature dimensionality this detector consumes.
    fn n_features(&self) -> usize;

    /// The nominal decision threshold on the raw score. Informational for
    /// impls that decide in another domain (integer scores, per-row
    /// jittered thresholds) — verdicts come from [`Detector::decide`].
    fn threshold(&self) -> f32;

    /// Stable kind tag for serialization and reports (e.g.
    /// `"hw-perceptron"`). [`load_detector`] dispatches on it.
    fn kind(&self) -> &'static str;

    /// Raw decision score of one feature row.
    ///
    /// # Panics
    /// Panics if `x.len() != self.n_features()`.
    fn score_into(&self, x: &[f32], scratch: &mut DetectorScratch) -> f32;

    /// Score and verdict of one feature row — the deployment primitive.
    ///
    /// The default is `score >= threshold()`; impls whose decision rule
    /// lives in another domain (integer compare, jittered threshold,
    /// majority vote) override it so the verdict matches their exact rule.
    fn decide(&self, x: &[f32], scratch: &mut DetectorScratch) -> (f32, bool) {
        let s = self.score_into(x, scratch);
        (s, s >= self.threshold())
    }

    /// Verdict of one feature row (`true` = malicious).
    fn classify(&self, x: &[f32], scratch: &mut DetectorScratch) -> bool {
        self.decide(x, scratch).1
    }

    /// Batched scoring over a flat row-major slice of feature rows.
    /// `out[i]` is bit-identical to `score_into` on row `i` alone — scores
    /// are independent of batch composition and of `threads`, the caller's
    /// worker count (`0` and `1` both run inline).
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * n_features()`.
    fn score_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        scratch: &mut DetectorScratch,
        out: &mut [f32],
    ) {
        let _ = threads; // per-row dispatch; threaded impls override
        let n = self.n_features();
        assert_eq!(rows.len(), out.len() * n, "batch length mismatch");
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(n)) {
            *o = self.score_into(row, scratch);
        }
    }

    /// Batched scoring + verdicts; per-row results are bit-identical to
    /// [`Detector::decide`] regardless of batch composition or `threads`.
    ///
    /// # Panics
    /// Panics on `rows`/`scores`/`verdicts` length mismatches.
    fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        scratch: &mut DetectorScratch,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        let _ = threads;
        let n = self.n_features();
        assert_eq!(rows.len(), scores.len() * n, "batch length mismatch");
        assert_eq!(scores.len(), verdicts.len(), "score/verdict mismatch");
        for (i, row) in rows.chunks_exact(n).enumerate() {
            let (s, v) = self.decide(row, scratch);
            scores[i] = s;
            verdicts[i] = v;
        }
    }

    /// Serialization hook: the detector's parameters as a self-contained
    /// little-endian byte blob. [`load_detector`] with
    /// [`Detector::kind`] reconstructs it.
    fn save_bytes(&self) -> Vec<u8>;

    /// Clones the detector behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------------------
// Little-endian byte-blob helpers shared by the serialization hooks (and by
// `evax-core`'s detector patches).
// ---------------------------------------------------------------------------

/// Appends `v` to a blob as 4 little-endian bytes.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` to a blob as its 4 little-endian IEEE-754 bytes.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked reader over a little-endian blob written with
/// [`put_u32`] / [`put_f32`]. Every read fails with a message instead of
/// panicking when the blob is too short.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// The next `n` raw bytes.
    ///
    /// # Errors
    /// Fails if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated detector blob at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    /// Fails if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(self.u64()? as i64)
    }

    /// The next little-endian `f32`.
    ///
    /// # Errors
    /// Fails if fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn i16_vec(&mut self, n: usize) -> Result<Vec<i16>, String> {
        let bytes = self.take(n.saturating_mul(2))?;
        Ok(bytes
            .chunks_exact(2)
            .map(|b| i16::from_le_bytes([b[0], b[1]]))
            .collect())
    }

    /// The next `n` little-endian `f32`s. The length is checked against the
    /// remaining bytes before anything is allocated, so a corrupt count
    /// cannot drive a large allocation.
    ///
    /// # Errors
    /// Fails if fewer than `4·n` bytes remain.
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Succeeds only when every byte has been read.
    ///
    /// # Errors
    /// Fails if bytes remain past the last read.
    pub fn done(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "trailing garbage: {} bytes past the end of the encoding",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// A sane upper bound on serialized dimensions — rejects length prefixes
/// from corrupted blobs before they drive an allocation.
const MAX_SERIALIZED_DIM: u32 = 1 << 24;

pub(crate) fn checked_dim(n: u32, what: &str) -> Result<usize, String> {
    if n == 0 || n > MAX_SERIALIZED_DIM {
        return Err(format!("implausible {what} dimension {n}"));
    }
    Ok(n as usize)
}

// ---------------------------------------------------------------------------
// Adapter: HwPerceptron (natural 0.0 boundary)
// ---------------------------------------------------------------------------

impl Detector for HwPerceptron {
    fn n_features(&self) -> usize {
        HwPerceptron::n_features(self)
    }

    /// The bare perceptron's natural decision boundary (score `>= 0`).
    /// Deployments with a tuned threshold wrap it in
    /// [`ThresholdedPerceptron`].
    fn threshold(&self) -> f32 {
        0.0
    }

    fn kind(&self) -> &'static str {
        "hw-perceptron"
    }

    /// Bitwise-pinned to [`HwPerceptron::score`]'s accumulation chain.
    fn score_into(&self, x: &[f32], _scratch: &mut DetectorScratch) -> f32 {
        self.score(x)
    }

    /// Bitwise-pinned to the per-row reduction via the threaded
    /// `matvec_bias_into` kernel.
    fn score_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        out: &mut [f32],
    ) {
        HwPerceptron::score_rows_into(self, rows, threads, out);
    }

    fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        self.classify_batch_into(rows, 0.0, threads, scores, verdicts);
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 * HwPerceptron::n_features(self));
        put_u32(&mut out, HwPerceptron::n_features(self) as u32);
        for &w in self.weights() {
            put_f32(&mut out, w);
        }
        put_f32(&mut out, self.bias());
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_hw_perceptron(bytes: &[u8]) -> Result<HwPerceptron, String> {
    let mut c = Cursor::new(bytes);
    let n = checked_dim(c.u32()?, "perceptron")?;
    let weights = c.f32_vec(n)?;
    let bias = c.f32()?;
    c.done()?;
    Ok(HwPerceptron::from_parts(weights, bias))
}

// ---------------------------------------------------------------------------
// ThresholdedPerceptron: the deployed linear shape at trait level
// ---------------------------------------------------------------------------

/// An [`HwPerceptron`] plus its tuned decision threshold — the trait-level
/// shape of the deployed EVAX/PerSpectron detector (the engineered-feature
/// transform lives in the featurizer, not here). Ensemble committees are
/// built from these.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdedPerceptron {
    perceptron: HwPerceptron,
    threshold: f32,
}

impl ThresholdedPerceptron {
    /// Pairs a perceptron with its decision threshold.
    pub fn new(perceptron: HwPerceptron, threshold: f32) -> Self {
        ThresholdedPerceptron {
            perceptron,
            threshold,
        }
    }

    /// The underlying perceptron.
    pub fn perceptron(&self) -> &HwPerceptron {
        &self.perceptron
    }
}

impl Detector for ThresholdedPerceptron {
    fn n_features(&self) -> usize {
        self.perceptron.n_features()
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn kind(&self) -> &'static str {
        "thresholded-perceptron"
    }

    /// Bitwise-pinned to [`HwPerceptron::score`].
    fn score_into(&self, x: &[f32], _scratch: &mut DetectorScratch) -> f32 {
        self.perceptron.score(x)
    }

    fn score_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        out: &mut [f32],
    ) {
        self.perceptron.score_rows_into(rows, threads, out);
    }

    fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        _scratch: &mut DetectorScratch,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        self.perceptron
            .classify_batch_into(rows, self.threshold, threads, scores, verdicts);
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = self.perceptron.save_bytes();
        put_f32(&mut out, self.threshold);
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_thresholded(bytes: &[u8]) -> Result<ThresholdedPerceptron, String> {
    let mut c = Cursor::new(bytes);
    let n = checked_dim(c.u32()?, "perceptron")?;
    let weights = c.f32_vec(n)?;
    let bias = c.f32()?;
    let threshold = c.f32()?;
    c.done()?;
    Ok(ThresholdedPerceptron::new(
        HwPerceptron::from_parts(weights, bias),
        threshold,
    ))
}

// ---------------------------------------------------------------------------
// Adapter: QuantLinear (integer-domain verdicts)
// ---------------------------------------------------------------------------

impl Detector for QuantLinear {
    fn n_features(&self) -> usize {
        QuantLinear::n_features(self)
    }

    /// The integer decision boundary, dequantized. Informational only —
    /// verdicts compare in the exact integer domain ([`Detector::decide`]).
    fn threshold(&self) -> f32 {
        self.dequantize(self.threshold_q())
    }

    fn kind(&self) -> &'static str {
        "quant-linear"
    }

    /// Quantizes the row to `u8` and returns the dequantized exact integer
    /// score — bitwise-pinned to
    /// `dequantize(score_q(quantize_input(x)))`.
    fn score_into(&self, x: &[f32], scratch: &mut DetectorScratch) -> f32 {
        self.decide(x, scratch).0
    }

    /// Verdict in the integer domain: `score_q >= threshold_q`, exactly as
    /// [`QuantLinear::classify_q`]. Never re-derive it from the f32 mirror.
    fn decide(&self, x: &[f32], scratch: &mut DetectorScratch) -> (f32, bool) {
        scratch.xq.clear();
        scratch.xq.resize(x.len(), 0);
        QuantLinear::quantize_input_into(x, &mut scratch.xq);
        let sq = self.score_q(&scratch.xq);
        (self.dequantize(sq), sq >= self.threshold_q())
    }

    fn score_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        scratch: &mut DetectorScratch,
        out: &mut [f32],
    ) {
        scratch.xq.clear();
        scratch.xq.resize(rows.len(), 0);
        QuantLinear::quantize_input_into(rows, &mut scratch.xq);
        scratch.q_scores.clear();
        scratch.q_scores.resize(out.len(), 0);
        self.score_rows_q_into(&scratch.xq, threads, &mut scratch.q_scores);
        for (o, &sq) in out.iter_mut().zip(scratch.q_scores.iter()) {
            *o = self.dequantize(sq);
        }
    }

    fn classify_rows_into(
        &self,
        rows: &[f32],
        threads: usize,
        scratch: &mut DetectorScratch,
        scores: &mut [f32],
        verdicts: &mut [bool],
    ) {
        assert_eq!(scores.len(), verdicts.len(), "score/verdict mismatch");
        scratch.xq.clear();
        scratch.xq.resize(rows.len(), 0);
        QuantLinear::quantize_input_into(rows, &mut scratch.xq);
        scratch.q_scores.clear();
        scratch.q_scores.resize(scores.len(), 0);
        self.score_rows_q_into(&scratch.xq, threads, &mut scratch.q_scores);
        for i in 0..scores.len() {
            let sq = scratch.q_scores[i];
            scores[i] = self.dequantize(sq);
            verdicts[i] = sq >= self.threshold_q();
        }
    }

    fn save_bytes(&self) -> Vec<u8> {
        let w = self.weights();
        let mut out = Vec::with_capacity(4 + 2 * w.len() + 8 + 8 + 4);
        put_u32(&mut out, w.len() as u32);
        for &q in w {
            out.extend_from_slice(&q.to_le_bytes());
        }
        out.extend_from_slice(&self.bias_q().to_le_bytes());
        out.extend_from_slice(&self.threshold_q().to_le_bytes());
        put_f32(&mut out, self.w_scale());
        put_f32(&mut out, self.score_error_bound());
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_quant_linear(bytes: &[u8]) -> Result<QuantLinear, String> {
    let mut c = Cursor::new(bytes);
    let n = checked_dim(c.u32()?, "quantized weight")?;
    let weights = c.i16_vec(n)?;
    let bias_q = c.i64()?;
    let threshold_q = c.i64()?;
    let w_scale = c.f32()?;
    let error_bound = c.f32()?;
    c.done()?;
    QuantLinear::from_parts(weights, bias_q, threshold_q, w_scale, error_bound)
}

// ---------------------------------------------------------------------------
// Adapter: Network (deep scorer; sigmoid-style 0.5 boundary)
// ---------------------------------------------------------------------------

impl Detector for Network {
    fn n_features(&self) -> usize {
        self.input_dim()
    }

    /// The conventional probability boundary for a sigmoid-output scorer.
    fn threshold(&self) -> f32 {
        0.5
    }

    fn kind(&self) -> &'static str {
        "network"
    }

    /// The first output of an allocation-free forward pass —
    /// bitwise-pinned to `Network::forward(&row)[0]`
    /// ([`Network::forward_into`] is documented bit-identical to
    /// [`Network::forward`]).
    fn score_into(&self, x: &[f32], scratch: &mut DetectorScratch) -> f32 {
        assert_eq!(x.len(), self.input_dim(), "feature dimension mismatch");
        if scratch.input.rows() != 1 || scratch.input.cols() != x.len() {
            scratch.input = Matrix::zeros(1, x.len());
        }
        scratch.input.row_mut(0).copy_from_slice(x);
        let out = self.forward_into(&scratch.input, &mut scratch.ping, &mut scratch.pong);
        out.get(0, 0)
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.depth() as u32);
        for layer in self.layers() {
            put_u32(&mut out, layer.fan_in() as u32);
            put_u32(&mut out, layer.fan_out() as u32);
            out.push(match layer.activation() {
                crate::Activation::Identity => 0,
                crate::Activation::Relu => 1,
                crate::Activation::LeakyRelu => 2,
                crate::Activation::Tanh => 3,
                crate::Activation::Sigmoid => 4,
            });
            for &w in layer.weights().as_slice() {
                put_f32(&mut out, w);
            }
            for &b in layer.bias() {
                put_f32(&mut out, b);
            }
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_network(bytes: &[u8]) -> Result<Network, String> {
    let mut c = Cursor::new(bytes);
    let depth = checked_dim(c.u32()?, "network depth")?;
    if depth > 1024 {
        return Err(format!("implausible network depth {depth}"));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        let fan_in = checked_dim(c.u32()?, "layer fan-in")?;
        let fan_out = checked_dim(c.u32()?, "layer fan-out")?;
        let act = match c.u8()? {
            0 => crate::Activation::Identity,
            1 => crate::Activation::Relu,
            2 => crate::Activation::LeakyRelu,
            3 => crate::Activation::Tanh,
            4 => crate::Activation::Sigmoid,
            other => return Err(format!("unknown activation tag {other}")),
        };
        let w = c.f32_vec(
            fan_in
                .checked_mul(fan_out)
                .ok_or_else(|| "layer size overflow".to_string())?,
        )?;
        let b = c.f32_vec(fan_out)?;
        layers.push(crate::Dense::from_parts(
            Matrix::from_vec(fan_in, fan_out, w),
            b,
            act,
        ));
    }
    c.done()?;
    if layers.is_empty() {
        return Err("network with zero layers".to_string());
    }
    Ok(Network::new(layers))
}

// ---------------------------------------------------------------------------
// StochasticDetector: seeded inference-time weight/threshold jitter
// ---------------------------------------------------------------------------

/// A linear detector with *seeded, deterministic-per-run* inference-time
/// randomization (the Stochastic-HMDs defense shape).
///
/// Every weight is scaled by `1 + jitter · ε_i` and the threshold by
/// `1 + jitter · ε_thr`, where the `ε` values are drawn from a SplitMix64
/// stream seeded by `FNV-1a(seed ‖ row bits)` — the weight epsilons first
/// (in index order), the threshold epsilon last. Because the stream is a
/// pure function of `(seed, row)`:
///
/// * the same run (same seed) always produces the same verdict for the
///   same window — reproducible, thread-count invariant, independent of
///   batch composition;
/// * two rows an attacker crafted to be near-identical but not bit-equal see
///   *different* effective models, so a gradient computed against the
///   published weights is noise-injected at every probe;
/// * `jitter == 0.0` is bitwise-identical to the underlying
///   [`ThresholdedPerceptron`] (`w · (1 + 0·ε) = w` exactly in IEEE 754).
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticDetector {
    perceptron: HwPerceptron,
    threshold: f32,
    seed: u64,
    jitter: f32,
}

impl StochasticDetector {
    /// Wraps a perceptron + threshold with jitter magnitude `jitter`
    /// (relative, e.g. `0.05` = ±5%) under run seed `seed`.
    ///
    /// # Panics
    /// Panics if `jitter` is negative or not finite.
    pub fn new(perceptron: HwPerceptron, threshold: f32, seed: u64, jitter: f32) -> Self {
        assert!(
            jitter.is_finite() && jitter >= 0.0,
            "jitter must be finite and non-negative"
        );
        StochasticDetector {
            perceptron,
            threshold,
            seed,
            jitter,
        }
    }

    /// The underlying (unjittered) perceptron.
    pub fn perceptron(&self) -> &HwPerceptron {
        &self.perceptron
    }

    /// The jitter magnitude.
    pub fn jitter(&self) -> f32 {
        self.jitter
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// FNV-1a over the seed and the row's exact f32 bit patterns: the
    /// per-row randomization key. Pure in `(seed, row)`.
    fn row_key(&self, x: &[f32]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for b in self.seed.to_le_bytes() {
            eat(b);
        }
        for &v in x {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        h
    }

    /// Jittered score and jittered threshold for one row.
    fn jittered(&self, x: &[f32]) -> (f32, f32) {
        assert_eq!(
            x.len(),
            self.perceptron.n_features(),
            "feature dimension mismatch"
        );
        let mut state = self.row_key(x);
        let mut eps = move || {
            // SplitMix64 → uniform in [-1, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
        };
        let j = self.jitter;
        let score = self
            .perceptron
            .weights()
            .iter()
            .zip(x.iter())
            .map(|(&w, &v)| (w * (1.0 + j * eps())) * v)
            .sum::<f32>()
            + self.perceptron.bias();
        let thr = self.threshold * (1.0 + j * eps());
        (score, thr)
    }
}

impl Detector for StochasticDetector {
    fn n_features(&self) -> usize {
        self.perceptron.n_features()
    }

    /// The *nominal* (unjittered) threshold; verdicts compare against the
    /// per-row jittered one ([`Detector::decide`]).
    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn kind(&self) -> &'static str {
        "stochastic"
    }

    fn score_into(&self, x: &[f32], _scratch: &mut DetectorScratch) -> f32 {
        self.jittered(x).0
    }

    /// Jittered score against jittered threshold — both from the row's own
    /// randomization stream.
    fn decide(&self, x: &[f32], _scratch: &mut DetectorScratch) -> (f32, bool) {
        let (score, thr) = self.jittered(x);
        (score, score >= thr)
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = self.perceptron.save_bytes();
        put_f32(&mut out, self.threshold);
        out.extend_from_slice(&self.seed.to_le_bytes());
        put_f32(&mut out, self.jitter);
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_stochastic(bytes: &[u8]) -> Result<StochasticDetector, String> {
    let mut c = Cursor::new(bytes);
    let n = checked_dim(c.u32()?, "perceptron")?;
    let weights = c.f32_vec(n)?;
    let bias = c.f32()?;
    let threshold = c.f32()?;
    let seed = c.u64()?;
    let jitter = c.f32()?;
    c.done()?;
    if !(jitter.is_finite() && jitter >= 0.0) {
        return Err(format!("implausible jitter {jitter}"));
    }
    Ok(StochasticDetector::new(
        HwPerceptron::from_parts(weights, bias),
        threshold,
        seed,
        jitter,
    ))
}

// ---------------------------------------------------------------------------
// Ensemble: majority-vote committee with an exact tie-break rule
// ---------------------------------------------------------------------------

/// A small majority-vote committee of heterogeneous detectors.
///
/// # Exact decision rule
///
/// Each member votes via its own [`Detector::decide`]. A member whose
/// score comes back non-finite votes **malicious** (fail-secure inside the
/// committee — an unobtainable member verdict is treated as "attack", the
/// same policy as [`SecureModeState::fail_secure`] upstream). The
/// committee verdict is malicious iff `2 · malicious_votes >= members`,
/// i.e. **ties go to malicious** — computed in exact integer arithmetic.
/// The reported score is the malicious-vote fraction
/// (`votes as f32 / members as f32`), against a nominal 0.5 threshold.
///
/// Verdicts are per-row pure, so they are independent of batch
/// composition and thread count like every other impl.
///
/// [`SecureModeState::fail_secure`]: ../../evax_defense/adaptive/struct.SecureModeState.html#method.fail_secure
#[derive(Debug, Clone)]
pub struct Ensemble {
    members: Vec<Box<dyn Detector>>,
}

impl Ensemble {
    /// Builds a committee.
    ///
    /// # Panics
    /// Panics if `members` is empty or members disagree on `n_features`.
    pub fn new(members: Vec<Box<dyn Detector>>) -> Self {
        assert!(!members.is_empty(), "an ensemble needs at least one member");
        let dim = members[0].n_features();
        assert!(
            members.iter().all(|m| m.n_features() == dim),
            "ensemble members must share one feature space"
        );
        Ensemble { members }
    }

    /// The committee members.
    pub fn members(&self) -> &[Box<dyn Detector>] {
        &self.members
    }

    /// Malicious votes for one row (non-finite member scores vote
    /// malicious).
    fn votes(&self, x: &[f32], scratch: &mut DetectorScratch) -> usize {
        self.members
            .iter()
            .filter(|m| {
                let (s, v) = m.decide(x, scratch);
                !s.is_finite() || v
            })
            .count()
    }
}

impl Detector for Ensemble {
    fn n_features(&self) -> usize {
        self.members[0].n_features()
    }

    /// The nominal vote-fraction boundary; the verdict itself is the exact
    /// integer rule `2 · votes >= members`.
    fn threshold(&self) -> f32 {
        0.5
    }

    fn kind(&self) -> &'static str {
        "ensemble"
    }

    /// The malicious-vote fraction in `[0, 1]` (always finite).
    fn score_into(&self, x: &[f32], scratch: &mut DetectorScratch) -> f32 {
        self.votes(x, scratch) as f32 / self.members.len() as f32
    }

    fn decide(&self, x: &[f32], scratch: &mut DetectorScratch) -> (f32, bool) {
        let votes = self.votes(x, scratch);
        (
            votes as f32 / self.members.len() as f32,
            2 * votes >= self.members.len(),
        )
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.members.len() as u32);
        for m in &self.members {
            let kind = m.kind().as_bytes();
            out.push(kind.len() as u8);
            out.extend_from_slice(kind);
            let blob = m.save_bytes();
            put_u32(&mut out, blob.len() as u32);
            out.extend_from_slice(&blob);
        }
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

fn load_ensemble(bytes: &[u8]) -> Result<Ensemble, String> {
    let mut c = Cursor::new(bytes);
    let n = c.u32()?;
    if n == 0 || n > 1024 {
        return Err(format!("implausible committee size {n}"));
    }
    let mut members: Vec<Box<dyn Detector>> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let kind_len = c.u8()? as usize;
        let kind = std::str::from_utf8(c.take(kind_len)?)
            .map_err(|_| "non-UTF8 member kind tag".to_string())?
            .to_string();
        let blob_len = c.u32()? as usize;
        let blob = c.take(blob_len)?;
        members.push(load_detector(&kind, blob)?);
    }
    c.done()?;
    let dim = members[0].n_features();
    if members.iter().any(|m| m.n_features() != dim) {
        return Err("ensemble members disagree on feature dimension".to_string());
    }
    Ok(Ensemble::new(members))
}

/// Reconstructs a boxed detector from its [`Detector::kind`] tag and
/// [`Detector::save_bytes`] blob — the load half of the trait's
/// serialization hooks.
///
/// # Errors
/// Returns a description of the first malformation: an unknown kind tag, a
/// truncated or oversized blob, or trailing bytes.
pub fn load_detector(kind: &str, bytes: &[u8]) -> Result<Box<dyn Detector>, String> {
    match kind {
        "hw-perceptron" => Ok(Box::new(load_hw_perceptron(bytes)?)),
        "thresholded-perceptron" => Ok(Box::new(load_thresholded(bytes)?)),
        "quant-linear" => Ok(Box::new(load_quant_linear(bytes)?)),
        "network" => Ok(Box::new(load_network(bytes)?)),
        "stochastic" => Ok(Box::new(load_stochastic(bytes)?)),
        "ensemble" => Ok(Box::new(load_ensemble(bytes)?)),
        "anomaly" => Ok(Box::new(crate::anomaly::load_anomaly(bytes)?)),
        other => Err(format!("unknown detector kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn perceptron(n: usize, seed: u64) -> HwPerceptron {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let trainer = crate::PerceptronTrainer::new(n, &mut rng);
        trainer.into_perceptron()
    }

    fn rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n * dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32) / ((1u64 << 24) as f32)
            })
            .collect()
    }

    #[test]
    fn hw_perceptron_adapter_is_bitwise_pinned() {
        let p = perceptron(13, 3);
        let data = rows(9, 13, 7);
        let mut scratch = DetectorScratch::new();
        let d: &dyn Detector = &p;
        for row in data.chunks(13) {
            assert_eq!(
                d.score_into(row, &mut scratch).to_bits(),
                p.score(row).to_bits()
            );
        }
        let mut out = vec![0.0f32; 9];
        for threads in [1usize, 4, 16] {
            d.score_rows_into(&data, threads, &mut scratch, &mut out);
            for (o, row) in out.iter().zip(data.chunks(13)) {
                assert_eq!(o.to_bits(), p.score(row).to_bits());
            }
        }
    }

    #[test]
    fn quant_adapter_decides_in_integer_domain() {
        let p = perceptron(8, 5);
        let q = QuantLinear::from_f32(p.weights(), p.bias(), 0.1);
        let data = rows(6, 8, 9);
        let mut scratch = DetectorScratch::new();
        let d: &dyn Detector = &q;
        let mut xq = vec![0u8; 8];
        for row in data.chunks(8) {
            QuantLinear::quantize_input_into(row, &mut xq);
            let sq = q.score_q(&xq);
            let (s, v) = d.decide(row, &mut scratch);
            assert_eq!(s.to_bits(), q.dequantize(sq).to_bits());
            assert_eq!(v, q.classify_q(&xq));
        }
    }

    #[test]
    fn network_adapter_matches_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = Network::mlp(
            6,
            5,
            1,
            1,
            crate::Activation::Tanh,
            crate::Activation::Sigmoid,
            &mut rng,
        );
        let data = rows(4, 6, 3);
        let mut scratch = DetectorScratch::new();
        let d: &dyn Detector = &net;
        for row in data.chunks(6) {
            let want = net.forward(&Matrix::from_row(row)).get(0, 0);
            assert_eq!(d.score_into(row, &mut scratch).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn stochastic_zero_jitter_is_bitwise_base() {
        let p = perceptron(10, 4);
        let s = StochasticDetector::new(p.clone(), 0.25, 99, 0.0);
        let data = rows(5, 10, 13);
        let mut scratch = DetectorScratch::new();
        for row in data.chunks(10) {
            assert_eq!(
                s.score_into(row, &mut scratch).to_bits(),
                p.score(row).to_bits()
            );
            assert_eq!(s.decide(row, &mut scratch).1, p.score(row) >= 0.25);
        }
    }

    #[test]
    fn stochastic_same_seed_same_verdicts_different_seed_perturbs() {
        let p = perceptron(10, 4);
        let a = StochasticDetector::new(p.clone(), 0.2, 7, 0.08);
        let a2 = StochasticDetector::new(p.clone(), 0.2, 7, 0.08);
        let c = StochasticDetector::new(p.clone(), 0.2, 8, 0.08);
        let data = rows(40, 10, 21);
        let mut scratch = DetectorScratch::new();
        let mut differs = false;
        for row in data.chunks(10) {
            let sa = a.score_into(row, &mut scratch);
            assert_eq!(sa.to_bits(), a2.score_into(row, &mut scratch).to_bits());
            if sa.to_bits() != c.score_into(row, &mut scratch).to_bits() {
                differs = true;
            }
        }
        assert!(differs, "a different seed must perturb at least one score");
    }

    #[test]
    fn ensemble_tie_breaks_malicious_and_fails_secure() {
        // Two members that disagree on everything: a tie on every row.
        let yes = ThresholdedPerceptron::new(HwPerceptron::from_parts(vec![0.0; 4], 1.0), 0.0);
        let no = ThresholdedPerceptron::new(HwPerceptron::from_parts(vec![0.0; 4], -1.0), 0.0);
        let e = Ensemble::new(vec![Box::new(yes.clone()), Box::new(no.clone())]);
        let mut scratch = DetectorScratch::new();
        let row = [0.1f32, 0.2, 0.3, 0.4];
        let (score, verdict) = e.decide(&row, &mut scratch);
        assert_eq!(score, 0.5);
        assert!(verdict, "a 1-1 tie must resolve malicious (fail-secure)");

        // A NaN-scoring member votes malicious.
        let nan = ThresholdedPerceptron::new(HwPerceptron::from_parts(vec![0.0; 4], f32::NAN), 0.0);
        let e2 = Ensemble::new(vec![Box::new(no.clone()), Box::new(no), Box::new(nan)]);
        let (s2, v2) = e2.decide(&row, &mut scratch);
        assert!(
            s2.is_finite(),
            "vote fraction stays finite under NaN members"
        );
        assert!(!v2, "1 of 3 votes is not a majority");
        let e3 = Ensemble::new(vec![
            Box::new(ThresholdedPerceptron::new(
                HwPerceptron::from_parts(vec![0.0; 4], f32::NAN),
                0.0,
            )),
            Box::new(yes),
        ]);
        assert!(e3.decide(&row, &mut scratch).1, "NaN + yes = 2/2 malicious");
    }

    #[test]
    fn serialization_round_trips_every_kind() {
        let p = perceptron(7, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net = Network::mlp(
            7,
            4,
            1,
            1,
            crate::Activation::Relu,
            crate::Activation::Sigmoid,
            &mut rng,
        );
        let kinds: Vec<Box<dyn Detector>> = vec![
            Box::new(p.clone()),
            Box::new(ThresholdedPerceptron::new(p.clone(), 0.3)),
            Box::new(QuantLinear::from_f32(p.weights(), p.bias(), 0.3)),
            Box::new(net),
            Box::new(StochasticDetector::new(p.clone(), 0.3, 42, 0.05)),
            Box::new(Ensemble::new(vec![
                Box::new(ThresholdedPerceptron::new(p.clone(), 0.3)),
                Box::new(StochasticDetector::new(p.clone(), 0.2, 1, 0.02)),
                Box::new(QuantLinear::from_f32(p.weights(), p.bias(), 0.25)),
            ])),
        ];
        let data = rows(5, 7, 17);
        let mut scratch = DetectorScratch::new();
        for d in &kinds {
            let loaded = load_detector(d.kind(), &d.save_bytes())
                .unwrap_or_else(|e| panic!("{} round-trip: {e}", d.kind()));
            assert_eq!(loaded.kind(), d.kind());
            assert_eq!(loaded.n_features(), d.n_features());
            for row in data.chunks(7) {
                let (s0, v0) = d.decide(row, &mut scratch);
                let (s1, v1) = loaded.decide(row, &mut scratch);
                assert_eq!(s0.to_bits(), s1.to_bits(), "{} score drift", d.kind());
                assert_eq!(v0, v1, "{} verdict drift", d.kind());
            }
        }
    }

    #[test]
    fn load_rejects_malformed_blobs() {
        assert!(load_detector("no-such-kind", &[]).is_err());
        let p = perceptron(5, 1);
        let blob = Detector::save_bytes(&p);
        assert!(load_detector("hw-perceptron", &blob[..blob.len() - 1]).is_err());
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(load_detector("hw-perceptron", &trailing).is_err());
        let mut huge = blob;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load_detector("hw-perceptron", &huge).is_err());
        // A plausible 2^24-weight header over an 8-byte body: rejected as
        // truncated before the 64 MiB (f32) or 32 MiB (i16) weight vector is
        // allocated.
        let mut short = Vec::new();
        put_u32(&mut short, 1 << 24);
        short.extend_from_slice(&[0; 8]);
        for kind in ["hw-perceptron", "quant-linear"] {
            assert!(load_detector(kind, &short).is_err(), "{kind}");
        }
    }
}
