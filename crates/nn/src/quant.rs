//! 9-bit integer inference kernel for fleet-scale deployment.
//!
//! The paper's hardware model evaluates the detector with narrow integer
//! arithmetic (a 9-bit datapath, §VI-B). [`crate::QuantizedWeights`] models
//! that *serial-adder* datapath faithfully — integer levels in `[-2, 1]`
//! over presence bits — which is the right model for per-window latency in
//! adder cycles, but far too coarse to preserve detection quality when a
//! software fleet service batches thousands of real-valued windows.
//!
//! This module is the software deployment counterpart: **9-bit signed
//! integer weights** (sign + 8 magnitude bits, so `|q| <= 255`) over
//! **8-bit quantized inputs** (normalized features live in `[0, 1]` — see
//! `evax-core`'s `Normalizer` — so `round(x * 255)` loses at most half an
//! LSB). Accumulation is exact in `i64`, so the only error sources are the
//! two rounding steps, which gives the kernel a closed-form score-error
//! bound ([`QuantLinear::score_error_bound`]) and with it a crisp
//! equivalence contract against the f32 oracle: **a verdict may differ from
//! the f32 verdict only when the f32 score lies within the error bound of
//! the threshold** ([`QuantLinear::agrees_with_f32`]). Property tests in
//! `tests/props.rs` enforce the contract over random weights and windows.

use crate::tensor::Matrix;

/// Input quantization scale: features in `[0, 1]` map to `0..=255` (u8).
pub const INPUT_LEVELS: i64 = 255;

/// Weight quantization: the largest-magnitude f32 weight maps to ±255,
/// i.e. sign + 8 magnitude bits = the paper's 9-bit weight storage.
pub const WEIGHT_LEVELS: i64 = 255;

/// A single-layer detector quantized to 9-bit integer weights with 8-bit
/// inputs and exact integer accumulation.
///
/// Construction fixes the scale `S = 255 / max|w|`; weights become
/// `q_i = round(w_i * S)` and the bias/threshold are pre-scaled by
/// `S * 255` so classification is a single integer comparison.
///
/// # Example
/// ```
/// use evax_nn::QuantLinear;
/// let q = QuantLinear::from_f32(&[1.0, -0.5], 0.1, 0.2);
/// assert_eq!(q.weight_bits(), 9);
/// let mut xq = [0u8; 2];
/// QuantLinear::quantize_input_into(&[0.8, 0.3], &mut xq);
/// let dq = q.dequantize(q.score_q(&xq));
/// assert!((dq - (0.8 - 0.15 + 0.1)).abs() <= q.score_error_bound());
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuantLinear {
    /// 9-bit signed weights, each in `[-255, 255]`.
    weights: Vec<i16>,
    /// `round(bias * scale)` where `scale = w_scale * INPUT_LEVELS`.
    bias_q: i64,
    /// `round(threshold * scale)` — the integer decision boundary.
    threshold_q: i64,
    /// f32-weight → integer scale factor `S = WEIGHT_LEVELS / max|w|`.
    w_scale: f32,
    /// Closed-form bound on `|dequantize(score_q) - f32 score|`.
    error_bound: f32,
}

impl QuantLinear {
    /// Quantizes an f32 detector (weights, bias, decision threshold).
    ///
    /// The error bound folds three rounding sources, assuming inputs in
    /// `[0, 1]` (the normalized-feature contract):
    /// weight rounding (±½ LSB per feature, worth `max|w| / (2·255)` each
    /// after descaling), input rounding (±½ LSB per feature, worth
    /// `|w_i| / (2·255)` each), their cross term, and bias + threshold
    /// rounding (±½ integer each, `max|w| / (2·255·255)` after descaling).
    pub fn from_f32(weights: &[f32], bias: f32, threshold: f32) -> Self {
        let max_mag = weights
            .iter()
            .map(|w| w.abs())
            .fold(0.0f32, f32::max)
            .max(1e-9);
        let w_scale = WEIGHT_LEVELS as f32 / max_mag;
        let q: Vec<i16> = weights
            .iter()
            .map(|&w| {
                let qi = (w * w_scale).round();
                debug_assert!(qi.abs() <= WEIGHT_LEVELS as f32);
                qi.clamp(-(WEIGHT_LEVELS as f32), WEIGHT_LEVELS as f32) as i16
            })
            .collect();
        let full_scale = w_scale * INPUT_LEVELS as f32;
        let n = weights.len() as f32;
        let abs_w_sum: f32 = weights.iter().map(|w| w.abs()).sum();
        // Per feature: |w_i|/(2·255) (input LSB) + max|w|/(2·255) (weight
        // LSB, |x|<=1) + max|w|/(4·255·255) (cross term); plus bias and
        // threshold rounding at max|w|/(2·255·255) each.
        let error_bound = (abs_w_sum + n * max_mag) / (2.0 * INPUT_LEVELS as f32)
            + n * max_mag / (4.0 * 255.0 * 255.0)
            + max_mag / (255.0 * 255.0);
        QuantLinear {
            weights: q,
            bias_q: (bias * full_scale).round() as i64,
            threshold_q: (threshold * full_scale).round() as i64,
            w_scale,
            error_bound,
        }
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// Borrow the integer weights.
    pub fn weights(&self) -> &[i16] {
        &self.weights
    }

    /// Storage bits per weight: sign + 8 magnitude bits.
    pub fn weight_bits(&self) -> u32 {
        9
    }

    /// The integer decision threshold (`score_q >= threshold_q` ⇒ malicious).
    pub fn threshold_q(&self) -> i64 {
        self.threshold_q
    }

    /// The pre-scaled integer bias folded into every score.
    pub fn bias_q(&self) -> i64 {
        self.bias_q
    }

    /// The f32-weight → integer scale factor `S = WEIGHT_LEVELS / max|w|`.
    pub fn w_scale(&self) -> f32 {
        self.w_scale
    }

    /// Rebuilds a kernel from previously serialized parts (the inverse of
    /// reading the accessors; see `detector::load_detector`). The
    /// `error_bound` is carried through verbatim because it is a function
    /// of the *original* f32 weights, which quantization already discarded.
    ///
    /// # Errors
    /// Rejects weights outside the 9-bit range, an empty weight vector, and
    /// non-finite or non-positive scale/bound values.
    pub fn from_parts(
        weights: Vec<i16>,
        bias_q: i64,
        threshold_q: i64,
        w_scale: f32,
        error_bound: f32,
    ) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("quantized kernel with zero weights".to_string());
        }
        if let Some(&w) = weights
            .iter()
            .find(|w| (w.unsigned_abs() as i64) > WEIGHT_LEVELS)
        {
            return Err(format!(
                "weight {w} outside the 9-bit range ±{WEIGHT_LEVELS}"
            ));
        }
        if !(w_scale.is_finite() && w_scale > 0.0) {
            return Err(format!("implausible weight scale {w_scale}"));
        }
        if !(error_bound.is_finite() && error_bound >= 0.0) {
            return Err(format!("implausible error bound {error_bound}"));
        }
        Ok(QuantLinear {
            weights,
            bias_q,
            threshold_q,
            w_scale,
            error_bound,
        })
    }

    /// Closed-form bound on the dequantized-score error vs. the f32 oracle,
    /// valid for inputs in `[0, 1]`.
    pub fn score_error_bound(&self) -> f32 {
        self.error_bound
    }

    /// Quantizes normalized features to `u8`: `round(clamp(x, 0, 1) * 255)`.
    /// Non-finite inputs map to 0 — the fleet's fail-secure gate flags those
    /// windows before they ever reach the kernel, so the value is moot.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn quantize_input_into(x: &[f32], out: &mut [u8]) {
        assert_eq!(x.len(), out.len(), "input length mismatch");
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o = (v.clamp(0.0, 1.0) * INPUT_LEVELS as f32).round() as u8;
        }
    }

    /// Integer score `Σ q_i · xq_i + bias_q` (exact in `i64`).
    ///
    /// # Panics
    /// Panics if `xq.len() != n_features()`.
    pub fn score_q(&self, xq: &[u8]) -> i64 {
        assert_eq!(xq.len(), self.weights.len(), "feature count mismatch");
        self.weights
            .iter()
            .zip(xq.iter())
            .map(|(&q, &x)| q as i64 * x as i64)
            .sum::<i64>()
            + self.bias_q
    }

    /// Integer classification at the pre-scaled threshold.
    pub fn classify_q(&self, xq: &[u8]) -> bool {
        self.score_q(xq) >= self.threshold_q
    }

    /// Maps an integer accumulator back to f32 score units.
    pub fn dequantize(&self, acc: i64) -> f32 {
        acc as f32 / (self.w_scale * INPUT_LEVELS as f32)
    }

    /// Batched integer scoring over a flat row-major `u8` batch. Integer
    /// addition is associative, so results are exact and trivially
    /// thread-count independent; rows shard across scoped worker threads
    /// when `threads > 1`.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * n_features()`.
    pub fn score_rows_q_into(&self, rows: &[u8], threads: usize, out: &mut [i64]) {
        let n = self.weights.len();
        assert_eq!(rows.len(), out.len() * n, "batch length mismatch");
        if n == 0 {
            out.fill(self.bias_q);
            return;
        }
        crate::tensor::score_spans(out, threads, |row0, span| {
            for (i, o) in span.iter_mut().enumerate() {
                *o = self.score_q(&rows[(row0 + i) * n..(row0 + i + 1) * n]);
            }
        });
    }

    /// Batched classification over an f32 feature batch: quantizes each row
    /// into `xq_scratch`, scores it, and writes integer scores + verdicts.
    /// The scratch buffer is the caller's to reuse across batches.
    ///
    /// # Panics
    /// Panics on batch/score/verdict length mismatches.
    pub fn classify_batch_into(
        &self,
        x: &Matrix,
        threads: usize,
        xq_scratch: &mut Vec<u8>,
        scores: &mut [i64],
        verdicts: &mut [bool],
    ) {
        assert_eq!(x.cols(), self.weights.len(), "feature count mismatch");
        assert_eq!(x.rows(), scores.len(), "batch row count mismatch");
        assert_eq!(
            scores.len(),
            verdicts.len(),
            "score/verdict length mismatch"
        );
        xq_scratch.clear();
        xq_scratch.resize(x.as_slice().len(), 0);
        Self::quantize_input_into(x.as_slice(), xq_scratch);
        self.score_rows_q_into(xq_scratch, threads, scores);
        for (v, &s) in verdicts.iter_mut().zip(scores.iter()) {
            *v = s >= self.threshold_q;
        }
    }

    /// The oracle-equivalence contract: given the f32 oracle's score and
    /// threshold, a quantized verdict is admissible iff it matches the
    /// oracle's, **or** the f32 score lies within [`score_error_bound`]
    /// (plus the threshold's own rounding slack) of the threshold — i.e.
    /// verdicts may only flip inside the provable ambiguity band.
    ///
    /// [`score_error_bound`]: QuantLinear::score_error_bound
    pub fn agrees_with_f32(&self, f32_score: f32, threshold: f32, quant_verdict: bool) -> bool {
        let oracle = f32_score >= threshold;
        oracle == quant_verdict || (f32_score - threshold).abs() <= self.error_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_fit_nine_bits() {
        let q = QuantLinear::from_f32(&[0.7, -0.3, 0.0, 0.01, -0.7], 0.05, 0.5);
        assert!(q.weights().iter().all(|&w| w.unsigned_abs() <= 255));
        assert_eq!(q.weights()[0], 255); // full-scale positive
        assert_eq!(q.weights()[4], -255); // full-scale negative
        assert_eq!(q.weights()[2], 0);
        assert_eq!(q.weight_bits(), 9);
    }

    #[test]
    fn dequantized_score_within_bound() {
        let w = [0.31f32, -0.7, 0.05, 0.22, -0.11];
        let x = [0.9f32, 0.2, 0.66, 0.0, 1.0];
        let q = QuantLinear::from_f32(&w, 0.12, 0.4);
        let mut xq = [0u8; 5];
        QuantLinear::quantize_input_into(&x, &mut xq);
        let f32_score: f32 = w.iter().zip(x.iter()).map(|(&w, &v)| w * v).sum::<f32>() + 0.12;
        let dq = q.dequantize(q.score_q(&xq));
        assert!(
            (dq - f32_score).abs() <= q.score_error_bound(),
            "|{dq} - {f32_score}| > {}",
            q.score_error_bound()
        );
    }

    #[test]
    fn batched_integer_scores_match_serial_at_any_thread_count() {
        let w: Vec<f32> = (0..37).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
        let q = QuantLinear::from_f32(&w, -0.2, 0.1);
        let rows: Vec<u8> = (0..37 * 11).map(|i| (i * 31 % 256) as u8).collect();
        let mut serial = vec![0i64; 11];
        q.score_rows_q_into(&rows, 1, &mut serial);
        for threads in [2, 4, 16] {
            let mut out = vec![0i64; 11];
            q.score_rows_q_into(&rows, threads, &mut out);
            assert_eq!(out, serial, "threads={threads}");
        }
        for (i, &s) in serial.iter().enumerate() {
            assert_eq!(s, q.score_q(&rows[i * 37..(i + 1) * 37]));
        }
    }

    #[test]
    fn non_finite_inputs_quantize_to_zero() {
        let mut out = [9u8; 3];
        QuantLinear::quantize_input_into(&[f32::NAN, f32::INFINITY, -1.5], &mut out);
        assert_eq!(out, [0, 255, 0]);
    }
}
