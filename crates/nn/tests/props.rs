//! Property tests for the NN substrate: algebraic identities, gradient
//! sanity, and quantization invariants.

use evax_nn::{Activation, Dense, HwPerceptron, Loss, Matrix, Network, QuantLinear, Sgd};
use proptest::prelude::*;
use rand::SeedableRng;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    let mut vals = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        vals.push(((s >> 40) as f32 / 1e6) - 8.0);
    }
    Matrix::from_vec(rows, cols, vals)
}

/// A matrix whose entries mix ordinary values with exact `0.0` and `-0.0`
/// (about one in four each), and, with `inf_at`, a `+inf` at that flat
/// index (taken modulo the length).
fn mat_with_zeros(rows: usize, cols: usize, seed: u64, inf_at: Option<usize>) -> Matrix {
    let mut m = mat(rows, cols, seed);
    let mut s = seed.rotate_left(17) | 1;
    for v in m.as_mut_slice() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match s >> 61 {
            0 | 1 => *v = 0.0,
            2 => *v = -0.0,
            _ => {}
        }
    }
    if let (Some(at), len @ 1..) = (inf_at, m.as_slice().len()) {
        m.as_mut_slice()[at % len] = f32::INFINITY;
    }
    m
}

/// Reference semantics of `a · b` (`a` is `m × k`, `b` is `k × n`, both read
/// through `get`): each element sums from +0.0 in ascending `k`, skipping
/// the terms whose left factor is `0.0` when `skip_zero` is set.
fn reference_product(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    skip_zero: bool,
) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let f = a(i, p);
                if skip_zero && f == 0.0 {
                    continue;
                }
                acc += f * b(p, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Element bits, so equality also pins NaN payloads and the sign of zero.
fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
    let data = m.as_slice().iter().map(|v| v.to_bits()).collect();
    (m.rows(), m.cols(), data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `matmul` is bitwise the reference loop with the zero skip: k spans
    /// up to two 64-wide tiles plus a remainder, row counts cover full
    /// 4-row blocks and every remainder, and the `inf` in `b` makes a
    /// skipped `0.0 * inf` term visible.
    #[test]
    fn matmul_equals_reference_exactly(
        r in 1usize..12, k in 1usize..131, c in 1usize..12, seed in 1u64..999,
        inf in any::<bool>(), at in 0usize..2000
    ) {
        let inf = inf.then_some(at);
        let a = mat_with_zeros(r, k, seed, None);
        let b = mat_with_zeros(k, c, seed ^ 0xBEEF, inf);
        let reference = reference_product(r, k, c, |i, p| a.get(i, p), |p, j| b.get(p, j), true);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference));
        let mut out = Matrix::full(3, 3, 7.0);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&reference));
    }

    /// `matmul_tn` is bitwise `self^T · other` by the reference loop with
    /// the zero skip on `self`'s entries.
    #[test]
    fn matmul_tn_equals_reference_exactly(
        r in 1usize..131, k in 1usize..12, c in 1usize..12, seed in 1u64..999,
        inf in any::<bool>(), at in 0usize..2000
    ) {
        let inf = inf.then_some(at);
        let a = mat_with_zeros(r, k, seed, None);
        let b = mat_with_zeros(r, c, seed ^ 0x33, inf);
        let reference = reference_product(k, r, c, |i, p| a.get(p, i), |p, j| b.get(p, j), true);
        prop_assert_eq!(bits(&a.matmul_tn(&b)), bits(&reference));
    }

    /// `matmul_nt` is bitwise `self · other^T` by the reference loop with
    /// **no** skip: a `0.0` against the `inf` yields NaN.
    #[test]
    fn matmul_nt_equals_reference_exactly(
        r in 1usize..12, k in 1usize..131, c in 1usize..12, seed in 1u64..999,
        inf in any::<bool>(), at in 0usize..2000
    ) {
        let inf = inf.then_some(at);
        let a = mat_with_zeros(r, k, seed, None);
        let b = mat_with_zeros(c, k, seed ^ 0x77, inf);
        let reference = reference_product(r, k, c, |i, p| a.get(i, p), |p, j| b.get(j, p), false);
        prop_assert_eq!(bits(&a.matmul_nt(&b)), bits(&reference));
    }

    #[test]
    fn matmul_is_associative_up_to_float_error(
        a in 1usize..5, b in 1usize..5, c in 1usize..5, d in 1usize..5, seed in 1u64..999
    ) {
        let x = mat(a, b, seed);
        let y = mat(b, c, seed ^ 0xAA);
        let z = mat(c, d, seed ^ 0x55);
        let left = x.matmul(&y).matmul(&z);
        let right = x.matmul(&y.matmul(&z));
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() <= 1e-2 * (1.0 + l.abs().max(r.abs())),
                "associativity violated: {l} vs {r}");
        }
    }

    #[test]
    fn fused_transpose_products_match_naive(r in 1usize..6, k in 1usize..6, c in 1usize..6, seed in 1u64..999) {
        let a = mat(k, r, seed);
        let b = mat(k, c, seed ^ 0x33);
        prop_assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
        let p = mat(r, k, seed ^ 0x77);
        let q = mat(c, k, seed ^ 0x99);
        prop_assert_eq!(p.matmul_nt(&q), p.matmul(&q.transpose()));
    }

    #[test]
    fn activations_are_monotone(x in -50f32..50.0, dx in 0.001f32..5.0) {
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Tanh, Activation::Sigmoid] {
            prop_assert!(act.apply(x + dx) >= act.apply(x), "{act} not monotone");
        }
    }

    #[test]
    fn bce_gradient_points_toward_target(y in 0.01f32..0.99, t in any::<bool>()) {
        let target = if t { 1.0 } else { 0.0 };
        let g = Loss::Bce.gradient(&Matrix::from_row(&[y]), &Matrix::from_row(&[target]));
        // Gradient descent (y -= g) must move y toward the target.
        let y2 = y - 0.01 * g.get(0, 0);
        prop_assert!((y2 - target).abs() <= (y - target).abs() + 1e-6);
    }

    #[test]
    fn network_forward_is_deterministic(seed in 0u64..1000, n in 1usize..8) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::mlp(4, 8, 2, 2, Activation::Tanh, Activation::Sigmoid, &mut rng);
        let x = mat(n, 4, seed ^ 0xF);
        prop_assert_eq!(net.forward(&x), net.forward(&x));
    }

    #[test]
    fn single_step_on_batch_reduces_its_loss(seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Network::mlp(3, 6, 1, 1, Activation::Tanh, Activation::Sigmoid, &mut rng);
        let x = mat(8, 3, seed ^ 0x3);
        let y = Matrix::from_vec(8, 1, (0..8).map(|i| (i % 2) as f32).collect());
        let before = Loss::Bce.value(&net.forward(&x), &y);
        let mut opt = Sgd::new(0.05, 0.0);
        net.train_batch(&x, &y, Loss::Bce, &mut opt);
        let after = Loss::Bce.value(&net.forward(&x), &y);
        prop_assert!(after <= before + 1e-4, "loss rose: {before} -> {after}");
    }

    #[test]
    fn quantized_decision_monotone_in_positive_bits(ws in proptest::collection::vec(0.1f32..3.0, 4..40)) {
        // All-positive weights: adding set bits never turns a malicious
        // verdict benign.
        let p = HwPerceptron::from_parts(ws.clone(), 0.0);
        let q = p.quantize();
        let none = q.classify_bits(&vec![false; ws.len()]);
        let all = q.classify_bits(&vec![true; ws.len()]);
        prop_assert!(all.sum >= none.sum);
        prop_assert!(all.cycles as usize <= ws.len());
    }

    /// Batched f32 scoring is bit-identical to per-window `score` for every
    /// row, at every thread count — the invariant the fleet scheduler's
    /// thread-count-independent verdicts rest on.
    #[test]
    fn batched_scores_equal_per_window_scores_exactly(
        n in 1usize..64, rows in 1usize..24, seed in 1u64..999
    ) {
        let w = mat(1, n, seed ^ 0x111);
        let p = HwPerceptron::from_parts(w.as_slice().to_vec(), 0.37);
        let batch = mat(rows, n, seed ^ 0x222);
        let mut serial = vec![0.0f32; rows];
        p.score_batch_into(&batch, 1, &mut serial);
        for (i, &s) in serial.iter().enumerate() {
            prop_assert_eq!(s, p.score(batch.row(i)), "row {} differs from score()", i);
        }
        for threads in [0usize, 2, 4, 16] {
            let mut out = vec![0.0f32; rows];
            p.score_batch_into(&batch, threads, &mut out);
            prop_assert_eq!(&out, &serial, "threads={}", threads);
        }
        // Batch composition must not matter: score a sub-batch and compare.
        if rows > 1 {
            let sub = batch.select_rows(&[rows - 1]);
            let mut one = [0.0f32];
            p.score_batch_into(&sub, 1, &mut one);
            prop_assert_eq!(one[0], serial[rows - 1]);
        }
    }

    /// `forward_into` (ping-pong buffers, no per-layer allocation) is
    /// bit-identical to the allocating `forward`.
    #[test]
    fn forward_into_equals_forward_exactly(seed in 0u64..500, n in 1usize..8) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::mlp(4, 8, 2, 2, Activation::Tanh, Activation::Sigmoid, &mut rng);
        let x = mat(n, 4, seed ^ 0xF0);
        let mut ping = Matrix::zeros(0, 0);
        let mut pong = Matrix::zeros(0, 0);
        let out = net.forward_into(&x, &mut ping, &mut pong);
        prop_assert_eq!(out, &net.forward(&x));
    }

    /// Quantized-vs-f32 oracle equivalence: the dequantized score stays
    /// inside the kernel's closed-form error bound, and a verdict may flip
    /// only when the f32 score falls within that bound of the threshold.
    #[test]
    fn quant_kernel_scores_within_analytic_bound(
        ws in proptest::collection::vec(-2.0f32..2.0, 1..80),
        seed in 1u64..2000,
        bias in -1.0f32..1.0,
        threshold in -1.0f32..1.0,
    ) {
        let q = QuantLinear::from_f32(&ws, bias, threshold);
        let p = HwPerceptron::from_parts(ws.clone(), bias);
        let mut s = seed | 1;
        let mut x = vec![0.0f32; ws.len()];
        let mut xq = vec![0u8; ws.len()];
        for _ in 0..8 {
            for v in x.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = (s >> 40) as f32 / ((1u64 << 24) as f32); // uniform [0,1)
            }
            QuantLinear::quantize_input_into(&x, &mut xq);
            let f32_score = p.score(&x);
            let acc = q.score_q(&xq);
            let dq = q.dequantize(acc);
            prop_assert!(
                (dq - f32_score).abs() <= q.score_error_bound(),
                "score error {} exceeds bound {}", (dq - f32_score).abs(), q.score_error_bound()
            );
            prop_assert!(
                q.agrees_with_f32(f32_score, threshold, acc >= q.threshold_q()),
                "verdict flipped outside the ambiguity band: f32={} thr={} bound={}",
                f32_score, threshold, q.score_error_bound()
            );
        }
    }

    /// Verdict flips are rare in aggregate, not just individually bounded:
    /// over a spread of windows the flip rate stays under 2%.
    #[test]
    fn quant_verdict_flip_rate_is_bounded(
        ws in proptest::collection::vec(-2.0f32..2.0, 8..80),
        seed in 1u64..500,
    ) {
        let threshold = 0.1f32;
        let q = QuantLinear::from_f32(&ws, 0.0, threshold);
        let p = HwPerceptron::from_parts(ws.clone(), 0.0);
        let mut s = seed | 1;
        let mut x = vec![0.0f32; ws.len()];
        let mut xq = vec![0u8; ws.len()];
        let trials = 200usize;
        let mut flips = 0usize;
        for _ in 0..trials {
            for v in x.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = (s >> 40) as f32 / ((1u64 << 24) as f32);
            }
            QuantLinear::quantize_input_into(&x, &mut xq);
            if q.classify_q(&xq) != p.classify(&x, threshold) {
                flips += 1;
            }
        }
        prop_assert!(flips * 50 <= trials, "flip rate {}/{} exceeds 2%", flips, trials);
    }

    #[test]
    fn dense_layer_gradients_match_numeric(seed in 0u64..200, i in 0usize..2, j in 0usize..2) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(2, 2, Activation::Sigmoid, &mut rng);
        let x = mat(1, 2, seed ^ 0xE);
        let target = Matrix::from_row(&[0.3, 0.7]);
        let grad = Loss::Mse.gradient(layer.forward_train(&x), &target);
        layer.backward(&grad);
        let gw = layer.grads().unwrap().0.clone();
        let eps = 1e-2f32;
        let orig = layer.weights().get(i, j);
        layer.weights_mut().set(i, j, orig + eps);
        let lp = Loss::Mse.value(&layer.forward(&x), &target);
        layer.weights_mut().set(i, j, orig - eps);
        let lm = Loss::Mse.value(&layer.forward(&x), &target);
        layer.weights_mut().set(i, j, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        prop_assert!((numeric - gw.get(i, j)).abs() < 2e-2,
            "grad mismatch at ({i},{j}): numeric={numeric} analytic={}", gw.get(i, j));
    }
}
