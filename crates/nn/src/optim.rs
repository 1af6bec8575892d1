//! Gradient-descent optimizers.

use std::collections::HashMap;

use crate::tensor::Matrix;

/// A parameter-update rule applied per layer.
///
/// Optimizers key their internal state (momentum buffers, Adam moments) by a
/// caller-supplied `layer_id` so that one optimizer instance can drive a whole
/// [`crate::Network`].
pub trait Optimizer {
    /// Updates layer `layer_id`'s weights `w` and bias `b` in place from its
    /// accumulated gradients `gw`, `gb`: each parameter has its step
    /// subtracted, `p -= step(g)`.
    ///
    /// # Panics
    /// Implementations panic if `gw`/`gb` do not match `w`/`b` in shape.
    fn update(&mut self, layer_id: usize, w: &mut Matrix, b: &mut [f32], gw: &Matrix, gb: &[f32]);
}

/// Asserts that gradients match their parameters in shape.
fn check_shapes(w: &Matrix, b: &[f32], gw: &Matrix, gb: &[f32]) {
    assert_eq!(
        (w.rows(), w.cols()),
        (gw.rows(), gw.cols()),
        "shape mismatch"
    );
    assert_eq!(b.len(), gb.len(), "bias update width mismatch");
}

/// Plain SGD with classical momentum.
///
/// # Example
/// ```
/// use evax_nn::{Sgd, Optimizer, Matrix};
/// let mut opt = Sgd::new(0.1, 0.0);
/// let mut w = Matrix::from_row(&[1.0]);
/// let mut b = [0.0];
/// opt.update(0, &mut w, &mut b, &Matrix::from_row(&[1.0]), &[0.0]);
/// assert!((w.get(0, 0) - 0.9).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: HashMap<usize, (Matrix, Vec<f32>)>,
}

impl Sgd {
    /// Creates an SGD optimizer with learning rate `lr` and momentum factor
    /// `momentum` (0 disables momentum).
    ///
    /// # Panics
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, layer_id: usize, w: &mut Matrix, b: &mut [f32], gw: &Matrix, gb: &[f32]) {
        check_shapes(w, b, gw, gb);
        let lr = self.lr;
        if self.momentum == 0.0 {
            for (p, &g) in w.as_mut_slice().iter_mut().zip(gw.as_slice()) {
                *p -= g * lr;
            }
            for (p, &g) in b.iter_mut().zip(gb) {
                *p -= g * lr;
            }
            return;
        }
        let momentum = self.momentum;
        let (vw, vb) = self
            .velocity
            .entry(layer_id)
            .or_insert_with(|| (Matrix::zeros(gw.rows(), gw.cols()), vec![0.0; gb.len()]));
        let step = |p: &mut [f32], v: &mut [f32], g: &[f32]| {
            for ((p, v), &g) in p.iter_mut().zip(v).zip(g) {
                *v = momentum * *v + lr * g;
                *p -= *v;
            }
        };
        step(w.as_mut_slice(), vw.as_mut_slice(), gw.as_slice());
        step(b, vb, gb);
    }
}

/// Adam optimizer (Kingma & Ba), the update rule used for the AM-GAN
/// Generator/Discriminator training.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    state: HashMap<usize, AdamState>,
}

/// One layer's Adam state: its step count and first/second moments.
#[derive(Debug, Clone)]
struct AdamState {
    t: u64,
    m_w: Matrix,
    m_b: Vec<f32>,
    v_w: Matrix,
    v_b: Vec<f32>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and default
    /// betas `(0.9, 0.999)`.
    ///
    /// # Panics
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates an Adam optimizer with explicit betas. GAN practice often uses
    /// `beta1 = 0.5`.
    ///
    /// # Panics
    /// Panics if `lr <= 0` or betas are outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas must be in [0,1)"
        );
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, layer_id: usize, w: &mut Matrix, b: &mut [f32], gw: &Matrix, gb: &[f32]) {
        check_shapes(w, b, gw, gb);
        let s = self.state.entry(layer_id).or_insert_with(|| AdamState {
            t: 0,
            m_w: Matrix::zeros(gw.rows(), gw.cols()),
            m_b: vec![0.0; gb.len()],
            v_w: Matrix::zeros(gw.rows(), gw.cols()),
            v_b: vec![0.0; gb.len()],
        });
        s.t += 1;
        let t = s.t as f32;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        let step = |p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]| {
            for (((p, m), v), &g) in p.iter_mut().zip(m).zip(v).zip(g) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bias1;
                let vhat = *v / bias2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
        };
        step(
            w.as_mut_slice(),
            s.m_w.as_mut_slice(),
            s.v_w.as_mut_slice(),
            gw.as_slice(),
        );
        step(b, &mut s.m_b, &mut s.v_b, gb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one update of a one-weight, one-bias layer and returns the
    /// step taken by each parameter.
    fn step<O: Optimizer>(opt: &mut O, layer_id: usize, gw: f32, gb: f32) -> (f32, f32) {
        let (mut w, mut b) = (Matrix::from_row(&[0.0]), [0.0]);
        opt.update(layer_id, &mut w, &mut b, &Matrix::from_row(&[gw]), &[gb]);
        (-w.get(0, 0), -b[0])
    }

    #[test]
    fn sgd_plain_scales_by_lr() {
        let mut opt = Sgd::new(0.5, 0.0);
        let (dw, db) = step(&mut opt, 0, 2.0, 4.0);
        assert!((dw - 1.0).abs() < 1e-6);
        assert!((db - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5);
        let (d1, _) = step(&mut opt, 0, 1.0, 0.0);
        let (d2, _) = step(&mut opt, 0, 1.0, 0.0);
        assert!((d1 - 1.0).abs() < 1e-6);
        assert!((d2 - 1.5).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_state_is_per_layer() {
        let mut opt = Sgd::new(1.0, 0.5);
        step(&mut opt, 0, 1.0, 0.0);
        let (d_other, _) = step(&mut opt, 1, 1.0, 0.0);
        assert!((d_other - 1.0).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut opt = Adam::new(0.01);
        let (dw, _) = step(&mut opt, 0, 123.0, 0.0);
        // Adam's first-step update magnitude is ~lr regardless of gradient scale.
        assert!((dw - 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w - 3)^2 with Adam; gradient = 2(w-3).
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::from_row(&[0.0]);
        for _ in 0..500 {
            let g = Matrix::from_row(&[2.0 * (w.get(0, 0) - 3.0)]);
            opt.update(0, &mut w, &mut [], &g, &[]);
        }
        assert!((w.get(0, 0) - 3.0).abs() < 0.05, "w={}", w.get(0, 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn gradient_shape_mismatch_panics() {
        let mut opt = Adam::new(0.1);
        opt.update(
            0,
            &mut Matrix::zeros(1, 2),
            &mut [],
            &Matrix::zeros(2, 1),
            &[],
        );
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
