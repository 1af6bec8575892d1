//! Gradient-descent optimizers.

use std::collections::HashMap;

use crate::tensor::Matrix;

/// A parameter-update rule applied per layer.
///
/// Optimizers key their internal state (momentum buffers, Adam moments) by a
/// caller-supplied `layer_id` so that one optimizer instance can drive a whole
/// [`crate::Network`].
pub trait Optimizer {
    /// Computes the update `(dw, db)` to *subtract* from the parameters of
    /// layer `layer_id`, given accumulated gradients.
    fn compute_update(&mut self, layer_id: usize, gw: &Matrix, gb: &[f32]) -> (Matrix, Vec<f32>);
}

/// Plain SGD with classical momentum.
///
/// # Example
/// ```
/// use evax_nn::{Sgd, Optimizer, Matrix};
/// let mut opt = Sgd::new(0.1, 0.0);
/// let g = Matrix::from_row(&[1.0]);
/// let (dw, _db) = opt.compute_update(0, &g, &[0.0]);
/// assert!((dw.get(0, 0) - 0.1).abs() < 1e-6);
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
    fn compute_update(&mut self, layer_id: usize, gw: &Matrix, gb: &[f32]) -> (Matrix, Vec<f32>) {
        if self.momentum == 0.0 {
            let mut dw = gw.clone();
            dw.scale(self.lr);
            let db = gb.iter().map(|g| g * self.lr).collect();
            return (dw, db);
        }
        let entry = self
            .velocity
            .entry(layer_id)
            .or_insert_with(|| (Matrix::zeros(gw.rows(), gw.cols()), vec![0.0; gb.len()]));
        let (vw, vb) = entry;
        for (v, &g) in vw.as_mut_slice().iter_mut().zip(gw.as_slice()) {
            *v = self.momentum * *v + self.lr * g;
        }
        for (v, &g) in vb.iter_mut().zip(gb.iter()) {
            *v = self.momentum * *v + self.lr * g;
        }
        (vw.clone(), vb.clone())
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
    t: HashMap<usize, u64>,
    m: HashMap<usize, (Matrix, Vec<f32>)>,
    v: HashMap<usize, (Matrix, Vec<f32>)>,
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
            t: HashMap::new(),
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn compute_update(&mut self, layer_id: usize, gw: &Matrix, gb: &[f32]) -> (Matrix, Vec<f32>) {
        let t = self.t.entry(layer_id).or_insert(0);
        *t += 1;
        let t = *t as f32;
        let (mw, mb) = self
            .m
            .entry(layer_id)
            .or_insert_with(|| (Matrix::zeros(gw.rows(), gw.cols()), vec![0.0; gb.len()]));
        let (vw, vb) = self
            .v
            .entry(layer_id)
            .or_insert_with(|| (Matrix::zeros(gw.rows(), gw.cols()), vec![0.0; gb.len()]));

        let b1 = self.beta1;
        let b2 = self.beta2;
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);

        let mut dw = Matrix::zeros(gw.rows(), gw.cols());
        for i in 0..gw.as_slice().len() {
            let g = gw.as_slice()[i];
            let m = &mut mw.as_mut_slice()[i];
            let v = &mut vw.as_mut_slice()[i];
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mhat = *m / bias1;
            let vhat = *v / bias2;
            dw.as_mut_slice()[i] = self.lr * mhat / (vhat.sqrt() + self.eps);
        }
        let mut db = vec![0.0f32; gb.len()];
        for i in 0..gb.len() {
            let g = gb[i];
            mb[i] = b1 * mb[i] + (1.0 - b1) * g;
            vb[i] = b2 * vb[i] + (1.0 - b2) * g * g;
            let mhat = mb[i] / bias1;
            let vhat = vb[i] / bias2;
            db[i] = self.lr * mhat / (vhat.sqrt() + self.eps);
        }
        (dw, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_plain_scales_by_lr() {
        let mut opt = Sgd::new(0.5, 0.0);
        let g = Matrix::from_row(&[2.0]);
        let (dw, db) = opt.compute_update(0, &g, &[4.0]);
        assert!((dw.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((db[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut opt = Sgd::new(1.0, 0.5);
        let g = Matrix::from_row(&[1.0]);
        let (d1, _) = opt.compute_update(0, &g, &[0.0]);
        let (d2, _) = opt.compute_update(0, &g, &[0.0]);
        assert!((d1.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((d2.get(0, 0) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_state_is_per_layer() {
        let mut opt = Sgd::new(1.0, 0.5);
        let g = Matrix::from_row(&[1.0]);
        opt.compute_update(0, &g, &[0.0]);
        let (d_other, _) = opt.compute_update(1, &g, &[0.0]);
        assert!((d_other.get(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut opt = Adam::new(0.01);
        let g = Matrix::from_row(&[123.0]);
        let (dw, _) = opt.compute_update(0, &g, &[0.0]);
        // Adam's first-step update magnitude is ~lr regardless of gradient scale.
        assert!((dw.get(0, 0) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w - 3)^2 with Adam; gradient = 2(w-3).
        let mut opt = Adam::new(0.1);
        let mut w = 0.0f32;
        for _ in 0..500 {
            let g = Matrix::from_row(&[2.0 * (w - 3.0)]);
            let (dw, _) = opt.compute_update(0, &g, &[]);
            w -= dw.get(0, 0);
        }
        assert!((w - 3.0).abs() < 0.05, "w={w}");
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
