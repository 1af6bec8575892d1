//! Dense (fully-connected) layer with cached activations for backprop.

use rand::Rng;

use crate::activation::Activation;
use crate::init::sample_weight;
use crate::optim::Optimizer;
use crate::tensor::Matrix;

/// A fully-connected layer `y = act(x W + b)`.
///
/// Weights are stored as an `in x out` matrix so a batch forward pass is a
/// single `batch x in` · `in x out` product. The layer keeps its training
/// buffers — the input and activated output of [`Dense::forward_train`],
/// and the gradients [`Dense::backward`] computes — and refills them in
/// place, so a training step allocates nothing once the buffers have grown
/// to the batch shape.
///
/// Weight access ([`Dense::weights`]) is public because EVAX's automatic
/// performance-counter engineering (paper §VI-A) mines the trained
/// Generator's hidden-layer weights.
///
/// # Example
/// ```
/// use evax_nn::{Dense, Activation, Matrix};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
/// let x = Matrix::from_row(&[1.0, 0.5, -0.5]);
/// let y = layer.forward_train(&x);
/// assert_eq!(y.cols(), 2);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    #[serde(skip)]
    train: TrainBuffers,
}

/// A [`Dense`] layer's training state, reused from step to step.
#[derive(Debug, Clone, Default)]
struct TrainBuffers {
    /// `x` of the last [`Dense::forward_train`].
    input: Matrix,
    /// `y` of the last [`Dense::forward_train`].
    output: Matrix,
    /// dL/dz of the last [`Dense::backward`], z being the pre-activation.
    grad_z: Matrix,
    /// Accumulated dL/dW (meaningful while `has_grads`).
    grad_w: Matrix,
    /// Accumulated dL/db (meaningful while `has_grads`).
    grad_b: Vec<f32>,
    /// `W^T`, refreshed by every backward pass for the dL/dx product.
    w_t: Matrix,
    /// dL/dx of the last [`Dense::backward`].
    grad_x: Matrix,
    /// Whether [`Dense::forward_train`] has filled `input` and `output`.
    primed: bool,
    /// Whether `grad_w`/`grad_b` hold gradients not yet applied or cleared.
    has_grads: bool,
}

impl Dense {
    /// Creates a layer with `fan_in` inputs and `fan_out` outputs, initialized
    /// per [`crate::init::sample_weight`] and zero bias.
    ///
    /// # Panics
    /// Panics if `fan_in` or `fan_out` is zero.
    pub fn new<R: Rng>(fan_in: usize, fan_out: usize, act: Activation, rng: &mut R) -> Self {
        assert!(
            fan_in > 0 && fan_out > 0,
            "layer dimensions must be nonzero"
        );
        let mut w = Matrix::zeros(fan_in, fan_out);
        for v in w.as_mut_slice() {
            *v = sample_weight(rng, fan_in, fan_out, act);
        }
        Dense::from_parts(w, vec![0.0; fan_out], act)
    }

    /// Builds a layer from explicit weights and bias (for tests and for
    /// loading vendor-distributed detector patches, paper §VI-B).
    ///
    /// # Panics
    /// Panics if `bias.len() != w.cols()`.
    pub fn from_parts(w: Matrix, bias: Vec<f32>, act: Activation) -> Self {
        assert_eq!(bias.len(), w.cols(), "bias width mismatch");
        Dense {
            w,
            b: bias,
            act,
            train: TrainBuffers::default(),
        }
    }

    /// Number of inputs.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Number of outputs (units).
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Borrow the `in x out` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutably borrow the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Inference-only forward pass (no training buffers touched).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out);
        out
    }

    /// Inference forward pass into a caller-owned buffer — same result as
    /// [`Dense::forward`], no per-call output allocation once `out` has
    /// capacity.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
        self.act.apply_matrix(out);
    }

    /// Forward pass that keeps its input and output for a later
    /// [`Dense::backward`]; returns the output.
    pub fn forward_train(&mut self, x: &Matrix) -> &Matrix {
        let t = &mut self.train;
        t.input.clone_from(x);
        x.matmul_into(&self.w, &mut t.output);
        t.output.add_row_broadcast(&self.b);
        self.act.apply_matrix(&mut t.output);
        t.primed = true;
        &t.output
    }

    /// Backward pass. `grad_out` is dL/dy (same shape as the last
    /// [`Dense::forward_train`] output); returns dL/dx and accumulates dL/dW
    /// and dL/db until [`Dense::step`] applies them or
    /// [`Dense::clear_grads`] drops them.
    ///
    /// # Panics
    /// Panics if called before [`Dense::forward_train`].
    pub fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backward_params(grad_out);
        let t = &mut self.train;
        t.grad_z.matmul_nt_into(&self.w, &mut t.w_t, &mut t.grad_x);
        &t.grad_x
    }

    /// [`Dense::backward`] without the dL/dx product, for a first layer
    /// whose input gradient nobody reads.
    pub(crate) fn backward_params(&mut self, grad_out: &Matrix) {
        let t = &mut self.train;
        assert!(t.primed, "backward called before forward_train");
        t.grad_z.clone_from(grad_out);
        for (g, &o) in t.grad_z.as_mut_slice().iter_mut().zip(t.output.as_slice()) {
            *g *= self.act.derivative_from_output(o);
        }
        if t.has_grads {
            // A second backward before the step: add this pass's gradients
            // to the pending ones (the rare path, so it may allocate).
            t.grad_w.add_assign(&t.input.matmul_tn(&t.grad_z));
            for (a, b) in t.grad_b.iter_mut().zip(t.grad_z.col_sums()) {
                *a += b;
            }
        } else {
            t.input.matmul_tn_into(&t.grad_z, &mut t.grad_w);
            t.grad_z.col_sums_into(&mut t.grad_b);
            t.has_grads = true;
        }
    }

    /// The last [`Dense::forward_train`] output.
    pub(crate) fn output(&self) -> &Matrix {
        &self.train.output
    }

    /// The last [`Dense::backward`] result, dL/dx.
    pub(crate) fn grad_input(&self) -> &Matrix {
        &self.train.grad_x
    }

    /// The accumulated gradients `(dL/dW, dL/db)`, if any are pending.
    pub fn grads(&self) -> Option<(&Matrix, &[f32])> {
        let t = &self.train;
        t.has_grads.then_some((&t.grad_w, t.grad_b.as_slice()))
    }

    /// Drops any pending gradients without applying them.
    pub fn clear_grads(&mut self) {
        self.train.has_grads = false;
    }

    /// Applies the pending gradients through `opt` (state key `layer_id`),
    /// updating the weights and bias in place, and clears them. Does
    /// nothing if no gradients are pending.
    pub fn step<O: Optimizer + ?Sized>(&mut self, opt: &mut O, layer_id: usize) {
        let t = &mut self.train;
        if t.has_grads {
            opt.update(layer_id, &mut self.w, &mut self.b, &t.grad_w, &t.grad_b);
            t.has_grads = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_shape() {
        let mut r = rng();
        let layer = Dense::new(4, 3, Activation::Identity, &mut r);
        let x = Matrix::zeros(5, 4);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn identity_layer_is_affine() {
        let w = Matrix::from_rows(&[vec![2.0], vec![3.0]]);
        let layer = Dense::from_parts(w, vec![1.0], Activation::Identity);
        let y = layer.forward(&Matrix::from_row(&[1.0, 1.0]));
        assert!((y.get(0, 0) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numeric gradient check on a tiny layer with MSE loss L = 0.5*(y-t)^2.
        let mut r = rng();
        let mut layer = Dense::new(2, 1, Activation::Tanh, &mut r);
        let x = Matrix::from_row(&[0.3, -0.7]);
        let target = 0.5f32;

        let y = layer.forward_train(&x).get(0, 0);
        let grad_out = Matrix::from_row(&[y - target]);
        layer.backward(&grad_out);
        let gw = layer.grads().unwrap().0.clone();

        let eps = 1e-3f32;
        for i in 0..2 {
            let orig = layer.weights().get(i, 0);
            layer.weights_mut().set(i, 0, orig + eps);
            let yp = layer.forward(&x).get(0, 0);
            layer.weights_mut().set(i, 0, orig - eps);
            let ym = layer.forward(&x).get(0, 0);
            layer.weights_mut().set(i, 0, orig);
            let lp = 0.5 * (yp - target) * (yp - target);
            let lm = 0.5 * (ym - target) * (ym - target);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gw.get(i, 0)).abs() < 1e-3,
                "grad mismatch at {i}: numeric={numeric} analytic={}",
                gw.get(i, 0)
            );
        }
    }

    #[test]
    fn grads_accumulate_until_cleared() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut r);
        let x = Matrix::from_row(&[1.0, 1.0]);
        let g = Matrix::from_row(&[1.0, 1.0]);
        layer.forward_train(&x);
        layer.backward(&g);
        layer.forward_train(&x);
        layer.backward(&g);
        let (gw, gb) = layer.grads().unwrap();
        // Each backward adds x^T g = all-ones; two passes -> all twos.
        assert!(gw.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert_eq!(gb, &[2.0, 2.0]);
        layer.clear_grads();
        assert!(layer.grads().is_none());
    }

    #[test]
    #[should_panic(expected = "backward called before forward_train")]
    fn backward_without_forward_panics() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut r);
        layer.backward(&Matrix::zeros(1, 2));
    }
}
