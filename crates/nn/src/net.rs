//! Sequential network of dense layers.

use crate::layer::Dense;
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::Matrix;

/// A sequential feed-forward network (a stack of [`Dense`] layers).
///
/// # Example
/// ```
/// use evax_nn::{Network, Dense, Activation, Matrix};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Network::new(vec![
///     Dense::new(4, 8, Activation::Relu, &mut rng),
///     Dense::new(8, 1, Activation::Sigmoid, &mut rng),
/// ]);
/// let y = net.forward(&Matrix::zeros(2, 4));
/// assert_eq!((y.rows(), y.cols()), (2, 1));
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
    /// dL/d output buffer reused by [`Network::train_batch`].
    #[serde(skip)]
    loss_grad: Matrix,
}

impl Network {
    /// Creates a network from a stack of layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty or consecutive layer shapes do not chain.
    pub fn new(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "network requires at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].fan_out(),
                pair[1].fan_in(),
                "layer shapes do not chain"
            );
        }
        Network {
            layers,
            loss_grad: Matrix::default(),
        }
    }

    /// Convenience constructor: an MLP with `hidden` hidden layers of width
    /// `width` using `hidden_act`, and a final layer with `out_act`.
    ///
    /// `hidden = 0` yields a single-layer (perceptron-shaped) network — the
    /// "1-layer NN" of the paper's Fig. 20 ablation.
    pub fn mlp<R: rand::Rng>(
        input: usize,
        width: usize,
        hidden: usize,
        output: usize,
        hidden_act: crate::Activation,
        out_act: crate::Activation,
        rng: &mut R,
    ) -> Self {
        let mut layers = Vec::with_capacity(hidden + 1);
        let mut prev = input;
        for _ in 0..hidden {
            layers.push(Dense::new(prev, width, hidden_act, rng));
            prev = width;
        }
        layers.push(Dense::new(prev, output, out_act, rng));
        Network::new(layers)
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input width of the first layer.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Output width of the last layer.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out()
    }

    /// Total trainable parameters (weights + biases) across all layers —
    /// the model-size figure observability reports alongside timings.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.fan_in() * l.fan_out() + l.fan_out())
            .sum()
    }

    /// Borrow the layer stack (EVAX mines hidden-layer weights from here).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Inference forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut cur = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Allocation-free inference forward pass: activations ping-pong
    /// between the two caller-owned buffers (grown once, then reused), and
    /// a reference to the buffer holding the final layer's output is
    /// returned. Bit-identical to [`Network::forward`].
    pub fn forward_into<'a>(
        &self,
        x: &Matrix,
        ping: &'a mut Matrix,
        pong: &'a mut Matrix,
    ) -> &'a Matrix {
        self.layers[0].forward_into(x, ping);
        let mut in_ping = true;
        for layer in &self.layers[1..] {
            if in_ping {
                layer.forward_into(ping, pong);
            } else {
                layer.forward_into(pong, ping);
            }
            in_ping = !in_ping;
        }
        if in_ping {
            ping
        } else {
            pong
        }
    }

    /// Forward pass that keeps every layer's activations for backprop;
    /// returns the last layer's output, held in that layer's buffer.
    pub fn forward_train(&mut self, x: &Matrix) -> &Matrix {
        self.layers[0].forward_train(x);
        for i in 1..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            rest[0].forward_train(done[i - 1].output());
        }
        self.layers[self.layers.len() - 1].output()
    }

    /// Backpropagates `grad_out` (dL/d output) through all layers, leaving
    /// accumulated gradients in each layer. Returns dL/d input, held in the
    /// first layer's buffer.
    ///
    /// # Panics
    /// Panics if called before [`Network::forward_train`].
    pub fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        self.backprop(grad_out, true);
        self.layers[0].grad_input()
    }

    /// [`Network::backward`] for a caller that needs only the parameter
    /// gradients: the first layer skips its dL/dx product.
    pub(crate) fn backward_params(&mut self, grad_out: &Matrix) {
        self.backprop(grad_out, false);
    }

    fn backprop(&mut self, grad_out: &Matrix, input_grad: bool) {
        let last = self.layers.len() - 1;
        for i in (0..=last).rev() {
            let (head, tail) = self.layers.split_at_mut(i + 1);
            let grad = tail.first().map_or(grad_out, Dense::grad_input);
            if i > 0 || input_grad {
                head[i].backward(grad);
            } else {
                head[i].backward_params(grad);
            }
        }
    }

    /// Applies one optimizer step using each layer's accumulated gradients,
    /// clearing them. Layers without gradients are skipped.
    ///
    /// `id_base` offsets optimizer state keys, letting one optimizer instance
    /// serve several networks without key collisions.
    pub fn apply_grads<O: Optimizer>(&mut self, opt: &mut O, id_base: usize) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.step(opt, id_base + i);
        }
    }

    /// Discards any accumulated gradients without applying them (used when a
    /// network is driven through backprop only to obtain input gradients, as
    /// the frozen Discriminator is during Generator training).
    pub fn discard_grads(&mut self) {
        for layer in &mut self.layers {
            layer.clear_grads();
        }
    }

    /// One supervised training step on a batch; returns the loss before the
    /// update. Allocates nothing once every buffer has grown to the batch
    /// shape.
    pub fn train_batch<O: Optimizer>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut O,
    ) -> f32 {
        let mut grad = std::mem::take(&mut self.loss_grad);
        let pred = self.forward_train(x);
        let value = loss.value(pred, y);
        loss.gradient_into(pred, y, &mut grad);
        self.backward_params(&grad);
        self.apply_grads(opt, 0);
        self.loss_grad = grad;
        value
    }

    /// Binary-classification accuracy of column 0 against targets in `{0,1}`
    /// at threshold 0.5.
    ///
    /// # Panics
    /// Panics if `x.rows() != targets.len()`.
    pub fn binary_accuracy(&self, x: &Matrix, targets: &[f32]) -> f32 {
        assert_eq!(x.rows(), targets.len(), "target count mismatch");
        if targets.is_empty() {
            return 0.0;
        }
        let pred = self.forward(x);
        let correct = targets
            .iter()
            .enumerate()
            .filter(|(i, &t)| (pred.get(*i, 0) >= 0.5) == (t >= 0.5))
            .count();
        correct as f32 / targets.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Sgd};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn mlp_shapes() {
        let mut r = rng();
        let net = Network::mlp(10, 16, 3, 2, Activation::Relu, Activation::Sigmoid, &mut r);
        assert_eq!(net.depth(), 4);
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 2);
    }

    #[test]
    fn learns_xor() {
        let mut r = rng();
        let mut net = Network::mlp(2, 8, 1, 1, Activation::Tanh, Activation::Sigmoid, &mut r);
        let x = Matrix::from_rows(&[vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]]);
        let y = Matrix::from_rows(&[vec![0.], vec![1.], vec![1.], vec![0.]]);
        let mut opt = Sgd::new(0.5, 0.9);
        for _ in 0..3000 {
            net.train_batch(&x, &y, Loss::Bce, &mut opt);
        }
        assert!(net.binary_accuracy(&x, &[0., 1., 1., 0.]) >= 0.99);
    }

    #[test]
    fn loss_decreases_on_linear_task() {
        let mut r = rng();
        let mut net = Network::mlp(
            3,
            0,
            0,
            1,
            Activation::Identity,
            Activation::Identity,
            &mut r,
        );
        let x = Matrix::from_rows(&[vec![1., 0., 0.], vec![0., 1., 0.], vec![0., 0., 1.]]);
        let y = Matrix::from_rows(&[vec![1.], vec![2.], vec![3.]]);
        let mut opt = Sgd::new(0.1, 0.0);
        let first = net.train_batch(&x, &y, Loss::Mse, &mut opt);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_batch(&x, &y, Loss::Mse, &mut opt);
        }
        assert!(last < first * 0.01, "first={first} last={last}");
    }

    #[test]
    #[should_panic(expected = "layer shapes do not chain")]
    fn mismatched_layers_panic() {
        let mut r = rng();
        let _ = Network::new(vec![
            Dense::new(2, 3, Activation::Relu, &mut r),
            Dense::new(4, 1, Activation::Relu, &mut r),
        ]);
    }
}
