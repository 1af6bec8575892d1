//! Loss functions.

use crate::tensor::Matrix;

/// Training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loss {
    /// Mean squared error, `1/(2N) Σ (y - t)^2`.
    Mse,
    /// Binary cross-entropy over sigmoid outputs in `(0, 1)`.
    Bce,
}

impl Loss {
    /// Computes the scalar loss averaged over all elements.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn value(self, pred: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(
            (pred.rows(), pred.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = pred.as_slice().len().max(1) as f32;
        match self {
            Loss::Mse => {
                let sum: f32 = pred
                    .as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(&y, &t)| (y - t) * (y - t))
                    .sum();
                sum / (2.0 * n)
            }
            Loss::Bce => {
                let sum: f32 = pred
                    .as_slice()
                    .iter()
                    .zip(target.as_slice())
                    .map(|(&y, &t)| {
                        let y = y.clamp(1e-7, 1.0 - 1e-7);
                        -(t * y.ln() + (1.0 - t) * (1.0 - y).ln())
                    })
                    .sum();
                sum / n
            }
        }
    }

    /// Gradient of the loss with respect to the prediction, averaged over all
    /// elements (matches [`Loss::value`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn gradient(self, pred: &Matrix, target: &Matrix) -> Matrix {
        let mut grad = Matrix::default();
        self.gradient_into(pred, target, &mut grad);
        grad
    }

    /// [`Loss::gradient`] into a caller-owned buffer (reshaped to `pred`'s
    /// shape).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn gradient_into(self, pred: &Matrix, target: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            (pred.rows(), pred.cols()),
            (target.rows(), target.cols()),
            "loss shape mismatch"
        );
        let n = pred.as_slice().len().max(1) as f32;
        grad.reset(pred.rows(), pred.cols());
        let terms = grad
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice())
            .zip(target.as_slice());
        match self {
            Loss::Mse => {
                for ((g, &y), &t) in terms {
                    *g = (y - t) / n;
                }
            }
            Loss::Bce => {
                for ((g, &y), &t) in terms {
                    let y = y.clamp(1e-7, 1.0 - 1e-7);
                    *g = (y - t) / (y * (1.0 - y)) / n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let p = Matrix::from_row(&[1.0, 2.0]);
        assert_eq!(Loss::Mse.value(&p, &p), 0.0);
    }

    #[test]
    fn mse_gradient_direction() {
        let p = Matrix::from_row(&[1.0]);
        let t = Matrix::from_row(&[0.0]);
        let g = Loss::Mse.gradient(&p, &t);
        assert!(g.get(0, 0) > 0.0, "overshoot should give positive gradient");
    }

    #[test]
    fn bce_penalizes_confident_wrong() {
        let right = Matrix::from_row(&[0.99]);
        let wrong = Matrix::from_row(&[0.01]);
        let t = Matrix::from_row(&[1.0]);
        assert!(Loss::Bce.value(&wrong, &t) > Loss::Bce.value(&right, &t));
    }

    #[test]
    fn bce_gradient_matches_numeric() {
        let t = Matrix::from_row(&[1.0]);
        let y = 0.3f32;
        let eps = 1e-4;
        let lp = Loss::Bce.value(&Matrix::from_row(&[y + eps]), &t);
        let lm = Loss::Bce.value(&Matrix::from_row(&[y - eps]), &t);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = Loss::Bce.gradient(&Matrix::from_row(&[y]), &t).get(0, 0);
        assert!((numeric - analytic).abs() < 1e-2);
    }

    #[test]
    fn bce_clamps_extremes() {
        let t = Matrix::from_row(&[1.0]);
        let v = Loss::Bce.value(&Matrix::from_row(&[0.0]), &t);
        assert!(v.is_finite());
    }
}
