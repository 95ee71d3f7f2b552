//! Learnable parameters.

use ccq_tensor::Tensor;

/// A learnable parameter: value, accumulated gradient, and the momentum
/// buffer owned by SGD.
///
/// `decay` controls whether weight decay applies; biases and batch-norm
/// affine parameters conventionally opt out.
///
/// # Example
///
/// ```
/// use ccq_nn::Param;
/// use ccq_tensor::Tensor;
///
/// let mut p = Param::new(Tensor::ones(&[2]), true);
/// p.grad.as_mut_slice()[0] = 1.0;
/// p.zero_grad();
/// assert_eq!(p.grad.sum(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// SGD momentum buffer (same shape as `value`).
    pub velocity: Tensor,
    /// Whether weight decay applies to this parameter.
    pub decay: bool,
}

impl Param {
    /// Creates a parameter with zeroed gradient and momentum.
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Param {
            value,
            grad,
            velocity,
            decay,
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter has no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_velocity() {
        let p = Param::new(Tensor::ones(&[3, 2]), true);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.velocity.sum(), 0.0);
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]), false);
        p.grad = Tensor::full(&[2], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
