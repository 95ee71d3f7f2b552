//! Rectified linear activation.

use crate::layer::{Layer, Mode, PackedExec};
use crate::{NnError, Param, Result};
use ccq_tensor::Tensor;

/// Elementwise `max(0, x)` with a cached mask for the backward pass.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.mask = Some(x.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        } else {
            self.mask = None;
        }
        Ok(x.map(|v| v.max(0.0)))
    }

    fn forward_packed_owned(&mut self, mut x: Tensor, _exec: PackedExec) -> Result<Tensor> {
        self.mask = None;
        x.map_in_place(|v| v.max(0.0));
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .take()
            .ok_or(NnError::BackwardBeforeForward("Relu"))?;
        Ok(grad_out.zip_map(&mask, |g, m| g * m)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clips_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = relu.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
        let _ = relu.forward(&x, Mode::Train).unwrap();
        let dx = relu.backward(&Tensor::ones(&[3])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_needs_train_forward() {
        let mut relu = Relu::new();
        let x = Tensor::ones(&[2]);
        let _ = relu.forward(&x, Mode::Eval).unwrap();
        assert!(relu.backward(&x).is_err());
    }

    #[test]
    fn zero_is_not_active() {
        let mut relu = Relu::new();
        let x = Tensor::zeros(&[1]);
        let _ = relu.forward(&x, Mode::Train).unwrap();
        let dx = relu.backward(&Tensor::ones(&[1])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0]);
    }
}
