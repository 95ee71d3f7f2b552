//! Flattening layer.

use crate::layer::{Layer, Mode, PackedExec};
use crate::layout::to_nchw;
use crate::{NnError, Param, Result};
use ccq_tensor::Tensor;

/// Flattens `[N, d1, d2, …]` to `[N, d1·d2·…]`.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.rank() < 1 {
            return Err(NnError::InvalidConfig("flatten requires rank >= 1".into()));
        }
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        self.in_shape = (mode == Mode::Train).then(|| x.shape().to_vec());
        Ok(x.reshape(&[n, rest])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .in_shape
            .take()
            .ok_or(NnError::BackwardBeforeForward("Flatten"))?;
        Ok(grad_out.reshape(&shape)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// A rank-4 input is `[c, h, w, n]` here; the output is `[n, c·h·w]`
    /// in NCHW flatten order, as [`Layer::forward`] gives.
    fn forward_packed(&mut self, x: &Tensor, _exec: PackedExec) -> Result<Tensor> {
        if x.rank() != 4 {
            return self.forward(x, Mode::Eval);
        }
        self.in_shape = None;
        let mut y = to_nchw(x)?;
        let n = y.shape()[0];
        y.reshape_in_place(&[n, y.len() / n.max(1)])?;
        Ok(y)
    }

    fn name(&self) -> &str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shape() {
        let mut fl = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = fl.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let dx = fl.backward(&y).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut fl = Flatten::new();
        assert!(fl.backward(&Tensor::zeros(&[1, 4])).is_err());
    }
}
