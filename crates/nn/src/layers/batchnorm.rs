//! 2-D batch normalization.

use crate::layer::{Layer, Mode, PackedExec, QuantHandle};
use crate::{NnError, Param, Result};
use ccq_tensor::ops::channel_stats;
use ccq_tensor::{Tensor, TensorError};

/// Batch normalization over the channel dimension of an NCHW tensor.
///
/// Training mode normalizes with batch statistics and updates exponential
/// running averages; evaluation mode normalizes with the running averages
/// (which is what CCQ's cheap validation probes rely on). The affine
/// `γ`/`β` parameters opt out of weight decay, as is conventional.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    label: String,
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    /// Normalized activations `x̂`.
    xhat: Tensor,
    /// Per-channel `1/√(var + ε)`.
    inv_std: Vec<f32>,
    /// Elements reduced per channel (`N·H·W`).
    m: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with `γ = 1`, `β = 0`.
    pub fn new(label: impl Into<String>, channels: usize) -> Self {
        BatchNorm2d {
            label: label.into(),
            channels,
            gamma: Param::new(Tensor::ones(&[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn check(&self, x: &Tensor) -> Result<()> {
        x.shape_obj().expect_rank(4).map_err(NnError::from)?;
        if x.shape()[1] != self.channels {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                expected: vec![x.shape()[0], self.channels, x.shape()[2], x.shape()[3]],
                actual: x.shape().to_vec(),
            }));
        }
        Ok(())
    }

    fn normalize(&self, x: &Tensor, mean: &[f32], inv_std: &[f32]) -> Tensor {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let plane = h * w;
        let mut out = x.clone();
        let ov = out.as_mut_slice();
        let (gv, bv) = (self.gamma.value.as_slice(), self.beta.value.as_slice());
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let (m, is, g, b) = (mean[ci], inv_std[ci], gv[ci], bv[ci]);
                for v in &mut ov[base..base + plane] {
                    *v = (*v - m) * is * g + b;
                }
            }
        }
        out
    }

    /// The `Eval`-mode forward on `x` in place, optionally followed by a
    /// ReLU: every element becomes `(v − mean)·inv_std·γ + β` from the
    /// running statistics, then `.max(0.0)` when `relu` is set. The
    /// per-channel constants and the order of operations are those of
    /// the batch-norm and ReLU layers run one after the other, so the
    /// result is the same bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] when `x` is not NCHW with this
    /// layer's channel count.
    pub(crate) fn eval_in_place(&mut self, x: &mut Tensor, relu: bool) -> Result<()> {
        self.check(x)?;
        self.cache = None;
        let [c, h, w] = [x.shape()[1], x.shape()[2], x.shape()[3]];
        let plane = h * w;
        let (gv, bv) = (self.gamma.value.as_slice(), self.beta.value.as_slice());
        let (mv, vv) = (self.running_mean.as_slice(), self.running_var.as_slice());
        if plane == 0 {
            return Ok(());
        }
        for (i, chunk) in x.as_mut_slice().chunks_exact_mut(plane).enumerate() {
            let ci = i % c;
            let (m, g, b) = (mv[ci], gv[ci], bv[ci]);
            let is = 1.0 / (vv[ci] + self.eps).sqrt();
            if relu {
                for v in chunk {
                    *v = ((*v - m) * is * g + b).max(0.0);
                }
            } else {
                for v in chunk {
                    *v = (*v - m) * is * g + b;
                }
            }
        }
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        self.check(x)?;
        match mode {
            Mode::Train => {
                let stats = channel_stats(x)?;
                let inv_std: Vec<f32> = stats
                    .var
                    .iter()
                    .map(|&v| 1.0 / (v + self.eps).sqrt())
                    .collect();
                // Update running statistics.
                for ((rm, rv), (&bm, &bv)) in self
                    .running_mean
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.running_var.as_mut_slice())
                    .zip(stats.mean.iter().zip(&stats.var))
                {
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * bm;
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * bv;
                }
                // Cache x̂ (pre-affine) for backward.
                let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
                let plane = h * w;
                let mut xhat = x.clone();
                let xv = xhat.as_mut_slice();
                for ni in 0..n {
                    for (ci, (&m, &is)) in stats.mean.iter().zip(&inv_std).enumerate() {
                        let base = (ni * c + ci) * plane;
                        for v in &mut xv[base..base + plane] {
                            *v = (*v - m) * is;
                        }
                    }
                }
                let out = self.normalize(x, &stats.mean, &inv_std);
                self.cache = Some(BnCache {
                    xhat,
                    inv_std,
                    m: stats.count,
                });
                Ok(out)
            }
            Mode::Eval => {
                let mut out = x.clone();
                self.eval_in_place(&mut out, false)?;
                Ok(out)
            }
        }
    }

    fn forward_packed_owned(&mut self, mut x: Tensor, _exec: PackedExec) -> Result<Tensor> {
        self.eval_in_place(&mut x, false)?;
        Ok(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::BackwardBeforeForward("BatchNorm2d"))?;
        let x = &cache.xhat;
        grad_out
            .shape_obj()
            .expect_eq(x.shape_obj())
            .map_err(NnError::from)?;
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let plane = h * w;
        let m = cache.m as f32;
        let gv = self.gamma.value.as_slice().to_vec();
        let (xv, dv) = (x.as_slice(), grad_out.as_slice());

        // Per-channel reductions: dβ = Σdy, dγ = Σdy·x̂.
        let mut dbeta = vec![0.0f32; c];
        let mut dgamma = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for i in base..base + plane {
                    dbeta[ci] += dv[i];
                    dgamma[ci] += dv[i] * xv[i];
                }
            }
        }
        for (g, &d) in self.gamma.grad.as_mut_slice().iter_mut().zip(&dgamma) {
            *g += d;
        }
        for (b, &d) in self.beta.grad.as_mut_slice().iter_mut().zip(&dbeta) {
            *b += d;
        }

        // dx = γ/(m·σ) · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let mut dx = Tensor::zeros(x.shape());
        let ov = dx.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let k = gv[ci] * cache.inv_std[ci] / m;
                for i in base..base + plane {
                    ov[i] = k * (m * dv[i] - dbeta[ci] - xv[i] * dgamma[ci]);
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_quant(&mut self, _f: &mut dyn FnMut(QuantHandle<'_>)) {}

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.gamma.value);
        f(&mut self.beta.value);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_tensor::{rng, Init};

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = Init::Normal {
            mean: 5.0,
            std: 2.0,
        }
        .sample(&[8, 3, 4, 4], &mut rng(0));
        let y = bn.forward(&x, Mode::Train).unwrap();
        let stats = channel_stats(&y).unwrap();
        for ci in 0..3 {
            assert!(
                stats.mean[ci].abs() < 1e-4,
                "channel {ci} mean {}",
                stats.mean[ci]
            );
            assert!(
                (stats.var[ci] - 1.0).abs() < 1e-2,
                "channel {ci} var {}",
                stats.var[ci]
            );
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = Init::Normal {
            mean: 3.0,
            std: 1.0,
        }
        .sample(&[16, 1, 4, 4], &mut rng(1));
        // Several train passes to converge the running stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, Mode::Train).unwrap();
        }
        let y = bn.forward(&x, Mode::Eval).unwrap();
        let stats = channel_stats(&y).unwrap();
        assert!(stats.mean[0].abs() < 0.1);
        assert!((stats.var[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn backward_requires_train_forward() {
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = bn.forward(&x, Mode::Eval).unwrap();
        assert!(bn.backward(&x).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let mut r = rng(3);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[3, 2, 2, 2], &mut r);
        let y = bn.forward(&x, Mode::Train).unwrap();
        let dy = y.map(|v| v + 0.3); // arbitrary upstream gradient
        let dx = bn.backward(&dy).unwrap();

        // Objective f(x) = <forward(x), forward(x)/2 + 0.3> has df/dy = y+0.3.
        let obj = |b: &mut BatchNorm2d, xx: &Tensor| -> f32 {
            let y = b.forward(xx, Mode::Train).unwrap();
            y.as_slice()
                .iter()
                .map(|v| 0.5 * v * v + 0.3 * v)
                .sum::<f32>()
        };
        let eps = 1e-3;
        for &idx in &[0usize, 5, 13, 23] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (obj(&mut bn, &xp) - obj(&mut bn, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 3e-2 * (1.0 + fd.abs()),
                "idx {idx}: fd={fd} an={}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 1, 2, 2], &mut rng(4));
        let y = bn.forward(&x, Mode::Train).unwrap();
        let dy = Tensor::ones(y.shape());
        let _ = bn.backward(&dy).unwrap();
        // dβ = Σ dy = 8; dγ = Σ x̂ ≈ 0 (batch-normalized).
        assert!((bn.beta.grad.as_slice()[0] - 8.0).abs() < 1e-4);
        assert!(bn.gamma.grad.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn state_visitor_includes_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let mut count = 0;
        bn.visit_state(&mut |_| count += 1);
        assert_eq!(count, 4); // gamma, beta, running mean, running var
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new("bn", 2);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 3, 2, 2]), Mode::Eval)
            .is_err());
    }
}
