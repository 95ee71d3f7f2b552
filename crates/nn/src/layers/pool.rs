//! Pooling layers.

use crate::layer::{Layer, Mode, PackedExec};
use crate::layout::dims4;
use crate::scratch::with_scratch;
use crate::{NnError, Param, Result};
use ccq_tensor::ops::conv_output_size;
use ccq_tensor::Tensor;

/// Max pooling over square windows (no padding).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<MaxPoolCache>,
}

#[derive(Debug, Clone)]
struct MaxPoolCache {
    /// For every output element, the flat input index of its maximum.
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool with square `kernel` and `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        x.shape_obj().expect_rank(4).map_err(NnError::from)?;
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let oh = conv_output_size(h, self.kernel, self.stride, 0)?;
        let ow = conv_output_size(w, self.kernel, self.stride, 0)?;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; out.len()];
        let xv = x.as_slice();
        let ov = out.as_mut_slice();
        let mut oi = 0;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for y in 0..oh {
                    for xw in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = y * self.stride + ky;
                                let ix = xw * self.stride + kx;
                                let idx = base + iy * w + ix;
                                if xv[idx] > best {
                                    best = xv[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        ov[oi] = best;
                        argmax[oi] = best_idx;
                        oi += 1;
                    }
                }
            }
        }
        self.cache = (mode == Mode::Train).then(|| MaxPoolCache {
            argmax,
            in_shape: x.shape().to_vec(),
        });
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::BackwardBeforeForward("MaxPool2d"))?;
        let mut dx = Tensor::zeros(&cache.in_shape);
        let dv = dx.as_mut_slice();
        for (&src, &g) in cache.argmax.iter().zip(grad_out.as_slice()) {
            dv[src] += g;
        }
        Ok(dx)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// `[c, h, w, n]` → `[c, oh, ow, n]`, the `n` samples of one window
    /// side by side. Each keeps the first of its largest values in the
    /// window order of [`Layer::forward`], so a `±0.0` tie resolves
    /// the same way. The output buffer comes from the thread's free list.
    fn forward_packed(&mut self, x: &Tensor, _exec: PackedExec) -> Result<Tensor> {
        let [c, h, w, n] = dims4(x)?;
        let (k, s) = (self.kernel, self.stride);
        let oh = conv_output_size(h, k, s, 0)?;
        let ow = conv_output_size(w, k, s, 0)?;
        self.cache = None;
        let mut out = with_scratch(|scratch| scratch.take_buffer(c * oh * ow * n));
        out.clear();
        out.reserve(c * oh * ow * n);
        for ci in 0..c {
            let plane = &x.as_slice()[ci * h * w * n..(ci + 1) * h * w * n];
            for y in 0..oh {
                for xw in 0..ow {
                    let start = out.len();
                    out.resize(start + n, f32::NEG_INFINITY);
                    let best = &mut out[start..];
                    for ky in 0..k {
                        for kx in 0..k {
                            let at = ((y * s + ky) * w + xw * s + kx) * n;
                            for (b, &v) in best.iter_mut().zip(&plane[at..at + n]) {
                                if v > *b {
                                    *b = v;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, &[c, oh, ow, n])?)
    }

    fn name(&self) -> &str {
        "maxpool"
    }
}

/// Global average pooling: NCHW → `[N, C]` (the ResNet head).
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    in_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool { in_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        x.shape_obj().expect_rank(4).map_err(NnError::from)?;
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let plane = (h * w) as f32;
        let mut out = Tensor::zeros(&[n, c]);
        let xv = x.as_slice();
        let ov = out.as_mut_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                ov[ni * c + ci] = xv[base..base + h * w].iter().sum::<f32>() / plane;
            }
        }
        self.in_shape = (mode == Mode::Train).then(|| x.shape().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .in_shape
            .take()
            .ok_or(NnError::BackwardBeforeForward("GlobalAvgPool"))?;
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let scale = 1.0 / (h * w) as f32;
        let mut dx = Tensor::zeros(&shape);
        let dv = dx.as_mut_slice();
        let gv = grad_out.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let g = gv[ni * c + ci] * scale;
                let base = (ni * c + ci) * h * w;
                for v in &mut dv[base..base + h * w] {
                    *v = g;
                }
            }
        }
        Ok(dx)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// `[c, h, w, n]` → `[n, c]`: each `(n, c)` sums its `h·w` values in
    /// the order, and from the start value, of [`Layer::forward`]'s sum.
    fn forward_packed(&mut self, x: &Tensor, _exec: PackedExec) -> Result<Tensor> {
        let [c, h, w, n] = dims4(x)?;
        self.in_shape = None;
        let xv = x.as_slice();
        let plane = h * w;
        let mut out = Vec::with_capacity(n * c);
        for ni in 0..n {
            for ci in 0..c {
                let sum = (0..plane)
                    .map(|p| &xv[(ci * plane + p) * n + ni])
                    .sum::<f32>();
                out.push(sum / plane as f32);
            }
        }
        Ok(Tensor::from_vec(out, &[n, c])?)
    }

    fn name(&self) -> &str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut p = MaxPool2d::new(2, 2);
        let _ = p.forward(&x, Mode::Train).unwrap();
        let dx = p
            .backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_means() {
        let x =
            Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0], &[1, 2, 2, 2]).unwrap();
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_backward_distributes() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let mut p = GlobalAvgPool::new();
        let _ = p.forward(&x, Mode::Train).unwrap();
        let dx = p
            .backward(&Tensor::from_vec(vec![8.0], &[1, 1]).unwrap())
            .unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pool_backward_requires_forward() {
        let mut p = MaxPool2d::new(2, 2);
        assert!(p.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        let mut g = GlobalAvgPool::new();
        assert!(g.backward(&Tensor::zeros(&[1, 1])).is_err());
    }
}
