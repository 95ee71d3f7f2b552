//! Quantization-aware 2-D convolution.

use crate::layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
use crate::layout::{dims4, to_chwn, to_nchw};
use crate::scratch::with_scratch;
use crate::{NnError, Param, Result};
use ccq_quant::{LayerQuant, PackedWeights, QuantSpec};
use ccq_tensor::ops::{
    col2im, im2col, im2col_chwn, int_accumulator_safe, int_conv2d, matmul, matmul_a_bt,
    matmul_at_b, CodeBounds, Conv2dGeometry,
};
use ccq_tensor::{Init, Rng64, Tensor, TensorError};

/// A 2-D convolution with fake-quantized weights and inputs.
///
/// Weights are stored in full precision ("shadow weights"); every forward
/// pass quantizes them through the layer's [`LayerQuant`] so the loss sees
/// the quantized network while SGD updates the shadow copy — standard
/// quantization-aware training with a straight-through estimator.
///
/// Weight layout is `[out_ch, in_ch, kh, kw]`; activations are NCHW,
/// and batch-innermost `[c, h, w, n]` in the packed forward.
#[derive(Debug, Clone)]
pub struct QConv2d {
    label: String,
    in_ch: usize,
    out_ch: usize,
    geom: Conv2dGeometry,
    weight: Param,
    bias: Option<Param>,
    quant: LayerQuant,
    macs: u64,
    cache: Option<ConvCache>,
    packed: Option<PackedWeights>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    /// Pre-quantization input (needed by the activation-quantizer backward).
    input: Tensor,
    /// `im2col` of the quantized input, `[C·kh·kw, N·OH·OW]`.
    cols: Tensor,
    /// Quantized weight matrix `[O, C·kh·kw]`.
    wq: Tensor,
    n: usize,
    oh: usize,
    ow: usize,
    in_h: usize,
    in_w: usize,
}

impl QConv2d {
    /// Creates a convolution with Kaiming-normal weights.
    ///
    /// `kernel`, `stride`, `padding` are square/symmetric. Bias is included
    /// only when `with_bias` — ResNet convolutions omit it because a
    /// batch-norm follows.
    #[allow(clippy::too_many_arguments)]
    pub fn new_full(
        label: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        with_bias: bool,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight = Param::new(
            Init::KaimingNormal { fan_in }.sample(&[out_ch, in_ch, kernel, kernel], rng),
            true,
        );
        let bias = with_bias.then(|| Param::new(Tensor::zeros(&[out_ch]), false));
        QConv2d {
            label: label.into(),
            in_ch,
            out_ch,
            geom: Conv2dGeometry {
                kernel_h: kernel,
                kernel_w: kernel,
                stride,
                padding,
            },
            weight,
            bias,
            quant: LayerQuant::new(spec),
            macs: 0,
            cache: None,
            packed: None,
        }
    }

    /// Creates a bias-free 3×3 convolution with padding 1 (the ResNet
    /// workhorse).
    pub fn new_3x3(
        label: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        QConv2d::new_full(label, in_ch, out_ch, 3, stride, 1, false, spec, rng)
    }

    /// Creates a bias-free 1×1 convolution (projection shortcut).
    pub fn new_1x1(
        label: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        QConv2d::new_full(label, in_ch, out_ch, 1, stride, 0, false, spec, rng)
    }

    /// The layer's quantization state.
    pub fn quant(&self) -> &LayerQuant {
        &self.quant
    }

    /// Number of weight scalars.
    pub fn weight_count(&self) -> usize {
        self.weight.len()
    }

    /// Reorders `[O, N·OH·OW]` to NCHW `[N, O, OH, OW]`, adding bias.
    fn mat_to_nchw(&self, mat: &Tensor, n: usize, oh: usize, ow: usize) -> Tensor {
        let o = self.out_ch;
        let mv = mat.as_slice();
        let plane = oh * ow;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        let ov = out.as_mut_slice();
        for oi in 0..o {
            let b = self.bias.as_ref().map_or(0.0, |p| p.value.as_slice()[oi]);
            let row = &mv[oi * n * plane..(oi + 1) * n * plane];
            for ni in 0..n {
                let dst = &mut ov[(ni * o + oi) * plane..(ni * o + oi + 1) * plane];
                let src = &row[ni * plane..(ni + 1) * plane];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + b;
                }
            }
        }
        out
    }

    /// Reorders NCHW `[N, O, OH, OW]` to `[O, N·OH·OW]`.
    fn nchw_to_mat(&self, t: &Tensor, n: usize, oh: usize, ow: usize) -> Tensor {
        let o = self.out_ch;
        let tv = t.as_slice();
        let plane = oh * ow;
        let mut out = Tensor::zeros(&[o, n * plane]);
        let ov = out.as_mut_slice();
        for oi in 0..o {
            let row = &mut ov[oi * n * plane..(oi + 1) * n * plane];
            for ni in 0..n {
                let src = &tv[(ni * o + oi) * plane..(ni * o + oi + 1) * plane];
                row[ni * plane..(ni + 1) * plane].copy_from_slice(src);
            }
        }
        out
    }
}

impl Layer for QConv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        x.shape_obj().expect_rank(4).map_err(NnError::from)?;
        if x.shape()[1] != self.in_ch {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                expected: vec![x.shape()[0], self.in_ch, x.shape()[2], x.shape()[3]],
                actual: x.shape().to_vec(),
            }));
        }
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.output_hw(h, w)?;
        if mode == Mode::Train {
            self.quant.observe_acts(x);
        }
        let xq = self.quant.quantize_acts(x);
        let cols = im2col(&xq, self.geom)?;
        let ckk = self.in_ch * self.geom.kernel_h * self.geom.kernel_w;
        let wq = self
            .quant
            .quantize_weights(&self.weight.value)
            .reshape(&[self.out_ch, ckk])?;
        let out_mat = matmul(&wq, &cols)?;
        let y = self.mat_to_nchw(&out_mat, n, oh, ow);
        self.macs = (ckk * oh * ow * self.out_ch) as u64;
        self.cache = match mode {
            Mode::Train => Some(ConvCache {
                input: x.clone(),
                cols,
                wq,
                n,
                oh,
                ow,
                in_h: h,
                in_w: w,
            }),
            Mode::Eval => None,
        };
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::BackwardBeforeForward("QConv2d"))?;
        let (n, oh, ow) = (cache.n, cache.oh, cache.ow);
        let dmat = self.nchw_to_mat(grad_out, n, oh, ow);
        // Weight gradient: dW = dout · colsᵀ, routed through the policy's
        // weight-quantizer backward (STE mask; LSQ also accumulates its
        // step gradient).
        let mut dw = matmul_a_bt(&dmat, &cache.cols)?;
        dw.reshape_in_place(self.weight.value.shape())?;
        let dw = self.quant.weight_backward(&self.weight.value, dw);
        self.weight.grad.add_assign(&dw)?;
        // Bias gradient: row sums of dout.
        if let Some(bias) = &mut self.bias {
            let dv = dmat.as_slice();
            let cols_n = n * oh * ow;
            let bg = bias.grad.as_mut_slice();
            for (oi, b) in bg.iter_mut().enumerate() {
                *b += dv[oi * cols_n..(oi + 1) * cols_n].iter().sum::<f32>();
            }
        }
        // Input gradient: dcols = wqᵀ · dout, then col2im, then through the
        // activation quantizer's STE.
        let dcols = matmul_at_b(&cache.wq, &dmat)?;
        let dxq = col2im(&dcols, n, self.in_ch, cache.in_h, cache.in_w, self.geom)?;
        Ok(self.quant.act_backward(&dxq, &cache.input))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(QuantHandle<'_>)) {
        f(QuantHandle {
            label: &self.label,
            weight_count: self.weight.len(),
            macs: self.macs,
            quant: &mut self.quant,
            weight: &mut self.weight,
            packed: &mut self.packed,
        });
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        f(StateTag::QuantWeight, &mut self.weight.value);
        if let Some(b) = &mut self.bias {
            f(StateTag::Other, &mut b.value);
        }
    }

    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let [c, h, w, n] = dims4(x)?;
        if c != self.in_ch {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                expected: vec![self.in_ch, h, w, n],
                actual: x.shape().to_vec(),
            }));
        }
        let (oh, ow) = self.geom.output_hw(h, w)?;
        let ckk = self.in_ch * self.geom.kernel_h * self.geom.kernel_w;
        self.macs = (ckk * oh * ow * self.out_ch) as u64;
        let bias = self.bias.as_ref().map(|p| p.value.as_slice());
        // Integer execution needs an activation grid and accumulator
        // headroom; pruned weights and f32-gridded inputs take the
        // (bit-exact) dequantized path instead. The codes, the patch
        // matrix and the output buffer all come from the thread's
        // scratch (see `crate::scratch`).
        let packed = self.packed.as_ref();
        if let Some(packed) = packed.filter(|p| exec == PackedExec::Integer && p.bits() > 0) {
            let y = with_scratch(|s| {
                let Some(grid) = self.quant.act_codes_into(x, &mut s.codes) else {
                    return Ok(None);
                };
                let bounds = CodeBounds {
                    act: grid.qmax.unsigned_abs(),
                    weight: packed.grid().qmax.unsigned_abs(),
                };
                if !int_accumulator_safe(ckk, bounds.act, bounds.weight) {
                    return Ok(None);
                }
                let out = s.take_buffer(self.out_ch * oh * ow * n);
                int_conv2d(
                    &s.codes,
                    [c, h, w, n],
                    self.geom,
                    packed.conv_taps()?,
                    bounds,
                    grid.scale() * packed.grid().scale(),
                    bias,
                    &mut s.conv,
                    out,
                )
                .map(Some)
            })?;
            if let Some(y) = y {
                return Ok(y);
            }
        }
        // The f32 product of the fake-quant forward, on the dequantized
        // packed weights or, for a layer that was not packed, on its
        // fake-quant weights. Its columns are in another order, which
        // no output element's sum depends on.
        let wq = match packed {
            Some(p) => p.dequantize(),
            None => self.quant.quantize_weights(&self.weight.value),
        };
        let wq = wq.reshape(&[self.out_ch, ckk])?;
        let mut xq = if self.quant.acts_depend_on_order() {
            // The grid is a statistic of the elements in NCHW order.
            to_chwn(&self.quant.quantize_acts(&to_nchw(x)?), Vec::new())?
        } else {
            self.quant.quantize_acts(x)
        };
        let mut y = if self.geom.is_pointwise() {
            xq.reshape_in_place(&[c, h * w * n])?;
            matmul(&wq, &xq)?
        } else {
            matmul(&wq, &im2col_chwn(&xq, self.geom)?)?
        };
        let len = oh * ow * n;
        if len > 0 {
            for (oi, row) in y.as_mut_slice().chunks_exact_mut(len).enumerate() {
                let b = bias.map_or(0.0, |b| b[oi]);
                for v in row {
                    *v += b;
                }
            }
        }
        y.reshape_in_place(&[self.out_ch, oh, ow, n])?;
        Ok(y)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_quant::PolicyKind;
    use ccq_tensor::rng;

    fn fp_spec() -> QuantSpec {
        QuantSpec::full_precision(PolicyKind::MaxAbs)
    }

    #[test]
    fn forward_shape() {
        let mut r = rng(0);
        let mut conv = QConv2d::new_3x3("c", 3, 8, 1, fp_spec(), &mut r);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        // Stride-2 halves the spatial extent.
        let mut conv2 = QConv2d::new_3x3("c2", 3, 4, 2, fp_spec(), &mut r);
        let y2 = conv2.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y2.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut r = rng(0);
        let mut conv = QConv2d::new_3x3("c", 3, 8, 1, fp_spec(), &mut r);
        assert!(conv
            .forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn backward_requires_train_forward() {
        let mut r = rng(0);
        let mut conv = QConv2d::new_3x3("c", 1, 1, 1, fp_spec(), &mut r);
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let _ = conv.forward(&x, Mode::Eval).unwrap();
        assert!(matches!(
            conv.backward(&Tensor::zeros(&[1, 1, 4, 4])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Full-precision path: analytic gradients must match central
        // differences on a scalar objective sum(conv(x)²)/2.
        let mut r = rng(42);
        let mut conv = QConv2d::new_full("c", 2, 3, 3, 1, 1, true, fp_spec(), &mut r);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[1, 2, 5, 5], &mut r);

        let y = conv.forward(&x, Mode::Train).unwrap();
        let dy = y.clone(); // d(½‖y‖²)/dy = y
        let dx = conv.backward(&dy).unwrap();

        let obj = |c: &mut QConv2d, xx: &Tensor| -> f32 {
            let y = c.forward(xx, Mode::Eval).unwrap();
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        // Check a few input coordinates.
        let eps = 1e-3;
        for &idx in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (obj(&mut conv, &xp) - obj(&mut conv, &xm)) / (2.0 * eps);
            let an = dx.as_slice()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "input idx {idx}: fd={fd} an={an}"
            );
        }
        // Check a few weight coordinates.
        let wlen = conv.weight.value.len();
        for &idx in &[0usize, wlen / 2, wlen - 1] {
            let mut cp = conv.weight.value.clone();
            cp.as_mut_slice()[idx] += eps;
            let orig = std::mem::replace(&mut conv.weight.value, cp);
            let fp = obj(&mut conv, &x);
            conv.weight.value.as_mut_slice()[idx] -= 2.0 * eps;
            let fm = obj(&mut conv, &x);
            conv.weight.value = orig;
            let fd = (fp - fm) / (2.0 * eps);
            let an = conv.weight.grad.as_slice()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "weight idx {idx}: fd={fd} an={an}"
            );
        }
        // Bias gradient for output channel 0 equals sum of dy over its plane.
        let an_b = conv.bias.as_ref().unwrap().grad.as_slice()[0];
        let plane = 5 * 5;
        let fd_b: f32 = dy.as_slice()[0..plane].iter().sum();
        assert!((an_b - fd_b).abs() < 1e-3);
    }

    #[test]
    fn macs_counted_after_forward() {
        let mut r = rng(0);
        let mut conv = QConv2d::new_3x3("c", 2, 4, 1, fp_spec(), &mut r);
        let _ = conv
            .forward(&Tensor::zeros(&[1, 2, 6, 6]), Mode::Eval)
            .unwrap();
        // CKK=2·9=18, OH·OW=36, O=4 → 2592 MACs per sample.
        let mut seen = 0;
        conv.visit_quant(&mut |h| {
            assert_eq!(h.macs, 18 * 36 * 4);
            seen += 1;
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn quantized_forward_uses_grid_weights() {
        let mut r = rng(1);
        let spec = QuantSpec::new(
            PolicyKind::Wrpn,
            ccq_quant::BitWidth::of(2),
            ccq_quant::BitWidth::FP32,
        );
        let mut conv = QConv2d::new_full("c", 1, 1, 1, 1, 0, false, spec, &mut r);
        conv.weight.value = Tensor::from_vec(vec![0.4], &[1, 1, 1, 1]).unwrap();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, Mode::Eval).unwrap();
        // WRPN 2-bit grid is {-1, 0, 1}: 0.4 → 0.
        assert_eq!(y.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn visit_params_counts_weight_and_bias() {
        let mut r = rng(0);
        let mut conv = QConv2d::new_full("c", 1, 2, 3, 1, 1, true, fp_spec(), &mut r);
        let mut count = 0;
        conv.visit_params(&mut |_| count += 1);
        assert_eq!(count, 2);
        let mut conv2 = QConv2d::new_3x3("c", 1, 2, 1, fp_spec(), &mut r);
        count = 0;
        conv2.visit_params(&mut |_| count += 1);
        assert_eq!(count, 1);
    }
}
