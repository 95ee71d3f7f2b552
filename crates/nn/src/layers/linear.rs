//! Quantization-aware fully-connected layer.

use crate::layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
use crate::scratch::with_scratch;
use crate::{NnError, Param, Result};
use ccq_quant::{LayerQuant, PackedWeights, QuantSpec};
use ccq_tensor::ops::{int_accumulator_safe, int_matmul_a_bt, matmul, matmul_at_b, sum_axis0};
use ccq_tensor::{Init, Rng64, Tensor, TensorError};

/// A fully-connected layer `y = x·Wᵀ + b` with fake-quantized weights and
/// inputs (see [`QConv2d`](crate::layers::QConv2d) for the QAT mechanics).
///
/// Weight layout is `[out_features, in_features]`; the input is
/// `[batch, in_features]`.
#[derive(Debug, Clone)]
pub struct QLinear {
    label: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    quant: LayerQuant,
    macs: u64,
    cache: Option<LinearCache>,
    packed: Option<PackedWeights>,
}

#[derive(Debug, Clone)]
struct LinearCache {
    /// Pre-quantization input.
    input: Tensor,
    /// Quantized input `[N, in]`.
    xq: Tensor,
    /// Quantized weights `[out, in]`.
    wq: Tensor,
}

impl QLinear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias.
    pub fn new(
        label: impl Into<String>,
        in_features: usize,
        out_features: usize,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        let weight = Param::new(
            Init::KaimingNormal {
                fan_in: in_features,
            }
            .sample(&[out_features, in_features], rng),
            true,
        );
        let bias = Param::new(Tensor::zeros(&[out_features]), false);
        QLinear {
            label: label.into(),
            in_features,
            out_features,
            weight,
            bias,
            quant: LayerQuant::new(spec),
            macs: 0,
            cache: None,
            packed: None,
        }
    }

    /// The layer's quantization state.
    pub fn quant(&self) -> &LayerQuant {
        &self.quant
    }

    /// Adds the bias row-wise in place (shared by the fake-quant and
    /// packed forward paths so both add in the same order).
    fn add_bias(&self, y: &mut Tensor) {
        let bv = self.bias.value.as_slice();
        let n = y.shape()[0];
        let yv = y.as_mut_slice();
        for r in 0..n {
            for (v, &b) in yv[r * self.out_features..(r + 1) * self.out_features]
                .iter_mut()
                .zip(bv)
            {
                *v += b;
            }
        }
    }
}

impl Layer for QLinear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        x.shape_obj().expect_rank(2).map_err(NnError::from)?;
        if x.shape()[1] != self.in_features {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                expected: vec![x.shape()[0], self.in_features],
                actual: x.shape().to_vec(),
            }));
        }
        if mode == Mode::Train {
            self.quant.observe_acts(x);
        }
        let xq = self.quant.quantize_acts(x);
        let wq = self.quant.quantize_weights(&self.weight.value);
        // y = xq · wqᵀ + b
        let mut y = ccq_tensor::ops::matmul_a_bt(&xq, &wq)?;
        self.add_bias(&mut y);
        self.macs = (self.in_features * self.out_features) as u64;
        self.cache = match mode {
            Mode::Train => Some(LinearCache {
                input: x.clone(),
                xq,
                wq,
            }),
            Mode::Eval => None,
        };
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or(NnError::BackwardBeforeForward("QLinear"))?;
        // dW = doutᵀ · xq, routed through the policy's weight-quantizer
        // backward (STE mask; LSQ also accumulates its step gradient).
        let dw = matmul_at_b(grad_out, &cache.xq)?;
        let dw = self.quant.weight_backward(&self.weight.value, dw);
        self.weight.grad.add_assign(&dw)?;
        self.bias.grad.add_assign(&sum_axis0(grad_out)?)?;
        // dx = dout · W (quantized), then through the activation STE.
        let dxq = matmul(grad_out, &cache.wq)?;
        Ok(self.quant.act_backward(&dxq, &cache.input))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
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
        f(StateTag::Other, &mut self.bias.value);
    }

    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let packed = match &self.packed {
            Some(p) => p,
            None => return self.forward(x, Mode::Eval),
        };
        x.shape_obj().expect_rank(2).map_err(NnError::from)?;
        if x.shape()[1] != self.in_features {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                expected: vec![x.shape()[0], self.in_features],
                actual: x.shape().to_vec(),
            }));
        }
        let rows = x.shape()[0];
        // Integer execution needs an activation grid and accumulator
        // headroom; pruned weights and f32-gridded inputs take the
        // (bit-exact) dequantized path instead. The codes go into the
        // thread's scratch (see `crate::scratch`).
        let int = if exec == PackedExec::Integer && packed.bits() > 0 {
            with_scratch(|s| {
                let Some(grid) = self.quant.act_codes_into(x, &mut s.codes) else {
                    return Ok(None);
                };
                let w_max = packed.grid().qmax.unsigned_abs();
                if !int_accumulator_safe(self.in_features, grid.qmax.unsigned_abs(), w_max) {
                    return Ok(None);
                }
                let acc = int_matmul_a_bt(
                    &s.codes,
                    packed.codes_i8(),
                    rows,
                    self.in_features,
                    self.out_features,
                )?;
                let scale = grid.scale() * packed.grid().scale();
                let y = acc.iter().map(|&a| a as f32 * scale).collect();
                Tensor::from_vec(y, &[rows, self.out_features]).map(Some)
            })?
        } else {
            None
        };
        let mut y = match int {
            Some(y) => y,
            None => {
                let xq = self.quant.quantize_acts(x);
                let wq = packed.dequantize();
                ccq_tensor::ops::matmul_a_bt(&xq, &wq)?
            }
        };
        self.add_bias(&mut y);
        self.macs = (self.in_features * self.out_features) as u64;
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
    fn forward_shape_and_bias() {
        let mut r = rng(0);
        let mut fc = QLinear::new("fc", 3, 2, fp_spec(), &mut r);
        fc.weight.value = Tensor::zeros(&[2, 3]);
        fc.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let y = fc.forward(&Tensor::ones(&[4, 3]), Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.as_slice()[0], 1.0);
        assert_eq!(y.as_slice()[1], -1.0);
    }

    #[test]
    fn rejects_wrong_width() {
        let mut r = rng(0);
        let mut fc = QLinear::new("fc", 3, 2, fp_spec(), &mut r);
        assert!(fc.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut r = rng(7);
        let mut fc = QLinear::new("fc", 4, 3, fp_spec(), &mut r);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 4], &mut r);
        let y = fc.forward(&x, Mode::Train).unwrap();
        let dy = y.clone();
        let dx = fc.backward(&dy).unwrap();

        let obj = |l: &mut QLinear, xx: &Tensor| -> f32 {
            let y = l.forward(xx, Mode::Eval).unwrap();
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (obj(&mut fc, &xp) - obj(&mut fc, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[idx]).abs() < 1e-2 * (1.0 + fd.abs()),
                "idx {idx}"
            );
        }
        for idx in [0usize, 5, 11] {
            let mut wp = fc.weight.value.clone();
            wp.as_mut_slice()[idx] += eps;
            let orig = std::mem::replace(&mut fc.weight.value, wp);
            let fp = obj(&mut fc, &x);
            fc.weight.value.as_mut_slice()[idx] -= 2.0 * eps;
            let fm = obj(&mut fc, &x);
            fc.weight.value = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - fc.weight.grad.as_slice()[idx]).abs() < 1e-2 * (1.0 + fd.abs()),
                "w idx {idx}"
            );
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = rng(0);
        let mut fc = QLinear::new("fc", 2, 2, fp_spec(), &mut r);
        assert!(matches!(
            fc.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn visit_quant_reports_weight_count() {
        let mut r = rng(0);
        let mut fc = QLinear::new("head", 8, 10, fp_spec(), &mut r);
        fc.visit_quant(&mut |h| {
            assert_eq!(h.label, "head");
            assert_eq!(h.weight_count, 80);
        });
    }
}
