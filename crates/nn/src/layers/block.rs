//! Residual blocks (ResNet basic and bottleneck).

use crate::layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
use crate::layers::{BatchNorm2d, QConv2d, Relu};
use crate::{Param, Result};
use ccq_quant::QuantSpec;
use ccq_tensor::{Rng64, Tensor};

/// The two-convolution residual block of CIFAR-style ResNets:
/// `relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
///
/// When the spatial stride or channel count changes, the shortcut is a
/// 1×1 projection convolution plus batch-norm (ResNet "option B"); it is
/// quantizable like any other convolution, so CCQ sees it as a layer.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    label: String,
    conv1: QConv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: QConv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(QConv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl BasicBlock {
    /// Creates a basic block. A projection shortcut is added automatically
    /// when `stride != 1` or `in_ch != out_ch`.
    pub fn new(
        label: impl Into<String>,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        let label = label.into();
        let conv1 = QConv2d::new_3x3(format!("{label}.conv1"), in_ch, out_ch, stride, spec, rng);
        let bn1 = BatchNorm2d::new(format!("{label}.bn1"), out_ch);
        let conv2 = QConv2d::new_3x3(format!("{label}.conv2"), out_ch, out_ch, 1, spec, rng);
        let bn2 = BatchNorm2d::new(format!("{label}.bn2"), out_ch);
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            (
                QConv2d::new_1x1(
                    format!("{label}.shortcut"),
                    in_ch,
                    out_ch,
                    stride,
                    spec,
                    rng,
                ),
                BatchNorm2d::new(format!("{label}.shortcut_bn"), out_ch),
            )
        });
        BasicBlock {
            label,
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            shortcut,
            relu_out: Relu::new(),
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let a = self.conv1.forward(x, mode)?;
        let a = self.bn1.forward(&a, mode)?;
        let a = self.relu1.forward(&a, mode)?;
        let b = self.conv2.forward(&a, mode)?;
        let b = self.bn2.forward(&b, mode)?;
        let sc = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, mode)?;
                bn.forward(&s, mode)?
            }
            None => x.clone(),
        };
        let mut sum = b;
        sum.add_assign(&sc)?;
        self.relu_out.forward(&sum, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let d = self.relu_out.backward(grad_out)?;
        let g = self.bn2.backward(&d)?;
        let g = self.conv2.backward(&g)?;
        let g = self.relu1.backward(&g)?;
        let g = self.bn1.backward(&g)?;
        let mut dx = self.conv1.backward(&g)?;
        let dsc = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = bn.backward(&d)?;
                conv.backward(&s)?
            }
            None => d,
        };
        dx.add_assign(&dsc)?;
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_params(f);
            b.visit_params(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(QuantHandle<'_>)) {
        self.conv1.visit_quant(f);
        self.conv2.visit_quant(f);
        if let Some((c, _)) = &mut self.shortcut {
            c.visit_quant(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.conv1.visit_state(f);
        self.bn1.visit_state(f);
        self.conv2.visit_state(f);
        self.bn2.visit_state(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_state(f);
            b.visit_state(f);
        }
    }

    fn visit_state_tagged(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        self.conv1.visit_state_tagged(f);
        self.bn1.visit_state_tagged(f);
        self.conv2.visit_state_tagged(f);
        self.bn2.visit_state_tagged(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_state_tagged(f);
            b.visit_state_tagged(f);
        }
    }

    /// Each batch-norm (and the ReLU after it) runs in place on the
    /// tensor its convolution returned, and the shortcut adds into the
    /// main path: no intermediate beyond the convolution outputs.
    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let mut a = self.conv1.forward_packed(x, exec)?;
        self.bn1.eval_in_place(&mut a, true)?;
        let mut b = self.conv2.forward_packed(&a, exec)?;
        self.bn2.eval_in_place(&mut b, false)?;
        add_shortcut(&mut b, x, &mut self.shortcut, exec)?;
        self.relu_out.forward_packed_owned(b, exec)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// The three-convolution bottleneck block of deeper ResNets:
/// 1×1 reduce → 3×3 → 1×1 expand, with a residual connection.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    label: String,
    conv1: QConv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: QConv2d,
    bn2: BatchNorm2d,
    relu2: Relu,
    conv3: QConv2d,
    bn3: BatchNorm2d,
    shortcut: Option<(QConv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl Bottleneck {
    /// Creates a bottleneck block: `in_ch → mid_ch → mid_ch → out_ch`.
    pub fn new(
        label: impl Into<String>,
        in_ch: usize,
        mid_ch: usize,
        out_ch: usize,
        stride: usize,
        spec: QuantSpec,
        rng: &mut Rng64,
    ) -> Self {
        let label = label.into();
        let conv1 = QConv2d::new_1x1(format!("{label}.conv1"), in_ch, mid_ch, 1, spec, rng);
        let bn1 = BatchNorm2d::new(format!("{label}.bn1"), mid_ch);
        let conv2 = QConv2d::new_3x3(format!("{label}.conv2"), mid_ch, mid_ch, stride, spec, rng);
        let bn2 = BatchNorm2d::new(format!("{label}.bn2"), mid_ch);
        let conv3 = QConv2d::new_1x1(format!("{label}.conv3"), mid_ch, out_ch, 1, spec, rng);
        let bn3 = BatchNorm2d::new(format!("{label}.bn3"), out_ch);
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            (
                QConv2d::new_1x1(
                    format!("{label}.shortcut"),
                    in_ch,
                    out_ch,
                    stride,
                    spec,
                    rng,
                ),
                BatchNorm2d::new(format!("{label}.shortcut_bn"), out_ch),
            )
        });
        Bottleneck {
            label,
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            relu2: Relu::new(),
            conv3,
            bn3,
            shortcut,
            relu_out: Relu::new(),
        }
    }
}

impl Layer for Bottleneck {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let a = self.conv1.forward(x, mode)?;
        let a = self.bn1.forward(&a, mode)?;
        let a = self.relu1.forward(&a, mode)?;
        let b = self.conv2.forward(&a, mode)?;
        let b = self.bn2.forward(&b, mode)?;
        let b = self.relu2.forward(&b, mode)?;
        let c = self.conv3.forward(&b, mode)?;
        let c = self.bn3.forward(&c, mode)?;
        let sc = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, mode)?;
                bn.forward(&s, mode)?
            }
            None => x.clone(),
        };
        let mut sum = c;
        sum.add_assign(&sc)?;
        self.relu_out.forward(&sum, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let d = self.relu_out.backward(grad_out)?;
        let g = self.bn3.backward(&d)?;
        let g = self.conv3.backward(&g)?;
        let g = self.relu2.backward(&g)?;
        let g = self.bn2.backward(&g)?;
        let g = self.conv2.backward(&g)?;
        let g = self.relu1.backward(&g)?;
        let g = self.bn1.backward(&g)?;
        let mut dx = self.conv1.backward(&g)?;
        let dsc = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = bn.backward(&d)?;
                conv.backward(&s)?
            }
            None => d,
        };
        dx.add_assign(&dsc)?;
        Ok(dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        self.conv3.visit_params(f);
        self.bn3.visit_params(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_params(f);
            b.visit_params(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(QuantHandle<'_>)) {
        self.conv1.visit_quant(f);
        self.conv2.visit_quant(f);
        self.conv3.visit_quant(f);
        if let Some((c, _)) = &mut self.shortcut {
            c.visit_quant(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.conv1.visit_state(f);
        self.bn1.visit_state(f);
        self.conv2.visit_state(f);
        self.bn2.visit_state(f);
        self.conv3.visit_state(f);
        self.bn3.visit_state(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_state(f);
            b.visit_state(f);
        }
    }

    fn visit_state_tagged(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        self.conv1.visit_state_tagged(f);
        self.bn1.visit_state_tagged(f);
        self.conv2.visit_state_tagged(f);
        self.bn2.visit_state_tagged(f);
        self.conv3.visit_state_tagged(f);
        self.bn3.visit_state_tagged(f);
        if let Some((c, b)) = &mut self.shortcut {
            c.visit_state_tagged(f);
            b.visit_state_tagged(f);
        }
    }

    /// In place after each convolution, as in [`BasicBlock`].
    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let mut a = self.conv1.forward_packed(x, exec)?;
        self.bn1.eval_in_place(&mut a, true)?;
        let mut b = self.conv2.forward_packed(&a, exec)?;
        self.bn2.eval_in_place(&mut b, true)?;
        let mut c = self.conv3.forward_packed(&b, exec)?;
        self.bn3.eval_in_place(&mut c, false)?;
        add_shortcut(&mut c, x, &mut self.shortcut, exec)?;
        self.relu_out.forward_packed_owned(c, exec)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Adds the packed shortcut of block input `x` into the main path
/// `sum`: the projection and its batch-norm when there is one, else `x`.
fn add_shortcut(
    sum: &mut Tensor,
    x: &Tensor,
    shortcut: &mut Option<(QConv2d, BatchNorm2d)>,
    exec: PackedExec,
) -> Result<()> {
    match shortcut {
        Some((conv, bn)) => {
            let mut s = conv.forward_packed(x, exec)?;
            bn.eval_in_place(&mut s, false)?;
            sum.add_assign(&s)?;
        }
        None => sum.add_assign(x)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_quant::PolicyKind;
    use ccq_tensor::{rng, Init};

    fn fp_spec() -> QuantSpec {
        QuantSpec::full_precision(PolicyKind::MaxAbs)
    }

    #[test]
    fn identity_block_preserves_shape() {
        let mut r = rng(0);
        let mut block = BasicBlock::new("b", 4, 4, 1, fp_spec(), &mut r);
        let x = Tensor::zeros(&[2, 4, 8, 8]);
        let y = block.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn downsampling_block_halves_spatial() {
        let mut r = rng(0);
        let mut block = BasicBlock::new("b", 4, 8, 2, fp_spec(), &mut r);
        let x = Tensor::zeros(&[1, 4, 8, 8]);
        let y = block.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn quant_visitor_counts_convs() {
        let mut r = rng(0);
        // Identity shortcut: 2 quantizable convs.
        let mut b1 = BasicBlock::new("a", 4, 4, 1, fp_spec(), &mut r);
        let mut n = 0;
        b1.visit_quant(&mut |_| n += 1);
        assert_eq!(n, 2);
        // Projection shortcut: 3.
        let mut b2 = BasicBlock::new("b", 4, 8, 2, fp_spec(), &mut r);
        n = 0;
        b2.visit_quant(&mut |_| n += 1);
        assert_eq!(n, 3);
        // Bottleneck with projection: 4.
        let mut b3 = Bottleneck::new("c", 4, 2, 8, 1, fp_spec(), &mut r);
        n = 0;
        b3.visit_quant(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn basic_block_gradient_flows_through_both_paths() {
        let mut r = rng(5);
        let mut block = BasicBlock::new("b", 2, 2, 1, fp_spec(), &mut r);
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[2, 2, 4, 4], &mut r);
        let y = block.forward(&x, Mode::Train).unwrap();
        let dx = block.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.norm_l2() > 0.0, "gradient should reach the input");
        // Parameter grads accumulated on both convs.
        let mut grads = 0;
        block.visit_params(&mut |p| {
            if p.grad.norm_l2() > 0.0 {
                grads += 1;
            }
        });
        assert!(grads >= 4, "expected conv and bn grads, got {grads}");
    }

    #[test]
    fn bottleneck_gradient_matches_finite_difference_on_input() {
        let mut r = rng(6);
        let mut block = Bottleneck::new("c", 2, 2, 2, 1, fp_spec(), &mut r);
        let x = Init::Uniform { lo: -0.5, hi: 0.5 }.sample(&[1, 2, 4, 4], &mut r);
        let y = block.forward(&x, Mode::Train).unwrap();
        let dy = y.clone();
        let dx = block.backward(&dy).unwrap();
        // BN batch statistics make per-element finite differences noisy;
        // use a directional derivative along a random direction instead.
        let dir = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(x.shape(), &mut r);
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.add_scaled(&dir, eps).unwrap();
        let mut xm = x.clone();
        xm.add_scaled(&dir, -eps).unwrap();
        let obj = |b: &mut Bottleneck, xx: &Tensor| -> f32 {
            let y = b.forward(xx, Mode::Train).unwrap();
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let fd = (obj(&mut block, &xp) - obj(&mut block, &xm)) / (2.0 * eps);
        let an = dx.dot(&dir).unwrap();
        assert!((fd - an).abs() < 0.05 * (1.0 + fd.abs()), "fd={fd} an={an}");
    }
}
