//! Per-layer quantization state: the object a network layer owns.

use crate::policies::{aciq, dorefa, lsq, pact, sawb, uniform, wrpn};
use crate::{BitWidth, PolicyKind};
use ccq_tensor::Tensor;

/// A layer's quantization configuration: policy plus weight/activation bit
/// widths. This is the unit CCQ's competition mutates.
///
/// # Example
///
/// ```
/// use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
///
/// let spec = QuantSpec::full_precision(PolicyKind::Pact);
/// assert!(spec.is_full_precision());
/// let q = spec.with_bits(BitWidth::of(4), BitWidth::of(4));
/// assert_eq!(q.weight_bits, BitWidth::of(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// The quantization policy.
    pub policy: PolicyKind,
    /// Bit width for weights.
    pub weight_bits: BitWidth,
    /// Bit width for activations (the layer's input).
    pub act_bits: BitWidth,
}

impl QuantSpec {
    /// Creates a spec with explicit bit widths.
    pub fn new(policy: PolicyKind, weight_bits: BitWidth, act_bits: BitWidth) -> Self {
        QuantSpec {
            policy,
            weight_bits,
            act_bits,
        }
    }

    /// Creates a full-precision (pass-through) spec for the given policy.
    pub fn full_precision(policy: PolicyKind) -> Self {
        QuantSpec {
            policy,
            weight_bits: BitWidth::FP32,
            act_bits: BitWidth::FP32,
        }
    }

    /// Returns a copy with different bit widths.
    pub fn with_bits(self, weight_bits: BitWidth, act_bits: BitWidth) -> Self {
        QuantSpec {
            weight_bits,
            act_bits,
            ..self
        }
    }

    /// Whether both weights and activations are full precision.
    pub fn is_full_precision(&self) -> bool {
        self.weight_bits.is_full_precision() && self.act_bits.is_full_precision()
    }
}

/// Runtime quantization state owned by one network layer.
///
/// Holds the [`QuantSpec`] plus the learnable PACT clipping value `α` and
/// its accumulated gradient. Layers call [`quantize_weights`] /
/// [`quantize_acts`] on the forward pass and [`act_backward`] /
/// [`weight_grad_mask`] on the backward pass; the optimizer consumes
/// [`take_alpha_grad`].
///
/// [`quantize_weights`]: LayerQuant::quantize_weights
/// [`quantize_acts`]: LayerQuant::quantize_acts
/// [`act_backward`]: LayerQuant::act_backward
/// [`weight_grad_mask`]: LayerQuant::weight_grad_mask
/// [`take_alpha_grad`]: LayerQuant::take_alpha_grad
#[derive(Debug, Clone)]
pub struct LayerQuant {
    spec: QuantSpec,
    alpha: f32,
    alpha_grad: f32,
    /// LSQ weight step (`<= 0` means "not yet calibrated").
    weight_step: f32,
    weight_step_grad: f32,
    /// LSQ activation step (`<= 0` means "not yet calibrated").
    act_step: f32,
    act_step_grad: f32,
}

impl LayerQuant {
    /// Creates the state for a spec, with PACT's default `α`.
    pub fn new(spec: QuantSpec) -> Self {
        LayerQuant {
            spec,
            alpha: pact::DEFAULT_ALPHA,
            alpha_grad: 0.0,
            weight_step: 0.0,
            weight_step_grad: 0.0,
            act_step: 0.0,
            act_step_grad: 0.0,
        }
    }

    /// The current spec.
    pub fn spec(&self) -> QuantSpec {
        self.spec
    }

    /// Replaces the spec (used by CCQ's competition to descend a rung).
    pub fn set_spec(&mut self, spec: QuantSpec) {
        self.spec = spec;
    }

    /// The learned activation clipping value (PACT/SAWB only meaningfully).
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Overrides the clipping value (clamped to a small positive floor).
    pub fn set_alpha(&mut self, alpha: f32) {
        self.alpha = alpha.max(1e-3);
    }

    /// Returns and clears the accumulated `∂L/∂α`.
    pub fn take_alpha_grad(&mut self) -> f32 {
        std::mem::take(&mut self.alpha_grad)
    }

    /// The learned LSQ weight step (`<= 0` before calibration).
    pub fn weight_step(&self) -> f32 {
        self.weight_step
    }

    /// Overrides the LSQ weight step.
    pub fn set_weight_step(&mut self, step: f32) {
        self.weight_step = step;
    }

    /// The learned LSQ activation step (`<= 0` before calibration).
    pub fn act_step(&self) -> f32 {
        self.act_step
    }

    /// Overrides the LSQ activation step.
    pub fn set_act_step(&mut self, step: f32) {
        self.act_step = step;
    }

    /// Observer-style calibration of `α` while activations are still full
    /// precision (the standard QAT observer phase): tracks an exponential
    /// moving average of the batch maximum so that when the activation
    /// grid first drops below 32 bits, the clip already matches the
    /// activation range. A no-op for policies without a learnable `α` and
    /// once activation quantization is active (PACT's gradient then owns
    /// `α`).
    pub fn observe_acts(&mut self, x: &Tensor) {
        if self.spec.policy.has_learnable_steps() && self.act_step <= 0.0 {
            let (_, qp) = lsq::unsigned_range(self.spec.act_bits.bits().min(31));
            self.act_step = lsq::init_step(x, qp);
            return;
        }
        if !self.spec.policy.has_learnable_alpha() || !self.spec.act_bits.is_full_precision() {
            return;
        }
        let m = x.max();
        if m > 0.0 && m.is_finite() {
            self.alpha = (0.9 * self.alpha + 0.1 * m).max(1e-3);
        }
    }

    /// Applies one SGD step to every learnable quantizer scalar: PACT's
    /// `α` (with the PACT paper's L2 decay) and LSQ's step sizes (no
    /// decay, per the LSQ paper).
    pub fn step_alpha(&mut self, lr: f32, weight_decay: f32) {
        if self.spec.policy.has_learnable_steps() {
            if self.weight_step > 0.0 {
                self.weight_step = (self.weight_step - lr * self.weight_step_grad).max(1e-8);
            }
            if self.act_step > 0.0 {
                self.act_step = (self.act_step - lr * self.act_step_grad).max(1e-8);
            }
            self.weight_step_grad = 0.0;
            self.act_step_grad = 0.0;
        }
        if !self.spec.policy.has_learnable_alpha() {
            self.alpha_grad = 0.0;
            return;
        }
        let g = self.alpha_grad + weight_decay * self.alpha;
        self.alpha = (self.alpha - lr * g).max(1e-3);
        self.alpha_grad = 0.0;
    }

    /// Fake-quantizes a weight tensor according to the spec.
    ///
    /// The 0-bit pruning rung short-circuits every policy: pruned weights
    /// read as zero.
    pub fn quantize_weights(&self, w: &Tensor) -> Tensor {
        let bits = self.spec.weight_bits.bits();
        if self.spec.weight_bits.is_full_precision() {
            return w.clone();
        }
        if self.spec.weight_bits.is_pruned() {
            return Tensor::zeros(w.shape());
        }
        match self.spec.policy {
            PolicyKind::Dorefa => dorefa::quantize_weights(w, bits),
            // PACT's weight path is scale-preserving symmetric quantization
            // (the scheme its companion SAWB work refines). DoReFa's tanh
            // remap — which the original PACT experiments borrowed — maps
            // weights into [-1, 1], silently rescaling every layer; that
            // rescaling invalidates frozen batch-norm statistics whenever
            // the network is evaluated without retraining, which is exactly
            // what CCQ's cheap probes do.
            PolicyKind::Pact => uniform::quantize_maxabs(w, bits),
            PolicyKind::Wrpn => wrpn::quantize_weights(w, bits),
            PolicyKind::Sawb => sawb::quantize_weights(w, bits),
            PolicyKind::UniformAffine => uniform::quantize_affine(w, bits),
            PolicyKind::MaxAbs => uniform::quantize_maxabs(w, bits),
            PolicyKind::Aciq => aciq::quantize_weights(w, bits),
            PolicyKind::Lsq => {
                let (qn, qp) = lsq::signed_range(bits.min(31));
                let s = if self.weight_step > 0.0 {
                    self.weight_step
                } else {
                    lsq::init_step(w, qp)
                };
                lsq::quantize(w, s, qn, qp)
            }
        }
    }

    /// Exports the weight tensor's fake-quant grid as packed integer
    /// codes, or `None` when the layer has no packable grid (full
    /// precision, or a policy without a symmetric scale).
    ///
    /// The round trip is bit-exact:
    /// `pack_weights(w).dequantize() == quantize_weights(w)`.
    pub fn pack_weights(&self, w: &Tensor) -> Option<crate::grid::PackedWeights> {
        crate::grid::PackedWeights::from_tensor(self.spec.policy, w, self.spec.weight_bits)
    }

    /// Computes integer activation codes for the layer input, mirroring
    /// [`LayerQuant::quantize_acts`], or `None` when the activation grid
    /// is not single-scale (the packed path then falls back to f32).
    pub fn act_codes(&self, x: &Tensor) -> Option<crate::grid::ActCodes> {
        crate::grid::act_codes(self.spec.policy, self.alpha, self.spec.act_bits, x)
    }

    /// STE mask for the weight gradient: `Some(mask)` when the policy clips
    /// weights (gradient is zero where the clip saturates), `None` when the
    /// gradient passes straight through.
    pub fn weight_grad_mask(&self, w: &Tensor) -> Option<Tensor> {
        if self.spec.weight_bits.is_full_precision() {
            return None;
        }
        // Pruned weights are frozen: no gradient reaches the shadow values.
        if self.spec.weight_bits.is_pruned() {
            return Some(Tensor::zeros(w.shape()));
        }
        match self.spec.policy {
            // DoReFa's tanh remap never saturates, and PACT's max-abs
            // scale never clips: pure pass-through STE for both.
            PolicyKind::Dorefa | PolicyKind::Pact => None,
            PolicyKind::Wrpn => Some(wrpn::weight_grad_mask(w)),
            PolicyKind::Sawb => Some(sawb::weight_grad_mask(w, self.spec.weight_bits.bits())),
            PolicyKind::Aciq => Some(aciq::weight_grad_mask(w, self.spec.weight_bits.bits())),
            PolicyKind::Lsq => {
                let (qn, qp) = lsq::signed_range(self.spec.weight_bits.bits().min(31));
                let s = if self.weight_step > 0.0 {
                    self.weight_step
                } else {
                    lsq::init_step(w, qp)
                };
                Some(w.map(|v| {
                    if (-qn * s..=qp * s).contains(&v) {
                        1.0
                    } else {
                        0.0
                    }
                }))
            }
            PolicyKind::UniformAffine | PolicyKind::MaxAbs => None,
        }
    }

    /// Backward pass for the weight quantizer: takes `∂L/∂w_q` (the raw
    /// gradient the layer computed against its quantized weights) and
    /// returns the gradient to accumulate on the shadow weights. For LSQ
    /// the scalar step gradient is accumulated internally; for every other
    /// policy this is the STE (optionally masked) pass-through.
    pub fn weight_backward(&mut self, w: &Tensor, grad_wq: Tensor) -> Tensor {
        if self.spec.weight_bits.is_full_precision() {
            return grad_wq;
        }
        if self.spec.weight_bits.is_pruned() {
            return Tensor::zeros(w.shape());
        }
        if self.spec.policy.has_learnable_steps() {
            let bits = self.spec.weight_bits.bits().min(31);
            let (qn, qp) = lsq::signed_range(bits);
            if self.weight_step <= 0.0 {
                self.weight_step = lsq::init_step(w, qp);
            }
            let b = lsq::backward(&grad_wq, w, self.weight_step, qn, qp);
            self.weight_step_grad += b.grad_step;
            return b.grad_values;
        }
        match self.weight_grad_mask(w) {
            // ccq-lint: allow(panic-surface) — weight_grad_mask maps w elementwise, so shapes agree
            Some(mask) => grad_wq.zip_map(&mask, |g, m| g * m).expect("same shape"),
            None => grad_wq,
        }
    }

    /// Fake-quantizes the layer input according to the spec.
    ///
    /// Range constraints that are part of the policy's *architecture* apply
    /// even at full precision: PACT/SAWB clip at the learned `α` (PACT
    /// replaces the ReLU), and DoReFa/WRPN clamp to `[0, 1]` — their nets
    /// are trained with that clamp from scratch, so a network carrying
    /// these policies must learn under it before any grid is imposed.
    /// Purely static policies (affine/max-abs/ACIQ) pass full precision
    /// through.
    pub fn quantize_acts(&self, x: &Tensor) -> Tensor {
        let bits = self.spec.act_bits.bits();
        // Pruned activations read as zero before any policy dispatch: the
        // policies' grids degenerate (divide by `levels - 1 = 0`) at 0 bits.
        if self.spec.act_bits.is_pruned() {
            return Tensor::zeros(x.shape());
        }
        match self.spec.policy {
            PolicyKind::Pact | PolicyKind::Sawb => pact::quantize_acts(x, self.alpha, bits),
            // DoReFa/WRPN clamp even at 32 bits (handled inside).
            PolicyKind::Dorefa => dorefa::quantize_acts(x, bits),
            PolicyKind::Wrpn => wrpn::quantize_acts(x, bits),
            _ if self.spec.act_bits.is_full_precision() => x.clone(),
            PolicyKind::UniformAffine => uniform::quantize_affine(x, bits),
            PolicyKind::MaxAbs => uniform::quantize_maxabs(x, bits),
            PolicyKind::Aciq => aciq::quantize_acts(x, bits),
            PolicyKind::Lsq => {
                let (qn, qp) = lsq::unsigned_range(bits.min(31));
                let s = if self.act_step > 0.0 {
                    self.act_step
                } else {
                    lsq::init_step(x, qp)
                };
                lsq::quantize(x, s, qn, qp)
            }
        }
    }

    /// Backward pass through the activation quantizer.
    ///
    /// `x` must be the same tensor that was passed to
    /// [`LayerQuant::quantize_acts`] on the forward pass. For PACT/SAWB the
    /// scalar `∂L/∂α` is accumulated internally (drain it with
    /// [`LayerQuant::take_alpha_grad`] or apply it with
    /// [`LayerQuant::step_alpha`]).
    ///
    /// # Panics
    ///
    /// Panics when `grad_out` and `x` shapes differ.
    pub fn act_backward(&mut self, grad_out: &Tensor, x: &Tensor) -> Tensor {
        assert_eq!(grad_out.shape(), x.shape(), "act_backward shape mismatch");
        if self.spec.act_bits.is_pruned() {
            return Tensor::zeros(x.shape());
        }
        match self.spec.policy {
            PolicyKind::Pact | PolicyKind::Sawb => {
                let b = pact::act_backward(grad_out, x, self.alpha);
                self.alpha_grad += b.grad_alpha;
                b.grad_input
            }
            // DoReFa/WRPN: the clamp saturates even at full precision, so
            // the mask applies at every bit width.
            PolicyKind::Dorefa => grad_out
                .zip_map(&dorefa::act_grad_mask(x), |g, m| g * m)
                // ccq-lint: allow(panic-surface) — the mask maps x elementwise; assert_eq above pins grad_out to x
                .expect("shapes checked above"),
            PolicyKind::Wrpn => grad_out
                .zip_map(&wrpn::act_grad_mask(x), |g, m| g * m)
                // ccq-lint: allow(panic-surface) — the mask maps x elementwise; assert_eq above pins grad_out to x
                .expect("shapes checked above"),
            PolicyKind::Lsq if !self.spec.act_bits.is_full_precision() => {
                let bits = self.spec.act_bits.bits().min(31);
                let (qn, qp) = lsq::unsigned_range(bits);
                if self.act_step <= 0.0 {
                    self.act_step = lsq::init_step(x, qp);
                }
                let b = lsq::backward(grad_out, x, self.act_step, qn, qp);
                self.act_step_grad += b.grad_step;
                b.grad_values
            }
            _ if self.spec.act_bits.is_full_precision() => grad_out.clone(),
            PolicyKind::Aciq => grad_out
                .zip_map(
                    &aciq::act_grad_mask(x, self.spec.act_bits.bits()),
                    |g, m| g * m,
                )
                // ccq-lint: allow(panic-surface) — the mask maps x elementwise; assert_eq above pins grad_out to x
                .expect("shapes checked above"),
            // Static policies (and LSQ at full precision): pass-through.
            PolicyKind::UniformAffine | PolicyKind::MaxAbs | PolicyKind::Lsq => grad_out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_tensor::{rng, Init};

    fn spec(policy: PolicyKind, wb: u32, ab: u32) -> QuantSpec {
        QuantSpec::new(policy, BitWidth::of(wb), BitWidth::of(ab))
    }

    #[test]
    fn full_precision_spec_weights_are_identity() {
        // Weights pass through at fp for every policy; activations may
        // still be range-constrained (PACT clips at alpha, DoReFa/WRPN
        // clamp to [0, 1] — architectural constraints).
        let w = Init::Normal {
            mean: 0.0,
            std: 1.0,
        }
        .sample(&[64], &mut rng(0));
        for policy in PolicyKind::ALL {
            let lq = LayerQuant::new(QuantSpec::full_precision(policy));
            assert_eq!(lq.quantize_weights(&w), w, "{policy}");
            assert!(lq.weight_grad_mask(&w).is_none(), "{policy}");
        }
        // Static policies also pass activations through untouched.
        let lq = LayerQuant::new(QuantSpec::full_precision(PolicyKind::MaxAbs));
        assert_eq!(lq.quantize_acts(&w), w);
        // DoReFa clamps activations even at fp.
        let lq = LayerQuant::new(QuantSpec::full_precision(PolicyKind::Dorefa));
        let clamped = lq.quantize_acts(&w);
        assert!(clamped.min() >= 0.0 && clamped.max() <= 1.0);
    }

    #[test]
    fn pact_full_precision_still_clips_acts() {
        let mut lq = LayerQuant::new(QuantSpec::full_precision(PolicyKind::Pact));
        lq.set_alpha(1.0);
        let x = Tensor::from_vec(vec![-1.0, 0.5, 3.0], &[3]).unwrap();
        assert_eq!(lq.quantize_acts(&x).as_slice(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn quantized_weights_land_on_grid_for_every_policy() {
        let w = Init::Normal {
            mean: 0.0,
            std: 0.7,
        }
        .sample(&[256], &mut rng(1));
        for policy in PolicyKind::ALL {
            let lq = LayerQuant::new(spec(policy, 3, 3));
            let q = lq.quantize_weights(&w);
            assert!(q.all_finite(), "{policy}");
            // Applying the same quantizer to quantized weights should be
            // (nearly) idempotent for scale-stable policies.
            if matches!(policy, PolicyKind::Wrpn) {
                let qq = lq.quantize_weights(&q);
                for (a, b) in q.as_slice().iter().zip(qq.as_slice()) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn alpha_grad_accumulates_and_drains() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Pact, 4, 4));
        lq.set_alpha(1.0);
        let x = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        let g = Tensor::ones(&[2]);
        let _ = lq.act_backward(&g, &x);
        let _ = lq.act_backward(&g, &x);
        assert_eq!(lq.take_alpha_grad(), 4.0);
        assert_eq!(lq.take_alpha_grad(), 0.0);
    }

    #[test]
    fn step_alpha_moves_against_gradient() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Pact, 4, 4));
        lq.set_alpha(2.0);
        let x = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        let _ = lq.act_backward(&Tensor::ones(&[1]), &x);
        lq.step_alpha(0.1, 0.0);
        assert!(
            lq.alpha() < 2.0,
            "alpha should shrink when saturated grads are positive"
        );
    }

    #[test]
    fn step_alpha_noop_for_non_learnable_policy() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Dorefa, 4, 4));
        let before = lq.alpha();
        lq.step_alpha(0.5, 0.1);
        assert_eq!(lq.alpha(), before);
    }

    #[test]
    fn alpha_never_collapses_to_zero() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Pact, 4, 4));
        lq.set_alpha(0.002);
        lq.step_alpha(10.0, 10.0);
        assert!(lq.alpha() >= 1e-3);
    }

    #[test]
    fn dorefa_act_backward_masks_out_of_range() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Dorefa, 4, 4));
        let x = Tensor::from_vec(vec![-0.5, 0.5, 1.5], &[3]).unwrap();
        let g = Tensor::ones(&[3]);
        assert_eq!(lq.act_backward(&g, &x).as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn zero_bit_rung_prunes_the_layer() {
        let x = Tensor::from_vec(vec![-1.0, 0.5, 3.0], &[3]).unwrap();
        let g = Tensor::ones(&[3]);
        for policy in PolicyKind::ALL {
            let mut lq = LayerQuant::new(QuantSpec::new(policy, BitWidth::ZERO, BitWidth::ZERO));
            assert_eq!(lq.quantize_weights(&x).as_slice(), &[0.0; 3], "{policy}");
            assert_eq!(lq.quantize_acts(&x).as_slice(), &[0.0; 3], "{policy}");
            assert_eq!(lq.weight_backward(&x, g.clone()).as_slice(), &[0.0; 3]);
            assert_eq!(lq.act_backward(&g, &x).as_slice(), &[0.0; 3]);
            let mask = lq.weight_grad_mask(&x).expect("pruned mask");
            assert_eq!(mask.as_slice(), &[0.0; 3], "{policy}");
        }
    }

    #[test]
    fn lsq_weight_backward_accumulates_and_steps() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Lsq, 4, 4));
        let w = Init::Normal {
            mean: 0.0,
            std: 0.5,
        }
        .sample(&[64], &mut rng(21));
        // First backward lazily calibrates the step.
        assert!(lq.weight_step() <= 0.0);
        let g = Tensor::ones(&[64]);
        let _ = lq.weight_backward(&w, g.clone());
        let s0 = lq.weight_step();
        assert!(s0 > 0.0, "step should be calibrated");
        // Stepping with a nonzero gradient moves the step.
        let _ = lq.weight_backward(&w, g);
        lq.step_alpha(0.1, 0.0);
        assert_ne!(lq.weight_step(), s0);
        assert!(lq.weight_step() > 0.0);
    }

    #[test]
    fn lsq_act_backward_learns_step() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Lsq, 4, 4));
        let x = Init::Uniform { lo: 0.0, hi: 2.0 }.sample(&[128], &mut rng(22));
        let q = lq.quantize_acts(&x);
        assert!(q.all_finite());
        let g = Tensor::ones(&[128]);
        let _ = lq.act_backward(&g, &x);
        assert!(lq.act_step() > 0.0);
        let s0 = lq.act_step();
        lq.step_alpha(0.05, 0.0);
        assert_ne!(lq.act_step(), s0);
    }

    #[test]
    fn lsq_quantized_values_lie_on_learned_grid() {
        let mut lq = LayerQuant::new(spec(PolicyKind::Lsq, 3, 3));
        lq.set_weight_step(0.25);
        let w = Init::Normal {
            mean: 0.0,
            std: 0.6,
        }
        .sample(&[64], &mut rng(23));
        let q = lq.quantize_weights(&w);
        for &v in q.as_slice() {
            let steps = v / 0.25;
            assert!((steps - steps.round()).abs() < 1e-4, "{v} off grid");
        }
    }
}
