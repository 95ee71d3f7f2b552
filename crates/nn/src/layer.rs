//! The layer trait and traversal handles.

use crate::{Param, Result};
use ccq_quant::{LayerQuant, PackedWeights};
use ccq_tensor::Tensor;

/// Forward-pass mode.
///
/// `Train` caches activations for the backward pass and uses batch
/// statistics in normalization layers; `Eval` uses running statistics and
/// is what CCQ's competition probes run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: batch statistics, caches kept for backward.
    Train,
    /// Inference: running statistics, backward not available.
    Eval,
}

/// How a packed forward pass executes quantized layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackedExec {
    /// Reconstruct the fake-quant weight tensor from the packed codes
    /// (bit-exact) and run the ordinary f32 kernels. The whole-network
    /// output is f32-identical to an `Eval`-mode fake-quant forward.
    Dequant,
    /// True integer execution: integer activation codes × integer weight
    /// codes accumulate in `i32`, with one f32 rescale at the layer
    /// boundary. Agrees with fake-quant up to accumulation-order
    /// rounding (the differential tests pin the bound).
    Integer,
}

/// What a tensor yielded by [`Layer::visit_state_tagged`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateTag {
    /// The shadow weight tensor of a quantized layer — exactly the
    /// tensors that a packed artifact stores as integer codes. Yielded
    /// in the same layer order as [`Layer::visit_quant`].
    QuantWeight,
    /// Any other state (biases, batch-norm parameters and running
    /// statistics) — stored as plain `f32` in a packed artifact.
    Other,
}

/// A mutable view of one quantizable layer, yielded by
/// [`Layer::visit_quant`].
///
/// This is the interface CCQ's competition manipulates: it can read the
/// layer's identity and size, and rewrite its [`ccq_quant::QuantSpec`]
/// through `quant`.
#[derive(Debug)]
pub struct QuantHandle<'a> {
    /// Human-readable unique layer label (e.g. `"stage2.block0.conv1"`).
    pub label: &'a str,
    /// Number of weight scalars in the layer (bias excluded, matching the
    /// paper's model-size accounting).
    pub weight_count: usize,
    /// Per-sample multiply-accumulate count, available after the first
    /// forward pass (zero before).
    pub macs: u64,
    /// The layer's quantization state.
    pub quant: &'a mut LayerQuant,
    /// The layer's weight parameter (shadow weights plus accumulated
    /// gradient) — Hessian-probe baselines perturb and read these.
    pub weight: &'a mut Param,
    /// The layer's packed-weight slot: `Some` after a
    /// [`crate::Network::pack_weights`] call installed integer codes,
    /// consumed by [`Layer::forward_packed`].
    pub packed: &'a mut Option<PackedWeights>,
}

/// Object-safe cloning for boxed layers; blanket-implemented for every
/// `Clone` layer so `Box<dyn Layer>` (and with it [`crate::Network`])
/// is cloneable. Parallel evaluation and competition probing run on
/// cloned networks, which is why [`Layer`] also requires `Send + Sync`.
pub trait LayerClone {
    /// Clones the layer behind the trait object.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A differentiable network layer.
///
/// Layers own their parameters and the caches their backward pass needs.
/// `backward` must be called after a `Train`-mode `forward` with the
/// gradient of the loss w.r.t. the layer output, and returns the gradient
/// w.r.t. the layer input while accumulating parameter gradients.
pub trait Layer: LayerClone + Send + Sync {
    /// Runs the layer on `x`, caching intermediates when `mode` is
    /// [`Mode::Train`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] when `x` has an incompatible shape.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates `grad_out` backwards, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when no train-mode
    /// forward preceded this call, or a tensor error on shape mismatch.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// Visits every learnable parameter (depth-first, deterministic order).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every quantizable sub-layer (depth-first, deterministic
    /// order). The default is a no-op for layers without weights.
    fn visit_quant(&mut self, _f: &mut dyn FnMut(QuantHandle<'_>)) {}

    /// Visits every state tensor that a snapshot must capture: parameters
    /// *plus* non-learnable state such as batch-norm running statistics.
    /// The default visits only parameters.
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_params(&mut |p| f(&mut p.value));
    }

    /// Like [`Layer::visit_state`] — same tensors, same order — but each
    /// tensor carries a [`StateTag`] so packed serialization can replace
    /// quantized shadow weights with integer codes and keep the rest as
    /// `f32`. The default tags everything [`StateTag::Other`]; layers
    /// with quantized weights and composites override it.
    fn visit_state_tagged(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        self.visit_state(&mut |t| f(StateTag::Other, t));
    }

    /// Runs the layer on `x` using its packed integer weights when a
    /// [`crate::Network::pack_weights`] call installed them. Layers
    /// without packed state (no weights, unsupported policy, or not yet
    /// packed) fall back to an `Eval`-mode fake-quant forward, which
    /// keeps whole-network agreement intact.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] on incompatible input shapes.
    fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let _ = exec;
        self.forward(x, Mode::Eval)
    }

    /// [`Layer::forward_packed`] on an input the caller no longer needs.
    /// Layers whose packed forward is elementwise (batch-norm, ReLU)
    /// overwrite `x` and return it instead of allocating an output; the
    /// default runs [`Layer::forward_packed`] on it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] on incompatible input shapes.
    fn forward_packed_owned(&mut self, x: Tensor, exec: PackedExec) -> Result<Tensor> {
        self.forward_packed(&x, exec)
    }

    /// A short human-readable layer name for diagnostics.
    fn name(&self) -> &str;
}
