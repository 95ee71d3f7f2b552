//! The network wrapper: traversal, state visits, quantization plumbing.

use crate::layer::{Layer, Mode, PackedExec, QuantHandle, StateTag};
use crate::layers::Sequential;
use crate::layout::{to_chwn, to_nchw};
use crate::{scratch, NnError, Param, Result};
use ccq_quant::QuantSpec;
use ccq_tensor::Tensor;

/// What [`Network::pack_weights`] did to one quantizable layer, in
/// traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackOutcome {
    /// The layer's unique label.
    pub label: String,
    /// Number of weight scalars.
    pub weight_count: usize,
    /// Packed width in bits (`0` = pruned), or `None` when the layer
    /// could not be packed (full precision or an unsupported policy)
    /// and stays in `f32`.
    pub bits: Option<u32>,
    /// Bytes of the packed integer payload (`0` when unpacked/pruned).
    pub packed_bytes: usize,
}

/// Descriptive summary of one quantizable layer, as reported by
/// [`Network::quant_layer_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantLayerInfo {
    /// Position in traversal order (CCQ's layer index `m`).
    pub index: usize,
    /// Unique label, e.g. `"stage2.block0.conv1"`.
    pub label: String,
    /// Number of weight scalars.
    pub weight_count: usize,
    /// Per-sample MAC count (0 until the first forward pass).
    pub macs: u64,
    /// Current quantization spec.
    pub spec: QuantSpec,
}

/// A trainable network: a root [`Sequential`] plus traversal helpers.
///
/// The traversal order of [`Network::visit_quant`] defines CCQ's layer
/// indexing: index 0 is the first (stem) layer, the last index is the
/// classifier head.
///
/// Networks are `Clone`: parallel evaluation and competition probing
/// run worker clones so the original's state is never raced.
///
/// # Generation counter
///
/// Every network carries a monotonically increasing *generation*: any
/// operation that can change what an `Eval`-mode forward pass computes
/// from a given input — parameter or state-tensor mutation, a backward
/// pass, a `Train`-mode forward (batch-norm running stats), a checkpoint
/// apply — bumps it. Quantization-spec changes deliberately do **not**
/// bump it: a competition probe flips one layer's spec and the cached
/// activations *upstream* of that layer stay exact (each layer
/// quantizes its own input and weights internally). The
/// [`crate::cache::ActivationCache`] records the generation at fill
/// time and refuses to serve a network whose generation has moved.
#[derive(Clone)]
pub struct Network {
    root: Sequential,
    generation: u64,
    /// Generation and spec fingerprint recorded by the last
    /// [`Network::pack_weights`] / [`Network::mark_packed`]; `None`
    /// until then. [`Network::forward_packed`] refuses to run when
    /// either has drifted.
    packed_at: Option<(u64, Vec<QuantSpec>)>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network").field("root", &self.root).finish()
    }
}

impl Network {
    /// Wraps a sequential graph as a network.
    pub fn new(root: Sequential) -> Self {
        Network {
            root,
            generation: 0,
            packed_at: None,
        }
    }

    /// The mutation generation — see the type-level docs. Two calls
    /// returning the same value bracket a window in which every
    /// `Eval`-mode forward was a pure function of its input and the
    /// (unchanged) weights.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Runs the forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            // Train-mode forwards fold the batch into batch-norm running
            // statistics and PACT activation observers.
            self.generation += 1;
        }
        self.root.forward(x, mode)
    }

    /// Runs the backward pass, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns an error when no train-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        self.generation += 1;
        self.root.backward(grad_out)
    }

    /// Number of top-level segments (direct children of the root
    /// [`Sequential`]) — the boundaries at which
    /// [`crate::cache::ActivationCache`] records activations.
    pub fn segment_count(&self) -> usize {
        self.root.len()
    }

    /// Runs an `Eval`-mode forward starting at top-level segment
    /// `segment`, feeding `x` as that segment's input. `segment == 0` is
    /// a plain full forward.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `segment` is out of
    /// range; otherwise propagates layer shape errors.
    pub fn forward_from(&mut self, segment: usize, x: &Tensor) -> Result<Tensor> {
        if segment > self.root.len() {
            return Err(NnError::InvalidConfig(format!(
                "forward_from segment {segment} out of range ({} segments)",
                self.root.len()
            )));
        }
        self.root.forward_from(segment, x, Mode::Eval)
    }

    /// Runs an `Eval`-mode forward, calling `record(s, out)` with the
    /// output of each top-level segment `s` as it is produced (the
    /// input of segment `s + 1`). The cache-fill traversal.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_recording(
        &mut self,
        x: &Tensor,
        record: &mut dyn FnMut(usize, &Tensor),
    ) -> Result<Tensor> {
        self.root.forward_recording(x, Mode::Eval, record)
    }

    /// Clones only the top-level segments `[start, segment_count())`
    /// into a standalone network (the probe workers' *tail clone*: a
    /// probe re-runs from its layer's segment on, so upstream segments
    /// never need to be copied). The clone inherits this network's
    /// generation, so an [`crate::cache::ActivationCache`] filled from
    /// the original serves the tail as well.
    pub fn clone_tail(&self, start: usize) -> Network {
        Network {
            root: self.root.clone_tail(start),
            generation: self.generation,
            // Tail clones drop any packed state: the slot indices no
            // longer line up with the full network's fingerprint.
            packed_at: None,
        }
    }

    /// Number of quantizable layers inside each top-level segment, in
    /// traversal order (`sum == quant_layer_count()`).
    pub fn segment_quant_counts(&mut self) -> Vec<usize> {
        self.root.child_quant_counts()
    }

    /// Clears every parameter gradient and every quantizer's `α` and LSQ
    /// step gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
        self.visit_quant(&mut |h| h.quant.zero_grad());
    }

    /// Visits every learnable parameter in deterministic order.
    ///
    /// Conservatively bumps the generation: callers get `&mut Param`
    /// and the optimizer path mutates through exactly this hook.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.generation += 1;
        self.root.visit_params(f);
    }

    /// Visits every quantizable layer in deterministic order.
    pub fn visit_quant(&mut self, f: &mut dyn FnMut(QuantHandle<'_>)) {
        self.root.visit_quant(f);
    }

    /// Number of quantizable layers (`M` in the paper).
    pub fn quant_layer_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_quant(&mut |_| n += 1);
        n
    }

    /// Total number of learnable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Summaries of every quantizable layer, in traversal order.
    pub fn quant_layer_info(&mut self) -> Vec<QuantLayerInfo> {
        let mut out = Vec::new();
        let mut index = 0;
        self.visit_quant(&mut |h| {
            out.push(QuantLayerInfo {
                index,
                label: h.label.to_string(),
                weight_count: h.weight_count,
                macs: h.macs,
                spec: h.quant.spec(),
            });
            index += 1;
        });
        out
    }

    /// The quantization spec of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn quant_spec(&mut self, index: usize) -> QuantSpec {
        let mut spec = None;
        let mut i = 0;
        self.visit_quant(&mut |h| {
            if i == index {
                spec = Some(h.quant.spec());
            }
            i += 1;
        });
        // ccq-lint: allow(panic-surface) — documented panicking accessor; `# Panics` covers the index
        spec.unwrap_or_else(|| panic!("quant layer index {index} out of range ({i} layers)"))
    }

    /// Replaces the quantization spec of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn set_quant_spec(&mut self, index: usize, spec: QuantSpec) {
        let mut hit = false;
        let mut i = 0;
        self.visit_quant(&mut |h| {
            if i == index {
                h.quant.set_spec(spec);
                hit = true;
            }
            i += 1;
        });
        assert!(hit, "quant layer index {index} out of range ({i} layers)");
    }

    /// Applies one spec to *every* quantizable layer (uniform-precision
    /// baselines and CCQ's ladder initialization).
    pub fn set_all_quant_specs(&mut self, spec: QuantSpec) {
        self.visit_quant(&mut |h| h.quant.set_spec(spec));
    }

    /// Visits every state tensor (parameters plus batch-norm running
    /// statistics) in deterministic order — the set a
    /// [`crate::checkpoint::Checkpoint`] captures — each with a
    /// [`StateTag`] distinguishing quantized shadow weights from
    /// everything else.
    ///
    /// Conservatively bumps the generation (callers get `&mut Tensor`).
    pub fn visit_state_tensors(&mut self, f: &mut dyn FnMut(StateTag, &mut Tensor)) {
        self.generation += 1;
        self.root.visit_state(f);
    }

    /// Whether every state tensor (parameters and batch-norm running
    /// statistics) holds only finite values — the divergence sentinel's
    /// post-recovery health check.
    pub fn all_finite(&mut self) -> bool {
        let mut ok = true;
        self.visit_state_tensors(&mut |_, t| ok &= t.all_finite());
        ok
    }

    /// Packs every quantizable layer's weights into integer codes and
    /// installs them in the layers' packed slots, returning what
    /// happened per layer. Layers without a packable grid (full
    /// precision, or a policy without a symmetric scale) keep `f32`
    /// weights and fall back to the fake-quant path in
    /// [`Network::forward_packed`].
    pub fn pack_weights(&mut self) -> Vec<PackOutcome> {
        let mut out = Vec::new();
        self.root.visit_quant(&mut |h| {
            let packed = h.quant.pack_weights(&h.weight.value);
            let (bits, packed_bytes) = match &packed {
                Some(p) => (Some(p.bits()), p.byte_len()),
                None => (None, 0),
            };
            out.push(PackOutcome {
                label: h.label.to_string(),
                weight_count: h.weight_count,
                bits,
                packed_bytes,
            });
            *h.packed = packed;
        });
        self.mark_packed();
        out
    }

    /// Declares the currently installed packed slots current: records
    /// the generation and spec fingerprint that
    /// [`Network::forward_packed`] validates. [`Network::pack_weights`]
    /// calls this itself; call it directly only after installing
    /// externally deserialized packed weights through
    /// [`Network::visit_quant`] (the packed-artifact loader does).
    pub fn mark_packed(&mut self) {
        let mut specs = Vec::new();
        self.root.visit_quant(&mut |h| specs.push(h.quant.spec()));
        self.packed_at = Some((self.generation, specs));
    }

    /// Whether packed weights are installed and marked current.
    pub fn is_packed(&self) -> bool {
        self.packed_at.is_some()
    }

    /// Runs a packed forward pass (inference only; does not bump the
    /// generation, like an `Eval`-mode [`Network::forward`]).
    ///
    /// A rank-4 input is NCHW, as for [`Network::forward`]; the layers
    /// see it batch-innermost, `[c, h, w, n]`, converted once into a
    /// buffer from the thread's packed-forward free list, and a rank-4
    /// output is converted back to NCHW once at the end (see
    /// [`Layer::forward_packed`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when [`Network::pack_weights`]
    /// has not run, [`NnError::StalePack`] when the network mutated or a
    /// quant spec changed since packing, and layer shape errors
    /// otherwise.
    pub fn forward_packed(&mut self, x: &Tensor, exec: PackedExec) -> Result<Tensor> {
        let (packed_generation, fingerprint) = match &self.packed_at {
            Some((g, f)) => (*g, f),
            None => {
                return Err(NnError::InvalidConfig(
                    "forward_packed before pack_weights".into(),
                ))
            }
        };
        if packed_generation != self.generation {
            return Err(NnError::StalePack {
                packed_generation,
                net_generation: self.generation,
            });
        }
        let mut i = 0;
        let mut drift = false;
        self.root.visit_quant(&mut |h| {
            if fingerprint.get(i) != Some(&h.quant.spec()) {
                drift = true;
            }
            i += 1;
        });
        if drift || i != fingerprint.len() {
            return Err(NnError::StalePack {
                packed_generation,
                net_generation: self.generation,
            });
        }
        if x.rank() != 4 {
            return self.root.forward_packed(x, exec);
        }
        let buf = scratch::with_scratch(|s| s.take_buffer(x.len()));
        let y = self.root.forward_packed_owned(to_chwn(x, buf)?, exec)?;
        if y.rank() != 4 {
            return Ok(y);
        }
        let out = to_nchw(&y)?;
        scratch::recycle(y);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu};
    use ccq_quant::{BitWidth, PolicyKind};
    use ccq_tensor::rng;

    fn net() -> Network {
        let mut r = rng(0);
        let spec = QuantSpec::full_precision(PolicyKind::Pact);
        Network::new(Sequential::new(vec![
            Box::new(QLinear::new("fc1", 3, 4, spec, &mut r)),
            Box::new(Relu::new()),
            Box::new(QLinear::new("fc2", 4, 2, spec, &mut r)),
        ]))
    }

    #[test]
    fn counts_layers_and_params() {
        let mut n = net();
        assert_eq!(n.quant_layer_count(), 2);
        // fc1: 12 + 4, fc2: 8 + 2.
        assert_eq!(n.param_count(), 26);
    }

    #[test]
    fn quant_layer_info_is_ordered() {
        let mut n = net();
        let info = n.quant_layer_info();
        assert_eq!(info.len(), 2);
        assert_eq!(info[0].label, "fc1");
        assert_eq!(info[1].label, "fc2");
        assert_eq!(info[0].index, 0);
        assert_eq!(info[0].weight_count, 12);
    }

    #[test]
    fn set_quant_spec_targets_one_layer() {
        let mut n = net();
        let q = QuantSpec::new(PolicyKind::Pact, BitWidth::of(4), BitWidth::of(4));
        n.set_quant_spec(1, q);
        assert_eq!(n.quant_spec(1), q);
        assert!(n.quant_spec(0).is_full_precision());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_quant_spec_panics_out_of_range() {
        let mut n = net();
        n.set_quant_spec(5, QuantSpec::full_precision(PolicyKind::Pact));
    }

    #[test]
    fn packed_dequant_forward_is_bit_exact() {
        let mut n = net();
        let q = QuantSpec::new(PolicyKind::Pact, BitWidth::of(4), BitWidth::of(4));
        n.set_all_quant_specs(q);
        let x = Tensor::ones(&[2, 3]);
        let fake = n.forward(&x, Mode::Eval).unwrap();
        let outcomes = n.pack_weights();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.bits == Some(4)));
        assert!(outcomes.iter().all(|o| o.packed_bytes > 0));
        let packed = n.forward_packed(&x, PackedExec::Dequant).unwrap();
        assert_eq!(fake.as_slice(), packed.as_slice());
    }

    #[test]
    fn packed_integer_forward_is_close() {
        let mut n = net();
        let q = QuantSpec::new(PolicyKind::MaxAbs, BitWidth::of(8), BitWidth::of(8));
        n.set_all_quant_specs(q);
        let x = Tensor::ones(&[2, 3]);
        let fake = n.forward(&x, Mode::Eval).unwrap();
        n.pack_weights();
        let packed = n.forward_packed(&x, PackedExec::Integer).unwrap();
        for (a, b) in fake.as_slice().iter().zip(packed.as_slice()) {
            assert!((a - b).abs() <= 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_packed_requires_pack() {
        let mut n = net();
        let x = Tensor::ones(&[1, 3]);
        assert!(matches!(
            n.forward_packed(&x, PackedExec::Dequant),
            Err(NnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn forward_packed_detects_mutation() {
        let mut n = net();
        n.pack_weights();
        n.visit_params(&mut |p| p.value.map_in_place(|v| v + 1.0));
        let x = Tensor::ones(&[1, 3]);
        assert!(matches!(
            n.forward_packed(&x, PackedExec::Dequant),
            Err(NnError::StalePack { .. })
        ));
    }

    #[test]
    fn forward_packed_detects_spec_drift() {
        let mut n = net();
        n.pack_weights();
        // Spec flips do not bump the generation, so this exercises the
        // fingerprint check specifically.
        let gen = n.generation();
        n.set_quant_spec(
            0,
            QuantSpec::new(PolicyKind::Pact, BitWidth::of(2), BitWidth::of(2)),
        );
        assert_eq!(n.generation(), gen);
        let x = Tensor::ones(&[1, 3]);
        match n.forward_packed(&x, PackedExec::Dequant) {
            Err(NnError::StalePack {
                packed_generation,
                net_generation,
            }) => assert_eq!(packed_generation, net_generation),
            other => panic!("expected StalePack, got {other:?}"),
        }
    }

    #[test]
    fn tagged_state_visit_marks_quant_weights() {
        let mut n = net();
        let mut tags = Vec::new();
        n.visit_state_tensors(&mut |tag, t| tags.push((tag, t.len())));
        // fc1 weight, fc1 bias, fc2 weight, fc2 bias.
        assert_eq!(
            tags,
            vec![
                (StateTag::QuantWeight, 12),
                (StateTag::Other, 4),
                (StateTag::QuantWeight, 8),
                (StateTag::Other, 2),
            ]
        );
    }

    #[test]
    fn set_all_quant_specs_applies_everywhere() {
        let mut n = net();
        let q = QuantSpec::new(PolicyKind::Dorefa, BitWidth::of(8), BitWidth::of(8));
        n.set_all_quant_specs(q);
        for info in n.quant_layer_info() {
            assert_eq!(info.spec, q);
        }
    }
}
