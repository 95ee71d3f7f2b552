//! Capturing, applying, and instantiating packed models.

use crate::{arch, InferError, Result};
use ccq_nn::checkpoint::Checkpoint;
use ccq_nn::{Network, StateTag};
use ccq_quant::{PackedWeights, QuantSpec};
use ccq_tensor::Tensor;

/// One quantizable layer's weight storage inside a [`PackedModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum LayerPayload {
    /// Integer grid codes plus decoding grid — the low-bit deployable
    /// form (a pruned layer is `Packed` at 0 bits with no payload
    /// bytes).
    Packed(PackedWeights),
    /// Plain `f32` shadow weights: the layer is full precision or its
    /// policy has no packable symmetric grid, so it executes through the
    /// ordinary fake-quant path.
    Shadow(Tensor),
}

/// One quantizable layer of a [`PackedModel`], in network traversal
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLayer {
    /// The layer's unique label (validated against the target network).
    pub label: String,
    /// The layer's quantization spec at capture time.
    pub spec: QuantSpec,
    /// The learned PACT clip `α`.
    pub alpha: f32,
    /// The LSQ weight step size.
    pub weight_step: f32,
    /// The LSQ activation step size.
    pub act_step: f32,
    /// The weight storage.
    pub payload: LayerPayload,
}

impl PackedLayer {
    /// Bytes this layer's weights occupy in the artifact payload:
    /// packed code bytes, or `4 × count` for `f32` shadow weights.
    pub fn payload_bytes(&self) -> usize {
        match &self.payload {
            LayerPayload::Packed(p) => p.byte_len(),
            LayerPayload::Shadow(t) => t.len() * 4,
        }
    }
}

/// A deployable packed network: everything needed to run packed
/// inference on a machine that has only this artifact.
///
/// A `PackedModel` stores the architecture string (see [`crate::arch`]),
/// each quantizable layer's integer weight codes (or `f32` fallback),
/// and every other state tensor (biases, batch-norm parameters and
/// running statistics) in plain `f32`. [`PackedModel::instantiate`]
/// rebuilds a ready-to-run [`Network`] with packed weights installed.
///
/// # Example
///
/// ```
/// use ccq_infer::PackedModel;
/// use ccq_nn::PackedExec;
/// # use ccq_models::mlp;
/// # use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
/// # use ccq_tensor::Tensor;
/// # let mut net = mlp(&[4, 8, 2], PolicyKind::MaxAbs, 7);
/// # net.set_all_quant_specs(QuantSpec::new(
/// #     PolicyKind::MaxAbs, BitWidth::of(4), BitWidth::of(4)));
/// let model = PackedModel::capture(&mut net, "mlp:4x8x2")?;
/// let mut deployed = model.instantiate()?;
/// let y = deployed.forward_packed(&Tensor::ones(&[1, 4]), PackedExec::Dequant)?;
/// # assert_eq!(y.shape(), &[1, 2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModel {
    pub(crate) arch: String,
    pub(crate) layers: Vec<PackedLayer>,
    pub(crate) state: Vec<Tensor>,
}

impl PackedModel {
    /// Packs a live network into a deployable model. `arch` must be the
    /// architecture string that rebuilds this network's structure (see
    /// [`crate::arch`]); it is validated by rebuilding and comparing
    /// layer labels.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::Mismatch`] when `arch` does not rebuild a
    /// network with the same quantizable layers, and
    /// [`InferError::PackFormat`] when `arch` itself is malformed.
    pub fn capture(net: &mut Network, arch: &str) -> Result<Self> {
        let mut layers = Vec::new();
        net.visit_quant(&mut |h| {
            let payload = match h.quant.pack_weights(&h.weight.value) {
                Some(p) => LayerPayload::Packed(p),
                None => LayerPayload::Shadow(h.weight.value.clone()),
            };
            layers.push(PackedLayer {
                label: h.label.to_string(),
                spec: h.quant.spec(),
                alpha: h.quant.alpha(),
                weight_step: h.quant.weight_step(),
                act_step: h.quant.act_step(),
                payload,
            });
        });
        let mut state = Vec::new();
        net.visit_state_tensors(&mut |tag, t| {
            if tag == StateTag::Other {
                state.push(t.clone());
            }
        });
        let model = PackedModel {
            arch: arch.to_string(),
            layers,
            state,
        };
        // Validate the arch string against the live structure now, at
        // pack time, rather than at deploy time on another machine.
        let mut rebuilt = arch::build(arch)?;
        model.check_structure(&mut rebuilt)?;
        Ok(model)
    }

    /// Packs a network checkpoint: rebuilds the architecture, applies
    /// the checkpoint, and captures. The convenient path from a
    /// `CCQCKPT` file to a `CCQPACK` artifact.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackFormat`] on a malformed `arch`,
    /// [`InferError::Net`] when the checkpoint does not fit the rebuilt
    /// network, and [`InferError::Mismatch`] on a structural mismatch.
    pub fn from_checkpoint(ckpt: &Checkpoint, arch: &str) -> Result<Self> {
        let mut net = arch::build(arch)?;
        ckpt.apply(&mut net)?;
        Self::capture(&mut net, arch)
    }

    /// The architecture string.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// The packed layers, in network traversal order.
    pub fn layers(&self) -> &[PackedLayer] {
        &self.layers
    }

    /// Total artifact weight-payload bytes (packed codes plus `f32`
    /// fallbacks; excludes biases/batch-norm state and framing).
    pub fn payload_bytes(&self) -> usize {
        self.layers.iter().map(PackedLayer::payload_bytes).sum()
    }

    /// Validates that `net` structurally matches this model without
    /// mutating anything observable.
    fn check_structure(&self, net: &mut Network) -> Result<()> {
        if net.quant_layer_count() != self.layers.len() {
            return Err(InferError::Mismatch(format!(
                "network has {} quantizable layers, artifact has {}",
                net.quant_layer_count(),
                self.layers.len()
            )));
        }
        let mut mismatch = None;
        let mut i = 0;
        net.visit_quant(&mut |h| {
            let layer = &self.layers[i];
            let shape = match &layer.payload {
                LayerPayload::Packed(p) => p.shape(),
                LayerPayload::Shadow(t) => t.shape(),
            };
            if h.label != layer.label {
                mismatch.get_or_insert(format!(
                    "layer {i}: network label '{}' != artifact label '{}'",
                    h.label, layer.label
                ));
            } else if h.weight.value.shape() != shape {
                mismatch.get_or_insert(format!(
                    "layer '{}': network weight shape {:?} != artifact {:?}",
                    layer.label,
                    h.weight.value.shape(),
                    shape
                ));
            }
            i += 1;
        });
        if let Some(msg) = mismatch {
            return Err(InferError::Mismatch(msg));
        }
        Ok(())
    }

    /// Applies the model to a structurally identical network: installs
    /// quantization specs, `α`/step values, state tensors, and the
    /// packed weight codes, leaving the network ready for
    /// [`Network::forward_packed`].
    ///
    /// Packed layers' shadow weights are set to the **dequantized**
    /// grid values, but execution must go through the packed path: the
    /// packed codes are installed verbatim (not re-derived), which is
    /// what keeps statistics-dependent policies such as SAWB/ACIQ on
    /// the grid computed from the original training-time weights.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::Mismatch`] when the network structure,
    /// labels, or tensor shapes do not match.
    pub fn apply(&self, net: &mut Network) -> Result<()> {
        self.check_structure(net)?;
        let mut state_count = 0;
        net.visit_state_tensors(&mut |tag, _| {
            if tag == StateTag::Other {
                state_count += 1;
            }
        });
        if state_count != self.state.len() {
            return Err(InferError::Mismatch(format!(
                "network has {state_count} non-weight state tensors, artifact has {}",
                self.state.len()
            )));
        }
        let mut shape_err = None;
        let mut i = 0;
        net.visit_state_tensors(&mut |tag, t| {
            if tag == StateTag::Other {
                if t.shape() == self.state[i].shape() {
                    *t = self.state[i].clone();
                } else {
                    shape_err.get_or_insert(format!(
                        "state tensor {i}: network shape {:?} != artifact {:?}",
                        t.shape(),
                        self.state[i].shape()
                    ));
                }
                i += 1;
            }
        });
        if let Some(msg) = shape_err {
            return Err(InferError::Mismatch(msg));
        }
        let mut j = 0;
        net.visit_quant(&mut |h| {
            let layer = &self.layers[j];
            h.quant.set_spec(layer.spec);
            h.quant.set_alpha(layer.alpha);
            h.quant.set_weight_step(layer.weight_step);
            h.quant.set_act_step(layer.act_step);
            match &layer.payload {
                LayerPayload::Packed(p) => {
                    h.weight.value = p.dequantize();
                    *h.packed = Some(p.clone());
                }
                LayerPayload::Shadow(t) => {
                    h.weight.value = t.clone();
                    *h.packed = None;
                }
            }
            j += 1;
        });
        net.mark_packed();
        Ok(())
    }

    /// Deterministic human-readable summary: a header with the
    /// architecture, layer count, payload size, and compression ratio
    /// versus `f32` storage, then one line per layer. The daemon's job
    /// reports and `ccq-report --packed` both print this verbatim.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let weights: usize = self
            .layers
            .iter()
            .map(|l| match &l.payload {
                LayerPayload::Packed(p) => p.len(),
                LayerPayload::Shadow(t) => t.len(),
            })
            .sum();
        let payload = self.payload_bytes();
        let ratio = if payload == 0 {
            1.0
        } else {
            (weights * 4) as f64 / payload as f64
        };
        let mut out = format!(
            "CCQPACK {}: {} layers, {weights} weights, {payload} payload bytes ({ratio:.2}x vs f32)\n",
            self.arch,
            self.layers.len(),
        );
        for l in &self.layers {
            let storage = match &l.payload {
                LayerPayload::Packed(p) if p.bits() == 0 => format!("pruned x {}", p.len()),
                LayerPayload::Packed(p) => format!("int{} x {}", p.bits(), p.len()),
                LayerPayload::Shadow(t) => format!("f32 shadow x {}", t.len()),
            };
            let _ = writeln!(out, "  {}: {storage}, {} bytes", l.label, l.payload_bytes());
        }
        out
    }

    /// Rebuilds the architecture and applies the model: the one-call
    /// deploy path from artifact to runnable network.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackFormat`] on a malformed architecture
    /// string and [`InferError::Mismatch`] when the artifact does not
    /// fit the rebuilt network.
    pub fn instantiate(&self) -> Result<Network> {
        let mut net = arch::build(&self.arch)?;
        self.apply(&mut net)?;
        Ok(net)
    }
}
