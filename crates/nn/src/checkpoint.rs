//! Checkpointing: persist a trained (and possibly quantized) network.
//!
//! A checkpoint captures everything [`Network::snapshot`] captures —
//! parameter tensors, batch-norm running statistics, PACT `α` values —
//! *plus* every layer's [`ccq_quant::QuantSpec`], so a mixed-precision
//! assignment produced by CCQ can be saved and reloaded into a freshly
//! built network of the same architecture.
//!
//! The format is a self-contained little-endian binary layout (magic,
//! version, then length-prefixed sections) read and written through
//! [`ccq_tensor::codec`], so checkpoints are portable across platforms.

use crate::{Network, NnError, Result};
use ccq_quant::QuantSpec;
use ccq_tensor::codec::{self, Decode, Encode, Reader};
use ccq_tensor::Tensor;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQCKPT";
const VERSION: u8 = 1;

/// A serializable network checkpoint.
///
/// # Example
///
/// ```
/// use ccq_nn::checkpoint::Checkpoint;
/// # use ccq_nn::layers::{QLinear, Sequential};
/// # use ccq_nn::Network;
/// # use ccq_quant::{PolicyKind, QuantSpec};
/// # let mut rng = ccq_tensor::rng(0);
/// # let mut net = Network::new(Sequential::new(vec![Box::new(QLinear::new(
/// #     "fc", 2, 2, QuantSpec::full_precision(PolicyKind::Pact), &mut rng))]));
/// let ckpt = Checkpoint::capture(&mut net);
/// let bytes = ckpt.to_bytes();
/// let restored = Checkpoint::from_bytes(&bytes)?;
/// restored.apply(&mut net)?;
/// # Ok::<(), ccq_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    tensors: Vec<Tensor>,
    alphas: Vec<f32>,
    weight_steps: Vec<f32>,
    act_steps: Vec<f32>,
    specs: Vec<QuantSpec>,
}

impl Checkpoint {
    /// Captures the full state of a network.
    pub fn capture(net: &mut Network) -> Self {
        let mut tensors = Vec::new();
        let mut alphas = Vec::new();
        let mut weight_steps = Vec::new();
        let mut act_steps = Vec::new();
        let mut specs = Vec::new();
        net.visit_state_tensors(&mut |t| tensors.push(t.clone()));
        net.visit_quant(&mut |h| {
            alphas.push(h.quant.alpha());
            weight_steps.push(h.quant.weight_step());
            act_steps.push(h.quant.act_step());
            specs.push(h.quant.spec());
        });
        Checkpoint {
            tensors,
            alphas,
            weight_steps,
            act_steps,
            specs,
        }
    }

    /// Applies the checkpoint to a structurally identical network: state
    /// tensors, `α` values, and quantization specs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::StateMismatch`] when the network structure does
    /// not match.
    pub fn apply(&self, net: &mut Network) -> Result<()> {
        let mut count = 0;
        net.visit_state_tensors(&mut |_| count += 1);
        if count != self.tensors.len() {
            return Err(NnError::StateMismatch {
                expected: count,
                actual: self.tensors.len(),
            });
        }
        if net.quant_layer_count() != self.specs.len() {
            return Err(NnError::StateMismatch {
                expected: net.quant_layer_count(),
                actual: self.specs.len(),
            });
        }
        let mut i = 0;
        let mut shape_ok = true;
        net.visit_state_tensors(&mut |t| {
            if t.shape() == self.tensors[i].shape() {
                *t = self.tensors[i].clone();
            } else {
                shape_ok = false;
            }
            i += 1;
        });
        if !shape_ok {
            return Err(NnError::InvalidConfig(
                "checkpoint tensor shapes do not match".into(),
            ));
        }
        let mut j = 0;
        net.visit_quant(&mut |h| {
            h.quant.set_spec(self.specs[j]);
            h.quant.set_alpha(self.alphas[j]);
            h.quant.set_weight_step(self.weight_steps[j]);
            h.quant.set_act_step(self.act_steps[j]);
            j += 1;
        });
        Ok(())
    }

    /// Serializes to the binary checkpoint format: the state tensors,
    /// then one row per quantized layer (spec, `α`, weight step,
    /// activation step).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        self.tensors.encode(&mut out);
        self.specs.len().encode(&mut out);
        for (i, spec) in self.specs.iter().enumerate() {
            spec.encode(&mut out);
            self.alphas[i].encode(&mut out);
            self.weight_steps[i].encode(&mut out);
            self.act_steps[i].encode(&mut out);
        }
        out
    }

    /// Deserializes from the binary checkpoint format.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointFormat`] on a malformed or truncated
    /// buffer, a bad magic, or an unsupported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let r = &mut Reader::new(bytes, "checkpoint");
        r.header(MAGIC, VERSION..=VERSION)?;
        let tensors = Vec::<Tensor>::decode(r)?;
        // A spec row is three u32s and three f32s.
        let n_specs = r.count("spec count", usize::MAX, 24)?;
        let mut ckpt = Checkpoint {
            tensors,
            alphas: Vec::with_capacity(n_specs),
            weight_steps: Vec::with_capacity(n_specs),
            act_steps: Vec::with_capacity(n_specs),
            specs: Vec::with_capacity(n_specs),
        };
        for _ in 0..n_specs {
            ckpt.specs.push(QuantSpec::decode(r)?);
            ckpt.alphas.push(r.f32()?);
            ckpt.weight_steps.push(r.f32()?);
            ckpt.act_steps.push(r.f32()?);
        }
        Ok(ckpt)
    }

    /// Writes the checkpoint to `path` through [`codec::write_atomic`]
    /// (tmp file, fsync, rename, directory fsync). A checkpoint keeps no
    /// `.prev` generation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        Ok(codec::write_atomic(path, &self.to_bytes(), false, false)?)
    }

    /// Loads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a read failure and
    /// [`NnError::CheckpointFormat`] on malformed contents.
    pub fn load_file(path: &Path) -> Result<Self> {
        Checkpoint::from_bytes(&codec::read(path)?)
    }

    /// Number of state tensors captured.
    pub fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    /// The captured per-layer quantization specs.
    pub fn specs(&self) -> &[QuantSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu, Sequential};
    use crate::Mode;
    use ccq_quant::{BitWidth, PolicyKind};
    use ccq_tensor::rng;
    use std::fs;

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
    fn round_trip_preserves_behaviour_and_specs() {
        let mut a = net();
        a.set_quant_spec(
            1,
            QuantSpec::new(PolicyKind::Pact, BitWidth::of(3), BitWidth::of(4)),
        );
        let x = Tensor::ones(&[2, 3]);
        let y_before = a.forward(&x, Mode::Eval).unwrap();

        let bytes = Checkpoint::capture(&mut a).to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();

        let mut b = net(); // different weights until applied
        ckpt.apply(&mut b).unwrap();
        let y_after = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y_before.as_slice(), y_after.as_slice());
        assert_eq!(b.quant_spec(1).weight_bits, BitWidth::of(3));
        assert_eq!(b.quant_spec(1).act_bits, BitWidth::of(4));
    }

    #[test]
    fn save_atomic_round_trips_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("ccq_ckpt_atomic_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("model.ccqckpt");
        let ckpt = Checkpoint::capture(&mut net());
        ckpt.save_atomic(&path).unwrap();
        assert!(!path.with_extension("ccqckpt.tmp").exists());
        assert_eq!(Checkpoint::load_file(&path).unwrap(), ckpt);
        // Overwriting in place is also atomic.
        ckpt.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load_file(&path).unwrap(), ckpt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_magic_and_every_truncation() {
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTCKPT!"),
            Err(NnError::CheckpointFormat(_))
        ));
        let bytes = Checkpoint::capture(&mut net()).to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                matches!(
                    Checkpoint::from_bytes(&bytes[..keep]),
                    Err(NnError::CheckpointFormat(_))
                ),
                "prefix of {keep} bytes must not parse"
            );
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut a = net();
        let mut bytes = Checkpoint::capture(&mut a).to_bytes();
        bytes[7] = 99; // the version byte follows the 7-byte magic
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        match err {
            NnError::CheckpointFormat(msg) => assert!(msg.contains("version 99"), "{msg}"),
            other => panic!("expected CheckpointFormat, got {other:?}"),
        }
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        let mut r = rng(1);
        let mut other = Network::new(Sequential::new(vec![Box::new(QLinear::new(
            "solo",
            3,
            2,
            QuantSpec::full_precision(PolicyKind::Pact),
            &mut r,
        ))]));
        assert!(matches!(
            ckpt.apply(&mut other),
            Err(NnError::StateMismatch { .. })
        ));
    }
}
