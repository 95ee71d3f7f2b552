//! Checkpointing: persist a trained (and possibly quantized) network.
//!
//! A checkpoint captures everything [`Network::snapshot`] captures —
//! parameter tensors, batch-norm running statistics, PACT `α` values —
//! *plus* every layer's [`ccq_quant::QuantSpec`], so a mixed-precision
//! assignment produced by CCQ can be saved and reloaded into a freshly
//! built network of the same architecture.
//!
//! The format is a self-contained little-endian binary layout (magic,
//! version, then length-prefixed sections) written with no external
//! dependencies, so checkpoints are portable across platforms.

use crate::{Network, NnError, Result};
use ccq_quant::{BitWidth, PolicyKind, QuantSpec};
use ccq_tensor::Tensor;
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQCKPT";
const VERSION: u8 = 1;

/// Deterministic one-shot I/O faults for checkpoint file operations
/// (feature `fault-inject`): each scheduled fault fires exactly once,
/// letting tests drive the read/write failure paths without a faulty
/// disk. Interior mutability (`Cell`) mirrors ccq's `FaultPlan` usage —
/// the consumers hold shared references.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Default)]
pub struct CkptFaults {
    read_failures: std::cell::Cell<usize>,
    read_corruptions: std::cell::Cell<usize>,
    dir_sync_failures: std::cell::Cell<usize>,
}

#[cfg(feature = "fault-inject")]
impl CkptFaults {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        CkptFaults::default()
    }

    /// Makes the next `n` checkpoint file reads fail (builder style).
    pub fn fail_reads(self, n: usize) -> Self {
        self.read_failures.set(self.read_failures.get() + n);
        self
    }

    /// Makes the next `n` checkpoint file reads observe one corrupted
    /// mid-file byte (builder style).
    pub fn corrupt_reads(self, n: usize) -> Self {
        self.read_corruptions.set(self.read_corruptions.get() + n);
        self
    }

    /// Makes the next `n` post-rename parent-directory fsyncs fail
    /// (builder style). The rename itself lands first.
    pub fn fail_dir_syncs(self, n: usize) -> Self {
        self.dir_sync_failures.set(self.dir_sync_failures.get() + n);
        self
    }

    /// Whether the next read should fail; consumes one failure.
    pub fn take_read_failure(&self) -> bool {
        take_one(&self.read_failures)
    }

    /// Whether the next read should see corrupted bytes; consumes one.
    pub fn take_read_corruption(&self) -> bool {
        take_one(&self.read_corruptions)
    }

    /// Whether the next directory fsync should fail; consumes one.
    pub fn take_dir_sync_failure(&self) -> bool {
        take_one(&self.dir_sync_failures)
    }

    /// Whether any fault is still pending.
    pub fn exhausted(&self) -> bool {
        self.read_failures.get() == 0
            && self.read_corruptions.get() == 0
            && self.dir_sync_failures.get() == 0
    }
}

#[cfg(feature = "fault-inject")]
fn take_one(cell: &std::cell::Cell<usize>) -> bool {
    let left = cell.get();
    if left > 0 {
        cell.set(left - 1);
        true
    } else {
        false
    }
}

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

    /// Serializes to the binary checkpoint format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        write_u32(&mut out, self.tensors.len() as u32);
        for t in &self.tensors {
            write_u32(&mut out, t.rank() as u32);
            for &d in t.shape() {
                write_u32(&mut out, d as u32);
            }
            for &v in t.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        write_u32(&mut out, self.specs.len() as u32);
        for (i, spec) in self.specs.iter().enumerate() {
            write_u32(&mut out, policy_code(spec.policy));
            write_u32(&mut out, spec.weight_bits.bits());
            write_u32(&mut out, spec.act_bits.bits());
            out.extend_from_slice(&self.alphas[i].to_le_bytes());
            out.extend_from_slice(&self.weight_steps[i].to_le_bytes());
            out.extend_from_slice(&self.act_steps[i].to_le_bytes());
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
        let mut cur = bytes;
        let mut magic = [0u8; 7];
        read_exact(&mut cur, &mut magic)?;
        if &magic != MAGIC {
            return Err(NnError::CheckpointFormat(
                "not a CCQ checkpoint (bad magic)".into(),
            ));
        }
        let mut version = [0u8; 1];
        read_exact(&mut cur, &mut version)?;
        if version[0] != VERSION {
            return Err(NnError::CheckpointFormat(format!(
                "unsupported checkpoint version {} (this build reads version {VERSION})",
                version[0]
            )));
        }
        let n_tensors = read_u32(&mut cur)? as usize;
        if n_tensors > 1 << 24 {
            return Err(NnError::CheckpointFormat("implausible tensor count".into()));
        }
        let mut tensors = Vec::with_capacity(n_tensors);
        for _ in 0..n_tensors {
            let rank = read_u32(&mut cur)? as usize;
            if rank > 8 {
                return Err(NnError::CheckpointFormat("implausible tensor rank".into()));
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(read_u32(&mut cur)? as usize);
            }
            let numel = dims
                .iter()
                .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                .filter(|&numel| numel <= 1 << 28)
                .ok_or_else(|| NnError::CheckpointFormat("implausible tensor size".into()))?;
            let mut data = Vec::with_capacity(numel);
            for _ in 0..numel {
                data.push(read_f32(&mut cur)?);
            }
            tensors.push(
                Tensor::from_vec(data, &dims)
                    .map_err(|e| NnError::CheckpointFormat(e.to_string()))?,
            );
        }
        let n_specs = read_u32(&mut cur)? as usize;
        if n_specs > 1 << 20 {
            return Err(NnError::CheckpointFormat("implausible spec count".into()));
        }
        let mut specs = Vec::with_capacity(n_specs);
        let mut alphas = Vec::with_capacity(n_specs);
        let mut weight_steps = Vec::with_capacity(n_specs);
        let mut act_steps = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            let policy = policy_from_code(read_u32(&mut cur)?)?;
            let wb = bitwidth(read_u32(&mut cur)?)?;
            let ab = bitwidth(read_u32(&mut cur)?)?;
            specs.push(QuantSpec::new(policy, wb, ab));
            alphas.push(read_f32(&mut cur)?);
            weight_steps.push(read_f32(&mut cur)?);
            act_steps.push(read_f32(&mut cur)?);
        }
        Ok(Checkpoint {
            tensors,
            alphas,
            weight_steps,
            act_steps,
            specs,
        })
    }

    /// Writes the checkpoint to a writer (e.g. a file). A `&mut` reference
    /// may be passed for any `W: Write`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a write failure.
    pub fn save<W: Write>(&self, mut writer: W) -> Result<()> {
        writer
            .write_all(&self.to_bytes())
            .map_err(|e| NnError::CheckpointIo(format!("checkpoint write failed: {e}")))
    }

    /// Reads a checkpoint from a reader. A `&mut` reference may be passed
    /// for any `R: Read`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a read failure and
    /// [`NnError::CheckpointFormat`] on a malformed buffer.
    pub fn load<R: Read>(mut reader: R) -> Result<Self> {
        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .map_err(|e| NnError::CheckpointIo(format!("checkpoint read failed: {e}")))?;
        Checkpoint::from_bytes(&buf)
    }

    /// Atomically writes the checkpoint to `path`: the bytes go to
    /// `<path>.tmp`, are fsynced, and renamed into place, then the parent
    /// directory is fsynced so the rename itself survives power loss.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        self.save_atomic_inner(path, false)
    }

    /// [`Checkpoint::save_atomic`] with a fault plan consulted at the
    /// post-rename directory-fsync barrier: an injected failure reports
    /// after the rename lands, exactly like a real barrier failure.
    ///
    /// # Errors
    ///
    /// Same contract as [`Checkpoint::save_atomic`].
    #[cfg(feature = "fault-inject")]
    pub fn save_atomic_with_faults(&self, path: &Path, faults: Option<&CkptFaults>) -> Result<()> {
        let inject = faults.is_some_and(|f| f.take_dir_sync_failure());
        self.save_atomic_inner(path, inject)
    }

    fn save_atomic_inner(&self, path: &Path, inject_dir_sync_failure: bool) -> Result<()> {
        let io = |what: &str, e: std::io::Error| {
            NnError::CheckpointIo(format!("{what} {}: {e}", path.display()))
        };
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        let mut f = fs::File::create(&tmp).map_err(|e| io("create tmp for", e))?;
        f.write_all(&self.to_bytes())
            .map_err(|e| io("write tmp for", e))?;
        f.sync_all().map_err(|e| io("fsync tmp for", e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| io("rename into", e))?;
        if inject_dir_sync_failure {
            return Err(NnError::CheckpointIo(format!(
                "injected directory fsync failure for {}",
                path.display()
            )));
        }
        // A rename that only lives in the directory's page cache is lost
        // on power failure. Opening the directory is skipped silently
        // where unsupported; a failed fsync on an opened directory is a
        // real durability error.
        if let Some(dir) = path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                d.sync_all().map_err(|e| io("fsync parent dir of", e))?;
            }
        }
        Ok(())
    }

    /// Loads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointIo`] on a read failure and
    /// [`NnError::CheckpointFormat`] on malformed contents.
    pub fn load_file(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| NnError::CheckpointIo(format!("read {}: {e}", path.display())))?;
        Checkpoint::from_bytes(&bytes)
    }

    /// [`Checkpoint::load_file`] with a fault plan consulted on the read
    /// path: an injected read failure surfaces as
    /// [`NnError::CheckpointIo`] without touching the file; an injected
    /// read corruption XORs one mid-file byte in memory before parsing,
    /// which the format's integrity checks reject.
    ///
    /// # Errors
    ///
    /// Same contract as [`Checkpoint::load_file`], plus the injected
    /// failures.
    #[cfg(feature = "fault-inject")]
    pub fn load_file_with_faults(path: &Path, faults: Option<&CkptFaults>) -> Result<Self> {
        if let Some(plan) = faults {
            if plan.take_read_failure() {
                return Err(NnError::CheckpointIo(format!(
                    "injected read failure for {}",
                    path.display()
                )));
            }
            if plan.take_read_corruption() {
                let mut bytes = fs::read(path)
                    .map_err(|e| NnError::CheckpointIo(format!("read {}: {e}", path.display())))?;
                if !bytes.is_empty() {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xA5;
                }
                return Checkpoint::from_bytes(&bytes).map_err(|e| {
                    NnError::CheckpointIo(format!(
                        "injected read corruption for {}: {e}",
                        path.display()
                    ))
                });
            }
        }
        Self::load_file(path)
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

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_exact(cur: &mut &[u8], buf: &mut [u8]) -> Result<()> {
    if cur.len() < buf.len() {
        return Err(NnError::CheckpointFormat("truncated checkpoint".into()));
    }
    buf.copy_from_slice(&cur[..buf.len()]);
    *cur = &cur[buf.len()..];
    Ok(())
}

fn read_u32(cur: &mut &[u8]) -> Result<u32> {
    let mut b = [0u8; 4];
    read_exact(cur, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f32(cur: &mut &[u8]) -> Result<f32> {
    let mut b = [0u8; 4];
    read_exact(cur, &mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn policy_code(p: PolicyKind) -> u32 {
    match p {
        PolicyKind::Dorefa => 0,
        PolicyKind::Wrpn => 1,
        PolicyKind::Pact => 2,
        PolicyKind::Sawb => 3,
        PolicyKind::UniformAffine => 4,
        PolicyKind::MaxAbs => 5,
        PolicyKind::Aciq => 6,
        PolicyKind::Lsq => 7,
    }
}

fn policy_from_code(c: u32) -> Result<PolicyKind> {
    Ok(match c {
        0 => PolicyKind::Dorefa,
        1 => PolicyKind::Wrpn,
        2 => PolicyKind::Pact,
        3 => PolicyKind::Sawb,
        4 => PolicyKind::UniformAffine,
        5 => PolicyKind::MaxAbs,
        6 => PolicyKind::Aciq,
        7 => PolicyKind::Lsq,
        other => {
            return Err(NnError::CheckpointFormat(format!(
                "unknown policy code {other}"
            )))
        }
    })
}

fn bitwidth(bits: u32) -> Result<BitWidth> {
    // Zero is a legal stored width: a checkpoint taken mid-run under the
    // zero-bit searcher can hold layers quantized to the pruning rung.
    BitWidth::new_allowing_zero(bits).map_err(|e| NnError::CheckpointFormat(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{QLinear, Relu, Sequential};
    use crate::Mode;
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

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_surface_as_typed_errors() {
        let dir = std::env::temp_dir().join("ccq_ckpt_fault_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("model.ccqckpt");
        let ckpt = Checkpoint::capture(&mut net());

        // Injected dir-sync failure reports *after* the rename lands.
        let faults = CkptFaults::new().fail_dir_syncs(1);
        let err = ckpt
            .save_atomic_with_faults(&path, Some(&faults))
            .unwrap_err();
        assert!(matches!(err, NnError::CheckpointIo(_)), "{err:?}");
        assert!(path.exists(), "rename lands before the barrier fails");
        assert!(faults.exhausted());
        // The retry (no fault left) succeeds.
        ckpt.save_atomic_with_faults(&path, Some(&faults)).unwrap();

        // Read failure fires without touching the file; corruption is
        // caught by the format checks; then a clean read succeeds.
        let faults = CkptFaults::new().fail_reads(1).corrupt_reads(1);
        assert!(matches!(
            Checkpoint::load_file_with_faults(&path, Some(&faults)),
            Err(NnError::CheckpointIo(_))
        ));
        assert!(matches!(
            Checkpoint::load_file_with_faults(&path, Some(&faults)),
            Err(NnError::CheckpointIo(_))
        ));
        assert!(faults.exhausted());
        assert_eq!(
            Checkpoint::load_file_with_faults(&path, Some(&faults)).unwrap(),
            ckpt
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_load_through_io() {
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        let mut buf = Vec::new();
        ckpt.save(&mut buf).unwrap();
        let loaded = Checkpoint::load(buf.as_slice()).unwrap();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(matches!(
            Checkpoint::from_bytes(b"NOTCKPT!"),
            Err(NnError::CheckpointFormat(_))
        ));
        let mut a = net();
        let bytes = Checkpoint::capture(&mut a).to_bytes();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() / 2]),
            Err(NnError::CheckpointFormat(_))
        ));
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
    fn truncation_at_every_prefix_errors_without_panicking() {
        let mut a = net();
        let bytes = Checkpoint::capture(&mut a).to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..keep]).is_err(),
                "prefix of {keep} bytes must not parse"
            );
        }
    }

    #[test]
    fn io_failures_surface_as_checkpoint_io() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("bad sector"))
            }
        }
        let mut a = net();
        let ckpt = Checkpoint::capture(&mut a);
        assert!(matches!(
            ckpt.save(FailingWriter),
            Err(NnError::CheckpointIo(_))
        ));
        assert!(matches!(
            Checkpoint::load(FailingReader),
            Err(NnError::CheckpointIo(_))
        ));
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

    #[test]
    fn all_policy_codes_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(policy_from_code(policy_code(p)).unwrap(), p);
        }
        assert!(policy_from_code(99).is_err());
    }
}
