//! The `CCQPACK` v1 wire format and its crash-safe file I/O.
//!
//! A `CCQPACK` artifact is a self-contained little-endian binary file:
//! magic, version, then three tagged sections in fixed order —
//! [`TAG_META`] (the architecture string), [`TAG_LAYERS`] (per-layer
//! spec, decoding grid, and weight payload), and [`TAG_STATE`] (every
//! non-weight `f32` state tensor). The section tags make truncation and
//! section-drift corruption detectable instead of silently misparsed.
//!
//! File writes are atomic with the same durability discipline as the
//! `CCQRUNS` run state: bytes go to a `<path>.tmp` sibling, are fsynced,
//! the previous generation is rotated to `<path>.prev`, the tmp file is
//! renamed into place, and the parent directory is fsynced.
//! [`PackedModel::load_with_fallback`] falls back to `<path>.prev` when
//! the current file is torn or corrupt.

use crate::pack::{LayerPayload, PackedLayer, PackedModel};
use crate::{InferError, Result};
use ccq_quant::grid::symmetric_qmax;
use ccq_quant::{BitWidth, PackedWeights, PolicyKind, QuantSpec, WeightGrid};
use ccq_tensor::Tensor;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQPACK";
const VERSION: u8 = 1;

/// Tag of the metadata section (architecture string).
const TAG_META: u8 = 0;
/// Tag of the per-layer weight-payload section.
const TAG_LAYERS: u8 = 1;
/// Tag of the non-weight state-tensor section.
const TAG_STATE: u8 = 2;

/// Payload-kind byte: packed integer codes.
const PAYLOAD_PACKED: u8 = 0;
/// Payload-kind byte: `f32` shadow weights.
const PAYLOAD_SHADOW: u8 = 1;

impl PackedModel {
    /// Serializes to the `CCQPACK` v1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(TAG_META);
        w_bytes(&mut out, self.arch.as_bytes());
        out.push(TAG_LAYERS);
        w_u32(&mut out, self.layers.len() as u32);
        for layer in &self.layers {
            w_bytes(&mut out, layer.label.as_bytes());
            w_u32(&mut out, policy_code(layer.spec.policy));
            w_u32(&mut out, layer.spec.weight_bits.bits());
            w_u32(&mut out, layer.spec.act_bits.bits());
            w_f32(&mut out, layer.alpha);
            w_f32(&mut out, layer.weight_step);
            w_f32(&mut out, layer.act_step);
            match &layer.payload {
                LayerPayload::Packed(p) => {
                    out.push(PAYLOAD_PACKED);
                    w_shape(&mut out, p.shape());
                    w_u32(&mut out, p.bits());
                    w_f32(&mut out, p.grid().alpha);
                    w_bytes(&mut out, p.payload());
                }
                LayerPayload::Shadow(t) => {
                    out.push(PAYLOAD_SHADOW);
                    w_tensor(&mut out, t);
                }
            }
        }
        out.push(TAG_STATE);
        w_u32(&mut out, self.state.len() as u32);
        for t in &self.state {
            w_tensor(&mut out, t);
        }
        out
    }

    /// Deserializes from the `CCQPACK` binary format.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackFormat`] on a truncated or malformed
    /// buffer, a bad magic, an unsupported version, a section-tag
    /// mismatch, or a weight payload that does not decode under its
    /// declared width.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let cur = &mut &bytes[..];
        let mut magic = [0u8; 7];
        r_exact(cur, &mut magic)?;
        if &magic != MAGIC {
            return Err(malformed("not a CCQ packed artifact (bad magic)"));
        }
        let version = r_u8(cur)?;
        if version != VERSION {
            return Err(malformed(&format!(
                "unsupported artifact version {version} (this build reads version {VERSION})"
            )));
        }
        expect_tag(cur, TAG_META, "meta")?;
        let arch = r_string(cur, "architecture string")?;
        expect_tag(cur, TAG_LAYERS, "layers")?;
        let n_layers = r_u32(cur)? as usize;
        if n_layers > 1 << 20 {
            return Err(malformed("implausible layer count"));
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let label = r_string(cur, "layer label")?;
            let policy = policy_from_code(r_u32(cur)?)?;
            let wb = bitwidth(r_u32(cur)?)?;
            let ab = bitwidth(r_u32(cur)?)?;
            let spec = QuantSpec::new(policy, wb, ab);
            let alpha = r_f32(cur)?;
            let weight_step = r_f32(cur)?;
            let act_step = r_f32(cur)?;
            let payload = match r_u8(cur)? {
                PAYLOAD_PACKED => {
                    let (shape, _) = r_shape(cur)?;
                    let bits = r_u32(cur)?;
                    if bits > 8 {
                        return Err(malformed(&format!("implausible packed width {bits}")));
                    }
                    let grid_alpha = r_f32(cur)?;
                    let payload_len = r_u32(cur)? as usize;
                    if cur.len() < payload_len {
                        return Err(malformed("truncated packed payload"));
                    }
                    let payload_bytes = cur[..payload_len].to_vec();
                    *cur = &cur[payload_len..];
                    let grid = WeightGrid {
                        alpha: grid_alpha,
                        qmax: symmetric_qmax(bits),
                    };
                    let packed = PackedWeights::from_parts(shape, bits, grid, payload_bytes)
                        .map_err(|e| malformed(&format!("layer '{label}': {e}")))?;
                    LayerPayload::Packed(packed)
                }
                PAYLOAD_SHADOW => LayerPayload::Shadow(r_tensor(cur)?),
                other => return Err(malformed(&format!("unknown payload kind {other}"))),
            };
            layers.push(PackedLayer {
                label,
                spec,
                alpha,
                weight_step,
                act_step,
                payload,
            });
        }
        expect_tag(cur, TAG_STATE, "state")?;
        let n_state = r_u32(cur)? as usize;
        if n_state > 1 << 24 {
            return Err(malformed("implausible state-tensor count"));
        }
        let mut state = Vec::with_capacity(n_state);
        for _ in 0..n_state {
            state.push(r_tensor(cur)?);
        }
        if !cur.is_empty() {
            return Err(malformed("trailing bytes after the state section"));
        }
        Ok(PackedModel {
            arch,
            layers,
            state,
        })
    }

    /// Atomically writes the artifact to `path`: the bytes go to a
    /// `<path>.tmp` sibling, are fsynced, and renamed into place; an
    /// existing current file is first rotated to `<path>.prev` so the
    /// last good generation survives a torn write. The parent directory
    /// is then fsynced so the renames themselves survive power loss.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        let io = |e: std::io::Error, what: &str| {
            InferError::PackIo(format!("{what} {}: {e}", path.display()))
        };
        let tmp = sibling(path, ".tmp");
        let prev = sibling(path, ".prev");
        let mut f = fs::File::create(&tmp).map_err(|e| io(e, "create tmp for"))?;
        f.write_all(&self.to_bytes())
            .map_err(|e| io(e, "write tmp for"))?;
        f.sync_all().map_err(|e| io(e, "fsync tmp for"))?;
        drop(f);
        if path.exists() {
            fs::rename(path, &prev).map_err(|e| io(e, "rotate previous for"))?;
        }
        fs::rename(&tmp, path).map_err(|e| io(e, "rename into"))?;
        // A rename that only lives in the directory's page cache is lost
        // on power failure. Opening the directory is skipped silently
        // where unsupported; a failed fsync on an opened directory is a
        // real durability error.
        if let Some(dir) = path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                d.sync_all().map_err(|e| io(e, "fsync parent dir of"))?;
            }
        }
        Ok(())
    }

    /// Loads an artifact from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on a read failure and
    /// [`InferError::PackFormat`] on malformed contents.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = fs::read(path)
            .map_err(|e| InferError::PackIo(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Loads an artifact from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's error when neither generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        match Self::load(path) {
            Ok(m) => Ok(m),
            Err(primary) => match Self::load(&sibling(path, ".prev")) {
                Ok(m) => Ok(m),
                Err(_) => Err(primary),
            },
        }
    }
}

/// `<path><suffix>` alongside the original file.
fn sibling(path: &Path, suffix: &str) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    std::path::PathBuf::from(s)
}

fn malformed(msg: &str) -> InferError {
    InferError::PackFormat(msg.to_string())
}

fn expect_tag(cur: &mut &[u8], want: u8, name: &str) -> Result<()> {
    let got = r_u8(cur)?;
    if got != want {
        return Err(malformed(&format!(
            "expected {name} section (tag {want}), found tag {got}"
        )));
    }
    Ok(())
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
        other => return Err(malformed(&format!("unknown policy code {other}"))),
    })
}

fn bitwidth(bits: u32) -> Result<BitWidth> {
    // Zero is a legal stored width: pruned layers pack at the 0-bit rung.
    BitWidth::new_allowing_zero(bits).map_err(|e| malformed(&e.to_string()))
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    w_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn w_shape(out: &mut Vec<u8>, shape: &[usize]) {
    w_u32(out, shape.len() as u32);
    for &d in shape {
        w_u32(out, d as u32);
    }
}

fn w_tensor(out: &mut Vec<u8>, t: &Tensor) {
    w_shape(out, t.shape());
    for &v in t.as_slice() {
        w_f32(out, v);
    }
}

fn r_exact(cur: &mut &[u8], buf: &mut [u8]) -> Result<()> {
    if cur.len() < buf.len() {
        return Err(malformed("truncated artifact"));
    }
    buf.copy_from_slice(&cur[..buf.len()]);
    *cur = &cur[buf.len()..];
    Ok(())
}

fn r_u8(cur: &mut &[u8]) -> Result<u8> {
    let mut b = [0u8; 1];
    r_exact(cur, &mut b)?;
    Ok(b[0])
}

fn r_u32(cur: &mut &[u8]) -> Result<u32> {
    let mut b = [0u8; 4];
    r_exact(cur, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r_f32(cur: &mut &[u8]) -> Result<f32> {
    let mut b = [0u8; 4];
    r_exact(cur, &mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn r_string(cur: &mut &[u8], what: &str) -> Result<String> {
    let len = r_u32(cur)? as usize;
    if len > 1 << 16 {
        return Err(malformed(&format!("implausible {what} length")));
    }
    if cur.len() < len {
        return Err(malformed("truncated artifact"));
    }
    let s = String::from_utf8(cur[..len].to_vec())
        .map_err(|_| malformed(&format!("{what} is not UTF-8")))?;
    *cur = &cur[len..];
    Ok(s)
}

/// Reads a rank and its dims; returns them with their element count.
fn r_shape(cur: &mut &[u8]) -> Result<(Vec<usize>, usize)> {
    let rank = r_u32(cur)? as usize;
    if rank > 8 {
        return Err(malformed("implausible tensor rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r_u32(cur)? as usize);
    }
    let numel = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&numel| numel <= 1 << 28)
        .ok_or_else(|| malformed("implausible tensor size"))?;
    Ok((dims, numel))
}

fn r_tensor(cur: &mut &[u8]) -> Result<Tensor> {
    let (dims, numel) = r_shape(cur)?;
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r_f32(cur)?);
    }
    Tensor::from_vec(data, &dims).map_err(|e| malformed(&e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policy_codes_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(policy_from_code(policy_code(p)).unwrap(), p);
        }
        assert!(policy_from_code(99).is_err());
    }
}
