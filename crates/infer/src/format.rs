//! The `CCQPACK` v1 wire format and its crash-safe file I/O.
//!
//! A `CCQPACK` artifact is a self-contained little-endian binary file:
//! magic, version, then three tagged sections in fixed order — meta (the
//! architecture string), layers (per-layer spec, decoding grid, and
//! weight payload), and state (every non-weight `f32` state tensor). The
//! section tags make truncation and section-drift corruption detectable
//! instead of silently misparsed. Sections and payload kinds are each
//! declared once below; the writer and the reader are generated from
//! those tables over [`ccq_tensor::codec`].
//!
//! File writes go through [`codec::write_atomic`] and keep the previous
//! generation as `<path>.prev`; [`PackedModel::load_with_fallback`]
//! falls back to it when the current file is torn or corrupt.

use crate::pack::{LayerPayload, PackedLayer, PackedModel};
use crate::{InferError, Result};
use ccq_tensor::codec::{self, CodecError, Decode, Decoded, Encode, Reader};
use ccq_tensor::wire_enum;
use std::path::Path;

const MAGIC: &[u8; 7] = b"CCQPACK";
const VERSION: u8 = 1;

/// Declares the sections once, in wire order: each row is a
/// [`PackedModel`] field, its tag byte and the section's name.
macro_rules! sections {
    ($($field:ident = $tag:literal $name:literal)*) => {
        fn write_sections(m: &PackedModel, out: &mut Vec<u8>) {
            $(
                out.push($tag);
                m.$field.encode(out);
            )*
        }

        fn read_sections(r: &mut Reader<'_>) -> Decoded<PackedModel> {
            Ok(PackedModel {
                $($field: {
                    let tag = r.u8()?;
                    if tag != $tag {
                        return Err(CodecError::Invalid(format!(
                            "expected {} section (tag {}), found tag {tag}",
                            $name, $tag
                        )));
                    }
                    Decode::decode(r)?
                },)*
            })
        }
    };
}

sections! {
    arch = 0 "meta"
    layers = 1 "layers"
    state = 2 "state"
}

wire_enum! { LayerPayload "payload kind" {
    Packed = 0 (codes)
    Shadow = 1 (weights)
} }

/// Label, spec, `α`, weight step, activation step, then the payload.
impl Encode for PackedLayer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.spec.encode(out);
        self.alpha.encode(out);
        self.weight_step.encode(out);
        self.act_step.encode(out);
        self.payload.encode(out);
    }
}

impl Decode for PackedLayer {
    const MIN_BYTES: usize = 29;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let label = String::decode(r)?;
        Ok(PackedLayer {
            spec: Decode::decode(r)?,
            alpha: r.f32()?,
            weight_step: r.f32()?,
            act_step: r.f32()?,
            payload: LayerPayload::decode(r)
                .map_err(|e| CodecError::Invalid(format!("layer '{label}': {e}")))?,
            label,
        })
    }
}

impl PackedModel {
    /// Serializes to the `CCQPACK` v1 binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        write_sections(self, &mut out);
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
        let r = &mut Reader::new(bytes, "artifact");
        r.header(MAGIC, VERSION..=VERSION)?;
        let model = read_sections(r)?;
        if r.remaining() != 0 {
            return Err(InferError::PackFormat(
                "trailing bytes after the state section".into(),
            ));
        }
        Ok(model)
    }

    /// Writes the artifact to `path` through [`codec::write_atomic`],
    /// rotating an existing current file to `<path>.prev` so the last
    /// good generation survives a torn write.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on any filesystem failure,
    /// including a failed directory fsync (the renamed file is in place
    /// but not yet durable — callers retry the whole write).
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        Ok(codec::write_atomic(path, &self.to_bytes(), true, false)?)
    }

    /// Loads an artifact from exactly `path` (no fallback).
    ///
    /// # Errors
    ///
    /// Returns [`InferError::PackIo`] on a read failure and
    /// [`InferError::PackFormat`] on malformed contents.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&codec::read(path)?)
    }

    /// Loads an artifact from `path`, falling back to the retained
    /// `<path>.prev` generation when the current file is missing,
    /// truncated, or corrupt.
    ///
    /// # Errors
    ///
    /// Returns the current file's error when neither generation loads.
    pub fn load_with_fallback(path: &Path) -> Result<Self> {
        codec::load_with_fallback(path, false, Self::from_bytes)
    }
}
