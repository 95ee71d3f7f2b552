//! Wire encodings of the quantization types shared by the CCQCKPT and
//! CCQPACK binary formats (see [`ccq_tensor::codec`]): the policy code,
//! stored bit widths, [`QuantSpec`] and [`PackedWeights`].

use crate::grid::symmetric_qmax;
use crate::{BitWidth, PackedWeights, PolicyKind, QuantSpec, WeightGrid};
use ccq_tensor::codec::{put_blob, CodecError, Decode, Decoded, Encode, Reader};

impl PolicyKind {
    /// The policy's `u32` code in the binary formats.
    pub fn wire_code(self) -> u32 {
        match self {
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

    /// The policy a wire code names, if any.
    pub fn from_wire_code(code: u32) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.wire_code() == code)
    }
}

impl Encode for PolicyKind {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wire_code().encode(out);
    }
}

impl Decode for PolicyKind {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let code = r.u32()?;
        Self::from_wire_code(code)
            .ok_or_else(|| CodecError::Invalid(format!("unknown policy code {code}")))
    }
}

/// A stored width is its bit count. Zero is legal: the pruning rung.
impl Encode for BitWidth {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bits().encode(out);
    }
}

impl Decode for BitWidth {
    const MIN_BYTES: usize = 4;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        BitWidth::new_allowing_zero(r.u32()?).map_err(|e| CodecError::Invalid(e.to_string()))
    }
}

/// Policy code, weight bits, activation bits.
impl Encode for QuantSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.policy.encode(out);
        self.weight_bits.encode(out);
        self.act_bits.encode(out);
    }
}

impl Decode for QuantSpec {
    const MIN_BYTES: usize = 12;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        Ok(QuantSpec::new(
            PolicyKind::decode(r)?,
            BitWidth::decode(r)?,
            BitWidth::decode(r)?,
        ))
    }
}

/// Shape, width, grid clip `α`, then the length-prefixed packed codes.
impl Encode for PackedWeights {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shape().encode(out);
        self.bits().encode(out);
        self.grid().alpha.encode(out);
        put_blob(out, self.payload());
    }
}

impl Decode for PackedWeights {
    const MIN_BYTES: usize = 16;

    fn decode(r: &mut Reader<'_>) -> Decoded<Self> {
        let (shape, _) = r.shape()?;
        let bits = r.u32()?;
        if bits > 8 {
            return Err(CodecError::Invalid(format!(
                "implausible packed width {bits}"
            )));
        }
        let grid = WeightGrid {
            alpha: r.f32()?,
            qmax: symmetric_qmax(bits),
        };
        let payload = r.blob()?.to_vec();
        PackedWeights::from_parts(shape, bits, grid, payload)
            .map_err(|e| CodecError::Invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_code_round_trips() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_wire_code(p.wire_code()), Some(p));
        }
        let mut out = Vec::new();
        99u32.encode(&mut out);
        let err = PolicyKind::decode(&mut Reader::new(&out, "spec")).unwrap_err();
        assert_eq!(err.to_string(), "unknown policy code 99");
    }
}
