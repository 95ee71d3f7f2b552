//! Bit-packed storage for small unsigned integer codes.
//!
//! Quantized layers produce per-element integer codes drawn from a tiny
//! alphabet (at most `2^bits` symbols for a `bits`-wide layer). Storing
//! those codes one per `f32` — the fake-quant representation — wastes the
//! entire memory win the searcher negotiated. [`PackedInts`] is the dense
//! storage: codes of width 1..=4 bits are nibble-packed two per byte
//! (low nibble first), widths 5..=8 take one byte each, and width 0
//! (a pruned layer) stores nothing at all.
//!
//! The container is deliberately dumb: it holds *unsigned storage codes*
//! and knows nothing about scales, signedness, or grids. The quantizer
//! side (`ccq-quant`) owns the mapping between signed grid indices and
//! storage codes; this module only guarantees `unpack(pack(codes)) ==
//! codes` for every legal width, including odd-length nibble tails.

use std::fmt;

/// Error packing or reading a [`PackedInts`] buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The requested code width is outside the supported `0..=8` range.
    UnsupportedBits(u32),
    /// An input code does not fit in the requested width.
    CodeOutOfRange {
        /// Index of the offending code.
        index: usize,
        /// The code value supplied.
        code: u8,
        /// The width it was supposed to fit in.
        bits: u32,
    },
    /// The byte buffer length does not match `len` codes at `bits` width.
    LengthMismatch {
        /// Bytes expected for the declared logical length.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A declared tensor shape whose element count does not fit a
    /// `usize`.
    ShapeOverflow,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::UnsupportedBits(b) => {
                write!(f, "packed code width {b} unsupported (expected 0..=8)")
            }
            PackError::CodeOutOfRange { index, code, bits } => {
                write!(
                    f,
                    "code {code} at index {index} does not fit in {bits} bits"
                )
            }
            PackError::LengthMismatch { expected, actual } => {
                write!(f, "packed buffer holds {actual} bytes, expected {expected}")
            }
            PackError::ShapeOverflow => write!(f, "tensor size overflows usize"),
        }
    }
}

impl std::error::Error for PackError {}

/// Densely packed unsigned integer codes of a fixed small width.
///
/// # Example
///
/// ```
/// use ccq_tensor::packed::PackedInts;
///
/// // Five 3-bit codes nibble-pack into three bytes (odd tail).
/// let p = PackedInts::pack(&[1, 7, 0, 5, 3], 3)?;
/// assert_eq!(p.byte_len(), 3);
/// assert_eq!(p.unpack(), vec![1, 7, 0, 5, 3]);
/// # Ok::<(), ccq_tensor::packed::PackError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInts {
    bits: u32,
    len: usize,
    bytes: Vec<u8>,
}

/// Bytes required to store `len` codes of `bits` width.
///
/// Width 0 stores nothing, widths 1..=4 pack two codes per byte (odd
/// lengths round up), widths 5..=8 take a full byte per code.
pub fn packed_byte_len(len: usize, bits: u32) -> Result<usize, PackError> {
    match bits {
        0 => Ok(0),
        1..=4 => Ok(len.div_ceil(2)),
        5..=8 => Ok(len),
        _ => Err(PackError::UnsupportedBits(bits)),
    }
}

impl PackedInts {
    /// Packs `codes` at the given width.
    ///
    /// # Errors
    ///
    /// [`PackError::UnsupportedBits`] for widths above 8, and
    /// [`PackError::CodeOutOfRange`] when a code needs more than `bits`
    /// bits (any nonzero code at width 0).
    pub fn pack(codes: &[u8], bits: u32) -> Result<Self, PackError> {
        let byte_len = packed_byte_len(codes.len(), bits)?;
        for (index, &code) in codes.iter().enumerate() {
            if (u32::from(code)) >> bits != 0 {
                return Err(PackError::CodeOutOfRange { index, code, bits });
            }
        }
        let mut bytes = vec![0u8; byte_len];
        if bits == 0 {
            return Ok(Self {
                bits,
                len: codes.len(),
                bytes,
            });
        }
        if bits <= 4 {
            for (i, &code) in codes.iter().enumerate() {
                // Low nibble first: code 2i lives in bits 0..4 of byte i.
                bytes[i / 2] |= code << ((i % 2) * 4);
            }
        } else {
            bytes.copy_from_slice(codes);
        }
        Ok(Self {
            bits,
            len: codes.len(),
            bytes,
        })
    }

    /// Reassembles a container from raw parts (the wire-format reader).
    ///
    /// # Errors
    ///
    /// [`PackError::UnsupportedBits`] for an illegal width,
    /// [`PackError::LengthMismatch`] when `bytes` is not exactly the size
    /// implied by `len` and `bits`, and [`PackError::CodeOutOfRange`]
    /// when a stored code (including a padding nibble in the odd tail)
    /// exceeds the width.
    pub fn from_parts(bytes: Vec<u8>, len: usize, bits: u32) -> Result<Self, PackError> {
        let expected = packed_byte_len(len, bits)?;
        if bytes.len() != expected {
            return Err(PackError::LengthMismatch {
                expected,
                actual: bytes.len(),
            });
        }
        let out = Self { bits, len, bytes };
        for (index, code) in out.iter().enumerate() {
            if (u32::from(code)) >> bits != 0 {
                return Err(PackError::CodeOutOfRange { index, code, bits });
            }
        }
        // An odd nibble tail must have a zero padding nibble so that the
        // byte image of a logical code sequence is unique.
        if (1..=4).contains(&bits) && len % 2 == 1 {
            let tail = out.bytes[len / 2];
            if tail >> 4 != 0 {
                return Err(PackError::CodeOutOfRange {
                    index: len,
                    code: tail >> 4,
                    bits,
                });
            }
        }
        Ok(out)
    }

    /// Code width in bits (0..=8).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of logical codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the container holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the dense byte buffer.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw packed bytes (wire-format writer side).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The code at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<u8> {
        if index >= self.len {
            return None;
        }
        Some(match self.bits {
            0 => 0,
            1..=4 => (self.bytes[index / 2] >> ((index % 2) * 4)) & 0x0f,
            _ => self.bytes[index],
        })
    }

    /// Iterates the logical codes in order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| match self.bits {
            0 => 0,
            1..=4 => (self.bytes[i / 2] >> ((i % 2) * 4)) & 0x0f,
            _ => self.bytes[i],
        })
    }

    /// Expands back to one code per element.
    pub fn unpack(&self) -> Vec<u8> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_width_stores_nothing() {
        let p = PackedInts::pack(&[0, 0, 0], 0).unwrap();
        assert_eq!(p.byte_len(), 0);
        assert_eq!(p.unpack(), vec![0, 0, 0]);
        assert_eq!(
            PackedInts::pack(&[1], 0),
            Err(PackError::CodeOutOfRange {
                index: 0,
                code: 1,
                bits: 0
            })
        );
    }

    #[test]
    fn nibble_packing_is_low_nibble_first() {
        let p = PackedInts::pack(&[0x3, 0xa, 0x5], 4).unwrap();
        assert_eq!(p.bytes(), &[0xa3, 0x05]);
        assert_eq!(p.get(1), Some(0xa));
        assert_eq!(p.get(3), None);
    }

    #[test]
    fn byte_widths_are_one_per_byte() {
        let p = PackedInts::pack(&[255, 0, 17], 8).unwrap();
        assert_eq!(p.bytes(), &[255, 0, 17]);
        let e = PackedInts::pack(&[64], 6);
        assert_eq!(
            e,
            Err(PackError::CodeOutOfRange {
                index: 0,
                code: 64,
                bits: 6
            })
        );
    }

    #[test]
    fn from_parts_validates_lengths_and_tails() {
        let p = PackedInts::pack(&[1, 2, 3], 4).unwrap();
        let again = PackedInts::from_parts(p.bytes().to_vec(), 3, 4).unwrap();
        assert_eq!(again, p);
        assert!(matches!(
            PackedInts::from_parts(vec![0; 3], 3, 4),
            Err(PackError::LengthMismatch { .. })
        ));
        // Nonzero padding nibble in an odd tail is rejected.
        assert!(matches!(
            PackedInts::from_parts(vec![0x01, 0xf3], 3, 4),
            Err(PackError::CodeOutOfRange { .. })
        ));
        // A 2-bit code smuggled into the stored bytes is rejected.
        assert!(matches!(
            PackedInts::from_parts(vec![0x07], 2, 2),
            Err(PackError::CodeOutOfRange { .. })
        ));
    }

    #[test]
    fn unsupported_widths_are_rejected() {
        assert_eq!(PackedInts::pack(&[], 9), Err(PackError::UnsupportedBits(9)));
        assert_eq!(packed_byte_len(10, 32), Err(PackError::UnsupportedBits(32)));
    }

    #[test]
    fn byte_len_matches_formula() {
        for (len, bits, want) in [
            (0usize, 4u32, 0usize),
            (1, 1, 1),
            (2, 4, 1),
            (3, 4, 2),
            (7, 3, 4),
            (7, 5, 7),
            (4, 8, 4),
            (5, 0, 0),
        ] {
            assert_eq!(packed_byte_len(len, bits).unwrap(), want, "{len}@{bits}");
        }
    }
}
