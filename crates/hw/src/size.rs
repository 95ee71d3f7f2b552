//! Model-size and compression-ratio accounting.

use crate::LayerProfile;
use ccq_quant::BitWidth;

/// Bytes one layer's weights occupy in the packed deployable
/// representation (`CCQPACK` / `ccq_tensor::PackedInts`): pruned layers
/// store no payload, widths 1–4 nibble-pack two codes per byte (odd
/// tails round up), widths 5–8 store one byte per code, and anything
/// wider — including full precision and the unreachable 9–31 range —
/// stays as 4-byte `f32` shadow weights.
///
/// This is the *measured* artifact size, byte for byte; the idealized
/// `weight_count × bits` accounting in [`model_size`] ignores the
/// nibble-padding and f32-fallback overheads that real storage pays.
///
/// # Example
///
/// ```
/// use ccq_hw::packed_weight_bytes;
/// use ccq_quant::BitWidth;
///
/// assert_eq!(packed_weight_bytes(101, BitWidth::of(4)), 51); // odd tail
/// assert_eq!(packed_weight_bytes(101, BitWidth::of(8)), 101);
/// assert_eq!(packed_weight_bytes(101, BitWidth::ZERO), 0);
/// assert_eq!(packed_weight_bytes(101, BitWidth::FP32), 404);
/// ```
pub fn packed_weight_bytes(count: usize, bits: BitWidth) -> u64 {
    let n = count as u64;
    match bits.bits() {
        0 => 0,
        1..=4 => n.div_ceil(2),
        5..=8 => n,
        _ => n * 4,
    }
}

/// Weight-storage accounting for a (possibly mixed-precision) network.
///
/// Matches the paper's model-compression column: compression is the ratio
/// of full-precision weight storage to the mixed-precision storage,
/// counting weights only (activations are transient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// Total weight scalars.
    pub param_count: usize,
    /// Storage at 32-bit, in bits.
    pub fp32_bits: u64,
    /// Storage at the per-layer bit widths, in bits.
    pub quantized_bits: u64,
    /// `fp32_bits / quantized_bits` (1.0 for an empty network).
    pub compression: f64,
    /// Measured bytes of the packed deployable representation, summing
    /// [`packed_weight_bytes`] per layer. Unlike `quantized_bits`, this
    /// counts what storage actually pays: nibble padding on odd int4
    /// tails and 4-byte `f32` fallback for unpackable widths.
    pub packed_bytes: u64,
    /// `4 · param_count / packed_bytes` (1.0 for an empty network) —
    /// the compression a deployed `CCQPACK` artifact realizes.
    pub packed_compression: f64,
}

/// Computes the [`SizeReport`] for a set of layer profiles.
///
/// # Example
///
/// ```
/// use ccq_hw::{model_size, LayerProfile};
/// use ccq_quant::BitWidth;
///
/// let layers = vec![LayerProfile {
///     label: "conv".into(),
///     weight_count: 1000,
///     macs: 0,
///     weight_bits: BitWidth::of(4),
///     act_bits: BitWidth::of(4),
/// }];
/// let r = model_size(&layers);
/// assert_eq!(r.compression, 8.0);
/// ```
pub fn model_size(profiles: &[LayerProfile]) -> SizeReport {
    let mut params = 0usize;
    let mut qbits = 0u64;
    let mut packed_bytes = 0u64;
    for p in profiles {
        params += p.weight_count;
        qbits += p.weight_count as u64 * u64::from(p.weight_bits.bits());
        packed_bytes += packed_weight_bytes(p.weight_count, p.weight_bits);
    }
    let fp32_bits = params as u64 * 32;
    let compression = if qbits == 0 {
        1.0
    } else {
        fp32_bits as f64 / qbits as f64
    };
    let packed_compression = if packed_bytes == 0 {
        1.0
    } else {
        (params as u64 * 4) as f64 / packed_bytes as f64
    };
    SizeReport {
        param_count: params,
        fp32_bits,
        quantized_bits: qbits,
        compression,
        packed_bytes,
        packed_compression,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccq_quant::BitWidth;

    fn profile(count: usize, bits: u32) -> LayerProfile {
        LayerProfile {
            label: "l".into(),
            weight_count: count,
            macs: 0,
            weight_bits: if bits == 32 {
                BitWidth::FP32
            } else {
                BitWidth::of(bits)
            },
            act_bits: BitWidth::of(8),
        }
    }

    #[test]
    fn uniform_4bit_is_8x() {
        let r = model_size(&[profile(100, 4), profile(300, 4)]);
        assert_eq!(r.param_count, 400);
        assert_eq!(r.compression, 8.0);
        assert_eq!(r.packed_bytes, 200);
        assert_eq!(r.packed_compression, 8.0);
    }

    #[test]
    fn packed_bytes_pays_nibble_padding() {
        // 101 int4 weights pack into 51 bytes (odd tail pads a nibble),
        // so the measured packed ratio falls just short of the idealized
        // bit accounting.
        let r = model_size(&[profile(101, 4)]);
        assert_eq!(r.packed_bytes, 51);
        assert_eq!(r.compression, 8.0);
        assert!(r.packed_compression < 8.0);
    }

    #[test]
    fn packed_bytes_per_width() {
        assert_eq!(packed_weight_bytes(0, BitWidth::of(4)), 0);
        assert_eq!(packed_weight_bytes(7, BitWidth::ZERO), 0);
        for b in 1..=4u32 {
            assert_eq!(packed_weight_bytes(7, BitWidth::of(b)), 4);
            assert_eq!(packed_weight_bytes(8, BitWidth::of(b)), 4);
        }
        for b in 5..=8u32 {
            assert_eq!(packed_weight_bytes(7, BitWidth::of(b)), 7);
        }
        // Unpackable widths stay as f32 shadow weights.
        assert_eq!(packed_weight_bytes(7, BitWidth::of(16)), 28);
        assert_eq!(packed_weight_bytes(7, BitWidth::FP32), 28);
    }

    #[test]
    fn full_precision_is_1x() {
        let r = model_size(&[profile(50, 32)]);
        assert!((r.compression - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_precision_weights_by_layer_size() {
        // 3 bits on 900 params + 32 bits on 100 params:
        // 32·1000 / (3·900 + 32·100) = 32000/5900 ≈ 5.42.
        let r = model_size(&[profile(900, 3), profile(100, 32)]);
        assert!((r.compression - 32000.0 / 5900.0).abs() < 1e-9);
    }

    #[test]
    fn empty_network_is_neutral() {
        let r = model_size(&[]);
        assert_eq!(r.compression, 1.0);
        assert_eq!(r.param_count, 0);
    }

    #[test]
    fn quantizing_the_big_layer_matters_most() {
        // The λ-weighting rationale: quantizing the big layer first yields
        // more compression than quantizing the small one.
        let big_first = model_size(&[profile(900, 2), profile(100, 8)]);
        let small_first = model_size(&[profile(900, 8), profile(100, 2)]);
        assert!(big_first.compression > small_first.compression);
    }
}
