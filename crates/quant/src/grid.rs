//! Integer-grid export: the bridge from fake-quant to packed execution.
//!
//! Fake-quant keeps every tensor in `f32` but restricts the values to a
//! small grid. For the policies whose weight path ends in
//! [`quantize_symmetric`](crate::policies) — PACT, max-abs, WRPN, SAWB
//! and ACIQ — that grid is fully described by a clip value `α` and an
//! integer range `[-q_max, q_max]`: every fake-quant weight is exactly
//! `(q / q_max) · α` for some integer `q`. This module computes those
//! integers (the *codes*), packs them into a [`PackedInts`] buffer, and
//! guarantees the round trip reproduces the fake-quant tensor
//! **bit-exactly**: [`PackedWeights::dequantize`] evaluates
//! `(q as f32 / q_max as f32) * α` in the same operation order the
//! fake-quant kernel used, so `dequantize(pack(w)) ==
//! quantize_weights(w)` down to the last ULP (including `±α` at one bit
//! and all-zeros at the pruned rung).
//!
//! Activations get the same treatment at inference time via
//! [`ActCodes`]: PACT/SAWB's unsigned `[0, 2^b − 1]` grid and max-abs'
//! symmetric grid both reduce to `value = (code / q_max) · α`.
//!
//! Policies whose grid is not a single symmetric scale (DoReFa's tanh
//! remap, affine min/max, LSQ's learned step) simply return `None`; a
//! deployment keeps those layers in `f32` rather than approximate them.

use crate::policies::{aciq, sawb};
use crate::{BitWidth, PolicyKind};
use ccq_tensor::codec::numel;
use ccq_tensor::{PackError, PackedInts, Tensor};
use std::sync::OnceLock;

/// The symmetric integer grid of one packed weight tensor:
/// `value(q) = (q / q_max) · α` for `q ∈ [-q_max, q_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightGrid {
    /// Clip value (the grid's largest representable magnitude). `0.0`
    /// for degenerate all-zero tensors.
    pub alpha: f32,
    /// Largest integer code: `2^(b−1) − 1` for `b ≥ 2`, `1` at one bit.
    pub qmax: i32,
}

impl WeightGrid {
    /// The real value of code `q`, evaluated in the exact operation
    /// order of the fake-quant kernel (`(q / s) * α`, not `q * (α/s)`).
    pub fn value(&self, q: i32) -> f32 {
        (q as f32 / self.qmax as f32) * self.alpha
    }

    /// The f32 factor that rescales an integer accumulator contribution
    /// of this grid (`α / q_max`). Integer execution applies it once per
    /// output element, which is where the packed path's (pinned, tested)
    /// rounding difference from fake-quant comes from.
    pub fn scale(&self) -> f32 {
        self.alpha / self.qmax as f32
    }
}

/// Largest integer code of the symmetric `bits`-wide grid.
///
/// One bit is the sign grid `{−α, +α}` (codes `±1`); wider grids span
/// `[-(2^(b−1) − 1), 2^(b−1) − 1]`.
pub fn symmetric_qmax(bits: u32) -> i32 {
    if bits <= 1 {
        1
    } else {
        ((1u64 << (bits - 1)) - 1) as i32
    }
}

/// The clip value `α` the policy's weight kernel would use on `w`, or
/// `None` when the policy's grid is not symmetric-scale representable.
///
/// Mirrors the dispatch in `LayerQuant::quantize_weights` exactly:
/// PACT/max-abs clip at `max|w|`, WRPN at `1.0`, SAWB at its
/// statistics-optimal clip, ACIQ at its analytic clip.
pub fn weight_grid_alpha(policy: PolicyKind, w: &Tensor, bits: u32) -> Option<f32> {
    match policy {
        PolicyKind::Pact | PolicyKind::MaxAbs => Some(w.max_abs()),
        PolicyKind::Wrpn => Some(1.0),
        PolicyKind::Sawb => Some(sawb::optimal_alpha(w, bits)),
        PolicyKind::Aciq => Some(aciq::optimal_clip(w, bits).min(w.max_abs())),
        PolicyKind::Dorefa | PolicyKind::UniformAffine | PolicyKind::Lsq => None,
    }
}

/// The signed integer codes of `quantize_symmetric(w, alpha, bits)`,
/// computed with the same clamp/round expressions as the kernel so
/// `(q / q_max) · α` reproduces it bit-for-bit.
pub fn symmetric_codes(w: &Tensor, alpha: f32, bits: u32) -> Vec<i8> {
    if alpha <= 0.0 {
        return vec![0; w.as_slice().len()];
    }
    if bits <= 1 {
        return w
            .as_slice()
            .iter()
            .map(|&v| if v >= 0.0 { 1 } else { -1 })
            .collect();
    }
    let s = ((1u64 << (bits - 1)) - 1) as f32;
    w.as_slice()
        .iter()
        .map(|&v| {
            let c = (v / alpha).clamp(-1.0, 1.0);
            (c * s).round() as i8
        })
        .collect()
}

/// One weight tensor in deployable form: bit-packed integer codes plus
/// the symmetric grid that decodes them.
///
/// The pruned rung (`BitWidth::ZERO`) is a first-class citizen: zero
/// payload bytes, [`PackedWeights::dequantize`] returns zeros.
///
/// The signed codes the integer kernels read are decoded once, on the
/// first [`PackedWeights::codes_i8`] call, and kept next to the packed
/// bytes; a copy that never runs integer execution (an artifact being
/// written or applied) never keeps them.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    shape: Vec<usize>,
    bits: u32,
    grid: WeightGrid,
    codes: PackedInts,
    signed: OnceLock<Vec<i8>>,
}

/// Equal shape, grid and packed codes; whether either side has decoded
/// its codes yet does not matter.
impl PartialEq for PackedWeights {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.bits == other.bits
            && self.grid == other.grid
            && self.codes == other.codes
    }
}

impl PackedWeights {
    /// Packs the fake-quant grid of `w` under `policy` at `weight_bits`.
    ///
    /// Returns `None` when the layer has no packable grid: full
    /// precision, more than 8 bits, or a policy without a symmetric
    /// scale. Callers keep such layers in `f32`.
    pub fn from_tensor(policy: PolicyKind, w: &Tensor, weight_bits: BitWidth) -> Option<Self> {
        if weight_bits.is_full_precision() {
            return None;
        }
        let bits = weight_bits.bits();
        if weight_bits.is_pruned() {
            let codes = PackedInts::pack(&vec![0u8; w.as_slice().len()], 0).ok()?;
            return Some(Self {
                shape: w.shape().to_vec(),
                bits: 0,
                grid: WeightGrid {
                    alpha: 0.0,
                    qmax: 1,
                },
                codes,
                signed: OnceLock::new(),
            });
        }
        if bits > 8 {
            return None;
        }
        let alpha = weight_grid_alpha(policy, w, bits)?;
        let alpha = if alpha <= 0.0 { 0.0 } else { alpha };
        let qmax = symmetric_qmax(bits);
        let signed = symmetric_codes(w, alpha, bits);
        let storage: Vec<u8> = signed.iter().map(|&q| bias_code(q, bits, qmax)).collect();
        // By construction every storage code fits `bits` bits, so the
        // pack cannot fail; a `None` here (impossible) degrades to the
        // f32 fallback rather than panicking in a protected crate.
        let codes = PackedInts::pack(&storage, bits).ok()?;
        Some(Self {
            shape: w.shape().to_vec(),
            bits,
            grid: WeightGrid { alpha, qmax },
            codes,
            signed: OnceLock::new(),
        })
    }

    /// Rebuilds a packed tensor from wire-format parts.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::ShapeOverflow`] when the shape's element
    /// count does not fit a `usize`, and another [`PackError`] when the
    /// byte payload does not match the declared element count and width.
    pub fn from_parts(
        shape: Vec<usize>,
        bits: u32,
        grid: WeightGrid,
        bytes: Vec<u8>,
    ) -> Result<Self, PackError> {
        let len = numel(&shape).ok_or(PackError::ShapeOverflow)?;
        let codes = PackedInts::from_parts(bytes, len, bits)?;
        Ok(Self {
            shape,
            bits,
            grid,
            codes,
            signed: OnceLock::new(),
        })
    }

    /// Tensor shape of the packed weights.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Grid width in bits (`0` = pruned).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The decoding grid.
    pub fn grid(&self) -> WeightGrid {
        self.grid
    }

    /// Size of the dense code payload in bytes.
    pub fn byte_len(&self) -> usize {
        self.codes.byte_len()
    }

    /// The raw packed payload (wire-format writer side).
    pub fn payload(&self) -> &[u8] {
        self.codes.bytes()
    }

    /// Number of weight elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The signed grid codes, one `i8` per weight (integer-kernel input),
    /// decoded from the packed bytes on the first call. Pruned tensors
    /// decode to all-zero codes.
    pub fn codes_i8(&self) -> &[i8] {
        self.signed
            .get_or_init(|| decode_signed(&self.codes, self.bits, self.grid.qmax))
    }

    /// Reconstructs the fake-quant tensor **bit-exactly**: the result is
    /// `f32`-identical to `LayerQuant::quantize_weights` on the original
    /// weights.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(&self.shape);
        if self.bits == 0 {
            return out;
        }
        // Decode without keeping the codes unless integer execution
        // already did: an artifact applied to a net dequantizes once.
        let decoded;
        let codes = match self.signed.get() {
            Some(codes) => codes,
            None => {
                decoded = decode_signed(&self.codes, self.bits, self.grid.qmax);
                &decoded
            }
        };
        let grid = self.grid;
        for (o, &q) in out.as_mut_slice().iter_mut().zip(codes) {
            *o = grid.value(i32::from(q));
        }
        out
    }
}

/// The signed codes of a packed payload, in one pass over its bytes:
/// each storage code maps through a table of [`unbias_code`].
fn decode_signed(codes: &PackedInts, bits: u32, qmax: i32) -> Vec<i8> {
    let len = codes.len();
    if bits == 0 {
        return vec![0; len];
    }
    let mut table = [0i8; 256];
    for (c, t) in (0..=u8::MAX).zip(table.iter_mut()) {
        *t = unbias_code(c, bits, qmax);
    }
    let bytes = codes.bytes();
    if bits <= 4 {
        // Two codes per byte, low nibble first.
        bytes
            .iter()
            .flat_map(|&b| [table[usize::from(b & 0x0f)], table[usize::from(b >> 4)]])
            .take(len)
            .collect()
    } else {
        bytes.iter().map(|&b| table[usize::from(b)]).collect()
    }
}

/// Signed grid code → unsigned storage code. One bit stores the sign
/// (`−1 → 0`, `+1 → 1`); wider grids store `q + q_max ∈ [0, 2·q_max]`,
/// which always fits `bits` bits.
fn bias_code(q: i8, bits: u32, qmax: i32) -> u8 {
    if bits <= 1 {
        u8::from(q > 0)
    } else {
        (i32::from(q) + qmax) as u8
    }
}

/// Unsigned storage code → signed grid code (inverse of [`bias_code`]).
fn unbias_code(c: u8, bits: u32, qmax: i32) -> i8 {
    if bits <= 1 {
        if c > 0 {
            1
        } else {
            -1
        }
    } else {
        (i32::from(c) - qmax) as i8
    }
}

/// Integer activation codes for one layer input, with their decoding
/// scale: `value = (code / q_max) · α`, evaluated in the fake-quant
/// kernel's operation order.
///
/// PACT/SAWB produce unsigned codes in `[0, 2^b − 1]`; max-abs produces
/// signed codes in `[-q_max, q_max]`. Either way `|code| ≤ q_max` (the
/// unsigned grid's `q_max` *is* its step count), which is what the
/// integer-kernel overflow guard consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ActCodes {
    /// One code per activation, row-major.
    pub codes: Vec<i16>,
    /// Clip value of the grid.
    pub alpha: f32,
    /// Largest absolute code value.
    pub qmax: i32,
}

impl ActCodes {
    /// The f32 scale factor applied per code at the layer boundary.
    pub fn scale(&self) -> f32 {
        self.alpha / self.qmax as f32
    }
}

/// `y.round() as i16` for every `y`, NaN and infinities included, in a
/// form the compiler keeps in vector lanes.
///
/// The saturating `as i16` cast makes a vectorised quantize loop fall
/// back to one scalar conversion per element. Here NaN maps to 0 and
/// the clamp saturates, as the cast does; the rounded value, an integer
/// of magnitude at most 2¹⁵, then sits exactly in the low mantissa bits
/// of `r + 1.5·2²³`, whose bit pattern minus that of `1.5·2²³` is `r`.
pub fn round_code(y: f32) -> i16 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    let y = if y.is_nan() {
        0.0
    } else {
        y.clamp(-32768.0, 32767.0)
    };
    (y.round() + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i16
}

/// Computes integer activation codes for the policies with a
/// single-scale activation grid, mirroring `LayerQuant::quantize_acts`.
///
/// `alpha` is the layer's learned clip (PACT/SAWB); max-abs derives its
/// scale from the live input instead. Returns `None` for policies or
/// widths without an integer grid (the caller falls back to the f32
/// path), and all-zero codes for the pruned rung.
pub fn act_codes(
    policy: PolicyKind,
    alpha: f32,
    act_bits: BitWidth,
    x: &Tensor,
) -> Option<ActCodes> {
    if act_bits.is_pruned() {
        return Some(ActCodes {
            codes: vec![0; x.as_slice().len()],
            alpha: 0.0,
            qmax: 1,
        });
    }
    if act_bits.is_full_precision() {
        return None;
    }
    let bits = act_bits.bits();
    if bits > 8 {
        return None;
    }
    match policy {
        PolicyKind::Pact | PolicyKind::Sawb => {
            let a = alpha.max(f32::EPSILON);
            let steps = ((1u64 << bits) - 1) as f32;
            let codes = x
                .as_slice()
                .iter()
                .map(|&v| round_code(v.clamp(0.0, a) / a * steps))
                .collect();
            Some(ActCodes {
                codes,
                alpha: a,
                qmax: steps as i32,
            })
        }
        PolicyKind::MaxAbs => {
            let a = x.max_abs();
            let qmax = symmetric_qmax(bits);
            if a <= 0.0 {
                return Some(ActCodes {
                    codes: vec![0; x.as_slice().len()],
                    alpha: 0.0,
                    qmax,
                });
            }
            let codes = if bits <= 1 {
                x.as_slice()
                    .iter()
                    .map(|&v| if v >= 0.0 { 1 } else { -1 })
                    .collect()
            } else {
                let s = qmax as f32;
                x.as_slice()
                    .iter()
                    .map(|&v| round_code((v / a).clamp(-1.0, 1.0) * s))
                    .collect()
            };
            Some(ActCodes {
                codes,
                alpha: a,
                qmax,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerQuant, QuantSpec};
    use ccq_tensor::{rng, Init};

    const PACKABLE: [PolicyKind; 5] = [
        PolicyKind::Pact,
        PolicyKind::MaxAbs,
        PolicyKind::Wrpn,
        PolicyKind::Sawb,
        PolicyKind::Aciq,
    ];

    fn bit(b: u32) -> BitWidth {
        BitWidth::new(b).unwrap()
    }

    #[test]
    fn dequantize_is_bit_exact_for_every_policy_and_width() {
        let mut r = rng(42);
        for policy in PACKABLE {
            for bits in 1..=8u32 {
                for shape in [vec![63], vec![9, 7], vec![4, 3, 3, 3]] {
                    let w = Init::Normal {
                        mean: 0.0,
                        std: 0.8,
                    }
                    .sample(&shape, &mut r);
                    let spec = QuantSpec::new(policy, bit(bits), bit(8));
                    let lq = LayerQuant::new(spec);
                    let fake = lq.quantize_weights(&w);
                    let packed =
                        PackedWeights::from_tensor(policy, &w, bit(bits)).expect("packable policy");
                    let deq = packed.dequantize();
                    assert_eq!(
                        fake.as_slice(),
                        deq.as_slice(),
                        "{policy:?} at {bits} bits, shape {shape:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_rung_packs_to_zero_bytes_and_zero_values() {
        let w = Init::Normal {
            mean: 0.0,
            std: 1.0,
        }
        .sample(&[7, 3], &mut rng(1));
        let p = PackedWeights::from_tensor(PolicyKind::MaxAbs, &w, BitWidth::ZERO).unwrap();
        assert_eq!(p.byte_len(), 0);
        assert_eq!(p.bits(), 0);
        assert!(p.dequantize().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_precision_and_unsupported_policies_do_not_pack() {
        let w = Init::Normal {
            mean: 0.0,
            std: 1.0,
        }
        .sample(&[8], &mut rng(2));
        assert!(PackedWeights::from_tensor(PolicyKind::MaxAbs, &w, BitWidth::FP32).is_none());
        for policy in [
            PolicyKind::Dorefa,
            PolicyKind::UniformAffine,
            PolicyKind::Lsq,
        ] {
            assert!(PackedWeights::from_tensor(policy, &w, bit(4)).is_none());
        }
    }

    #[test]
    fn one_bit_grid_encodes_sign_including_negative_zero() {
        let w = ccq_tensor::Tensor::from_vec(vec![0.5, -0.5, 0.0, -0.0], &[4]).unwrap();
        let p = PackedWeights::from_tensor(PolicyKind::MaxAbs, &w, bit(1)).unwrap();
        let lq = LayerQuant::new(QuantSpec::new(PolicyKind::MaxAbs, bit(1), bit(8)));
        assert_eq!(
            p.dequantize().as_slice(),
            lq.quantize_weights(&w).as_slice()
        );
        assert_eq!(p.codes_i8(), vec![1, -1, 1, 1]);
    }

    #[test]
    fn wire_roundtrip_through_parts_is_lossless() {
        let w = Init::Normal {
            mean: 0.0,
            std: 0.3,
        }
        .sample(&[5, 5], &mut rng(3));
        for bits in [1u32, 3, 4, 7, 8] {
            let p = PackedWeights::from_tensor(PolicyKind::Sawb, &w, bit(bits)).unwrap();
            let again = PackedWeights::from_parts(
                p.shape().to_vec(),
                p.bits(),
                p.grid(),
                p.payload().to_vec(),
            )
            .unwrap();
            assert_eq!(again, p);
        }
    }

    #[test]
    fn act_codes_decode_to_fake_quant_values() {
        let mut r = rng(9);
        for policy in [PolicyKind::Pact, PolicyKind::Sawb, PolicyKind::MaxAbs] {
            for bits in 1..=8u32 {
                let x = Init::Uniform { lo: -3.0, hi: 9.0 }.sample(&[17], &mut r);
                let spec = QuantSpec::new(policy, bit(8), bit(bits));
                let lq = LayerQuant::new(spec);
                let fake = lq.quantize_acts(&x);
                let ac = lq.act_codes(&x).expect("gridded policy");
                let decoded: Vec<f32> = ac
                    .codes
                    .iter()
                    .map(|&c| (f32::from(c) / ac.qmax as f32) * ac.alpha)
                    .collect();
                assert_eq!(fake.as_slice(), &decoded[..], "{policy:?} at {bits} bits");
                assert!(ac
                    .codes
                    .iter()
                    .all(|&c| i32::from(c).unsigned_abs() <= ac.qmax as u32));
            }
        }
    }

    #[test]
    fn pruned_acts_code_to_zero() {
        let x = Init::Uniform { lo: -1.0, hi: 1.0 }.sample(&[6], &mut rng(4));
        let lq = LayerQuant::new(QuantSpec::new(PolicyKind::Pact, bit(4), BitWidth::ZERO));
        let ac = lq.act_codes(&x).unwrap();
        assert!(ac.codes.iter().all(|&c| c == 0));
        assert_eq!(ac.alpha, 0.0);
        let fake = lq.quantize_acts(&x);
        assert!(fake.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fp_and_affine_acts_have_no_grid() {
        let x = Init::Uniform { lo: 0.0, hi: 1.0 }.sample(&[6], &mut rng(5));
        let lq = LayerQuant::new(QuantSpec::new(PolicyKind::Pact, bit(4), BitWidth::FP32));
        assert!(lq.act_codes(&x).is_none());
        let lq = LayerQuant::new(QuantSpec::new(PolicyKind::UniformAffine, bit(4), bit(4)));
        assert!(lq.act_codes(&x).is_none());
    }
}
