//! Integer matrix kernels for packed low-bit inference.
//!
//! The packed execution path replaces the fake-quant f32 GEMM with true
//! integer arithmetic: activation codes (at most 8 unsigned or signed
//! bits, carried as `i16`) multiply weight codes (at most 8 signed bits,
//! carried as `i8`) into an `i32` accumulator; a single f32 rescale at
//! the layer boundary converts the accumulator back to real units.
//!
//! The kernels are serial, like every kernel in [`crate::ops`]: a packed
//! forward spawns no threads, and a caller running several inferences at
//! once decides the thread count alone.
//!
//! A packed convolution runs through [`int_conv2d`] on batch-innermost
//! activation codes, `[c, h, w, n]`, and does each piece of work once
//! per call:
//!
//! - the weights arrive already listed: a [`ConvTaps`] holds each output
//!   channel's nonzero weights as (patch row, code), built once per
//!   weight tensor (a `PackedWeights` in `ccq-quant` builds it on its
//!   first integer forward and keeps it), with the weight bound checked
//!   when it is built;
//! - the patch matrix `[c·kh·kw, oh·ow·n]` lives in one
//!   [`IntConvScratch`] that the caller reuses across layers and calls,
//!   and the lowering ([`int_im2col`]) writes every element of it,
//!   padding zeros included, so nothing is cleared or allocated for it
//!   per call. A 1×1, stride-1, unpadded convolution lowers nothing: its
//!   codes, viewed as `[c, h·w·n]`, are the patch matrix;
//! - each output channel's accumulator row is built from its taps
//!   alone, up to four products summed in `i16` lanes before one
//!   widening add into the `i32` row (see *Exactness* below);
//! - one epilogue takes each output channel's `i32` accumulator row
//!   while it is in cache and appends it to the output as `(acc as f32 *
//!   scale) + bias`: in this layout the row is the channel's whole
//!   `[oh, ow, n]` span, so there is no accumulator matrix, no separate
//!   rescaled matrix and no reordering;
//! - the output goes into a buffer the caller passes in, which the
//!   epilogue clears and refills channel by channel, so a caller can
//!   hand in the buffer of an activation it no longer needs instead of
//!   allocating, and no element is written twice.
//!
//! # Exactness
//!
//! [`int_conv2d`] equals the plain `i32` product [`int_matmul`] bit for
//! bit, although it adds its products in another order and partly in
//! `i16`. Integer addition is associative and commutative, so the order
//! changes nothing as long as no sum wraps, and none can:
//!
//! - the caller states [`CodeBounds`], the largest `|a|` and `|w|` its
//!   codes take, and the kernel refuses codes outside them;
//! - a group sum of `G` products lies within `G·|a|max·|w|max`, and
//!   [`CodeBounds::i16_group`] picks `G` (4, 2 or 1) so that this stays
//!   within `i16::MAX`: 4 for 8-bit activations and weights of 4 bits or
//!   fewer, 2 for signed 8-bit activations against 8-bit weights
//!   (`2·127·127 = 32 258`), 1 for PACT's unsigned 255 against 8-bit
//!   weights (`255·127 = 32 385`);
//! - every partial `i32` sum lies within `k·|a|max·|w|max` for `k`
//!   products, which [`int_accumulator_safe`] bounds by `i32::MAX`: for
//!   `255·127` that allows `k` up to ~66 000, far beyond any CCQ layer.
//!   The kernel checks it, and layer code checks it first to choose the
//!   dequantized path instead.

use crate::ops::conv::lower_chwn_into;
use crate::ops::Conv2dGeometry;
use crate::{Result, Tensor, TensorError};

/// Whether `k` products of `a_max · b_max` magnitude fit an `i32`
/// accumulator. `a_max`/`b_max` are the largest absolute code values the
/// two operands can take (e.g. `255` for unsigned 8-bit activations,
/// `127` for signed 8-bit weights).
pub fn int_accumulator_safe(k: usize, a_max: u32, b_max: u32) -> bool {
    let bound = (k as u64) * u64::from(a_max) * u64::from(b_max);
    bound <= i32::MAX as u64
}

/// The largest magnitudes the codes of an integer product take: `act`
/// for the activation operand (e.g. `255` for unsigned 8-bit, `127` for
/// signed 8-bit), `weight` for the weight operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeBounds {
    /// Largest `|code|` of the activation operand.
    pub act: u32,
    /// Largest `|code|` of the weight operand.
    pub weight: u32,
}

impl CodeBounds {
    /// How many products [`int_conv2d`] sums in one `i16` lane before
    /// widening into its `i32` accumulator: the largest of 4, 2 and 1
    /// whose sum cannot leave `i16` (`G · act · weight ≤ i16::MAX`), or
    /// 0 when a single product may not fit and each one widens first.
    pub fn i16_group(self) -> usize {
        let product = u64::from(self.act) * u64::from(self.weight);
        [4, 2, 1]
            .into_iter()
            .find(|&g| g * product <= i16::MAX as u64)
            .map_or(0, |g| g as usize)
    }
}

/// Integer `A · Bᵀ`: `a` is `[m, k]` row-major activation codes, `b` is
/// `[n, k]` row-major weight codes, output is `[m, n]` row-major `i32`
/// accumulators. This mirrors the f32 `matmul_a_bt` used by the linear
/// layer (`x · Wᵀ`).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a buffer does not match
/// its declared dimensions.
pub fn int_matmul_a_bt(a: &[i16], b: &[i8], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_len(a.len(), m * k)?;
    check_len(b.len(), n * k)?;
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(arow[p]) * i32::from(brow[p]);
            }
            *o = acc;
        }
    }
    Ok(out)
}

/// Integer `A · B`: `a` is `[m, k]` row-major weight codes, `b` is
/// `[k, n]` row-major activation codes, output is `[m, n]` row-major
/// `i32` accumulators. This mirrors the f32 `matmul` used by the conv
/// layer (`W · im2col(x)`).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when a buffer does not match
/// its declared dimensions.
pub fn int_matmul(a: &[i8], b: &[i16], m: usize, k: usize, n: usize) -> Result<Vec<i32>> {
    check_len(a.len(), m * k)?;
    check_len(b.len(), k * n)?;
    let mut out = vec![0i32; m * n];
    if n > 0 {
        for (i, orow) in out.chunks_exact_mut(n).enumerate() {
            int_matmul_row(&a[i * k..(i + 1) * k], b, orow);
        }
    }
    Ok(out)
}

/// Adds row `arow · B` of [`int_matmul`] into `orow`: `b` is `[k, n]`
/// with `k = arow.len()` and `n = orow.len()`.
fn int_matmul_row(arow: &[i8], b: &[i16], orow: &mut [i32]) {
    let n = orow.len();
    for (p, &av) in arow.iter().enumerate() {
        if av == 0 {
            continue;
        }
        let av = i32::from(av);
        let brow = &b[p * n..(p + 1) * n];
        for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
            *o += av * i32::from(bv);
        }
    }
}

/// The batch-innermost lowering over integer activation codes: unrolls
/// a code tensor of shape `[c, h, w, n]` (`dims`) into the `[c·kh·kw,
/// oh·ow·n]` row-major patch matrix of the f32
/// [`im2col_chwn`](crate::ops::im2col_chwn), through the same row
/// routine (padding positions hold code `0`, which every supported
/// activation grid maps to the real value `0.0`).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `codes` does not hold
/// `c·h·w·n` entries, or [`TensorError::InvalidGeometry`] when the
/// kernel does not fit the padded input.
pub fn int_im2col(codes: &[i16], dims: [usize; 4], geom: Conv2dGeometry) -> Result<Vec<i16>> {
    let mut out = Vec::new();
    lower_chwn_into(codes, dims, geom, &mut out)?;
    Ok(out)
}

/// Working memory of [`int_conv2d`]: the patch matrix and one row of
/// accumulators. One scratch serves convolutions of any geometry in
/// turn; it grows to the largest layer it has seen and every call
/// overwrites what it reads, so a caller keeps one and passes it to
/// every layer.
#[derive(Debug, Clone, Default)]
pub struct IntConvScratch {
    cols: Vec<i16>,
    acc: Vec<i32>,
}

impl IntConvScratch {
    /// Codes the patch matrix has room for: the largest lowered layer
    /// seen so far.
    pub fn patch_capacity(&self) -> usize {
        self.cols.capacity()
    }
}

/// The nonzero weights of a `[out_ch, row_len]` weight-code matrix, one
/// output channel after another, listed once per weight tensor and read
/// by every [`int_conv2d`] call on it.
///
/// Each tap packs its patch row and code into four bytes, `row << 8 |
/// code as u8`, so the list is at most four bytes per weight.
#[derive(Debug, Clone)]
pub struct ConvTaps {
    taps: Vec<u32>,
    /// Channel `o`'s taps are `taps[ends[o]..ends[o + 1]]`.
    ends: Vec<usize>,
    row_len: usize,
    max_abs: u32,
}

impl ConvTaps {
    /// Lists the nonzero entries of each of the `out_ch` rows of
    /// `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `weights` does not
    /// split into `out_ch` equal rows, or [`TensorError::InvalidArgument`]
    /// when a code's magnitude exceeds `w_max` or a row is too long for
    /// a tap's 24-bit row index.
    pub fn new(weights: &[i8], out_ch: usize, w_max: u32) -> Result<Self> {
        let row_len = weights.len().checked_div(out_ch).unwrap_or(0);
        check_len(weights.len(), out_ch * row_len)?;
        if row_len > 1 << 24 {
            return Err(TensorError::InvalidArgument(format!(
                "a weight row of {row_len} codes exceeds the 24-bit tap index"
            )));
        }
        let max_abs = u32::from(weights.iter().fold(0u8, |m, &w| m.max(w.unsigned_abs())));
        check_bound("weight", max_abs, w_max)?;
        let mut taps = Vec::with_capacity(weights.iter().filter(|&&w| w != 0).count());
        let mut ends = Vec::with_capacity(out_ch + 1);
        ends.push(0);
        for oi in 0..out_ch {
            let row = &weights[oi * row_len..(oi + 1) * row_len];
            let nonzero = row.iter().enumerate().filter(|(_, &w)| w != 0);
            taps.extend(nonzero.map(|(p, &w)| ((p as u32) << 8) | u32::from(w as u8)));
            ends.push(taps.len());
        }
        Ok(ConvTaps {
            taps,
            ends,
            row_len,
            max_abs,
        })
    }

    /// Number of output channels (weight rows).
    pub fn out_ch(&self) -> usize {
        self.ends.len() - 1
    }
}

/// Adds `Σ w · cols[p]` over the taps `(p, w)` into `acc`, where row `p`
/// of `cols` is `cols[p·n..(p+1)·n]` with `n = acc.len()`. Up to `group`
/// products (see [`CodeBounds::i16_group`]) share one `i16` lane sum.
fn accumulate_taps(taps: &[u32], cols: &[i16], acc: &mut [i32], group: usize) {
    let n = acc.len();
    let row = |t: u32| &cols[(t >> 8) as usize * n..((t >> 8) as usize + 1) * n];
    let code = |t: u32| i16::from(t as u8 as i8);
    let mut rest = taps;
    if group >= 4 {
        let mut quads = rest.chunks_exact(4);
        for q in &mut quads {
            let [w0, w1, w2, w3] = [q[0], q[1], q[2], q[3]].map(code);
            let lanes = row(q[0])
                .iter()
                .zip(row(q[1]))
                .zip(row(q[2]))
                .zip(row(q[3]));
            for (o, (((&a, &b), &c), &d)) in acc.iter_mut().zip(lanes) {
                *o += i32::from(w0 * a + w1 * b + w2 * c + w3 * d);
            }
        }
        rest = quads.remainder();
    }
    if group >= 2 {
        let mut pairs = rest.chunks_exact(2);
        for q in &mut pairs {
            let [w0, w1] = [q[0], q[1]].map(code);
            for (o, (&a, &b)) in acc.iter_mut().zip(row(q[0]).iter().zip(row(q[1]))) {
                *o += i32::from(w0 * a + w1 * b);
            }
        }
        rest = pairs.remainder();
    }
    for &t in rest {
        let w = code(t);
        if group >= 1 {
            for (o, &a) in acc.iter_mut().zip(row(t)) {
                *o += i32::from(w * a);
            }
        } else {
            let w = i32::from(w);
            for (o, &a) in acc.iter_mut().zip(row(t)) {
                *o += w * i32::from(a);
            }
        }
    }
}

/// Integer 2-D convolution of batch-innermost activation codes `[c, h,
/// w, n]` (`dims`) with the listed weights `taps` of a `[out_ch,
/// c·kh·kw]` code matrix, returning the rescaled output `[out_ch, oh, ow,
/// n]` in `out`'s memory. `bounds` states the largest `|code|` of each
/// operand; it picks the `i16` group size (see *Exactness* in the module
/// docs).
///
/// Equal bit for bit to [`int_im2col`] → [`int_matmul`] → `acc as f32 *
/// scale + bias[o]` (or `+ 0.0` without a bias, which turns a `-0.0`
/// product into `+0.0` as that composition does). The patch matrix
/// lives in `scratch` (a pointwise convolution reads `codes` in its
/// place), and so does one output channel's accumulator row at a time:
/// the epilogue rescales it onto the end of `out` while it is still in
/// cache. `out` is cleared first, so whatever it held does not matter.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `codes`, `taps` or
/// `bias` does not match its declared dimensions,
/// [`TensorError::InvalidGeometry`] when the kernel does not fit the
/// padded input, or [`TensorError::InvalidArgument`] when a code lies
/// outside `bounds` or `bounds` admit an `i32` overflow
/// ([`int_accumulator_safe`]).
#[allow(clippy::too_many_arguments)]
pub fn int_conv2d(
    codes: &[i16],
    dims: [usize; 4],
    geom: Conv2dGeometry,
    taps: &ConvTaps,
    bounds: CodeBounds,
    scale: f32,
    bias: Option<&[f32]>,
    scratch: &mut IntConvScratch,
    mut out: Vec<f32>,
) -> Result<Tensor> {
    let [c, h, w, n] = dims;
    check_len(codes.len(), c * h * w * n)?;
    let ckk = c * geom.kernel_h * geom.kernel_w;
    let out_ch = taps.out_ch();
    check_len(taps.row_len * out_ch, out_ch * ckk)?;
    if let Some(b) = bias {
        check_len(b.len(), out_ch)?;
    }
    if !int_accumulator_safe(ckk, bounds.act, bounds.weight) {
        return Err(TensorError::InvalidArgument(format!(
            "{ckk} products of |a| <= {} and |w| <= {} may overflow an i32 accumulator",
            bounds.act, bounds.weight
        )));
    }
    let a_seen = codes.iter().fold(0u16, |m, &c| m.max(c.unsigned_abs()));
    check_bound("activation", u32::from(a_seen), bounds.act)?;
    check_bound("weight", taps.max_abs, bounds.weight)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let IntConvScratch { cols, acc } = scratch;
    let patches = if geom.is_pointwise() {
        codes
    } else {
        lower_chwn_into(codes, dims, geom, cols)?;
        &cols[..]
    };
    let len = oh * ow * n;
    out.clear();
    if len > 0 {
        out.reserve(out_ch * len);
        let group = bounds.i16_group();
        for oi in 0..out_ch {
            acc.clear();
            acc.resize(len, 0);
            accumulate_taps(
                &taps.taps[taps.ends[oi]..taps.ends[oi + 1]],
                patches,
                acc,
                group,
            );
            let b = bias.map_or(0.0, |b| b[oi]);
            out.extend(acc.iter().map(|&a| a as f32 * scale + b));
        }
    }
    Tensor::from_vec(out, &[out_ch, oh, ow, n])
}

/// Refuses a `what` code of magnitude `seen` beyond the stated `bound`.
fn check_bound(what: &str, seen: u32, bound: u32) -> Result<()> {
    if seen > bound {
        return Err(TensorError::InvalidArgument(format!(
            "{what} code magnitude {seen} exceeds its stated bound {bound}"
        )));
    }
    Ok(())
}

fn check_len(actual: usize, expected: usize) -> Result<()> {
    if actual != expected {
        return Err(TensorError::LengthMismatch { expected, actual });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{matmul, matmul_a_bt};
    use crate::{rng, Init, Tensor};
    use rand::Rng;

    fn codes_to_tensor(codes: &[i16], dims: &[usize]) -> Tensor {
        Tensor::from_vec(codes.iter().map(|&c| f32::from(c)).collect(), dims).unwrap()
    }

    #[test]
    fn accumulator_guard_matches_bound() {
        assert!(int_accumulator_safe(66_000, 255, 127));
        assert!(!int_accumulator_safe(70_000, 255, 127));
        assert!(int_accumulator_safe(usize::MAX, 0, 127));
    }

    #[test]
    fn int_matmul_a_bt_matches_f32_on_small_codes() {
        let mut r = rng(11);
        let (m, k, n) = (3, 7, 5);
        let a: Vec<i16> = (0..m * k).map(|_| r.gen_range(0..256i32) as i16).collect();
        let b: Vec<i8> = (0..n * k)
            .map(|_| r.gen_range(-127..128i32) as i8)
            .collect();
        let got = int_matmul_a_bt(&a, &b, m, k, n).unwrap();
        let af = codes_to_tensor(&a, &[m, k]);
        let bf: Vec<i16> = b.iter().map(|&v| i16::from(v)).collect();
        let bf = codes_to_tensor(&bf, &[n, k]);
        let want = matmul_a_bt(&af, &bf).unwrap();
        let want: Vec<i32> = want.as_slice().iter().map(|&v| v as i32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn int_matmul_matches_f32_on_small_codes() {
        let mut r = rng(12);
        let (m, k, n) = (4, 6, 9);
        let a: Vec<i8> = (0..m * k)
            .map(|_| r.gen_range(-127..128i32) as i8)
            .collect();
        let b: Vec<i16> = (0..k * n).map(|_| r.gen_range(0..256i32) as i16).collect();
        let got = int_matmul(&a, &b, m, k, n).unwrap();
        let af: Vec<i16> = a.iter().map(|&v| i16::from(v)).collect();
        let af = codes_to_tensor(&af, &[m, k]);
        let bf = codes_to_tensor(&b, &[k, n]);
        let want = matmul(&af, &bf).unwrap();
        let want: Vec<i32> = want.as_slice().iter().map(|&v| v as i32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn length_mismatches_are_typed() {
        assert!(matches!(
            int_matmul_a_bt(&[0; 5], &[0; 6], 2, 3, 2),
            Err(TensorError::LengthMismatch { .. })
        ));
        assert!(matches!(
            int_matmul(&[0; 6], &[0; 5], 2, 3, 2),
            Err(TensorError::LengthMismatch { .. })
        ));
        assert!(matches!(
            int_im2col(
                &[0; 5],
                [1, 2, 3, 1],
                Conv2dGeometry {
                    kernel_h: 1,
                    kernel_w: 1,
                    stride: 1,
                    padding: 0
                }
            ),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn random_init_smoke_uses_gaussian_codes() {
        // Codes derived from a real weight init stay well inside range.
        let t = Init::Normal {
            mean: 0.0,
            std: 0.05,
        }
        .sample(&[4, 8], &mut rng(9));
        let codes: Vec<i8> = t
            .as_slice()
            .iter()
            .map(|v| ((v / 0.2).clamp(-1.0, 1.0) * 127.0).round() as i8)
            .collect();
        let acts = vec![1i16; 8 * 2];
        let out = int_matmul_a_bt(&acts, &codes, 2, 8, 4).unwrap();
        assert_eq!(out.len(), 8);
    }
}
