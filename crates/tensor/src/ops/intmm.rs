//! Integer matrix kernels for packed low-bit inference.
//!
//! The packed execution path replaces the fake-quant f32 GEMM with true
//! integer arithmetic: activation codes (at most 8 unsigned or signed
//! bits, carried as `i16`) multiply weight codes (at most 8 signed bits,
//! carried as `i8`) into an `i32` accumulator; a single f32 rescale at
//! the layer boundary converts the accumulator back to real units.
//!
//! The kernels are intentionally serial and in index order — an integer
//! sum is associative, but keeping one canonical order means the packed
//! path needs no thread-count caveats at all. [`int_im2col`] is serial
//! too, although the f32 [`im2col`](crate::ops::im2col) that shares its
//! row routine splits rows across threads: a packed forward then spawns
//! no threads, and a caller running several inferences at once decides
//! the thread count alone.
//!
//! A packed convolution runs through [`int_conv2d`], which does each
//! piece of work once per call:
//!
//! - the weight codes arrive already decoded (a `PackedWeights` in
//!   `ccq-quant` unpacks its bytes once, when it is built);
//! - the patch matrix lives in one [`IntConvScratch`] that the caller
//!   reuses across layers and calls, and the lowering writes every
//!   element of it, padding zeros included, so nothing is cleared or
//!   allocated for it per call;
//! - one epilogue takes each output channel's `i32` accumulator row
//!   while it is in cache and writes it into the NCHW output as
//!   `(acc as f32 * scale) + bias`, so there is no accumulator matrix,
//!   no separate rescaled matrix and no second layout pass.
//!
//! Callers are responsible for the accumulator range: with `k` inner
//! products of magnitude at most `|a|·|w| ≤ 255·127`, overflow is
//! impossible for `k` up to ~66 000, far beyond any CCQ layer;
//! [`int_accumulator_safe`] makes the check explicit so layer code can
//! assert it rather than assume it.

use crate::ops::conv::im2col_row;
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

/// `im2col` over integer activation codes: unrolls an NCHW code tensor
/// of shape `[n, c, h, w]` into a `[c·kh·kw, n·oh·ow]` row-major patch
/// matrix, with the same row/column ordering as the f32 [`im2col`]
/// (padding positions hold code `0`, which every supported activation
/// grid maps to the real value `0.0`).
///
/// [`im2col`]: crate::ops::im2col
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `codes` does not hold
/// `n·c·h·w` entries, or [`TensorError::InvalidGeometry`] when the
/// kernel does not fit the padded input.
pub fn int_im2col(codes: &[i16], dims: [usize; 4], geom: Conv2dGeometry) -> Result<Vec<i16>> {
    let mut out = Vec::new();
    int_im2col_into(codes, dims, geom, &mut out)?;
    Ok(out)
}

/// [`int_im2col`] into a reused buffer, which is resized to the patch
/// matrix and written in full: whatever it held before is overwritten.
fn int_im2col_into(
    codes: &[i16],
    dims: [usize; 4],
    geom: Conv2dGeometry,
    out: &mut Vec<i16>,
) -> Result<(usize, usize)> {
    let [n, c, h, w] = dims;
    check_len(codes.len(), n * c * h * w)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * oh * ow;
    // Only growth is zero-filled; the rows below overwrite the rest.
    out.resize(rows * cols, 0);
    if cols > 0 {
        for (row, orow) in out.chunks_exact_mut(cols).enumerate() {
            im2col_row(codes, orow, row, geom, (n, c, h, w), (oh, ow));
        }
    }
    Ok((oh, ow))
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

/// Integer 2-D convolution of NCHW activation codes `[n, c, h, w]` with
/// `[out_ch, c·kh·kw]` weight codes, returning the rescaled NCHW output
/// `[n, out_ch, oh, ow]`.
///
/// Equal bit for bit to [`int_im2col`] → [`int_matmul`] → `acc as f32 *
/// scale` → reorder to NCHW adding `bias[o]` (or `0.0` without a bias,
/// which turns a `-0.0` product into `+0.0` as that composition does).
/// The patch matrix lives in `scratch`, and so does one output channel's
/// accumulator row at a time: the epilogue rescales it into the output
/// while it is still in cache.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `codes`, `weights` or
/// `bias` does not match its declared dimensions, or
/// [`TensorError::InvalidGeometry`] when the kernel does not fit the
/// padded input.
#[allow(clippy::too_many_arguments)]
pub fn int_conv2d(
    codes: &[i16],
    dims: [usize; 4],
    geom: Conv2dGeometry,
    weights: &[i8],
    out_ch: usize,
    scale: f32,
    bias: Option<&[f32]>,
    scratch: &mut IntConvScratch,
) -> Result<Tensor> {
    let ckk = dims[1] * geom.kernel_h * geom.kernel_w;
    check_len(weights.len(), out_ch * ckk)?;
    if let Some(b) = bias {
        check_len(b.len(), out_ch)?;
    }
    let n = dims[0];
    let (oh, ow) = int_im2col_into(codes, dims, geom, &mut scratch.cols)?;
    let plane = oh * ow;
    let mut out = Tensor::zeros(&[n, out_ch, oh, ow]);
    if plane == 0 {
        return Ok(out);
    }
    let ov = out.as_mut_slice();
    let acc = &mut scratch.acc;
    for oi in 0..out_ch {
        acc.clear();
        acc.resize(n * plane, 0);
        int_matmul_row(&weights[oi * ckk..(oi + 1) * ckk], &scratch.cols, acc);
        let b = bias.map_or(0.0, |b| b[oi]);
        for (ni, src) in acc.chunks_exact(plane).enumerate() {
            let dst = &mut ov[(ni * out_ch + oi) * plane..(ni * out_ch + oi + 1) * plane];
            for (d, &a) in dst.iter_mut().zip(src) {
                *d = a as f32 * scale + b;
            }
        }
    }
    Ok(out)
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
                [1, 1, 2, 3],
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
