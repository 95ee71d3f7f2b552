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
//! Callers are responsible for the accumulator range: with `k` inner
//! products of magnitude at most `|a|·|w| ≤ 255·127`, overflow is
//! impossible for `k` up to ~66 000, far beyond any CCQ layer;
//! [`int_accumulator_safe`] makes the check explicit so layer code can
//! assert it rather than assume it.

use crate::ops::conv::im2col_row;
use crate::ops::Conv2dGeometry;
use crate::{Result, TensorError};

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
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
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
    Ok(out)
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
    let [n, c, h, w] = dims;
    check_len(codes.len(), n * c * h * w)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * oh * ow;
    let mut out = vec![0i16; rows * cols];
    if cols > 0 {
        for (row, orow) in out.chunks_exact_mut(cols).enumerate() {
            im2col_row(codes, orow, row, geom, (n, c, h, w), (oh, ow));
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
