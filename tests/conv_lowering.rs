//! Convolution lowering is exact: the f32 `im2col` and the integer-code
//! `int_im2col` both equal a naive per-element gather, for any geometry
//! the kernel fits. The two share one row routine, so comparing them to
//! each other would miss a bug in it; the gather here is the reference.
//! Input values are distinct and nonzero, so a misplaced or dropped
//! element and a padding slot that is not zero all show.

use ccq_tensor::ops::{im2col, int_im2col, Conv2dGeometry};
use ccq_tensor::Tensor;
use proptest::prelude::*;

/// The `[c·kh·kw, n·oh·ow]` patch matrix, one element at a time: row
/// `(ci·kh + ki)·kw + kj`, column `(ni·oh + y)·ow + x` holds input
/// `(ni, ci, y·s + ki − p, x·s + kj − p)`, or 0 where that is padding.
fn naive_im2col(x: &[i16], [n, c, h, w]: [usize; 4], g: Conv2dGeometry) -> Vec<i16> {
    let (oh, ow) = g.output_hw(h, w).unwrap();
    let (kh, kw, s, p) = (g.kernel_h, g.kernel_w, g.stride, g.padding);
    let cols = n * oh * ow;
    let mut out = vec![0; c * kh * kw * cols];
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for ni in 0..n {
                    for y in 0..oh {
                        for xo in 0..ow {
                            let iy = (y * s + ki) as isize - p as isize;
                            let ix = (xo * s + kj) as isize - p as isize;
                            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                let src = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                                out[row * cols + (ni * oh + y) * ow + xo] = x[src];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Checks both lowerings against the gather, and reports the geometry on
/// a mismatch.
fn check(dims: [usize; 4], g: Conv2dGeometry) -> Result<(), TestCaseError> {
    let [n, c, h, w] = dims;
    let codes: Vec<i16> = (1..=(n * c * h * w) as i16).collect();
    let want = naive_im2col(&codes, dims, g);

    let got = int_im2col(&codes, dims, g).unwrap();
    prop_assert_eq!(&got, &want, "int_im2col, dims {:?}, {:?}", dims, g);

    let x = Tensor::from_vec(codes.iter().map(|&v| f32::from(v)).collect(), &dims).unwrap();
    let cols = im2col(&x, g).unwrap();
    let want_f32: Vec<f32> = want.iter().map(|&v| f32::from(v)).collect();
    prop_assert!(cols.as_slice() == want_f32, "im2col, dims {dims:?}, {g:?}");
    Ok(())
}

fn geom(kernel_h: usize, kernel_w: usize, stride: usize, padding: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        kernel_h,
        kernel_w,
        stride,
        padding,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Rectangular inputs and kernels, stride 1–3, padding from 0 to
    /// past the kernel size: kernels wider than the unpadded input and
    /// kernel elements that only ever read padding come up often.
    #[test]
    fn both_lowerings_equal_the_naive_gather(
        (n, c) in (1usize..3, 1usize..4),
        (h, w) in (1usize..8, 1usize..8),
        (kh, kw) in (1usize..6, 1usize..6),
        stride in 1usize..=3,
        padding in 0usize..=6,
    ) {
        let g = geom(kh, kw, stride, padding);
        prop_assume!(g.output_hw(h, w).is_ok());
        check([n, c, h, w], g)?;
    }
}

/// A padded 3×3, a strided 3×3 on a non-square input, and a 1×1.
#[test]
fn int_im2col_matches_f32_layout() {
    for (dims, g) in [
        ([2, 3, 5, 5], geom(3, 3, 1, 1)),
        ([1, 2, 4, 6], geom(3, 3, 2, 0)),
        ([2, 1, 3, 3], geom(1, 1, 1, 0)),
    ] {
        check(dims, g).unwrap();
    }
}

/// One case per edge the row routine special-cases, so each is run
/// whatever the generator draws.
#[test]
fn edge_geometries_equal_the_naive_gather() {
    for (dims, g) in [
        // 1×1 kernels, at stride 1 and 3, with padding.
        ([2, 3, 4, 5], geom(1, 1, 1, 0)),
        ([1, 2, 7, 5], geom(1, 1, 3, 2)),
        // Kernel wider (and taller) than the unpadded input.
        ([1, 2, 2, 3], geom(4, 5, 1, 2)),
        // Empty column ranges: at stride 3, padding 3 on a width-2
        // input, kernel column 2 reads input columns -1 and 2 only; at
        // stride 2, padding 1 on a width-1 input, every column is padding.
        ([1, 1, 2, 2], geom(3, 3, 3, 3)),
        ([1, 1, 3, 1], geom(1, 1, 2, 1)),
        // Padding above the kernel size.
        ([2, 1, 3, 4], geom(2, 3, 2, 4)),
        // Stride larger than the kernel skips input columns.
        ([1, 1, 6, 9], geom(2, 1, 3, 0)),
    ] {
        check(dims, g).unwrap();
    }
}
