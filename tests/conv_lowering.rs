//! Convolution lowering is exact: the NCHW f32 `im2col` of the training
//! path equals a naive per-element gather, and so do the batch-innermost
//! lowerings of the packed forward, the f32 `im2col_chwn` and the
//! integer-code `int_im2col`, for any geometry the kernel fits. The two
//! batch-innermost ones share one row routine, so comparing them to
//! each other would miss a bug in it; the gathers here are the
//! reference. Input values are distinct and nonzero, so a misplaced or
//! dropped element and a padding slot that is not zero all show.

use ccq_tensor::ops::{im2col, im2col_chwn, int_im2col, Conv2dGeometry};
use ccq_tensor::Tensor;
use proptest::prelude::*;

/// The `[c·kh·kw, n·oh·ow]` patch matrix of an NCHW input, one element
/// at a time: row `(ci·kh + ki)·kw + kj`, column `(ni·oh + y)·ow + x`
/// holds input `(ni, ci, y·s + ki − p, x·s + kj − p)`, or 0 where that
/// is padding.
fn naive_im2col(x: &[i16], [n, c, h, w]: [usize; 4], g: Conv2dGeometry) -> Vec<i16> {
    naive_gather(
        x,
        [n, c, h, w],
        g,
        |ni, ci, iy, ix| ((ni * c + ci) * h + iy) * w + ix,
        |ni, y, xo, (oh, ow)| (ni * oh + y) * ow + xo,
    )
}

/// The `[c·kh·kw, oh·ow·n]` patch matrix of a batch-innermost input
/// `[c, h, w, n]`: the same rows, column `(y·ow + x)·n + ni`, reading
/// input `(ci, y·s + ki − p, x·s + kj − p, ni)`.
fn naive_im2col_chwn(x: &[i16], [c, h, w, n]: [usize; 4], g: Conv2dGeometry) -> Vec<i16> {
    naive_gather(
        x,
        [n, c, h, w],
        g,
        |ni, ci, iy, ix| ((ci * h + iy) * w + ix) * n + ni,
        |ni, y, xo, (_, ow)| (y * ow + xo) * n + ni,
    )
}

/// Gathers every patch-matrix element: input index `src(ni, ci, iy,
/// ix)` goes to row `(ci·kh + ki)·kw + kj`, column `col(ni, y, x, (oh,
/// ow))`.
fn naive_gather(
    x: &[i16],
    [n, c, h, w]: [usize; 4],
    g: Conv2dGeometry,
    src: impl Fn(usize, usize, usize, usize) -> usize,
    col: impl Fn(usize, usize, usize, (usize, usize)) -> usize,
) -> Vec<i16> {
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
                                let v = x[src(ni, ci, iy as usize, ix as usize)];
                                out[row * cols + col(ni, y, xo, (oh, ow))] = v;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn to_f32(v: &[i16]) -> Vec<f32> {
    v.iter().map(|&v| f32::from(v)).collect()
}

/// Checks the three lowerings of an input with `n` samples, `c`
/// channels and an `h × w` plane against their gathers, and reports the
/// geometry on a mismatch.
fn check([n, c, h, w]: [usize; 4], g: Conv2dGeometry) -> Result<(), TestCaseError> {
    let codes: Vec<i16> = (1..=(n * c * h * w) as i16).collect();
    let (oh, ow) = g.output_hw(h, w).unwrap();
    let shape = [c * g.kernel_h * g.kernel_w, n * oh * ow];

    let nchw = [n, c, h, w];
    let x = Tensor::from_vec(to_f32(&codes), &nchw).unwrap();
    let cols = im2col(&x, g).unwrap();
    prop_assert_eq!(cols.shape(), &shape[..]);
    let want = to_f32(&naive_im2col(&codes, nchw, g));
    prop_assert!(cols.as_slice() == want, "im2col, {nchw:?}, {g:?}");

    let chwn = [c, h, w, n];
    let want = naive_im2col_chwn(&codes, chwn, g);
    let got = int_im2col(&codes, chwn, g).unwrap();
    prop_assert_eq!(&got, &want, "int_im2col, {:?}, {:?}", chwn, g);
    let x = Tensor::from_vec(to_f32(&codes), &chwn).unwrap();
    let cols = im2col_chwn(&x, g).unwrap();
    prop_assert_eq!(cols.shape(), &shape[..]);
    prop_assert!(
        cols.as_slice() == to_f32(&want),
        "im2col_chwn, {chwn:?}, {g:?}"
    );
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

    /// Both layouts, on rectangular inputs and kernels, stride 1–3,
    /// padding from 0 to past the kernel size: kernels wider than the
    /// unpadded input and kernel elements that only ever read padding
    /// come up often.
    #[test]
    fn both_lowerings_equal_the_naive_gather(
        (n, c) in (1usize..5, 1usize..4),
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

/// A padded 3×3 (whose centre column the batch-innermost lowering
/// copies as one run of rows), a strided 3×3 on a non-square input, and
/// a 1×1.
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

/// One case per edge the row routines special-case, so each is run
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
        // Padding wider than "same": the centre column reads every
        // input column, but output rows are wider than input rows.
        ([3, 2, 4, 4], geom(3, 3, 1, 2)),
        // Stride larger than the kernel skips input columns.
        ([1, 1, 6, 9], geom(2, 1, 3, 0)),
    ] {
        check(dims, g).unwrap();
    }
}
