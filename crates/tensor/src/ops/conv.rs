//! Convolution lowering: `im2col` / `col2im`.
//!
//! A 2-D convolution over an NCHW input is computed as a single matrix
//! product: `im2col` unrolls every receptive field into a column of a
//! `[C·kh·kw, N·OH·OW]` matrix, the weight tensor is viewed as
//! `[O, C·kh·kw]`, and the product gives every output position for every
//! sample in one GEMM. `col2im` is the adjoint (scatter-add), used for the
//! input gradient.
//!
//! The packed forward keeps its activations batch-innermost, `[C, H, W,
//! N]`, and lowers them with [`im2col_chwn`] (and the integer-code
//! [`int_im2col`](crate::ops::int_im2col)) into a `[C·kh·kw, OH·OW·N]`
//! matrix whose product with the weights is the `[O, OH, OW, N]` output
//! itself. There the `N` samples of one input position are adjacent, so
//! an in-image output row is one run of `xs.len()·N` elements at stride
//! 1 and runs of `N` at larger strides, where the NCHW lowering copies
//! runs of one to a few elements per sample on small planes.

use std::ops::Range;

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution (square stride/padding per side).
///
/// # Example
///
/// ```
/// use ccq_tensor::ops::Conv2dGeometry;
///
/// let g = Conv2dGeometry { kernel_h: 3, kernel_w: 3, stride: 1, padding: 1 };
/// assert_eq!(g.output_hw(32, 32)?, (32, 32));
/// # Ok::<(), ccq_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding added on every side.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Computes the output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel does not fit
    /// into the padded input or the stride is zero.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let oh = conv_output_size(h, self.kernel_h, self.stride, self.padding)?;
        let ow = conv_output_size(w, self.kernel_w, self.stride, self.padding)?;
        Ok((oh, ow))
    }

    /// Whether the convolution is 1×1, stride 1 and unpadded: its
    /// batch-innermost patch matrix is the input itself, viewed as
    /// `[C, H·W·N]`.
    pub fn is_pointwise(&self) -> bool {
        (self.kernel_h, self.kernel_w, self.stride, self.padding) == (1, 1, 1, 0)
    }
}

/// Output extent of a 1-D convolution: `(n + 2p - k) / s + 1`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `stride == 0` or the kernel
/// exceeds the padded input.
pub fn conv_output_size(
    input: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<usize> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry(
            "stride must be nonzero".into(),
        ));
    }
    let padded = input + 2 * padding;
    if kernel == 0 || kernel > padded {
        return Err(TensorError::InvalidGeometry(format!(
            "kernel {kernel} does not fit padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Unrolls an NCHW input into the `[C·kh·kw, N·OH·OW]` patch matrix.
///
/// Column `((n·OH + oh)·OW + ow)` holds the receptive field of output
/// position `(oh, ow)` of sample `n`, flattened channel-major. Padding
/// positions contribute zeros.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4D input or
/// [`TensorError::InvalidGeometry`] for an infeasible geometry.
pub fn im2col(input: &Tensor, geom: Conv2dGeometry) -> Result<Tensor> {
    input.shape_obj().expect_rank(4)?;
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = n * oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    if rows == 0 || cols == 0 {
        return Ok(out);
    }
    let iv = input.as_slice();
    for (row, orow) in out.as_mut_slice().chunks_mut(cols).enumerate() {
        im2col_row(iv, orow, row, geom, (n, c, h, w), (oh, ow));
    }
    Ok(out)
}

/// Fills one `[N·OH·OW]` row of the patch matrix: kernel element
/// `(row % kw, (row / kw) % kh)` of channel `row / (kh·kw)`.
///
/// Every element of `orow` is written, padding positions with zero.
/// The in-image output rows and columns are computed once per row. At
/// stride 1 with `ow == w` (a "same" convolution, and every 1×1 one)
/// output row `y` reads input row `y + ki − p` at a fixed column offset,
/// so a sample's in-image rows are one contiguous run of its input
/// plane: one copy, then the few padding columns inside the run are
/// zeroed. Otherwise each in-image output row is one strided gather plus
/// its padding columns.
fn im2col_row(
    iv: &[f32],
    orow: &mut [f32],
    row: usize,
    geom: Conv2dGeometry,
    (n, c, h, w): (usize, usize, usize, usize),
    (oh, ow): (usize, usize),
) {
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let ci = row / (kh * kw);
    let ki = (row / kw) % kh;
    let kj = row % kw;
    debug_assert_eq!(orow.len(), n * oh * ow);
    let ys = in_image(oh, h, ki, s, p);
    let xs = in_image(ow, w, kj, s, p);
    if xs.is_empty() || ys.is_empty() {
        // Every position reads padding, and `x0` or `y0` below may lie
        // past the input.
        orow.fill(0.0);
        return;
    }
    // First input row and column read; `ys.start·s + ki ≥ p` and
    // `xs.start·s + kj ≥ p` by construction.
    let (y0, x0) = (ys.start * s + ki - p, xs.start * s + kj - p);
    let (first, last) = (ys.start * ow + xs.start, (ys.end - 1) * ow + xs.end);
    for (ni, sample) in orow.chunks_exact_mut(oh * ow).enumerate() {
        let plane = &iv[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
        if s == 1 && ow == w {
            sample[..first].fill(0.0);
            sample[first..last].copy_from_slice(&plane[y0 * w + x0..][..last - first]);
            sample[last..].fill(0.0);
            // Zero what the run copied from outside `xs`: the tail of
            // each in-image output row and the head of the next.
            for g in xs.end..ow + xs.start {
                for y in ys.start..ys.end - 1 {
                    sample[y * ow + g] = 0.0;
                }
            }
        } else {
            sample[..ys.start * ow].fill(0.0);
            sample[ys.end * ow..].fill(0.0);
            let rows = sample[ys.start * ow..ys.end * ow].chunks_exact_mut(ow);
            for (out_row, y) in rows.zip((y0..).step_by(s)) {
                let (pad_lo, rest) = out_row.split_at_mut(xs.start);
                let (dst, pad_hi) = rest.split_at_mut(xs.len());
                for d in pad_lo.iter_mut().chain(pad_hi) {
                    *d = 0.0;
                }
                let src = plane[y * w + x0..(y + 1) * w].iter().step_by(s);
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d = v;
                }
            }
        }
    }
}

/// Unrolls a batch-innermost input `[C, H, W, N]` into the
/// `[C·kh·kw, OH·OW·N]` patch matrix.
///
/// Row `(ci·kh + ki)·kw + kj` is kernel element `(ki, kj)` of channel
/// `ci`, as in [`im2col`]; column `(y·OW + x)·N + ni` holds it for output
/// position `(y, x)` of sample `ni`. Padding positions hold zeros.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-4D input or
/// [`TensorError::InvalidGeometry`] for an infeasible geometry.
pub fn im2col_chwn(input: &Tensor, geom: Conv2dGeometry) -> Result<Tensor> {
    input.shape_obj().expect_rank(4)?;
    let dims = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    let mut out = Vec::new();
    let (rows, cols) = lower_chwn_into(input.as_slice(), dims, geom, &mut out)?;
    Tensor::from_vec(out, &[rows, cols])
}

/// The batch-innermost patch matrix of `x: [C, H, W, N]` (`dims`) into
/// a reused buffer, which is resized to it and written in full: whatever
/// it held before is overwritten. Returns the matrix's rows and
/// columns. Shared by [`im2col_chwn`] and the integer-code
/// [`int_im2col`](crate::ops::int_im2col).
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `x` does not hold
/// `C·H·W·N` entries, or [`TensorError::InvalidGeometry`] for an
/// infeasible geometry.
pub(crate) fn lower_chwn_into<T: Copy + Default>(
    x: &[T],
    dims: [usize; 4],
    geom: Conv2dGeometry,
    out: &mut Vec<T>,
) -> Result<(usize, usize)> {
    let [c, h, w, n] = dims;
    if x.len() != c * h * w * n {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w * n,
            actual: x.len(),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let cols = oh * ow * n;
    // Only growth is zero-filled; the rows below overwrite the rest.
    out.resize(rows * cols, T::default());
    if cols > 0 {
        for (row, orow) in out.chunks_exact_mut(cols).enumerate() {
            lower_chwn_row(x, orow, row, geom, dims, (oh, ow));
        }
    }
    Ok((rows, cols))
}

/// Fills one `[OH·OW·N]` row of the batch-innermost patch matrix:
/// kernel element `(row % kw, (row / kw) % kh)` of channel
/// `row / (kh·kw)`.
///
/// Every element of `orow` is written, padding positions with
/// `T::default()` (zero), so the row may arrive holding anything. An
/// in-image output row `y` reads input row `y·s + ki − p`, whose `N`
/// samples per column are adjacent: at stride 1 its in-image columns
/// are one run of `xs.len()·N` elements, and when they are every column
/// of both planes (`ow == w`, the centre column of a "same" kernel) the
/// in-image rows are one run together. At larger strides each in-image
/// column is a run of `N`.
fn lower_chwn_row<T: Copy + Default>(
    iv: &[T],
    orow: &mut [T],
    row: usize,
    geom: Conv2dGeometry,
    [c, h, w, n]: [usize; 4],
    (oh, ow): (usize, usize),
) {
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let ci = row / (kh * kw);
    let ki = (row / kw) % kh;
    let kj = row % kw;
    debug_assert!(ci < c && orow.len() == oh * ow * n);
    let ys = in_image(oh, h, ki, s, p);
    let xs = in_image(ow, w, kj, s, p);
    if xs.is_empty() || ys.is_empty() {
        // Every position reads padding, and `x0` or `y0` below may lie
        // past the input.
        orow.fill(T::default());
        return;
    }
    // First input row and column read; `ys.start·s + ki ≥ p` and
    // `xs.start·s + kj ≥ p` by construction.
    let (y0, x0) = (ys.start * s + ki - p, xs.start * s + kj - p);
    let plane = &iv[ci * h * w * n..(ci + 1) * h * w * n];
    let out_row = ow * n;
    orow[..ys.start * out_row].fill(T::default());
    orow[ys.end * out_row..].fill(T::default());
    let inside = &mut orow[ys.start * out_row..ys.end * out_row];
    if s == 1 && xs.len() == ow && ow == w {
        // Every column in image: `x0 = 0` and the rows are adjacent.
        inside.copy_from_slice(&plane[y0 * w * n..][..inside.len()]);
        return;
    }
    for (dst, y) in inside.chunks_exact_mut(out_row).zip((y0..).step_by(s)) {
        let (pad_lo, rest) = dst.split_at_mut(xs.start * n);
        let (run, pad_hi) = rest.split_at_mut(xs.len() * n);
        pad_lo.fill(T::default());
        pad_hi.fill(T::default());
        let src = &plane[(y * w + x0) * n..(y + 1) * w * n];
        if s == 1 {
            run.copy_from_slice(&src[..run.len()]);
        } else {
            for (d, v) in run.chunks_exact_mut(n).zip(src.chunks(n).step_by(s)) {
                d.copy_from_slice(v);
            }
        }
    }
}

/// Output positions `o < out` whose input index `o·s + k − p` lies in
/// `[0, len)`: the rest read padding.
fn in_image(out: usize, len: usize, k: usize, s: usize, p: usize) -> Range<usize> {
    let lo = p.saturating_sub(k).div_ceil(s);
    let hi = (len + p).saturating_sub(k).div_ceil(s).min(out);
    lo..hi.max(lo)
}

/// Adjoint of [`im2col`]: scatter-adds a `[C·kh·kw, N·OH·OW]` patch matrix
/// back into an NCHW tensor of shape `[n, c, h, w]`.
///
/// Overlapping receptive fields accumulate, which is exactly the input
/// gradient of a convolution.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `cols` does not have the
/// shape implied by the geometry and output dims, or
/// [`TensorError::InvalidGeometry`] for an infeasible geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kernel_h * geom.kernel_w;
    let ncols = n * oh * ow;
    if cols.shape() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![rows, ncols],
            actual: cols.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[n, c, h, w]);
    if n == 0 || c == 0 || h * w == 0 {
        return Ok(out);
    }
    let cv = cols.as_slice();
    for (block, plane) in out.as_mut_slice().chunks_mut(h * w).enumerate() {
        let (ni, ci) = (block / c, block % c);
        col2im_plane(cv, plane, ni, ci, geom, (n, h, w), (oh, ow));
    }
    Ok(out)
}

/// Accumulates channel `ci` of sample `ni` (one `[h·w]` plane) from the
/// patch-matrix rows belonging to that channel.
fn col2im_plane(
    cv: &[f32],
    plane: &mut [f32],
    ni: usize,
    ci: usize,
    geom: Conv2dGeometry,
    (n, h, w): (usize, usize, usize),
    (oh, ow): (usize, usize),
) {
    let (kh, kw, s, p) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let ncols = n * oh * ow;
    for ki in 0..kh {
        for kj in 0..kw {
            let row = (ci * kh + ki) * kw + kj;
            let crow = &cv[row * ncols..(row + 1) * ncols];
            for ohi in 0..oh {
                let iy = (ohi * s + ki) as isize - p as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let out_row = iy as usize * w;
                let col_base = (ni * oh + ohi) * ow;
                for owi in 0..ow {
                    let ix = (owi * s + kj) as isize - p as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    plane[out_row + ix as usize] += crow[col_base + owi];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;

    const G1: Conv2dGeometry = Conv2dGeometry {
        kernel_h: 2,
        kernel_w: 2,
        stride: 1,
        padding: 0,
    };

    #[test]
    fn output_size_formula() {
        assert_eq!(conv_output_size(32, 3, 1, 1).unwrap(), 32);
        assert_eq!(conv_output_size(32, 3, 2, 1).unwrap(), 16);
        assert_eq!(conv_output_size(5, 2, 1, 0).unwrap(), 4);
        assert!(conv_output_size(2, 5, 1, 0).is_err());
        assert!(conv_output_size(4, 2, 0, 0).is_err());
    }

    #[test]
    fn im2col_simple_2x2() {
        // 1 sample, 1 channel, 3x3 input, 2x2 kernel, no padding.
        let input = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let cols = im2col(&input, G1).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // Columns are receptive fields at (0,0), (0,1), (1,0), (1,1).
        assert_eq!(
            cols.as_slice(),
            &[
                1.0, 2.0, 4.0, 5.0, // kernel element (0,0)
                2.0, 3.0, 5.0, 6.0, // kernel element (0,1)
                4.0, 5.0, 7.0, 8.0, // kernel element (1,0)
                5.0, 6.0, 8.0, 9.0, // kernel element (1,1)
            ]
        );
    }

    #[test]
    fn padding_contributes_zeros() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry {
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let cols = im2col(&input, g).unwrap();
        assert_eq!(cols.shape(), &[9, 4]);
        // Center kernel element never touches padding.
        let center_row = &cols.as_slice()[4 * 4..5 * 4];
        assert_eq!(center_row, &[1.0, 1.0, 1.0, 1.0]);
        // Top-left kernel element only sees real input at output (1,1).
        let tl_row = &cols.as_slice()[0..4];
        assert_eq!(tl_row, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn conv_via_gemm_matches_direct() {
        // Direct convolution cross-check on a random-ish input.
        let input = Tensor::from_fn(&[2, 2, 4, 4], |i| ((i * 7 + 3) % 11) as f32 - 5.0);
        let weight = Tensor::from_fn(&[3, 2, 2, 2], |i| ((i * 5 + 1) % 7) as f32 - 3.0);
        let g = Conv2dGeometry {
            kernel_h: 2,
            kernel_w: 2,
            stride: 2,
            padding: 1,
        };
        let (oh, ow) = g.output_hw(4, 4).unwrap();
        let cols = im2col(&input, g).unwrap();
        let wmat = weight.reshape(&[3, 2 * 2 * 2]).unwrap();
        let out = matmul(&wmat, &cols).unwrap(); // [O, N*OH*OW]

        // Direct nested-loop convolution.
        for ni in 0..2usize {
            for o in 0..3usize {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..2usize {
                            for ki in 0..2usize {
                                for kj in 0..2usize {
                                    let iy = (y * 2 + ki) as isize - 1;
                                    let ix = (x * 2 + kj) as isize - 1;
                                    if iy < 0 || ix < 0 || iy >= 4 || ix >= 4 {
                                        continue;
                                    }
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[o, ci, ki, kj]);
                                }
                            }
                        }
                        let col = (ni * oh + y) * ow + x;
                        let got = out.at(&[o, col]);
                        assert!(
                            (got - acc).abs() < 1e-4,
                            "mismatch at n={ni} o={o} y={y} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is what backprop requires.
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i * 13 + 5) % 17) as f32 - 8.0);
        let g = Conv2dGeometry {
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        let cols = im2col(&x, g).unwrap();
        let y = Tensor::from_fn(cols.shape(), |i| ((i * 3 + 1) % 5) as f32 - 2.0);
        let lhs = cols.dot(&y).unwrap();
        let back = col2im(&y, 1, 2, 5, 5, g).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!(
            (lhs - rhs).abs() < 1e-2,
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn col2im_validates_shape() {
        let bad = Tensor::zeros(&[3, 3]);
        assert!(col2im(&bad, 1, 1, 3, 3, G1).is_err());
    }

    #[test]
    fn im2col_requires_rank4() {
        assert!(im2col(&Tensor::zeros(&[3, 3]), G1).is_err());
    }
}
