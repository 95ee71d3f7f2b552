//! The batch-innermost layout of the packed forward.
//!
//! Inside [`Network::forward_packed`](crate::Network::forward_packed)
//! every rank-4 activation is `[c, h, w, n]`: the `n` samples of one
//! channel and position are adjacent. A convolution's patch matrix is
//! then `[c·kh·kw, oh·ow·n]`, lowered in runs of `n` or more, and its
//! product with the weights is the `[out_ch, oh, ow, n]` output itself.
//! The network converts a rank-4 input once on entry and a rank-4 output
//! once on exit; both are one transpose of an `[n, c·h·w]` matrix.

use crate::Result;
use ccq_tensor::ops::transpose_into;
use ccq_tensor::Tensor;

/// The four extents of a rank-4 tensor.
pub(crate) fn dims4(x: &Tensor) -> Result<[usize; 4]> {
    x.shape_obj().expect_rank(4)?;
    let s = x.shape();
    Ok([s[0], s[1], s[2], s[3]])
}

/// An NCHW tensor `[n, c, h, w]` as batch-innermost `[c, h, w, n]`,
/// written into `buf`'s memory.
pub(crate) fn to_chwn(x: &Tensor, mut buf: Vec<f32>) -> Result<Tensor> {
    let [n, c, h, w] = dims4(x)?;
    transpose_into(x.as_slice(), n, c * h * w, &mut buf)?;
    Ok(Tensor::from_vec(buf, &[c, h, w, n])?)
}

/// A batch-innermost tensor `[c, h, w, n]` as NCHW `[n, c, h, w]`.
pub(crate) fn to_nchw(x: &Tensor) -> Result<Tensor> {
    let [c, h, w, n] = dims4(x)?;
    let mut buf = Vec::new();
    transpose_into(x.as_slice(), c * h * w, n, &mut buf)?;
    Ok(Tensor::from_vec(buf, &[n, c, h, w])?)
}
