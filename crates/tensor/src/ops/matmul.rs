//! Dense matrix products (row-major, `f32`).
//!
//! Every product runs on its caller's thread, and each output element
//! is one sum over `k` in strictly ascending order, begun at `+0.0`: the
//! order of a naive triple loop. Two size regimes keep that order:
//!
//! - Below `PACK_MIN_FLOPS` multiply-adds all three products run one
//!   output-stationary kernel, and `matmul` runs it for fewer than
//!   [`MR`] output rows at any size. It reads `A` as `[m, k]` or, for
//!   `matmul_at_b`, as the stored `[k, m]` transpose, and `B` as `[k, n]`
//!   rows (`matmul_a_bt` transposes its `B` first). Each output block
//!   ([`MR`] rows by `2·NR` columns, one row by `8·NR` past the last
//!   multiple of [`MR`] rows, then [`NR`], 4 and 1 columns) is summed in
//!   a local array and stored once.
//! - Above it (with at least [`MR`] rows for `matmul`), `matmul` and
//!   `matmul_a_bt` switch to a BLIS-style
//!   *packed* path: `B` is packed once into k-major panels of [`NR`]
//!   columns, each [`MR`]-row block of `A` is packed p-major, and an
//!   unrolled [`MR`]×[`NR`] register kernel accumulates 32 independent
//!   dot products per tile. Ragged edges are zero-padded at pack time (a
//!   padded lane accumulates garbage that is simply never written back),
//!   so one kernel covers every shape. `matmul_at_b` keeps an axpy loop
//!   over the rows of `B`, which skips the products of a zero `A` entry.
//!
//! Blocking and packing change which sums run side by side, never the
//! order within one, so both regimes are bit-identical to each other and
//! to the naive loop.

use crate::{Result, Tensor, TensorError};

/// Output rows per register block of both kernels.
const MR: usize = 4;

/// Output columns per register block of both kernels (one 8-lane
/// vector).
const NR: usize = 8;

/// Square tile edge for the cache-blocked transpose.
const TRANSPOSE_TILE: usize = 32;

/// Minimum number of multiply-adds before the packed-panel path pays for
/// its packing buffers; below this the small-product kernel wins.
/// `matmul_at_b` keeps its axpy loop above it.
const PACK_MIN_FLOPS: usize = 1 << 14;

fn check_rank2(t: &Tensor) -> Result<(usize, usize)> {
    t.shape_obj().expect_rank(2)?;
    Ok((t.shape()[0], t.shape()[1]))
}

/// The one kernel of all three products below `PACK_MIN_FLOPS`:
/// `C = A·B` into `ov: [m, n]`, `n > 0`, for `B: [k, n]` row-major and
/// `A: [m, k]` row-major or, with `A_T`, stored as `Aᵀ: [k, m]`. Each
/// output block is summed in a local array from `+0.0` over ascending
/// `p` and stored once. A wide block is [`MR`] rows by `2·NR` columns,
/// or one row by `8·NR` for the last `m mod MR` rows: eight 8-lane
/// sums either way, enough independent chains to hide the add latency.
/// The columns a wide block leaves go in blocks of [`NR`], 4 and 1.
fn small_gemm<const A_T: bool>(av: &[f32], bv: &[f32], ov: &mut [f32], n: usize) {
    let (m, k) = (ov.len() / n, bv.len() / n);
    for (ib, orows) in ov.chunks_mut(MR * n).enumerate() {
        if orows.len() == MR * n {
            small_rows::<MR, { 2 * NR }, A_T>(av, bv, orows, (m, k, n), ib * MR);
        } else {
            for (ii, orow) in orows.chunks_exact_mut(n).enumerate() {
                small_rows::<1, { 8 * NR }, A_T>(av, bv, orow, (m, k, n), ib * MR + ii);
            }
        }
    }
}

/// Output rows `[i0, i0 + R)` of [`small_gemm`] into `orows: [R, n]`,
/// in blocks of `WIDE` columns, then [`NR`], 4 and 1.
#[inline(always)]
fn small_rows<const R: usize, const WIDE: usize, const A_T: bool>(
    av: &[f32],
    bv: &[f32],
    orows: &mut [f32],
    dims: (usize, usize, usize),
    i0: usize,
) {
    let j = small_blocks::<R, WIDE, A_T>(av, bv, orows, dims, i0, 0);
    let j = small_blocks::<R, NR, A_T>(av, bv, orows, dims, i0, j);
    let j = small_blocks::<R, 4, A_T>(av, bv, orows, dims, i0, j);
    small_blocks::<R, 1, A_T>(av, bv, orows, dims, i0, j);
}

/// Sums the `R×W` blocks of `orows` from column `j` while a whole block
/// fits, and returns the first column left.
#[inline(always)]
fn small_blocks<const R: usize, const W: usize, const A_T: bool>(
    av: &[f32],
    bv: &[f32],
    orows: &mut [f32],
    (m, k, n): (usize, usize, usize),
    i0: usize,
    mut j: usize,
) -> usize {
    // `A`'s rows, sliced once so the `p` loop indexes them without
    // bounds checks; with `A_T` the `R` entries at one `p` are adjacent.
    let rows: [&[f32]; R] = std::array::from_fn(|r| {
        if A_T {
            &[]
        } else {
            &av[(i0 + r) * k..(i0 + r + 1) * k]
        }
    });
    while j + W <= n {
        let mut acc = [[0.0f32; W]; R];
        for p in 0..k {
            let b = &bv[p * n + j..p * n + j + W];
            let a: [f32; R] = if A_T {
                let col = &av[p * m + i0..p * m + i0 + R];
                std::array::from_fn(|r| col[r])
            } else {
                std::array::from_fn(|r| rows[r][p])
            };
            for (accr, &x) in acc.iter_mut().zip(&a) {
                for (c, &y) in accr.iter_mut().zip(b) {
                    *c += x * y;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            orows[r * n + j..r * n + j + W].copy_from_slice(accr);
        }
        j += W;
    }
    j
}

/// `B` packed into k-major column panels for the [`MR`]×[`NR`] kernel.
///
/// Panel `jp` covers output columns `[jp·NR, jp·NR + NR)` and stores
/// `bp[p·NR + jj] = B[p, jp·NR + jj]` contiguously; columns past `n` are
/// zero-padded so the kernel never branches on the ragged edge.
struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs `B: [k, n]` (the `matmul` operand).
    fn from_b(bv: &[f32], k: usize, n: usize) -> Self {
        let panels = n.div_ceil(NR);
        let mut data = vec![0.0f32; panels * k * NR];
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = (n - j0).min(NR);
            let panel = &mut data[jp * k * NR..(jp + 1) * k * NR];
            for p in 0..k {
                let brow = &bv[p * n + j0..p * n + j0 + w];
                panel[p * NR..p * NR + w].copy_from_slice(brow);
            }
        }
        PackedB { data, k, n }
    }

    /// Packs `B: [n, k]` as its transpose (the `matmul_a_bt` operand):
    /// panel lane `jj` holds row `j0 + jj` of `B`, p-major.
    fn from_bt(bv: &[f32], k: usize, n: usize) -> Self {
        let panels = n.div_ceil(NR);
        let mut data = vec![0.0f32; panels * k * NR];
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = (n - j0).min(NR);
            let panel = &mut data[jp * k * NR..(jp + 1) * k * NR];
            for jj in 0..w {
                let brow = &bv[(j0 + jj) * k..(j0 + jj + 1) * k];
                for (p, &b) in brow.iter().enumerate() {
                    panel[p * NR + jj] = b;
                }
            }
        }
        PackedB { data, k, n }
    }

    /// The packed panel covering output columns `[jp·NR, jp·NR + NR)`.
    fn panel(&self, jp: usize) -> &[f32] {
        &self.data[jp * self.k * NR..(jp + 1) * self.k * NR]
    }
}

/// Packs rows `[i0, i0 + h)` of `A: [m, k]` p-major into `ap`
/// (`ap[p·MR + ii] = A[i0 + ii, p]`), zero-padding rows past `h`.
fn pack_a_block(av: &[f32], ap: &mut [f32], k: usize, i0: usize, h: usize) {
    ap.fill(0.0);
    for ii in 0..h {
        let arow = &av[(i0 + ii) * k..(i0 + ii + 1) * k];
        for (p, &a) in arow.iter().enumerate() {
            ap[p * MR + ii] = a;
        }
    }
}

/// The [`MR`]×[`NR`] register microkernel: 32 independent accumulators,
/// each fed `a·b` products over `p` in strictly ascending order — the
/// same single-chain accumulation as a naive triple loop, so the result
/// is bit-identical to the unpacked kernels.
#[inline]
fn kernel_mr_nr(ap: &[f32], bp: &[f32], k: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let a = &ap[p * MR..(p + 1) * MR];
        let b = &bp[p * NR..(p + 1) * NR];
        for (accr, &ai) in acc.iter_mut().zip(a) {
            for (c, &bj) in accr.iter_mut().zip(b) {
                *c += ai * bj;
            }
        }
    }
    acc
}

/// Computes `C = A·panel(B)` into `ov` (all of `C`) from pre-packed `B`
/// panels. The rows of `A` are packed once into [`MR`]-row p-major
/// blocks in `ap`, then the `B` panel runs as the *outer* loop so one
/// `k×NR` panel stays cache-hot while the packed `A` blocks stream past
/// it. `ap` is a parameter rather than a local `Vec`: at 512³ the local
/// form ran 15–20% slower on an x86-64-v3 build, with the same bits.
fn matmul_rows_packed(av: &[f32], pb: &PackedB, ov: &mut [f32], ap: &mut Vec<f32>) {
    let (k, n) = (pb.k, pb.n);
    if n == 0 {
        return;
    }
    let rows = ov.len() / n;
    let blocks = rows.div_ceil(MR);
    let block_len = k * MR;
    ap.clear();
    ap.resize(blocks * block_len, 0.0);
    for ib in 0..blocks {
        let h = (rows - ib * MR).min(MR);
        pack_a_block(
            av,
            &mut ap[ib * block_len..(ib + 1) * block_len],
            k,
            ib * MR,
            h,
        );
    }
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let panel = pb.panel(jp);
        for ib in 0..blocks {
            let i = ib * MR;
            let h = (rows - i).min(MR);
            let acc = kernel_mr_nr(&ap[ib * block_len..(ib + 1) * block_len], panel, k);
            for (ii, accr) in acc.iter().enumerate().take(h) {
                let orow = &mut ov[(i + ii) * n + j0..(i + ii) * n + j0 + w];
                orow.copy_from_slice(&accr[..w]);
            }
        }
    }
}

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// The small-product kernel; packed-panel above `PACK_MIN_FLOPS` from
/// four rows up.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ccq_tensor::{ops::matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), ccq_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a)?;
    let (k2, n) = check_rank2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    // With fewer than `MR` rows most of each padded register block is
    // waste, and packing `B` costs as much as the product: at 2×18×2048
    // the small kernel takes a fifth of the packed path's time.
    if m >= MR && m * n * k >= PACK_MIN_FLOPS {
        matmul_rows_packed(
            av,
            &PackedB::from_b(bv, k, n),
            out.as_mut_slice(),
            &mut Vec::new(),
        );
    } else {
        small_gemm::<false>(av, bv, out.as_mut_slice(), n);
    }
    Ok(out)
}

/// Whether no entry of `v` is infinite or NaN: those are the `|y|` bit
/// patterns from infinity's up. A max over every entry, not an early
/// exit, so the scan vectorizes.
fn all_finite(v: &[f32]) -> bool {
    v.iter().fold(0, |top, y| top.max(y.abs().to_bits())) < f32::INFINITY.to_bits()
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` without materializing `Aᵀ`.
///
/// The products of a zero `A` entry are left out, so a zero against an
/// infinite or NaN `B` entry adds nothing.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the shared `k` dimensions
/// disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check_rank2(a)?;
    let (k2, n) = check_rank2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let (av, bv, ov) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    // With every `B` entry finite, a zero `A` entry's products are ±0.0,
    // which leave a sum begun at +0.0 (never −0.0) unchanged: the kernel
    // equals the zero skip below bit for bit.
    if m * n * k < PACK_MIN_FLOPS && all_finite(bv) {
        small_gemm::<true>(av, bv, ov, n);
        return Ok(out);
    }
    for p in 0..k {
        let brow = &bv[p * n..(p + 1) * n];
        for (&api, orow) in av[p * m..(p + 1) * m].iter().zip(ov.chunks_exact_mut(n)) {
            // ccq-lint: allow(float-eq) — exact zero skips an axpy that cannot change the output
            if api == 0.0 {
                continue; // axpy of zero; skip the memory traffic
            }
            for (o, &b) in orow.iter_mut().zip(brow) {
                *o += api * b;
            }
        }
    }
    Ok(out)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` without materializing `Bᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the shared `k` dimensions
/// disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check_rank2(a)?;
    let (n, k2) = check_rank2(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    // Unlike `matmul`, this packs `B` at fewer than `MR` rows too: the
    // small kernel would first transpose `B`, and measured no faster
    // than the packing at those sizes.
    if m * n * k >= PACK_MIN_FLOPS {
        matmul_rows_packed(
            av,
            &PackedB::from_bt(bv, k, n),
            out.as_mut_slice(),
            &mut Vec::new(),
        );
    } else {
        let mut bt = Vec::with_capacity(k * n);
        for p in 0..k {
            bt.extend(bv.chunks_exact(k).map(|brow| brow[p]));
        }
        small_gemm::<false>(av, &bt, out.as_mut_slice(), n);
    }
    Ok(out)
}

/// Transpose of a matrix, tiled for cache locality: the naive loop's
/// column-stride writes thrash on tall matrices, so both the strided
/// reads and the writes stay within one `TRANSPOSE_TILE`² block.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
pub fn transpose2d(a: &Tensor) -> Result<Tensor> {
    let (m, n) = check_rank2(a)?;
    let mut out = Vec::new();
    transpose_into(a.as_slice(), m, n, &mut out)?;
    Tensor::from_vec(out, &[n, m])
}

/// [`transpose2d`] of the row-major `[m, n]` matrix `av` into a reused
/// buffer, which is resized to `m·n` and written in full: whatever it
/// held before is overwritten.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `av` does not hold `m·n`
/// entries.
pub fn transpose_into(av: &[f32], m: usize, n: usize, out: &mut Vec<f32>) -> Result<()> {
    if av.len() != m * n {
        return Err(TensorError::LengthMismatch {
            expected: m * n,
            actual: av.len(),
        });
    }
    // Only growth is zero-filled; the tiles below overwrite the rest.
    out.resize(m * n, 0.0);
    let ov = out.as_mut_slice();
    for ib in (0..m).step_by(TRANSPOSE_TILE) {
        let ie = (ib + TRANSPOSE_TILE).min(m);
        for jb in (0..n).step_by(TRANSPOSE_TILE) {
            let je = (jb + TRANSPOSE_TILE).min(n);
            for i in ib..ie {
                let in_row = &av[i * n..(i + 1) * n];
                for j in jb..je {
                    ov[j * m + i] = in_row[j];
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_2x3_3x2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = matmul(&a, &Tensor::eye(2)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch {
                left_cols: 3,
                right_rows: 4
            })
        ));
    }

    #[test]
    fn matmul_rejects_non_matrix() {
        let a = Tensor::zeros(&[2, 3, 4]);
        assert!(matches!(
            matmul(&a, &Tensor::eye(2)),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(&[1.0, 0.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]);
        let via_t = matmul(&transpose2d(&a).unwrap(), &b).unwrap();
        let direct = matmul_at_b(&a, &b).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[3, 2]);
        let via_t = matmul(&a, &transpose2d(&b).unwrap()).unwrap();
        let direct = matmul_a_bt(&a, &b).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_round_trips() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let back = transpose2d(&transpose2d(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[0, 2]);
    }

    /// Integer-valued matrices larger than the tile/register blocks:
    /// blocked kernels must agree exactly with a reference triple loop
    /// (all intermediate sums are exactly representable).
    #[test]
    fn blocked_kernels_match_reference_on_odd_shapes() {
        // 7 rows exercises the MR=4 block plus a 3-row tail; 70 columns
        // exercises the a_bt 4-dot block plus a 2-dot tail.
        let (m, k, n) = (7, 9, 70);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 7 + 3) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 5 + 1) % 11) as f32 - 5.0);
        let c = matmul(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                assert_eq!(c.at(&[i, j]), acc, "matmul mismatch at ({i}, {j})");
            }
        }
        let at = transpose2d(&a).unwrap(); // [k, m] viewed as Aᵀ input
        assert_eq!(matmul_at_b(&at, &b).unwrap(), c);
        let bt = transpose2d(&b).unwrap(); // [n, k]
        assert_eq!(matmul_a_bt(&a, &bt).unwrap(), c);
    }

    /// Packed-panel kernels on shapes the `PACK_MIN_FLOPS` dispatch
    /// would not normally route to them: 1×1, ragged row/column tails,
    /// and empty dims — exact match vs a naive triple loop on
    /// integer-valued data, as is `matmul_at_b`.
    #[test]
    fn packed_kernels_match_naive_on_edge_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 3, 1),
            (4, 8, 8),
            (5, 3, 9),  // MR tail of 1 row, NR tail of 1 column
            (7, 9, 70), // several panels plus a 6-column tail
            (3, 1, 17),
            (0, 3, 4),
            (4, 0, 4),
            (4, 3, 0),
            (33, 40, 70),
            (96, 64, 80),
        ] {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 7 + 3) % 13) as f32 - 6.0);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 5 + 1) % 11) as f32 - 5.0);
            let mut packed = Tensor::zeros(&[m, n]);
            let pb = PackedB::from_b(b.as_slice(), k, n);
            matmul_rows_packed(a.as_slice(), &pb, packed.as_mut_slice(), &mut Vec::new());
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.at(&[i, p]) * b.at(&[p, j]);
                    }
                    assert_eq!(packed.at(&[i, j]), acc, "({i}, {j}) of {m}x{k}x{n}");
                }
            }
            let bt = transpose2d(&b).unwrap(); // [n, k]
            let mut packed_bt = Tensor::zeros(&[m, n]);
            let pbt = PackedB::from_bt(bt.as_slice(), k, n);
            matmul_rows_packed(
                a.as_slice(),
                &pbt,
                packed_bt.as_mut_slice(),
                &mut Vec::new(),
            );
            assert_eq!(packed_bt, packed, "a_bt pack of {m}x{k}x{n}");
            let at = transpose2d(&a).unwrap(); // [k, m]
            assert_eq!(matmul_at_b(&at, &b).unwrap(), packed, "at_b of {m}x{k}x{n}");
        }
    }

    /// The packed path is *bit*-identical to the small-product kernel
    /// on values whose sums are not exactly representable, in each of
    /// the kernel's `A` layouts — the accumulation order is the
    /// contract, not just the math.
    #[test]
    fn packed_path_is_bit_identical_to_the_small_kernel() {
        let (m, k, n) = (13, 21, 29);
        let a = Tensor::from_fn(&[m, k], |i| (i as f32 * 0.37 + 0.11).sin());
        let b = Tensor::from_fn(&[k, n], |i| (i as f32 * 0.53 - 0.07).cos());
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut small = Tensor::zeros(&[m, n]);
        small_gemm::<false>(a.as_slice(), b.as_slice(), small.as_mut_slice(), n);
        let mut packed = Tensor::zeros(&[m, n]);
        let pb = PackedB::from_b(b.as_slice(), k, n);
        matmul_rows_packed(a.as_slice(), &pb, packed.as_mut_slice(), &mut Vec::new());
        assert_eq!(bits(&packed), bits(&small));
        // The a_bt packing of the same product.
        let bt = transpose2d(&b).unwrap();
        let mut packed_bt = Tensor::zeros(&[m, n]);
        let pbt = PackedB::from_bt(bt.as_slice(), k, n);
        matmul_rows_packed(
            a.as_slice(),
            &pbt,
            packed_bt.as_mut_slice(),
            &mut Vec::new(),
        );
        assert_eq!(bits(&packed_bt), bits(&small));
        // The kernel reading `A` as its stored transpose.
        let at = transpose2d(&a).unwrap();
        let mut small_at = Tensor::zeros(&[m, n]);
        small_gemm::<true>(at.as_slice(), b.as_slice(), small_at.as_mut_slice(), n);
        assert_eq!(bits(&small_at), bits(&small));
    }

    /// Shapes above `PACK_MIN_FLOPS` take the packed path through the
    /// public API and must agree exactly with the reference loop.
    #[test]
    fn public_matmul_packed_threshold_crossing() {
        let (m, k, n) = (33, 40, 70); // 92_400 flops ≥ PACK_MIN_FLOPS
        assert!(m * k * n >= PACK_MIN_FLOPS);
        let a = Tensor::from_fn(&[m, k], |i| ((i * 11 + 2) % 17) as f32 - 8.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 3 + 5) % 19) as f32 - 9.0);
        let c = matmul(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                assert_eq!(c.at(&[i, j]), acc, "({i}, {j})");
            }
        }
        let bt = transpose2d(&b).unwrap();
        assert_eq!(matmul_a_bt(&a, &bt).unwrap(), c);
    }

    /// Tiled transpose on shapes larger than one tile, including
    /// non-multiples of the tile edge.
    #[test]
    fn tiled_transpose_matches_naive() {
        for (m, n) in [(1, 1), (3, 100), (100, 3), (33, 65), (64, 64)] {
            let a = Tensor::from_fn(&[m, n], |i| i as f32);
            let tr = transpose2d(&a).unwrap();
            assert_eq!(tr.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(tr.at(&[j, i]), a.at(&[i, j]), "({i}, {j}) of {m}x{n}");
                }
            }
        }
    }
}
