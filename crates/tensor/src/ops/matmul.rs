//! Dense matrix products (row-major, `f32`).
//!
//! Every product runs on its caller's thread, and each output element
//! accumulates over `k` in strictly ascending order.
//!
//! The microkernels are register-blocked: `matmul` streams each `B` row
//! through [`MR`] output rows at once (amortizing the `B` loads that
//! dominate the naive i-k-j loop), and `matmul_a_bt` computes [`MR`]
//! dot products per pass over an `A` row. Blocking groups *rows*, never
//! partial sums, which is what preserves bit-identity.
//!
//! Above `PACK_MIN_FLOPS`, `matmul` and `matmul_a_bt` switch to a
//! BLIS-style *packed* path: `B` is packed once into k-major panels of
//! [`NR`] columns, each [`MR`]-row block of `A` is packed p-major, and an
//! unrolled [`MR`]×[`NR`] register kernel accumulates 32 independent
//! dot products per tile. Ragged edges are zero-padded at pack time (a
//! padded lane accumulates garbage that is simply never written back),
//! so one kernel covers every shape. Packing is a layout change only:
//! each output element is still one accumulator fed over `k` in strictly
//! ascending order, so the packed path is bit-identical to the unpacked
//! kernels and to a naive triple loop.

use crate::{Result, Tensor, TensorError};

/// Register-blocked row group size for the microkernels.
const MR: usize = 4;

/// Column-panel width of the packed microkernel (one 8-lane FMA vector).
const NR: usize = 8;

/// Square tile edge for the cache-blocked transpose.
const TRANSPOSE_TILE: usize = 32;

/// Minimum number of multiply-adds before the packed-panel path pays for
/// its packing buffers; below this the plain register-blocked kernels
/// win.
const PACK_MIN_FLOPS: usize = 1 << 14;

fn check_rank2(t: &Tensor) -> Result<(usize, usize)> {
    t.shape_obj().expect_rank(2)?;
    Ok((t.shape()[0], t.shape()[1]))
}

/// Accumulates `C = A·B` into `ov` (all of `C`). `A: [m, k]`,
/// `B: [k, n]`.
fn matmul_rows(av: &[f32], bv: &[f32], ov: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = ov.len() / n;
    let mut i = 0;
    while i < rows {
        let block = (rows - i).min(MR);
        let a_block = &av[i * k..(i + block) * k];
        let out_block = &mut ov[i * n..(i + block) * n];
        if block == MR {
            // Four output rows per pass over each B row: one load of
            // b[j] feeds four fused multiply-adds.
            let (o0, rest) = out_block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            for p in 0..k {
                let (a0, a1, a2, a3) = (
                    a_block[p],
                    a_block[k + p],
                    a_block[2 * k + p],
                    a_block[3 * k + p],
                );
                let brow = &bv[p * n..(p + 1) * n];
                for j in 0..n {
                    let b = brow[j];
                    o0[j] += a0 * b;
                    o1[j] += a1 * b;
                    o2[j] += a2 * b;
                    o3[j] += a3 * b;
                }
            }
        } else {
            for bi in 0..block {
                let arow = &a_block[bi * k..(bi + 1) * k];
                let orow = &mut out_block[bi * n..(bi + 1) * n];
                for (p, &aip) in arow.iter().enumerate() {
                    let brow = &bv[p * n..(p + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += aip * b;
                    }
                }
            }
        }
        i += block;
    }
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
/// A register-blocked microkernel, packed-panel above `PACK_MIN_FLOPS`.
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
    if m * n * k >= PACK_MIN_FLOPS {
        matmul_rows_packed(
            av,
            &PackedB::from_b(bv, k, n),
            out.as_mut_slice(),
            &mut Vec::new(),
        );
    } else {
        matmul_rows(av, bv, out.as_mut_slice(), k, n);
    }
    Ok(out)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` without materializing `Aᵀ`.
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

/// Accumulates `C = A·Bᵀ` into `ov` (all of `C`). `A: [m, k]`,
/// `B: [n, k]`.
fn matmul_a_bt_rows(av: &[f32], bv: &[f32], ov: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = ov.len() / n;
    for i in 0..rows {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut ov[i * n..(i + 1) * n];
        let mut j = 0;
        // MR dot products per pass over arow: each a[p] load feeds
        // four B rows. Each dot still accumulates over p in ascending
        // order into a single accumulator, preserving bit-identity
        // with the scalar tail below.
        while j + MR <= n {
            let b0 = &bv[j * k..(j + 1) * k];
            let b1 = &bv[(j + 1) * k..(j + 2) * k];
            let b2 = &bv[(j + 2) * k..(j + 3) * k];
            let b3 = &bv[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for p in 0..k {
                let ap = arow[p];
                s0 += ap * b0[p];
                s1 += ap * b1[p];
                s2 += ap * b2[p];
                s3 += ap * b3[p];
            }
            orow[j] += s0;
            orow[j + 1] += s1;
            orow[j + 2] += s2;
            orow[j + 3] += s3;
            j += MR;
        }
        while j < n {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            orow[j] += acc;
            j += 1;
        }
    }
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
    if m * n * k >= PACK_MIN_FLOPS {
        matmul_rows_packed(
            av,
            &PackedB::from_bt(bv, k, n),
            out.as_mut_slice(),
            &mut Vec::new(),
        );
    } else {
        matmul_a_bt_rows(av, bv, out.as_mut_slice(), k, n);
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
    let mut out = Tensor::zeros(&[n, m]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let (av, ov) = (a.as_slice(), out.as_mut_slice());
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
    Ok(out)
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

    /// The packed path is *bit*-identical to the unpacked register
    /// kernels on values whose sums are not exactly representable — the
    /// accumulation order is the contract, not just the math.
    #[test]
    fn packed_path_is_bit_identical_to_unpacked() {
        let (m, k, n) = (13, 21, 29);
        let a = Tensor::from_fn(&[m, k], |i| (i as f32 * 0.37 + 0.11).sin());
        let b = Tensor::from_fn(&[k, n], |i| (i as f32 * 0.53 - 0.07).cos());
        let mut unpacked = Tensor::zeros(&[m, n]);
        matmul_rows(a.as_slice(), b.as_slice(), unpacked.as_mut_slice(), k, n);
        let mut packed = Tensor::zeros(&[m, n]);
        let pb = PackedB::from_b(b.as_slice(), k, n);
        matmul_rows_packed(a.as_slice(), &pb, packed.as_mut_slice(), &mut Vec::new());
        for (x, y) in packed.as_slice().iter().zip(unpacked.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The a_bt flavor against its unpacked kernel, same contract.
        let bt = transpose2d(&b).unwrap();
        let mut unpacked_bt = Tensor::zeros(&[m, n]);
        matmul_a_bt_rows(
            a.as_slice(),
            bt.as_slice(),
            unpacked_bt.as_mut_slice(),
            k,
            n,
        );
        let mut packed_bt = Tensor::zeros(&[m, n]);
        let pbt = PackedB::from_bt(bt.as_slice(), k, n);
        matmul_rows_packed(
            a.as_slice(),
            &pbt,
            packed_bt.as_mut_slice(),
            &mut Vec::new(),
        );
        for (x, y) in packed_bt.as_slice().iter().zip(unpacked_bt.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
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
